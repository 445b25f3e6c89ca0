"""Batch-vectorized Jacobi engine: stacked ndarray execution across the
batch axis.

The simulated batched kernels model one thread block per matrix (paper
§IV-B/C); executing them as a Python ``for`` loop over matrices leaves that
parallelism on the table. This module is the NumPy realization of the GPU's
batch axis: matrices are grouped into shape-uniform buckets
(:mod:`repro.utils.bucketing`), each bucket is stacked into a ``(b, m, n)``
ndarray, and the Jacobi sweeps run across the whole bucket with 3-D
``einsum``/broadcast arithmetic — the batch-axis vectorization that makes
Jacobi SVD fast on wide-SIMD hardware.

Per-matrix independence is preserved exactly:

- every rotation decision (Eq. 4 activation, Rutishauser's criterion, the
  zero-column floor) is evaluated elementwise per matrix, so a matrix in a
  bucket sees the same rotations as it would alone;
- convergence is tracked per matrix; finished matrices *drop out* of the
  stack (the live stack is compacted) while the bucket keeps sweeping —
  mirroring GPU thread blocks that retire independently;
- the batched reductions (``einsum`` dot products, stacked ``matmul``)
  accumulate in the same order as their 2-D counterparts, so results match
  the per-matrix solvers to the last bit in practice and to ``<= 1e-12``
  by contract.

A tall bucket (``m >= 2n``) is swept as the ``n x n`` triangular factors
of one stacked QR and mapped back as ``W = Q @ W_R``
(:func:`~repro.jacobi.preconditioning.qr_detour`), the detour the
per-matrix solver takes too, so a rotation touches ``n`` rows instead of
``m``. A matrix whose largest entry is far from 1 is shifted by an exact
power of two before it is bucketed, and its singular values are shifted
back when its factors are placed
(:func:`~repro.jacobi.preconditioning.safe_exponent`); a symmetric matrix
of :meth:`BatchedJacobiEngine.evd_batch` likewise, with its eigenvalues
shifted back (:func:`~repro.jacobi.preconditioning.shift_symmetric`).

Data-dependent schedules (the ``dynamic`` ordering) and the sequential
two-sided EVD cannot share one schedule across a bucket; those fall back to
the per-matrix solvers.

With an :class:`~repro.runtime.executor.Executor` attached, buckets are
additionally *sharded* across host workers: each bucket is cut into
contiguous sub-stacks (:mod:`repro.runtime.scheduler`), dispatched
largest-cost-first, and scattered back by original batch index. Because
every rotation decision is already per-matrix, the shard boundaries cannot
change any matrix's arithmetic — parallel results are bit-identical to the
serial path. The ``persistent`` backend moves sub-stacks through leased
slots of its shared-memory :class:`~repro.runtime.arena.Arena` instead of
pickling them.

Failure handling is two-mode. In ``on_failure="raise"`` (the default) a
matrix that exhausts its sweep budget — or turns non-finite mid-sweep —
raises :class:`~repro.errors.ConvergenceError` /
:class:`~repro.errors.NonFiniteError` carrying the *caller-space*
``batch_indices`` of the offenders and the failing bucket's shape. In
``on_failure="quarantine"`` the engine absorbs the failure instead: the
failed unit is re-solved inline in report mode (healthy matrices keep
their bit-identical bucketed results), the offenders fall back to the
reference per-matrix solvers, and anything still failing gets NaN
placeholder factors — every event recorded in the engine's
:class:`~repro.errors.FailureReport` (``engine.last_failures``).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    FailureReport,
    NonFiniteError,
)
from repro.jacobi.factors import finalize_evd_stack, finalize_stack
from repro.jacobi.fused import (
    FusedEVDSweeper,
    FusedSVDSweeper,
    KernelTimes,
    ScratchPool,
    sweep_plan,
)
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.parallel_evd import ParallelJacobiEVD
from repro.jacobi.preconditioning import (
    qr_detour,
    safe_exponent,
    shift_symmetric,
    unshift,
    unshift_evd,
)
from repro.jacobi.twosided_evd import TwoSidedConfig, TwoSidedJacobiEVD
from repro.orderings import Ordering, get_ordering
from repro.runtime import faults
from repro.runtime.executor import (
    ON_FAILURE_MODES,
    Executor,
    TaskError,
    _CapturedCall,
)
from repro.runtime.arena import resolve as _arena_resolve
from repro.runtime.resilient import base_executor, policy_of
from repro.runtime.scheduler import (
    evd_stack_cost,
    shard_count,
    split_shards,
    svd_stack_cost,
)
from repro.types import ConvergenceTrace, EVDResult, SVDResult
from repro.utils.bucketing import bucket_by_shape, order_buckets
from repro.utils.validation import as_matrix, check_square_symmetric

__all__ = [
    "BatchedJacobiEngine",
    "StackedOneSidedJacobi",
    "StackedParallelEVD",
]

_EPS = np.finfo(np.float64).eps

#: ``solve_stack`` failure modes: raise on the first failing matrix, or
#: drop failures out of the stack and report them alongside the results.
_STACK_MODES = ("raise", "report")


def _remap_stack_error(
    exc: ConvergenceError | NonFiniteError,
    shape: tuple[int, ...],
    batch_indices: tuple[int, ...],
) -> ConvergenceError | NonFiniteError:
    """Rewrite a stack-local failure into caller space.

    The stacked solvers report offenders by *position* in their
    ``(b, m, n)`` stack; batch drivers (and users reading the traceback)
    need the caller's batch indices and the shape of the bucket that
    failed. ``batch_indices`` maps stack position -> caller index for the
    failing unit. Several positions may map to one caller index (a
    W-cycle step stacks each matrix's panels side by side), which is then
    named once; re-pointing an already remapped error replaces its note.
    """
    positions = exc.batch_indices or ()
    global_idx = tuple(dict.fromkeys(int(batch_indices[p]) for p in positions))
    dims = "x".join(str(d) for d in shape)
    note = f" [bucket shape {dims}, batch indices {list(global_idx)}]"
    base = str(exc.args[0]) if exc.args else type(exc).__name__
    msg = base.partition(" [bucket shape ")[0] + note
    if isinstance(exc, ConvergenceError):
        return ConvergenceError(
            msg,
            sweeps=exc.sweeps,
            residual=exc.residual,
            batch_indices=global_idx,
        )
    return NonFiniteError(msg, batch_indices=global_idx)


def _stop_array(stop, tol: float, count: int) -> np.ndarray:
    """Per-matrix stop tolerances: ``stop``, or ``tol`` for every matrix.

    A stop below the rotation tolerance could never be met (no pair under
    ``tol`` rotates), so it is rejected.
    """
    if stop is None:
        return np.full(count, tol)
    stop = np.asarray(stop, dtype=np.float64)
    if stop.shape != (count,) or not (stop >= tol).all():
        raise ConfigurationError(
            f"stop must hold {count} value(s) >= the tolerance {tol:g}"
        )
    return stop


def _floor_rows(floors, count: int) -> np.ndarray:
    """Per-matrix ``(noise, diag_floor)`` rows: ``floors``, or for every
    matrix the standalone pair ``(eps, 0)``: elements at ``eps ||B||_F``
    are noise, and no pair is exempt by its diagonal."""
    if floors is None:
        return np.tile([_EPS, 0.0], (count, 1))
    floors = np.asarray(floors, dtype=np.float64)
    if floors.shape != (count, 2):
        raise ConfigurationError(
            f"floors must hold {count} (noise, diag_floor) pair(s)"
        )
    return floors


def _place_svd(
    results: list[SVDResult | None],
    indices: Sequence[int],
    finalized: list[SVDResult],
    transposed: list[bool],
    shifts: list[int],
) -> None:
    """Store ``finalized[pos]`` as ``results[indices[pos]]``, swapping
    ``U`` and ``V`` back for matrices solved transposed and scaling ``S``
    back for matrices solved shifted."""
    for i, res in zip(indices, finalized):
        if transposed[i]:
            res = SVDResult(U=res.V, S=res.S, V=res.U, trace=res.trace)
        results[i] = unshift(res, shifts[i])


def _nan_svd_result(shape: tuple[int, int]) -> SVDResult:
    """Placeholder factors for a quarantined, unrecovered matrix."""
    m, n = shape
    r = min(m, n)
    return SVDResult(
        U=np.full((m, r), np.nan),
        S=np.full(r, np.nan),
        V=np.full((n, r), np.nan),
        trace=ConvergenceTrace(),
    )


def _nan_evd_result(k: int) -> EVDResult:
    """Placeholder eigenpairs for a quarantined, unrecovered matrix."""
    return EVDResult(
        J=np.full((k, k), np.nan),
        L=np.full(k, np.nan),
        trace=ConvergenceTrace(),
    )


class StackedOneSidedJacobi:
    """One-sided vector-rotation Jacobi sweeps over a ``(b, m, n)`` stack.

    The per-step math is the batch-axis lift of
    :meth:`repro.jacobi.onesided_vector.OneSidedJacobiSVD._apply_step`:
    identical formulas, with every scalar-per-pair quantity becoming a
    ``(b, pairs)`` array. Matrices whose sweep maximum cosine drops below
    tolerance are compacted out of the live stack.
    """

    def __init__(self, config: OneSidedConfig | None = None) -> None:
        self.config = config or OneSidedConfig()
        self._ordering: Ordering = get_ordering(self.config.ordering)
        #: Rotation scratch buffers, reused across ``solve_stack`` calls
        #: (buckets, W-cycle levels, serve batches) by the fused executors.
        self._scratch = ScratchPool()

    def _make_sweeper(
        self, stack: np.ndarray, kernel_times: KernelTimes | None
    ):
        """The fused sweep executor for ``stack``'s column count."""
        cfg = self.config
        plan = sweep_plan(
            cfg.ordering if isinstance(cfg.ordering, str) else self._ordering,
            stack.shape[2],
        )
        return FusedSVDSweeper(stack, cfg, plan, self._scratch, kernel_times)

    def solve_stack(
        self,
        stack: np.ndarray,
        *,
        stop: np.ndarray | None = None,
        on_failure: str = "raise",
        kernel_times: KernelTimes | None = None,
    ):
        """Orthogonalize the columns of every matrix in ``stack``.

        Returns ``(W, V, traces)``: ``W[k]`` holds the orthogonalized
        columns (``U * sigma``) of matrix ``k``, ``V[k]`` the accumulated
        rotations, ``traces[k]`` its per-sweep convergence record.

        ``stop`` (one value per matrix, ``None`` = ``config.tol`` for
        all) only decides when a matrix stops sweeping: it is done once a
        sweep's largest cosine is below its ``stop``. Whether a pair
        rotates is always decided by ``config.tol``, so a looser ``stop``
        runs fewer sweeps of the same rotations.

        With ``on_failure="report"`` failing matrices (non-finite values
        mid-sweep, or sweep-budget exhaustion) do not raise: they are
        compacted out of the live stack, their output slots are NaN-filled,
        and a fourth element is returned — ``failures``, a list of
        ``(stack_position, exception)`` pairs. Removing a matrix cannot
        perturb the others (same mechanism as converged-matrix dropout),
        so surviving matrices stay bit-identical to a clean run.

        ``kernel_times`` (optional) accumulates the fused executors'
        per-segment kernel-time breakdown; see
        :class:`repro.jacobi.fused.KernelTimes`.

        A tall stack (``m >= 2n``) is swept as the triangular factors of
        one stacked QR, and ``W = Q @ W_R`` is returned
        (:func:`~repro.jacobi.preconditioning.qr_detour`), exactly as the
        per-matrix solver does it.
        """
        if on_failure not in _STACK_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {_STACK_MODES}, got {on_failure!r}"
            )
        stop = _stop_array(stop, self.config.tol, len(stack))
        Q, R = qr_detour(stack)
        out = self._sweep_stack(
            R, stack.shape[1], stop, on_failure == "report", kernel_times
        )
        if Q is None:
            return out
        return (Q @ out[0], *out[1:])

    def _sweep_stack(self, stack, rows, stop, report_mode, kernel_times):
        """The sweeps of :meth:`solve_stack` over ``stack`` (the ``R``
        factors of a tall input); ``rows`` is the input's row count, which
        sets the column floor."""
        b, m, n = stack.shape
        cfg = self.config
        traces = [ConvergenceTrace() for _ in range(b)]
        failures: list[tuple[int, Exception]] = []
        out_W = stack.copy()
        out_V = np.tile(np.eye(n), (b, 1, 1))
        if n < 2:
            return (out_W, out_V, traces, failures) if report_mode else (
                out_W, out_V, traces
            )
        sweeper = self._make_sweeper(stack, kernel_times)
        live = np.arange(b)
        # The finite guard costs a pass over the stack per sweep; clean
        # production runs (raise mode, no armed fault plan) skip it and a
        # NaN then surfaces as ConvergenceError at sweep exhaustion.
        check_finite = report_mode or faults.active()
        try:
            for sweep_index in range(1, cfg.max_sweeps + 1):
                if check_finite:
                    finite = sweeper.finite_mask()
                    if not finite.all():
                        bad_pos = np.flatnonzero(~finite)
                        if not report_mode:
                            raise NonFiniteError(
                                f"{bad_pos.size} matrix(es) turned non-finite "
                                f"during sweep {sweep_index}",
                                batch_indices=tuple(
                                    int(live[p]) for p in bad_pos
                                ),
                            )
                        for p in bad_pos:
                            orig = int(live[p])
                            failures.append(
                                (
                                    orig,
                                    NonFiniteError(
                                        f"matrix {orig} turned non-finite "
                                        f"during sweep {sweep_index}",
                                        batch_indices=(orig,),
                                    ),
                                )
                            )
                            out_W[orig] = np.nan
                            out_V[orig] = np.nan
                        live = live[finite]
                        if live.size == 0:
                            return out_W, out_V, traces, failures
                        sweeper.compact(finite)
                if cfg.cache_inner_products:
                    # Per-sweep cache refresh, as in the scalar solver:
                    # Eq. 6 is exact in real arithmetic but accumulates
                    # rounding.
                    sweeper.refresh_norms()
                norm_floor = (_EPS * max(rows, n)) ** 2 * sweeper.scale()
                max_cos, rotations = sweeper.run_sweep(norm_floor)
                if kernel_times is not None:
                    kernel_times.sweeps += 1
                ConvergenceTrace.bulk_append(
                    traces, live, sweep_index, max_cos, rotations
                )
                done = max_cos < stop[live]
                if done.any():
                    done_pos = np.flatnonzero(done)
                    sweeper.extract(out_W, out_V, live[done_pos], done_pos)
                    if done.all():
                        return (
                            (out_W, out_V, traces, failures)
                            if report_mode
                            else (out_W, out_V, traces)
                        )
                    keep = ~done
                    live = live[keep]
                    sweeper.compact(keep)
        finally:
            sweeper.close()
        if report_mode:
            for orig in map(int, live):
                residual = traces[orig].records[-1].off_norm
                failures.append(
                    (
                        orig,
                        ConvergenceError(
                            f"matrix {orig} did not converge in "
                            f"{cfg.max_sweeps} sweeps "
                            f"(residual {residual:.3e})",
                            sweeps=cfg.max_sweeps,
                            residual=residual,
                            batch_indices=(orig,),
                        ),
                    )
                )
                out_W[orig] = np.nan
                out_V[orig] = np.nan
            return out_W, out_V, traces, failures
        worst = int(live[0])
        residual = traces[worst].records[-1].off_norm
        raise ConvergenceError(
            f"one-sided Jacobi did not converge in {cfg.max_sweeps} sweeps "
            f"(residual {residual:.3e})",
            sweeps=cfg.max_sweeps,
            residual=residual,
            batch_indices=tuple(int(i) for i in live),
        )

class StackedParallelEVD:
    """Parallel two-sided Jacobi EVD over a ``(b, k, k)`` stack.

    Batch-axis lift of
    :meth:`repro.jacobi.parallel_evd.ParallelJacobiEVD._apply_parallel_step`:
    all of a step's disjoint congruences are applied to every matrix of the
    stack at once. Convergence (Rutishauser's relative off-diagonal metric)
    is evaluated per matrix; converged matrices are compacted out.
    """

    def __init__(self, config: TwoSidedConfig | None = None) -> None:
        self.config = config or TwoSidedConfig()
        self._ordering: Ordering = get_ordering(self.config.ordering)
        self._scratch = ScratchPool()

    def _make_sweeper(self, stack: np.ndarray):
        """The fused sweep executor for ``stack``'s order."""
        cfg = self.config
        plan = sweep_plan(
            cfg.ordering if isinstance(cfg.ordering, str) else self._ordering,
            stack.shape[1],
            allow_neighbor=False,
        )
        return FusedEVDSweeper(stack, cfg, plan, self._scratch)

    def solve_stack(
        self,
        stack: np.ndarray,
        scales: np.ndarray,
        *,
        stop: np.ndarray | None = None,
        floors: np.ndarray | None = None,
        on_failure: str = "raise",
    ):
        """Diagonalize every matrix in ``stack`` (``scales[k] = ||B_k||_F``).

        Returns ``(B, J, traces)`` with ``B[k]`` diagonalized in place of
        matrix ``k`` and ``J[k]`` the accumulated eigenvector rotations.
        ``on_failure="report"`` behaves as in
        :meth:`StackedOneSidedJacobi.solve_stack`: failing matrices are
        NaN-filled and returned as a fourth ``failures`` element instead
        of raising.

        ``stop`` decides when a matrix is done, never whether a pair
        rotates, exactly as in :meth:`StackedOneSidedJacobi.solve_stack`.
        ``floors`` gives each matrix its ``(noise, diag_floor)`` pair (see
        :meth:`repro.jacobi.fused.FusedEVDSweeper.run_sweep`); ``None``
        is ``(eps, 0)`` for all: elements at ``eps ||B||_F`` are noise and
        no pair is exempt by its diagonal.
        """
        if on_failure not in _STACK_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {_STACK_MODES}, got {on_failure!r}"
            )
        report_mode = on_failure == "report"
        b, k, _ = stack.shape
        cfg = self.config
        stop = _stop_array(stop, cfg.tol, b)
        noise, diag_floor = _floor_rows(floors, b).T
        traces = [ConvergenceTrace() for _ in range(b)]
        failures: list[tuple[int, Exception]] = []
        out_B = stack.copy()
        out_J = np.tile(np.eye(k), (b, 1, 1))
        sweeper = self._make_sweeper(stack)
        live = np.arange(b)
        floor = noise * scales
        check_finite = report_mode or faults.active()
        try:
            for sweep_index in range(1, cfg.max_sweeps + 1):
                if check_finite:
                    finite = sweeper.finite_mask()
                    if not finite.all():
                        bad_pos = np.flatnonzero(~finite)
                        if not report_mode:
                            raise NonFiniteError(
                                f"{bad_pos.size} matrix(es) turned non-finite "
                                f"during sweep {sweep_index}",
                                batch_indices=tuple(
                                    int(live[p]) for p in bad_pos
                                ),
                            )
                        for p in bad_pos:
                            orig = int(live[p])
                            failures.append(
                                (
                                    orig,
                                    NonFiniteError(
                                        f"matrix {orig} turned non-finite "
                                        f"during sweep {sweep_index}",
                                        batch_indices=(orig,),
                                    ),
                                )
                            )
                            out_B[orig] = np.nan
                            out_J[orig] = np.nan
                        live = live[finite]
                        if live.size == 0:
                            return out_B, out_J, traces, failures
                        sweeper.compact(finite)
                offs, rotations = sweeper.run_sweep(
                    floor[live], noise[live], diag_floor[live]
                )
                ConvergenceTrace.bulk_append(
                    traces, live, sweep_index, offs, rotations
                )
                done = offs < stop[live]
                if done.any():
                    done_pos = np.flatnonzero(done)
                    sweeper.extract(out_B, out_J, live[done_pos], done_pos)
                    if done.all():
                        return (
                            (out_B, out_J, traces, failures)
                            if report_mode
                            else (out_B, out_J, traces)
                        )
                    keep = ~done
                    live = live[keep]
                    sweeper.compact(keep)
        finally:
            sweeper.close()
        if report_mode:
            for orig in map(int, live):
                residual = traces[orig].records[-1].off_norm
                failures.append(
                    (
                        orig,
                        ConvergenceError(
                            f"matrix {orig} did not converge in "
                            f"{cfg.max_sweeps} sweeps "
                            f"(residual {residual:.3e})",
                            sweeps=cfg.max_sweeps,
                            residual=residual,
                            batch_indices=(orig,),
                        ),
                    )
                )
                out_B[orig] = np.nan
                out_J[orig] = np.nan
            return out_B, out_J, traces, failures
        worst = int(live[0])
        residual = traces[worst].records[-1].off_norm
        raise ConvergenceError(
            f"parallel two-sided Jacobi did not converge in "
            f"{cfg.max_sweeps} sweeps (residual {residual:.3e})",
            sweeps=cfg.max_sweeps,
            residual=residual,
            batch_indices=tuple(int(i) for i in live),
        )

class BatchedJacobiEngine:
    """Shape-bucketed, batch-vectorized SVD/EVD execution.

    The engine is the execution core behind the simulated batched kernels:
    it groups a ragged batch into shape-uniform buckets, runs each bucket's
    Jacobi iteration across the batch axis, and returns per-matrix results
    in the caller's order — numerically matching a per-matrix solver loop.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.jacobi.batched import BatchedJacobiEngine
    >>> rng = np.random.default_rng(0)
    >>> batch = [rng.standard_normal((16, 8)) for _ in range(4)]
    >>> results = BatchedJacobiEngine().svd_batch(batch)
    >>> max(r.reconstruction_error(a) for r, a in zip(results, batch)) < 1e-10
    True
    """

    def __init__(
        self,
        svd_config: OneSidedConfig | None = None,
        evd_config: TwoSidedConfig | None = None,
        *,
        parallel_evd: bool = True,
        executor: Executor | None = None,
        kernel_clock=None,
    ) -> None:
        self.svd_config = svd_config or OneSidedConfig()
        self.evd_config = evd_config or TwoSidedConfig()
        self.parallel_evd = parallel_evd
        self.executor = executor
        #: Injected monotonic clock (e.g. ``time.perf_counter``) enabling
        #: the per-sweep kernel-time breakdown. When set and the engine
        #: runs serially (no executor), :meth:`svd_batch` accumulates a
        #: :class:`repro.jacobi.fused.KernelTimes` into
        #: :attr:`last_kernel_times` (worker-parallel runs skip it: the
        #: accumulator is not shared safely across workers).
        self.kernel_clock = kernel_clock
        #: Kernel-time breakdown of the most recent serial ``svd_batch``
        #: call, or ``None``.
        self.last_kernel_times: KernelTimes | None = None
        # The dynamic ordering is not a static schedule (the scalar solver
        # special-cases it too); its batches run through the fallback loop.
        self._svd_stacked = (
            None
            if self.svd_config.ordering == "dynamic"
            else StackedOneSidedJacobi(self.svd_config)
        )
        self._evd_stacked = StackedParallelEVD(self.evd_config)
        #: Structured record of the most recent batch call's failures and
        #: recoveries (reset per call; empty/falsy after a clean run).
        self.last_failures = FailureReport()
        #: Arena output-slot leases adopted as views by the current batch
        #: call; returned by :meth:`_release_arena_leases` once the
        #: finalize loop has copied the factors out (persistent backend).
        self._arena_leases: list = []

    def _resolve_mode(self, on_failure: str | None) -> str:
        """Pick the failure mode: explicit arg > executor policy > raise."""
        if on_failure is None:
            policy = policy_of(self.executor)
            on_failure = policy.on_failure if policy is not None else "raise"
        if on_failure not in ON_FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {on_failure!r}"
            )
        return on_failure

    def _merge_executor_history(self, report: FailureReport) -> None:
        """Fold the resilient executor's retry history into the report.

        Entries are task-level (``index=-1``: a unit, not a matrix) and
        always ``recovered=True``: if a unit's failure had *not* been
        absorbed — by a retry, a ladder rung, or the quarantine re-solve —
        the map would have raised instead of reaching this merge. Matrices
        that stayed broken get their own ``index >= 0`` entries from the
        quarantine handlers.
        """
        ex = self.executor
        for f in getattr(ex, "last_failures", ()):
            report.add(
                index=-1,
                stage=f.stage,
                cause=f.cause,
                message=f.message,
                attempts=f.attempts,
                recovered=True,
            )

    # -- SVD ------------------------------------------------------------

    def svd_batch(
        self,
        matrices: list[np.ndarray],
        *,
        stop: Sequence[float] | None = None,
        on_failure: str | None = None,
    ) -> list[SVDResult]:
        """Thin SVD of every matrix, bucket-vectorized across the batch.

        ``stop`` gives each matrix its own stop tolerance (see
        :meth:`StackedOneSidedJacobi.solve_stack`); ``None`` stops every
        matrix at the configured ``tol``. The per-matrix fallback of the
        ``dynamic`` ordering always stops at ``tol``.

        ``on_failure`` selects the failure mode (``"raise"`` or
        ``"quarantine"``); ``None`` inherits the attached executor's
        :class:`~repro.runtime.resilient.RetryPolicy` (default: raise).
        Quarantine events land in :attr:`last_failures`.
        """
        mode = self._resolve_mode(on_failure)
        self.last_failures = report = FailureReport()
        self.last_kernel_times = (
            KernelTimes(self.kernel_clock)
            if self.kernel_clock is not None
            and self.executor is None
            and self._svd_stacked is not None
            else None
        )
        mats = [
            as_matrix(a, name=f"matrices[{i}]") for i, a in enumerate(matrices)
        ]
        cfg = self.svd_config
        stops = _stop_array(stop, cfg.tol, len(mats))
        if self._svd_stacked is None:
            # The dynamic ordering re-derives its pivot schedule from each
            # matrix's data every step; matrices cannot share a schedule.
            solver = OneSidedJacobiSVD(cfg)
            if mode == "raise":
                return [solver.decompose(a) for a in mats]
            out: list[SVDResult] = []
            for i, a in enumerate(mats):
                try:
                    out.append(solver.decompose(a))
                except (ConvergenceError, NonFiniteError) as exc:
                    report.add(
                        index=i,
                        stage="engine",
                        cause=type(exc).__name__,
                        message=str(exc),
                        attempts=1,
                        recovered=False,
                    )
                    out.append(_nan_svd_result(a.shape))
            return out
        # Each matrix is solved transposed when wide, and shifted by a
        # power of two when its scale would over- or underflow the sweeps.
        work: list[np.ndarray] = []
        transposed: list[bool] = []
        shifts: list[int] = []
        for a in mats:
            m, n = a.shape
            shift = safe_exponent(a)
            if shift:
                a = np.ldexp(a, -shift)
            flip = cfg.transpose_wide and m < n
            work.append(a.T if flip else a)
            transposed.append(flip)
            shifts.append(shift)
        results: list[SVDResult | None] = [None] * len(mats)
        units = self._plan_units(bucket_by_shape([w.shape for w in work]))
        costs = [svd_stack_cost(shape, len(chunk)) for shape, chunk in units]
        solved = self._solve_svd_units(
            work, stops, units, costs, capture=(mode == "quarantine")
        )
        self._merge_executor_history(report)
        try:
            for (shape, chunk), out_unit in zip(units, solved):
                if isinstance(out_unit, TaskError):
                    self._quarantine_svd_unit(
                        work, stops, chunk, out_unit, results, transposed,
                        shifts, report,
                    )
                    continue
                _place_svd(
                    results, chunk, finalize_stack(*out_unit), transposed,
                    shifts,
                )
        finally:
            # finalize_stack copies out of the adopted views (take along
            # the sorted order), so the leased output slots can go back now.
            self._release_arena_leases()
        return results  # type: ignore[return-value]

    def _quarantine_svd_unit(
        self,
        work: list[np.ndarray],
        stops: np.ndarray,
        chunk: tuple[int, ...],
        task_error: TaskError,
        results: list[SVDResult | None],
        transposed: list[bool],
        shifts: list[int],
        report: FailureReport,
    ) -> None:
        """Recover a failed unit without giving up its healthy matrices.

        The unit's stack is re-solved inline in report mode (the parent
        carries no fault frame, so injected faults cannot re-fire); healthy
        matrices keep bucketed results bit-identical to a clean run, and
        each failing matrix descends to the reference per-matrix solver.
        Every matrix keeps its stop tolerance.
        """
        base_attempts = max(1, len(task_error.failures))
        stack = np.stack([work[i] for i in chunk])
        Ws, Vs, traces, failures = self._svd_stacked.solve_stack(
            stack, stop=stops[list(chunk)], on_failure="report"
        )
        failed = dict(failures)
        healthy = [pos for pos in range(len(chunk)) if pos not in failed]
        _place_svd(
            results,
            [chunk[pos] for pos in healthy],
            finalize_stack(
                Ws[healthy], Vs[healthy], [traces[pos] for pos in healthy]
            ),
            transposed,
            shifts,
        )
        for pos in sorted(failed):
            i = chunk[pos]
            res = self._reference_svd_resolve(
                work[i], i, failed[pos], base_attempts + 1, report
            )
            _place_svd(results, [i], [res], transposed, shifts)

    def _reference_svd_resolve(
        self,
        a: np.ndarray,
        index: int,
        exc: Exception,
        attempts: int,
        report: FailureReport,
    ) -> SVDResult:
        """Last rung of the ladder: the scalar reference solver, else NaN."""
        try:
            res = OneSidedJacobiSVD(self.svd_config).decompose(a)
        except (ConvergenceError, NonFiniteError) as ref_exc:
            report.add(
                index=index,
                stage="engine",
                cause=type(ref_exc).__name__,
                message=str(ref_exc),
                attempts=attempts + 1,
                recovered=False,
            )
            return _nan_svd_result(a.shape)
        report.add(
            index=index,
            stage="engine",
            cause=type(exc).__name__,
            message=str(exc),
            attempts=attempts + 1,
            recovered=True,
        )
        return res

    # -- shard planning and dispatch ------------------------------------

    def _plan_units(
        self, buckets
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Cut cost-ordered buckets into per-worker execution units.

        Each unit is ``(shape, batch_indices)`` — a contiguous slice of one
        shape bucket. With no executor (or no spare workers) every bucket
        is a single unit, which is exactly the pre-runtime execution plan.
        Shard boundaries never change per-matrix arithmetic; they only
        decide which host worker runs which slice.
        """
        ex = self.executor
        units: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for bucket in order_buckets(buckets):
            if ex is None or ex.workers <= 1 or ex.active:
                shards = 1
            else:
                shards = shard_count(
                    len(bucket), ex.workers, min_shard=ex.min_shard
                )
            for chunk in split_shards(bucket.indices, shards):
                units.append((bucket.shape, chunk))
        return units

    def _solve_svd_units(
        self,
        work: list[np.ndarray],
        stops: np.ndarray,
        units: list[tuple[tuple[int, ...], tuple[int, ...]]],
        costs: list[float],
        *,
        capture: bool = False,
    ) -> list:
        """Solve every unit; with ``capture`` failed units come back as
        :class:`~repro.runtime.executor.TaskError` values instead of
        raising (the quarantine path re-solves them)."""
        ex = self.executor
        on_error = "return" if capture else "raise"
        if ex is None or ex.supports_shared_state:
            kt = self.last_kernel_times if ex is None else None

            def run_unit(unit):
                shape, chunk = unit
                stack = np.stack([work[i] for i in chunk])
                try:
                    return self._svd_stacked.solve_stack(
                        stack, stop=stops[list(chunk)], kernel_times=kt
                    )
                except (ConvergenceError, NonFiniteError) as exc:
                    raise _remap_stack_error(exc, shape, chunk) from None

            if ex is None:
                run = _CapturedCall(run_unit) if capture else run_unit
                return [run(u) for u in units]
            return ex.map(run_unit, units, costs=costs, on_error=on_error)
        return self._solve_svd_units_arena(
            work, stops, units, costs, on_error=on_error
        )

    # -- arena dispatch (persistent backend) -----------------------------

    def _release_arena_leases(self) -> None:
        """Return the output-slot leases adopted by the last batch call."""
        leases, self._arena_leases = self._arena_leases, []
        if not leases:
            return
        arena = base_executor(self.executor).arena
        for ref in leases:
            arena.release_lease(ref)

    def _solve_svd_units_arena(self, work, stops, units, costs, *, on_error):
        """Persistent-backend dispatch: slot leases instead of segments.

        Input stacks are *placed* into leased arena slots, output slots
        are *reserved* up front, and the manifest items carry only
        :class:`~repro.runtime.arena.SlotRef` handles — workers write the
        factors straight into the output slots and return just the
        convergence traces. The parent adopts views; the output leases
        ride :attr:`_arena_leases` until the finalize loop has copied out
        of them (the caller's ``finally`` returns them).
        """
        ex = self.executor
        base = base_executor(ex)
        arena = base.arena
        for n in sorted({shape[1] for shape, _ in units}):
            base.warm("svd", self.svd_config, n)
        in_leases: list = []
        out_leases: list = []
        try:
            items = []
            for shape, chunk in units:
                stack = np.stack([work[i] for i in chunk])
                in_ref = arena.place(stack)
                in_leases.append(in_ref)
                b, m, n = stack.shape
                w_ref = arena.reserve((b, m, n), stack.dtype)
                out_leases.append(w_ref)
                v_ref = arena.reserve((b, n, n), stack.dtype)
                out_leases.append(v_ref)
                items.append(
                    (
                        self.svd_config,
                        in_ref,
                        w_ref,
                        v_ref,
                        stops[list(chunk)].tolist(),
                        chunk,
                    )
                )
            outs = ex.map(
                _solve_svd_arena_task, items, costs=costs, on_error=on_error
            )
            solved = []
            for out, item in zip(outs, items):
                if isinstance(out, TaskError):
                    solved.append(out)
                    continue
                solved.append(
                    (arena.view(item[2]), arena.view(item[3]), out)
                )
        except BaseException:
            for ref in out_leases:
                arena.release_lease(ref)
            raise
        finally:
            # Input slots are read-only to the workers and fully consumed
            # once the map returns; output slots outlive this frame as
            # adopted views and are returned after the finalize loop.
            for ref in in_leases:
                arena.release_lease(ref)
        self._arena_leases.extend(out_leases)
        return solved

    def _solve_evd_units_arena(
        self, mats, stackable, scales, stops, floors, units, costs, *,
        on_error,
    ):
        """EVD twin of :meth:`_solve_svd_units_arena`."""
        ex = self.executor
        base = base_executor(ex)
        arena = base.arena
        for k in sorted({shape[0] for shape, _ in units}):
            base.warm("evd", self.evd_config, k)
        in_leases: list = []
        out_leases: list = []
        try:
            items = []
            for shape, chunk in units:
                batch_idx = tuple(stackable[p] for p in chunk)
                stack = np.stack([mats[i] for i in batch_idx])
                in_ref = arena.place(stack)
                in_leases.append(in_ref)
                b, k, _ = stack.shape
                b_ref = arena.reserve((b, k, k), stack.dtype)
                out_leases.append(b_ref)
                j_ref = arena.reserve((b, k, k), stack.dtype)
                out_leases.append(j_ref)
                items.append(
                    (
                        self.evd_config,
                        in_ref,
                        b_ref,
                        j_ref,
                        tuple(scales[i] for i in batch_idx),
                        stops[list(batch_idx)].tolist(),
                        floors[list(batch_idx)].tolist(),
                        batch_idx,
                    )
                )
            outs = ex.map(
                _solve_evd_arena_task, items, costs=costs, on_error=on_error
            )
            solved = []
            for out, item in zip(outs, items):
                if isinstance(out, TaskError):
                    solved.append(out)
                    continue
                solved.append(
                    (arena.view(item[2]), arena.view(item[3]), out)
                )
        except BaseException:
            for ref in out_leases:
                arena.release_lease(ref)
            raise
        finally:
            for ref in in_leases:
                arena.release_lease(ref)
        self._arena_leases.extend(out_leases)
        return solved

    # -- EVD ------------------------------------------------------------

    def evd_batch(
        self,
        matrices: list[np.ndarray],
        *,
        stop: Sequence[float] | None = None,
        floors: Sequence[tuple[float, float]] | None = None,
        on_failure: str | None = None,
    ) -> list[EVDResult]:
        """Symmetric EVD of every matrix, bucket-vectorized across the batch.

        ``stop`` and ``floors`` give each matrix its stop tolerance and its
        ``(noise, diag_floor)`` pair (see
        :meth:`StackedParallelEVD.solve_stack`); ``None`` keeps the
        configured ``tol`` and the ``eps ||B||_F`` noise floor. With
        ``parallel_evd=False`` the sequential reference solver runs per
        matrix (its eliminations form a dependency chain that has no batch
        axis to share), at the configured ``tol`` and noise floor.
        ``on_failure`` selects the failure mode exactly as in
        :meth:`svd_batch`.
        """
        mode = self._resolve_mode(on_failure)
        self.last_failures = report = FailureReport()
        mats = [check_square_symmetric(B) for B in matrices]
        stops = _stop_array(stop, self.evd_config.tol, len(mats))
        floors = _floor_rows(floors, len(mats))
        if not self.parallel_evd:
            solver = TwoSidedJacobiEVD(self.evd_config)
            if mode == "raise":
                return [solver.decompose(B) for B in mats]
            out: list[EVDResult] = []
            for i, B in enumerate(mats):
                try:
                    out.append(solver.decompose(B))
                except (ConvergenceError, NonFiniteError) as exc:
                    report.add(
                        index=i,
                        stage="engine",
                        cause=type(exc).__name__,
                        message=str(exc),
                        attempts=1,
                        recovered=False,
                    )
                    out.append(_nan_evd_result(B.shape[0]))
            return out
        results: list[EVDResult | None] = [None] * len(mats)
        stackable: list[int] = []
        scales: dict[int, float] = {}
        # A matrix whose scale would over- or underflow the sweeps is solved
        # shifted by a power of two, and so is its absolute diagonal floor.
        shifts: dict[int, int] = {}
        for i, B in enumerate(mats):
            k = B.shape[0]
            if k == 1:
                results[i] = EVDResult(
                    J=np.eye(1), L=B[0].copy(), trace=ConvergenceTrace()
                )
                continue
            mats[i], scale, shift = shift_symmetric(B)
            if scale == 0.0:
                results[i] = EVDResult(
                    J=np.eye(k), L=np.zeros(k), trace=ConvergenceTrace()
                )
                continue
            if shift:
                shifts[i] = shift
            scales[i] = scale
            stackable.append(i)
        if shifts:
            floors = floors.copy()
            for i, shift in shifts.items():
                floors[i, 1] = np.ldexp(floors[i, 1], -shift)
        units = self._plan_units(
            bucket_by_shape([mats[i].shape for i in stackable])
        )
        costs = [
            evd_stack_cost(shape[0], len(chunk)) for shape, chunk in units
        ]
        solved = self._solve_evd_units(
            mats, stackable, scales, stops, floors, units, costs,
            capture=(mode == "quarantine"),
        )
        self._merge_executor_history(report)
        try:
            for (shape, chunk), out_unit in zip(units, solved):
                if isinstance(out_unit, TaskError):
                    self._quarantine_evd_unit(
                        mats, stackable, scales, stops, floors, chunk,
                        out_unit, results, report,
                    )
                    continue
                for p, res in zip(chunk, finalize_evd_stack(*out_unit)):
                    results[stackable[p]] = res
        finally:
            self._release_arena_leases()
        for i, shift in shifts.items():
            results[i] = unshift_evd(results[i], shift)
        return results  # type: ignore[return-value]

    def _quarantine_evd_unit(
        self,
        mats: list[np.ndarray],
        stackable: list[int],
        scales: dict[int, float],
        stops: np.ndarray,
        floors: np.ndarray,
        chunk: tuple[int, ...],
        task_error: TaskError,
        results: list[EVDResult | None],
        report: FailureReport,
    ) -> None:
        """EVD twin of :meth:`_quarantine_svd_unit`."""
        base_attempts = max(1, len(task_error.failures))
        batch_idx = [stackable[p] for p in chunk]
        stack = np.stack([mats[i] for i in batch_idx])
        scale_vec = np.array([scales[i] for i in batch_idx])
        Bs, Js, traces, failures = self._evd_stacked.solve_stack(
            stack,
            scale_vec,
            stop=stops[batch_idx],
            floors=floors[batch_idx],
            on_failure="report",
        )
        failed = dict(failures)
        healthy = [pos for pos in range(len(batch_idx)) if pos not in failed]
        finalized = finalize_evd_stack(
            Bs[healthy], Js[healthy], [traces[pos] for pos in healthy]
        )
        for pos, res in zip(healthy, finalized):
            results[batch_idx[pos]] = res
        for pos in sorted(failed):
            i = batch_idx[pos]
            results[i] = self._reference_evd_resolve(
                mats[i], i, failed[pos], base_attempts + 1, report
            )

    def _reference_evd_resolve(
        self,
        B: np.ndarray,
        index: int,
        exc: Exception,
        attempts: int,
        report: FailureReport,
    ) -> EVDResult:
        """Last rung of the EVD ladder: the per-matrix solver, else NaN."""
        try:
            res = ParallelJacobiEVD(self.evd_config).decompose(B)
        except (ConvergenceError, NonFiniteError) as ref_exc:
            report.add(
                index=index,
                stage="engine",
                cause=type(ref_exc).__name__,
                message=str(ref_exc),
                attempts=attempts + 1,
                recovered=False,
            )
            return _nan_evd_result(B.shape[0])
        report.add(
            index=index,
            stage="engine",
            cause=type(exc).__name__,
            message=str(exc),
            attempts=attempts + 1,
            recovered=True,
        )
        return res

    def _solve_evd_units(
        self,
        mats: list[np.ndarray],
        stackable: list[int],
        scales: dict[int, float],
        stops: np.ndarray,
        floors: np.ndarray,
        units: list[tuple[tuple[int, ...], tuple[int, ...]]],
        costs: list[float],
        *,
        capture: bool = False,
    ) -> list:
        ex = self.executor
        on_error = "return" if capture else "raise"
        if ex is None or ex.supports_shared_state:
            def run_unit(unit):
                shape, chunk = unit
                batch_idx = tuple(stackable[p] for p in chunk)
                stack = np.stack([mats[i] for i in batch_idx])
                scale_vec = np.array([scales[i] for i in batch_idx])
                idx = list(batch_idx)
                try:
                    return self._evd_stacked.solve_stack(
                        stack, scale_vec, stop=stops[idx], floors=floors[idx]
                    )
                except (ConvergenceError, NonFiniteError) as exc:
                    raise _remap_stack_error(exc, shape, batch_idx) from None

            if ex is None:
                run = _CapturedCall(run_unit) if capture else run_unit
                return [run(u) for u in units]
            return ex.map(run_unit, units, costs=costs, on_error=on_error)
        return self._solve_evd_units_arena(
            mats, stackable, scales, stops, floors, units, costs,
            on_error=on_error,
        )


# -- persistent-worker task shells (arena transport) ----------------------
#
# Module-level so they pickle by reference; the stacked solvers they build
# are memoized per (frozen, hashable) config so a worker constructs each
# schedule once and reuses it across tasks. No attach, no export, no
# unlink: the worker's arena segments were mapped once at spawn, the input
# slot is read in place (solve_stack copies internally, so the slot
# survives a retry on another ladder rung bit-for-bit), and the factors are
# written straight into the leased output slots. Only the convergence
# traces pickle back across the pipe.


@functools.lru_cache(maxsize=32)
def _stacked_svd_solver(config: OneSidedConfig) -> StackedOneSidedJacobi:
    return StackedOneSidedJacobi(config)


@functools.lru_cache(maxsize=32)
def _stacked_evd_solver(config: TwoSidedConfig) -> StackedParallelEVD:
    return StackedParallelEVD(config)


def _solve_svd_arena_task(item):
    """Persistent-worker shell: arena slots in, factors written in place."""
    config, in_ref, w_ref, v_ref, stop, batch_idx = item
    stack = _arena_resolve(in_ref)
    try:
        W, V, traces = _stacked_svd_solver(config).solve_stack(
            stack, stop=np.array(stop)
        )
    except (ConvergenceError, NonFiniteError) as exc:
        raise _remap_stack_error(
            exc, tuple(stack.shape[1:]), tuple(batch_idx)
        ) from None
    _arena_resolve(w_ref)[...] = W
    _arena_resolve(v_ref)[...] = V
    return traces


def _solve_evd_arena_task(item):
    """Persistent-worker shell: EVD twin of :func:`_solve_svd_arena_task`."""
    config, in_ref, b_ref, j_ref, scales, stop, floors, batch_idx = item
    stack = _arena_resolve(in_ref)
    try:
        B, J, traces = _stacked_evd_solver(config).solve_stack(
            stack, np.array(scales), stop=np.array(stop), floors=np.array(floors)
        )
    except (ConvergenceError, NonFiniteError) as exc:
        raise _remap_stack_error(
            exc, tuple(stack.shape[1:]), tuple(batch_idx)
        ) from None
    _arena_resolve(b_ref)[...] = B
    _arena_resolve(j_ref)[...] = J
    return traces
