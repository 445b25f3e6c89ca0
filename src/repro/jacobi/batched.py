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

Both stacked solvers run one sweep loop, :func:`_sweep_to_convergence`.
It owns the finite guard, tracing, the per-matrix stop, dropout and
compaction, and the failure modes; each solver hands it only its
per-sweep numerics (the SVD's Eq. 6 norm refresh and column floor, the
EVD's per-member floors) around a fused sweeper of
:mod:`repro.jacobi.fused`.

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
the per-matrix solvers, through one loop (:func:`_solve_each`).

With an :class:`~repro.runtime.executor.Executor` attached, buckets are
additionally *sharded* across host workers: each bucket is cut into
contiguous sub-stacks (:mod:`repro.runtime.scheduler`), dispatched
largest-cost-first, and scattered back by original batch index. Because
every rotation decision is already per-matrix, the shard boundaries cannot
change any matrix's arithmetic — parallel results are bit-identical to the
serial path. Every backend runs the same module-level unit task through
one ``Executor.map`` call, on items that hold the sub-stacks as plain
ndarrays; how they reach a worker is the executor's business.

Failure handling is two-mode. In ``on_failure="raise"`` (the default) a
matrix that exhausts its sweep budget — or is non-finite — raises
:class:`~repro.errors.ConvergenceError` /
:class:`~repro.errors.NonFiniteError` carrying the *caller-space*
``batch_indices`` of the offenders and the failing bucket's shape. In
``on_failure="quarantine"`` the engine absorbs the failure instead: the
failed unit is re-solved inline in report mode (healthy matrices keep
their bit-identical bucketed results), and each offender takes the last
rung of the ladder, :func:`_reference_rung` (the W-cycle's ladder ends
in it too): the reference per-matrix solver, else NaN placeholder
factors. In the per-matrix fallbacks a failing matrix gets the
placeholders directly. Every event is recorded in the engine's
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
    safe_exponents,
    shift_symmetric,
    unshift,
    unshift_evd,
)
from repro.jacobi.twosided_evd import TwoSidedConfig, TwoSidedJacobiEVD
from repro.orderings import Ordering, get_ordering
from repro.runtime.executor import (
    ON_FAILURE_MODES,
    Executor,
    SerialExecutor,
    TaskError,
)
from repro.runtime.resilient import policy_of
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

#: The solver failures a quarantine ladder absorbs; others propagate.
_NUMERICAL = (ConvergenceError, NonFiniteError)


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


def _nan_evd_result(shape: tuple[int, int]) -> EVDResult:
    """Placeholder eigenpairs for a quarantined, unrecovered matrix."""
    k = shape[0]
    return EVDResult(
        J=np.full((k, k), np.nan),
        L=np.full(k, np.nan),
        trace=ConvergenceTrace(),
    )


def _sweep_to_convergence(
    stack: np.ndarray,
    make_sweeper,
    sweep,
    stop: np.ndarray,
    max_sweeps: int,
    report_mode: bool,
    solver: str,
):
    """Sweep every member of ``stack`` until it converges: the loop of
    both stacked solvers, one thread block per matrix.

    ``make_sweeper()`` builds the fused executor over ``stack``, and
    ``sweep(sweeper, live)`` runs one sweep of the ``live`` stack
    positions, returning each one's convergence metric and rotation
    count. A member is done once its metric is below its ``stop``; its
    factors are extracted and it drops out of the live stack, as its
    thread block would retire.

    Returns ``(X, Y, traces, failures)``: ``X`` starts as a copy of
    ``stack``, ``Y`` as identities. A member that is non-finite or that
    exhausts ``max_sweeps`` raises (naming the stack positions), or in
    report mode is NaN-filled, dropped and listed in ``failures`` as a
    ``(position, exception)`` pair. ``solver`` names the solver in the
    raised budget error.
    """
    b, _, n = stack.shape
    traces = [ConvergenceTrace() for _ in range(b)]
    failures: list[tuple[int, Exception]] = []
    out_X = stack.copy()
    out_Y = np.tile(np.eye(n), (b, 1, 1))

    def fail(orig: int, exc: Exception) -> None:
        failures.append((orig, exc))
        out_X[orig] = np.nan
        out_Y[orig] = np.nan

    if n < 2:
        return out_X, out_Y, traces, failures
    sweeper = make_sweeper()
    live = np.arange(b)
    try:
        for sweep_index in range(1, max_sweeps + 1):
            # A NaN zeroes its pairs' cosines, so a sweep would pass its
            # member for converged. The stack is scanned before the first
            # sweep in every mode; an injected fault poisons it as the
            # sweeper is built, so the scan sees that too. Rotations keep
            # a finite stack finite short of overflow, which the engine
            # rules out by prescaling inputs of extreme scale, so later
            # sweeps are scanned only in report mode.
            if sweep_index == 1 or report_mode:
                finite = sweeper.finite_mask()
                if not finite.all():
                    bad = [int(live[p]) for p in np.flatnonzero(~finite)]
                    if not report_mode:
                        raise NonFiniteError(
                            f"{len(bad)} matrix(es) turned non-finite "
                            f"during sweep {sweep_index}",
                            batch_indices=tuple(bad),
                        )
                    for orig in bad:
                        fail(
                            orig,
                            NonFiniteError(
                                f"matrix {orig} turned non-finite "
                                f"during sweep {sweep_index}",
                                batch_indices=(orig,),
                            ),
                        )
                    live = live[finite]
                    if live.size == 0:
                        return out_X, out_Y, traces, failures
                    sweeper.compact(finite)
            metric, rotations = sweep(sweeper, live)
            ConvergenceTrace.bulk_append(
                traces, live, sweep_index, metric, rotations
            )
            done = metric < stop[live]
            if done.any():
                done_pos = np.flatnonzero(done)
                sweeper.extract(out_X, out_Y, live[done_pos], done_pos)
                if done.all():
                    return out_X, out_Y, traces, failures
                keep = ~done
                live = live[keep]
                sweeper.compact(keep)
    finally:
        sweeper.close()
    if not report_mode:
        residual = traces[int(live[0])].records[-1].off_norm
        raise ConvergenceError(
            f"{solver} did not converge in {max_sweeps} sweeps "
            f"(residual {residual:.3e})",
            sweeps=max_sweeps,
            residual=residual,
            batch_indices=tuple(int(i) for i in live),
        )
    for orig in map(int, live):
        residual = traces[orig].records[-1].off_norm
        fail(
            orig,
            ConvergenceError(
                f"matrix {orig} did not converge in {max_sweeps} sweeps "
                f"(residual {residual:.3e})",
                sweeps=max_sweeps,
                residual=residual,
                batch_indices=(orig,),
            ),
        )
    return out_X, out_Y, traces, failures


def _check_stack_mode(on_failure: str) -> bool:
    """Whether ``on_failure`` is report mode; rejects unknown modes."""
    if on_failure not in _STACK_MODES:
        raise ConfigurationError(
            f"on_failure must be one of {_STACK_MODES}, got {on_failure!r}"
        )
    return on_failure == "report"


def _solve_each(solve, placeholder, mats, mode: str, report: FailureReport):
    """The per-matrix fallback: ``solve`` every matrix in turn. In
    quarantine mode a matrix that fails gets ``placeholder(shape)`` and
    one unrecovered ``engine`` entry in ``report``."""
    if mode == "raise":
        return [solve(a) for a in mats]
    out: list = []
    for i, a in enumerate(mats):
        try:
            out.append(solve(a))
        except _NUMERICAL as exc:
            report.add(
                index=i,
                stage="engine",
                cause=type(exc).__name__,
                message=str(exc),
                attempts=1,
                recovered=False,
            )
            out.append(placeholder(a.shape))
    return out


def _reference_rung(
    solve,
    placeholder,
    a: np.ndarray,
    index: int,
    exc: BaseException,
    *,
    stage: str,
    attempts: int,
    report: FailureReport,
):
    """Last rung of a quarantine ladder: re-solve matrix ``index`` with the
    per-matrix reference ``solve``, else give it ``placeholder(a.shape)``.

    Either way ``report`` gets one entry after ``attempts`` attempts: the
    failure ``exc`` that sent the matrix here, recovered, or the
    reference's own failure, unrecovered.
    """
    cause, recovered = exc, True
    try:
        res = solve(a)
    except _NUMERICAL as ref_exc:
        cause, res, recovered = ref_exc, placeholder(a.shape), False
    report.add(
        index=index,
        stage=stage,
        cause=type(cause).__name__,
        message=str(cause),
        attempts=attempts,
        recovered=recovered,
    )
    return res


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

        A non-finite matrix, or one that exhausts the sweep budget,
        raises :class:`~repro.errors.NonFiniteError` /
        :class:`~repro.errors.ConvergenceError` naming its stack
        positions. With ``on_failure="report"`` failing matrices do not
        raise: they are compacted out of the live stack, their output
        slots are NaN-filled, and a fourth element is returned —
        ``failures``, a list of ``(stack_position, exception)`` pairs.
        Removing a matrix cannot perturb the others (same mechanism as
        converged-matrix dropout), so surviving matrices stay
        bit-identical to a clean run.

        ``kernel_times`` (optional) accumulates the fused executors'
        per-segment kernel-time breakdown; see
        :class:`repro.jacobi.fused.KernelTimes`.

        A tall stack (``m >= 2n``) is swept as the triangular factors of
        one stacked QR, and ``W = Q @ W_R`` is returned
        (:func:`~repro.jacobi.preconditioning.qr_detour`), exactly as the
        per-matrix solver does it.

        A member whose largest entry is outside the sweeps' exponent
        window is swept shifted by an exact power of two, and its ``W``
        is shifted back
        (:func:`~repro.jacobi.preconditioning.safe_exponents`); the other
        members keep their bytes.
        """
        report_mode = _check_stack_mode(on_failure)
        cfg = self.config
        stop = _stop_array(stop, cfg.tol, len(stack))
        shifts = safe_exponents(stack)[:, None, None]
        shifted = bool(shifts.any())
        if shifted:
            stack = np.ldexp(stack, -shifts)
        Q, R = qr_detour(stack)
        # The column floor is set by the input's rows, not R's.
        col_floor = (_EPS * max(stack.shape[1], R.shape[2])) ** 2

        def sweep(sweeper, live):
            if cfg.cache_inner_products:
                # Per-sweep cache refresh, as in the scalar solver: Eq. 6
                # is exact in real arithmetic but accumulates rounding.
                sweeper.refresh_norms()
            out = sweeper.run_sweep(col_floor * sweeper.scale())
            if kernel_times is not None:
                kernel_times.sweeps += 1
            return out

        W, V, traces, failures = _sweep_to_convergence(
            R,
            lambda: self._make_sweeper(R, kernel_times),
            sweep,
            stop,
            cfg.max_sweeps,
            report_mode,
            "one-sided Jacobi",
        )
        if Q is not None:
            W = Q @ W
        if shifted:
            W = np.ldexp(W, shifts)
        return (W, V, traces, failures) if report_mode else (W, V, traces)


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
        Failures raise, or with ``on_failure="report"`` are NaN-filled and
        returned as a fourth ``failures`` element, exactly as in
        :meth:`StackedOneSidedJacobi.solve_stack`.

        ``stop`` decides when a matrix is done, never whether a pair
        rotates, exactly as in :meth:`StackedOneSidedJacobi.solve_stack`.
        ``floors`` gives each matrix its ``(noise, diag_floor)`` pair (see
        :meth:`repro.jacobi.fused.FusedEVDSweeper.run_sweep`); ``None``
        is ``(eps, 0)`` for all: elements at ``eps ||B||_F`` are noise and
        no pair is exempt by its diagonal.
        """
        report_mode = _check_stack_mode(on_failure)
        b = len(stack)
        cfg = self.config
        stop = _stop_array(stop, cfg.tol, b)
        noise, diag_floor = _floor_rows(floors, b).T
        floor = noise * scales

        def sweep(sweeper, live):
            return sweeper.run_sweep(floor[live], noise[live], diag_floor[live])

        out = _sweep_to_convergence(
            stack,
            lambda: self._make_sweeper(stack),
            sweep,
            stop,
            cfg.max_sweeps,
            report_mode,
            "parallel two-sided Jacobi",
        )
        return out if report_mode else out[:3]


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
        # The stacked solvers are the process's memoized ones for their
        # configs, the ones the unit tasks solve with in every process.
        self._svd_stacked = (
            None
            if self.svd_config.ordering == "dynamic"
            else _stacked_svd_solver(self.svd_config)
        )
        self._evd_stacked = _stacked_evd_solver(self.evd_config)
        #: Structured record of the most recent batch call's failures and
        #: recoveries (reset per call; empty/falsy after a clean run).
        self.last_failures = FailureReport()

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
            return _solve_each(
                OneSidedJacobiSVD(cfg).decompose, _nan_svd_result, mats, mode,
                report,
            )
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
        for (shape, chunk), out_unit in zip(units, solved):
            if isinstance(out_unit, TaskError):
                self._quarantine_svd_unit(
                    work, stops, chunk, out_unit, results, transposed,
                    shifts, report,
                )
                continue
            _place_svd(
                results, chunk, finalize_stack(*out_unit), transposed, shifts
            )
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
        # The unit's tries, its report-mode re-solve, the reference's.
        attempts = max(1, len(task_error.failures)) + 2
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
        reference = OneSidedJacobiSVD(self.svd_config).decompose
        for pos in sorted(failed):
            i = chunk[pos]
            res = _reference_rung(
                reference, _nan_svd_result, work[i], i, failed[pos],
                stage="engine", attempts=attempts, report=report,
            )
            _place_svd(results, [i], [res], transposed, shifts)

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

    def _map_units(self, task, items, costs, capture: bool) -> list:
        """One map of ``task`` over the unit items on the attached
        executor (inline without one); with ``capture`` failed units come
        back as :class:`~repro.runtime.executor.TaskError` values instead
        of raising (the quarantine path re-solves them)."""
        return (self.executor or SerialExecutor()).map(
            task, items, costs=costs, on_error="return" if capture else "raise"
        )

    def _solve_svd_units(
        self,
        work: list[np.ndarray],
        stops: np.ndarray,
        units: list[tuple[tuple[int, ...], tuple[int, ...]]],
        costs: list[float],
        *,
        capture: bool = False,
    ) -> list:
        """Solve every unit with :func:`_solve_svd_unit`."""
        items = [
            (
                self.svd_config,
                np.stack([work[i] for i in chunk]),
                stops[list(chunk)].tolist(),
                chunk,
                self.last_kernel_times,
            )
            for _, chunk in units
        ]
        return self._map_units(_solve_svd_unit, items, costs, capture)

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
            return _solve_each(
                TwoSidedJacobiEVD(self.evd_config).decompose, _nan_evd_result,
                mats, mode, report,
            )
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
        for (shape, chunk), out_unit in zip(units, solved):
            if isinstance(out_unit, TaskError):
                self._quarantine_evd_unit(
                    mats, stackable, scales, stops, floors, chunk, out_unit,
                    results, report,
                )
                continue
            for p, res in zip(chunk, finalize_evd_stack(*out_unit)):
                results[stackable[p]] = res
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
        # The unit's tries, its report-mode re-solve, the reference's.
        attempts = max(1, len(task_error.failures)) + 2
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
        reference = ParallelJacobiEVD(self.evd_config).decompose
        for pos in sorted(failed):
            i = batch_idx[pos]
            results[i] = _reference_rung(
                reference, _nan_evd_result, mats[i], i, failed[pos],
                stage="engine", attempts=attempts, report=report,
            )

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
        """Solve every unit with :func:`_solve_evd_unit`."""
        items = []
        for _, chunk in units:
            batch_idx = tuple(stackable[p] for p in chunk)
            idx = list(batch_idx)
            items.append(
                (
                    self.evd_config,
                    np.stack([mats[i] for i in batch_idx]),
                    [scales[i] for i in batch_idx],
                    stops[idx].tolist(),
                    floors[idx].tolist(),
                    batch_idx,
                )
            )
        return self._map_units(_solve_evd_unit, items, costs, capture)


# -- the unit tasks -------------------------------------------------------
#
# Module-level, so the persistent backend's workers can run them; every
# backend runs them, the serial one inline in the caller's process. The
# stacked solvers are memoized per (frozen, hashable) config, so each
# process builds a config's sweep schedules once and reuses them across
# tasks; a worker forked after the parent built one inherits it. The
# per-matrix stop tolerances, scales and floors travel as lists, so the
# only arrays an item holds are its stack.


@functools.lru_cache(maxsize=32)
def _stacked_svd_solver(config: OneSidedConfig) -> StackedOneSidedJacobi:
    return StackedOneSidedJacobi(config)


@functools.lru_cache(maxsize=32)
def _stacked_evd_solver(config: TwoSidedConfig) -> StackedParallelEVD:
    return StackedParallelEVD(config)


def _solve_svd_unit(item):
    """One SVD unit: ``(W, V, traces)`` of its stack's sweeps."""
    config, stack, stop, batch_idx, kernel_times = item
    try:
        return _stacked_svd_solver(config).solve_stack(
            stack, stop=np.array(stop), kernel_times=kernel_times
        )
    except _NUMERICAL as exc:
        raise _remap_stack_error(exc, stack.shape[1:], batch_idx) from None


def _solve_evd_unit(item):
    """One EVD unit: ``(B, J, traces)`` of its stack's sweeps."""
    config, stack, scales, stop, floors, batch_idx = item
    try:
        return _stacked_evd_solver(config).solve_stack(
            stack, np.array(scales), stop=np.array(stop), floors=np.array(floors)
        )
    except _NUMERICAL as exc:
        raise _remap_stack_error(exc, stack.shape[1:], batch_idx) from None
