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
power of two before it is swept, and only its singular values are shifted
back (:func:`~repro.jacobi.preconditioning.safe_exponents`); a symmetric
matrix of :meth:`BatchedJacobiEngine.evd_batch` likewise, with its
eigenvalues shifted back
(:func:`~repro.jacobi.preconditioning.shift_symmetric_stack`).

A caller that already holds same-shape matrices as one ``(b, m, n)``
stack (the W-cycle's panels of a sweep step) passes the stack itself to
:meth:`~BatchedJacobiEngine.svd_batch` /
:meth:`~BatchedJacobiEngine.evd_batch` and gets its factors back stacked
(:class:`~repro.types.SVDStack` / :class:`~repro.types.EVDStack`). A list
is validated, bucketed by shape and stacked first; from there both run one
stacked entry per kind (:meth:`~BatchedJacobiEngine._svd_stacks`,
:meth:`~BatchedJacobiEngine._evd_stacks`), so a matrix's factors are the
same bytes either way.

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
import itertools
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
    safe_exponents,
    shift_symmetric_stack,
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
from repro.types import ConvergenceTrace, EVDResult, EVDStack, SVDResult, SVDStack
from repro.utils.bucketing import ShapeBucket, bucket_by_shape, order_buckets
from repro.utils.validation import (
    as_matrix,
    as_stack,
    check_square_symmetric,
    check_symmetric_stack,
)

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
        matrices: Sequence[np.ndarray] | np.ndarray,
        *,
        stop: Sequence[float] | None = None,
        on_failure: str | None = None,
    ) -> list[SVDResult] | SVDStack:
        """Thin SVD of every matrix, bucket-vectorized across the batch.

        ``matrices`` is a list of matrices of any shapes, or one ``(b, m,
        n)`` ndarray: a stack of same-shape matrices, solved as one bucket
        without per-matrix validation, stacking or result objects. A list
        comes back as a list of :class:`~repro.types.SVDResult` in its
        order, a stack as one :class:`~repro.types.SVDStack`; a matrix's
        factors are the same bytes either way (both run
        :meth:`_svd_stacks`).

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
        stacked = isinstance(matrices, np.ndarray)
        mats = (
            as_stack(matrices)
            if stacked
            else [
                as_matrix(a, name=f"matrices[{i}]")
                for i, a in enumerate(matrices)
            ]
        )
        cfg = self.svd_config
        stops = _stop_array(stop, cfg.tol, len(mats))
        if self._svd_stacked is None:
            # The dynamic ordering re-derives its pivot schedule from each
            # matrix's data every step; matrices cannot share a schedule.
            each = _solve_each(
                OneSidedJacobiSVD(cfg).decompose, _nan_svd_result, mats, mode,
                report,
            )
            return SVDStack.of(each) if stacked else each
        # Each matrix is solved transposed when wide.
        if stacked:
            flip = cfg.transpose_wide and mats.shape[1] < mats.shape[2]
            work = np.ascontiguousarray(mats.transpose(0, 2, 1)) if flip else mats
            (out,) = self._svd_stacks(
                [work], [tuple(range(len(mats)))], [stops], mode, report
            )
            if not isinstance(out, SVDStack):
                out = SVDStack.of(out)
            return _swapped(out) if flip else out
        flips = [cfg.transpose_wide and a.shape[0] < a.shape[1] for a in mats]
        buckets = bucket_by_shape(
            [a.shape[::-1] if flip else a.shape for a, flip in zip(mats, flips)]
        )
        outs = self._svd_stacks(
            [
                np.stack([mats[i].T if flips[i] else mats[i] for i in b.indices])
                for b in buckets
            ],
            [b.indices for b in buckets],
            [stops[list(b.indices)] for b in buckets],
            mode,
            report,
        )
        results: list[SVDResult | None] = [None] * len(mats)
        for bucket, out in zip(buckets, outs):
            for i, res in zip(bucket.indices, out):
                results[i] = _swapped(res) if flips[i] else res
        return results  # type: ignore[return-value]

    def _svd_stacks(
        self,
        stacks: list[np.ndarray],
        owners: list[tuple[int, ...]],
        stops: list[np.ndarray],
        mode: str,
        report: FailureReport,
    ) -> list[SVDStack | list[SVDResult]]:
        """The engine's one stacked SVD entry: solve working stacks of
        distinct shapes in one map, and return each one's factors stacked
        (member by member when a unit of it was quarantined).

        ``stacks[s]`` holds working matrices (each already transposed when
        wide) of the callers ``owners[s]`` (batch indices, named by
        failures), with stop tolerances ``stops[s]``. A member whose largest
        entry is outside the sweeps' exponent window is swept shifted by
        an exact power of two, and only its singular values are shifted
        back (:func:`~repro.jacobi.preconditioning.safe_exponents`; the
        other members keep their bytes). Each stack is cut into execution
        units (:meth:`_plan_units`), and a failed unit is recovered by
        :meth:`_quarantine_svd_unit` in quarantine mode.
        """
        shifts = [safe_exponents(s) for s in stacks]
        stacks = [
            np.ldexp(s, -e[:, None, None]) if e.any() else s
            for s, e in zip(stacks, shifts)
        ]
        units = self._plan_units(stacks)
        items = [
            (
                self.svd_config,
                stacks[s][lo:hi],
                stops[s][lo:hi].tolist(),
                tuple(owners[s][lo:hi]),
                self.last_kernel_times,
            )
            for s, lo, hi in units
        ]
        costs = [
            svd_stack_cost(stacks[s].shape[1:], hi - lo) for s, lo, hi in units
        ]
        solved = self._map_units(
            _solve_svd_unit, items, costs, capture=(mode == "quarantine")
        )
        self._merge_executor_history(report)
        parts: list[list] = [[] for _ in stacks]
        for (s, _, _), item, out in zip(units, items, solved):
            parts[s].append(
                self._quarantine_svd_unit(item, out, report)
                if isinstance(out, TaskError)
                else finalize_stack(*out)
            )
        outs: list[SVDStack | list[SVDResult]] = []
        for part, e in zip(parts, shifts):
            if all(isinstance(p, SVDStack) for p in part):
                out = SVDStack.concat(part)
                if e.any():
                    out.S = np.ldexp(out.S, e[:, None])
            else:
                # A quarantined unit keeps its reference results as they
                # came: the stack comes back member by member.
                out = [
                    unshift(res, x)
                    for res, x in zip(itertools.chain(*part), e.tolist())
                ]
            outs.append(out)
        return outs

    def _quarantine_svd_unit(
        self, item, task_error: TaskError, report: FailureReport
    ) -> list[SVDResult]:
        """Recover a failed unit without giving up its healthy matrices.

        The unit's stack is re-solved inline in report mode (the parent
        carries no fault frame, so injected faults cannot re-fire); healthy
        matrices keep bucketed results bit-identical to a clean run, and
        each failing matrix descends to the reference per-matrix solver.
        Every matrix keeps its stop tolerance.
        """
        _, stack, stop, owners, _ = item
        # The unit's tries, its report-mode re-solve, the reference's.
        attempts = max(1, len(task_error.failures)) + 2
        Ws, Vs, traces, failures = self._svd_stacked.solve_stack(
            stack, stop=np.array(stop), on_failure="report"
        )
        failed = dict(failures)
        healthy = [pos for pos in range(len(stack)) if pos not in failed]
        results = dict(
            zip(
                healthy,
                finalize_stack(
                    Ws[healthy], Vs[healthy], [traces[pos] for pos in healthy]
                ),
            )
        )
        reference = OneSidedJacobiSVD(self.svd_config).decompose
        for pos in sorted(failed):
            results[pos] = _reference_rung(
                reference, _nan_svd_result, stack[pos], owners[pos],
                failed[pos], stage="engine", attempts=attempts, report=report,
            )
        return [results[pos] for pos in range(len(stack))]

    # -- shard planning and dispatch ------------------------------------

    def _plan_units(self, stacks: list[np.ndarray]) -> list[tuple[int, int, int]]:
        """Cut the stacks (of distinct shapes) into per-worker execution
        units.

        Each unit is ``(stack, lo, hi)``: the contiguous member slice
        ``stacks[stack][lo:hi]``. Stacks are taken in descending cost
        order (:func:`~repro.utils.bucketing.order_buckets`). With no
        executor (or no spare workers) every stack is a single unit, which
        is exactly the pre-runtime execution plan. Shard boundaries never
        change per-matrix arithmetic; they only decide which host worker
        runs which slice.
        """
        ex = self.executor
        where = {s.shape[1:]: pos for pos, s in enumerate(stacks)}
        units: list[tuple[int, int, int]] = []
        for bucket in order_buckets(
            [ShapeBucket(s.shape[1:], tuple(range(len(s)))) for s in stacks]
        ):
            if ex is None or ex.workers <= 1 or ex.active:
                shards = 1
            else:
                shards = shard_count(
                    len(bucket), ex.workers, min_shard=ex.min_shard
                )
            for chunk in split_shards(bucket.indices, shards):
                units.append((where[bucket.shape], chunk[0], chunk[-1] + 1))
        return units

    def _map_units(self, task, items, costs, capture: bool) -> list:
        """One map of ``task`` over the unit items on the attached
        executor (inline without one); with ``capture`` failed units come
        back as :class:`~repro.runtime.executor.TaskError` values instead
        of raising (the quarantine path re-solves them)."""
        return (self.executor or SerialExecutor()).map(
            task, items, costs=costs, on_error="return" if capture else "raise"
        )

    # -- EVD ------------------------------------------------------------

    def evd_batch(
        self,
        matrices: Sequence[np.ndarray] | np.ndarray,
        *,
        stop: Sequence[float] | None = None,
        floors: Sequence[tuple[float, float]] | np.ndarray | None = None,
        on_failure: str | None = None,
    ) -> list[EVDResult] | EVDStack:
        """Symmetric EVD of every matrix, bucket-vectorized across the batch.

        ``matrices`` is a list of symmetric matrices, or one ``(b, k, k)``
        stack of them, which comes back as one
        :class:`~repro.types.EVDStack` (see :meth:`svd_batch`).
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
        stacked = isinstance(matrices, np.ndarray)
        mats = (
            check_symmetric_stack(matrices)
            if stacked
            else [check_square_symmetric(B) for B in matrices]
        )
        stops = _stop_array(stop, self.evd_config.tol, len(mats))
        floors = _floor_rows(floors, len(mats))
        if not self.parallel_evd:
            each = _solve_each(
                TwoSidedJacobiEVD(self.evd_config).decompose, _nan_evd_result,
                mats, mode, report,
            )
            return EVDStack.of(each) if stacked else each
        if stacked:
            (out,) = self._evd_stacks(
                [mats], [tuple(range(len(mats)))], [stops], [floors], mode,
                report,
            )
            return out if isinstance(out, EVDStack) else EVDStack.of(out)
        buckets = bucket_by_shape([B.shape for B in mats])
        outs = self._evd_stacks(
            [np.stack([mats[i] for i in b.indices]) for b in buckets],
            [b.indices for b in buckets],
            [stops[list(b.indices)] for b in buckets],
            [floors[list(b.indices)] for b in buckets],
            mode,
            report,
        )
        results: list[EVDResult | None] = [None] * len(mats)
        for bucket, out in zip(buckets, outs):
            for i, res in zip(bucket.indices, out):
                results[i] = res
        return results  # type: ignore[return-value]

    def _evd_stacks(
        self,
        stacks: list[np.ndarray],
        owners: list[tuple[int, ...]],
        stops: list[np.ndarray],
        floors: list[np.ndarray],
        mode: str,
        report: FailureReport,
    ) -> list[EVDStack | list[EVDResult]]:
        """The engine's one stacked EVD entry, the twin of
        :meth:`_svd_stacks`.

        A ``1 x 1`` member is its own eigendecomposition, and a zero one
        (``||B||_F = 0``) has the identity for eigenvectors; neither is
        swept. A member whose scale would over- or underflow the sweeps is
        solved shifted by a power of two, and so is its absolute diagonal
        floor; only its eigenvalues are shifted back
        (:func:`~repro.jacobi.preconditioning.shift_symmetric_stack`).
        """
        plans = []
        for stack, floor in zip(stacks, floors):
            b, k, _ = stack.shape
            if k == 1:
                work, scales, e = stack, np.zeros(b), np.zeros(b, dtype=int)
                live = np.arange(0)
            else:
                work, scales, e = shift_symmetric_stack(stack)
                live = np.flatnonzero(scales != 0.0)
                if e.any():
                    floor = floor.copy()
                    floor[:, 1] = np.ldexp(floor[:, 1], -e)
            if len(live) < b:
                work, scales, floor = work[live], scales[live], floor[live]
            plans.append((work, scales, floor, live, e))
        solvable = [s for s, plan in enumerate(plans) if len(plan[0])]
        units = self._plan_units([plans[s][0] for s in solvable])
        items = []
        for u, lo, hi in units:
            s = solvable[u]
            work, scales, floor, live, _ = plans[s]
            items.append(
                (
                    self.evd_config,
                    work[lo:hi],
                    scales[lo:hi].tolist(),
                    stops[s][live[lo:hi]].tolist(),
                    floor[lo:hi].tolist(),
                    tuple(owners[s][i] for i in live[lo:hi]),
                )
            )
        costs = [
            evd_stack_cost(item[1].shape[1], len(item[1])) for item in items
        ]
        solved = self._map_units(
            _solve_evd_unit, items, costs, capture=(mode == "quarantine")
        )
        self._merge_executor_history(report)
        parts: list[list] = [[] for _ in stacks]
        for (u, _, _), item, out in zip(units, items, solved):
            parts[solvable[u]].append(
                self._quarantine_evd_unit(item, out, report)
                if isinstance(out, TaskError)
                else finalize_evd_stack(*out)
            )
        outs: list[EVDStack | list[EVDResult]] = []
        for stack, part, (_, _, _, live, e) in zip(stacks, parts, plans):
            b, k, _ = stack.shape
            if len(live) == b and all(isinstance(p, EVDStack) for p in part):
                out = EVDStack.concat(part)
                if e.any():
                    out.L = np.ldexp(out.L, e[:, None])
            else:
                # Member by member: a 1 x 1 member is its own eigenvalue, a
                # zero one has eigenvalues 0 on the identity, and a
                # quarantined unit keeps its reference results as they came.
                out = [
                    EVDResult(
                        J=np.eye(k),
                        L=stack[i, 0].copy() if k == 1 else np.zeros(k),
                        trace=ConvergenceTrace(),
                    )
                    for i in range(b)
                ]
                for pos, res in zip(live.tolist(), itertools.chain(*part)):
                    out[pos] = res
                out = [unshift_evd(res, x) for res, x in zip(out, e.tolist())]
            outs.append(out)
        return outs

    def _quarantine_evd_unit(
        self, item, task_error: TaskError, report: FailureReport
    ) -> list[EVDResult]:
        """EVD twin of :meth:`_quarantine_svd_unit`."""
        _, stack, scales, stop, floors, owners = item
        # The unit's tries, its report-mode re-solve, the reference's.
        attempts = max(1, len(task_error.failures)) + 2
        Bs, Js, traces, failures = self._evd_stacked.solve_stack(
            stack,
            np.array(scales),
            stop=np.array(stop),
            floors=np.array(floors),
            on_failure="report",
        )
        failed = dict(failures)
        healthy = [pos for pos in range(len(stack)) if pos not in failed]
        results = dict(
            zip(
                healthy,
                finalize_evd_stack(
                    Bs[healthy], Js[healthy], [traces[pos] for pos in healthy]
                ),
            )
        )
        reference = ParallelJacobiEVD(self.evd_config).decompose
        for pos in sorted(failed):
            results[pos] = _reference_rung(
                reference, _nan_evd_result, stack[pos], owners[pos],
                failed[pos], stage="engine", attempts=attempts, report=report,
            )
        return [results[pos] for pos in range(len(stack))]


def _swapped(res):
    """The factors of a matrix solved transposed: ``U`` and ``V`` trade
    places (one result or a whole stack)."""
    if isinstance(res, SVDStack):
        return SVDStack(U=res.V, S=res.S, V=res.U, traces=res.traces)
    return SVDResult(U=res.V, S=res.S, V=res.U, trace=res.trace)


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
