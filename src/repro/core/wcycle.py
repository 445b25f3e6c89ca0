"""W-cycle SVD: the executing multilevel batched driver (Algorithm 2).

``decompose_batch`` implements the paper's workflow:

1. matrices whose whole SVD fits in shared memory run in one batched in-SM
   SVD kernel launch (Algorithm 2 line 3);
2. every other matrix joins the *bucket* of its working shape — the shape
   after the transpose-when-wide rule, or that of its triangular factor
   under ``qr_precondition`` — and each bucket descends through levels of
   shrinking block width level-synchronously. A sweep step gathers the
   step's joined pairs from every live member, classifies them into the
   three groups (in-SM SVD / in-SM Gram EVD / recurse), and serves each
   group with one batched launch for the whole bucket; the step's recursed
   pairs descend together as a sub-bucket;
3. the per-pair rotations of every member are applied by one batched
   update GEMM per step (tailored per §IV-D when enabled);
4. sweeps repeat, and each member drops out as soon as its column blocks
   are mutually orthogonal.

A single matrix is a bucket of one: a member's factors, trace and rotation
counts do not depend on its bucket-mates.

All kernels run real NumPy math while accounting simulated-GPU costs, so a
:class:`~repro.gpusim.counters.Profiler` threaded through ``decompose_batch``
yields the occupancy/transaction/time profile of the whole run.

Host parallelism (the ``runtime`` parameter) runs one task per bucket,
largest first; with fewer buckets than workers, each bucket is cut into
contiguous member shards. Every task logs its launches with their cost
inputs, and the shards of a bucket merge their logs back into the
launches of the unsplit bucket, folded in bucket order. Parallel runs
therefore report *identical* factors, sweep counts, and simulated-GPU
accounting at every worker count — the backends trade wall-clock only.
A call with a single matrix runs inline and lets the kernels' engine
shard its stacks across workers instead.
"""

from __future__ import annotations

import functools

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    FailureReport,
    NonFiniteError,
)
from repro.gpusim.counters import KernelStats, ProfileReport, Profiler
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.evd_kernel import BatchedEVDKernel, SMEVDKernelConfig
from repro.gpusim.gemm import BatchedGemm, GemmTask, TilingSpec
from repro.gpusim.svd_kernel import (
    BatchedSVDKernel,
    SMSVDKernelConfig,
    batch_shapes,
    observed_sweeps,
)
from repro.gpusim.memory import svd_fits_in_sm
from repro.core.levels import Group, classify_pair, select_w1, width_schedule
from repro.jacobi.batched import (
    _nan_svd_result,
    _reference_rung,
    _remap_stack_error,
)
from repro.jacobi.convergence import gram_offdiagonal_cosine
from repro.jacobi.factors import complete_square_orthogonal, finalize_stack
from repro.jacobi.fused import ScratchPool
from repro.jacobi.onesided_block import column_blocks
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.preconditioning import qr_detour, safe_exponent, unshift
from repro.orderings import get_ordering, sweep_schedule
from repro.runtime.executor import (
    ON_FAILURE_MODES,
    Executor,
    RuntimeConfig,
    SerialExecutor,
    TaskError,
    _CapturedCall,
    get_executor,
)
from repro.runtime.resilient import policy_of
from repro.runtime.scheduler import (
    shard_count,
    split_shards,
    wcycle_matrix_cost,
)
from repro.tuning.autotune import AutoTuner
from repro.types import BatchedSVDResult, ConvergenceTrace, SVDResult
from repro.utils.bucketing import ShapeBucket, bucket_by_shape, bucket_cost
from repro.utils.logging import get_logger
from repro.utils.validation import check_batch

__all__ = ["WCycleConfig", "WCycleSVD"]

_log = get_logger("core.wcycle")

#: Bucket key of the triangular factors (``qr_precondition``) that fit in
#: shared memory whole: they share one in-SM launch whatever their size.
_IN_SM: tuple[int, ...] = ()

#: Rotation tolerance of the leaf kernels (the in-SM SVDs and Gram EVDs of
#: a step), and the tightest leaf stop tolerance.
_LEAF_TOL = 1e-14

#: Leaf stop tolerance of a member's first level-0 sweep, and the loosest.
_LEAF_STOP_FIRST = 1e-2

_EPS = np.finfo(np.float64).eps

#: A large matrix made ready for its bucket: ``(work, Q, flipped, shift)``.
_Prepared = tuple[np.ndarray, np.ndarray | None, bool, int]

#: One launch a bucket solve recorded: ``(key, kind, level, inputs,
#: stats)``. ``key`` orders launches as a serial solve records them; ``kind``
#: is ``"svd"``, ``"gram"``, ``"evd"`` or ``"update"``; ``level`` is the
#: ``(m, n, w)`` of a GEMM's engine (``None`` for the kernels); ``inputs``
#: are the columns the launch's cost model reads, which member shards (and
#: the panel sets of one step) concatenate to rebuild one launch: per-matrix
#: shapes and sweep counts for the kernels, ``(b, m, k)`` panel-stack
#: shapes for the GEMMs.
_Launch = tuple[
    tuple[int, ...], str, tuple[int, int, int] | None, tuple, KernelStats
]

#: What one bucket (or member shard) solve hands back: per-member
#: results, its launch log, and its rotation count per level depth.
_UnitOut = tuple[Sequence[SVDResult], list[_Launch], dict[int, int]]

#: A solved bucket: per-member results, its launches, rotation counts.
_BucketOut = tuple[list[SVDResult], ProfileReport, dict[int, int]]


@dataclass(frozen=True)
class _PanelSet:
    """The pairs of one level sweep step that share a kernel group and a
    panel width.

    ``cols[p]`` is pair ``p``'s joined column index array, so
    ``work[:, cols]`` gathers every panel of the set from a member with one
    fancy index; ``group`` is the pairs' three-group classification, which
    depends only on the panel shape and the device. Built once per level
    instead of per sweep.
    """

    group: Group
    cols: np.ndarray


@dataclass(frozen=True)
class WCycleConfig:
    """Configuration of the W-cycle batched SVD.

    Attributes
    ----------
    w1:
        Level-1 block width. ``None`` (default) lets each matrix pick the
        widest feasible width (size-oblivious mode); setting it forces the
        same ``w_1`` on every matrix — the "uniform w" the paper argues
        against (ablation D5).
    shrink:
        Width divisor between levels (the "given selection way").
    tailoring:
        Tile the level GEMMs via the auto-tuner (§IV-D). When off, each
        GEMM gets one thread block (``delta = m``).
    fixed_delta:
        Pin the standard-plate height δ for every level GEMM (overrides
        both the tuner and the no-tailoring default) — how Tables I/V and
        Figs. 12/15(b) sweep fixed tailoring plans.
    tlp_threshold:
        Auto-tuner threshold override (``None`` = the library default).
    alpha:
        α-warp policy for the in-SM SVD kernel: ``"auto"`` (default) picks
        the fastest candidate per launch (the decision-tree oracle), a
        float pins it, ``None`` uses the GCD rule.
    cache_inner_products / transpose_wide / parallel_evd:
        Kernel optimization switches (ablations D1, D6, D3).
    qr_precondition:
        Factor tall matrices as ``A = QR`` and run the W-cycle on the
        ``n x n`` triangular factor (refs [5], [42]) — an optional
        extension beyond the paper's Algorithm 2.
    tol / max_sweeps / ordering:
        Outer-sweep control at level 0 (1e-12, the paper's accuracy bar).
    inner_sweeps:
        Sweeps a recursed (level >= 1) solve performs per visit. The paper's
        W-cycle runs **one** sweep per visit — the workflow descends, sweeps
        once, and returns, like a multigrid W-cycle (Fig. 4's narrative) —
        so 1 is the default. ``None`` converges each inner solve fully
        (a V-cycle-like variant, much more expensive per outer sweep).
    inner_tol:
        Convergence tolerance of recursed solves when ``inner_sweeps`` is
        None. Inner rotations only need to be *good*, not exact — the
        outer sweeps absorb their residual — so the default stops
        comfortably above the EVD kernels' attainable floor on graded
        panels.
    inner_max_sweeps:
        Sweep budget of every in-SM kernel solve — the leaf SVDs and Gram
        EVDs of each step, and the whole-matrix SVDs of matrices that fit
        in shared memory — and of recursed solves when ``inner_sweeps`` is
        None.

    The leaves stop as tightly as their member's outer sweep needs, with
    no option: each member's leaf solves stop once their largest cosine is
    below ``clamp(0.01 r^2, 1e-14, 1e-2)``, where ``r`` is the member's
    level-0 residual after its previous sweep (``1e-2`` on its first).
    Whether a leaf pair rotates is always decided at ``1e-14``.
    """

    w1: int | None = None
    shrink: int = 2
    tailoring: bool = True
    fixed_delta: int | None = None
    tlp_threshold: float | None = None
    alpha: float | str | None = "auto"
    cache_inner_products: bool = True
    transpose_wide: bool = True
    parallel_evd: bool = True
    qr_precondition: bool = False
    tol: float = 1e-12
    max_sweeps: int = 60
    ordering: str = "round-robin"
    inner_sweeps: int | None = 1
    inner_tol: float = 1e-10
    inner_max_sweeps: int = 60

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ConfigurationError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_sweeps < 1:
            raise ConfigurationError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}"
            )
        if self.w1 is not None and self.w1 < 1:
            raise ConfigurationError(f"w1 must be >= 1, got {self.w1}")
        if self.shrink < 2:
            raise ConfigurationError(f"shrink must be >= 2, got {self.shrink}")
        if self.inner_sweeps is not None and self.inner_sweeps < 1:
            raise ConfigurationError(
                f"inner_sweeps must be None or >= 1, got {self.inner_sweeps}"
            )
        if self.fixed_delta is not None and self.fixed_delta < 1:
            raise ConfigurationError(
                f"fixed_delta must be None or >= 1, got {self.fixed_delta}"
            )


class WCycleSVD:
    """The W-cycle batched SVD solver.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import WCycleSVD
    >>> rng = np.random.default_rng(3)
    >>> batch = [rng.standard_normal((32, 24)), rng.standard_normal((8, 8))]
    >>> results = WCycleSVD(device="V100").decompose_batch(batch)
    >>> results.max_reconstruction_error(batch) < 1e-10
    True
    """

    def __init__(
        self,
        config: WCycleConfig | None = None,
        *,
        device: str | DeviceSpec = "V100",
        runtime: RuntimeConfig | Executor | str | None = None,
    ) -> None:
        self.config = config or WCycleConfig()
        self.device = get_device(device)
        self._executor = get_executor(runtime)
        get_ordering(self.config.ordering)  # an unknown name fails here
        #: Rotations applied per level depth in the most recent call.
        self.last_level_rotations: dict[int, int] = {}
        #: Failure/recovery record of the most recent batch call.
        self.last_failures = FailureReport()
        # Per-instance caches — valid for the solver's lifetime because
        # config and device are both immutable. The kernels are built once
        # (not per sweep step), tailored GEMM engines and per-level sweep
        # plans are memoized per (m, n, w).
        self._svd_kernel_cache: BatchedSVDKernel | None = None
        self._evd_kernel_cache: BatchedEVDKernel | None = None
        self._gemm_cache: dict[tuple[int, int, int], BatchedGemm] = {}
        self._plan_cache: dict[
            tuple[int, int, int], list[tuple[_PanelSet, ...]]
        ] = {}
        #: The steps' panel-stack buffers, reused from step to step: a
        #: fresh buffer of that size costs a page fault per page written.
        self._scratch = ScratchPool()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the runtime's pooled workers (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "WCycleSVD":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def decompose(
        self, A: np.ndarray, *, profiler: Profiler | None = None
    ) -> SVDResult:
        """SVD of a single matrix through the W-cycle workflow."""
        return self.decompose_batch([A], profiler=profiler)[0]

    def decompose_batch(
        self,
        matrices: list[np.ndarray],
        *,
        profiler: Profiler | None = None,
        on_failure: str | None = None,
    ) -> BatchedSVDResult:
        """Batched SVD of matrices with (possibly) different sizes.

        ``on_failure`` selects the failure mode: ``"raise"`` propagates
        the first :class:`~repro.errors.ConvergenceError`;
        ``"quarantine"`` re-solves failing matrices through the reference
        per-matrix path and attaches a
        :class:`~repro.errors.FailureReport` to the returned batch
        (``result.failures``). ``None`` inherits the runtime's
        :class:`~repro.runtime.resilient.RetryPolicy` (default: raise).
        """
        if on_failure is None:
            policy = policy_of(self._executor)
            on_failure = policy.on_failure if policy is not None else "raise"
        if on_failure not in ON_FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {on_failure!r}"
            )
        quarantine = on_failure == "quarantine"
        matrices = check_batch(matrices)
        self.last_level_rotations = {}
        self.last_failures = report = FailureReport()
        results: list[SVDResult | None] = [None] * len(matrices)
        svd_kernel = self._svd_kernel()
        # Group (Algorithm 2 line 2): whole SVD resident in SM.
        fits = {
            shape: svd_fits_in_sm(*svd_kernel.working_shape(*shape), self.device)
            for shape in {a.shape for a in matrices}
        }
        sm_indices = [i for i, a in enumerate(matrices) if fits[a.shape]]
        large = [i for i, a in enumerate(matrices) if not fits[a.shape]]
        _log.debug(
            "batch of %d: %d whole-SVD-in-SM, %d through levels",
            len(matrices),
            len(sm_indices),
            len(large),
        )
        ex = self._executor
        # With spare workers the in-SM group rides the large matrices'
        # fan-out as one more unit instead of running here first. A
        # resilient runtime keeps it here, where the engine folds the
        # group's retry history into the report.
        fan_out = (
            large and ex.workers > 1 and not ex.active and policy_of(ex) is None
        )
        if sm_indices and not fan_out:
            self._place_sm(matrices, sm_indices, None, results, profiler,
                           on_failure, report)
        if large:
            self._run_large(
                matrices, large, results, profiler, on_failure, report,
                sm_indices if fan_out else [],
            )
        return BatchedSVDResult(
            results=results,  # type: ignore[arg-type]
            failures=report if quarantine else None,
        )

    def _prepare(self, A: np.ndarray) -> _Prepared:
        """The working matrix of a large ``A``: ``(work, Q, flipped,
        shift)``.

        ``work`` is ``A`` shifted by ``2^-shift`` when its scale would
        over- or underflow the sweeps
        (:func:`~repro.jacobi.preconditioning.safe_exponent`, else
        ``shift`` is 0), transposed when wide, and replaced under
        ``qr_precondition`` by the triangular factor ``R`` of a tall enough
        one (``Q`` is then its orthonormal factor, else ``None``). It may
        be a view of ``A``: the solve copies before it mutates.
        """
        cfg = self.config
        shift = safe_exponent(A)
        if shift:
            A = np.ldexp(A, -shift)
        flip = cfg.transpose_wide and A.shape[0] < A.shape[1]
        work = A.T if flip else A
        q = None
        if cfg.qr_precondition:
            q, work = qr_detour(work)
        return work, q, flip, shift

    def _place_sm(
        self,
        matrices: list[np.ndarray],
        sm_indices: list[int],
        solved,
        results: list[SVDResult | None],
        profiler: Profiler | None,
        on_failure: str,
        report: FailureReport,
    ) -> None:
        """Solve the in-SM group (Algorithm 2 line 3) with one SVD launch,
        recorded on ``profiler``, and place its factors.

        ``solved`` is the group's ``(results, stats, failures)`` from a
        fan-out unit (:func:`_solve_sm_task`), or ``None`` (or the unit's
        :class:`~repro.runtime.executor.TaskError`) to solve it here, where
        a deterministic failure raises again or is quarantined as the unit
        would have. The kernel's failure entries are group-local; they are
        remapped into caller batch indices before they land in ``report``.
        """
        kernel = self._svd_kernel()
        if solved is None or isinstance(solved, TaskError):
            sm_results, stats = kernel.run(
                [matrices[i] for i in sm_indices], on_failure=on_failure
            )
            failures = kernel.last_failures
        else:
            sm_results, stats, failures = solved
        if profiler is not None:
            profiler.record(stats)
        for e in failures:
            report.add(
                index=sm_indices[e.index] if e.index >= 0 else -1,
                stage=e.stage,
                cause=e.cause,
                message=e.message,
                attempts=e.attempts,
                recovered=e.recovered,
            )
        for i, res in zip(sm_indices, sm_results):
            results[i] = res

    def _run_large(
        self,
        matrices: list[np.ndarray],
        large: list[int],
        results: list[SVDResult | None],
        profiler: Profiler | None,
        on_failure: str,
        report: FailureReport,
        sm_indices: list[int],
    ) -> None:
        """Solve the through-the-levels matrices, bucket by bucket.

        Each matrix's working matrix is built once (:meth:`_prepare`) and
        keyed by its shape — or by :data:`_IN_SM` for a triangular factor
        that fits in shared memory. With fewer buckets than workers, each
        bucket is cut into contiguous member shards so every worker gets
        one; a shard runs the bucket's level recursion on its members, and
        :meth:`_replay` merges the shards' launch logs back into the
        launches of the unsplit bucket. Tasks run largest first; results,
        records and rotation counts are merged **in bucket order**, so
        every backend and worker count reports identical factors and
        accounting. Left factors of ``R`` map back as ``U = Q @ U_R``.

        A bucket with a failed shard is rescued by :meth:`_rescue_unit`
        in quarantine mode. Otherwise the failure is raised as the
        unsplit bucket raises it: a numerical failure of a split bucket
        re-solves the bucket whole, which names every offender.

        ``sm_indices`` (possibly empty) is the in-SM group when it rides
        this fan-out as one more unit; it is placed, and its launch
        recorded, before any bucket (:meth:`_place_sm`).
        """
        quarantine = on_failure == "quarantine"
        prepared = {i: self._prepare(matrices[i]) for i in large}
        works = {i: prepared[i][0] for i in large}
        keys = [
            _IN_SM if svd_fits_in_sm(*works[i].shape, self.device)
            else works[i].shape
            for i in large
        ]
        buckets = [
            tuple(large[j] for j in bucket.indices)
            for bucket in bucket_by_shape(keys)
        ]
        ex = self._executor
        workers = 1 if ex.active else ex.workers
        units: list[tuple[int, ...]] = []
        unit_bucket: list[int] = []
        for b, bucket in enumerate(buckets):
            n_shards = shard_count(
                len(bucket), max(1, workers // len(buckets)), min_shard=1
            )
            for shard in split_shards(bucket, n_shards):
                units.append(shard)
                unit_bucket.append(b)
        costs = [
            sum(wcycle_matrix_cost(*matrices[i].shape) for i in unit)
            for unit in units
        ]
        count = len(matrices)

        def solve(unit: tuple[int, ...]) -> _UnitOut:
            return self._solve_unit([works[i] for i in unit], unit, count)

        if len(units) == 1 and not sm_indices:
            # One unit (a single matrix, or no spare workers) gains nothing
            # from a unit-level fan-out; solving it on this solver lets the
            # kernels' engine shard its stacks across the pool instead.
            outs = [_CapturedCall(solve)(units[0])]
        else:
            items = [
                (
                    _solve_unit_task,
                    (self.config, self.device, [works[i] for i in unit], unit, count),
                )
                for unit in units
            ]
            if sm_indices:
                items.append((
                    _solve_sm_task,
                    (self.config, self.device,
                     [matrices[i] for i in sm_indices], on_failure),
                ))
                costs.append(
                    sum(wcycle_matrix_cost(*matrices[i].shape) for i in sm_indices)
                )
            outs = ex.map(_fanout_task, items, costs=costs, on_error="return")
            if sm_indices:
                self._place_sm(matrices, sm_indices, outs.pop(), results,
                               profiler, on_failure, report)
        # The merge below folds per-bucket records in bucket order, the
        # serial recording sequence: bucket_by_shape keeps first-seen
        # order over the ascending `large` list.
        for b, bucket in enumerate(buckets):
            shards = [
                (unit, out)
                for unit, out, ub in zip(units, outs, unit_bucket)
                if ub == b
            ]
            failed = [
                (unit, out) for unit, out in shards
                if isinstance(out, TaskError)
            ]
            if failed and not quarantine:
                exc = failed[0][1].error
                if len(shards) > 1 and isinstance(
                    exc, (ConvergenceError, NonFiniteError)
                ):
                    _worker_solver(self.config, self.device)._solve_unit(
                        [works[i] for i in bucket], bucket, count
                    )
                raise exc
            if failed:
                bucket_results, records, rotations = self._rescue_unit(
                    matrices, prepared, bucket, failed, report, count
                )
            else:
                bucket_results = [
                    _finish(res, *prepared[i][1:])
                    for (unit, out) in shards
                    for i, res in zip(unit, out[0])
                ]
                records = self._replay([out[1] for _, out in shards])
                rotations = _summed([out[2] for _, out in shards])
            for i, res in zip(bucket, bucket_results):
                results[i] = res
            if profiler is not None:
                profiler.report.extend(records)
            for depth, n_rot in rotations.items():
                self.last_level_rotations[depth] = (
                    self.last_level_rotations.get(depth, 0) + n_rot
                )

    def _replay(self, logs: list[list[_Launch]]) -> ProfileReport:
        """The launches of one unsplit bucket solve, from the launch logs
        of its member shards (given in member order).

        A launch only one shard recorded keeps that shard's statistics. A
        launch several shards recorded under the same key is rebuilt from
        their concatenated cost inputs, in member order: exactly what the
        unsplit solve computes, since a step stacks its panels member by
        member.
        """
        slots: dict[tuple[int, ...], list[_Launch]] = {}
        for log in logs:
            for launch in log:
                slots.setdefault(launch[0], []).append(launch)
        report = ProfileReport()
        for key in sorted(slots):
            launches = slots[key]
            if len(launches) == 1:
                report.add(launches[0][4])
                continue
            _, kind, level, _, _ = launches[0]
            columns = [
                [item for part in parts for item in part]
                for parts in zip(*(launch[3] for launch in launches))
            ]
            report.add(self._relaunch(kind, level, columns))
        return report

    def _relaunch(
        self,
        kind: str,
        level: tuple[int, int, int] | None,
        columns: list[list],
    ) -> KernelStats:
        """Statistics of one launch from its cost inputs (see
        :data:`_Launch`)."""
        if kind == "svd":
            return self._svd_kernel().account(*columns)
        if kind == "evd":
            return self._evd_kernel().account(*columns)
        gemm = self._level_gemm(*level)
        tasks = [
            GemmTask(m, k) for col in columns for b, m, k in col for _ in range(b)
        ]
        if kind == "gram":
            return gemm.simulate_gram(tasks)
        return gemm.simulate_update(tasks)

    def _rescue_unit(
        self,
        matrices: list[np.ndarray],
        prepared: dict[int, _Prepared],
        bucket: tuple[int, ...],
        failed: list[tuple[tuple[int, ...], TaskError]],
        report: FailureReport,
        count: int,
    ) -> _BucketOut:
        """Quarantine ladder for a bucket with failed shard tasks.

        Everything re-solves on the executor-free solver (the bit-exact
        reference path, out of reach of the shared executor's fault frames
        and pool state). When every failure is an infrastructure fault,
        the whole bucket replays unsplit, which reproduces the factors and
        launches of a clean run. A numerical failure re-solves each member
        alone: healthy bucket-mates keep their bytes, and only members that
        fail alone descend to the reference per-matrix solver, then to NaN
        placeholders. Every matrix a failure named (the whole shard when
        it names none) lands in ``report``. The factors come back for the
        caller's matrices.
        """
        attempts = max(1, len(failed[0][1].failures))
        blame: dict[int, BaseException] = {}
        for unit, out in failed:
            named = getattr(out.error, "batch_indices", None) or unit
            for i in named:
                blame.setdefault(i, out.error)
        serial = _worker_solver(self.config, self.device)
        numerical = (ConvergenceError, NonFiniteError)

        def recovered(i: int) -> None:
            report.add(
                index=i,
                stage="wcycle",
                cause=type(blame[i]).__name__,
                message=str(blame[i]),
                attempts=attempts + 1,
                recovered=True,
            )

        if not any(isinstance(out.error, numerical) for _, out in failed):
            try:
                inner, log, rotations = serial._solve_unit(
                    [prepared[i][0] for i in bucket], bucket, count
                )
            except numerical as inline_exc:
                attempts += 1
                blame = dict.fromkeys(
                    inline_exc.batch_indices or bucket, inline_exc
                )
            else:
                for i in sorted(blame):
                    recovered(i)
                return (
                    [
                        _finish(res, *prepared[i][1:])
                        for i, res in zip(bucket, inner)
                    ],
                    self._replay([log]),
                    rotations,
                )
        results: list[SVDResult] = []
        records = ProfileReport()
        rotations = {}
        for i in bucket:
            work, q, flip, shift = prepared[i]
            try:
                (res,), log, solo_rotations = serial._solve_unit(
                    [work], (i,), count
                )
            except numerical as solo_exc:
                results.append(
                    self._reference_rescue(
                        matrices[i], i, solo_exc, attempts + 2, report
                    )
                )
                continue
            if i in blame:
                recovered(i)
            results.append(_finish(res, q, flip, shift))
            records.extend(self._replay([log]))
            rotations = _summed([rotations, solo_rotations])
        return results, records, rotations

    def _reference_rescue(
        self,
        A: np.ndarray,
        index: int,
        exc: BaseException,
        attempts: int,
        report: FailureReport,
    ) -> SVDResult:
        """Last rungs of the ladder: the flat per-matrix Jacobi solver,
        else NaN placeholders."""
        cfg = self.config
        reference = OneSidedJacobiSVD(
            OneSidedConfig(
                tol=cfg.tol,
                max_sweeps=cfg.max_sweeps,
                ordering=cfg.ordering,
                cache_inner_products=cfg.cache_inner_products,
                transpose_wide=cfg.transpose_wide,
            )
        )
        return _reference_rung(
            reference.decompose, _nan_svd_result, A, index, exc,
            stage="wcycle", attempts=attempts, report=report,
        )

    # ------------------------------------------------------------------
    # large-matrix path
    # ------------------------------------------------------------------

    def _svd_kernel(self) -> BatchedSVDKernel:
        if self._svd_kernel_cache is None:
            cfg = self.config
            self._svd_kernel_cache = BatchedSVDKernel(
                self.device,
                SMSVDKernelConfig(
                    alpha=cfg.alpha,
                    cache_inner_products=cfg.cache_inner_products,
                    transpose_wide=cfg.transpose_wide,
                    tol=_LEAF_TOL,
                    max_sweeps=cfg.inner_max_sweeps,
                    ordering=cfg.ordering,
                ),
                executor=self._executor,
            )
        return self._svd_kernel_cache

    def _evd_kernel(self) -> BatchedEVDKernel:
        if self._evd_kernel_cache is None:
            cfg = self.config
            self._evd_kernel_cache = BatchedEVDKernel(
                self.device,
                SMEVDKernelConfig(
                    parallel_update=cfg.parallel_evd,
                    tol=_LEAF_TOL,
                    max_sweeps=cfg.inner_max_sweeps,
                    ordering=cfg.ordering,
                ),
                executor=self._executor,
            )
        return self._evd_kernel_cache

    def _solve_unit(
        self,
        works: Sequence[np.ndarray],
        owners: tuple[int, ...],
        count: int,
    ) -> _UnitOut:
        """Solve one bucket (or member shard) of working matrices.

        ``owners`` are the members' caller batch indices (named by
        failures); ``count`` is the size of the whole batch, which the
        width tuner sees exactly as the serial path does. Triangular
        factors that fit in shared memory share one in-SM launch; any
        other bucket runs the level recursion on private copies, so the
        inputs are never mutated. The factors are the working matrices'.
        """
        log: list[_Launch] = []
        rotations: dict[int, int] = {}
        if svd_fits_in_sm(*works[0].shape, self.device):
            results = self._launch_svd(list(works), owners, (), log)
        else:
            # A C-ordered private copy: a wide member's working matrix is
            # a transposed view, and the sweeps' BLAS products round
            # differently in the other layout.
            results = self._solve_bucket(
                np.array(works, order="C"), owners, count, log, rotations
            )
        return results, log, rotations

    def _solve_bucket(
        self,
        works: np.ndarray,
        owners: tuple[int, ...],
        count: int,
        log: list[_Launch],
        level_rotations: dict[int, int],
    ) -> Sequence[SVDResult]:
        """Run the level recursion on a ``(b, m, n)`` stack of working
        matrices (in place) and finalize each member's factors."""
        m, n = works.shape[1:]
        cfg = self.config
        w1 = cfg.w1
        if w1 is None:
            w1 = select_w1(
                m,
                n,
                self.device,
                count=count,
                tailoring=cfg.tailoring,
                tlp_threshold=cfg.tlp_threshold,
            )
        widths = width_schedule(n, self.device, w1=w1, shrink=cfg.shrink)
        _log.debug(
            "factorizing %d x (%dx%d) on %s: widths %s",
            len(works), m, n, self.device.name, widths,
        )
        Vs = np.tile(np.eye(n), (len(works), 1, 1))
        traces = [ConvergenceTrace() for _ in works]
        self._orthogonalize(
            list(works),
            list(Vs),
            owners,
            [_LEAF_STOP_FIRST] * len(works),
            widths,
            depth=0,
            tol=cfg.tol,
            max_sweeps=cfg.max_sweeps,
            key=(),
            log=log,
            level_rotations=level_rotations,
            traces=traces,
        )
        return finalize_stack(works, Vs, traces)

    # ------------------------------------------------------------------
    # the W-cycle recursion
    # ------------------------------------------------------------------

    def _orthogonalize(
        self,
        works: list[np.ndarray],
        Vs: list[np.ndarray],
        owners: Sequence[int],
        stops: list[float],
        widths: list[int],
        depth: int,
        tol: float,
        max_sweeps: int,
        key: tuple[int, ...],
        log: list[_Launch],
        level_rotations: dict[int, int],
        traces: list[ConvergenceTrace] | None = None,
        fixed_sweeps: int | None = None,
    ) -> None:
        """Orthogonalize the columns of every same-shape ``works[k]`` at
        level ``depth``, level-synchronously.

        Runs block-Jacobi sweeps with width ``widths[depth]``: each step
        serves the joined pairs of every live member through
        :meth:`_apply_step`, whose group-3 pairs recurse into
        ``depth + 1``. ``Vs[k]`` accumulates member ``k``'s rotations;
        ``owners[k]`` is the caller batch index a failure names, and
        ``stops[k]`` the stop tolerance of the leaf solves of its panels.
        Launches go into ``log`` under ``key`` extended by (sweep, step);
        per-depth rotation counts go into ``level_rotations``.

        Each member's convergence is checked after every sweep, and a
        converged member drops out of the remaining sweeps. At level 0 the
        check also sets the member's next leaf stop tolerance from its
        residual (:func:`_leaf_stop`); recursed panels keep their
        member's. With
        ``fixed_sweeps`` set this is one W-cycle *visit*: exactly that
        many sweeps run, no convergence check (the rotation returned to the
        parent level is then approximate, which the parent's own sweeping
        absorbs — the multigrid character of the W-cycle).
        """
        m, n = works[0].shape
        if n < 2:
            return
        w = max(1, min(widths[min(depth, len(widths) - 1)], n // 2))
        plan = self._level_plan(m, n, w)
        rotations = sum(len(s.cols) for step in plan for s in step)
        live = list(range(len(works)))
        residuals: dict[int, float] = {}
        sweep_budget = fixed_sweeps if fixed_sweeps is not None else max_sweeps
        for sweep_index in range(1, sweep_budget + 1):
            live_works = [works[k] for k in live]
            live_Vs = [Vs[k] for k in live]
            live_owners = [owners[k] for k in live]
            live_stops = [stops[k] for k in live]
            for step_index, step in enumerate(plan):
                self._apply_step(
                    live_works, live_Vs, live_owners, live_stops, step,
                    widths, depth, (m, n, w), key + (sweep_index, step_index),
                    log, level_rotations,
                )
            level_rotations[depth] = (
                level_rotations.get(depth, 0) + rotations * len(live)
            )
            if fixed_sweeps is not None:
                continue
            unconverged = []
            for k in live:
                off = gram_offdiagonal_cosine(works[k])
                if traces is not None:
                    traces[k].append(sweep_index, off, rotations)
                if off >= tol:
                    residuals[k] = off
                    unconverged.append(k)
                    if depth == 0:
                        stops[k] = _leaf_stop(off)
            live = unconverged
            if not live:
                return
        if fixed_sweeps is not None:
            return
        named = sorted({owners[k] for k in live})
        residual = residuals[live[0]]
        raise ConvergenceError(
            f"W-cycle level {depth} (w={w}) did not converge in "
            f"{max_sweeps} sweeps (residual {residual:.3e}) "
            f"[bucket shape {m}x{n}, batch indices {named}]",
            sweeps=max_sweeps,
            residual=residual,
            batch_indices=tuple(named),
        )

    def _level_plan(self, m: int, n: int, w: int) -> list[tuple[_PanelSet, ...]]:
        """Precomputed sweep plan for a level of an ``m x n`` worked matrix.

        Builds, once per ``(m, n, w)``, what the seed driver rebuilt every
        sweep step: the ordering's schedule over column blocks, each joined
        pair's gathered column indices (the ``np.r_[...]`` arrays), and its
        three-group classification. Each step's pairs are grouped into
        :class:`_PanelSet` s by group and panel width: the in-SM SVD sets,
        then the Gram-EVD sets, each in the order the engine would run
        their shape buckets (:func:`~repro.utils.bucketing.order_buckets`),
        then the recursed sets in the order their widths first appear. All
        of it is a pure function of the level geometry and the device, so
        repeated sweeps — and repeated W-cycle visits at the same level —
        reuse one plan.
        """
        key = (m, n, w)
        plan = self._plan_cache.get(key)
        if plan is None:
            blocks = column_blocks(n, w)
            schedule = sweep_schedule(self.config.ordering, len(blocks))
            plan = [self._step_sets(m, step, blocks) for step in schedule]
            self._plan_cache[key] = plan
        return plan

    def _step_sets(self, m, step, blocks) -> tuple[_PanelSet, ...]:
        """The panel sets of one schedule step (see :meth:`_level_plan`)."""
        pairs: dict[tuple[Group, int], list[np.ndarray]] = {}
        for bi, bj in step:
            cols = np.r_[slice(*blocks[bi]), slice(*blocks[bj])]
            group = classify_pair(m, len(cols), self.device).group
            pairs.setdefault((group, len(cols)), []).append(cols)
        groups = list(Group)

        def rank(item):
            first, ((group, width), cols) = item
            if group is Group.RECURSE:  # sub-buckets in first-seen order
                return groups.index(group), 0, (first,)
            # A leaf group's sets launch in the engine's bucket order, so a
            # raised failure is the one its one list launch would raise.
            shape = (
                (width, width)
                if group is Group.EVD_IN_SM
                else self._svd_kernel().working_shape(m, width)
            )
            bucket = ShapeBucket(shape, tuple(range(len(cols))))
            return groups.index(group), -bucket_cost(bucket), shape

        return tuple(
            _PanelSet(group, np.stack(cols))
            for _, ((group, _), cols) in sorted(
                enumerate(pairs.items()), key=rank
            )
        )

    def _level_gemm(self, m: int, n: int, w: int) -> BatchedGemm:
        """The (possibly tailored) GEMM engine for one level, memoized —
        repeated sweeps must not re-run the auto-tuner on an identical
        query (its plan is a pure function of shape, device, and config)."""
        key = (m, n, w)
        gemm = self._gemm_cache.get(key)
        if gemm is None:
            cfg = self.config
            if cfg.fixed_delta is not None:
                tiling = TilingSpec(
                    delta=cfg.fixed_delta, width=2 * w, threads=256
                )
            elif cfg.tailoring:
                tuner = AutoTuner(self.device, threshold=cfg.tlp_threshold)
                plan = tuner.select([(m, n)]).plan
                tiling = TilingSpec(
                    delta=plan.delta, width=2 * w, threads=plan.threads
                )
            else:
                tiling = TilingSpec(delta=m, width=2 * w, threads=256)
            gemm = BatchedGemm(self.device, tiling)
            self._gemm_cache[key] = gemm
        return gemm

    def _apply_step(
        self,
        works: list[np.ndarray],
        Vs: list[np.ndarray],
        owners: list[int],
        stops: list[float],
        step: Sequence[_PanelSet],
        widths: list[int],
        depth: int,
        level: tuple[int, int, int],
        key: tuple[int, ...],
        log: list[_Launch],
        level_rotations: dict[int, int],
    ) -> None:
        """One sweep step of every member: one launch per kernel group.

        ``step`` holds the step's panel sets, precomputed via
        :meth:`_level_plan`. A set's panels of every member are gathered
        into one member-major ``(K P, m, width)`` stack, with one fancy
        index per member. The in-SM SVD sets go to the SVD kernel, the
        Gram-EVD sets to one Gram GEMM plus the EVD kernel, and each
        recursed set descends as one sub-bucket; ``level`` is the ``(m, n,
        w)`` of the level's GEMM engine. Every panel's leaf solve stops at
        its member's ``stops`` entry. A Gram leaf counts every pair whose
        columns are above the one-sided column floor of its panel —
        ``(eps max(m, 2w))^2`` times the largest squared column norm, the
        floor of the SVD leaves and at most the outer test's — however
        small its elements are next to ``||B||_F``.

        Each launch goes into ``log`` under ``key`` plus its phase in the
        step (SVD, Gram, EVD, recursion with its sub-bucket, update), so
        keys sort in launch order; the sets of one kernel group share a
        key, and :meth:`_replay` folds them into the group's one launch.
        The rotations come back as one stack per set, and the update is
        one launch of one stacked matmul per set and panel kind (data and
        V), into scratch buffers like the gathers', written back with one
        fancy assignment per member and set.
        Recursion orthogonalizes its gathered panels *in place*, so the
        update re-gathers a recursed set's original columns from ``works``
        (untouched until the write-back).
        """
        if not step:
            return
        gemm = self._level_gemm(*level)
        cfg = self.config
        held: list[np.ndarray] = []
        panels = [self._gather(works, s.cols, held) for s in step]
        # Each panel's owner and leaf stop, member-major like the panels.
        panel_owners = [np.repeat(owners, len(s.cols)) for s in step]
        panel_stops = [np.repeat(stops, len(s.cols)) for s in step]
        Js: list[np.ndarray] = [np.empty(0)] * len(step)
        svd, evd, recursed = (
            [i for i, s in enumerate(step) if s.group is group] for group in Group
        )
        for i in svd:
            V = self._launch_svd(
                panels[i], panel_owners[i], key + (0, 0), log,
                stop=panel_stops[i],
            ).V
            width = V.shape[1]
            if V.shape[2] < width:
                V = np.stack([complete_square_orthogonal(v, width) for v in V])
            Js[i] = V
        if evd:
            grams, stats = gemm.gram([panels[i] for i in evd])
            log.append((
                key + (1, 0), "gram", level,
                ([panels[i].shape for i in evd],), stats,
            ))
            for i, G in zip(evd, grams):
                floors = np.zeros((len(G), 2))
                floors[:, 1] = (_EPS * max(panels[i].shape[1:])) ** 2 * (
                    np.diagonal(G, axis1=1, axis2=2).max(axis=1)
                )
                res, stats = _blamed(
                    self._evd_kernel().run, G, panel_owners[i],
                    stop=panel_stops[i], floors=floors,
                )
                log.append((
                    key + (2, 0), "evd", None,
                    ([G.shape[1]] * len(G), observed_sweeps(res)), stats,
                ))
                Js[i] = res.J
        for sub, i in enumerate(recursed):
            width = panels[i].shape[2]
            Js[i] = np.tile(np.eye(width), (len(panels[i]), 1, 1))
            self._orthogonalize(
                list(panels[i]),
                list(Js[i]),
                panel_owners[i].tolist(),
                panel_stops[i].tolist(),
                widths,
                depth + 1,
                tol=cfg.inner_tol,
                max_sweeps=cfg.inner_max_sweeps,
                key=key + (3, sub),
                log=log,
                level_rotations=level_rotations,
                fixed_sweeps=cfg.inner_sweeps,
            )
            panels[i] = self._gather(works, step[i].cols, held)

        # The level's second batched GEMM: rotate the data panels and the
        # accumulated V panels of every member with the same J (one
        # tailored launch).
        V_panels = [self._gather(Vs, s.cols, held) for s in step]
        products = [self._scratch.acquire(p.shape) for p in panels + V_panels]
        held += products
        updated, stats = gemm.update(panels + V_panels, Js + Js, out=products)
        log.append((
            key + (4, 0), "update", level,
            ([p.shape for p in panels], [p.shape for p in V_panels]), stats,
        ))
        for s, data, V in zip(step, updated, updated[len(step):]):
            _scatter(works, s.cols, data)
            _scatter(Vs, s.cols, V)
        for buf in held:
            self._scratch.release(buf)

    def _gather(
        self, mats: Sequence[np.ndarray], cols: np.ndarray, held: list
    ) -> np.ndarray:
        """The panels ``A[:, cols[p]]`` of every member ``A`` of ``mats``,
        as one member-major ``(K P, rows, width)`` stack: one fancy index
        per member, into a scratch buffer appended to ``held`` (the step
        returns it once its write-back is done).

        Each panel is stored column by column, as ``A[:, cols[p]]`` itself
        is: BLAS rounds a product of the same values differently in the
        other layout, and the Gram and update GEMMs read the panels as
        they are.
        """
        P, width = cols.shape
        out = self._scratch.acquire((len(mats), P, width, mats[0].shape[0]))
        held.append(out)
        for k, A in enumerate(mats):
            out[k] = A.T[cols]
        return out.reshape(-1, width, out.shape[3]).transpose(0, 2, 1)

    def _launch_svd(
        self,
        panels: list[np.ndarray] | np.ndarray,
        owners: Sequence[int],
        key: tuple[int, ...],
        log: list[_Launch],
        stop: np.ndarray | None = None,
    ):
        """One in-SM SVD launch over ``panels`` (a list, or a stack whose
        factors come back stacked), logged under ``key``; ``stop`` gives
        each panel its stop tolerance (``None``: 1e-14)."""
        results, stats = _blamed(
            self._svd_kernel().run, panels, owners, stop=stop
        )
        log.append((
            key, "svd", None,
            (batch_shapes(panels), observed_sweeps(results)), stats,
        ))
        return results


def _scatter(
    mats: Sequence[np.ndarray], cols: np.ndarray, stack: np.ndarray
) -> None:
    """Write a member-major panel ``stack`` (as
    :meth:`WCycleSVD._gather` lays it out) back into the columns ``cols``
    of every member of ``mats``: one fancy assignment per member."""
    P = len(cols)
    for k, A in enumerate(mats):
        A[:, cols] = stack[k * P : (k + 1) * P].transpose(1, 0, 2)


def _finish(
    res: SVDResult, q: np.ndarray | None, flip: bool, shift: int
) -> SVDResult:
    """Map a working matrix's factors back to its caller's matrix."""
    if q is not None:
        res = SVDResult(U=q @ res.U, S=res.S, V=res.V, trace=res.trace)
    if flip:
        res = SVDResult(U=res.V, S=res.S, V=res.U, trace=res.trace)
    return unshift(res, shift)


def _summed(counts: list[dict[int, int]]) -> dict[int, int]:
    """Per-depth rotation counts added up."""
    total: dict[int, int] = {}
    for part in counts:
        for depth, n_rot in part.items():
            total[depth] = total.get(depth, 0) + n_rot
    return total


def _leaf_stop(residual: float) -> float:
    """Leaf stop tolerance of a member whose last level-0 sweep left it at
    ``residual``: ``clamp(0.01 residual^2, 1e-14, 1e-2)``.

    Near convergence the outer residual falls about quadratically, so
    leaves solved to a hundredth of ``residual^2`` seldom cost the outer
    iteration a sweep, while the leaves of a member far from convergence
    stop after a sweep or two. Repeated singular values converge more
    slowly under it and take a few more (cheaper) outer sweeps.
    """
    return min(max(0.01 * residual * residual, _LEAF_TOL), _LEAF_STOP_FIRST)


def _blamed(run, panels, owners, **kwargs):
    """``run(panels, **kwargs)`` in raise mode, with a failure re-pointed
    from panel positions to the batch indices of the matrices owning the
    panels, and to the shape of the first failing panel."""
    try:
        return run(panels, on_failure="raise", **kwargs)
    except (ConvergenceError, NonFiniteError) as exc:
        first = (exc.batch_indices or (0,))[0]
        raise _remap_stack_error(exc, panels[first].shape, owners) from None


# -- persistent-worker task shells ----------------------------------------


@functools.lru_cache(maxsize=8)
def _worker_solver(config: WCycleConfig, device: DeviceSpec) -> WCycleSVD:
    """Per-process solver cache: one serial WCycleSVD per (config, device).

    The solver runs on a plain serial executor — the bucket-level fan-out
    already owns the parallelism, and its plan/GEMM caches persist across
    the tasks a worker serves. The quarantine ladder re-solves on it too,
    so it must not pick up a default backend (``REPRO_RUNTIME_BACKEND``)
    or a fault-injecting wrapper: a pool built in the parent would be
    inherited by forked workers, which may not start pools of their own.
    """
    return WCycleSVD(config, device=device, runtime=SerialExecutor())


def _fanout_task(item):
    """One unit of :meth:`WCycleSVD._run_large`'s fan-out: ``item`` is
    ``(task, args)``, a bucket (:func:`_solve_unit_task`) or the in-SM
    group (:func:`_solve_sm_task`)."""
    task, args = item
    return task(args)


def _solve_sm_task(item):
    """The in-SM group of a batch, solved by the process's serial solver
    of the item's config and device with one SVD launch: ``(results,
    stats, failures)``, the failures group-local (see
    :meth:`WCycleSVD._place_sm`)."""
    config, device, matrices, on_failure = item
    kernel = _worker_solver(config, device)._svd_kernel()
    results, stats = kernel.run(matrices, on_failure=on_failure)
    return results, stats, kernel.last_failures


def _solve_unit_task(item) -> _UnitOut:
    """One bucket (or member shard) of working matrices, on every backend.

    Solved by the process's serial solver of the item's config and
    device, so the parent and a persistent worker solve a unit alike.
    The solve never mutates the working matrices (a ladder retry of the
    same item stays bit-identical), and the result triple is returned.
    """
    config, device, works, owners, count = item
    return _worker_solver(config, device)._solve_unit(works, owners, count)
