"""Simulated batched SVD kernel in shared memory (paper §IV-B).

One thread block per matrix; each column-pair orthogonalization is assigned
to ``α`` of a warp; the Eq. 6 inner-product cache removes two of the three
dot products per rotation. The real math is
:class:`repro.jacobi.OneSidedJacobiSVD`; this module adds the resource
checks and the cost accounting of the kernel a GPU would run.

Cost formulas (per matrix of shape ``m x n`` with ``n <= m`` after the
transpose-when-wide rule, per sweep; pairs = n(n-1)/2):

- dot products: cached — 1 per pair of length m plus the O(1) Eq. 6 update
  and a per-sweep norm refresh; uncached — 3 per pair;
- column updates: 6m flops per pair on the data, 6n per pair on V;
- global memory: the matrix is staged into SM once and written back once;
  V updates stream through GM (2 columns read + written per pair).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ResourceError
from repro.gpusim.counters import KernelStats, Profiler
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig, simulate_launch
from repro.gpusim.memory import FLOAT64_BYTES, svd_fits_in_sm, svd_shared_bytes
from repro.jacobi.batched import BatchedJacobiEngine
from repro.jacobi.onesided_vector import OneSidedConfig
from repro.jacobi.sweep_model import predict_sweeps_vector
from repro.runtime.executor import Executor
from repro.tuning.alpha import ALPHA_CHOICES, alpha_gcd_rule, threads_for_alpha
from repro.types import SVDResult

__all__ = ["SMSVDKernelConfig", "BatchedSVDKernel", "svd_sweep_cost"]


@dataclass(frozen=True)
class SMSVDKernelConfig:
    """Configuration of the in-SM batched SVD kernel.

    Attributes
    ----------
    alpha:
        Warp fraction per column pair. A float pins it; ``None`` selects via
        the GCD rule from the batch's largest row count (the paper's first
        method); ``"auto"`` picks the fastest candidate under the cost
        model, which is the oracle the paper's trained decision tree
        approximates (second method).
    cache_inner_products:
        Eq. 6 optimization (ablation D1).
    gram_cache:
        Carry the full Gram matrix across rotations instead of just the
        squared norms (see :attr:`repro.jacobi.onesided_vector.
        OneSidedConfig.gram_cache`). Requires ``cache_inner_products``.
    transpose_wide:
        Factor ``A.T`` when ``m < n`` (ablation D6).
    tol / max_sweeps / ordering:
        Passed to the underlying one-sided solver.
    """

    alpha: float | str | None = None
    cache_inner_products: bool = True
    gram_cache: bool = False
    transpose_wide: bool = True
    tol: float = 1e-14
    max_sweeps: int = 60
    ordering: str = "round-robin"

    def __post_init__(self) -> None:
        if (
            self.alpha is not None
            and self.alpha != "auto"
            and self.alpha not in ALPHA_CHOICES
        ):
            raise ConfigurationError(
                f"alpha must be None, 'auto', or one of {ALPHA_CHOICES}, "
                f"got {self.alpha}"
            )


def v_panel_in_sm(m: int, n: int, device: DeviceSpec) -> bool:
    """Whether the kernel should co-locate the V accumulator in shared memory.

    The SM-residency *test* of the W-cycle only requires the data panel to
    fit (Observation 2); when capacity allows, the kernel keeps V on-chip
    too and eliminates the per-rotation global-memory streaming. Streaming
    costs ~2 n^3 bytes per sweep versus an n x n one-time footprint, so
    co-location wins whenever the static per-block limit admits it, even at
    reduced block residency.
    """
    return (
        svd_shared_bytes(m, n) + FLOAT64_BYTES * n * n
        <= device.shared_mem_per_block
    )


def svd_sweep_cost(
    m: int, n: int, *, cached: bool, v_in_gm: bool = True
) -> tuple[float, float]:
    """(flops, gm_bytes) of *one sweep* of the in-SM kernel on ``m x n``.

    ``n <= m`` is assumed (callers apply the transpose rule first). The
    matrix itself is SM-resident so its traffic is excluded here; per-sweep
    GM traffic is only the streamed V-panel updates (zero when V is
    SM-resident as well, see :func:`v_panel_in_sm`).
    """
    pairs = n * (n - 1) // 2
    dot_flops = 2.0 * m * (1 if cached else 3) * pairs
    if cached:
        dot_flops += 12.0 * pairs  # Eq. 6 norm updates
        dot_flops += 2.0 * m * n  # per-sweep cache refresh
    update_flops = 6.0 * m * pairs  # rotate two data columns
    v_flops = 6.0 * n * pairs  # rotate two V columns
    flops = dot_flops + update_flops + v_flops
    gm_bytes = (4.0 * n * FLOAT64_BYTES) * pairs if v_in_gm else 0.0
    return flops, gm_bytes


def observed_sweeps(results) -> list[int]:
    """Sweeps each solve of a launch took, as its cost model counts them:
    a result without a convergence trace counts as one sweep."""
    return [r.trace.sweeps if r.trace is not None else 1 for r in results]


def _matrix_io_bytes(m: int, n: int) -> float:
    """One-time GM traffic: stage the matrix in, write U/S/V out."""
    r = min(m, n)
    return FLOAT64_BYTES * (m * n + m * r + r + n * r)


class BatchedSVDKernel:
    """Batched in-SM SVD kernel: real math + simulated launch costs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gpusim import V100
    >>> from repro.gpusim.svd_kernel import BatchedSVDKernel
    >>> rng = np.random.default_rng(0)
    >>> batch = [rng.standard_normal((16, 8)) for _ in range(4)]
    >>> kernel = BatchedSVDKernel(V100)
    >>> results, stats = kernel.run(batch)
    >>> len(results), stats.blocks
    (4, 4)
    """

    name = "batched_svd_sm"

    def __init__(
        self,
        device: DeviceSpec,
        config: SMSVDKernelConfig | None = None,
        *,
        executor: "Executor | None" = None,
    ) -> None:
        self.device = device
        self.config = config or SMSVDKernelConfig()
        cfg = self.config
        # The batch-vectorized execution engine: one construction per
        # kernel, reused across launches (the config is frozen). The
        # optional executor shards shape buckets across host workers;
        # KernelStats are computed here from the full batch regardless,
        # so sharding never changes the simulated accounting.
        self._engine = BatchedJacobiEngine(
            OneSidedConfig(
                tol=cfg.tol,
                max_sweeps=cfg.max_sweeps,
                ordering=cfg.ordering,
                cache_inner_products=cfg.cache_inner_products,
                gram_cache=cfg.gram_cache,
                transpose_wide=cfg.transpose_wide,
            ),
            executor=executor,
        )

    # ------------------------------------------------------------------

    def working_shape(self, m: int, n: int) -> tuple[int, int]:
        """Shape actually factorized after the transpose-when-wide rule."""
        if self.config.transpose_wide and m < n:
            return n, m
        return m, n

    def check_fits(self, m: int, n: int) -> None:
        """Raise :class:`ResourceError` unless the SVD fits in SM."""
        if not svd_fits_in_sm(m, n, self.device):
            raise ResourceError(
                f"{self.name}: {m}x{n} needs {svd_shared_bytes(m, n)} B of "
                f"shared memory; device {self.device.name} offers "
                f"{self.device.shared_mem_per_block} B per block"
            )

    def select_alpha(self, shapes: list[tuple[int, int]]) -> float:
        """Resolve the α-warp fraction for a batch of working shapes.

        ``"auto"`` is resolved lazily inside :meth:`_simulate` (it needs the
        launch cost); here it falls back to the GCD rule for callers that
        only want a representative value.
        """
        if self.config.alpha is not None and self.config.alpha != "auto":
            return self.config.alpha  # type: ignore[return-value]
        m_star = max(m for m, _ in shapes)
        return alpha_gcd_rule(m_star, self.device.warp_size)

    def launch_geometry(
        self, shapes: list[tuple[int, int]], alpha: float
    ) -> tuple[int, int]:
        """(blocks, threads_per_block) for a batch of working shapes."""
        n_star = max(n for _, n in shapes)
        threads = threads_for_alpha(
            alpha,
            n_star,
            warp_size=self.device.warp_size,
            max_threads=self.device.max_threads_per_block,
        )
        return len(shapes), threads

    # ------------------------------------------------------------------

    @property
    def last_failures(self):
        """The engine's :class:`~repro.errors.FailureReport` of the most
        recent :meth:`run` (empty/falsy after a clean run)."""
        return self._engine.last_failures

    def run(
        self,
        matrices: list[np.ndarray],
        *,
        stop: list[float] | None = None,
        profiler: Profiler | None = None,
        on_failure: str | None = None,
    ) -> tuple[list[SVDResult], KernelStats]:
        """Execute the batched SVD: real results plus launch statistics.

        The math runs through the shape-bucketed batch-vectorized engine
        (:class:`~repro.jacobi.batched.BatchedJacobiEngine`) — the NumPy
        analogue of the one-block-per-matrix launch — producing the same
        per-matrix results as a per-matrix solver loop. Cost accounting is
        computed from the same shapes and observed sweep counts as before,
        so the simulated :class:`KernelStats` are unchanged.

        ``stop`` (one value per matrix, ``None`` = the configured ``tol``)
        decides when each matrix stops sweeping, never which pairs rotate
        (see :meth:`~repro.jacobi.batched.StackedOneSidedJacobi.solve_stack`).
        ``on_failure`` (``"raise"``/``"quarantine"``/``None`` = inherit
        from the executor's retry policy) is forwarded to the engine;
        quarantine events are readable via :attr:`last_failures`.
        """
        if not matrices:
            raise ConfigurationError("batch must not be empty")
        for m, n in dict.fromkeys(a.shape for a in matrices):
            self.check_fits(*self.working_shape(m, n))
        results = self._engine.svd_batch(
            matrices, stop=stop, on_failure=on_failure
        )
        stats = self.account(
            [a.shape for a in matrices], observed_sweeps(results),
            profiler=profiler,
        )
        return results, stats

    def account(
        self,
        shapes: list[tuple[int, int]],
        sweeps: list[int],
        *,
        profiler: Profiler | None = None,
    ) -> KernelStats:
        """Launch statistics of one launch over matrices of ``shapes``
        whose solves took ``sweeps`` sweeps each.

        This is what :meth:`run` records; callers that split one launch's
        matrices across several runs rebuild the launch from the
        concatenated shapes and sweep counts.

        Costs are summed once per distinct (shape, sweeps) group. Every
        term is an integer-valued float far below 2**53, so the grouped
        sums equal the per-matrix sums exactly, in any order.
        """
        cfg = self.config
        work_shapes = []
        flops = 0.0
        gm_bytes = 0.0
        max_block = 0.0
        groups = Counter(zip(map(tuple, shapes), sweeps))
        for ((m, n), n_sweeps), count in groups.items():
            m, n = self.working_shape(m, n)
            work_shapes.append((m, n))
            f, g = svd_sweep_cost(
                m,
                n,
                cached=cfg.cache_inner_products,
                v_in_gm=not v_panel_in_sm(m, n, self.device),
            )
            flops += f * n_sweeps * count
            max_block = max(max_block, f * n_sweeps)
            gm_bytes += (g * n_sweeps + _matrix_io_bytes(m, n)) * count
        return self._simulate(
            work_shapes, len(shapes), flops, gm_bytes, profiler, max_block
        )

    def estimate(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
        profiler: Profiler | None = None,
    ) -> KernelStats:
        """Cost-only path: predicted sweeps, no arithmetic performed."""
        if not shapes:
            raise ConfigurationError("batch must not be empty")
        work_shapes = [self.working_shape(m, n) for m, n in shapes]
        for m, n in dict.fromkeys(work_shapes):
            self.check_fits(m, n)
        if conditions is None:
            conditions = [None] * len(work_shapes)  # type: ignore[list-item]
        sweeps = [
            predict_sweeps_vector(n, cond)
            for (_, n), cond in zip(work_shapes, conditions)
        ]
        return self.account(shapes, sweeps, profiler=profiler)

    # ------------------------------------------------------------------

    def _simulate(
        self,
        shapes: list[tuple[int, int]],
        blocks: int,
        flops: float,
        gm_bytes: float,
        profiler: Profiler | None,
        max_block_flops: float = 0.0,
    ) -> KernelStats:
        """Price a launch of ``blocks`` matrices whose working shapes are
        those in ``shapes`` (each listed at least once)."""
        if self.config.alpha == "auto":
            candidates = ALPHA_CHOICES
        else:
            candidates = (self.select_alpha(shapes),)
        shared = max(
            svd_shared_bytes(m, n)
            + (FLOAT64_BYTES * n * n if v_panel_in_sm(m, n, self.device) else 0)
            for m, n in shapes
        )
        best: KernelStats | None = None
        for alpha in candidates:
            stats = self._simulate_with_alpha(
                shapes, blocks, shared, alpha, flops, gm_bytes,
                max_block_flops,
            )
            if best is None or stats.time < best.time:
                best = stats
        assert best is not None
        if profiler is not None:
            profiler.record(best)
        return best

    def _simulate_with_alpha(
        self,
        shapes: list[tuple[int, int]],
        blocks: int,
        shared: int,
        alpha: float,
        flops: float,
        gm_bytes: float,
        max_block_flops: float = 0.0,
    ) -> KernelStats:
        _, threads = self.launch_geometry(shapes, alpha)
        m_star = max(m for m, _ in shapes)
        task_threads = max(4, int(alpha * self.device.warp_size))
        # Strided-loop utilization of the threads walking an m-element
        # column, times a fixed reduction penalty for the tree-sum.
        iters = -(-m_star // task_threads)
        stride_eff = m_star / (task_threads * iters)
        intra = max(0.05, min(1.0, 0.8 * stride_eff))
        return simulate_launch(
            self.device,
            LaunchConfig(
                kernel=self.name,
                blocks=blocks,
                threads_per_block=threads,
                shared_bytes_per_block=shared,
                flops=flops,
                gm_bytes=gm_bytes,
                intra_efficiency=intra,
                max_block_flops=max_block_flops,
            ),
        )
