"""Simulated batched EVD kernel in shared memory (paper §IV-C).

Diagonalizes a batch of symmetric Gram matrices ``B_ij`` (one per thread
block) with the two-sided Jacobi method. Two kernel variants:

- **parallel** (the paper's contribution): a round-robin step's disjoint
  rotations are applied as one congruence; every element of
  ``B_hat = G.T B G`` is computed independently (6 mul + 3 add), so a
  ``k x k`` matrix update uses up to ``k^2`` threads;
- **sequential** (the reference the paper beats by >6x in Fig. 10(b)):
  eliminations run one after another, each touching only 2 rows + 2 columns
  (at most ``4k`` active threads).

Both produce identical math up to rotation grouping; the cost model differs
through ``intra_efficiency``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ResourceError
from repro.gpusim.counters import KernelStats, Profiler
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig, memoized_launch, simulate_launch
from repro.gpusim.memory import FLOAT64_BYTES, evd_fits_in_sm, evd_shared_bytes
from repro.gpusim.svd_kernel import batch_shapes, observed_sweeps
from repro.jacobi.batched import BatchedJacobiEngine
from repro.jacobi.sweep_model import predict_sweeps_twosided
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.runtime.executor import Executor
from repro.types import EVDResult, EVDStack

__all__ = ["SMEVDKernelConfig", "BatchedEVDKernel", "evd_sweep_cost"]


@dataclass(frozen=True)
class SMEVDKernelConfig:
    """Configuration of the in-SM batched EVD kernel.

    ``parallel_update`` switches between the paper's parallel kernel and the
    sequential reference (ablation D3). ``threads_per_block=None`` (default)
    sizes the block to the work: about ``k^2 / 4`` threads so every thread
    owns a handful of the ``k^2`` concurrently-updatable elements.
    """

    parallel_update: bool = True
    tol: float = 1e-14
    max_sweeps: int = 60
    ordering: str = "round-robin"
    threads_per_block: int | None = None

    def __post_init__(self) -> None:
        if self.threads_per_block is not None and self.threads_per_block < 32:
            raise ConfigurationError(
                f"threads_per_block must be >= 32, got {self.threads_per_block}"
            )

    def resolve_threads(self, k_star: int, max_threads: int) -> int:
        """Threads per block for the largest matrix ``k_star`` in the batch."""
        if self.threads_per_block is not None:
            return self.threads_per_block
        threads = ((k_star * k_star // 4 + 31) // 32) * 32
        return max(64, min(threads, max_threads))


def evd_sweep_cost(k: int, *, parallel: bool) -> tuple[float, float]:
    """(flops, gm_bytes) of one sweep of the EVD kernel on ``k x k``.

    Parallel: ``k - 1`` steps each recomputing all ``k^2`` elements (9 ops,
    Fig. 5) plus the J accumulation; sequential: ``k(k-1)/2`` eliminations
    each rotating two rows, two columns and two J columns (~8k ops). ``B``
    and ``J`` are SM-resident; per-sweep GM traffic is zero, the one-time
    stage-in/out is accounted by the kernel driver.
    """
    if parallel:
        steps = max(1, k - 1)
        flops = steps * (9.0 * k * k + 6.0 * k * (k // 2))
    else:
        rotations = k * (k - 1) // 2
        flops = rotations * (8.0 * k + 6.0 * k)
    return flops, 0.0


def _evd_io_bytes(k: int) -> float:
    """Stage B in; write J and the eigenvalues out."""
    return FLOAT64_BYTES * (2.0 * k * k + k)


class BatchedEVDKernel:
    """Batched in-SM EVD kernel: real math + simulated launch costs."""

    def __init__(
        self,
        device: DeviceSpec,
        config: SMEVDKernelConfig | None = None,
        *,
        executor: "Executor | None" = None,
    ) -> None:
        self.device = device
        self.config = config or SMEVDKernelConfig()
        cfg = self.config
        # Batch-vectorized engine for the parallel kernel variant; the
        # sequential reference falls back to a per-matrix loop inside it.
        # The optional executor shards size buckets across host workers;
        # stats stay host-computed over the full batch, so sharding never
        # changes the simulated accounting.
        self._engine = BatchedJacobiEngine(
            evd_config=TwoSidedConfig(
                tol=cfg.tol, max_sweeps=cfg.max_sweeps, ordering=cfg.ordering
            ),
            parallel_evd=cfg.parallel_update,
            executor=executor,
        )
        #: Priced launches, keyed by their (size, sweeps) groups.
        self._launches: dict = {}

    @property
    def name(self) -> str:
        suffix = "parallel" if self.config.parallel_update else "sequential"
        return f"batched_evd_sm_{suffix}"

    def check_fits(self, k: int) -> None:
        """Raise :class:`ResourceError` unless the EVD fits in SM."""
        if not evd_fits_in_sm(k, self.device):
            raise ResourceError(
                f"{self.name}: {k}x{k} EVD needs {evd_shared_bytes(k)} B of "
                f"shared memory; device {self.device.name} offers "
                f"{self.device.shared_mem_per_block} B per block"
            )

    # ------------------------------------------------------------------

    @property
    def last_failures(self):
        """The engine's :class:`~repro.errors.FailureReport` of the most
        recent :meth:`run` (empty/falsy after a clean run)."""
        return self._engine.last_failures

    def run(
        self,
        matrices: list[np.ndarray] | np.ndarray,
        *,
        stop: list[float] | np.ndarray | None = None,
        floors: list[tuple[float, float]] | np.ndarray | None = None,
        profiler: Profiler | None = None,
        on_failure: str | None = None,
    ) -> tuple[list[EVDResult] | EVDStack, KernelStats]:
        """Execute the batched EVD: real results plus launch statistics.

        The parallel kernel's math runs through the size-bucketed
        batch-vectorized engine (same per-matrix results as a solver loop);
        cost accounting uses the same shapes and observed sweep counts as
        before, so the simulated :class:`KernelStats` are unchanged.

        ``stop`` and ``floors`` (one value / ``(noise, diag_floor)`` pair
        per matrix, ``None`` = the configured ``tol`` / the ``eps ||B||_F``
        noise floor) go to
        :meth:`~repro.jacobi.batched.BatchedJacobiEngine.evd_batch`, and
        so does ``matrices``: a list, or one ``(b, k, k)`` stack whose
        factors come back as one :class:`~repro.types.EVDStack`.
        """
        if not len(matrices):
            raise ConfigurationError("batch must not be empty")
        sizes = [shape[0] for shape in batch_shapes(matrices)]
        for k in dict.fromkeys(sizes):
            self.check_fits(k)
        results = self._engine.evd_batch(
            matrices, stop=stop, floors=floors, on_failure=on_failure
        )
        stats = self.account(sizes, observed_sweeps(results), profiler=profiler)
        return results, stats

    def account(
        self,
        sizes: list[int],
        sweeps: list[int],
        *,
        profiler: Profiler | None = None,
    ) -> KernelStats:
        """Launch statistics of one launch over ``k x k`` matrices of
        ``sizes`` whose solves took ``sweeps`` sweeps each.

        This is what :meth:`run` records; callers that split one launch's
        matrices across several runs rebuild the launch from the
        concatenated sizes and sweep counts.

        Costs are summed once per distinct (size, sweeps) group, and the
        launch is memoized on its set of groups, exactly as
        :meth:`BatchedSVDKernel.account` does.
        """
        groups = frozenset(Counter(zip(sizes, sweeps)).items())
        return memoized_launch(
            self._launches, groups, lambda: self._price(groups), profiler
        )

    def _price(self, groups) -> KernelStats:
        """Statistics of a launch over ``((size, sweeps), count)``
        groups."""
        flops = 0.0
        gm_bytes = 0.0
        max_block = 0.0
        blocks = 0
        parallel = self.config.parallel_update
        for (k, n_sweeps), count in groups:
            f, g = evd_sweep_cost(k, parallel=parallel)
            block = f * max(1, n_sweeps)
            flops += block * count
            max_block = max(max_block, block)
            gm_bytes += (g + _evd_io_bytes(k)) * count
            blocks += count
        return self._simulate(
            [k for (k, _), _ in groups], blocks, flops, gm_bytes, None,
            max_block,
        )

    def estimate(
        self,
        sizes: list[int],
        *,
        conditions: list[float] | None = None,
        profiler: Profiler | None = None,
    ) -> KernelStats:
        """Cost-only path with predicted sweep counts."""
        if not sizes:
            raise ConfigurationError("batch must not be empty")
        for k in dict.fromkeys(sizes):
            self.check_fits(k)
        if conditions is None:
            conditions = [None] * len(sizes)  # type: ignore[list-item]
        sweeps = [
            predict_sweeps_twosided(k, cond) for k, cond in zip(sizes, conditions)
        ]
        return self.account(sizes, sweeps, profiler=profiler)

    # ------------------------------------------------------------------

    def _simulate(
        self,
        sizes: list[int],
        blocks: int,
        flops: float,
        gm_bytes: float,
        profiler: Profiler | None,
        max_block_flops: float = 0.0,
    ) -> KernelStats:
        """Price a launch of ``blocks`` matrices whose sizes are those in
        ``sizes`` (each listed at least once)."""
        cfg = self.config
        k_star = max(sizes)
        shared = max(evd_shared_bytes(k) for k in sizes)
        threads = cfg.resolve_threads(k_star, self.device.max_threads_per_block)
        if cfg.parallel_update:
            # Up to k^2 elements update concurrently; efficiency is how much
            # of the block the largest matrix keeps busy.
            intra = max(0.05, min(0.9, (k_star * k_star) / (4.0 * threads)))
        else:
            # Only 2 rows + 2 columns are active per elimination, and the
            # eliminations form a dependency chain, so the block repeatedly
            # drains between rotations (the extra 0.15 serialization factor,
            # calibrated to the paper's >6x parallel-kernel advantage).
            intra = max(0.02, min(0.9, (4.0 * k_star) / threads) * 0.15)
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
            profiler,
        )
