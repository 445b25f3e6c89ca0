"""Simulated batched GEMM kernels with the tailoring strategy (paper §IV-D).

Each level of the W-cycle issues two batched GEMMs per rotation round:

- **Gram**: ``B_ij = A_ij.T @ A_ij`` (``m x 2w`` -> ``2w x 2w``);
- **Update**: ``A_ij <- A_ij @ J_ij`` (``m x 2w`` times ``2w x 2w``).

The naive assignment gives one thread block per GEMM; the tailoring strategy
cuts every ``A_ij`` into standard plates of ``delta x 2w`` rows so one GEMM
spans multiple blocks (Fig. 6). Residual slivers from different matrices are
packed together into shared blocks until their rows exceed ``1.2 * delta``.

The math itself executes as plain NumPy matmuls; the tailoring affects the
*launch geometry* (thread-level parallelism) and the GM traffic model
(Eq. 9), exactly the two effects the paper optimizes. A launch's cost is
a function of its panel shapes in order, so launches are memoized on the
``(rows, width, count)`` runs of those shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.counters import KernelStats, Profiler
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import LaunchConfig, memoized_launch, simulate_launch
from repro.gpusim.memory import FLOAT64_BYTES

__all__ = [
    "GemmTask",
    "TilingSpec",
    "plan_segments",
    "BatchedGemm",
    "gram_traffic_bytes",
    "update_traffic_bytes",
]

#: Residual segments are packed into one block until rows exceed this factor
#: of the plate height (the paper's empirical 1.2 rule).
RESIDUAL_PACK_FACTOR = 1.2

#: Fixed double-buffered staging tiles of the simulated GEMM kernel.
GEMM_TILE_BYTES = 16 * 1024


@dataclass(frozen=True)
class GemmTask:
    """One GEMM in the batch: an ``m x k`` panel (``k = 2w``)."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise ConfigurationError(f"GEMM task dims must be >= 1, got {self}")


@dataclass(frozen=True)
class TilingSpec:
    """A tailoring plan's launch shape: plate height, width, block threads.

    ``delta`` is the standard-plate height δ_h; ``width`` is the panel width
    ``2 * w_h``; ``threads`` is ``T_h``.
    """

    delta: int
    width: int
    threads: int = 256

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ConfigurationError(f"delta must be >= 1, got {self.delta}")
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1, got {self.width}")
        if self.threads < 32:
            raise ConfigurationError(f"threads must be >= 32, got {self.threads}")


def plan_segments(heights: list[int], delta: int) -> tuple[int, list[int]]:
    """Assign plate segments to thread blocks (paper §IV-D1, three steps).

    ``heights`` are the row counts of the batch's panels. Each full
    ``delta``-row plate gets its own block; residual slivers accumulate into
    shared blocks that close once their rows exceed ``1.2 * delta``.

    Returns ``(num_blocks, rows_per_block)``.
    """
    if delta < 1:
        raise ConfigurationError(f"delta must be >= 1, got {delta}")
    rows_per_block: list[int] = []
    residual_rows = 0
    for m in heights:
        if m < 1:
            raise ConfigurationError(f"panel heights must be >= 1, got {m}")
        full = m // delta
        rows_per_block.extend([delta] * full)
        rest = m - full * delta
        if rest:
            residual_rows += rest
            if residual_rows > RESIDUAL_PACK_FACTOR * delta:
                rows_per_block.append(residual_rows)
                residual_rows = 0
    if residual_rows:
        rows_per_block.append(residual_rows)
    return len(rows_per_block), rows_per_block


#: Fraction of partial-sum traffic that actually reaches DRAM: the
#: reduction's partials are written and immediately re-read, so most of the
#: round trip is absorbed by the L2 cache.
_PARTIAL_DRAM_FRACTION = 0.5


def gram_traffic_bytes(task: GemmTask, segments: int) -> float:
    """GM bytes for one Gram GEMM tailored into ``segments`` blocks.

    Every block reads its plate once; extra segments add partial-sum
    round trips, largely L2-resident.
    """
    read_panel = task.m * task.k * FLOAT64_BYTES
    out = task.k * task.k * FLOAT64_BYTES
    if segments == 1:
        return read_panel + out
    partials = (segments - 1) * task.k * task.k * FLOAT64_BYTES
    return read_panel + 2.0 * _PARTIAL_DRAM_FRACTION * partials + out


def update_traffic_bytes(task: GemmTask, segments: int) -> float:
    """GM bytes for one update GEMM tailored into ``segments`` blocks.

    Each block reads its plate and writes it back; the shared ``k x k``
    rotation is read once per task (subsequent segments hit L2), the
    ``num_load_2`` pattern of Eq. 9.
    """
    panel = task.m * task.k * FLOAT64_BYTES
    rotation = task.k * task.k * FLOAT64_BYTES
    extra = (
        (segments - 1)
        * _PARTIAL_DRAM_FRACTION
        * 0.25
        * task.k
        * task.k
        * FLOAT64_BYTES
    )
    return 2.0 * panel + rotation + extra


class BatchedGemm:
    """Executes and costs the two batched GEMMs of one W-cycle round.

    ``panels`` of :meth:`gram` and :meth:`update` is a list whose items are
    2-D panels or ``(b, m, k)`` stacks of same-shape panels; a stack counts
    as its ``b`` panels, is multiplied by one 3-D ``matmul`` (the batch
    axis the real kernel spans with thread blocks) and comes back as one
    stack. The launch spans every panel of every item, in item order.
    """

    def __init__(self, device: DeviceSpec, tiling: TilingSpec) -> None:
        self.device = device
        self.tiling = tiling
        #: Priced launches, keyed by their kind and panel-shape runs.
        self._launches: dict = {}

    # -- real math ------------------------------------------------------

    def gram(
        self,
        panels: list[np.ndarray],
        *,
        profiler: Profiler | None = None,
    ) -> tuple[list[np.ndarray], KernelStats]:
        """Compute ``B = A.T @ A`` for every panel, with launch costs.

        Each item is multiplied by one ``matmul`` and symmetrized; results
        match the per-panel loop.
        """
        outputs = []
        for p in panels:
            stack = p if p.ndim == 3 else p[None]
            grams = np.matmul(stack.transpose(0, 2, 1), stack)
            grams = (grams + grams.transpose(0, 2, 1)) / 2.0
            outputs.append(grams if p.ndim == 3 else grams[0])
        stats = self.simulate_gram(_tasks(panels), profiler=profiler)
        return outputs, stats

    def update(
        self,
        panels: list[np.ndarray],
        rotations: list[np.ndarray],
        *,
        out: list[np.ndarray] | None = None,
        profiler: Profiler | None = None,
    ) -> tuple[list[np.ndarray], KernelStats]:
        """Compute ``A @ J`` for every (panel, rotation), with launch costs.

        ``rotations[i]`` is the ``k x k`` rotation of a 2-D item, or the
        ``(b, k, k)`` stack of a stack item's; each item is one
        ``matmul``, and results match the per-pair loop. ``out[i]``, when
        given, receives item ``i``'s product (a C-contiguous array of its
        shape), so a caller can reuse buffers from step to step.
        """
        if len(panels) != len(rotations):
            raise ConfigurationError(
                f"{len(panels)} panels vs {len(rotations)} rotations"
            )
        if out is None:
            out = [None] * len(panels)
        outputs = [
            np.matmul(p, J, out=o) for p, J, o in zip(panels, rotations, out)
        ]
        stats = self.simulate_update(_tasks(panels), profiler=profiler)
        return outputs, stats

    # -- cost-only ------------------------------------------------------

    def simulate_gram(
        self,
        tasks: list[GemmTask],
        *,
        profiler: Profiler | None = None,
    ) -> KernelStats:
        """Launch statistics for the Gram GEMM batch."""
        return self._simulate(tasks, kind="gram", profiler=profiler)

    def simulate_update(
        self,
        tasks: list[GemmTask],
        *,
        profiler: Profiler | None = None,
    ) -> KernelStats:
        """Launch statistics for the update GEMM batch."""
        return self._simulate(tasks, kind="update", profiler=profiler)

    def _simulate(
        self,
        tasks: list[GemmTask],
        *,
        kind: str,
        profiler: Profiler | None,
    ) -> KernelStats:
        """Statistics of a launch over ``tasks``, memoized on their
        ``(m, k, count)`` runs in order
        (:func:`~repro.gpusim.launch.memoized_launch`)."""
        if not tasks:
            raise ConfigurationError("GEMM batch must not be empty")
        runs = _runs(tasks)
        return memoized_launch(
            self._launches, (kind, runs), lambda: self._price(runs, kind),
            profiler,
        )

    def _price(self, runs: tuple[tuple[int, int, int], ...], kind: str) -> KernelStats:
        # Every term below is an integer-valued float far below 2**53, so
        # a run's terms summed as term * count equal the per-task sums
        # exactly.
        delta = self.tiling.delta
        blocks, _rows = plan_segments(
            [m for m, _, count in runs for _ in range(count)], delta
        )
        flops = 0.0
        gm_bytes = 0.0
        for m, k, count in runs:
            t = GemmTask(m, k)
            segments = max(1, math.ceil(t.m / delta))
            f = 2.0 * t.m * t.k * t.k
            if kind == "gram":
                f += (segments - 1) * t.k * t.k  # partial-sum reduction
                g = gram_traffic_bytes(t, segments)
            else:
                g = update_traffic_bytes(t, segments)
            flops += f * count
            gm_bytes += g * count
        # Shared memory per block: double-buffered input tiles plus the
        # k x k stationary tile (J or the partial Gram). The plate height
        # delta sets per-block *work*, not the staging footprint — real
        # GEMM kernels stream the plate through fixed-size tiles.
        k_star = max(k for _, k, _ in runs)
        shared = GEMM_TILE_BYTES + FLOAT64_BYTES * k_star * k_star
        shared = min(shared, self.device.shared_mem_per_block)
        return simulate_launch(
            self.device,
            LaunchConfig(
                kernel=f"batched_gemm_{kind}",
                blocks=blocks,
                threads_per_block=self.tiling.threads,
                shared_bytes_per_block=shared,
                flops=flops,
                gm_bytes=gm_bytes,
                intra_efficiency=0.85,
                is_gemm=True,
            ),
        )


def _tasks(panels: list[np.ndarray]) -> list[GemmTask]:
    """One task per panel of ``panels``, in order (a stack item is ``b``
    panels of one task shape)."""
    tasks: list[GemmTask] = []
    for p in panels:
        if p.ndim == 3:
            tasks += [GemmTask(p.shape[1], p.shape[2])] * len(p)
        else:
            tasks.append(GemmTask(p.shape[0], p.shape[1]))
    return tasks


def _runs(tasks: list[GemmTask]) -> tuple[tuple[int, int, int], ...]:
    """The ``(m, k, count)`` runs of equal consecutive ``tasks``."""
    runs: list[tuple[int, int, int]] = []
    for t in tasks:
        if runs and runs[-1][:2] == (t.m, t.k):
            runs[-1] = (t.m, t.k, runs[-1][2] + 1)
        else:
            runs.append((t.m, t.k, 1))
    return tuple(runs)
