"""Kernel-launch cost model: occupancy + roofline.

``simulate_launch`` turns a launch description (grid shape, shared-memory
footprint, FLOPs, global-memory traffic) into a :class:`KernelStats` with a
simulated execution time:

- *occupancy* is the fraction of the device's thread capacity the launch
  keeps in flight, limited by grid breadth, threads per block, per-block
  shared memory, and the per-SM block cap;
- *compute time* is ``flops / (peak * occupancy * intra_efficiency)`` —
  a kernel with poor intra-block parallelism (e.g. the sequential two-sided
  EVD) passes a small ``intra_efficiency``;
- *memory time* is ``gm_bytes / effective_bandwidth`` where bandwidth
  saturates only once occupancy passes a threshold (latency hiding);
- the launch pays a fixed overhead, which is what punishes the serial
  one-kernel-per-matrix fallback the paper's baselines use.

The simulated time is ``overhead + max(compute, memory)``.

A kernel prices the same launch over and over (every sweep step of a
W-cycle level repeats its shapes), so the kernels memoize their priced
launches on the cost inputs that vary between launches
(:func:`memoized_launch`); the profiler still records every launch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.errors import ConfigurationError, ResourceError
from repro.gpusim.counters import KernelStats, Profiler
from repro.gpusim.device import DeviceSpec

__all__ = [
    "LaunchConfig",
    "memoized_launch",
    "simulate_launch",
    "BANDWIDTH_SATURATION_OCCUPANCY",
    "COMPUTE_SATURATION_OCCUPANCY",
]

#: Occupancy at which global-memory bandwidth saturates (latency hiding
#: needs many warps in flight to cover DRAM latency).
BANDWIDTH_SATURATION_OCCUPANCY = 0.5

#: Occupancy at which arithmetic throughput saturates: an SM's FP64 units
#: are kept busy by a fraction of its maximum resident warps (ILP + dual
#: issue), so a quarter-full device already runs near peak.
COMPUTE_SATURATION_OCCUPANCY = 0.25

#: GEMM kernels hide their deep memory pipelines with occupancy rather than
#: ILP, so they need a much fuller device to reach peak — this is the
#: headroom the tailoring strategy (paper §IV-D) converts into speedup.
GEMM_SATURATION_OCCUPANCY = 0.6

#: Threads at which a single block saturates its SM's FP64 pipes.
BLOCK_SATURATION_THREADS = 512


@dataclass(frozen=True)
class LaunchConfig:
    """Description of one simulated kernel launch.

    Attributes
    ----------
    kernel:
        Name recorded in profiles.
    blocks / threads_per_block:
        Grid shape. ``threads_per_block`` is rounded up to a whole warp for
        occupancy accounting (hardware schedules warps, not threads).
    shared_bytes_per_block:
        Shared memory reserved per block; must fit the device.
    flops:
        Floating-point operations the kernel performs.
    gm_bytes:
        Global-memory bytes moved (reads + writes).
    intra_efficiency:
        Fraction of the in-flight threads doing useful arithmetic
        (kernel-algorithm dependent, in (0, 1]).
    is_gemm:
        GEMM launches benefit from tensor cores when the device has them.
    max_block_flops:
        FLOPs of the heaviest single block; bounds the launch's critical
        path when blocks are unevenly loaded (0 = assume uniform,
        ``flops / blocks``).
    """

    kernel: str
    blocks: int
    threads_per_block: int
    shared_bytes_per_block: int = 0
    flops: float = 0.0
    gm_bytes: float = 0.0
    intra_efficiency: float = 1.0
    is_gemm: bool = False
    max_block_flops: float = 0.0

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ConfigurationError(f"blocks must be >= 1, got {self.blocks}")
        if self.threads_per_block < 1:
            raise ConfigurationError(
                f"threads_per_block must be >= 1, got {self.threads_per_block}"
            )
        if not (0.0 < self.intra_efficiency <= 1.0):
            raise ConfigurationError(
                f"intra_efficiency must be in (0, 1], got {self.intra_efficiency}"
            )
        if self.flops < 0 or self.gm_bytes < 0:
            raise ConfigurationError("flops and gm_bytes must be >= 0")


def achieved_occupancy(device: DeviceSpec, cfg: LaunchConfig) -> float:
    """Fraction of device thread capacity kept in flight by this launch."""
    threads = _warp_rounded_threads(device, cfg.threads_per_block)
    if threads > device.max_threads_per_block:
        raise ResourceError(
            f"{cfg.kernel}: {threads} threads/block exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    resident = device.blocks_resident_per_sm(threads, cfg.shared_bytes_per_block)
    if resident == 0:
        raise ResourceError(
            f"{cfg.kernel}: {cfg.shared_bytes_per_block} B shared memory per "
            f"block exceeds device capacity {device.shared_mem_per_block} B"
        )
    max_resident_blocks = device.sm_count * resident
    in_flight = min(cfg.blocks, max_resident_blocks) * threads
    return in_flight / (device.sm_count * device.max_threads_per_sm)


def simulate_launch(
    device: DeviceSpec,
    cfg: LaunchConfig,
    profiler: Profiler | None = None,
) -> KernelStats:
    """Simulate one kernel launch; optionally record it on ``profiler``."""
    occupancy = achieved_occupancy(device, cfg)
    peak = device.peak_flops
    saturation = COMPUTE_SATURATION_OCCUPANCY
    if cfg.is_gemm:
        saturation = GEMM_SATURATION_OCCUPANCY
        if device.tensor_core_gemm_speedup > 1.0:
            peak *= device.tensor_core_gemm_speedup
    compute_fraction = min(1.0, occupancy / saturation)
    compute_time = cfg.flops / (peak * compute_fraction * cfg.intra_efficiency)
    # Per-block critical path: a single block cannot beat its own SM's
    # throughput, however idle the rest of the device is. This is what
    # keeps one resident matrix from factorizing "for free" and what makes
    # a kernel whose blocks are few but heavy latency-bound.
    per_sm_peak = peak / device.sm_count
    threads = _warp_rounded_threads(device, cfg.threads_per_block)
    block_fraction = min(1.0, threads / BLOCK_SATURATION_THREADS)
    heaviest = max(cfg.max_block_flops, cfg.flops / cfg.blocks)
    block_time = heaviest / (
        per_sm_peak * block_fraction * cfg.intra_efficiency
    )
    compute_time = max(compute_time, block_time)
    bw_fraction = min(1.0, occupancy / BANDWIDTH_SATURATION_OCCUPANCY)
    memory_time = (
        cfg.gm_bytes / (device.mem_bandwidth * bw_fraction)
        if cfg.gm_bytes > 0
        else 0.0
    )
    time = device.kernel_launch_overhead + max(compute_time, memory_time)
    stats = KernelStats(
        kernel=cfg.kernel,
        blocks=cfg.blocks,
        threads_per_block=cfg.threads_per_block,
        shared_bytes_per_block=cfg.shared_bytes_per_block,
        flops=cfg.flops,
        gm_bytes=cfg.gm_bytes,
        gm_transactions=math.ceil(cfg.gm_bytes / device.gm_transaction_bytes),
        occupancy=occupancy,
        time=time,
    )
    if profiler is not None:
        profiler.record(stats)
    return stats


#: Priced launches a kernel's memo keeps before it starts over.
_MEMO_LIMIT = 4096


def memoized_launch(
    cache: dict,
    key: Hashable,
    price: Callable[[], KernelStats],
    profiler: Profiler | None = None,
) -> KernelStats:
    """The launch ``cache`` holds under ``key`` (``price()`` on a miss),
    recorded on ``profiler``.

    ``key`` must hold every cost input that varies between the launches
    of one cache's owner (a kernel's device and config are frozen), so a
    hit is the :class:`KernelStats` a fresh pricing would equal. The
    profiler records the launch on every call, hit or miss.
    """
    stats = cache.get(key)
    if stats is None:
        if len(cache) >= _MEMO_LIMIT:
            cache.clear()
        stats = cache[key] = price()
    if profiler is not None:
        profiler.record(stats)
    return stats


def _warp_rounded_threads(device: DeviceSpec, threads: int) -> int:
    """Round a block's thread count up to a whole number of warps."""
    return ((threads + device.warp_size - 1) // device.warp_size) * device.warp_size
