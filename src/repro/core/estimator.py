"""Analytic W-cycle cost walker (estimate mode).

Large performance experiments (e.g. 500 SVDs of 1024 x 1024) would take
hours of NumPy arithmetic in execute mode, so this module walks the same
level decisions as :class:`repro.core.wcycle.WCycleSVD` — the same width
schedule, the same three-group classification, the same kernels — but
replaces the arithmetic with predicted sweep counts
(:mod:`repro.jacobi.sweep_model`) and per-sweep kernel cost formulas. Tests
cross-validate the two modes on sizes where both run.

Like the executing driver, the estimator batches across matrices the way
the GPU algorithm does: all panels of all same-shape matrices at a level
share one kernel launch per step, which is what drives the
occupancy-vs-batch-size behaviour of Fig. 11(a). The driver buckets by
exact working shape; the estimator groups by (shape, condition) and
rounds highly heterogeneous batches up into power-of-two buckets.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.errors import ConfigurationError
from repro.core.levels import Group, classify_pair, select_w1, width_schedule
from repro.core.wcycle import WCycleConfig
from repro.gpusim.counters import KernelStats, Profiler, ProfileReport
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.evd_kernel import BatchedEVDKernel, SMEVDKernelConfig
from repro.gpusim.gemm import BatchedGemm, GemmTask, TilingSpec
from repro.gpusim.memory import svd_fits_in_sm
from repro.gpusim.svd_kernel import BatchedSVDKernel, SMSVDKernelConfig
from repro.jacobi.sweep_model import predict_sweeps_block
from repro.tuning.autotune import AutoTuner

__all__ = ["WCycleEstimator"]


def _bucket_shape(m: int, n: int) -> tuple[int, int]:
    """Round each dimension up to the next power of two (floor 4)."""

    def up(x: int) -> int:
        p = 4
        while p < x:
            p *= 2
        return p

    return up(m), up(n)


class WCycleEstimator:
    """Cost-only W-cycle walker mirroring :class:`WCycleSVD`'s decisions.

    Examples
    --------
    >>> from repro.core import WCycleEstimator
    >>> report = WCycleEstimator(device="V100").estimate_batch([(512, 512)] * 100)
    >>> report.total_time > 0
    True
    """

    def __init__(
        self,
        config: WCycleConfig | None = None,
        *,
        device: str | DeviceSpec = "V100",
    ) -> None:
        self.config = config or WCycleConfig()
        self.device = get_device(device)

    # ------------------------------------------------------------------

    def estimate_batch(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
        profiler: Profiler | None = None,
    ) -> ProfileReport:
        """Predicted cost profile for a batched SVD over ``shapes``."""
        if not shapes:
            raise ConfigurationError("batch must not be empty")
        if conditions is None:
            conditions = [None] * len(shapes)  # type: ignore[list-item]
        if len(conditions) != len(shapes):
            raise ConfigurationError(
                f"{len(shapes)} shapes vs {len(conditions)} conditions"
            )
        report = ProfileReport()
        svd_kernel = self._svd_kernel()
        work_shapes = [svd_kernel.working_shape(m, n) for m, n in shapes]
        sm_group = [
            (shape, cond)
            for shape, cond in zip(work_shapes, conditions)
            if svd_fits_in_sm(*shape, self.device)
        ]
        if sm_group:
            stats = svd_kernel.estimate(
                [s for s, _ in sm_group],
                conditions=[c for _, c in sm_group],
            )
            report.add(stats)
        # Group the remaining matrices by (shape, condition) so identical
        # matrices share launches. Highly heterogeneous batches are first
        # bucketed to powers of two: the GPU algorithm batches *different*
        # sizes into the same level launches (its size-obliviousness), and
        # per-exact-shape groups of one would mis-model that as a sea of
        # tiny low-occupancy launches.
        remaining = [
            (shape, cond)
            for shape, cond in zip(work_shapes, conditions)
            if not svd_fits_in_sm(*shape, self.device)
        ]
        if len(set(remaining)) > 8:
            remaining = [
                (_bucket_shape(m, n), cond) for (m, n), cond in remaining
            ]
        rest = Counter(remaining)
        groups = sorted(
            rest.items(), key=lambda item: (item[0][0], str(item[0][1]))
        )
        # The GPU algorithm is size-oblivious: matrices of *different* sizes
        # at the same level share the batched kernel launches. The per-group
        # walk below cannot merge launches across groups, so for mixed
        # batches it runs against an overhead-free device and the launch
        # overhead of the longest group's schedule is added once.
        amortize = len(groups) > 1
        device = self.device
        if amortize:
            from dataclasses import replace

            self.device = replace(device, kernel_launch_overhead=0.0)
        try:
            for ((m, n), cond), count in groups:
                widths = self._widths(m, n, count)
                self._estimate_level(
                    m, n, count, widths, 0, cond, multiplier=1, report=report
                )
        finally:
            self.device = device
        if amortize and groups:
            launches = max(
                self._launch_count(
                    m, n, self._widths(m, n, count), 0, cond
                )
                for ((m, n), cond), count in groups
            )
            report.add(
                KernelStats(
                    kernel="level_launch_overhead",
                    blocks=1,
                    threads_per_block=32,
                    shared_bytes_per_block=0,
                    flops=0.0,
                    gm_bytes=0.0,
                    gm_transactions=0,
                    occupancy=0.0,
                    time=launches * device.kernel_launch_overhead,
                )
            )
        if profiler is not None:
            for stats in report.launches:
                profiler.record(stats)
        return report

    def estimate_time(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
    ) -> float:
        """Predicted simulated seconds for the batch."""
        return self.estimate_batch(shapes, conditions=conditions).total_time

    # ------------------------------------------------------------------

    def _svd_kernel(self) -> BatchedSVDKernel:
        cfg = self.config
        return BatchedSVDKernel(
            self.device,
            SMSVDKernelConfig(
                alpha=cfg.alpha,
                cache_inner_products=cfg.cache_inner_products,
                transpose_wide=cfg.transpose_wide,
                ordering=cfg.ordering,
            ),
        )

    def _evd_kernel(self) -> BatchedEVDKernel:
        cfg = self.config
        return BatchedEVDKernel(
            self.device,
            SMEVDKernelConfig(parallel_update=cfg.parallel_evd),
        )

    def _widths(self, m: int, n: int, count: int) -> list[int]:
        """Level-width schedule for ``count`` copies of an ``m x n`` matrix.

        The auto-tuner sees the whole group, so a large batch (already
        parallel) keeps wide blocks for convergence while a small batch
        trades width for thread-level parallelism — the size-oblivious
        behaviour of §III-D.
        """
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
        return width_schedule(n, self.device, w1=w1, shrink=cfg.shrink)

    def _level_gemm(self, m: int, n: int, w: int, count: int) -> BatchedGemm:
        cfg = self.config
        if cfg.fixed_delta is not None:
            return BatchedGemm(
                self.device,
                TilingSpec(delta=cfg.fixed_delta, width=2 * w, threads=256),
            )
        if cfg.tailoring:
            tuner = AutoTuner(self.device, threshold=cfg.tlp_threshold)
            plan = tuner.select([(m, n)] * count).plan
            tiling = TilingSpec(
                delta=plan.delta, width=2 * w, threads=plan.threads
            )
        else:
            tiling = TilingSpec(delta=m, width=2 * w, threads=256)
        return BatchedGemm(self.device, tiling)

    def _level_plan(
        self, n: int, widths: list[int], depth: int, cond: float | None
    ) -> tuple[int, int, int, int, int]:
        """(w, nb, sweeps, steps, pairs_per_step) at one level."""
        w = max(1, min(widths[min(depth, len(widths) - 1)], n // 2))
        nb = math.ceil(n / w)
        if depth == 0 or self.config.inner_sweeps is None:
            sweeps = predict_sweeps_block(n, w, cond)
        else:
            sweeps = self.config.inner_sweeps
        steps = nb - 1 if nb % 2 == 0 else nb
        return w, nb, sweeps, steps, nb // 2

    def _launch_count(
        self,
        m: int,
        n: int,
        widths: list[int],
        depth: int,
        cond: float | None,
    ) -> int:
        """Kernel launches one matrix's schedule issues (for amortizing
        overhead across a mixed batch)."""
        if n < 2:
            return 0
        w, nb, sweeps, steps, _ = self._level_plan(n, widths, depth, cond)
        pair_width = min(2 * w, n)
        decision = classify_pair(m, pair_width, self.device)
        if decision.group is Group.SVD_IN_SM:
            per_step = 2  # svd + update
        elif decision.group is Group.EVD_IN_SM:
            per_step = 3  # gram + evd + update
        else:
            per_step = 1 + self._launch_count(
                m, pair_width, widths, depth + 1, cond
            )
        return sweeps * steps * per_step

    def _estimate_level(
        self,
        m: int,
        n: int,
        count: int,
        widths: list[int],
        depth: int,
        cond: float | None,
        multiplier: int,
        report: ProfileReport,
    ) -> None:
        """Account the cost of orthogonalizing ``count`` copies of an
        ``m x n`` panel at level ``depth``, scaled by ``multiplier`` (the
        number of times the caller invokes this solve)."""
        if n < 2:
            return
        w, nb, sweeps, steps, pairs_per_step = self._level_plan(
            n, widths, depth, cond
        )
        pair_width = min(2 * w, n)
        decision = classify_pair(m, pair_width, self.device)
        gemm = self._level_gemm(m, n, w, count)
        batch = count * pairs_per_step
        repeats = multiplier * sweeps * steps

        if decision.group is Group.SVD_IN_SM:
            stats = self._svd_kernel().estimate(
                [(m, pair_width)] * batch, conditions=[cond] * batch
            )
            report.add(stats.repeated(repeats))
        elif decision.group is Group.EVD_IN_SM:
            gram = gemm.simulate_gram([GemmTask(m, pair_width)] * batch)
            report.add(gram.repeated(repeats))
            evd = self._evd_kernel().estimate(
                [pair_width] * batch, conditions=[cond] * batch
            )
            report.add(evd.repeated(repeats))
        else:
            self._estimate_level(
                m,
                pair_width,
                batch,
                widths,
                depth + 1,
                cond,
                multiplier=repeats,
                report=report,
            )
        # The level's update GEMM rotates the data panels and the V panels.
        update_tasks = [GemmTask(m, pair_width)] * batch + [
            GemmTask(n, pair_width)
        ] * batch
        update = gemm.simulate_update(update_tasks)
        report.add(update.repeated(repeats))
