"""Simulated batched EVD kernel (paper §IV-C)."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, ResourceError
from repro.gpusim import V100, Profiler
from repro.gpusim.evd_kernel import (
    BatchedEVDKernel,
    SMEVDKernelConfig,
    evd_sweep_cost,
)
from repro.gpusim.memory import FLOAT64_BYTES


def _sym_batch(rng, k, count):
    out = []
    for _ in range(count):
        M = rng.standard_normal((k, k))
        out.append((M + M.T) / 2.0)
    return out


class TestRun:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_results_correct(self, rng, parallel):
        batch = _sym_batch(rng, 10, 4)
        kernel = BatchedEVDKernel(
            V100, SMEVDKernelConfig(parallel_update=parallel)
        )
        results, stats = kernel.run(batch)
        for B, res in zip(batch, results):
            np.testing.assert_allclose(
                res.L, np.sort(np.linalg.eigvalsh(B))[::-1], atol=1e-9
            )
        assert stats.blocks == 4

    def test_kernel_name_reflects_variant(self):
        par = BatchedEVDKernel(V100)
        seq = BatchedEVDKernel(V100, SMEVDKernelConfig(parallel_update=False))
        assert par.name.endswith("parallel")
        assert seq.name.endswith("sequential")

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            BatchedEVDKernel(V100).run([])

    def test_rejects_oversized(self, rng):
        with pytest.raises(ResourceError):
            BatchedEVDKernel(V100).run(_sym_batch(rng, 64, 1))

    def test_boundary_size_fits(self, rng):
        """k = 48 (w = 24) is the largest EVD the paper fits in 48 KB."""
        batch = _sym_batch(rng, 48, 1)
        results, _ = BatchedEVDKernel(V100).run(batch)
        assert results[0].reconstruction_error(batch[0]) < 1e-10

    def test_profiler_records(self, rng):
        profiler = Profiler()
        BatchedEVDKernel(V100).run(_sym_batch(rng, 8, 2), profiler=profiler)
        assert profiler.report.launch_count == 1


class TestEstimate:
    def test_parallel_faster_than_sequential(self):
        """Paper Fig. 10(b): the parallel update wins by a wide margin."""
        sizes = [32] * 100
        par = BatchedEVDKernel(V100).estimate(sizes)
        seq = BatchedEVDKernel(
            V100, SMEVDKernelConfig(parallel_update=False)
        ).estimate(sizes)
        assert seq.time > 3.0 * par.time

    def test_scales_with_size(self):
        kernel = BatchedEVDKernel(V100)
        t16 = kernel.estimate([16] * 10).time
        t48 = kernel.estimate([48] * 10).time
        assert t48 > t16

    def test_threads_autosized(self):
        cfg = SMEVDKernelConfig()
        assert cfg.resolve_threads(48, 1024) == 576
        assert cfg.resolve_threads(8, 1024) == 64
        assert cfg.resolve_threads(200, 1024) == 1024

    def test_threads_override(self):
        cfg = SMEVDKernelConfig(threads_per_block=256)
        assert cfg.resolve_threads(48, 1024) == 256

    def test_rejects_tiny_thread_override(self):
        with pytest.raises(ConfigurationError):
            SMEVDKernelConfig(threads_per_block=16)


class TestSweepCost:
    def test_parallel_cost_formula(self):
        flops, gm = evd_sweep_cost(4, parallel=True)
        # 3 steps x (9 * 16 elements + 6 * 4 * 2 J-columns).
        assert flops == pytest.approx(3 * (9 * 16 + 6 * 4 * 2))
        assert gm == 0.0

    def test_sequential_cost_formula(self):
        flops, _ = evd_sweep_cost(4, parallel=False)
        assert flops == pytest.approx(6 * (8 * 4 + 6 * 4))

    def test_trivial_size(self):
        flops, _ = evd_sweep_cost(1, parallel=True)
        assert flops > 0


class TestGroupedAccounting:
    """``account`` sums costs per distinct (size, sweeps) group; the
    result equals the per-matrix sum exactly and ignores batch order."""

    SIZES = [4, 8, 8, 16, 4, 8, 16, 2, 8]
    SWEEPS = [3, 5, 5, 7, 0, 6, 7, 1, 5]

    @pytest.mark.parametrize("parallel", [True, False])
    def test_equals_per_matrix_sum(self, rng, parallel):
        kernel = BatchedEVDKernel(
            V100, SMEVDKernelConfig(parallel_update=parallel)
        )
        flops = gm_bytes = max_block = 0.0
        for k, n_sweeps in zip(self.SIZES, self.SWEEPS):
            f, g = evd_sweep_cost(k, parallel=parallel)
            flops += f * max(1, n_sweeps)
            max_block = max(max_block, f * max(1, n_sweeps))
            gm_bytes += g + FLOAT64_BYTES * (2.0 * k * k + k)
        want = kernel._simulate(
            self.SIZES, len(self.SIZES), flops, gm_bytes, None, max_block
        )
        got = kernel.account(self.SIZES, self.SWEEPS)
        assert got.flops == flops
        assert got.gm_bytes == gm_bytes
        assert got.blocks == len(self.SIZES)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        order = rng.permutation(len(self.SIZES))
        permuted = kernel.account(
            [self.SIZES[i] for i in order], [self.SWEEPS[i] for i in order]
        )
        assert dataclasses.asdict(permuted) == dataclasses.asdict(got)
