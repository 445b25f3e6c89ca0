"""Simulated batched SVD kernel (paper §IV-B)."""

import dataclasses

import numpy as np
import pytest

from tests.helpers import assert_valid_svd
from repro.errors import ConfigurationError, ResourceError
from repro.gpusim import V100, P100, Profiler
from repro.gpusim.memory import FLOAT64_BYTES
from repro.gpusim.svd_kernel import (
    BatchedSVDKernel,
    SMSVDKernelConfig,
    svd_sweep_cost,
    v_panel_in_sm,
)


class TestConfig:
    def test_alpha_choices(self):
        for alpha in (1.0, 0.5, 0.25, 0.125, None, "auto"):
            SMSVDKernelConfig(alpha=alpha)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            SMSVDKernelConfig(alpha=0.3)


class TestRun:
    def test_results_correct(self, rng):
        batch = [rng.standard_normal((16, 8)) for _ in range(5)]
        results, stats = BatchedSVDKernel(V100).run(batch)
        for A, res in zip(batch, results):
            assert_valid_svd(A, res)
        assert stats.blocks == 5

    def test_mixed_sizes(self, rng):
        batch = [
            rng.standard_normal((8, 8)),
            rng.standard_normal((20, 10)),
            rng.standard_normal((6, 16)),  # wide: transposed internally
        ]
        results, stats = BatchedSVDKernel(V100).run(batch)
        for A, res in zip(batch, results):
            assert_valid_svd(A, res)

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            BatchedSVDKernel(V100).run([])

    def test_rejects_oversized_matrix(self, rng):
        kernel = BatchedSVDKernel(V100)
        with pytest.raises(ResourceError, match="shared memory"):
            kernel.run([rng.standard_normal((512, 512))])

    def test_profiler_records_one_launch(self, rng):
        profiler = Profiler()
        batch = [rng.standard_normal((8, 8)) for _ in range(3)]
        BatchedSVDKernel(V100).run(batch, profiler=profiler)
        assert profiler.report.launch_count == 1
        assert profiler.report.launches[0].kernel == "batched_svd_sm"


class TestWorkingShape:
    def test_transposes_wide(self):
        kernel = BatchedSVDKernel(V100)
        assert kernel.working_shape(4, 10) == (10, 4)
        assert kernel.working_shape(10, 4) == (10, 4)

    def test_transpose_disabled(self):
        kernel = BatchedSVDKernel(
            V100, SMSVDKernelConfig(transpose_wide=False)
        )
        assert kernel.working_shape(4, 10) == (4, 10)


class TestEstimate:
    def test_positive_time(self):
        stats = BatchedSVDKernel(V100).estimate([(16, 8)] * 10)
        assert stats.time > 0
        assert stats.flops > 0

    def test_scales_with_batch(self):
        kernel = BatchedSVDKernel(V100)
        t_small = kernel.estimate([(32, 32)] * 50).time
        t_large = kernel.estimate([(32, 32)] * 5000).time
        assert t_large > t_small
        # Sub-linear growth while occupancy improves.
        assert t_large < 100 * t_small

    def test_condition_slows_convergence(self):
        kernel = BatchedSVDKernel(V100)
        easy = kernel.estimate([(16, 16)] * 10, conditions=[1e1] * 10)
        hard = kernel.estimate([(16, 16)] * 10, conditions=[1e15] * 10)
        assert hard.flops > easy.flops

    def test_estimate_respects_residency(self):
        with pytest.raises(ResourceError):
            BatchedSVDKernel(V100).estimate([(512, 512)])

    def test_execute_and_estimate_flops_agree(self, rng):
        """The two paths share cost formulas; only sweep counts differ."""
        batch = [rng.standard_normal((16, 12)) for _ in range(4)]
        kernel = BatchedSVDKernel(V100)
        results, run_stats = kernel.run(batch)
        est_stats = kernel.estimate([(16, 12)] * 4)
        measured_sweeps = sum(r.trace.sweeps for r in results)
        # flops per sweep should match between paths.
        assert run_stats.flops / measured_sweeps == pytest.approx(
            est_stats.flops / (4 * _predicted_sweeps(12)), rel=0.05
        )


def _predicted_sweeps(n):
    from repro.jacobi.sweep_model import predict_sweeps_vector

    return predict_sweeps_vector(n)


class TestSweepCost:
    def test_caching_reduces_flops(self):
        cached, _ = svd_sweep_cost(32, 16, cached=True)
        plain, _ = svd_sweep_cost(32, 16, cached=False)
        assert cached < plain

    def test_v_in_sm_removes_streaming(self):
        _, gm_stream = svd_sweep_cost(32, 16, cached=True, v_in_gm=True)
        _, gm_resident = svd_sweep_cost(32, 16, cached=True, v_in_gm=False)
        assert gm_stream > 0
        assert gm_resident == 0

    def test_v_panel_residency_decision(self):
        assert v_panel_in_sm(32, 32, V100)
        assert not v_panel_in_sm(48, 60, V100)


class TestAlphaPolicies:
    def test_fixed_alpha_geometry(self):
        kernel = BatchedSVDKernel(V100, SMSVDKernelConfig(alpha=0.5))
        blocks, threads = kernel.launch_geometry([(32, 32)] * 7, 0.5)
        assert blocks == 7
        assert threads == 16 * 16  # half-warp per pair, 16 pairs

    def test_auto_not_slower_than_any_fixed(self):
        shapes = [(25, 10)] * 50
        auto = BatchedSVDKernel(
            V100, SMSVDKernelConfig(alpha="auto")
        ).estimate(shapes)
        for alpha in (1.0, 0.5, 0.25, 0.125):
            fixed = BatchedSVDKernel(
                V100, SMSVDKernelConfig(alpha=alpha)
            ).estimate(shapes)
            assert auto.time <= fixed.time * (1 + 1e-9)

    def test_gcd_rule_applied_by_default(self):
        kernel = BatchedSVDKernel(P100)
        assert kernel.select_alpha([(48, 16)]) == 0.5  # gcd(48,32)=16
        assert kernel.select_alpha([(100, 16)]) == 0.125  # gcd(100,32)=4


#: A ragged launch: repeated shapes (a wide one sharing its working shape
#: with a tall one), V in and out of shared memory, and varied sweeps.
RAGGED_SHAPES = (
    [(16, 8)] * 5 + [(24, 12)] * 3 + [(8, 20), (20, 8), (8, 20)]
    + [(96, 48)] * 2 + [(32, 16)]
)
RAGGED_SWEEPS = [5, 6, 5, 7, 6, 8, 8, 1, 6, 6, 7, 9, 9, 7]


def _per_matrix_launch(kernel, shapes, sweeps):
    """The launch priced from costs summed one matrix at a time."""
    cfg = kernel.config
    flops = gm_bytes = max_block = 0.0
    work_shapes = []
    for (m, n), n_sweeps in zip(shapes, sweeps):
        m, n = kernel.working_shape(m, n)
        work_shapes.append((m, n))
        f, g = svd_sweep_cost(
            m,
            n,
            cached=cfg.cache_inner_products,
            v_in_gm=not v_panel_in_sm(m, n, kernel.device),
        )
        flops += f * n_sweeps
        max_block = max(max_block, f * n_sweeps)
        r = min(m, n)
        gm_bytes += g * n_sweeps + FLOAT64_BYTES * (m * n + m * r + r + n * r)
    stats = kernel._simulate(
        work_shapes, len(shapes), flops, gm_bytes, None, max_block
    )
    return stats, flops, gm_bytes


class TestGroupedAccounting:
    """``account`` sums costs per distinct (shape, sweeps) group; the
    result equals the per-matrix sum exactly and ignores batch order."""

    @pytest.mark.parametrize("alpha", ["auto", 0.25, None])
    def test_equals_per_matrix_sum(self, rng, alpha):
        kernel = BatchedSVDKernel(V100, SMSVDKernelConfig(alpha=alpha))
        assert any(v_panel_in_sm(*s, V100) for s in RAGGED_SHAPES)
        assert not all(v_panel_in_sm(*s, V100) for s in RAGGED_SHAPES)
        got = kernel.account(RAGGED_SHAPES, RAGGED_SWEEPS)
        want, flops, gm_bytes = _per_matrix_launch(
            kernel, RAGGED_SHAPES, RAGGED_SWEEPS
        )
        assert got.flops == flops
        assert got.gm_bytes == gm_bytes
        assert got.blocks == len(RAGGED_SHAPES)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        order = rng.permutation(len(RAGGED_SHAPES))
        permuted = kernel.account(
            [RAGGED_SHAPES[i] for i in order],
            [RAGGED_SWEEPS[i] for i in order],
        )
        assert dataclasses.asdict(permuted) == dataclasses.asdict(got)

    def test_run_records_grouped_launch(self, rng):
        batch = [rng.standard_normal(s) for s in RAGGED_SHAPES[:11]]
        kernel = BatchedSVDKernel(V100, SMSVDKernelConfig(alpha="auto"))
        results, stats = kernel.run(batch)
        sweeps = [r.trace.sweeps for r in results]
        want, _, _ = _per_matrix_launch(kernel, RAGGED_SHAPES[:11], sweeps)
        assert dataclasses.asdict(stats) == dataclasses.asdict(want)

    def test_first_oversized_shape_is_named(self, rng):
        batch = [rng.standard_normal((16, 8)), np.zeros((200, 100))]
        with pytest.raises(ResourceError, match="200x100"):
            BatchedSVDKernel(V100).run(batch + [np.zeros((300, 100))])
