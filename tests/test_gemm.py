"""Batched GEMM kernel and tailoring segment planning (paper §IV-D1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpusim import V100, Profiler
from repro.gpusim.gemm import (
    BatchedGemm,
    GemmTask,
    TilingSpec,
    gram_traffic_bytes,
    plan_segments,
    update_traffic_bytes,
)


class TestPlanSegments:
    def test_exact_division(self):
        blocks, rows = plan_segments([256, 256], 64)
        assert blocks == 8
        assert rows == [64] * 8

    def test_residual_packing(self):
        # Residuals accumulate until they exceed 1.2 * delta.
        blocks, rows = plan_segments([70, 70, 70], 64)
        # Each contributes one full plate + 6 residual rows; residuals sum
        # to 18 < 76.8 so they share one block.
        assert blocks == 4
        assert rows == [64, 64, 64, 18]

    def test_residual_overflow_starts_new_block(self):
        # 50-row residuals: 50, 100 (> 1.2*64 = 76.8 after the second).
        blocks, rows = plan_segments([50, 50, 50], 64)
        assert sum(rows) == 150
        assert all(r <= 150 for r in rows)
        assert blocks == 2

    def test_delta_larger_than_matrix(self):
        blocks, rows = plan_segments([40], 64)
        assert blocks == 1
        assert rows == [40]

    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigurationError):
            plan_segments([10], 0)

    def test_rejects_bad_height(self):
        with pytest.raises(ConfigurationError):
            plan_segments([0], 8)

    def test_rows_conserved(self):
        for delta in (8, 32, 100):
            heights = [100, 37, 256, 19]
            _, rows = plan_segments(heights, delta)
            assert sum(rows) == sum(heights)


class TestTrafficModels:
    def test_single_segment_gram(self):
        task = GemmTask(m=64, k=16)
        bytes_ = gram_traffic_bytes(task, 1)
        assert bytes_ == 8 * (64 * 16 + 16 * 16)

    def test_tailored_gram_costs_more_traffic(self):
        """Smaller plates raise TLP but pay partial-sum traffic (Eq. 9)."""
        task = GemmTask(m=256, k=32)
        assert gram_traffic_bytes(task, 4) > gram_traffic_bytes(task, 1)

    def test_update_traffic_scales_with_segments(self):
        task = GemmTask(m=256, k=32)
        assert update_traffic_bytes(task, 8) > update_traffic_bytes(task, 1)

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            GemmTask(m=0, k=4)


class TestTilingSpec:
    def test_valid(self):
        TilingSpec(delta=64, width=32, threads=256)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0, "width": 32},
            {"delta": 64, "width": 0},
            {"delta": 64, "width": 32, "threads": 16},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TilingSpec(**kwargs)


class TestBatchedGemmMath:
    def _gemm(self, delta=64):
        return BatchedGemm(V100, TilingSpec(delta=delta, width=16))

    def test_gram_products_correct(self, rng):
        panels = [rng.standard_normal((40, 8)) for _ in range(3)]
        grams, stats = self._gemm().gram(panels)
        for p, B in zip(panels, grams):
            np.testing.assert_allclose(B, p.T @ p, atol=1e-12)
            np.testing.assert_array_equal(B, B.T)
        assert stats.kernel == "batched_gemm_gram"

    def test_update_products_correct(self, rng):
        panels = [rng.standard_normal((40, 8)) for _ in range(3)]
        rotations = [np.linalg.qr(rng.standard_normal((8, 8)))[0] for _ in range(3)]
        updated, stats = self._gemm().update(panels, rotations)
        for p, J, out in zip(panels, rotations, updated):
            np.testing.assert_allclose(out, p @ J, atol=1e-12)
        assert stats.kernel == "batched_gemm_update"

    def test_update_writes_into_out(self, rng):
        """With ``out``, each product lands in the caller's buffer, with
        the bytes of a fresh product; stack items included."""
        panels = [
            rng.standard_normal((6, 8, 40)).transpose(0, 2, 1),
            rng.standard_normal((40, 8)),
        ]
        rotations = [rng.standard_normal((6, 8, 8)), rng.standard_normal((8, 8))]
        fresh, _ = self._gemm().update(panels, rotations)
        out = [np.full((6, 40, 8), np.nan), np.full((40, 8), np.nan)]
        updated, _ = self._gemm().update(panels, rotations, out=out)
        for buf, got, want in zip(out, updated, fresh):
            assert got is buf
            assert got.tobytes() == want.tobytes()

    def test_update_length_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            self._gemm().update([rng.standard_normal((4, 2))], [])

    def test_profiler_integration(self, rng):
        profiler = Profiler()
        panels = [rng.standard_normal((16, 4))]
        self._gemm().gram(panels, profiler=profiler)
        self._gemm().update(panels, [np.eye(4)], profiler=profiler)
        assert profiler.report.launch_count == 2


class TestBatchedGemmCosts:
    def test_flops_counted(self):
        gemm = BatchedGemm(V100, TilingSpec(delta=256, width=32))
        stats = gemm.simulate_gram([GemmTask(256, 32)] * 10)
        assert stats.flops == pytest.approx(10 * 2 * 256 * 32 * 32)

    def test_smaller_delta_more_blocks(self):
        tasks = [GemmTask(256, 32)] * 10
        wide = BatchedGemm(V100, TilingSpec(delta=256, width=32))
        narrow = BatchedGemm(V100, TilingSpec(delta=32, width=32))
        assert (
            narrow.simulate_gram(tasks).blocks
            > wide.simulate_gram(tasks).blocks
        )

    def test_tailoring_raises_small_batch_occupancy(self):
        """The point of the strategy (paper Challenge 2)."""
        tasks = [GemmTask(512, 48)] * 4
        wide = BatchedGemm(V100, TilingSpec(delta=512, width=48))
        narrow = BatchedGemm(V100, TilingSpec(delta=64, width=48))
        assert (
            narrow.simulate_gram(tasks).occupancy
            > wide.simulate_gram(tasks).occupancy
        )

    def test_rejects_empty(self):
        gemm = BatchedGemm(V100, TilingSpec(delta=8, width=8))
        with pytest.raises(ConfigurationError):
            gemm.simulate_gram([])

    def test_tensor_core_flag_set(self):
        # GEMM launches are eligible for tensor cores; verify via A100 time.
        from repro.gpusim import A100

        tasks = [GemmTask(256, 32)] * 200
        t_v = BatchedGemm(V100, TilingSpec(delta=64, width=32)).simulate_gram(tasks)
        t_a = BatchedGemm(A100, TilingSpec(delta=64, width=32)).simulate_gram(tasks)
        assert t_a.time < t_v.time
