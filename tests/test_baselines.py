"""Baseline comparators: numerics and cost-model structure."""

import numpy as np
import pytest

from tests.helpers import (
    EXTREME_SCALES,
    assert_meets_contract,
    assert_valid_svd,
    rescaled,
)
from repro.baselines import (
    CUSOLVER_BATCHED_LIMIT,
    BatchedDPDirect,
    BatchedDPGram,
    CuSolverModel,
    MagmaModel,
    lapack_svd,
)
from repro.errors import ConfigurationError


class TestReference:
    def test_lapack_svd_valid(self, rng):
        A = rng.standard_normal((9, 6))
        assert_valid_svd(A, lapack_svd(A))


class TestCuSolverNumerics:
    def test_single_decompose(self, rng):
        A = rng.standard_normal((20, 14))
        assert_valid_svd(A, CuSolverModel("V100").decompose(A))

    def test_batch_decompose(self, rng):
        batch = [rng.standard_normal((10, 8)) for _ in range(3)]
        results = CuSolverModel("V100").decompose_batch(batch)
        for A, res in zip(batch, results):
            assert_valid_svd(A, res)


class TestCuSolverCosts:
    def test_small_batch_uses_batched_kernel(self):
        report = CuSolverModel("V100").estimate_batch([(16, 16)] * 20)
        assert set(report.by_kernel()) == {"cusolver_gesvdj_batched"}

    def test_large_matrices_serial_calls(self):
        report = CuSolverModel("V100").estimate_batch([(128, 128)] * 3)
        assert report.launch_count == 3  # one folded record per matrix
        assert "cusolver_gesvd_single" in report.by_kernel()

    def test_mixed_batch_splits(self):
        report = CuSolverModel("V100").estimate_batch(
            [(16, 16), (128, 128), (24, 24)]
        )
        kernels = set(report.by_kernel())
        assert "cusolver_gesvdj_batched" in kernels
        assert "cusolver_gesvd_single" in kernels

    def test_batched_api_limit_enforced(self):
        model = CuSolverModel("V100")
        with pytest.raises(ConfigurationError):
            model._batched_small([(64, 64)], [None])

    def test_limit_is_32(self):
        assert CUSOLVER_BATCHED_LIMIT == 32

    def test_serial_cost_scales_linearly_with_batch(self):
        model = CuSolverModel("V100")
        t1 = model.estimate_time([(256, 256)])
        t10 = model.estimate_time([(256, 256)] * 10)
        assert t10 == pytest.approx(10 * t1, rel=1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            CuSolverModel("V100").estimate_batch([])


class TestMagma:
    def test_numerics_are_reference(self, rng):
        A = rng.standard_normal((12, 9))
        assert_valid_svd(A, MagmaModel("V100").decompose(A))

    def test_serial_scaling(self):
        model = MagmaModel("V100")
        t1 = model.estimate_time([(256, 256)])
        t5 = model.estimate_time([(256, 256)] * 5)
        assert t5 == pytest.approx(5 * t1, rel=1e-9)

    def test_phase_structure(self):
        report = MagmaModel("V100").estimate_batch([(256, 256)])
        kernels = set(report.by_kernel())
        assert {
            "magma_bidiag_trailing",
            "magma_bidiag_panel",
            "magma_bdsqr_hybrid",
            "magma_unmbr",
        } == kernels

    def test_hybrid_qr_is_significant_for_small_matrices(self):
        """The CPU-side bdsqr chain dominates small sizes — the structural
        weakness the paper's batched comparison exploits."""
        report = MagmaModel("V100").estimate_batch([(128, 128)])
        times = report.by_kernel()
        assert times["magma_bdsqr_hybrid"] > 0.25 * report.total_time


class TestBoukaram:
    def test_direct_numerics(self, rng):
        A = rng.standard_normal((14, 10))
        assert_valid_svd(A, BatchedDPDirect("P100").decompose(A))

    def test_gram_numerics_well_conditioned(self, rng):
        A = rng.standard_normal((14, 10))
        res = BatchedDPGram("P100").decompose(A)
        assert_valid_svd(A, res, tol=1e-8)

    def test_gram_loses_relative_accuracy(self, rng):
        """The documented deficit: squaring the condition number destroys
        the relative accuracy of small singular values."""
        from repro.utils.matrices import random_with_spectrum

        spectrum = np.array([1.0, 1e-9])
        A = random_with_spectrum(12, 2, spectrum, rng=rng)
        gram_s = BatchedDPGram("P100").decompose(A).S
        direct_s = BatchedDPDirect("P100").decompose(A).S
        gram_rel = abs(gram_s[1] - 1e-9) / 1e-9
        direct_rel = abs(direct_s[1] - 1e-9) / 1e-9
        assert direct_rel < 1e-4
        assert gram_rel > 10 * direct_rel

    @pytest.mark.parametrize("scale", EXTREME_SCALES, ids=lambda s: f"{s:g}")
    def test_gram_at_any_finite_scale_meets_the_contract(self, scale):
        A = np.random.default_rng(0).standard_normal((64, 32)) * scale
        result = BatchedDPGram("P100").decompose(A)
        assert_meets_contract(
            *rescaled(A, result), relative=True, label=f"{scale:g}"
        )

    def test_direct_batched_launches(self):
        report = BatchedDPDirect("P100").estimate_batch([(64, 64)] * 10)
        assert set(report.by_kernel()) == {"batched_dp_direct"}

    def test_gram_three_phases(self):
        report = BatchedDPGram("P100").estimate_batch([(64, 64)] * 10)
        assert set(report.by_kernel()) == {
            "batched_dp_gram_gram",
            "batched_dp_gram_evd",
            "batched_dp_gram_recover",
        }

    def test_batched_scaling_sublinear(self):
        """Genuinely batched: 10x matrices cost < 10x time."""
        model = BatchedDPDirect("P100")
        t10 = model.estimate_time([(128, 128)] * 10)
        t100 = model.estimate_time([(128, 128)] * 100)
        assert t100 < 9 * t10

    def test_empty_batches_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedDPDirect("P100").estimate_batch([])
        with pytest.raises(ConfigurationError):
            BatchedDPGram("P100").estimate_batch([])
