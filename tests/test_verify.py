"""The structured SVD verification battery."""


from repro import WCycleSVD
from repro.baselines import lapack_svd
from repro.types import SVDResult
from repro.verify import verify_svd


class TestVerifySvd:
    def test_good_factorization_passes(self, rng):
        A = rng.standard_normal((14, 9))
        report = verify_svd(A, lapack_svd(A))
        assert report.ok
        assert report.reconstruction_error < 1e-12

    def test_wcycle_passes(self, rng):
        A = rng.standard_normal((40, 30))
        report = verify_svd(A, WCycleSVD(device="V100").decompose(A))
        assert report.ok

    def test_corrupted_u_detected(self, rng):
        A = rng.standard_normal((10, 6))
        res = lapack_svd(A)
        res.U[:, 0] *= 2.0
        report = verify_svd(A, res)
        assert not report.ok
        assert report.u_orthogonality > 0.5

    def test_wrong_order_detected(self, rng):
        A = rng.standard_normal((8, 5))
        res = lapack_svd(A)
        bad = SVDResult(U=res.U[:, ::-1], S=res.S[::-1], V=res.V[:, ::-1])
        report = verify_svd(A, bad)
        assert not report.sv_descending
        assert not report.ok

    def test_negative_sv_detected(self, rng):
        A = rng.standard_normal((8, 5))
        res = lapack_svd(A)
        bad = SVDResult(U=-res.U, S=-res.S, V=res.V)
        report = verify_svd(A, bad)
        assert not report.sv_nonnegative

    def test_wrong_values_detected(self, rng):
        A = rng.standard_normal((8, 5))
        res = lapack_svd(A)
        bad = SVDResult(U=res.U, S=res.S * 1.5, V=res.V)
        report = verify_svd(A, bad)
        assert report.sv_error_vs_lapack > 0.1

    def test_wrong_values_detected_at_small_scale(self, rng):
        """The singular-value check is relative to sigma_max, not
        absolute below sigma_max = 1."""
        A = rng.standard_normal((8, 5)) * 1e-100
        res = lapack_svd(A)
        bad = SVDResult(U=res.U, S=res.S * 1.5, V=res.V)
        report = verify_svd(A, bad)
        assert report.sv_error_vs_lapack > 0.1
        assert not report.ok

    def test_summary_readable(self, rng):
        A = rng.standard_normal((6, 4))
        text = verify_svd(A, lapack_svd(A)).summary()
        assert "reconstruction" in text
        assert "FAIL" not in text

    def test_summary_flags_failures(self, rng):
        A = rng.standard_normal((6, 4))
        res = lapack_svd(A)
        res.U[:, 0] *= 3.0
        text = verify_svd(A, res).summary()
        assert "FAIL" in text
