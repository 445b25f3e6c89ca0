"""The W-cycle batched SVD driver (paper Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import assert_valid_svd
from repro import Profiler, WCycleConfig, WCycleSVD
from repro.errors import ConfigurationError, ConvergenceError, ShapeError
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.runtime import RuntimeConfig
from repro.utils.matrices import random_with_condition


class TestConfigValidation:
    def test_defaults(self):
        cfg = WCycleConfig()
        assert cfg.tailoring and cfg.inner_sweeps == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"max_sweeps": 0},
            {"w1": 0},
            {"shrink": 1},
            {"inner_sweeps": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            WCycleConfig(**kwargs)


class TestSingleMatrix:
    @pytest.mark.parametrize(
        "shape",
        [(8, 8), (30, 20), (20, 30), (64, 64), (100, 80), (50, 120)],
    )
    def test_matches_lapack(self, rng, shape):
        A = rng.standard_normal(shape)
        res = WCycleSVD(device="V100").decompose(A)
        assert_valid_svd(A, res)

    def test_forced_recursion_converges(self, rng):
        """w1 = 48 on a 130-tall matrix forces group-3 recursion."""
        A = rng.standard_normal((130, 128))
        solver = WCycleSVD(WCycleConfig(w1=48), device="V100")
        res = solver.decompose(A)
        assert_valid_svd(A, res)
        assert 1 in solver.last_level_rotations  # level 1 was visited

    def test_full_inner_convergence_variant(self, rng):
        """inner_sweeps=None converges every inner solve (V-cycle-like)."""
        A = rng.standard_normal((80, 72))
        cfg = WCycleConfig(w1=36, inner_sweeps=None)
        res = WCycleSVD(cfg, device="V100").decompose(A)
        assert_valid_svd(A, res)

    def test_condition_1e6(self, rng):
        A = random_with_condition(60, 60, 1e6, rng=rng)
        res = WCycleSVD(device="V100").decompose(A)
        ref = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(res.S, ref, rtol=1e-6)

    def test_input_not_mutated(self, rng):
        A = rng.standard_normal((64, 48))
        before = A.copy()
        WCycleSVD(device="V100").decompose(A)
        np.testing.assert_array_equal(A, before)


class TestBatched:
    def test_mixed_size_batch(self, rng):
        batch = [
            rng.standard_normal(shape)
            for shape in [(8, 8), (40, 40), (100, 60), (16, 48), (72, 72)]
        ]
        results = WCycleSVD(device="V100").decompose_batch(batch)
        assert len(results) == 5
        for A, res in zip(batch, results):
            assert_valid_svd(A, res)

    def test_result_order_matches_input_order(self, rng):
        # Mix SM-resident and large matrices; outputs must align.
        batch = [rng.standard_normal((100, 60)), rng.standard_normal((8, 8))]
        results = WCycleSVD(device="V100").decompose_batch(batch)
        assert results[0].U.shape[0] == 100
        assert results[1].U.shape[0] == 8

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            WCycleSVD(device="V100").decompose_batch([])

    def test_batch_of_identical_small_matrices(self, rng):
        A = rng.standard_normal((16, 16))
        results = WCycleSVD(device="V100").decompose_batch([A] * 4)
        svs = [r.S for r in results]
        for s in svs[1:]:
            np.testing.assert_allclose(s, svs[0])


class TestDevices:
    @pytest.mark.parametrize(
        "device", ["V100", "P100", "A100", "GTX-Titan-X", "Vega20"]
    )
    def test_numerics_identical_across_devices(self, rng, device):
        """The device changes costs, never the math."""
        A = rng.standard_normal((48, 36))
        res = WCycleSVD(device=device).decompose(A)
        ref = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(res.S, ref, atol=1e-9)


class TestAblations:
    def test_uniform_width_still_correct(self, rng):
        """Ablation D5: forcing one w for the whole batch."""
        batch = [rng.standard_normal((60, 40)), rng.standard_normal((30, 64))]
        cfg = WCycleConfig(w1=8)
        results = WCycleSVD(cfg, device="V100").decompose_batch(batch)
        for A, res in zip(batch, results):
            assert_valid_svd(A, res)

    def test_no_tailoring_still_correct(self, rng):
        A = rng.standard_normal((64, 48))
        cfg = WCycleConfig(tailoring=False)
        assert_valid_svd(A, WCycleSVD(cfg, device="V100").decompose(A))

    def test_sequential_evd_still_correct(self, rng):
        A = rng.standard_normal((80, 64))
        cfg = WCycleConfig(parallel_evd=False)
        assert_valid_svd(A, WCycleSVD(cfg, device="V100").decompose(A))

    def test_no_cache_no_transpose_still_correct(self, rng):
        A = rng.standard_normal((20, 60))
        cfg = WCycleConfig(cache_inner_products=False, transpose_wide=False)
        assert_valid_svd(A, WCycleSVD(cfg, device="V100").decompose(A))

    @pytest.mark.parametrize("alpha", [1.0, 0.25, None, "auto"])
    def test_alpha_policies_correct(self, rng, alpha):
        A = rng.standard_normal((24, 24))
        cfg = WCycleConfig(alpha=alpha)
        assert_valid_svd(A, WCycleSVD(cfg, device="V100").decompose(A))


class TestProfiling:
    def test_profiler_sees_expected_kernels(self, rng):
        profiler = Profiler()
        batch = [rng.standard_normal((100, 80)), rng.standard_normal((8, 8))]
        WCycleSVD(device="V100").decompose_batch(batch, profiler=profiler)
        kernels = set(profiler.report.by_kernel())
        assert "batched_svd_sm" in kernels
        assert "batched_gemm_update" in kernels

    def test_evd_kernel_used_for_tall_matrices(self, rng):
        profiler = Profiler()
        # Tall enough (220 x 32 pair > 48 KB) that level-1 pairs use the
        # Gram-EVD path.
        A = rng.standard_normal((220, 90))
        WCycleSVD(WCycleConfig(w1=16), device="V100").decompose(
            A, profiler=profiler
        )
        kernels = set(profiler.report.by_kernel())
        assert "batched_evd_sm_parallel" in kernels
        assert "batched_gemm_gram" in kernels

    def test_simulated_time_positive(self, rng):
        profiler = Profiler()
        WCycleSVD(device="V100").decompose(
            rng.standard_normal((40, 40)), profiler=profiler
        )
        assert profiler.report.total_time > 0


class TestTrace:
    def test_trace_present_for_large_matrices(self, rng):
        A = rng.standard_normal((80, 80))
        res = WCycleSVD(device="V100").decompose(A)
        assert res.trace is not None
        assert res.trace.sweeps >= 1
        assert res.trace.off_norms()[-1] < 1e-12

    def test_level_rotation_accounting(self, rng):
        solver = WCycleSVD(WCycleConfig(w1=48), device="V100")
        solver.decompose(rng.standard_normal((130, 128)))
        assert solver.last_level_rotations[0] > 0
        assert solver.last_level_rotations[1] > 0


def _fingerprint(res):
    trace = [(r.sweep, r.off_norm, r.rotations) for r in res.trace.records]
    return res.U.tobytes(), res.S.tobytes(), res.V.tobytes(), trace


def _kernel_sums(report) -> dict[str, tuple[float, float]]:
    sums: dict[str, tuple[float, float]] = {}
    for s in report.launches:
        flops, gm_bytes = sums.get(s.kernel, (0.0, 0.0))
        sums[s.kernel] = (flops + s.flops, gm_bytes + s.gm_bytes)
    return sums


#: (config, shapes of one bucket's members): every shape in a case shares
#: a working shape, so the whole list is solved as one bucket.
BUCKET_CASES = {
    "round-robin": (WCycleConfig(), [(128, 64)] * 3),
    "odd-even": (WCycleConfig(ordering="odd-even"), [(128, 64)] * 3),
    "ring": (WCycleConfig(ordering="ring"), [(128, 64)] * 2),
    "evd-group": (WCycleConfig(w1=16), [(220, 90)] * 2),
    "forced-recursion": (WCycleConfig(w1=48), [(100, 96)] * 2),
    "inner-sweeps-none": (
        WCycleConfig(w1=48, inner_sweeps=None),
        [(100, 96)] * 2,
    ),
    "wide-member": (WCycleConfig(), [(128, 64), (64, 128), (128, 64)]),
    "qr-level": (WCycleConfig(qr_precondition=True), [(200, 80)] * 2),
    "qr-in-sm": (
        WCycleConfig(qr_precondition=True),
        [(512, 32), (512, 32), (512, 48)],
    ),
}


class TestBuckets:
    """Level-synchronous buckets: same-shape large matrices share every
    launch of a sweep step, and nothing a member computes depends on its
    bucket-mates."""

    @pytest.mark.parametrize("case", list(BUCKET_CASES))
    def test_member_bytes_match_solo_solve(self, case):
        cfg, shapes = BUCKET_CASES[case]
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal(s) for s in shapes]
        together = WCycleSVD(cfg, device="V100").decompose_batch(mats)
        # Pad each solo batch with in-SM matrices so the width tuner sees
        # the same batch size while the large matrix rides alone.
        fillers = [rng.standard_normal((6, 4)) for _ in mats[1:]]
        for A, res in zip(mats, together):
            alone = WCycleSVD(cfg, device="V100").decompose_batch(
                [A] + fillers
            )[0]
            assert _fingerprint(res) == _fingerprint(alone), case
            assert_valid_svd(A, res)

    def test_bucket_regroups_launches_without_changing_work(self, rng):
        # w1 pinned: a solo solve then picks the same widths as the batch.
        cfg = WCycleConfig(w1=16)
        shapes = [(220, 90), (220, 90), (128, 64), (64, 128), (128, 64)]
        mats = [rng.standard_normal(s) for s in shapes]
        profiler = Profiler()
        solver = WCycleSVD(cfg, device="V100")
        solver.decompose_batch(mats, profiler=profiler)
        solo = Profiler()
        solo_rotations: dict[int, int] = {}
        for A in mats:
            solo_solver = WCycleSVD(cfg, device="V100")
            solo_solver.decompose(A, profiler=solo)
            for depth, count in solo_solver.last_level_rotations.items():
                solo_rotations[depth] = solo_rotations.get(depth, 0) + count
        assert _kernel_sums(profiler.report) == _kernel_sums(solo.report)
        assert solver.last_level_rotations == solo_rotations
        assert profiler.report.launch_count < solo.report.launch_count


class TestConvergenceFailure:
    def test_error_names_every_unconverged_member(self, rng):
        mats = [rng.standard_normal(s) for s in [(8, 8), (128, 64), (128, 64)]]
        solver = WCycleSVD(WCycleConfig(max_sweeps=2), device="V100")
        with pytest.raises(ConvergenceError) as info:
            solver.decompose_batch(mats)
        err = info.value
        assert err.batch_indices == (1, 2)
        assert err.sweeps == 2
        assert "bucket shape 128x64" in str(err)
        # The residual reported is the first offender's (matrix 1 alone,
        # padded to the same batch size, fails with that same residual).
        with pytest.raises(ConvergenceError) as alone:
            solver.decompose_batch(mats[:2] + [mats[0]])
        assert alone.value.batch_indices == (1,)
        assert err.residual == alone.value.residual

    def test_split_bucket_error_names_every_member(self, rng):
        # Two workers cut the 128x64 bucket into two one-member shards;
        # the raised error is still the one the unsplit bucket raises.
        mats = [rng.standard_normal(s) for s in [(8, 8), (128, 64), (128, 64)]]
        cfg = WCycleConfig(max_sweeps=2)
        with pytest.raises(ConvergenceError) as serial:
            WCycleSVD(cfg, device="V100").decompose_batch(mats)
        runtime = RuntimeConfig(
            backend="persistent", workers=2, allow_oversubscribe=True
        )
        with WCycleSVD(cfg, device="V100", runtime=runtime) as solver:
            with pytest.raises(ConvergenceError) as split:
                solver.decompose_batch(mats)
        assert split.value.batch_indices == (1, 2)
        assert str(split.value) == str(serial.value)
        assert split.value.residual == serial.value.residual

    def test_kernel_failure_in_a_step_names_the_owning_matrices(self, rng):
        # One EVD sweep cannot converge the 16x16 Grams of a 512x64 step;
        # the failing panels belong to matrices 1 and 2, four panels each.
        mats = [rng.standard_normal(s) for s in [(8, 8), (512, 64), (512, 64)]]
        # The one-sweep budget binds the in-SM SVD of matrix 0 too: give it
        # orthogonal columns, which one sweep converges.
        mats[0] = np.diag(np.arange(8.0, 0.0, -1.0))
        solver = WCycleSVD(WCycleConfig(inner_max_sweeps=1), device="V100")
        with pytest.raises(ConvergenceError) as info:
            solver.decompose_batch(mats)
        message = str(info.value)
        assert info.value.batch_indices == (1, 2)
        assert message.count("[bucket shape") == 1, message
        assert message.endswith("[bucket shape 16x16, batch indices [1, 2]]")

    def test_quarantine_keeps_healthy_bucket_mates(self, rng):
        # Orthogonal columns converge in one sweep; Gaussian ones cannot
        # in two. All three share the 128x64 bucket.
        q, _ = np.linalg.qr(rng.standard_normal((128, 64)))
        easy = q * np.linspace(2.0, 1.0, 64)
        hard = [rng.standard_normal((128, 64)) for _ in range(2)]
        mats = [hard[0], easy, hard[1]]
        cfg = WCycleConfig(max_sweeps=2)
        res = WCycleSVD(cfg, device="V100").decompose_batch(
            mats, on_failure="quarantine"
        )
        assert res.failures.unrecovered == (0, 2)
        for i in (0, 2):
            assert np.isnan(res[i].S).all()
        assert res.failures.for_index(1) == []
        alone = WCycleSVD(cfg, device="V100").decompose_batch(
            [easy] + [rng.standard_normal((6, 4)) for _ in range(2)]
        )[0]
        assert _fingerprint(res[1]) == _fingerprint(alone)

    def test_quarantine_reference_rung_recovers(self, rng):
        # One EVD sweep cannot converge the 16x16 Grams of a 512x64 step,
        # so the W-cycle fails alone too; the flat one-sided solver, on
        # the outer sweep budget, solves it.
        mats = [rng.standard_normal((512, 64)) for _ in range(2)]
        cfg = WCycleConfig(inner_max_sweeps=1)
        res = WCycleSVD(cfg, device="V100").decompose_batch(
            mats, on_failure="quarantine"
        )
        assert res.failures.unrecovered == ()
        flat = OneSidedJacobiSVD(
            OneSidedConfig(
                tol=cfg.tol,
                max_sweeps=cfg.max_sweeps,
                ordering=cfg.ordering,
                cache_inner_products=cfg.cache_inner_products,
                transpose_wide=cfg.transpose_wide,
            )
        )
        for i, A in enumerate(mats):
            (event,) = res.failures.for_index(i)
            assert (event.stage, event.cause) == ("wcycle", "ConvergenceError")
            assert event.recovered
            assert "parallel two-sided Jacobi did not converge" in event.message
            assert _fingerprint(res[i]) == _fingerprint(flat.decompose(A))


@settings(max_examples=10, deadline=None)
@given(
    m=st.integers(4, 60),
    n=st.integers(4, 60),
    seed=st.integers(0, 10_000),
)
def test_wcycle_property(m, n, seed):
    """Property: W-cycle matches LAPACK for arbitrary shapes."""
    A = np.random.default_rng(seed).standard_normal((m, n))
    res = WCycleSVD(device="V100").decompose(A)
    ref = np.linalg.svd(A, compute_uv=False)
    assert np.abs(res.S - ref).max() < 1e-8 * max(1.0, ref[0])
    assert res.reconstruction_error(A) < 1e-9
