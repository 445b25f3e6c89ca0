"""QR preconditioning for tall matrices (refs [5], [42])."""

import numpy as np
import pytest

from tests.helpers import assert_valid_svd
from repro import WCycleConfig, WCycleSVD
from repro.jacobi import (
    OneSidedJacobiSVD,
    StackedOneSidedJacobi,
    worth_preconditioning,
)
from repro.jacobi.preconditioning import qr_detour


class TestWorthIt:
    def test_tall_matrix(self):
        assert worth_preconditioning(400, 40)

    def test_square_matrix(self):
        assert not worth_preconditioning(64, 64)

    def test_wide_matrix(self):
        assert not worth_preconditioning(40, 400)


class TestSolversTakeTheDetour:
    """Both one-sided solvers sweep a tall input's triangular factor."""

    @pytest.mark.parametrize(
        "shape, swept",
        [
            ((24, 12), (12, 12)),
            ((16, 8), (8, 8)),
            ((12, 8), (8, 12)),
            ((8, 8), (8, 8)),
        ],
    )
    def test_sweeper_layout(self, rng, monkeypatch, shape, swept):
        """A stack at 2:1 or taller is swept as ``(n, b, n)``; one below
        2:1 keeps its ``(n, b, m)`` layout. ``swept`` is ``(n, m)`` of
        what the sweeper holds."""
        solver = StackedOneSidedJacobi()
        layouts = []
        make = solver._make_sweeper

        def spy(stack, kernel_times):
            sweeper = make(stack, kernel_times)
            layouts.append(sweeper.T.shape)
            return sweeper

        monkeypatch.setattr(solver, "_make_sweeper", spy)
        stack = rng.standard_normal((3, *shape))
        W, _, _ = solver.solve_stack(stack)
        n, m = swept
        assert layouts == [(n, 3, m)]
        assert W.shape == stack.shape

    def test_reference_sweeps_the_factor(self, rng, monkeypatch):
        solver = OneSidedJacobiSVD()
        swept = []
        run = solver._run_sweeps

        def spy(W, V, trace, rows):
            swept.append((W.shape, rows))
            return run(W, V, trace, rows)

        monkeypatch.setattr(solver, "_run_sweeps", spy)
        A = rng.standard_normal((40, 8))
        assert_valid_svd(A, solver.decompose(A))
        assert swept == [((8, 8), 40)]

    def test_stacked_qr_matches_per_matrix_qr(self, rng):
        """The engine's stacked QR factors each member exactly as the
        reference's 2-D call does."""
        stack = rng.standard_normal((5, 32, 16))
        Q, R = qr_detour(stack)
        for k in range(len(stack)):
            q, r = qr_detour(stack[k])
            assert Q[k].tobytes() == q.tobytes()
            assert R[k].tobytes() == r.tobytes()

    @pytest.mark.parametrize("shape", [(15, 8), (8, 8), (8, 16), (40, 1)])
    def test_no_detour(self, rng, shape):
        A = rng.standard_normal(shape)
        Q, R = qr_detour(A)
        assert Q is None and R is A


class TestWCycleIntegration:
    def test_preconditioned_wcycle_correct(self, rng):
        A = rng.standard_normal((500, 40))
        cfg = WCycleConfig(qr_precondition=True)
        res = WCycleSVD(cfg, device="V100").decompose(A)
        assert_valid_svd(A, res)

    def test_preconditioned_wide_matrix(self, rng):
        """Wide input transposes first, then preconditions the tall side."""
        A = rng.standard_normal((40, 500))
        cfg = WCycleConfig(qr_precondition=True)
        res = WCycleSVD(cfg, device="V100").decompose(A)
        assert_valid_svd(A, res)

    def test_triangular_factor_uses_sm_kernel(self, rng):
        """A 500 x 40 matrix's R factor is 40 x 40 and solves in SM."""
        from repro import Profiler

        A = rng.standard_normal((500, 40))
        cfg = WCycleConfig(qr_precondition=True)
        profiler = Profiler()
        WCycleSVD(cfg, device="V100").decompose(A, profiler=profiler)
        assert "batched_svd_sm" in profiler.report.by_kernel()

    def test_matches_unpreconditioned(self, rng):
        A = rng.standard_normal((200, 24))
        plain = WCycleSVD(device="V100").decompose(A)
        pre = WCycleSVD(
            WCycleConfig(qr_precondition=True), device="V100"
        ).decompose(A)
        np.testing.assert_allclose(pre.S, plain.S, rtol=1e-9)
