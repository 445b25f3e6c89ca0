"""Two-sided Jacobi EVD — sequential reference and parallel kernel math."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ConvergenceError, ShapeError
from repro.jacobi import (
    BatchedJacobiEngine,
    ParallelJacobiEVD,
    TwoSidedConfig,
    TwoSidedJacobiEVD,
)
from repro.utils.matrices import random_spd

from tests.helpers import EXTREME_SCALES

SOLVERS = [TwoSidedJacobiEVD, ParallelJacobiEVD]


def _sym(rng, n):
    M = rng.standard_normal((n, n))
    return (M + M.T) / 2.0


@pytest.mark.parametrize("solver_cls", SOLVERS)
class TestEVDCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
    def test_matches_eigh(self, rng, solver_cls, n):
        B = _sym(rng, n)
        res = solver_cls().decompose(B)
        np.testing.assert_allclose(
            res.L, np.sort(np.linalg.eigvalsh(B))[::-1], atol=1e-10
        )
        assert res.reconstruction_error(B) < 1e-12

    def test_eigenvectors_orthonormal(self, rng, solver_cls):
        B = _sym(rng, 9)
        res = solver_cls().decompose(B)
        np.testing.assert_allclose(res.J.T @ res.J, np.eye(9), atol=1e-12)

    def test_eigenpairs_satisfy_definition(self, rng, solver_cls):
        B = _sym(rng, 7)
        res = solver_cls().decompose(B)
        for k in range(7):
            np.testing.assert_allclose(
                B @ res.J[:, k], res.L[k] * res.J[:, k], atol=1e-9
            )

    def test_descending_order(self, rng, solver_cls):
        res = solver_cls().decompose(_sym(rng, 8))
        assert (np.diff(res.L) <= 1e-12).all()

    def test_negative_eigenvalues_handled(self, solver_cls):
        B = np.diag([3.0, -2.0, 1.0])
        B[0, 1] = B[1, 0] = 0.5
        res = solver_cls().decompose(B)
        assert res.L.min() < 0
        assert res.reconstruction_error(B) < 1e-12

    def test_diagonal_input_converges_immediately(self, solver_cls):
        B = np.diag([5.0, 3.0, 1.0])
        res = solver_cls().decompose(B)
        assert res.trace.sweeps == 1
        np.testing.assert_allclose(res.L, [5.0, 3.0, 1.0])

    def test_zero_matrix(self, solver_cls):
        res = solver_cls().decompose(np.zeros((4, 4)))
        np.testing.assert_array_equal(res.L, np.zeros(4))

    def test_spd_eigenvalues_positive(self, rng, solver_cls):
        B = random_spd(8, condition=1e6, rng=rng)
        res = solver_cls().decompose(B)
        assert res.L.min() > 0

    def test_rejects_asymmetric(self, rng, solver_cls):
        with pytest.raises(ShapeError):
            solver_cls().decompose(rng.standard_normal((4, 4)))

    def test_does_not_mutate_input(self, rng, solver_cls):
        B = _sym(rng, 6)
        before = B.copy()
        solver_cls().decompose(B)
        np.testing.assert_array_equal(B, before)

    def test_sweep_budget_exhaustion(self, rng, solver_cls):
        B = _sym(rng, 16)
        solver = solver_cls(TwoSidedConfig(max_sweeps=1, tol=1e-15))
        with pytest.raises(ConvergenceError):
            solver.decompose(B)


def _engine_evd(B):
    """The stacked engine, with an in-range matrix in the same bucket."""
    inner = _sym(np.random.default_rng(1), B.shape[0])
    got, mate = BatchedJacobiEngine().evd_batch([B, inner])
    assert mate.L.tobytes() == (
        BatchedJacobiEngine().evd_batch([inner])[0].L.tobytes()
    )
    return got


@pytest.mark.parametrize(
    "solve",
    [
        _engine_evd,
        lambda B: ParallelJacobiEVD().decompose(B),
        lambda B: TwoSidedJacobiEVD().decompose(B),
    ],
    ids=["engine", "parallel", "sequential"],
)
@pytest.mark.parametrize("scale", EXTREME_SCALES, ids=lambda s: f"{s:g}")
def test_any_finite_scale(solve, scale):
    """Eigenvalues of a scaled symmetric matrix are those of its exact,
    normal-range version ``2^-e B`` shifted back, to 1e-12 of the
    largest; ``J`` stays orthonormal and diagonalizes it."""
    B = _sym(np.random.default_rng(0), 16) * scale
    res = solve(B)
    e = math.frexp(float(np.abs(B).max()))[1]
    exact = np.ldexp(B, -e)
    L = np.ldexp(res.L, -e)
    want = np.sort(np.linalg.eigvalsh(exact))[::-1]
    assert np.max(np.abs(L - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_allclose(res.J.T @ res.J, np.eye(16), atol=1e-12)
    assert np.linalg.norm((res.J * L) @ res.J.T - exact) <= (
        1e-12 * np.linalg.norm(exact)
    )


def test_engine_diag_floor_shifts_with_the_matrix():
    """``evd_batch``'s diagonal floor is absolute: a matrix shifted by a
    power of two is solved with its floor shifted alike, so the rotations
    are those of the in-range solve. The floor exempts the pairs of a
    column graded to 1e-16 here, so an unshifted floor would show."""
    rng = np.random.default_rng(0)
    P = rng.standard_normal((12, 8)) * np.logspace(0, -16, 8)
    B = P.T @ P
    floor = (np.finfo(float).eps * 12) ** 2 * float(np.diag(B).max())
    e = math.frexp(float(np.abs(B).max()))[1]
    engine = BatchedJacobiEngine()
    (want,) = engine.evd_batch(
        [np.ldexp(B, -e)], floors=[(0.0, np.ldexp(floor, -e))]
    )
    (got,) = engine.evd_batch(
        [np.ldexp(B, 700)], floors=[(0.0, np.ldexp(floor, 700))]
    )
    assert got.J.tobytes() == want.J.tobytes()
    assert got.L.tobytes() == np.ldexp(want.L, e + 700).tobytes()
    (unfloored,) = engine.evd_batch([np.ldexp(B, -e)], floors=[(0.0, 0.0)])
    assert unfloored.J.tobytes() != want.J.tobytes()


class TestParallelVsSequential:
    def test_same_eigenvalues(self, rng):
        B = _sym(rng, 12)
        seq = TwoSidedJacobiEVD().decompose(B)
        par = ParallelJacobiEVD().decompose(B)
        np.testing.assert_allclose(seq.L, par.L, atol=1e-10)

    def test_parallel_flag(self):
        assert ParallelJacobiEVD.parallel_update
        assert not TwoSidedJacobiEVD.parallel_update

    def test_rotation_counts_comparable(self, rng):
        """The parallel grouping must not blow up total rotation work."""
        B = _sym(rng, 12)
        seq = TwoSidedJacobiEVD()
        par = ParallelJacobiEVD()
        seq.decompose(B)
        par.decompose(B)
        assert par.last_rotations <= 2 * seq.last_rotations


class TestConfig:
    def test_bad_tol(self):
        with pytest.raises(ConfigurationError):
            TwoSidedConfig(tol=2.0)

    def test_bad_sweeps(self):
        with pytest.raises(ConfigurationError):
            TwoSidedConfig(max_sweeps=0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_parallel_evd_property(n, seed):
    """Property: parallel EVD reproduces eigh's spectrum for any symmetric B."""
    gen = np.random.default_rng(seed)
    M = gen.standard_normal((n, n))
    B = (M + M.T) / 2.0
    res = ParallelJacobiEVD().decompose(B)
    np.testing.assert_allclose(
        res.L, np.sort(np.linalg.eigvalsh(B))[::-1], atol=1e-9
    )
