"""Convergence metrics (off-diagonal norms, orthogonality residual).

The stacked Rutishauser metric is held byte for byte to the per-matrix
body it replaced, kept here as :func:`_symmetric_cosine_oracle`.
"""

import numpy as np
import pytest

from repro.jacobi.convergence import (
    gram_offdiagonal_cosine,
    offdiagonal_frobenius,
    orthogonality_residual,
    symmetric_offdiagonal_cosine,
    symmetric_offdiagonal_cosines,
)

_EPS = np.finfo(np.float64).eps


def _symmetric_cosine_oracle(B):
    """The per-matrix metric the stacked pass replaced."""
    n = B.shape[0]
    if n < 2:
        return 0.0
    scale = float(np.linalg.norm(B))
    if scale == 0.0:
        return 0.0
    d = np.sqrt(np.abs(np.diag(B)))
    denom = np.outer(d, d)
    off = np.abs(B - np.diag(np.diag(B)))
    floor = _EPS * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = off / denom
    cos[~np.isfinite(cos)] = 0.0
    cos[(off > floor) & (denom <= floor)] = 1.0
    cos[off <= floor] = 0.0
    return float(np.clip(cos, 0.0, 1.0).max()) if cos.size else 0.0


def _adversarial_stack(rng, k):
    """Symmetric ``k x k`` members covering every branch of the metric."""
    def sym():
        M = rng.standard_normal((k, k))
        return M + M.T

    members = [sym(), np.zeros((k, k)), np.diag(rng.standard_normal(k))]
    at_floor = np.diag(np.arange(1.0, k + 1))
    tiny = _EPS * np.linalg.norm(at_floor)
    at_floor[0, 1] = at_floor[1, 0] = tiny
    # Off-diagonals exactly at eps ||B||_F: too small to move the norm.
    assert _EPS * np.linalg.norm(at_floor) == tiny
    members.append(at_floor)
    zero_diag = sym()
    zero_diag[1, 1] = 0.0  # significant b_01 over b_11 = 0: forced to 1
    members.append(zero_diag)
    nan_member = sym()
    nan_member[0, 1] = nan_member[1, 0] = np.nan
    inf_member = sym()
    inf_member[1, 1] = np.inf
    members += [nan_member, inf_member, sym() * 1e150, sym() * 1e-150]
    return np.stack(members)


class TestSymmetricOffdiagonalCosines:
    @pytest.mark.parametrize("k", [2, 3, 5, 6, 7, 16])
    def test_matches_oracle(self, rng, k):
        stack = _adversarial_stack(rng, k)
        with np.errstate(all="ignore"):
            want = np.array([_symmetric_cosine_oracle(B) for B in stack])
        got = symmetric_offdiagonal_cosines(stack)
        assert got.tobytes() == want.tobytes()
        for B, w in zip(stack, want):
            assert symmetric_offdiagonal_cosine(B) == w
        assert got[1] == 0.0  # all zero
        assert got[2] == 0.0  # diagonal
        assert got[3] == 0.0  # masked at the floor
        assert got[4] == 1.0  # forced over a zero diagonal

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_misaligned_rows_match_oracle(self, rng, k):
        """Odd ``k * k`` and a buffer offset by one double start rows at
        every alignment; each member's norm still sums as the oracle's."""
        stack = _adversarial_stack(rng, k)[:1].repeat(5, axis=0)
        stack *= rng.uniform(0.5, 2.0, (5, 1, 1))
        buf = np.empty(stack.size + 1)
        shifted = buf[1:].reshape(stack.shape)
        shifted[...] = stack
        want = np.array([_symmetric_cosine_oracle(B) for B in stack])
        assert symmetric_offdiagonal_cosines(shifted).tobytes() == want.tobytes()

    def test_order_below_two(self):
        assert symmetric_offdiagonal_cosines(np.ones((3, 1, 1))).tolist() == [
            0.0,
            0.0,
            0.0,
        ]
        assert symmetric_offdiagonal_cosine(np.array([[5.0]])) == 0.0


class TestGramOffdiagonalCosine:
    def test_orthogonal_columns_give_zero(self):
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 4)))[0]
        assert gram_offdiagonal_cosine(Q) < 1e-14

    def test_parallel_columns_give_one(self):
        v = np.arange(1.0, 5.0)
        A = np.column_stack([v, 2 * v])
        assert gram_offdiagonal_cosine(A) == pytest.approx(1.0)

    def test_zero_column_contributes_nothing(self):
        A = np.zeros((4, 2))
        A[:, 0] = 1.0
        assert gram_offdiagonal_cosine(A) == 0.0

    def test_scale_invariant(self, rng):
        A = rng.standard_normal((6, 4))
        assert gram_offdiagonal_cosine(A) == pytest.approx(
            gram_offdiagonal_cosine(A * 1e6)
        )

    def test_single_column(self, rng):
        assert gram_offdiagonal_cosine(rng.standard_normal((5, 1))) == 0.0


class TestOffdiagonalFrobenius:
    def test_diagonal_matrix_is_zero(self):
        assert offdiagonal_frobenius(np.diag([1.0, 2.0, 3.0])) == 0.0

    def test_relative_normalization(self):
        B = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert offdiagonal_frobenius(B) == pytest.approx(1.0)
        assert offdiagonal_frobenius(B, relative=False) == pytest.approx(
            np.sqrt(18.0)
        )

    def test_zero_matrix(self):
        assert offdiagonal_frobenius(np.zeros((3, 3))) == 0.0


class TestOrthogonalityResidual:
    def test_orthonormal_is_tiny(self, rng):
        Q = np.linalg.qr(rng.standard_normal((7, 5)))[0]
        assert orthogonality_residual(Q) < 1e-12

    def test_scaled_basis_detected(self, rng):
        Q = np.linalg.qr(rng.standard_normal((7, 5)))[0] * 2.0
        assert orthogonality_residual(Q) == pytest.approx(3.0)
