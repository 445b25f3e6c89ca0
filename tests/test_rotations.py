"""Plane-rotation primitives (paper Eqs. 3-4 and the two-sided variant)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jacobi.rotations import (
    apply_rotation_inplace,
    onesided_rotation,
    rotation_cs,
    rotation_cs_quiet,
    rotation_from_tau,
    rotation_matrix,
    twosided_rotation,
)

finite_floats = st.floats(
    min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
)


class TestRotationFromTau:
    def test_unit_norm(self):
        for tau in (-5.0, -0.1, 0.0, 0.1, 5.0):
            c, s = rotation_from_tau(tau)
            assert c * c + s * s == pytest.approx(1.0)

    def test_inner_rotation(self):
        # |t| <= 1 means |s| <= c: the smaller-angle root is chosen.
        for tau in (-3.0, -0.5, 0.5, 3.0):
            c, s = rotation_from_tau(tau)
            assert abs(s) <= c + 1e-15

    def test_infinite_tau_is_identity(self):
        assert rotation_from_tau(math.inf) == (1.0, 0.0)

    def test_zero_tau_is_45_degrees(self):
        c, s = rotation_from_tau(0.0)
        # sign(0) == +... copysign(1, 0) == 1, so t = 1.
        assert c == pytest.approx(1 / math.sqrt(2))
        assert s == pytest.approx(1 / math.sqrt(2))


class TestOneSidedRotation:
    def test_orthogonalizes_columns(self, rng):
        A = rng.standard_normal((10, 2))
        aii = A[:, 0] @ A[:, 0]
        ajj = A[:, 1] @ A[:, 1]
        aij = A[:, 0] @ A[:, 1]
        c, s = onesided_rotation(aii, ajj, aij)
        apply_rotation_inplace(A, 0, 1, c, s)
        assert abs(A[:, 0] @ A[:, 1]) < 1e-12

    def test_identity_when_already_orthogonal(self):
        assert onesided_rotation(2.0, 1.0, 0.0) == (1.0, 0.0)

    def test_preserves_frobenius_norm(self, rng):
        A = rng.standard_normal((6, 2))
        norm = np.linalg.norm(A)
        c, s = onesided_rotation(
            A[:, 0] @ A[:, 0], A[:, 1] @ A[:, 1], A[:, 0] @ A[:, 1]
        )
        apply_rotation_inplace(A, 0, 1, c, s)
        assert np.linalg.norm(A) == pytest.approx(norm)


class TestTwoSidedRotation:
    def test_annihilates_offdiagonal(self, rng):
        for _ in range(10):
            b = rng.standard_normal(3)
            B = np.array([[b[0], b[2]], [b[2], b[1]]])
            c, s = twosided_rotation(B[0, 0], B[1, 1], B[0, 1])
            G = rotation_matrix(c, s)
            Bh = G.T @ B @ G
            assert abs(Bh[0, 1]) < 1e-12 * max(1, np.abs(B).max())

    def test_preserves_eigenvalues(self, rng):
        b = rng.standard_normal(3)
        B = np.array([[b[0], b[2]], [b[2], b[1]]])
        c, s = twosided_rotation(B[0, 0], B[1, 1], B[0, 1])
        G = rotation_matrix(c, s)
        Bh = G.T @ B @ G
        np.testing.assert_allclose(
            np.sort(np.diag(Bh)), np.sort(np.linalg.eigvalsh(B)), atol=1e-12
        )

    def test_identity_when_diagonal(self):
        assert twosided_rotation(3.0, 1.0, 0.0) == (1.0, 0.0)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _cs_entries(entries):
    """``rotation_cs`` on a list of ``(a_ii, a_jj, a_ij, active)`` rows."""
    cols = list(zip(*entries))
    c, s = rotation_cs(
        np.array(cols[0]), np.array(cols[1]), np.array(cols[2]),
        np.array(cols[3], dtype=bool),
    )
    return list(zip(c.tolist(), s.tolist()))


class TestRotationCS:
    """The vectorized kernel, element by element against the scalar
    oracle: byte-equal on active entries, ``(1.0, +0.0)`` on inactive."""

    TINY = 5e-324

    ACTIVE = [
        (2.0, 1.0, 0.5),  # tau = 1
        (1.0, 3.0, -0.25),
        (1.5, 1.5, 0.5),  # tau = +0.0
        (1e300, 0.0, 0.5),  # |tau| = 1e300
        (-1e300, 0.0, 0.5),
        (1e-300, 0.0, 0.5),  # |tau| = 1e-300
        (-1e-300, 0.0, 0.5),
        (1.7e308, 0.0, 0.5),  # |tau| + hypot overflows: t = 0
        (2.0, 1.0, 1e-310),  # tau overflows to +inf: identity
        (3 * TINY, TINY, TINY),  # subnormal Gram entries, tau = 1
        (10 * TINY, 3 * TINY, 2 * TINY),  # tau = 1.75
        (TINY, 0.0, TINY),  # tau = 0.5
    ]

    INACTIVE = [
        (2.0, 1.0, 0.0),
        (2.0, 1.0, -0.0),
        (0.0, 0.0, 0.0),
        (-0.0, 0.0, -0.0),
        (math.inf, math.inf, 1.0),  # inf - inf = nan
        (math.inf, 1.0, math.inf),  # inf / inf = nan
        (math.nan, 1.0, 2.0),
        (1.0, 2.0, math.nan),
        (1.0, 1.0, -1.0),  # would rotate if active
    ]

    @pytest.mark.parametrize(
        "oracle", [onesided_rotation, twosided_rotation]
    )
    def test_active_entries_byte_equal_to_scalar(self, oracle):
        got = _cs_entries([(*e, True) for e in self.ACTIVE])
        for entry, (c, s) in zip(self.ACTIVE, got):
            want_c, want_s = oracle(*entry)
            assert (_bits(c), _bits(s)) == (_bits(want_c), _bits(want_s)), entry

    def test_inactive_entries_are_exact_identity(self):
        got = _cs_entries([(*e, False) for e in self.INACTIVE])
        for entry, (c, s) in zip(self.INACTIVE, got):
            assert (_bits(c), _bits(s)) == (_bits(1.0), _bits(0.0)), entry

    def test_mixed_stack_matches_per_entry(self):
        """Neighbouring inf/nan inactive entries cannot leak into active
        ones, and no floating-point warning escapes."""
        rows = [(*e, True) for e in self.ACTIVE] + [
            (*e, False) for e in self.INACTIVE
        ]
        order = np.random.default_rng(3).permutation(len(rows))
        mixed = [rows[i] for i in order]
        with np.errstate(all="raise"):
            got = _cs_entries(mixed)
        for row, (c, s) in zip(mixed, got):
            want = onesided_rotation(*row[:3]) if row[3] else (1.0, 0.0)
            assert (_bits(c), _bits(s)) == tuple(map(_bits, want)), row

    def test_quiet_core_writes_into_rotation_blocks(self):
        """The core the fused sweeps call inside their own errstate puts
        the same bytes straight into strided views of a rotation block."""
        rows = [(*e, True) for e in self.ACTIVE] + [
            (*e, False) for e in self.INACTIVE
        ]
        aii, ajj, aij, active = (np.array(col) for col in zip(*rows))
        active = active.astype(bool)
        want_c, want_s = rotation_cs(aii, ajj, aij, active)
        R = np.full((2, 2, len(rows)), np.nan)
        with np.errstate(all="ignore"):
            c, s = rotation_cs_quiet(aii, ajj, aij, active, R[0, 0], R[1, 0])
        assert np.shares_memory(c, R) and np.shares_memory(s, R)
        assert R[0, 0].tobytes() == want_c.tobytes()
        assert R[1, 0].tobytes() == want_s.tobytes()

    def test_negative_zero_tau_takes_positive_45_degrees(self):
        """tau = -0.0 (equal norms, negative a_ij) rotates by t = +1 like
        tau = +0.0, where the scalar copysign picks t = -1. The stacked
        solvers have always done this; both rotations annihilate a_ij."""
        (c, s), = _cs_entries([(1.5, 1.5, -0.5, True)])
        assert (c, s) == rotation_from_tau(0.0)
        assert onesided_rotation(1.5, 1.5, -0.5) == (c, -s)

    def test_negative_infinite_tau_gives_negative_zero_sine(self):
        (c, s), = _cs_entries([(1.0, 2.0, 1e-310, True)])
        assert (_bits(c), _bits(s)) == (_bits(1.0), _bits(-0.0))
        assert onesided_rotation(1.0, 2.0, 1e-310) == (1.0, 0.0)

    def test_random_entries_within_two_ulp_and_exact_when_hypot_agrees(self):
        rng = np.random.default_rng(11)
        n = 4000
        aii = rng.random(n) * 10.0 ** rng.uniform(-5, 5, n)
        ajj = rng.random(n) * 10.0 ** rng.uniform(-5, 5, n)
        aij = rng.standard_normal(n) * np.sqrt(aii * ajj)
        c, s = rotation_cs(aii, ajj, aij, np.ones(n, dtype=bool))
        want = np.array(
            [onesided_rotation(*e) for e in zip(aii, ajj, aij)]
        )
        np.testing.assert_array_max_ulp(c, want[:, 0], maxulp=2)
        np.testing.assert_array_max_ulp(s, want[:, 1], maxulp=2)
        tau = (aii - ajj) / (2.0 * aij)
        same_hypot = np.hypot(1.0, tau) == np.array(
            [math.hypot(1.0, t) for t in tau]
        )
        assert same_hypot.mean() > 0.99
        assert c[same_hypot].tobytes() == want[same_hypot, 0].tobytes()
        assert s[same_hypot].tobytes() == want[same_hypot, 1].tobytes()


class TestApplyRotation:
    def test_matches_matrix_product(self, rng):
        A = rng.standard_normal((5, 4))
        expected = A.copy()
        c, s = 0.8, 0.6
        J = np.eye(4)
        J[np.ix_([1, 3], [1, 3])] = rotation_matrix(c, s)
        expected = expected @ J
        apply_rotation_inplace(A, 1, 3, c, s)
        np.testing.assert_allclose(A, expected, atol=1e-14)

    def test_other_columns_untouched(self, rng):
        A = rng.standard_normal((5, 4))
        before = A.copy()
        apply_rotation_inplace(A, 0, 2, 0.6, 0.8)
        np.testing.assert_array_equal(A[:, 1], before[:, 1])
        np.testing.assert_array_equal(A[:, 3], before[:, 3])


@settings(max_examples=60, deadline=None)
@given(tau=finite_floats)
def test_rotation_always_unit(tau):
    c, s = rotation_from_tau(tau)
    assert c * c + s * s == pytest.approx(1.0)
    assert c > 0


@settings(max_examples=60, deadline=None)
@given(
    bii=finite_floats,
    bjj=finite_floats,
    bij=st.floats(
        min_value=-1e8,
        max_value=1e8,
        allow_nan=False,
        allow_infinity=False,
    ).filter(lambda x: abs(x) > 1e-8),
)
def test_twosided_annihilation_property(bii, bjj, bij):
    """Property: the two-sided rotation always zeros the pivot pair."""
    B = np.array([[bii, bij], [bij, bjj]])
    c, s = twosided_rotation(bii, bjj, bij)
    G = rotation_matrix(c, s)
    Bh = G.T @ B @ G
    scale = max(1.0, float(np.abs(B).max()))
    assert abs(Bh[0, 1]) < 1e-10 * scale
