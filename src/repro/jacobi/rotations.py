"""Plane-rotation primitives shared by all Jacobi variants.

Implements the stable rotation formulas of the paper:

- one-sided (Eq. 4): ``tau = (a_i.a_i - a_j.a_j) / (2 a_i.a_j)``,
  ``t = sign(tau) / (|tau| + sqrt(1 + tau^2))``, ``c = 1/sqrt(1+t^2)``,
  ``s = t c``;
- two-sided (§II-D): same formula with
  ``rho = (b_ii - b_jj) / (2 b_ij)``.

Both pick the *inner* rotation (|t| <= 1), which is what gives Jacobi its
quadratic convergence and high relative accuracy.

:func:`rotation_cs_quiet` is the one vectorized copy of the formula, used
by every array solver (:func:`rotation_cs` is it under ``np.errstate``);
the scalar functions are its reference.
"""

from __future__ import annotations

import math

import numpy as np

# Bound once: the fused sweeps call the kernel on every step, on arrays of
# a few dozen entries, where a lookup on the module costs a sixth of a call.
from numpy import (
    absolute,
    add,
    copysign,
    divide,
    hypot,
    logical_not,
    multiply,
    putmask,
    sqrt,
    subtract,
)

__all__ = [
    "rotation_from_tau",
    "rotation_cs",
    "rotation_cs_quiet",
    "onesided_rotation",
    "twosided_rotation",
    "apply_rotation_inplace",
    "rotation_matrix",
]


def rotation_from_tau(tau: float) -> tuple[float, float]:
    """Cosine/sine of the inner Jacobi rotation for parameter ``tau``.

    ``tau = +inf`` (already-diagonal pivot) maps to the identity rotation.
    """
    if math.isinf(tau):
        return 1.0, 0.0
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c


def rotation_cs(
    a_ii: np.ndarray, a_jj: np.ndarray, a_ij: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inner-rotation ``(c, s)`` for every entry of same-shape arrays.

    ``a_ii, a_jj, a_ij`` are Gram entries (one-sided, Eq. 4) or matrix
    entries (two-sided); ``active`` marks the pairs to rotate. The formula
    runs on every entry with no boolean gathers, and inactive entries come
    out as the identity ``c = 1.0, s = +0.0`` whatever they hold (zeros,
    inf, nan). Active entries match :func:`rotation_from_tau` except where
    a sign of zero decides: ``tau = -0.0`` takes ``t = +1`` like
    ``tau = +0.0``, and ``tau = -inf`` gives ``s = -0.0``. ``np.hypot`` and
    ``math.hypot`` may also round apart by an ulp, moving ``c, s`` by at
    most two.
    """
    with np.errstate(all="ignore"):
        return rotation_cs_quiet(a_ii, a_jj, a_ij, active)


def rotation_cs_quiet(
    a_ii: np.ndarray,
    a_jj: np.ndarray,
    a_ij: np.ndarray,
    active: np.ndarray,
    c: np.ndarray | None = None,
    s: np.ndarray | None = None,
    scratch: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rotation_cs` for callers already inside
    ``np.errstate(all="ignore")`` (the fused sweeps enter it once per
    sweep). ``c`` and ``s``, when given, receive the result in place, so a
    caller can write it straight into its rotation blocks.

    ``scratch``, when given, is ``(tau, t, u, inactive)``: three float
    arrays and one bool array of the result's shape, overwritten here, so
    a caller that solves many same-shape steps allocates nothing; without
    it the first call writing each one allocates it.
    """
    tau, t, u, inactive = (None,) * 4 if scratch is None else scratch
    tau = subtract(a_ii, a_jj, out=tau)
    u = multiply(2.0, a_ij, out=u)
    divide(tau, u, out=tau)
    # tau == 0 (equal norms) needs the 45-degree rotation t = 1, whatever
    # the sign of the zero: adding +0.0 turns -0.0 into +0.0, whose sign
    # copysign reads as +1.
    add(tau, 0.0, out=tau)
    t = hypot(1.0, tau, out=t)
    absolute(tau, out=u)
    add(t, u, out=t)
    copysign(1.0, tau, out=u)
    divide(u, t, out=t)
    # t = +0.0 gives exactly c = 1.0, s = +0.0.
    inactive = logical_not(active, out=inactive)
    putmask(t, inactive, 0.0)
    # c = 1 / sqrt(1 + t^2), s = t c.
    c = multiply(t, t, out=c)
    add(c, 1.0, out=c)
    sqrt(c, out=c)
    divide(1.0, c, out=c)
    return c, multiply(t, c, out=s)


def onesided_rotation(
    aii: float, ajj: float, aij: float
) -> tuple[float, float]:
    """Rotation orthogonalizing columns with Gram entries ``aii, ajj, aij``.

    ``aii = a_i.a_i``, ``ajj = a_j.a_j``, ``aij = a_i.a_j`` (Eq. 4).
    Returns ``(c, s)``; identity when the columns are already orthogonal.
    """
    if aij == 0.0:
        return 1.0, 0.0
    tau = (aii - ajj) / (2.0 * aij)
    return rotation_from_tau(tau)


def twosided_rotation(bii: float, bjj: float, bij: float) -> tuple[float, float]:
    """Rotation annihilating the symmetric off-diagonal pair ``b_ij = b_ji``.

    Solves the 2x2 symmetric eigenproblem of §II-D. Returns ``(c, s)``;
    identity when ``b_ij`` is already zero.
    """
    if bij == 0.0:
        return 1.0, 0.0
    rho = (bii - bjj) / (2.0 * bij)
    return rotation_from_tau(rho)


def rotation_matrix(c: float, s: float) -> np.ndarray:
    """The 2x2 rotation ``[[c, -s], [s, c]]`` of Eq. 3."""
    return np.array([[c, -s], [s, c]], dtype=np.float64)


def apply_rotation_inplace(
    A: np.ndarray, i: int, j: int, c: float, s: float
) -> None:
    """Apply ``[a_i, a_j] <- [a_i, a_j] @ [[c, -s], [s, c]]`` in place.

    Rotates columns ``i`` and ``j`` of ``A``; used for both the data matrix
    and the accumulated right-singular-vector matrix V.
    """
    ai = A[:, i].copy()
    aj = A[:, j]
    A[:, i] = c * ai + s * aj
    A[:, j] = -s * ai + c * aj
