"""QR preconditioning for one-sided Jacobi (paper refs [5], [42]), and the
power-of-two prescale that keeps the sweeps' products in range.

For a tall ``m x n`` matrix, factorizing ``A = Q R`` first and running the
Jacobi SVD on the small ``n x n`` triangular factor is the classic
preconditioning of Kudo & Yamamoto / Bečka et al.: each rotation is computed
from the Gram entries of its column pair only, and ``R^T R = A^T A``, so the
sweeps over ``R`` rotate as those over ``A`` would in exact arithmetic, but
each rotation touches ``n`` rows instead of ``m``. The left vectors come
back via ``U = Q @ U_R``.

The one-sided solvers take this detour themselves:
:class:`~repro.jacobi.onesided_vector.OneSidedJacobiSVD` and the stacked
engine (:class:`~repro.jacobi.batched.StackedOneSidedJacobi`) pass every
tall matrix or stack through :func:`qr_detour`, sweep ``R`` and map the
orthogonalized columns back as ``W = Q @ W_R``. Stacked ``np.linalg.qr``
and ``matmul`` compute each member exactly as the 2-D calls do, so the two
solvers stay byte-identical.

:class:`repro.core.WCycleSVD` applies :func:`qr_detour` to the whole
W-cycle under
``WCycleConfig(qr_precondition=True)``: it factors every tall member,
solves the ``R`` factors together in shape buckets, then maps
``U = Q @ U_R`` back.

:func:`safe_exponent` is the solvers' other input conditioning: a matrix
whose largest entry is far from 1 is shifted by an exact power of two
before its sweeps, and only its singular values are shifted back
(:func:`safe_exponents` takes the exponents of a whole stack at once). The
symmetric EVD solvers take the same shift through :func:`shift_symmetric`
and shift only their eigenvalues back (:func:`unshift_evd`).
"""

from __future__ import annotations

import numpy as np

from repro.types import EVDResult, SVDResult

__all__ = [
    "qr_detour",
    "safe_exponent",
    "safe_exponents",
    "shift_symmetric",
    "unshift",
    "unshift_evd",
    "worth_preconditioning",
]

#: Aspect ratio ``m / n`` from which the QR detour pays for itself.
ASPECT_THRESHOLD = 2.0

#: Largest ``|e|`` of ``max |a_ij| = f 2^e`` (``0.5 <= f < 1``) that the
#: sweeps take unshifted. Every rotation test multiplies two squared column
#: norms (``sqrt(a_ii a_jj)``). Within the window the largest product,
#: ``(m max^2)^2 < m^2 2^800``, stays finite for any ``m`` below ``2^100``.
#: Two columns above the column floor ``(eps m max)^2 >= 2^-104 2^-402``
#: multiply to at least ``2^-1012``, above the smallest normal ``2^-1022``.
_SAFE_EXPONENT = 200


def worth_preconditioning(m: int, n: int) -> bool:
    """Whether a tall ``m x n`` matrix benefits from the QR detour.

    The QR costs ~2 m n^2 flops once; Jacobi saves ~(m - n) work on every
    one of O(n^2) rotations per sweep, so the detour wins once the aspect
    ratio clears :data:`ASPECT_THRESHOLD`.
    """
    return m >= ASPECT_THRESHOLD * n


def qr_detour(A: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """``(Q, R)`` of a tall matrix or ``(b, m, n)`` stack, else ``(None, A)``.

    The detour is taken when :func:`worth_preconditioning` holds (``m >=
    2n``) and there are at least two columns to rotate. The caller sweeps
    ``R`` (``n x n`` per member) and maps its orthogonalized columns back as
    ``W = Q @ W_R``; the column floor of the sweeps stays that of ``A``.
    """
    m, n = A.shape[-2:]
    if n < 2 or not worth_preconditioning(m, n):
        return None, A
    Q, R = np.linalg.qr(A, mode="reduced")
    return Q, R


def safe_exponent(A: np.ndarray) -> int:
    """Power-of-two exponent to take out of ``A`` before sweeping it.

    Returns the ``e`` of ``max |a_ij| = f 2^e`` (``0.5 <= f < 1``) when it
    is outside the safe window (``|e| > 200``), else 0. ``np.ldexp(A, -e)``
    is then exact, subnormal entries included, and brings the largest entry
    into ``[0.5, 1)``. It costs one pass over ``A``, as the finite check
    of :func:`~repro.utils.validation.as_matrix` does.
    """
    return int(safe_exponents(A))


def safe_exponents(stack: np.ndarray) -> np.ndarray:
    """:func:`safe_exponent` of every matrix of a ``(..., m, n)`` stack, in
    one stacked pass (an int array of the stack's leading shape)."""
    e = np.frexp(np.abs(stack).max(axis=(-2, -1), initial=0.0))[1]
    return e * (np.abs(e) > _SAFE_EXPONENT)  # 0 inside the window


def unshift(res: SVDResult, exponent: int) -> SVDResult:
    """Factors of ``2^exponent A`` from those of ``A``: only the singular
    values scale, since ``U`` and ``V`` are scale-free."""
    if not exponent:
        return res
    return SVDResult(
        U=res.U, S=np.ldexp(res.S, exponent), V=res.V, trace=res.trace
    )


def shift_symmetric(B: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``(B 2^-e, ||B 2^-e||_F, e)`` for a ``k x k`` symmetric ``B``, with
    ``e = safe_exponent(B)``.

    The two-sided sweeps multiply diagonal entries (``b_ii b_jj``), which
    over- or underflow outside the same window as the one-sided products.
    The Frobenius norm every EVD solver takes for its noise floor bounds
    the largest entry (``max <= ||B||_F <= k max``), so only a norm
    outside the window pays for the exact pass; ``B`` comes back
    unchanged (the same object) when ``e`` is 0.
    """
    with np.errstate(over="ignore"):  # an infinite norm is outside too
        scale = float(np.linalg.norm(B))
    if B.shape[0] * 2.0**-_SAFE_EXPONENT <= scale < 2.0 ** (_SAFE_EXPONENT - 1):
        return B, scale, 0
    shift = safe_exponent(B)
    if not shift:
        return B, scale, 0
    B = np.ldexp(B, -shift)
    return B, float(np.linalg.norm(B)), shift


def unshift_evd(res: EVDResult, exponent: int) -> EVDResult:
    """Factors of ``2^exponent B`` from those of ``B``: only the
    eigenvalues scale, since ``J`` is scale-free."""
    if not exponent:
        return res
    return EVDResult(J=res.J, L=np.ldexp(res.L, exponent), trace=res.trace)
