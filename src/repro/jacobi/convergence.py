"""Convergence metrics for Jacobi iterations.

One-sided methods stop when all column pairs are numerically orthogonal:
the metric is the largest normalized cosine ``|a_i.a_j| / (|a_i| |a_j|)``.
Two-sided methods stop when the off-diagonal Frobenius mass is negligible
relative to the whole matrix.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(np.float64).eps

__all__ = [
    "gram_offdiagonal_cosine",
    "offdiagonal_frobenius",
    "orthogonality_residual",
    "symmetric_offdiagonal_cosine",
    "symmetric_offdiagonal_cosines",
    "frobenius_norms",
]


def gram_offdiagonal_cosine(A: np.ndarray) -> float:
    """Max normalized off-diagonal cosine of the Gram matrix of ``A``.

    Columns that are numerically zero — below ``eps * max_norm * max(m, n)``
    — are treated as orthogonal to everything: they correspond to converged
    zero singular values, and the angle between two noise-level columns is
    meaningless (it would otherwise pin the metric near 1 forever on
    rank-deficient inputs).
    """
    G = A.T @ A
    norms = np.sqrt(np.clip(np.diag(G), 0.0, None))
    if norms.size == 0:
        return 0.0
    cutoff = np.finfo(np.float64).eps * float(norms.max()) * max(A.shape)
    negligible = norms <= cutoff
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.abs(G) / denom
    cos[~np.isfinite(cos)] = 0.0
    cos[negligible, :] = 0.0
    cos[:, negligible] = 0.0
    np.fill_diagonal(cos, 0.0)
    return float(cos.max())


def offdiagonal_frobenius(B: np.ndarray, *, relative: bool = True) -> float:
    """Frobenius norm of the off-diagonal part of symmetric ``B``.

    With ``relative=True`` (default) the value is normalized by ``||B||_F``
    so tolerances are scale-free; an all-zero matrix reports 0.
    """
    off = B - np.diag(np.diag(B))
    value = float(np.linalg.norm(off))
    if not relative:
        return value
    total = float(np.linalg.norm(B))
    if total == 0.0:
        return 0.0
    return value / total


def symmetric_offdiagonal_cosines(
    stack: np.ndarray,
    noise: float | np.ndarray = _EPS,
    diag_floor: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Max off-diagonal element of every symmetric member of a
    ``(b, k, k)`` stack, scaled per pair: ``|b_ij| / sqrt(|b_ii b_jj|)``
    (Rutishauser's relative criterion).

    Unlike the global Frobenius metric, this is what guarantees *relative*
    accuracy of small eigenvalues on graded matrices — e.g. Gram matrices,
    whose conditioning is the square of the data's. Two floors, each a
    scalar or one value per member, mask pairs:

    - elements at or below ``noise * ||B||_F`` count as zero, and a larger
      element over a diagonal at that floor counts as 1 (must still
      rotate). The default ``eps`` is the absolute noise floor;
    - a pair whose smaller diagonal is at or below ``diag_floor`` counts
      as zero. A floor that is not positive exempts nothing (the
      default). A Gram matrix ``P^T P`` passes the column floor of the
      one-sided test here, with ``noise = 0``: its diagonal holds squared
      column norms, and relative to ``||B||_F`` the pairs of small
      columns would sit under the noise floor long before their cosine
      is small.

    One pass serves the whole stack, and each member's ``||B||_F`` is
    :func:`frobenius_norms`', so every member's value is bit-identical to
    evaluating it alone.
    """
    b, k = stack.shape[0], stack.shape[-1]
    if k < 2:
        return np.zeros(b)
    idx = np.arange(k)
    dvals = stack[:, idx, idx]
    diag = np.zeros_like(stack)
    diag[:, idx, idx] = dvals
    with np.errstate(all="ignore"):
        scale = frobenius_norms(stack)[:, None, None]
        d = np.sqrt(np.abs(dvals))
        denom = d[:, :, None] * d[:, None, :]
        off = np.abs(stack - diag)
        cos = off / denom
    floor = _member_column(noise) * scale
    cos[~np.isfinite(cos)] = 0.0
    # Significant element over a vanishing diagonal: force a rotation.
    cos[(off > floor) & (denom <= floor)] = 1.0
    cos[off <= floor] = 0.0
    exempt = _member_column(np.where(diag_floor > 0.0, diag_floor, -np.inf))
    cos[np.fmin(dvals[:, :, None], dvals[:, None, :]) <= exempt] = 0.0
    return np.clip(cos, 0.0, 1.0).max(axis=(1, 2))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``||B||_F`` of every member of a ``(b, k, k)`` stack, in one pass.

    Each member is summed by the same BLAS dot that ``np.linalg.norm(B)``
    uses (a stacked ``matmul`` of a row with itself), so every value is
    bit-identical to the member's own ``np.linalg.norm``. An overflowing
    sum is ``inf``, with NumPy's overflow warning.
    """
    b = len(stack)
    flat = np.ascontiguousarray(stack).reshape(b, stack[0].size if b else 0)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]))[:, 0, 0]


def _member_column(values: float | np.ndarray) -> np.ndarray:
    """A scalar or per-member ``(b,)`` value, broadcastable over ``(b, k, k)``."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)


def symmetric_offdiagonal_cosine(B: np.ndarray) -> float:
    """:func:`symmetric_offdiagonal_cosines` of one matrix."""
    return float(symmetric_offdiagonal_cosines(B[None])[0])


def orthogonality_residual(Q: np.ndarray) -> float:
    """``max |Q.T Q - I|`` — how far columns of ``Q`` are from orthonormal."""
    k = Q.shape[1]
    G = Q.T @ Q
    return float(np.abs(G - np.eye(k)).max())
