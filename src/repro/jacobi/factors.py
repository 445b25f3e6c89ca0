"""Shared factor extraction for one-sided Jacobi methods.

Every one-sided variant ends with the same post-processing: the worked
matrix's columns have become ``U * sigma``, the accumulated rotations are
``V``; this module sorts, normalizes, detects numerical rank, and completes
``U`` to an orthonormal basis for rank-deficient inputs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.types import ConvergenceTrace, SVDResult

__all__ = ["finalize_onesided", "complete_orthonormal", "complete_square_orthogonal"]

_EPS = np.finfo(np.float64).eps


def finalize_onesided(
    work: np.ndarray, V: np.ndarray, trace: ConvergenceTrace | None
) -> SVDResult:
    """Extract the thin SVD from orthogonalized columns.

    ``work`` holds mutually orthogonal columns (``U * sigma``); ``V`` the
    accumulated right rotations. Singular values sort descending; columns
    below the numerical-rank cutoff get zero singular values and an
    orthonormal completion in ``U``.

    Zeros in ``U`` come out as ``+0.0``: a stacked solve applies every step
    to the whole stack, and the identity rotation it gives a matrix with
    nothing to rotate turns a ``-0.0`` into ``+0.0``, so without this the
    sign would depend on the matrix's stack-mates.
    """
    m, n = work.shape
    sigma = np.linalg.norm(work, axis=0)
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    work = work[:, order]
    V = V[:, order]
    r = min(m, n)
    sigma, work, V = sigma[:r], work[:, :r], V[:, :r]
    cutoff = _EPS * max(m, n) * (sigma[0] if sigma.size else 0.0)
    U = np.zeros((m, r))
    nonzero = sigma > cutoff
    U[:, nonzero] = work[:, nonzero] / sigma[nonzero]
    if not nonzero.all():
        complete_orthonormal(U, nonzero)
        sigma = np.where(nonzero, sigma, 0.0)
    U += 0.0
    return SVDResult(U=U, S=sigma, V=V, trace=trace)


def complete_orthonormal(U: np.ndarray, filled: np.ndarray) -> None:
    """Fill columns of ``U`` where ``filled`` is False with an orthonormal
    completion of the existing columns (in place, deterministic)."""
    m = U.shape[0]
    rng = np.random.default_rng(0x5FD)
    for col in np.flatnonzero(~filled):
        for _ in range(50):
            v = rng.standard_normal(m)
            v -= U @ (U.T @ v)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                U[:, col] = v / norm
                break
        else:  # pragma: no cover - requires pathological dimensions
            raise ConvergenceError(
                "failed to complete orthonormal basis",
                sweeps=0,
                residual=float("nan"),
            )


def complete_square_orthogonal(V: np.ndarray, k: int) -> np.ndarray:
    """Extend orthonormal columns ``V`` (k x r, r <= k) to a square k x k
    orthogonal matrix (deterministic)."""
    out = np.zeros((k, k))
    out[:, : V.shape[1]] = V
    filled = np.zeros(k, dtype=bool)
    filled[: V.shape[1]] = True
    complete_orthonormal(out, filled)
    return out
