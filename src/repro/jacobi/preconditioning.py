"""QR preconditioning for one-sided Jacobi (paper refs [5], [42]).

For a tall ``m x n`` matrix, factorizing ``A = Q R`` first and running the
Jacobi SVD on the small ``n x n`` triangular factor is the classic
preconditioning of Kudo & Yamamoto / Bečka et al.: the per-rotation cost
drops from O(m) to O(n), and QR's row compression tends to concentrate the
column norms, which speeds Jacobi convergence. The left vectors come back
via ``U = Q @ U_R``.

This is an optional wrapper around any SVD solver exposing ``decompose``.
:class:`repro.core.WCycleSVD` applies the same detour batch-wide under
``WCycleConfig(qr_precondition=True)``: it factors every tall member,
solves the ``R`` factors together in shape buckets, then maps
``U = Q @ U_R`` back; it shares :func:`worth_preconditioning` with this
wrapper, not the wrapper itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.types import SVDResult
from repro.utils.validation import as_matrix

__all__ = ["qr_precondition_decompose", "worth_preconditioning"]

#: Default aspect ratio beyond which the QR detour pays for itself.
DEFAULT_ASPECT_THRESHOLD = 2.0


def worth_preconditioning(
    m: int, n: int, *, aspect_threshold: float = DEFAULT_ASPECT_THRESHOLD
) -> bool:
    """Whether a tall ``m x n`` matrix benefits from the QR detour.

    The QR costs ~2 m n^2 flops once; Jacobi saves ~(m - n) work on every
    one of O(n^2) rotations per sweep, so the detour wins once the aspect
    ratio clears a small threshold.
    """
    if aspect_threshold < 1.0:
        raise ConfigurationError(
            f"aspect_threshold must be >= 1, got {aspect_threshold}"
        )
    return m >= aspect_threshold * n


def qr_precondition_decompose(
    A: np.ndarray,
    decompose: Callable[[np.ndarray], SVDResult],
    *,
    aspect_threshold: float = DEFAULT_ASPECT_THRESHOLD,
) -> SVDResult:
    """SVD of ``A`` via QR preconditioning when profitable.

    Falls through to ``decompose(A)`` when the matrix is not tall enough
    for the detour to pay (including all wide matrices).
    """
    A = as_matrix(A)
    m, n = A.shape
    if not worth_preconditioning(m, n, aspect_threshold=aspect_threshold):
        return decompose(A)
    Q, R = np.linalg.qr(A, mode="reduced")
    inner = decompose(R)
    return SVDResult(
        U=Q @ inner.U,
        S=inner.S,
        V=inner.V,
        trace=inner.trace,
    )
