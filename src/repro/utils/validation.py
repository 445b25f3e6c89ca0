"""Input validation helpers used at every public API boundary.

The guides for this codebase call for fail-fast validation with precise
error messages; these helpers centralize the checks so the numerical code
can assume well-formed float64 arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "as_matrix",
    "as_stack",
    "check_batch",
    "check_positive",
    "check_square_symmetric",
    "check_symmetric_stack",
]


def as_matrix(A: np.ndarray, *, name: str = "A") -> np.ndarray:
    """Validate and normalize a 2-D real matrix to C-contiguous float64.

    Returns a copy only when conversion is required, so callers that pass a
    C-contiguous float64 array keep their original storage (and must copy
    themselves before mutating).
    """
    arr = np.asarray(A)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ShapeError(f"{name} must be non-empty, got shape={arr.shape}")
    if np.iscomplexobj(arr):
        raise ShapeError(f"{name} must be real-valued, got dtype={arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return arr


def as_stack(stack: np.ndarray, *, name: str = "matrices") -> np.ndarray:
    """Validate a ``(b, m, n)`` stack of real matrices as :func:`as_matrix`
    validates one, in one stacked pass; a non-finite member is named by
    its index, as ``name[i]``."""
    arr = np.asarray(stack)
    if arr.ndim != 3:
        raise ShapeError(f"{name} must be a 3-D stack, got ndim={arr.ndim}")
    if 0 in arr.shape:
        raise ShapeError(f"{name} must be non-empty, got shape={arr.shape}")
    if np.iscomplexobj(arr):
        raise ShapeError(f"{name} must be real-valued, got dtype={arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    finite = np.isfinite(arr).all(axis=(1, 2))
    if not finite.all():
        raise ShapeError(
            f"{name}[{int(np.argmin(finite))}] contains non-finite entries"
        )
    return arr


def check_square_symmetric(
    B: np.ndarray, *, name: str = "B", tol: float = 1e-10
) -> np.ndarray:
    """Validate a symmetric matrix; returns it normalized like :func:`as_matrix`."""
    arr = as_matrix(B, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be square, got shape={arr.shape}")
    scale = max(1.0, float(np.abs(arr).max()))
    if float(np.abs(arr - arr.T).max()) > tol * scale:
        raise ShapeError(f"{name} must be symmetric within tol={tol}")
    return arr


def check_symmetric_stack(
    stack: np.ndarray, *, name: str = "B", tol: float = 1e-10
) -> np.ndarray:
    """:func:`check_square_symmetric` of every member of a ``(b, k, k)``
    stack, in one stacked pass and with its messages."""
    arr = np.asarray(stack)
    if arr.ndim != 3 or 0 in arr.shape or np.iscomplexobj(arr):
        raise ShapeError(f"{name} must be a non-empty real 3-D stack")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ShapeError(f"{name} contains non-finite entries")
    if arr.shape[1] != arr.shape[2]:
        raise ShapeError(f"{name} must be square, got shape={arr.shape[1:]}")
    scale = np.maximum(1.0, np.abs(arr).max(axis=(1, 2)))
    skew = np.abs(arr - arr.transpose(0, 2, 1)).max(axis=(1, 2))
    if (skew > tol * scale).any():
        raise ShapeError(f"{name} must be symmetric within tol={tol}")
    return arr


def check_batch(matrices: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Validate a batch of matrices; sizes may differ across the batch."""
    if len(matrices) == 0:
        raise ShapeError("batch must contain at least one matrix")
    return [as_matrix(a, name=f"matrices[{i}]") for i, a in enumerate(matrices)]


def check_positive(value: float, *, name: str) -> float:
    """Require ``value`` to be a finite, strictly positive scalar."""
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise ShapeError(f"{name} must be a positive finite number, got {value!r}")
    return v
