"""Shared factor extraction for the Jacobi methods.

Every one-sided variant ends with the same post-processing: the worked
matrix's columns have become ``U * sigma``, the accumulated rotations are
``V``; this module sorts, normalizes, detects numerical rank, and completes
``U`` to an orthonormal basis for rank-deficient inputs. The two-sided
eigensolvers end by sorting their eigenpairs.

Both finalizers work on a whole stack at once and return it stacked
(:class:`~repro.types.SVDStack`, :class:`~repro.types.EVDStack`), so a
batched solve pays their NumPy calls once per shape bucket instead of once
per matrix; the per-matrix solvers call them on a one-member stack. Each member's bytes
are those of finalizing it alone: every step is elementwise or reduces
within one member, in the order the member alone would. A member's
factors are views of arrays shared by the whole stack, never of the
inputs.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.errors import ConvergenceError
from repro.types import ConvergenceTrace, EVDStack, SVDResult, SVDStack

__all__ = [
    "finalize_stack",
    "finalize_evd_stack",
    "finalize_onesided",
    "complete_orthonormal",
    "complete_square_orthogonal",
]

_EPS = np.finfo(np.float64).eps


def finalize_stack(
    W: np.ndarray,
    V: np.ndarray,
    traces: Sequence[ConvergenceTrace | None],
) -> SVDStack:
    """Extract the thin SVD of every member of a ``(b, m, n)`` stack.

    ``W[k]`` holds mutually orthogonal columns (``U * sigma``); ``V[k]``
    the accumulated right rotations; ``traces[k]`` rides along. Singular
    values sort descending; columns below the numerical-rank cutoff get
    zero singular values and an orthonormal completion in ``U`` (only the
    members that have such columns pay for it).

    ``U`` is built when the stack's ``U`` is first read (a W-cycle step
    reads only ``V``).

    Zeros in ``U`` come out as ``+0.0``: a stacked solve applies every step
    to the whole stack, and the identity rotation it gives a matrix with
    nothing to rotate turns a ``-0.0`` into ``+0.0``, so without this the
    sign would depend on the matrix's stack-mates.
    """
    m, n = W.shape[1:]
    r = min(m, n)
    sigma = np.linalg.norm(W, axis=1)
    order = np.argsort(sigma, axis=1)[:, ::-1][:, :r]
    sigma = np.take_along_axis(sigma, order, axis=1)
    cols = order[:, None, :]
    work = np.take_along_axis(W, cols, axis=2)
    V = np.take_along_axis(V, cols, axis=2)
    cutoff = _EPS * max(m, n) * (sigma[:, :1] if r else 0.0)
    nonzero = sigma > cutoff
    return SVDStack(
        S=np.where(nonzero, sigma, 0.0),
        V=V,
        traces=list(traces),
        make_U=functools.partial(_left_vectors, work, sigma, nonzero),
    )


def _left_vectors(
    work: np.ndarray, sigma: np.ndarray, nonzero: np.ndarray
) -> np.ndarray:
    """``U`` of :func:`finalize_stack`, built when first read: the sorted
    columns ``work`` over their norms ``sigma`` where ``nonzero``, and an
    orthonormal completion in the other columns."""
    U = np.zeros(work.shape)
    np.divide(work, sigma[:, None, :], out=U, where=nonzero[:, None, :])
    for k in np.flatnonzero(~nonzero.all(axis=1)).tolist():
        complete_orthonormal(U[k], nonzero[k])
    U += 0.0
    return U


def finalize_onesided(
    work: np.ndarray, V: np.ndarray, trace: ConvergenceTrace | None
) -> SVDResult:
    """:func:`finalize_stack` of one ``(m, n)`` matrix."""
    return finalize_stack(work[None], V[None], (trace,))[0]


def finalize_evd_stack(
    B: np.ndarray,
    J: np.ndarray,
    traces: Sequence[ConvergenceTrace | None],
) -> EVDStack:
    """Sort the eigenpairs of every diagonalized member of a ``(b, k, k)``
    stack descending by eigenvalue (``J[k]`` holds member ``k``'s
    eigenvector columns).

    Zero eigenvalues come out as ``+0.0``: a stacked solve applies every
    step to the whole stack, and the identity rotation it gives a matrix
    with nothing to rotate turns a ``-0.0`` diagonal entry into ``+0.0``,
    so without this the sign would depend on the matrix's stack-mates.
    """
    eigvals = np.diagonal(B, axis1=1, axis2=2)
    order = np.argsort(eigvals, axis=1)[:, ::-1]
    L = np.take_along_axis(eigvals, order, axis=1)
    L += 0.0
    J = np.take_along_axis(J, order[:, None, :], axis=2)
    return EVDStack(J=J, L=L, traces=list(traces))


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
