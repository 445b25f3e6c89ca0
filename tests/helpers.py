"""Shared assertion helpers."""

from __future__ import annotations

import math

import numpy as np

from repro.jacobi.preconditioning import unshift
from repro.verify import verify_svd


def assert_valid_svd(A: np.ndarray, result, tol: float = 1e-10) -> None:
    """Assert U/S/V form a correct thin SVD of A."""
    m, n = A.shape
    r = min(m, n)
    assert result.U.shape == (m, r)
    assert result.S.shape == (r,)
    assert result.V.shape == (n, r)
    # Descending non-negative singular values.
    assert (result.S >= 0).all()
    assert (np.diff(result.S) <= 1e-12 * (result.S[0] + 1)).all()
    # Orthonormal factors.
    assert np.abs(result.U.T @ result.U - np.eye(r)).max() < 1e-10
    assert np.abs(result.V.T @ result.V - np.eye(r)).max() < 1e-10
    # Reconstruction and agreement with LAPACK.
    assert result.reconstruction_error(A) < tol
    ref = np.linalg.svd(A, compute_uv=False)
    scale = max(1.0, float(ref[0]))
    assert np.abs(result.S - ref).max() < 1e-8 * scale


# -- inputs of the accuracy oracle (tests/test_*_accuracy.py) ---------------


def _with_sigma(rng, m, n, sigma):
    """``U diag(sigma) V^T`` with random orthonormal bases."""
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * sigma) @ V.T


def _zero_columns(rng, m, n):
    A = rng.standard_normal((m, n))
    A[:, 3::7] = 0.0
    return A


#: Input classes: ``name -> build(rng, m, n)``, an ``m x n`` matrix (the
#: wide class returns ``n x m``).
INPUTS = {
    "gaussian": lambda rng, m, n: rng.standard_normal((m, n)),
    "cols-1e-5": lambda rng, m, n: (
        rng.standard_normal((m, n)) * np.logspace(0, -5, n)
    ),
    "cols-1e-8": lambda rng, m, n: (
        rng.standard_normal((m, n)) * np.logspace(0, -8, n)
    ),
    "rows-1e-8": lambda rng, m, n: (
        rng.standard_normal((m, n)) * np.logspace(0, -8, m)[:, None]
    ),
    "rank-half": lambda rng, m, n: (
        rng.standard_normal((m, n // 2)) @ rng.standard_normal((n // 2, n))
    ),
    "zero-columns": _zero_columns,
    "clustered": lambda rng, m, n: _with_sigma(
        rng, m, n, 1.0 + 1e-10 * np.linspace(1.0, 0.0, n)
    ),
    "repeated": lambda rng, m, n: _with_sigma(
        rng, m, n, np.repeat([3.0, 1.0], n // 2)
    ),
    "geometric": lambda rng, m, n: _with_sigma(
        rng, m, n, np.logspace(0, -12, n)
    ),
    "wide": lambda rng, m, n: rng.standard_normal((n, m)),
}

#: Classes whose small singular values must be relatively accurate.
GRADED = ("cols-1e-5", "cols-1e-8")

#: The accuracy oracle's bar for every check of :func:`verify_svd`.
CONTRACT_TOL = 1e-12

#: Scales at which the Gram products of an unshifted Gaussian overflow
#: or underflow, down to subnormal entries.
EXTREME_SCALES = (1e-310, 1e-160, 1e-77, 1e77, 1e160, 1e300)


def assert_meets_contract(A, result, *, relative=False, label=""):
    """Hold ``result`` to the oracle's contract: backward error,
    orthogonality of ``U`` and ``V`` and singular values within
    ``1e-12 sigma_max`` of LAPACK's (within ``1e-12`` of each value itself
    with ``relative``), descending and non-negative."""
    report = verify_svd(A, result)
    where = f"{label}\n{report.summary()}"
    assert report.reconstruction_error <= CONTRACT_TOL, where
    assert report.u_orthogonality <= CONTRACT_TOL, where
    assert report.v_orthogonality <= CONTRACT_TOL, where
    assert report.sv_descending and report.sv_nonnegative, where
    assert report.sv_error_vs_lapack <= CONTRACT_TOL, where
    if relative:
        assert report.sv_relative_error <= CONTRACT_TOL, (
            label, report.sv_relative_error
        )


def rescaled(A, result):
    """``2^-e A`` and its factors, with ``e`` the exponent of ``A``'s
    largest entry: the exact, normal-range version of a scaled input,
    whose LAPACK factors are the exact reference."""
    e = math.frexp(float(np.abs(A).max()))[1]
    return np.ldexp(A, -e), unshift(result, -e)
