"""Structured factorization verification.

``verify_svd`` condenses the standard SVD quality checks — reconstruction,
factor orthogonality, singular-value ordering and accuracy against LAPACK —
into one report, usable in tests, examples, and user code:

>>> import numpy as np
>>> from repro import WCycleSVD
>>> from repro.verify import verify_svd
>>> A = np.random.default_rng(0).standard_normal((12, 8))
>>> report = verify_svd(A, WCycleSVD(device="V100").decompose(A))
>>> report.ok
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jacobi.convergence import orthogonality_residual
from repro.types import SVDResult
from repro.utils.validation import as_matrix

__all__ = ["SVDVerification", "verify_svd"]


@dataclass(frozen=True)
class SVDVerification:
    """Quality metrics of one factorization.

    All metrics are relative/normalized; ``ok`` applies the default
    working-accuracy thresholds. ``sv_error_vs_lapack`` is each singular
    value's error scaled by ``max(1, sigma_max)``; ``sv_relative_error``
    scales it by the value itself (over the nonzero reference values),
    which only relatively accurate solvers keep small on graded inputs.
    ``ok`` does not read it.
    """

    reconstruction_error: float
    u_orthogonality: float
    v_orthogonality: float
    sv_descending: bool
    sv_nonnegative: bool
    sv_error_vs_lapack: float
    sv_relative_error: float

    #: Default working-accuracy thresholds.
    RECONSTRUCTION_TOL = 1e-10
    ORTHOGONALITY_TOL = 1e-10
    SV_TOL = 1e-8

    @property
    def ok(self) -> bool:
        """All checks pass at working accuracy."""
        return (
            self.reconstruction_error < self.RECONSTRUCTION_TOL
            and self.u_orthogonality < self.ORTHOGONALITY_TOL
            and self.v_orthogonality < self.ORTHOGONALITY_TOL
            and self.sv_descending
            and self.sv_nonnegative
            and self.sv_error_vs_lapack < self.SV_TOL
        )

    def summary(self) -> str:
        """One-line-per-check human-readable report."""
        def mark(good: bool) -> str:
            return "ok " if good else "FAIL"

        return "\n".join(
            [
                f"[{mark(self.reconstruction_error < self.RECONSTRUCTION_TOL)}]"
                f" reconstruction   {self.reconstruction_error:.3e}",
                f"[{mark(self.u_orthogonality < self.ORTHOGONALITY_TOL)}]"
                f" U orthogonality  {self.u_orthogonality:.3e}",
                f"[{mark(self.v_orthogonality < self.ORTHOGONALITY_TOL)}]"
                f" V orthogonality  {self.v_orthogonality:.3e}",
                f"[{mark(self.sv_descending)}] singular values descending",
                f"[{mark(self.sv_nonnegative)}] singular values non-negative",
                f"[{mark(self.sv_error_vs_lapack < self.SV_TOL)}]"
                f" vs LAPACK        {self.sv_error_vs_lapack:.3e}",
            ]
        )


def verify_svd(A: np.ndarray, result: SVDResult) -> SVDVerification:
    """Run the full check battery on ``result`` against ``A``."""
    A = as_matrix(A)
    ref = np.linalg.svd(A, compute_uv=False)
    scale = max(1.0, float(ref[0]) if ref.size else 1.0)
    diff = np.abs(result.S - ref)
    sv_error = float(diff.max()) / scale if ref.size else 0.0
    nonzero = ref > 0.0
    sv_rel = float((diff[nonzero] / ref[nonzero]).max()) if nonzero.any() else 0.0
    s = result.S
    return SVDVerification(
        reconstruction_error=result.reconstruction_error(A),
        u_orthogonality=orthogonality_residual(result.U),
        v_orthogonality=orthogonality_residual(result.V),
        sv_descending=bool((np.diff(s) <= 1e-12 * scale).all()),
        sv_nonnegative=bool((s >= 0).all()),
        sv_error_vs_lapack=sv_error,
        sv_relative_error=sv_rel,
    )
