"""The benchmark's accuracy contract, checked against ``np.linalg.svd``.

A factorization ``A ~ U diag(S) V^T`` passes when each of these is at most
:data:`TOL`:

- backward error ``||A - U S V^T||_F / ||A||_F``;
- orthogonality ``max(max|U^T U - I|, max|V^T V - I|)``;
- singular values ``max_i |s_i - s_i^ref| / s_i^ref``.

Checks run outside every timed region and are vectorized per input shape,
so verifying thousands of small results costs a few stacked LAPACK calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TOL", "Check", "check_results"]

#: Largest error of each kind a result may have.
TOL = 1e-12


@dataclass
class Check:
    """Outcome of verifying a list of results."""

    checked: int = 0
    failed: int = 0
    backward_max: float = 0.0
    orth_max: float = 0.0
    sigma_max: float = 0.0

    def merge(self, other: "Check") -> None:
        self.checked += other.checked
        self.failed += other.failed
        self.backward_max = max(self.backward_max, other.backward_max)
        self.orth_max = max(self.orth_max, other.orth_max)
        self.sigma_max = max(self.sigma_max, other.sigma_max)


def _max_abs_from_identity(Q: np.ndarray) -> np.ndarray:
    gram = np.matmul(Q.transpose(0, 2, 1), Q)
    gram -= np.eye(gram.shape[-1])
    return np.abs(gram).max(axis=(1, 2))


def _check_stack(A, U, S, V) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-matrix (backward, orthogonality, sigma) errors of one stack."""
    recon = np.matmul(U * S[:, None, :], V.transpose(0, 2, 1))
    backward = np.linalg.norm(A - recon, axis=(1, 2)) / np.linalg.norm(
        A, axis=(1, 2)
    )
    orth = np.maximum(_max_abs_from_identity(U), _max_abs_from_identity(V))
    ref = np.linalg.svd(A, compute_uv=False)
    ordered = -np.sort(-S, axis=1)
    sigma = (np.abs(ordered - ref) / ref).max(axis=1)
    return backward, orth, sigma


def check_results(matrices, results) -> Check:
    """Verify ``results[i]`` (with ``U``, ``S``, ``V``) against ``matrices[i]``.

    A result with missing, misshapen or non-finite factors fails; NaN
    errors compare false against the tolerances, so they fail too.
    """
    out = Check(checked=len(matrices))
    groups: dict[tuple, list[int]] = {}
    for i, (a, res) in enumerate(zip(matrices, results)):
        m, n = a.shape
        r = min(m, n)
        shapes = (
            getattr(getattr(res, f, None), "shape", None) for f in "USV"
        )
        if tuple(shapes) != ((m, r), (r,), (n, r)):
            out.failed += 1
            continue
        groups.setdefault(a.shape, []).append(i)
    for idx in groups.values():
        A = np.stack([matrices[i] for i in idx])
        U = np.stack([results[i].U for i in idx])
        S = np.stack([results[i].S for i in idx])
        V = np.stack([results[i].V for i in idx])
        with np.errstate(all="ignore"):
            backward, orth, sigma = _check_stack(A, U, S, V)
        ok = (backward <= TOL) & (orth <= TOL) & (sigma <= TOL)
        out.failed += int((~ok).sum())
        # Non-finite errors are already counted as failures; the maxima
        # report the finite ones.
        for name, errs in (
            ("backward_max", backward),
            ("orth_max", orth),
            ("sigma_max", sigma),
        ):
            finite = errs[np.isfinite(errs)]
            if finite.size:
                setattr(out, name, max(getattr(out, name), float(finite.max())))
    return out
