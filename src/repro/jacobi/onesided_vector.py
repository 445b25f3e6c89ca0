"""One-sided Jacobi SVD with column *vector* rotations (paper §II-C, §IV-B).

This is the algorithm the batched SVD kernel runs inside GPU shared memory,
up to one host-side detour: a tall matrix (``m >= 2n``) is factored as
``A = QR`` and the rotations run on ``R``, which needs the same rotations
in exact arithmetic since ``R^T R = A^T A``
(:func:`repro.jacobi.preconditioning.qr_detour`). Inputs whose largest
entry is far from 1 are shifted by an exact power of two first
(:func:`repro.jacobi.preconditioning.safe_exponent`). Two paper
optimizations are implemented and individually switchable:

- **transpose-when-wide** (§IV-B): for ``m < n`` the SVD of ``A.T`` is
  computed instead, halving the number of column pairs per sweep;
- **inner-product caching** (Eq. 6): the squared column norms are carried
  across rotations so each pair costs one dot product instead of three.

Pairs within one ordering *step* are disjoint, so the implementation
processes a whole step vectorized — the NumPy analogue of the GPU executing
the step's rotations on concurrent warps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.jacobi.factors import finalize_onesided
from repro.jacobi.preconditioning import qr_detour, safe_exponent, unshift
from repro.jacobi.rotations import rotation_cs
from repro.orderings import Ordering, get_ordering
from repro.types import ConvergenceTrace, SVDResult
from repro.utils.validation import as_matrix

__all__ = ["OneSidedConfig", "OneSidedJacobiSVD"]

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class OneSidedConfig:
    """Configuration of the one-sided vector-rotation Jacobi SVD.

    Attributes
    ----------
    tol:
        Convergence tolerance on the normalized column cosine. A pair is
        rotated only if ``|a_i.a_j|`` exceeds ``tol * |a_i| * |a_j|``.
    max_sweeps:
        Sweep budget; exceeding it raises :class:`ConvergenceError`.
    ordering:
        Pivot schedule name (default round-robin).
    cache_inner_products:
        Enable the Eq. 6 optimization (ablation switch D1).
    transpose_wide:
        Factor ``A.T`` when ``m < n`` (ablation switch D6).
    """

    tol: float = 1e-14
    max_sweeps: int = 60
    ordering: str = "round-robin"
    cache_inner_products: bool = True
    transpose_wide: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ConfigurationError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_sweeps < 1:
            raise ConfigurationError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}"
            )


@dataclass
class _SweepStats:
    """Work counters accumulated by :meth:`OneSidedJacobiSVD._run_sweeps`."""

    rotations: int = 0
    dot_products: int = 0


class OneSidedJacobiSVD:
    """Single-matrix one-sided Jacobi SVD solver.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.jacobi import OneSidedJacobiSVD
    >>> A = np.array([[3.0, 0.0], [4.0, 5.0]])
    >>> result = OneSidedJacobiSVD().decompose(A)
    >>> np.allclose(result.reconstruct(), A)
    True
    """

    def __init__(self, config: OneSidedConfig | None = None) -> None:
        self.config = config or OneSidedConfig()
        if self.config.ordering == "dynamic":
            from repro.orderings.dynamic import DynamicOrdering

            self._ordering = None
            self._dynamic: "DynamicOrdering | None" = DynamicOrdering(
                skip_tol=self.config.tol
            )
        else:
            self._ordering: Ordering = get_ordering(self.config.ordering)
            self._dynamic = None
        #: Work counters of the most recent :meth:`decompose` call.
        self.last_stats: _SweepStats = _SweepStats()

    def decompose(self, A: np.ndarray) -> SVDResult:
        """Compute the thin SVD ``A = U @ diag(S) @ V.T``."""
        A = as_matrix(A)
        shift = safe_exponent(A)
        if shift:
            A = np.ldexp(A, -shift)
        m, n = A.shape
        if self.config.transpose_wide and m < n:
            inner = self._factorize_tall(A.T.copy())
            res = SVDResult(U=inner.V, S=inner.S, V=inner.U, trace=inner.trace)
        else:
            res = self._factorize_tall(A.copy())
        return unshift(res, shift)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _factorize_tall(self, W: np.ndarray) -> SVDResult:
        """Factorize ``W`` (modified in place); no transposition logic here.

        A tall ``W`` is swept as its triangular factor ``R`` and mapped
        back as ``Q @ W_R`` (:func:`~repro.jacobi.preconditioning.qr_detour`).
        """
        m, n = W.shape
        V = np.eye(n)
        trace = ConvergenceTrace()
        self.last_stats = _SweepStats()
        if n == 1:
            return self._finalize(W, V, trace)
        Q, R = qr_detour(W)
        self._run_sweeps(R, V, trace, rows=m)
        return self._finalize(R if Q is None else Q @ R, V, trace)

    def _run_sweeps(
        self, W: np.ndarray, V: np.ndarray, trace: ConvergenceTrace, rows: int
    ) -> None:
        """Sweep ``W`` in place; ``rows`` is the row count of the matrix
        being factorized, which sets the column floor."""
        cfg = self.config
        n = W.shape[1]
        dynamic = self._dynamic
        if dynamic is None:
            sweep_schedule = self._ordering.sweep(n)
        else:
            sweep_schedule = None
        stats = self.last_stats
        sqnorms = np.einsum("ij,ij->j", W, W)
        stats.dot_products += n
        eps = np.finfo(np.float64).eps
        for sweep_index in range(1, cfg.max_sweeps + 1):
            if cfg.cache_inner_products:
                # Refresh the cache each sweep: Eq. 6 is exact in real
                # arithmetic but accumulates rounding across many rotations.
                sqnorms = np.einsum("ij,ij->j", W, W)
                stats.dot_products += n
            # Columns at noise level correspond to converged zero singular
            # values; pairs touching them are skipped (their cosine is
            # noise/noise and would never drop below tol).
            scale = float(sqnorms.max())
            norm_floor = (eps * max(rows, n)) ** 2 * scale
            max_cosine = 0.0
            sweep_rotations = 0
            if dynamic is None:
                for step in sweep_schedule:
                    step_cos, rotated = self._apply_step(
                        W, V, sqnorms, step, norm_floor
                    )
                    max_cosine = max(max_cosine, step_cos)
                    sweep_rotations += rotated
            else:
                # Dynamic ordering: each step is a fresh greedy matching on
                # the current cosines (the heaviest pairs rotate first).
                for _ in range(dynamic.steps_per_sweep(n)):
                    step = dynamic.step_for(W)
                    if not step:
                        break
                    step_cos, rotated = self._apply_step(
                        W, V, sqnorms, step, norm_floor
                    )
                    max_cosine = max(max_cosine, step_cos)
                    sweep_rotations += rotated
                if sweep_rotations == 0:
                    # Nothing above tolerance anywhere: converged.
                    trace.append(sweep_index, max_cosine, 0)
                    return
            trace.append(sweep_index, max_cosine, sweep_rotations)
            if max_cosine < cfg.tol:
                return
        raise ConvergenceError(
            f"one-sided Jacobi did not converge in {cfg.max_sweeps} sweeps "
            f"(residual {trace.records[-1].off_norm:.3e})",
            sweeps=cfg.max_sweeps,
            residual=trace.records[-1].off_norm,
        )

    def _apply_step(
        self,
        W: np.ndarray,
        V: np.ndarray,
        sqnorms: np.ndarray,
        step: list[tuple[int, int]],
        norm_floor: float = 0.0,
    ) -> tuple[float, int]:
        """Apply one parallel step of disjoint rotations; returns (max_cos, k)."""
        cfg = self.config
        stats = self.last_stats
        if not step:
            return 0.0, 0
        idx_i = np.fromiter((p[0] for p in step), dtype=np.intp, count=len(step))
        idx_j = np.fromiter((p[1] for p in step), dtype=np.intp, count=len(step))
        Wi = W[:, idx_i]
        Wj = W[:, idx_j]
        aij = np.einsum("mk,mk->k", Wi, Wj)
        stats.dot_products += len(step)
        if cfg.cache_inner_products:
            aii = sqnorms[idx_i]
            ajj = sqnorms[idx_j]
        else:
            aii = np.einsum("mk,mk->k", Wi, Wi)
            ajj = np.einsum("mk,mk->k", Wj, Wj)
            stats.dot_products += 2 * len(step)
        # Cached squared norms can round to tiny negatives for numerically
        # zero columns; clip before the sqrt.
        denom = np.sqrt(np.clip(aii * ajj, 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = np.abs(aij) / denom
        cosine[~np.isfinite(cosine)] = 0.0
        if norm_floor > 0.0:
            cosine[(aii <= norm_floor) | (ajj <= norm_floor)] = 0.0
        rotate = cosine > cfg.tol
        max_cos = float(cosine.max()) if cosine.size else 0.0
        if not rotate.any():
            return max_cos, 0
        # Vectorized Eq. 4 for the pairs that need rotating.
        c, s = rotation_cs(aii, ajj, aij, rotate)
        # Disjoint pairs: simultaneous column updates are safe.
        W[:, idx_i] = c * Wi + s * Wj
        W[:, idx_j] = -s * Wi + c * Wj
        Vi = V[:, idx_i]
        Vj = V[:, idx_j]
        V[:, idx_i] = c * Vi + s * Vj
        V[:, idx_j] = -s * Vi + c * Vj
        if cfg.cache_inner_products:
            # Eq. 6: updated squared norms without new dot products.
            new_ii = c**2 * aii + 2.0 * c * s * aij + s**2 * ajj
            new_jj = s**2 * aii - 2.0 * c * s * aij + c**2 * ajj
            sqnorms[idx_i] = new_ii
            sqnorms[idx_j] = new_jj
        rotated = int(np.count_nonzero(rotate))
        stats.rotations += rotated
        return max_cos, rotated

    def _finalize(
        self, W: np.ndarray, V: np.ndarray, trace: ConvergenceTrace
    ) -> SVDResult:
        """Extract ``U, S`` from the orthogonalized columns and sort."""
        return finalize_onesided(W, V, trace)
