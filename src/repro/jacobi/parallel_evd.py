"""Parallelized two-sided Jacobi EVD — the paper's batched EVD kernel math
(§IV-C, Fig. 5).

One round-robin step supplies ``w`` pairwise-disjoint pivot pairs. All their
Givens rotations are *determined from the same snapshot of B*, composed into
one orthogonal ``G`` (block-diagonal up to permutation), and applied as a
single congruence ``B_hat = G.T @ B @ G``. Because no two pairs share an
index, every element of ``B_hat`` depends on at most a 2x2 neighbourhood of
rows/columns (the ``x.T B y`` form of Fig. 5, 6 multiplies + 3 adds per
element), so — unlike the sequential method — the whole matrix updates in
parallel.

The NumPy realization applies the disjoint column rotations as one gathered
vectorized update and then the row rotations likewise, which computes exactly
``G.T B G``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.jacobi.convergence import symmetric_offdiagonal_cosine
from repro.jacobi.preconditioning import shift_symmetric, unshift_evd
from repro.jacobi.rotations import rotation_cs
from repro.jacobi.twosided_evd import TwoSidedConfig, _finalize_evd
from repro.orderings import Ordering, get_ordering
from repro.types import ConvergenceTrace, EVDResult
from repro.utils.validation import check_square_symmetric

__all__ = ["ParallelJacobiEVD"]


class ParallelJacobiEVD:
    """Two-sided Jacobi EVD with the paper's parallel step update.

    Produces the same eigendecomposition as
    :class:`repro.jacobi.TwoSidedJacobiEVD` (possibly in a different number
    of sweeps, since all rotations in a step use the pre-step matrix) while
    exposing ``n``-way parallelism per step instead of updating two rows and
    two columns at a time.
    """

    #: True when eliminations within a step may be applied concurrently.
    parallel_update = True

    def __init__(self, config: TwoSidedConfig | None = None) -> None:
        self.config = config or TwoSidedConfig()
        self._ordering: Ordering = get_ordering(self.config.ordering)
        #: Rotations applied by the most recent decompose() call.
        self.last_rotations = 0

    def decompose(self, B: np.ndarray) -> EVDResult:
        """Compute ``B = J @ diag(L) @ J.T`` with eigenvalues descending."""
        B = check_square_symmetric(B).copy()
        n = B.shape[0]
        J = np.eye(n)
        trace = ConvergenceTrace()
        self.last_rotations = 0
        if n == 1:
            return EVDResult(J=J, L=B[0].copy(), trace=trace)
        B, scale, shift = shift_symmetric(B)
        if scale == 0.0:
            return EVDResult(J=J, L=np.zeros(n), trace=trace)
        cfg = self.config
        schedule = self._ordering.sweep(n)
        floor = np.finfo(np.float64).eps * scale
        for sweep_index in range(1, cfg.max_sweeps + 1):
            rotations = 0
            for step in schedule:
                rotations += self._apply_parallel_step(B, J, step, floor)
            off = symmetric_offdiagonal_cosine(B)
            trace.append(sweep_index, off, rotations)
            self.last_rotations += rotations
            if off < cfg.tol:
                return unshift_evd(_finalize_evd(B, J, trace), shift)
        raise ConvergenceError(
            f"parallel two-sided Jacobi did not converge in "
            f"{cfg.max_sweeps} sweeps "
            f"(residual {trace.records[-1].off_norm:.3e})",
            sweeps=cfg.max_sweeps,
            residual=trace.records[-1].off_norm,
        )

    def _apply_parallel_step(
        self,
        B: np.ndarray,
        J: np.ndarray,
        step: list[tuple[int, int]],
        floor: float,
    ) -> int:
        """Determine and apply all of a step's rotations from one snapshot.

        The activation test is Rutishauser's relative threshold (see
        :func:`repro.jacobi.twosided_evd._should_rotate`), vectorized.
        """
        if not step:
            return 0
        idx_i = np.fromiter((p[0] for p in step), dtype=np.intp, count=len(step))
        idx_j = np.fromiter((p[1] for p in step), dtype=np.intp, count=len(step))
        bij = B[idx_i, idx_j]
        bii = B[idx_i, idx_i]
        bjj = B[idx_j, idx_j]
        mag = np.abs(bij)
        denom = np.sqrt(np.abs(bii * bjj))
        tol = self.config.tol
        active = (mag > floor) & ((denom <= floor) | (mag > tol * denom))
        if not active.any():
            return 0
        c, s = rotation_cs(bii, bjj, bij, active)
        # B <- G.T B G: disjoint pairs let both the column pass and the row
        # pass be applied as single gathered updates.
        Bi = B[:, idx_i].copy()
        Bj = B[:, idx_j].copy()
        B[:, idx_i] = c * Bi + s * Bj
        B[:, idx_j] = -s * Bi + c * Bj
        Ri = B[idx_i, :].copy()
        Rj = B[idx_j, :].copy()
        B[idx_i, :] = c[:, None] * Ri + s[:, None] * Rj
        B[idx_j, :] = -s[:, None] * Ri + c[:, None] * Rj
        # Eliminated entries are exactly zero in exact arithmetic; enforce it.
        B[idx_i[active], idx_j[active]] = 0.0
        B[idx_j[active], idx_i[active]] = 0.0
        # Accumulate J <- J G.
        Ji = J[:, idx_i].copy()
        Jj = J[:, idx_j]
        J[:, idx_i] = c * Ji + s * Jj
        J[:, idx_j] = -s * Ji + c * Jj
        return int(np.count_nonzero(active))
