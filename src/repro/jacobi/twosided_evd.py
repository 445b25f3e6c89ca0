"""Sequential two-sided Jacobi EVD (paper §II-D).

The classic cyclic Jacobi eigenvalue method for a symmetric matrix ``B``:
each elimination annihilates one off-diagonal pair ``b_ij = b_ji`` by a
congruence with a Givens rotation, updating rows *and* columns ``i, j``.
Because every elimination touches two full rows and columns, eliminations
must run one after another — this is the sequential bottleneck the paper's
parallel kernel (:mod:`repro.jacobi.parallel_evd`) removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.jacobi.convergence import symmetric_offdiagonal_cosine
from repro.jacobi.factors import finalize_evd_stack
from repro.jacobi.preconditioning import shift_symmetric, unshift_evd
from repro.jacobi.rotations import twosided_rotation
from repro.orderings import Ordering, get_ordering
from repro.types import ConvergenceTrace, EVDResult
from repro.utils.validation import check_square_symmetric

__all__ = ["TwoSidedConfig", "TwoSidedJacobiEVD"]


@dataclass(frozen=True)
class TwoSidedConfig:
    """Configuration shared by the sequential and parallel EVD solvers.

    Attributes
    ----------
    tol:
        Convergence tolerance on the relative off-diagonal Frobenius norm.
    max_sweeps:
        Sweep budget; exceeding it raises :class:`ConvergenceError`.
    ordering:
        Pivot schedule name (the parallel kernel requires disjoint steps;
        the round-robin default provides the minimum step count).
    """

    tol: float = 1e-14
    max_sweeps: int = 60
    ordering: str = "round-robin"

    def __post_init__(self) -> None:
        if not (0.0 < self.tol < 1.0):
            raise ConfigurationError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_sweeps < 1:
            raise ConfigurationError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}"
            )


class TwoSidedJacobiEVD:
    """Sequential cyclic two-sided Jacobi eigensolver.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.jacobi import TwoSidedJacobiEVD
    >>> B = np.array([[2.0, 1.0], [1.0, 2.0]])
    >>> result = TwoSidedJacobiEVD().decompose(B)
    >>> np.allclose(sorted(result.L), [1.0, 3.0])
    True
    """

    #: True when eliminations within a step may be applied concurrently.
    parallel_update = False

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
        for sweep_index in range(1, cfg.max_sweeps + 1):
            rotations = self._do_sweep(B, J, schedule, scale)
            off = symmetric_offdiagonal_cosine(B)
            trace.append(sweep_index, off, rotations)
            self.last_rotations += rotations
            if off < cfg.tol:
                return unshift_evd(_finalize_evd(B, J, trace), shift)
        raise ConvergenceError(
            f"two-sided Jacobi did not converge in {cfg.max_sweeps} sweeps "
            f"(residual {trace.records[-1].off_norm:.3e})",
            sweeps=cfg.max_sweeps,
            residual=trace.records[-1].off_norm,
        )

    def _do_sweep(
        self,
        B: np.ndarray,
        J: np.ndarray,
        schedule: list[list[tuple[int, int]]],
        scale: float,
    ) -> int:
        """One full sweep of sequential eliminations; returns rotation count.

        A pair rotates when its element is significant *relative to its own
        diagonal entries* (Rutishauser's criterion) — the condition that
        preserves the relative accuracy of small eigenvalues on graded
        matrices like Gram matrices.
        """
        cfg = self.config
        floor = np.finfo(np.float64).eps * scale
        rotations = 0
        for step in schedule:
            for i, j in step:
                bij = B[i, j]
                if not _should_rotate(B[i, i], B[j, j], bij, cfg.tol, floor):
                    continue
                c, s = twosided_rotation(B[i, i], B[j, j], bij)
                _rotate_symmetric_inplace(B, i, j, c, s)
                # Accumulate J <- J @ G (columns i, j of J rotate).
                ji = J[:, i].copy()
                jj = J[:, j]
                J[:, i] = c * ji + s * jj
                J[:, j] = -s * ji + c * jj
                rotations += 1
        return rotations


def _should_rotate(
    bii: float, bjj: float, bij: float, tol: float, floor: float
) -> bool:
    """Rutishauser threshold: rotate when ``|b_ij|`` is significant
    relative to ``sqrt(|b_ii b_jj|)`` (or to the absolute noise floor when
    the diagonals themselves vanish)."""
    mag = abs(bij)
    if mag <= floor:
        return False
    denom = np.sqrt(abs(bii * bjj))
    if denom <= floor:
        return True
    return mag > tol * denom


def _rotate_symmetric_inplace(
    B: np.ndarray, i: int, j: int, c: float, s: float
) -> None:
    """Apply the congruence ``B <- G.T @ B @ G`` for a Givens pair (i, j).

    Updates rows and columns ``i, j`` and forces the eliminated entries to
    exact zero so rounding cannot leave a residual that stalls convergence.
    """
    col_i = B[:, i].copy()
    col_j = B[:, j].copy()
    B[:, i] = c * col_i + s * col_j
    B[:, j] = -s * col_i + c * col_j
    row_i = B[i, :].copy()
    row_j = B[j, :].copy()
    B[i, :] = c * row_i + s * row_j
    B[j, :] = -s * row_i + c * row_j
    B[i, j] = 0.0
    B[j, i] = 0.0


def _finalize_evd(
    B: np.ndarray, J: np.ndarray, trace: ConvergenceTrace
) -> EVDResult:
    """:func:`~repro.jacobi.factors.finalize_evd_stack` of one matrix."""
    return finalize_evd_stack(B[None], J[None], (trace,))[0]
