"""One-sided Jacobi SVD with column *block* rotations (paper Algorithm 1).

The matrix is split into column blocks of width ``w``; a sweep orthogonalizes
every pair of blocks. For each pair ``A_ij = [A_i, A_j]`` the rotation
``J_ij`` is obtained either from the EVD of the Gram matrix
``B_ij = A_ij.T @ A_ij`` (Algorithm 1, line 5-6) or — using Theorem 1 —
directly from the SVD of ``A_ij`` (Observation 1), skipping the Gram GEMM.

This module is the single-level reference; the W-cycle driver in
:mod:`repro.core.wcycle` recurses through levels of shrinking widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.jacobi.convergence import gram_offdiagonal_cosine
from repro.jacobi.factors import complete_square_orthogonal, finalize_onesided
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.parallel_evd import ParallelJacobiEVD
from repro.jacobi.preconditioning import safe_exponent, unshift
from repro.jacobi.twosided_evd import TwoSidedConfig, TwoSidedJacobiEVD
from repro.orderings import Ordering, get_ordering
from repro.types import ConvergenceTrace, SVDResult
from repro.utils.validation import as_matrix

__all__ = ["BlockJacobiConfig", "BlockJacobiSVD", "column_blocks"]


def column_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """Split ``n`` columns into blocks of ``width`` as (start, stop) ranges.

    The final block absorbs the remainder when ``width`` does not divide
    ``n`` (it may be narrower than ``width`` but never empty).
    """
    if width < 1:
        raise ConfigurationError(f"block width must be >= 1, got {width}")
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    edges = list(range(0, n, width)) + [n]
    return [(edges[k], edges[k + 1]) for k in range(len(edges) - 1)]


@dataclass(frozen=True)
class BlockJacobiConfig:
    """Configuration of the block one-sided Jacobi SVD.

    Attributes
    ----------
    width:
        Column-block width ``w`` (paper: ``1 < w <= n/2``; widths that leave
        a single block degrade to the vector method on the whole matrix).
    rotation_source:
        ``"gram-evd"`` derives ``J_ij`` from the EVD of ``B_ij`` (Algorithm
        1); ``"direct-svd"`` uses the SVD of ``A_ij`` (Observation 1).
    parallel_evd:
        Use the parallel EVD kernel rather than the sequential reference.
    tol / max_sweeps / ordering:
        Outer-sweep convergence control. The default outer tolerance is
        1e-12 (the paper's accuracy criterion): inner EVD/SVD solves leave
        O(n*eps) residual in the off-diagonal cosines, so demanding 1e-14
        at the block level can stall one ulp short of the target.
    inner_tol:
        Tolerance for the inner EVD/SVD that produces each ``J_ij``.
    """

    width: int = 8
    rotation_source: str = "gram-evd"
    parallel_evd: bool = True
    tol: float = 1e-12
    max_sweeps: int = 60
    ordering: str = "round-robin"
    inner_tol: float = 1e-14
    inner_max_sweeps: int = 60

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigurationError(f"width must be >= 1, got {self.width}")
        if self.rotation_source not in ("gram-evd", "direct-svd"):
            raise ConfigurationError(
                "rotation_source must be 'gram-evd' or 'direct-svd', "
                f"got {self.rotation_source!r}"
            )
        if not (0.0 < self.tol < 1.0):
            raise ConfigurationError(f"tol must be in (0, 1), got {self.tol}")
        if self.max_sweeps < 1:
            raise ConfigurationError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}"
            )


@dataclass
class _BlockStats:
    """Work counters for one decompose() call."""

    block_rotations: int = 0
    gram_gemms: int = 0
    update_gemms: int = 0
    inner_svd_calls: int = 0
    inner_evd_calls: int = 0


class BlockJacobiSVD:
    """Single-matrix block one-sided Jacobi SVD (Algorithm 1).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.jacobi import BlockJacobiSVD, BlockJacobiConfig
    >>> rng = np.random.default_rng(7)
    >>> A = rng.standard_normal((12, 8))
    >>> solver = BlockJacobiSVD(BlockJacobiConfig(width=2))
    >>> res = solver.decompose(A)
    >>> float(res.reconstruction_error(A)) < 1e-10
    True
    """

    def __init__(self, config: BlockJacobiConfig | None = None) -> None:
        self.config = config or BlockJacobiConfig()
        self._ordering: Ordering = get_ordering(self.config.ordering)
        self.last_stats = _BlockStats()

    def decompose(self, A: np.ndarray) -> SVDResult:
        """Compute the thin SVD ``A = U @ diag(S) @ V.T``.

        Inputs whose largest entry is beyond ``2^±200`` are swept as an
        exact power-of-two rescaling, so the Gram products stay finite
        and normal; only ``S`` is scaled back.
        """
        A = as_matrix(A)
        shift = safe_exponent(A)
        if shift:
            A = np.ldexp(A, -shift)
        cfg = self.config
        m, n = A.shape
        work = A.copy()
        self.last_stats = _BlockStats()
        blocks = column_blocks(n, cfg.width)
        trace = ConvergenceTrace()
        V = np.eye(n)
        if len(blocks) < 2:
            # Single block: the block method degenerates to the vector
            # method over the whole matrix.
            inner = OneSidedJacobiSVD(
                OneSidedConfig(
                    tol=cfg.tol,
                    max_sweeps=cfg.max_sweeps,
                    ordering=cfg.ordering,
                    transpose_wide=False,
                )
            )
            return unshift(inner.decompose(A), shift)
        schedule = self._ordering.sweep(len(blocks))
        for sweep_index in range(1, cfg.max_sweeps + 1):
            rotations = self._do_sweep(work, V, blocks, schedule)
            off = gram_offdiagonal_cosine(work)
            trace.append(sweep_index, off, rotations)
            if off < cfg.tol:
                return unshift(self._finalize(work, V, trace), shift)
        raise ConvergenceError(
            f"block Jacobi (w={cfg.width}) did not converge in "
            f"{cfg.max_sweeps} sweeps "
            f"(residual {trace.records[-1].off_norm:.3e})",
            sweeps=cfg.max_sweeps,
            residual=trace.records[-1].off_norm,
        )

    # ------------------------------------------------------------------

    def _do_sweep(
        self,
        work: np.ndarray,
        V: np.ndarray,
        blocks: list[tuple[int, int]],
        schedule: list[list[tuple[int, int]]],
    ) -> int:
        rotations = 0
        for step in schedule:
            for bi, bj in step:
                self._rotate_block_pair(work, V, blocks[bi], blocks[bj])
                rotations += 1
        self.last_stats.block_rotations += rotations
        return rotations

    def _rotate_block_pair(
        self,
        work: np.ndarray,
        V: np.ndarray,
        range_i: tuple[int, int],
        range_j: tuple[int, int],
    ) -> None:
        """Orthogonalize column blocks ``range_i`` and ``range_j`` of work."""
        cols = np.r_[slice(*range_i), slice(*range_j)]
        Aij = work[:, cols]
        J = self.rotation_for_pair(Aij)
        # Update the data columns and the accumulated right vectors with the
        # same rotation (the second batched GEMM of §IV-D).
        work[:, cols] = Aij @ J
        V[:, cols] = V[:, cols] @ J
        self.last_stats.update_gemms += 1

    def rotation_for_pair(self, Aij: np.ndarray) -> np.ndarray:
        """Compute the orthogonal rotation ``J_ij`` for a joined pair.

        Dispatches on ``rotation_source``: the Gram-EVD path performs the
        GEMM ``B_ij = A_ij.T A_ij`` then diagonalizes; the direct path runs
        the vector one-sided Jacobi on ``A_ij`` and returns its ``V``
        (Theorem 1: identical up to column order/sign).
        """
        cfg = self.config
        if cfg.rotation_source == "gram-evd":
            B = Aij.T @ Aij
            B = (B + B.T) / 2.0
            self.last_stats.gram_gemms += 1
            self.last_stats.inner_evd_calls += 1
            evd_cfg = TwoSidedConfig(
                tol=cfg.inner_tol,
                max_sweeps=cfg.inner_max_sweeps,
                ordering=cfg.ordering,
            )
            solver = (
                ParallelJacobiEVD(evd_cfg)
                if cfg.parallel_evd
                else TwoSidedJacobiEVD(evd_cfg)
            )
            return solver.decompose(B).J
        self.last_stats.inner_svd_calls += 1
        inner = OneSidedJacobiSVD(
            OneSidedConfig(
                tol=cfg.inner_tol,
                max_sweeps=cfg.inner_max_sweeps,
                ordering=cfg.ordering,
                transpose_wide=False,
            )
        )
        result = inner.decompose(Aij)
        V = result.V
        k = Aij.shape[1]
        if V.shape[1] < k:
            # Thin SVD of a tall pair returns k columns already; this branch
            # guards the (m < 2w) corner where the thin rank is m.
            V = complete_square_orthogonal(V, k)
        return V

    def _finalize(
        self, work: np.ndarray, V: np.ndarray, trace: ConvergenceTrace
    ) -> SVDResult:
        return finalize_onesided(work, V, trace)
