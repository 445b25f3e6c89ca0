"""Jacobi rotation algorithms: the numerical heart of the library.

This package implements, in pure NumPy:

- plane-rotation primitives (paper Eqs. 3-4 and the two-sided variant),
- the one-sided Jacobi SVD with column *vector* rotations (§II-C) including
  the inner-product caching optimization (Eq. 6),
- the one-sided Jacobi SVD with column *block* rotations (Algorithm 1),
- the sequential two-sided Jacobi EVD (§II-D),
- the paper's parallelized two-sided Jacobi EVD kernel (§IV-C), and
- the batch-vectorized engine that runs either method across a stacked
  batch axis (:mod:`repro.jacobi.batched`).
"""

from repro.jacobi.batched import (
    BatchedJacobiEngine,
    StackedOneSidedJacobi,
    StackedParallelEVD,
)
from repro.jacobi.rotations import (
    apply_rotation_inplace,
    onesided_rotation,
    twosided_rotation,
)
from repro.jacobi.convergence import (
    gram_offdiagonal_cosine,
    offdiagonal_frobenius,
    orthogonality_residual,
)
from repro.jacobi.onesided_vector import OneSidedJacobiSVD, OneSidedConfig
from repro.jacobi.onesided_block import BlockJacobiSVD, BlockJacobiConfig
from repro.jacobi.preconditioning import worth_preconditioning
from repro.jacobi.twosided_evd import TwoSidedJacobiEVD, TwoSidedConfig
from repro.jacobi.parallel_evd import ParallelJacobiEVD

__all__ = [
    "BatchedJacobiEngine",
    "StackedOneSidedJacobi",
    "StackedParallelEVD",
    "apply_rotation_inplace",
    "onesided_rotation",
    "twosided_rotation",
    "gram_offdiagonal_cosine",
    "offdiagonal_frobenius",
    "orthogonality_residual",
    "OneSidedJacobiSVD",
    "OneSidedConfig",
    "BlockJacobiSVD",
    "BlockJacobiConfig",
    "TwoSidedJacobiEVD",
    "TwoSidedConfig",
    "ParallelJacobiEVD",
    "worth_preconditioning",
]
