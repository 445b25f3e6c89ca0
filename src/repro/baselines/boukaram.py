"""Modeled Boukaram et al. [19] batched SVD kernels (paper Table IV).

Reference [19] ("Batched QR and SVD algorithms on GPUs...") contributes two
batched double-precision SVD kernels that the paper treats as the prior
state of the art:

- **Batched_DP_Direct** — batched one-sided Jacobi applied directly to the
  matrices in global memory with register blocking: good occupancy (it is
  genuinely batched, unlike cuSOLVER's serial fallback) but no shared-memory
  residency of the working set and a uniform single-level schedule.
- **Batched_DP_Gram** — forms the Gram matrix once, runs the Jacobi EVD on
  it, and recovers the left vectors as ``A V Σ^{-1}``; cheaper for tall
  matrices (the Gram is ``n x n``) at the price of squaring the condition
  number.

Both are real algorithms here: ``decompose`` produces true factorizations
with the corresponding numerics, ``estimate_batch`` the cost profile.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.counters import Profiler, ProfileReport
from repro.gpusim.device import DeviceSpec, get_device
from repro.gpusim.launch import LaunchConfig, simulate_launch
from repro.gpusim.memory import FLOAT64_BYTES
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.parallel_evd import ParallelJacobiEVD
from repro.jacobi.preconditioning import safe_exponent, unshift
from repro.jacobi.sweep_model import predict_sweeps_twosided, predict_sweeps_vector
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.types import ConvergenceTrace, SVDResult
from repro.utils.validation import as_matrix

__all__ = ["BatchedDPDirect", "BatchedDPGram"]


class BatchedDPDirect:
    """Batched one-sided Jacobi in global memory (uniform, single-level)."""

    kernel_name = "batched_dp_direct"

    def __init__(self, device: str | DeviceSpec = "P100") -> None:
        self.device = get_device(device)

    def decompose(self, A: np.ndarray) -> SVDResult:
        """Real math: plain one-sided Jacobi (no caching, no transpose)."""
        solver = OneSidedJacobiSVD(
            OneSidedConfig(cache_inner_products=False, transpose_wide=False)
        )
        return solver.decompose(A)

    def decompose_batch(self, matrices: list[np.ndarray]) -> list[SVDResult]:
        return [self.decompose(A) for A in matrices]

    def estimate_batch(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
        profiler: Profiler | None = None,
    ) -> ProfileReport:
        """One batched launch per sweep step; the working set streams
        through global memory (no SM residency)."""
        if not shapes:
            raise ConfigurationError("batch must not be empty")
        if conditions is None:
            conditions = [None] * len(shapes)  # type: ignore[list-item]
        report = ProfileReport()
        n_star = max(n for _, n in shapes)
        sweeps = max(
            predict_sweeps_vector(n, c) for (_, n), c in zip(shapes, conditions)
        )
        steps = n_star - 1 if n_star % 2 == 0 else n_star
        flops = 0.0
        gm_bytes = 0.0
        for m, n in shapes:
            pairs = max(1, n // 2)
            per_pair = 18.0 * m + 6.0 * n  # 3 GM dots + column + V updates
            flops += pairs * per_pair
            gm_bytes += pairs * (6.0 * m + 4.0 * n) * FLOAT64_BYTES
        blocks = len(shapes) * max(1, n_star // 2 * 32 // 256)
        step_stats = simulate_launch(
            self.device,
            LaunchConfig(
                kernel=self.kernel_name,
                blocks=blocks,
                threads_per_block=256,
                shared_bytes_per_block=8 * 1024,
                flops=flops,
                gm_bytes=gm_bytes,
                intra_efficiency=0.6,
            ),
        )
        report.add(step_stats.repeated(max(1, sweeps * steps)))
        if profiler is not None:
            for stats in report.launches:
                profiler.record(stats)
        return report

    def estimate_time(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
    ) -> float:
        return self.estimate_batch(shapes, conditions=conditions).total_time


class BatchedDPGram:
    """Gram-matrix batched SVD: EVD of ``A.T A`` plus vector recovery."""

    kernel_name = "batched_dp_gram"

    def __init__(self, device: str | DeviceSpec = "P100") -> None:
        self.device = get_device(device)

    def decompose(self, A: np.ndarray) -> SVDResult:
        """Real math: Jacobi EVD of the Gram matrix, ``U = A V Σ^{-1}``.

        Note the squared condition number: singular values below
        ``sqrt(eps) * s_max`` lose all relative accuracy — the accuracy
        deficit versus one-sided methods that Table IV's source discusses.
        Inputs beyond ``2^±200`` are solved as an exact power-of-two
        rescaling, so the Gram neither overflows nor underflows.
        """
        A = as_matrix(A)
        shift = safe_exponent(A)
        if shift:
            A = np.ldexp(A, -shift)
        m, n = A.shape
        B = A.T @ A
        B = (B + B.T) / 2.0
        evd = ParallelJacobiEVD(TwoSidedConfig()).decompose(B)
        # Faithful to the method: sigma = sqrt(eigenvalues of the Gram),
        # U = A V / sigma. Eigenvalues below the Gram's noise floor
        # (eps * s_max^2) are exactly where the relative accuracy dies.
        eigvals = np.clip(evd.L, 0.0, None)
        sigma = np.sqrt(eigvals)
        V = evd.J
        r = min(m, n)
        sigma, V = sigma[:r], V[:, :r]
        cutoff = np.finfo(np.float64).eps * max(m, n) * (
            sigma[0] if sigma.size else 0.0
        )
        U = np.zeros((m, r))
        nonzero = sigma > cutoff
        U[:, nonzero] = (A @ V[:, nonzero]) / sigma[nonzero]
        if not nonzero.all():
            from repro.jacobi.factors import complete_orthonormal

            complete_orthonormal(U, nonzero)
            sigma = np.where(nonzero, sigma, 0.0)
        trace = evd.trace if evd.trace is not None else ConvergenceTrace()
        return unshift(SVDResult(U=U, S=sigma, V=V, trace=trace), shift)

    def decompose_batch(self, matrices: list[np.ndarray]) -> list[SVDResult]:
        return [self.decompose(A) for A in matrices]

    def estimate_batch(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
        profiler: Profiler | None = None,
    ) -> ProfileReport:
        if not shapes:
            raise ConfigurationError("batch must not be empty")
        if conditions is None:
            conditions = [None] * len(shapes)  # type: ignore[list-item]
        report = ProfileReport()
        # Phase 1: batched Gram GEMM.
        gram_flops = sum(2.0 * m * n * n for m, n in shapes)
        gram_bytes = sum((m * n + n * n) * FLOAT64_BYTES for m, n in shapes)
        report.add(
            simulate_launch(
                self.device,
                LaunchConfig(
                    kernel=f"{self.kernel_name}_gram",
                    blocks=len(shapes) * 4,
                    threads_per_block=256,
                    shared_bytes_per_block=16 * 1024,
                    flops=gram_flops,
                    gm_bytes=gram_bytes,
                    intra_efficiency=0.85,
                    is_gemm=True,
                ),
            )
        )
        # Phase 2: batched in-GM Jacobi EVD on the n x n Grams. The squared
        # conditioning slows convergence relative to the one-sided method.
        n_star = max(n for _, n in shapes)
        steps = n_star - 1 if n_star % 2 == 0 else n_star
        sweeps = max(
            predict_sweeps_twosided(n, None if c is None else c * c)
            for (_, n), c in zip(shapes, conditions)
        )
        # In-GM parallel EVD: every step rewrites all n^2 elements of B
        # (row and column passes) and the rotated J columns, all from
        # global memory.
        evd_flops = sum(9.0 * n * n + 6.0 * n * (n // 2) for _, n in shapes)
        evd_bytes = sum(6.0 * n * n * FLOAT64_BYTES for _, n in shapes)
        report.add(
            simulate_launch(
                self.device,
                LaunchConfig(
                    kernel=f"{self.kernel_name}_evd",
                    blocks=len(shapes) * max(1, n_star // 64),
                    threads_per_block=256,
                    shared_bytes_per_block=8 * 1024,
                    flops=evd_flops,
                    gm_bytes=evd_bytes,
                    intra_efficiency=0.5,
                ),
            ).repeated(max(1, sweeps * steps))
        )
        # Phase 3: U recovery GEMM.
        rec_flops = sum(2.0 * m * n * n for m, n in shapes)
        rec_bytes = sum((2.0 * m * n + n * n) * FLOAT64_BYTES for m, n in shapes)
        report.add(
            simulate_launch(
                self.device,
                LaunchConfig(
                    kernel=f"{self.kernel_name}_recover",
                    blocks=len(shapes) * 4,
                    threads_per_block=256,
                    shared_bytes_per_block=16 * 1024,
                    flops=rec_flops,
                    gm_bytes=rec_bytes,
                    intra_efficiency=0.85,
                    is_gemm=True,
                ),
            )
        )
        if profiler is not None:
            for stats in report.launches:
                profiler.record(stats)
        return report

    def estimate_time(
        self,
        shapes: list[tuple[int, int]],
        *,
        conditions: list[float] | None = None,
    ) -> float:
        return self.estimate_batch(shapes, conditions=conditions).total_time
