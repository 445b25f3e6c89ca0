"""Equivalence of the batch-vectorized Jacobi engine with per-matrix solvers.

The engine's contract is that stacking the batch axis changes *nothing*
numerically: every matrix gets the same rotations, the same sweep counts,
and therefore (through the shape+sweep-based cost model) the same simulated
kernel statistics as a per-matrix solver loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import V100
from repro.gpusim.evd_kernel import BatchedEVDKernel, SMEVDKernelConfig
from repro.gpusim.svd_kernel import BatchedSVDKernel
from repro.errors import NonFiniteError, ShapeError
from repro.jacobi.batched import (
    BatchedJacobiEngine,
    StackedOneSidedJacobi,
    StackedParallelEVD,
)
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.parallel_evd import ParallelJacobiEVD
from repro.jacobi.twosided_evd import TwoSidedConfig, TwoSidedJacobiEVD
from repro.core.wcycle import WCycleSVD

from tests.helpers import EXTREME_SCALES, assert_valid_svd

TOL = 1e-12


def ragged_batch(rng) -> list[np.ndarray]:
    """Square / tall / wide / rank-deficient / repeated-shape matrices."""
    deficient = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 6))
    return [
        rng.standard_normal((8, 8)),       # square
        rng.standard_normal((16, 8)),      # tall
        rng.standard_normal((6, 14)),      # wide
        deficient,                          # rank 3 of 6
        rng.standard_normal((16, 8)),      # repeats the tall bucket
        rng.standard_normal((8, 8)),       # repeats the square bucket
    ]


def assert_svd_matches(res, ref) -> None:
    assert np.allclose(res.U, ref.U, rtol=0.0, atol=TOL)
    assert np.allclose(res.S, ref.S, rtol=0.0, atol=TOL)
    assert np.allclose(res.V, ref.V, rtol=0.0, atol=TOL)
    assert res.trace.sweeps == ref.trace.sweeps
    ours = [(r.off_norm, r.rotations) for r in res.trace.records]
    theirs = [(r.off_norm, r.rotations) for r in ref.trace.records]
    assert ours == theirs


class TestSVDEquivalence:
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("transpose", [True, False])
    def test_matches_scalar_solver_on_ragged_batch(self, rng, cache, transpose):
        config = OneSidedConfig(
            cache_inner_products=cache, transpose_wide=transpose
        )
        batch = ragged_batch(rng)
        results = BatchedJacobiEngine(config).svd_batch(batch)
        solver = OneSidedJacobiSVD(config)
        for a, res in zip(batch, results):
            assert_svd_matches(res, solver.decompose(a))

    def test_results_are_valid_svds(self, rng):
        batch = [b for b in ragged_batch(rng) if np.linalg.matrix_rank(b) == min(b.shape)]
        for a, res in zip(batch, BatchedJacobiEngine().svd_batch(batch)):
            assert_valid_svd(a, res)

    def test_batch_membership_does_not_change_results(self, rng):
        """A matrix factorizes identically alone and inside a big bucket."""
        a = rng.standard_normal((12, 6))
        rest = [rng.standard_normal((12, 6)) for _ in range(7)]
        engine = BatchedJacobiEngine()
        alone = engine.svd_batch([a])[0]
        together = engine.svd_batch([a, *rest])[0]
        assert np.array_equal(alone.U, together.U)
        assert np.array_equal(alone.S, together.S)
        assert np.array_equal(alone.V, together.V)

    def test_single_column_and_zero_matrix(self, rng):
        batch = [rng.standard_normal((5, 1)), np.zeros((4, 3))]
        solver = OneSidedJacobiSVD()
        for a, res in zip(batch, BatchedJacobiEngine().svd_batch(batch)):
            assert_svd_matches(res, solver.decompose(a))

    def test_dynamic_ordering_falls_back_to_scalar_loop(self, rng):
        config = OneSidedConfig(ordering="dynamic")
        batch = [rng.standard_normal((10, 6)) for _ in range(3)]
        results = BatchedJacobiEngine(config).svd_batch(batch)
        solver = OneSidedJacobiSVD(config)
        for a, res in zip(batch, results):
            assert_svd_matches(res, solver.decompose(a))


class TestEVDEquivalence:
    def _symmetric_batch(self, rng) -> list[np.ndarray]:
        out = []
        for k in (6, 9, 6, 12, 1):
            M = rng.standard_normal((k, k))
            out.append((M + M.T) / 2.0)
        out.append(np.zeros((5, 5)))
        return out

    def test_matches_parallel_solver(self, rng):
        batch = self._symmetric_batch(rng)
        results = BatchedJacobiEngine().evd_batch(batch)
        solver = ParallelJacobiEVD()
        for B, res in zip(batch, results):
            ref = solver.decompose(B)
            assert np.allclose(res.J, ref.J, rtol=0.0, atol=TOL)
            assert np.allclose(res.L, ref.L, rtol=0.0, atol=TOL)
            assert res.trace.sweeps == ref.trace.sweeps

    def test_sequential_variant_falls_back(self, rng):
        batch = self._symmetric_batch(rng)
        engine = BatchedJacobiEngine(parallel_evd=False)
        solver = TwoSidedJacobiEVD()
        for B, res in zip(batch, engine.evd_batch(batch)):
            ref = solver.decompose(B)
            assert np.allclose(res.J, ref.J, rtol=0.0, atol=TOL)
            assert np.allclose(res.L, ref.L, rtol=0.0, atol=TOL)


class TestNonFiniteStack:
    """A non-finite member raises in raise mode, named by its stack
    position: a NaN zeroes its pairs' cosines, so without the scan before
    the first sweep it would pass for converged."""

    def test_svd_stack(self, rng):
        stack = rng.standard_normal((3, 12, 6))
        stack[1, 4, 2] = np.nan
        with pytest.raises(NonFiniteError) as info:
            StackedOneSidedJacobi().solve_stack(stack)
        assert info.value.batch_indices == (1,)

    def test_evd_stack(self, rng):
        M = rng.standard_normal((3, 6, 6))
        stack = M + M.transpose(0, 2, 1)
        stack[1, 2, 3] = stack[1, 3, 2] = np.nan
        scales = np.linalg.norm(stack, axis=(1, 2))
        with pytest.raises(NonFiniteError) as info:
            StackedParallelEVD().solve_stack(stack, scales)
        assert info.value.batch_indices == (1,)


class TestStackInputs:
    """``solve_stack`` is public, so it checks its stack: a stack that is
    not 3-D, is empty or is complex raises, and another real dtype is
    swept as float64 (integer outputs came back truncated)."""

    def test_integer_svd_stack_is_swept_as_float64(self):
        stack = np.arange(24).reshape(2, 4, 3)
        W, V, _ = StackedOneSidedJacobi().solve_stack(stack)
        want = StackedOneSidedJacobi().solve_stack(stack.astype(np.float64))
        assert W.dtype == np.float64
        assert W.tobytes() == want[0].tobytes()
        assert V.tobytes() == want[1].tobytes()
        np.testing.assert_allclose(W[0, 0], [-1.2188, 0.0, 1.8747], atol=1e-4)

    def test_integer_evd_stack_is_swept_as_float64(self):
        stack = np.array([[[2, 1, 0], [1, 3, 1], [0, 1, 4]]])
        scales = np.linalg.norm(stack, axis=(1, 2))
        B, _, _ = StackedParallelEVD().solve_stack(stack, scales)
        np.testing.assert_allclose(
            np.sort(np.diag(B[0])), [3 - 3**0.5, 3.0, 3 + 3**0.5]
        )

    @pytest.mark.parametrize(
        "shape", [(4, 3), (1, 2, 4, 3), (0, 4, 3), (2, 0, 3), (2, 4, 0)]
    )
    def test_svd_stack_of_wrong_shape(self, shape):
        with pytest.raises(ShapeError):
            StackedOneSidedJacobi().solve_stack(np.ones(shape))

    @pytest.mark.parametrize(
        "shape", [(3, 3), (1, 2, 3, 3), (0, 3, 3), (2, 4, 3)]
    )
    def test_evd_stack_of_wrong_shape(self, shape):
        with pytest.raises(ShapeError):
            StackedParallelEVD().solve_stack(np.ones(shape), np.ones(2))

    def test_complex_stacks(self, rng):
        stack = rng.standard_normal((2, 3, 3)) * (1 + 1j)
        with pytest.raises(ShapeError, match="real"):
            StackedOneSidedJacobi().solve_stack(stack)
        with pytest.raises(ShapeError, match="real"):
            StackedParallelEVD().solve_stack(stack + stack.conj(), np.ones(2))

    def test_evd_scales_one_per_member(self):
        stack = np.stack([np.diag([2.0, 1.0, 3.0])] * 2)
        for scales in (np.ones(3), np.ones(1), 1.0):
            with pytest.raises(ShapeError, match="scales"):
                StackedParallelEVD().solve_stack(stack, scales)


def _column_norms(W):
    """Column norms of every member of ``W``, free of over- and underflow."""
    e = np.frexp(np.abs(W).max(axis=(1, 2)))[1][:, None]
    return np.ldexp(np.linalg.norm(np.ldexp(W, -e[:, :, None]), axis=1), e)


class TestStackScale:
    """A member far from scale 1 has squared column norms that over- or
    underflow; swept as is, it would stop after one sweep with its columns
    unrotated. ``solve_stack`` shifts such members itself."""

    @pytest.mark.parametrize("scale", EXTREME_SCALES, ids=lambda s: f"{s:g}")
    @pytest.mark.parametrize(
        "shape", [(16, 8), (32, 8)], ids=["plain", "qr-detour"]
    )
    def test_sigma_from_w_matches_lapack(self, rng, scale, shape):
        stack = rng.standard_normal((2, *shape)) * scale
        W, _, traces = StackedOneSidedJacobi().solve_stack(stack)
        sigma = -np.sort(-_column_norms(W), axis=1)
        ref = np.linalg.svd(stack, compute_uv=False)
        err = np.abs(sigma - ref).max(axis=1) / ref[:, 0]
        assert (err <= 1e-12).all(), (err, [t.sweeps for t in traces])

    def test_in_window_members_keep_their_bytes(self, rng):
        stack = rng.standard_normal((2, 16, 8))
        alone = StackedOneSidedJacobi().solve_stack(stack[:1])
        stack[1] *= 1e200
        mixed = StackedOneSidedJacobi().solve_stack(stack)
        assert mixed[0][0].tobytes() == alone[0][0].tobytes()
        assert mixed[1][0].tobytes() == alone[1][0].tobytes()


def test_stacks_with_no_pair_are_returned_as_is(rng):
    """Fewer than two columns leave no pair to rotate: no sweep runs."""
    stack = rng.standard_normal((2, 5, 1))
    W, V, traces = StackedOneSidedJacobi().solve_stack(stack)
    assert W.tobytes() == stack.tobytes()
    assert (V == 1.0).all() and [t.sweeps for t in traces] == [0, 0]
    stack = rng.standard_normal((2, 1, 1))
    B, J, traces = StackedParallelEVD().solve_stack(stack, abs(stack[:, 0, 0]))
    assert B.tobytes() == stack.tobytes()
    assert (J == 1.0).all() and [t.sweeps for t in traces] == [0, 0]


class TestKernelStatsUnchanged:
    """The cost model prices shapes + observed sweeps; since the engine
    reproduces per-matrix sweep counts exactly, kernel statistics must be
    identical to the seed's per-matrix-loop implementation."""

    def test_svd_kernel_sweeps_match_solver_loop(self, rng):
        kernel = BatchedSVDKernel(V100)
        batch = [rng.standard_normal((16, 8)) for _ in range(6)]
        results, stats = kernel.run(batch)
        cfg = kernel.config
        solver = OneSidedJacobiSVD(
            OneSidedConfig(
                tol=cfg.tol,
                max_sweeps=cfg.max_sweeps,
                ordering=cfg.ordering,
                cache_inner_products=cfg.cache_inner_products,
                transpose_wide=cfg.transpose_wide,
            )
        )
        for a, res in zip(batch, results):
            assert_svd_matches(res, solver.decompose(a))
        assert stats.blocks == len(batch)

    def test_svd_kernel_stats_deterministic(self, rng):
        batch = [rng.standard_normal((12, 6)) for _ in range(4)]
        s1 = BatchedSVDKernel(V100).run(batch)[1]
        s2 = BatchedSVDKernel(V100).run(batch)[1]
        assert s1 == s2

    def test_evd_kernel_sweeps_match_solver_loop(self, rng):
        kernel = BatchedEVDKernel(V100, SMEVDKernelConfig())
        batch = []
        for k in (8, 12, 8):
            M = rng.standard_normal((k, k))
            batch.append((M + M.T) / 2.0)
        results, stats = kernel.run(batch)
        solver = ParallelJacobiEVD(
            TwoSidedConfig(
                tol=kernel.config.tol,
                max_sweeps=kernel.config.max_sweeps,
                ordering=kernel.config.ordering,
            )
        )
        for B, res in zip(batch, results):
            ref = solver.decompose(B)
            assert res.trace.sweeps == ref.trace.sweeps
            assert np.allclose(res.L, ref.L, rtol=0.0, atol=TOL)
        assert stats.blocks == len(batch)


class TestWCycleCaching:
    def test_kernels_constructed_once(self, rng):
        solver = WCycleSVD(device="V100")
        batch = [rng.standard_normal((96, 64))]
        solver.decompose_batch(batch)
        svd_kernel = solver._svd_kernel()
        evd_kernel = solver._evd_kernel()
        solver.decompose_batch(batch)
        assert solver._svd_kernel() is svd_kernel
        assert solver._evd_kernel() is evd_kernel

    def test_level_plans_memoized_per_geometry(self, rng):
        solver = WCycleSVD(device="V100")
        a = rng.standard_normal((96, 64))
        solver.decompose_batch([a])
        keys = set(solver._plan_cache)
        assert keys  # the 96x64 matrix goes through the level path
        plans = {k: solver._plan_cache[k] for k in keys}
        gemms = dict(solver._gemm_cache)
        solver.decompose_batch([a])
        # Same geometry: no new entries, and the cached objects are reused.
        assert set(solver._plan_cache) == keys
        for k in keys:
            assert solver._plan_cache[k] is plans[k]
        for k, g in gemms.items():
            assert solver._gemm_cache[k] is g

    def test_repeat_solve_is_bit_identical(self, rng):
        solver = WCycleSVD(device="V100")
        batch = [rng.standard_normal((96, 64)), rng.standard_normal((64, 48))]
        first = solver.decompose_batch(batch)
        second = solver.decompose_batch(batch)
        for r1, r2 in zip(first.results, second.results):
            assert np.array_equal(r1.U, r2.U)
            assert np.array_equal(r1.S, r2.S)
            assert np.array_equal(r1.V, r2.V)

    def test_cached_driver_produces_valid_factorizations(self, rng):
        solver = WCycleSVD(device="V100")
        for _ in range(2):
            a = rng.standard_normal((80, 56))
            assert_valid_svd(a, solver.decompose(a))
