"""Fused sweep executors vs the reference Python step loop.

The fused executors of :mod:`repro.jacobi.fused` (pair-adjacent gather
plans, the odd-even zero-gather specialization, and the Gram-cache path)
promise the *same arithmetic in the same order* as the per-step loop
wherever the reduction grouping is unchanged — so the contract tested
here is bitwise equality, not ``allclose``. The Gram-cache path changes
how inner products are produced and is held to the accuracy contract
instead.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.jacobi.batched import (
    BatchedJacobiEngine,
    StackedOneSidedJacobi,
    StackedParallelEVD,
    _compact_rows,
)
from repro.jacobi.fused import (
    KernelTimes,
    ScratchPool,
    cached_step_arrays,
    sweep_plan,
)
from repro.jacobi.onesided_vector import OneSidedConfig
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.orderings import get_ordering
from repro.types import ConvergenceTrace

ORDERINGS = ["round-robin", "odd-even", "ring"]

#: Stack shapes covering even/odd n, b == 1, square, and tall-thin.
SVD_STACK_SHAPES = [(3, 16, 8), (2, 12, 7), (1, 9, 5), (4, 6, 6), (2, 8, 2)]

EVD_STACK_SIZES = [(3, 6), (2, 5), (1, 4), (2, 3), (3, 2)]


def _svd_stack(rng, shape):
    return rng.standard_normal(shape)


def _evd_stack(rng, b, k):
    M = rng.standard_normal((b, k, k))
    return M + M.transpose(0, 2, 1)


def _traces_equal(got, want):
    return [
        [(r.sweep, r.off_norm, r.rotations) for r in t.records] for t in got
    ] == [
        [(r.sweep, r.off_norm, r.rotations) for r in t.records] for t in want
    ]


class TestSVDBitwiseEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("shape", SVD_STACK_SHAPES)
    def test_fused_matches_step_loop(self, rng, ordering, cache, shape):
        stack = _svd_stack(rng, shape)
        fused_cfg = OneSidedConfig(
            ordering=ordering, cache_inner_products=cache, fused_sweeps=True
        )
        loop_cfg = OneSidedConfig(
            ordering=ordering, cache_inner_products=cache, fused_sweeps=False
        )
        Wf, Vf, tf = StackedOneSidedJacobi(fused_cfg).solve_stack(stack.copy())
        Wl, Vl, tl = StackedOneSidedJacobi(loop_cfg).solve_stack(stack.copy())
        assert Wf.tobytes() == Wl.tobytes()
        assert Vf.tobytes() == Vl.tobytes()
        assert _traces_equal(tf, tl)

    def test_ordering_instance_accepted(self, rng):
        """Plans build from Ordering objects, not just registry names."""
        stack = _svd_stack(rng, (2, 10, 6))
        cfg = OneSidedConfig(ordering="ring")
        inst_cfg = OneSidedConfig(ordering=get_ordering("ring"))
        Wa, Va, _ = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        Wb, Vb, _ = StackedOneSidedJacobi(inst_cfg).solve_stack(stack.copy())
        assert Wa.tobytes() == Wb.tobytes()
        assert Va.tobytes() == Vb.tobytes()

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_report_mode_dropout_matches(self, rng, ordering):
        """A NaN-poisoned matrix drops out identically on both paths and
        cannot perturb the survivors."""
        stack = _svd_stack(rng, (4, 12, 6))
        stack[2, 3, 1] = np.nan
        out = {}
        for fused in (True, False):
            cfg = OneSidedConfig(ordering=ordering, fused_sweeps=fused)
            out[fused] = StackedOneSidedJacobi(cfg).solve_stack(
                stack.copy(), on_failure="report"
            )
        Wf, Vf, tf, ff = out[True]
        Wl, Vl, tl, fl = out[False]
        assert [i for i, _ in ff] == [i for i, _ in fl] == [2]
        assert np.isnan(Wf[2]).all() and np.isnan(Wl[2]).all()
        assert Wf.tobytes() == Wl.tobytes()
        assert Vf.tobytes() == Vl.tobytes()
        assert _traces_equal(tf, tl)

    def test_trivial_n1_stack(self, rng):
        stack = _svd_stack(rng, (3, 5, 1))
        cfg = OneSidedConfig()
        W, V, traces = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        assert W.tobytes() == stack.tobytes()
        assert all(len(t) == 0 for t in traces)

    def test_engine_batch_matches_loop_engine(self, rng):
        """End to end through the engine: ragged batch with wide (m < n)
        matrices, fused default vs step-loop opt-out, bit-identical."""
        batch = [
            rng.standard_normal((16, 8)),
            rng.standard_normal((6, 14)),  # wide: transposed before stacking
            rng.standard_normal((8, 8)),
            rng.standard_normal((16, 8)),
        ]
        fused = BatchedJacobiEngine(OneSidedConfig()).svd_batch(batch)
        loop = BatchedJacobiEngine(
            OneSidedConfig(fused_sweeps=False)
        ).svd_batch(batch)
        for a, b in zip(fused, loop):
            assert a.U.tobytes() == b.U.tobytes()
            assert a.S.tobytes() == b.S.tobytes()
            assert a.V.tobytes() == b.V.tobytes()


class TestEVDBitwiseEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("size", EVD_STACK_SIZES)
    def test_fused_matches_step_loop(self, rng, ordering, size):
        b, k = size
        stack = _evd_stack(rng, b, k)
        scales = np.linalg.norm(stack, axis=(1, 2))
        fused_cfg = TwoSidedConfig(ordering=ordering, fused_sweeps=True)
        loop_cfg = TwoSidedConfig(ordering=ordering, fused_sweeps=False)
        Bf, Jf, tf = StackedParallelEVD(fused_cfg).solve_stack(
            stack.copy(), scales
        )
        Bl, Jl, tl = StackedParallelEVD(loop_cfg).solve_stack(
            stack.copy(), scales
        )
        assert Bf.tobytes() == Bl.tobytes()
        assert Jf.tobytes() == Jl.tobytes()
        assert _traces_equal(tf, tl)

    def test_report_mode_dropout_matches(self, rng):
        stack = _evd_stack(rng, 3, 6)
        stack[1] = np.nan
        scales = np.where(
            np.isfinite(np.linalg.norm(stack, axis=(1, 2))),
            np.linalg.norm(stack, axis=(1, 2)),
            1.0,
        )
        out = {}
        for fused in (True, False):
            cfg = TwoSidedConfig(fused_sweeps=fused)
            out[fused] = StackedParallelEVD(cfg).solve_stack(
                stack.copy(), scales, on_failure="report"
            )
        Bf, Jf, tf, ff = out[True]
        Bl, Jl, tl, fl = out[False]
        assert [i for i, _ in ff] == [i for i, _ in fl] == [1]
        assert Bf.tobytes() == Bl.tobytes()
        assert Jf.tobytes() == Jl.tobytes()
        assert _traces_equal(tf, tl)


def _evd_signed_zero_inputs(k):
    """Symmetric inputs holding exact ``0.0`` and ``-0.0`` entries."""
    diag = np.diag(np.arange(1.0, k + 1))
    diag[1, 1] = -0.0
    diag[3, 3] = 0.0
    diag[0, 2] = diag[2, 0] = -0.0
    zero_col = np.diag(np.arange(1.0, k + 1))
    zero_col[0, 1] = zero_col[1, 0] = 0.5
    zero_col[:, k - 1] = 0.0
    zero_col[k - 1, :] = 0.0
    A = np.arange(1.0, 3 * k + 1).reshape(3, k) % 7 - 3
    A[:, 1] = 0.0
    return {"diagonal": diag, "zero-column": zero_col, "gram": A.T @ A}


def _svd_signed_zero_inputs(m, n):
    """Inputs with orthogonal or block-orthogonal columns, or a zero one."""
    orth = np.zeros((m, n))
    orth[np.arange(n), np.arange(n)] = np.arange(1.0, n + 1)
    orth[n, 0] = -0.0
    orth[2, 1] = -0.0
    block = np.zeros((m, n))
    block[:3, 0] = [1.0, 2.0, 3.0]
    block[:3, 1] = [2.0, -1.0, 0.5]
    block[3:6, 2] = [1.0, 1.0, -2.0]
    block[3:6, 3] = [0.5, -0.0, 1.0]
    zero_col = np.arange(1.0, m * n + 1).reshape(m, n) % 5 - 2
    zero_col[:, 2] = 0.0
    return {"orthogonal": orth, "block": block, "zero-column": zero_col}


def _solve_evd_both(stack, ordering):
    scales = np.linalg.norm(stack, axis=(1, 2))
    return [
        StackedParallelEVD(
            TwoSidedConfig(ordering=ordering, fused_sweeps=fused)
        ).solve_stack(stack.copy(), scales)
        for fused in (True, False)
    ]


class TestSignedZeros:
    """Signed zeros through the fused passes.

    Einsum contractions start from a zero accumulator, so a rotated entry
    whose products are both ``-0.0`` comes out ``+0.0``; the elementwise
    EVD column pass adds ``+ 0.0`` to match. On these inputs that rule
    never decides a sign, and the fused output is byte-equal to the loop.
    """

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_evd_matches_step_loop(self, ordering, k):
        inputs = _evd_signed_zero_inputs(k)
        for name, B in inputs.items():
            (Bf, Jf, tf), (Bl, Jl, tl) = _solve_evd_both(B[None], ordering)
            assert Bf.tobytes() == Bl.tobytes(), name
            assert Jf.tobytes() == Jl.tobytes(), name
            assert _traces_equal(tf, tl), name

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("shape", [(8, 4), (9, 5), (10, 6)])
    def test_svd_matches_step_loop(self, ordering, cache, shape):
        stack = np.stack(list(_svd_signed_zero_inputs(*shape).values()))
        out = [
            StackedOneSidedJacobi(
                OneSidedConfig(
                    ordering=ordering,
                    cache_inner_products=cache,
                    fused_sweeps=fused,
                )
            ).solve_stack(stack.copy())
            for fused in (True, False)
        ]
        (Wf, Vf, tf), (Wl, Vl, tl) = out
        assert Wf.tobytes() == Wl.tobytes()
        assert Vf.tobytes() == Vl.tobytes()
        assert _traces_equal(tf, tl)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_rotated_negative_zeros_come_out_positive(self, ordering, k):
        """A ``-0.0`` row and column: the loop's ``c x0 + s x1`` keeps
        ``-0.0`` where the fused passes give ``+0.0``. Values, ``J`` and
        traces still match the loop; the fused ``B`` holds no negative
        zero off the diagonal (dropping the ``+ 0.0`` leaves some)."""
        B = np.diag(np.arange(1.0, k + 1))
        B[0, 1] = B[1, 0] = 0.5
        B[:, k - 1] = -0.0
        B[k - 1, :] = -0.0
        (Bf, Jf, tf), (Bl, Jl, tl) = _solve_evd_both(B[None], ordering)
        assert np.array_equal(Bf, Bl)
        assert Jf.tobytes() == Jl.tobytes()
        assert _traces_equal(tf, tl)
        off = ~np.eye(k, dtype=bool)
        assert not np.signbit(Bf[0][off]).any()
        assert np.signbit(Bl[0][off]).any()


class TestGramCache:
    def test_requires_inner_product_cache(self):
        with pytest.raises(ConfigurationError):
            OneSidedConfig(gram_cache=True, cache_inner_products=False)

    def test_wcycle_config_mirrors_validation(self):
        from repro.core.wcycle import WCycleConfig

        with pytest.raises(ConfigurationError):
            WCycleConfig(gram_cache=True, cache_inner_products=False)

    def test_wcycle_accepts_gram_cache(self, rng):
        from repro import WCycleSVD
        from repro.core.wcycle import WCycleConfig

        A = rng.standard_normal((24, 12))
        res = WCycleSVD(WCycleConfig(gram_cache=True)).decompose(A)
        assert res.reconstruction_error(A) < 1e-12

    def test_accuracy_contract(self, rng):
        """The Gram path is not bit-identical to the loop, but it must
        meet the same accuracy contract as the reference solver."""
        batch = [
            rng.standard_normal((24, 8)),
            rng.standard_normal((64, 12)),
            rng.standard_normal((16, 16)),
        ]
        engine = BatchedJacobiEngine(OneSidedConfig(gram_cache=True))
        results = engine.svd_batch(batch)
        for A, res in zip(batch, results):
            assert res.reconstruction_error(A) < 1e-12
            want = np.linalg.svd(A, compute_uv=False)
            np.testing.assert_allclose(res.S, want, rtol=0.0, atol=1e-10)
            r = min(A.shape)
            np.testing.assert_allclose(
                res.U.T @ res.U, np.eye(r), rtol=0.0, atol=1e-12
            )
            np.testing.assert_allclose(
                res.V.T @ res.V, np.eye(r), rtol=0.0, atol=1e-12
            )

    def test_gram_implies_fused(self, rng):
        """gram_cache=True routes through the fused executor even with
        fused_sweeps=False, and stays accurate on the odd-even plan."""
        cfg = OneSidedConfig(
            gram_cache=True, fused_sweeps=False, ordering="odd-even"
        )
        A = rng.standard_normal((20, 8))
        res = BatchedJacobiEngine(cfg).svd_batch([A])[0]
        assert res.reconstruction_error(A) < 1e-12


class TestSweepPlans:
    def test_plan_cache_returns_shared_object(self):
        assert sweep_plan("round-robin", 8) is sweep_plan("round-robin", 8)
        assert sweep_plan("odd-even", 8) is sweep_plan("odd-even", 8)

    def test_neighbor_specialization_selected(self):
        assert sweep_plan("odd-even", 8).kind == "neighbor"
        assert sweep_plan("odd-even", 7).kind == "neighbor"
        assert sweep_plan("round-robin", 8).kind == "gather"
        assert sweep_plan("ring", 8).kind == "gather"

    def test_neighbor_opt_out(self):
        plan = sweep_plan("odd-even", 8, allow_neighbor=False)
        assert plan.kind == "gather"
        # Distinct cache key from the neighbor plan.
        assert plan is not sweep_plan("odd-even", 8)

    def test_plan_covers_all_pairs_once(self):
        for name in ORDERINGS:
            for n in (2, 5, 8):
                plan = sweep_plan(name, n, allow_neighbor=False)
                pairs = [
                    (int(i), int(j))
                    for step in plan.steps
                    for i, j in zip(step.idx_i, step.idx_j)
                ]
                assert sorted(pairs) == [
                    (i, j) for i in range(n) for j in range(i + 1, n)
                ]

    def test_plan_arrays_read_only(self):
        plan = sweep_plan("round-robin", 6)
        assert not plan.restore.flags.writeable
        for step in plan.steps:
            assert not step.idx_i.flags.writeable

    def test_cached_step_arrays_shared_and_correct(self):
        arrays = cached_step_arrays("round-robin", 8)
        assert arrays is cached_step_arrays("round-robin", 8)
        schedule = get_ordering("round-robin").sweep(8)
        assert len(arrays) == len(schedule)
        for (idx_i, idx_j), step in zip(arrays, schedule):
            assert list(zip(idx_i.tolist(), idx_j.tolist())) == step
            assert not idx_i.flags.writeable


class TestScratchPool:
    def test_reuses_released_buffers(self):
        pool = ScratchPool()
        a = pool.acquire((4, 3))
        pool.release(a)
        b = pool.acquire((4, 3))
        assert b is a
        assert pool.acquire((4, 3)) is not a  # a is checked out as b

    def test_clear_drops_free_list(self):
        pool = ScratchPool()
        a = pool.acquire((2, 2))
        pool.release(a)
        pool.clear()
        assert pool.acquire((2, 2)) is not a


class TestKernelTimes:
    def test_engine_records_breakdown(self, rng):
        engine = BatchedJacobiEngine(
            OneSidedConfig(), kernel_clock=time.perf_counter
        )
        engine.svd_batch([rng.standard_normal((16, 8)) for _ in range(4)])
        kt = engine.last_kernel_times
        assert kt is not None
        d = kt.as_dict()
        assert set(d) == {
            "gram_s", "rotate_s", "norms_s", "converge_s", "sweeps"
        }
        assert d["sweeps"] > 0
        assert all(v >= 0.0 for v in d.values())

    def test_no_clock_no_breakdown(self, rng):
        engine = BatchedJacobiEngine(OneSidedConfig())
        engine.svd_batch([rng.standard_normal((8, 4))])
        assert engine.last_kernel_times is None

    def test_lap_accumulates(self):
        ticks = iter(float(t) for t in range(100))
        kt = KernelTimes(lambda: next(ticks))
        t0 = kt.clock()
        t0 = kt.lap(t0, "rotate")
        kt.lap(t0, "norms")
        assert kt.rotate == 1.0 and kt.norms == 1.0


class TestHelpers:
    def test_compact_rows_keep_all_is_identity(self):
        arr = np.arange(12.0).reshape(3, 4)
        keep = np.array([True, True, True])
        assert _compact_rows(arr, keep) is arr

    def test_compact_rows_partial(self):
        arr = np.arange(12.0).reshape(3, 4)
        keep = np.array([True, False, True])
        out = _compact_rows(arr, keep)
        assert out.shape == (2, 4)
        assert np.array_equal(out, arr[[0, 2]])

    def test_bulk_append_matches_scalar_append(self):
        traces_a = [ConvergenceTrace() for _ in range(3)]
        traces_b = [ConvergenceTrace() for _ in range(3)]
        targets = np.array([2, 0])
        offs = np.array([1e-3, 2.5e-4])
        rots = np.array([7, 3])
        ConvergenceTrace.bulk_append(traces_a, targets, 1, offs, rots)
        for pos, orig in enumerate(targets):
            traces_b[orig].append(1, offs[pos], rots[pos])
        for a, b in zip(traces_a, traces_b):
            assert [
                (r.sweep, r.off_norm, r.rotations) for r in a.records
            ] == [(r.sweep, r.off_norm, r.rotations) for r in b.records]
