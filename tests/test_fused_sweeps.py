"""Fused sweep executors vs the per-matrix reference solvers.

The fused executors of :mod:`repro.jacobi.fused` (pair-adjacent gather
plans) promise the *same arithmetic in the same order* as the per-step
loops of :class:`~repro.jacobi.onesided_vector.OneSidedJacobiSVD` and
:class:`~repro.jacobi.parallel_evd.ParallelJacobiEVD` wherever the
reduction grouping is unchanged — so the contract tested here is bitwise
equality of every stack member's finalized factors and trace with the
reference solver's, not ``allclose``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro import WCycleSVD
from repro.jacobi.batched import (
    BatchedJacobiEngine,
    StackedOneSidedJacobi,
    StackedParallelEVD,
)
from repro.jacobi.factors import finalize_onesided
from repro.jacobi.fused import (
    FusedSVDSweeper,
    KernelTimes,
    ScratchPool,
    _compact_rows,
    sweep_plan,
)
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.parallel_evd import ParallelJacobiEVD
from repro.jacobi.twosided_evd import TwoSidedConfig, _finalize_evd
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


def _evd_scales(stack):
    """Per-matrix Frobenius norms, computed as the engine computes them."""
    return np.array([float(np.linalg.norm(B)) for B in stack])


def _records(trace):
    return [(r.sweep, r.off_norm, r.rotations) for r in trace.records]


def _assert_same_svd(got, want, label=""):
    assert got.U.tobytes() == want.U.tobytes(), label
    assert got.S.tobytes() == want.S.tobytes(), label
    assert got.V.tobytes() == want.V.tobytes(), label
    assert _records(got.trace) == _records(want.trace), label


def _assert_same_evd(got, want, label=""):
    assert got.J.tobytes() == want.J.tobytes(), label
    assert got.L.tobytes() == want.L.tobytes(), label
    assert _records(got.trace) == _records(want.trace), label


def _assert_svd_members_match(stack, cfg, out, *, skip=()):
    """Every stack member's finalized factors and trace equal the
    reference solver's on that member alone, byte for byte."""
    W, V, traces = out[:3]
    reference = OneSidedJacobiSVD(cfg)
    for k in range(stack.shape[0]):
        if k in skip:
            continue
        got = finalize_onesided(W[k], V[k], traces[k])
        _assert_same_svd(got, reference.decompose(stack[k]), f"member {k}")


def _assert_evd_members_match(stack, cfg, out, *, skip=()):
    """EVD twin of :func:`_assert_svd_members_match`."""
    B, J, traces = out[:3]
    reference = ParallelJacobiEVD(cfg)
    for k in range(stack.shape[0]):
        if k in skip:
            continue
        got = _finalize_evd(B[k], J[k], traces[k])
        _assert_same_evd(got, reference.decompose(stack[k]), f"member {k}")


class TestSVDBitwiseEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("shape", SVD_STACK_SHAPES)
    def test_fused_matches_step_loop(self, rng, ordering, cache, shape):
        """Each member of a fused stack solve matches the reference
        solver's per-step loop on that member alone."""
        stack = _svd_stack(rng, shape)
        cfg = OneSidedConfig(ordering=ordering, cache_inner_products=cache)
        out = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        _assert_svd_members_match(stack, cfg, out)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_report_mode_dropout_matches(self, rng, ordering):
        """A NaN-poisoned matrix drops out and cannot perturb the
        survivors, which still match the reference solver."""
        stack = _svd_stack(rng, (4, 12, 6))
        stack[2, 3, 1] = np.nan
        cfg = OneSidedConfig(ordering=ordering)
        out = StackedOneSidedJacobi(cfg).solve_stack(
            stack.copy(), on_failure="report"
        )
        W, _, _, failures = out
        assert [i for i, _ in failures] == [2]
        assert np.isnan(W[2]).all()
        _assert_svd_members_match(stack, cfg, out, skip={2})

    def test_trivial_n1_stack(self, rng):
        stack = _svd_stack(rng, (3, 5, 1))
        cfg = OneSidedConfig()
        W, V, traces = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        assert W.tobytes() == stack.tobytes()
        assert all(len(t) == 0 for t in traces)

    def test_engine_batch_matches_loop_engine(self, rng):
        """End to end through the engine: ragged batch with wide (m < n)
        matrices against the reference solver, bit-identical."""
        batch = [
            rng.standard_normal((16, 8)),
            rng.standard_normal((6, 14)),  # wide: transposed before stacking
            rng.standard_normal((8, 8)),
            rng.standard_normal((16, 8)),
        ]
        reference = OneSidedJacobiSVD(OneSidedConfig())
        for i, (a, res) in enumerate(
            zip(batch, BatchedJacobiEngine(OneSidedConfig()).svd_batch(batch))
        ):
            _assert_same_svd(res, reference.decompose(a), f"matrix {i}")


def _staggered_stack(rng, m, n):
    """Members that converge after different numbers of sweeps: already
    orthogonal columns, nearly orthogonal ones, a Gaussian, and graded
    columns."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    orthogonal = Q * np.arange(1.0, n + 1)
    nearly = orthogonal + 1e-6 * rng.standard_normal((m, n))
    graded = rng.standard_normal((m, n)) * np.logspace(0, -6, n)
    return np.stack(
        [orthogonal, nearly, rng.standard_normal((m, n)), graded]
    )


class TestSVDWorkspace:
    """The one-sided sweeper's per-stack workspace: every buffer, view and
    temporary a step uses is built with the sweeper and rebuilt when
    compaction drops members. Each case compares every member with the
    reference solver run on it alone, byte for byte."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the workspaces sweepers build."""
        calls = []
        real = FusedSVDSweeper._build

        def build(self, *buffers):
            calls.append(buffers[0].shape[1])
            real(self, *buffers)

        monkeypatch.setattr(FusedSVDSweeper, "_build", build)
        return calls

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_rebuilt_after_each_compaction(self, rng, builds, ordering):
        stack = _staggered_stack(rng, 9, 6)
        cfg = OneSidedConfig(ordering=ordering)
        out = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        sweeps = [len(t) for t in out[2]]
        assert len(set(sweeps)) >= 3, sweeps
        # One workspace for the whole stack, then one per compaction, each
        # over the members still live.
        assert builds[0] == len(stack)
        assert builds == sorted(builds, reverse=True)
        assert len(builds) == len(set(sweeps))
        _assert_svd_members_match(stack, cfg, out)

    def test_nan_dropout_mid_solve(self, rng, builds, monkeypatch):
        """A member that turns non-finite after its second sweep drops out
        in report mode; the workspace is rebuilt without it and the other
        members keep their bytes."""
        stack = rng.standard_normal((4, 12, 7))
        real = FusedSVDSweeper.run_sweep
        sweeps = []

        def run_sweep(self, norm_floor):
            out = real(self, norm_floor)
            sweeps.append(self.count)
            if len(sweeps) == 2:
                self.T[0, 1, 0] = np.nan
            return out

        monkeypatch.setattr(FusedSVDSweeper, "run_sweep", run_sweep)
        cfg = OneSidedConfig()
        out = StackedOneSidedJacobi(cfg).solve_stack(
            stack.copy(), on_failure="report"
        )
        W, _, traces, failures = out
        assert [i for i, _ in failures] == [1]
        assert "sweep 3" in str(failures[0][1])
        assert np.isnan(W[1]).all() and len(traces[1]) == 2
        assert sweeps[:3] == [4, 4, 3] and builds[:2] == [4, 3]
        _assert_svd_members_match(stack, cfg, out, skip={1})

    @pytest.mark.parametrize("cache", [True, False])
    def test_odd_n_round_robin_tail_copies(self, rng, cache):
        """At odd ``n`` every round-robin step leaves one column out (a
        bye), so the slots past the step's pairs are copied across."""
        n = 7
        plan = sweep_plan("round-robin", n)
        assert all(2 * step.n_pairs < n for step in plan.steps)
        stack = rng.standard_normal((5, 10, n))
        cfg = OneSidedConfig(cache_inner_products=cache)
        out = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        _assert_svd_members_match(stack, cfg, out)

    @pytest.mark.parametrize("cache", [True, False])
    def test_ring_steps_of_varying_width(self, rng, cache):
        """The ring ordering's steps hold 4, 3, 4, 2, ... pairs at n = 8:
        the steps of each width share one scratch set and views."""
        plan = sweep_plan("ring", 8)
        assert [s.n_pairs for s in plan.steps][:4] == [4, 3, 4, 2]
        stack = rng.standard_normal((6, 12, 8))
        cfg = OneSidedConfig(ordering="ring", cache_inner_products=cache)
        out = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        _assert_svd_members_match(stack, cfg, out)

    @pytest.mark.parametrize("n", [7, 8])
    def test_odd_even_no_cache_with_kernel_times(self, rng, n):
        """The odd-even ordering without the Eq. 6 cache, with the
        kernel-time laps on."""
        stack = _staggered_stack(rng, 10, n)
        cfg = OneSidedConfig(ordering="odd-even", cache_inner_products=False)
        kt = KernelTimes(time.perf_counter)
        out = StackedOneSidedJacobi(cfg).solve_stack(
            stack.copy(), kernel_times=kt
        )
        _assert_svd_members_match(stack, cfg, out)
        assert kt.sweeps == max(len(t) for t in out[2])
        assert kt.gram > 0.0 and kt.rotate > 0.0 and kt.converge > 0.0

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("cache", [True, False])
    def test_sweep_allocates_no_step_arrays(self, rng, ordering, cache):
        """After its first sweep, a sweep of a 256-member stack allocates
        less than one ``(pairs, members)`` array at its peak: the steps
        write into the workspace. What remains is NumPy's own iterator
        buffer inside the rotation einsum, which is capped by its buffer
        size, and the sweep's ``(members,)`` results."""
        stack = rng.standard_normal((256, 16, 16))
        cfg = OneSidedConfig(ordering=ordering, cache_inner_products=cache)
        solver = StackedOneSidedJacobi(cfg)
        sweeper = solver._make_sweeper(stack, None)
        floor = np.zeros(len(stack))
        try:
            sweeper.refresh_norms()
            sweeper.run_sweep(floor)
            sweeper.refresh_norms()
            tracemalloc.start()
            try:
                sweeper.run_sweep(floor)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            sweeper.close()
        assert peak < sweeper.plan.pairs * len(stack) * 8


class TestEVDBitwiseEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("size", EVD_STACK_SIZES)
    def test_fused_matches_step_loop(self, rng, ordering, size):
        """Each member of a fused stack solve matches the reference
        solver's per-step loop on that member alone."""
        b, k = size
        stack = _evd_stack(rng, b, k)
        cfg = TwoSidedConfig(ordering=ordering)
        out = StackedParallelEVD(cfg).solve_stack(
            stack.copy(), _evd_scales(stack)
        )
        _assert_evd_members_match(stack, cfg, out)

    def test_report_mode_dropout_matches(self, rng):
        stack = _evd_stack(rng, 3, 6)
        stack[1] = np.nan
        scales = _evd_scales(stack)
        scales[1] = 1.0
        cfg = TwoSidedConfig()
        out = StackedParallelEVD(cfg).solve_stack(
            stack.copy(), scales, on_failure="report"
        )
        assert [i for i, _ in out[3]] == [1]
        _assert_evd_members_match(stack, cfg, out, skip={1})


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


class TestSignedZeros:
    """Signed zeros through the fused passes.

    Einsum contractions start from a zero accumulator, so a rotated entry
    whose products are both ``-0.0`` comes out ``+0.0``; the elementwise
    EVD column pass adds ``+ 0.0`` to match. A stacked step also applies
    the identity rotation to members with nothing to rotate, which turns
    their ``-0.0`` entries into ``+0.0``. The finalizers therefore hand
    out ``+0.0`` for every zero of ``U`` and ``L``, so factors match the
    reference solver and never depend on a matrix's stack- or
    bucket-mates.
    """

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_evd_matches_step_loop(self, ordering, k):
        cfg = TwoSidedConfig(ordering=ordering)
        for name, B in _evd_signed_zero_inputs(k).items():
            stack = B[None]
            out = StackedParallelEVD(cfg).solve_stack(
                stack.copy(), _evd_scales(stack)
            )
            _assert_evd_members_match(stack, cfg, out)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("shape", [(8, 4), (9, 5), (10, 6)])
    def test_svd_matches_step_loop(self, ordering, cache, shape):
        """All three inputs in one stack: the ``orthogonal`` member never
        rotates, but its stack-mates do."""
        stack = np.stack(list(_svd_signed_zero_inputs(*shape).values()))
        cfg = OneSidedConfig(ordering=ordering, cache_inner_products=cache)
        out = StackedOneSidedJacobi(cfg).solve_stack(stack.copy())
        _assert_svd_members_match(stack, cfg, out)

    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_rotated_negative_zeros_come_out_positive(self, ordering, k):
        """A ``-0.0`` row and column: the reference's ``c x0 + s x1``
        keeps ``-0.0`` off the diagonal where the fused passes give
        ``+0.0``. The finalized eigenpairs and the trace still match the
        reference; the fused ``B`` holds no negative zero off the diagonal
        (dropping the ``+ 0.0`` leaves some)."""
        B = np.diag(np.arange(1.0, k + 1))
        B[0, 1] = B[1, 0] = 0.5
        B[:, k - 1] = -0.0
        B[k - 1, :] = -0.0
        stack = B[None]
        cfg = TwoSidedConfig(ordering=ordering)
        out = StackedParallelEVD(cfg).solve_stack(
            stack.copy(), _evd_scales(stack)
        )
        _assert_evd_members_match(stack, cfg, out)
        off = ~np.eye(k, dtype=bool)
        assert not np.signbit(out[0][0][off]).any()

    @pytest.mark.parametrize("name", ["orthogonal", "block", "zero-column"])
    def test_svd_factors_do_not_depend_on_bucket_mates(self, rng, name):
        """A matrix solved alone and next to a rotating bucket-mate gets
        the same bytes, through the engine and through the W-cycle's
        whole-SVD-in-SM launch."""
        A = _svd_signed_zero_inputs(8, 4)[name]
        mate = rng.standard_normal((8, 4))
        engine = BatchedJacobiEngine()
        _assert_same_svd(
            engine.svd_batch([A, mate])[0], engine.svd_batch([A])[0], name
        )
        with WCycleSVD(device="V100") as solver:
            alone = solver.decompose_batch([A])[0]
            paired = solver.decompose_batch([mate, A])[1]
        _assert_same_svd(paired, alone, name)

    @pytest.mark.parametrize("name", ["diagonal", "zero-column", "gram"])
    def test_evd_factors_do_not_depend_on_bucket_mates(self, rng, name):
        B = _evd_signed_zero_inputs(5)[name]
        mate = _evd_stack(rng, 1, 5)[0]
        engine = BatchedJacobiEngine()
        _assert_same_evd(
            engine.evd_batch([B, mate])[0], engine.evd_batch([B])[0], name
        )


class TestSweepPlans:
    def test_plan_cache_returns_shared_object(self):
        assert sweep_plan("round-robin", 8) is sweep_plan("round-robin", 8)
        assert sweep_plan("odd-even", 8) is sweep_plan("odd-even", 8)

    def test_plan_covers_all_pairs_once(self):
        for name in ORDERINGS:
            for n in (2, 5, 8):
                plan = sweep_plan(name, n)
                pairs = [
                    (int(i), int(j))
                    for step in plan.steps
                    for i, j in zip(step.idx_i, step.idx_j)
                ]
                assert sorted(pairs) == [
                    (i, j) for i in range(n) for j in range(i + 1, n)
                ]

    def test_flat_gather_permutes_rows_and_columns(self, rng):
        """One take through ``gather_both`` on the flattened entries is the
        row gather followed by the column gather, and ``restore_both``
        undoes the sweep's composed permutation the same way."""
        k = 7
        B = rng.standard_normal((3, k, k))
        plan = sweep_plan("round-robin", k)
        for step in plan.steps:
            g = step.gather
            flat = B.reshape(3, k * k).take(step.gather_both, axis=1)
            assert flat.reshape(3, k, k).tobytes() == B[:, g][:, :, g].tobytes()
        r = plan.restore
        flat = B.reshape(3, k * k).take(plan.restore_both, axis=1)
        assert flat.reshape(3, k, k).tobytes() == B[:, r][:, :, r].tobytes()

    def test_plan_arrays_read_only(self):
        plan = sweep_plan("round-robin", 6)
        assert not plan.restore.flags.writeable
        for step in plan.steps:
            assert not step.idx_i.flags.writeable


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
