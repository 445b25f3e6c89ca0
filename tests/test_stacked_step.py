"""The W-cycle's stacked step against the kernels' list API.

A sweep step gathers each panel set of every member into one stack and
sends the stacks to the in-SM kernels and the level GEMMs. These tests
pin that path to the list API on the same panels: the step's factors,
traces, rotation counts, launches and failures must be what the kernels
compute from a list of 2-D panels, and the launches of one kernel group
must replay into the one launch of the group's panels.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Profiler, WCycleSVD
from repro.core.levels import Group
from repro.core.wcycle import WCycleConfig
from repro.errors import NonFiniteError
from repro.gpusim import V100
from repro.gpusim.evd_kernel import BatchedEVDKernel
from repro.gpusim.gemm import BatchedGemm
from repro.gpusim.svd_kernel import BatchedSVDKernel
from repro.jacobi import factors
from repro.runtime import RuntimeConfig
from repro.types import EVDStack, SVDStack

_EPS = np.finfo(np.float64).eps


def _fingerprint(res):
    trace = [(r.sweep, r.off_norm, r.rotations) for r in res.trace.records]
    return res.U.tobytes(), res.S.tobytes(), res.V.tobytes(), trace


def _stats(report):
    return [dataclasses.asdict(s) for s in report.launches]


@pytest.fixture
def listed(monkeypatch):
    """Send every stack the kernels and GEMMs get to their list API
    instead, one 2-D panel per entry, and stack the results back. Yields
    the names of the calls it rerouted."""
    rerouted = []

    def kernel(cls, stack_type):
        real = cls.run

        def run(self, matrices, **kwargs):
            if not isinstance(matrices, np.ndarray):
                return real(self, matrices, **kwargs)
            rerouted.append(cls.__name__)
            results, stats = real(self, list(matrices), **kwargs)
            return stack_type.of(results), stats

        monkeypatch.setattr(cls, "run", run)

    def gemm(name):
        real = getattr(BatchedGemm, name)

        def call(self, panels, *rotations, **kwargs):
            rerouted.append(name)
            sizes = [len(p) for p in panels]
            flat = [[m for item in arg for m in item] for arg in (panels, *rotations)]
            if kwargs.get("out") is not None:
                kwargs["out"] = [m for item in kwargs["out"] for m in item]
            outputs, stats = real(self, *flat, **kwargs)
            bounds = np.cumsum([0] + sizes)
            return [
                np.stack(outputs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            ], stats

        monkeypatch.setattr(BatchedGemm, name, call)

    kernel(BatchedSVDKernel, SVDStack)
    kernel(BatchedEVDKernel, EVDStack)
    gemm("gram")
    gemm("update")
    return rerouted


def _solve(cfg, mats, runtime=None, on_failure=None):
    profiler = Profiler()
    with WCycleSVD(cfg, device="V100", runtime=runtime) as solver:
        out = solver.decompose_batch(mats, profiler=profiler, on_failure=on_failure)
        rotations = dict(solver.last_level_rotations)
    return out, profiler.report, rotations


def _zero_block(rng):
    A = rng.standard_normal((128, 64))
    A[:, 16:32] = 0.0  # a whole column block: zero panels and Grams
    return A


def _tiny_block(rng):
    A = rng.standard_normal((512, 64))
    A[:, 48:] *= 2.0**-230  # panels below 2^-200 in an in-window matrix
    return A


#: ``name -> (config, build(rng))``.
CASES = {
    "batch-wcycle": (
        WCycleConfig(),
        lambda rng: [
            rng.standard_normal(s)
            for s in [(128, 64)] * 2 + [(512, 64)] * 2 + [(64, 32)] * 4
        ],
    ),
    # 70 = 5 x 12 + 10: every step holds pairs of two widths.
    "ragged": (
        WCycleConfig(w1=12),
        lambda rng: [rng.standard_normal((150, 70)) for _ in range(2)],
    ),
    # 220 x 32 pairs go to the EVD group, 220 x 26 ones to the SVD group.
    "mixed-groups": (
        WCycleConfig(w1=16),
        lambda rng: [rng.standard_normal((220, 90)) for _ in range(2)],
    ),
    "forced-recursion": (
        WCycleConfig(w1=48),
        lambda rng: [rng.standard_normal((100, 96)) for _ in range(2)],
    ),
    "wide": (
        WCycleConfig(),
        lambda rng: [rng.standard_normal((64, 128)), rng.standard_normal((128, 64))],
    ),
    "wide-kept": (
        WCycleConfig(transpose_wide=False),
        lambda rng: [rng.standard_normal((64, 128))],
    ),
    "zero-panel": (
        WCycleConfig(),
        lambda rng: [_zero_block(rng), rng.standard_normal((512, 64))],
    ),
    "tiny-panel": (
        WCycleConfig(),
        lambda rng: [_tiny_block(rng), _tiny_block(rng)],
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_step_matches_list_api(case, request):
    """Factors, traces, rotation counts and every launch's statistics
    are those of the same solve with every stack sent to the list API."""
    cfg, build = CASES[case]
    mats = build(np.random.default_rng(5))
    stacked, stacked_report, stacked_rotations = _solve(cfg, mats)
    rerouted = request.getfixturevalue("listed")
    listed, listed_report, listed_rotations = _solve(cfg, mats)
    assert "update" in rerouted
    for got, want in zip(stacked, listed):
        assert _fingerprint(got) == _fingerprint(want), case
    assert _stats(stacked_report) == _stats(listed_report), case
    assert stacked_rotations == listed_rotations, case
    assert stacked.max_reconstruction_error(mats) < 1e-10


def test_leaf_launches_do_not_build_u(rng, monkeypatch):
    """A step reads only its leaf SVDs' ``V``, so no leaf launch builds
    ``U``: the only ``U`` built are those of the factors the batch
    returns, the in-SM group's and the finalized large member's."""
    built = []
    real = factors._left_vectors

    def spy(work, sigma, nonzero):
        built.append(work.shape)
        return real(work, sigma, nonzero)

    monkeypatch.setattr(factors, "_left_vectors", spy)
    mats = [rng.standard_normal((128, 64)), rng.standard_normal((64, 32))]
    out, report, _ = _solve(WCycleConfig(), mats)
    kernels = [s.kernel for s in report.launches]
    assert kernels.count("batched_svd_sm") > 1
    assert sorted(built) == [(1, 64, 32), (1, 128, 64)]
    assert out.max_reconstruction_error(mats) < 1e-10


def _list_step(solver, works, Vs, stops, step, level):
    """One step through the list APIs, one 2-D panel per list entry and
    one launch per kernel group (the step must hold no recursed set)."""
    gemm = solver._level_gemm(*level)
    members = range(len(works))
    pairs = {
        group: [
            (k, cols) for k in members for s in step if s.group is group
            for cols in s.cols
        ]
        for group in (Group.SVD_IN_SM, Group.EVD_IN_SM)
    }
    launches, rotations = [], []
    svd = pairs[Group.SVD_IN_SM]
    if svd:
        results, stats = solver._svd_kernel().run(
            [works[k][:, cols] for k, cols in svd],
            stop=[stops[k] for k, _ in svd],
        )
        launches.append(stats)
        rotations += [r.V for r in results]
    evd = pairs[Group.EVD_IN_SM]
    if evd:
        panels = [works[k][:, cols] for k, cols in evd]
        grams, stats = gemm.gram(panels)
        launches.append(stats)
        results, stats = solver._evd_kernel().run(
            grams,
            stop=[stops[k] for k, _ in evd],
            floors=[
                (0.0, (_EPS * max(p.shape)) ** 2 * g.diagonal().max())
                for p, g in zip(panels, grams)
            ],
        )
        launches.append(stats)
        rotations += [r.J for r in results]
    keys = svd + evd
    data = [works[k][:, cols] for k, cols in keys]
    V_panels = [Vs[k][:, cols] for k, cols in keys]
    updated, stats = gemm.update(data + V_panels, rotations * 2)
    launches.append(stats)
    for (k, cols), new, new_V in zip(keys, updated, updated[len(keys):]):
        works[k][:, cols] = new
        Vs[k][:, cols] = new_V
    return launches


@pytest.mark.parametrize(
    "m, n, w, groups",
    [
        (150, 70, 12, {Group.SVD_IN_SM}),
        (220, 90, 16, {Group.SVD_IN_SM, Group.EVD_IN_SM}),
    ],
)
def test_step_launches_replay_into_one_launch_per_group(rng, m, n, w, groups):
    """A step whose group holds two panel widths logs one launch per
    width; the replay folds them into the one launch the list API makes
    of all the group's panels, and the step updates every member as the
    list API does."""
    solver = WCycleSVD(WCycleConfig(), device="V100")
    step = solver._level_plan(m, n, w)[0]
    assert {s.group for s in step} == groups
    assert len({s.cols.shape[1] for s in step}) == 2  # two panel widths
    works = [rng.standard_normal((m, n)) for _ in range(2)]
    Vs = [np.eye(n) for _ in works]
    stops = [1e-2, 1e-8]
    want_works = [A.copy() for A in works]
    want_Vs = [V.copy() for V in Vs]
    want = _list_step(solver, want_works, want_Vs, stops, step, (m, n, w))
    log = []
    solver._apply_step(
        works, Vs, [0, 1], stops, step, [w], 0, (m, n, w), (1, 0), log, {}
    )
    got = solver._replay([log]).launches
    assert [dataclasses.asdict(s) for s in got] == [
        dataclasses.asdict(s) for s in want
    ]
    for A, B in zip(works + Vs, want_works + want_Vs):
        assert A.tobytes() == B.tobytes()


class TestFailures:
    """The nan fault poisons every leaf stack of a faulted task; the
    stacked step fails and recovers exactly as the list API does."""

    MATS = staticmethod(
        lambda: [
            np.random.default_rng(3).standard_normal(s)
            for s in [(128, 64), (512, 64), (512, 64)]
        ]
    )

    def _runtime(self, on_failure):
        return RuntimeConfig(max_retries=0, backoff_base=0.0, on_failure=on_failure)

    @pytest.mark.parametrize("kernel", [BatchedSVDKernel, BatchedEVDKernel])
    def test_kernel_stack_fails_as_list(self, chaos, rng, kernel):
        from repro.runtime import get_executor

        panels = rng.standard_normal((6, 24, 12))
        if kernel is BatchedEVDKernel:
            panels = panels.transpose(0, 2, 1) @ panels
        chaos("seed=3;nan:p=1.0")
        errors = []
        for matrices in (panels, list(panels)):
            with get_executor(self._runtime("raise")) as ex:
                with pytest.raises(NonFiniteError) as info:
                    kernel(V100, executor=ex).run(matrices)
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].batch_indices == errors[1].batch_indices
        outs = []
        for matrices in (panels, list(panels)):
            with get_executor(self._runtime("quarantine")) as ex:
                k = kernel(V100, executor=ex)
                results, stats = k.run(matrices)
                outs.append((list(results), stats, list(k.last_failures)))
        (stacked, s_stats, s_fail), (listed, l_stats, l_fail) = outs
        assert s_fail and s_fail == l_fail
        assert s_stats == l_stats
        for a, b in zip(stacked, listed):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == y.tobytes()

    def test_raise_mode_names_the_same_owners(self, chaos, request):
        chaos("seed=3;nan:p=1.0")
        runtime = self._runtime("raise")
        with pytest.raises(NonFiniteError) as stacked:
            _solve(WCycleConfig(), self.MATS(), runtime=runtime)
        request.getfixturevalue("listed")
        with pytest.raises(NonFiniteError) as listed:
            _solve(WCycleConfig(), self.MATS(), runtime=runtime)
        assert type(stacked.value) is type(listed.value)
        assert str(stacked.value) == str(listed.value)
        assert stacked.value.batch_indices == listed.value.batch_indices

    def test_quarantine_mode_recovers_the_same(self, chaos, request):
        chaos("seed=3;nan:p=1.0")
        runtime = self._runtime("quarantine")
        stacked, s_report, _ = _solve(WCycleConfig(), self.MATS(), runtime=runtime)
        request.getfixturevalue("listed")
        listed, l_report, _ = _solve(WCycleConfig(), self.MATS(), runtime=runtime)
        assert stacked.failures
        assert list(stacked.failures) == list(listed.failures)
        for got, want in zip(stacked, listed):
            assert _fingerprint(got) == _fingerprint(want)
        assert _stats(s_report) == _stats(l_report)


def test_one_matrix_call_shards_leaf_stacks(rng):
    """A one-matrix call runs its bucket in the parent, so the kernels'
    engine still shards the step's leaf stacks across the pool; the
    factors and launches stay those of a serial solve."""
    A = rng.standard_normal((512, 64))
    serial, serial_report, serial_rotations = _solve(WCycleConfig(), [A])
    runtime = RuntimeConfig(
        backend="persistent", workers=2, min_shard=2, allow_oversubscribe=True
    )
    sizes = []
    with WCycleSVD(WCycleConfig(), device="V100", runtime=runtime) as solver:
        ex = solver._executor
        real = ex.map

        def spy(fn, items, **kwargs):
            sizes.append(len(items))
            return real(fn, items, **kwargs)

        ex.map = spy
        profiler = Profiler()
        (res,) = solver.decompose_batch([A], profiler=profiler)
        del ex.map
    assert max(sizes) == 2  # the 4-panel leaf stacks went out in 2 units
    assert _fingerprint(res) == _fingerprint(serial[0])
    assert _stats(profiler.report) == _stats(serial_report)


def test_memoized_launch_is_fresh_and_recorded_every_call():
    """A memoized launch equals a fresh pricing, and the profiler records
    the launch at every call, hit or miss."""
    shapes, sweeps = [(128, 16)] * 8, [4, 5, 4, 4, 5, 4, 4, 5]
    kernel = BatchedSVDKernel(V100)
    fresh = BatchedSVDKernel(V100).account(shapes, sweeps)
    profiler = Profiler()
    first = kernel.account(shapes, sweeps, profiler=profiler)
    again = kernel.account(list(reversed(shapes)), sweeps[::-1], profiler=profiler)
    assert first == fresh and again is first
    assert profiler.report.launches == [first, first]
    evd = BatchedEVDKernel(V100)
    assert evd.account([16] * 4, [3, 3, 4, 3]) == BatchedEVDKernel(V100).account(
        [16] * 4, [3, 3, 4, 3]
    )
    gemm = WCycleSVD(device="V100")._level_gemm(128, 64, 8)
    panels = np.ones((8, 128, 16))
    _, stats = gemm.update([panels], [np.tile(np.eye(16), (8, 1, 1))])
    twin = WCycleSVD(device="V100")._level_gemm(128, 64, 8)
    assert stats == twin.update(list(panels), [np.eye(16)] * 8)[1]
