"""Per-member stop tolerances: they decide when a matrix stops sweeping,
never which pairs rotate, and they follow each matrix through every path
of the batched engine (buckets, shards, worker backends, quarantine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.jacobi.batched import (
    BatchedJacobiEngine,
    StackedOneSidedJacobi,
    StackedParallelEVD,
)
from repro.jacobi.onesided_vector import OneSidedConfig
from repro.jacobi.preconditioning import qr_detour
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.runtime import RuntimeConfig, get_executor

_EPS = np.finfo(np.float64).eps
TIGHT = 1e-14


def _grams(rng, k, count):
    """Gram matrices ``P^T P`` of ``(k + 4) x k`` Gaussian panels."""
    panels = [rng.standard_normal((k + 4, k)) for _ in range(count)]
    return [P.T @ P for P in panels]


def _gram_floor(B):
    """The W-cycle's Gram-leaf floors of ``B``: no noise floor, and the
    one-sided column floor of its ``(k + 4) x k`` panel."""
    return (0.0, (_EPS * (len(B) + 4)) ** 2 * float(np.diag(B).max()))


def _same_svd(a, b):
    return all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in "USV"
    )


def _same_evd(a, b):
    return a.J.tobytes() == b.J.tobytes() and a.L.tobytes() == b.L.tobytes()


class TestStopNeverChangesARotation:
    """A loose solve is the tight solve cut off after as many sweeps."""

    def test_svd(self, rng):
        solver = StackedOneSidedJacobi(OneSidedConfig(tol=TIGHT))
        for _ in range(3):
            stack = rng.standard_normal((1, 24, 12))
            W, V, (trace,) = solver.solve_stack(stack, stop=np.array([1e-2]))
            sweeps = trace.sweeps
            assert 1 < sweeps < solver.solve_stack(stack)[2][0].sweeps
            # The tight side, driven sweep by sweep as solve_stack does:
            # on the triangular factor of the tall stack, at the column
            # floor of the 24-row input.
            Q, R = qr_detour(stack)
            sweeper = solver._make_sweeper(R, None)
            try:
                for _ in range(sweeps):
                    sweeper.refresh_norms()
                    sweeper.run_sweep((_EPS * 24) ** 2 * sweeper.scale())
                want_W, want_V = np.empty_like(R), np.empty_like(V)
                sweeper.extract(want_W, want_V, np.arange(1), np.arange(1))
            finally:
                sweeper.close()
            assert W.tobytes() == (Q @ want_W).tobytes()
            assert V.tobytes() == want_V.tobytes()

    @pytest.mark.parametrize("gram_floors", [False, True])
    def test_evd(self, rng, gram_floors):
        solver = StackedParallelEVD(TwoSidedConfig(tol=TIGHT))
        for B in _grams(rng, 12, 3):
            floors = [_gram_floor(B)] if gram_floors else None
            stack = B[None]
            scales = np.array([np.linalg.norm(B)])
            got_B, got_J, (trace,) = solver.solve_stack(
                stack, scales, stop=np.array([1e-2]), floors=floors
            )
            sweeps = trace.sweeps
            full = solver.solve_stack(stack, scales, floors=floors)[2][0]
            assert sweeps < full.sweeps
            noise, diag = (
                np.array([[_EPS, 0.0]]) if floors is None else np.array(floors)
            ).T
            sweeper = solver._make_sweeper(stack)
            try:
                for _ in range(sweeps):
                    sweeper.run_sweep(noise * scales, noise, diag)
                want_B, want_J = np.empty_like(got_B), np.empty_like(got_J)
                sweeper.extract(want_B, want_J, np.arange(1), np.arange(1))
            finally:
                sweeper.close()
            assert got_B.tobytes() == want_B.tobytes()
            assert got_J.tobytes() == want_J.tobytes()

    def test_stop_below_the_rotation_tolerance_is_rejected(self, rng):
        stack = rng.standard_normal((2, 8, 4))
        solver = StackedOneSidedJacobi(OneSidedConfig(tol=TIGHT))
        with pytest.raises(ConfigurationError, match="stop"):
            solver.solve_stack(stack, stop=np.array([1e-2, 1e-15]))
        with pytest.raises(ConfigurationError, match="stop"):
            BatchedJacobiEngine().svd_batch(list(stack), stop=[1e-2])


#: Mixed stops: every member of a stack sees a different one.
MIXED = [1e-2, TIGHT, 1e-6, 1e-4, 1e-2, 1e-10, TIGHT, 1e-3]


def _svd_case(rng):
    return [rng.standard_normal((16, 8)) for _ in MIXED]


def _evd_case(rng):
    mats = _grams(rng, 8, len(MIXED))
    floors = [
        _gram_floor(B) if i % 2 else (_EPS, 0.0) for i, B in enumerate(mats)
    ]
    return mats, floors


class TestMembersKeepTheirBytes:
    def test_svd_member_equals_its_solo_solve(self, rng):
        mats = _svd_case(rng)
        engine = BatchedJacobiEngine(OneSidedConfig(tol=TIGHT))
        stacked = engine.svd_batch(mats, stop=MIXED)
        for A, stop, got in zip(mats, MIXED, stacked):
            (solo,) = engine.svd_batch([A], stop=[stop])
            assert _same_svd(got, solo)
        # The stops mattered: the loose members differ from tight solves.
        tight = engine.svd_batch(mats)
        assert not _same_svd(stacked[0], tight[0])

    def test_evd_member_equals_its_solo_solve(self, rng):
        mats, floors = _evd_case(rng)
        engine = BatchedJacobiEngine(evd_config=TwoSidedConfig(tol=TIGHT))
        stacked = engine.evd_batch(mats, stop=MIXED, floors=floors)
        for B, stop, floor, got in zip(mats, MIXED, floors, stacked):
            (solo,) = engine.evd_batch([B], stop=[stop], floors=[floor])
            assert _same_evd(got, solo)
        tight = engine.evd_batch(mats)
        assert not _same_evd(stacked[0], tight[0])


def _runtime(backend):
    return get_executor(
        RuntimeConfig(
            backend=backend, workers=2, min_shard=2, allow_oversubscribe=True
        )
    )


@pytest.mark.parametrize("backend", ["persistent"])
class TestStopsReachTheWorkers:
    """A sharded stack ships each member's stop (and EVD floors) with it:
    two workers return the serial bytes."""

    def test_svd(self, rng, backend):
        mats = _svd_case(rng)
        cfg = OneSidedConfig(tol=TIGHT)
        want = BatchedJacobiEngine(cfg).svd_batch(mats, stop=MIXED)
        ex = _runtime(backend)
        try:
            got = BatchedJacobiEngine(cfg, executor=ex).svd_batch(
                mats, stop=MIXED
            )
        finally:
            ex.close()
        assert all(_same_svd(g, w) for g, w in zip(got, want))

    def test_evd(self, rng, backend):
        mats, floors = _evd_case(rng)
        cfg = TwoSidedConfig(tol=TIGHT)
        want = BatchedJacobiEngine(evd_config=cfg).evd_batch(
            mats, stop=MIXED, floors=floors
        )
        ex = _runtime(backend)
        try:
            got = BatchedJacobiEngine(evd_config=cfg, executor=ex).evd_batch(
                mats, stop=MIXED, floors=floors
            )
        finally:
            ex.close()
        assert all(_same_evd(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("backend", ["persistent"])
def test_wcycle_leaf_stacks_sharded_across_workers(rng, backend):
    """One matrix runs inline and its kernels' engine shards every leaf
    stack across the pool; the leaves keep their member's stops there."""
    from repro import WCycleSVD

    A = rng.standard_normal((512, 64))
    with WCycleSVD(device="V100") as serial:
        want = serial.decompose(A)
    runtime = RuntimeConfig(
        backend=backend, workers=2, min_shard=1, allow_oversubscribe=True
    )
    with WCycleSVD(device="V100", runtime=runtime) as solver:
        got = solver.decompose(A)
    assert _same_svd(got, want)
    assert got.trace.records == want.trace.records


class TestQuarantineKeepsTheStops:
    """A failed unit is re-solved with its members' stops: a loose member
    that converges within the budget keeps the bytes of its solo solve,
    while the same matrix held to the tight stop fails."""

    def test_svd(self, rng):
        mats = [rng.standard_normal((16, 8)) for _ in range(4)]
        stops = [1e-2, TIGHT, 1e-2, TIGHT]
        engine = BatchedJacobiEngine(OneSidedConfig(tol=TIGHT, max_sweeps=5))
        results = engine.svd_batch(mats, stop=stops, on_failure="quarantine")
        assert engine.last_failures.quarantined == (1, 3)
        for i in (0, 2):
            (solo,) = engine.svd_batch([mats[i]], stop=[stops[i]])
            assert _same_svd(results[i], solo)

    def test_evd(self, rng):
        mats = _grams(rng, 12, 4)
        stops = [1e-2, TIGHT, 1e-2, TIGHT]
        floors = [_gram_floor(B) for B in mats]
        engine = BatchedJacobiEngine(
            evd_config=TwoSidedConfig(tol=TIGHT, max_sweeps=4)
        )
        results = engine.evd_batch(
            mats, stop=stops, floors=floors, on_failure="quarantine"
        )
        assert engine.last_failures.quarantined == (1, 3)
        for i in (0, 2):
            (solo,) = engine.evd_batch(
                [mats[i]], stop=[stops[i]], floors=[floors[i]]
            )
            assert _same_evd(results[i], solo)
