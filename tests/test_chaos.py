"""Chaos suite: injected faults must recover bit-identically.

Every scenario runs the same workload twice — once clean on the serial
reference, once under an armed :class:`~repro.runtime.faults.FaultPlan` on
a parallel runtime — and asserts the recovered factors are *byte*-equal
for every non-quarantined matrix. Fault draws are deterministic
(sha256-keyed per task), so each scenario replays the identical failure
sequence on every run.

Scenario coverage: worker kill, task hang against a deadline, mid-sweep
NaN corruption, backend fallback down the degradation ladder, and
deterministic convergence quarantine; kills and NaN poison also hit
multi-member W-cycle buckets and the fused batches of the serving broker.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Profiler, WCycleSVD
from repro.errors import ConvergenceError, FailureReport
from repro.jacobi import batched
from repro.jacobi.batched import BatchedJacobiEngine
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.runtime import RuntimeConfig, base_executor, get_executor
from repro.serve import ServeConfig, SVDServer


def _batch(seed: int = 7) -> list[np.ndarray]:
    """A ragged, SM-resident batch: several buckets, several shards."""
    rng = np.random.default_rng(seed)
    shapes = [(16, 8)] * 6 + [(12, 12)] * 4 + [(6, 20)] * 3 + [(24, 16)] * 4
    return [rng.standard_normal(s) for s in shapes]


def _assert_bit_identical(got, want, *, skip=()):
    for i, (g, w) in enumerate(zip(got, want)):
        if i in skip:
            continue
        assert g.U.tobytes() == w.U.tobytes(), f"U differs at {i}"
        assert g.S.tobytes() == w.S.tobytes(), f"S differs at {i}"
        assert g.V.tobytes() == w.V.tobytes(), f"V differs at {i}"


@pytest.fixture(scope="module")
def batch():
    return _batch()


@pytest.fixture(scope="module")
def clean(batch):
    """The clean serial reference every recovery must reproduce."""
    with WCycleSVD(device="V100") as solver:
        return solver.decompose_batch(batch)


def _chaos_solve(batch, runtime):
    with WCycleSVD(device="V100", runtime=runtime) as solver:
        return solver.decompose_batch(batch)


class TestChaosScenarios:
    def test_hang_trips_deadline_and_recovers(self, chaos, batch, clean):
        """Scenario 3: tasks wedge past their deadline; the supervisor
        abandons the attempt (DeadlineExceeded) and the retry is clean."""
        chaos("seed=5;hang:p=1.0,delay=0.3")
        res = _chaos_solve(
            batch,
            RuntimeConfig(
                backend="persistent", workers=2, min_shard=2,
                allow_oversubscribe=True, max_retries=1,
                task_timeout=0.05, backoff_base=0.0,
                on_failure="quarantine",
            ),
        )
        _assert_bit_identical(res.results, clean.results)
        assert res.failures
        assert "DeadlineExceeded" in {e.cause for e in res.failures}

    def test_nan_poison_midsweep_recovers(self, chaos, batch, clean):
        """Scenario 4: a stack entry turns NaN mid-sweep; the per-sweep
        finite check raises NonFiniteError and the retry re-reads clean
        data (the poison lands in the solver's private copy)."""
        chaos("seed=11;nan:p=1.0")
        res = _chaos_solve(
            batch,
            RuntimeConfig(
                backend="persistent", workers=2, min_shard=2,
                allow_oversubscribe=True, max_retries=1,
                backoff_base=0.0, on_failure="quarantine",
            ),
        )
        _assert_bit_identical(res.results, clean.results)
        assert res.failures
        assert "NonFiniteError" in {e.cause for e in res.failures}

    def test_backend_fallback_ladder(self, chaos, batch, clean):
        """Scenario 5: a fault pinned to the persistent backend keeps
        firing on every attempt there; recovery comes from the ladder —
        the retry lands on the serial rung, out of the clause's reach."""
        chaos("seed=6;kill:p=1.0,backend=persistent,attempts=99")
        res = _chaos_solve(
            batch,
            RuntimeConfig(
                backend="persistent", workers=2, min_shard=2,
                allow_oversubscribe=True, max_retries=2,
                backoff_base=0.0, on_failure="quarantine",
            ),
        )
        _assert_bit_identical(res.results, clean.results)
        assert res.failures
        assert all(e.recovered for e in res.failures)

    def test_wcycle_large_matrix_rescue(self, chaos):
        """Scenario 1b: kills against W-cycle-sized matrices (beyond SM
        capacity) with a zero retry budget; recovery must come from the
        per-matrix rescue on the executor-free serial solver."""
        rng = np.random.default_rng(0)
        mats = [
            rng.standard_normal((96, 80)),
            rng.standard_normal((128, 96)),
            rng.standard_normal((8, 8)),
        ]
        with WCycleSVD(device="V100") as solver:
            want = solver.decompose_batch(mats)
        chaos("seed=5;kill:p=1.0")
        res = _chaos_solve(
            mats,
            RuntimeConfig(
                backend="persistent", workers=2, allow_oversubscribe=True,
                max_retries=0, backoff_base=0.0, on_failure="quarantine",
            ),
        )
        _assert_bit_identical(res.results, want.results)
        assert res.failures.unrecovered == ()
        assert "wcycle" in {e.stage for e in res.failures}

    def test_profiled_chaos_run_keeps_accounting(self, chaos, batch, clean):
        """Recovered runs must also reproduce the simulated accounting —
        retries change wall-clock, never the modeled GPU cost."""
        profiler = Profiler()
        with WCycleSVD(device="V100") as solver:
            solver.decompose_batch(batch, profiler=profiler)
        want = profiler.report
        chaos("seed=3;kill:p=1.0")
        profiler = Profiler()
        runtime = RuntimeConfig(
            backend="persistent", workers=2, min_shard=2,
            allow_oversubscribe=True, max_retries=1,
            backoff_base=0.0, on_failure="quarantine",
        )
        with WCycleSVD(device="V100", runtime=runtime) as solver:
            solver.decompose_batch(batch, profiler=profiler)
        got = profiler.report
        assert len(got.launches) == len(want.launches)
        for a, b in zip(got.launches, want.launches):
            assert a == b
        assert got.total_time == want.total_time


class TestBucketChaos:
    """Faults against multi-member W-cycle buckets: 128x64 (four members,
    one of them a transposed 64x128) and 512x64 (two members)."""

    @pytest.fixture(scope="class")
    def bucket_batch(self):
        rng = np.random.default_rng(11)
        shapes = [(128, 64)] * 3 + [(512, 64)] * 2 + [(64, 128)]
        return [rng.standard_normal(s) for s in shapes]

    @pytest.fixture(scope="class")
    def bucket_clean(self, bucket_batch):
        profiler = Profiler()
        with WCycleSVD(device="V100") as solver:
            res = solver.decompose_batch(bucket_batch, profiler=profiler)
            rotations = dict(solver.last_level_rotations)
        return res, profiler.report, rotations

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_kill_mid_bucket_recovers(
        self, chaos, bucket_batch, bucket_clean, workers
    ):
        """A persistent worker dies holding a bucket task (a whole bucket
        on two workers, a member shard of one on four), with no retry
        budget: the whole bucket replays inline on the executor-free
        solver, so factors and accounting match a clean run launch for
        launch."""
        want, want_report, want_rotations = bucket_clean
        chaos("seed=3;kill:p=1.0")
        profiler = Profiler()
        runtime = RuntimeConfig(
            backend="persistent", workers=workers, allow_oversubscribe=True,
            max_retries=0, backoff_base=0.0, on_failure="quarantine",
        )
        with WCycleSVD(device="V100", runtime=runtime) as solver:
            res = solver.decompose_batch(bucket_batch, profiler=profiler)
            rotations = dict(solver.last_level_rotations)
        _assert_bit_identical(res.results, want.results)
        assert rotations == want_rotations
        assert profiler.report.launches == want_report.launches
        assert res.failures, "the kill clause never fired"
        assert res.failures.unrecovered == ()
        assert {e.index for e in res.failures} == set(range(len(bucket_batch)))
        assert {e.stage for e in res.failures} == {"wcycle"}

    @pytest.mark.parametrize("workers, shards", [(2, 1), (4, 2)])
    def test_nan_poison_keeps_healthy_bucket_mates(
        self, chaos, bucket_batch, bucket_clean, workers, shards
    ):
        """A NaN lands in one member's panel mid-step, in every task (a
        whole bucket on two workers, a member shard of one on four). The
        bucket fails numerically and every member re-solves alone: each
        poisoned one is named and recovered, its healthy bucket-mates
        keep their bytes."""
        want, want_report, _ = bucket_clean
        chaos("seed=11;nan:p=1.0")
        profiler = Profiler()
        runtime = RuntimeConfig(
            backend="persistent", workers=workers, allow_oversubscribe=True,
            max_retries=0, backoff_base=0.0, on_failure="quarantine",
        )
        with WCycleSVD(device="V100", runtime=runtime) as solver:
            res = solver.decompose_batch(bucket_batch, profiler=profiler)
        _assert_bit_identical(res.results, want.results)
        named = {e.index for e in res.failures}
        assert {e.cause for e in res.failures} == {"NonFiniteError"}
        assert res.failures.unrecovered == ()
        # One poisoned member per task; the other members were healthy.
        for bucket in ({0, 1, 2, 5}, {3, 4}):
            assert len(named & bucket) == shards, (named, bucket)
        # Solo re-solves regroup launches but model the same work.
        for kernel in want_report.by_kernel():
            got = [s for s in profiler.report.launches if s.kernel == kernel]
            ref = [s for s in want_report.launches if s.kernel == kernel]
            assert sum(s.flops for s in got) == sum(s.flops for s in ref)
            assert sum(s.gm_bytes for s in got) == sum(s.gm_bytes for s in ref)


class TestConvergenceQuarantine:
    """Scenario 6: deterministic numerical failure — no fault plan at all."""

    def _mixed_batch(self):
        rng = np.random.default_rng(2)
        easy = [np.diag([5.0, 3.0, 2.0]) for _ in range(2)]  # 1-sweep conv.
        hard = [rng.standard_normal((12, 12)) for _ in range(2)]
        return easy + hard, [2, 3]

    def _engine(self):
        # One sweep is enough for orthogonal-column matrices and hopeless
        # for random ones: a deterministic convergence failure.
        return BatchedJacobiEngine(
            svd_config=OneSidedConfig(tol=1e-14, max_sweeps=1)
        )

    def test_raise_mode_names_offenders(self):
        mats, hard_idx = self._mixed_batch()
        with pytest.raises(ConvergenceError) as info:
            self._engine().svd_batch(mats)
        assert info.value.batch_indices == tuple(hard_idx)
        assert "bucket shape" in str(info.value)

    def test_quarantine_mode_isolates_offenders(self):
        mats, hard_idx = self._mixed_batch()
        engine = self._engine()
        results = engine.svd_batch(mats, on_failure="quarantine")
        report = engine.last_failures
        assert isinstance(report, FailureReport)
        # The reference path fails on the same deterministic budget, so
        # the offenders end quarantined-and-unrecovered with NaN slots.
        assert report.unrecovered == tuple(hard_idx)
        for i in hard_idx:
            assert np.isnan(results[i].S).all()
            events = report.for_index(i)
            assert events, f"matrix {i} missing from the report"
            assert all(e.cause == "ConvergenceError" for e in events)
            assert all(e.attempts >= 1 for e in events)
        # Survivors are bit-identical to the scalar reference solver.
        scalar = OneSidedJacobiSVD(OneSidedConfig(tol=1e-14, max_sweeps=1))
        for i in range(len(mats)):
            if i in hard_idx:
                continue
            want = scalar.decompose(mats[i])
            assert results[i].U.tobytes() == want.U.tobytes()
            assert results[i].S.tobytes() == want.S.tobytes()
            assert results[i].V.tobytes() == want.V.tobytes()

    @staticmethod
    def _assert_fallback_quarantine(engine, solve, mats, hard_idx):
        """The per-matrix fallback in quarantine mode: each offender gets
        NaN factors and exactly one unrecovered ``engine`` entry; every
        other matrix keeps the bytes of a raise-mode solve."""
        results = solve(engine, mats, on_failure="quarantine")
        report = engine.last_failures
        assert report.unrecovered == tuple(hard_idx)
        for i in hard_idx:
            (event,) = report.for_index(i)
            assert (event.stage, event.cause) == ("engine", "ConvergenceError")
            assert (event.attempts, event.recovered) == (1, False)
            for factor in vars(results[i]).values():
                if isinstance(factor, np.ndarray):
                    assert np.isnan(factor).all()
        healthy = [i for i in range(len(mats)) if i not in hard_idx]
        want = solve(engine, [mats[i] for i in healthy], on_failure="raise")
        assert not engine.last_failures
        for i, w in zip(healthy, want):
            for name, factor in vars(w).items():
                if isinstance(factor, np.ndarray):
                    got = getattr(results[i], name)
                    assert got.tobytes() == factor.tobytes(), (i, name)

    def test_dynamic_ordering_fallback_quarantines_offenders(self):
        mats, hard_idx = self._mixed_batch()
        engine = BatchedJacobiEngine(
            svd_config=OneSidedConfig(
                tol=1e-14, max_sweeps=1, ordering="dynamic"
            )
        )
        self._assert_fallback_quarantine(
            engine, BatchedJacobiEngine.svd_batch, mats, hard_idx
        )

    def test_sequential_evd_fallback_quarantines_offenders(self):
        rng = np.random.default_rng(3)
        easy = [np.diag([5.0, 3.0, 2.0]) for _ in range(2)]
        hard = [rng.standard_normal((12, 12)) for _ in range(2)]
        engine = BatchedJacobiEngine(
            evd_config=TwoSidedConfig(tol=1e-14, max_sweeps=1),
            parallel_evd=False,
        )
        self._assert_fallback_quarantine(
            engine,
            BatchedJacobiEngine.evd_batch,
            [easy[0], hard[0] + hard[0].T, easy[1], hard[1] + hard[1].T],
            [1, 3],
        )

    @pytest.mark.parametrize("kind", ["svd", "evd"])
    def test_reference_rung_recovers(self, monkeypatch, kind):
        """When the reference per-matrix solver succeeds where the stacked
        one failed, the matrix takes the reference's factors and its one
        entry names the stacked failure as recovered."""
        if kind == "svd":
            mats, hard_idx = self._mixed_batch()
            engine = self._engine()
            reference, solve = "OneSidedJacobiSVD", engine.svd_batch
        else:
            rng = np.random.default_rng(4)
            hard = [rng.standard_normal((12, 12)) for _ in range(2)]
            mats = [np.diag([4.0, 2.0, 1.0])] * 2 + [h + h.T for h in hard]
            hard_idx = [2, 3]
            engine = BatchedJacobiEngine(
                evd_config=TwoSidedConfig(tol=1e-14, max_sweeps=1)
            )
            reference, solve = "ParallelJacobiEVD", engine.evd_batch
        real = getattr(batched, reference)
        solved = {}

        class Stub:
            """A reference solver that succeeds: the real one, given the
            sweeps the stacked solver did not have."""

            def __init__(self, config):
                self.solver = real(dataclasses.replace(config, max_sweeps=50))

            def decompose(self, a):
                solved[a.tobytes()] = res = self.solver.decompose(a)
                return res

        monkeypatch.setattr(batched, reference, Stub)
        results = solve(mats, on_failure="quarantine")
        report = engine.last_failures
        assert report.quarantined == tuple(hard_idx)
        assert report.unrecovered == ()
        for i in hard_idx:
            (event,) = report.for_index(i)
            assert (event.stage, event.cause) == ("engine", "ConvergenceError")
            assert "did not converge in 1 sweeps" in event.message
            assert (event.attempts, event.recovered) == (3, True)
            assert results[i] is solved[mats[i].tobytes()]


class TestPersistentChaos:
    """The persistent backend survives worker death: the supervisor
    respawns the pool and the retry recovers bit-identically."""

    def test_worker_kill_on_persistent_recovers(self, chaos, batch, clean):
        chaos("seed=3;kill:p=1.0")
        runtime = get_executor(
            RuntimeConfig(
                backend="persistent", workers=2, min_shard=2,
                allow_oversubscribe=True, max_retries=2,
                backoff_base=0.0, on_failure="quarantine",
            )
        )
        base = base_executor(runtime)
        solver = WCycleSVD(device="V100", runtime=runtime)
        try:
            res = solver.decompose_batch(batch)
            stats = base.dispatch_stats()
            assert stats["respawns"] >= 1, "the kill never broke the pool"
        finally:
            solver.close()
        _assert_bit_identical(res.results, clean.results)
        assert res.failures, "the kill clause never fired"
        assert all(e.recovered for e in res.failures)

    def test_nan_poison_on_persistent_recovers(self, chaos, batch, clean):
        """The nan fault reaches stacks shipped to the workers too:
        solvers poison their private working copy inside the worker, the
        finite check trips, and the retry re-reads the untouched input."""
        chaos("seed=11;nan:p=1.0")
        res = _chaos_solve(
            batch,
            RuntimeConfig(
                backend="persistent", workers=2, min_shard=2,
                allow_oversubscribe=True, max_retries=1,
                backoff_base=0.0, on_failure="quarantine",
            ),
        )
        _assert_bit_identical(res.results, clean.results)
        assert res.failures
        assert "NonFiniteError" in {e.cause for e in res.failures}


def _serve_on_persistent(mats):
    """Serve ``mats`` on a resilient 2-worker persistent executor; return
    the results, the executor's last retry history and the stats."""
    executor = get_executor(
        RuntimeConfig(
            backend="persistent", workers=2, min_shard=2,
            allow_oversubscribe=True, max_retries=2,
            backoff_base=0.0, on_failure="quarantine",
        )
    )
    try:
        config = ServeConfig(max_batch=32, max_wait_ms=5.0)
        with SVDServer(config, runtime=executor) as server:
            futures = [server.submit(m) for m in mats]
            got = [f.result(timeout=60) for f in futures]
        failures = executor.last_failures
    finally:
        executor.close()
    return got, failures, server.stats()


class TestServeChaos:
    """The served path under injected faults: requests fused by
    :class:`~repro.serve.SVDServer` ride the resilient executor, so a
    fault inside a fused batch's tasks is retried below the broker. Every
    future must resolve with the bytes of a standalone solve, and the
    retries must show in ``ServerStats.task_failures``."""

    @staticmethod
    def _requests():
        rng = np.random.default_rng(29)
        shapes = [(16, 8), (12, 12), (24, 16)]
        return [rng.standard_normal(shapes[i % 3]) for i in range(24)]

    @pytest.mark.parametrize("kind", ["kill", "nan"])
    def test_served_batches_recover_bit_identically(self, chaos, kind):
        mats = self._requests()
        want = BatchedJacobiEngine().svd_batch(mats)
        chaos(f"seed=31;{kind}:p=1.0,attempts=1")
        got, failures, stats = _serve_on_persistent(mats)
        _assert_bit_identical(got, want)
        assert failures, f"the {kind} clause never fired"
        assert stats.task_failures, stats.as_dict()

    def test_clean_served_run_reports_no_task_failures(self, chaos):
        mats = self._requests()
        # A plan with no clauses: nothing fires, even when the session
        # runs under an env-armed fault plan.
        chaos("seed=31")
        _, failures, stats = _serve_on_persistent(mats)
        assert failures == []
        assert stats.task_failures == {}
        assert stats.completed == len(mats)
