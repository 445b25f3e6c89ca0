"""The serving broker: admission, flush timing, fan-out, bit-identity.

Deterministic tests drive a non-started server (``start=False``) with an
injected fake clock and :meth:`SVDServer.poll` — flush behavior is a
pure function of the clock, so there is not a single sleep here.
"""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    FailureReport,
    NonFiniteError,
    ServerClosed,
    ServerOverloaded,
    ShapeError,
)
from repro.jacobi.batched import BatchedJacobiEngine
from repro.jacobi.onesided_vector import OneSidedConfig
from repro.serve import (
    ServeConfig,
    SVDServer,
    positions_to_request_ids,
    remap_fused_failure,
    report_by_request,
)


class FakeClock:
    """Injected monotonic clock: advances only when told to."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def manual_server(clock, **knobs):
    """A non-started server driven by poll() under the fake clock."""
    return SVDServer(ServeConfig(**knobs), clock=clock, start=False)


class RecordingEngine(BatchedJacobiEngine):
    """Real engine that records the fused dispatch order."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fused = []

    def svd_batch(self, matrices, *, on_failure=None):
        self.fused.append([m.shape for m in matrices])
        return super().svd_batch(matrices, on_failure=on_failure)


class TestConfig:
    def test_rejects_bad_knobs(self):
        for bad in (
            dict(max_batch=0),
            dict(max_wait_ms=-1),
            dict(deadline_slack_ms=-1),
            dict(max_pending=0),
            dict(stats_window=0),
        ):
            with pytest.raises(ConfigurationError):
                ServeConfig(**bad)

    def test_engine_and_runtime_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            SVDServer(
                engine=BatchedJacobiEngine(), runtime="serial", start=False
            )

    def test_engine_must_look_like_a_solver(self):
        with pytest.raises(ConfigurationError):
            SVDServer(engine=object(), start=False)


class TestAdmission:
    def test_validation_fails_in_the_caller(self, clock):
        server = manual_server(clock)
        with pytest.raises(ShapeError):
            server.submit(np.zeros(5))  # 1-D
        assert server.pending == 0

    def test_bad_deadline_rejected(self, clock):
        server = manual_server(clock)
        with pytest.raises(ConfigurationError):
            server.submit(np.zeros((4, 2)), deadline_ms=0)

    def test_backpressure_raises_server_overloaded(self, clock):
        server = manual_server(clock, max_pending=2, max_batch=16)
        server.submit(np.zeros((4, 2)))
        server.submit(np.zeros((4, 2)))
        with pytest.raises(ServerOverloaded) as info:
            server.submit(np.zeros((4, 2)))
        assert info.value.pending == 2
        assert info.value.capacity == 2
        stats = server.stats()
        assert stats.rejected == 1
        assert stats.submitted == 2

    def test_rejected_submit_frees_no_slot(self, clock, rng):
        server = manual_server(clock, max_pending=1, max_wait_ms=0.0)
        server.submit(rng.standard_normal((4, 2)))
        with pytest.raises(ServerOverloaded):
            server.submit(rng.standard_normal((4, 2)))
        # Dispatching drains the queue; admission works again.
        assert server.poll() == 1
        server.submit(rng.standard_normal((4, 2)))

    def test_closed_server_refuses_submits(self, clock):
        server = manual_server(clock)
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(np.zeros((4, 2)))


class TestFlushTiming:
    def test_max_wait_flush_under_fake_clock(self, clock, rng):
        server = manual_server(clock, max_batch=16, max_wait_ms=5.0)
        f1 = server.submit(rng.standard_normal((8, 4)))
        f2 = server.submit(rng.standard_normal((8, 4)))
        # Not due yet: nothing dispatches no matter how often we poll.
        clock.advance(0.004)
        assert server.poll() == 0
        assert not f1.done()
        # Crossing max_wait flushes the bucket as one fused batch.
        clock.advance(0.002)
        assert server.poll() == 1
        assert f1.done() and f2.done()
        stats = server.stats()
        assert stats.flush_causes == {"wait": 1}
        assert stats.batch_fill == {2: 1}

    def test_fill_flush_needs_no_clock_advance(self, clock, rng):
        server = manual_server(clock, max_batch=2, max_wait_ms=1e6)
        server.submit(rng.standard_normal((8, 4)))
        server.submit(rng.standard_normal((8, 4)))
        assert server.poll() == 1
        assert server.stats().flush_causes == {"fill": 1}

    def test_deadline_pressure_flush(self, clock, rng):
        server = manual_server(
            clock, max_batch=16, max_wait_ms=1e6, deadline_slack_ms=2.0
        )
        future = server.submit(
            rng.standard_normal((8, 4)), deadline_ms=10.0
        )
        clock.advance(0.005)
        assert server.poll() == 0
        # 10ms deadline - 2ms slack: due at +8ms.
        clock.advance(0.004)
        assert server.poll() == 1
        assert future.done()
        assert server.stats().flush_causes == {"deadline": 1}

    def test_latency_measures_the_injected_clock(self, clock, rng):
        server = manual_server(clock, max_batch=16, max_wait_ms=5.0)
        server.submit(rng.standard_normal((8, 4)))
        clock.advance(0.006)
        assert server.poll() == 1
        stats = server.stats()
        assert stats.latency_p50 == pytest.approx(0.006)
        assert stats.latency_max == pytest.approx(0.006)

    def test_stats_reset_leaves_an_empty_window_not_a_crash(
        self, clock, rng
    ):
        # Regression: a snapshot of a fresh server — the window empty,
        # zero completions — must degrade every quantile to NaN, and the
        # summary string must render, not raise.
        server = manual_server(clock, max_batch=16, max_wait_ms=5.0)
        stats = server.stats()
        assert stats.window == 0
        assert stats.submitted == 0
        assert stats.completed == 0
        assert stats.batches == 0
        for value in (
            stats.latency_p50,
            stats.latency_p95,
            stats.latency_p99,
            stats.latency_max,
            stats.mean_fill,
        ):
            assert np.isnan(value)
        assert "latency" in stats.summary()
        # The first completion populates the window.
        server.submit(rng.standard_normal((8, 4)))
        clock.advance(0.006)
        server.poll()
        stats = server.stats()
        assert stats.window == 1
        assert stats.latency_p50 == pytest.approx(0.006)


class TestOrderingThroughDispatch:
    def test_priority_then_edf_orders_the_fused_stack(self, clock):
        captured = []
        inner = BatchedJacobiEngine()

        class CapturingEngine:
            last_failures = FailureReport()

            def svd_batch(self, matrices, *, on_failure=None):
                # All matrices share a shape (one bucket); entry [0,0]
                # encodes the submit index, exposing the fused order.
                captured.extend(float(m[0, 0]) for m in matrices)
                results = inner.svd_batch(matrices, on_failure=on_failure)
                self.last_failures = inner.last_failures
                return results

        server = SVDServer(
            ServeConfig(max_batch=16, max_wait_ms=0.0),
            engine=CapturingEngine(),
            clock=clock,
            start=False,
        )
        mats = [np.eye(8, 4) * (i + 1) for i in range(4)]
        server.submit(mats[0], priority=0)
        server.submit(mats[1], priority=5)
        server.submit(mats[2], priority=0, deadline_ms=50.0)
        server.submit(mats[3], priority=5, deadline_ms=50.0)
        assert server.poll() == 1
        # priority 5 first (deadline-bearing before deadline-free),
        # then priority 0 likewise.
        assert captured == [4.0, 2.0, 3.0, 1.0]


class TestBitIdentity:
    def test_served_results_match_standalone_solves(self, clock, rng):
        mats = [rng.standard_normal((16, 8)) for _ in range(6)]
        server = manual_server(clock, max_batch=4, max_wait_ms=0.0)
        futures = [server.submit(a) for a in mats]
        while server.pending:
            server.poll()
        served = [f.result(timeout=0) for f in futures]
        reference = BatchedJacobiEngine().svd_batch(mats)
        for got, want in zip(served, reference):
            assert np.array_equal(got.U, want.U)
            assert np.array_equal(got.S, want.S)
            assert np.array_equal(got.V, want.V)

    def test_mixed_shapes_fuse_per_bucket_and_stay_identical(
        self, clock, rng
    ):
        shapes = [(16, 8), (12, 12), (16, 8), (12, 12), (16, 8)]
        mats = [rng.standard_normal(s) for s in shapes]
        engine = RecordingEngine()
        server = SVDServer(
            ServeConfig(max_batch=8, max_wait_ms=0.0),
            engine=engine,
            clock=clock,
            start=False,
        )
        futures = [server.submit(a) for a in mats]
        while server.pending:
            server.poll()
        # One fused batch per shape bucket, never mixed.
        assert sorted(len(call) for call in engine.fused) == [2, 3]
        for call in engine.fused:
            assert len(set(call)) == 1
        reference = BatchedJacobiEngine().svd_batch(mats)
        for future, want in zip(futures, reference):
            got = future.result(timeout=0)
            assert np.array_equal(got.S, want.S)


class TestFailureFanOut:
    def test_positions_translate_to_request_ids(self):
        assert positions_to_request_ids((0, 2), (10, 11, 12)) == (10, 12)
        assert positions_to_request_ids(None, (10, 11)) == (10, 11)
        with pytest.raises(IndexError):
            positions_to_request_ids((3,), (10, 11))

    def test_remap_rewrites_batch_indices(self):
        exc = ConvergenceError(
            "no convergence", sweeps=5, residual=1.0, batch_indices=(1,)
        )
        mapped = remap_fused_failure(exc, (40, 41, 42))
        assert isinstance(mapped, ConvergenceError)
        assert mapped.batch_indices == (41,)
        assert "41" in str(mapped)
        assert mapped.sweeps == 5

    def test_remap_implicates_whole_batch_without_indices(self):
        exc = NonFiniteError("NaN appeared")
        mapped = remap_fused_failure(exc, (7, 9))
        assert mapped.batch_indices == (7, 9)

    def test_remap_passes_infrastructure_errors_through(self):
        exc = RuntimeError("worker crashed")
        assert remap_fused_failure(exc, (1, 2)) is exc

    def test_report_groups_by_request_id(self):
        report = FailureReport()
        report.add(
            index=1, stage="svd", cause="ConvergenceError",
            message="m", attempts=1, recovered=False,
        )
        report.add(
            index=-1, stage="executor", cause="WorkerCrashError",
            message="m", attempts=2, recovered=True,
        )
        grouped = report_by_request(report, (30, 31))
        assert set(grouped) == {31, -1}

    def test_unconverged_request_fails_by_id_not_position(
        self, clock, rng
    ):
        # The regression this guards: after priority reordering, the
        # failing request's position in the fused stack differs from its
        # id — the exception must name the id.
        engine = BatchedJacobiEngine(
            svd_config=OneSidedConfig(max_sweeps=1)
        )
        server = SVDServer(
            ServeConfig(max_batch=16, max_wait_ms=0.0),
            engine=engine,
            clock=clock,
            start=False,
        )
        easy = np.diag(np.arange(1.0, 5.0))  # converges in one sweep
        hard = rng.standard_normal((4, 4))
        f_hard = server.submit(hard, priority=0)  # id 0
        f_easy1 = server.submit(easy, priority=5)  # id 1 -> position 0
        f_easy2 = server.submit(easy, priority=5)  # id 2 -> position 1
        # id 0 dispatches at position 2: id != position.
        assert server.poll() == 1
        assert np.isfinite(f_easy1.result(timeout=0).S).all()
        assert np.isfinite(f_easy2.result(timeout=0).S).all()
        with pytest.raises(ConvergenceError) as info:
            f_hard.result(timeout=0)
        assert info.value.batch_indices == (0,)
        assert "request 0" in str(info.value)
        stats = server.stats()
        assert stats.failed == 1
        assert stats.completed == 2
        assert stats.quarantined == 1

    def test_healthy_neighbors_stay_bit_identical(self, clock, rng):
        engine = BatchedJacobiEngine(
            svd_config=OneSidedConfig(max_sweeps=1)
        )
        server = SVDServer(
            ServeConfig(max_batch=16, max_wait_ms=0.0),
            engine=engine,
            clock=clock,
            start=False,
        )
        easy = np.diag(np.arange(1.0, 5.0))
        hard = rng.standard_normal((4, 4))
        f_easy = server.submit(easy)
        server.submit(hard)
        server.poll()
        reference = BatchedJacobiEngine(
            svd_config=OneSidedConfig(max_sweeps=1)
        ).svd_batch([easy])[0]
        got = f_easy.result(timeout=0)
        assert np.array_equal(got.S, reference.S)


class TestLifecycle:
    def test_drain_resolves_everything(self, rng):
        with SVDServer(ServeConfig(max_batch=8, max_wait_ms=1.0)) as server:
            futures = [
                server.submit(rng.standard_normal((8, 4)))
                for _ in range(5)
            ]
            server.drain()
            assert all(f.done() for f in futures)
        assert server.stats().completed == 5

    def test_close_without_drain_fails_queued_futures(self, clock, rng):
        server = manual_server(clock, max_batch=16, max_wait_ms=1e6)
        future = server.submit(rng.standard_normal((8, 4)))
        server.close(drain=False)
        with pytest.raises(ServerClosed):
            future.result(timeout=0)
        stats = server.stats()
        assert stats.failed == 1
        assert stats.pending == 0
        assert stats.inflight == 0

    def test_close_is_idempotent(self, clock):
        server = manual_server(clock)
        server.close()
        server.close()

    def test_background_thread_end_to_end(self, rng):
        # The one test that exercises the real dispatch thread + real
        # clock: submit from the caller, block on the future.
        with SVDServer(ServeConfig(max_batch=4, max_wait_ms=0.5)) as server:
            result = server.submit(rng.standard_normal((8, 4))).result()
        assert result.S.shape == (4,)

    def test_client_solve_batch_fuses(self, rng):
        # A client that submits its whole batch before it waits.
        mats = [rng.standard_normal((8, 4)) for _ in range(8)]
        with SVDServer(ServeConfig(max_batch=8, max_wait_ms=5.0)) as server:
            futures = [server.submit(a) for a in mats]
            results = [f.result() for f in futures]
            stats = server.stats()
        assert len(results) == 8
        assert stats.completed == 8
        # All eight shared one bucket; they fused rather than going
        # one-at-a-time (at most a few batches, not eight).
        assert stats.batches < 8


class TestWCycleDispatch:
    def test_wcycle_engine_duck_types(self, clock, rng):
        from repro import WCycleSVD

        mats = [rng.standard_normal((16, 8)) for _ in range(3)]
        with WCycleSVD(device="V100") as wcycle:
            server = SVDServer(
                ServeConfig(max_batch=8, max_wait_ms=0.0),
                engine=wcycle,
                clock=clock,
                start=False,
            )
            futures = [server.submit(a) for a in mats]
            while server.pending:
                server.poll()
            served = [f.result(timeout=0) for f in futures]
            reference = wcycle.decompose_batch(mats)
        for got, want in zip(served, reference):
            assert np.array_equal(got.S, want.S)


class TestLoadgenSpotChecks:
    def test_cadence_counts_over_the_whole_run(self):
        # The CI smoke spec: each of the 16 threads completes 12 or 13
        # requests, so a per-thread count to 25 would verify none of them.
        # A short switch interval interleaves the threads' shared count
        # often; a lost update would verify fewer than 8.
        import sys

        from repro.serve import LoadSpec, run_closed_loop

        spec = LoadSpec(requests=200, concurrency=16, verify_every=25)
        config = ServeConfig(max_batch=32, max_wait_ms=2.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SVDServer(config, runtime="serial") as server:
                report = run_closed_loop(server, spec)
        finally:
            sys.setswitchinterval(interval)
        assert report.completed == 200, report.errors
        assert report.verified == 8
        assert report.mismatches == 0, report.errors
