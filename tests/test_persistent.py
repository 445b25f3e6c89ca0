"""Persistent worker arenas: slot leases, manifest dispatch, warm pools.

Covers the PR 7 tentpole from the bottom up: the :class:`Arena` lease
protocol (grow/lease/return, double-release rejection, clean unlink),
the :class:`PersistentExecutor` (LPT manifests, batched IPC, error
semantics, respawn that re-attaches arenas and replays warm plans, lease
balance after engine and W-cycle solves), and the serving layer keeping
replicas warm *between* fused batches. The cross-backend bit-identity
acceptance lives in ``tests/test_runtime.py`` (``persistent`` is
parametrized there); the fault-injection scenarios live in
``tests/test_chaos.py``.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro import WCycleSVD
from repro.errors import ConfigurationError, SegmentLostError, ShapeError
from repro.jacobi.batched import BatchedJacobiEngine
from repro.runtime import RuntimeConfig, faults, get_executor
from repro.runtime.arena import (
    Arena,
    SlotRef,
    attach,
    resolve,
    stranded_segments,
)
from repro.runtime.persistent import PersistentExecutor, WorkerPoolBroken
from repro.runtime.resilient import base_executor
from repro.serve import ServeConfig, SVDServer


def _square(x):
    return x * x


def _sleep_in_worker(x):
    """Sleeps only inside a forked worker: the parent's serial retry
    rung returns immediately, so a deadline test converges."""
    if multiprocessing.parent_process() is not None:
        time.sleep(30.0)
    return x * 3


def _unpicklable_result(x):
    if x == 0:
        return lambda: None  # pickle rejects lambdas
    return x * 2


class _UnpicklableError(Exception):
    def __init__(self) -> None:
        super().__init__("boom")
        self.callback = lambda: None  # poisons the exception's __dict__


def _raise_unpicklable(x):
    raise _UnpicklableError()


def _shape_error(x):
    raise ShapeError(f"task {x} is malformed")


def _boom_on_even(x):
    if x % 2 == 0:
        raise ShapeError(f"even task {x}")
    return -x


class TestArenaLeases:
    def test_place_round_trip(self, rng):
        stack = rng.standard_normal((3, 8, 4))
        with Arena() as arena:
            ref = arena.place(stack)
            try:
                assert isinstance(ref, SlotRef)
                assert np.array_equal(arena.view(ref), stack)
                assert np.array_equal(resolve(ref), stack)
            finally:
                arena.release_lease(ref)
            assert arena.outstanding() == 0

    def test_reserve_then_write_then_view(self, rng):
        want = rng.standard_normal((2, 5, 5))
        with Arena() as arena:
            ref = arena.reserve((2, 5, 5), np.float64)
            try:
                resolve(ref)[...] = want
                assert np.array_equal(arena.view(ref), want)
            finally:
                arena.release_lease(ref)

    def test_slot_reuse_is_lifo(self):
        with Arena() as arena:
            a = arena.reserve((4,), np.float64)  # repro: noqa[SHM02]
            # straight-line release by design: reuse after return is the
            # behavior under test, so there is no exception window.
            arena.release_lease(a)
            b = arena.reserve((4,), np.float64)
            try:
                assert (b.segment, b.slot) == (a.segment, a.slot)
            finally:
                arena.release_lease(b)

    def test_double_release_rejected(self):
        with Arena() as arena:
            ref = arena.reserve((2, 2), np.float64)  # repro: noqa[SHM02]
            # the second release below is the behavior under test.
            arena.release_lease(ref)
            with pytest.raises(ConfigurationError, match="double release"):
                arena.release_lease(ref)

    def test_view_requires_outstanding_lease(self):
        with Arena() as arena:
            ref = arena.reserve((2, 2), np.float64)  # repro: noqa[SHM02]
            # released on purpose: view() must reject the stale ref.
            arena.release_lease(ref)
            with pytest.raises(ConfigurationError, match="not leased"):
                arena.view(ref)

    def test_oversized_reservation_grows_a_segment(self, rng):
        with Arena(slot_bytes=1 << 10, slots_per_segment=2) as arena:
            big = rng.standard_normal((64, 64))  # 32 KiB > 1 KiB slots
            ref = arena.place(big)
            try:
                stats = arena.stats()
                assert stats["grown_segments"] == 1
                assert stats["segments"] == 2
                assert np.array_equal(arena.view(ref), big)
            finally:
                arena.release_lease(ref)

    def test_armed_segment_loss_fires_when_a_task_maps_its_slot(self, rng):
        """``shm_lost`` injects where a persistent task maps its slots;
        outside a fault frame, or on a retry past the clause's budget,
        the slot resolves."""
        plan = faults.parse_spec("seed=1;shm_lost:p=1.0")
        with Arena() as arena:
            ref = arena.place(rng.standard_normal((2, 3)))
            try:
                with faults.activate(plan, "t0", backend="persistent"):
                    with pytest.raises(SegmentLostError, match=ref.segment):
                        resolve(ref)
                with faults.activate(plan, "t0", attempt=1):
                    assert resolve(ref).shape == (2, 3)
                assert resolve(ref).shape == (2, 3)
            finally:
                arena.release_lease(ref)

    def test_spec_attach_is_idempotent(self):
        with Arena() as arena:
            spec = arena.spec()
            # Same process already has every segment mapped (creation
            # registers them), so attach() maps nothing new.
            assert attach(spec) == 0

    def test_close_unlinks_and_is_idempotent(self):
        arena = Arena()
        prefix = arena._prefix
        assert any(name.startswith(prefix) for name in stranded_segments())
        arena.close()
        arena.close()
        assert not any(name.startswith(prefix) for name in stranded_segments())
        with pytest.raises(ConfigurationError, match="closed"):
            arena.reserve((2, 2), np.float64)


class TestPersistentExecutor:
    def test_map_orders_results_under_costs(self):
        with PersistentExecutor(2) as ex:
            out = ex.map(_square, [1, 2, 3, 4, 5], costs=[5, 1, 4, 2, 3])
        assert out == [1, 4, 9, 16, 25]

    def test_map_single_item_runs_inline(self):
        with PersistentExecutor(2) as ex:
            assert ex.map(_square, [7]) == [49]
            # Inline fast path: no manifest was shipped for it.
            assert ex.dispatch_stats()["ipc_round_trips"] == 0

    def test_map_raises_earliest_task_error(self):
        with PersistentExecutor(2) as ex:
            with pytest.raises(ShapeError, match="even task 2"):
                ex.map(_boom_on_even, [1, 2, 3, 4])

    def test_submit_future_result_and_exception(self):
        with PersistentExecutor(2) as ex:
            assert ex.submit(_square, 9).result(timeout=30) == 81
            exc = ex.submit(_shape_error, 1).exception(timeout=30)
            assert isinstance(exc, ShapeError)

    def test_manifest_batching_one_round_trip_per_worker(self):
        with PersistentExecutor(2) as ex:
            ex.map(_square, list(range(16)))
            stats = ex.dispatch_stats()
            # 16 tasks travelled as 2 manifests (one per worker), not 16
            # pickled submissions — the whole point of the backend.
            assert stats["tasks"] == 16
            assert stats["ipc_round_trips"] == 2
            assert stats["batches"] == 2

    def test_warm_is_idempotent_and_replayed_on_respawn(self):
        from repro.jacobi.onesided_vector import OneSidedConfig

        with PersistentExecutor(2) as ex:
            ex.map(_square, [1, 2, 3, 4])  # spin the pool up
            before = ex.dispatch_stats()["control_msgs"]
            ex.warm("svd", OneSidedConfig(), 8)
            ex.warm("svd", OneSidedConfig(), 8)  # same key: no broadcast
            after = ex.dispatch_stats()["control_msgs"]
            assert after - before == 2  # one message per live worker
            ex.respawn()
            assert ex.map(_square, [5, 6]) == [25, 36]
            assert ex.dispatch_stats()["respawns"] == 1

    def test_respawn_preserves_arena_and_leases(self, rng):
        stack = rng.standard_normal((2, 6, 3))
        with PersistentExecutor(2) as ex:
            arena = ex.arena
            ref = arena.place(stack)
            try:
                ex.respawn()
                assert ex.arena is arena
                assert arena.outstanding() == 1
                # Fresh workers re-attach the same segments by name and
                # read the still-leased slot's bytes unchanged.
                assert np.array_equal(arena.view(ref), stack)
                assert ex.map(_square, [2, 3]) == [4, 9]
            finally:
                arena.release_lease(ref)

    def test_dead_worker_surfaces_as_pool_broken(self):
        with PersistentExecutor(2) as ex:
            ex.map(_square, [1, 2])  # spin up
            for w in ex._workers:
                w.proc.terminate()
                w.proc.join(timeout=5.0)
            with pytest.raises(WorkerPoolBroken):
                fut = ex.submit(_square, 3)
                fut.result(timeout=30)

    def test_deadline_terminates_zombie_workers_before_retry(self):
        """A timed-out manifest may still be *running* in its worker —
        ``fut.cancel()`` cannot stop it. The supervisor must terminate
        the pool before the retry round, or the zombie could read/write
        slots after their leases return to the free list and are
        re-leased to another batch (silent corruption)."""
        from repro.runtime.resilient import ResilientExecutor, RetryPolicy

        inner = PersistentExecutor(2)
        with ResilientExecutor(
            inner,
            RetryPolicy(max_retries=1, task_timeout=0.25, backoff_base=0.0),
        ) as ex:
            inner._ensure_workers()
            doomed = [w.proc for w in inner._workers]
            assert ex.map(_sleep_in_worker, [1, 2]) == [3, 6]
            assert "DeadlineExceeded" in {f.cause for f in ex.last_failures}
            assert inner.dispatch_stats()["respawns"] == 1
            for proc in doomed:
                proc.join(timeout=5.0)
                assert not proc.is_alive()

    def test_unpicklable_payload_costs_only_its_task(self):
        with PersistentExecutor(2) as ex:
            with pytest.raises(RuntimeError, match="unpicklable"):
                ex.map(_unpicklable_result, [0, 1])
            with pytest.raises(RuntimeError, match="unpicklable"):
                ex.map(_raise_unpicklable, [1, 2])
            # Both workers survived the bad payloads: the original pool
            # serves the next map and nothing was respawned.
            assert ex.map(_square, [3, 4]) == [9, 16]
            stats = ex.dispatch_stats()
            assert stats["spawns"] == 1
            assert stats["respawns"] == 0

    def test_unpicklable_result_recovered_on_serial_rung(self):
        """The placeholder error is retryable, and the in-process serial
        rung never pickles — so the ladder recovers the real result."""
        from repro.runtime.resilient import ResilientExecutor, RetryPolicy

        with ResilientExecutor(
            PersistentExecutor(2),
            RetryPolicy(max_retries=1, backoff_base=0.0),
        ) as ex:
            out = ex.map(_unpicklable_result, [0, 1])
            assert callable(out[0])
            assert out[1] == 2

    def test_close_strands_nothing(self):
        ex = PersistentExecutor(2)
        arena = ex.arena
        prefix = arena._prefix
        ex.map(_square, [1, 2, 3, 4])
        assert any(name.startswith(prefix) for name in stranded_segments())
        ex.close()
        assert not any(name.startswith(prefix) for name in stranded_segments())

    def test_engine_releases_output_leases_after_finalize(self, rng):
        matrices = [rng.standard_normal((12, 6)) for _ in range(8)]
        wrapped = get_executor(
            RuntimeConfig(
                backend="persistent", workers=2, min_shard=2,
                allow_oversubscribe=True,
            )
        )
        engine = BatchedJacobiEngine(executor=wrapped)
        try:
            ex = base_executor(wrapped)
            results = engine.svd_batch(matrices)
            assert len(results) == 8
            assert ex.arena.outstanding() == 0
            stats = ex.dispatch_stats()
            assert stats["arena_leases"] == stats["arena_returns"] > 0
        finally:
            wrapped.close()

    def test_factors_outlive_arena_slots(self, rng):
        """The engine releases its output slots once it has finalized, and
        the next batch leases them again; factors it returned earlier must
        not alias them, so they keep their bytes (checked while the arena
        is still mapped)."""
        first = [rng.standard_normal((16, 8)) for _ in range(32)]
        second = [rng.standard_normal((16, 8)) for _ in range(32)]
        sym = [rng.standard_normal((8, 8)) for _ in range(64)]
        sym = [M + M.T for M in sym]
        serial = BatchedJacobiEngine()
        want_svd = serial.svd_batch(first)
        want_evd = serial.evd_batch(sym[:32])
        wrapped = get_executor(
            RuntimeConfig(
                backend="persistent", workers=2, allow_oversubscribe=True
            )
        )
        engine = BatchedJacobiEngine(executor=wrapped)
        try:
            ex = base_executor(wrapped)
            got_svd = engine.svd_batch(first)
            got_evd = engine.evd_batch(sym[:32])
            leases = ex.dispatch_stats()["arena_leases"]
            engine.svd_batch(second)
            engine.evd_batch(sym[32:])
            assert ex.dispatch_stats()["arena_leases"] > leases
            assert ex.arena.outstanding() == 0
            for got, want in zip(got_svd, want_svd):
                for name in "USV":
                    assert (
                        getattr(got, name).tobytes()
                        == getattr(want, name).tobytes()
                    )
            for got, want in zip(got_evd, want_evd):
                assert got.J.tobytes() == want.J.tobytes()
                assert got.L.tobytes() == want.L.tobytes()
        finally:
            wrapped.close()

    def test_process_backend_decompose_leaks_nothing(self):
        """A W-cycle solve on the persistent worker processes returns
        every arena lease it took and strands no arena segment once
        closed."""
        rng = np.random.default_rng(11)
        batch = [rng.standard_normal((16, 8)) for _ in range(6)]
        batch.append(rng.standard_normal((48, 32)))
        runtime = RuntimeConfig(
            backend="persistent", workers=2, min_shard=2,
            allow_oversubscribe=True,
        )
        with WCycleSVD(device="V100", runtime=runtime) as solver:
            results = solver.decompose_batch(batch)
            arena = base_executor(solver._executor).arena
            assert arena.stats()["leases"] > 0
            assert arena.outstanding() == 0
            prefix = arena._prefix
        assert len(results) == len(batch)
        assert [n for n in stranded_segments() if n.startswith(prefix)] == []


class TestServeWarmReplicas:
    def test_workers_stay_warm_between_fused_batches(self, rng):
        server = SVDServer(
            ServeConfig(max_batch=4, max_wait_ms=0.0),
            runtime=RuntimeConfig(
                backend="persistent", workers=2, min_shard=1,
                allow_oversubscribe=True,
            ),
            start=False,
        )
        try:
            ex = base_executor(server._executor)
            reference = BatchedJacobiEngine()
            matrices = [rng.standard_normal((10, 5)) for _ in range(4)]
            futures = []
            for round_matrices in (matrices[:2], matrices[2:]):
                for m in round_matrices:
                    futures.append(server.submit(m))
                while server.poll():
                    pass
            served = [f.result(timeout=0) for f in futures]
            want = reference.svd_batch(matrices)
            for got, ref in zip(served, want):
                assert got.S.tobytes() == ref.S.tobytes()
            stats = ex.dispatch_stats()
            # One spawn serves every fused batch: replicas (and their
            # arena attachments + warm plans) persist between rounds.
            assert stats["spawns"] == 1
            assert stats["respawns"] == 0
            assert ex.arena.outstanding() == 0
            prefix = ex.arena._prefix
        finally:
            server.close()
        assert not any(n.startswith(prefix) for n in stranded_segments())
