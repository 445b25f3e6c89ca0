"""Persistent workers: manifest dispatch, the array transport, warm pools.

Covers the :class:`PersistentExecutor` (LPT manifests, batched IPC, error
semantics, respawn, clean close after engine and W-cycle solves), its
array transport (items holding ndarrays of any layout ship as
out-of-band pickle buffers and arrive read-only, ``array_bytes`` counts
them, inline maps ship none, no shared memory is needed), and the
serving layer keeping replicas warm *between* fused batches. The
cross-backend bit-identity acceptance lives in ``tests/test_runtime.py``
(``persistent`` is parametrized there); the fault-injection scenarios
live in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import WCycleSVD
from repro.errors import ShapeError
from repro.jacobi.batched import BatchedJacobiEngine
from repro.runtime import RuntimeConfig, SerialExecutor, get_executor
from repro.runtime.persistent import PersistentExecutor, WorkerPoolBroken
from repro.runtime.resilient import ResilientExecutor, RetryPolicy, base_executor
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


def _combine(item):
    """Arrays at the top level of the item and inside a nested tuple."""
    a, (b, c), scale = item
    return a @ b + c * scale


def _raise_on_negative_scale(item):
    if item[2] < 0:
        raise ShapeError("negative scale")
    return _combine(item)


def _die_in_worker(x):
    """Kills the worker it runs in; returns ``x`` in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return x


def _combine_items(rng, count, *, negative=()):
    return [
        (
            rng.standard_normal((6, 4)),
            (rng.standard_normal((4, 3)), rng.standard_normal((6, 3))),
            -1.0 if k in negative else float(k),
        )
        for k in range(count)
    ]


def _combine_nbytes(items):
    return sum(a.nbytes + b.nbytes + c.nbytes for a, (b, c), _ in items)


def _layout_items(rng, count):
    """Items holding one array of every layout the transport must carry:
    C- and F-ordered, a transposed view, a strided slice, a zero-size
    array and an object array."""
    return [
        (
            rng.standard_normal((6, 4)),
            np.asfortranarray(rng.standard_normal((5, 3))),
            rng.standard_normal((3, 7)).T,
            rng.standard_normal((8, 6))[::2, 1::2],
            np.empty((0, 3)),
            np.array([k, "x", (1, 2)], dtype=object),
        )
        for k in range(count)
    ]


def _double_each(item):
    return [x * 2 for x in item]


def _write_in_place(x):
    x[...] = 0.0
    return x


def _refuse_shared_memory(*args, **kwargs):
    raise OSError("shared memory is unavailable")


def _assert_same_arrays(got, want):
    """Per item, every array has the serial result's dtype, shape and
    bytes (object arrays: its elements)."""
    assert len(got) == len(want)
    for g_item, w_item in zip(got, want):
        for g, w in zip(g_item, w_item, strict=True):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            if w.dtype.hasobject:
                assert g.tolist() == w.tolist()
            else:
                assert g.tobytes() == w.tobytes()


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
        the pool before the retry round, or the zombie would keep its
        worker, and every manifest queued behind it, stuck."""
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
        with ResilientExecutor(
            PersistentExecutor(2),
            RetryPolicy(max_retries=1, backoff_base=0.0),
        ) as ex:
            out = ex.map(_unpicklable_result, [0, 1])
            assert callable(out[0])
            assert out[1] == 2

    def test_close_strands_nothing(self):
        """``close`` stops and reaps every worker it spawned."""
        ex = PersistentExecutor(2)
        ex.map(_square, [1, 2, 3, 4])
        procs = [w.proc for w in ex._workers]
        assert len(procs) == 2
        ex.close()
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
        assert ex._workers == []

    def test_factors_outlive_later_batches(self, rng):
        """Factors a persistent solve returned keep their bytes while the
        same engine solves later batches on the same pool."""
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
            shipped = ex.dispatch_stats()["array_bytes"]
            engine.svd_batch(second)
            engine.evd_batch(sym[32:])
            assert ex.dispatch_stats()["array_bytes"] > shipped > 0
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
        """A W-cycle solve on the persistent worker processes ships its
        arrays, matches the serial solve byte for byte, and leaves no
        worker alive once closed."""
        rng = np.random.default_rng(11)
        batch = [rng.standard_normal((16, 8)) for _ in range(6)]
        batch.append(rng.standard_normal((48, 32)))
        with WCycleSVD(device="V100") as solver:
            want = solver.decompose_batch(batch)
        runtime = RuntimeConfig(
            backend="persistent", workers=2, min_shard=2,
            allow_oversubscribe=True,
        )
        with WCycleSVD(device="V100", runtime=runtime) as solver:
            results = solver.decompose_batch(batch)
            ex = base_executor(solver._executor)
            assert ex.dispatch_stats()["array_bytes"] > 0
            procs = [w.proc for w in ex._workers]
        assert procs
        for proc in procs:
            proc.join(timeout=5.0)
            assert not proc.is_alive()
        for got, ref in zip(results, want):
            for name in "USV":
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


class TestArrayTransport:
    """Items hold plain ndarrays; only the persistent backend ships them,
    as out-of-band pickle buffers in the manifest's frame, and only when
    a map or submit leaves the parent."""

    def test_map_and_submit_ship_ndarrays_byte_equal_to_serial(self, rng):
        items = _combine_items(rng, 4)
        arrays = [item[0] for item in items]
        want = [_combine(item) for item in items]
        with PersistentExecutor(2) as ex:
            got = ex.map(_combine, items)
            squares = ex.map(_square, arrays)
            stats = ex.dispatch_stats()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert [g.tobytes() for g in squares] == [
            (a * a).tobytes() for a in arrays
        ]
        # Every array of every shipped item, nested or top-level, rode
        # its frame out of band.
        assert stats["array_bytes"] == _combine_nbytes(items) + sum(
            a.nbytes for a in arrays
        )
        with ResilientExecutor(
            PersistentExecutor(2), RetryPolicy(max_retries=0)
        ) as ex:
            got = ex.map(_combine, items)
            one = ex.submit(_combine, items[1]).result(timeout=30)
            top = ex.submit(_square, arrays[2]).result(timeout=30)
            assert ex.inner.dispatch_stats()["array_bytes"] == (
                _combine_nbytes(items)
                + _combine_nbytes(items[1:2])
                + arrays[2].nbytes
            )
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert one.tobytes() == want[1].tobytes()
        assert top.tobytes() == (arrays[2] * arrays[2]).tobytes()

    def test_every_array_layout_ships_byte_equal_to_serial(self, rng):
        items = _layout_items(rng, 4)
        want = SerialExecutor().map(_double_each, items)
        with PersistentExecutor(2) as ex:
            got = ex.map(_double_each, items)
            assert ex.dispatch_stats()["ipc_round_trips"] == 2
        _assert_same_arrays(got, want)
        with ResilientExecutor(
            PersistentExecutor(2), RetryPolicy(max_retries=0)
        ) as ex:
            got = ex.map(_double_each, items)
            one = ex.submit(_double_each, items[3]).result(timeout=30)
            assert ex.last_failures == []
        _assert_same_arrays(got, want)
        _assert_same_arrays([one], want[3:])

    def test_task_writing_its_input_raises(self, rng):
        """Shipped arrays are read-only views of the received frame, so a
        task cannot write into its item; the caller's arrays keep their
        bytes."""
        arrays = [rng.standard_normal((4, 4)) for _ in range(2)]
        before = [a.tobytes() for a in arrays]
        with PersistentExecutor(2) as ex:
            with pytest.raises(ValueError, match="read-only"):
                ex.map(_write_in_place, arrays)
            exc = ex.submit(_write_in_place, arrays[0]).exception(timeout=30)
            assert isinstance(exc, ValueError)
        assert [a.tobytes() for a in arrays] == before

    def test_transport_needs_no_shared_memory(self, rng, monkeypatch):
        monkeypatch.setattr(
            shared_memory, "SharedMemory", _refuse_shared_memory
        )
        arrays = [rng.standard_normal((6, 6)) for _ in range(4)]
        want = [(a * a).tobytes() for a in arrays]
        with PersistentExecutor(2) as ex:
            assert [g.tobytes() for g in ex.map(_square, arrays)] == want
            one = ex.submit(_square, arrays[1]).result(timeout=30)
            assert one.tobytes() == want[1]
            ex.respawn()
            assert [g.tobytes() for g in ex.map(_square, arrays)] == want
            stats = ex.dispatch_stats()
        assert stats["respawns"] == 1
        # Two maps of four arrays and one submit, all 6x6 float64.
        assert stats["array_bytes"] == 9 * arrays[0].nbytes

    def test_array_task_failures_surface(self, rng):
        """A task error, a worker death in a map and one in a submit all
        reach the caller; a respawned pool then serves array items."""
        with PersistentExecutor(2) as ex:
            with pytest.raises(ShapeError, match="negative scale"):
                ex.map(
                    _raise_on_negative_scale,
                    _combine_items(rng, 4, negative={1}),
                )
            with pytest.raises(WorkerPoolBroken):
                ex.map(_die_in_worker, [rng.standard_normal(3)] * 2)
            ex.respawn()
            fut = ex.submit(_die_in_worker, rng.standard_normal(3))
            with pytest.raises(WorkerPoolBroken):
                fut.result(timeout=30)
            ex.respawn()
            items = _combine_items(rng, 4)
            got = ex.map(_combine, items)
        assert [g.tobytes() for g in got] == [
            _combine(item).tobytes() for item in items
        ]

    def test_inline_maps_ship_no_arrays(self, rng):
        arrays = [rng.standard_normal((5, 5)) for _ in range(3)]
        with PersistentExecutor(2) as ex:
            (out,) = ex.map(_square, arrays[:1])
            assert out.tobytes() == (arrays[0] * arrays[0]).tobytes()
            stats = ex.dispatch_stats()
            assert stats["array_bytes"] == 0
            assert stats["ipc_round_trips"] == 0
        with PersistentExecutor(1) as ex:
            out = ex.map(_combine, _combine_items(rng, 3))
            assert len(out) == 3
            stats = ex.dispatch_stats()
            assert stats["array_bytes"] == 0
            assert stats["ipc_round_trips"] == 0

    def test_one_unit_svd_batch_ships_no_arrays(self, rng):
        """Four 16x8 matrices are one unit at ``min_shard=4``: the engine's
        map runs it inline, and nothing is shipped."""
        matrices = [rng.standard_normal((16, 8)) for _ in range(4)]
        want = BatchedJacobiEngine().svd_batch(matrices)
        with PersistentExecutor(2) as ex:
            got = BatchedJacobiEngine(executor=ex).svd_batch(matrices)
            assert ex.dispatch_stats()["array_bytes"] == 0
        for g, w in zip(got, want):
            for name in "USV":
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes()


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
            # memoized plans) persist between rounds.
            assert stats["spawns"] == 1
            assert stats["respawns"] == 0
        finally:
            server.close()
