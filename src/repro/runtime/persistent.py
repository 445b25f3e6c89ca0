"""The ``persistent`` backend: long-lived supervised workers on one pipe.

A pool that pays fork + pickle on every dispatch loses small buckets to
that overhead. A :class:`PersistentExecutor` spawns its workers **once**
and amortises everything else:

- **One pipe per worker, one frame per message.**  Callers hand
  :meth:`~PersistentExecutor.map` and :meth:`~PersistentExecutor.submit`
  a module-level task and items that hold plain ndarrays (at any depth
  pickle reaches). Each parent→worker message is one ``send_bytes``
  frame: a header (the out-of-band buffer count and the part lengths),
  the message pickled with protocol 5, and the raw bytes of every buffer
  pickle handed out of band — the data of each contiguous ndarray. The
  worker rebuilds the message over views of the received frame, so its
  input arrays arrive read-only and without a second copy. Results
  pickle back through the pipe and arrive writable. An inline map (one
  item, one worker, or a nested call) passes the arrays by reference.
- **Batched task manifests.**  ``map`` partitions the task list across
  workers LPT-style and ships ONE manifest per worker — one IPC
  round-trip per bucket shard group instead of one pickle per task.
- **Plans live in the workers.**  A worker builds a memoized solver or
  sweep plan on its first task that needs it and keeps it for its
  lifetime; workers forked after the parent built one inherit it.

Supervision reuses the runtime's failure taxonomy: a dead worker
surfaces as :class:`WorkerPoolBroken` (a ``BrokenExecutor``), which the
:class:`~repro.runtime.resilient.ResilientExecutor` already treats as
retryable-with-respawn.  Workers share no memory with the parent, so a
killed worker strands nothing: its in-flight frames die with its pipe.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, Future
from typing import Any, Callable, Sequence, TypeVar

from repro.runtime.executor import Executor, _submission_order
from repro.utils.logging import get_logger

__all__ = ["PersistentExecutor", "WorkerPoolBroken"]

_log = get_logger("runtime.persistent")

_T = TypeVar("_T")
_R = TypeVar("_R")


class WorkerPoolBroken(BrokenExecutor):
    """A persistent worker died with tasks in flight.

    Subclasses :class:`concurrent.futures.BrokenExecutor`, which the
    resilient wrapper's retry loop already maps to "respawn the pool,
    then retry on the ladder" — no new taxonomy needed.
    """


# ---------------------------------------------------------------------------
# frames (parent -> worker)
# ---------------------------------------------------------------------------

#: Every part of a frame starts this many bytes into it, so an array
#: rebuilt over a part is as aligned as the received payload itself.
_ALIGN = 16


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _frame(msg: tuple) -> tuple[bytes, int, int]:
    """``msg`` as one ``send_bytes`` payload, with the byte counts of its
    pickled part and of its out-of-band buffers.

    The payload is a header (the buffer count, then the length of the
    protocol-5 pickle and of each buffer, as little-endian u64), the
    pickle, and each buffer's raw bytes, every part starting on an
    :data:`_ALIGN` boundary.
    """
    buffers: list[pickle.PickleBuffer] = []
    manifest = pickle.dumps(msg, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    lengths = [len(manifest), *(raw.nbytes for raw in raws)]
    header = struct.pack(f"<{len(lengths) + 1}Q", len(raws), *lengths)
    chunks: list[Any] = []
    for part in (header, manifest, *raws):
        chunks += (part, bytes(_aligned(len(part)) - len(part)))
    return b"".join(chunks), len(manifest), sum(lengths) - len(manifest)


def _unframe(payload: bytes) -> Any:
    """The message :func:`_frame` packed, rebuilt over read-only views of
    ``payload``: its arrays alias the received bytes, uncopied."""
    (count,) = struct.unpack_from("<Q", payload)
    lengths = struct.unpack_from(f"<{count + 1}Q", payload, 8)
    view = memoryview(payload)
    offset = _aligned(8 * (count + 2))
    parts = []
    for n in lengths:
        parts.append(view[offset : offset + n])
        offset = _aligned(offset + n)
    return pickle.loads(parts[0], buffers=parts[1:])


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _picklable_results(results: list) -> list:
    """Replace unpicklable per-task payloads with picklable errors.

    One task returning (or raising) something pickle rejects must degrade
    to a *per-task* error — if the reply serialization escaped the worker
    loop it would kill the worker and poison every other in-flight
    manifest with :class:`WorkerPoolBroken`. The placeholder is a plain
    retryable ``RuntimeError``: the ladder's in-process rungs never
    pickle, so a retry recovers the real result.
    """
    safe = []
    for task_idx, ok, payload in results:
        try:
            pickle.dumps(payload)
        except Exception:  # repro: noqa[EXC01] pickle failures surface as
            # PicklingError, TypeError, or AttributeError depending on the
            # payload; all of them mean the same thing here.
            safe.append(
                (
                    task_idx,
                    False,
                    RuntimeError(
                        f"task {task_idx} produced an unpicklable "
                        f"{'result' if ok else 'exception'} of type "
                        f"{type(payload).__name__}; an in-process retry "
                        "rung recovers it"
                    ),
                )
            )
        else:
            safe.append((task_idx, ok, payload))
    return safe


def _worker_main(conn) -> None:
    """Message loop of one persistent worker (runs in the forked child).

    Protocol (parent -> worker, one :func:`_frame` each): ``("run",
    batch_id, fn, [(task_idx, item), ...])``, ``("exit",)``.  Replies
    (worker -> parent, plain pickle): ``("done", batch_id, [(task_idx, ok,
    payload), ...])`` where ``payload`` is the return value or the raised
    exception.
    """
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):  # parent died or closed the pipe
            break
        msg = _unframe(payload)
        if msg[0] == "exit":
            break
        _, batch_id, fn, tasks = msg
        results = []
        for task_idx, item in tasks:
            try:
                results.append((task_idx, True, fn(item)))
            except BaseException as exc:  # repro: noqa[EXC01] the reply
                # tuple is the error channel: the parent re-raises (or
                # captures) per task, exactly like a pool future would.
                results.append((task_idx, False, exc))
        try:
            reply = pickle.dumps(("done", batch_id, results))
        except Exception:  # repro: noqa[EXC01] an unpicklable payload
            # must cost only its own task, not the worker (and with it
            # every other in-flight task on this pipe).
            reply = pickle.dumps(
                ("done", batch_id, _picklable_results(results))
            )
        try:
            conn.send_bytes(reply)
        except (OSError, ValueError):  # pragma: no cover - parent gone
            break
    conn.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Worker:
    """Parent-side handle: process + pipe + in-flight future table."""

    __slots__ = ("proc", "conn", "lock", "pending", "pump", "broken")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.lock = threading.Lock()
        self.pending: dict[int, Future] = {}
        self.pump: threading.Thread | None = None
        self.broken = False

    def fail_pending(self, exc: BaseException) -> None:
        with self.lock:
            self.broken = True
            dead = list(self.pending.values())
            self.pending.clear()
        for fut in dead:
            try:
                fut.set_exception(exc)
            except Exception:  # repro: noqa[EXC01] the future may have
                # been resolved by a racing send-failure path; a second
                # resolution is redundant, not reportable.
                pass


def _pump_loop(worker: _Worker, stats: dict, stats_lock: threading.Lock) -> None:
    """Drain one worker's replies, resolving manifest futures."""
    while True:
        try:
            payload = worker.conn.recv_bytes()
        except (EOFError, OSError):
            break
        try:
            _, batch_id, results = pickle.loads(payload)
        except Exception:  # repro: noqa[EXC01] a torn reply means the
            # worker died mid-send; the EOF on the next recv (or the
            # fail_pending below) converts it to WorkerPoolBroken.
            break
        with stats_lock:
            stats["result_bytes"] += len(payload)
        with worker.lock:
            fut = worker.pending.pop(batch_id, None)
        if fut is not None:
            fut.set_result(results)
    worker.fail_pending(
        WorkerPoolBroken(
            f"persistent worker pid={worker.proc.pid} died with tasks in flight"
        )
    )


def _close_pipe(worker: _Worker) -> None:
    """Close a stopped worker's pipe once its pump thread is done with it.

    The pump reads until the dead worker's EOF. Closing the pipe under it
    frees the descriptor while the pump may still be about to read it,
    and the next pipe created (a respawned pool, a new executor) can reuse
    that descriptor number: the stale pump would then steal its replies.
    """
    pump = worker.pump
    if pump is not None and pump is not threading.current_thread():
        pump.join(timeout=1.0)
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _shutdown_workers(workers: list) -> None:
    """Finalizer target — must not hold a reference to the executor."""
    for w in workers:
        try:
            if w.proc.is_alive():
                w.proc.terminate()
        except Exception:  # repro: noqa[EXC01] best-effort janitor at GC
            # or interpreter exit; daemon workers die with us regardless.
            pass
    for w in workers:
        w.proc.join(timeout=1.0)
        _close_pipe(w)
    workers.clear()


class PersistentExecutor(Executor):
    """Long-lived fork workers + framed manifest dispatch over pipes.

    Task functions must be module-level picklables. Items pickle with
    protocol 5; the data of their contiguous ndarrays travels out of band
    in the same frame and reaches the task as read-only arrays.
    """

    backend = "persistent"

    def __init__(
        self,
        workers: int,
        *,
        min_shard: int = 4,
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(workers, min_shard=min_shard)
        # Held by reference, never called at import/definition time —
        # the injectable-clock pattern the serving layer established.
        self._clock = clock if clock is not None else time.perf_counter
        self._spawn_lock = threading.Lock()
        #: Mutated in place (never rebound) — shared with the finalizer.
        self._workers: list[_Worker] = []
        self._batch_seq = 0
        self._rr = 0
        self._stats_lock = threading.Lock()
        self._stats: dict[str, Any] = {
            "spawns": 0,
            "respawns": 0,
            "spawn_s": 0.0,
            "ipc_round_trips": 0,
            "control_msgs": 0,
            "pickled_task_bytes": 0,
            "array_bytes": 0,
            "result_bytes": 0,
            "tasks": 0,
            "batches": 0,
        }
        self._finalizer = weakref.finalize(self, _shutdown_workers, self._workers)

    # -- pool lifecycle --------------------------------------------------

    def _ensure_workers(self) -> list[_Worker]:
        with self._spawn_lock:
            if self._workers:
                return self._workers
            t0 = self._clock()
            ctx = multiprocessing.get_context("fork")
            spawned: list[_Worker] = []
            # Fork everything first, start pump threads after: no thread
            # of ours is alive (and holding locks) at fork time.
            for i in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn,),
                    name=f"repro-persistent-{i}",
                    daemon=True,
                )
                proc.start()  # repro: noqa[FORK01] forked under
                # _spawn_lock on purpose: the lock serializes pool
                # creation in the parent and the child never touches it
                # (workers run _worker_main, not executor methods).
                child_conn.close()
                spawned.append(_Worker(proc, parent_conn))
            for w in spawned:
                w.pump = threading.Thread(
                    target=_pump_loop,
                    args=(w, self._stats, self._stats_lock),
                    name=f"repro-persistent-pump-{w.proc.pid}",
                    daemon=True,
                )
                w.pump.start()
            self._workers.extend(spawned)
            with self._stats_lock:
                self._stats["spawns"] += 1
                self._stats["spawn_s"] += self._clock() - t0
            return self._workers

    def respawn(self) -> None:
        """Replace the workers; the next map or submit spawns a fresh pool.

        The in-flight tasks of the doomed workers fail as
        :class:`WorkerPoolBroken`.
        """
        with self._spawn_lock:
            doomed = list(self._workers)
            self._workers.clear()
            with self._stats_lock:
                self._stats["respawns"] += 1
        for w in doomed:
            w.fail_pending(WorkerPoolBroken("pool respawned with tasks in flight"))
            try:
                if w.proc.is_alive():
                    w.proc.terminate()
            except Exception:  # repro: noqa[EXC01] already-reaped worker;
                # nothing to clean.
                pass
        for w in doomed:
            w.proc.join(timeout=1.0)
            _close_pipe(w)

    def close(self) -> None:
        with self._spawn_lock:
            doomed = list(self._workers)
            self._workers.clear()
        for w in doomed:
            try:
                self._send_control(w, ("exit",))
            except (OSError, ValueError):
                pass
        for w in doomed:
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():  # pragma: no cover - wedged worker
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            _close_pipe(w)

    # -- dispatch --------------------------------------------------------

    def _send_control(self, worker: _Worker, msg: tuple) -> None:
        payload, _, _ = _frame(msg)
        with self._stats_lock:
            self._stats["control_msgs"] += 1
        with worker.lock:
            worker.conn.send_bytes(payload)

    def _send_batch(
        self, worker: _Worker, fn: Callable, tasks: list[tuple[int, Any]]
    ) -> Future:
        """Ship one manifest; return the Future of its result list."""
        with self._spawn_lock:
            batch_id = self._batch_seq
            self._batch_seq += 1
        fut: Future = Future()
        fut.set_running_or_notify_cancel()
        payload, pickled, array_bytes = _frame(("run", batch_id, fn, tasks))
        with self._stats_lock:
            self._stats["ipc_round_trips"] += 1
            self._stats["pickled_task_bytes"] += pickled
            self._stats["array_bytes"] += array_bytes
            self._stats["tasks"] += len(tasks)
            self._stats["batches"] += 1
        with worker.lock:
            if worker.broken:
                fut.set_exception(
                    WorkerPoolBroken(
                        f"persistent worker pid={worker.proc.pid} is gone"
                    )
                )
                return fut
            worker.pending[batch_id] = fut
        try:
            with worker.lock:
                worker.conn.send_bytes(payload)
        except (OSError, ValueError):
            with worker.lock:
                stale = worker.pending.pop(batch_id, None)
            if stale is not None:
                stale.set_exception(
                    WorkerPoolBroken(
                        f"persistent worker pid={worker.proc.pid} rejected a "
                        "manifest (dead pipe)"
                    )
                )
        return fut

    def _map_parallel(
        self,
        fn: Callable[[_T], _R],
        items: list[_T],
        costs: Sequence[float] | None,
    ) -> list[_R]:
        workers = self._ensure_workers()
        order = _submission_order(len(items), costs)
        # LPT across the pool: walk tasks in descending-cost order and
        # give each to the least-loaded worker. Results are re-ordered by
        # task index afterwards, so the packing never affects callers.
        loads = [0.0] * len(workers)
        manifests: list[list[int]] = [[] for _ in workers]
        for i in order:
            j = min(range(len(workers)), key=lambda k: (loads[k], k))
            manifests[j].append(i)
            loads[j] += 1.0 if costs is None else float(costs[i])
        futures = [
            self._send_batch(w, fn, [(i, items[i]) for i in idxs])
            for w, idxs in zip(workers, manifests)
            if idxs
        ]
        results: list[Any] = [None] * len(items)
        errors: dict[int, BaseException] = {}
        for fut in futures:
            for task_idx, ok, payload in fut.result():
                if ok:
                    results[task_idx] = payload
                else:
                    errors[task_idx] = payload
        if errors:
            # Match pool-executor semantics: the failure of the earliest
            # task index is the one the caller observes.
            raise errors[min(errors)]
        return results

    def submit(self, fn: Callable[[_T], _R], item: _T) -> "Future[_R]":
        """One-task manifest (the resilient wrapper's retry primitive)."""
        workers = self._ensure_workers()
        with self._spawn_lock:
            worker = workers[self._rr % len(workers)]
            self._rr += 1
        inner = self._send_batch(worker, fn, [(0, item)])
        outer: Future = Future()
        outer.set_running_or_notify_cancel()

        def _resolve(done: Future) -> None:
            exc = done.exception()
            if exc is not None:
                outer.set_exception(exc)
                return
            _, ok, payload = done.result()[0]
            if ok:
                outer.set_result(payload)
            else:
                outer.set_exception(payload)

        inner.add_done_callback(_resolve)
        return outer

    # -- introspection ---------------------------------------------------

    def dispatch_stats(self) -> dict[str, Any]:
        """Dispatch-overhead counters: spawns, IPC round trips, tasks, the
        pickled and out-of-band (``array_bytes``) parts of the frames sent,
        and the reply bytes received."""
        with self._stats_lock:
            return dict(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistentExecutor(workers={self.workers}, "
            f"live={len(self._workers)})"
        )
