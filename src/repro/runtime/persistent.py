"""The ``persistent`` backend: long-lived supervised workers over arenas.

A pool that pays fork + pickle + per-task shared-memory setup on every
dispatch loses small buckets to that overhead. A
:class:`PersistentExecutor` spawns its workers **once** and amortises
everything else:

- **Arena attach at spawn.**  Workers receive the owning parent's
  :class:`~repro.runtime.arena.ArenaSpec` right after fork and map every
  segment a single time.
- **Arrays travel as slots.**  Callers hand :meth:`~PersistentExecutor.map`
  and :meth:`~PersistentExecutor.submit` a module-level task and items
  that hold plain ndarrays, at the top level or inside tuples and lists.
  For each item it ships, the executor copies those arrays into leased
  arena slots and pickles only the :class:`~repro.runtime.arena.SlotRef`
  handles; the worker maps them back into ndarrays as the task is
  called, inside a resilient task shell's fault frame when there is one.
  Results pickle back through the pipe. Every lease a map or submit took
  returns to the free list once it resolves. An inline map (one item,
  one worker, or a nested call) passes the arrays by reference and takes
  no lease.
- **Batched task manifests.**  ``map`` partitions the task list across
  workers LPT-style and ships ONE pickled manifest per worker — one IPC
  round-trip per bucket shard group instead of one pickle per task.
- **Plans live in the workers.**  A worker builds a memoized solver or
  sweep plan on its first task that needs it and keeps it for its
  lifetime; workers forked after the parent built one inherit it.

Supervision reuses the PR 4 taxonomy unchanged: a dead worker surfaces
as :class:`WorkerPoolBroken` (a ``BrokenExecutor``), which the
:class:`~repro.runtime.resilient.ResilientExecutor` already treats as
retryable-with-respawn.  Leases are parent-owned and workers only read
their slots, so a killed worker cannot strand one — its map or submit
returns the leases as it fails — and the arena's segments survive
untouched for the respawned pool to re-attach.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, Future
from multiprocessing import resource_tracker
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from repro.runtime.arena import Arena, SlotRef, resolve
from repro.runtime.arena import attach as arena_attach
from repro.runtime.executor import Executor, _CapturedCall, _submission_order
from repro.runtime.resilient import _TaskShell
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
# worker side
# ---------------------------------------------------------------------------


def _unpack(item: Any) -> Any:
    """``item`` with every :class:`SlotRef` mapped back into its ndarray
    (zero-copy, read in place), through tuples and lists."""
    if type(item) is SlotRef:
        return resolve(item)
    if type(item) in (tuple, list):
        return type(item)(_unpack(x) for x in item)
    return item


class _SlotTask:
    """A shipped task: maps its item's slots, then runs ``fn`` on the
    ndarrays the caller handed in."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        return self.fn(_unpack(item))


def _shipped(fn: Callable) -> Callable:
    """The form of ``fn`` a worker runs: its item's slots map just before
    the task body, inside the wrappers ``fn`` carries. Under a capture
    wrapper a failure to map them is the task's error value; under a
    resilient task shell they map inside its fault frame, where an armed
    ``shm_lost`` fires."""
    if isinstance(fn, _CapturedCall):
        return _CapturedCall(_shipped(fn.fn))
    if isinstance(fn, _TaskShell):
        return fn.around(_shipped(fn.fn))
    return _SlotTask(fn)


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

    Protocol (parent -> worker): ``("attach", ArenaSpec)``, ``("run",
    batch_id, fn, [(task_idx, item), ...])``, ``("exit",)``.  Replies
    (worker -> parent): ``("done", batch_id, [(task_idx, ok, payload),
    ...])`` where ``payload`` is the return value or the raised exception.
    """
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):  # parent died or closed the pipe
            break
        msg = pickle.loads(payload)
        kind = msg[0]
        if kind == "exit":
            break
        if kind == "attach":
            arena_attach(msg[1])
            continue
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


def _release(leases: list) -> None:
    """Return the ``(arena, ref)`` leases one map or submit took."""
    for arena, ref in leases:
        arena.release_lease(ref)


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
    """Long-lived fork workers + pre-pinned arena + manifest dispatch.

    Task functions must be module-level picklables. The plain ndarrays an
    item holds (at the top level or inside tuples and lists) travel
    through leased slots of the executor's :attr:`arena`; everything else
    in the item pickles.
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
        self._arena: Arena | None = None
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
            "result_bytes": 0,
            "tasks": 0,
            "batches": 0,
        }
        self._finalizer = weakref.finalize(self, _shutdown_workers, self._workers)

    # -- arena ----------------------------------------------------------

    @property
    def arena(self) -> Arena:
        """The executor-owned arena (created on first use).

        If workers are already up when the arena first materialises, the
        spec is shipped immediately so they attach before any manifest
        references a slot.
        """
        with self._spawn_lock:
            if self._arena is None or self._arena.closed:
                self._arena = Arena()
                for w in self._workers:
                    self._send_control(w, ("attach", self._arena.spec()))
            return self._arena

    # -- pool lifecycle --------------------------------------------------

    def _ensure_workers(self) -> list[_Worker]:
        with self._spawn_lock:
            if self._workers:
                return self._workers
            # Workers forked with the resource tracker up share it. When a
            # worker maps an arena segment, its attach then registers a
            # name the tracker already holds, and the arena's unlink stays
            # the one unregister the tracker sees (a tracker of a worker's
            # own would unlink live segments when the worker exits).
            resource_tracker.ensure_running()
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
            if self._arena is not None:
                spec = self._arena.spec()
                for w in spawned:
                    self._send_control(w, ("attach", spec))
            self._workers.extend(spawned)
            with self._stats_lock:
                self._stats["spawns"] += 1
                self._stats["spawn_s"] += self._clock() - t0
            return self._workers

    def respawn(self) -> None:
        """Replace the workers; the next map or submit spawns a fresh pool.

        The arena itself is untouched: segments are parent-owned and the
        free list never left the parent, so outstanding leases remain
        valid and return as their map or submit resolves (the in-flight
        tasks of the doomed workers fail as :class:`WorkerPoolBroken`).
        The fresh pool re-attaches the same segments by name.
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
            arena, self._arena = self._arena, None
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
        if arena is not None:
            arena.close()

    # -- dispatch --------------------------------------------------------

    def _ship(self, item: Any, leases: list) -> Any:
        """``item`` with every plain ndarray (at the top level or inside
        tuples and lists) copied into a leased arena slot and replaced by
        its :class:`SlotRef`; each ``(arena, ref)`` lease is appended to
        ``leases``. Object arrays and ndarray subclasses pickle as-is."""
        if type(item) is np.ndarray and not item.dtype.hasobject:
            arena = self.arena
            ref = arena.place(item)  # repro: noqa[SHM03] the lease joins
            # the caller's `leases` at once, and every caller returns that
            # list from a `finally` (or the submit's done callback).
            leases.append((arena, ref))
            return ref
        if type(item) in (tuple, list):
            return type(item)(self._ship(x, leases) for x in item)
        return item

    def _send_control(self, worker: _Worker, msg: tuple) -> None:
        payload = pickle.dumps(msg)
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
        payload = pickle.dumps(("run", batch_id, fn, tasks))
        with self._stats_lock:
            self._stats["ipc_round_trips"] += 1
            self._stats["pickled_task_bytes"] += len(payload)
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
        task = _shipped(fn)
        leases: list = []
        results: list[Any] = [None] * len(items)
        errors: dict[int, BaseException] = {}
        try:
            futures = [
                self._send_batch(
                    w, task, [(i, self._ship(items[i], leases)) for i in idxs]
                )
                for w, idxs in zip(workers, manifests)
                if idxs
            ]
            for fut in futures:
                for task_idx, ok, payload in fut.result():
                    if ok:
                        results[task_idx] = payload
                    else:
                        errors[task_idx] = payload
        finally:
            _release(leases)
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
        leases: list = []
        try:
            inner = self._send_batch(
                worker, _shipped(fn), [(0, self._ship(item, leases))]
            )
        except BaseException:
            _release(leases)
            raise
        outer: Future = Future()
        outer.set_running_or_notify_cancel()

        def _resolve(done: Future) -> None:
            # The leases return before the caller can see the outcome.
            _release(leases)
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
        """Dispatch-overhead counters plus the arena's lease counters
        (zero until a map or submit first ships an ndarray)."""
        with self._stats_lock:
            out = dict(self._stats)
        with self._spawn_lock:
            arena = self._arena
        live = arena.stats() if arena is not None and not arena.closed else {}
        for key in ("leases", "returns", "segments", "capacity_bytes"):
            out[f"arena_{key}"] = live.get(key, 0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistentExecutor(workers={self.workers}, "
            f"live={len(self._workers)})"
        )
