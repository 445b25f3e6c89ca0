"""The SVD serving broker: asynchronous requests over the batched engine.

:class:`SVDServer` is the request path the ROADMAP's serving ambition
needs: callers :meth:`~SVDServer.submit` independent matrices from any
thread and get per-request futures back; a dispatch loop coalesces the
pending stream through the :class:`~repro.serve.batcher.MicroBatcher`
and runs each fused, shape-uniform batch through the existing
:class:`~repro.jacobi.batched.BatchedJacobiEngine` (or a
:class:`~repro.core.wcycle.WCycleSVD`) exactly as a direct batch call
would — so a served result is **bit-identical** to a standalone solve of
the same matrix, and all the engine's machinery (bucket sharding across
executor workers, resilient retries, the quarantine ladder) applies per
fused batch.

Design points:

- **Admission control** — the queue is bounded (``max_pending``);
  admitting past the bound raises
  :class:`~repro.errors.ServerOverloaded` instead of buffering without
  limit. Validation also happens at admission, so a malformed matrix
  fails its own caller, never a fused batch carrying other requests.
- **Failure fan-out** — fused solves run in quarantine mode; per-matrix
  failures are translated from fused-stack positions to request ids
  (:mod:`repro.serve.fanout`) and delivered on exactly the offending
  futures. Healthy requests in the same batch keep their (bit-identical)
  results.
- **Injectable clock** — every timestamp (arrival, flush timing,
  latency) is a reading of ``clock``, defaulting to
  ``time.monotonic``. Tests inject a fake clock and drive the broker
  with :meth:`~SVDServer.poll`, so flush timing is verified without a
  single sleep; the module itself never reads the wall clock.
- **Serialized dispatch** — fused batches execute one at a time under a
  dispatch lock (the engine instance is not reentrant); parallelism
  comes from the engine's executor *inside* a batch, which is where the
  vectorized work is.
- **Late binding** — each pick checks out the batches that filled on
  admission, then at most one due bucket, the one with the earliest
  pressure time (:meth:`~repro.serve.batcher.MicroBatcher.due`), solves
  them, and only then picks again. A request admitted during a solve is
  therefore in its bucket when that bucket is picked, and rides its
  shape's next batch instead of waiting a whole round; a shape that
  keeps filling batches never holds a due bucket back for more than one
  pick.
- **Warm workers** — the server builds its executor once and keeps it
  for its whole lifetime, so with ``RuntimeConfig(backend="persistent")``
  the worker processes, their attached shared-memory arenas, and the
  sweep plans they built on first use all survive *between* fused
  batches: steady-state request traffic pays zero pool spin-up and zero
  segment create/unlink per batch. :meth:`~SVDServer.close` tears the
  pool and arenas down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    FailureReport,
    NonFiniteError,
    ReproError,
    ServerClosed,
    ServerOverloaded,
)
from repro.jacobi.batched import BatchedJacobiEngine
from repro.runtime.executor import Executor, RuntimeConfig, get_executor
from repro.serve.batcher import FusedBatch, MicroBatcher
from repro.serve.fanout import remap_fused_failure
from repro.serve.request import ServeRequest, SVDFuture
from repro.serve.stats import ServerStats, _StatsAccumulator
from repro.types import SVDResult
from repro.utils.logging import get_logger
from repro.utils.validation import as_matrix

__all__ = ["ServeConfig", "SVDServer"]

_log = get_logger("serve")

#: Exception classes a quarantine report entry's ``cause`` can name; the
#: fan-out rebuilds the per-request exception from this table.
_CAUSE_TYPES: dict[str, type] = {
    "ConvergenceError": ConvergenceError,
    "NonFiniteError": NonFiniteError,
}

#: Upper bound on one dispatch-loop sleep. The loop re-polls at least
#: this often while work is queued, so a wait-trigger computed against a
#: clock that has since advanced is never missed by more than this.
_MAX_LOOP_WAIT = 0.05


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving broker.

    Attributes
    ----------
    max_batch:
        Largest fused batch; a shape bucket reaching this fill flushes
        immediately.
    max_wait_ms:
        Longest a request may sit in a bucket waiting for co-batchable
        traffic (the latency price of batching). ``0`` makes a bucket due
        as soon as it holds a request, but requests queued together
        still fuse; one-at-a-time serving also needs ``max_batch=1``.
    deadline_slack_ms:
        Flush a bucket when some request's deadline is within this many
        milliseconds (headroom for the solve itself).
    max_pending:
        Bound on requests admitted but not yet dispatched; admission
        past it raises :class:`~repro.errors.ServerOverloaded`.
    stats_window:
        Latency samples retained for the quantile snapshot.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    deadline_slack_ms: float = 2.0
    max_pending: int = 1024
    stats_window: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.deadline_slack_ms < 0:
            raise ConfigurationError(
                f"deadline_slack_ms must be >= 0, got {self.deadline_slack_ms}"
            )
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.stats_window < 1:
            raise ConfigurationError(
                f"stats_window must be >= 1, got {self.stats_window}"
            )


class SVDServer:
    """Dynamic micro-batching broker over the batched SVD engine.

    Parameters
    ----------
    config:
        Batching/backpressure knobs (:class:`ServeConfig`).
    engine:
        The solver fused batches dispatch through: a
        :class:`~repro.jacobi.batched.BatchedJacobiEngine` (anything
        with ``svd_batch``) or a :class:`~repro.core.wcycle.WCycleSVD`
        (anything with ``decompose_batch``). ``None`` builds an engine
        on the ``runtime`` executor; the server then owns (and closes)
        it.
    runtime:
        Executor specification for the self-built engine —
        :class:`~repro.runtime.RuntimeConfig`, live executor, backend
        name, or ``None`` (a resilient serial executor). Mutually
        exclusive with ``engine``.
    clock:
        Zero-argument monotonic-seconds callable; defaults to
        ``time.monotonic``. All batch timing and latency accounting
        reads this clock, so tests drive flush behavior with a fake.
    start:
        Start the background dispatch thread immediately. Pass ``False``
        to drive dispatch manually with :meth:`poll` (deterministic
        tests) or to :meth:`start` later.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.serve import SVDServer
    >>> rng = np.random.default_rng(0)
    >>> with SVDServer() as server:
    ...     futures = [server.submit(rng.standard_normal((16, 8)))
    ...                for _ in range(64)]
    ...     results = [f.result() for f in futures]
    >>> len(results)
    64
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        engine=None,
        runtime: RuntimeConfig | Executor | str | None = None,
        clock=None,
        start: bool = True,
    ) -> None:
        self.config = config or ServeConfig()
        if engine is not None and runtime is not None:
            raise ConfigurationError(
                "pass either engine= (a solver to dispatch through) or "
                "runtime= (an executor spec for a self-built engine), "
                "not both"
            )
        self._clock = clock if clock is not None else time.monotonic
        if engine is None:
            # A resilient executor by default: retries, the degradation
            # ladder, and quarantine apply per fused batch.
            spec = runtime if runtime is not None else RuntimeConfig(
                on_failure="quarantine"
            )
            self._executor = get_executor(spec)
            self._engine = BatchedJacobiEngine(executor=self._executor)
            self._owns_executor = not isinstance(runtime, Executor)
        else:
            if not (
                hasattr(engine, "svd_batch")
                or hasattr(engine, "decompose_batch")
            ):
                raise ConfigurationError(
                    f"engine must expose svd_batch (BatchedJacobiEngine) "
                    f"or decompose_batch (WCycleSVD), got "
                    f"{type(engine).__name__}"
                )
            self._executor = None
            self._engine = engine
            self._owns_executor = False
        self._batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait=self.config.max_wait_ms / 1e3,
            deadline_slack=self.config.deadline_slack_ms / 1e3,
        )
        self._cond = threading.Condition()
        self._dispatch_lock = threading.Lock()
        self._ready: list[FusedBatch] = []
        self._stats = _StatsAccumulator(window=self.config.stats_window)
        self._pending = 0
        self._inflight = 0
        self._next_id = 0
        self._closed = False
        self._stopped = False
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SVDServer":
        """Start the background dispatch thread (idempotent)."""
        with self._cond:
            if self._closed:
                raise ServerClosed("server is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-serve-dispatch", daemon=True
                )
                self._thread.start()
        return self

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting work and shut down (idempotent).

        With ``drain=True`` (default) every admitted request is
        dispatched and resolved before the dispatch thread exits; with
        ``drain=False`` queued requests fail with
        :class:`~repro.errors.ServerClosed` (in-flight batches still
        complete).
        """
        with self._cond:
            if self._closed and self._stopped:
                return
            self._closed = True
            self._cond.notify_all()
        if drain:
            self.drain()
        else:
            self._abort_queued()
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)
        if self._owns_executor and self._executor is not None:
            self._executor.close()
        _log.event("serve.close", drained=drain)

    def __enter__(self) -> "SVDServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- intake -----------------------------------------------------------

    def submit(
        self,
        matrix: np.ndarray,
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> SVDFuture:
        """Admit one SVD request; returns its future immediately.

        ``priority`` orders dispatch within a shape bucket (higher
        first); ``deadline_ms`` (relative to now) additionally orders by
        earliest deadline and adds flush pressure as it approaches.

        Raises
        ------
        ServerOverloaded
            The bounded queue is full — explicit backpressure.
        ServerClosed
            The server is shutting down.
        ShapeError
            The matrix is not a finite real 2-D array.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0, got {deadline_ms}"
            )
        arr = as_matrix(matrix, name="matrix")
        with self._cond:
            if self._closed:
                raise ServerClosed(
                    "server is closed; no new requests are admitted"
                )
            if self._pending >= self.config.max_pending:
                self._stats.rejected += 1
                _log.event(
                    "serve.reject",
                    pending=self._pending,
                    capacity=self.config.max_pending,
                    shape=arr.shape,
                )
                raise ServerOverloaded(
                    f"request queue is full ({self._pending} pending >= "
                    f"max_pending={self.config.max_pending}); retry later "
                    f"or raise max_pending",
                    pending=self._pending,
                    capacity=self.config.max_pending,
                )
            now = self._clock()
            request = ServeRequest(
                request_id=self._next_id,
                matrix=arr,
                priority=int(priority),
                deadline=(
                    None if deadline_ms is None else now + deadline_ms / 1e3
                ),
                arrival=now,
            )
            self._next_id += 1
            self._pending += 1
            self._stats.submitted += 1
            self._ready.extend(self._batcher.add(request, now))
            _log.event(
                "serve.submit",
                id=request.request_id,
                shape=arr.shape,
                priority=request.priority,
                deadline_ms=deadline_ms,
                pending=self._pending,
            )
            self._cond.notify_all()
        return request.future

    # -- dispatch ---------------------------------------------------------

    def poll(self) -> int:
        """Dispatch on the calling thread until nothing is due.

        Each pick solves the batches that filled on admission, then at
        most one due bucket, the one with the earliest pressure time, and
        reads the clock again before the next pick, so requests submitted
        during a solve join their bucket's next batch. Returns the
        number of batches dispatched. This is the manual-drive
        alternative to the background thread — with an injected fake
        clock it makes flush timing fully deterministic.
        """
        dispatched = 0
        while True:
            with self._cond:
                batches = self._checkout()
            if not batches:
                return dispatched
            for batch in batches:
                self._dispatch(batch)
            dispatched += len(batches)

    def drain(self) -> None:
        """Flush everything queued and wait for all admitted work."""
        with self._cond:
            now = self._clock()
            self._ready.extend(self._batcher.drain(now))
            batches = self._checkout()
        for batch in batches:
            self._dispatch(batch)
        with self._cond:
            while self._pending or self._inflight or self._ready:
                self._cond.wait(timeout=_MAX_LOOP_WAIT)

    # -- observability ----------------------------------------------------

    def stats(self) -> ServerStats:
        """Immutable snapshot of counters, fill histogram, latencies."""
        with self._cond:
            return self._stats.snapshot(
                pending=self._pending, inflight=self._inflight
            )

    @property
    def pending(self) -> int:
        """Requests admitted but not yet dispatched."""
        with self._cond:
            return self._pending

    @property
    def clock(self):
        """The server's clock (injected or ``time.monotonic``)."""
        return self._clock

    # -- internals --------------------------------------------------------

    def _checkout(self) -> list[FusedBatch]:
        """Move the next pick from queued to in-flight (caller holds the
        lock): every batch already flushed, then the one most pressed
        due bucket, so batches that keep filling never starve it."""
        self._ready.extend(self._batcher.due(self._clock()))
        taken = list(self._ready)
        self._ready.clear()
        for batch in taken:
            self._pending -= len(batch)
            self._inflight += len(batch)
            self._stats.note_batch(len(batch), batch.cause)
        return taken

    def _loop(self) -> None:
        """Background dispatch loop (one thread per server)."""
        while True:
            with self._cond:
                while True:
                    if self._stopped:
                        return
                    batches = self._checkout()
                    if batches:
                        break
                    if self._closed and not self._pending:
                        # Shutdown is finishing elsewhere (drain/abort);
                        # keep waiting for the stop flag.
                        self._cond.wait(timeout=_MAX_LOOP_WAIT)
                        continue
                    horizon = self._batcher.next_due(self._clock())
                    if horizon is None:
                        self._cond.wait()
                    else:
                        # Cap the sleep: the horizon was computed from a
                        # clock reading that is already stale by wait
                        # time, and an injected clock may advance
                        # independently of the wall clock the condition
                        # variable sleeps on.
                        self._cond.wait(
                            timeout=min(max(horizon, 1e-4), _MAX_LOOP_WAIT)
                        )
            for batch in batches:
                self._dispatch(batch)

    def _abort_queued(self) -> None:
        """Fail every not-yet-dispatched request with ``ServerClosed``."""
        with self._cond:
            self._ready.extend(self._batcher.drain(self._clock()))
            batches = list(self._ready)
            self._ready.clear()
            for batch in batches:
                # Aborted batches move straight to the failure ledger;
                # they never count as dispatched.
                self._pending -= len(batch)
                self._inflight += len(batch)
        now = self._clock()
        for batch in batches:
            for request in batch.requests:
                request.fail(
                    ServerClosed(
                        f"server closed before request "
                        f"{request.request_id} was dispatched"
                    )
                )
            self._finish(batch.requests, now, failed=True)

    def _dispatch(self, batch: FusedBatch) -> None:
        """Solve one fused batch and fan results/failures out by request."""
        ids = batch.request_ids
        _log.event(
            "serve.flush",
            bucket=batch.shape,
            fill=len(batch),
            cause=batch.cause,
            ids=len(ids),
        )
        try:
            # The engine instance is stateful (last_failures) and not
            # reentrant; fused batches execute one at a time. Worker
            # parallelism lives inside the engine's executor.
            with self._dispatch_lock:
                results, report = self._solve(
                    [r.matrix for r in batch.requests]
                )
        except Exception as exc:
            # A whole-batch failure (infrastructure fault that exhausted
            # its retries, or an unexpected bug): every future must still
            # resolve — map the failure into request-id space and fan it
            # out; nothing is ever silently dropped.
            mapped = remap_fused_failure(exc, ids)
            for request in batch.requests:
                request.fail(mapped)
            self._finish(batch.requests, self._clock(), failed=True)
            _log.event(
                "serve.batch_failed",
                bucket=batch.shape,
                fill=len(batch),
                cause=type(exc).__name__,
            )
            return
        unrecovered = set(report.unrecovered)
        recovered = {
            e.index for e in report if e.index >= 0 and e.recovered
        }
        now = self._clock()
        completed: list[ServeRequest] = []
        failed: list[ServeRequest] = []
        for pos, request in enumerate(batch.requests):
            if pos in unrecovered:
                request.fail(self._request_error(report, pos, request))
                failed.append(request)
            else:
                request.resolve(results[pos])
                completed.append(request)
        with self._cond:
            self._stats.quarantined += len(
                {ids[pos] for pos in recovered | unrecovered}
            )
            self._stats.task_failures.update(
                e.cause for e in report if e.index < 0
            )
        self._finish(completed, now, failed=False)
        self._finish(failed, now, failed=True)
        _log.event(
            "serve.dispatched",
            bucket=batch.shape,
            fill=len(batch),
            ok=len(completed),
            failed=len(failed),
        )

    def _solve(
        self, matrices: list[np.ndarray]
    ) -> tuple[list[SVDResult], FailureReport]:
        """Run one fused batch through the configured solver."""
        engine = self._engine
        if hasattr(engine, "svd_batch"):
            results = engine.svd_batch(matrices, on_failure="quarantine")
            return list(results), engine.last_failures
        batch = engine.decompose_batch(matrices, on_failure="quarantine")
        return list(batch.results), batch.failures or FailureReport()

    def _request_error(
        self, report: FailureReport, position: int, request: ServeRequest
    ) -> ReproError:
        """Build the exception for one unrecovered request.

        The report speaks fused-stack positions; the exception handed to
        the caller names the request id (the regression the fan-out
        helpers guard: ids, never positions).
        """
        entries = report.for_index(position)
        last = entries[-1]
        exc_type = _CAUSE_TYPES.get(last.cause, ReproError)
        message = (
            f"request {request.request_id} "
            f"({request.shape[0]}x{request.shape[1]}) failed after "
            f"{last.attempts} attempt(s): {last.message}"
        )
        if exc_type is ConvergenceError:
            return ConvergenceError(
                message, batch_indices=(request.request_id,)
            )
        if exc_type is NonFiniteError:
            return NonFiniteError(
                message, batch_indices=(request.request_id,)
            )
        return ReproError(message)

    def _finish(
        self, requests, now: float, *, failed: bool
    ) -> None:
        """Account completions and wake drain/close waiters."""
        if not requests:
            return
        with self._cond:
            for request in requests:
                self._stats.note_completion(
                    now - request.arrival, failed=failed
                )
            self._inflight -= len(requests)
            self._cond.notify_all()
