"""Dynamic micro-batching: shape-bucketed request coalescing.

The broker's throughput comes from the same observation the batched
engine is built on (and that Boukaram et al. / Abdelfattah & Fasi make
for variable-size GPU workloads): many small independent problems run
fastest as one shape-uniform stacked batch. The :class:`MicroBatcher`
turns a *stream* of requests into such batches:

- requests land in per-shape **bucket queues**
  (:func:`repro.utils.bucketing.bucket_by_shape` is the batch-call
  analogue; here the bucket key is the live queue key). Buckets are
  isolated — a flush of one shape never drags other shapes with it,
  because mixing shapes would forfeit the stacked execution the batch
  exists for;
- within a bucket, requests dequeue by **priority then
  earliest-deadline-first then FIFO** (:meth:`ServeRequest.sort_key`);
- a bucket **flushes** when any of three pressures fire: it holds
  ``max_batch`` requests (*fill*), its oldest request has waited
  ``max_wait`` seconds (*wait* — bounds the latency cost a request pays
  for riding in a fused batch), or a request's deadline is within
  ``deadline_slack`` seconds (*deadline*). :meth:`drain` flushes
  everything regardless (*drain*, used at shutdown);
- fill flushes on :meth:`add`; of the buckets whose wait or deadline
  pressure has fired, :meth:`due` flushes only the one with the earliest
  *pressure time* (its oldest arrival plus ``max_wait``, or its earliest
  deadline minus ``deadline_slack``, whichever comes first). The server
  solves that batch before it calls :meth:`due` again, so a request
  admitted during a solve still rides its own bucket's next batch
  (late binding: a bucket's contents are fixed when it is picked, not
  when its pressure fires).

The batcher is a pure data structure: every method takes ``now`` as an
argument and it never reads a clock, sleeps, or spawns a thread — the
server drives it with its injected clock, which is what makes flush
timing unit-testable without sleeps (and keeps the module DET01-clean).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.serve.request import ServeRequest

__all__ = ["FusedBatch", "MicroBatcher", "FLUSH_CAUSES"]

#: Why a fused batch left its bucket queue.
FLUSH_CAUSES = ("fill", "wait", "deadline", "drain")


@dataclass(frozen=True)
class FusedBatch:
    """One dispatch unit: shape-uniform requests fused into a stack.

    ``requests`` is the dequeue order — position ``p`` in the fused
    stack is ``requests[p]``, the mapping every failure fan-out must go
    through (see :mod:`repro.serve.fanout`).
    """

    shape: tuple[int, int]
    requests: tuple[ServeRequest, ...]
    cause: str
    created: float

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def request_ids(self) -> tuple[int, ...]:
        return tuple(r.request_id for r in self.requests)


class _Bucket:
    """One shape's pending queue: a heap plus the aggregate flush state."""

    __slots__ = ("heap",)

    def __init__(self) -> None:
        # (sort_key, request); heapq pops the smallest key, i.e. highest
        # priority, then earliest deadline, then lowest admission seq.
        self.heap: list[tuple[tuple[float, float, int], ServeRequest]] = []

    def push(self, request: ServeRequest) -> None:
        heapq.heappush(self.heap, (request.sort_key(), request))

    def pop_upto(self, count: int) -> list[ServeRequest]:
        return [heapq.heappop(self.heap)[1] for _ in range(min(count, len(self.heap)))]

    def oldest_arrival(self) -> float:
        return min(item[1].arrival for item in self.heap)

    def earliest_deadline(self) -> float | None:
        deadlines = [
            item[1].deadline for item in self.heap
            if item[1].deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def pressure_time(self, max_wait: float, deadline_slack: float) -> float:
        """Clock reading at which wait or deadline pressure fires."""
        when = self.oldest_arrival() + max_wait
        deadline = self.earliest_deadline()
        if deadline is not None:
            when = min(when, deadline - deadline_slack)
        return when

    def __len__(self) -> int:
        return len(self.heap)


class MicroBatcher:
    """Shape-bucketed request coalescing with three flush pressures.

    Parameters
    ----------
    max_batch:
        Largest fused batch (also the *fill* flush trigger). A bucket
        holding more than ``max_batch`` requests flushes the top
        ``max_batch`` by dequeue order and keeps the rest queued.
    max_wait:
        Seconds the oldest request of a bucket may wait before the
        bucket flushes anyway (the latency bound of batching).
    deadline_slack:
        A bucket flushes when some request's deadline is within this
        many seconds — the headroom left for the solve itself.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_wait: float = 0.002,
        deadline_slack: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if max_wait < 0:
            raise ConfigurationError(
                f"max_wait must be >= 0, got {max_wait}"
            )
        if deadline_slack < 0:
            raise ConfigurationError(
                f"deadline_slack must be >= 0, got {deadline_slack}"
            )
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.deadline_slack = float(deadline_slack)
        self._buckets: dict[tuple[int, int], _Bucket] = {}

    # -- state ------------------------------------------------------------

    def __len__(self) -> int:
        """Requests currently queued across all buckets."""
        return sum(len(b) for b in self._buckets.values())

    @property
    def bucket_depths(self) -> dict[tuple[int, int], int]:
        return {shape: len(b) for shape, b in self._buckets.items() if len(b)}

    # -- intake and flushing ----------------------------------------------

    def add(self, request: ServeRequest, now: float) -> list[FusedBatch]:
        """Queue one request; return any batches that became due by fill.

        Wait/deadline pressure is evaluated by :meth:`due` (the server
        polls it with its clock); fill pressure is evaluated here so a
        hot bucket flushes the moment it is full, not a poll later.
        """
        bucket = self._buckets.setdefault(request.shape, _Bucket())
        bucket.push(request)
        if len(bucket) >= self.max_batch:
            return [self._flush(request.shape, bucket, "fill", now)]
        return []

    def due(self, now: float) -> list[FusedBatch]:
        """Flush the most pressed bucket whose wait or deadline pressure
        has fired; returns at most one batch.

        Of the due buckets, the one with the earliest pressure time
        flushes (the first queued shape on a tie); the others stay
        queued, so requests added before the next call still join them.
        A bucket due on both counts flushes with cause ``wait``.
        """
        best = None
        for shape, bucket in self._buckets.items():
            if now - bucket.oldest_arrival() >= self.max_wait:
                cause = "wait"
            else:
                deadline = bucket.earliest_deadline()
                if deadline is None or deadline - now > self.deadline_slack:
                    continue
                cause = "deadline"
            when = bucket.pressure_time(self.max_wait, self.deadline_slack)
            if best is None or when < best[0]:
                best = (when, shape, cause)
        if best is None:
            return []
        _, shape, cause = best
        return [self._flush(shape, self._buckets[shape], cause, now)]

    def drain(self, now: float) -> list[FusedBatch]:
        """Flush everything (shutdown path); buckets empty afterwards."""
        out = []
        for shape in list(self._buckets):
            bucket = self._buckets[shape]
            while len(bucket):
                out.append(self._flush(shape, bucket, "drain", now))
        return out

    def next_due(self, now: float) -> float | None:
        """Seconds until the earliest wait/deadline trigger, or ``None``.

        The server's dispatch loop sleeps at most this long between
        polls; ``0.0`` means a flush is already due.
        """
        if not self._buckets:
            return None
        earliest = min(
            bucket.pressure_time(self.max_wait, self.deadline_slack)
            for bucket in self._buckets.values()
        )
        return max(0.0, earliest - now)

    def _flush(
        self,
        shape: tuple[int, int],
        bucket: _Bucket,
        cause: str,
        now: float,
    ) -> FusedBatch:
        requests = tuple(bucket.pop_upto(self.max_batch))
        if not len(bucket):
            del self._buckets[shape]
        return FusedBatch(
            shape=shape, requests=requests, cause=cause, created=now
        )
