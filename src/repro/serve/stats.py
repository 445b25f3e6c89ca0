"""Serving statistics: counters, batch-fill histogram, latency quantiles.

The accumulator is owned by the server and mutated under its lock; a
:meth:`_StatsAccumulator.snapshot` produces an immutable
:class:`ServerStats` a monitoring thread can read without racing the
broker. Latencies are kept in a bounded ring (most recent
``window`` completions), so quantiles track current behavior and memory
stays O(window) under sustained traffic.

Everything here is driven by the server's injected clock — the module
itself never reads time, so statistics are exactly reproducible under a
fake clock (and DET01-clean).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

__all__ = ["ServerStats"]


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list (NaN when empty).

    The empty case matters: a snapshot taken before the first completion
    sees a latency window with zero samples and must degrade to NaN
    instead of raising.
    """
    if not sorted_values:
        return float("nan")
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class ServerStats:
    """Immutable snapshot of a server's life so far.

    Attributes
    ----------
    submitted / completed / failed / rejected:
        Request counters: admitted, resolved with a result, resolved
        with an exception, refused at the door (``ServerOverloaded``).
    quarantined:
        Requests that left the bucketed fast path but were recovered by
        the engine's quarantine ladder (their futures still resolved
        with valid factors).
    task_failures:
        Histogram ``{cause: count}`` of the task-level failures the
        resilient executor retried below the broker (the ``index == -1``
        entries of each fused batch's failure report), summed over
        batches. A retried batch still resolves every future, so without
        it a worker kill or a poisoned sweep leaves no trace in the
        stats.
    pending:
        Requests queued in the micro-batcher right now.
    inflight:
        Requests dispatched into a fused solve that has not returned.
    batches:
        Fused batches dispatched.
    batch_fill:
        Histogram ``{fill_size: count}`` over dispatched batches.
    flush_causes:
        Histogram ``{cause: count}`` over :data:`~repro.serve.batcher.
        FLUSH_CAUSES`.
    latency_p50 / latency_p95 / latency_p99 / latency_max:
        End-to-end seconds (admission to future resolution) over the
        most recent completions (NaN before the first completion).
    window:
        Number of latency samples the quantiles were computed from.
    """

    submitted: int
    completed: int
    failed: int
    rejected: int
    quarantined: int
    task_failures: dict[str, int]
    pending: int
    inflight: int
    batches: int
    batch_fill: dict[int, int]
    flush_causes: dict[str, int]
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    window: int

    @property
    def mean_fill(self) -> float:
        total = sum(fill * n for fill, n in self.batch_fill.items())
        count = sum(self.batch_fill.values())
        return total / count if count else float("nan")

    def summary(self) -> str:
        fill = ", ".join(
            f"{size}:{count}" for size, count in sorted(self.batch_fill.items())
        )
        causes = ", ".join(
            f"{cause}:{count}"
            for cause, count in sorted(self.flush_causes.items())
        )
        retried = ", ".join(
            f"{cause}:{count}"
            for cause, count in sorted(self.task_failures.items())
        )
        return "\n".join(
            [
                f"requests: {self.submitted} submitted, "
                f"{self.completed} completed, {self.failed} failed, "
                f"{self.rejected} rejected, {self.quarantined} quarantined",
                f"task failures retried: {retried or '-'}",
                f"queue: {self.pending} pending, {self.inflight} in flight",
                f"batches: {self.batches} dispatched, "
                f"mean fill {self.mean_fill:.2f} "
                f"(fill histogram {fill or '-'}; causes {causes or '-'})",
                f"latency (last {self.window}): "
                f"p50 {self.latency_p50 * 1e3:.3g} ms, "
                f"p95 {self.latency_p95 * 1e3:.3g} ms, "
                f"p99 {self.latency_p99 * 1e3:.3g} ms, "
                f"max {self.latency_max * 1e3:.3g} ms",
            ]
        )

    def as_dict(self) -> dict:
        """JSON-ready form (benchmarks and the CLI persist this)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "quarantined": self.quarantined,
            "task_failures": dict(sorted(self.task_failures.items())),
            "pending": self.pending,
            "inflight": self.inflight,
            "batches": self.batches,
            "batch_fill": {str(k): v for k, v in sorted(self.batch_fill.items())},
            "flush_causes": dict(sorted(self.flush_causes.items())),
            "mean_fill": self.mean_fill,
            "latency_p50_ms": self.latency_p50 * 1e3,
            "latency_p95_ms": self.latency_p95 * 1e3,
            "latency_p99_ms": self.latency_p99 * 1e3,
            "latency_max_ms": self.latency_max * 1e3,
            "latency_window": self.window,
        }


@dataclass
class _StatsAccumulator:
    """Mutable counters behind the server lock (internal)."""

    window: int = 4096
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    quarantined: int = 0
    batches: int = 0
    task_failures: Counter = field(default_factory=Counter)
    batch_fill: Counter = field(default_factory=Counter)
    flush_causes: Counter = field(default_factory=Counter)
    latencies: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        self.latencies = deque(maxlen=int(self.window))

    def note_batch(self, fill: int, cause: str) -> None:
        self.batches += 1
        self.batch_fill[int(fill)] += 1
        self.flush_causes[cause] += 1

    def note_completion(self, latency: float, *, failed: bool) -> None:
        if failed:
            self.failed += 1
        else:
            self.completed += 1
        self.latencies.append(float(latency))

    def snapshot(self, *, pending: int, inflight: int) -> ServerStats:
        ordered = sorted(self.latencies)
        p50 = _quantile(ordered, 0.50)
        p95 = _quantile(ordered, 0.95)
        p99 = _quantile(ordered, 0.99)
        worst = ordered[-1] if ordered else float("nan")
        return ServerStats(
            submitted=self.submitted,
            completed=self.completed,
            failed=self.failed,
            rejected=self.rejected,
            quarantined=self.quarantined,
            task_failures=dict(self.task_failures),
            pending=int(pending),
            inflight=int(inflight),
            batches=self.batches,
            batch_fill=dict(self.batch_fill),
            flush_causes=dict(self.flush_causes),
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            latency_max=worst,
            window=len(ordered),
        )
