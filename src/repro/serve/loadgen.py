"""Closed-loop load generator for the serving layer.

Drives a serving target the way a fleet of synchronous callers would:
``concurrency`` worker threads each submit a request, **block for its
result**, then submit the next (a closed loop — offered load adapts to
service rate, so the generator measures the broker, not an unbounded
backlog). Matrix shapes are drawn from a mixed distribution by a seeded
per-worker generator, so runs are reproducible request-for-request.

The target is anything with the server surface — ``submit`` / ``clock``
/ ``stats`` — which today means one
:class:`~repro.serve.server.SVDServer` or a whole
:class:`~repro.serve.cluster.SVDCluster` (``repro-serve --replicas N``).
The per-worker seeded request streams are identical either way, so a
cluster run offers bit-for-bit the same traffic as a single-server run
and throughput curves across replica counts compare like for like.

Used three ways:

- the ``repro-serve`` CLI's traffic mode (single server or cluster),
- the serving benchmarks (``benchmarks/perf_serving.py`` →
  ``BENCH_serve.json``; ``benchmarks/test_ext_cluster_scaling.py`` →
  ``BENCH_cluster.json``),
- the CI serving-smoke and cluster-smoke jobs, which run it under
  ``REPRO_SANITIZE=1`` and assert every future resolved and no
  shared-memory segment was stranded.

All timing reads the server's clock (injected or monotonic); the module
never consults the wall clock itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ServerOverloaded
from repro.serve.cluster import ClusterStats, SVDCluster
from repro.serve.server import SVDServer
from repro.serve.stats import ServerStats

__all__ = ["LoadSpec", "LoadReport", "run_closed_loop"]

#: Pause between overload retries (seconds); closed-loop workers back
#: off instead of hammering a full queue.
_REJECT_BACKOFF = 0.001


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation scenario.

    Attributes
    ----------
    requests:
        Total requests across all workers (split as evenly as integer
        division allows; the remainder goes to the first workers).
    concurrency:
        Closed-loop worker threads — also the maximum in-flight
        requests, which is what the micro-batcher has to coalesce.
    shapes:
        The shape mix; each worker draws uniformly (seeded).
    seed:
        Base seed; worker ``w`` uses ``default_rng(seed + w)`` for both
        shape choice and matrix entries.
    priorities:
        Priority levels to cycle through (adds scheduling variety).
    deadline_ms:
        Optional per-request relative deadline.
    verify_every:
        Spot-check cadence: every ``n``-th request the run completes,
        whichever worker completes it, is re-solved standalone and
        compared bit-for-bit (0 disables).
    """

    requests: int = 200
    concurrency: int = 16
    shapes: tuple[tuple[int, int], ...] = ((16, 8), (24, 12), (32, 16))
    seed: int = 0
    priorities: tuple[int, ...] = (0,)
    deadline_ms: float | None = None
    verify_every: int = 0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError(
                f"requests must be >= 1, got {self.requests}"
            )
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not self.shapes:
            raise ConfigurationError("shapes must be non-empty")


@dataclass
class LoadReport:
    """What one closed-loop run observed.

    ``completed + failed == requests`` always holds on return — a future
    that never resolved would hang the generator, so finishing *is* the
    all-futures-resolved check.
    """

    requests: int
    completed: int
    failed: int
    overload_retries: int
    elapsed: float
    throughput: float
    verified: int
    mismatches: int
    server_stats: ServerStats | ClusterStats
    errors: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "overload_retries": self.overload_retries,
            "elapsed_s": self.elapsed,
            "throughput_rps": self.throughput,
            "verified": self.verified,
            "mismatches": self.mismatches,
            "server": self.server_stats.as_dict(),
        }


class _Cadence:
    """The run-wide spot-check counter the workers share."""

    def __init__(self, every: int) -> None:
        self.every = every
        self._completed = 0
        self._lock = threading.Lock()

    def due(self) -> bool:
        """Count one completed request; whether it is to be verified."""
        if not self.every:
            return False
        with self._lock:
            self._completed += 1
            return self._completed % self.every == 0


class _Worker:
    """One closed-loop caller: submit, wait, repeat."""

    def __init__(
        self,
        server: SVDServer | SVDCluster,
        spec: LoadSpec,
        index: int,
        count: int,
        barrier: threading.Barrier,
        cadence: _Cadence,
    ) -> None:
        self.server = server
        self.spec = spec
        self.index = index
        self.count = count
        self.barrier = barrier
        self.cadence = cadence
        self.completed = 0
        self.failed = 0
        self.overload_retries = 0
        self.verified = 0
        self.mismatches = 0
        self.errors: list[str] = []
        rng = np.random.default_rng(spec.seed + index)
        # Pre-generate the worker's request stream so the measured loop
        # is submit/wait, not matrix generation.
        self.matrices = [
            rng.standard_normal(
                spec.shapes[int(rng.integers(len(spec.shapes)))]
            )
            for _ in range(count)
        ]

    def run(self) -> None:
        spec = self.spec
        self.barrier.wait()
        for i, matrix in enumerate(self.matrices):
            priority = spec.priorities[i % len(spec.priorities)]
            while True:
                try:
                    future = self.server.submit(
                        matrix,
                        priority=priority,
                        deadline_ms=spec.deadline_ms,
                    )
                    break
                except ServerOverloaded:
                    # Explicit backpressure: the closed-loop caller's
                    # contract is to back off and re-offer.
                    self.overload_retries += 1
                    threading.Event().wait(_REJECT_BACKOFF)
                except Exception as exc:  # repro: noqa[EXC01] an
                    # admission-time rejection other than backpressure
                    # (e.g. a cluster with no live replicas) counts as a
                    # failed request, not a dead worker thread — the
                    # report must still account for every request.
                    future = None
                    self.failed += 1
                    if len(self.errors) < 8:
                        self.errors.append(f"{type(exc).__name__}: {exc}")
                    break
            if future is None:
                continue
            try:
                result = future.result()
            except Exception as exc:
                self.failed += 1
                if len(self.errors) < 8:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            self.completed += 1
            if self.cadence.due():
                self._verify(matrix, result)

    def _verify(self, matrix: np.ndarray, result) -> None:
        from repro.jacobi.batched import BatchedJacobiEngine

        reference = BatchedJacobiEngine().svd_batch([matrix])[0]
        self.verified += 1
        same = (
            np.array_equal(result.U, reference.U)
            and np.array_equal(result.S, reference.S)
            and np.array_equal(result.V, reference.V)
        )
        if not same:
            self.mismatches += 1
            if len(self.errors) < 8:
                self.errors.append(
                    f"served factors differ from standalone solve for a "
                    f"{matrix.shape[0]}x{matrix.shape[1]} request"
                )


def run_closed_loop(
    server: SVDServer | SVDCluster, spec: LoadSpec
) -> LoadReport:
    """Run one scenario against a started target; blocks until done.

    The target may be a single server or a cluster — the generator only
    touches the shared surface (``submit`` / ``clock`` / ``stats``), and
    the seeded per-worker request streams do not depend on the target,
    so the same spec offers identical traffic to both.
    """
    per_worker = spec.requests // spec.concurrency
    remainder = spec.requests % spec.concurrency
    counts = [
        per_worker + (1 if w < remainder else 0)
        for w in range(spec.concurrency)
    ]
    counts = [c for c in counts if c]
    barrier = threading.Barrier(len(counts) + 1)
    cadence = _Cadence(spec.verify_every)
    workers = [
        _Worker(server, spec, w, count, barrier, cadence)
        for w, count in enumerate(counts)
    ]
    threads = [
        threading.Thread(
            target=worker.run, name=f"repro-loadgen-{worker.index}"
        )
        for worker in workers
    ]
    for thread in threads:
        thread.start()
    clock = server.clock
    barrier.wait()
    started = clock()
    for thread in threads:
        thread.join()
    elapsed = clock() - started
    completed = sum(w.completed for w in workers)
    failed = sum(w.failed for w in workers)
    errors: list[str] = []
    for worker in workers:
        errors.extend(worker.errors)
    return LoadReport(
        requests=spec.requests,
        completed=completed,
        failed=failed,
        overload_retries=sum(w.overload_retries for w in workers),
        elapsed=elapsed,
        throughput=(completed + failed) / elapsed if elapsed > 0 else 0.0,
        verified=sum(w.verified for w in workers),
        mismatches=sum(w.mismatches for w in workers),
        server_stats=server.stats(),
        errors=errors[:8],
    )
