"""Exception hierarchy for :mod:`repro`.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing configuration mistakes from numerical failures.

The fault-tolerant runtime (:mod:`repro.runtime.resilient`) splits the
taxonomy along one axis that matters for recovery:

- **infrastructure faults** (:class:`WorkerCrashError`,
  :class:`DeadlineExceeded`, :class:`NonFiniteError`) are
  transient-by-assumption and retried with backoff, possibly on a
  degraded backend;
- **numerical failures** (:class:`ConvergenceError`) are deterministic —
  retrying reproduces them bit-for-bit — so they are never retried; in
  quarantine mode the offending matrices are re-solved by the reference
  per-matrix path and reported in a :class:`FailureReport`.

Every exception here must survive a ``pickle`` round-trip: worker
processes raise them across the pool boundary, where CPython rebuilds the
exception from ``args`` and restores attributes from ``__dict__`` — which
is why the keyword extras all carry defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An algorithm or kernel was configured with invalid parameters."""


class ShapeError(ReproError, ValueError):
    """An input array has an unsupported shape, dtype, or layout."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver exhausted its sweep budget before converging.

    Attributes
    ----------
    sweeps:
        Number of sweeps performed before giving up.
    residual:
        The convergence metric value at the point of failure.
    batch_indices:
        Caller-space batch indices of the non-converged matrices when the
        failure came from a batched engine (``None`` for single-matrix
        solvers). Lets a batch driver quarantine exactly the offenders.
    """

    def __init__(
        self,
        message: str,
        *,
        sweeps: int = 0,
        residual: float = float("nan"),
        batch_indices: tuple[int, ...] | None = None,
    ) -> None:
        super().__init__(message)
        self.sweeps = int(sweeps)
        self.residual = float(residual)
        self.batch_indices = (
            None if batch_indices is None else tuple(int(i) for i in batch_indices)
        )


class NonFiniteError(ReproError, ArithmeticError):
    """A matrix acquired NaN/Inf values mid-iteration.

    Distinct from :class:`ShapeError` (which rejects non-finite *inputs*
    up front): this fires when finite data turns non-finite during the
    sweeps — memory corruption or an injected fault — and is therefore
    treated as retryable infrastructure failure.
    """

    def __init__(
        self,
        message: str,
        *,
        batch_indices: tuple[int, ...] | None = None,
    ) -> None:
        super().__init__(message)
        self.batch_indices = (
            None if batch_indices is None else tuple(int(i) for i in batch_indices)
        )


class WorkerCrashError(ReproError, RuntimeError):
    """A pool worker died (or was simulated dead) while holding a task."""


class DeadlineExceeded(ReproError, TimeoutError):
    """A task missed its per-task deadline (``RetryPolicy.task_timeout``)."""


class ServerOverloaded(ReproError, RuntimeError):
    """The serving layer's bounded request queue is full.

    Raised by :meth:`repro.serve.SVDServer.submit` when admitting the
    request would push the pending-queue depth past
    ``ServeConfig.max_pending``. Backpressure is explicit by design: the
    broker rejects at the door instead of buffering without bound, so a
    client can shed load, retry later, or fail fast.

    Attributes
    ----------
    pending:
        Queue depth at rejection time.
    capacity:
        The configured ``max_pending`` bound.
    """

    def __init__(
        self, message: str, *, pending: int = 0, capacity: int = 0
    ) -> None:
        super().__init__(message)
        self.pending = int(pending)
        self.capacity = int(capacity)


class ServerClosed(ReproError, RuntimeError):
    """A request was submitted to a server that has shut down (or is
    draining). Futures already admitted still resolve; new work does not."""


class ResourceError(ReproError, RuntimeError):
    """A simulated kernel requested more resources than the device offers.

    Raised, for example, when a kernel is asked to keep a working set in
    shared memory that exceeds the per-block shared-memory capacity.
    """


class PlanError(ReproError, RuntimeError):
    """The auto-tuning engine could not produce a valid execution plan."""


# ---------------------------------------------------------------------------
# structured failure reporting (quarantine mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """One recovery event: a matrix (or task) that needed the ladder.

    Attributes
    ----------
    index:
        Caller-space batch index of the affected matrix; ``-1`` when the
        failure is not attributable to a single matrix (e.g. a whole-task
        infrastructure fault recorded by the executor).
    stage:
        Where the failure surfaced: ``"executor"`` (task-level retry),
        ``"engine"`` (bucketed stack), or ``"wcycle"`` (level recursion).
    cause:
        Exception class name (``"ConvergenceError"``, ``"WorkerCrashError"``,
        ...).
    message:
        The failing exception's message.
    attempts:
        Total solve attempts spent on this matrix/task, including the
        reference re-solve when one ran.
    recovered:
        ``True`` when a retry or the reference per-matrix path produced a
        valid factorization; ``False`` for a quarantined matrix whose
        result slot holds NaN placeholder factors.
    """

    index: int
    stage: str
    cause: str
    message: str
    attempts: int
    recovered: bool


@dataclass
class FailureReport:
    """Structured record of every fault survived (or absorbed) by a run.

    Attached to :class:`~repro.types.BatchedSVDResult` in quarantine mode
    instead of raising; falsy when the run was clean.
    """

    entries: list[TaskFailure] = field(default_factory=list)

    def add(
        self,
        *,
        index: int,
        stage: str,
        cause: str,
        message: str,
        attempts: int,
        recovered: bool,
    ) -> None:
        self.entries.append(
            TaskFailure(
                index=int(index),
                stage=str(stage),
                cause=str(cause),
                message=str(message),
                attempts=int(attempts),
                recovered=bool(recovered),
            )
        )

    def extend(self, other: "FailureReport") -> None:
        self.entries.extend(other.entries)

    @property
    def quarantined(self) -> tuple[int, ...]:
        """Batch indices that left the bucketed path (recovered or not)."""
        return tuple(
            sorted({e.index for e in self.entries if e.index >= 0})
        )

    @property
    def unrecovered(self) -> tuple[int, ...]:
        """Batch indices whose result slots hold NaN placeholder factors."""
        return tuple(
            sorted({e.index for e in self.entries if e.index >= 0 and not e.recovered})
        )

    def for_index(self, index: int) -> list[TaskFailure]:
        return [e for e in self.entries if e.index == index]

    def summary(self) -> str:
        lines = [
            f"{len(self.entries)} failure event(s); "
            f"quarantined matrices: {list(self.quarantined) or 'none'}; "
            f"unrecovered: {list(self.unrecovered) or 'none'}"
        ]
        for e in self.entries:
            lines.append(
                f"  [{e.stage}] index={e.index} {e.cause} after "
                f"{e.attempts} attempt(s) "
                f"({'recovered' if e.recovered else 'QUARANTINED'}): {e.message}"
            )
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TaskFailure]:
        return iter(self.entries)
