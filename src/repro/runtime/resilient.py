"""Resilient execution: deadlines, bounded retries, and backend fallback.

:class:`ResilientExecutor` wraps any :class:`~repro.runtime.executor.
Executor` and turns its ``map`` into a supervised, attempt-bounded run:

- every task gets a **deadline** (``RetryPolicy.task_timeout``) enforced
  while waiting on its future;
- failed tasks are **retried** up to ``max_retries`` times with
  deterministic exponential backoff (no jitter — the retry schedule is
  observable behavior and must replay exactly under fault injection);
- each retry runs one rung further down the **degradation ladder**
  (:func:`~repro.runtime.scheduler.degradation_ladder`): a task that died
  on the persistent pool retries on the serial rung — the bit-exact
  reference, where an infrastructure fault cannot reproduce;
- a **timed-out task on the persistent backend respawns the pool**
  before the retry round: a started manifest cannot be cancelled, so
  its worker would stay stuck in it (a zombie whose result nobody
  collects) — terminating the workers frees it, and the next map finds
  a live pool;
- a broken worker pool (dead worker) is **respawned** once per retry
  round; a dead worker strands nothing, because workers share no memory
  with the parent;
- deterministic **numerical** failures (:class:`~repro.errors.
  ConvergenceError` and friends) are never retried — replaying them
  wastes work and reproduces the same bits — they resolve immediately,
  either raised or returned as :class:`~repro.runtime.executor.TaskError`
  values for the engine's quarantine path.

Because every rung partitions the same per-matrix-independent work, a
task that succeeds on *any* rung returns exactly the bytes the serial
reference computes — recovery never perturbs results, only wall-clock.

The wrapper is also the arming point for :mod:`repro.runtime.faults`:
each dispatched task runs inside a :class:`_TaskShell` that activates a
deterministic fault frame keyed by map sequence number, task index and
attempt — never by process — so a plan injects the same faults in every
process that replays the same calls, first attempts fail and retries run
clean.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    PlanError,
    ShapeError,
    TaskFailure,
)
from repro.runtime import faults
from repro.runtime.executor import (
    Executor,
    SerialExecutor,
    TaskError,
    _CapturedCall,
    _submission_order,
)
from repro.runtime.scheduler import degradation_ladder, retry_backoff
from repro.utils.logging import get_logger

__all__ = [
    "RetryPolicy",
    "ResilientExecutor",
    "policy_of",
    "base_executor",
]

_log = get_logger("runtime.resilient")

#: Deterministic failures: retrying replays the identical computation, so
#: these resolve on first occurrence (raise or quarantine, never retry).
_NONRETRYABLE = (ConfigurationError, ShapeError, PlanError, ConvergenceError)


def _retryable(exc: BaseException) -> bool:
    return isinstance(exc, Exception) and not isinstance(exc, _NONRETRYABLE)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision parameters of a :class:`ResilientExecutor`.

    Attributes
    ----------
    max_retries:
        Retries per task after its first attempt (0 = fail fast).
    task_timeout:
        Per-task deadline in seconds while waiting on a pool future
        (``None``: wait forever). The serial rung executes inline, so a
        deadline there can only come from fault injection.
    backoff_base / backoff_cap:
        Retry ``k`` sleeps ``min(cap, base * 2**(k-1))`` seconds.
    on_failure:
        ``"raise"`` or ``"quarantine"`` — how batch drivers above the
        executor should treat deterministic numerical failures. The
        executor itself only transports the mode (see
        :meth:`BatchedJacobiEngine.svd_batch`).
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.02
    backoff_cap: float = 1.0
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError(
                f"backoff base/cap must be >= 0, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if self.on_failure not in ("raise", "quarantine"):
            raise ConfigurationError(
                f"on_failure must be 'raise' or 'quarantine', got "
                f"{self.on_failure!r}"
            )


class _TaskShell:
    """Picklable per-attempt task wrapper that activates the fault frame.

    Travels to persistent workers (state is just the task function
    reference, the frozen fault plan, and identity strings), so injection
    decisions are identical wherever the attempt lands.
    """

    __slots__ = ("fn", "plan", "key", "attempt", "backend", "parent_pid")

    def __init__(
        self,
        fn: Callable,
        plan: faults.FaultPlan | None,
        *,
        key: str,
        attempt: int,
        backend: str,
        parent_pid: int,
    ) -> None:
        self.fn = fn
        self.plan = plan
        self.key = key
        self.attempt = attempt
        self.backend = backend
        self.parent_pid = parent_pid

    def __call__(self, item):
        with faults.activate(
            self.plan,
            self.key,
            attempt=self.attempt,
            backend=self.backend,
            parent_pid=self.parent_pid,
        ):
            faults.on_task_start()
            return self.fn(item)


class ResilientExecutor(Executor):
    """Retry/deadline/fallback supervisor around a base executor.

    Mirrors the wrapped executor's scheduling surface (``backend``,
    ``workers``, ``min_shard``), so engines plan shards exactly as they
    would against the bare executor — resilience changes failure
    handling, never planning.
    """

    def __init__(
        self, inner: Executor, policy: RetryPolicy | None = None
    ) -> None:
        super().__init__(inner.workers, min_shard=inner.min_shard)
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.backend = inner.backend
        self._fallbacks: list[Executor] | None = None
        self._map_seq = 0
        #: Retry history of the most recent top-level ``map`` call.
        self.last_failures: list[TaskFailure] = []

    # -- the degradation ladder ------------------------------------------

    def _rungs(self) -> list[Executor]:
        """The inner executor plus the lazily-built serial fallback."""
        if self._fallbacks is None:
            self._fallbacks = [
                SerialExecutor(min_shard=self.min_shard)
                for _ in degradation_ladder(self.backend)[1:]
            ]
        return [self.inner, *self._fallbacks]

    # -- supervised map --------------------------------------------------

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        costs: Sequence[float] | None = None,
        on_error: str = "raise",
    ) -> list:
        if on_error not in ("raise", "return"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'return', got {on_error!r}"
            )
        items = list(items)
        if not items:
            return []
        if self.active:
            # Nested map from inside one of our tasks: run inline under
            # the already-active fault frame (retry ownership stays with
            # the outermost task).
            run = _CapturedCall(fn) if on_error == "return" else fn
            return [run(item) for item in items]
        return self._map_supervised(fn, items, costs, on_error)

    def _map_supervised(
        self,
        fn: Callable,
        items: list,
        costs: Sequence[float] | None,
        on_error: str,
    ) -> list:
        policy = self.policy
        plan = faults.installed()
        rungs = self._rungs()
        self._map_seq += 1
        key_root = f"r{self._map_seq}"
        count = len(items)
        results: list = [None] * count
        errors: dict[int, BaseException] = {}
        history: dict[int, list[TaskFailure]] = {i: [] for i in range(count)}
        pending = _submission_order(count, costs)
        for attempt in range(policy.max_retries + 1):
            if not pending:
                break
            rung = rungs[min(attempt, len(rungs) - 1)]
            if attempt:
                time.sleep(
                    retry_backoff(
                        attempt,
                        base=policy.backoff_base,
                        cap=policy.backoff_cap,
                    )
                )
                _log.debug(
                    "retry round %d on rung %s: tasks %s",
                    attempt, rung.backend, pending,
                )
            futures: list[tuple[int, Future]] = []
            for idx in pending:
                shell = _TaskShell(
                    fn,
                    plan,
                    key=f"{key_root}t{idx}",
                    attempt=attempt,
                    backend=rung.backend,
                    parent_pid=os.getpid(),
                )
                futures.append((idx, self._dispatch(rung, shell, items[idx])))
            retry: list[int] = []
            respawned = False
            for idx, fut in futures:
                try:
                    results[idx] = fut.result(timeout=policy.task_timeout)
                    continue
                except DeadlineExceeded as caught:
                    # Raised by the task itself (an injected hang on the
                    # serial rung) — already a classified deadline; must
                    # not be mistaken for the waiter's FutureTimeoutError
                    # below (DeadlineExceeded subclasses TimeoutError).
                    exc: BaseException = caught
                except FutureTimeoutError as caught:
                    if policy.task_timeout is None:
                        # No deadline armed, so this TimeoutError came out
                        # of the task body; classify it like any failure.
                        exc = caught
                    else:
                        exc = DeadlineExceeded(
                            f"task {idx} missed its "
                            f"{policy.task_timeout:.4g}s deadline on the "
                            f"{rung.backend} rung (attempt {attempt})"
                        )
                        fut.cancel()
                except Exception as caught:  # repro: noqa[EXC01] supervisor
                    # boundary: every task failure is classified below —
                    # retried, quarantined, or re-raised — never swallowed.
                    exc = caught
                if (
                    isinstance(exc, (BrokenExecutor, DeadlineExceeded))
                    and not respawned
                ):
                    # One dead worker poisons every future of the pool,
                    # and fut.cancel() cannot stop a manifest that
                    # already started, so a worker past its deadline
                    # stays stuck in it. Replace the pool once per
                    # round, before the retry round; other in-flight
                    # manifests fail as BrokenExecutor and retry. The
                    # serial rung has no pool: its respawn is a no-op.
                    rung.respawn()
                    respawned = True
                history[idx].append(
                    TaskFailure(
                        index=idx,
                        stage="executor",
                        cause=type(exc).__name__,
                        message=str(exc),
                        attempts=attempt + 1,
                        recovered=False,
                    )
                )
                if _retryable(exc) and attempt < policy.max_retries:
                    retry.append(idx)
                else:
                    errors[idx] = exc
            pending = retry
        self.last_failures = [
            entry for idx in sorted(history) for entry in history[idx]
        ]
        if errors:
            if on_error == "raise":
                raise errors[min(errors)]
            for idx, exc in errors.items():
                results[idx] = TaskError(
                    error=exc, failures=tuple(history[idx])
                )
        return results

    def _dispatch(self, rung: Executor, shell: _TaskShell, item) -> Future:
        if rung.backend == "serial":
            # The serial rung runs the task in this thread. Route it
            # through our _run_task so `self.active` is set meanwhile:
            # nested maps then inline against *this* wrapper instead of
            # re-submitting (deadlock-free).
            return rung.submit(functools.partial(self._run_task, shell), item)
        return rung.submit(shell, item)

    # -- delegation ------------------------------------------------------

    def submit(self, fn: Callable, item) -> Future:
        return self.inner.submit(fn, item)

    def respawn(self) -> None:
        self.inner.respawn()

    def close(self) -> None:
        self.inner.close()
        for ex in self._fallbacks or ():
            ex.close()
        self._fallbacks = None


def policy_of(executor: Executor | None) -> RetryPolicy | None:
    """The executor's retry policy when it is resilient, else ``None``."""
    if isinstance(executor, ResilientExecutor):
        return executor.policy
    return None


def base_executor(executor: Executor) -> Executor:
    """Unwrap a resilient executor to the backend executor it supervises."""
    if isinstance(executor, ResilientExecutor):
        return executor.inner
    return executor
