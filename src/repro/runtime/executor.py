"""Executor backends: serial and persistent-worker map engines.

An :class:`Executor` runs a list of independent tasks and returns their
results **in task order**, regardless of completion order. The parallel
backend schedules tasks largest-estimated-cost-first (the classic LPT
heuristic) so one straggler bucket does not serialize the tail of the run;
because results are re-ordered by task index afterwards, the schedule
never affects what callers observe.

The transport contract is the whole of ``map`` and ``submit``: callers
pass a module-level task and items that hold plain ndarrays (at the top
level or inside tuples and lists), and get the task's return values
back. How the arrays reach the task is the backend's business.

Backend notes
-------------
``serial``
    Plain in-order loop that passes the arrays by reference. The
    reference the parallel backend must match bit-for-bit.
``persistent``
    :class:`~repro.runtime.persistent.PersistentExecutor`: long-lived
    supervised fork workers that sidestep the GIL entirely. They receive
    batched task manifests (one IPC round-trip per worker per map) over
    a pipe; the items' arrays ride each manifest's frame as out-of-band
    pickle buffers and reach the task read-only, and results pickle back
    through the pipe.

Nesting is safe by construction: a task that calls :meth:`Executor.map`
from inside a worker runs the nested tasks inline (no re-submission), so
a bounded pool can never deadlock on its own children. A single-task map
also runs inline *without* claiming the pool, which lets parallelism land
at the outermost level that actually fans out. An inline map, on any
backend, passes the arrays by reference.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.utils.logging import get_logger

__all__ = [
    "BACKENDS",
    "ON_FAILURE_MODES",
    "RuntimeConfig",
    "TaskError",
    "Executor",
    "SerialExecutor",
    "get_executor",
]

_log = get_logger("runtime.executor")

#: The recognized executor backends.
BACKENDS = ("serial", "persistent")

#: Environment override for the default backend: when set (and not
#: ``"serial"``), ``get_executor(None)`` builds this backend instead of
#: the serial reference — the hook CI uses to re-run tier-1 on the
#: persistent backend. Only honoured in the top-level process so worker
#: processes never auto-nest pools inside themselves.
BACKEND_ENV_VAR = "REPRO_RUNTIME_BACKEND"

#: The recognized failure-handling modes.
ON_FAILURE_MODES = ("raise", "quarantine")

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class RuntimeConfig:
    """Host-parallelism configuration of a batched solver.

    Attributes
    ----------
    backend:
        One of :data:`BACKENDS`.
    workers:
        Worker count for the ``persistent`` backend (``serial`` always
        runs with one). ``workers > os.cpu_count()`` is rejected here —
        once, for every entry point — unless ``allow_oversubscribe`` opts
        in.
    min_shard:
        Smallest per-worker slice when a stacked shape bucket is split
        across workers — splitting below this trades vectorization for
        no additional overlap.
    allow_oversubscribe:
        Permit more workers than CPUs (latency-hiding experiments,
        schedule-stress tests). Off by default: at the CLI and in library
        code alike, oversubscription is almost always a typo.
    max_retries:
        Retries per failed task before giving up (``None`` keeps the plain
        executor — no resilience wrapper — unless another resilience field
        or an installed fault plan asks for one; the wrapper's default is
        2).
    task_timeout:
        Per-task deadline in seconds (``None``: no deadline). Enforced on
        pool-backed rungs; the serial rung has no concurrent waiter.
    backoff_base:
        First retry's backoff delay; doubles per retry (deterministic,
        no jitter).
    on_failure:
        ``"raise"`` (default): numerical failures propagate.
        ``"quarantine"``: failing matrices are re-solved by the reference
        per-matrix path and reported in a
        :class:`~repro.errors.FailureReport` instead of raised.
    """

    backend: str = "serial"
    workers: int = 1
    min_shard: int = 4
    allow_oversubscribe: bool = False
    max_retries: int | None = None
    task_timeout: float | None = None
    backoff_base: float = 0.02
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        cpus = os.cpu_count() or 1
        if (
            self.backend != "serial"
            and self.workers > cpus
            and not self.allow_oversubscribe
        ):
            raise ConfigurationError(
                f"workers={self.workers} exceeds this machine's {cpus} "
                f"CPU(s); pick a value in [1, {cpus}] or set "
                f"allow_oversubscribe=True"
            )
        if self.min_shard < 1:
            raise ConfigurationError(
                f"min_shard must be >= 1, got {self.min_shard}"
            )
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.on_failure not in ON_FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {ON_FAILURE_MODES}, got "
                f"{self.on_failure!r}"
            )

    @property
    def wants_resilience(self) -> bool:
        """Whether any field asks for the resilient executor wrapper."""
        return (
            self.max_retries is not None
            or self.task_timeout is not None
            or self.on_failure != "raise"
        )


@dataclass(frozen=True)
class TaskError:
    """Sentinel returned (not raised) for a failed task in capture mode.

    ``map(..., on_error="return")`` slots one of these where the result
    would have gone, so a batch driver can quarantine the failed task and
    keep every other result. ``failures`` carries the retry history when a
    resilient executor produced the error.
    """

    error: BaseException
    failures: tuple = ()


def _submission_order(
    count: int, costs: Sequence[float] | None
) -> list[int]:
    """Task indices in scheduling order: descending cost, stable on index."""
    if costs is None:
        return list(range(count))
    if len(costs) != count:
        raise ConfigurationError(
            f"{count} tasks vs {len(costs)} costs"
        )
    return sorted(range(count), key=lambda i: (-float(costs[i]), i))


class _CapturedCall:
    """Wrap a task so failures come back as :class:`TaskError` values.

    Picklable as long as the wrapped function is (the class is
    module-level; the state is just the function), so capture mode works
    on worker processes too.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        try:
            return self.fn(item)
        except Exception as exc:  # repro: noqa[EXC01] capture mode turns
            # every task failure into a TaskError value by contract; the
            # caller inspects (and usually re-raises or quarantines) it.
            return TaskError(error=exc)


class Executor:
    """Base class: ordered, cost-aware ``map`` over independent tasks."""

    backend = "serial"

    def __init__(self, workers: int = 1, *, min_shard: int = 4) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.min_shard = int(min_shard)
        self._local = threading.local()

    def dispatch_stats(self) -> dict:
        """Dispatch-overhead counters (batches, tasks).

        The serial backend reports zeros by construction; the persistent
        backend adds what its transport pays (IPC round-trips, pickled
        bytes, out-of-band array bytes), and the worker-scaling benchmark
        records the breakdown per config.
        """
        return {"batches": 0, "tasks": 0}

    # -- nesting ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while the calling thread is executing one of our tasks."""
        return bool(getattr(self._local, "active", False))

    def _run_task(self, fn: Callable[[_T], _R], item: _T) -> _R:
        self._local.active = True
        try:
            return fn(item)
        finally:
            self._local.active = False

    # -- the map protocol ------------------------------------------------

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        *,
        costs: Sequence[float] | None = None,
        on_error: str = "raise",
    ) -> list[_R]:
        """Apply ``fn`` to every item; results returned in item order.

        ``fn`` is a module-level task and each item holds plain ndarrays
        (at the top level or inside tuples and lists) beside picklable
        values. The parallel backend submits tasks in descending-cost
        order and reorders results afterwards. Nested calls (from inside
        a task), single-item maps and one-worker maps run inline in the
        calling thread, with the arrays passed by reference.

        With ``on_error="return"`` a failing task yields a
        :class:`TaskError` in its result slot instead of aborting the
        whole map — the capture primitive quarantine mode is built on.
        """
        if on_error not in ("raise", "return"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'return', got {on_error!r}"
            )
        if on_error == "return":
            fn = _CapturedCall(fn)  # type: ignore[assignment]
        items = list(items)
        if not items:
            return []
        if self.workers <= 1 or self.active:
            return [fn(item) for item in items]
        if len(items) == 1:
            # Inline without claiming the pool: deeper fan-out (e.g. the
            # kernels' engine sharding the stacks of a single large
            # W-cycle matrix) may still use it.
            return [fn(items[0])]
        return self._map_parallel(fn, items, costs)

    def _map_parallel(
        self,
        fn: Callable[[_T], _R],
        items: list[_T],
        costs: Sequence[float] | None,
    ) -> list[_R]:
        return [fn(item) for item in items]

    # -- single-task submission (the resilient wrapper's primitive) ------

    def submit(self, fn: Callable[[_T], _R], item: _T) -> "Future[_R]":
        """Run one task and return a :class:`~concurrent.futures.Future`.

        ``fn`` and ``item`` follow the contract of :meth:`map`. The base
        (serial) implementation executes inline and returns an
        already-resolved future; the persistent backend dispatches to a
        worker. No nesting bookkeeping is done here — callers that need
        ``active`` semantics wrap ``fn`` themselves.
        """
        fut: Future = Future()
        try:
            fut.set_result(fn(item))
        except BaseException as exc:  # repro: noqa[EXC01] the future is the
            # error channel: callers observe the exception via .result().
            fut.set_exception(exc)
        return fut

    def respawn(self) -> None:
        """Discard broken pooled workers so the next task gets a fresh
        pool (no-op for pool-less backends; idempotent)."""

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release pooled workers (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-order, in-thread execution — the bit-exact reference backend."""

    backend = "serial"

    def __init__(self, workers: int = 1, *, min_shard: int = 4) -> None:
        super().__init__(1, min_shard=min_shard)


def _env_default_config() -> RuntimeConfig | None:
    """The :data:`BACKEND_ENV_VAR` override for ``get_executor(None)``.

    Returns ``None`` (keep the serial default) when the variable is
    unset, names the serial backend, or this is not the top-level
    process — a forked worker whose library code asks for a default
    executor must stay serial rather than nest a pool of its own.
    """
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name or name == "serial":
        return None
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return None
    if name not in BACKENDS:
        # Fail here with the env var's name: RuntimeConfig would reject
        # the value too, but its message cannot say where it came from.
        raise ConfigurationError(
            f"{BACKEND_ENV_VAR}={name!r} is not a recognized backend; "
            f"expected one of {BACKENDS}"
        )
    cpus = os.cpu_count() or 1
    return RuntimeConfig(
        backend=name,
        workers=max(2, min(4, cpus)),
        allow_oversubscribe=True,
    )


def get_executor(
    runtime: RuntimeConfig | Executor | str | None = None,
    *,
    workers: int | None = None,
) -> Executor:
    """Resolve a runtime specification into a live :class:`Executor`.

    Accepts an existing executor (passed through), a
    :class:`RuntimeConfig`, a backend name, or ``None`` (serial, unless
    the :data:`BACKEND_ENV_VAR` environment override names another
    backend). When a bare backend name is given, ``workers`` defaults to
    ``os.cpu_count()`` for the parallel backend.

    The result is wrapped in a
    :class:`~repro.runtime.resilient.ResilientExecutor` when the config's
    resilience fields ask for one, or when a fault plan is installed
    (``REPRO_FAULTS`` / the ``chaos`` fixture) — injected faults are only
    meaningful under an executor that can recover from them.
    """
    from repro.runtime import faults
    from repro.runtime.resilient import ResilientExecutor, RetryPolicy

    if isinstance(runtime, Executor):
        return runtime
    if runtime is None:
        runtime = _env_default_config()
    if runtime is None:
        base: Executor = SerialExecutor()
        config = RuntimeConfig()
    else:
        if isinstance(runtime, str):
            if runtime != "serial" and workers is None:
                workers = os.cpu_count() or 1
            runtime = RuntimeConfig(backend=runtime, workers=workers or 1)
        if not isinstance(runtime, RuntimeConfig):
            raise ConfigurationError(
                f"runtime must be a RuntimeConfig, Executor, backend name, "
                f"or None, got {type(runtime).__name__}"
            )
        config = runtime
        _log.debug(
            "executor: backend=%s workers=%d", config.backend, config.workers
        )
        if config.backend == "serial":
            base = SerialExecutor(min_shard=config.min_shard)
        else:
            from repro.runtime.persistent import PersistentExecutor

            base = PersistentExecutor(config.workers, min_shard=config.min_shard)
    if config.wants_resilience or faults.installed() is not None:
        policy = RetryPolicy(
            max_retries=(
                2 if config.max_retries is None else config.max_retries
            ),
            task_timeout=config.task_timeout,
            backoff_base=config.backoff_base,
            on_failure=config.on_failure,
        )
        return ResilientExecutor(base, policy)
    return base
