"""Deterministic fault injection for the fault-tolerant runtime.

Production failures — a worker OOM-killed mid-shard, a task wedged on a
lock, silent memory corruption turning a stack non-finite — are rare,
non-deterministic, and impossible to regression-test directly. This
module makes them *cheap and deterministic*: a :class:`FaultPlan` is a
seeded set of clauses, and whether a given clause fires for a given task
is a pure function of ``(seed, kind, task key)``. The key names the task
by its map's sequence number and its index, never by process id, so a
chaos run replays the exact same faults every time, in every process —
which is what lets the chaos suite assert that recovered runs stay
bit-identical to clean ones.

Fault kinds
-----------
``kill``
    Worker death. In a persistent worker the process exits hard
    (``os._exit``), breaking the pool; in the parent process (the serial
    rung, or a single-task map run inline) it raises
    :class:`~repro.errors.WorkerCrashError` instead.
``hang``
    A stuck task: sleeps ``delay`` seconds so the resilient executor's
    per-task deadline trips. On the serial rung (no concurrent waiter) it
    raises :class:`~repro.errors.DeadlineExceeded` directly.
``nan``
    Mid-sweep data corruption: the stacked Jacobi solvers poison one entry
    of their private working stack, tripping their per-sweep finite check.

Spec grammar (``REPRO_FAULTS`` / the ``chaos`` pytest fixture)
--------------------------------------------------------------
Semicolon-separated clauses::

    spec    = clause (";" clause)*
    clause  = "seed=" int
            | kind [":" key "=" value ("," key "=" value)*]
    kind    = "kill" | "hang" | "nan"
    key     = "p"        (fire probability per task, default 1.0)
            | "match"    (substring of the task key, default any)
            | "backend"  (only on this executor backend — one of
                          ``executor.BACKENDS`` — default any)
            | "attempts" (fire on attempts < N, default 1: first try only)
            | "delay"    (hang sleep seconds, default 0.05)

Example: ``seed=7;kill:p=0.5,backend=persistent;nan:p=0.25,attempts=2``.

Faults only fire inside an *activated frame* — the task shell installed
by :class:`~repro.runtime.resilient.ResilientExecutor` — so library code
running outside the resilient runtime never sees an injection even with a
plan installed. The ``attempts`` gate is what makes recovery terminate:
a retried task carries a higher attempt number, the clause stops firing,
and the retry computes the same bits a clean run would.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, DeadlineExceeded, WorkerCrashError
from repro.runtime.executor import BACKENDS

__all__ = [
    "FAULT_KINDS",
    "FaultClause",
    "FaultPlan",
    "parse_spec",
    "install",
    "uninstall",
    "installed",
    "env_requested",
    "env_plan",
    "activate",
    "active",
    "on_task_start",
    "poison_stack",
]

_ENV_VAR = "REPRO_FAULTS"

#: The recognized fault kinds.
FAULT_KINDS = ("kill", "hang", "nan")

#: Exit status of a simulated worker death (visible in pool diagnostics).
KILL_EXIT_CODE = 3


@dataclass(frozen=True)
class FaultClause:
    """One injection rule: *kind* fires with probability *p* per task."""

    kind: str
    p: float = 1.0
    match: str = ""
    backend: str = ""
    attempts: int = 1
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not (0.0 <= self.p <= 1.0):
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.p}"
            )
        if self.backend and self.backend not in BACKENDS:
            # A clause pinned to no real backend would silently never fire.
            raise ConfigurationError(
                f"fault backend must be one of {BACKENDS}, got "
                f"{self.backend!r}"
            )
        if self.attempts < 1:
            raise ConfigurationError(
                f"fault attempts must be >= 1, got {self.attempts}"
            )
        if self.delay < 0.0:
            raise ConfigurationError(
                f"fault delay must be >= 0, got {self.delay}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of fault clauses.

    The plan travels to process workers inside the resilient task shell,
    so injection decisions are identical in every process.
    """

    seed: int = 0
    clauses: tuple[FaultClause, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)


def parse_spec(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    seed = 0
    clauses: list[FaultClause] = []
    for raw in text.split(";"):
        part = raw.strip()
        if not part:
            continue
        if part.startswith("seed="):
            try:
                seed = int(part[len("seed="):])
            except ValueError:
                raise ConfigurationError(
                    f"fault spec seed must be an integer, got {part!r}"
                ) from None
            continue
        kind, _, argtext = part.partition(":")
        kwargs: dict[str, object] = {}
        if argtext:
            for pair in argtext.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in (
                    "p", "match", "backend", "attempts", "delay"
                ):
                    raise ConfigurationError(
                        f"bad fault clause argument {pair!r} in {part!r}"
                    )
                try:
                    if key in ("p", "delay"):
                        kwargs[key] = float(value)
                    elif key == "attempts":
                        kwargs[key] = int(value)
                    else:
                        kwargs[key] = value.strip()
                except ValueError:
                    raise ConfigurationError(
                        f"bad fault clause value {pair!r} in {part!r}"
                    ) from None
        clauses.append(FaultClause(kind=kind.strip(), **kwargs))  # type: ignore[arg-type]
    return FaultPlan(seed=seed, clauses=tuple(clauses))


# ---------------------------------------------------------------------------
# global plan (installed once) + per-task frames (thread-local)
# ---------------------------------------------------------------------------

_plan: FaultPlan | None = None
_frames = threading.local()


def install(plan: FaultPlan) -> None:
    """Install ``plan`` as this process's fault plan (idempotent)."""
    global _plan
    _plan = plan


def uninstall() -> None:
    """Drop the installed plan."""
    global _plan
    _plan = None


def installed() -> FaultPlan | None:
    """The currently installed plan, or ``None``."""
    return _plan


def env_requested(environ: dict[str, str] | None = None) -> str | None:
    """The ``REPRO_FAULTS`` spec string, when set and non-empty."""
    env = os.environ if environ is None else environ
    spec = env.get(_ENV_VAR, "").strip()
    return spec or None


def env_plan(environ: dict[str, str] | None = None) -> FaultPlan | None:
    """Parse ``REPRO_FAULTS`` into a plan (``None`` when unset)."""
    spec = env_requested(environ)
    return parse_spec(spec) if spec else None


@dataclass(frozen=True)
class _Frame:
    """One activated task context: what the injectors key their draw on."""

    plan: FaultPlan
    key: str
    attempt: int
    backend: str
    parent_pid: int


@contextmanager
def activate(
    plan: FaultPlan | None,
    key: str,
    *,
    attempt: int = 0,
    backend: str = "serial",
    parent_pid: int | None = None,
) -> Iterator[None]:
    """Run a task body with fault injection armed for ``key``.

    Nested activations are no-ops: the outermost frame (the executor-level
    task) owns the injection identity, so work a task fans out inline
    inherits its faults rather than drawing new ones.
    """
    if plan is None or not plan or getattr(_frames, "frame", None) is not None:
        yield
        return
    _frames.frame = _Frame(
        plan=plan,
        key=key,
        attempt=int(attempt),
        backend=backend,
        parent_pid=os.getpid() if parent_pid is None else int(parent_pid),
    )
    try:
        yield
    finally:
        _frames.frame = None


def current() -> _Frame | None:
    return getattr(_frames, "frame", None)


def active() -> bool:
    """True while the calling thread is inside an activated fault frame."""
    return current() is not None


def _draw(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, kind, key)."""
    digest = hashlib.sha256(f"{seed}:{kind}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _matching(kind: str) -> FaultClause | None:
    """The first armed clause of ``kind`` that fires for the current frame."""
    frame = current()
    if frame is None:
        return None
    for clause in frame.plan.clauses:
        if clause.kind != kind:
            continue
        if clause.match and clause.match not in frame.key:
            continue
        if clause.backend and clause.backend != frame.backend:
            continue
        if frame.attempt >= clause.attempts:
            continue  # retries past the clause's budget run clean
        if _draw(frame.plan.seed, kind, frame.key) < clause.p:
            return clause
    return None


# ---------------------------------------------------------------------------
# injection points (called from the runtime's hot paths; no-ops without a
# frame, so un-instrumented runs never pay for the layer)
# ---------------------------------------------------------------------------


def on_task_start() -> None:
    """Entry hook of a resilient task shell: worker death and hangs."""
    frame = current()
    if frame is None:
        return
    clause = _matching("kill")
    if clause is not None:
        if frame.backend == "persistent" and os.getpid() != frame.parent_pid:
            # A real (forked) worker: die the way a crashed process does,
            # without running atexit/finalizers. The pool sees a broken
            # worker, exactly like a segfault or the OOM killer.
            os._exit(KILL_EXIT_CODE)
        raise WorkerCrashError(
            f"injected worker death for task {frame.key!r} "
            f"(attempt {frame.attempt}, backend {frame.backend})"
        )
    clause = _matching("hang")
    if clause is not None:
        if frame.backend == "serial":
            # Nobody is waiting concurrently on a serial task, so a real
            # sleep could never be interrupted by a deadline; surface the
            # timeout the waiter would have raised.
            raise DeadlineExceeded(
                f"injected hang for task {frame.key!r} on the serial rung "
                f"(attempt {frame.attempt})"
            )
        time.sleep(clause.delay)


def poison_stack(stack: np.ndarray) -> bool:
    """NaN-poison one entry of a solver's private working stack.

    Called once per solve from the stacked Jacobi solvers; returns whether
    an injection happened (so callers can log it). The poisoned entry is
    in the solver's *copy* of the data, never the caller's input, so a
    retry re-reads clean data.
    """
    if _matching("nan") is None:
        return False
    flat = stack.reshape(-1)
    if flat.size:
        flat[0] = np.nan
    return True
