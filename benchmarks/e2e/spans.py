"""Outside-in spans for the end-to-end benchmark.

:class:`Tracer` is a context manager that wraps the public entry points of
each ``repro`` layer, listed in :data:`HOOKS`, plus the ``map`` of an
executor the benchmark built. The wrappers are installed as class (or
instance) attributes on entry and the originals are put back on exit, on
error too; nothing under ``src/`` changes. A hook whose target no longer
exists is recorded in :attr:`Tracer.missing` instead of raising, and the
metrics built on it read ``null``.

Spans live in memory with a per-thread parent stack and are exported at
the end as Chrome-trace ``ph: "X"`` events (one pid per workload, one tid
per thread) that Perfetto loads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "HOOKS",
    "MAP_HOOK",
    "Span",
    "Tracer",
    "children_index",
    "self_time",
    "write_chrome_trace",
]


def _matrices(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["matrices"])


def _engine_attrs(args, kwargs, result) -> dict:
    mats = args[1] if len(args) > 1 else kwargs["matrices"]
    return {
        "matrices": len(mats),
        "sweeps": sum(r.trace.sweeps for r in result if r.trace is not None),
        # Matrix identities let serve requests be matched to the fused call
        # carrying them (the server passes the submitted arrays through).
        "_ids": [id(a) for a in mats],
    }


#: ``(span name, "module:Class.method", attributes(args, kwargs, result))``.
HOOKS: tuple[tuple[str, str, Callable | None], ...] = (
    (
        "serve.submit",
        "repro.serve:SVDServer.submit",
        lambda a, k, r: {"request_id": r.request_id, "_id": id(a[1])},
    ),
    (
        "wcycle.decompose_batch",
        "repro.core:WCycleSVD.decompose_batch",
        lambda a, k, r: {
            "matrices": _matrices(a, k),
            "rotations": sum(a[0].last_level_rotations.values()),
        },
    ),
    (
        "gpusim.svd_kernel",
        "repro.gpusim.svd_kernel:BatchedSVDKernel.run",
        lambda a, k, r: {"matrices": _matrices(a, k)},
    ),
    (
        "gpusim.evd_kernel",
        "repro.gpusim.evd_kernel:BatchedEVDKernel.run",
        lambda a, k, r: {"matrices": _matrices(a, k)},
    ),
    ("gpusim.gram", "repro.gpusim.gemm:BatchedGemm.gram", None),
    ("gpusim.update", "repro.gpusim.gemm:BatchedGemm.update", None),
    ("gpusim.simulate_gram", "repro.gpusim.gemm:BatchedGemm.simulate_gram", None),
    (
        "gpusim.simulate_update",
        "repro.gpusim.gemm:BatchedGemm.simulate_update",
        None,
    ),
    ("engine.svd_batch", "repro.jacobi:BatchedJacobiEngine.svd_batch", _engine_attrs),
    ("engine.evd_batch", "repro.jacobi:BatchedJacobiEngine.evd_batch", _engine_attrs),
    ("engine.svd_stack", "repro.jacobi:StackedOneSidedJacobi.solve_stack", None),
    ("engine.evd_stack", "repro.jacobi:StackedParallelEVD.solve_stack", None),
)

#: Span name of the wrapped ``map`` of the benchmark-built executor.
MAP_HOOK = "runtime.map"


@dataclass
class Span:
    """One timed call. Attribute keys starting with ``_`` are not exported."""

    id: int
    parent: int | None
    name: str
    tid: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def children_index(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Map each span id to the spans whose parent it is."""
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


class Tracer:
    """Install timing wrappers on entry, restore the originals on exit.

    The tracer can be entered repeatedly (the benchmark alternates traced
    and untraced calls); spans accumulate across entries. ``context``
    holds attributes stamped on every new span (workload, call index).
    """

    def __init__(self, hooks=HOOKS, *, executor=None) -> None:
        self.hooks = hooks
        self.executor = executor
        self.spans: list[Span] = []
        self.context: dict = {}
        self.missing: set[str] = set()
        self.errors: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: dict[int, tuple[int, str]] = {}
        self._threads_lock = threading.Lock()
        self._restore: list[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------

    def _thread(self) -> tuple[list[Span], int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._threads_lock:
                tid = len(self._threads) + 1
                self._threads[threading.get_ident()] = (
                    tid,
                    threading.current_thread().name,
                )
            self._local.tid = tid
        return stack, self._local.tid

    def call(self, name: str, fn: Callable, args, kwargs, describe=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack, tid = self._thread()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            tid=tid,
            start=time.perf_counter(),
            attrs=dict(self.context),
        )
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if describe is not None:
            try:
                span.attrs.update(describe(args, kwargs, result))
            except Exception as exc:  # the hooked API changed shape; keep
                # the span, report the first failure per hook at the end.
                self.errors.setdefault(name, repr(exc))
        return result

    # -- hooks -----------------------------------------------------------

    def _shim(self, name: str, fn: Callable, describe) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, describe)

        return shim

    def _install(self, name: str, target: str, describe) -> None:
        module_name, _, qualname = target.partition(":")
        owner_path, _, attr = qualname.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        if not inspect.isfunction(original):
            self.missing.add(name)
            return
        owned = attr in vars(owner)
        setattr(owner, attr, self._shim(name, original, describe))
        self._restore.append(
            (lambda: setattr(owner, attr, original))
            if owned
            else (lambda: delattr(owner, attr))
        )

    def _install_map(self) -> None:
        ex = self.executor
        shadowed = vars(ex).get("map")
        ex.map = self._shim(
            MAP_HOOK, ex.map, lambda a, k, r: {"tasks": len(a[1])}
        )
        self._restore.append(
            (lambda: vars(ex).pop("map"))
            if shadowed is None
            else (lambda: setattr(ex, "map", shadowed))
        )

    def __enter__(self) -> "Tracer":
        try:
            for name, target, describe in self.hooks:
                self._install(name, target, describe)
            if self.executor is not None:
                self._install_map()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- export ----------------------------------------------------------

    def chrome_events(self, *, pid: int, process_name: str) -> list[dict]:
        """Chrome-trace events: ``ph: "X"`` spans in microseconds."""
        events: list[dict] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        with self._threads_lock:
            threads = list(self._threads.values())
        for tid, thread_name in threads:
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread_name},
                }
            )
        origin = min((s.start for s in self.spans), default=0.0)
        for s in self.spans:
            args = {k: v for k, v in s.attrs.items() if not k.startswith("_")}
            args["span_id"] = s.id
            if s.parent is not None:
                args["parent_id"] = s.parent
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".")[0],
                    "ph": "X",
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": s.tid,
                    "args": args,
                }
            )
        return events

    def report_errors(self) -> None:
        for name, err in sorted(self.errors.items()):
            print(f"trace: attributes of {name} unavailable: {err}", file=sys.stderr)


def write_chrome_trace(path, events: list[dict]) -> None:
    """Write ``events`` as a JSON trace Perfetto and chrome://tracing load."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
