"""Lightweight cross-module symbol table for the flow-sensitive rules.

Rules need to answer "what *kind* of object is this expression" without
a type checker: is ``self._spawn_lock`` a lock, is ``ctx`` a fork
multiprocessing context, is ``pool`` a thread pool? This module keeps a
curated table of the canonical dotted names the project's concurrency
surface actually uses — the :mod:`repro.runtime` API plus the stdlib
constructors it is built from — and layers two resolution passes on
top:

1. **Import aliases** ride on :meth:`FileContext.resolve`, so
   ``from threading import Lock as L; L()`` and
   ``from repro.runtime import arena as ar; ar.Arena()`` both resolve
   to their canonical names before the kind lookup.
2. **Method receivers**: a per-class scan records ``self.<attr>``
   assignments whose right-hand side is a recognized constructor
   (``self._lock = threading.Lock()`` in ``__init__`` makes
   ``self._lock`` lock-kinded in *every* method of the class), which is
   what lets LOCK01 treat ``with self._lock:`` bodies as critical
   sections and FORK01 see a held executor lock at a spawn site.

The table is deliberately small and explicit — a full cross-module type
inference would dwarf the rules it serves. When the runtime grows a new
lock-holding or fork-adjacent API, add its canonical name here; the
``lint-self`` CI check keeps the analyzer honest against its own rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.framework import FileContext

__all__ = [
    "KIND_LOCK",
    "KIND_THREAD",
    "KIND_POOL",
    "KIND_FORK_CONTEXT",
    "KIND_FORK_PROCESS",
    "KIND_ARENA",
    "KIND_EXECUTOR",
    "SymbolTable",
]

KIND_LOCK = "lock"
KIND_THREAD = "thread"
KIND_POOL = "thread_pool"
KIND_FORK_CONTEXT = "fork_context"
KIND_FORK_PROCESS = "fork_process"
KIND_ARENA = "arena"
KIND_EXECUTOR = "executor"

#: Canonical constructor/factory name -> kind of the value it produces.
API_KINDS: dict[str, str] = {
    # stdlib locks (threading + multiprocessing share the discipline)
    "threading.Lock": KIND_LOCK,
    "threading.RLock": KIND_LOCK,
    "threading.Condition": KIND_LOCK,
    "threading.Semaphore": KIND_LOCK,
    "threading.BoundedSemaphore": KIND_LOCK,
    "multiprocessing.Lock": KIND_LOCK,
    "multiprocessing.RLock": KIND_LOCK,
    # threads and pools
    "threading.Thread": KIND_THREAD,
    "concurrent.futures.ThreadPoolExecutor": KIND_POOL,
    "concurrent.futures.thread.ThreadPoolExecutor": KIND_POOL,
    # repro.runtime surface (through any import alias)
    "repro.runtime.PersistentExecutor": KIND_EXECUTOR,
    "repro.runtime.persistent.PersistentExecutor": KIND_EXECUTOR,
    "repro.runtime.get_executor": KIND_EXECUTOR,
    "repro.runtime.executor.get_executor": KIND_EXECUTOR,
    "repro.runtime.resilient.ResilientExecutor": KIND_EXECUTOR,
    "repro.runtime.Arena": KIND_ARENA,
    "repro.runtime.arena.Arena": KIND_ARENA,
    "repro.runtime.arena.attach": KIND_ARENA,
}

#: Dotted names whose *call* is itself a fork of the current process.
FORK_CALLS = frozenset({"os.fork", "os.forkpty"})


def _is_fork_context_call(ctx: FileContext, call: ast.Call) -> bool:
    """``multiprocessing.get_context("fork")`` (or an alias of it)."""
    target = ctx.resolve(call.func)
    if target not in (
        "multiprocessing.get_context",
        "multiprocessing.context.get_context",
    ):
        return False
    if not call.args:
        return False  # platform default; don't guess
    arg = call.args[0]
    return isinstance(arg, ast.Constant) and arg.value == "fork"


@dataclass
class SymbolTable:
    """Kinds for module globals and ``self.<attr>`` receivers of one file."""

    ctx: FileContext
    #: module-level name -> kind
    module_vars: dict = field(default_factory=dict)
    #: class name -> {attr name -> kind}
    class_attrs: dict = field(default_factory=dict)

    @classmethod
    def build(cls, ctx: FileContext) -> "SymbolTable":
        table = cls(ctx=ctx)
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                kind = table.call_kind(stmt.value)
                if kind is not None:
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            table.module_vars[tgt.id] = kind
            elif isinstance(stmt, ast.ClassDef):
                table.class_attrs[stmt.name] = table._scan_class(stmt)
        return table

    def _scan_class(self, cls_node: ast.ClassDef) -> dict:
        attrs: dict[str, str] = {}
        for node in ast.walk(cls_node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            kind = self.call_kind(node.value)
            if kind is None:
                continue
            for tgt in node.targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    attrs[tgt.attr] = kind
        return attrs

    # -- queries ---------------------------------------------------------

    def call_kind(self, call: ast.Call) -> str | None:
        """Kind of the value a constructor/factory call produces."""
        target = self.ctx.resolve(call.func)
        if target is not None and target in API_KINDS:
            return API_KINDS[target]
        if _is_fork_context_call(self.ctx, call):
            return KIND_FORK_CONTEXT
        return None

    def expr_kind(self, expr: ast.expr, *, class_name: str | None = None) -> str | None:
        """Kind of a ``Name`` / ``self.<attr>`` expression, if known.

        Locals are the rules' own (flow-sensitive) business; this
        resolves the two shared namespaces — module globals and the
        receiver attributes of the enclosing class.
        """
        if isinstance(expr, ast.Name):
            return self.module_vars.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            if class_name is not None:
                return self.class_attrs.get(class_name, {}).get(expr.attr)
            for attrs in self.class_attrs.values():
                if expr.attr in attrs:
                    return attrs[expr.attr]
        return None

    def lock_name(self, expr: ast.expr, *, class_name: str | None = None) -> str | None:
        """Canonical token for a lock-valued expression, else ``None``.

        ``self._lock`` -> ``"self._lock"``; a module-global lock ``L``
        -> ``"L"``. Used as the dataflow token for held-lock sets, so
        the same lock names the same token in every method.
        """
        if self.expr_kind(expr, class_name=class_name) != KIND_LOCK:
            return None
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):
            return f"self.{expr.attr}"
        return None


def methods_of(cls_node: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The directly-defined methods of a class (no nested classes)."""
    for stmt in cls_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt
