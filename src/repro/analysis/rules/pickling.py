"""PICK01 — process-pool tasks must be module-level picklables.

The ``persistent`` backend (:mod:`repro.runtime.persistent`) forks workers
and ships each task function through pickle. Pickle serializes functions
*by reference* — a lambda or a function defined inside another function
has no importable reference, so submitting one raises
``PicklingError`` at runtime (and only on the persistent backend, which
the fast unit tests rarely exercise).

The rule flags a lambda, or a name bound to a nested ``def``/lambda in
the same enclosing function, passed as the callable argument of an
executor-style dispatch call (``.map(...)``, ``.submit(...)``,
``.apply_async(...)``). Two escape hatches keep the repository's
legitimate in-process closures quiet:

- the call is lexically guarded by a ``supports_shared_state`` test (the
  codebase's idiom for "this branch never runs on a process pool");
- the receiver is statically a serial/thread pool: a direct
  ``SerialExecutor()``/``ThreadPoolExecutor()`` construction, or a name
  bound to one in the same function (including
  ``with SerialExecutor() as ex:`` bindings).

Anything else is either a real fork-pickle hazard or a pattern worth an
annotated ``# repro: noqa[PICK01]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import FileContext, Finding, Rule, register

_DISPATCH_METHODS = frozenset({"map", "submit", "apply_async"})
_GUARD_ATTR = "supports_shared_state"
_THREAD_SAFE_POOLS = frozenset({"SerialExecutor", "ThreadPoolExecutor"})


def _pool_tail(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    return None


def _thread_safe_names(fn: ast.AST) -> set[str]:
    """Names bound (assign or ``with ... as``) to shared-state pools."""
    names: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(child, ast.Assign):
                if _pool_tail(child.value) in _THREAD_SAFE_POOLS:
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                for item in child.items:
                    if (
                        _pool_tail(item.context_expr) in _THREAD_SAFE_POOLS
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        names.add(item.optional_vars.id)
            visit(child)

    visit(fn)
    return names


def _nested_callables(fn: ast.AST) -> set[str]:
    """Names bound to nested defs/lambdas directly inside ``fn``'s scope."""
    names: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(child.name)
                continue  # its interior is another scope
            if isinstance(child, ast.Assign) and isinstance(
                child.value, ast.Lambda
            ):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            if isinstance(child, ast.ClassDef):
                continue
            visit(child)

    visit(fn)
    return names


def _guard_mentions(test: ast.expr) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == _GUARD_ATTR
        for sub in ast.walk(test)
    )


@register
class Pick01NonPicklableTask(Rule):
    id = "PICK01"
    title = "closure or lambda submitted to a process-capable executor"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Closures read enclosing bindings, so a nested task function sees
        # the thread-safe pool names of every ancestor scope.
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = _nested_callables(fn)
            safe = _thread_safe_names(fn)
            node: ast.AST = fn
            while node in parents:
                node = parents[node]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    safe |= _thread_safe_names(node)
            yield from self._check_scope(
                ctx, fn, fn, nested, safe, guarded=False
            )

    def _check_scope(
        self,
        ctx: FileContext,
        fn: ast.AST,
        node: ast.AST,
        nested: set[str],
        safe: set[str],
        *,
        guarded: bool,
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(child, ast.If) and _guard_mentions(child.test):
                # The true branch runs only with shared state (threads /
                # serial); the orelse branch is the process path and stays
                # audited.
                yield from self._check_scope(
                    ctx, fn, _Suite(child.body), nested, safe, guarded=True
                )
                yield from self._check_scope(
                    ctx, fn, _Suite(child.orelse), nested, safe, guarded=guarded
                )
                continue
            if isinstance(child, ast.Call):
                yield from self._check_call(ctx, child, nested, safe, guarded)
            yield from self._check_scope(
                ctx, fn, child, nested, safe, guarded=guarded
            )

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        nested: set[str],
        safe: set[str],
        guarded: bool,
    ) -> Iterator[Finding]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _DISPATCH_METHODS or guarded:
            return
        if isinstance(func.value, ast.Name) and func.value.id in safe:
            return
        if _pool_tail(func.value) in _THREAD_SAFE_POOLS:
            return  # e.g. SerialExecutor().map(lambda ...)
        if not call.args:
            return
        task = call.args[0]
        if isinstance(task, ast.Lambda):
            yield self.finding(
                ctx,
                task,
                f"lambda passed to `.{func.attr}(...)`; process pools "
                f"pickle tasks by reference — use a module-level function",
            )
        elif isinstance(task, ast.Name) and task.id in nested:
            yield self.finding(
                ctx,
                task,
                f"nested function `{task.id}` passed to `.{func.attr}(...)`; "
                f"process pools pickle tasks by reference — move it to "
                f"module level or guard the branch with "
                f"`supports_shared_state`",
            )


class _Suite:
    """Adapter exposing a statement list through ``iter_child_nodes``."""

    def __init__(self, body: list[ast.stmt]) -> None:
        self._fields = ("body",)
        self.body = body

    _attributes: tuple = ()
    _fields = ("body",)
