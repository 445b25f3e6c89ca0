"""SHM03 — flow-sensitive shared-memory segment / arena-lease lifecycle.

Supersedes the lexical SHM01 (segment ownership) and SHM02 (arena lease
lifecycle) audits of PRs 3/7; both retired ids remain registered as
aliases of this rule, so existing ``--select SHM01`` invocations and
``# repro: noqa[SHM01]``/``[SHM02]`` annotations keep working.

Where the old rules pattern-matched statement suites ("is there a
release under a ``finally`` *somewhere*?"), this one builds the
function's control-flow graph (:mod:`repro.analysis.cfg`) and runs a
forward dataflow (:mod:`repro.analysis.dataflow`) whose abstract state
tracks, per acquire site, whether the resource is **held**, **released**,
or **escaped** along every path — including the exception edges the
lexical audit could not see. A function is clean exactly when no
resource reaches either function exit still held:

- reaching the *normal* exit held → a branch (or every path) misses the
  release;
- reaching only the *exceptional* exit held → the happy path releases
  but an exception between acquire and release leaks — the PR 7 class
  of bug, reportable now without a ``finally``-shaped heuristic,
  because inlined ``finally`` copies and ``with`` cleanups are ordinary
  CFG paths here;
- view bindings (``seg, view = import_array(ref)``,
  ``w = resolve(ref)``, the :func:`repro.runtime.arena.resolve` window
  onto a leased slot) must be **dead before the release**: any load of
  a view whose backing resource is already released on some path is a
  use-after-release.

Tracked acquire sites: ``export_array``/``import_array`` (a
``transfer_ownership=True`` export closes its own mapping and is
exempt), raw ``SharedMemory(...)`` constructions, and the arena lease
calls ``.place(...)``/``.reserve(...)``. Releases: ``release(x)``,
``release_lease(x)`` and ``x.close()``/``x.unlink()``. Ownership escapes: returning or
yielding the handle, storing it on an attribute, or appending it to an
attribute-held container (``self._arena_leases.append(ref)``); local
containers drained through ``for r in refs: release_lease(r)`` are
followed through the loop, on whatever path the drain sits.

The analysis stays per-function (handles passed *into* a function are
the caller's to audit) and joins states by union, so every report names
a path that actually exists in the graph. Suppress deliberate protocol
departures with an annotated ``# repro: noqa[SHM03]`` (or a legacy
``[SHM01]``/``[SHM02]``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.cfg import CFG, WithEnter, WithExit, build_cfg, instr_exprs
from repro.analysis.dataflow import Analysis, Env, solve
from repro.analysis.framework import FileContext, Finding, Rule, register

_SEGMENT_ACQUIRES = ("export_array", "import_array")
_LEASE_ATTRS = ("place", "reserve")
_RELEASE_NAMES = ("release", "release_lease")
#: ``repro.runtime.arena.resolve(ref)``: a zero-copy window onto a slot.
_WINDOW_NAME = "resolve"

HELD = "held"
RELEASED = "released"
ESCAPED = "escaped"
#: Released through a container drain loop (``for r in refs:
#: release(r)``). Kept distinct from RELEASED because the may-join at
#: the loop head re-introduces the pre-drain HELD state (the analysis
#: cannot correlate the drain's trip count with the acquire loop's);
#: a DRAINED resource is treated as released everywhere.
DRAINED = "drained"


def _call_tail(node: ast.expr) -> str | None:
    """Last identifier of a Name/Attribute callee."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _has_kw_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name:
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


@dataclass
class _Site:
    """One acquire site: where, what kind, which variable held it."""

    rid: str
    node: ast.AST
    kind: str  # "segment" | "lease"
    var: str

    @property
    def noun(self) -> str:
        return "segment" if self.kind == "segment" else "arena lease"


class _LifecycleAnalysis(Analysis):
    """The per-function dataflow.

    Env keys: ``v:<name>`` local handle bindings (-> resource ids),
    ``w:<name>`` view bindings (-> backing resource ids), ``c:<name>``
    local container contents, ``r:<rid>`` resource status tokens.
    """

    def __init__(self) -> None:
        self.sites: dict[str, _Site] = {}

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _rids_of(state: Env, name: str) -> frozenset:
        return state.get(f"v:{name}") | state.get(f"c:{name}")

    @staticmethod
    def _mark(state: Env, rids: frozenset, token: str) -> Env:
        for rid in rids:
            if token == ESCAPED:
                prev = state.get(f"r:{rid}")
                state = state.set(f"r:{rid}", (prev - {HELD}) | {ESCAPED})
            else:
                state = state.set(f"r:{rid}", frozenset({token}))
        return state

    def _escape_expr(self, state: Env, expr: ast.expr | None) -> Env:
        """Every handle named anywhere in ``expr`` escapes the function."""
        if expr is None:
            return state
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                rids = self._rids_of(state, sub.id)
                if rids:
                    state = self._mark(state, rids, ESCAPED)
        return state

    def _kill_binding(self, state: Env, name: str) -> Env:
        for prefix in ("v:", "w:", "c:", "d:"):
            state = state.discard(prefix + name)
        return state

    def _acquire_of(self, call: ast.Call) -> str | None:
        """Resource kind acquired by ``call``, or ``None``."""
        tail = _call_tail(call.func)
        if tail in _SEGMENT_ACQUIRES:
            if tail == "export_array" and _has_kw_true(call, "transfer_ownership"):
                # The helper closes its own mapping; the segment slot of
                # the returned tuple is documented to be None.
                return None
            return "segment"
        if tail == "SharedMemory":
            return "segment"
        if isinstance(call.func, ast.Attribute) and tail in _LEASE_ATTRS:
            return "lease"
        return None

    def _site(self, node: ast.AST, kind: str, var: str) -> _Site:
        rid = f"{kind}@{getattr(node, 'lineno', 0)}:{getattr(node, 'col_offset', 0)}"
        site = self.sites.get(rid)
        if site is None:
            site = _Site(rid=rid, node=node, kind=kind, var=var)
            self.sites[rid] = site
        return site

    # -- transfer --------------------------------------------------------

    def transfer(self, instr, state: Env) -> Env:
        if isinstance(instr, (WithEnter, WithExit)):
            return state
        if isinstance(instr, ast.Assign):
            return self._assign(instr, state)
        if isinstance(instr, ast.AnnAssign) and instr.value is not None:
            fake = ast.Assign(targets=[instr.target], value=instr.value)
            ast.copy_location(fake, instr)
            return self._assign(fake, state)
        if isinstance(instr, ast.Expr):
            if isinstance(instr.value, ast.Call):
                return self._call(instr.value, state)
            if isinstance(instr.value, (ast.Yield, ast.YieldFrom)):
                return self._escape_expr(state, instr.value)
            return state
        if isinstance(instr, ast.Return):
            return self._escape_expr(state, instr.value)
        if isinstance(instr, (ast.For, ast.AsyncFor)):
            # Loop head: drain-loop support — iterating a tracked local
            # container binds the target to its members.
            if isinstance(instr.target, ast.Name) and isinstance(
                instr.iter, ast.Name
            ):
                members = state.get(f"c:{instr.iter.id}")
                if members:
                    state = self._kill_binding(state, instr.target.id)
                    state = state.set(f"v:{instr.target.id}", members)
                    return state.set(f"d:{instr.target.id}", frozenset({"1"}))
            return state
        if isinstance(instr, ast.Delete):
            for tgt in instr.targets:
                if isinstance(tgt, ast.Name):
                    state = self._kill_binding(state, tgt.id)
            return state
        if isinstance(instr, ast.Raise):
            # ``raise Exc(ref)`` hands the handle to the error path; the
            # exception machinery (or the handler) owns it now.
            return self._escape_expr(state, instr.exc)
        return state

    def _assign(self, instr: ast.Assign, state: Env) -> Env:
        value = instr.value
        target = instr.targets[0]

        # Attribute / subscript targets: the handle escapes the function.
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return self._escape_expr(state, value)

        acquired = (
            self._acquire_of(value) if isinstance(value, ast.Call) else None
        )
        if acquired is not None and isinstance(value, ast.Call):
            tail = _call_tail(value.func)
            seg_name = view_name = None
            if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                first, second = target.elts
                if isinstance(first, ast.Name) and first.id != "_":
                    seg_name = first.id
                if (
                    tail == "import_array"
                    and isinstance(second, ast.Name)
                    and second.id != "_"
                ):
                    view_name = second.id
            elif isinstance(target, ast.Name) and target.id != "_":
                seg_name = target.id
            if seg_name is None:
                return state
            site = self._site(instr, acquired, seg_name)
            state = self._kill_binding(state, seg_name)
            state = state.set(f"v:{seg_name}", frozenset({site.rid}))
            state = state.set(f"r:{site.rid}", frozenset({HELD}))
            if view_name is not None:
                state = self._kill_binding(state, view_name)
                state = state.set(f"w:{view_name}", frozenset({site.rid}))
            return state

        # ``w = resolve(ref)`` — a window onto a leased slot.
        if (
            isinstance(value, ast.Call)
            and _call_tail(value.func) == _WINDOW_NAME
            and value.args
            and isinstance(value.args[0], ast.Name)
            and isinstance(target, ast.Name)
        ):
            backing = self._rids_of(state, value.args[0].id)
            state = self._kill_binding(state, target.id)
            if backing:
                return state.set(f"w:{target.id}", backing)
            return state

        # Alias copy: ``b = a`` carries every binding class across.
        if isinstance(target, ast.Name) and isinstance(value, ast.Name):
            state = self._kill_binding(state, target.id)
            for prefix in ("v:", "w:", "c:"):
                tokens = state.get(prefix + value.id)
                if tokens:
                    state = state.set(prefix + target.id, tokens)
            return state

        # Fresh container literal, or any other value: strong rebind.
        if isinstance(target, ast.Name):
            state = self._kill_binding(state, target.id)
            return state
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    state = self._kill_binding(state, elt.id)
        return state

    def _call(self, call: ast.Call, state: Env) -> Env:
        tail = _call_tail(call.func)
        if tail in _RELEASE_NAMES and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Name):
                rids = self._rids_of(state, arg.id)
                token = RELEASED
                if state.get(f"d:{arg.id}"):
                    token = DRAINED
                return self._mark(state, rids, token)
            return state
        if tail in ("close", "unlink") and isinstance(call.func, ast.Attribute):
            owner = call.func.value
            if isinstance(owner, ast.Name):
                rids = self._rids_of(state, owner.id)
                token = RELEASED
                if state.get(f"d:{owner.id}"):
                    token = DRAINED
                return self._mark(state, rids, token)
            return state
        if tail in ("append", "extend", "add") and isinstance(
            call.func, ast.Attribute
        ):
            owner = call.func.value
            names: list[str] = []
            if call.args:
                arg = call.args[0]
                if isinstance(arg, ast.Name):
                    names = [arg.id]
                elif isinstance(arg, (ast.Tuple, ast.List)):
                    names = [e.id for e in arg.elts if isinstance(e, ast.Name)]
            rids = frozenset()
            for name in names:
                rids = rids | self._rids_of(state, name)
            if not rids:
                return state
            if isinstance(owner, ast.Name):
                # Local container: remembered so a later drain loop (or
                # the container escaping) settles the members' fate.
                return state.add(f"c:{owner.id}", *rids)
            if isinstance(owner, ast.Attribute):
                # ``self._arena_leases.append(ref)`` — ownership handed
                # to a longer-lived container another call drains.
                return self._mark(state, rids, ESCAPED)
        return state

    # -- exception modelling ---------------------------------------------

    @staticmethod
    def _is_release_stmt(instr) -> bool:
        if not isinstance(instr, ast.Expr) or not isinstance(instr.value, ast.Call):
            return False
        tail = _call_tail(instr.value.func)
        return tail in _RELEASE_NAMES + ("close", "unlink")

    def can_raise(self, instr) -> bool:
        if isinstance(instr, ast.Assign) and isinstance(
            instr.value, (ast.Name, ast.Constant, ast.List, ast.Tuple, ast.Dict)
        ):
            # Plain rebinds and container literals cannot meaningfully
            # raise; exempting them keeps exception-path reports about
            # real call/attribute traffic.
            if isinstance(instr.value, (ast.List, ast.Tuple, ast.Dict)):
                return any(
                    isinstance(sub, ast.Call) for sub in ast.walk(instr.value)
                )
            return False
        if isinstance(instr, ast.Return):
            # A raising return expression is possible but reporting it
            # as a leak path buries the real findings; the handle is
            # escaping either way.
            return False
        return super().can_raise(instr)

    def exception_state(self, instr, pre: Env, post: Env) -> Env:
        if self._is_release_stmt(instr):
            # A release that raises has still retired the resource for
            # leak-accounting purposes (the arena's own release check
            # owns that failure mode); carrying the pre-state would
            # report a phantom leak from inside the ``finally`` itself.
            return post
        return pre


@register
class Shm03LeaseLifecycle(Rule):
    id = "SHM03"
    title = "shm segment / arena lease lifecycle violation (flow-sensitive)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        cfg = build_cfg(fn)
        analysis = _LifecycleAnalysis()
        solution = solve(cfg, analysis)
        if not analysis.sites:
            return
        yield from self._leak_findings(ctx, analysis, solution)
        yield from self._use_after_release(ctx, analysis, solution, cfg)

    def _leak_findings(
        self, ctx: FileContext, analysis: _LifecycleAnalysis, solution
    ) -> Iterator[Finding]:
        exit_state = solution.exit_state()
        raise_state = solution.raise_state()
        for rid, site in analysis.sites.items():
            exit_tokens = exit_state.get(f"r:{rid}")
            raise_tokens = raise_state.get(f"r:{rid}")
            if DRAINED in (exit_tokens | raise_tokens):
                # A drain loop retires every member of its container;
                # the residual HELD from the may-join is the analysis's
                # trip-count blindness, not a path in the program.
                continue
            release_verb = (
                f"release_lease({site.var})"
                if site.kind == "lease"
                else f"release({site.var})"
            )
            if HELD in exit_tokens:
                if RELEASED in (exit_tokens | raise_tokens):
                    message = (
                        f"{site.noun} `{site.var}` is released on some "
                        f"paths but leaks on at least one other path to "
                        f"the function exit; every branch must release, "
                        f"drain, or escape it"
                    )
                else:
                    message = (
                        f"{site.noun} `{site.var}` is acquired but never "
                        f"released on any path (no `{release_verb}`, "
                        f"container drain, or ownership escape)"
                    )
                yield self.finding(ctx, site.node, message)
            elif HELD in raise_tokens:
                yield self.finding(
                    ctx,
                    site.node,
                    f"{site.noun} `{site.var}` is released on the happy "
                    f"path but leaks when an exception unwinds before "
                    f"the release; move `{release_verb}` into a "
                    f"`finally` block",
                )

    def _use_after_release(
        self,
        ctx: FileContext,
        analysis: _LifecycleAnalysis,
        solution,
        cfg: CFG,
    ) -> Iterator[Finding]:
        seen: set[tuple] = set()
        for block in cfg.blocks:
            if block.id not in solution.block_in:
                continue  # unreachable
            for instr, pre, _post in solution.replay(block):
                if isinstance(instr, (WithEnter, WithExit)):
                    continue
                loads = self._view_loads(instr)
                if not loads:
                    continue
                for name, node in loads:
                    backing = pre.get(f"w:{name}")
                    for rid in backing:
                        if not ({RELEASED, DRAINED} & pre.get(f"r:{rid}")):
                            continue
                        site = analysis.sites.get(rid)
                        if site is None:
                            continue
                        key = (name, rid, node.lineno, node.col_offset)
                        if key in seen:
                            continue
                        seen.add(key)
                        if site.kind == "lease":
                            message = (
                                f"view `{name}` used after its lease "
                                f"`{site.var}` was returned on some path; "
                                f"the slot may be re-leased and "
                                f"overwritten — copy out before "
                                f"`release_lease`"
                            )
                        else:
                            message = (
                                f"view `{name}` used after its segment "
                                f"`{site.var}` was released on some path; "
                                f"copy the data out before releasing"
                            )
                        yield self.finding(ctx, node, message)

    @staticmethod
    def _view_loads(instr) -> list:
        """(name, node) pairs for every Name load evaluated at ``instr``.

        Scoped to the instruction's own expressions (a compound head
        does not speak for its body — those statements replay with
        their own states).
        """
        loads = []
        for expr in instr_exprs(instr):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loads.append((sub.id, sub))
        return loads
