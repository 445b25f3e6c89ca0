"""The declarative performance-check registry.

A :class:`PerfCheck` names one scalar metric inside one recorded
benchmark payload — a repo-root ``BENCH_*.json`` trajectory file or a
``benchmarks/results/*.json`` sidecar — with the unit, the direction a
*good* change moves in, and the tolerance the regression gate enforces.
The shape follows the ReFrame model (declarative extraction + reference
bounds ± tolerance), with one twist: the reference is not a hardcoded
number but a rolling same-host baseline from the history store, so the
registry stays valid across machines of wildly different speed.

Metric locations are dotted **path expressions** resolved by
:func:`resolve_path`::

    cases[case=64x(64x32)].speedup          # list-of-dicts selector
    worker_scaling.configs[backend=persistent,workers=4]
        .dispatch_overhead.ipc_round_trips  # multi-key selector
    modes.micro-batched.server.latency_p50_ms
    rows[0].4                               # list indexing (sidecars)

Keeping extraction declarative (strings, not callables) means the CLI
can print exactly where a number comes from, history samples stay
self-describing, and adding a check is data, not code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "PerfCheck",
    "ExtractionError",
    "SourceMissing",
    "resolve_path",
    "extract_value",
    "register",
    "all_checks",
    "get_check",
    "DEFAULT_CHECKS",
]


class ExtractionError(KeyError):
    """The path expression does not resolve inside the payload."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else ""


class SourceMissing(FileNotFoundError):
    """The check's source file is absent from this tree."""


@dataclass(frozen=True)
class PerfCheck:
    """One gated metric.

    ``tolerance`` is the maximum allowed *relative degradation* against
    the baseline median (0.20 = fail if 20 % worse). ``noise_floor`` is
    an absolute delta in the metric's own unit below which a change is
    never flagged — shared CI hosts jitter, and a 0.3 ms p50 wobble on
    a 33 ms baseline should not page anyone even if the window median
    happens to sit unusually low.
    """

    name: str
    source: str  # path relative to the repo root
    path: str  # path expression inside the payload
    unit: str
    direction: str  # "higher" | "lower"
    tolerance: float
    noise_floor: float = 0.0
    window: int = 5  # same-fingerprint baseline samples consulted
    description: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"{self.name}: direction must be 'higher' or 'lower', "
                f"got {self.direction!r}"
            )
        if self.tolerance < 0 or self.noise_floor < 0:
            raise ValueError(f"{self.name}: bounds must be non-negative")
        if self.window < 1:
            raise ValueError(f"{self.name}: window must be >= 1")


_SEGMENT = re.compile(r"^(?P<key>[^\[\]]*)(?:\[(?P<selector>[^\]]+)\])?$")


def _split_segments(expr: str) -> list[str]:
    """Split on dots, but never inside a ``[...]`` selector (case names
    like ``256x(16x8)`` are fine; selector values may contain dots)."""
    segments: list[str] = []
    depth = 0
    current = ""
    for ch in expr:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "." and depth == 0:
            segments.append(current)
            current = ""
        else:
            current += ch
    segments.append(current)
    return segments


def _coerce(text: str):
    """Selector values compare as ints when they look like ints."""
    try:
        return int(text)
    except ValueError:
        return text


def _select(items: list, selector: str, expr: str):
    """``[k=v,k2=v2]`` over a list of dicts, or ``[i]`` over any list."""
    if "=" not in selector:
        try:
            return items[int(selector)]
        except (ValueError, IndexError):
            raise ExtractionError(
                f"{expr}: index [{selector}] out of range or non-numeric"
            ) from None
    wanted = {}
    for clause in selector.split(","):
        key, _, value = clause.partition("=")
        wanted[key.strip()] = _coerce(value.strip())
    for item in items:
        if isinstance(item, dict) and all(
            item.get(k) == v for k, v in wanted.items()
        ):
            return item
    raise ExtractionError(f"{expr}: no element matches [{selector}]")


def resolve_path(payload, expr: str):
    """Resolve a path expression against a decoded JSON payload."""
    node = payload
    for segment in _split_segments(expr):
        match = _SEGMENT.match(segment)
        if match is None:  # pragma: no cover - regex accepts everything
            raise ExtractionError(f"{expr}: bad segment {segment!r}")
        key, selector = match.group("key"), match.group("selector")
        if key:
            if isinstance(node, list):
                try:
                    node = node[int(key)]
                except (ValueError, IndexError):
                    raise ExtractionError(
                        f"{expr}: list index {key!r} invalid here"
                    ) from None
            elif isinstance(node, dict):
                if key not in node:
                    raise ExtractionError(f"{expr}: key {key!r} missing")
                node = node[key]
            else:
                raise ExtractionError(
                    f"{expr}: cannot descend into "
                    f"{type(node).__name__} with {key!r}"
                )
        if selector is not None:
            if not isinstance(node, list):
                raise ExtractionError(
                    f"{expr}: [{selector}] needs a list, got "
                    f"{type(node).__name__}"
                )
            node = _select(node, selector, expr)
    return node


def extract_value(check: PerfCheck, root: Path | str):
    """Load the check's source under ``root`` and resolve its metric.

    Raises :class:`SourceMissing` when the file is absent (a tree may
    legitimately not have regenerated every benchmark) and
    :class:`ExtractionError` when the file exists but the metric is not
    where the check says — the latter is a registry/payload drift bug
    and is never silently skipped by the gate.
    """
    import json

    source = Path(root) / check.source
    if not source.exists():
        raise SourceMissing(f"{check.name}: source {source} not found")
    payload = json.loads(source.read_text())
    value = resolve_path(payload, check.path)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ExtractionError(
            f"{check.name}: {check.path} resolved to "
            f"{type(value).__name__}, expected a number"
        )
    return float(value)


# --------------------------------------------------------------------------
# Registry


_REGISTRY: dict[str, PerfCheck] = {}


def register(check: PerfCheck) -> PerfCheck:
    """Add a check (name must be unique)."""
    if check.name in _REGISTRY:
        raise ValueError(f"duplicate perf check {check.name!r}")
    _REGISTRY[check.name] = check
    return check


def all_checks() -> list[PerfCheck]:
    """Registered checks in registration order."""
    return list(_REGISTRY.values())


def get_check(name: str) -> PerfCheck:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown perf check {name!r}; known: {known}"
        ) from None


_WALLCLOCK = "BENCH_wallclock.json"
_SERVE = "BENCH_serve.json"

#: The shipped registry: every hot-path win PRs 1-9 recorded, one check
#: per number the repo's story leans on. Tolerances are deliberately
#: loose for wall-clock ratios (shared CI hosts jitter 10-15 % on a bad
#: day) and tight for deterministic dispatch counters, where any drift
#: is a code change, not noise.
DEFAULT_CHECKS: tuple[PerfCheck, ...] = tuple(
    register(check)
    for check in [
        # -- batched engine vs the seed's per-matrix loop (PR 1 / PR 6)
        PerfCheck(
            name="engine.256x16x8.speedup",
            source=_WALLCLOCK,
            path="cases[case=256x(16x8)].speedup",
            unit="x",
            direction="higher",
            tolerance=0.20,
            noise_floor=1.0,
            description="small-tall batch: engine speedup vs seed loop",
        ),
        PerfCheck(
            name="engine.64x64x32.speedup",
            source=_WALLCLOCK,
            path="cases[case=64x(64x32)].speedup",
            unit="x",
            direction="higher",
            tolerance=0.20,
            noise_floor=0.4,
            description="fused odd-even mid-size case (2.4x -> 5.6x in PR 6)",
        ),
        PerfCheck(
            name="engine.ragged.speedup",
            source=_WALLCLOCK,
            path="cases[case=ragged-mix].speedup",
            unit="x",
            direction="higher",
            tolerance=0.20,
            noise_floor=0.8,
            description="mixed-shape batch across buckets",
        ),
        PerfCheck(
            name="engine.64x64x32.engine_s",
            source=_WALLCLOCK,
            path="cases[case=64x(64x32)].engine_s",
            unit="s",
            direction="lower",
            tolerance=0.30,
            noise_floor=0.03,
            description="absolute engine time on the fused odd-even case",
        ),
        PerfCheck(
            name="engine.64x64x32.rotate_s",
            source=_WALLCLOCK,
            path="cases[case=64x(64x32)].kernel_breakdown.rotate_s",
            unit="s",
            direction="lower",
            tolerance=0.35,
            noise_floor=0.02,
            description="per-sweep rotation kernel time (fused einsum)",
        ),
        PerfCheck(
            name="engine.evd256x16x16.speedup",
            source=_WALLCLOCK,
            path="evd_cases[case=256x(16x16)].speedup",
            unit="x",
            direction="higher",
            tolerance=0.20,
            noise_floor=0.5,
            description="stacked in-SM EVD vs per-matrix parallel EVD loop",
        ),
        # -- level-synchronous W-cycle buckets vs one matrix at a time
        PerfCheck(
            name="wcycle.bucketed.speedup",
            source=_WALLCLOCK,
            path="wcycle_cases[case=8x(128x64)+8x(512x64)].speedup",
            unit="x",
            direction="higher",
            tolerance=0.20,
            noise_floor=0.3,
            description="W-cycle buckets vs per-matrix decompose calls",
        ),
        # -- persistent-backend dispatch overhead: deterministic
        # counters, so the gate is near-exact.
        PerfCheck(
            name="runtime.persistent4.ipc_round_trips",
            source=_WALLCLOCK,
            path=(
                "worker_scaling.configs[backend=persistent,workers=4]"
                ".dispatch_overhead.ipc_round_trips"
            ),
            unit="round trips",
            direction="lower",
            tolerance=0.10,
            noise_floor=0.5,
            description="manifest batching: 8 round trips at 4 workers",
        ),
        PerfCheck(
            name="runtime.persistent4.pickled_task_bytes",
            source=_WALLCLOCK,
            path=(
                "worker_scaling.configs[backend=persistent,workers=4]"
                ".dispatch_overhead.pickled_task_bytes"
            ),
            unit="bytes",
            direction="lower",
            tolerance=0.25,
            noise_floor=512,
            description="pickled manifest payload at 4 workers (~6 KB)",
        ),
        # -- serving broker (PR 5)
        PerfCheck(
            name="serve.fused_speedup",
            source=_SERVE,
            path="speedup_fused_vs_one_at_a_time",
            unit="x",
            direction="higher",
            tolerance=0.25,
            noise_floor=0.5,
            description="micro-batched vs one-at-a-time throughput ratio",
        ),
        PerfCheck(
            name="serve.microbatch.throughput_rps",
            source=_SERVE,
            path="modes.micro-batched.throughput_rps",
            unit="req/s",
            direction="higher",
            tolerance=0.25,
            noise_floor=50.0,
            description="closed-loop fused serving throughput",
        ),
        PerfCheck(
            name="serve.microbatch.p50_ms",
            source=_SERVE,
            path="modes.micro-batched.server.latency_p50_ms",
            unit="ms",
            direction="lower",
            tolerance=0.35,
            noise_floor=5.0,
            description="fused serving median latency",
        ),
        PerfCheck(
            name="serve.microbatch.p95_ms",
            source=_SERVE,
            path="modes.micro-batched.server.latency_p95_ms",
            unit="ms",
            direction="lower",
            tolerance=0.40,
            noise_floor=8.0,
            description="fused serving tail latency",
        ),
    ]
)
