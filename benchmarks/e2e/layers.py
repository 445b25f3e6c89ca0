"""Per-layer metrics: the one registry of them, and how a traced run's
spans and counters turn into their values.

:data:`LAYER_METRICS` gives each metric its unit, direction, layer module
and the ``(end-to-end metric, workload)`` pairs it is expected to move.
BENCHMARK.json's ``per_layer`` list and the README table are copies of it
(:func:`spec_entries`, :func:`markdown_table`) that the tests compare
against it. ``failed`` stands for the run's failed-operation count.
Benchmark-side metrics with no pair are guards on the measurement itself.

Time and count metrics are normalized per operation (``/op``): one
``decompose_batch`` call on batch workloads, one request on serving ones.
A layer that does no work on a workload reads 0; a metric whose hook
target no longer exists reads ``None`` (``null`` in JSON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e.spans import MAP_HOOK, Tracer, children_index, self_time
from benchmarks.e2e.verify import Check
from benchmarks.e2e.workloads import SLO_S, Phase, Workload

__all__ = ["LayerMetric", "LAYER_METRICS", "compute", "markdown_table", "spec_entries"]

_BATCH = ("batch-small", "batch-mid", "batch-wcycle", "batch-wcycle-par")
_ALL = _BATCH + ("serve-open", "serve-saturate")


@dataclass(frozen=True)
class LayerMetric:
    unit: str
    better: str
    module: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: tuple[tuple[str, str], ...]
    #: Hooks (span names) the value is built from.
    hooks: tuple[str, ...] = ()


def _on(metric: str, *workloads: str) -> tuple[tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


_OPEN = _on("latency_ms_p50", "serve-open")
# With 64 requests always outstanding, the mean latency on serve-saturate is
# the window divided by throughput (Little's law); the median follows it.
_SATURATE = _on("latency_ms_p50", "serve-saturate")
_WCYCLE = _on("latency_ms_p50", "batch-wcycle")
_PAR = _on("latency_ms_p50", "batch-wcycle-par")
_ENGINE = ("engine.svd_batch", "engine.evd_batch")
_KERNELS = ("gpusim.svd_kernel", "gpusim.evd_kernel")
_SERVE, _JACOBI, _CORE = "repro.serve", "repro.jacobi", "repro.core.wcycle"
_GPUSIM, _RUNTIME, _BENCH = "repro.gpusim", "repro.runtime", "benchmark"
_FAILED = _on("failed", *_ALL)

LAYER_METRICS: dict[str, LayerMetric] = {
    "serve.submit_us_p50": LayerMetric(
        "us/req", "lower", _SERVE, _OPEN + _SATURATE, ("serve.submit",)
    ),
    "serve.queue_wait_ms_p50": LayerMetric(
        "ms/req", "lower", _SERVE, _OPEN, ("serve.submit", "engine.svd_batch")
    ),
    "serve.queue_wait_ms_p99": LayerMetric(
        "ms/req", "lower", _SERVE, _OPEN, ("serve.submit", "engine.svd_batch")
    ),
    "serve.solve_ms_p50": LayerMetric(
        "ms/batch", "lower", _SERVE, _OPEN + _SATURATE, ("engine.svd_batch",)
    ),
    "serve.fanout_ms_p50": LayerMetric(
        "ms/req", "lower", _SERVE, _OPEN, ("engine.svd_batch",)
    ),
    "serve.batch_fill_mean": LayerMetric("req/batch", "higher", _SERVE, _SATURATE),
    "serve.batches": LayerMetric("count", "lower", _SERVE, _SATURATE),
    "serve.flush_fill_frac": LayerMetric("frac", "higher", _SERVE, _SATURATE),
    "serve.dispatch_busy_frac": LayerMetric(
        "frac", "lower", _SERVE, _SATURATE, ("engine.svd_batch",)
    ),
    "serve.slo_miss_frac": LayerMetric(
        "frac", "lower", _SERVE, _OPEN + _on("failed", "serve-open")
    ),
    "engine.svd_calls": LayerMetric(
        "count/op", "lower", _JACOBI, _WCYCLE, ("engine.svd_batch",)
    ),
    "engine.evd_calls": LayerMetric(
        "count/op", "lower", _JACOBI, _WCYCLE, ("engine.evd_batch",)
    ),
    "engine.matrices_per_call": LayerMetric(
        "mat/call", "higher", _JACOBI, _WCYCLE, _ENGINE
    ),
    "engine.self_ms": LayerMetric(
        "ms/op", "lower", _JACOBI, _on("latency_ms_p50", "batch-small"), _ENGINE
    ),
    "engine.sweep_ms": LayerMetric(
        "ms/op",
        "lower",
        _JACOBI,
        _on("latency_ms_p50", "batch-mid"),
        ("engine.svd_stack", "engine.evd_stack"),
    ),
    "engine.sweeps": LayerMetric(
        "count/op", "lower", _JACOBI, _on("latency_ms_p50", *_BATCH), _ENGINE
    ),
    "wcycle.self_ms": LayerMetric(
        "ms/op", "lower", _CORE, _WCYCLE, ("wcycle.decompose_batch",)
    ),
    "wcycle.svd_group_calls": LayerMetric(
        "count/op", "lower", _CORE, _WCYCLE, ("gpusim.svd_kernel",)
    ),
    "wcycle.svd_group_ms": LayerMetric(
        "ms/op", "lower", _CORE, _WCYCLE, ("gpusim.svd_kernel",)
    ),
    "wcycle.evd_group_calls": LayerMetric(
        "count/op", "lower", _CORE, _WCYCLE, ("gpusim.evd_kernel",)
    ),
    "wcycle.evd_group_ms": LayerMetric(
        "ms/op", "lower", _CORE, _WCYCLE, ("gpusim.gram", "gpusim.evd_kernel")
    ),
    "wcycle.update_gemm_calls": LayerMetric(
        "count/op", "lower", _CORE, _WCYCLE, ("gpusim.update",)
    ),
    "wcycle.update_gemm_ms": LayerMetric(
        "ms/op", "lower", _CORE, _WCYCLE, ("gpusim.update",)
    ),
    "wcycle.panels_per_launch": LayerMetric(
        "mat/launch", "higher", _CORE, _WCYCLE, _KERNELS
    ),
    "wcycle.rotations": LayerMetric(
        "count/op", "lower", _CORE, _WCYCLE, ("wcycle.decompose_batch",)
    ),
    "gpusim.kernel_self_ms": LayerMetric("ms/op", "lower", _GPUSIM, _WCYCLE, _KERNELS),
    "gpusim.gemm_sim_ms": LayerMetric(
        "ms/op",
        "lower",
        _GPUSIM,
        _WCYCLE,
        ("gpusim.simulate_gram", "gpusim.simulate_update"),
    ),
    "gpusim.launches": LayerMetric("count/op", "lower", _GPUSIM, _WCYCLE),
    "gpusim.gm_mb": LayerMetric("MB/op", "lower", _GPUSIM, _WCYCLE),
    "gpusim.occupancy_mean": LayerMetric("frac", "higher", _GPUSIM, _WCYCLE),
    "gpusim.sim_ms": LayerMetric("sim_ms/op", "lower", _GPUSIM, _WCYCLE),
    "runtime.map_calls": LayerMetric(
        "count/op", "lower", _RUNTIME, _PAR, (MAP_HOOK,)
    ),
    "runtime.map_ms": LayerMetric("ms/op", "lower", _RUNTIME, _PAR, (MAP_HOOK,)),
    "runtime.ipc_round_trips": LayerMetric("count/op", "lower", _RUNTIME, _PAR),
    "runtime.pickled_task_kb": LayerMetric("KB/op", "lower", _RUNTIME, _PAR),
    "runtime.result_mb": LayerMetric("MB/op", "lower", _RUNTIME, _PAR),
    "runtime.arena_leases": LayerMetric("count/op", "lower", _RUNTIME, _PAR),
    "runtime.spawn_ms": LayerMetric(
        "ms/setup", "lower", _RUNTIME, _on("setup_s", "batch-wcycle-par")
    ),
    "runtime.cpu_util": LayerMetric("cpu_s/s", "higher", _RUNTIME, _PAR),
    "loadgen.lag_ms_p99": LayerMetric("ms/req", "lower", _BENCH, _OPEN),
    "loadgen.latency_ms_p99": LayerMetric("ms/req", "lower", _BENCH, ()),
    "verify.backward_err_max": LayerMetric("rel", "lower", _BENCH, _FAILED),
    "verify.orth_err_max": LayerMetric("abs", "lower", _BENCH, _FAILED),
    "verify.sigma_relerr_max": LayerMetric("rel", "lower", _BENCH, _FAILED),
    "trace.overhead_frac": LayerMetric("frac", "lower", _BENCH, ()),
    "host.cal_ms": LayerMetric("ms", "lower", _BENCH, ()),
}


def spec_entries() -> list[dict]:
    """BENCHMARK.json's ``per_layer`` list."""
    return [
        {"name": name, "unit": m.unit, "better": m.better}
        for name, m in LAYER_METRICS.items()
    ]


def markdown_table() -> str:
    """The README's per-layer table."""
    rows = [
        "| metric | unit | better | layer | should move |",
        "|---|---|---|---|---|",
    ]
    for name, m in LAYER_METRICS.items():
        targets: dict[str, list[str]] = {}
        for metric, workload in m.moves:
            targets.setdefault(metric, []).append(workload)
        moves = "; ".join(
            f"`{metric}` on "
            + ("all" if tuple(workloads) == _ALL else ", ".join(workloads))
            for metric, workloads in targets.items()
        )
        rows.append(
            f"| `{name}` | {m.unit} | {m.better} | `{m.module}` | {moves or 'guard'} |"
        )
    return "\n".join(rows) + "\n"


def _pct_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _serve_metrics(phase: Phase, by_name: dict) -> dict[str, float]:
    """Queue wait and fan-out per request, matched by matrix identity."""
    submits = {
        s.attrs["_id"]: s for s in by_name.get("serve.submit", ()) if "_id" in s.attrs
    }
    solves = sorted(by_name.get("engine.svd_batch", ()), key=lambda s: s.start)
    carrier = {}
    for batch, span in enumerate(solves):
        ids = span.attrs.get("_ids", ())
        span.attrs["batch"] = batch
        span.attrs["request_ids"] = [
            submits[i].attrs["request_id"] for i in ids if i in submits
        ]
        carrier.update(dict.fromkeys(ids, span))
    waits, fanouts = [], []
    for load in phase.loads:
        for matrix, done in zip(load.matrices, load.done):
            solve = carrier.get(id(matrix))
            if solve is None:
                continue
            submit = submits.get(id(matrix))
            if submit is not None:
                waits.append(solve.start - submit.start)
            if not math.isnan(done):
                fanouts.append(done - solve.end)
    batches = filled = by_fill = 0
    for before, after in phase.stats:
        batches += after.batches - before.batches
        filled += sum(
            fill * (count - before.batch_fill.get(fill, 0))
            for fill, count in after.batch_fill.items()
        )
        by_fill += after.flush_causes.get("fill", 0) - before.flush_causes.get(
            "fill", 0
        )
    late = sum(lat > SLO_S for lat in phase.latencies)
    return {
        "serve.submit_us_p50": _pct_ms(
            [s.duration for s in by_name.get("serve.submit", ())], 50
        )
        * 1e3,
        "serve.queue_wait_ms_p50": _pct_ms(waits, 50),
        "serve.queue_wait_ms_p99": _pct_ms(waits, 99),
        "serve.solve_ms_p50": _pct_ms([s.duration for s in solves], 50),
        "serve.fanout_ms_p50": _pct_ms(fanouts, 50),
        "serve.batch_fill_mean": _ratio(filled, batches),
        "serve.batches": float(batches),
        "serve.flush_fill_frac": _ratio(by_fill, batches),
        "serve.dispatch_busy_frac": _ratio(
            sum(s.duration for s in solves), phase.wall
        ),
        "serve.slo_miss_frac": _ratio(late + phase.failed, phase.attempted),
    }


def compute(
    tracer: Tracer,
    traced: Phase,
    plain: Phase,
    *,
    workload: Workload,
    dispatch: dict,
    spawn_s: float,
    cpu_util: float,
    calibration_s: float,
    check: Check,
) -> dict[str, float | None]:
    """Every metric of :data:`LAYER_METRICS` for one traced run.

    ``dispatch`` holds the executor's ``dispatch_stats()`` deltas per
    operation over both phases; ``calibration_s`` is the median time of
    the host-speed calibration; ``check`` merges every verification.
    Layer times are raw wall-clock times, not scaled to the reference host.
    """
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    kids = children_index(tracer.spans)
    ops = traced.ops

    def spans(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def per_op_ms(*names) -> float:
        return _ratio(sum(s.duration for s in spans(*names)), ops) * 1e3

    def self_ms(*names) -> float:
        total = sum(self_time(s, kids.get(s.id, ())) for s in spans(*names))
        return _ratio(total, ops) * 1e3

    def calls(*names) -> float:
        return _ratio(len(spans(*names)), ops)

    def mean_attr(names, key) -> float:
        values = [s.attrs[key] for s in spans(*names) if key in s.attrs]
        return _ratio(sum(values), len(values))

    def attr_per_op(names, key) -> float:
        return _ratio(sum(s.attrs.get(key, 0) for s in spans(*names)), ops)

    profile = traced.profile
    values: dict[str, float | None] = dict.fromkeys(
        (n for n in LAYER_METRICS if n.startswith("serve.")), 0.0
    )
    if workload.serving:
        values.update(_serve_metrics(traced, by_name))
    values.update(
        {
            "engine.svd_calls": calls("engine.svd_batch"),
            "engine.evd_calls": calls("engine.evd_batch"),
            "engine.matrices_per_call": mean_attr(_ENGINE, "matrices"),
            "engine.self_ms": self_ms(*_ENGINE),
            "engine.sweep_ms": per_op_ms("engine.svd_stack", "engine.evd_stack"),
            "engine.sweeps": attr_per_op(_ENGINE, "sweeps"),
            "wcycle.self_ms": self_ms("wcycle.decompose_batch"),
            "wcycle.svd_group_calls": calls("gpusim.svd_kernel"),
            "wcycle.svd_group_ms": per_op_ms("gpusim.svd_kernel"),
            "wcycle.evd_group_calls": calls("gpusim.evd_kernel"),
            "wcycle.evd_group_ms": per_op_ms("gpusim.gram", "gpusim.evd_kernel"),
            "wcycle.update_gemm_calls": calls("gpusim.update"),
            "wcycle.update_gemm_ms": per_op_ms("gpusim.update"),
            "wcycle.panels_per_launch": mean_attr(_KERNELS, "matrices"),
            "wcycle.rotations": attr_per_op(("wcycle.decompose_batch",), "rotations"),
            "gpusim.kernel_self_ms": self_ms(*_KERNELS),
            "gpusim.gemm_sim_ms": per_op_ms(
                "gpusim.simulate_gram", "gpusim.simulate_update"
            ),
            "gpusim.launches": float(profile.launch_count) if profile else 0.0,
            "gpusim.gm_mb": profile.total_gm_bytes / 1e6 if profile else 0.0,
            "gpusim.occupancy_mean": profile.mean_occupancy if profile else 0.0,
            "gpusim.sim_ms": profile.total_time * 1e3 if profile else 0.0,
            "runtime.map_calls": calls(MAP_HOOK),
            "runtime.map_ms": per_op_ms(MAP_HOOK),
            "runtime.ipc_round_trips": dispatch.get("ipc_round_trips", 0.0),
            "runtime.pickled_task_kb": dispatch.get("pickled_task_bytes", 0.0) / 1e3,
            "runtime.result_mb": dispatch.get("result_bytes", 0.0) / 1e6,
            "runtime.arena_leases": dispatch.get("arena_leases", 0.0),
            "runtime.spawn_ms": spawn_s * 1e3,
            "runtime.cpu_util": cpu_util,
            "loadgen.lag_ms_p99": _pct_ms(
                [s - d for load in plain.loads for s, d in zip(load.sent, load.due)],
                99,
            ),
            "loadgen.latency_ms_p99": (
                plain.quantile_ms(99, raw=True) if workload.serving else 0.0
            ),
            "verify.backward_err_max": check.backward_max,
            "verify.orth_err_max": check.orth_max,
            "verify.sigma_relerr_max": check.sigma_max,
            # Traced against untraced median latency.
            "trace.overhead_frac": (
                _ratio(traced.quantile_ms(50), plain.quantile_ms(50)) - 1.0
            ),
            "host.cal_ms": calibration_s * 1e3,
        }
    )
    for name, spec in LAYER_METRICS.items():
        if tracer.missing.intersection(spec.hooks):
            values[name] = None
    return values
