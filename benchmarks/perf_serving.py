"""Serving-layer benchmark: micro-batched vs one-at-a-time throughput.

Measures the broker end to end with the closed-loop load generator
(``repro.serve.loadgen``): ``concurrency`` client threads each submit a
request, block for its result, and repeat — offered load adapts to
service rate, so the numbers measure the broker, not a backlog. Two
configurations serve the identical request stream:

- **one-at-a-time** — ``max_batch=1, max_wait_ms=0``: every request
  dispatches alone, the way a naive per-request RPC wrapper around the
  solver would behave;
- **micro-batched** — the default broker: requests coalesce per shape
  bucket until fill/wait pressure flushes a fused, batch-vectorized
  solve.

Both configurations produce bit-identical factors (the fused run
spot-checks completions against standalone solves), so the throughput
ratio isolates what dynamic batching recovers: the per-request Python
and dispatch overhead amortized across the fused stack.

Writes ``benchmarks/results/perf_serving.{txt,json}`` via the shared
harness plus a repo-root ``BENCH_serve.json`` (throughput, speedup,
latency quantiles, batch-fill histogram) for the performance trajectory.
Run directly (``python benchmarks/perf_serving.py``, add ``--smoke`` for
a seconds-long CI subset) or via pytest
(``pytest benchmarks/perf_serving.py -m slow``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from benchmarks.harness import record_table
from repro.perfci import bench_meta
from repro.perfci.storage import atomic_write_json
from repro.runtime import RuntimeConfig
from repro.serve import LoadSpec, ServeConfig, SVDServer, run_closed_loop

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The acceptance workload: enough in-flight clients to fill fused
#: batches, small matrices where per-request overhead dominates.
REQUESTS = 600
CONCURRENCY = 32
SHAPES = ((16, 8), (24, 12), (32, 16))
VERIFY_EVERY = 20

#: Acceptance bar: micro-batching must recover >= 4x the throughput of
#: one-request-at-a-time serving on the same stream.
SPEEDUP_BAR = 4.0

MODES = [
    ("one-at-a-time", ServeConfig(max_batch=1, max_wait_ms=0.0)),
    ("micro-batched", ServeConfig(max_batch=32, max_wait_ms=2.0)),
]


def run_mode(
    config: ServeConfig,
    *,
    requests: int = REQUESTS,
    concurrency: int = CONCURRENCY,
    verify_every: int = 0,
):
    """One closed-loop run on a fresh server; returns its LoadReport."""
    spec = LoadSpec(
        requests=requests,
        concurrency=concurrency,
        shapes=SHAPES,
        seed=0,
        verify_every=verify_every,
    )
    runtime = RuntimeConfig(on_failure="quarantine")
    with SVDServer(config, runtime=runtime) as server:
        return run_closed_loop(server, spec)


def compute(requests: int = REQUESTS, verify_every: int = VERIFY_EVERY):
    """Rows of (mode, throughput, p50, p95, p99, mean fill, batches)."""
    reports = {}
    rows = []
    for name, config in MODES:
        report = run_mode(
            config,
            requests=requests,
            verify_every=verify_every if name == "micro-batched" else 0,
        )
        assert report.failed == 0, (name, report.errors)
        assert report.mismatches == 0, (name, report.errors)
        if name == "micro-batched" and verify_every:
            assert report.verified > 0, (name, report.as_dict())
        reports[name] = report
        stats = report.server_stats
        rows.append(
            (
                name,
                report.throughput,
                stats.latency_p50 * 1e3,
                stats.latency_p95 * 1e3,
                stats.latency_p99 * 1e3,
                stats.mean_fill,
                stats.batches,
            )
        )
    return rows, reports


def write_bench_json(rows, reports) -> Path:
    """Repo-root BENCH_serve.json: the serving perf trajectory record."""
    base = reports["one-at-a-time"]
    fused = reports["micro-batched"]
    unit = "requests/second (host wall-clock, closed loop)"
    payload = {
        # Unified meta block shared with the other BENCH writers and
        # the results sidecars; legacy top-level fields retained.
        "meta": bench_meta("perf_serving", unit=unit),
        "benchmark": "perf_serving",
        "unit": unit,
        "cpu_count": os.cpu_count(),
        "workload": {
            "requests": base.requests,
            "concurrency": CONCURRENCY,
            "shapes": ["%dx%d" % s for s in SHAPES],
            "verified_bitwise": fused.verified,
            "mismatches": fused.mismatches,
        },
        "speedup_fused_vs_one_at_a_time": (
            fused.throughput / base.throughput
        ),
        "modes": {
            name: reports[name].as_dict() for name, _ in MODES
        },
    }
    path = REPO_ROOT / "BENCH_serve.json"
    atomic_write_json(path, payload)
    return path


def report(rows, reports) -> None:
    record_table(
        "perf_serving",
        "Serving throughput: one-at-a-time vs dynamic micro-batching",
        [
            "mode",
            "req/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "mean fill",
            "batches",
        ],
        rows,
        notes="Closed loop, %d requests over %d client threads, mixed "
        "shapes %s; fused results spot-checked bitwise against "
        "standalone solves."
        % (REQUESTS, CONCURRENCY, ",".join("%dx%d" % s for s in SHAPES)),
    )
    write_bench_json(rows, reports)


@pytest.mark.slow
def test_perf_serving():
    rows, reports = compute()
    report(rows, reports)
    speedup = (
        reports["micro-batched"].throughput
        / reports["one-at-a-time"].throughput
    )
    # Acceptance bar: dynamic batching recovers >= 4x the one-at-a-time
    # serving throughput on the small-matrix mix.
    assert speedup >= SPEEDUP_BAR, (speedup, rows)
    # The speedup must come from actual coalescing, not luck.
    assert reports["micro-batched"].server_stats.mean_fill > 1.5, rows


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        # CI-sized subset: the full two-mode pipeline on a small stream;
        # asserts correctness (all resolved, no mismatches) but not the
        # speedup bar, which needs the full workload to be stable.
        rows, reports = compute(requests=80, verify_every=10)
        for name, _ in MODES:
            assert reports[name].completed == reports[name].requests
        print("smoke:", [(r[0], round(r[1], 1)) for r in rows])
        return
    rows, reports = compute()
    report(rows, reports)
    speedup = (
        reports["micro-batched"].throughput
        / reports["one-at-a-time"].throughput
    )
    print(f"\nmicro-batched vs one-at-a-time speedup: {speedup:.2f}x")


if __name__ == "__main__":
    main()
