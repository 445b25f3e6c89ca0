"""Extension — cluster scaling, simulated and served.

Two sections share this module's name because they answer the same
question at two layers:

1. **Simulated multi-GPU scaling** (the paper's ``test_Cluster`` branch
   ran Fig. 14(b) on a Vega20 cluster): the batch of variably-sized
   local analyses is LPT-partitioned across ranks on the estimator;
   scaling should be strong until communication and the heaviest single
   matrix dominate.

2. **Served replica scaling** (PR 9): the real serving cluster —
   :class:`~repro.serve.cluster.SVDCluster` with 1, 2, and 4 replicas
   behind the shard router — under the identical closed-loop request
   stream. On this repository's CPU-bound CI host extra replicas add
   supervision and routing overhead without adding compute, so the
   acceptance bar is **parity**, not speedup: every replica count must
   complete the full stream with zero failures and bit-identical
   spot-checks, and the curve records the honest throughput shape in
   ``BENCH_cluster.json`` for hosts where the replica axis does pay.

Run the served section directly (``python
benchmarks/test_ext_cluster_scaling.py``, add ``--smoke`` for the
seconds-long CI subset) or via pytest (``-m slow``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from benchmarks.harness import record_table
from repro import WCycleEstimator
from repro.perfci import bench_meta
from repro.perfci.storage import atomic_write_json
from repro.datasets import assimilation_sizes
from repro.gpusim import ClusterSpec, estimate_cluster
from repro.runtime import RuntimeConfig
from repro.serve import ClusterConfig, LoadSpec, ServeConfig, SVDCluster
from repro.serve.loadgen import run_closed_loop

REPO_ROOT = Path(__file__).resolve().parent.parent

GRID_POINTS = 192
RANKS = [1, 2, 4, 8]

#: Served-curve workload: same spirit as perf_serving, sized so three
#: cluster runs still finish in CI time.
REPLICA_COUNTS = [1, 2, 4]
REQUESTS = 300
CONCURRENCY = 16
SHAPES = ((16, 8), (24, 12), (32, 16))
VERIFY_EVERY = 20


# -- section 1: simulated multi-GPU scaling (paper Fig. 14(b)) -------------


def compute():
    shapes = assimilation_sizes(GRID_POINTS, rng=3)
    est = WCycleEstimator(device="Vega20")
    rows = []
    base = None
    for ranks in RANKS:
        result = estimate_cluster(
            shapes,
            ClusterSpec.of("Vega20", ranks),
            est.estimate_time,
        )
        if base is None:
            base = result.total_time
        rows.append(
            (
                ranks,
                result.total_time,
                base / result.total_time,
                result.load_imbalance,
                result.communication_time,
            )
        )
    return rows


def test_ext_cluster_scaling(benchmark):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_table(
        "ext_cluster_scaling",
        f"Extension: cluster scaling, {GRID_POINTS} local analyses (Vega20)",
        ["GPUs", "time (sim s)", "speedup", "load imbalance", "comm (s)"],
        rows,
    )
    speedups = [r[2] for r in rows]
    # Strong scaling up to 4 ranks; beyond that the per-rank batches get
    # small enough that occupancy losses eat the gains (the classic
    # strong-scaling saturation).
    assert speedups[:3] == sorted(speedups[:3])
    assert speedups[2] > 2.5
    assert speedups[-1] > 2.0
    for _, _, _, imbalance, _ in rows:
        assert imbalance < 2.0


# -- section 2: served replica scaling (real cluster, real requests) -------


def run_replicas(
    replicas: int,
    *,
    requests: int = REQUESTS,
    concurrency: int = CONCURRENCY,
    verify_every: int = VERIFY_EVERY,
):
    """One closed-loop run on a fresh N-replica cluster."""
    spec = LoadSpec(
        requests=requests,
        concurrency=concurrency,
        shapes=SHAPES,
        seed=0,
        verify_every=verify_every,
    )
    config = ClusterConfig(
        replicas=replicas,
        serve=ServeConfig(max_batch=32, max_wait_ms=2.0),
    )
    runtime = RuntimeConfig(on_failure="quarantine")
    with SVDCluster(config, runtime=runtime) as cluster:
        report = run_closed_loop(cluster, spec)
        snapshot = cluster.stats()
    return report, snapshot


def compute_served(requests: int = REQUESTS, verify_every: int = VERIFY_EVERY):
    """Rows of (replicas, req/s, vs 1 replica, p50, p99, failovers)."""
    rows = []
    reports = {}
    base = None
    for replicas in REPLICA_COUNTS:
        report, snapshot = run_replicas(
            replicas, requests=requests, verify_every=verify_every
        )
        # Parity is the acceptance bar: the full stream completes and
        # spot-checks are bit-identical at every replica count.
        assert report.completed == report.requests, (replicas, report.errors)
        assert report.failed == 0, (replicas, report.errors)
        assert report.mismatches == 0, (replicas, report.errors)
        if verify_every:
            assert report.verified > 0, (replicas, report.as_dict())
        assert snapshot.kills == 0 and snapshot.failovers == 0
        reports[replicas] = (report, snapshot)
        if base is None:
            base = report.throughput
        stats = report.server_stats.router
        rows.append(
            (
                replicas,
                report.throughput,
                report.throughput / base,
                stats.latency_p50 * 1e3,
                stats.latency_p99 * 1e3,
                snapshot.failovers,
            )
        )
    return rows, reports


def write_bench_json(rows, reports) -> Path:
    """Repo-root BENCH_cluster.json: the replica-scaling trajectory."""
    unit = "requests/second (host wall-clock, closed loop)"
    payload = {
        # Unified meta block shared with the other BENCH writers and
        # the results sidecars; legacy top-level fields retained.
        "meta": bench_meta("ext_cluster_scaling_served", unit=unit),
        "benchmark": "ext_cluster_scaling_served",
        "unit": unit,
        "cpu_count": os.cpu_count(),
        "workload": {
            "requests": reports[REPLICA_COUNTS[0]][0].requests,
            "concurrency": CONCURRENCY,
            "shapes": ["%dx%d" % s for s in SHAPES],
            "verified_bitwise": sum(
                rep.verified for rep, _ in reports.values()
            ),
            "mismatches": sum(
                rep.mismatches for rep, _ in reports.values()
            ),
        },
        "note": (
            "On a CPU-bound host the replica axis adds no compute; the "
            "bar is parity (all complete, bit-identical spot-checks), "
            "and the curve records honest router/supervision overhead."
        ),
        "replicas": {
            str(replicas): {
                "report": rep.as_dict(),
                "cluster": snap.as_dict(),
            }
            for replicas, (rep, snap) in reports.items()
        },
    }
    path = REPO_ROOT / "BENCH_cluster.json"
    atomic_write_json(path, payload)
    return path


def report_served(rows, reports) -> None:
    record_table(
        "ext_cluster_scaling_served",
        "Extension: served replica scaling (real cluster, closed loop)",
        [
            "replicas",
            "req/s",
            "vs 1 replica",
            "p50 (ms)",
            "p99 (ms)",
            "failovers",
        ],
        rows,
        notes="Closed loop, %d requests over %d client threads, mixed "
        "shapes %s, identical seeded streams at every replica count; "
        "results spot-checked bitwise against standalone solves."
        % (REQUESTS, CONCURRENCY, ",".join("%dx%d" % s for s in SHAPES)),
    )
    write_bench_json(rows, reports)


@pytest.mark.slow
def test_cluster_replica_throughput_curve():
    rows, reports = compute_served()
    report_served(rows, reports)
    # Honest-host acceptance: parity across the curve (asserted inside
    # compute_served) and a sane shape — no replica count may lose more
    # than 5x to the single-replica baseline, which would indicate the
    # router or supervisor serializing the fleet.
    for _, _, relative, _, _, _ in rows:
        assert relative > 0.2, rows


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        # CI-sized subset: the full 1/2/4-replica pipeline on a small
        # stream; asserts parity but records nothing.
        rows, _ = compute_served(requests=60, verify_every=10)
        print("smoke:", [(r[0], round(r[1], 1)) for r in rows])
        return
    rows, reports = compute_served()
    report_served(rows, reports)
    for replicas, rps, relative, _, _, _ in rows:
        print(f"{replicas} replica(s): {rps:,.0f} req/s ({relative:.2f}x)")


if __name__ == "__main__":
    main()
