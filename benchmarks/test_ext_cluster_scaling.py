"""Extension — simulated multi-GPU cluster scaling.

The paper's ``test_Cluster`` branch ran Fig. 14(b) on a Vega20 cluster:
the batch of variably-sized local analyses is LPT-partitioned across
ranks on the estimator; scaling should be strong until communication and
the heaviest single matrix dominate.
"""

from __future__ import annotations

from benchmarks.harness import record_table
from repro import WCycleEstimator
from repro.datasets import assimilation_sizes
from repro.gpusim import ClusterSpec, estimate_cluster

GRID_POINTS = 192
RANKS = [1, 2, 4, 8]


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
