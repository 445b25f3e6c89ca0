"""Latency of the serve-open workload at a few arrival rates.

    python3 benchmarks/e2e/rates.py --rates 40,100,200,400 --seeds 3 --out rates.json

For each rate and seed it sets up a server as serve-open does and sends
``rate * seconds`` open-loop requests in the workload's blocks, at
``rate`` requests per second of the reference host. It prints the median
and p99 latency (scaled to the reference host), the mean batch fill, and
the backlog: how far a block's last completion trails its last scheduled
arrival, the most over the blocks. A backlog that grows with the rate
means the server no longer keeps up. It ends with the medians over the
seeds as a Markdown table. serve-open's rate was chosen from this sweep
(see README.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def sweep(rates, seeds: int, seconds: float) -> list[dict]:
    from benchmarks.e2e.workloads import WORKLOADS, ServeRun, timed_setup

    rows = []
    for rate in rates:
        workload = dataclasses.replace(WORKLOADS["serve-open"], rate=rate)
        for seed in range(seeds):
            bench = ServeRun(workload, seed)
            try:
                timed_setup(bench)
                phase, _ = bench.measure(seconds)
            finally:
                bench.close()
            completed = sum(a.completed - b.completed for b, a in phase.stats)
            batches = sum(a.batches - b.batches for b, a in phase.stats)
            row = {
                "rate": rate,
                "seed": seed,
                "requests": phase.attempted,
                "failed": phase.failed,
                "latency_ms_p50": phase.quantile_ms(50),
                "latency_ms_p99": phase.quantile_ms(99),
                "fill_mean": completed / batches,
                "backlog_ms": 1e3
                * max(max(load.done) - max(load.due) for load in phase.loads),
            }
            rows.append(row)
            print(
                "rate {rate:g} seed {seed}: p50 {latency_ms_p50:.2f} ms, "
                "p99 {latency_ms_p99:.2f} ms, fill {fill_mean:.2f}, "
                "backlog {backlog_ms:.1f} ms, failed {failed}".format(**row),
                flush=True,
            )
    return rows


def markdown(rows) -> str:
    """Medians over the seeds, one line per rate."""
    keys = ("latency_ms_p50", "latency_ms_p99", "fill_mean", "backlog_ms")
    lines = [
        "| req/s | p50 (ms) | p99 (ms) | mean fill | backlog (ms) |",
        "|---|---|---|---|---|",
    ]
    for rate in dict.fromkeys(r["rate"] for r in rows):
        runs = [r for r in rows if r["rate"] == rate]
        cells = [f"{statistics.median(r[k] for r in runs):.3g}" for k in keys]
        lines.append(f"| {rate:g} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--rates", required=True, help="comma-separated req/s on the reference host"
    )
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", help="write the rows as JSON")
    args = parser.parse_args(argv)
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    rows = sweep([float(r) for r in args.rates.split(",")], args.seeds, args.seconds)
    print(markdown(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    return 1 if any(r["failed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
