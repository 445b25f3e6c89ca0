"""Compare two directories of run records (``run.py --out``), or report the
run-to-run spread of one.

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR
    python3 benchmarks/e2e/compare.py --spread DIR

For each workload and end-to-end metric the comparison prints both sides'
median and quartiles, the share of paired runs (same seed) the new side
wins, ties counting for neither, and a verdict against the metric's bound
in BENCHMARK.json:

- ``better``: the new side wins at least 9 pairs in 10 and its median
  improves on the base median by more than the base's quartile distance;
- ``unresolved``: the base's quartile distance, as a share of its median,
  is wider than the bound, and not every new run beats every base run;
- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``unchanged``: otherwise.

It also prints each side's failed-operation share. The exit status is 1
when any metric is worse. ``--spread`` prints each metric's quartile
distance as a share of its median next to its bound, and exits 1 when one
other than ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Share of pairs the new side must win to be called better.
WIN_SHARE = 0.9


def load_records(directory) -> list[dict]:
    """Untraced run records of every ``*.json`` file in ``directory``."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            records.extend(r for r in json.load(fh)["records"] if not r["trace"])
    return records


def by_workload(records) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in sorted(records, key=lambda r: r["seed"]):
        out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, *, better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, change, win share)`` of ``new`` against ``base``.

    ``change`` is the signed relative median change, positive when worse.
    Runs pair up by position (both lists are sorted by seed).
    """
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nmed = statistics.median(new)
    change = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if win_share >= WIN_SHARE and -change * abs(bmed) > bq3 - bq1:
        return "better", change, win_share
    if spread(base) > bound and not all_better:
        return "unresolved", change, win_share
    if change > bound:
        return "worse", change, win_share
    return "unchanged", change, win_share


def _values(runs, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def _failed_share(runs) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted if attempted else 0.0


def compare(base_dir, new_dir, spec: dict) -> int:
    base, new = by_workload(load_records(base_dir)), by_workload(load_records(new_dir))
    worse = 0
    print(
        f"{'workload':<17} {'metric':<17} {'base median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'change':>8} {'wins':>5}  verdict"
    )
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        for m in spec["end_to_end"]:
            b, n = _values(b_runs, m["name"]), _values(n_runs, m["name"])
            v, change, wins = verdict(b, n, better=m["better"], bound=m["bound"])
            worse += v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            print(
                f"{workload:<17} {m['name']:<17} "
                f"{bq[1]:>11.4g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(67)
                + f"{nq[1]:>11.4g} [{nq[0]:.4g}, {nq[2]:.4g}]".ljust(31)
                + f"{change:>+8.1%} {wins:>5.0%}  {v}"
            )
        print(
            f"{workload:<17} {'failed share':<17} base {_failed_share(b_runs):.3%} "
            f"({len(b_runs)} runs), new {_failed_share(n_runs):.3%} "
            f"({len(n_runs)} runs)"
        )
    return 1 if worse else 0


def report_spread(directory, spec: dict) -> int:
    runs = by_workload(load_records(directory))
    too_wide = 0
    print(f"{'workload':<17} {'metric':<17} {'median':>11} {'spread':>8} {'bound':>6}")
    for workload, records in sorted(runs.items()):
        for m in spec["end_to_end"]:
            values = _values(records, m["name"])
            s = spread(values)
            too_wide += m["name"] != "setup_s" and s > m["bound"]
            print(
                f"{workload:<17} {m['name']:<17} {statistics.median(values):>11.4g} "
                f"{s:>8.2%} {m['bound']:>6.0%}  ({len(values)} runs)"
            )
    return 1 if too_wide else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", help="BASE_DIR NEW_DIR, or DIR with --spread")
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one directory")
        return report_spread(args.dirs[0], spec)
    if len(args.dirs) != 2:
        parser.error("give BASE_DIR and NEW_DIR")
    return compare(args.dirs[0], args.dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
