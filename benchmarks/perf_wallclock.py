"""Host wall-clock benchmark of the batch-vectorized Jacobi engine.

Unlike the figure/table benchmarks, which report *simulated* GPU seconds,
this one measures real host time, in three parts:

1. **Engine cases** — the seed's per-matrix solver loop (one
   ``OneSidedJacobiSVD.decompose`` call per matrix — exactly what
   ``BatchedSVDKernel.run`` used to do) against the shape-bucketed,
   batch-vectorized :class:`~repro.jacobi.batched.BatchedJacobiEngine`.
   Both paths produce bit-identical factors; only the NumPy execution
   strategy differs, so the ratio isolates the interpreter-loop overhead
   the engine removes. The EVD case does the same for the in-SM
   eigensolver: one ``ParallelJacobiEVD.decompose`` per symmetric Gram
   matrix against the engine's stacked ``evd_batch``.
2. **Worker-scaling cases** — the full ``WCycleSVD`` solver over a
   ragged batch of large (recursion-sized) matrices, run serial and then
   on the ``persistent`` runtime backend at 1/2/4/8 workers. Factors are asserted byte-identical to the serial
   reference in every configuration; the recorded numbers are honest
   wall-clock on whatever machine runs the benchmark (``cpu_count`` is
   recorded alongside — on a single-core box the parallel backend can
   only add overhead, so the >= 2x expectation at 4 workers is asserted only
   when at least 4 CPUs are present). Each parallel config also records
   a **dispatch-overhead breakdown**: pool spin-up seconds (first-touch
   warm map), IPC round-trips, pickled task bytes, and arena
   lease/return counts, so the trajectory shows *where* the non-compute
   time goes, not just the total.
3. **W-cycle case** — same-shape large matrices solved one
   ``WCycleSVD.decompose`` call at a time (every matrix walks its levels
   alone) against one ``decompose_batch`` call (level-synchronous
   buckets: one launch per sweep step for all members). Factors are
   asserted byte-equal; the simulated launch counts of both sides and
   the bucketed call's rotations per level are recorded.

The two sides of a case are timed best of 3, in alternating rounds
(``_best_of``), so a change in host speed during a case moves both alike.

Writes ``benchmarks/results/perf_wallclock.{txt,json}`` via the shared
harness plus a repo-root ``BENCH_wallclock.json`` for the performance
trajectory. Run directly (``python benchmarks/perf_wallclock.py``, add
``--smoke`` for a seconds-long CI subset) or via pytest
(``pytest benchmarks/perf_wallclock.py -m slow``).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.harness import record_table
from repro import Profiler, WCycleSVD
from repro.perfci import bench_meta
from repro.perfci.storage import atomic_write_json
from repro.jacobi.batched import BatchedJacobiEngine
from repro.jacobi.onesided_vector import OneSidedConfig, OneSidedJacobiSVD
from repro.jacobi.parallel_evd import ParallelJacobiEVD
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.runtime import RuntimeConfig
from repro.runtime.executor import get_executor
from repro.runtime.resilient import base_executor

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The acceptance case: 256 small tall matrices, where per-matrix Python
#: overhead dominates and batching pays the most. Each case carries its
#: ordering (recorded in the JSON payload): the 64x(64x32) case runs
#: odd-even, the only place the benchmarks sweep that ordering through the
#: engine — both the loop baseline and the engine use the same config, so
#: the ratio stays apples-to-apples.
CASES = [
    ("256x(16x8)", [(16, 8)] * 256, "round-robin"),
    ("64x(64x32)", [(64, 32)] * 64, "odd-even"),
    (
        "ragged-mix",
        [(16, 8), (24, 12), (16, 8), (32, 16), (24, 12)] * 24,
        "round-robin",
    ),
]

#: EVD engine case: 256 Gram matrices of 16 columns, the size of the
#: W-cycle's in-SM EVD for 8-column panel pairs.
EVD_CASES = [("256x(16x16)", [16] * 256, "round-robin")]

#: Worker-scaling workload: ragged large matrices, all big enough to take
#: the W-cycle recursion path where per-matrix host work dominates.
SCALING_SHAPES = [(128, 64), (96, 48), (160, 80), (64, 32)] * 8
SCALING_WORKERS = (1, 2, 4, 8)

#: W-cycle case: two buckets of eight same-shape large matrices.
WCYCLE_CASE = ("8x(128x64)+8x(512x64)", [(128, 64)] * 8 + [(512, 64)] * 8)

ROUNDS = 3
SCALING_ROUNDS = 1  # each config is ~10 s of W-cycle work


def _batch(shapes: list[tuple[int, int]], seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def _best_of(sides, rounds: int = ROUNDS) -> list[tuple[float, object]]:
    """Best of ``rounds`` timed calls of each callable in ``sides``.

    Every round calls each side once, in turn, so a change in host speed
    during the measurement reaches every side alike instead of only the
    sides timed after it. Returns, per side, its best time and what it
    returned in that call.
    """
    best = [(float("inf"), None)] * len(sides)
    for _ in range(rounds):
        for k, fn in enumerate(sides):
            t0 = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - t0
            if elapsed < best[k][0]:
                best[k] = (elapsed, out)
    return best


def compute(cases=None, rounds: int = ROUNDS) -> list[tuple]:
    rows = []
    for name, shapes, ordering in cases if cases is not None else CASES:
        config = OneSidedConfig(ordering=ordering)
        solver = OneSidedJacobiSVD(config)
        # kernel_clock turns on the engine's per-sweep kernel-time
        # breakdown (gram/rotate/norms/converge) for the serial path.
        engine = BatchedJacobiEngine(config, kernel_clock=time.perf_counter)
        matrices = _batch(shapes)

        def run_loop():
            return [solver.decompose(a) for a in matrices]

        def run_engine():
            return engine.svd_batch(matrices), engine.last_kernel_times

        (t_loop, loop_results), (t_engine, (engine_results, kt)) = _best_of(
            [run_loop, run_engine], rounds
        )
        # The breakdown of the round that set t_engine.
        breakdown = kt.as_dict() if kt is not None else None
        # The speedup claim is only meaningful if the outputs agree.
        for a, b in zip(loop_results, engine_results):
            assert np.array_equal(a.S, b.S), name
        rows.append(
            (
                name,
                len(matrices),
                t_loop,
                t_engine,
                t_loop / t_engine,
                ordering,
                breakdown,
            )
        )
    return rows


def _grams(sizes: list[int], seed: int = 0) -> list[np.ndarray]:
    """Symmetric positive semi-definite ``A^T A`` of ``(2k, k)`` Gaussians."""
    rng = np.random.default_rng(seed)
    out = []
    for k in sizes:
        A = rng.standard_normal((2 * k, k))
        out.append(A.T @ A)
    return out


def compute_evd(cases=None, rounds: int = ROUNDS) -> list[tuple]:
    """Rows of (case, batch, loop_s, engine_s, speedup, ordering)."""
    rows = []
    for name, sizes, ordering in cases if cases is not None else EVD_CASES:
        config = TwoSidedConfig(ordering=ordering)
        solver = ParallelJacobiEVD(config)
        engine = BatchedJacobiEngine(evd_config=config)
        matrices = _grams(sizes)

        def run_loop():
            return [solver.decompose(b) for b in matrices]

        def run_engine():
            return engine.evd_batch(matrices)

        (t_loop, loop_results), (t_engine, engine_results) = _best_of(
            [run_loop, run_engine], rounds
        )
        for a, b in zip(loop_results, engine_results):
            assert a.L.tobytes() == b.L.tobytes(), name
            assert a.J.tobytes() == b.J.tobytes(), name
        rows.append(
            (name, len(matrices), t_loop, t_engine, t_loop / t_engine, ordering)
        )
    return rows


def compute_wcycle(case=WCYCLE_CASE, rounds: int = ROUNDS) -> tuple:
    """Row of (case, batch, per_matrix_s, bucketed_s, speedup,
    per_matrix_launches, bucketed_launches, level_rotations)."""
    name, shapes = case
    matrices = _batch(shapes, seed=2)
    solver = WCycleSVD(device="V100")
    launches: dict[str, int] = {}

    def run_alone():
        profiler = Profiler()
        alone = [solver.decompose(a, profiler=profiler) for a in matrices]
        launches["alone"] = profiler.report.launch_count
        return alone

    def run_together():
        profiler = Profiler()
        together = solver.decompose_batch(matrices, profiler=profiler)
        launches["together"] = profiler.report.launch_count
        return together, dict(solver.last_level_rotations)

    (t_alone, alone), (t_together, (together, level_rotations)) = _best_of(
        [run_alone, run_together], rounds
    )
    # The speedup claim is only meaningful if the outputs agree.
    for a, b in zip(alone, together):
        assert a.U.tobytes() == b.U.tobytes(), name
        assert a.S.tobytes() == b.S.tobytes(), name
        assert a.V.tobytes() == b.V.tobytes(), name
    return (
        name,
        len(matrices),
        t_alone,
        t_together,
        t_alone / t_together,
        launches["alone"],
        launches["together"],
        level_rotations,
    )


def _warm_noop(item):
    """Picklable no-op task for the pool spin-up measurement."""
    return item


#: Dispatch counters carried by the warm-up map itself; subtracted from
#: the recorded breakdown so it reflects the measured solve runs only.
_WARM_COUNTER_KEYS = (
    "batches",
    "tasks",
    "ipc_round_trips",
    "pickled_task_bytes",
    "control_msgs",
    "result_bytes",
)


def compute_scaling(
    shapes=None,
    workers=SCALING_WORKERS,
    rounds: int = SCALING_ROUNDS,
) -> list[tuple]:
    """Rows of (config, workers, wallclock_s, speedup, overhead-dict).

    Every configuration's factors are asserted byte-identical to the
    serial reference — scaling numbers for wrong answers are worthless.
    The overhead dict (``None`` on the serial row) breaks the dispatch
    cost down: ``pool_spinup_s`` is the first-touch warm map (worker
    spawn; none with one worker, whose maps all run inline), the rest
    are the executor's own dispatch counters (IPC round-trips, pickled
    task bytes, and the arena lease/return/segment counts).
    """
    matrices = _batch(SCALING_SHAPES if shapes is None else shapes, seed=1)

    def run_serial():
        return WCycleSVD(device="V100").decompose_batch(matrices)

    [(t_serial, reference)] = _best_of([run_serial], rounds)
    rows = [("serial", 1, t_serial, 1.0, None)]
    for n in workers:
        runtime = RuntimeConfig(
            backend="persistent", workers=n, allow_oversubscribe=True
        )
        ex = get_executor(runtime)
        base = base_executor(ex)
        # Pool spin-up: the first map forks the workers (a one-worker map
        # runs inline and forks none). Workers build their solvers and
        # sweep plans on first use, and attach the arena when a map
        # first ships an array.
        t0 = time.perf_counter()
        base.map(_warm_noop, list(range(n)))
        spinup_s = time.perf_counter() - t0
        warm = base.dispatch_stats()

        def run_parallel():
            solver = WCycleSVD(device="V100", runtime=ex)
            return solver.decompose_batch(matrices)

        [(t, results)] = _best_of([run_parallel], rounds)
        stats = base.dispatch_stats()
        for key in _WARM_COUNTER_KEYS:
            if key in stats and key in warm:
                stats[key] -= warm[key]
        ex.close()
        overhead = {"pool_spinup_s": spinup_s, **stats}
        for got, want in zip(results, reference):
            assert got.U.tobytes() == want.U.tobytes(), n
            assert got.S.tobytes() == want.S.tobytes(), n
            assert got.V.tobytes() == want.V.tobytes(), n
        rows.append(("persistent", n, t, t_serial / t, overhead))
    return rows


def write_bench_json(
    rows: list[tuple],
    scaling_rows: list[tuple],
    evd_rows: list[tuple],
    wcycle_row: tuple,
) -> Path:
    """Repo-root BENCH_wallclock.json: the perf trajectory record."""
    unit = "seconds (host wall-clock, best of %d)" % ROUNDS
    payload = {
        # Unified meta block (benchmark, unit, schema version, host
        # fingerprint): what repro-perf keys baselines on.
        "meta": bench_meta("perf_wallclock", unit=unit),
        "cases": [
            {
                "case": name,
                "batch": batch,
                "ordering": ordering,
                "loop_s": loop_s,
                "engine_s": engine_s,
                "speedup": speedup,
                # Per-sweep kernel-time totals of the engine's last run
                # (fused executors): gram/rotate/norms/converge seconds
                # plus the sweep count across all buckets.
                "kernel_breakdown": breakdown,
            }
            for name, batch, loop_s, engine_s, speedup, ordering, breakdown
            in rows
        ],
        "evd_cases": [
            {
                "case": name,
                "batch": batch,
                "ordering": ordering,
                "loop_s": loop_s,
                "engine_s": engine_s,
                "speedup": speedup,
            }
            for name, batch, loop_s, engine_s, speedup, ordering in evd_rows
        ],
        "wcycle_cases": [
            {
                "case": wcycle_row[0],
                "batch": wcycle_row[1],
                "per_matrix_s": wcycle_row[2],
                "bucketed_s": wcycle_row[3],
                "speedup": wcycle_row[4],
                # Simulated launches of the whole case on each side.
                "per_matrix_launches": wcycle_row[5],
                "bucketed_launches": wcycle_row[6],
                # Rotations per level depth of the bucketed call.
                "level_rotations": {
                    str(depth): count for depth, count in wcycle_row[7].items()
                },
            }
        ],
        "worker_scaling": {
            "workload": "%d ragged large matrices (W-cycle path)"
            % len(SCALING_SHAPES),
            "note": "factors byte-identical to serial in every config; "
            "speedup is wall-clock serial/parallel on this host",
            "configs": [
                {
                    "backend": backend,
                    "workers": n,
                    "wallclock_s": t,
                    "speedup_vs_serial": speedup,
                    # Where the non-compute time goes: pool spin-up,
                    # IPC round-trips, pickled task bytes, and (on the
                    # persistent backend) arena lease/return counts.
                    "dispatch_overhead": overhead,
                }
                for backend, n, t, speedup, overhead in scaling_rows
            ],
        },
    }
    path = REPO_ROOT / "BENCH_wallclock.json"
    atomic_write_json(path, payload)
    return path


def report(
    rows: list[tuple],
    scaling_rows: list[tuple],
    evd_rows: list[tuple],
    wcycle_row: tuple,
) -> None:
    record_table(
        "perf_wallclock",
        "Wall-clock: per-matrix solver loop vs batch-vectorized engine",
        ["case", "batch", "loop (s)", "engine (s)", "speedup", "ordering"],
        [row[:6] for row in rows],
        notes="Host seconds, best of %d; identical factors both paths."
        % ROUNDS,
    )
    record_table(
        "perf_wallclock_evd",
        "Wall-clock: per-matrix parallel EVD loop vs stacked engine EVD",
        ["case", "batch", "loop (s)", "engine (s)", "speedup", "ordering"],
        evd_rows,
        notes="Host seconds, best of %d; identical eigenpairs both paths."
        % ROUNDS,
    )
    record_table(
        "perf_wallclock_wcycle",
        "Wall-clock: W-cycle one matrix at a time vs level-synchronous buckets",
        [
            "case", "batch", "per-matrix (s)", "bucketed (s)", "speedup",
            "per-matrix launches", "bucketed launches",
        ],
        [wcycle_row[:7]],
        notes="Host seconds, best of %d; identical factors both paths."
        % ROUNDS,
    )
    record_table(
        "perf_wallclock_scaling",
        "Wall-clock: W-cycle worker scaling (vs serial, identical factors)",
        ["backend", "workers", "wallclock (s)", "speedup"],
        [row[:4] for row in scaling_rows],
        notes="Host seconds on %s CPU(s); the parallel backend needs real "
        "cores to pay off." % (os.cpu_count() or "?"),
    )
    write_bench_json(rows, scaling_rows, evd_rows, wcycle_row)


@pytest.mark.slow
def test_perf_wallclock():
    rows = compute()
    scaling_rows = compute_scaling()
    evd_rows = compute_evd()
    wcycle_row = compute_wcycle()
    report(rows, scaling_rows, evd_rows, wcycle_row)
    by_case = {row[0]: row[4] for row in rows}
    # The stacked EVD must beat the per-matrix loop (> 7x on the
    # reference box); the bar leaves noise headroom.
    assert evd_rows[0][4] >= 3.0, evd_rows
    # Acceptance bar: the engine beats the seed loop >= 3x on the
    # 256-matrix small-tall case.
    assert by_case["256x(16x8)"] >= 3.0, by_case
    # Fused sweeps push the mid-size case past 4x on any host (recorded
    # trajectory on the reference box is > 5x); the bar here leaves noise
    # headroom.
    assert by_case["64x(64x32)"] >= 4.0, by_case
    # Every case must at least not regress.
    assert min(by_case.values()) >= 1.0, by_case
    # Buckets share every launch of a sweep step: fewer launches, and the
    # bucketed call must not be slower than solving one matrix at a time.
    assert wcycle_row[6] < wcycle_row[5], wcycle_row
    assert wcycle_row[4] >= 1.0, wcycle_row
    # The serial engine path must have recorded a kernel breakdown.
    for row in rows:
        breakdown = row[6]
        assert breakdown is not None, row
        assert breakdown["sweeps"] > 0, row
    # Every parallel config must have recorded its dispatch-overhead
    # breakdown (spin-up + IPC counters; arena leases must balance
    # returns).
    for _, n, _, _, overhead in scaling_rows[1:]:
        assert overhead is not None, n
        assert overhead["pool_spinup_s"] >= 0.0, (n, overhead)
        assert overhead["tasks"] > 0, (n, overhead)
        if n > 1:
            # A one-worker map runs inline: no manifest, no lease.
            assert overhead["ipc_round_trips"] > 0, (n, overhead)
            assert overhead["pickled_task_bytes"] > 0, (n, overhead)
            assert overhead["arena_leases"] > 0, (n, overhead)
        assert overhead["arena_leases"] == overhead["arena_returns"], (
            n, overhead,
        )
    # Scaling bar (>= 2x at 4 workers) needs >= 4 real cores; on smaller
    # machines the numbers are recorded but the bar is not enforced.
    if (os.cpu_count() or 1) >= 4:
        best_at_4 = max(
            speedup for _, n, _, speedup, _overhead in scaling_rows if n == 4
        )
        assert best_at_4 >= 2.0, scaling_rows


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        # CI-sized subset: one engine case, one round, one 2-worker
        # scaling config on a small batch — exercises the full pipeline
        # (the persistent runtime included) in seconds.
        rows = compute(cases=CASES[:1], rounds=1)
        # The kernel-time breakdown must reach the JSON payload: CI fails
        # the smoke run if the engine stopped recording it.
        for row in rows:
            breakdown = row[6]
            assert breakdown is not None, row
            for key in ("gram_s", "rotate_s", "norms_s", "converge_s"):
                assert key in breakdown, (key, breakdown)
            assert breakdown["sweeps"] > 0, breakdown
        scaling_rows = compute_scaling(
            shapes=[(64, 32), (48, 24)] * 4, workers=(2,), rounds=1
        )
        # The persistent row must carry a balanced arena-lease ledger —
        # CI fails the smoke run on a leaked (or double-returned) slot.
        for _, n, _, _, overhead in scaling_rows[1:]:
            assert overhead is not None, n
            assert overhead["arena_leases"] > 0, overhead
            assert (
                overhead["arena_leases"] == overhead["arena_returns"]
            ), overhead
        evd_rows = compute_evd(
            cases=[("32x(16x16)", [16] * 32, "round-robin")], rounds=1
        )
        wcycle_row = compute_wcycle(
            case=("2x(128x64)", [(128, 64)] * 2), rounds=1
        )
        assert wcycle_row[6] < wcycle_row[5], wcycle_row
        print("smoke:", rows, scaling_rows, evd_rows, wcycle_row)
        return
    report(compute(), compute_scaling(), compute_evd(), compute_wcycle())


if __name__ == "__main__":
    main()
