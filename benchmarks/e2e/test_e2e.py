"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from benchmarks.e2e import layers, run, verify, workloads
from benchmarks.e2e.spans import HOOKS, Span, Tracer, self_time

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_schema_and_cross_references():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # The per-layer list and the README table are copies of the registry.
    assert SPEC["per_layer"] == layers.spec_entries()
    table = layers.markdown_table()
    readme = (ROOT / "benchmarks/e2e/README.md").read_text()
    assert table in readme, f"README per-layer table should read:\n{table}"
    # Every workload, layer metric and moved metric resolves.
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    targets = {m["name"] for m in SPEC["end_to_end"]} | {"failed"}
    hooks = {name for name, _, _ in HOOKS} | {"runtime.map"}
    for name, spec in layers.LAYER_METRICS.items():
        assert spec.better in ("lower", "higher"), name
        assert spec.moves or spec.module == "benchmark", name
        for metric, workload in spec.moves:
            assert metric in targets and workload in workload_names, name
        assert set(spec.hooks) <= hooks, name


def test_smoke_runs_every_workload_correctly(tmp_path):
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()}
    records = json.loads(out.read_text())["records"]
    assert [r["workload"] for r in records] == list(workloads.WORKLOADS)
    for r in records:
        assert r["result"]["failed"] == 0 and r["result"]["attempted"] > 0
        for m in SPEC["end_to_end"]:
            assert (r["workload"], m["name"]) in printed
            assert r["result"]["metrics"][m["name"]]["value"] > 0


# Runs run.py as ``__main__`` and then, still in the same process, prints
# the children that have not ended. A child that outlives run.py only by
# the moment it takes to notice its parent is gone is caught here too.
_CHILDREN_AFTER_RUN = """
import json, os, runpy, sys
from pathlib import Path
sys.argv = [sys.argv[1], *sys.argv[2:]]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit as exc:
    status = exc.code
live = []
for entry in Path("/proc").iterdir():
    try:
        stat = (entry / "stat").read_text()
    except (OSError, NotADirectoryError):
        continue
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    if int(ppid) == os.getpid() and state != "Z":
        live.append(entry.name)
print(json.dumps({"status": status, "live": live}))
"""


@pytest.mark.skipif(
    not Path("/proc/self/stat").is_file(), reason="needs Linux /proc"
)
def test_no_process_outlives_a_run_with_workers():
    # The run starts a worker pool and the shared-memory resource tracker.
    proc = subprocess.run(
        [sys.executable, "-c", _CHILDREN_AFTER_RUN,
         str(ROOT / "benchmarks/e2e/run.py"), "--workload", "batch-wcycle-par",
         "--smoke", "--seed", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    after = json.loads(proc.stdout.strip().splitlines()[-1])
    assert after == {"status": 0, "live": []}, proc.stderr


def test_hooks_are_restored_after_traced_run_and_on_error():
    from repro.jacobi import BatchedJacobiEngine

    original = BatchedJacobiEngine.__dict__["svd_batch"]
    result, _, events = run.run_workload(
        "batch-small", seed=0, seconds=0.1, trace=True, probes=0
    )
    assert BatchedJacobiEngine.__dict__["svd_batch"] is original
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {e["ph"] for e in events} == {"M", "X"}
    with pytest.raises(RuntimeError):
        with Tracer():
            assert BatchedJacobiEngine.__dict__["svd_batch"] is not original
            raise RuntimeError("boom")
    assert BatchedJacobiEngine.__dict__["svd_batch"] is original


def test_traced_serving_run_times_every_request():
    result, _, events = run.run_workload(
        "serve-open", seed=0, seconds=0.2, trace=True, probes=0
    )
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    submits = [e for e in events if e["name"] == "serve.submit"]
    # Half of the blocks are traced.
    assert len(submits) == 40
    assert metrics["serve.submit_us_p50"] > 0
    assert metrics["serve.queue_wait_ms_p50"] > 0
    assert metrics["serve.batch_fill_mean"] >= 1
    solves = [e for e in events if e["name"] == "engine.svd_batch"]
    carried = [i for e in solves for i in e["args"]["request_ids"]]
    assert sorted(carried) == sorted(e["args"]["request_id"] for e in submits)


def test_missing_hook_target_reads_null():
    tracer = Tracer(hooks=HOOKS + (("engine.gone", "repro.jacobi:Gone.run", None),))
    with tracer:
        pass
    assert tracer.missing == {"engine.gone"}
    tracer.missing.add("engine.svd_batch")
    values = layers.compute(
        tracer,
        workloads.Phase(),
        workloads.Phase(),
        workload=workloads.WORKLOADS["batch-small"],
        dispatch={},
        spawn_s=0.0,
        cpu_util=1.0,
        calibration_s=0.013,
        check=verify.Check(),
    )
    assert values["engine.svd_calls"] is None
    assert values["engine.sweep_ms"] == 0.0


def test_self_time_subtracts_the_union_of_children():
    parent = Span(1, None, "p", 1, start=0.0, end=10.0)
    children = [
        Span(2, 1, "a", 1, start=1.0, end=3.0),
        Span(3, 1, "b", 1, start=2.0, end=4.0),  # overlaps a
        Span(4, 1, "c", 1, start=5.0, end=6.0),
        Span(5, 1, "d", 1, start=9.5, end=12.0),  # runs past the parent
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert self_time(parent, []) == 10.0


def test_one_perturbed_sigma_fails_the_accuracy_check():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((24, 12)) for _ in range(3)]
    results = []
    for a in mats:
        U, S, Vt = np.linalg.svd(a, full_matrices=False)
        results.append(SimpleNamespace(U=U, S=S.copy(), V=Vt.T))
    assert verify.check_results(mats, results).failed == 0
    results[1].S[4] *= 1 + 1e-9
    check = verify.check_results(mats, results)
    assert check.failed == 1
    assert check.sigma_max > verify.TOL


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_stalled_target_is_charged_from_the_due_time():
    clock = _FakeClock()

    def submit(matrix):
        if not submit.calls:
            clock.now += 0.2  # the first submit stalls for 200 ms
        submit.calls += 1
        fut = Future()
        fut.set_result(matrix)
        return fut

    submit.calls = 0
    offsets = [0.0, 0.01, 0.02, 0.3]
    load = workloads.open_loop(
        submit, [np.eye(2)] * 4, offsets, clock=clock, sleep=clock.sleep
    )
    latency = np.subtract(load.done, load.due)
    assert latency[0] == pytest.approx(0.2)
    assert latency[1] == pytest.approx(0.19)
    assert latency[2] == pytest.approx(0.18)
    assert latency[3] == pytest.approx(0.0)
    assert np.subtract(load.sent, load.due)[1] == pytest.approx(0.19)


class _SpinningSolver:
    """Solves with LAPACK. With ``spin``, each call leaves a busy Python
    thread running until the next call starts: CPU work a solver could
    leave behind, landing on the calibration that follows the call."""

    def __init__(self, spin: bool) -> None:
        self.spin = spin
        self.stop = threading.Event()
        self.thread = None

    def decompose_batch(self, matrices, profiler=None):
        self.close()
        stack = np.stack(matrices)
        for _ in range(3):
            U, S, Vt = np.linalg.svd(stack, full_matrices=False)
        results = [
            SimpleNamespace(U=u, S=s, V=vt.T) for u, s, vt in zip(U, S, Vt)
        ]
        if self.spin:
            self.stop.clear()
            self.thread = threading.Thread(target=self._busy, daemon=True)
            self.thread.start()
        return SimpleNamespace(results=results)

    def _busy(self) -> None:
        while not self.stop.is_set():
            sum(range(1000))

    def close(self) -> None:
        if self.thread is not None:
            self.stop.set()
            self.thread.join(timeout=10)
            assert not self.thread.is_alive()
            self.thread = None


def test_work_left_running_does_not_improve_the_scaled_latency():
    def scaled_p50(spin: bool) -> float:
        bench = workloads.make("batch-mid", 0)
        bench.solver = _SpinningSolver(spin)
        try:
            bench.pin()  # as timed_setup does; the spinner inherits the CPU
            plain, _ = bench.measure(0.4)
        finally:
            bench.close()
        assert plain.failed == 0
        return plain.quantile_ms(50)

    quiet = scaled_p50(spin=False)
    assert scaled_p50(spin=True) >= 0.8 * quiet
