"""Run the end-to-end benchmark.

One workload, in this process::

    python3 benchmarks/e2e/run.py --workload batch-mid --seed 0 --seconds 10 --trace 0

prints ``workload metric value unit`` lines and, as the last line, a JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1`` (``--trace-out trace.json`` also writes the Chrome trace).

Every workload, each in a fresh subprocess, one after another::

    python3 benchmarks/e2e/run.py --seed 0 [--smoke] [--out run.json] [--trace 1]

With ``--trace 1`` every workload runs a second time, traced. ``--out``
writes the run records that ``compare.py`` reads. The exit status is
non-zero if any output breaks the accuracy contract (see verify.py).

Set-up time is the median over fresh processes: two probe subprocesses
plus the measuring process itself, each timing from generated inputs to
the first warm call (or the first 64 served requests) returned. Every
end-to-end time is scaled to the reference host's speed by a calibration
kernel run next to it (see workloads.py); run records keep the raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Fresh-process set-up measurements besides the measuring process's own.
SETUP_PROBES = 2
#: Measured seconds per workload in ``--smoke`` runs.
SMOKE_SECONDS = 0.5
#: Upper bound on one child process, set-up probe or workload.
CHILD_TIMEOUT_S = 170


def _bootstrap() -> bool:
    """Put the checkout's ``src`` and root first on ``sys.path``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"run.py: {ROOT / 'src' / 'repro'} not found; run the benchmark "
            f"from a full checkout",
            file=sys.stderr,
        )
        return False
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def host_fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _cpu_seconds() -> float:
    """CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this process started and wait for each to end.

    The runs close their worker pools themselves; this catches a worker
    that outlived its pool, and the resource tracker that
    ``multiprocessing`` starts on first use of shared memory, which would
    otherwise outlive this process by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _child(args: list[str]) -> str:
    """Run this script with ``args``; return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def setup_probe(name: str, seed: int) -> dict:
    """Time one set-up in this (fresh) process."""
    from benchmarks.e2e.workloads import make, timed_setup

    run = make(name, seed)
    try:
        raw, scaled, warm = timed_setup(run)
        check = run.check_setup(warm)
    finally:
        run.close()
    return {
        "raw_s": raw,
        "scaled_s": scaled,
        "checked": check.checked,
        "failed": check.failed,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, probes: int
) -> tuple[dict, dict, list]:
    """Measure one workload; return ``(result, record, chrome events)``."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.spans import Tracer
    from benchmarks.e2e.workloads import WORKLOADS, make, timed_setup

    spec = load_spec()
    workload = WORKLOADS[name]
    attempted = failed = 0
    setup = {"raw_s": [], "scaled_s": []}
    for _ in range(0 if trace else probes):
        probe = json.loads(
            _child(["--setup-probe", "--workload", name, "--seed", str(seed)])
            .strip()
            .splitlines()[-1]
        )
        for key in setup:
            setup[key].append(probe[key])
        attempted += probe["checked"]
        failed += probe["failed"]

    run = make(name, seed)
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        raw, scaled, warm = timed_setup(run)
        setup["raw_s"].append(raw)
        setup["scaled_s"].append(scaled)
        check = run.check_setup(warm)
        executor = run.executor
        tracer = Tracer(executor=executor) if trace else None
        if tracer is not None:
            tracer.context["workload"] = name
        before = executor.dispatch_stats() if executor is not None else {}
        plain, traced = run.measure(seconds, tracer)
        after = executor.dispatch_stats() if executor is not None else {}
    finally:
        run.close()
    cpu_util = (_cpu_seconds() - cpu0) / (time.perf_counter() - wall0)

    phases = [plain] + ([traced] if traced is not None else [])
    attempted += check.checked + sum(p.attempted for p in phases)
    failed += check.failed + sum(p.failed for p in phases)
    for p in phases:
        check.merge(p.check)

    if trace:
        ops = sum(p.ops for p in phases)
        dispatch = {
            k: (after[k] - before.get(k, 0)) / ops
            for k in after
            if isinstance(after[k], (int, float)) and k != "spawn_s"
        }
        values = layers.compute(
            tracer,
            traced,
            plain,
            workload=workload,
            dispatch=dispatch,
            spawn_s=after.get("spawn_s", 0.0),
            cpu_util=cpu_util,
            calibration_s=statistics.median(run.calibrations),
            check=check,
        )
        tracer.report_errors()
        declared = spec["per_layer"]
        events = tracer.chrome_events(pid=1, process_name=name)
    else:
        values = {
            "setup_s": statistics.median(setup["scaled_s"]),
            "latency_ms_p50": plain.quantile_ms(50),
            "peak_rss_mb": _peak_rss_mb(),
        }
        declared = spec["end_to_end"]
        events = []
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with "
            f"BENCHMARK.json"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": values[k], "unit": units[k]} for k in units
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": {"untraced": plain.ops, "traced": traced.ops if traced else 0},
        "setup": setup,
        "calibration_ms": [c * 1e3 for c in run.calibrations],
        "raw": {
            "latency_ms_p50": plain.quantile_ms(50, raw=True),
            "throughput_per_s": plain.done / plain.wall if plain.wall else 0.0,
        },
        "result": result,
    }
    return result, record, events


def _print_metrics(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']} {m['unit']}")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def run_all(args) -> int:
    """Every workload in its own subprocess; untraced, then traced."""
    from benchmarks.e2e.spans import write_chrome_trace
    from benchmarks.e2e.workloads import WORKLOADS

    passes = [0, 1] if args.trace else [0]
    records, events, ok = [], [], True
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as tmp:
        for trace in passes:
            for pid, name in enumerate(WORKLOADS, start=1):
                child = ["--workload", name, "--seed", str(args.seed)]
                child += ["--trace", str(trace), "--out", f"{tmp}/{name}.json"]
                if args.smoke:
                    child.append("--smoke")
                elif args.seconds is not None:
                    child += ["--seconds", str(args.seconds)]
                if trace:
                    child += ["--trace-out", f"{tmp}/{name}.trace.json"]
                t0 = time.perf_counter()
                _child(child)
                with open(f"{tmp}/{name}.json", encoding="utf-8") as fh:
                    record = json.load(fh)["records"][0]
                record["wall_s"] = time.perf_counter() - t0
                records.append(record)
                _print_metrics(name, record["result"])
                ok = ok and record["result"]["correct"]
                if trace:
                    with open(f"{tmp}/{name}.trace.json", encoding="utf-8") as fh:
                        for ev in json.load(fh)["traceEvents"]:
                            ev["pid"] = pid
                            events.append(ev)
    if args.out:
        _write_json(args.out, {"host": host_fingerprint(), "records": records})
    if args.trace_out:
        write_chrome_trace(args.trace_out, events)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the batched SVD (see README.md)."
    )
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="measured seconds (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write a Chrome trace (with --trace 1)")
    parser.add_argument("--out", help="write the run records as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="short runs, no set-up probes"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _bootstrap():
        return 2
    from benchmarks.e2e.spans import write_chrome_trace
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload is None:
        return run_all(args)
    seconds = args.seconds
    if args.smoke:
        seconds = SMOKE_SECONDS
    elif seconds is None:
        seconds = float(load_spec()["run_seconds"])
    result, record, events = run_workload(
        args.workload,
        args.seed,
        seconds,
        bool(args.trace),
        0 if args.smoke else SETUP_PROBES,
    )
    if args.out:
        _write_json(args.out, {"host": host_fingerprint(), "records": [record]})
    if args.trace_out and args.trace:
        write_chrome_trace(args.trace_out, events)
    _print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
