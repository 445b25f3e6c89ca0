"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``devices``
    List the built-in simulated devices and their key limits.
``svd``
    Factorize a random batch and print singular values, accuracy against
    LAPACK, and the simulated-GPU profile.
``estimate``
    Price a batched-SVD workload on a device and compare against the
    cuSOLVER and MAGMA baselines.

``svd`` accepts ``--workers N --backend persistent`` to run on the
parallel host runtime; results and simulated profiles are bit-identical
across backends. ``estimate`` walks the cost model analytically and runs
in-process.
``plan``
    Show the tailoring plan the auto-tuner picks for a workload, and the
    low-precision level plans of §V-E.
``serve``
    Start the in-process serving broker and drive it with the closed-loop
    load generator (also available as the ``repro-serve`` script).
``perf``
    The continuous performance-regression harness: record benchmark
    payloads into the fingerprint-stamped history and gate the tree
    against the rolling baseline (also available as ``repro-perf``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _default_backend() -> str:
    """The ``--backend`` default: serial, unless the runtime's
    ``REPRO_RUNTIME_BACKEND`` override names another backend — the CLI
    is an entry point that passes no spec of its own unless a flag says
    otherwise, so the env hook must reach it too.

    argparse never validates a *default* against ``choices``, so a typo
    in the env var must be rejected here as a clean usage error instead
    of surfacing later as a ``ConfigurationError`` deep in the run."""
    from repro.runtime import BACKENDS, BACKEND_ENV_VAR

    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name:
        return "serial"
    if name not in BACKENDS:
        raise SystemExit(
            f"repro: {BACKEND_ENV_VAR}={name!r} is not a recognized "
            f"backend; expected one of: {', '.join(BACKENDS)}"
        )
    return name


def _resolve_runtime(
    workers: int,
    backend: str,
    max_retries: int | None = None,
    task_timeout: float | None = None,
    on_failure: str = "raise",
):
    """Validate the CLI's parallelism flags into a RuntimeConfig.

    Oversubscription (``--workers`` beyond ``os.cpu_count()``) is rejected
    by :class:`~repro.runtime.RuntimeConfig` itself — the CLI never sets
    ``allow_oversubscribe``, so a typo'd worker count fails fast with the
    library's own message.
    """
    from repro.errors import ConfigurationError
    from repro.runtime import BACKENDS, RuntimeConfig

    if workers > 1 and backend == "serial":
        flags = " or ".join(f"--backend {b}" for b in BACKENDS if b != "serial")
        raise ConfigurationError(
            f"--workers {workers} requires a parallel backend; add {flags}"
        )
    return RuntimeConfig(
        backend=backend,
        workers=workers,
        max_retries=max_retries,
        task_timeout=task_timeout,
        on_failure=on_failure,
    )


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        parts = text.lower().split("x")
        if len(parts) == 1:
            n = int(parts[0])
            return n, n
        m, n = (int(p) for p in parts)
        return m, n
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shape must look like '64' or '64x48', got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="W-Cycle SVD reproduction: batched SVD on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list simulated devices")

    for name, help_text in (
        ("svd", "factorize a random batch (real math + profile)"),
        ("estimate", "price a workload and compare baselines"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--shape", type=_parse_shape, default=(64, 64))
        p.add_argument("--batch", type=int, default=10)
        p.add_argument("--device", default="V100")
        p.add_argument("--seed", type=int, default=0)
        if name == "estimate":
            continue  # an analytic walk runs in-process: no runtime flags
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="host worker count (must not exceed os.cpu_count())",
        )
        p.add_argument(
            "--backend",
            choices=BACKENDS,
            default=_default_backend(),
            help="host execution backend (results are bit-identical; "
            "default serial, or $REPRO_RUNTIME_BACKEND when set)",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=None,
            help="retries per failed task before degrading "
            "(default: plain executor; resilient wrapper defaults to 2)",
        )
        p.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            help="per-task deadline in seconds (default: no deadline)",
        )
        p.add_argument(
            "--on-failure",
            choices=("raise", "quarantine"),
            default="raise",
            help="quarantine: re-solve failing matrices on the reference "
            "path and report them instead of raising",
        )

    p = sub.add_parser("plan", help="tailoring + low-precision plans")
    p.add_argument("--shape", type=_parse_shape, default=(256, 256))
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--device", default="V100")

    from repro.serve.cli import add_serve_arguments

    p = sub.add_parser(
        "serve", help="micro-batching serving broker + load generator"
    )
    add_serve_arguments(p)

    p = sub.add_parser(
        "perf",
        help="performance-regression harness (also: repro-perf)",
        add_help=False,
    )
    # Everything after `perf` belongs to the repro-perf parser, which
    # owns its own subcommands, flags, and --help.
    p.add_argument("perf_args", nargs=argparse.REMAINDER)
    return parser


def cmd_devices() -> int:
    from repro.gpusim import available_devices, get_device

    print(
        f"{'device':<12} {'SMs':>4} {'FP64 peak':>11} {'bandwidth':>11} "
        f"{'SM/block':>9} {'warp':>5}"
    )
    for name in available_devices():
        d = get_device(name)
        print(
            f"{d.name:<12} {d.sm_count:>4} {d.peak_flops / 1e12:>9.2f} TF "
            f"{d.mem_bandwidth / 1e9:>8.0f} GB/s "
            f"{d.shared_mem_per_block // 1024:>6} KB {d.warp_size:>5}"
        )
    return 0


def cmd_svd(
    shape: tuple[int, int],
    batch: int,
    device: str,
    seed: int,
    workers: int = 1,
    backend: str = "serial",
    max_retries: int | None = None,
    task_timeout: float | None = None,
    on_failure: str = "raise",
) -> int:
    from repro import Profiler, WCycleSVD

    runtime = _resolve_runtime(
        workers, backend, max_retries, task_timeout, on_failure
    )
    rng = np.random.default_rng(seed)
    matrices = [rng.standard_normal(shape) for _ in range(batch)]
    profiler = Profiler()
    with WCycleSVD(device=device, runtime=runtime) as solver:
        results = solver.decompose_batch(matrices, profiler=profiler)
    err = results.max_reconstruction_error(matrices)
    head = ", ".join(f"{s:.4g}" for s in results[0].S[:5])
    print(
        f"{batch} x {shape[0]}x{shape[1]} on {device} "
        f"({runtime.backend}, {runtime.workers} worker(s))"
    )
    print(f"leading singular values of matrix 0: {head}")
    print(f"max reconstruction error: {err:.2e}")
    if results.failures is not None:
        print(results.failures.summary())
    print(profiler.report.summary())
    return 0


def cmd_estimate(shape: tuple[int, int], batch: int, device: str) -> int:
    from repro import WCycleEstimator
    from repro.baselines import CuSolverModel, MagmaModel

    shapes = [shape] * batch
    t_w = WCycleEstimator(device=device).estimate_time(shapes)
    t_c = CuSolverModel(device).estimate_time(shapes)
    t_m = MagmaModel(device).estimate_time(shapes)
    print(f"{batch} x {shape[0]}x{shape[1]} on {device} (simulated seconds)")
    print(f"  W-cycle SVD : {t_w:.6f}")
    print(f"  cuSOLVER    : {t_c:.6f}  ({t_c / t_w:.2f}x)")
    print(f"  MAGMA       : {t_m:.6f}  ({t_m / t_w:.2f}x)")
    return 0


def cmd_plan(shape: tuple[int, int], batch: int, device: str) -> int:
    from repro.core.lowprec import LowPrecisionPlanner
    from repro.gpusim import get_device
    from repro.tuning import AutoTuner

    m, n = shape
    result = AutoTuner(get_device(device)).select([shape] * batch)
    plan = result.plan
    print(
        f"tailoring plan for {batch} x {m}x{n} on {device}: "
        f"plan {plan.index} (w={plan.width}, delta={plan.delta}, "
        f"T={plan.threads}), TLP {result.tlp:,.0f}"
    )
    print("\nlow-precision level plans (paper §V-E outlook):")
    print(
        f"{'precision':<10} {'max w':>6} {'levels':>7} {'sweeps':>7} "
        f"{'rel. cost':>10} {'accuracy floor':>15}"
    )
    for p in LowPrecisionPlanner(device).compare(m, n):
        print(
            f"{p.precision.name:<10} {p.max_width:>6} {len(p.widths):>7} "
            f"{p.sweeps:>7} {p.relative_sweep_cost:>10.2f} "
            f"{p.accuracy_floor:>15.1e}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "devices":
            return cmd_devices()
        if args.command == "svd":
            return cmd_svd(
                args.shape, args.batch, args.device, args.seed,
                args.workers, args.backend,
                args.max_retries, args.task_timeout, args.on_failure,
            )
        if args.command == "estimate":
            return cmd_estimate(args.shape, args.batch, args.device)
        if args.command == "plan":
            return cmd_plan(args.shape, args.batch, args.device)
        if args.command == "serve":
            from repro.serve.cli import run_serve

            return run_serve(args)
        if args.command == "perf":
            from repro.perfci.cli import main as perf_main

            return perf_main(args.perf_args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
