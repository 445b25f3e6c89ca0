"""``repro-serve`` — drive the serving broker from the command line.

Starts an in-process :class:`~repro.serve.server.SVDServer`, runs the
closed-loop load generator against it, and prints the statistics
snapshot (queue depth, batch-fill histogram, latency quantiles). Also
reachable as ``python -m repro serve ...`` and as the ``repro-serve``
console script.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

__all__ = ["main", "build_parser", "run_serve", "parse_shape_mix"]


def _default_backend() -> str:
    """Serial, unless ``REPRO_RUNTIME_BACKEND`` names another backend —
    the env hook must reach the serve CLI like every other entry point
    that passes no explicit spec.

    argparse never validates a *default* against ``choices``, so a typo
    in the env var is rejected here as a clean usage error."""
    from repro.runtime import BACKENDS, BACKEND_ENV_VAR

    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name:
        return "serial"
    if name not in BACKENDS:
        raise SystemExit(
            f"repro-serve: {BACKEND_ENV_VAR}={name!r} is not a recognized "
            f"backend; expected one of: {', '.join(BACKENDS)}"
        )
    return name


def parse_shape_mix(text: str) -> tuple[tuple[int, int], ...]:
    """Parse ``"16x8,24x12,32"`` into a shape mix (``"32"`` = square)."""
    shapes = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        parts = token.split("x")
        try:
            if len(parts) == 1:
                n = int(parts[0])
                shapes.append((n, n))
            else:
                m, n = (int(p) for p in parts)
                shapes.append((m, n))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"shape mix must look like '16x8,24x12,32', got {text!r}"
            ) from None
    if not shapes:
        raise argparse.ArgumentTypeError("shape mix must name a shape")
    return tuple(shapes)


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The serving options, shared by ``repro-serve`` and ``repro serve``."""
    from repro.runtime import BACKENDS

    parser.add_argument(
        "--requests", type=int, default=200,
        help="total requests the load generator submits (default 200)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=16,
        help="closed-loop client threads (default 16)",
    )
    parser.add_argument(
        "--shapes", type=parse_shape_mix, default=((16, 8), (24, 12), (32, 16)),
        help="comma-separated shape mix, e.g. 16x8,24x12,32 "
        "(default 16x8,24x12,32x16)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32,
        help="largest fused batch per shape bucket (default 32)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="longest a request waits for co-batchable traffic "
        "(default 2.0; 0 = one-at-a-time)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=1024,
        help="bounded-queue depth; beyond it submits are rejected "
        "with ServerOverloaded (default 1024)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request relative deadline (EDF ordering + flush "
        "pressure; default none)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="engine executor workers (must not exceed os.cpu_count())",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS,
        default=_default_backend(),
        help="engine executor backend (default serial, or "
        "$REPRO_RUNTIME_BACKEND when set)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--verify-every", type=int, default=0,
        help="spot-check every n-th completion against a standalone "
        "solve (bitwise; default off)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Batched-SVD serving broker: dynamic micro-batching "
        "over the W-Cycle SVD engine",
    )
    add_serve_arguments(parser)
    return parser


def run_serve(args: argparse.Namespace) -> int:
    """Build the server from parsed args, run the load, print stats."""
    from repro.errors import ConfigurationError
    from repro.runtime import BACKENDS, RuntimeConfig
    from repro.serve.loadgen import LoadSpec, run_closed_loop
    from repro.serve.server import ServeConfig, SVDServer

    if args.workers > 1 and args.backend == "serial":
        flags = " or ".join(f"--backend {b}" for b in BACKENDS if b != "serial")
        raise ConfigurationError(
            f"--workers {args.workers} requires a parallel backend; add "
            f"{flags}"
        )
    runtime = RuntimeConfig(
        backend=args.backend,
        workers=args.workers,
        on_failure="quarantine",
    )
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
    )
    spec = LoadSpec(
        requests=args.requests,
        concurrency=args.concurrency,
        shapes=args.shapes,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        verify_every=args.verify_every,
    )
    with SVDServer(config, runtime=runtime) as server:
        report = run_closed_loop(server, spec)
    shapes = ", ".join(f"{m}x{n}" for m, n in args.shapes)
    print(
        f"{report.requests} requests ({shapes}) via {args.concurrency} "
        f"closed-loop clients on {args.backend} "
        f"({args.workers} worker(s))"
    )
    print(
        f"throughput: {report.throughput:,.0f} req/s "
        f"({report.elapsed * 1e3:.1f} ms total, "
        f"{report.overload_retries} overload retries)"
    )
    if report.verified:
        print(
            f"verified {report.verified} result(s) against standalone "
            f"solves: {report.mismatches} mismatch(es)"
        )
    print(report.server_stats.summary())
    for line in report.errors:
        print(f"  error: {line}")
    if report.failed or report.mismatches:
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    from repro.errors import ConfigurationError

    args = build_parser().parse_args(argv)
    try:
        return run_serve(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
