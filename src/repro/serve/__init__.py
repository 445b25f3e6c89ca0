"""Batched-SVD serving layer: a dynamic micro-batching request broker.

Every other entry point in the repository is a one-shot batch call — the
caller already holds all of its matrices. This package serves the
*streaming* shape of the same workload: independent SVD requests arrive
asynchronously (from many threads, with priorities and deadlines), and
throughput still has to come from the batch axis. The broker recovers it
with the inference-serving pattern: coalesce pending requests into
shape-uniform fused batches (the paper's size-oblivious batching,
applied across *requests* instead of within one call), dispatch each
fused batch through the existing batch-vectorized engine, and fan the
per-matrix results — and failures — back out to per-request futures.

- :mod:`repro.serve.server` — :class:`SVDServer`: admission control and
  bounded-queue backpressure, the dispatch loop, per-request failure
  fan-out, statistics;
- :mod:`repro.serve.batcher` — :class:`MicroBatcher`: per-shape bucket
  queues, priority + earliest-deadline-first ordering, fill /
  ``max_wait`` / deadline-pressure flush triggers;
- :mod:`repro.serve.request` — :class:`ServeRequest` / future types;
- :mod:`repro.serve.fanout` — fused-stack position -> request id
  translation (the mapping every failure must cross);
- :mod:`repro.serve.stats` — :class:`ServerStats` snapshots;
- :mod:`repro.serve.loadgen` — the closed-loop load generator behind
  ``repro-serve``, the serving benchmark, and the CI smoke job.

The serving contract mirrors the runtime's: a served result is
bit-identical to a standalone solve of the same matrix — micro-batching
changes scheduling, never arithmetic.
"""

from repro.serve.batcher import FLUSH_CAUSES, FusedBatch, MicroBatcher
from repro.serve.fanout import (
    positions_to_request_ids,
    remap_fused_failure,
    report_by_request,
)
from repro.serve.loadgen import LoadReport, LoadSpec, run_closed_loop
from repro.serve.request import ServeRequest, SVDFuture
from repro.serve.server import ServeConfig, SVDServer
from repro.serve.stats import ServerStats

__all__ = [
    "FLUSH_CAUSES",
    "FusedBatch",
    "MicroBatcher",
    "SVDFuture",
    "SVDServer",
    "ServeConfig",
    "ServeRequest",
    "ServerStats",
    "LoadReport",
    "LoadSpec",
    "run_closed_loop",
    "positions_to_request_ids",
    "remap_fused_failure",
    "report_by_request",
]
