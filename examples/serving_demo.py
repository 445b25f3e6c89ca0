"""Serving demo: asynchronous SVD requests through the micro-batching broker.

Many application threads each need "an SVD, now" — none of them holds a
batch, but together they *are* one. The broker recovers batched
throughput from that stream: requests coalesce per shape bucket, flush
as fused batches into the batch-vectorized engine, and fan back out to
per-request futures with results bit-identical to standalone solves.

Run:  python examples/serving_demo.py
"""

import threading

import numpy as np

from repro import SVDServer, ServeConfig
from repro.jacobi.batched import BatchedJacobiEngine


def main() -> None:
    config = ServeConfig(max_batch=16, max_wait_ms=2.0, max_pending=256)

    with SVDServer(config) as server:
        # --- the asynchronous surface: futures --------------------------
        rng = np.random.default_rng(7)
        matrices = [
            rng.standard_normal((16, 8) if i % 2 else (24, 12))
            for i in range(24)
        ]
        futures = [server.submit(a) for a in matrices]
        results = [f.result() for f in futures]
        print("asynchronous submits")
        print(f"  {len(results)} futures resolved")

        # Served factors are bit-identical to a standalone batch solve.
        reference = BatchedJacobiEngine().svd_batch(matrices)
        identical = all(
            np.array_equal(got.U, want.U)
            and np.array_equal(got.S, want.S)
            and np.array_equal(got.V, want.V)
            for got, want in zip(results, reference)
        )
        print(f"  bit-identical to standalone solves: {identical}")

        # --- blocking callers: many client threads ---------------------
        # Concurrency is what fills fused batches: each thread blocks on
        # its own request's future while the broker coalesces across
        # threads.
        def worker(seed: int) -> None:
            local = np.random.default_rng(seed)
            for _ in range(8):
                a = local.standard_normal((16, 8))
                res = server.submit(
                    a, priority=seed % 2, deadline_ms=50.0
                ).result()
                assert res.S.shape == (8,)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = server.stats()
        print("\nclient-thread traffic (8 threads x 8 solves)")
        print(f"  mean batch fill: {stats.mean_fill:.2f}")

        print("\nbroker statistics")
        print(stats.summary())


if __name__ == "__main__":
    main()
