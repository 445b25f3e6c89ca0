"""In-process client over an :class:`~repro.serve.server.SVDServer`.

The client is the synchronous convenience surface: it submits on the
caller's behalf and blocks on the returned futures, so application code
that just wants "an SVD, served" never touches futures or batching
knobs. Many clients (one per application thread) can share one server —
that concurrency is exactly what fills the micro-batcher's buckets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.serve.request import SVDFuture
from repro.serve.server import SVDServer
from repro.types import SVDResult

__all__ = ["SVDClient"]


class SVDClient:
    """Blocking request helpers bound to one server.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.serve import SVDClient, SVDServer
    >>> rng = np.random.default_rng(0)
    >>> with SVDServer() as server:
    ...     client = SVDClient(server)
    ...     result = client.solve(rng.standard_normal((16, 8)))
    >>> result.S.shape
    (8,)
    """

    def __init__(self, server: SVDServer) -> None:
        self.server = server

    def submit(
        self,
        matrix: np.ndarray,
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> SVDFuture:
        """Asynchronous submit (passes through to the server)."""
        return self.server.submit(
            matrix, priority=priority, deadline_ms=deadline_ms
        )

    def solve(
        self,
        matrix: np.ndarray,
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> SVDResult:
        """Submit one matrix and block for its result.

        ``timeout`` bounds the wait on the future (seconds); the
        request's failure (convergence, overload at submit, shutdown)
        raises here, in the caller that owns it.
        """
        return self.submit(
            matrix, priority=priority, deadline_ms=deadline_ms
        ).result(timeout=timeout)

    def solve_batch(
        self,
        matrices: Sequence[np.ndarray],
        *,
        priority: int = 0,
        deadline_ms: float | None = None,
        timeout: float | None = None,
    ) -> list[SVDResult]:
        """Submit a batch and block for all results, in submit order.

        Submitting everything before waiting lets the micro-batcher fuse
        the whole set — this is the client-side route to batched
        throughput for a caller that already holds many matrices.
        """
        futures = [
            self.submit(a, priority=priority, deadline_ms=deadline_ms)
            for a in matrices
        ]
        return [f.result(timeout=timeout) for f in futures]
