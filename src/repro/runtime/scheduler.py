"""Cost estimates and deterministic shard planning for the runtime.

The scheduler's job is load balance without nondeterminism: every
partition decision is a pure function of (shapes, counts, worker count),
so two runs of the same batch produce the same shards in the same order —
a precondition for the runtime's bit-identical-results contract.

Costs are relative flop proxies, not absolute times: one stacked Jacobi
sweep over a ``(b, m, n)`` bucket does ``O(b * m * n^2)`` work, a
``(b, k, k)`` EVD bucket ``O(b * k^3)``, and a full W-cycle solve of one
``m x n`` matrix ``O(m * n * min(m, n))`` per outer sweep. Relative order
is all the LPT heuristic needs.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = [
    "svd_stack_cost",
    "evd_stack_cost",
    "wcycle_matrix_cost",
    "shard_count",
    "split_shards",
    "degradation_ladder",
    "retry_backoff",
]


def svd_stack_cost(shape: Sequence[int], count: int = 1) -> float:
    """Relative cost of stacked one-sided sweeps over ``count`` matrices.

    ``shape`` is the bucket's working shape ``(m, n)`` (``n <= m`` after
    the transpose-when-wide rule): each sweep touches ``n(n-1)/2`` pairs
    with ``O(m)`` dot products and updates.
    """
    m, n = int(shape[0]), int(shape[1])
    return float(count) * m * n * n


def evd_stack_cost(k: int, count: int = 1) -> float:
    """Relative cost of stacked two-sided EVD sweeps on ``k x k`` matrices."""
    k = int(k)
    return float(count) * k * k * k


def wcycle_matrix_cost(m: int, n: int) -> float:
    """Relative cost of one matrix's full W-cycle solve (level recursion)."""
    m, n = int(m), int(n)
    return float(m) * n * min(m, n)


def shard_count(
    bucket_size: int, workers: int, *, min_shard: int = 4
) -> int:
    """How many shards to cut a ``bucket_size``-matrix bucket into.

    Bounded by the worker count and by ``min_shard`` matrices per shard
    (tiny slices lose more to per-shard dispatch than they gain in
    overlap). Deterministic in its arguments.
    """
    if bucket_size < 1:
        raise ConfigurationError(
            f"bucket_size must be >= 1, got {bucket_size}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, bucket_size // max(1, min_shard)))


def split_shards(
    indices: Sequence[int], shards: int
) -> list[tuple[int, ...]]:
    """Split ``indices`` into ``shards`` contiguous, near-equal slices.

    Contiguity preserves the caller's stacking order inside each shard, so
    scattering shard results back reproduces the unsharded layout exactly.
    The first ``len % shards`` shards get one extra element (the
    ``np.array_split`` convention); empty shards are never produced.
    """
    indices = tuple(int(i) for i in indices)
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    shards = min(shards, len(indices)) or 1
    base, extra = divmod(len(indices), shards)
    out: list[tuple[int, ...]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        out.append(indices[start : start + size])
        start += size
    return out


def degradation_ladder(backend: str) -> tuple[str, ...]:
    """Backend fallback order for retried tasks (most to least capable).

    A task that keeps failing on the persistent pool retries on the
    serial rung: worker-pool faults (dead workers, wedged tasks) cannot
    reproduce there, and it is also the bit-exact reference, so a task
    that survives anywhere produces identical results everywhere. The
    serial rung runs inline in the caller's thread, on the caller's
    arrays: it has no pool for a missed deadline to leave a stuck worker
    in.
    """
    if backend == "persistent":
        return ("persistent", "serial")
    if backend == "serial":
        return ("serial",)
    raise ConfigurationError(
        f"no degradation ladder for unknown backend {backend!r}"
    )


def retry_backoff(
    attempt: int, *, base: float = 0.02, cap: float = 1.0
) -> float:
    """Deterministic exponential backoff delay before retry ``attempt``.

    ``attempt`` is 1-based (the first *retry*). No jitter by design: the
    runtime's contract is reproducibility, and the retry schedule is part
    of observable behavior under fault injection.
    """
    if attempt < 1:
        raise ConfigurationError(
            f"backoff attempt must be >= 1, got {attempt}"
        )
    if base < 0.0 or cap < 0.0:
        raise ConfigurationError(
            f"backoff base/cap must be >= 0, got base={base} cap={cap}"
        )
    return min(cap, base * (2.0 ** (attempt - 1)))
