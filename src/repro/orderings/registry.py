"""Name-based registry for orderings."""

from __future__ import annotations

import functools

from repro.errors import ConfigurationError
from repro.orderings.base import Ordering
from repro.orderings.odd_even import OddEvenOrdering
from repro.orderings.ring import RingOrdering
from repro.orderings.round_robin import RoundRobinOrdering

__all__ = [
    "available_orderings",
    "get_ordering",
    "sweep_schedule",
]

# The orderings are stateless schedule generators (``sweep(n)`` is a pure
# function of ``n``), so one shared instance per name suffices.
_REGISTRY: dict[str, Ordering] = {
    cls.name: cls()
    for cls in (RoundRobinOrdering, OddEvenOrdering, RingOrdering)
}


def get_ordering(name: str) -> Ordering:
    """The shared instance of the ordering registered as ``name``.

    Anything but a registered name raises :class:`ConfigurationError`.
    """
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown ordering {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


@functools.lru_cache(maxsize=256)
def sweep_schedule(
    name: str, n: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Memoized pivot schedule of the ordering ``name`` at problem size ``n``.

    Orderings generate their sweep as a pure function of ``n``, so the
    schedule is computed once per ``(name, n)`` and shared across solver
    instances, W-cycle levels, and serve batches. Empty steps are dropped
    (every consumer skips them anyway). The returned tuples are immutable;
    callers that need mutable lists must copy.
    """
    return tuple(
        tuple(step) for step in get_ordering(name).sweep(n) if step
    )


def available_orderings() -> list[str]:
    """Sorted names of all registered orderings."""
    return sorted(_REGISTRY)
