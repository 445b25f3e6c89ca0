"""Pivot-pair orderings for Jacobi sweeps.

A *sweep* visits every unordered pair ``(i, j)`` of the ``n`` columns (or
column blocks) exactly once. Parallel Jacobi methods additionally need the
sweep organized into *steps* of pairwise-disjoint pairs so the rotations in
one step commute and can run concurrently (paper §II-B, §IV-C).

Every ordering here implements :class:`Ordering`; use :func:`get_ordering`
to resolve one by name.
"""

from repro.orderings.base import Ordering, validate_sweep
from repro.orderings.round_robin import RoundRobinOrdering
from repro.orderings.odd_even import OddEvenOrdering
from repro.orderings.ring import RingOrdering
from repro.orderings.dynamic import DynamicOrdering
from repro.orderings.registry import (
    available_orderings,
    get_ordering,
    sweep_schedule,
)

__all__ = [
    "Ordering",
    "RoundRobinOrdering",
    "OddEvenOrdering",
    "RingOrdering",
    "DynamicOrdering",
    "available_orderings",
    "get_ordering",
    "sweep_schedule",
    "validate_sweep",
]
