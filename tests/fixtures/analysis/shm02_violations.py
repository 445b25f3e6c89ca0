"""Seeded SHM02 violations: arena slot-lease lifecycle breaks.

Lint corpus only — never imported.
"""

from repro.runtime.arena import resolve


def leaks_lease(arena, stack):
    ref = arena.place(stack)
    return stack.sum()


def releases_outside_finally(arena, shape):
    ref = arena.reserve(shape, "float64")
    out = resolve(ref).copy()
    arena.release_lease(ref)
    return out


def uses_view_after_release(arena, stack):
    ref = arena.place(stack)
    try:
        window = resolve(ref)
    finally:
        arena.release_lease(ref)
        total = window.sum()
    return total
