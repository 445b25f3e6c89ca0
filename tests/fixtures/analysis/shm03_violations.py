"""Seeded SHM03 violations: path-sensitive lifecycle breaks.

Lint corpus only — never imported. Each function releases its resource
on *some* path — the class of bug the lexical SHM01/SHM02 rules could
not see. The flow-sensitive engine walks the CFG's exception and
branch edges and reports the path that leaks.
"""

from repro.runtime.arena import resolve


def releases_on_happy_path_only(arena, stack):
    ref = arena.place(stack)
    view = resolve(ref)
    out = view.copy() * 2.0
    arena.release_lease(ref)
    return out


def releases_on_one_branch_only(arena, stack, fallback):
    ref = arena.place(stack)
    if fallback:
        out = None
    else:
        out = resolve(ref).copy()
        arena.release_lease(ref)
    return out


def early_return_skips_release(arena, fill, n):
    ref = arena.reserve((n, n), "float64")
    filled = fill(resolve(ref))
    if filled is None:
        return None
    arena.release_lease(ref)
    return filled
