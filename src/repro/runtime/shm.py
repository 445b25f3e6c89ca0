"""Zero-copy ndarray transport over ``multiprocessing.shared_memory``.

Pickling a stacked ``(b, m, n)`` float64 bucket to a worker process copies
it twice (serialize + deserialize). The shared-memory transport instead
writes the stack into a named POSIX shared-memory segment once; workers
map the segment and operate on a NumPy view of the *same* pages — the
handle crossing the pipe is just ``(name, shape, dtype)``.

Ownership protocol
------------------
- :func:`export_array` creates a segment and copies the array in; the
  caller owns it and must eventually :func:`release` it with
  ``unlink=True``.
- :func:`import_array` attaches to an existing segment and returns a view;
  the attaching side only ever closes its mapping.
- A worker returning results creates segments with
  ``transfer_ownership=True``, which unregisters them from the resource
  tracker so the parent (who attaches and unlinks) is the sole owner.

CPython's resource tracker on POSIX registers segments on *attach* as well
as create. Fork-context workers share the parent's tracker process, whose
name cache is a set — so the attach-side re-registration is a harmless
duplicate, and exactly one unregister happens per segment: at ``unlink``
for parent-owned segments, at the ownership hand-off for worker-created
ones (whose registration the parent's later attach restores until it
unlinks). Unregistering anywhere else would strip the owner's entry from
the shared tracker and make the final unlink complain.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator

import numpy as np

__all__ = [
    "SharedArrayRef",
    "export_array",
    "import_array",
    "release",
    "namespace",
    "current_namespace",
    "reclaim",
    "set_sanitizer",
]

#: When :mod:`repro.runtime.sanitize` is installed this holds its tracker;
#: the transport then reports every acquire/release for ownership auditing.
#: ``None`` (the default) keeps the hot path hook-free.
_SANITIZER = None


def set_sanitizer(tracker) -> None:
    """Attach (or detach, with ``None``) the runtime sanitizer's tracker."""
    global _SANITIZER
    _SANITIZER = tracker


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable handle to an ndarray living in a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str


# -- namespace scoping (crash forensics) ----------------------------------
#
# By default segments get the OS's anonymous ``psm_...`` names, which are
# untraceable after a worker dies holding one. Inside a ``namespace(...)``
# block — the resilient executor wraps every task in one, keyed by task —
# segments are created with a ``<prefix>_<pid>_<seq>`` name instead, so a
# failed task's strays can be found and reclaimed *by prefix* without
# touching any other task's live segments.

_ns_local = threading.local()
_seq_lock = threading.Lock()
_seq = 0


@contextmanager
def namespace(prefix: str) -> Iterator[None]:
    """Create this thread's segments under ``prefix`` for the block."""
    prev = getattr(_ns_local, "prefix", None)
    _ns_local.prefix = prefix
    try:
        yield
    finally:
        _ns_local.prefix = prev


def current_namespace() -> str | None:
    """The calling thread's active segment-name prefix, if any."""
    return getattr(_ns_local, "prefix", None)


def _next_name(prefix: str) -> str:
    global _seq
    with _seq_lock:
        _seq += 1
        return f"{prefix}_{os.getpid()}_{_seq}"


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    prefix = current_namespace()
    if prefix is None:
        return shared_memory.SharedMemory(create=True, size=nbytes)
    while True:
        name = _next_name(prefix)
        try:
            return shared_memory.SharedMemory(
                create=True, name=name, size=nbytes
            )
        except FileExistsError:  # pragma: no cover - stale leftover name
            continue


def _untrack(name: str) -> None:
    """Drop a segment's resource-tracker registration, quietly.

    The tracker is an emergency janitor for crashed processes; when a
    worker hands a segment to the parent, its create-time registration
    must be dropped so the parent's eventual ``unlink`` is the single
    unregister the (fork-shared) tracker sees.
    """
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:  # repro: noqa[EXC01] best-effort janitor hygiene:
        # the tracker's registry layout differs across CPython versions
        # and a failed unregister must never fail the hand-off itself.
        pass  # pragma: no cover - tracker internals vary


def export_array(
    arr: np.ndarray, *, transfer_ownership: bool = False
) -> tuple[shared_memory.SharedMemory | None, SharedArrayRef]:
    """Copy ``arr`` into a fresh shared-memory segment.

    Returns ``(segment, ref)``. With ``transfer_ownership=False`` the
    caller keeps the segment open (workers attach while it lives) and must
    :func:`release` it with ``unlink=True`` when done. With
    ``transfer_ownership=True`` — the worker-to-parent return path — the
    local mapping is closed, the local tracker registration dropped, and
    ``None`` is returned for the segment: the receiving process adopts the
    segment by attaching and unlinking it.
    """
    arr = np.ascontiguousarray(arr)
    seg = _create_segment(max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr
    ref = SharedArrayRef(
        name=seg.name, shape=tuple(arr.shape), dtype=arr.dtype.str
    )
    if transfer_ownership:
        # The local mapping closes right here, so the sanitizer never
        # tracks it: ownership (and audit responsibility) moves to the
        # process that attaches and unlinks.
        del view
        seg.close()
        _untrack(seg.name)
        return None, ref
    if _SANITIZER is not None:
        _SANITIZER.note_export(seg, seg.name)
    return seg, ref


def import_array(
    ref: SharedArrayRef,
) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a segment and view it as an ndarray (no copy).

    Keep the returned segment object alive for as long as the view is
    used, then :func:`release` it (``unlink=True`` only when adopting
    ownership). The attach-side tracker registration is a set-duplicate
    of the owner's and is consumed by the owner's unlink.
    """
    seg = shared_memory.SharedMemory(name=ref.name)
    try:
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
        if _SANITIZER is not None:
            _SANITIZER.note_import(seg, seg.name, view)
    except BaseException:
        # A bad ref (shape/dtype mismatch) must not leak the mapping.
        seg.close()
        raise
    return seg, view


def release(
    seg: shared_memory.SharedMemory | None, *, unlink: bool = False
) -> None:
    """Close a mapping and optionally destroy the segment (idempotent —
    except under the :mod:`~repro.runtime.sanitize` sanitizer, which
    treats a second release of the same segment as a protocol error)."""
    if seg is None:
        return
    if _SANITIZER is not None:
        _SANITIZER.note_release(seg, unlink)
    try:
        seg.close()
    except (OSError, ValueError):  # pragma: no cover - already closed
        pass
    if unlink:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


_SHM_DIR = "/dev/shm"


def reclaim(prefix: str) -> list[str]:
    """Destroy every named segment under ``prefix`` (crash cleanup).

    When a worker dies holding segments it created inside
    :func:`namespace`, nobody will ever release them — the resource
    tracker only reaps at interpreter exit. The resilient executor calls
    this with the dead task's prefix before retrying, so a retried task
    never accumulates stranded pages. Returns the reclaimed names.

    Prefixes are per *task*, never per run: a task's prefix scopes exactly
    the segments its attempts created, so reclaiming it cannot touch
    completed-but-unadopted result segments of other tasks.
    """
    if not prefix:
        return []
    reclaimed: list[str] = []
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-tmpfs platform
        return reclaimed
    for fname in sorted(os.listdir(_SHM_DIR)):
        if not fname.startswith(prefix):
            continue
        try:
            # Attach purely to destroy: close+unlink follow immediately and
            # nothing in between can raise, so no finally is needed.
            seg = shared_memory.SharedMemory(name=fname)  # repro: noqa[SHM01]
        except FileNotFoundError:  # pragma: no cover - raced another reaper
            continue
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - raced another reaper
            pass
        reclaimed.append(fname)
    if reclaimed and _SANITIZER is not None:
        _SANITIZER.note_reclaim(reclaimed)
    return reclaimed
