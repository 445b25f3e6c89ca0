"""Pre-pinned shared-memory arenas with a slot-lease protocol.

Why arenas.  A fresh ``multiprocessing.shared_memory`` segment per
dispatched unit means the parent exports every stack (create + copy +
registry bookkeeping), every worker attaches and detaches it, and the
parent unlinks once the pickled result lands.  On small buckets that
setup dwarfs the factorization itself.  An :class:`Arena` hoists all of
it out of the dispatch loop: a handful of large segments are created
**once**, carved into fixed-size slots, and a batch merely *leases* a
slot (pops an index off a free list), writes into it, and returns it once
the result has been adopted.  Workers map each segment a single time —
eagerly at spawn via :func:`attach`, or lazily on first touch via
:func:`resolve` — and keep the mapping for their whole lifetime.  The
persistent backend is the only worker transport; its tasks carry
:class:`SlotRef` handles in place of arrays.

Ownership protocol.  The parent owns every segment and every lease:

- :meth:`Arena.place` / :meth:`Arena.reserve` lease a slot (``place``
  also copies an array in); both return a picklable :class:`SlotRef`.
- A worker calls :func:`resolve` on a ref to get a zero-copy ndarray
  window onto the slot — input slots are read, output slots are written
  in place, and only tiny metadata travels back over the pipe.
- The parent adopts results with :meth:`Arena.view` and MUST return every
  lease with :meth:`Arena.release_lease`, normally from a ``finally``
  block once the factors have been finalized.  The ``repro-lint`` rule
  ``SHM03`` audits this pairing, and use of a view after its release,
  statically.
- The arena enforces the protocol at run time, on every run:
  :meth:`Arena.release_lease` raises on a double or foreign release, and
  :meth:`Arena.view` refuses a lease that is not outstanding.
- :meth:`Arena.close` unlinks every segment.  Worker death never strands
  a lease: the free list lives in the parent, so a crashed attempt's slot
  is returned by the same ``finally`` block that serves the clean path,
  and a respawned pool re-attaches the unchanged segments by name.

Slots within one segment are uniformly sized.  A reservation that fits no
existing free slot grows the arena by appending a segment whose slot size
covers the request (rounded to a power of two); growth is rare once the
first few batches have sized the arena to the workload's buckets.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime import faults
from repro.utils.logging import get_logger

__all__ = [
    "Arena",
    "ArenaSpec",
    "SlotRef",
    "attach",
    "resolve",
    "stranded_segments",
]

_log = get_logger("runtime.arena")

#: Default byte size of one slot in a freshly created arena.
DEFAULT_SLOT_BYTES = 1 << 20

#: Default number of slots per segment (first segment and growth alike).
DEFAULT_SLOTS_PER_SEGMENT = 16

#: Every arena segment name starts with this; chaos tests and janitors
#: scan ``/dev/shm`` for it to prove nothing is stranded.
ARENA_PREFIX = "rparena"

_SHM_DIR = "/dev/shm"

_arena_seq = 0
_arena_seq_lock = threading.Lock()


@dataclass(frozen=True)
class SlotRef:
    """A picklable handle to one leased slot window.

    Travels in task manifests instead of the array payload.  ``segment``
    names the shared-memory segment, ``offset`` the byte position of the
    slot, and ``shape``/``dtype`` describe the ndarray window a worker
    materialises with :func:`resolve`.
    """

    segment: str
    slot: int
    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ArenaSpec:
    """The attach manifest shipped to a worker at spawn/respawn time.

    Only segment *names* travel — ``SharedMemory`` attaches by name, and
    segments created by later growth are picked up lazily by
    :func:`resolve`, so a spec is never stale in a harmful way.
    """

    segments: tuple[str, ...]


# ---------------------------------------------------------------------------
# process-wide segment registry
# ---------------------------------------------------------------------------
# Maps segment name -> attached SharedMemory.  The arena-owning parent
# registers segments at creation; workers insert attachments here (once
# per segment, eagerly via attach() or lazily via resolve()).  Forked
# children inherit the parent's mappings, which stay valid across fork.

_registry_lock = threading.Lock()
_registry: dict[str, shared_memory.SharedMemory] = {}


def _untrack(name: str) -> None:
    """Drop a segment's resource-tracker registration, quietly."""
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:  # repro: noqa[EXC01] best-effort janitor hygiene:
        # the tracker's registry layout differs across CPython versions
        # and a failed unregister must never fail the attach itself.
        pass  # pragma: no cover - tracker internals vary


def attach(spec: ArenaSpec) -> int:
    """Map every segment in ``spec`` into this process (idempotent).

    Called by persistent workers once at spawn — the whole point of the
    arena is that no further per-task attach happens.  Returns the number
    of segments newly mapped.
    """
    fresh = 0
    for name in spec.segments:
        if _attach_segment(name, existing_ok=True) is not None:
            fresh += 1
    return fresh


def _attach_segment(
    name: str, *, existing_ok: bool
) -> shared_memory.SharedMemory | None:
    """Attach ``name`` if not already mapped; return the new handle."""
    with _registry_lock:
        if name in _registry:
            if not existing_ok:
                raise ConfigurationError(f"arena segment {name!r} already mapped")
            return None
        seg = shared_memory.SharedMemory(name=name)
        _registry[name] = seg
        # CPython registers attaches with the fork-shared resource
        # tracker just like creates; drop the duplicate so the owning
        # parent's unlink stays the single unregister the tracker sees.
        # (Registry first: once mapped, the registry owns the handle.)
        _untrack(name)
        return seg


def resolve(ref: SlotRef) -> np.ndarray:
    """Materialise the ndarray window for a leased slot (zero-copy).

    Works in the owning parent (segments registered at creation) and in
    persistent workers (attached at spawn, or lazily here for segments
    the arena grew after the pool came up). Inside a fault frame an armed
    ``shm_lost`` clause fires here, as the task maps its slot.
    """
    faults.on_segment_attach(ref.segment)
    seg = _registry.get(ref.segment)
    if seg is None:
        _attach_segment(ref.segment, existing_ok=True)
        seg = _registry[ref.segment]
    return np.ndarray(ref.shape, dtype=ref.dtype, buffer=seg.buf, offset=ref.offset)


def _forget(names: Iterable[str]) -> None:
    """Drop registry entries for segments the owning arena destroyed."""
    with _registry_lock:
        for name in names:
            _registry.pop(name, None)


# ---------------------------------------------------------------------------
# the arena proper
# ---------------------------------------------------------------------------


class _Segment:
    """One shared-memory segment carved into equal slots."""

    __slots__ = ("name", "shm", "slot_bytes", "nslots", "free")

    def __init__(
        self, name: str, shm: shared_memory.SharedMemory, slot_bytes: int, nslots: int
    ) -> None:
        self.name = name
        self.shm = shm
        self.slot_bytes = slot_bytes
        self.nslots = nslots
        #: LIFO free list of slot indices — reuse keeps pages warm.
        self.free = list(range(nslots - 1, -1, -1))


def _destroy_segments(shms: list[shared_memory.SharedMemory]) -> None:
    """Unmap and unlink segments (finalizer target — must not ref the Arena)."""
    for seg in shms:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - an adopted view is still live
            pass  # the /dev/shm entry still dies below; pages free at exit
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
    shms.clear()


class Arena:
    """A parent-owned pool of pre-pinned shared-memory slots.

    ``slot_bytes``/``slots_per_segment`` size the first segment; later
    segments are added as reservations need them.  All methods are
    thread-safe; the free list and lease table live exclusively in the
    owning parent.
    """

    def __init__(
        self,
        *,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        slots_per_segment: int = DEFAULT_SLOTS_PER_SEGMENT,
    ) -> None:
        if slot_bytes <= 0 or slots_per_segment <= 0:
            raise ConfigurationError(
                "arena slot_bytes and slots_per_segment must be positive, got "
                f"{slot_bytes} / {slots_per_segment}"
            )
        global _arena_seq
        with _arena_seq_lock:
            seq = _arena_seq
            _arena_seq += 1
        self._prefix = f"{ARENA_PREFIX}{os.getpid()}x{seq}"
        self._default_slot_bytes = slot_bytes
        self._slots_per_segment = slots_per_segment
        self._lock = threading.Lock()
        self._segments: list[_Segment] = []
        self._leased: dict[tuple[str, int], SlotRef] = {}
        self._closed = False
        self._counters = {"leases": 0, "returns": 0, "grown_segments": 0}
        #: Shared with the finalizer so segments created later are covered.
        self._owned_shms: list[shared_memory.SharedMemory] = []
        self._finalizer = weakref.finalize(self, _destroy_segments, self._owned_shms)
        self._add_segment(slot_bytes, slots_per_segment)

    # -- sizing ----------------------------------------------------------

    def _add_segment(self, slot_bytes: int, nslots: int) -> _Segment:
        """Create, register, and index a fresh segment (lock held or init)."""
        name = f"{self._prefix}s{len(self._segments)}"
        shm = shared_memory.SharedMemory(  # repro: noqa[SHM01] ownership
            # moves to self._owned_shms; the weakref finalizer (and
            # close()) unmaps and unlinks every segment in that list.
            name=name, create=True, size=slot_bytes * nslots
        )
        seg = _Segment(name, shm, slot_bytes, nslots)
        self._segments.append(seg)
        self._owned_shms.append(shm)
        with _registry_lock:
            _registry[name] = shm
        return seg

    @staticmethod
    def _fit_slot_bytes(nbytes: int) -> int:
        """Power-of-two slot size covering ``nbytes``."""
        return 1 << max(1, int(nbytes) - 1).bit_length()

    # -- lease protocol --------------------------------------------------

    def reserve(self, shape: tuple[int, ...], dtype: np.dtype | str) -> SlotRef:
        """Lease an output slot large enough for ``shape``/``dtype``."""
        dt = np.dtype(dtype)
        nbytes = math.prod(shape) * dt.itemsize
        with self._lock:
            self._check_open()
            seg = self._find_free(nbytes)
            if seg is None:
                slot_bytes = max(
                    self._default_slot_bytes, self._fit_slot_bytes(nbytes)
                )
                seg = self._add_segment(slot_bytes, self._slots_per_segment)
                self._counters["grown_segments"] += 1
            slot = seg.free.pop()
            ref = SlotRef(seg.name, slot, slot * seg.slot_bytes, tuple(shape), dt.str)
            self._leased[(seg.name, slot)] = ref
            self._counters["leases"] += 1
        return ref

    def _find_free(self, nbytes: int) -> _Segment | None:
        """First segment with a free slot that fits (lock held)."""
        for seg in self._segments:
            if seg.free and seg.slot_bytes >= nbytes:
                return seg
        return None

    def place(self, arr: np.ndarray) -> SlotRef:
        """Lease an input slot and copy ``arr`` into it."""
        arr = np.ascontiguousarray(arr)
        ref = self.reserve(arr.shape, arr.dtype)
        resolve(ref)[...] = arr
        return ref

    def view(self, ref: SlotRef) -> np.ndarray:
        """Parent-side window onto a leased slot (zero-copy adoption)."""
        with self._lock:
            self._check_open()
            if (ref.segment, ref.slot) not in self._leased:
                raise ConfigurationError(
                    f"arena slot {ref.segment}[{ref.slot}] is not leased — "
                    "views may only adopt outstanding leases"
                )
        return resolve(ref)

    def release_lease(self, ref: SlotRef) -> None:
        """Return a leased slot to the free list.

        A second release of the same lease is a protocol error (the slot
        may already be leased to someone else).
        """
        with self._lock:
            if self._closed:
                return
            key = (ref.segment, ref.slot)
            if key not in self._leased:
                raise ConfigurationError(
                    f"arena slot {ref.segment}[{ref.slot}] is not outstanding — "
                    "double release or foreign ref"
                )
            del self._leased[key]
            for seg in self._segments:
                if seg.name == ref.segment:
                    seg.free.append(ref.slot)
                    break
            self._counters["returns"] += 1

    # -- introspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def spec(self) -> ArenaSpec:
        with self._lock:
            self._check_open()
            return ArenaSpec(tuple(seg.name for seg in self._segments))

    def outstanding(self) -> int:
        with self._lock:
            return len(self._leased)

    def stats(self) -> dict[str, int]:
        """Lease-protocol counters for the dispatch-overhead breakdown."""
        with self._lock:
            out = dict(self._counters)
            out["outstanding"] = len(self._leased)
            out["segments"] = len(self._segments)
            out["capacity_bytes"] = sum(
                seg.slot_bytes * seg.nslots for seg in self._segments
            )
        return out

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        """Unmap and unlink every segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            names = [seg.name for seg in self._segments]
            self._leased.clear()
            self._segments.clear()
        _forget(names)
        self._finalizer()

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("arena is closed")

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._segments)} segments"
        return f"Arena({self._prefix}, {state}, outstanding={len(self._leased)})"


def stranded_segments() -> list[str]:
    """Names of arena segments currently present in ``/dev/shm``.

    Chaos and serve tests call this after teardown to prove the lease
    protocol stranded nothing (empty list expected).
    """
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux hosts
        return []
    return sorted(n for n in names if n.startswith(ARENA_PREFIX))
