"""Fused sweep kernels: pair-adjacent layouts for the stacked Jacobi solvers.

The stacked solvers in :mod:`repro.jacobi.batched` historically executed
each ordering *step* as one vectorized call, but the step itself gathered
pivot columns with fancy indexing (six strided gather/scatter passes per
step) and the per-step Python loop dominated wall-clock for small
matrices. This module removes both costs, the NumPy analogue of fusing a
sweep into a single batched kernel launch:

**Pair-adjacent layouts.** For every ordering step a column permutation is
precomputed that places the step's pivot pairs in adjacent slots. The
working stack is kept *transposed* as ``T`` with shape ``(n, b, m)``
(column-major over the batch: slot ``s`` of ``T`` is column ``s`` of every
matrix in the stack), so one ``np.take`` along axis 0 realizes the
permutation as a single contiguous copy, every pair view is
``T[:2p].reshape(p, 2, b, m)``, and the whole step's rotations apply as one
two-operand ``einsum`` against a ``(p, 2, 2, b)`` stack of Givens blocks.
Consecutive step permutations are *composed* — each step gathers directly
from the previous step's layout, and the canonical column order is restored
once per sweep. The arithmetic is ordered so results are bit-identical to
the per-matrix reference solvers,
:class:`~repro.jacobi.onesided_vector.OneSidedJacobiSVD` and
:class:`~repro.jacobi.parallel_evd.ParallelJacobiEVD` (the einsum
contractions reduce in the same operand order as the reference ufunc
expressions; the test suite compares the two byte for byte), up to the
sign of rotated zeros (see :class:`FusedEVDSweeper`).

**Zero-gather odd-even specialization.** The odd-even (brick) ordering's
steps are adjacent transpositions of the *current* layout, so its plan
needs no gathers at all: each step rotates an offset view ``T[off:off+2p]``
in place (ping-pong buffers), folding the pair swap into the rotation
block, and the layout is restored once per sweep from the final
permutation. The builder self-validates against the ordering's emitted
schedule and falls back to the gather plan when the schedule deviates
(e.g. a deduplicated phase).

**Tall stacks arrive as their triangular factors.** The stacked solver
hands a tall stack (``m >= 2n``) to the sweeper as its ``n x n`` factors
``R`` (:func:`repro.jacobi.preconditioning.qr_detour`), so a step's
inner products and rotations run on fewer than ``2n`` rows.

**A one-sided step allocates nothing.** At the sizes served batches and
W-cycle leaves solve, a step's arrays hold a few dozen entries, and what
surrounds each NumPy call (a fresh output, a new view, a Python wrapper)
costs as much as the call. Every array, view and temporary a one-sided
step uses lives in a per-stack workspace built with the sweeper (rebuilt
only when converged members drop out), and each call writes ``out=``
into it.

Plans (step permutations, index arrays, orientation masks) are immutable
and memoized per ``(ordering, n)``; rotation scratch buffers are pooled per
solver so repeated ``solve_stack`` calls (buckets, W-cycle levels, serve
batches) reuse them.

Determinism: this module takes no clock of its own (DET01); kernel-time
breakdowns are accumulated into a :class:`KernelTimes` whose clock callable
is injected by the caller (benchmarks pass ``time.perf_counter``).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

# A sweep step makes about 40 NumPy calls on arrays of a few dozen
# entries, where looking each callable up on the module would cost a
# sixth of the call, so the step's callables are bound here once.
from numpy import (
    absolute,
    add,
    copyto,
    count_nonzero,
    divide,
    einsum,
    fmin,
    greater,
    isfinite,
    less_equal,
    logical_not,
    maximum,
    multiply,
    negative,
    putmask,
    sqrt,
    square,
    subtract,
)

from repro.jacobi.convergence import symmetric_offdiagonal_cosines
from repro.jacobi.rotations import rotation_cs_quiet
from repro.orderings import Ordering, sweep_schedule
from repro.runtime import faults

__all__ = [
    "KernelTimes",
    "ScratchPool",
    "SweepPlan",
    "FusedEVDSweeper",
    "FusedSVDSweeper",
    "sweep_plan",
]

_Schedule = tuple[tuple[tuple[int, int], ...], ...]


# ---------------------------------------------------------------------------
# kernel-time breakdown
# ---------------------------------------------------------------------------


@dataclass
class KernelTimes:
    """Per-segment kernel-time accumulator for the fused sweep executors.

    Segments mirror the GPU kernel phases of the paper's batched solver:

    - ``gram``: the inner products (``a_ij`` einsums);
    - ``rotate``: layout gathers/restores, rotation-parameter math (Eq. 4)
      and the fused rotation einsums;
    - ``norms``: Eq. 6 squared-norm updates and the per-sweep exact
      refresh;
    - ``converge``: cosine/floor evaluation and the per-sweep convergence
      reduction.

    The ``clock`` callable is injected by the caller (hot-path modules may
    not take wall-clock time themselves — lint rule DET01); pass
    ``time.perf_counter`` from benchmarks.
    """

    clock: Callable[[], float]
    gram: float = 0.0
    rotate: float = 0.0
    norms: float = 0.0
    converge: float = 0.0
    sweeps: int = 0

    def lap(self, t0: float, segment: str) -> float:
        """Charge ``clock() - t0`` to ``segment``; return the new mark."""
        t1 = self.clock()
        setattr(self, segment, getattr(self, segment) + (t1 - t0))
        return t1

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready breakdown (seconds per segment, total sweeps run)."""
        return {
            "gram_s": self.gram,
            "rotate_s": self.rotate,
            "norms_s": self.norms,
            "converge_s": self.converge,
            "sweeps": self.sweeps,
        }


# ---------------------------------------------------------------------------
# sweep plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GatherStep:
    """One step executed by permuting the stack into pair-adjacent order.

    ``gather`` maps the *previous* step's layout into this step's layout
    (compositions are pre-folded, so each step costs one ``np.take``).
    ``idx_i``/``idx_j`` are the canonical column ids of the step's pairs,
    in slot order.
    """

    n_pairs: int
    gather: np.ndarray
    idx_i: np.ndarray
    idx_j: np.ndarray

    @functools.cached_property
    def gather_both(self) -> np.ndarray:
        """``gather`` applied to the rows and the columns of a ``k x k``
        matrix at once, as one index into its flattened entries."""
        return _both_axes(self.gather)


def _both_axes(perm: np.ndarray) -> np.ndarray:
    """The flat index that permutes the rows and the columns of a
    flattened ``k x k`` matrix by ``perm``: entry ``(i, j)`` of the result
    is entry ``(perm[i], perm[j])``."""
    k = len(perm)
    flat = (perm[:, None] * k + perm[None, :]).ravel()
    flat.setflags(write=False)
    return flat


@dataclass(frozen=True, eq=False)
class NeighborStep:
    """One odd-even step: pairs are already adjacent at ``offset``.

    ``orient[q]`` is True when slot pair ``q`` currently stores its pivot
    pair as ``(j, i)`` (the walking permutation has the larger column id
    first); the executor folds the orientation and the post-step slot swap
    into the rotation block, so the step performs no gather at all.
    """

    offset: int
    n_pairs: int
    orient: np.ndarray
    idx_i: np.ndarray
    idx_j: np.ndarray

    @functools.cached_property
    def orient_rows(self) -> np.ndarray:
        """``orient`` as a ``(p, 1)`` column, against ``(p, b)`` arrays."""
        return self.orient[:, None]

    @functools.cached_property
    def orient_blocks(self) -> np.ndarray:
        """``orient`` as ``(p, 1, 1)``, against ``(p, 2, b)`` arrays."""
        return self.orient[:, None, None]


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """Precompiled execution plan for one full sweep at problem size ``n``.

    ``kind`` is ``"gather"`` (generic, any ordering) or ``"neighbor"``
    (odd-even zero-gather specialization). ``restore`` gathers the final
    in-sweep layout back to canonical column order, applied once per
    sweep.
    """

    kind: str
    n: int
    steps: tuple
    restore: np.ndarray

    @functools.cached_property
    def pairs(self) -> int:
        """Pairs one sweep rotates (``n (n - 1) / 2`` for a full sweep)."""
        return sum(step.n_pairs for step in self.steps)

    @functools.cached_property
    def restore_both(self) -> np.ndarray:
        """``restore`` for the rows and columns of a flattened matrix
        (see :attr:`GatherStep.gather_both`)."""
        return _both_axes(self.restore)


def _pair_arrays(step: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    idx_i = np.fromiter((p[0] for p in step), dtype=np.intp, count=len(step))
    idx_j = np.fromiter((p[1] for p in step), dtype=np.intp, count=len(step))
    idx_i.setflags(write=False)
    idx_j.setflags(write=False)
    return idx_i, idx_j


def _build_gather_plan(schedule: _Schedule, n: int) -> SweepPlan:
    steps = []
    prev = np.arange(n)
    for step in schedule:
        in_pairs = [c for ij in step for c in ij]
        seen = set(in_pairs)
        layout = np.asarray(
            in_pairs + [c for c in range(n) if c not in seen], dtype=np.intp
        )
        inv = np.empty(n, dtype=np.intp)
        inv[prev] = np.arange(n)
        gather = inv[layout]
        gather.setflags(write=False)
        idx_i, idx_j = _pair_arrays(step)
        steps.append(GatherStep(len(step), gather, idx_i, idx_j))
        prev = layout
    restore = np.empty(n, dtype=np.intp)
    restore[prev] = np.arange(n)
    restore.setflags(write=False)
    return SweepPlan("gather", n, tuple(steps), restore)


def _build_neighbor_plan(schedule: _Schedule, n: int) -> SweepPlan | None:
    """Zero-gather plan for schedules that walk adjacent transpositions.

    Simulates the odd-even permutation walk and checks, phase by phase,
    that the ordering's emitted step equals the adjacent slot pairs of the
    walk. Returns ``None`` on any mismatch (the caller falls back to the
    gather plan), so the specialization can never silently change the
    schedule.
    """
    perm = list(range(n))
    steps = []
    target = n * (n - 1) // 2
    seen = 0
    phase = 0
    si = 0
    while seen < target and phase < 4 * n:
        start = phase % 2
        slot_pairs = [(perm[k], perm[k + 1]) for k in range(start, n - 1, 2)]
        emitted = tuple((min(a, b), max(a, b)) for a, b in slot_pairs)
        if not slot_pairs or si >= len(schedule) or schedule[si] != emitted:
            return None
        orient = np.fromiter(
            (a > b for a, b in slot_pairs), dtype=bool, count=len(slot_pairs)
        )
        orient.setflags(write=False)
        idx_i, idx_j = _pair_arrays(emitted)
        steps.append(
            NeighborStep(start, len(slot_pairs), orient, idx_i, idx_j)
        )
        seen += len(emitted)
        si += 1
        for k in range(start, n - 1, 2):
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
        phase += 1
    if si != len(schedule):
        return None
    restore = np.empty(n, dtype=np.intp)
    restore[perm] = np.arange(n)
    restore.setflags(write=False)
    return SweepPlan("neighbor", n, tuple(steps), restore)


def _build_plan(schedule: _Schedule, n: int, try_neighbor: bool) -> SweepPlan:
    if try_neighbor:
        plan = _build_neighbor_plan(schedule, n)
        if plan is not None:
            return plan
    return _build_gather_plan(schedule, n)


@functools.lru_cache(maxsize=256)
def _cached_sweep_plan(name: str, n: int, allow_neighbor: bool) -> SweepPlan:
    return _build_plan(
        sweep_schedule(name, n),
        n,
        try_neighbor=allow_neighbor and name == "odd-even",
    )


def sweep_plan(
    ordering: str | Ordering, n: int, *, allow_neighbor: bool = True
) -> SweepPlan:
    """Resolve (and for named orderings, memoize) the fused sweep plan.

    ``allow_neighbor=False`` forces the generic gather plan — used by
    executors (the fused EVD) that do not implement the odd-even
    zero-gather specialization.
    """
    if isinstance(ordering, str):
        return _cached_sweep_plan(ordering, n, allow_neighbor)
    schedule = tuple(tuple(step) for step in ordering.sweep(n) if step)
    return _build_plan(
        schedule,
        n,
        try_neighbor=allow_neighbor
        and getattr(ordering, "name", None) == "odd-even",
    )


def _compact_rows(arr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Drop masked-out batch rows (axis 0) without redundant copies.

    Boolean-mask selection already yields a C-contiguous array, and when
    the mask keeps every row there is nothing to do at all.
    """
    if keep.all():
        return arr
    return arr[keep]


# ---------------------------------------------------------------------------
# scratch-buffer pool
# ---------------------------------------------------------------------------


class ScratchPool:
    """Thread-safe recycler for the fused executors' rotation buffers.

    The T-layout working/scratch arrays are the dominant transient
    allocations of a fused solve; pooling them on the solver lets repeated
    ``solve_stack`` calls (per-bucket, per-W-cycle-level, per-serve-batch)
    reuse the same pages instead of faulting fresh ones in every call.
    """

    def __init__(self, max_per_key: int = 8) -> None:
        self._lock = threading.Lock()
        self._max_per_key = max_per_key
        self._free: dict[tuple, list[np.ndarray]] = {}

    def acquire(self, shape: tuple[int, ...]) -> np.ndarray:
        """Return a float64 buffer of ``shape`` (contents undefined)."""
        key = tuple(shape)
        with self._lock:
            bufs = self._free.get(key)
            if bufs:
                return bufs.pop()
        return np.empty(shape, dtype=np.float64)

    def release(self, arr: np.ndarray) -> None:
        key = tuple(arr.shape)
        with self._lock:
            bufs = self._free.setdefault(key, [])
            if len(bufs) < self._max_per_key:
                bufs.append(arr)

    def clear(self) -> None:
        with self._lock:
            self._free.clear()


# ---------------------------------------------------------------------------
# fused one-sided SVD sweeper
# ---------------------------------------------------------------------------


class _PairScratch:
    """The operands and temporaries of a step's ``p`` pairs over ``nb``
    members, with every view of them a step reads.

    ``aij`` receives the inner products and ``aii``/``ajj`` the squared
    norms a step computes (without the Eq. 6 cache; the neighbor plan also
    resolves each pair's orientation into them from ``e0``/``e1``). ``f0``
    to ``f2`` and ``mask`` are ``(p, nb)`` temporaries of Eq. 4 (``eq4``
    hands them to the rotation kernel), ``cs2``, ``norms`` and ``tmp`` the
    ``(p, 2, nb)`` ones of Eq. 6. ``R`` holds the step's ``(p, 2, 2, nb)``
    rotation blocks; Eq. 4 writes ``(c, s)`` into its view ``cs``: column 0
    of each block for the gather plan, row 1 for the neighbor plan, which
    folds its pair swap in afterwards.

    ``R`` is stored entry-major (a transposed ``(2, 2, p, nb)`` array), so
    its four ``(p, nb)`` entry planes ``R00``..``R11`` occupy disjoint
    memory: NumPy's overlap check then lets the fills from one plane into
    another run without a temporary copy. The rotation einsum reads ``R``
    by index, so its bytes do not depend on the layout.
    """

    __slots__ = (
        "aij", "e0", "e1", "aii", "ajj", "diag",
        "f0", "f1", "f2", "mask", "eq4",
        "cs2", "cs2_swapped", "norms", "n0", "n1", "norms_swapped", "tmp",
        "R", "R00", "R01", "R10", "R11", "cs", "c", "s",
    )

    def __init__(self, p: int, nb: int, neighbor: bool) -> None:
        pairs = (p, nb)
        self.aij = np.empty(pairs)
        self.e0 = np.empty(pairs)
        self.e1 = np.empty(pairs)
        if neighbor:
            self.aii, self.ajj = np.empty(pairs), np.empty(pairs)
        else:
            self.aii, self.ajj = self.e0, self.e1
        self.diag = (self.aii, self.ajj, self.aii[:, None], self.ajj[:, None])
        self.f0, self.f1, self.f2 = (np.empty(pairs) for _ in range(3))
        self.mask = np.empty(pairs, dtype=bool)
        self.eq4 = (self.f0, self.f1, self.f2, self.mask)
        self.cs2 = np.empty((p, 2, nb))
        self.cs2_swapped = self.cs2[:, ::-1]
        self.norms = np.empty((p, 2, nb))
        self.n0, self.n1 = self.norms[:, 0], self.norms[:, 1]
        self.norms_swapped = self.norms[:, ::-1]
        self.tmp = np.empty((p, 2, nb))
        R = self.R = np.empty((2, 2, p, nb)).transpose(2, 0, 1, 3)
        self.R00, self.R01 = R[:, 0, 0], R[:, 0, 1]
        self.R10, self.R11 = R[:, 1, 0], R[:, 1, 1]
        self.cs = R[:, 1] if neighbor else R[:, :, 0]
        self.c, self.s = self.cs[:, 0], self.cs[:, 1]


class _SlotViews:
    """The slots ``[off, off + 2p)`` of a step's ``p`` pairs, for one
    assignment of the ping-pong buffers: ``A``/``V`` are the pairs of the
    current data and V buffers (``(p, 2, nb, ·)``, with their columns
    ``A0``/``A1`` and ``V0``/``V1``), ``Aout``/``Vout`` the same slots of
    the other buffers, and ``outside`` the ``(dst, src)`` copies that carry
    the slots outside the window over to them."""

    __slots__ = (
        "A", "A0", "A1", "Aout", "Aout0", "Aout1",
        "V", "V0", "V1", "Vout", "Vout0", "Vout1", "outside",
    )

    def __init__(self, T, S, VT, VS, off: int, p: int) -> None:
        end = off + 2 * p
        self.A, self.A0, self.A1 = _pair_view(T, off, p)
        self.Aout, self.Aout0, self.Aout1 = _pair_view(S, off, p)
        self.V, self.V0, self.V1 = _pair_view(VT, off, p)
        self.Vout, self.Vout0, self.Vout1 = _pair_view(VS, off, p)
        sides = [slice(None, off)] if off else []
        if end < len(T):
            sides.append(slice(end, None))
        self.outside = tuple(
            (dst[side], src[side]) for dst, src in ((S, T), (VS, VT))
            for side in sides
        )


def _pair_view(X: np.ndarray, off: int, p: int):
    """``(pairs, first, second)``: slots ``[off, off + 2p)`` of ``X`` as
    ``p`` adjacent pairs, and the pairs' first and second columns."""
    pairs = X[off : off + 2 * p].reshape(p, 2, *X.shape[1:])
    return pairs, pairs[:, 0], pairs[:, 1]


class _NormViews:
    """The squared norms of a step's pairs in one squared-norm buffer:
    ``sq`` (``(p, 2, nb)``), its slot-swapped view, and ``diag``, the
    ``(a_ii, a_jj)`` of the slots in pair order with their ``(p, 1, nb)``
    row views for Eq. 6."""

    __slots__ = ("sq", "swapped", "diag")

    def __init__(self, Q: np.ndarray, off: int, p: int) -> None:
        self.sq, first, second = _pair_view(Q, off, p)
        self.swapped = self.sq[:, ::-1]
        self.diag = (first, second, first[:, None], second[:, None])


class _SVDWorkspace:
    """Every array and view a :class:`FusedSVDSweeper` step touches, for
    one stack.

    ``X``, ``V`` and ``Q`` are the ping-pong pairs of the data, V and
    squared-norm buffers (``(n, nb, m)``, ``(n, nb, n)`` and ``(n, nb)``);
    ``cosine`` and ``rotate`` the sweep's per-pair buffers. ``steps``
    holds, per plan step, ``(step, slots, norms, scratch, cosine,
    rotate)``: the step's :class:`_SlotViews` for either buffer of ``X``
    and ``V`` being current, its :class:`_NormViews` for either buffer of
    ``Q``, the :class:`_PairScratch` of its pair count and its slices of
    the sweep buffers. Steps with the same slots share their views, and
    steps with the same pair count their scratch.
    """

    __slots__ = ("X", "V", "Q", "cosine", "rotate", "steps")

    def __init__(self, plan: SweepPlan, T, S, VT, VS) -> None:
        n, nb, _ = T.shape
        self.X, self.V = (T, S), (VT, VS)
        self.Q = (np.empty((n, nb)), np.empty((n, nb)))
        self.cosine = np.empty((plan.pairs, nb))
        self.rotate = np.empty((plan.pairs, nb), dtype=bool)
        neighbor = plan.kind == "neighbor"
        windows: dict[tuple[int, int], tuple] = {}
        scratch: dict[int, _PairScratch] = {}
        steps = []
        q = 0
        for step in plan.steps:
            p = step.n_pairs
            key = (step.offset if neighbor else 0, p)
            if key not in windows:
                windows[key] = (
                    (
                        _SlotViews(T, S, VT, VS, *key),
                        _SlotViews(S, T, VS, VT, *key),
                    ),
                    tuple(_NormViews(Q, *key) for Q in self.Q),
                )
            if p not in scratch:
                scratch[p] = _PairScratch(p, nb, neighbor)
            steps.append(
                (step, *windows[key], scratch[p],
                 self.cosine[q : q + p], self.rotate[q : q + p])
            )
            q += p
        self.steps = tuple(steps)


class FusedSVDSweeper:
    """Sweep executor for :class:`repro.jacobi.batched.StackedOneSidedJacobi`.

    Owns the T-layout working state (``T`` is ``(n, b, m)``: slot-major
    columns over the batch) and executes one full sweep per
    :meth:`run_sweep` call with no per-step Python-level gather/scatter.
    The driver (``solve_stack``) keeps all failure handling, tracing and
    dropout logic; this class only advances the numerics.

    Per-pair quantities are slot-major too: a step's inner products,
    cosines and ``(c, s)`` are ``(p, b)`` arrays, the squared-norm cache is
    ``(n, b)``, and ``(c, s)`` are written straight into the step's
    ``(p, 2, 2, b)`` rotation blocks, so a step needs no transposes. Both
    plans run a step's per-pair arithmetic (Eq. 4, and Eq. 6 for both
    columns of every pair at once) through one helper, :meth:`_pair_step`,
    which records the pairs' cosines and rotations in per-sweep buffers;
    the sweep reduces them once. A sweep runs under a single
    ``np.errstate``.

    A step allocates nothing and builds no views: every buffer, view and
    temporary it uses lives in a :class:`_SVDWorkspace` built with the
    sweeper and rebuilt only when :meth:`compact` drops members. The data,
    V and squared-norm buffers are ping-pong pairs; ``_x`` and ``_q`` name
    the current buffer of each pair.

    Bit-identical to :class:`~repro.jacobi.onesided_vector.OneSidedJacobiSVD`.
    """

    def __init__(
        self,
        stack: np.ndarray,
        config,
        plan: SweepPlan,
        pool: ScratchPool,
        kernel_times: KernelTimes | None = None,
    ) -> None:
        b, m, n = stack.shape
        self.cfg = config
        self.plan = plan
        self.m = m
        self.n = n
        self._pool = pool
        self._kt = kernel_times
        self._tol = config.tol
        self._cache = config.cache_inner_products
        T = pool.acquire((n, b, m))
        T[...] = stack.transpose(2, 0, 1)
        VT = pool.acquire((n, b, n))
        VT[...] = 0.0
        VT[np.arange(n), :, np.arange(n)] = 1.0
        S = pool.acquire((n, b, m))
        VS = pool.acquire((n, b, n))
        self._pooled = [T, S, VT, VS]
        # Same logical element as the reference's stack poisoning:
        # T[0, 0, 0] is W[0, 0, 0] of matrix 0.
        faults.poison_stack(T)
        self._build(T, S, VT, VS)
        self._norms()

    # -- driver protocol -------------------------------------------------

    @property
    def count(self) -> int:
        return self.T.shape[1]

    @property
    def T(self) -> np.ndarray:
        """The data buffer in canonical column order (between sweeps)."""
        return self._ws.X[self._x]

    @property
    def VT(self) -> np.ndarray:
        return self._ws.V[self._x]

    @property
    def sqnorms(self) -> np.ndarray:
        """The squared-norm cache, ``(n, b)``."""
        return self._ws.Q[self._q]

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.T).all(axis=(0, 2))

    def refresh_norms(self) -> None:
        """Per-sweep exact refresh (Eq. 6 drift control), as in the
        reference solver."""
        kt = self._kt
        t0 = kt.clock() if kt else 0.0
        self._norms()
        if kt:
            kt.lap(t0, "norms")

    def scale(self) -> np.ndarray:
        return self.sqnorms.max(axis=0)

    def run_sweep(self, norm_floor: np.ndarray):
        """Execute one full sweep; returns ``(max_cos, rotations)``.

        A matrix's pairs are exempt from rotation when either squared norm
        is at or below its ``norm_floor`` entry; a floor that is not
        positive exempts nothing. The stack is back in canonical column
        order on return.
        """
        # A step tests fmin(a_ii, a_jj) <= f, which is exactly
        # (a_ii <= f) | (a_jj <= f), NaN included. Only a -inf squared norm
        # reaches a floor of -inf, and that pair's cosine is already zero.
        floor = np.where(norm_floor > 0.0, norm_floor, -np.inf)
        with np.errstate(all="ignore"):
            if self.plan.kind == "neighbor":
                self._sweep_neighbor(floor)
            else:
                self._sweep_gather(floor)
        kt = self._kt
        t0 = kt.clock() if kt else 0.0
        ws, x = self._ws, self._x
        restore = self.plan.restore
        # mode="clip": the default "raise" copies ``out`` on every call.
        ws.X[x].take(restore, axis=0, out=ws.X[1 - x], mode="clip")
        ws.V[x].take(restore, axis=0, out=ws.V[1 - x], mode="clip")
        self._x = 1 - x
        if kt:
            kt.lap(t0, "rotate")
        return np.maximum.reduce(ws.cosine), np.add.reduce(ws.rotate)

    def extract(
        self,
        out_W: np.ndarray,
        out_V: np.ndarray,
        targets: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        out_W[targets] = self.T[:, positions].transpose(1, 2, 0)
        out_V[targets] = self.VT[:, positions].transpose(1, 2, 0)

    def compact(self, keep: np.ndarray) -> None:
        T = np.compress(keep, self.T, axis=1)
        VT = np.compress(keep, self.VT, axis=1)
        sqnorms = np.compress(keep, self.sqnorms, axis=1)
        self._build(T, np.empty_like(T), VT, np.empty_like(VT))
        self.sqnorms[...] = sqnorms

    def close(self) -> None:
        for buf in self._pooled:
            self._pool.release(buf)
        self._pooled = []

    # -- internals -------------------------------------------------------

    def _build(self, T, S, VT, VS) -> None:
        """A workspace over the buffers ``T``/``S`` and ``VT``/``VS``,
        with ``T`` and ``VT`` current."""
        self._ws = _SVDWorkspace(self.plan, T, S, VT, VS)
        self._x = self._q = 0

    def _norms(self) -> None:
        """Exact squared column norms, stored slot-major as ``(n, b)``.

        The einsum reduces over the rows of the C-contiguous ``(b, m, n)``
        stack, the memory order the reference reduces in, so every bit of
        the norms matches; the result is then laid out slot-major.
        """
        Wc = np.ascontiguousarray(self.T.transpose(1, 2, 0))
        self.sqnorms[...] = np.einsum("bij,bij->bj", Wc, Wc).T

    def _pair_step(self, diag, floor, cosine, rotate, w: _PairScratch, t0):
        """The per-pair work of one step, shared by both plans.

        Eq. 4 for the step's ``(p, b)`` pairs, in the reference's
        arithmetic order, on ``diag = (a_ii, a_jj, a_ii[:, None],
        a_jj[:, None])`` and ``w.aij``: the pairs' cosines and rotate flags
        land in this sweep's slices ``cosine`` and ``rotate`` (reduced once
        per sweep), and their ``(c, s)`` in ``w.cs`` (identity on the pairs
        that do not rotate), through
        :func:`~repro.jacobi.rotations.rotation_cs_quiet` on ``w``'s
        scratch. Runs inside the sweep's ``np.errstate``.

        Returns ``(rotated, t0)``: whether any pair of the step rotates,
        and the kernel-time mark, moved past the ``converge`` and ``norms``
        work charged here. When a pair rotates and the Eq. 6 cache is on,
        ``w.norms`` holds the pairs' updated squared norms as one ``(p, 2,
        b)`` stack, ``[c^2, s^2] a_ii +- 2 c s a_ij + [s^2, c^2] a_jj`` in
        the reference's expression order.
        """
        kt = self._kt
        aii, ajj, aii_rows, ajj_rows = diag
        aij, denom, u, mask = w.aij, w.f0, w.f1, w.mask
        # A zero denominator's sign is moot: x / ±0 is zeroed below.
        multiply(aii, ajj, out=denom)
        maximum(denom, 0.0, out=denom)
        sqrt(denom, out=denom)
        absolute(aij, out=u)
        divide(u, denom, out=cosine)
        isfinite(cosine, out=mask)
        logical_not(mask, out=mask)
        putmask(cosine, mask, 0.0)
        fmin(aii, ajj, out=u)
        less_equal(u, floor, out=mask)
        putmask(cosine, mask, 0.0)
        greater(cosine, self._tol, out=rotate)
        rotated = count_nonzero(rotate) > 0
        if rotated:
            rotation_cs_quiet(aii, ajj, aij, rotate, w.c, w.s, w.eq4)
        if kt:
            t0 = kt.lap(t0, "converge")
        if not (rotated and self._cache):
            return rotated, t0
        cs2, cross, norms = w.cs2, w.f0, w.norms
        square(w.cs, out=cs2)
        multiply(2.0, w.c, out=cross)
        multiply(cross, w.s, out=cross)
        multiply(cross, aij, out=cross)
        multiply(cs2, aii_rows, out=norms)
        add(w.n0, cross, out=w.n0)
        subtract(w.n1, cross, out=w.n1)
        multiply(w.cs2_swapped, ajj_rows, out=w.tmp)
        add(norms, w.tmp, out=norms)
        if kt:
            t0 = kt.lap(t0, "norms")
        return rotated, t0

    def _sweep_gather(self, floor: np.ndarray) -> None:
        kt = self._kt
        cache = self._cache
        pair_step = self._pair_step
        ws = self._ws
        X, V, Q = ws.X, ws.V, ws.Q
        x, q = self._x, self._q
        for step, slots, norms, w, cosine, rotate in ws.steps:
            t0 = kt.clock() if kt else 0.0
            g = step.gather
            X[x].take(g, axis=0, out=X[1 - x], mode="clip")
            V[x].take(g, axis=0, out=V[1 - x], mode="clip")
            x = 1 - x
            f = slots[x]
            if kt:
                t0 = kt.lap(t0, "rotate")
            einsum("pbm,pbm->pb", f.A0, f.A1, out=w.aij)
            if cache:
                Q[q].take(g, axis=0, out=Q[1 - q], mode="clip")
                q = 1 - q
                diag = norms[q].diag
            else:
                einsum("pbm,pbm->pb", f.A0, f.A0, out=w.aii)
                einsum("pbm,pbm->pb", f.A1, f.A1, out=w.ajj)
                diag = w.diag
            if kt:
                t0 = kt.lap(t0, "gram")
            rotated, t0 = pair_step(diag, floor, cosine, rotate, w, t0)
            if not rotated:
                continue
            negative(w.R10, out=w.R01)
            copyto(w.R11, w.R00)
            einsum("pcbm,pcdb->pdbm", f.A, w.R, out=f.Aout)
            einsum("pcbm,pcdb->pdbm", f.V, w.R, out=f.Vout)
            for dst, src in f.outside:
                copyto(dst, src)
            x = 1 - x
            if kt:
                t0 = kt.lap(t0, "rotate")
            if cache:
                copyto(norms[q].sq, w.norms)
            if kt:
                kt.lap(t0, "norms")
        self._x, self._q = x, q

    def _sweep_neighbor(self, floor: np.ndarray) -> None:
        kt = self._kt
        cache = self._cache
        pair_step = self._pair_step
        ws = self._ws
        x, q = self._x, self._q
        for step, slots, norms, w, cosine, rotate in ws.steps:
            t0 = kt.clock() if kt else 0.0
            f = slots[x]
            ot = step.orient_rows
            einsum("pbm,pbm->pb", f.A0, f.A1, out=w.aij)
            if cache:
                nv = norms[q]
                e0, e1 = nv.diag[0], nv.diag[1]
            else:
                e0, e1 = w.e0, w.e1
                einsum("pbm,pbm->pb", f.A0, f.A0, out=e0)
                einsum("pbm,pbm->pb", f.A1, f.A1, out=e1)
            copyto(w.aii, e0)
            copyto(w.aii, e1, where=ot)
            copyto(w.ajj, e1)
            copyto(w.ajj, e0, where=ot)
            if kt:
                t0 = kt.lap(t0, "gram")
            # c lands in R[:, 1, 0] and s, for now, in R[:, 1, 1].
            rotated, t0 = pair_step(w.diag, floor, cosine, rotate, w, t0)
            if not rotated:
                # No rotation: advance the layout walk with exact swap
                # copies (an identity-rotation einsum would flip -0.0).
                copyto(f.Aout0, f.A1)
                copyto(f.Aout1, f.A0)
                copyto(f.Vout0, f.V1)
                copyto(f.Vout1, f.V0)
                for dst, src in f.outside:
                    copyto(dst, src)
                x = 1 - x
                if cache:
                    copyto(w.tmp, nv.swapped)
                    copyto(nv.sq, w.tmp)
                if kt:
                    kt.lap(t0, "rotate")
                continue
            # Swap-folded, orientation-aware rotation block: slot 0 of the
            # output pair receives what the walk's post-step swap would
            # place there, so the step needs no separate permutation pass.
            copyto(w.R01, w.R10)
            negative(w.R11, out=w.R00)
            copyto(w.R00, w.R11, where=ot)
            negative(w.R00, out=w.R11)
            einsum("pcbm,pcdb->pdbm", f.A, w.R, out=f.Aout)
            einsum("pcbm,pcdb->pdbm", f.V, w.R, out=f.Vout)
            for dst, src in f.outside:
                copyto(dst, src)
            x = 1 - x
            if kt:
                t0 = kt.lap(t0, "rotate")
            if cache:
                # Slot 0 now holds the (swapped-in) other column of the
                # pair; write the updated norms swap-folded to match.
                copyto(nv.sq, w.norms_swapped)
                copyto(nv.sq, w.norms, where=step.orient_blocks)
            if kt:
                kt.lap(t0, "norms")
        self._x = x


# ---------------------------------------------------------------------------
# fused parallel EVD sweeper
# ---------------------------------------------------------------------------


def _pair_block_views(X: np.ndarray, p: int):
    """Strided ``(b, p)`` views ``(x_ii, x_jj, x_ij, x_ji)`` of the first
    ``p`` diagonal 2x2 blocks of a C-contiguous ``(b, k, k)`` stack."""
    b, k, _ = X.shape
    flat = X.reshape(b, k * k)  # a view: X is C-contiguous
    step = 2 * (k + 1)  # block q starts at flat index 2q (k + 1)
    stop = p * step
    starts = (0, k + 1, 1, k)
    return tuple(flat[:, i:stop:step] for i in starts)


def _first_blocks(views: tuple, p: int, full: int) -> tuple:
    """The first ``p`` blocks of pair-block ``views`` built for ``full``."""
    if p == full:
        return views
    return tuple(v[:, :p] for v in views)


class FusedEVDSweeper:
    """Sweep executor for :class:`repro.jacobi.batched.StackedParallelEVD`.

    Permutes ``B`` (``(b, k, k)``) into pair-adjacent rows and columns per
    step, with one ``np.take`` on its flattened ``(b, k k)`` entries
    (:attr:`GatherStep.gather_both`), and applies the step's congruences in
    two passes: an elementwise column pass, ``(x0 c + 0.0) + x1 s`` and
    ``(x0 (-s) + 0.0) + x1 c``, then one row-pass einsum against a
    ``(b, p, 2, 2)`` rotation stack. ``J`` is kept transposed
    (``JT[b] = J[b].T``) so ``J <- J G`` is the same row-pass einsum.
    The strided views of the diagonal 2x2 blocks are built once per
    buffer, and a sweep runs under a single ``np.errstate``.

    Bit-identical to :class:`~repro.jacobi.parallel_evd.ParallelJacobiEVD`
    but for the sign of rotated zeros: einsum starts from a zero
    accumulator, so an entry whose two products are ``-0.0`` comes out
    ``+0.0`` where the reference's ``c x0 + s x1`` keeps ``-0.0``. The
    column pass's ``+ 0.0`` applies the same rule.
    """

    def __init__(
        self,
        stack: np.ndarray,
        config,
        plan: SweepPlan,
        pool: ScratchPool,
    ) -> None:
        b, k, _ = stack.shape
        self.cfg = config
        self.plan = plan
        self.k = k
        self._pool = pool
        B = pool.acquire((b, k, k))
        B[...] = stack
        JT = pool.acquire((b, k, k))
        JT[...] = 0.0
        JT[:, np.arange(k), np.arange(k)] = 1.0
        S1 = pool.acquire((b, k, k))
        S2 = pool.acquire((b, k, k))
        JS = pool.acquire((b, k, k))
        self._pooled = [B, JT, S1, S2, JS]
        faults.poison_stack(B)
        self.B, self.JT, self.S1, self.S2, self.JS = B, JT, S1, S2, JS
        self._build_block_views()

    @property
    def count(self) -> int:
        return self.B.shape[0]

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.B).all(axis=(1, 2))

    def run_sweep(
        self, floor: np.ndarray, noise: np.ndarray, diag_floor: np.ndarray
    ):
        """One full sweep; returns ``(offs, rotations)`` with the stack
        restored to canonical order (``offs``: every member's Rutishauser
        metric, from one stacked pass).

        A pair rotates when its element is above the member's ``floor``
        (``noise * ||B||_F`` of the input), its smaller diagonal is above
        the member's ``diag_floor``, and its scaled element is above the
        rotation tolerance (or its diagonal is at ``floor``). ``offs``
        applies the same two floors; see
        :func:`~repro.jacobi.convergence.symmetric_offdiagonal_cosines`.
        """
        tol = self.cfg.tol
        nb = self.count
        k = self.k
        full = k // 2
        fl = floor[:, None]
        # A diagonal floor of -inf exempts no pair the other tests rotate.
        dfl = np.where(diag_floor > 0.0, diag_floor, -np.inf)[:, None]
        rotations = np.zeros(nb, dtype=np.int64)
        prods = np.empty((nb, k, full))
        B, JT, S1, S2, JS = self.B, self.JT, self.S1, self.S2, self.JS
        # B and S2 trade roles (rotated / permuted) step to step; their
        # block views and flat views travel with them.
        Bv, S2v = self._Bv, self._S2v
        Bf, S2f = self._Bf, self._S2f
        with np.errstate(all="ignore"):
            for step in self.plan.steps:
                p = step.n_pairs
                k2 = 2 * p
                # mode="clip": the default "raise" copies ``out`` first.
                Bf.take(step.gather_both, axis=1, out=S2f, mode="clip")
                JT.take(step.gather, axis=1, out=JS, mode="clip")
                bii, bjj, bij, _ = _first_blocks(S2v, p, full)
                mag = np.abs(bij)
                denom = np.sqrt(np.abs(bii * bjj))
                active = (
                    (mag > fl)
                    & (np.fmin(bii, bjj) > dfl)
                    & ((denom <= fl) | (mag > tol * denom))
                )
                if not active.any():
                    # Land the permutation; values are untouched.
                    B, S2 = S2, B
                    Bv, S2v = S2v, Bv
                    Bf, S2f = S2f, Bf
                    JT, JS = JS, JT
                    continue
                R = np.empty((nb, p, 2, 2))
                c, s = rotation_cs_quiet(
                    bii, bjj, bij, active, R[..., 0, 0], R[..., 1, 0]
                )
                np.negative(s, out=R[..., 0, 1])
                R[..., 1, 1] = c
                # Column pass into S1, row pass (reading the column-updated
                # matrix, as the reference does) into B.
                X = S2[:, :, :k2].reshape(nb, k, p, 2)
                Y = S1[:, :, :k2].reshape(nb, k, p, 2)
                x0, x1 = X[..., 0], X[..., 1]
                y0, y1 = Y[..., 0], Y[..., 1]
                prod = prods[..., :p]
                cb = c[:, None, :]
                np.multiply(x0, cb, out=y0)
                y0 += 0.0
                y0 += np.multiply(x1, s[:, None, :], out=prod)
                np.multiply(x0, R[:, None, :, 0, 1], out=y1)
                y1 += 0.0
                y1 += np.multiply(x1, cb, out=prod)
                if k2 < k:
                    S1[:, :, k2:] = S2[:, :, k2:]
                np.einsum(
                    "bpck,bpcd->bpdk",
                    S1[:, :k2, :].reshape(nb, p, 2, k),
                    R,
                    out=B[:, :k2, :].reshape(nb, p, 2, k),
                )
                if k2 < k:
                    B[:, k2:, :] = S1[:, k2:, :]
                # Eliminated entries are exactly zero in exact arithmetic.
                _, _, out_ij, out_ji = _first_blocks(Bv, p, full)
                np.putmask(out_ij, active, 0.0)
                np.putmask(out_ji, active, 0.0)
                np.einsum(
                    "bpck,bpcd->bpdk",
                    JS[:, :k2, :].reshape(nb, p, 2, k),
                    R,
                    out=JT[:, :k2, :].reshape(nb, p, 2, k),
                )
                if k2 < k:
                    JT[:, k2:, :] = JS[:, k2:, :]
                rotations += active.sum(axis=1)
        Bf.take(self.plan.restore_both, axis=1, out=S2f, mode="clip")
        JT.take(self.plan.restore, axis=1, out=JS, mode="clip")
        self.B, self.S2 = S2, B
        self._Bv, self._S2v = S2v, Bv
        self._Bf, self._S2f = S2f, Bf
        self.JT, self.JS = JS, JT
        offs = symmetric_offdiagonal_cosines(self.B, noise, diag_floor)
        return offs, rotations

    def extract(
        self,
        out_B: np.ndarray,
        out_J: np.ndarray,
        targets: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        out_B[targets] = self.B[positions]
        out_J[targets] = self.JT[positions].transpose(0, 2, 1)

    def compact(self, keep: np.ndarray) -> None:
        self.B = _compact_rows(self.B, keep)
        self.JT = _compact_rows(self.JT, keep)
        self.S1 = np.empty_like(self.B)
        self.S2 = np.empty_like(self.B)
        self.JS = np.empty_like(self.B)
        self._build_block_views()

    def close(self) -> None:
        for buf in self._pooled:
            self._pool.release(buf)
        self._pooled = []

    def _build_block_views(self) -> None:
        full = self.k // 2
        flat = (len(self.B), self.k * self.k)
        self._Bv = _pair_block_views(self.B, full)
        self._S2v = _pair_block_views(self.S2, full)
        self._Bf = self.B.reshape(flat)
        self._S2f = self.S2.reshape(flat)
