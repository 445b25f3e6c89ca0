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

**Gram caching** (``OneSidedConfig.gram_cache``). Optionally the full Gram
matrix ``G = W^T W`` is maintained across rotations with O(n)-per-pair
congruence updates, so each step reads ``a_ij``, ``a_ii``, ``a_jj``
directly from ``G`` instead of recomputing length-``m`` dot products. The
existing per-sweep exact refresh is retained (``G`` is rebuilt from ``W``
at every sweep start). This trades the per-step ``O(b p m)`` inner-product
einsum for ``O(b n p)`` cache updates — profitable for very tall stacks —
and is *not* bit-identical to the reference solver (same accuracy contract,
exercised by the figure-level tests).

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

    - ``gram``: inner products (``a_ij`` einsums or Gram-cache reads and
      congruence updates);
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
    in slot order — the Gram-cache path indexes ``G`` with them.
    """

    n_pairs: int
    gather: np.ndarray
    idx_i: np.ndarray
    idx_j: np.ndarray


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


def _eq6_norms(c, s, aii, ajj, aij):
    """Eq. 6 norms of a rotated pair, in the reference's expression order."""
    c2, s2, cross = c**2, s**2, 2.0 * c * s * aij
    return c2 * aii + cross + s2 * ajj, s2 * aii - cross + c2 * ajj


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
    ``(p, 2, 2, b)`` rotation blocks, so a step needs no transposes. A
    sweep runs under a single ``np.errstate``.

    Bit-identical to :class:`~repro.jacobi.onesided_vector.OneSidedJacobiSVD`
    except under ``gram_cache`` (documented accuracy contract instead).
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
        self.T, self.S, self.VT, self.VS = T, S, VT, VS
        self.G: np.ndarray | None = None
        self._norms()

    # -- driver protocol -------------------------------------------------

    @property
    def count(self) -> int:
        return self.T.shape[1]

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.T).all(axis=(0, 2))

    def refresh_norms(self) -> None:
        """Per-sweep exact refresh (Eq. 6 drift control), as in the
        reference solver; under ``gram_cache`` the whole Gram matrix is
        rebuilt from ``W``."""
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
                max_cos, rotations = self._sweep_neighbor(floor)
            else:
                max_cos, rotations = self._sweep_gather(floor)
        kt = self._kt
        t0 = kt.clock() if kt else 0.0
        self.T.take(self.plan.restore, axis=0, out=self.S)
        self.VT.take(self.plan.restore, axis=0, out=self.VS)
        self.T, self.S = self.S, self.T
        self.VT, self.VS = self.VS, self.VT
        if kt:
            kt.lap(t0, "rotate")
        return max_cos, rotations

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
        self.T = np.compress(keep, self.T, axis=1)
        self.VT = np.compress(keep, self.VT, axis=1)
        self.S = np.empty_like(self.T)
        self.VS = np.empty_like(self.VT)
        if self.G is not None:
            self.G = _compact_rows(self.G, keep)
            self.sqnorms = np.einsum("bii->bi", self.G).T
        else:
            self.sqnorms = np.compress(keep, self.sqnorms, axis=1)

    def close(self) -> None:
        for buf in self._pooled:
            self._pool.release(buf)
        self._pooled = []

    # -- internals -------------------------------------------------------

    def _norms(self) -> None:
        """Exact squared column norms (and under ``gram_cache`` the Gram
        matrix), stored slot-major as ``(n, b)``.

        The einsum reduces over the rows of the C-contiguous ``(b, m, n)``
        stack, the memory order the reference reduces in, so every bit of
        the norms matches; the result is then laid out slot-major.
        """
        Wc = np.ascontiguousarray(self.T.transpose(1, 2, 0))
        if self.cfg.gram_cache:
            self.G = np.matmul(Wc.transpose(0, 2, 1), Wc)
            self.sqnorms = np.einsum("bii->bi", self.G).T
        else:
            self.sqnorms = np.ascontiguousarray(
                np.einsum("bij,bij->bj", Wc, Wc).T
            )

    def _rotation_params(self, aii, ajj, aij, floor, max_cos, c, s):
        """Eq. 4 rotation parameters of one step's ``(p, b)`` pairs, in
        the reference's arithmetic order, written into ``c`` and ``s``
        (either may be ``None`` for a fresh array).

        Returns ``(rotate, c, s)`` with identity rotations on inactive
        pairs, or ``None`` when no pair in the step rotates. Runs inside
        the sweep's ``np.errstate``.
        """
        # A zero denominator's sign is moot: x / ±0 is zeroed below.
        denom = np.sqrt(np.maximum(aii * ajj, 0.0))
        cosine = np.abs(aij) / denom
        np.putmask(cosine, ~np.isfinite(cosine), 0.0)
        np.putmask(cosine, np.fmin(aii, ajj) <= floor, 0.0)
        rotate = cosine > self.cfg.tol
        np.maximum(max_cos, cosine.max(axis=0), out=max_cos)
        if not rotate.any():
            return None
        c, s = rotation_cs_quiet(aii, ajj, aij, rotate, c, s)
        return rotate, c, s

    def _gram_pairs(self, step):
        """``(a_ij, a_ii, a_jj)`` of a step's pairs read from ``G``,
        slot-major."""
        G = self.G
        idx_i, idx_j = step.idx_i, step.idx_j
        return (
            G[:, idx_i, idx_j].T,
            G[:, idx_i, idx_i].T,
            G[:, idx_j, idx_j].T,
        )

    def _gram_update(self, step, rotate, c, s) -> None:
        """Congruence-update ``G`` for one step's rotations (O(n) per pair)."""
        G = self.G
        idx_i = step.idx_i
        idx_j = step.idx_j
        c = c.T
        s = s.T
        cb = c[:, None, :]
        sb = s[:, None, :]
        Gi = G[:, :, idx_i]
        Gj = G[:, :, idx_j]
        G[:, :, idx_i] = cb * Gi + sb * Gj
        G[:, :, idx_j] = -sb * Gi + cb * Gj
        cr = c[:, :, None]
        sr = s[:, :, None]
        Ri = G[:, idx_i, :]
        Rj = G[:, idx_j, :]
        G[:, idx_i, :] = cr * Ri + sr * Rj
        G[:, idx_j, :] = -sr * Ri + cr * Rj
        # The rotation annihilates a_ij exactly in exact arithmetic.
        bsel, psel = np.nonzero(rotate.T)
        G[bsel, idx_i[psel], idx_j[psel]] = 0.0
        G[bsel, idx_j[psel], idx_i[psel]] = 0.0

    def _sweep_gather(self, floor: np.ndarray):
        cfg = self.cfg
        kt = self._kt
        gram = self.G is not None
        cache = cfg.cache_inner_products
        nb = self.count
        m, n = self.m, self.n
        max_cos = np.zeros(nb)
        rotations = np.zeros(nb, dtype=np.int64)
        T, S, VT, VS = self.T, self.S, self.VT, self.VS
        sqnorms = self.sqnorms
        for step in self.plan.steps:
            t0 = kt.clock() if kt else 0.0
            p = step.n_pairs
            k = 2 * p
            T.take(step.gather, axis=0, out=S)
            VT.take(step.gather, axis=0, out=VS)
            T, S = S, T
            VT, VS = VS, VT
            A = T[:k].reshape(p, 2, nb, m)
            if kt:
                t0 = kt.lap(t0, "rotate")
            if gram:
                aij, aii, ajj = self._gram_pairs(step)
            else:
                aij = np.einsum("pbm,pbm->pb", A[:, 0], A[:, 1])
                if cache:
                    sqnorms = sqnorms.take(step.gather, axis=0)
                    sq = sqnorms[:k].reshape(p, 2, nb)
                    aii = sq[:, 0]
                    ajj = sq[:, 1]
                else:
                    aii = np.einsum("pbm,pbm->pb", A[:, 0], A[:, 0])
                    ajj = np.einsum("pbm,pbm->pb", A[:, 1], A[:, 1])
            if kt:
                t0 = kt.lap(t0, "gram")
            R = np.empty((p, 2, 2, nb))
            params = self._rotation_params(
                aii, ajj, aij, floor, max_cos, R[:, 0, 0], R[:, 1, 0]
            )
            if kt:
                t0 = kt.lap(t0, "converge")
            if params is None:
                continue
            rotate, c, s = params
            np.negative(s, out=R[:, 0, 1])
            R[:, 1, 1] = c
            np.einsum("pcbm,pcdb->pdbm", A, R, out=S[:k].reshape(p, 2, nb, m))
            Av = VT[:k].reshape(p, 2, nb, n)
            np.einsum("pcbm,pcdb->pdbm", Av, R, out=VS[:k].reshape(p, 2, nb, n))
            if k < n:
                S[k:] = T[k:]
                VS[k:] = VT[k:]
            T, S = S, T
            VT, VS = VS, VT
            if kt:
                t0 = kt.lap(t0, "rotate")
            if gram:
                self._gram_update(step, rotate, c, s)
            elif cache:
                # Eq. 6; aii/ajj are views into sqnorms, so both updates
                # are computed before either slot is overwritten.
                sq[:, 0], sq[:, 1] = _eq6_norms(c, s, aii, ajj, aij)
            if kt:
                kt.lap(t0, "norms")
            rotations += rotate.sum(axis=0)
        self.T, self.S, self.VT, self.VS = T, S, VT, VS
        self.sqnorms = sqnorms
        return max_cos, rotations

    def _sweep_neighbor(self, floor: np.ndarray):
        cfg = self.cfg
        kt = self._kt
        gram = self.G is not None
        cache = cfg.cache_inner_products
        nb = self.count
        m, n = self.m, self.n
        max_cos = np.zeros(nb)
        rotations = np.zeros(nb, dtype=np.int64)
        T, S, VT, VS = self.T, self.S, self.VT, self.VS
        sqnorms = self.sqnorms
        for step in self.plan.steps:
            t0 = kt.clock() if kt else 0.0
            off = step.offset
            p = step.n_pairs
            ot = step.orient[:, None]
            k = 2 * p
            end = off + k
            A = T[off:end].reshape(p, 2, nb, m)
            sq = None
            if gram:
                aij, aii, ajj = self._gram_pairs(step)
            else:
                aij = np.einsum("pbm,pbm->pb", A[:, 0], A[:, 1])
                if cache:
                    sq = sqnorms[off:end].reshape(p, 2, nb)
                    e0 = sq[:, 0]
                    e1 = sq[:, 1]
                else:
                    e0 = np.einsum("pbm,pbm->pb", A[:, 0], A[:, 0])
                    e1 = np.einsum("pbm,pbm->pb", A[:, 1], A[:, 1])
                aii = np.where(ot, e1, e0)
                ajj = np.where(ot, e0, e1)
            if kt:
                t0 = kt.lap(t0, "gram")
            R = np.empty((p, 2, 2, nb))
            params = self._rotation_params(
                aii, ajj, aij, floor, max_cos, R[:, 1, 0], None
            )
            if kt:
                t0 = kt.lap(t0, "converge")
            if params is None:
                # No rotation: advance the layout walk with exact swap
                # copies (an identity-rotation einsum would flip -0.0).
                Sp = S[off:end].reshape(p, 2, nb, m)
                Sp[:, 0] = A[:, 1]
                Sp[:, 1] = A[:, 0]
                Vv = VT[off:end].reshape(p, 2, nb, n)
                Vp = VS[off:end].reshape(p, 2, nb, n)
                Vp[:, 0] = Vv[:, 1]
                Vp[:, 1] = Vv[:, 0]
                _copy_outside(S, T, off, end)
                _copy_outside(VS, VT, off, end)
                T, S = S, T
                VT, VS = VS, VT
                if sq is not None:
                    sq[...] = sq[:, ::-1].copy()
                if kt:
                    kt.lap(t0, "rotate")
                continue
            rotate, c, s = params
            # Swap-folded, orientation-aware rotation block: slot 0 of the
            # output pair receives what the walk's post-step swap would
            # place there, so the step needs no separate permutation pass.
            R[:, 0, 1] = c
            R[:, 0, 0] = np.where(ot, s, np.negative(s))
            np.negative(R[:, 0, 0], out=R[:, 1, 1])
            np.einsum(
                "pcbm,pcdb->pdbm", A, R, out=S[off:end].reshape(p, 2, nb, m)
            )
            Av = VT[off:end].reshape(p, 2, nb, n)
            np.einsum(
                "pcbm,pcdb->pdbm", Av, R,
                out=VS[off:end].reshape(p, 2, nb, n),
            )
            _copy_outside(S, T, off, end)
            _copy_outside(VS, VT, off, end)
            T, S = S, T
            VT, VS = VS, VT
            if kt:
                t0 = kt.lap(t0, "rotate")
            if gram:
                self._gram_update(step, rotate, c, s)
            elif cache:
                new_i, new_j = _eq6_norms(c, s, aii, ajj, aij)
                # Slot 0 now holds the (swapped-in) other column of the
                # pair; write the updated norms swap-folded to match.
                sq[:, 0] = np.where(ot, new_i, new_j)
                sq[:, 1] = np.where(ot, new_j, new_i)
            if kt:
                kt.lap(t0, "norms")
            rotations += rotate.sum(axis=0)
        self.T, self.S, self.VT, self.VS = T, S, VT, VS
        self.sqnorms = sqnorms
        return max_cos, rotations


def _copy_outside(dst: np.ndarray, src: np.ndarray, start: int, stop: int) -> None:
    """Copy the slots of ``src`` outside ``[start, stop)`` into ``dst``;
    an empty side costs nothing."""
    if start:
        dst[:start] = src[:start]
    if stop < len(src):
        dst[stop:] = src[stop:]


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
    step (one ``np.take`` each) and applies the step's congruences in two
    passes: an elementwise column pass, ``(x0 c + 0.0) + x1 s`` and
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
        # block views travel with them.
        Bv, S2v = self._Bv, self._S2v
        with np.errstate(all="ignore"):
            for step in self.plan.steps:
                p = step.n_pairs
                k2 = 2 * p
                g = step.gather
                B.take(g, axis=1, out=S1)
                S1.take(g, axis=2, out=S2)
                JT.take(g, axis=1, out=JS)
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
        restore = self.plan.restore
        B.take(restore, axis=1, out=S1)
        S1.take(restore, axis=2, out=S2)
        JT.take(restore, axis=1, out=JS)
        self.B, self.S1, self.S2 = S2, S1, B
        self._Bv, self._S2v = S2v, Bv
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
        self._Bv = _pair_block_views(self.B, full)
        self._S2v = _pair_block_views(self.S2, full)
