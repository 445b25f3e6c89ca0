"""Shared result and specification types.

These dataclasses are the currency of the public API: solvers return
:class:`SVDResult` / :class:`EVDResult`, stacked solves return them
stacked as :class:`SVDStack` / :class:`EVDStack`, batched drivers return
:class:`BatchedSVDResult`, and the simulated-device layer annotates results
with a :class:`KernelStats` cost record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.errors import FailureReport

__all__ = [
    "SVDResult",
    "EVDResult",
    "SVDStack",
    "EVDStack",
    "BatchedSVDResult",
    "SweepRecord",
    "ConvergenceTrace",
]


@dataclass(frozen=True)
class SweepRecord:
    """Convergence metrics captured after one full sweep.

    Attributes
    ----------
    sweep:
        1-based sweep index.
    off_norm:
        Maximum normalized off-diagonal cosine (one-sided methods) or
        relative off-diagonal Frobenius norm (two-sided methods).
    rotations:
        Number of plane rotations applied during this sweep.
    """

    sweep: int
    off_norm: float
    rotations: int


@dataclass
class ConvergenceTrace:
    """Accumulates per-sweep convergence metrics for a single factorization."""

    records: list[SweepRecord] = field(default_factory=list)

    def append(self, sweep: int, off_norm: float, rotations: int) -> None:
        self.records.append(SweepRecord(sweep, float(off_norm), int(rotations)))

    @staticmethod
    def bulk_append(
        traces: Sequence["ConvergenceTrace"],
        targets: np.ndarray,
        sweep: int,
        off_norms: np.ndarray,
        rotations: np.ndarray,
    ) -> None:
        """Append one sweep's metrics to ``traces[targets[pos]]`` for every
        stack position at once.

        Vectorizes the per-position Python loop the stacked solvers used
        to run each sweep: the float/int conversions happen in two bulk
        ``tolist()`` calls instead of ``2 * len(targets)`` scalar casts.
        Values land bit-identically (``tolist`` yields the same Python
        floats as ``float(x)`` elementwise).
        """
        offs = off_norms.tolist()
        rots = rotations.tolist()
        for pos, orig in enumerate(targets.tolist()):
            traces[orig].records.append(SweepRecord(sweep, offs[pos], rots[pos]))

    @property
    def sweeps(self) -> int:
        """Total number of sweeps recorded."""
        return len(self.records)

    @property
    def total_rotations(self) -> int:
        return sum(r.rotations for r in self.records)

    def off_norms(self) -> np.ndarray:
        """Off-diagonal metric per sweep as a 1-D array."""
        return np.asarray([r.off_norm for r in self.records], dtype=np.float64)

    def sweeps_to(self, tol: float) -> int | None:
        """First sweep index whose metric drops below ``tol``, else ``None``."""
        for record in self.records:
            if record.off_norm < tol:
                return record.sweep
        return None

    def __iter__(self) -> Iterator[SweepRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SVDResult:
    """Singular value decomposition ``A = U @ diag(S) @ V.T``.

    ``U`` is ``(m, r)``, ``S`` is ``(r,)`` descending, ``V`` is ``(n, r)``
    with ``r = min(m, n)`` (thin factorization). ``trace`` carries per-sweep
    convergence data when the producing solver recorded it.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    trace: ConvergenceTrace | None = None

    @property
    def rank_shape(self) -> tuple[int, int]:
        """(m, n) of the matrix that was decomposed."""
        return (self.U.shape[0], self.V.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Return ``U @ diag(S) @ V.T``."""
        return (self.U * self.S) @ self.V.T

    def reconstruction_error(self, A: np.ndarray) -> float:
        """Relative Frobenius-norm error of the factorization against ``A``."""
        denom = np.linalg.norm(A)
        if denom == 0.0:
            return float(np.linalg.norm(self.reconstruct()))
        return float(np.linalg.norm(A - self.reconstruct()) / denom)

    def truncate(self, rank: int) -> "SVDResult":
        """Return the rank-``rank`` truncation (shares no storage)."""
        rank = int(rank)
        if rank < 1:
            raise ValueError("rank must be >= 1")
        rank = min(rank, self.S.shape[0])
        return SVDResult(
            U=self.U[:, :rank].copy(),
            S=self.S[:rank].copy(),
            V=self.V[:, :rank].copy(),
            trace=self.trace,
        )


@dataclass
class EVDResult:
    """Symmetric eigendecomposition ``B = J @ diag(L) @ J.T``.

    Eigenvalues ``L`` are returned in descending order; ``J`` columns are the
    matching eigenvectors.
    """

    J: np.ndarray
    L: np.ndarray
    trace: ConvergenceTrace | None = None

    def reconstruct(self) -> np.ndarray:
        return (self.J * self.L) @ self.J.T

    def reconstruction_error(self, B: np.ndarray) -> float:
        denom = np.linalg.norm(B)
        if denom == 0.0:
            return float(np.linalg.norm(self.reconstruct()))
        return float(np.linalg.norm(B - self.reconstruct()) / denom)


class SVDStack:
    """Thin SVDs of a ``(b, m, n)`` stack, kept stacked.

    ``U`` is ``(b, m, r)``, ``S`` is ``(b, r)`` (descending per member),
    ``V`` is ``(b, n, r)``; ``traces[k]`` is member ``k``'s trace. Member
    ``k`` reads as an :class:`SVDResult` of views (``stack[k]``), and the
    stack iterates over its members, so it stands in for a list of results.

    ``U`` is given, or built on its first read by ``make_U``, a picklable
    callable of no arguments: a caller that reads only ``S`` and ``V`` (a
    W-cycle step reads ``V``) never pays for it.
    """

    def __init__(
        self,
        *,
        S: np.ndarray,
        V: np.ndarray,
        traces: list[ConvergenceTrace | None],
        U: np.ndarray | None = None,
        make_U: Callable[[], np.ndarray] | None = None,
    ) -> None:
        if (U is None) == (make_U is None):
            raise ValueError("give exactly one of U and make_U")
        self._U = U
        self._make_U = make_U
        self.S = S
        self.V = V
        self.traces = traces

    @property
    def U(self) -> np.ndarray:
        if self._U is None:
            self._U = self._make_U()
            self._make_U = None
        return self._U

    @classmethod
    def of(cls, results: Sequence[SVDResult]) -> "SVDStack":
        """The stack of same-shape ``results``."""
        return cls(
            U=np.stack([r.U for r in results]),
            S=np.stack([r.S for r in results]),
            V=np.stack([r.V for r in results]),
            traces=[r.trace for r in results],
        )

    @classmethod
    def concat(cls, parts: Sequence["SVDStack"]) -> "SVDStack":
        """One stack of the members of ``parts``, in order (its ``U`` is
        built when first read)."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            S=np.concatenate([p.S for p in parts]),
            V=np.concatenate([p.V for p in parts]),
            traces=[t for p in parts for t in p.traces],
            make_U=functools.partial(_concat_U, tuple(parts)),
        )

    def __len__(self) -> int:
        return len(self.S)

    def __getitem__(self, k: int) -> SVDResult:
        return SVDResult(U=self.U[k], S=self.S[k], V=self.V[k], trace=self.traces[k])

    def __iter__(self) -> Iterator[SVDResult]:
        return (self[k] for k in range(len(self)))


def _concat_U(parts: tuple[SVDStack, ...]) -> np.ndarray:
    return np.concatenate([p.U for p in parts])


@dataclass
class EVDStack:
    """Eigendecompositions of a ``(b, k, k)`` symmetric stack, kept
    stacked: ``J`` is ``(b, k, k)``, ``L`` is ``(b, k)`` (descending per
    member). Member ``k`` reads as an :class:`EVDResult` of views, as in
    :class:`SVDStack`."""

    J: np.ndarray
    L: np.ndarray
    traces: list[ConvergenceTrace | None]

    @classmethod
    def of(cls, results: Sequence[EVDResult]) -> "EVDStack":
        """The stack of same-shape ``results``."""
        return cls(
            J=np.stack([r.J for r in results]),
            L=np.stack([r.L for r in results]),
            traces=[r.trace for r in results],
        )

    @classmethod
    def concat(cls, parts: Sequence["EVDStack"]) -> "EVDStack":
        """One stack of the members of ``parts``, in order."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            J=np.concatenate([p.J for p in parts]),
            L=np.concatenate([p.L for p in parts]),
            traces=[t for p in parts for t in p.traces],
        )

    def __len__(self) -> int:
        return len(self.L)

    def __getitem__(self, k: int) -> EVDResult:
        return EVDResult(J=self.J[k], L=self.L[k], trace=self.traces[k])

    def __iter__(self) -> Iterator[EVDResult]:
        return (self[k] for k in range(len(self)))


@dataclass
class BatchedSVDResult:
    """Results of a batched SVD over matrices of (possibly) varying sizes.

    ``failures`` is attached by drivers running in quarantine mode
    (:meth:`repro.core.wcycle.WCycleSVD.decompose_batch` with
    ``on_failure="quarantine"``): a
    :class:`~repro.errors.FailureReport` of every fault survived or
    absorbed. It is ``None`` in raise mode and falsy after a clean
    quarantine-mode run. Unrecovered matrices hold NaN placeholder
    factors in their result slots.
    """

    results: list[SVDResult]
    failures: "FailureReport | None" = None

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SVDResult:
        return self.results[index]

    def __iter__(self) -> Iterator[SVDResult]:
        return iter(self.results)

    def singular_values(self) -> list[np.ndarray]:
        return [r.S for r in self.results]

    def max_reconstruction_error(self, matrices: Sequence[np.ndarray]) -> float:
        """Largest relative reconstruction error across the batch.

        Quarantined-and-unrecovered matrices (NaN placeholder factors,
        listed in ``failures.unrecovered``) are excluded — their slots
        deliberately hold no factorization to measure.
        """
        if len(matrices) != len(self.results):
            raise ValueError(
                f"batch size mismatch: {len(matrices)} inputs vs "
                f"{len(self.results)} results"
            )
        skip = (
            set(self.failures.unrecovered) if self.failures is not None else ()
        )
        errors = [
            r.reconstruction_error(a)
            for i, (r, a) in enumerate(zip(self.results, matrices))
            if i not in skip
        ]
        if not errors:
            return float("nan")
        return max(errors)
