"""Shared factor-extraction helpers.

The stacked finalizers are held byte for byte to oracles: the per-matrix
bodies they replaced, kept here as :func:`_finalize_onesided_oracle` and
:func:`_finalize_evd_oracle` the way ``rotation_from_tau`` serves
``rotation_cs``.
"""

import numpy as np
import pytest

from repro.jacobi.batched import (
    BatchedJacobiEngine,
    StackedOneSidedJacobi,
    StackedParallelEVD,
)
from repro.jacobi.factors import (
    complete_orthonormal,
    complete_square_orthogonal,
    finalize_evd_stack,
    finalize_onesided,
    finalize_stack,
)
from repro.jacobi.onesided_vector import OneSidedConfig
from repro.jacobi.twosided_evd import TwoSidedConfig
from repro.types import ConvergenceTrace, EVDResult, SVDResult

_EPS = np.finfo(np.float64).eps


def _finalize_onesided_oracle(work, V, trace):
    """The per-matrix finalizer the stacked one replaced."""
    m, n = work.shape
    sigma = np.linalg.norm(work, axis=0)
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    work = work[:, order]
    V = V[:, order]
    r = min(m, n)
    sigma, work, V = sigma[:r], work[:, :r], V[:, :r]
    cutoff = _EPS * max(m, n) * (sigma[0] if sigma.size else 0.0)
    U = np.zeros((m, r))
    nonzero = sigma > cutoff
    U[:, nonzero] = work[:, nonzero] / sigma[nonzero]
    if not nonzero.all():
        complete_orthonormal(U, nonzero)
        sigma = np.where(nonzero, sigma, 0.0)
    U += 0.0
    return SVDResult(U=U, S=sigma, V=V, trace=trace)


def _finalize_evd_oracle(B, J, trace):
    """The per-matrix eigenpair sort the stacked one replaced."""
    eigvals = np.diag(B).copy()
    order = np.argsort(eigvals)[::-1]
    L = eigvals[order]
    L += 0.0
    return EVDResult(J=J[:, order].copy(), L=L, trace=trace)


def _same_bytes(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _svd_work_stack(rng, m, n):
    """Orthogonalized stacks (``U * sigma`` form) whose members take
    every finalizer branch."""
    members = []
    for sigma in (
        rng.uniform(0.5, 3.0, n),  # generic
        np.r_[rng.uniform(0.5, 3.0, n - 1), 0.0],  # a zero column
        np.full(n, 2.0),  # all sigma exactly tied
        np.r_[[1.5, 1.5], rng.uniform(0.5, 3.0, n - 2)],  # one tie
    ):
        # Rows of an orthonormal basis: orthogonal columns when m >= n.
        Q = np.linalg.qr(rng.standard_normal((max(m, n), n)))[0][:m]
        members.append(Q * sigma)
    repeated = members[0].copy()
    repeated[:, 1] = repeated[:, 0]  # a repeated column: rank deficient
    members.append(repeated)
    signed = np.round(rng.standard_normal((m, n)) * 2.0)
    signed[signed == 0.0] = -0.0  # exact +-0.0 entries
    signed[:, -1] = -0.0
    members.append(signed)
    members.append(np.zeros((m, n)))
    return np.stack(members)


class TestFinalizeOnesided:
    def _orthogonalized(self, rng, m, n):
        """Columns already mutually orthogonal (U * sigma form)."""
        Q = np.linalg.qr(rng.standard_normal((m, n)))[0]
        sigma = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
        return Q * sigma, Q, sigma

    def test_recovers_sigma_descending(self, rng):
        work, _, sigma = self._orthogonalized(rng, 8, 4)
        # Shuffle columns to prove sorting happens.
        perm = rng.permutation(4)
        res = finalize_onesided(work[:, perm], np.eye(4)[:, perm], None)
        np.testing.assert_allclose(res.S, sigma, atol=1e-12)

    def test_u_columns_unit_norm(self, rng):
        work, _, _ = self._orthogonalized(rng, 8, 4)
        res = finalize_onesided(work, np.eye(4), None)
        np.testing.assert_allclose(
            np.linalg.norm(res.U, axis=0), np.ones(4), atol=1e-12
        )

    def test_trace_passes_through(self, rng):
        work, _, _ = self._orthogonalized(rng, 6, 3)
        trace = ConvergenceTrace()
        trace.append(1, 0.1, 3)
        res = finalize_onesided(work, np.eye(3), trace)
        assert res.trace is trace

    def test_zero_columns_get_zero_sigma(self, rng):
        work, _, _ = self._orthogonalized(rng, 8, 4)
        work[:, -1] = 0.0
        res = finalize_onesided(work, np.eye(4), None)
        assert res.S[-1] == 0.0
        # Completed U stays orthonormal.
        assert np.abs(res.U.T @ res.U - np.eye(4)).max() < 1e-10

    def test_thin_shape_for_wide_work(self, rng):
        # Wide "work" (m < n): thin rank is m.
        work = rng.standard_normal((3, 5))
        # Orthogonalize columns first (QR on transpose trick not needed for
        # the shape check).
        res = finalize_onesided(work, np.eye(5), None)
        assert res.U.shape == (3, 3)
        assert res.V.shape == (5, 3)


class TestCompleteOrthonormal:
    def test_completes_partial_basis(self, rng):
        U = np.zeros((6, 4))
        Q = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        U[:, :2] = Q
        filled = np.array([True, True, False, False])
        complete_orthonormal(U, filled)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-10)

    def test_deterministic(self, rng):
        def build():
            U = np.zeros((5, 3))
            U[0, 0] = 1.0
            complete_orthonormal(U, np.array([True, False, False]))
            return U

        np.testing.assert_array_equal(build(), build())


class TestCompleteSquareOrthogonal:
    def test_extends_to_square(self, rng):
        V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        out = complete_square_orthogonal(V, 6)
        assert out.shape == (6, 6)
        np.testing.assert_allclose(out.T @ out, np.eye(6), atol=1e-10)
        np.testing.assert_array_equal(out[:, :3], V)

    def test_already_square_is_unchanged(self, rng):
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        out = complete_square_orthogonal(V, 4)
        np.testing.assert_array_equal(out, V)


class TestFinalizeStackOracle:
    """Every member of a stacked finalize is byte-equal to the per-matrix
    oracle and to its own one-member finalize."""

    @pytest.mark.parametrize("shape", [(8, 4), (9, 5), (5, 5), (3, 5)])
    def test_svd_members_match_oracle(self, rng, shape):
        m, n = shape
        W = _svd_work_stack(rng, m, n)
        V = rng.standard_normal((W.shape[0], n, n))
        traces = [ConvergenceTrace() for _ in range(W.shape[0])]
        got = finalize_stack(W, V, traces)
        completed = 0
        for k, res in enumerate(got):
            want = _finalize_onesided_oracle(W[k], V[k], traces[k])
            _same_bytes(res, want, "USV")
            assert res.trace is traces[k]
            solo = finalize_stack(W[k : k + 1], V[k : k + 1], traces[k : k + 1])
            _same_bytes(res, solo[0], "USV")
            _same_bytes(finalize_onesided(W[k], V[k], traces[k]), want, "USV")
            completed += int((res.S == 0.0).any())
        if m >= n:
            # The zero-column, repeated-column and all-zero members
            # complete U.
            assert completed >= 3

    def test_svd_n1(self, rng):
        W = rng.standard_normal((3, 6, 1))
        W[1] = 0.0
        V = np.ones((3, 1, 1))
        for k, res in enumerate(finalize_stack(W, V, [None] * 3)):
            _same_bytes(res, _finalize_onesided_oracle(W[k], V[k], None), "USV")

    def test_factors_are_fresh_arrays(self, rng):
        """No factor aliases the stacks it was finalized from."""
        W = _svd_work_stack(rng, 8, 4)
        V = rng.standard_normal((W.shape[0], 4, 4))
        for res in finalize_stack(W, V, [None] * W.shape[0]):
            for arr in (res.U, res.S, res.V):
                assert not np.shares_memory(arr, W)
                assert not np.shares_memory(arr, V)
        B = rng.standard_normal((3, 4, 4))
        J = rng.standard_normal((3, 4, 4))
        for res in finalize_evd_stack(B, J, [None] * 3):
            for arr in (res.J, res.L):
                assert not np.shares_memory(arr, B)
                assert not np.shares_memory(arr, J)

    @pytest.mark.parametrize("k", [1, 2, 5, 6])
    def test_evd_members_match_oracle(self, rng, k):
        B = np.round(rng.standard_normal((5, k, k)) * 2.0)
        B[B == 0.0] = -0.0  # exact +-0.0 eigenvalues
        idx = np.arange(k)
        B[1, idx, idx] = 3.0  # every eigenvalue tied
        B[2, idx, idx] = np.r_[[-0.0, 0.0], np.ones(k)][:k]
        J = rng.standard_normal((5, k, k))
        traces = [ConvergenceTrace() for _ in range(5)]
        got = finalize_evd_stack(B, J, traces)
        for m, res in enumerate(got):
            want = _finalize_evd_oracle(B[m], J[m], traces[m])
            _same_bytes(res, want, "JL")
            assert res.trace is traces[m]
            solo = finalize_evd_stack(B[m : m + 1], J[m : m + 1], traces[m : m + 1])
            _same_bytes(res, solo[0], "JL")
            assert not np.signbit(res.L[res.L == 0.0]).any()


class TestEngineFinalize:
    """Through the engine: a ragged batch's factors are the oracle's on
    each member's stacked solve, and equal to solving it alone."""

    def test_svd_batch_matches_oracle_and_solo(self, rng):
        zero_col = rng.standard_normal((12, 6))
        zero_col[:, 2] = 0.0
        repeated = rng.standard_normal((12, 6))
        repeated[:, 4] = repeated[:, 1]
        batch = [
            rng.standard_normal((12, 6)),
            rng.standard_normal((6, 14)),  # wide: solved transposed
            zero_col,
            rng.standard_normal((7, 1)),  # n = 1
            repeated,
            np.round(rng.standard_normal((12, 6))),
        ]
        cfg = OneSidedConfig()
        engine = BatchedJacobiEngine(cfg)
        got = engine.svd_batch(batch)
        stacked = StackedOneSidedJacobi(cfg)
        for i, (a, res) in enumerate(zip(batch, got)):
            _same_bytes(res, engine.svd_batch([a])[0], "USV")
            wide = a.shape[0] < a.shape[1]
            work = a.T if wide else a
            W, V, traces = stacked.solve_stack(work[None].copy())
            want = _finalize_onesided_oracle(W[0], V[0], traces[0])
            if wide:
                want = SVDResult(U=want.V, S=want.S, V=want.U)
            _same_bytes(res, want, "USV")

    def test_evd_batch_matches_oracle_and_solo(self, rng):
        batch = []
        for k in (5, 6, 5, 1, 6):
            M = rng.standard_normal((k, k))
            batch.append(M + M.T)
        batch.append(np.diag([2.0, -0.0, 2.0, 0.0, 1.0]))
        engine = BatchedJacobiEngine()
        got = engine.evd_batch(batch)
        stacked = StackedParallelEVD(TwoSidedConfig())
        for i, (B, res) in enumerate(zip(batch, got)):
            _same_bytes(res, engine.evd_batch([B])[0], "JL")
            if B.shape[0] == 1:
                continue
            Bs, Js, traces = stacked.solve_stack(
                B[None].copy(), np.array([np.linalg.norm(B)])
            )
            want = _finalize_evd_oracle(Bs[0], Js[0], traces[0])
            _same_bytes(res, want, "JL")
