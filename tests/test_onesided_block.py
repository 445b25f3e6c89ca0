"""Block one-sided Jacobi SVD (paper Algorithm 1) and Theorem 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    EXTREME_SCALES,
    assert_meets_contract,
    assert_valid_svd,
    rescaled,
)
from repro.errors import ConfigurationError
from repro.jacobi import BlockJacobiConfig, BlockJacobiSVD
from repro.jacobi.onesided_block import column_blocks


class TestColumnBlocks:
    def test_even_split(self):
        assert column_blocks(8, 2) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_ragged_tail(self):
        assert column_blocks(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_width_larger_than_n(self):
        assert column_blocks(3, 8) == [(0, 3)]

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            column_blocks(4, 0)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            column_blocks(0, 2)

    def test_blocks_partition_everything(self):
        blocks = column_blocks(17, 5)
        covered = [c for a, b in blocks for c in range(a, b)]
        assert covered == list(range(17))


class TestConfig:
    @pytest.mark.parametrize("source", ["gram-evd", "direct-svd"])
    def test_valid_sources(self, source):
        BlockJacobiConfig(rotation_source=source)

    def test_invalid_source(self):
        with pytest.raises(ConfigurationError, match="rotation_source"):
            BlockJacobiConfig(rotation_source="magic")

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            BlockJacobiConfig(width=0)


class TestCorrectness:
    @pytest.mark.parametrize("source", ["gram-evd", "direct-svd"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
    def test_matches_lapack(self, rng, source, width):
        A = rng.standard_normal((16, 12))
        cfg = BlockJacobiConfig(width=width, rotation_source=source)
        assert_valid_svd(A, BlockJacobiSVD(cfg).decompose(A))

    def test_width_exceeding_half_n_degenerates_gracefully(self, rng):
        A = rng.standard_normal((10, 6))
        res = BlockJacobiSVD(BlockJacobiConfig(width=6)).decompose(A)
        assert_valid_svd(A, res)

    def test_ragged_blocks(self, rng):
        A = rng.standard_normal((14, 11))  # 11 = 3 blocks of 4, 4, 3
        res = BlockJacobiSVD(BlockJacobiConfig(width=4)).decompose(A)
        assert_valid_svd(A, res)

    @pytest.mark.parametrize("source", ["gram-evd", "direct-svd"])
    def test_wide_matrix(self, rng, source):
        A = rng.standard_normal((6, 14))
        cfg = BlockJacobiConfig(width=3, rotation_source=source)
        assert_valid_svd(A, BlockJacobiSVD(cfg).decompose(A))

    def test_sequential_evd_variant(self, rng):
        A = rng.standard_normal((12, 8))
        cfg = BlockJacobiConfig(width=2, parallel_evd=False)
        assert_valid_svd(A, BlockJacobiSVD(cfg).decompose(A))

    def test_rank_deficient(self, rng):
        U = rng.standard_normal((12, 2))
        V = rng.standard_normal((8, 2))
        A = U @ V.T
        res = BlockJacobiSVD(BlockJacobiConfig(width=2)).decompose(A)
        assert res.reconstruction_error(A) < 1e-10
        assert (res.S[2:] < 1e-10).all()

    @pytest.mark.parametrize("source", ["gram-evd", "direct-svd"])
    @pytest.mark.parametrize("scale", EXTREME_SCALES, ids=lambda s: f"{s:g}")
    def test_any_finite_scale_meets_the_contract(self, source, scale):
        A = np.random.default_rng(0).standard_normal((64, 32)) * scale
        cfg = BlockJacobiConfig(rotation_source=source)
        result = BlockJacobiSVD(cfg).decompose(A)
        assert_meets_contract(
            *rescaled(A, result), relative=True, label=f"{source} {scale:g}"
        )


class TestTheorem1:
    """SVD of A_ij and EVD of B_ij yield the same rotation subspace."""

    @pytest.mark.parametrize("width", [2, 4])
    def test_gram_and_direct_agree_on_singular_values(self, rng, width):
        A = rng.standard_normal((18, 12))
        s_gram = BlockJacobiSVD(
            BlockJacobiConfig(width=width, rotation_source="gram-evd")
        ).decompose(A).S
        s_direct = BlockJacobiSVD(
            BlockJacobiConfig(width=width, rotation_source="direct-svd")
        ).decompose(A).S
        np.testing.assert_allclose(s_gram, s_direct, atol=1e-9)

    def test_rotation_for_pair_is_orthogonal(self, rng):
        solver = BlockJacobiSVD(BlockJacobiConfig(width=2))
        Aij = rng.standard_normal((10, 4))
        J = solver.rotation_for_pair(Aij)
        np.testing.assert_allclose(J.T @ J, np.eye(4), atol=1e-12)

    def test_rotation_orthogonalizes_pair(self, rng):
        from repro.jacobi.convergence import gram_offdiagonal_cosine

        for source in ("gram-evd", "direct-svd"):
            solver = BlockJacobiSVD(
                BlockJacobiConfig(width=2, rotation_source=source)
            )
            Aij = rng.standard_normal((10, 4))
            rotated = Aij @ solver.rotation_for_pair(Aij)
            assert gram_offdiagonal_cosine(rotated) < 1e-10

    def test_rotation_for_short_wide_pair(self, rng):
        """m < 2w: thin SVD must be completed to a square rotation."""
        solver = BlockJacobiSVD(
            BlockJacobiConfig(width=3, rotation_source="direct-svd")
        )
        Aij = rng.standard_normal((4, 6))
        J = solver.rotation_for_pair(Aij)
        assert J.shape == (6, 6)
        np.testing.assert_allclose(J.T @ J, np.eye(6), atol=1e-10)


class TestStats:
    def test_counts_populated(self, rng):
        A = rng.standard_normal((12, 8))
        solver = BlockJacobiSVD(BlockJacobiConfig(width=2))
        solver.decompose(A)
        stats = solver.last_stats
        assert stats.block_rotations > 0
        assert stats.update_gemms == stats.block_rotations
        assert stats.gram_gemms == stats.inner_evd_calls

    def test_direct_source_skips_gram(self, rng):
        A = rng.standard_normal((12, 8))
        solver = BlockJacobiSVD(
            BlockJacobiConfig(width=2, rotation_source="direct-svd")
        )
        solver.decompose(A)
        assert solver.last_stats.gram_gemms == 0
        assert solver.last_stats.inner_svd_calls > 0

    def test_wider_blocks_need_fewer_rotations(self, rng):
        """Paper Fig. 2: rotations per sweep fall as w grows."""
        A = rng.standard_normal((20, 16))
        counts = {}
        for width in (1, 2, 4):
            solver = BlockJacobiSVD(BlockJacobiConfig(width=width))
            res = solver.decompose(A)
            counts[width] = res.trace.records[0].rotations
        assert counts[4] < counts[2] < counts[1]


@settings(max_examples=15, deadline=None)
@given(
    width=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    source=st.sampled_from(["gram-evd", "direct-svd"]),
)
def test_block_jacobi_property(width, seed, source):
    """Property: block Jacobi matches LAPACK for any width/source."""
    A = np.random.default_rng(seed).standard_normal((12, 10))
    cfg = BlockJacobiConfig(width=width, rotation_source=source)
    res = BlockJacobiSVD(cfg).decompose(A)
    ref = np.linalg.svd(A, compute_uv=False)
    assert np.abs(res.S - ref).max() < 1e-8 * max(1.0, ref[0])
