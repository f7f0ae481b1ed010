"""Parity suite for the cache-blocked brute-force kernels.

Every test pits :func:`chunked_argkmin` / :func:`chunked_radius_neighbors`
against the monolithic full-matrix scan — the oracle the kernels
replaced — with tile sizes shrunk far below the data so the block merge
logic actually runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manifold.chunked import (
    chunked_argkmin,
    chunked_radius_neighbors,
    l2_cache_bytes,
    resolve_chunk_rows,
)

RNG = np.random.default_rng(31)


def oracle_argkmin(queries, points, k):
    """Full (M, N) distance matrix top-k — the pre-chunking scan."""
    d = np.sqrt(
        np.maximum(
            np.sum(queries**2, axis=1)[:, None]
            - 2.0 * queries @ points.T
            + np.sum(points**2, axis=1),
            0.0,
        )
    )
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(d, order, axis=1), order


class TestArgkminParity:
    def test_matches_full_matrix_oracle(self):
        queries = RNG.normal(size=(40, 12))
        points = RNG.normal(size=(300, 12))
        dist, idx = chunked_argkmin(queries, points, k=7, chunk_rows=33)
        odist, oidx = oracle_argkmin(queries, points, k=7)
        np.testing.assert_allclose(dist, odist, atol=1e-9)
        np.testing.assert_array_equal(idx, oidx)

    def test_k_larger_than_chunk(self):
        # top-k must survive merges where every tile holds fewer than k
        # points, so candidates accumulate across chunk boundaries
        queries = RNG.normal(size=(11, 5))
        points = RNG.normal(size=(150, 5))
        dist, idx = chunked_argkmin(
            queries, points, k=20, chunk_rows=6, query_block=4
        )
        odist, oidx = oracle_argkmin(queries, points, k=20)
        np.testing.assert_allclose(dist, odist, atol=1e-9)
        np.testing.assert_array_equal(idx, oidx)

    def test_k_exceeding_points_clamps(self):
        queries = RNG.normal(size=(3, 4))
        points = RNG.normal(size=(5, 4))
        dist, idx = chunked_argkmin(queries, points, k=50)
        assert dist.shape == idx.shape == (3, 5)
        odist, _ = oracle_argkmin(queries, points, k=5)
        np.testing.assert_allclose(dist, odist, atol=1e-9)

    def test_ties_return_tied_distances(self):
        # triplicated integer points tie exactly: the lowest index wins,
        # as in a stable argsort of the full matrix, whatever the tiling
        base = RNG.integers(-4, 5, size=(20, 6)).astype(float)
        points = np.vstack([base, base, base])
        queries = base[:5] + 0.5
        dist, idx = chunked_argkmin(queries, points, k=9, chunk_rows=7)
        odist, oidx = oracle_argkmin(queries, points, k=9)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_allclose(dist, odist, atol=1e-9)
        # every returned index really is at its claimed distance
        gathered = np.linalg.norm(
            points[idx] - queries[:, None, :], axis=2
        )
        np.testing.assert_allclose(gathered, dist, atol=1e-9)

    def test_float32_stays_float32(self):
        queries = RNG.normal(size=(8, 10)).astype(np.float32)
        points = RNG.normal(size=(60, 10)).astype(np.float32)
        dist, idx = chunked_argkmin(queries, points, k=4, chunk_rows=13)
        assert dist.dtype == np.float32
        odist, oidx = oracle_argkmin(
            queries.astype(float), points.astype(float), k=4
        )
        np.testing.assert_allclose(dist, odist, atol=1e-4)
        np.testing.assert_array_equal(idx, oidx)

    def test_cached_sq_norms_change_nothing(self):
        queries = RNG.normal(size=(9, 7))
        points = RNG.normal(size=(80, 7))
        sq = np.sum(points**2, axis=1)
        plain = chunked_argkmin(queries, points, k=5, chunk_rows=11)
        cached = chunked_argkmin(
            queries, points, k=5, chunk_rows=11, sq_norms=sq
        )
        np.testing.assert_allclose(plain[0], cached[0])
        np.testing.assert_array_equal(plain[1], cached[1])

    def test_empty_queries(self):
        dist, idx = chunked_argkmin(
            np.empty((0, 3)), RNG.normal(size=(10, 3)), k=2
        )
        assert dist.shape == idx.shape == (0, 2)

    def test_rejects_nonpositive_k_and_dim_mismatch(self):
        points = RNG.normal(size=(10, 3))
        with pytest.raises(ValueError, match="k must be positive"):
            chunked_argkmin(points, points, k=0)
        with pytest.raises(ValueError, match="dim"):
            chunked_argkmin(RNG.normal(size=(2, 4)), points, k=1)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=120),
        m=st.integers(min_value=1, max_value=25),
        d=st.integers(min_value=1, max_value=16),
        k=st.integers(min_value=1, max_value=30),
        chunk=st.integers(min_value=1, max_value=40),
    )
    def test_property_parity(self, seed, n, m, d, k, chunk):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d))
        queries = rng.normal(size=(m, d))
        dist, idx = chunked_argkmin(
            queries, points, k=k, chunk_rows=chunk, query_block=chunk
        )
        eff_k = min(k, n)
        odist, _ = oracle_argkmin(queries, points, k=eff_k)
        assert dist.shape == (m, eff_k)
        np.testing.assert_allclose(dist, odist, atol=1e-9)
        # rows sorted ascending, indices in range
        assert (np.diff(dist, axis=1) >= -1e-12).all()
        assert ((idx >= 0) & (idx < n)).all()


class TestRadiusParity:
    def test_matches_oracle_mask(self):
        queries = RNG.normal(size=(15, 8))
        points = RNG.normal(size=(90, 8))
        rows = chunked_radius_neighbors(
            queries, points, radius=3.0, chunk_rows=9, query_block=4
        )
        d = np.linalg.norm(queries[:, None, :] - points, axis=2)
        for got, row in zip(rows, d):
            np.testing.assert_array_equal(got, np.flatnonzero(row <= 3.0))

    def test_exclude_self_drops_own_index_only(self):
        points = RNG.normal(size=(25, 4))
        rows = chunked_radius_neighbors(
            points, points, radius=10.0, chunk_rows=6, exclude_self=True
        )
        for i, row in enumerate(rows):
            assert i not in row
            assert len(row) == 24  # everything else is within radius 10

    def test_rejects_nonpositive_radius(self):
        points = RNG.normal(size=(5, 2))
        with pytest.raises(ValueError, match="radius"):
            chunked_radius_neighbors(points, points, radius=0.0)


class TestTileSizing:
    def test_l2_detection_returns_sane_bytes(self):
        l2 = l2_cache_bytes()
        assert 64 * 1024 <= l2 <= 512 * 1024 * 1024

    def test_chunk_rows_clamped(self):
        assert resolve_chunk_rows(4, 8, l2_bytes=1) == 32
        assert resolve_chunk_rows(4, 1, l2_bytes=1 << 34) == 8192

    def test_smaller_itemsize_gives_larger_tiles(self):
        # the tile edge scales with ~1/sqrt(itemsize): a float32 scan
        # earns ~1.4x the edge of a float64 scan from the same budget
        f64 = resolve_chunk_rows(48, 8, l2_bytes=2 << 20)
        f32 = resolve_chunk_rows(48, 4, l2_bytes=2 << 20)
        assert f32 > 1.3 * f64

    def test_tiles_follow_the_query_block(self):
        # a square block gets the square edge back; a 10-row serving
        # batch gets ~10x taller tiles, so ~10x fewer GEMMs per map pass
        from repro.manifold.chunked import _tile_rows

        l2 = 2 << 20
        square = resolve_chunk_rows(48, 8, l2_bytes=l2)
        assert abs(_tile_rows(square, 48, 8, l2_bytes=l2) - square) <= 1
        assert _tile_rows(10, 48, 8, l2_bytes=l2) > 8 * square
        assert _tile_rows(10**6, 48, 8, l2_bytes=l2) == 32
