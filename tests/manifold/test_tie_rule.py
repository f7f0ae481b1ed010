"""The pinned neighbor tie rule: among equal distances the lowest index wins.

Every scan configuration is checked for *exact index equality* against
one oracle — a stable argsort of the full float64 distance matrix — on
duplicate-heavy integer maps, where every distance is computed exactly
and exact twins tie at the k-th distance all the time.  Maps are
permuted so twins sit in different tiles and different shards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.manifold.chunked import chunked_argkmin
from repro.manifold.neighbors import KNNIndex, kneighbors
from repro.quantization import FeatureBinner
from repro.quantization.binning import BinnedPoints
from repro.sharding import ChunkPartitioner, ShardedKNNIndex

TIE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def duplicate_map(seed, n_unique, copies, dim):
    """Integer points, each repeated up to ``copies`` times, shuffled."""
    rng = np.random.default_rng(seed)
    unique = rng.integers(-3, 4, size=(n_unique, dim))
    reps = rng.integers(1, copies + 1, size=n_unique)
    points = np.repeat(unique, reps, axis=0)
    return points[rng.permutation(len(points))].astype(float), rng


def oracle(queries, points, k, exclude_self=False):
    """Stable argsort of the exact full distance matrix."""
    d2 = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    if exclude_self:
        d2[np.arange(len(queries)), np.arange(len(queries))] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.sqrt(np.take_along_axis(d2, order, axis=1)), order


map_params = dict(
    seed=st.integers(0, 10_000),
    n_unique=st.integers(1, 12),
    copies=st.integers(1, 6),
    dim=st.integers(1, 4),
    k=st.integers(1, 12),
)


class TestKernel:
    @TIE_SETTINGS
    @given(
        chunk_rows=st.sampled_from([1, 3, 7, None]),
        query_block=st.sampled_from([1, 4, None]),
        **map_params,
    )
    def test_float64_source(
        self, seed, n_unique, copies, dim, k, chunk_rows, query_block
    ):
        points, rng = duplicate_map(seed, n_unique, copies, dim)
        queries = rng.integers(-3, 4, size=(5, dim)).astype(float)
        dist, idx = chunked_argkmin(
            queries, points, k, chunk_rows=chunk_rows, query_block=query_block
        )
        odist, oidx = oracle(queries, points, min(k, len(points)))
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_array_equal(dist, odist)

    @TIE_SETTINGS
    @given(chunk_rows=st.sampled_from([1, 3, 7, None]), **map_params)
    def test_float32_source(self, seed, n_unique, copies, dim, k, chunk_rows):
        points, rng = duplicate_map(seed, n_unique, copies, dim)
        queries = rng.integers(-3, 4, size=(5, dim)).astype(float)
        dist, idx = chunked_argkmin(
            queries.astype(np.float32),
            points.astype(np.float32),
            k,
            chunk_rows=chunk_rows,
        )
        odist, oidx = oracle(queries, points, min(k, len(points)))
        assert dist.dtype == np.float32
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_allclose(dist, odist, rtol=1e-6)

    @TIE_SETTINGS
    @given(
        chunk_rows=st.sampled_from([1, 3, 7, None]),
        n_bins=st.integers(2, 8),
        **map_params,
    )
    def test_binned_source(
        self, seed, n_unique, copies, dim, k, chunk_rows, n_bins
    ):
        # quantile midpoints of integer data are quarter-integers, so the
        # dequantized map keeps every distance exact
        points, rng = duplicate_map(seed, n_unique, copies, dim)
        binner = FeatureBinner(n_bins=n_bins).fit(points)
        source = BinnedPoints(binner, binner.transform(points))
        queries = rng.integers(-3, 4, size=(5, dim)).astype(float)
        dist, idx = chunked_argkmin(queries, source, k, chunk_rows=chunk_rows)
        dequantized = source.chunk(0, len(points)).astype(float)
        odist, oidx = oracle(queries, dequantized, min(k, len(points)))
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_array_equal(dist, odist)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_neighbors_in_one_end_tile(self, where):
        # far decoys fill every other tile; twins of the query sit only in
        # the first tile (pruning's best case) or only in the last (its
        # worst case: every earlier tile raised the bound)
        rng = np.random.default_rng(5)
        far = rng.integers(20, 40, size=(60, 3)).astype(float)
        near = np.array([[0.0, 0, 0]] * 4 + [[1.0, 0, 0]] * 4)
        points = (
            np.vstack([near, far]) if where == "first" else np.vstack([far, near])
        )
        queries = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        for chunk_rows in (3, 8, None):
            dist, idx = chunked_argkmin(queries, points, 6, chunk_rows=chunk_rows)
            odist, oidx = oracle(queries, points, 6)
            np.testing.assert_array_equal(idx, oidx)
            np.testing.assert_array_equal(dist, odist)


class TestIndexes:
    @TIE_SETTINGS
    @given(binned=st.booleans(), **map_params)
    def test_knn_index(self, seed, n_unique, copies, dim, k, binned):
        points, rng = duplicate_map(seed, n_unique, copies, dim)
        queries = rng.integers(-3, 4, size=(5, dim)).astype(float)
        k = min(k, len(points))
        if binned:
            binner = FeatureBinner(n_bins=4).fit(points)
            index = KNNIndex(points, method="brute", binner=binner)
            reference = index._source.chunk(0, len(points)).astype(float)
        else:
            index = KNNIndex(points, method="brute")
            reference = points
        dist, idx = index.query(queries, k)
        odist, oidx = oracle(queries, reference, k)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_allclose(dist, odist, rtol=1e-6)

    @TIE_SETTINGS
    @given(
        n_shards=st.integers(2, 4),
        prune=st.booleans(),
        max_workers=st.sampled_from([1, 4]),
        **map_params,
    )
    def test_sharded_index(
        self, seed, n_unique, copies, dim, k, n_shards, prune, max_workers
    ):
        points, rng = duplicate_map(seed, n_unique, copies, dim)
        queries = rng.integers(-3, 4, size=(6, dim)).astype(float)
        k = min(k, len(points))
        sharded = ShardedKNNIndex(
            points,
            partitioner=ChunkPartitioner(n_shards),
            method="brute",
            prune=prune,
            max_workers=max_workers,
        )
        dist, idx = sharded.query(queries, k)
        odist, oidx = oracle(queries, points, k)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_array_equal(dist, odist)
        mono = KNNIndex(points, method="brute").query(queries, k)
        np.testing.assert_array_equal(idx, mono[1])

    @TIE_SETTINGS
    @given(n_shards=st.integers(1, 4), **map_params)
    def test_exclude_self(self, seed, n_unique, copies, dim, k, n_shards):
        points, _rng = duplicate_map(seed, n_unique, copies, dim)
        if len(points) < 2:
            return
        k = min(k, len(points) - 1)
        odist, oidx = oracle(points, points, k, exclude_self=True)
        dist, idx = kneighbors(
            points, k, method="brute", shards=n_shards, partitioner="chunk"
        )
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_array_equal(dist, odist)


class TestMergeHelper:
    @TIE_SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 6),
        cols=st.integers(1, 30),
        k=st.integers(1, 35),
    )
    def test_matches_lexsort(self, seed, rows, cols, k):
        from repro.manifold.chunked import tie_ordered_top_k

        rng = np.random.default_rng(seed)
        dist = rng.integers(0, 4, size=(rows, cols)).astype(float)
        idx = np.stack([rng.permutation(100)[:cols] for _ in range(rows)])
        got_d, got_i = tie_ordered_top_k(dist, idx, k)
        order = np.lexsort((idx, dist), axis=1)[:, :k]
        np.testing.assert_array_equal(got_i, np.take_along_axis(idx, order, 1))
        np.testing.assert_array_equal(got_d, np.take_along_axis(dist, order, 1))
