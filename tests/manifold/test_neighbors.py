"""Tests for kNN search: KD-tree vs brute-force agreement, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.manifold.neighbors import (
    KNNIndex,
    _drop_self_matches,
    epsilon_neighbors,
    kneighbors,
)

RNG = np.random.default_rng(11)


class TestKNNIndex:
    def test_nearest_is_self_when_included(self):
        points = RNG.normal(size=(20, 3))
        index = KNNIndex(points)
        dist, idx = index.query(points, k=1)
        np.testing.assert_array_equal(idx[:, 0], np.arange(20))
        np.testing.assert_allclose(dist[:, 0], 0.0, atol=1e-12)

    def test_exclude_self(self):
        points = RNG.normal(size=(20, 3))
        index = KNNIndex(points)
        _dist, idx = index.query(points, k=3, exclude_self=True)
        assert all(idx[i, 0] != i for i in range(20))

    def test_backends_agree(self):
        points = RNG.normal(size=(50, 4))
        queries = RNG.normal(size=(10, 4))
        d_tree, i_tree = KNNIndex(points, method="kdtree").query(queries, k=5)
        d_brute, i_brute = KNNIndex(points, method="brute").query(queries, k=5)
        np.testing.assert_allclose(d_tree, d_brute, atol=1e-9)
        np.testing.assert_array_equal(i_tree, i_brute)

    def test_distances_sorted(self):
        points = RNG.normal(size=(30, 2))
        dist, _idx = KNNIndex(points).query(RNG.normal(size=(5, 2)), k=10)
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_auto_picks_brute_for_high_dim(self):
        points = RNG.normal(size=(10, 50))
        assert KNNIndex(points, method="auto").method == "brute"

    def test_k_too_large_raises(self):
        index = KNNIndex(RNG.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="exceeds index size"):
            index.query(RNG.normal(size=(1, 2)), k=6)

    def test_dim_mismatch_raises(self):
        index = KNNIndex(RNG.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="dim"):
            index.query(RNG.normal(size=(1, 3)), k=1)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            KNNIndex(RNG.normal(size=(5, 2)), method="ann")

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_brute_matches_naive(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d))
        queries = rng.normal(size=(3, d))
        dist, idx = KNNIndex(points, method="brute").query(queries, k=k)
        for qi, q in enumerate(queries):
            naive = np.linalg.norm(points - q, axis=1)
            expected = np.sort(naive)[:k]
            np.testing.assert_allclose(np.sort(dist[qi]), expected, atol=1e-9)


class TestKExcessPolicy:
    """clamp-or-raise for k > index size, identical across backends."""

    @pytest.mark.parametrize("method", ["brute", "kdtree"])
    def test_clamp_returns_whole_index(self, method):
        points = RNG.normal(size=(6, 2))
        queries = RNG.normal(size=(3, 2))
        dist, idx = KNNIndex(points, method=method).query(
            queries, k=50, on_excess="clamp"
        )
        assert dist.shape == (3, 6)
        for row in idx:
            assert sorted(row.tolist()) == list(range(6))
        assert np.all(np.diff(dist, axis=1) >= -1e-12)

    def test_clamp_backends_agree(self):
        points = RNG.normal(size=(7, 3))
        queries = RNG.normal(size=(4, 3))
        d_brute, i_brute = KNNIndex(points, method="brute").query(
            queries, k=9, on_excess="clamp"
        )
        d_tree, i_tree = KNNIndex(points, method="kdtree").query(
            queries, k=9, on_excess="clamp"
        )
        np.testing.assert_allclose(d_brute, d_tree, atol=1e-9)
        np.testing.assert_array_equal(i_brute, i_tree)

    def test_clamp_with_exclude_self(self):
        points = RNG.normal(size=(5, 2))
        dist, idx = KNNIndex(points).query(
            points, k=99, exclude_self=True, on_excess="clamp"
        )
        assert dist.shape == (5, 4)
        assert not np.any(idx == np.arange(5)[:, None])

    def test_clamp_no_effect_when_k_fits(self):
        points = RNG.normal(size=(20, 3))
        queries = RNG.normal(size=(4, 3))
        index = KNNIndex(points, method="brute")
        d_plain, i_plain = index.query(queries, k=5)
        d_clamp, i_clamp = index.query(queries, k=5, on_excess="clamp")
        np.testing.assert_array_equal(d_clamp, d_plain)
        np.testing.assert_array_equal(i_clamp, i_plain)

    def test_raise_is_default(self):
        index = KNNIndex(RNG.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="exceeds index size"):
            index.query(RNG.normal(size=(1, 2)), k=5)

    def test_unknown_policy_rejected(self):
        index = KNNIndex(RNG.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="on_excess"):
            index.query(RNG.normal(size=(1, 2)), k=2, on_excess="pad")


class TestKneighbors:
    def test_excludes_self(self):
        points = RNG.normal(size=(15, 3))
        _dist, idx = kneighbors(points, k=4)
        for i in range(15):
            assert i not in idx[i]

    @pytest.mark.parametrize("method", ["brute", "kdtree"])
    def test_duplicate_points_keep_twin_not_self(self, method):
        # two coincident points: each must list the *other* at distance 0,
        # never itself (regression: the old positional drop could return
        # the query's own index when tie-breaking sorted the twin first)
        points = np.array(
            [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [6.0, 6.0], [7.0, 7.0]]
        )
        dist, idx = KNNIndex(points, method=method).query(
            points, k=2, exclude_self=True
        )
        assert not np.any(idx == np.arange(len(points))[:, None])
        assert idx[0, 0] == 1 and idx[1, 0] == 0
        np.testing.assert_allclose(dist[:2, 0], 0.0, atol=1e-12)

    def test_known_line_geometry(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]])
        dist, idx = kneighbors(points, k=1)
        assert idx[0, 0] == 1
        assert idx[3, 0] == 2
        assert dist[3, 0] == pytest.approx(8.0)


class TestBackendParity:
    """brute and kdtree must return byte-identical (distances, indices)."""

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_separate_queries(self, k):
        rng = np.random.default_rng(900 + k)
        points = rng.normal(size=(60, 3))
        queries = rng.normal(size=(25, 3))
        d_brute, i_brute = KNNIndex(points, method="brute").query(queries, k=k)
        d_tree, i_tree = KNNIndex(points, method="kdtree").query(queries, k=k)
        np.testing.assert_array_equal(i_brute, i_tree)
        np.testing.assert_allclose(d_brute, d_tree, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 4])
    def test_self_queries_with_exclude_self(self, k):
        rng = np.random.default_rng(910 + k)
        points = rng.normal(size=(40, 2))
        d_brute, i_brute = KNNIndex(points, method="brute").query(
            points, k=k, exclude_self=True
        )
        d_tree, i_tree = KNNIndex(points, method="kdtree").query(
            points, k=k, exclude_self=True
        )
        np.testing.assert_array_equal(i_brute, i_tree)
        np.testing.assert_allclose(d_brute, d_tree, atol=1e-12)
        assert i_brute.shape == (40, k)
        assert not np.any(i_brute == np.arange(40)[:, None])

    def test_k1_exclude_self_is_true_nearest_other(self):
        rng = np.random.default_rng(920)
        points = rng.normal(size=(30, 4))
        for method in ("brute", "kdtree"):
            dist, idx = KNNIndex(points, method=method).query(
                points, k=1, exclude_self=True
            )
            full = np.linalg.norm(points[:, None] - points[None, :], axis=2)
            np.fill_diagonal(full, np.inf)
            np.testing.assert_array_equal(idx[:, 0], full.argmin(axis=1))
            np.testing.assert_allclose(dist[:, 0], full.min(axis=1), atol=1e-12)


def _drop_self_matches_loop(distances, indices, k):
    """Per-row implementation of the identity drop, kept as the oracle.

    Mirrors the documented contract: drop the entry whose index equals
    its row (the query's own point); when the self entry is absent
    (crowded out by lower-index twins), drop the last column, so the
    first ``k`` stay — the lowest-index-wins answer.
    """
    m = distances.shape[0]
    out_d = np.empty((m, k))
    out_i = np.empty((m, k), dtype=int)
    positions = np.arange(distances.shape[1])
    for row in range(m):
        matches = np.flatnonzero(indices[row] == row)
        drop = matches[0] if len(matches) else len(positions) - 1
        keep = positions != drop
        out_d[row] = distances[row, keep][:k]
        out_i[row] = indices[row, keep][:k]
    return out_d, out_i


def _epsilon_neighbors_loop(points, radius):
    """Pre-vectorization implementation, kept as the regression oracle."""
    tree = cKDTree(points)
    result = []
    for i, nearby in enumerate(tree.query_ball_point(points, r=radius)):
        result.append(np.array([j for j in nearby if j != i], dtype=int))
    return result


class TestVectorizationRegression:
    """Vectorized hot paths must match the original per-row loops."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_drop_self_matches_pins_loop_output(self, seed, k):
        rng = np.random.default_rng(seed)
        distances = np.sort(rng.uniform(size=(12, k + 1)), axis=1)
        distances[:, 0] = 0.0
        indices = rng.permuted(
            np.tile(np.arange(k + 1), (12, 1)), axis=1
        )
        got_d, got_i = _drop_self_matches(distances, indices, k)
        want_d, want_i = _drop_self_matches_loop(distances, indices, k)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_i, want_i)
        assert got_i.dtype == want_i.dtype

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("radius", [0.3, 1.0, 4.0])
    def test_epsilon_neighbors_pins_loop_output(self, seed, radius):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(35, 2))
        got = epsilon_neighbors(points, radius=radius)
        want = _epsilon_neighbors_loop(points, radius=radius)
        assert len(got) == len(want)
        for row_got, row_want in zip(got, want):
            # the vectorized version guarantees ascending order; the loop
            # oracle's order came from query_ball_point, so compare sorted
            np.testing.assert_array_equal(row_got, np.sort(row_want))
            assert row_got.dtype.kind == "i"

    def test_epsilon_neighbors_no_pairs(self):
        points = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        result = epsilon_neighbors(points, radius=1.0)
        assert [row.tolist() for row in result] == [[], [], []]
        assert all(row.dtype.kind == "i" for row in result)

    def test_epsilon_neighbors_duplicate_points(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        result = epsilon_neighbors(points, radius=1.0)
        assert result[0].tolist() == [1]
        assert result[1].tolist() == [0]
        assert result[2].tolist() == []


class TestEpsilonNeighbors:
    def test_radius_respected(self):
        points = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 0.0]])
        result = epsilon_neighbors(points, radius=1.0)
        assert result[0].tolist() == [1]
        assert result[2].tolist() == []

    def test_self_excluded(self):
        points = RNG.normal(size=(10, 2))
        for i, nearby in enumerate(epsilon_neighbors(points, radius=10.0)):
            assert i not in nearby

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            epsilon_neighbors(RNG.normal(size=(3, 2)), radius=0.0)
