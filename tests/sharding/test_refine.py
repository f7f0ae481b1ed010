"""Quantized two-stage queries: uint8 shortlist scan + exact rerank."""

import numpy as np
import pytest

from repro.manifold.neighbors import KNNIndex
from repro.quantization import FeatureBinner
from repro.sharding import ShardedKNNIndex
from repro.sharding.index import _resolve_refine

RNG = np.random.default_rng(53)


def dense_map(n=1500, d=24):
    """Tightly packed clusters where raw quantized recall visibly drops."""
    centers = RNG.uniform(0, 1, size=(n // 50, d))
    points = np.repeat(centers, 50, axis=0) + RNG.normal(
        0, 0.02, size=(n, d)
    )
    queries = points[RNG.choice(n, 40, replace=False)] + RNG.normal(
        0, 0.005, size=(40, d)
    )
    return points, queries


class TestResolveRefine:
    def test_defaults(self):
        binner = object()
        assert _resolve_refine(None, binner) == 4
        assert _resolve_refine(None, None) == 0
        assert _resolve_refine(0, binner) == 0
        assert _resolve_refine(7, None) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="refine"):
            _resolve_refine(-1, None)
        with pytest.raises(ValueError, match="refine"):
            ShardedKNNIndex(
                RNG.uniform(size=(20, 3)), n_shards=2, refine=-2
            )

    def test_binned_index_defaults_to_refining(self):
        points, _ = dense_map(n=200)
        binner = FeatureBinner(n_bins=16, strategy="uniform").fit(points)
        index = ShardedKNNIndex(points, n_shards=2, binner=binner)
        assert index.refine == 4
        unbinned = ShardedKNNIndex(points, n_shards=2)
        assert unbinned.refine == 0


class TestRerankRecall:
    def test_rerank_recovers_exact_neighbors(self):
        points, queries = dense_map()
        k = 10
        _, exact_idx = KNNIndex(points, method="brute").query(queries, k=k)
        exact_d, _ = KNNIndex(points, method="brute").query(queries, k=k)
        binner = FeatureBinner(n_bins=64, strategy="uniform").fit(points)
        raw = ShardedKNNIndex(
            points, n_shards=3, partitioner="kmeans",
            binner=binner, refine=0,
        )
        refined = ShardedKNNIndex(
            points, n_shards=3, partitioner="kmeans",
            binner=binner, refine=4,
        )

        def recall(idx):
            return np.mean(
                [len(set(a) & set(b)) for a, b in zip(exact_idx, idx)]
            ) / k

        raw_recall = recall(raw.query(queries, k=k)[1])
        refined_d, refined_idx = refined.query(queries, k=k)
        assert recall(refined_idx) > raw_recall
        assert recall(refined_idx) >= 0.99
        # reranked distances are *exact* float distances, not ADC ones
        np.testing.assert_allclose(refined_d, exact_d, atol=1e-9)

    def test_refine_zero_serves_raw_quantized_distances(self):
        points, queries = dense_map(n=400)
        binner = FeatureBinner(n_bins=8, strategy="uniform").fit(points)
        raw = ShardedKNNIndex(
            points, n_shards=2, binner=binner, refine=0
        )
        dist, idx = raw.query(queries, k=5)
        # raw distances are against dequantized midpoints: they differ
        # from the exact distances to the returned neighbors
        exact_to_returned = np.linalg.norm(
            points[idx] - queries[:, None, :], axis=2
        )
        assert not np.allclose(dist, exact_to_returned, atol=1e-6)

    def test_rerank_with_exclude_self(self):
        points, _ = dense_map(n=600)
        k = 5
        binner = FeatureBinner(n_bins=32, strategy="uniform").fit(points)
        index = ShardedKNNIndex(
            points, n_shards=3, binner=binner, refine=6
        )
        dist, idx = index.query(points, k=k, exclude_self=True)
        assert dist.shape == idx.shape == (len(points), k)
        assert (idx != np.arange(len(points))[:, None]).all()
        _, exact_idx = KNNIndex(points, method="brute").query(
            points, k=k, exclude_self=True
        )
        overlap = np.mean(
            [len(set(a) & set(b)) for a, b in zip(exact_idx, idx)]
        )
        assert overlap / k >= 0.99

    def test_shortlist_clamps_to_index_size(self):
        # refine * k far beyond N: the scan_k clamp and the rerank's
        # padding path must both hold, returning all points ranked
        points = RNG.uniform(0, 1, size=(12, 4))
        queries = RNG.uniform(0, 1, size=(3, 4))
        binner = FeatureBinner(n_bins=256, strategy="uniform").fit(points)
        index = ShardedKNNIndex(
            points, n_shards=4, partitioner="chunk",
            binner=binner, refine=100,
        )
        dist, idx = index.query(queries, k=12)
        exact_d, exact_i = KNNIndex(points, method="brute").query(
            queries, k=12
        )
        np.testing.assert_allclose(dist, exact_d, atol=1e-6)
        assert (np.sort(idx, axis=1) == np.arange(12)).all()

    def test_pruned_and_unpruned_plans_agree_under_rerank(self):
        points, queries = dense_map(n=800)
        binner = FeatureBinner(n_bins=64, strategy="uniform").fit(points)
        kwargs = dict(
            n_shards=4, partitioner="kmeans", binner=binner, refine=4
        )
        pruned = ShardedKNNIndex(points, prune=True, **kwargs)
        full = ShardedKNNIndex(points, prune=False, **kwargs)
        dp, _ = pruned.query(queries, k=8)
        df, _ = full.query(queries, k=8)
        np.testing.assert_allclose(dp, df, atol=1e-9)


class TestRestore:
    def test_from_shard_state_restores_refine_default(self):
        points, queries = dense_map(n=300)
        binner = FeatureBinner(n_bins=32, strategy="uniform").fit(points)
        index = ShardedKNNIndex(points, n_shards=2, binner=binner)
        restored = ShardedKNNIndex.from_shard_state(
            points, index.shard_state(), binner=binner
        )
        assert restored.refine == index.refine == 4
        np.testing.assert_allclose(
            index.query(queries, k=4)[0],
            restored.query(queries, k=4)[0],
            atol=1e-9,
        )

    def test_from_shard_state_explicit_refine_zero(self):
        points, _ = dense_map(n=200)
        binner = FeatureBinner(n_bins=16, strategy="uniform").fit(points)
        index = ShardedKNNIndex(points, n_shards=2, binner=binner)
        restored = ShardedKNNIndex.from_shard_state(
            points, index.shard_state(), binner=binner, refine=0
        )
        assert restored.refine == 0
