"""Quantized two-stage queries: uint8 shortlist scan + exact rerank."""

import numpy as np
import pytest

from repro.manifold.neighbors import KNNIndex
from repro.quantization import FeatureBinner

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


class TestRefineOption:
    def test_defaults_to_raw_quantized_distances(self):
        points, _ = dense_map(n=200)
        binner = FeatureBinner(n_bins=16, strategy="uniform").fit(points)
        index = KNNIndex(points, binner=binner)
        assert index.refine == 0
        assert index.points is None  # no float copy without a rerank
        assert KNNIndex(points, binner=binner, refine=2).points is points

    def test_invalid_refine_rejected(self):
        points = RNG.uniform(size=(20, 3))
        binner = FeatureBinner(n_bins=16, strategy="uniform").fit(points)
        with pytest.raises(ValueError, match="refine"):
            KNNIndex(points, binner=binner, refine=-2)
        with pytest.raises(ValueError, match="binner"):
            KNNIndex(points, refine=2)


class TestRerankRecall:
    def test_rerank_recovers_exact_neighbors(self):
        points, queries = dense_map()
        k = 10
        exact_d, exact_idx = KNNIndex(points, method="brute").query(
            queries, k=k
        )
        binner = FeatureBinner(n_bins=64, strategy="uniform").fit(points)
        raw = KNNIndex(points, binner=binner, refine=0)
        refined = KNNIndex(points, binner=binner, refine=4)

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
        raw = KNNIndex(points, binner=binner, refine=0)
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
        index = KNNIndex(points, binner=binner, refine=6)
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
        # refine * k far beyond N: the shortlist clamps to the whole
        # map, returning all points ranked
        points = RNG.uniform(0, 1, size=(12, 4))
        queries = RNG.uniform(0, 1, size=(3, 4))
        binner = FeatureBinner(n_bins=256, strategy="uniform").fit(points)
        index = KNNIndex(points, binner=binner, refine=100)
        dist, idx = index.query(queries, k=12)
        exact_d, exact_i = KNNIndex(points, method="brute").query(
            queries, k=12
        )
        np.testing.assert_allclose(dist, exact_d, atol=1e-6)
        assert (np.sort(idx, axis=1) == np.arange(12)).all()
