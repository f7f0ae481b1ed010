"""Generic kNN regression on top of the manifold neighbor index."""

from __future__ import annotations

import numpy as np

from repro.manifold.neighbors import KNNIndex
from repro.utils.validation import check_2d, check_fitted, check_lengths_match


class KNNRegressor:
    """k-nearest-neighbor (multi-output) regression.

    ``weights="uniform"`` averages the k neighbors; ``"distance"`` uses
    inverse-distance weighting (exact matches dominate).

    ``shards > 1`` swaps the monolithic index for an exact
    :class:`repro.sharding.ShardedKNNIndex` (k-means cells by default,
    since generic regression carries no building/floor labels); the
    neighbors match the monolithic scan exactly, ties included (lowest
    index wins in both).
    """

    def __init__(
        self,
        k: int = 5,
        weights: str = "uniform",
        shards: int = 1,
        partitioner="kmeans",
        quantize_bins: "int | None" = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weights not in ("uniform", "distance"):
            raise ValueError(
                f"weights must be 'uniform' or 'distance', got {weights!r}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.k = int(k)
        self.weights = weights
        self.shards = int(shards)
        self.partitioner = partitioner
        self.quantize_bins = (
            None if quantize_bins is None else int(quantize_bins)
        )
        self.index_ = None  # KNNIndex | ShardedKNNIndex after fit
        self.targets_: "np.ndarray | None" = None
        self._squeeze = False

    @property
    def n_features_in_(self) -> "int | None":
        """Feature width of the fitted map (None before ``fit``)."""
        return None if self.index_ is None else self.index_.n_features

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        x = check_2d(x, "x")
        y = np.asarray(y, dtype=float)
        self._squeeze = y.ndim == 1
        if self._squeeze:
            y = y[:, None]
        check_lengths_match(x, y, "x", "y")
        if len(x) < self.k:
            raise ValueError(f"need at least k={self.k} samples, got {len(x)}")
        binner = None
        if self.quantize_bins is not None:
            from repro.quantization import FeatureBinner

            binner = FeatureBinner(n_bins=self.quantize_bins).fit(x)
        if self.shards > 1:
            from repro.sharding import ShardedKNNIndex

            self.index_ = ShardedKNNIndex(
                x,
                n_shards=self.shards,
                partitioner=self.partitioner,
                method="brute",
                binner=binner,
            )
        else:
            self.index_ = KNNIndex(x, method="brute", binner=binner)
        self.targets_ = y
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "index_")
        distances, indices = self.index_.query(check_2d(x, "x"), k=self.k)
        neighbor_targets = self.targets_[indices]  # (N, k, T)
        if self.weights == "distance":
            w = 1.0 / (distances + 1e-12)
            w /= w.sum(axis=1, keepdims=True)
            out = np.sum(neighbor_targets * w[:, :, None], axis=1)
        else:
            out = neighbor_targets.mean(axis=1)
        return out.ravel() if self._squeeze else out
