"""Generic kNN regression on top of the manifold neighbor index."""

from __future__ import annotations

import numpy as np

from repro.manifold.neighbors import KNNIndex
from repro.utils.validation import check_2d, check_fitted, check_lengths_match


class KNNRegressor:
    """k-nearest-neighbor (multi-output) regression.

    ``weights="uniform"`` averages the k neighbors; ``"distance"`` uses
    inverse-distance weighting (exact matches dominate).

    One brute-force :class:`~repro.manifold.neighbors.KNNIndex` serves
    the neighbors (lowest index wins distance ties).
    """

    def __init__(self, k: int = 5, weights: str = "uniform"):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weights not in ("uniform", "distance"):
            raise ValueError(
                f"weights must be 'uniform' or 'distance', got {weights!r}"
            )
        self.k = int(k)
        self.weights = weights
        self.index_ = None  # KNNIndex after fit
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
        self.index_ = KNNIndex(x, method="brute")
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
