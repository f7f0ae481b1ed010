"""Classic kNN fingerprinting (RADAR-style) comparator.

Not in the paper's tables, but it is the canonical radio-map method
(§II "Online phase: observed RSSI values are matched with points on the
radio map ... searching for the most similar locations"); having it in
the harness contextualizes the DNN results.
"""

from __future__ import annotations

import numpy as np

from repro.data.ujiindoor import FingerprintDataset
from repro.manifold.neighbors import KNNIndex
from repro.utils.validation import check_fitted


class KNNFingerprinting:
    """Weighted k-nearest-neighbor regression in signal space.

    Position = (inverse-distance-)weighted mean of the k nearest stored
    fingerprints; building/floor by majority vote of the same neighbors.

    The radio map lives in one brute-force
    :class:`~repro.manifold.neighbors.KNNIndex`, which keeps the lowest
    index among fingerprints tied at the k-th distance.

    ``embedder`` prepends a learned feature map from
    :mod:`repro.embedding` to the whole pipeline: the radio map is
    embedded once at fit (an unfitted embedder is trained on the
    dataset first), the index is built on the embedded
    points, and every query batch is embedded before the neighbor
    scan.  This is the model behind the ``"embed-knn"`` serving
    backend.
    """

    def __init__(
        self,
        k: int = 5,
        weighted: bool = True,
        embedder=None,
    ):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.weighted = weighted
        self.embedder = embedder
        self.index_ = None  # KNNIndex after fit
        self.coordinates_: "np.ndarray | None" = None
        self.building_: "np.ndarray | None" = None
        self.floor_: "np.ndarray | None" = None

    @property
    def n_features_in_(self) -> "int | None":
        """Raw signal width of the fitted map (None before ``fit``)."""
        if self.index_ is None:
            return None
        if self.embedder is not None:
            return self.embedder.n_features_in_
        return self.index_.n_features

    def fit(self, dataset: FingerprintDataset) -> "KNNFingerprinting":
        if len(dataset) < self.k:
            raise ValueError(
                f"training set has {len(dataset)} samples but k={self.k}"
            )
        if self.embedder is not None:
            from repro.embedding import fit_embedder, is_fitted

            if not is_fitted(self.embedder):
                fit_embedder(self.embedder, dataset)
        self.index_ = KNNIndex(self._signals(dataset), method="brute")
        self.coordinates_ = dataset.coordinates
        self.building_ = dataset.building
        self.floor_ = dataset.floor
        return self

    def predict_coordinates(self, dataset) -> np.ndarray:
        check_fitted(self, "index_")
        distances, indices = self.index_.query(self._signals(dataset), k=self.k)
        return self._coordinates_from(distances, indices)

    def predict_labels(self, dataset) -> tuple[np.ndarray, np.ndarray]:
        """(building, floor) by majority vote among the k neighbors."""
        check_fitted(self, "index_")
        _dist, indices = self.index_.query(self._signals(dataset), k=self.k)
        return self._labels_from(indices)

    def predict_full(
        self, dataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coordinates, building, floor) from a single neighbor query.

        The serving hot path: one brute-force index query serves both the
        position regression and the label votes.
        """
        check_fitted(self, "index_")
        distances, indices = self.index_.query(self._signals(dataset), k=self.k)
        building, floor = self._labels_from(indices)
        return self._coordinates_from(distances, indices), building, floor

    def _coordinates_from(
        self, distances: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        neighbor_coords = self.coordinates_[indices]  # (N, k, 2)
        if self.weighted:
            weights = 1.0 / (distances + 1e-9)
            weights /= weights.sum(axis=1, keepdims=True)
            return np.sum(neighbor_coords * weights[:, :, None], axis=1)
        return neighbor_coords.mean(axis=1)

    def _labels_from(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _majority(self.building_[indices]), _majority(self.floor_[indices])

    def _signals(self, dataset) -> np.ndarray:
        """Feature rows for ``dataset``: normalized RSSI, then embedded.

        The single entry point of the feature space — fit and every
        predict path come through here, so stored points and queries
        can never disagree about the embedding.
        """
        if isinstance(dataset, FingerprintDataset):
            signals = dataset.normalized_signals()
        else:
            signals = np.asarray(dataset, dtype=float)
        if self.embedder is not None:
            signals = np.asarray(self.embedder.transform(signals), dtype=float)
        return signals


def _majority(labels: np.ndarray) -> np.ndarray:
    """Row-wise mode of an integer label matrix (ties → smallest label)."""
    labels = np.asarray(labels, dtype=int)
    n, k = labels.shape
    if n == 0:
        return np.empty(0, dtype=int)
    # Sort each row, find run boundaries, and give every element the length
    # of the run it belongs to.  Rows are contiguous in the flattened view
    # and every row starts a new run, so runs never span rows.
    ordered = np.sort(labels, axis=1)
    starts = np.concatenate(
        [np.ones((n, 1), dtype=bool), ordered[:, 1:] != ordered[:, :-1]], axis=1
    )
    run_id = np.cumsum(starts.ravel()) - 1
    run_lengths = np.bincount(run_id)[run_id].reshape(n, k)
    # argmax takes the first maximal run; rows are sorted ascending, so that
    # is the smallest label among the modes — the documented tie-break.
    best = np.argmax(run_lengths, axis=1)
    return ordered[np.arange(n), best]
