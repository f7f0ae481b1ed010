"""The one-import entry point: :class:`NObLeEstimator`.

Wraps the Wi-Fi localization pipeline (the paper's primary application)
behind a fit/predict interface on raw arrays, so downstream users do
not need to know about datasets, quantizers, or heads:

    >>> from repro import NObLeEstimator
    >>> model = NObLeEstimator(tau=0.5)
    >>> model.fit(signals, coordinates)            # doctest: +SKIP
    >>> positions = model.predict(new_signals)     # doctest: +SKIP

:func:`create_estimator` is the registry-backed sibling: it builds any
serving backend (``"knn"``, ``"noble"``, ``"cnnloc"``, ...) behind the
uniform ``fit(dataset)`` / ``predict_batch(signals)`` protocol of
:mod:`repro.serving`.
"""

from __future__ import annotations

import numpy as np

from repro.data.ujiindoor import FingerprintDataset
from repro.localization.noble import NObLeWifi
from repro.utils.validation import check_2d, check_fitted, check_lengths_match


def create_estimator(name: str, **hyperparams):
    """Instantiate a registered serving estimator by name.

    Thin alias of :func:`repro.serving.create`, re-exported here so the
    core API is the only import downstream users need:

        >>> from repro import create_estimator
        >>> model = create_estimator("knn", k=3)   # doctest: +SKIP
    """
    from repro.serving import create

    return create(name, **hyperparams)


class NObLeEstimator:
    """Structure-aware localization from signal vectors to coordinates.

    Parameters mirror :class:`repro.localization.NObLeWifi`; building and
    floor labels are optional — when omitted the corresponding heads are
    dropped automatically.
    """

    def __init__(
        self,
        tau: float = 0.2,
        coarse: "float | None" = None,
        hidden: int = 128,
        adjacency_weight: float = 0.3,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed=0,
    ):
        self.tau = float(tau)
        self.coarse = coarse
        self.hidden = int(hidden)
        self.adjacency_weight = float(adjacency_weight)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.seed = seed
        self.model_: "NObLeWifi | None" = None

    def fit(
        self,
        signals: np.ndarray,
        coordinates: np.ndarray,
        building: "np.ndarray | None" = None,
        floor: "np.ndarray | None" = None,
    ) -> "NObLeEstimator":
        """Train on raw RSSI-like signal vectors and 2-D coordinates.

        ``signals`` may use the UJIIndoorLoc +100 "not detected"
        convention or plain dBm; both normalize identically.
        """
        signals = check_2d(signals, "signals")
        coordinates = check_2d(coordinates, "coordinates")
        check_lengths_match(signals, coordinates, "signals", "coordinates")
        n = len(signals)
        heads = ["fine"]
        if building is not None:
            heads.append("building")
        if floor is not None:
            heads.append("floor")
        coarse = self.coarse
        if coarse is None:
            # default coarse grid: ~10 fine cells per coarse cell side
            coarse = self.tau * 10
        heads.append("coarse")
        dataset = FingerprintDataset(
            rssi=signals,
            coordinates=coordinates,
            floor=np.zeros(n, dtype=int) if floor is None else np.asarray(floor, int),
            building=(
                np.zeros(n, dtype=int) if building is None else np.asarray(building, int)
            ),
        )
        self.model_ = NObLeWifi(
            tau=self.tau,
            coarse=coarse,
            hidden=self.hidden,
            heads=tuple(heads),
            adjacency_weight=self.adjacency_weight,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=self.seed,
        )
        self.model_.fit(dataset)
        return self

    def predict(self, signals: np.ndarray) -> np.ndarray:
        """(N, 2) predicted coordinates for raw signal vectors."""
        check_fitted(self, "model_")
        signals = check_2d(signals, "signals")
        dataset = self._wrap(signals)
        return self.model_.predict_coordinates(dataset)

    def predict_detail(self, signals: np.ndarray):
        """Full :class:`repro.localization.WifiPrediction` output."""
        check_fitted(self, "model_")
        return self.model_.predict(self._wrap(check_2d(signals, "signals")))

    def predict_batch(self, signals: np.ndarray):
        """Serving-protocol output (:class:`repro.serving.Prediction`).

        Makes a fitted :class:`NObLeEstimator` a drop-in backend for the
        :class:`repro.serving.MicroBatcher`.
        """
        from repro.serving import Prediction

        detail = self.predict_detail(signals)
        return Prediction(
            coordinates=detail.coordinates,
            building=detail.building,
            floor=detail.floor,
        )

    @property
    def n_classes(self) -> int:
        """Number of populated fine grid classes after fitting."""
        check_fitted(self, "model_")
        quantizer = self.model_.quantizer_
        fine = getattr(quantizer, "fine", quantizer)
        return fine.n_classes

    @staticmethod
    def _wrap(signals: np.ndarray) -> FingerprintDataset:
        from repro.serving.registry import signals_dataset

        return signals_dataset(signals)
