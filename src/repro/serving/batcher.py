"""Micro-batching prediction engine.

Production localization traffic arrives as single-query requests (one
phone, one RSSI scan), but every backend in the registry is vectorized:
one ``predict_batch`` over 64 rows costs barely more than over 1.  The
:class:`MicroBatcher` serves a query matrix through fixed-size
micro-batches, one vectorized model call each::

    batcher = MicroBatcher(estimator, batch_size=64)
    prediction = batcher.predict_many(scans)   # row order preserved

:class:`repro.serving.ServingFrontend` owns one and hands it each batch
it assembles from single-query submits; :meth:`predict_many` serializes
on a lock, so callers sharing a batcher never interleave model calls or
lose counter updates.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.serving.registry import Estimator, Prediction, concatenate


class MicroBatcher:
    """Serve query matrices through fixed-size vectorized micro-batches.

    Parameters
    ----------
    estimator:
        A fitted :class:`repro.serving.Estimator`.
    batch_size:
        Queries per vectorized model call.
    """

    def __init__(self, estimator: Estimator, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.estimator = estimator
        self.batch_size = int(batch_size)
        self.n_requests = 0
        self.n_batches = 0
        self._lock = threading.Lock()

    def predict_many(self, signals: np.ndarray) -> Prediction:
        """Predict a whole query matrix through fixed-size micro-batches.

        Returns the reassembled :class:`Prediction` (row order
        preserved).
        """
        signals = np.asarray(signals, dtype=float)
        if signals.ndim != 2:
            raise ValueError(f"signals must be 2-D, got shape {signals.shape}")
        with self._lock:
            if len(signals) == 0:
                # one empty model call, so label heads survive for concatenate()
                return self.estimator.predict_batch(signals)
            batches = []
            for start in range(0, len(signals), self.batch_size):
                batch = signals[start : start + self.batch_size]
                batches.append(self.estimator.predict_batch(batch))
                self.n_batches += 1
                self.n_requests += len(batch)
        return concatenate(batches)
