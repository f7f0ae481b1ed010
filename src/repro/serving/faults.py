"""Deterministic fault injection for the serving tier (chaos harness).

The serving tier claims to stay available while store artifacts
corrupt and models run slow.  This module *makes those things happen*,
reproducibly:

* :class:`DelayedEstimator` — wraps an estimator so a seeded fraction
  of batches serve slowly (deadline/timeout pressure without changing
  any prediction); the serve-bench ``resilience`` block (``python -m
  repro.cli serve-bench``) runs its overload burst through one.
* :meth:`FaultInjector.corrupt_store_artifact` — overwrite bytes in
  the middle of a random :class:`~repro.core.persistence.ModelStore`
  artifact (quarantine + self-heal path).  Targets are drawn from one
  seeded generator, so two injectors with the same seed corrupt the
  same artifacts.

Mutators are best-effort by design: corrupting an empty store simply
does nothing, and chaos does not get to crash the harness.
"""

from __future__ import annotations

import os
import time

import numpy as np


class DelayedEstimator:
    """Estimator proxy that sleeps before a seeded fraction of batches.

    Predictions are untouched — only latency is injected — so every
    parity assertion downstream still holds.  With a positive ``rate``
    the first batch always stalls for ``delay_s``, so a run of any
    length lands the fault; every later batch stalls with probability
    ``rate``, drawn from a seeded generator for reproducibility.
    """

    def __init__(self, estimator, rate: float = 0.1, delay_s: float = 0.05,
                 seed: int = 0):
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self._estimator = estimator
        self.rate = float(rate)
        self.delay_s = float(delay_s)
        self._rng = np.random.default_rng(seed)
        self.n_delays = 0

    def __getattr__(self, name):
        return getattr(self._estimator, name)

    def predict_batch(self, signals):
        # no stall yet means this is the first batch
        if self.rate and (not self.n_delays or self._rng.random() < self.rate):
            self.n_delays += 1
            time.sleep(self.delay_s)
        return self._estimator.predict_batch(signals)


class FaultInjector:
    """Seeded fault source for model stores.

    One injector owns one ``numpy`` generator; every targeted fault
    (which artifact, which bytes) is drawn from it, so a seed fully
    determines the storm.  ``store_corruptions`` records what actually
    landed — a fault aimed at an empty store is a no-op and is *not*
    counted.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self.store_corruptions = 0

    def corrupt_store_artifact(self, store) -> "str | None":
        """Overwrite bytes mid-file in one random store artifact.

        Returns the corrupted path (None when the store is empty).  The
        artifact keeps its name and size, so only content validation —
        the quarantine path — can catch it.
        """
        paths = store.paths()
        if not paths:
            return None
        path = paths[int(self._rng.integers(0, len(paths)))]
        size = os.path.getsize(path)
        if size == 0:
            return None
        start = int(self._rng.integers(0, max(size // 2, 1)))
        blob = self._rng.integers(0, 256, size=min(512, size), dtype=np.uint8)
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(blob.tobytes())
        self.store_corruptions += 1
        return path
