"""Fault-injection harness + the recovery path it targets.

:mod:`repro.serving.faults` exists to *prove* the resilience claims,
so its own contract is load-bearing: faults must be seeded (same seed,
same storm), counted only when they land, and harmless when aimed at a
target that no longer exists.  The second half of this module then
drives the injector against the model store and pins the recovery path
end to end: store corruption → quarantine (one warning), silent miss
afterwards, write-through self-heal.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.persistence import ModelStore
from repro.serving import create, dataset_fingerprint
from repro.serving.faults import DelayedEstimator, FaultInjector


@pytest.fixture(scope="module")
def flat_knn(uji_small):
    return create("knn", k=3).fit(uji_small)


@pytest.fixture(scope="module")
def fingerprint(uji_small):
    return dataset_fingerprint(uji_small)


@pytest.fixture(scope="module")
def queries(uji_small):
    rng = np.random.default_rng(11)
    return uji_small.rssi[rng.integers(0, len(uji_small), size=20)]


class TestDelayedEstimator:
    def test_validates_parameters(self, flat_knn):
        with pytest.raises(ValueError, match="rate"):
            DelayedEstimator(flat_knn, rate=1.5)
        with pytest.raises(ValueError, match="delay_s"):
            DelayedEstimator(flat_knn, delay_s=-0.1)

    def test_predictions_are_untouched(self, flat_knn, queries):
        delayed = DelayedEstimator(flat_knn, rate=1.0, delay_s=0.0, seed=3)
        got = delayed.predict_batch(queries)
        expected = flat_knn.predict_batch(queries)
        np.testing.assert_array_equal(got.coordinates, expected.coordinates)
        assert delayed.n_delays == 1

    def test_rate_zero_never_delays(self, flat_knn, queries):
        delayed = DelayedEstimator(flat_knn, rate=0.0, seed=3)
        for _ in range(5):
            delayed.predict_batch(queries[:2])
        assert delayed.n_delays == 0

    def test_delay_pattern_is_seeded(self, flat_knn, queries):
        def pattern(seed):
            delayed = DelayedEstimator(
                flat_knn, rate=0.5, delay_s=0.0, seed=seed
            )
            counts = []
            for _ in range(30):
                delayed.predict_batch(queries[:1])
                counts.append(delayed.n_delays)
            return counts

        assert pattern(7) == pattern(7)
        assert pattern(7)[-1] > 0  # the storm actually delays something

    def test_attribute_passthrough(self, flat_knn):
        delayed = DelayedEstimator(flat_knn, rate=0.0)
        assert delayed.fit == flat_knn.fit  # proxied, not shadowed


class TestInjectorContract:
    def test_counters_start_clean(self):
        assert FaultInjector(seed=1).store_corruptions == 0

    def test_empty_store_is_a_counted_noop(self, tmp_path):
        injector = FaultInjector(seed=1)
        assert injector.corrupt_store_artifact(ModelStore(tmp_path)) is None
        assert injector.store_corruptions == 0

    def test_store_target_choice_is_seeded(
        self, tmp_path, flat_knn, fingerprint
    ):
        def storm(directory, seed):
            store = ModelStore(directory)
            for i in range(4):
                store.put("knn", fingerprint, f"variant={i}", flat_knn)
            injector = FaultInjector(seed=seed)
            import os

            return [
                os.path.basename(injector.corrupt_store_artifact(store))
                for _ in range(3)
            ]

        assert storm(tmp_path / "a", seed=5) == storm(tmp_path / "b", seed=5)


class TestStoreCorruptionQuarantine:
    def test_corrupt_artifact_quarantines_once_then_heals(
        self, tmp_path, flat_knn, fingerprint, queries
    ):
        store = ModelStore(tmp_path)
        key = ("knn", fingerprint, "k=3")
        path = store.put(*key, flat_knn)
        import os

        size = os.path.getsize(path)
        injector = FaultInjector(seed=2)
        assert injector.corrupt_store_artifact(store) == path
        assert injector.store_corruptions == 1
        # same name, same size: only content validation can catch it
        assert os.path.getsize(path) == size

        # first get: one warning, quarantined aside, soft miss
        with pytest.warns(RuntimeWarning, match="quarantining"):
            assert store.get(*key) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

        # second get: *silent* miss — quarantine means no warning spam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(*key) is None

        # write-through self-heal: the next put replaces the artifact
        # under the original name and serving resumes with parity
        store.put(*key, flat_knn)
        healed = store.get(*key)
        np.testing.assert_allclose(
            healed.predict_batch(queries).coordinates,
            flat_knn.predict_batch(queries).coordinates,
        )
