"""Tests for NObLeWifi save/load round trips."""

import numpy as np
import pytest

from repro.core.persistence import load_noble_wifi, save_noble_wifi
from repro.localization.noble import NObLeWifi


class TestRoundTrip:
    def test_predictions_identical(self, trained_noble_wifi, uji_split, tmp_path):
        _train, _val, test = uji_split
        path = tmp_path / "noble.npz"
        save_noble_wifi(trained_noble_wifi, path)
        restored = load_noble_wifi(path)
        original = trained_noble_wifi.predict(test)
        loaded = restored.predict(test)
        np.testing.assert_array_equal(original.coordinates, loaded.coordinates)
        np.testing.assert_array_equal(original.building, loaded.building)
        np.testing.assert_array_equal(original.fine_class, loaded.fine_class)

    def test_quantizer_round_trip(self, trained_noble_wifi, tmp_path):
        path = tmp_path / "noble.npz"
        save_noble_wifi(trained_noble_wifi, path)
        restored = load_noble_wifi(path)
        np.testing.assert_array_equal(
            restored.quantizer_.fine.centroids_,
            trained_noble_wifi.quantizer_.fine.centroids_,
        )
        assert restored.quantizer_.n_fine == trained_noble_wifi.quantizer_.n_fine
        assert restored.quantizer_.n_coarse == trained_noble_wifi.quantizer_.n_coarse

    def test_hierarchical_mapping_preserved(
        self, trained_noble_wifi, uji_split, tmp_path
    ):
        _train, _val, test = uji_split
        path = tmp_path / "noble.npz"
        save_noble_wifi(trained_noble_wifi, path)
        restored = load_noble_wifi(path)
        np.testing.assert_array_equal(
            restored.fine_class_building_,
            trained_noble_wifi.fine_class_building_,
        )
        original = trained_noble_wifi.predict(test, hierarchical=True)
        loaded = restored.predict(test, hierarchical=True)
        np.testing.assert_array_equal(original.coordinates, loaded.coordinates)

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not fitted"):
            save_noble_wifi(NObLeWifi(), tmp_path / "x.npz")

    def test_signal_transform_round_trip(self, uji_split, tmp_path):
        train, _val, test = uji_split
        model = NObLeWifi(
            epochs=5, val_fraction=0.0, signal_transform="powed", seed=88
        )
        model.fit(train)
        path = tmp_path / "powed.npz"
        save_noble_wifi(model, path)
        restored = load_noble_wifi(path)
        np.testing.assert_array_equal(
            model.predict_coordinates(test), restored.predict_coordinates(test)
        )

    def test_custom_transform_rejected(self, uji_split, tmp_path):
        train, _val, _test = uji_split
        model = NObLeWifi(
            epochs=2, val_fraction=0.0, signal_transform=lambda x: x, seed=88
        )
        model.fit(train)
        with pytest.raises(ValueError, match="named signal transforms"):
            save_noble_wifi(model, tmp_path / "custom.npz")

    def test_single_resolution_model(self, uji_split, tmp_path):
        train, _val, test = uji_split
        model = NObLeWifi(
            heads=("fine",), epochs=5, val_fraction=0.0, seed=77
        )
        model.fit(train)
        path = tmp_path / "single.npz"
        save_noble_wifi(model, path)
        restored = load_noble_wifi(path)
        np.testing.assert_array_equal(
            model.predict_coordinates(test), restored.predict_coordinates(test)
        )


# --------------------------------------------------------- estimator artifacts
import json

from repro.core.persistence import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    available_serializers,
    load_estimator,
    save_estimator,
)
from repro.serving import available, create


#: Small-but-real configurations, one per registered backend (plus the
#: float32 NObLe variant).
ARTIFACT_CONFIGS = {
    "knn": {"k": 3},
    "knn-regressor": {"k": 3},
    "forest": {"n_estimators": 4, "max_depth": 4},
    "noble": {"epochs": 2, "hidden": 16, "val_fraction": 0.0},
    "noble-float32": {
        "epochs": 2, "hidden": 16, "val_fraction": 0.0, "dtype": "float32",
    },
    "cnnloc": {
        "encoder_sizes": (16, 8), "conv_channels": (4,),
        "pretrain_epochs": 1, "epochs": 2,
    },
    "ensemble": {
        "primary_params": {"epochs": 2, "hidden": 16, "val_fraction": 0.0},
        "fallback_params": {"k": 3},
    },
}

_BACKEND_OF = {
    "noble-float32": "noble",
}


@pytest.fixture(scope="module")
def fitted_estimators(uji_split):
    """One fitted estimator per artifact configuration (fit once)."""
    train, _val, _test = uji_split
    fitted = {}
    for label, params in ARTIFACT_CONFIGS.items():
        backend = _BACKEND_OF.get(label, label)
        fitted[label] = create(backend, **params).fit(train)
    return fitted


#: The backends the repo ships (other tests may register throwaway
#: backends in the shared registry, so don't assert against available()).
SHIPPED_BACKENDS = (
    "knn", "knn-regressor", "forest", "noble", "cnnloc", "ensemble",
)


class TestEstimatorRoundTrips:
    def test_every_shipped_backend_has_a_serializer(self):
        assert set(SHIPPED_BACKENDS) <= set(available())
        assert set(SHIPPED_BACKENDS) <= set(available_serializers())

    def test_configs_cover_every_shipped_backend(self):
        covered = {_BACKEND_OF.get(label, label) for label in ARTIFACT_CONFIGS}
        assert covered == set(SHIPPED_BACKENDS)

    @pytest.mark.parametrize("label", sorted(ARTIFACT_CONFIGS))
    def test_predictions_bit_identical(
        self, label, fitted_estimators, uji_split, tmp_path
    ):
        _train, _val, test = uji_split
        estimator = fitted_estimators[label]
        path = tmp_path / f"{label}.npz"
        save_estimator(estimator, path)
        restored = load_estimator(path)
        queries = test.rssi
        original = estimator.predict_batch(queries)
        loaded = restored.predict_batch(queries)
        np.testing.assert_array_equal(
            original.coordinates, loaded.coordinates
        )
        for head in ("building", "floor"):
            a, b = getattr(original, head), getattr(loaded, head)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("label", sorted(ARTIFACT_CONFIGS))
    def test_identity_round_trips(self, label, fitted_estimators, tmp_path):
        estimator = fitted_estimators[label]
        path = tmp_path / f"{label}.npz"
        save_estimator(estimator, path)
        restored = load_estimator(path)
        assert restored.registry_name == estimator.registry_name
        assert restored.describe() == estimator.describe()
        assert json.dumps(restored.params, sort_keys=True) == json.dumps(
            estimator.params, sort_keys=True
        )

    def test_ensemble_round_trip_preserves_routing(
        self, fitted_estimators, uji_split, tmp_path
    ):
        _train, _val, test = uji_split
        estimator = fitted_estimators["ensemble"]
        path = tmp_path / "ensemble.npz"
        save_estimator(estimator, path)
        restored = load_estimator(path)
        assert restored.ood_threshold_ == estimator.ood_threshold_
        assert restored._heads_ok == estimator._heads_ok
        assert restored.routes_ == {"primary": 0, "fallback": 0}
        # an obviously out-of-distribution scan must still route to the
        # fallback after the round trip
        weird = np.full((1, test.rssi.shape[1]), -30.0)
        restored.predict_batch(weird)
        assert restored.routes_["fallback"] == 1

    def test_float32_noble_stays_float32(self, fitted_estimators, tmp_path):
        estimator = fitted_estimators["noble-float32"]
        path = tmp_path / "nf32.npz"
        save_estimator(estimator, path)
        restored = load_estimator(path)
        for param in restored.model_.model_.parameters():
            assert param.data.dtype == np.float32


class TestArtifactErrorPaths:
    def test_unfitted_estimator_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_estimator(create("knn", k=3), tmp_path / "x.npz")

    def test_non_registry_object_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="registered serving estimator"):
            save_estimator(object(), tmp_path / "x.npz")

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_estimator(tmp_path / "nope.npz")

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ArtifactError, match="cannot read"):
            load_estimator(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, weights=np.zeros(3))
        with pytest.raises(ArtifactError, match="not a repro estimator"):
            load_estimator(path)

    def _tampered(self, fitted, tmp_path, mutate):
        """Save a valid artifact, rewrite its envelope, return the path."""
        path = tmp_path / "tampered.npz"
        save_estimator(fitted, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        envelope = json.loads(bytes(arrays.pop("artifact_json")).decode())
        mutate(envelope)
        arrays["artifact_json"] = np.frombuffer(
            json.dumps(envelope).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        return path

    @pytest.fixture()
    def fitted_knn(self, fitted_estimators):
        return fitted_estimators["knn"]

    def test_version_mismatch_rejected(self, fitted_knn, tmp_path):
        path = self._tampered(
            fitted_knn, tmp_path,
            lambda env: env.update(schema="repro-estimator/0"),
        )
        with pytest.raises(ArtifactError, match="repro-estimator/0"):
            load_estimator(path)
        assert ARTIFACT_SCHEMA != "repro-estimator/0"

    def test_unknown_backend_rejected(self, fitted_knn, tmp_path):
        path = self._tampered(
            fitted_knn, tmp_path, lambda env: env.update(backend="warp-drive")
        )
        with pytest.raises(ArtifactError, match="no serializer"):
            load_estimator(path)

    def test_drifted_params_rejected(self, fitted_knn, tmp_path):
        def _drift(env):
            env["params"] = dict(env["params"], k=env["params"]["k"] + 0.5)

        path = self._tampered(fitted_knn, tmp_path, _drift)
        with pytest.raises(ArtifactError, match="round-trip"):
            load_estimator(path)

    def test_truncated_arrays_rejected(self, fitted_knn, tmp_path):
        path = tmp_path / "truncated.npz"
        save_estimator(fitted_knn, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        del arrays["coordinates"]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ArtifactError, match="incomplete"):
            load_estimator(path)

    def test_store_key_guard(self, fitted_knn, tmp_path):
        path = tmp_path / "keyed.npz"
        save_estimator(fitted_knn, path, store_key=("knn", "fp", "params"))
        assert load_estimator(
            path, expected_store_key=("knn", "fp", "params")
        ).registry_name == "knn"
        with pytest.raises(ArtifactError, match="store key"):
            load_estimator(path, expected_store_key=("knn", "other", "params"))

    @pytest.mark.parametrize(
        "sharding",
        [{"shards": 3}, {"shards": 3, "partitioner": "auto"}],
        ids=["shards", "shards+partitioner"],
    )
    def test_sharding_params_rejected(self, fitted_knn, tmp_path, sharding):
        # an artifact keyed with the removed shards= hyperparameter must
        # fail typed, never load as the unsharded model
        path = self._tampered(
            fitted_knn, tmp_path,
            lambda env: env["params"].update(sharding),
        )
        with pytest.raises(ArtifactError, match="shards"):
            load_estimator(path)

    def test_binning_params_rejected(self, fitted_knn, tmp_path):
        # an artifact keyed with the removed quantize_bins= hyperparameter
        # must fail typed, never load as the float-index model
        path = self._tampered(
            fitted_knn, tmp_path,
            lambda env: env["params"].update(quantize_bins=16),
        )
        with pytest.raises(ArtifactError, match="quantize_bins"):
            load_estimator(path)

    def test_legacy_unsharded_index_meta_loads(
        self, fitted_knn, uji_split, tmp_path
    ):
        # artifacts written while sharded indexes existed tag their
        # index "sharded": false; the reader ignores the tag
        _train, _val, test = uji_split
        path = self._tampered(
            fitted_knn, tmp_path,
            lambda env: env["meta"]["index"].update(sharded=False),
        )
        np.testing.assert_array_equal(
            load_estimator(path).predict_batch(test.rssi).coordinates,
            fitted_knn.predict_batch(test.rssi).coordinates,
        )

    def test_unkeyed_artifact_rejected_under_expected_key(
        self, fitted_knn, tmp_path
    ):
        path = tmp_path / "unkeyed.npz"
        save_estimator(fitted_knn, path)
        with pytest.raises(ArtifactError, match="store key"):
            load_estimator(path, expected_store_key=("knn", "fp", "params"))


class TestDirectPathValidation:
    """``predict_batch`` refuses what ``ServingFrontend.submit`` refuses."""

    @pytest.mark.parametrize("restored", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("label", sorted(ARTIFACT_CONFIGS))
    def test_bad_scans_refused(
        self, label, restored, fitted_estimators, uji_split, tmp_path
    ):
        _train, _val, test = uji_split
        estimator = fitted_estimators[label]
        if restored:
            save_estimator(estimator, tmp_path / "e.npz")
            estimator = load_estimator(tmp_path / "e.npz")
        rows = test.rssi[:3].astype(float)
        rows[1] = np.nan
        with pytest.raises(ValueError, match="NaN or inf"):
            estimator.predict_batch(rows)
        rows[1] = test.rssi[1]
        rows[1, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or inf"):
            estimator.predict_batch(rows)
        with pytest.raises(ValueError, match="width"):
            estimator.predict_batch(np.zeros((2, test.n_aps + 1)))

    @pytest.mark.parametrize("label", sorted(ARTIFACT_CONFIGS))
    def test_complex_scans_refused(self, label, fitted_estimators, uji_split):
        # a float cast would drop the imaginary part and serve an answer
        _train, _val, test = uji_split
        estimator = fitted_estimators[label]
        with pytest.raises(ValueError, match="real numbers"):
            estimator.predict_batch(test.rssi[:3].astype(complex))
        with pytest.raises(ValueError, match="real numbers"):
            estimator.predict_batch(test.rssi[:3].astype(str))
