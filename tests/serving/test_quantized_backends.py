"""Quantized (uint8 radio map) serving backends: keys, parity, artifacts."""

import numpy as np
import pytest

from repro.core.persistence import load_estimator, save_estimator
from repro.serving import create
from repro.serving.registry import params_key


class TestCacheKeys:
    def test_default_leaves_params_untouched(self):
        # quantize_bins=None must not appear, so pre-existing cache keys
        # and describe() strings survive the new hyperparameter
        for backend in ("knn", "knn-regressor", "noble", "cnnloc"):
            est = create(backend)
            assert "quantize_bins" not in est.params
            quantized = create(backend, quantize_bins=256)
            assert quantized.params["quantize_bins"] == 256
            assert params_key(est.params) != params_key(quantized.params)

    def test_ensemble_gate_quantization_is_keyed(self):
        children = dict(primary="knn", fallback="knn-regressor")
        est = create("ensemble", **children)
        assert "quantize_bins" not in est.params
        quantized = create("ensemble", quantize_bins=128, **children)
        assert quantized.params["quantize_bins"] == 128
        assert params_key(est.params) != params_key(quantized.params)

    def test_distinct_bin_counts_never_share_a_key(self):
        a = create("knn", quantize_bins=64)
        b = create("knn", quantize_bins=256)
        assert params_key(a.params) != params_key(b.params)

    def test_bad_bin_counts_fail_at_construction(self):
        for bad in (1, 0, 257, -8):
            with pytest.raises(ValueError, match="quantize_bins"):
                create("knn", quantize_bins=bad)
        with pytest.raises(ValueError, match="quantize_bins"):
            create("knn-regressor", quantize_bins=1)

    def test_describe_mentions_quantization(self):
        assert "quantize_bins=128" in create(
            "knn", quantize_bins=128
        ).describe()


class TestServingParity:
    def test_knn_quantized_predictions_close_to_raw(self, uji_split):
        train, _val, test = uji_split
        raw = create("knn", k=3).fit(train)
        quantized = create("knn", k=3, quantize_bins=256).fit(train)
        a = raw.predict_batch(test.rssi)
        b = quantized.predict_batch(test.rssi)
        # 256-bin quantization moves fingerprints by less than typical
        # same-spot measurement noise: predictions land within meters
        err = np.linalg.norm(a.coordinates - b.coordinates, axis=1)
        assert np.median(err) < 5.0

    def test_knn_quantized_index_is_binned(self, uji_split):
        train, _val, _test = uji_split
        est = create("knn", k=3, quantize_bins=64).fit(train)
        assert est.model_.index_.binner is not None
        assert est.model_.index_.codes.dtype == np.uint8
        # serving answers from the raw quantized distances: no rerank
        assert est.model_.index_.refine == 0


class TestArtifactRoundTrip:
    def test_binned_knn_round_trip(self, uji_split, tmp_path):
        train, _val, test = uji_split
        est = create("knn", k=3, quantize_bins=256).fit(train)
        path = tmp_path / "knn-binned.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        assert restored.params == est.params
        assert restored.model_.index_.binner is not None
        np.testing.assert_array_equal(
            est.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )

    def test_binned_regressor_round_trip(self, uji_split, tmp_path):
        train, _val, test = uji_split
        est = create("knn-regressor", k=3, quantize_bins=64).fit(train)
        path = tmp_path / "regressor-binned.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        np.testing.assert_array_equal(
            est.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )

    def test_quantized_noble_round_trip(self, uji_split, tmp_path):
        train, _val, test = uji_split
        est = create(
            "noble", epochs=3, val_fraction=0.0, seed=11,
            quantize_bins=256,
        ).fit(train)
        assert est.model_.binner_ is not None
        path = tmp_path / "noble-binned.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        assert restored.model_.binner_ is not None
        np.testing.assert_array_equal(
            est.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )

    def test_binned_cnnloc_round_trip(self, uji_split, tmp_path):
        train, _val, test = uji_split
        est = create(
            "cnnloc", pretrain_epochs=1, epochs=2, seed=13,
            quantize_bins=128,
        ).fit(train)
        assert est.model_.binner_ is not None
        path = tmp_path / "cnnloc-binned.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        assert restored.model_.binner_ is not None
        np.testing.assert_array_equal(
            est.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )

    def test_quantized_ensemble_gate_round_trip(self, uji_split, tmp_path):
        # the ensemble's own pipeline quantizes the OOD gate index; the
        # round trip must preserve the binned gate and route identically
        train, _val, test = uji_split
        est = create(
            "ensemble", primary="knn", fallback="knn-regressor",
            quantize_bins=64,
        ).fit(train)
        assert est._ood_index.binner is not None
        path = tmp_path / "ensemble-binned.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        assert restored._ood_index.binner is not None
        a = est.predict_batch(test.rssi)
        b = restored.predict_batch(test.rssi)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        assert est.routes_ == restored.routes_

    def test_artifact_stores_codes_not_points(self, uji_split, tmp_path):
        # the 8x resident cut carries into the artifact: a binned knn
        # stores uint8 codes (plus the binner LUT) instead of the float
        # radio map
        train, _val, _test = uji_split
        path = tmp_path / "binned.npz"
        save_estimator(
            create("knn", k=3, quantize_bins=256).fit(train), path
        )
        with np.load(path) as archive:
            names = set(archive.files)
            assert "index.codes" in names
            assert "index.binner_thresholds" in names
            assert "index.points" not in names
            assert archive["index.codes"].dtype == np.uint8
