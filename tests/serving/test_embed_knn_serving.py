"""embed-knn backend: serving, accuracy vs raw kNN, bit-identical restore."""

import numpy as np
import pytest

from repro.core.persistence import ModelStore, load_estimator, save_estimator
from repro.embedding import MLPEmbedder
from repro.serving import available, create, dataset_fingerprint, params_key

#: Seconds-scale embedder configuration shared by these tests.
FAST_EMBED = {
    "n_components": 8,
    "hidden": [32],
    "pretrain_epochs": 2,
    "epochs": 15,
    "seed": 0,
}


@pytest.fixture(scope="module")
def fitted(uji_split):
    train, _val, _test = uji_split
    return create(
        "embed-knn", k=3, embedder="mlp", embed_params=FAST_EMBED
    ).fit(train)


class TestServing:
    def test_backend_is_registered(self):
        assert "embed-knn" in available()

    def test_predict_serves_all_heads(self, fitted, uji_split):
        _train, _val, test = uji_split
        prediction = fitted.predict_batch(test.rssi)
        assert prediction.coordinates.shape == (len(test), 2)
        assert prediction.building is not None
        assert prediction.floor is not None

    def test_index_is_built_on_embedded_points(self, fitted, uji_split):
        train, _val, _test = uji_split
        model = fitted.model_
        assert isinstance(model.embedder, MLPEmbedder)
        assert model.index_.points.shape == (
            len(train), FAST_EMBED["n_components"]
        )

    def test_accuracy_pins_to_raw_knn(self, fitted, uji_split):
        # a bounded-regression guard: on a tiny *clean* map raw kNN wins
        # (near-duplicate retrieval is its best case), but the embedding
        # must stay the same order of accuracy.  The stronger claim —
        # embedded error <= raw error on a noisy map — is pinned by the
        # serve-bench embed block's committed floors.
        train, _val, test = uji_split
        raw = create("knn", k=3).fit(train)
        truth = np.asarray(test.coordinates)

        def error(estimator):
            predicted = estimator.predict_batch(test.rssi).coordinates
            return float(np.linalg.norm(predicted - truth, axis=1).mean())

        assert error(fitted) <= 3.0 * error(raw)

    def test_batch_equals_per_query(self, fitted, uji_split):
        # row-wise routing invariance; allclose (not bitwise) because
        # the encoder matmul blocks differently for 1-row and 6-row
        # inputs, shifting the last float bits
        _train, _val, test = uji_split
        batch = fitted.predict_batch(test.rssi[:6])
        rows = [fitted.predict_batch(test.rssi[i : i + 1]) for i in range(6)]
        np.testing.assert_allclose(
            batch.coordinates,
            np.vstack([r.coordinates for r in rows]),
            rtol=1e-9,
            atol=1e-8,
        )

    def test_metric_embedder_variant_serves(self, uji_split):
        train, _val, test = uji_split
        est = create(
            "embed-knn", k=3, embedder="metric",
            embed_params={"n_components": 8, "epochs": 3, "seed": 0},
        ).fit(train)
        prediction = est.predict_batch(test.rssi)
        assert prediction.coordinates.shape == (len(test), 2)

    def test_describe_names_the_embedder(self, fitted):
        description = fitted.describe()
        assert description.startswith("embed-knn(")
        assert "embedder='mlp'" in description

    def test_bad_scans_refused(self, fitted, uji_split):
        # the width is the raw WAP count, not the embedding's
        _train, _val, test = uji_split
        rows = test.rssi[:2].astype(float)
        rows[0] = np.nan
        with pytest.raises(ValueError, match="NaN or inf"):
            fitted.predict_batch(rows)
        with pytest.raises(ValueError, match="width"):
            fitted.predict_batch(np.zeros((2, test.n_aps + 1)))


class TestArtifactRoundTrip:
    def test_store_warm_restore_is_bit_identical(
        self, fitted, uji_split, tmp_path
    ):
        # the acceptance criterion: a ModelStore warm restore serves
        # bitwise-equal predictions without re-training embedder or index
        train, _val, test = uji_split
        store = ModelStore(tmp_path / "store")
        key = (
            "embed-knn",
            dataset_fingerprint(train),
            params_key(fitted.params),
        )
        store.put(*key, fitted)
        restored = store.get(*key)
        assert restored.params == fitted.params
        a = fitted.predict_batch(test.rssi)
        b = restored.predict_batch(test.rssi)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        np.testing.assert_array_equal(a.building, b.building)
        np.testing.assert_array_equal(a.floor, b.floor)
        # the embedder itself restored bit-identically too
        signals = fitted.model_._signals(fitted._as_dataset(test.rssi))
        np.testing.assert_array_equal(
            signals, restored.model_._signals(restored._as_dataset(test.rssi))
        )

    def test_artifact_stores_embedded_points_and_embedder(
        self, fitted, tmp_path
    ):
        path = tmp_path / "embed-knn.npz"
        save_estimator(fitted, path)
        with np.load(path) as archive:
            names = set(archive.files)
        assert any(name.startswith("embedder.net.") for name in names)
        assert "index.points" in names

    def test_metric_variant_round_trips(self, uji_split, tmp_path):
        train, _val, test = uji_split
        est = create(
            "embed-knn", k=3, embedder="metric",
            embed_params={"n_components": 6, "epochs": 2, "seed": 1},
        ).fit(train)
        path = tmp_path / "embed-knn-metric.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        np.testing.assert_array_equal(
            est.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )

    def test_unfitted_save_raises(self):
        with pytest.raises(ValueError, match="unfitted"):
            save_estimator(create("embed-knn"), "/tmp/never-written.npz")
