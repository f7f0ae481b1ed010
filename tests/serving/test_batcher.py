"""Micro-batcher: batched == single-call equivalence."""

import numpy as np
import pytest

from repro.serving import MicroBatcher, create


@pytest.fixture(scope="module")
def fitted_knn(uji_split):
    train, _val, _test = uji_split
    return create("knn", k=3).fit(train)


class TestConstruction:
    def test_invalid_batch_size(self, fitted_knn):
        with pytest.raises(ValueError):
            MicroBatcher(fitted_knn, batch_size=0)


class TestEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
    def test_predict_many_matches_single_call(
        self, fitted_knn, uji_split, batch_size
    ):
        _train, _val, test = uji_split
        batcher = MicroBatcher(fitted_knn, batch_size=batch_size)
        batched = batcher.predict_many(test.rssi)
        whole = fitted_knn.predict_batch(test.rssi)
        np.testing.assert_allclose(batched.coordinates, whole.coordinates)
        np.testing.assert_array_equal(batched.building, whole.building)
        np.testing.assert_array_equal(batched.floor, whole.floor)
        assert batcher.n_requests == len(test)
        expected_batches = -(-len(test) // batch_size)
        assert batcher.n_batches == expected_batches

    def test_predict_many_empty_keeps_label_heads(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        empty = MicroBatcher(fitted_knn).predict_many(
            np.empty((0, test.n_aps))
        )
        assert empty.coordinates.shape == (0, 2)
        assert empty.building is not None and empty.building.shape == (0,)
        assert empty.floor is not None and empty.floor.shape == (0,)

    def test_predict_many_rejects_1d(self, fitted_knn):
        with pytest.raises(ValueError, match="2-D"):
            MicroBatcher(fitted_knn).predict_many(np.zeros(100))
