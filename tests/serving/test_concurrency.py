"""Concurrency stress: producers vs the synchronous oracle, stampedes.

N producer threads hammer the async front end (and the shared model
cache) while the synchronous path serves as the correctness oracle.
Marked ``slow`` — `make test-fast` skips them, full `make test` (and
`make check`) runs them.

Every join carries a generous real-time timeout followed by an
``is_alive`` assertion, so a deadlock surfaces as a test failure
instead of a hung suite.
"""

import threading
import time

import numpy as np
import pytest

from repro.data.ujiindoor import FingerprintDataset
from repro.serving import (
    Estimator,
    FrontendClosedError,
    ModelCache,
    Prediction,
    ServingFrontend,
    available,
    create,
    register,
)

pytestmark = pytest.mark.slow

JOIN_TIMEOUT = 60.0


@pytest.fixture(scope="module")
def fitted_knn(uji_split):
    train, _val, _test = uji_split
    return create("knn", k=3).fit(train)


@pytest.fixture(scope="module")
def query_matrix(uji_split):
    """300 query rows (test scans tiled) for the stress runs."""
    _train, _val, test = uji_split
    reps = -(-300 // len(test))
    return np.tile(test.rssi, (reps, 1))[:300]


def _join_all(threads):
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads deadlocked: {stuck}"


class TestFrontendStampede:
    def test_producers_match_synchronous_oracle(self, fitted_knn, query_matrix):
        """No lost, duplicated, or cross-wired tickets under contention."""
        oracle = fitted_knn.predict_batch(query_matrix)
        n_producers = 6
        frontend = ServingFrontend(
            fitted_knn, batch_size=8, deadline_ms=5, max_pending=64,
        )
        tickets = [None] * len(query_matrix)

        def producer(lane: int) -> None:
            for i in range(lane, len(query_matrix), n_producers):
                tickets[i] = frontend.submit(query_matrix[i])

        threads = [
            threading.Thread(target=producer, args=(lane,), name=f"prod-{lane}")
            for lane in range(n_producers)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        frontend.close(drain=True)

        assert all(t is not None and t.done for t in tickets)
        for i, ticket in enumerate(tickets):
            result = ticket.result()
            np.testing.assert_allclose(
                result.coordinates, oracle.coordinates[i : i + 1],
                rtol=0.0, atol=1e-9,
            )
            np.testing.assert_array_equal(
                result.building, oracle.building[i : i + 1]
            )
        stats = frontend.stats()
        assert stats.submitted == len(query_matrix)
        assert stats.served == len(query_matrix)
        assert stats.timeouts == stats.rejected == stats.cancelled == 0
        assert stats.pending == 0

    def test_shutdown_under_load_no_deadlock(self, fitted_knn, query_matrix):
        """close() races live producers: every handed-out ticket resolves."""
        n_producers = 6
        frontend = ServingFrontend(
            fitted_knn, batch_size=8, deadline_ms=5, max_pending=16,
        )
        obtained = [[] for _ in range(n_producers)]
        refused = [0] * n_producers

        def producer(lane: int) -> None:
            for i in range(lane, len(query_matrix), n_producers):
                try:
                    obtained[lane].append(frontend.submit(query_matrix[i]))
                except FrontendClosedError:
                    refused[lane] += 1

        threads = [
            threading.Thread(target=producer, args=(lane,), name=f"prod-{lane}")
            for lane in range(n_producers)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.01)  # let the queue build up mid-stream
        frontend.close(drain=True)
        _join_all(threads)

        tickets = [t for lane in obtained for t in lane]
        assert all(t.done for t in tickets)
        # a ticket handed out before close resolves with a prediction;
        # submissions after close were refused at the door
        assert all(t.exception() is None for t in tickets)
        assert len(tickets) + sum(refused) == len(query_matrix)
        with pytest.raises(FrontendClosedError):
            frontend.submit(query_matrix[0])

    def test_expiry_frees_blocked_producers(self, fitted_knn, query_matrix):
        """Regression: timeouts emptying the queue must notify producers
        blocked at max_pending, not leave them waiting forever."""
        frontend = ServingFrontend(
            fitted_knn,
            batch_size=8,
            deadline_ms=60_000,   # deadline never fires
            timeout_ms=50,        # expiry is the only queue movement
            max_pending=1,
        )
        first = frontend.submit(query_matrix[0])  # fills the queue
        blocked = []

        def producer() -> None:
            blocked.append(frontend.submit(query_matrix[1]))

        thread = threading.Thread(target=producer, name="blocked-producer")
        thread.start()
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "producer stayed blocked after expiry"
        frontend.close(drain=False)
        assert first.done and blocked[0].done
        assert frontend.stats().timeouts >= 1

    def test_cancelling_shutdown_under_load_resolves_everything(
        self, fitted_knn, query_matrix
    ):
        n_producers = 4
        frontend = ServingFrontend(
            fitted_knn, batch_size=16, deadline_ms=60_000, max_pending=1024,
        )
        obtained = [[] for _ in range(n_producers)]

        def producer(lane: int) -> None:
            for i in range(lane, len(query_matrix), n_producers):
                try:
                    obtained[lane].append(frontend.submit(query_matrix[i]))
                except FrontendClosedError:
                    return

        threads = [
            threading.Thread(target=producer, args=(lane,), name=f"prod-{lane}")
            for lane in range(n_producers)
        ]
        for thread in threads:
            thread.start()
        frontend.close(drain=False)
        _join_all(threads)
        tickets = [t for lane in obtained for t in lane]
        assert all(t.done for t in tickets)
        for ticket in tickets:
            error = ticket.exception()
            # served before close, or cancelled at shutdown — never stuck
            assert error is None or isinstance(error, FrontendClosedError)


# --------------------------------------------------------------------------
# ModelCache stampede: the double-fit race regression test
# --------------------------------------------------------------------------
if "stampede-probe" not in available():

    @register("stampede-probe")
    class StampedeProbeEstimator(Estimator):
        """Counts concurrent fits; the fit is slow to widen the race."""

        fit_calls = 0
        fit_calls_lock = threading.Lock()
        fail_next_fit = False

        def __init__(self, tag: int = 0):
            super().__init__(tag=int(tag))

        def fit(self, dataset):
            with type(self).fit_calls_lock:
                type(self).fit_calls += 1
            if type(self).fail_next_fit:
                raise RuntimeError("probe fit failed")
            time.sleep(0.05)  # hold the in-flight window open
            self.center_ = dataset.coordinates.mean(axis=0)
            return self

        def predict_batch(self, signals):
            signals = np.asarray(signals, dtype=float)
            return Prediction(
                coordinates=np.tile(self.center_, (len(signals), 1))
            )


def _probe_cls():
    from repro.serving import get

    return get("stampede-probe")


def _tiny_dataset(seed=0, n=24, w=5):
    rng = np.random.default_rng(seed)
    return FingerprintDataset(
        rssi=rng.uniform(-90, -30, size=(n, w)),
        coordinates=rng.uniform(0, 50, size=(n, 2)),
        floor=rng.integers(0, 3, size=n),
        building=rng.integers(0, 2, size=n),
    )


class TestModelCacheStampede:
    def _stampede(self, cache, dataset, n_threads, **params):
        barrier = threading.Barrier(n_threads)
        results, errors = [None] * n_threads, [None] * n_threads

        def worker(i: int) -> None:
            barrier.wait()
            try:
                results[i] = cache.get_or_fit("stampede-probe", dataset, **params)
            except BaseException as error:
                errors[i] = error

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"cache-{i}")
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        return results, errors

    def test_16_thread_stampede_fits_exactly_once(self):
        cls = _probe_cls()
        cls.fit_calls = 0
        cls.fail_next_fit = False
        cache = ModelCache(capacity=8)
        dataset = _tiny_dataset(1)
        results, errors = self._stampede(cache, dataset, n_threads=16, tag=1)
        assert errors == [None] * 16
        assert cls.fit_calls == 1  # the double-fit race, pinned
        first = results[0]
        assert all(r is first for r in results)  # everyone shares one model
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 15

    def test_distinct_keys_still_fit_in_parallel(self):
        cls = _probe_cls()
        cls.fit_calls = 0
        cls.fail_next_fit = False
        cache = ModelCache(capacity=8)
        dataset = _tiny_dataset(2)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(i: int) -> None:
            barrier.wait()
            results[i] = cache.get_or_fit("stampede-probe", dataset, tag=i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert cls.fit_calls == 4  # four keys, four fits
        assert len({id(r) for r in results}) == 4

    def test_failed_fit_propagates_to_all_waiters_then_recovers(self):
        cls = _probe_cls()
        cls.fit_calls = 0
        cls.fail_next_fit = True
        cache = ModelCache(capacity=8)
        dataset = _tiny_dataset(3)
        _results, errors = self._stampede(cache, dataset, n_threads=4, tag=9)
        assert all(isinstance(e, RuntimeError) for e in errors)
        # the failed fit left no entry and no stuck in-flight guard
        cls.fail_next_fit = False
        fitted = cache.get_or_fit("stampede-probe", dataset, tag=9)
        assert fitted.predict_batch(dataset.rssi[:2]).coordinates.shape == (2, 2)
