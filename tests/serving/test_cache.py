"""Model cache: hit/miss counters, keying, LRU eviction."""

import os
import signal
import time

import numpy as np
import pytest

from repro.data.ujiindoor import FingerprintDataset
from repro.serving import ModelCache, dataset_fingerprint


def _tiny_dataset(seed=0, n=30, w=6):
    rng = np.random.default_rng(seed)
    return FingerprintDataset(
        rssi=rng.uniform(-90, -30, size=(n, w)),
        coordinates=rng.uniform(0, 50, size=(n, 2)),
        floor=rng.integers(0, 3, size=n),
        building=rng.integers(0, 2, size=n),
    )


class TestDatasetFingerprint:
    def test_stable_across_copies(self):
        a, b = _tiny_dataset(1), _tiny_dataset(1)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_changes_with_content(self):
        a, b = _tiny_dataset(1), _tiny_dataset(1)
        b.rssi[0, 0] += 1.0
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_changes_with_labels(self):
        a, b = _tiny_dataset(1), _tiny_dataset(1)
        b.floor[0] += 1
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


class TestModelCache:
    def test_miss_then_hit_returns_same_object(self):
        cache = ModelCache(capacity=4)
        data = _tiny_dataset()
        first = cache.get_or_fit("knn", data, k=3)
        second = cache.get_or_fit("knn", data, k=3)
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_equivalent_spellings_hit_one_entry(self):
        cache = ModelCache(capacity=4)
        data = _tiny_dataset()
        default = cache.get_or_fit("knn", data)
        explicit = cache.get_or_fit("knn", data, k=5, weighted=True)
        spelled = cache.get_or_fit("knn", data, k=5.0)
        assert default is explicit is spelled
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)

    def test_different_hyperparams_miss(self):
        cache = ModelCache(capacity=4)
        data = _tiny_dataset()
        a = cache.get_or_fit("knn", data, k=3)
        b = cache.get_or_fit("knn", data, k=5)
        assert a is not b
        assert cache.stats().misses == 2

    def test_different_dataset_miss(self):
        cache = ModelCache(capacity=4)
        cache.get_or_fit("knn", _tiny_dataset(1), k=3)
        cache.get_or_fit("knn", _tiny_dataset(2), k=3)
        assert cache.stats().misses == 2

    def test_different_backend_miss(self):
        cache = ModelCache(capacity=4)
        data = _tiny_dataset()
        cache.get_or_fit("knn", data, k=3)
        cache.get_or_fit("knn-regressor", data, k=3)
        assert cache.stats().misses == 2

    def test_lru_eviction_order(self):
        cache = ModelCache(capacity=2)
        data = _tiny_dataset()
        a = cache.get_or_fit("knn", data, k=1)
        cache.get_or_fit("knn", data, k=2)
        cache.get_or_fit("knn", data, k=1)  # refresh a → k=2 now oldest
        cache.get_or_fit("knn", data, k=3)  # evicts k=2
        assert cache.stats().evictions == 1
        assert cache.get_or_fit("knn", data, k=1) is a  # still cached
        cache.get_or_fit("knn", data, k=2)  # re-fit: was evicted
        assert cache.stats().misses == 4

    def test_capacity_bound_respected(self):
        cache = ModelCache(capacity=2)
        data = _tiny_dataset()
        for k in range(1, 6):
            cache.get_or_fit("knn", data, k=k)
        assert len(cache) == 2
        assert cache.stats().evictions == 3

    def test_clear_resets(self):
        cache = ModelCache(capacity=2)
        cache.get_or_fit("knn", _tiny_dataset(), k=3)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions, stats.size) == (0, 0, 0, 0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ModelCache(capacity=0)

    def test_precomputed_fingerprint_hits(self):
        cache = ModelCache(capacity=4)
        data = _tiny_dataset()
        fp = dataset_fingerprint(data)
        first = cache.get_or_fit("knn", data, k=3)
        second = cache.get_or_fit("knn", data, fingerprint=fp, k=3)
        assert first is second
        assert cache.stats().hits == 1

    def test_cached_model_predicts(self):
        cache = ModelCache()
        data = _tiny_dataset()
        estimator = cache.get_or_fit("knn", data, k=3)
        prediction = cache.get_or_fit("knn", data, k=3).predict_batch(data.rssi[:4])
        np.testing.assert_allclose(
            prediction.coordinates,
            estimator.predict_batch(data.rssi[:4]).coordinates,
        )


class TestForkSafety:
    """A forked child must never inherit a locked cache (PR 6 bugfix).

    ``fork()`` copies the cache's ``threading.Lock`` and in-flight fit
    events in whatever state the parent's threads had them — but the
    owning threads don't exist in the child, so a child that touches
    the cache while a parent thread held the lock (or while a fit was
    in flight) deadlocks forever.  The ``os.register_at_fork`` hook
    replaces the lock and drops the in-flight table in the child.
    """

    def test_fork_hook_resets_locked_lock_and_inflight(self):
        from repro.serving.cache import _reset_caches_after_fork

        cache = ModelCache(capacity=2)
        cache._lock.acquire()  # what a mid-fit parent thread looks like
        cache._inflight[("knn", "fp", "params")] = object()
        try:
            _reset_caches_after_fork()
            # a fresh, unlocked lock and an empty in-flight table
            assert cache._lock.acquire(blocking=False)
            cache._lock.release()
            assert cache._inflight == {}
        finally:
            pass  # the pre-fork lock object was discarded by the reset

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="fork() unavailable"
    )
    def test_forked_child_makes_progress_while_parent_holds_lock(self):
        cache = ModelCache(capacity=2)
        train = _tiny_dataset(seed=3)
        cache.get_or_fit("knn", train, k=1)  # warm entry survives the fork
        cache._lock.acquire()
        try:
            pid = os.fork()
        except BaseException:
            cache._lock.release()
            raise
        if pid == 0:  # child: inherited lock must have been reset
            status = 1
            try:
                fitted = cache.get_or_fit("knn", train, k=1)
                status = 0 if fitted.model_ is not None else 2
            finally:
                os._exit(status)
        try:
            deadline = time.monotonic() + 30.0
            status = None
            while time.monotonic() < deadline:
                done, raw = os.waitpid(pid, os.WNOHANG)
                if done == pid:
                    status = raw
                    break
                time.sleep(0.05)
            if status is None:  # the child deadlocked on the stale lock
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("forked child deadlocked on the inherited lock")
            assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        finally:
            cache._lock.release()
