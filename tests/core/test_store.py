"""ModelStore + ModelCache spill tier: warm-start serving contract.

The restart story under test: a store-backed cache writes every fitted
model through to disk, and a *fresh* cache over the same store resolves
the miss from disk (``disk_hits``) with bit-identical predictions —
loading exactly once under a restart stampede — while corrupted or
renamed artifacts degrade to a re-fit, never to serving the wrong
model, and a changed radio map can never be served by a stale artifact.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.persistence import ModelStore
from repro.serving import ModelCache, create, dataset_fingerprint, params_key


@pytest.fixture()
def store(tmp_path):
    return ModelStore(tmp_path / "store")


@pytest.fixture(scope="module")
def train(uji_split):
    train, _val, _test = uji_split
    return train


def _key_of(name, dataset, **hyperparams):
    estimator = create(name, **hyperparams)
    return name, dataset_fingerprint(dataset), params_key(estimator.params)


class TestModelStore:
    def test_put_get_round_trip(self, store, train, uji_split):
        _train, _val, test = uji_split
        fitted = create("knn", k=3).fit(train)
        name, fingerprint, pkey = _key_of("knn", train, k=3)
        path = store.put(name, fingerprint, pkey, fitted)
        assert os.path.exists(path)
        assert len(store) == 1
        restored = store.get(name, fingerprint, pkey)
        np.testing.assert_array_equal(
            fitted.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )

    def test_missing_key_is_none(self, store, train):
        assert store.get("knn", "nope", "params") is None

    def test_stable_paths(self, store):
        a = store.path_for("knn", "fp", "params")
        assert a == store.path_for("knn", "fp", "params")
        assert a != store.path_for("knn", "fp2", "params")
        assert a != store.path_for("knn", "fp", "params2")
        assert a.endswith(".npz")

    def test_renamed_artifact_never_serves_wrong_key(self, store, train):
        fitted = create("knn", k=3).fit(train)
        name, fingerprint, pkey = _key_of("knn", train, k=3)
        path = store.put(name, fingerprint, pkey, fitted)
        # an operator renames the file onto another key's slot
        other = store.path_for(name, "a-different-radio-map", pkey)
        os.rename(path, other)
        with pytest.warns(RuntimeWarning, match="unreadable|store key"):
            assert store.get(name, "a-different-radio-map", pkey) is None
        assert store.get(name, fingerprint, pkey) is None  # original gone

    def test_corrupted_artifact_is_soft_miss(self, store, train):
        fitted = create("knn", k=3).fit(train)
        name, fingerprint, pkey = _key_of("knn", train, k=3)
        path = store.put(name, fingerprint, pkey, fitted)
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage\x00")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.get(name, fingerprint, pkey) is None

    def test_clear_empties_the_directory(self, store, train):
        fitted = create("knn", k=3).fit(train)
        store.put(*_key_of("knn", train, k=3), fitted)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0 and store.paths() == []

    def test_failed_put_leaves_no_debris(self, store, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            store.put("knn", "fp", "params", create("knn", k=3))
        assert os.listdir(store.directory) == []


class TestCacheSpillTier:
    def test_write_through_on_insert(self, store, train):
        cache = ModelCache(capacity=4, store=store)
        cache.get_or_fit("knn", train, k=3)
        assert len(store) == 1
        stats = cache.stats()
        assert (stats.misses, stats.disk_hits, stats.hits) == (1, 0, 0)

    def test_restart_resolves_from_disk(self, store, train, uji_split):
        _train, _val, test = uji_split
        first = ModelCache(capacity=4, store=store)
        fitted = first.get_or_fit("knn", train, k=3)
        restarted = ModelCache(capacity=4, store=store)  # fresh process
        restored = restarted.get_or_fit("knn", train, k=3)
        stats = restarted.stats()
        assert (stats.misses, stats.disk_hits) == (0, 1)
        np.testing.assert_array_equal(
            fitted.predict_batch(test.rssi).coordinates,
            restored.predict_batch(test.rssi).coordinates,
        )
        # after the disk hit the entry lives in memory: plain hit now
        again = restarted.get_or_fit("knn", train, k=3)
        assert again is restored
        assert restarted.stats().hits == 1

    def test_disk_hits_count_into_hit_rate(self, store, train):
        first = ModelCache(capacity=4, store=store)
        first.get_or_fit("knn", train, k=3)
        restarted = ModelCache(capacity=4, store=store)
        restarted.get_or_fit("knn", train, k=3)
        assert restarted.stats().hit_rate == pytest.approx(1.0)

    def test_changed_dataset_never_served_stale(self, store, train):
        first = ModelCache(capacity=4, store=store)
        first.get_or_fit("knn", train, k=3)
        # the radio map gains a survey point: new fingerprint, new key
        from repro.data.ujiindoor import FingerprintDataset

        grown = FingerprintDataset(
            rssi=np.vstack([train.rssi, train.rssi[:1] + 1.0]),
            coordinates=np.vstack([train.coordinates, train.coordinates[:1]]),
            floor=np.concatenate([train.floor, train.floor[:1]]),
            building=np.concatenate([train.building, train.building[:1]]),
        )
        restarted = ModelCache(capacity=4, store=store)
        restarted.get_or_fit("knn", grown, k=3)
        stats = restarted.stats()
        assert (stats.misses, stats.disk_hits) == (1, 0)  # re-fit, no stale
        assert len(store) == 2  # and the new fit spilled under its own key

    def test_different_hyperparams_never_alias(self, store, train):
        first = ModelCache(capacity=4, store=store)
        first.get_or_fit("knn", train, k=3)
        restarted = ModelCache(capacity=4, store=store)
        restarted.get_or_fit("knn", train, k=5)
        stats = restarted.stats()
        assert (stats.misses, stats.disk_hits) == (1, 0)

    def test_corrupted_artifact_falls_back_to_refit(self, store, train):
        first = ModelCache(capacity=4, store=store)
        first.get_or_fit("knn", train, k=3)
        for path in store.paths():
            with open(path, "wb") as handle:
                handle.write(b"garbage")
        restarted = ModelCache(capacity=4, store=store)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            restored = restarted.get_or_fit("knn", train, k=3)
        stats = restarted.stats()
        assert (stats.misses, stats.disk_hits) == (1, 0)
        assert restored.model_ is not None
        # the re-fit wrote a fresh artifact over the bad one
        restarted2 = ModelCache(capacity=4, store=store)
        restarted2.get_or_fit("knn", train, k=3)
        assert restarted2.stats().disk_hits == 1

    def test_restart_stampede_loads_exactly_once(self, store, train):
        first = ModelCache(capacity=4, store=store)
        first.get_or_fit("knn", train, k=3)

        loads = []
        original_get = store.get

        def counting_get(*args, **kwargs):
            loads.append(threading.get_ident())
            return original_get(*args, **kwargs)

        store.get = counting_get
        restarted = ModelCache(capacity=4, store=store)
        fingerprint = dataset_fingerprint(train)
        barrier = threading.Barrier(8)
        results = [None] * 8

        def stampede(lane):
            barrier.wait()
            results[lane] = restarted.get_or_fit(
                "knn", train, fingerprint=fingerprint, k=3
            )

        threads = [
            threading.Thread(target=stampede, args=(lane,)) for lane in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(loads) == 1  # one disk load for the whole stampede
        stats = restarted.stats()
        assert stats.disk_hits == 1 and stats.misses == 0
        assert stats.hits == 7  # waiters share the restored instance
        assert all(r is results[0] for r in results)

    def test_clear_resets_disk_hits(self, store, train):
        first = ModelCache(capacity=4, store=store)
        first.get_or_fit("knn", train, k=3)
        restarted = ModelCache(capacity=4, store=store)
        restarted.get_or_fit("knn", train, k=3)
        restarted.clear()
        stats = restarted.stats()
        assert (stats.hits, stats.misses, stats.disk_hits) == (0, 0, 0)
        # the store is deliberately untouched by cache.clear()
        assert len(store) == 1


class TestReviewHardening:
    """Regressions pinned from review findings on the spill tier."""

    def test_failed_write_through_keeps_serving(self, store, train):
        def broken_put(*args, **kwargs):
            raise OSError("disk full")

        store.put = broken_put
        cache = ModelCache(capacity=4, store=store)
        with pytest.warns(RuntimeWarning, match="write-through failed"):
            fitted = cache.get_or_fit("knn", train, k=3)
        assert fitted.model_ is not None  # the fit survived the disk error
        stats = cache.stats()
        assert (stats.misses, stats.disk_hits) == (1, 0)
        # and the memory tier serves it as a plain hit afterwards
        assert cache.get_or_fit("knn", train, k=3) is fitted
        assert cache.stats().hits == 1

    def test_orphaned_tmp_files_are_not_artifacts(self, store, train):
        fitted = create("knn", k=3).fit(train)
        path = store.put(*_key_of("knn", train, k=3), fitted)
        debris = f"{path}.tmp-999-888.npz"  # crash-orphaned atomic write
        with open(debris, "wb") as handle:
            handle.write(b"half-written")
        assert len(store) == 1
        assert debris not in store.paths()


class TestCrossProcessSafety:
    """Two processes hammering ``put`` on the same key (PR 6 bugfix).

    The old atomic-write scheme derived the temp name from pid/thread
    ids deterministically, so two writers could collide on the same
    temp file: one's ``os.replace`` promotes the other's half-written
    archive, or one's cleanup unlinks the temp out from under the
    other, surfacing as a crash or a corrupt committed artifact.  With
    ``tempfile.mkstemp`` every writer owns a unique O_EXCL temp, so
    concurrent same-key puts can only ever promote a complete archive.
    """

    _WRITER = """\
import sys

from repro.core.persistence import ModelStore
from repro.data import generate_uji_like
from repro.serving import create, dataset_fingerprint, params_key

store_dir, rounds = sys.argv[1], int(sys.argv[2])
train = generate_uji_like(
    n_spots_per_building=8, measurements_per_spot=4, n_aps_per_floor=4,
    seed=7,
)
fitted = create("knn", k=1).fit(train)
store = ModelStore(store_dir)
key = ("knn", dataset_fingerprint(train), params_key(fitted.params))
for _ in range(rounds):
    store.put(*key, fitted)
print("writer done")
"""

    def test_concurrent_same_key_puts_from_two_processes(self, tmp_path):
        import subprocess
        import sys

        script = tmp_path / "writer.py"
        script.write_text(self._WRITER)
        store_dir = tmp_path / "race-store"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(store_dir), "25"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        # exactly one committed artifact, zero temp debris
        listing = sorted(os.listdir(store_dir))
        assert len(listing) == 1 and listing[0].endswith(".npz")
        assert not any(".tmp-" in name for name in listing)
        store = ModelStore(store_dir)
        assert len(store) == 1
        # and the surviving artifact is complete and loadable
        from repro.data import generate_uji_like

        train = generate_uji_like(
            n_spots_per_building=8, measurements_per_spot=4,
            n_aps_per_floor=4, seed=7,
        )
        name, fingerprint, pkey = _key_of("knn", train, k=1)
        assert store.get(name, fingerprint, pkey) is not None


class TestRetryAndQuarantine:
    """Transient I/O vs corruption: retried reads, one-shot quarantine.

    The store's contract (ISSUE 8 retry discipline): an ``OSError``
    that is not file-not-found is *transient* — retried
    ``read_retries`` times and never quarantined (a healthy artifact
    must survive an NFS hiccup) — while a corrupt artifact is
    quarantined exactly once and every later miss on that key is
    silent.
    """

    def test_validates_retry_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="read_retries"):
            ModelStore(tmp_path, read_retries=-1)
        with pytest.raises(ValueError, match="retry_delay_s"):
            ModelStore(tmp_path, retry_delay_s=-0.1)

    def test_quarantine_warns_once_then_misses_silently(self, store, train):
        import warnings

        fitted = create("knn", k=3).fit(train)
        name, fingerprint, pkey = _key_of("knn", train, k=3)
        path = store.put(name, fingerprint, pkey, fitted)
        with open(path, "r+b") as handle:
            handle.seek(32)
            handle.write(b"\xff" * 64)
        with pytest.warns(RuntimeWarning, match="quarantining"):
            assert store.get(name, fingerprint, pkey) is None
        assert os.path.exists(path + ".corrupt")
        # every later get of the quarantined key is a *silent* miss:
        # no re-read of the bad file, no warning spam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(name, fingerprint, pkey) is None
            assert store.get(name, fingerprint, pkey) is None

    def test_transient_oserror_is_retried_not_quarantined(
        self, tmp_path, train, monkeypatch
    ):
        from repro.core import persistence

        store = ModelStore(tmp_path / "s", retry_delay_s=0.0)
        fitted = create("knn", k=3).fit(train)
        name, fingerprint, pkey = _key_of("knn", train, k=3)
        path = store.put(name, fingerprint, pkey, fitted)
        real = persistence.load_estimator
        attempts = {"n": 0}

        def flaky(*args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("nfs hiccup")
            return real(*args, **kwargs)

        monkeypatch.setattr(persistence, "load_estimator", flaky)
        restored = store.get(name, fingerprint, pkey)
        assert restored is not None and attempts["n"] == 2
        # the healthy file was never punished for the flake
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")

    def test_persistent_oserror_degrades_without_quarantine(
        self, tmp_path, train, monkeypatch
    ):
        from repro.core import persistence

        store = ModelStore(
            tmp_path / "s", read_retries=2, retry_delay_s=0.0
        )
        fitted = create("knn", k=3).fit(train)
        name, fingerprint, pkey = _key_of("knn", train, k=3)
        path = store.put(name, fingerprint, pkey, fitted)
        attempts = {"n": 0}

        def dead_disk(*_args, **_kwargs):
            attempts["n"] += 1
            raise OSError("i/o error")

        monkeypatch.setattr(persistence, "load_estimator", dead_disk)
        with pytest.warns(RuntimeWarning, match="after 3 attempts"):
            assert store.get(name, fingerprint, pkey) is None
        assert attempts["n"] == 3  # 1 try + read_retries
        # degraded to a miss, but the artifact is left in place: once
        # the disk heals the very same file serves again
        monkeypatch.undo()
        assert store.get(name, fingerprint, pkey) is not None
        assert not os.path.exists(path + ".corrupt")
