"""Multi-process shard-serving parity and crash-recovery suite.

Pins the tentpole contract of :mod:`repro.serving.workers`:

* **parity** — the process-backed pool's predictions match the
  single-process oracle (to the repo's allclose parity convention:
  the restored worker index scans brute-force, the live one may use a
  kd-tree, so distances agree only to float round-off), batched and
  per-query, across worker counts, and through the ``ServingFrontend``
  executor seam;
* **crash recovery** — a SIGKILLed worker is detected, respawned from
  the model store, and the in-flight batch re-dispatched, with no
  wrong or lost results;
* **buffer hygiene** — the shared rings are reused across many more
  batches than they have slots without a stale read ever surfacing;
* **graceful fallback** — ``workers=0`` serves through the thread
  front end with identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.persistence import ModelStore
from repro.serving import ServingFrontend, create, dataset_fingerprint
from repro.serving.shm import shm_available
from repro.serving.workers import (
    ShardWorkerPool,
    WorkerPoolError,
    WorkerPoolExecutor,
    make_worker_frontend,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


@pytest.fixture(scope="module")
def sharded_knn(uji_small):
    """A fitted 4-shard knn estimator over the shared small radio map."""
    return create("knn", k=3, shards=4, partitioner="kmeans").fit(uji_small)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ModelStore(tmp_path_factory.mktemp("worker-store"))


@pytest.fixture(scope="module")
def fingerprint(uji_small):
    return dataset_fingerprint(uji_small)


@pytest.fixture(scope="module")
def queries(uji_small):
    rng = np.random.default_rng(5)
    return uji_small.rssi[rng.integers(0, len(uji_small), size=60)]


@pytest.fixture(scope="module")
def oracle(sharded_knn, queries):
    return sharded_knn.predict_batch(queries)


def _pool(sharded_knn, store, fingerprint, n_workers, **kwargs):
    return ShardWorkerPool(
        sharded_knn, store, fingerprint=fingerprint, n_workers=n_workers,
        **kwargs,
    )


class TestParity:
    @pytest.mark.parametrize(
        "n_workers",
        [1, 2, pytest.param(4, marks=pytest.mark.slow)],
    )
    def test_batched_equals_per_query_equals_thread_frontend(
        self, sharded_knn, store, fingerprint, queries, oracle, n_workers
    ):
        with _pool(sharded_knn, store, fingerprint, n_workers) as pool:
            batched = pool.predict(queries)
            per_query = [pool.predict(q[None, :]) for q in queries]
        np.testing.assert_allclose(batched.coordinates, oracle.coordinates)
        np.testing.assert_array_equal(batched.building, oracle.building)
        np.testing.assert_array_equal(batched.floor, oracle.floor)
        single = np.vstack([p.coordinates for p in per_query])
        np.testing.assert_allclose(single, oracle.coordinates)
        with ServingFrontend(sharded_knn, batch_size=16) as frontend:
            tickets = [frontend.submit(q) for q in queries]
            threaded = np.vstack(
                [t.result().coordinates for t in tickets]
            )
        np.testing.assert_allclose(threaded, oracle.coordinates)

    def test_query_matches_in_process_index(
        self, sharded_knn, store, fingerprint, uji_small
    ):
        normalized = uji_small.normalized_signals()[:25]
        expected_d, _expected_i = sharded_knn.model_.index_.query(
            normalized, k=3
        )
        with _pool(sharded_knn, store, fingerprint, 2) as pool:
            distances, indices = pool.query(normalized, k=3)
        # neighbor identity may legitimately differ inside distance
        # ties, and the restored index computes distances through the
        # brute expansion; sorted distances agree to round-off
        np.testing.assert_allclose(distances, expected_d, rtol=1e-6, atol=1e-6)
        assert indices.shape == expected_d.shape

    def test_frontend_over_workers(
        self, sharded_knn, store, fingerprint, queries, oracle
    ):
        frontend = make_worker_frontend(
            sharded_knn, store, fingerprint=fingerprint, workers=2,
            batch_size=16, deadline_ms=50.0,
        )
        try:
            tickets = [frontend.submit(q) for q in queries]
            got = np.vstack([t.result().coordinates for t in tickets])
        finally:
            frontend.close()
        np.testing.assert_allclose(got, oracle.coordinates)
        assert frontend.stats().batches > 0

    def test_workers_zero_falls_back_to_thread_path(
        self, sharded_knn, store, fingerprint, queries, oracle
    ):
        frontend = make_worker_frontend(
            sharded_knn, store, fingerprint=fingerprint, workers=0,
            batch_size=16,
        )
        try:
            assert frontend.batcher is not None  # the thread path
            tickets = [frontend.submit(q) for q in queries]
            got = np.vstack([t.result().coordinates for t in tickets])
        finally:
            frontend.close()
        np.testing.assert_allclose(got, oracle.coordinates)


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_batch_redispatched(
        self, sharded_knn, store, fingerprint, queries, oracle
    ):
        with _pool(
            sharded_knn, store, fingerprint, 2, heartbeat_timeout_s=2.0
        ) as pool:
            first = pool.predict(queries[:10])
            np.testing.assert_allclose(
                first.coordinates, oracle.coordinates[:10]
            )
            pool.workers[0].process.kill()  # SIGKILL mid-load
            pool.workers[0].process.join(timeout=10.0)
            after = pool.predict(queries)
            assert pool.respawns >= 1
        np.testing.assert_allclose(after.coordinates, oracle.coordinates)

    def test_respawned_worker_serves_many_more_batches(
        self, sharded_knn, store, fingerprint, queries, oracle
    ):
        with _pool(sharded_knn, store, fingerprint, 2) as pool:
            pool.workers[1].process.kill()
            pool.workers[1].process.join(timeout=10.0)
            for start in range(0, 30, 10):
                got = pool.predict(queries[start : start + 10])
                np.testing.assert_allclose(
                    got.coordinates, oracle.coordinates[start : start + 10]
                )
            assert pool.respawns == 1  # one death, one replacement


class TestBufferHygiene:
    def test_ring_reuse_never_surfaces_stale_results(
        self, sharded_knn, store, fingerprint, uji_small, oracle, queries
    ):
        """Far more batches than ring slots, with varying batch sizes:
        every chunk rides through the same few shared-memory slots, so
        any stale read or header/payload mismatch corrupts parity."""
        with _pool(
            sharded_knn, store, fingerprint, 2, max_rows=8, n_slots=2
        ) as pool:
            got = pool.predict(queries)  # 60 rows -> 8 chunks per worker
            np.testing.assert_allclose(
                got.coordinates, oracle.coordinates
            )
            for size in (1, 3, 8, 5, 2):
                sub = pool.predict(queries[:size])
                np.testing.assert_allclose(
                    sub.coordinates, oracle.coordinates[:size]
                )


class TestValidation:
    def test_rejects_unsharded_estimator(self, uji_small, store, fingerprint):
        flat = create("knn", k=3).fit(uji_small)
        with pytest.raises(WorkerPoolError, match="shards > 1"):
            ShardWorkerPool(flat, store, fingerprint=fingerprint, n_workers=2)

    def test_rejects_unfitted_estimator(self, store, fingerprint):
        with pytest.raises(WorkerPoolError, match="fitted"):
            ShardWorkerPool(
                create("knn", k=3, shards=4), store,
                fingerprint=fingerprint, n_workers=2,
            )

    def test_rejects_wrong_backend(self, uji_small, store, fingerprint):
        noble = create("noble")
        with pytest.raises(WorkerPoolError, match="knn"):
            ShardWorkerPool(
                noble, store, fingerprint=fingerprint, n_workers=2
            )

    def test_clamps_workers_to_shard_count(
        self, sharded_knn, store, fingerprint
    ):
        with _pool(sharded_knn, store, fingerprint, 64) as pool:
            assert pool.n_workers == sharded_knn.model_.index_.n_shards

    def test_query_validates_shape_k_and_closed(
        self, sharded_knn, store, fingerprint, uji_small
    ):
        normalized = uji_small.normalized_signals()[:4]
        pool = _pool(sharded_knn, store, fingerprint, 1)
        try:
            with pytest.raises(ValueError, match="queries"):
                pool.query(normalized[:, :-1])
            with pytest.raises(ValueError, match="k must be"):
                pool.query(normalized, k=99)
            empty_d, empty_i = pool.query(normalized[:0])
            assert empty_d.shape == (0, 3) and empty_i.shape == (0, 3)
        finally:
            pool.close()
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.query(normalized)

    def test_executor_counts_its_own_batches(
        self, sharded_knn, store, fingerprint, queries
    ):
        with _pool(sharded_knn, store, fingerprint, 2) as pool:
            first = WorkerPoolExecutor(pool)
            second = WorkerPoolExecutor(pool)
            first.predict(queries[:4])
            first.predict(queries[:4])
            second.predict(queries[:4])
            assert (first.n_batches, second.n_batches) == (2, 1)


class TestResilienceParameterValidation:
    """The watchdog/respawn knobs added for the chaos harness reject
    nonsense up front instead of misbehaving mid-storm."""

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"heartbeat_timeout_s": 0.0}, "heartbeat_timeout_s"),
            ({"heartbeat_timeout_s": -1.0}, "heartbeat_timeout_s"),
            ({"respawn_budget": 0}, "respawn_budget"),
            ({"respawn_window_s": 0.0}, "respawn_window_s"),
            ({"dispatch_retries": -1}, "dispatch_retries"),
            ({"respawn_backoff_s": -0.1}, "respawn_backoff_s"),
            (
                {"respawn_backoff_s": 1.0, "respawn_backoff_cap_s": 0.5},
                "respawn_backoff_cap_s",
            ),
        ],
    )
    def test_rejects_bad_watchdog_parameters(
        self, sharded_knn, store, fingerprint, kwargs, match
    ):
        with pytest.raises(ValueError, match=match):
            ShardWorkerPool(
                sharded_knn, store, fingerprint=fingerprint, n_workers=1,
                **kwargs,
            )


class TestStartupFailure:
    def test_failed_start_raises_the_real_error_and_unlinks_segments(
        self, sharded_knn, store, fingerprint, monkeypatch
    ):
        """A worker whose ``start()`` raises must surface that error, not
        the ``join`` of a never-started process, and unlink every ring."""
        import multiprocessing.process

        from repro.serving import workers as workers_module
        from repro.serving.shm import attach_segment

        names = []
        channel_class = workers_module.WorkerChannel

        def recording_channel(*args, **kwargs):
            channel = channel_class(*args, **kwargs)
            names.append(channel.name)
            return channel

        def failing_start(self):
            raise OSError("simulated spawn failure")

        monkeypatch.setattr(workers_module, "WorkerChannel", recording_channel)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", failing_start
        )
        with pytest.raises(OSError, match="simulated spawn failure"):
            _pool(sharded_knn, store, fingerprint, 2)
        assert len(names) == 2
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach_segment(name)
