"""Multi-process shard serving: snapshot → warm worker pool → load.

The GIL-escape walkthrough, end to end:

1. fit a sharded kNN estimator over a campus-style radio map and spill
   it through the persistent :class:`repro.serving.ModelStore`
   (one artifact, shard assignment included);
2. spawn a :class:`repro.serving.ShardWorkerPool` — each worker
   process **warm-starts from the store artifact** (no re-fit, no
   re-partition), owns a subset of the shards, and receives query
   batches over ``multiprocessing.shared_memory`` ring buffers (no
   pickling on the hot path);
3. serve a concurrent load through the unchanged
   :class:`repro.serving.ServingFrontend` surface —
   ``submit()``/``AsyncTicket`` with deadlines and backpressure — via
   :func:`repro.serving.make_worker_frontend`;
4. SIGKILL a worker mid-load and watch the pool detect the death,
   respawn the worker from the same artifact, and re-dispatch the
   in-flight batch — crash recovery costs milliseconds because warm
   starts do.

Workers are started with the ``spawn`` method (never ``fork``); see
the spawn-vs-fork policy note in ``repro/serving/__init__.py``.  On
platforms without POSIX shared memory the same code falls back to the
thread front end (``make_worker_frontend(..., workers=0)`` does so
explicitly).

Run:  python examples/multiprocess_serve.py

The serve benchmark sweeps the same tier from the command line::

    python -m repro.cli serve-bench --workers 0,2,4
"""

import tempfile
import time

import numpy as np

from repro.data import generate_uji_like
from repro.serving import (
    ModelCache,
    ModelStore,
    dataset_fingerprint,
    make_worker_frontend,
    shm_available,
)


def main() -> None:
    dataset = generate_uji_like(
        n_spots_per_building=24, measurements_per_spot=6,
        n_aps_per_floor=8, seed=7,
    )
    train, test = dataset.split((0.8, 0.2), rng=8)
    print(f"radio map: {len(train)} fingerprints x {train.n_aps} WAPs")

    with tempfile.TemporaryDirectory(prefix="repro-mp-serve-") as store_dir:
        store = ModelStore(store_dir)
        fingerprint = dataset_fingerprint(train)

        # -- 1. fit once, spill through the store (write-through cache)
        t0 = time.perf_counter()
        estimator = ModelCache(capacity=2, store=store).get_or_fit(
            "knn", train, fingerprint=fingerprint,
            k=3, shards=4, partitioner="kmeans",
        )
        print(f"sharded fit + snapshot: {time.perf_counter() - t0:.2f} s "
              f"({estimator.model_.index_.n_shards} shards on disk)")

        if not shm_available():
            print("no POSIX shared memory here - falling back to threads")

        # -- 2./3. worker-pool front end (same submit()/ticket surface);
        # workers warm-start from the artifact written above
        frontend = make_worker_frontend(
            estimator, store, fingerprint=fingerprint,
            workers=2 if shm_available() else 0,
            batch_size=32, deadline_ms=20.0,
        )
        oracle = estimator.predict_batch(test.rssi)
        try:
            t0 = time.perf_counter()
            tickets = [frontend.submit(row) for row in test.rssi]
            coords = np.vstack([t.result(timeout=60).coordinates
                                for t in tickets])
            elapsed = time.perf_counter() - t0
            stats = frontend.stats()
            print(f"served {stats.served} requests in {elapsed:.2f} s "
                  f"({stats.served / elapsed:,.0f} req/s, "
                  f"{stats.batches} batches)")
            print("parity with the in-process oracle:",
                  bool(np.allclose(coords, oracle.coordinates)))

            # -- 4. crash recovery: kill a worker, keep serving
            pool = getattr(frontend._executor, "pool", None)
            if pool is not None:
                pool.workers[0].process.kill()
                pool.workers[0].process.join(timeout=10)
                again = [frontend.submit(row) for row in test.rssi[:50]]
                redone = np.vstack([t.result(timeout=60).coordinates
                                    for t in again])
                print(f"after SIGKILL: {pool.respawns} respawn(s), "
                      f"parity still "
                      f"{bool(np.allclose(redone, oracle.coordinates[:50]))}")
        finally:
            frontend.close()


if __name__ == "__main__":
    main()
