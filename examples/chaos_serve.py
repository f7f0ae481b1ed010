"""Chaos serving: a fault storm against the self-protecting front end.

The resilience walkthrough, end to end:

1. fit a sharded kNN estimator, snapshot it through the
   :class:`repro.serving.ModelStore`, and spawn a worker pool with a
   *deliberately tight* respawn budget;
2. wrap the pool in a :class:`repro.serving.FallbackExecutor`: a
   :class:`repro.serving.CircuitBreaker` watches worker-tier failures
   and degrades to an in-process fallback (same model, same answers)
   when the tier goes unhealthy — then probes it back half-open;
3. front everything with a :class:`repro.serving.ServingFrontend`
   running :class:`repro.serving.FairShedAdmission`, so an overloaded
   queue sheds the *hottest* tenant first instead of whoever arrived
   last;
4. unleash a seeded :class:`repro.serving.FaultInjector` storm —
   SIGKILLed workers, a SIGSTOPped heartbeat, corrupted store
   artifacts — while a 10x-hot tenant hammers the queue, and tally
   what the client actually observed: answered (with parity), cleanly
   shed, lost.

The punchline is the last line: **availability stays at 1.0** even
while the worker tier is being murdered, because every failed batch is
re-served by the fallback and every refusal is an explicit
:class:`repro.serving.ShedError`, never a hang.

On platforms without POSIX shared memory the storm skips the process
faults and still demonstrates fair shedding + the breaker surface.

Run:  python examples/chaos_serve.py

The serving benchmark runs a bigger, floor-asserted storm as its
resilience block (``make serve-bench`` for the committed scale)::

    make serve-bench-smoke
"""

import tempfile
import time

import numpy as np

from repro.data import generate_uji_like
from repro.serving import (
    CircuitBreaker,
    FairShedAdmission,
    FallbackExecutor,
    FaultInjector,
    ModelCache,
    ModelStore,
    ServingFrontend,
    ShardWorkerPool,
    ShedError,
    WorkerPoolExecutor,
    dataset_fingerprint,
    shm_available,
)


class DirectExecutor:
    """In-process fallback tier: same model, no worker processes."""

    def __init__(self, estimator):
        self.estimator = estimator

    def predict(self, signals):
        return self.estimator.predict_batch(signals)

    def close(self):
        pass


def main() -> None:
    dataset = generate_uji_like(
        n_spots_per_building=24, measurements_per_spot=6,
        n_aps_per_floor=8, seed=7,
    )
    train, test = dataset.split((0.8, 0.2), rng=8)
    queries = np.vstack([test.rssi] * 3)[:240]  # ~240-request load
    print(f"radio map: {len(train)} fingerprints x {train.n_aps} WAPs")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as store_dir:
        store = ModelStore(store_dir)
        fingerprint = dataset_fingerprint(train)
        estimator = ModelCache(capacity=2, store=store).get_or_fit(
            "knn", train, fingerprint=fingerprint,
            k=3, shards=4, partitioner="kmeans",
        )
        oracle = estimator.predict_batch(queries).coordinates

        # -- 2. circuit-broken degradation over a fragile worker tier
        breaker = CircuitBreaker(
            failure_budget=2, window_s=5.0, cooldown_s=0.25, seed=7
        )
        pool = None
        if shm_available():
            pool = ShardWorkerPool(
                estimator, store, fingerprint=fingerprint, n_workers=2,
                heartbeat_timeout_s=0.4,
                respawn_budget=1, respawn_window_s=30.0,  # tight on purpose
                seed=7,
            )
            executor = FallbackExecutor(
                WorkerPoolExecutor(pool, close_pool=True),
                DirectExecutor(estimator),
                breaker=breaker,
            )
        else:
            print("no POSIX shared memory here - storm runs thread-only")
            executor = FallbackExecutor(
                DirectExecutor(estimator), DirectExecutor(estimator),
                breaker=breaker,
            )

        # -- 3. fair-shedding front end (bounded queue, per-tenant)
        frontend = ServingFrontend(
            executor=executor, batch_size=16, deadline_ms=5.0,
            max_pending=32, admission=FairShedAdmission(),
        )

        # -- 4. the storm: a 10x-hot tenant + seeded process faults
        injector = FaultInjector(seed=7, stall_s=0.8)
        n = len(queries)
        kill_at = {n // 4, n // 2, 3 * n // 4}
        tickets = []
        t0 = time.perf_counter()
        for i, row in enumerate(queries):
            if pool is not None and i in kill_at:
                injector.kill_worker(pool)   # SIGKILL mid-load
            if pool is not None and i == n // 3:
                injector.stall_worker(pool)  # freeze a heartbeat
            if i == 5 * n // 8:
                injector.corrupt_store_artifact(store)  # rot the snapshot
            tenant = "hot" if i % 13 < 10 else f"light{i % 3}"
            try:
                tickets.append((i, frontend.submit(row, tenant=tenant)))
            except ShedError:
                tickets.append((i, None))
            injector.resume_stalled()
        frontend.close(drain=True)
        injector.resume_stalled(force=True)
        elapsed = time.perf_counter() - t0

        # -- tally what the *client* observed
        answered = shed = lost = 0
        parity = True
        for i, ticket in tickets:
            if ticket is None:
                shed += 1
                continue
            try:
                got = ticket.result(timeout=0)
            except ShedError:
                shed += 1
                continue
            except Exception:
                lost += 1
                continue
            answered += 1
            parity &= bool(np.allclose(got.coordinates[0], oracle[i]))
        stats = frontend.stats()
        print(f"storm: {injector.kills} kills, {injector.stalls} stall(s), "
              f"{injector.store_corruptions} corrupted artifact(s) "
              f"in {elapsed:.2f} s")
        if pool is not None:
            print(f"pool: {pool.respawns} respawn(s), "
                  f"{pool.n_store_heals} store heal(s); "
                  f"breaker {breaker.state} after {breaker.n_trips} trip(s), "
                  f"{executor.n_failovers} failover(s)")
        shed_rate = {
            tenant: counters["shed"] / max(
                1, counters["admitted"] + counters["shed"]
            )
            for tenant, counters in sorted(stats.tenants.items())
        }
        print("per-tenant shed rate (hot pays first): "
              + ", ".join(f"{t}={r:.2f}" for t, r in shed_rate.items()))
        availability = (answered + shed) / len(queries)
        print(f"outcomes: {answered} answered (parity={parity}), "
              f"{shed} cleanly shed, {lost} lost -> "
              f"availability {availability:.3f}")


if __name__ == "__main__":
    main()
