"""Chaos serving: overload, slow batches and store rot against the front end.

The resilience walkthrough, end to end:

1. fit a kNN estimator through a :class:`repro.serving.ModelCache`
   backed by a :class:`repro.serving.ModelStore` (the fit is written
   through to disk);
2. wrap it in a seeded :class:`repro.serving.DelayedEstimator`, so a
   fraction of batches serve slowly without changing any answer;
3. front it with a :class:`repro.serving.ServingFrontend` running
   :class:`repro.serving.FairShedAdmission`, so an overloaded queue
   sheds the *hottest* tenant first instead of whoever arrived last;
4. push a 10x-hot tenant through the bounded queue while a seeded
   :class:`repro.serving.FaultInjector` corrupts the stored snapshot,
   then tally what the client actually observed: answered (with
   parity), cleanly shed, lost;
5. restart: a fresh cache over the same store quarantines the rotten
   artifact, re-fits, and writes a healthy one back.

The punchline: **availability stays at 1.0** — every refusal is an
explicit :class:`repro.serving.ShedError`, never a hang, and every
answer matches the model's synchronous prediction.

Run:  python examples/chaos_serve.py

The serving benchmark runs a floor-asserted version of the overload
burst as its resilience block (``make serve-bench`` for the committed
scale)::

    make serve-bench-smoke
"""

import tempfile
import time
import warnings

import numpy as np

from repro.data import generate_uji_like
from repro.serving import (
    DelayedEstimator,
    FairShedAdmission,
    FaultInjector,
    ModelCache,
    ModelStore,
    ServingFrontend,
    ShedError,
)


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
        estimator = ModelCache(capacity=2, store=store).get_or_fit(
            "knn", train, k=3
        )
        oracle = estimator.predict_batch(queries).coordinates

        # -- 2 + 3. slow batches behind a fair-shedding bounded queue
        delayed = DelayedEstimator(estimator, rate=0.2, delay_s=0.01, seed=7)
        frontend = ServingFrontend(
            delayed, batch_size=16, deadline_ms=5.0,
            max_pending=32, admission=FairShedAdmission(),
        )

        # -- 4. the storm: a 10x-hot tenant, and the snapshot rots mid-load
        injector = FaultInjector(seed=7)
        tickets = []
        t0 = time.perf_counter()
        for i, row in enumerate(queries):
            if i == len(queries) // 2:
                injector.corrupt_store_artifact(store)
            if i % 16 == 0:
                time.sleep(0.002)  # bursts of 16, faster than the drain
            tenant = "hot" if i % 13 < 10 else f"light{i % 3}"
            try:
                tickets.append((i, frontend.submit(row, tenant=tenant)))
            except ShedError:
                tickets.append((i, None))
        frontend.close(drain=True)
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
        print(f"storm: {delayed.n_delays} slow batch(es), "
              f"{injector.store_corruptions} corrupted artifact(s) "
              f"in {elapsed:.2f} s")
        shed_rate = {
            tenant: pane.shed / max(1, pane.admitted + pane.shed)
            for tenant, pane in sorted(stats.tenants.items())
        }
        print("per-tenant shed rate (hot pays first): "
              + ", ".join(f"{t}={r:.2f}" for t, r in shed_rate.items()))
        availability = (answered + shed) / len(queries)
        print(f"outcomes: {answered} answered (parity={parity}), "
              f"{shed} cleanly shed, {lost} lost -> "
              f"availability {availability:.3f}")

        # -- 5. restart over the rotten store: quarantine, re-fit, heal
        restarted = ModelCache(capacity=2, store=store)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            healed = restarted.get_or_fit("knn", train, k=3)
        quarantined = sum("quarantin" in str(w.message) for w in caught)
        same = np.array_equal(healed.predict_batch(queries).coordinates, oracle)
        print(f"restart: {quarantined} artifact(s) quarantined, re-fit "
              f"with parity={same}; the store holds "
              f"{len(store.paths())} healthy artifact(s) again")


if __name__ == "__main__":
    main()
