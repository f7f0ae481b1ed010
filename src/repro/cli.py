"""Command-line experiment driver.

Run the paper's experiments without writing code::

    python -m repro.cli wifi            # Tables I/II style comparison
    python -m repro.cli ipin            # single-building results
    python -m repro.cli imu             # Table III style comparison
    python -m repro.cli energy          # §IV-C / §V-D accounting
    python -m repro.cli serve-bench     # every serving block -> BENCH_serve.json
    python -m repro.cli train-bench     # float32 fast path vs seed training loop
    python -m repro.cli snapshot --model noble --store models/   # fit + persist
    python -m repro.cli warm-serve --model noble --store models/ # restore + serve
    python -m repro.cli wifi --preset paper --csv trainingData.csv

``--preset fast`` (default) finishes in a couple of minutes on a laptop;
``--preset paper`` approaches the paper's scale; ``--preset smoke`` is a
seconds-scale schema check for the benches that emit JSON artifacts
(train-bench, serve-bench).

``serve-bench`` pushes the query stream through
:class:`repro.serving.ServingFrontend` — concurrent producer threads,
micro-batches drained on a latency deadline — sweeping deadline vs
throughput and asserting prediction parity with the synchronous path,
then runs the learned-embedding, chaos and streaming-session blocks,
and writes the ``BENCH_serve.json`` trajectory artifact.  With ``--store DIR`` it additionally measures the cold-start
vs warm-start restart leg through the persistent model store at ``DIR``.

``snapshot`` fits a registered backend on the serving workload and
persists it through :class:`repro.core.persistence.ModelStore`;
``warm-serve`` simulates the restarted process — it restores the fitted
model from the store (no re-fit) and serves the query stream through
the async front end.  Both commands derive the store key from the same
(backend, dataset fingerprint, hyperparameters) triple, so they find
each other's artifacts across processes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="NObLe reproduction experiment driver"
    )
    parser.add_argument(
        "experiment",
        choices=(
            "wifi", "ipin", "imu", "energy",
            "serve-bench", "train-bench", "snapshot",
            "warm-serve",
        ),
        help="which experiment to run",
    )
    parser.add_argument(
        "--preset", choices=("fast", "paper", "smoke"), default="fast",
        help="experiment scale (default: fast; smoke is for train-bench, "
             "serve-bench, snapshot and warm-serve)",
    )
    parser.add_argument(
        "--csv", default=None,
        help="path to a real UJIIndoorLoc CSV (wifi experiment only)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument(
        "--model", default="knn",
        help="registered serving estimator name "
             "(serve-bench, snapshot, warm-serve)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persistent model-store directory: enables the serve-bench "
             "cold-vs-warm restart leg, and is where snapshot "
             "writes / warm-serve reads fitted-model artifacts "
             "(snapshot and warm-serve default to ./model-store)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="query batch size (serve-bench and warm-serve; "
             "default: the preset's for serve-bench, else 64)",
    )
    parser.add_argument(
        "--deadlines", default=None,
        help="comma-separated flush deadlines in ms for the "
             "serve-bench sweep (default: the preset's, "
             "e.g. 5,20,50)",
    )
    parser.add_argument(
        "--producers", type=int, default=None,
        help="concurrent producer threads for serve-bench "
             "(default: the preset's)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where the JSON trajectory entry is written (default: "
             "BENCH_train.json for train-bench, BENCH_serve.json for "
             "serve-bench)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="override the asserted speedup floor (train-bench NObLe "
             "cold fit / serve-bench headline throughput; "
             "0 disables the assertion)",
    )
    parser.add_argument(
        "--models", default="noble,cnnloc",
        help="comma-separated train-bench models (noble, cnnloc)",
    )
    args = parser.parse_args(argv)

    smoke_capable = ("train-bench", "serve-bench", "snapshot", "warm-serve")
    if args.experiment not in smoke_capable and args.preset == "smoke":
        raise SystemExit(
            "--preset smoke is only supported by train-bench, "
            "serve-bench, snapshot, and warm-serve"
        )
    runner = {
        "wifi": run_wifi,
        "ipin": run_ipin,
        "imu": run_imu,
        "energy": run_energy,
        "serve-bench": run_serve_bench,
        "train-bench": run_train_bench,
        "snapshot": run_snapshot,
        "warm-serve": run_warm_serve,
    }[args.experiment]
    runner(args)
    return 0


def run_wifi(args) -> None:
    from repro.core.config import WifiExperimentConfig
    from repro.data import generate_uji_like, load_uji_csv
    from repro.localization import (
        DeepRegressionProjection,
        DeepRegressionWifi,
        KNNFingerprinting,
        NObLeWifi,
        evaluate_localizer,
    )

    cfg = getattr(WifiExperimentConfig, args.preset)()
    seed = args.seed if args.seed is not None else cfg.seed
    if args.csv:
        print(f"loading {args.csv}")
        dataset = load_uji_csv(args.csv)
    else:
        dataset = generate_uji_like(
            n_spots_per_building=cfg.n_spots_per_building,
            measurements_per_spot=cfg.measurements_per_spot,
            n_aps_per_floor=cfg.n_aps_per_floor,
            seed=seed,
        )
    train, test = dataset.split(
        (1.0 - cfg.test_fraction, cfg.test_fraction), rng=seed + 1
    )
    print(f"{len(train)} train / {len(test)} test, {dataset.n_aps} WAPs\n")

    common = dict(
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
        val_fraction=0.0, seed=seed,
    )
    models = [
        ("NObLe", NObLeWifi(tau=cfg.tau, coarse=cfg.coarse,
                            adjacency_weight=cfg.adjacency_weight, **common)),
        ("Deep Regression", DeepRegressionWifi(**common)),
        ("Regression Projection", DeepRegressionProjection(**common)),
        ("kNN fingerprinting", KNNFingerprinting(k=3)),
    ]
    print("model                          mean(m)  median(m)  on-map")
    for name, model in models:
        model.fit(train)
        report = evaluate_localizer(name, model, test)
        print(report.row())


def run_ipin(args) -> None:
    from repro.data import generate_ipin_like
    from repro.localization import (
        DeepRegressionWifi,
        NObLeWifi,
        evaluate_localizer,
    )

    seed = args.seed if args.seed is not None else 13
    scale = dict(fast=(40, 6, 16), paper=(90, 12, 28))[args.preset]
    n_spots, per_spot, n_aps = scale
    dataset = generate_ipin_like(
        n_spots=n_spots, measurements_per_spot=per_spot, n_aps=n_aps, seed=seed
    )
    train, test = dataset.split((0.8, 0.2), rng=seed + 1)
    print(f"{len(train)} train / {len(test)} test\n")
    common = dict(epochs=200, batch_size=32, val_fraction=0.0, seed=seed)
    print("model                          mean(m)  median(m)")
    for name, model in [
        ("NObLe", NObLeWifi(tau=0.2, coarse=3.0,
                            heads=("floor", "fine", "coarse"), **common)),
        ("Deep Regression", DeepRegressionWifi(**common)),
    ]:
        model.fit(train)
        print(evaluate_localizer(name, model, test).row())


def run_imu(args) -> None:
    from repro.core.config import IMUExperimentConfig
    from repro.data import CampusWalkSimulator, build_path_dataset
    from repro.data.imu import court_route_graph
    from repro.tracking import (
        DeadReckoningTracker,
        DeepRegressionTracker,
        MapCorrectedTracker,
        NObLeTracker,
        evaluate_tracker,
    )
    from repro.tracking.distance_ml import MLDistanceTracker

    if args.preset == "paper":
        cfg = IMUExperimentConfig.paper()
    else:
        cfg = IMUExperimentConfig(
            references_per_walk=30, samples_per_segment=256, n_paths=2000,
            max_path_length=12, downsample=32, epochs=250, lr=3e-3,
        )
    seed = args.seed if args.seed is not None else cfg.seed
    print("recording walks ...")
    simulator = CampusWalkSimulator(samples_per_segment=cfg.samples_per_segment)
    walks = simulator.record_session(
        n_walks=cfg.n_walks, references_per_walk=cfg.references_per_walk,
        rng=seed,
    )
    data = build_path_dataset(
        walks, n_paths=cfg.n_paths, max_length=cfg.max_path_length,
        downsample=cfg.downsample, rng=seed + 1,
    )
    print(f"{len(data)} paths\n")

    raw = np.vstack([w.segments for w in walks])
    headings = np.concatenate([w.headings for w in walks])
    corners = court_route_graph().nodes

    print("training NObLe ...")
    noble = NObLeTracker(
        tau=cfg.tau, epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
        patience=60, seed=seed,
    ).fit(data)
    print("training Deep Regression ...")
    regression = DeepRegressionTracker(
        epochs=cfg.epochs, lr=cfg.lr, batch_size=cfg.batch_size,
        patience=60, seed=seed,
    ).fit(data)
    print("training random-forest distance model ([8]-style ML) ...")
    forest = MLDistanceTracker(
        model="forest", downsample=cfg.downsample, seed=seed
    )
    forest.fit_walks(walks)
    forest.fit(data)

    trackers = [
        ("NObLe", noble),
        ("Deep Regression", regression),
        ("RF distance ([8]-style)", forest),
        ("PDR", DeadReckoningTracker(raw, "pdr", initial_headings=headings).fit(data)),
        ("Raw integration",
         DeadReckoningTracker(raw, "integration", initial_headings=headings).fit(data)),
        ("Map heuristic ([8]-style)",
         MapCorrectedTracker(raw, corners, initial_headings=headings).fit(data)),
    ]
    print("\nmodel                          mean(m)  median(m)")
    for name, tracker in trackers:
        print(evaluate_tracker(name, tracker, data).row())


def run_serve_bench(args) -> None:
    """Benchmark the serving tier and write ``BENCH_serve.json``.

    Sweeps flush deadline vs throughput through
    :class:`repro.serving.ServingFrontend` with concurrent producer
    threads, asserts per-leg prediction parity against the synchronous
    path and a minimum headline speedup over naive per-query serving,
    then runs every serving block of :func:`repro.bench.run_serve_bench`
    — the learned-embedding kNN, the chaos storm and the streaming
    sessions — prints the report, and writes the
    perf-trajectory artifact (schema-validated before writing).
    """
    import json

    from repro.bench import run_serve_bench as bench, validate_bench_payload
    from repro.serving import get

    get(args.model)  # fail fast on a typo'd name, before dataset generation
    seed = args.seed if args.seed is not None else 42
    deadlines = None
    if args.deadlines is not None:
        try:
            deadlines = tuple(
                float(d) for d in args.deadlines.split(",") if d.strip()
            )
        except ValueError:
            raise SystemExit(
                f"serve-bench: --deadlines must be comma-separated numbers, "
                f"got {args.deadlines!r}"
            ) from None
    try:
        result = bench(
            preset=args.preset,
            seed=seed,
            model=args.model,
            batch_size=args.batch_size,
            deadlines_ms=deadlines,
            producers=args.producers,
            min_speedup=args.min_speedup,
            store_dir=args.store,
        )
    except (ValueError, AssertionError) as error:
        raise SystemExit(f"serve-bench: {error}") from None
    print(result.report())
    payload = result.payload()
    validate_bench_payload(payload)
    output = args.output if args.output is not None else "BENCH_serve.json"
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {output}")


def _store_cache_and_workload(args):
    """(cache, train, queries, fingerprint) for snapshot / warm-serve.

    Both commands rebuild the deterministic serving workload for the
    chosen preset + seed so the dataset fingerprint — and with it the
    store key — matches across processes, then speak to the store
    through a :class:`repro.serving.ModelCache` spill tier.
    """
    from repro.bench.serve import serve_workload
    from repro.core.persistence import ModelStore
    from repro.serving import ModelCache, dataset_fingerprint, get

    get(args.model)  # fail fast on a typo'd name
    seed = args.seed if args.seed is not None else 42
    _config, train, queries = serve_workload(args.preset, seed)
    store = ModelStore(args.store if args.store is not None else "model-store")
    cache = ModelCache(capacity=2, store=store)
    return cache, train, queries, dataset_fingerprint(train)


def run_snapshot(args) -> None:
    """Fit a serving backend and persist it to the model store.

    Idempotent: if the store already holds an artifact for this
    (backend, workload fingerprint, hyperparameters) triple, the model
    is restored instead of re-fitted and the command reports so.
    """
    import time

    from repro.serving import params_key

    cache, train, _queries, fingerprint = _store_cache_and_workload(args)
    print(
        f"radio map: {len(train)} fingerprints x {train.n_aps} WAPs "
        f"(fingerprint {fingerprint[:12]}…), model={args.model!r}"
    )
    tic = time.perf_counter()
    estimator = cache.get_or_fit(args.model, train, fingerprint=fingerprint)
    elapsed = time.perf_counter() - tic
    stats = cache.stats()
    path = cache.store.path_for(
        args.model, fingerprint, params_key(estimator.params)
    )
    import os

    if not os.path.exists(path):
        # the cache degrades spill failures to a warning so serving can
        # continue, but snapshot's whole job is producing the artifact
        raise SystemExit(
            f"snapshot: the model was fitted but no artifact could be "
            f"written to {cache.store.directory!r} (see the warning "
            "above); fix the store directory and re-run"
        )
    size_kib = os.path.getsize(path) / 1024
    verb = "restored existing snapshot" if stats.disk_hits else "fitted + spilled"
    print(f"{verb} in {elapsed:.2f} s")
    print(f"artifact: {path} ({size_kib:.0f} KiB)")
    print(f"warm-serve it with: python -m repro.cli warm-serve "
          f"--model {args.model} --preset {args.preset} "
          f"--store {cache.store.directory}")


def run_warm_serve(args) -> None:
    """Restore a snapshotted model from the store and serve with it.

    The restarted-process half of the deployment story: no training
    happens when the artifact is present — the model is loaded from
    disk (a ``disk_hit``) and immediately serves the query stream
    through the deadline-driven async front end.  Without an artifact
    the command cold-fits, spills, and says so.
    """
    import time

    from repro.serving import ServingFrontend

    cache, train, queries, fingerprint = _store_cache_and_workload(args)
    tic = time.perf_counter()
    estimator = cache.get_or_fit(args.model, train, fingerprint=fingerprint)
    restore = time.perf_counter() - tic
    stats = cache.stats()
    if stats.disk_hits:
        print(f"warm start: restored {args.model!r} from the store in "
              f"{restore * 1e3:.1f} ms (no re-fit)")
    else:
        import os

        from repro.serving import params_key

        spilled = os.path.exists(
            cache.store.path_for(
                args.model, fingerprint, params_key(estimator.params)
            )
        )
        outcome = (
            "fitted + spilled (the next warm-serve restores it)"
            if spilled
            else "fitted, but the artifact could not be written — the "
                 "next warm-serve will fit again (see the warning above)"
        )
        print(f"cold start: no usable artifact in "
              f"{cache.store.directory!r}; {outcome}; "
              f"fit took {restore:.2f} s")

    batch_size = args.batch_size if args.batch_size is not None else 64
    tic = time.perf_counter()
    with ServingFrontend(
        estimator, batch_size=batch_size, deadline_ms=50.0
    ) as frontend:
        tickets = [frontend.submit(q) for q in queries]
        coordinates = np.vstack(
            [t.result().coordinates for t in tickets]
        )
    elapsed = time.perf_counter() - tic
    fe_stats = frontend.stats()
    print(
        f"served {len(coordinates)} queries in {elapsed:.3f} s "
        f"({len(coordinates) / elapsed:.0f} req/s, "
        f"{fe_stats.batches} batches, "
        f"mean fill {fe_stats.mean_batch_fill:.1f}/{batch_size})"
    )


def run_train_bench(args) -> None:
    """Benchmark the float32 fused training fast path vs the seed loop.

    Trains NObLe (and CNNLoc) through the seed-equivalent float64
    reference configuration and the fused float32 fast path on one
    seeded workload, asserts coordinate-error parity and the minimum
    cold-fit speedup, prints the comparison, and writes the
    ``BENCH_train.json`` perf-trajectory artifact (schema-validated
    before writing).
    """
    import json

    from repro.bench import run_train_bench as bench, validate_bench_payload

    seed = args.seed if args.seed is not None else 42
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    try:
        result = bench(
            preset=args.preset,
            seed=seed,
            models=models,
            min_speedup=args.min_speedup,
        )
    except (ValueError, AssertionError) as error:
        raise SystemExit(f"train-bench: {error}") from None
    print(result.report())
    payload = result.payload()
    validate_bench_payload(payload)
    output = args.output if args.output is not None else "BENCH_train.json"
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {output}")


def run_energy(args) -> None:
    from repro.energy import (
        GPS_FIX_ENERGY_J,
        JETSON_TX2,
        estimate_inference,
        gps_energy_ratio,
    )
    from repro.nn import BatchNorm1d, Linear, Sequential, Tanh
    from repro.tracking.network import TrackerNetwork

    wifi = Sequential(
        Linear(520, 128, rng=0), BatchNorm1d(128), Tanh(),
        Linear(128, 128, rng=0), BatchNorm1d(128), Tanh(),
        Linear(128, 1000, rng=0),
    )
    report = estimate_inference(wifi, "wifi")
    print(f"profile: {JETSON_TX2.name}")
    print(f"wifi inference : {report.inference_energy_j * 1000:.3f} mJ, "
          f"{report.inference_latency_s * 1000:.2f} ms (paper: 5.18 mJ / 2 ms)")
    tracker = TrackerNetwork(
        max_len=50, feature_dim=288, start_dim=180, head_dim=178, rng=0
    )
    imu = estimate_inference(tracker, "imu", sensing_window_s=8.0)
    print(f"imu total      : {imu.total_energy_j:.5f} J "
          f"(paper: 0.22159 J); GPS/system = {gps_energy_ratio(imu):.1f}x "
          f"(paper ~27x); GPS fix = {GPS_FIX_ENERGY_J} J")


if __name__ == "__main__":
    sys.exit(main())
