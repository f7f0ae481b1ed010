"""The serve-bench async engine: deadline-vs-throughput trajectory.

Benchmarks the :class:`repro.serving.ServingFrontend` against naive
per-query serving on the repo's synthetic UJIIndoorLoc workload.  For
each deadline in the sweep, N producer threads hammer the front end
with single-scan submissions; the engine measures end-to-end wall time
(first submit to last resolved ticket), asserts **prediction parity**
against the synchronous ``predict_batch`` oracle on every leg, asserts
a minimum throughput speedup over the per-query baseline at the
headline deadline, and emits the ``BENCH_serve.json`` payload (schema
:data:`SERVE_BENCH_SCHEMA`, validated by
:func:`repro.bench.validate_bench_payload`).

Run it via ``python -m repro.cli serve-bench`` or ``make serve-bench``;
``make serve-bench-smoke`` exercises a tiny workload and
schema-validates the artifact as part of ``make check``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Identifier (and version) of the emitted JSON payload.  Version 2
#: added the optional ``store`` block (cold-fit vs warm-restart leg
#: through the persistent model store); version 3 added the mandatory
#: ``workers`` block (thread front end vs process-backed shard
#: workers); version 4 added the mandatory ``quant`` block (uint8
#: radio-map scan vs the monolithic float32 brute scan, with req/s,
#: recall-at-k, and bytes-per-fingerprint floors); version 5 added the
#: mandatory ``resilience`` block (chaos harness: availability under
#: injected faults, per-tenant shed fairness, with floors on
#: availability, hung requests, and answered-request parity); version 6
#: added the mandatory ``sessions`` block (streaming trajectory
#: serving: concurrent tracks/sec through stateful per-user
#: TrackingSessions micro-batched across users per time step, bitwise
#: trajectory parity vs the offline single-session oracle, and a
#: checkpoint/restart recovery leg with a zero-lost-tracks floor);
#: version 7 added the mandatory ``embed`` block (learned-embedding
#: ``embed-knn`` serving vs raw-RSSI kNN on the same map, with req/s,
#: position-error-ratio, and matched-recall floors); version 8 removed
#: the ``workers`` block with the process tier it measured, and the
#: ``resilience`` block became an overload burst plus slow batches
#: through the in-process front end (no worker, pool, breaker or
#: executor counters).
SERVE_BENCH_SCHEMA = "repro-serve-bench/8"

#: Schema-tag prefix shared by every serve-bench payload version; the
#: validator dispatcher routes on it and rejects unknown versions.
SERVE_BENCH_SCHEMA_PREFIX = "repro-serve-bench/"

#: Keys every async leg record must carry, with their types.
_LEG_FIELDS = {
    "deadline_ms": float,
    "seconds": float,
    "requests_per_second": float,
    "n_batches": int,
    "mean_batch_fill": float,
    "n_timeouts": int,
    "mean_latency_ms": float,
    "p95_latency_ms": float,
    "parity_ok": bool,
    "speedup_vs_naive": float,
}


class ServeParityError(AssertionError):
    """Async predictions diverged from the synchronous oracle."""


class ServeSpeedupError(AssertionError):
    """Async throughput fell below the asserted floor over per-query."""


@dataclass
class ServePreset:
    """One workload scale for the serving benchmark."""

    name: str
    n_spots_per_building: int
    measurements_per_spot: int
    n_aps_per_floor: int
    n_queries: int
    batch_size: int
    producers: int
    deadlines_ms: "tuple[float, ...]"
    #: The deadline whose throughput is asserted against ``min_speedup``
    #: and reported as the headline (the ISSUE's 50 ms budget).
    headline_deadline_ms: float
    min_speedup: float
    max_pending: int
    #: Runs per leg (naive and each deadline); the reported run is the
    #: MEDIAN by elapsed time.  A median resists one-off scheduler
    #: bursts in either direction — min-of-N would let a single lucky
    #: baseline run poison the asserted speedup ratio on a noisy
    #: shared machine.
    repeats: int = 1
    #: Floor asserted on cold-fit / warm-restore for the ``--store`` leg
    #: (the persistent model store's warm-start contract); 0 disables —
    #: the smoke workload's cold fit is too small for a stable ratio.
    store_min_speedup: float = 10.0
    #: Radio map synthesized for the ``quant`` block, as
    #: ``generate_uji_like`` scale knobs — sized independently of the
    #: async workload because the quantization claim is about scans
    #: over *large* maps (the fast/paper presets use a ~200k-point
    #: map; the smoke preset a tiny schema-validation map).
    quant_spots_per_building: int = 550
    quant_measurements_per_spot: int = 121
    quant_aps_per_floor: int = 4
    quant_queries: int = 256
    quant_k: int = 10
    quant_bins: int = 256
    #: Shortlist factor for the ADC scan + exact-rerank two-stage plan;
    #: 2 already recovers full recall on the UJI-like map while keeping
    #: the scan's top-k merge cheap (the library default of 4 trades a
    #: little throughput for headroom on harder geometries).
    quant_refine: int = 2
    #: Floor asserted on the quantized scan's req/s over the monolithic
    #: float32 brute scan it replaced; 0 disables (smoke maps are too
    #: small for a stable ratio).
    quant_min_speedup: float = 1.5
    #: Floor asserted on top-k recall of the refined uint8 scan against
    #: the full-precision oracle neighbor sets; 0 disables.
    quant_min_recall: float = 0.99
    #: Ceiling asserted on quantized-vs-float32 scan-state bytes per
    #: fingerprint (uint8 codes are exactly 1/4 of float32); 0 disables.
    quant_max_bytes_ratio: float = 0.25
    #: Radio map synthesized for the ``embed`` block (schema v7) —
    #: sized independently of the async workload because the
    #: learned-embedding claim is about *noisy, many-WAP* maps (heavy
    #: shadowing + per-device RSSI offsets), where raw Euclidean
    #: distances degrade and a coordinate-supervised embedding both
    #: denoises the neighbor structure and shrinks the scan from the
    #: raw WAP count to ``embed_components`` dims.
    embed_spots_per_building: int = 250
    embed_measurements_per_spot: int = 20
    embed_aps_per_floor: int = 10
    embed_shadowing_sigma: float = 8.0
    embed_device_offset_sigma: float = 6.0
    embed_queries: int = 1024
    embed_k: int = 10
    #: Embedder kind served by the ``embed-knn`` leg, its shape, and
    #: its training budget (forwarded as ``embed_params``).
    embed_embedder: str = "mlp"
    embed_components: int = 32
    embed_hidden: "tuple[int, ...]" = (128, 64)
    embed_epochs: int = 60
    embed_pretrain_epochs: int = 5
    #: Bins for the embed leg's quantized index — the served config is
    #: the full composed pipeline (embed → bin → scan), which is what
    #: the ``transform=`` seam ships; 0 serves the float index.
    embed_bins: int = 256
    #: A query "recalls" its location when at least one returned
    #: neighbor lies within this radius of the true position — the
    #: neighbor-quality yardstick both legs are scored on (a learned
    #: embedding trades exact-duplicate retrieval for geographically
    #: tighter neighbors, so index recall would be the wrong metric).
    embed_recall_radius_m: float = 10.0
    #: Floor asserted on embed-knn req/s over raw-RSSI kNN serving the
    #: same held-out queries; 0 disables (smoke maps are too small for
    #: a stable ratio).
    embed_min_speedup: float = 1.2
    #: Ceiling asserted on embed-knn position error relative to raw
    #: kNN's (1.0 = "no worse than raw RSSI"); 0 disables.
    embed_max_error_ratio: float = 1.0
    #: Floor asserted on embed-knn location-recall@k relative to raw
    #: kNN's, so the speedup headline is measured at matched neighbor
    #: quality rather than bought with a degraded scan; 0 disables.
    embed_min_recall_ratio: float = 0.95
    #: Chaos-harness knobs for the ``resilience`` block.  The chaos
    #: workload is sized independently of the throughput sweeps — it
    #: validates *outcome accounting* under overload and slow batches
    #: (every request answered correctly, cleanly shed, or loudly
    #: failed), not speed, so every preset shares seconds-scale defaults.
    chaos_queries: int = 480
    #: Queue bound for the overload sub-phase; small enough that the
    #: single-threaded submission burst forces real shedding.
    chaos_max_pending: int = 32
    #: Seeded fraction of batches served slowly (latency pressure
    #: without changing any prediction) and the stall length.
    chaos_delay_rate: float = 0.05
    chaos_delay_s: float = 0.01
    #: Floor asserted on (answered-correct + cleanly-shed) / submitted
    #: across the whole chaos run; 0 disables.
    chaos_min_availability: float = 0.99
    #: Streaming trajectory-serving workload for the ``sessions`` block
    #: (schema v6): concurrent per-user :class:`TrackingSession`\ s
    #: micro-batched *across users per time step* behind the threaded
    #: front end.  Sized independently of the point-query sweeps — the
    #: claim is stateful-workload parity + recovery, not raw scale.
    track_users: int = 24
    track_ticks: int = 10
    #: IMU samples per served segment (one tick = one segment).
    track_samples_per_segment: int = 96
    track_batch: int = 16
    track_producers: int = 4
    #: Batching deadline for the session front end; short, because a
    #: tracking tick is an elementwise stream update, not a kNN scan.
    track_deadline_ms: float = 5.0
    #: Floor asserted on concurrent session-ticks/sec through the
    #: threaded front end; 0 disables (smoke workloads are too small
    #: for a stable rate).
    track_min_tracks_per_s: float = 50.0


PRESETS = {
    # Schema/plumbing validation in seconds: far too small for a stable
    # throughput ratio, so none is asserted.
    "smoke": ServePreset(
        name="smoke",
        n_spots_per_building=10,
        measurements_per_spot=4,
        n_aps_per_floor=6,
        n_queries=160,
        batch_size=16,
        producers=4,
        deadlines_ms=(50.0,),
        headline_deadline_ms=50.0,
        min_speedup=0.0,
        max_pending=64,
        store_min_speedup=0.0,
        quant_spots_per_building=20,
        quant_measurements_per_spot=10,
        quant_aps_per_floor=3,
        quant_queries=64,
        quant_min_speedup=0.0,
        embed_spots_per_building=12,
        embed_measurements_per_spot=6,
        embed_aps_per_floor=3,
        embed_queries=48,
        embed_components=8,
        embed_hidden=(32,),
        embed_epochs=4,
        embed_pretrain_epochs=2,
        embed_bins=16,
        embed_min_speedup=0.0,
        embed_max_error_ratio=0.0,
        embed_min_recall_ratio=0.0,
        track_users=6,
        track_ticks=4,
        track_samples_per_segment=64,
        track_batch=8,
        track_producers=2,
        track_min_tracks_per_s=0.0,
    ),
    # The PR 1 serve-bench workload, now pushed through the async path.
    "fast": ServePreset(
        name="fast",
        n_spots_per_building=48,
        measurements_per_spot=10,
        n_aps_per_floor=10,
        n_queries=4000,
        batch_size=64,
        producers=4,
        deadlines_ms=(5.0, 20.0, 50.0),
        headline_deadline_ms=50.0,
        min_speedup=5.0,
        max_pending=1024,
        repeats=3,
    ),
    "paper": ServePreset(
        name="paper",
        n_spots_per_building=170,
        measurements_per_spot=20,
        n_aps_per_floor=18,
        n_queries=4000,
        batch_size=64,
        producers=16,
        deadlines_ms=(5.0, 20.0, 50.0),
        headline_deadline_ms=50.0,
        min_speedup=5.0,
        max_pending=4096,
        repeats=3,
        track_users=48,
        track_producers=8,
    ),
}


@dataclass
class ServeBenchResult:
    """Everything ``run_serve_bench`` measured, ready for JSON or print."""

    preset: str
    seed: int
    min_speedup: float
    workload: dict
    naive: dict = field(default_factory=dict)
    legs: "list[dict]" = field(default_factory=list)
    #: Cold-fit vs warm-restore comparison through the persistent model
    #: store (``--store``); None when the leg was not requested.
    store: "dict | None" = None
    #: Quantized uint8 radio-map scan vs the monolithic float32 brute
    #: scan (schema v4; always present in emitted payloads).
    quant: dict = field(default_factory=dict)
    #: Learned-embedding ``embed-knn`` serving vs raw-RSSI kNN on the
    #: same map (schema v7; always present in emitted payloads).
    embed: dict = field(default_factory=dict)
    #: Chaos harness: availability and shed fairness under overload and
    #: slow batches (schema v5; always present).
    resilience: dict = field(default_factory=dict)
    #: Streaming trajectory serving: concurrent tracks/sec, bitwise
    #: parity vs the offline single-session oracle, and the
    #: checkpoint/restart recovery leg (schema v6; always present).
    sessions: dict = field(default_factory=dict)

    @property
    def headline(self) -> dict:
        deadline = self.workload["headline_deadline_ms"]
        leg = next(
            (l for l in self.legs if l["deadline_ms"] == deadline), None
        )
        return {
            "deadline_ms": deadline,
            "async_speedup": None if leg is None else leg["speedup_vs_naive"],
            "min_speedup_asserted": self.min_speedup,
        }

    def payload(self) -> dict:
        """The ``BENCH_serve.json`` dictionary (a detached deep copy)."""
        import copy

        payload = {
            "schema": SERVE_BENCH_SCHEMA,
            "preset": self.preset,
            "seed": self.seed,
            "workload": dict(self.workload),
            "naive": dict(self.naive),
            "async": copy.deepcopy(self.legs),
            "headline": dict(self.headline),
            "quant": copy.deepcopy(self.quant),
            "embed": copy.deepcopy(self.embed),
            "resilience": copy.deepcopy(self.resilience),
            "sessions": copy.deepcopy(self.sessions),
        }
        if self.store is not None:
            payload["store"] = dict(self.store)
        return payload

    def report(self) -> str:
        w = self.workload
        lines = [
            f"serve-bench preset={self.preset} seed={self.seed} "
            f"({w['n_train']} fingerprints x {w['n_aps']} WAPs, "
            f"{w['n_queries']} queries, model={w['model']!r}, "
            f"batch={w['batch_size']}, {w['producers']} producers)",
            "",
            f"per-query baseline : {self.naive['seconds']:8.3f} s "
            f"({self.naive['requests_per_second']:9.0f} req/s)",
            "",
            "  deadline(ms)   time(s)      req/s   batches   fill   "
            "lat~mean/p95(ms)   speedup",
        ]
        for leg in self.legs:
            lines.append(
                f"  {leg['deadline_ms']:10.1f} {leg['seconds']:9.3f} "
                f"{leg['requests_per_second']:10.0f} {leg['n_batches']:9d} "
                f"{leg['mean_batch_fill']:6.1f}   "
                f"{leg['mean_latency_ms']:7.1f}/{leg['p95_latency_ms']:-7.1f}   "
                f"{leg['speedup_vs_naive']:6.1f}x"
            )
        head = self.headline
        lines.append(
            f"\nheadline: {head['async_speedup']:.1f}x over per-query at a "
            f"{head['deadline_ms']:.0f} ms deadline "
            f"(floor {head['min_speedup_asserted']:.1f}x); "
            "per-leg prediction parity asserted vs the synchronous oracle"
        )
        if self.store is not None:
            s = self.store
            lines.append(
                f"store: {s['backend']!r} cold fit "
                f"{s['cold_fit_seconds'] * 1e3:.0f} ms vs warm restore "
                f"{s['warm_restore_seconds'] * 1e3:.1f} ms — "
                f"{s['speedup']:.0f}x restart speedup "
                f"(floor {s['min_speedup_asserted']:.1f}x), "
                "prediction parity asserted vs the in-memory model"
            )
        if self.quant:
            q = self.quant
            head = q["headline"]
            lines.append(
                f"\nquant: {q['n_points']} x {q['n_aps']} map, "
                f"{q['n_bins']} bins, k={q['k']}, refine={q['refine']}"
            )
            lines.append(
                f"  float32 scan: {q['baseline']['seconds']:7.3f} s "
                f"({q['baseline']['requests_per_second']:7.0f} req/s, "
                f"{q['baseline']['bytes_per_fingerprint']:.0f} B/fp)"
            )
            lines.append(
                f"  uint8 scan  : {q['quant']['seconds']:7.3f} s "
                f"({q['quant']['requests_per_second']:7.0f} req/s, "
                f"{q['quant']['bytes_per_fingerprint']:.0f} B/fp)"
            )
            lines.append(
                f"  headline: {head['speedup_vs_float32']:.2f}x req/s "
                f"(floor {head['min_speedup_asserted']:.1f}x"
                + ("" if head["floor_enforced"] else ", not enforced")
                + f"), recall@k {head['recall_at_k']:.4f} "
                f"(floor {head['min_recall_asserted']:.2f}), "
                f"{head['bytes_ratio']:.2f}x scan bytes "
                f"(ceiling {head['max_bytes_ratio_asserted']:.2f}x); "
                f"position error {q['quant_error_m']:.2f} m vs oracle "
                f"{q['oracle_error_m']:.2f} m "
                f"(delta {q['error_delta_m']:+.3f} m)"
            )
        if self.embed:
            e = self.embed
            head = e["headline"]
            lines.append(
                f"\nembed: {e['n_points']} x {e['n_aps']} map -> "
                f"{e['n_components']}-dim {e['embedder']!r} embedding, "
                f"k={e['k']}, {e['n_queries']} queries"
            )
            for label, leg in (("raw kNN ", e["raw"]), ("embed-knn", e["embed"])):
                lines.append(
                    f"  {label}: {leg['seconds']:7.3f} s "
                    f"({leg['requests_per_second']:7.0f} req/s, "
                    f"error {leg['error_m']:.2f} m, "
                    f"recall@k {leg['recall_at_k']:.3f}, "
                    f"fit {leg['fit_seconds']:.1f} s)"
                )
            lines.append(
                f"  headline: {head['speedup_vs_raw']:.2f}x req/s over raw "
                f"kNN (floor {head['min_speedup_asserted']:.1f}x"
                + ("" if head["floor_enforced"] else ", not enforced")
                + f"), error ratio {head['error_ratio_vs_raw']:.3f} "
                f"(ceiling {head['max_error_ratio_asserted']:.2f}), "
                f"recall ratio {head['recall_ratio_vs_raw']:.3f} "
                f"(floor {head['min_recall_ratio_asserted']:.2f})"
            )
        if self.resilience:
            r = self.resilience
            f, o = r["faults"], r["outcomes"]
            lines.append(
                f"\nresilience: {r['queries']} chaos queries through the "
                f"front end (max_pending={r['max_pending']})"
            )
            lines.append(f"  faults  : delayed_batches={f['delayed_batches']}")
            lines.append(
                f"  outcomes: answered={o['answered']} shed={o['shed']} "
                f"failed={o['failed']} hung={o['hung']}"
            )
            head = r["headline"]
            lines.append(
                f"  headline: availability {head['availability']:.4f} "
                f"(floor {head['min_availability_asserted']:.2f}"
                + ("" if head["floor_enforced"] else ", not enforced")
                + f"), parity on all answered requests "
                f"{'ok' if head['parity_ok'] else 'FAILED'}, "
                f"hot-tenant shed rate {r['shed']['hot_rate']:.2f} vs "
                f"lightest {r['shed']['light_rate']:.2f} "
                f"(fairness {'ok' if head['fairness_ok'] else 'INVERTED'})"
            )
        if self.sessions:
            s = self.sessions
            t, p, rec = s["throughput"], s["parity"], s["recovery"]
            head = s["headline"]
            lines.append(
                f"\nsessions: {s['users']} concurrent {s['engine']!r} "
                f"tracks x {s['ticks_per_user']} ticks "
                f"({s['samples_per_segment']} samples/segment, "
                f"batch={s['batch_size']}, {s['producers']} producers)"
            )
            lines.append(
                f"  throughput: {t['seconds']:7.3f} s "
                f"({t['tracks_per_second']:8.0f} ticks/s across sessions, "
                f"{t['n_batches']} batches, fill {t['mean_batch_fill']:.1f})"
            )
            lines.append(
                f"  parity    : served RMSE {p['served_rmse_m']:.2f} m vs "
                f"oracle {p['oracle_rmse_m']:.2f} m "
                f"(delta {p['rmse_delta_m']:.1f} m, "
                f"max |delta| {p['max_abs_delta_m']:.1f} m)"
            )
            lines.append(
                f"  recovery  : {rec['checkpointed']} checkpointed, "
                f"{rec['restored']} restored after restart, "
                f"{rec['lost_tracks']} lost; resumed parity "
                f"{'ok' if rec['resumed_parity_ok'] else 'FAILED'}"
            )
            lines.append(
                f"  headline: {head['tracks_per_second']:.0f} ticks/s over "
                f"{head['concurrent_sessions']} sessions "
                f"(floor {head['min_tracks_per_second_asserted']:.0f}"
                + ("" if head["floor_enforced"] else ", not enforced")
                + f"), RMSE delta {head['rmse_delta_m']:.1f} m vs the "
                f"offline oracle, {head['lost_tracks']} lost tracks"
            )
        return "\n".join(lines)


def _async_leg(
    estimator,
    queries: np.ndarray,
    oracle_xy: np.ndarray,
    deadline_ms: float,
    preset: ServePreset,
    batch_size: int,
    producers: int,
) -> dict:
    """One deadline sweep point, median-of-``preset.repeats`` runs.

    Every run hammers a fresh front end and checks parity; the reported
    record is the run with the median elapsed time (scheduler-noise
    shielding — see :class:`ServePreset`), counters included.
    """
    runs = [
        _async_run(
            estimator, queries, oracle_xy, deadline_ms, preset, batch_size,
            producers,
        )
        for _ in range(max(preset.repeats, 1))
    ]
    runs.sort(key=lambda leg: leg["seconds"])
    return runs[len(runs) // 2]


def _async_run(
    estimator,
    queries: np.ndarray,
    oracle_xy: np.ndarray,
    deadline_ms: float,
    preset: ServePreset,
    batch_size: int,
    producers: int,
) -> dict:
    """One measured pass: producer threads through a fresh front end."""
    from repro.serving import ServingFrontend

    frontend = ServingFrontend(
        estimator,
        batch_size=batch_size,
        deadline_ms=deadline_ms,
        max_pending=preset.max_pending,
    )
    tickets: "list" = [None] * len(queries)
    errors: "list[BaseException]" = []

    def producer(lane: int) -> None:
        try:
            for i in range(lane, len(queries), producers):
                tickets[i] = frontend.submit(queries[i])
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=producer, args=(lane,), daemon=True)
        for lane in range(producers)
    ]
    tic = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    frontend.close(drain=True)
    if errors:
        raise errors[0]  # before the gather, which would mask this
    coordinates = np.vstack([t.result().coordinates for t in tickets])
    elapsed = time.perf_counter() - tic

    parity_ok = bool(
        np.allclose(coordinates, oracle_xy, rtol=0.0, atol=1e-9)
    )
    if not parity_ok:
        worst = float(np.abs(coordinates - oracle_xy).max())
        raise ServeParityError(
            f"async predictions diverge from the synchronous oracle at "
            f"deadline {deadline_ms} ms (max |Δ| {worst:.3e} m)"
        )
    stats = frontend.stats()
    latencies = np.array([t.latency_s for t in tickets]) * 1e3
    return {
        "deadline_ms": float(deadline_ms),
        "seconds": float(elapsed),
        "requests_per_second": float(len(queries) / elapsed),
        "n_batches": int(stats.batches),
        "mean_batch_fill": float(stats.mean_batch_fill),
        "n_timeouts": int(stats.timeouts),
        "mean_latency_ms": float(latencies.mean()),
        "p95_latency_ms": float(np.percentile(latencies, 95)),
        "parity_ok": parity_ok,
    }


def serve_workload(
    preset: str, seed: int = 42
) -> "tuple[ServePreset, object, np.ndarray]":
    """(preset config, training radio map, query matrix) for one preset.

    The single definition of the serving workload, shared by the bench
    and the ``snapshot``/``warm-serve`` CLI commands — both sides must
    synthesize byte-identical datasets so the dataset fingerprint (and
    with it every cache/store key) matches across processes.
    """
    from repro.data import generate_uji_like

    try:
        config = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; choices: {sorted(PRESETS)}"
        ) from None
    dataset = generate_uji_like(
        n_spots_per_building=config.n_spots_per_building,
        measurements_per_spot=config.measurements_per_spot,
        n_aps_per_floor=config.n_aps_per_floor,
        seed=seed,
    )
    train, test = dataset.split((0.8, 0.2), rng=seed + 1)
    rng = np.random.default_rng(seed + 2)
    queries = test.rssi[rng.integers(0, len(test), size=config.n_queries)]
    return config, train, queries


#: Backend measured by the ``--store`` restart leg: the paper's model,
#: whose seconds-scale cold fit is exactly what warm-starting amortizes.
STORE_LEG_MODEL = "noble"


def _store_leg(
    train,
    queries: np.ndarray,
    store_dir: "str | os.PathLike",
    min_speedup: float,
) -> dict:
    """Cold-start vs warm-start restart comparison through the store.

    Fits the ``noble`` backend through a store-backed
    :class:`~repro.serving.ModelCache` (write-through), then simulates a
    process restart with a *fresh* cache over the same store: the second
    ``get_or_fit`` must resolve from disk (``disk_hits == 1``), produce
    bit-identical predictions, and restore at least ``min_speedup``
    times faster than the cold fit.
    """
    from repro.core.persistence import ModelStore
    from repro.serving import ModelCache, create, dataset_fingerprint, params_key

    store = ModelStore(store_dir)
    # a previous bench run may have left this key's artifact behind —
    # drop it so the cold leg measures a real fit, not a disk restore
    stale = store.path_for(
        STORE_LEG_MODEL,
        dataset_fingerprint(train),
        params_key(create(STORE_LEG_MODEL).params),
    )
    if os.path.exists(stale):
        os.unlink(stale)
    cold_cache = ModelCache(capacity=2, store=store)
    tic = time.perf_counter()
    fitted = cold_cache.get_or_fit(STORE_LEG_MODEL, train)
    cold_seconds = time.perf_counter() - tic
    if cold_cache.stats().misses != 1:
        raise AssertionError(
            "store leg: the cold-start cache did not actually fit "
            f"(stats: {cold_cache.stats()})"
        )
    oracle_xy = fitted.predict_batch(queries).coordinates

    warm_cache = ModelCache(capacity=2, store=store)  # simulated restart
    tic = time.perf_counter()
    restored = warm_cache.get_or_fit(STORE_LEG_MODEL, train)
    warm_seconds = time.perf_counter() - tic
    if warm_cache.stats().disk_hits != 1:
        raise AssertionError(
            "store leg: the restarted cache re-fit instead of restoring "
            f"from the store (stats: {warm_cache.stats()})"
        )
    restored_xy = restored.predict_batch(queries).coordinates
    parity_ok = bool(np.array_equal(restored_xy, oracle_xy))
    if not parity_ok:
        worst = float(np.abs(restored_xy - oracle_xy).max())
        raise ServeParityError(
            f"restored model predictions diverge from the in-memory fit "
            f"(max |Δ| {worst:.3e} m)"
        )
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    if min_speedup > 0 and speedup < min_speedup:
        raise ServeSpeedupError(
            f"warm restore is only {speedup:.1f}x faster than the cold "
            f"fit, below the asserted minimum {min_speedup:.1f}x"
        )
    return {
        "backend": STORE_LEG_MODEL,
        "cold_fit_seconds": float(cold_seconds),
        "warm_restore_seconds": float(warm_seconds),
        "speedup": float(speedup),
        "parity_ok": parity_ok,
        "min_speedup_asserted": float(min_speedup),
    }


def _median_seconds(fn, repeats: int) -> "tuple[float, object]":
    """Median elapsed seconds of ``repeats`` calls, plus one result."""
    times, result = [], None
    for _ in range(max(int(repeats), 1)):
        tic = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - tic)
    return sorted(times)[len(times) // 2], result


def _monolithic_float32_scan(
    points32: np.ndarray, sq_norms: np.ndarray, queries32: np.ndarray, k: int
) -> np.ndarray:
    """The pre-chunking serving scan this PR's kernel replaced.

    Materializes full ``(block, N)`` float32 distance matrices exactly
    like the old monolithic ``_brute_query`` did, so the quant block's
    baseline measures the code path the uint8 + cache-blocked scan is
    claimed to beat — not a strawman.
    """
    block = max(1, int(2e7) // max(len(points32), 1))
    out = np.empty((len(queries32), k), dtype=int)
    for start in range(0, len(queries32), block):
        q = queries32[start : start + block]
        d2 = (
            np.sum(q**2, axis=1)[:, None]
            - 2.0 * q @ points32.T
            + sq_norms
        )
        part = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
        pd = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(pd, axis=1, kind="stable")
        out[start : start + len(q)] = np.take_along_axis(part, order, axis=1)
    return out


def _quant_block(config: ServePreset, seed: int, min_speedup: float) -> dict:
    """Quantized uint8 radio-map scan vs the monolithic float32 scan.

    Synthesizes a UJI-like map at the preset's quant scale, then
    measures batched top-k queries through two scans of the *same*
    normalized-signal radio map:

    - **baseline** — the monolithic float32 brute scan serving used
      before the cache-blocked kernel landed
      (:func:`_monolithic_float32_scan`);
    - **quant** — a binned :class:`~repro.sharding.ShardedKNNIndex`
      whose scan state is uint8 codes (1/4 the float32 bytes), queried
      through the ADC shortlist + exact-rerank two-stage plan.

    Asserts three floors: req/s speedup over the baseline (enforced
    only when ``min_speedup > 0`` — the smoke map is too small for a
    stable ratio), top-k recall against the full-precision oracle
    neighbor sets, and the quant/float32 scan-state bytes ratio.  Also
    reports the end metric that actually matters for localization:
    inverse-distance-weighted position error of the quantized neighbors
    vs the oracle's, on the same queries.
    """
    from repro.data import generate_uji_like
    from repro.manifold.chunked import chunked_argkmin
    from repro.quantization import FeatureBinner
    from repro.sharding import ShardedKNNIndex

    dataset = generate_uji_like(
        n_spots_per_building=config.quant_spots_per_building,
        measurements_per_spot=config.quant_measurements_per_spot,
        n_aps_per_floor=config.quant_aps_per_floor,
        seed=seed + 3,
    )
    points = dataset.normalized_signals()
    coords = dataset.coordinates
    k = min(int(config.quant_k), len(points))
    rng = np.random.default_rng(seed + 4)
    source_rows = rng.integers(0, len(points), size=int(config.quant_queries))
    # plausible online scans: stored fingerprints re-observed with ~1 dB
    # of measurement jitter (0.01 in normalized signal units)
    queries = points[source_rows] + rng.normal(
        0.0, 0.01, size=(len(source_rows), points.shape[1])
    )
    points32 = np.ascontiguousarray(points, dtype=np.float32)
    queries32 = queries.astype(np.float32)
    sq32 = np.sum(points32**2, axis=1)

    binner = FeatureBinner(
        n_bins=config.quant_bins, strategy="uniform"
    ).fit(points)
    tic = time.perf_counter()
    index = ShardedKNNIndex(
        points,
        n_shards=1,
        partitioner="chunk",
        binner=binner,
        refine=config.quant_refine,
    )
    build_seconds = time.perf_counter() - tic

    # full-precision oracle: exact float64 top-k (recall + error anchor)
    oracle_d, oracle_i = chunked_argkmin(queries, points, k)

    baseline_seconds, baseline_i = _median_seconds(
        lambda: _monolithic_float32_scan(points32, sq32, queries32, k),
        config.repeats,
    )
    quant_seconds, quant_top = _median_seconds(
        lambda: index.query(queries32, k=k), config.repeats
    )
    quant_d, quant_i = quant_top

    recall = float(
        np.mean(
            [
                len(set(quant_i[i]) & set(oracle_i[i])) / k
                for i in range(len(oracle_i))
            ]
        )
    )

    def _idw_error(distances: np.ndarray, indices: np.ndarray) -> float:
        weights = 1.0 / (distances + 1e-12)
        weights /= weights.sum(axis=1, keepdims=True)
        estimate = np.sum(coords[indices] * weights[:, :, None], axis=1)
        truth = coords[source_rows]
        return float(np.mean(np.linalg.norm(estimate - truth, axis=1)))

    oracle_error = _idw_error(oracle_d, oracle_i)
    quant_error = _idw_error(quant_d, quant_i)

    n_aps = points.shape[1]
    baseline_bytes = float(points32.itemsize * n_aps)
    quant_bytes = float(index.shards_[0].codes.itemsize * n_aps)
    bytes_ratio = quant_bytes / baseline_bytes
    speedup = (len(queries) / quant_seconds) / (
        len(queries) / baseline_seconds
    )

    floor_enforced = min_speedup > 0
    if floor_enforced and speedup < min_speedup:
        raise ServeSpeedupError(
            f"quantized scan is only {speedup:.2f}x the monolithic "
            f"float32 scan on the {len(points)}-point map, below the "
            f"asserted minimum {min_speedup:.2f}x"
        )
    if config.quant_min_recall > 0 and recall < config.quant_min_recall:
        raise ServeParityError(
            f"quantized scan recall@{k} is {recall:.4f} against the "
            f"full-precision oracle, below the asserted minimum "
            f"{config.quant_min_recall:.2f}"
        )
    if (
        config.quant_max_bytes_ratio > 0
        and bytes_ratio > config.quant_max_bytes_ratio
    ):
        raise ServeSpeedupError(
            f"quantized scan state is {bytes_ratio:.2f}x the float32 "
            f"bytes per fingerprint, above the asserted ceiling "
            f"{config.quant_max_bytes_ratio:.2f}x"
        )
    return {
        "n_points": int(len(points)),
        "n_aps": int(n_aps),
        "n_queries": int(len(queries)),
        "k": int(k),
        "n_bins": int(config.quant_bins),
        "refine": int(index.refine),
        "build_seconds": float(build_seconds),
        "baseline": {
            "seconds": float(baseline_seconds),
            "requests_per_second": float(len(queries) / baseline_seconds),
            "bytes_per_fingerprint": baseline_bytes,
        },
        "quant": {
            "seconds": float(quant_seconds),
            "requests_per_second": float(len(queries) / quant_seconds),
            "bytes_per_fingerprint": quant_bytes,
        },
        "recall_at_k": recall,
        "oracle_error_m": oracle_error,
        "quant_error_m": quant_error,
        "error_delta_m": float(quant_error - oracle_error),
        "headline": {
            "speedup_vs_float32": float(speedup),
            "min_speedup_asserted": float(min_speedup),
            "recall_at_k": recall,
            "min_recall_asserted": float(config.quant_min_recall),
            "bytes_ratio": float(bytes_ratio),
            "max_bytes_ratio_asserted": float(config.quant_max_bytes_ratio),
            "floor_enforced": floor_enforced,
        },
    }


def _embed_block(config: ServePreset, seed: int, min_speedup: float) -> dict:
    """Learned-embedding ``embed-knn`` serving vs raw-RSSI kNN.

    Synthesizes a *noisy* UJI-like map at the preset's embed scale
    (heavy shadowing + per-device RSSI offsets — the regime §III-C's
    learned feature space is for), fits the registry ``knn`` and
    ``embed-knn`` backends on the same training split, and serves the
    same held-out queries through both ``predict_batch`` hot paths.
    The embed leg serves the full composed feature-space pipeline the
    ``transform=`` seam ships — learned encoder, then the quantized
    index over the ``embed_components``-dim points — so the claim is
    double-ended and both ends carry floors: req/s at least
    ``min_speedup``x raw kNN (enforced only when ``min_speedup > 0`` —
    the smoke map is too small for a stable ratio) at matched neighbor
    quality (location-recall@k within ``embed_min_recall_ratio`` of
    raw, so the speedup is not bought with a degraded scan), and
    inverse-distance-weighted position error no worse than
    ``embed_max_error_ratio`` times raw kNN's.
    """
    from repro.data import generate_uji_like
    from repro.serving.registry import create

    dataset = generate_uji_like(
        n_spots_per_building=config.embed_spots_per_building,
        measurements_per_spot=config.embed_measurements_per_spot,
        n_aps_per_floor=config.embed_aps_per_floor,
        shadowing_sigma=config.embed_shadowing_sigma,
        device_offset_sigma=config.embed_device_offset_sigma,
        seed=seed + 5,
    )
    train, test = dataset.split((0.8, 0.2), rng=seed + 6)
    k = min(int(config.embed_k), len(train))
    rng = np.random.default_rng(seed + 7)
    rows = rng.integers(0, len(test), size=int(config.embed_queries))
    queries = test.rssi[rows]
    truth = test.coordinates[rows]
    radius = float(config.embed_recall_radius_m)

    embed_params = {
        "n_components": int(config.embed_components),
        "epochs": int(config.embed_epochs),
        "seed": seed,
    }
    if config.embed_embedder == "mlp":
        embed_params["hidden"] = tuple(config.embed_hidden)
        embed_params["pretrain_epochs"] = int(config.embed_pretrain_epochs)

    def _leg(name: str, **params) -> dict:
        estimator = create(name, **params)
        tic = time.perf_counter()
        estimator.fit(train)
        fit_seconds = time.perf_counter() - tic
        seconds, prediction = _median_seconds(
            lambda: estimator.predict_batch(queries), config.repeats
        )
        error = float(
            np.mean(
                np.linalg.norm(prediction.coordinates - truth, axis=1)
            )
        )
        # location recall@k — did any returned neighbor land within the
        # recall radius of the true position?  Each backend scans its
        # own feature space, so they are compared on the neighbor
        # quality that actually matters for localization.
        model = estimator.model_
        _, indices = model.index_.query(
            model._signals(estimator._as_dataset(queries)), k=k
        )
        neighbor_dist = np.linalg.norm(
            train.coordinates[indices] - truth[:, None, :], axis=2
        )
        recall = float(np.mean(np.any(neighbor_dist <= radius, axis=1)))
        return {
            "fit_seconds": float(fit_seconds),
            "seconds": float(seconds),
            "requests_per_second": float(len(queries) / seconds),
            "error_m": error,
            "recall_at_k": recall,
        }

    raw = _leg("knn", k=k, weighted=True)
    embed = _leg(
        "embed-knn",
        k=k,
        weighted=True,
        embedder=config.embed_embedder,
        embed_params=embed_params,
        quantize_bins=(
            int(config.embed_bins) if config.embed_bins > 0 else None
        ),
    )

    speedup = embed["requests_per_second"] / raw["requests_per_second"]
    error_ratio = (
        embed["error_m"] / raw["error_m"] if raw["error_m"] > 0 else 0.0
    )
    recall_ratio = (
        embed["recall_at_k"] / raw["recall_at_k"]
        if raw["recall_at_k"] > 0
        else 1.0
    )
    floor_enforced = min_speedup > 0
    if floor_enforced and speedup < min_speedup:
        raise ServeSpeedupError(
            f"embed-knn serves only {speedup:.2f}x the raw-RSSI kNN "
            f"req/s on the {len(train)}-point map, below the asserted "
            f"minimum {min_speedup:.2f}x"
        )
    if (
        config.embed_max_error_ratio > 0
        and error_ratio > config.embed_max_error_ratio
    ):
        raise ServeParityError(
            f"embed-knn position error is {error_ratio:.3f}x raw kNN's "
            f"({embed['error_m']:.2f} m vs {raw['error_m']:.2f} m), above "
            f"the asserted ceiling {config.embed_max_error_ratio:.2f}x"
        )
    if (
        config.embed_min_recall_ratio > 0
        and recall_ratio < config.embed_min_recall_ratio
    ):
        raise ServeParityError(
            f"embed-knn location-recall@{k} is {recall_ratio:.3f}x raw "
            f"kNN's ({embed['recall_at_k']:.3f} vs "
            f"{raw['recall_at_k']:.3f}), below the asserted floor "
            f"{config.embed_min_recall_ratio:.2f}x — the speedup would "
            "not be at matched recall"
        )
    return {
        "n_points": int(len(train)),
        "n_aps": int(train.n_aps),
        "n_queries": int(len(queries)),
        "k": int(k),
        "embedder": str(config.embed_embedder),
        "n_components": int(config.embed_components),
        "n_bins": int(config.embed_bins),
        "recall_radius_m": radius,
        "raw": raw,
        "embed": embed,
        "headline": {
            "speedup_vs_raw": float(speedup),
            "min_speedup_asserted": float(min_speedup),
            "error_ratio_vs_raw": float(error_ratio),
            "max_error_ratio_asserted": float(config.embed_max_error_ratio),
            "recall_ratio_vs_raw": float(recall_ratio),
            "min_recall_ratio_asserted": float(
                config.embed_min_recall_ratio
            ),
            "floor_enforced": floor_enforced,
        },
    }


#: Backend the chaos harness serves.
CHAOS_LEG_MODEL = "knn"


def _resilience_block(
    config: ServePreset,
    train,
    queries: np.ndarray,
    seed: int,
    min_availability: float,
) -> dict:
    """Chaos harness: the front end under overload and slow batches.

    Serves the preset's chaos workload through a front end armored with
    :class:`~repro.serving.resilience.FairShedAdmission` load shedding,
    whose batches run through a seeded
    :class:`~repro.serving.faults.DelayedEstimator` that slows a
    fraction of them without changing any prediction.

    The load is one single-threaded submission burst of the chaos
    queries against a small ``chaos_max_pending`` bound, with a hot
    tenant offering ~10x each light tenant's load — weighted-fair
    shedding makes the hot tenant absorb the evictions — followed by a
    draining ``close``.

    Every submitted request must end answered-with-parity or cleanly
    shed: raises :class:`ServeParityError` on any hung ticket or
    oracle divergence and :class:`ServeSpeedupError` when availability
    falls below ``min_availability``.
    """
    from repro.serving.faults import DelayedEstimator
    from repro.serving.frontend import ServingFrontend, ShedError
    from repro.serving.registry import create
    from repro.serving.resilience import FairShedAdmission

    rng = np.random.default_rng(seed + 7)
    n_queries = int(config.chaos_queries)
    chaos_q = queries[rng.integers(0, len(queries), size=n_queries)]
    # hot tenant offers 10 of every 13 requests; three light tenants
    # share the rest — the fairness claim is that *they* stay admitted
    tenant_of = [
        "hot" if i % 13 < 10 else f"light{i % 3}" for i in range(n_queries)
    ]
    estimator = create(CHAOS_LEG_MODEL).fit(train)
    oracle_xy = estimator.predict_batch(chaos_q).coordinates
    delayed = DelayedEstimator(
        estimator,
        rate=config.chaos_delay_rate,
        delay_s=config.chaos_delay_s,
        seed=seed,
    )
    frontend = ServingFrontend(
        delayed,
        batch_size=config.batch_size,
        deadline_ms=10.0,
        max_pending=config.chaos_max_pending,
        admission=FairShedAdmission(),
    )

    outcomes = {"answered": 0, "shed": 0, "failed": 0, "hung": 0}
    tickets: "list[tuple[int, object]]" = []
    for i in range(n_queries):
        try:
            tickets.append((i, frontend.submit(chaos_q[i], tenant=tenant_of[i])))
        except ShedError:
            outcomes["shed"] += 1
    frontend.close(drain=True)

    mismatches = 0
    for i, ticket in tickets:
        if not ticket.done:
            outcomes["hung"] += 1
            continue
        try:
            xy = ticket.result().coordinates[0]
        except ShedError:  # evicted by fair shedding after admission
            outcomes["shed"] += 1
        except Exception:
            outcomes["failed"] += 1
        else:
            outcomes["answered"] += 1
            if not np.allclose(xy, oracle_xy[i], rtol=0.0, atol=1e-9):
                mismatches += 1

    stats = frontend.stats()
    shed_rates = {}
    for tenant, pane in sorted(stats.tenants.items()):
        total = pane.admitted + pane.shed
        shed_rates[tenant] = float(pane.shed) / total if total else 0.0
    hot_rate = shed_rates.get("hot", 0.0)
    light_rates = [
        rate for tenant, rate in shed_rates.items() if tenant != "hot"
    ]
    light_rate = min(light_rates) if light_rates else 0.0
    fairness_ok = all(rate <= hot_rate + 1e-9 for rate in light_rates)

    availability = (
        outcomes["answered"] - mismatches + outcomes["shed"]
    ) / max(n_queries, 1)
    parity_ok = mismatches == 0
    if outcomes["hung"]:
        raise ServeParityError(
            f"{outcomes['hung']} chaos requests never resolved (hung "
            "tickets after drain-close)"
        )
    if not parity_ok:
        raise ServeParityError(
            f"{mismatches} answered chaos requests diverge from the "
            "synchronous oracle"
        )
    if min_availability > 0 and availability < min_availability:
        raise ServeSpeedupError(
            f"availability under injected faults is {availability:.4f}, "
            f"below the asserted minimum {min_availability:.2f} "
            f"(failed={outcomes['failed']}, shed={outcomes['shed']})"
        )
    return {
        "model": CHAOS_LEG_MODEL,
        "queries": int(n_queries),
        "max_pending": int(config.chaos_max_pending),
        "faults": {"delayed_batches": int(delayed.n_delays)},
        "outcomes": dict(outcomes),
        "availability": float(availability),
        "parity_ok": parity_ok,
        "shed": {
            "rates": shed_rates,
            "hot_rate": float(hot_rate),
            "light_rate": float(light_rate),
            "fairness_ok": bool(fairness_ok),
        },
        "headline": {
            "availability": float(availability),
            "min_availability_asserted": float(min_availability),
            "hung": int(outcomes["hung"]),
            "failed": int(outcomes["failed"]),
            "parity_ok": parity_ok,
            "fairness_ok": bool(fairness_ok),
            "floor_enforced": bool(min_availability > 0),
        },
    }


def _sessions_block(
    config: ServePreset,
    seed: int,
    min_tracks_per_s: float,
) -> dict:
    """Streaming trajectory serving: stateful sessions, three legs.

    Serves ``track_users`` concurrent dead-reckoning tracks (one
    :class:`~repro.serving.sessions.TrackingSession` per user, IMU
    segments arriving tick by tick) through the threaded
    :class:`~repro.serving.sessions.TrackingFrontend`, which
    micro-batches *across users per time step*.  The PDR engine is pure
    elementwise float64, so the parity contract is exact, not
    approximate:

    1. **throughput** — ``track_producers`` threads drive disjoint
       user groups through one front end; the headline is total
       session-ticks/sec across all concurrent tracks.
    2. **parity** — every served tick must equal the offline
       single-session oracle
       (:func:`~repro.serving.sessions.solo_trajectory`) *bitwise*;
       the reported RMSE delta must be exactly 0.0 m or
       :class:`ServeParityError` is raised.
    3. **recovery** — a second manager checkpoints every session
       through a :class:`~repro.core.persistence.ModelStore`, is
       dropped mid-workload without ``close()`` (the SIGKILL stand-in:
       no flush, only the periodic checkpoints survive), and a fresh
       manager must warm-restore **all** sessions and continue each
       trajectory to the same bitwise endpoint — zero lost tracks.

    Raises :class:`ServeSpeedupError` when ticks/sec falls below
    ``min_tracks_per_s`` (0 disables; smoke-scale workloads are too
    small for a stable rate).
    """
    import shutil
    import tempfile

    from repro.core.persistence import ModelStore
    from repro.data.imu import CampusWalkSimulator
    from repro.serving.sessions import (
        SessionManager,
        StreamingPDRTracker,
        TrackingFrontend,
        solo_trajectory,
    )

    users = int(config.track_users)
    ticks = int(config.track_ticks)
    producers = max(1, int(config.track_producers))
    sim = CampusWalkSimulator(
        samples_per_segment=int(config.track_samples_per_segment)
    )
    walk = sim.record_session(
        n_walks=1, references_per_walk=users + ticks + 1, rng=seed
    )[0]
    segments, refs, headings = walk.segments, walk.references, walk.headings
    engine = StreamingPDRTracker()
    # user u walks the route with a u-segment head start: distinct
    # per-user streams (so cross-session bleed cannot cancel out) from
    # one simulated session.
    streams = [
        [segments[u + k] for k in range(ticks)] for u in range(users)
    ]
    # ground truth: segment i ends at reference i + 1
    truth = np.stack(
        [[refs[u + k + 1] for k in range(ticks)] for u in range(users)]
    )

    # --- throughput + parity: producer threads, one threaded front end
    manager = SessionManager(engine, seed=seed)
    for u in range(users):
        manager.start_session(u, refs[u], float(headings[u]))
    frontend = TrackingFrontend(
        manager,
        batch_size=int(config.track_batch),
        deadline_ms=float(config.track_deadline_ms),
        max_pending=max(users * ticks, 1),
    )
    tickets: "list[list]" = [[] for _ in range(users)]
    groups = [list(range(users))[p::producers] for p in range(producers)]

    def produce(group: "list[int]") -> None:
        for k in range(ticks):
            for u in group:
                tickets[u].append(frontend.submit(u, imu=streams[u][k]))

    tic = time.perf_counter()
    threads = [
        threading.Thread(target=produce, args=(g,)) for g in groups if g
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    served = np.stack(
        [
            [ticket.result(60.0).coordinates[0] for ticket in user_tickets]
            for user_tickets in tickets
        ]
    )
    elapsed = time.perf_counter() - tic
    stats = frontend.stats()
    frontend.close()
    tracks_per_second = float(users * ticks / elapsed) if elapsed > 0 else 0.0

    oracle = np.stack(
        [
            solo_trajectory(
                engine,
                streams[u],
                refs[u],
                float(headings[u]),
                seed=manager.session_seed(u),
            )
            for u in range(users)
        ]
    )
    deltas = np.linalg.norm(served - oracle, axis=-1)
    max_abs_delta = float(deltas.max())
    rmse_delta = float(np.sqrt(np.mean(deltas**2)))
    served_rmse = float(
        np.sqrt(np.mean(np.linalg.norm(served - truth, axis=-1) ** 2))
    )
    oracle_rmse = float(
        np.sqrt(np.mean(np.linalg.norm(oracle - truth, axis=-1) ** 2))
    )
    parity_ok = bool(np.array_equal(served, oracle))
    if not parity_ok:
        raise ServeParityError(
            f"served session trajectories diverge from the offline "
            f"single-session oracle (RMSE delta {rmse_delta:.3e} m, "
            f"max {max_abs_delta:.3e} m)"
        )
    if min_tracks_per_s > 0 and tracks_per_second < min_tracks_per_s:
        raise ServeSpeedupError(
            f"concurrent session throughput {tracks_per_second:.0f} "
            f"ticks/s is below the asserted minimum "
            f"{min_tracks_per_s:.0f} ticks/s"
        )

    # --- recovery: checkpoint, simulated SIGKILL, warm restore
    store_root = tempfile.mkdtemp(prefix="repro-track-bench-")
    try:
        store = ModelStore(store_root)
        first = SessionManager(engine, store=store, seed=seed)
        for u in range(users):
            first.start_session(u, refs[u], float(headings[u]))
        split = max(1, ticks // 2)
        for k in range(split):
            first.step_batch([(u, streams[u][k]) for u in range(users)])
        first.checkpoint_all()
        checkpointed = first.stats().checkpoints
        # no close(): the manager is simply dropped, as a SIGKILL'd
        # process would be — recovery must come from the store alone
        resumed = SessionManager(engine, store=store, seed=seed)
        finals = None
        for k in range(split, ticks):
            finals = resumed.step_batch(
                [(u, streams[u][k]) for u in range(users)]
            )
        restored = int(resumed.stats().restored)
        lost_tracks = users - restored
        resumed_parity = finals is not None and bool(
            np.array_equal(np.asarray(finals), oracle[:, -1])
        )
        resumed.close()
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    if lost_tracks != 0 or not resumed_parity:
        raise ServeParityError(
            f"restart recovery lost {lost_tracks} of {users} checkpointed "
            f"sessions (restored={restored}, resumed parity "
            f"{'ok' if resumed_parity else 'FAILED'})"
        )

    return {
        "engine": engine.kind,
        "users": users,
        "ticks_per_user": ticks,
        "samples_per_segment": int(config.track_samples_per_segment),
        "batch_size": int(config.track_batch),
        "producers": producers,
        "deadline_ms": float(config.track_deadline_ms),
        "throughput": {
            "seconds": float(elapsed),
            "tracks_per_second": tracks_per_second,
            "n_batches": int(stats.batches),
            "mean_batch_fill": float(stats.mean_batch_fill),
        },
        "parity": {
            "max_abs_delta_m": max_abs_delta,
            "rmse_delta_m": rmse_delta,
            "served_rmse_m": served_rmse,
            "oracle_rmse_m": oracle_rmse,
            "parity_ok": parity_ok,
        },
        "recovery": {
            "checkpointed": int(checkpointed),
            "restored": restored,
            "lost_tracks": int(lost_tracks),
            "resumed_parity_ok": resumed_parity,
        },
        "headline": {
            "tracks_per_second": tracks_per_second,
            "concurrent_sessions": users,
            "min_tracks_per_second_asserted": float(min_tracks_per_s),
            "rmse_delta_m": rmse_delta,
            "lost_tracks": int(lost_tracks),
            "parity_ok": parity_ok,
            "floor_enforced": bool(min_tracks_per_s > 0),
        },
    }


def run_serve_bench(
    preset: str = "fast",
    seed: int = 42,
    model: str = "knn",
    batch_size: "int | None" = None,
    deadlines_ms: "tuple[float, ...] | None" = None,
    producers: "int | None" = None,
    min_speedup: "float | None" = None,
    store_dir: "str | os.PathLike | None" = None,
    store_min_speedup: "float | None" = None,
    quant_min_speedup: "float | None" = None,
    embed_min_speedup: "float | None" = None,
    chaos_min_availability: "float | None" = None,
    track_min_tracks_per_s: "float | None" = None,
    **model_params,
) -> ServeBenchResult:
    """Benchmark async serving and assert parity + headline speedup.

    Raises :class:`ServeParityError` when any leg's predictions diverge
    from the synchronous oracle and :class:`ServeSpeedupError` when the
    headline-deadline throughput falls below ``min_speedup`` times the
    per-query baseline (preset default; pass 0 to disable).  With
    ``store_dir``, an additional restart leg measures cold fit vs warm
    restore of the ``noble`` backend through a
    :class:`repro.core.persistence.ModelStore` at that directory,
    asserting prediction parity and a ``store_min_speedup`` floor
    (preset default 10x).  The ``quant`` block (schema v4) always runs:
    it benchmarks the uint8 radio-map scan against the monolithic
    float32 brute scan on the preset's quant-scale map, asserting
    ``quant_min_speedup`` (preset default; 0 disables) plus the
    preset's recall and bytes-per-fingerprint floors.  The ``embed``
    block (schema v7) always runs too: it serves the same jittered
    queries through the raw-RSSI ``knn`` and learned-embedding
    ``embed-knn`` backends fitted on one map, asserting an
    ``embed_min_speedup`` req/s floor (preset default; 0 disables)
    at matched location-recall@k, plus the preset's position-error
    ceiling.  The ``resilience`` block (schema v5) always runs as well:
    a seeded overload burst with slow batches against the
    fair-shedding front end, asserting zero hung requests, parity on
    every answered request, and a ``chaos_min_availability`` floor
    (preset default; 0 disables).  The ``sessions`` block (schema v6) always runs last:
    streaming trajectory serving through stateful per-user
    TrackingSessions, asserting bitwise parity of every served tick
    against the offline single-session oracle (RMSE delta exactly
    0.0 m), zero lost tracks across a checkpoint/restart cycle, and a
    ``track_min_tracks_per_s`` concurrent-ticks/sec floor (preset
    default; 0 disables).  Extra keyword arguments are forwarded to
    the registered ``model``.
    """
    from repro.serving import ModelCache, get

    get(model)  # fail fast on a typo'd name, before dataset generation
    config, train, queries = serve_workload(preset, seed)
    if batch_size is None:
        batch_size = config.batch_size
    if producers is None:
        producers = config.producers
    if producers < 1:
        raise ValueError(f"producers must be >= 1, got {producers}")
    if deadlines_ms is None:
        deadlines_ms = config.deadlines_ms
    deadlines_ms = tuple(float(d) for d in deadlines_ms)
    if not deadlines_ms or any(d <= 0 for d in deadlines_ms):
        raise ValueError(f"deadlines must be positive, got {deadlines_ms}")
    if min_speedup is None:
        min_speedup = config.min_speedup
    # the speedup is asserted at the headline deadline; keep it in the sweep
    headline_deadline = (
        config.headline_deadline_ms
        if config.headline_deadline_ms in deadlines_ms
        else deadlines_ms[-1]
    )

    if store_min_speedup is None:
        store_min_speedup = config.store_min_speedup

    cache = ModelCache(capacity=4)
    tic = time.perf_counter()
    estimator = cache.get_or_fit(model, train, **model_params)
    fit_seconds = time.perf_counter() - tic

    # synchronous oracle for parity (one vectorized call)
    oracle_xy = estimator.predict_batch(queries).coordinates

    # naive per-query baseline, median-of-repeats like the async legs
    naive_times = []
    for _ in range(max(config.repeats, 1)):
        tic = time.perf_counter()
        naive_xy = np.vstack(
            [estimator.predict_batch(q[None, :]).coordinates for q in queries]
        )
        naive_times.append(time.perf_counter() - tic)
    naive_seconds = sorted(naive_times)[len(naive_times) // 2]
    if not np.allclose(naive_xy, oracle_xy, rtol=0.0, atol=1e-9):
        raise ServeParityError(
            "per-query predictions diverge from the batched oracle"
        )

    result = ServeBenchResult(
        preset=config.name,
        seed=seed,
        min_speedup=float(min_speedup),
        workload={
            "n_train": len(train),
            "n_queries": int(config.n_queries),
            "n_aps": int(train.n_aps),
            "model": model,
            "batch_size": int(batch_size),
            "producers": int(producers),
            "headline_deadline_ms": float(headline_deadline),
            "fit_seconds": float(fit_seconds),
        },
        naive={
            "seconds": float(naive_seconds),
            "requests_per_second": float(len(queries) / naive_seconds),
        },
    )
    for deadline in deadlines_ms:
        leg = _async_leg(
            estimator, queries, oracle_xy, deadline, config, batch_size, producers
        )
        leg["speedup_vs_naive"] = float(
            leg["requests_per_second"] / result.naive["requests_per_second"]
        )
        result.legs.append(leg)

    headline = result.headline["async_speedup"]
    if min_speedup > 0 and headline is not None and headline < min_speedup:
        raise ServeSpeedupError(
            f"async throughput speedup {headline:.2f}x at the "
            f"{headline_deadline:.0f} ms deadline is below the asserted "
            f"minimum {min_speedup:.2f}x"
        )
    if quant_min_speedup is None:
        quant_min_speedup = config.quant_min_speedup
    result.quant = _quant_block(config, seed, float(quant_min_speedup))
    if embed_min_speedup is None:
        embed_min_speedup = config.embed_min_speedup
    result.embed = _embed_block(config, seed, float(embed_min_speedup))
    if chaos_min_availability is None:
        chaos_min_availability = config.chaos_min_availability
    result.resilience = _resilience_block(
        config, train, queries, seed, float(chaos_min_availability)
    )
    if track_min_tracks_per_s is None:
        track_min_tracks_per_s = config.track_min_tracks_per_s
    result.sessions = _sessions_block(
        config, seed, float(track_min_tracks_per_s)
    )
    if store_dir is not None:
        result.store = _store_leg(
            train, queries, store_dir, float(store_min_speedup)
        )
    return result


def validate_serve_bench_payload(payload: dict) -> None:
    """Validate a ``BENCH_serve.json`` dictionary; raises ``ValueError``.

    Guards the persistent trajectory's shape and its recorded claims:
    schema tag, workload and naive-baseline blocks, at least one async
    leg with complete fields and parity, a headline block whose
    ``async_speedup`` clears a positive ``min_speedup_asserted``, the
    mandatory ``quant`` block (speedup floor whenever ``floor_enforced``, recall
    floor and bytes-ratio ceiling whenever positive), the mandatory
    ``embed`` block (speedup floor whenever ``floor_enforced``,
    error-ratio ceiling and recall-ratio floor whenever positive), the
    mandatory ``resilience`` block (no hung or dirty-failed requests,
    answered-request parity, availability floor whenever
    ``floor_enforced``), the mandatory ``sessions`` block (RMSE delta vs
    the offline oracle exactly 0.0 m, zero lost tracks, ticks/sec floor
    whenever ``floor_enforced``), and — when present — the ``store``
    restart leg (complete fields, parity, a positive asserted floor
    satisfied) — so ``make serve-bench-smoke`` and ``make
    check-bench-artifacts`` fail loudly when the emitted artifact drifts
    or a committed trajectory is hand-edited.  Problems are reported by
    dotted field path; numbers and ints reject bools.
    """
    problems: "list[str]" = []
    kinds = {int: "an int", float: "a number", str: "a string", bool: "a bool"}

    def _is(value, kind) -> bool:
        if kind in (int, float) and isinstance(value, bool):
            return False
        return isinstance(value, (int, float) if kind is float else kind)

    def child(parent: dict, path: str) -> "dict | None":
        """The dict at dotted ``path``'s last key in ``parent``, if any."""
        value = parent.get(path.rsplit(".", 1)[-1])
        if isinstance(value, dict):
            return value
        problems.append(f"{path} must be a dict")
        return None

    def typed(block: dict, path: str, kind, *keys: str) -> None:
        for key in keys:
            if not _is(block.get(key), kind):
                problems.append(f"{path}.{key} must be {kinds[kind]}")

    def require(block: dict, path: str, *keys: str) -> None:
        for key in keys:
            if key not in block:
                problems.append(f"{path} missing {key!r}")

    def is_true(block: dict, path: str, key: str, why: str = "") -> None:
        if block.get(key) is not True:
            problems.append(f"{path}.{key} is not True{why}")

    def is_zero(block: dict, path: str, key: str, why: str) -> None:
        if block.get(key) != 0:
            problems.append(f"{path}.{key} is {block.get(key)!r}, must be 0 {why}")

    def bound(head: dict, path: str, key: str, limit_key: str,
              ceiling: bool = False, enforced: bool = False) -> None:
        """``head[key]`` against its recorded limit ``head[limit_key]``.

        ``enforced`` limits apply when the block's ``floor_enforced`` is
        True, the others whenever the limit is positive.  An applied
        limit needs a numeric value; a recorded value is always numeric.
        """
        typed(head, path, float, limit_key)
        value, limit = head.get(key), head.get(limit_key)
        if enforced:
            applies = head.get("floor_enforced") is True
        else:
            applies = _is(limit, float) and limit > 0
        if value is None and not applies:
            return
        if not _is(value, float):
            problems.append(f"{path}.{key} must be a number")
        elif applies and _is(limit, float) and (
            value > limit if ceiling else value < limit
        ):
            side = "above the asserted ceiling" if ceiling else "below the asserted floor"
            problems.append(
                f"{path}.{key} {value} is {side} {limit} "
                "(stale or hand-edited artifact?)"
            )

    def headline(block: dict, path: str, *keys: str) -> "dict | None":
        head = child(block, f"{path}.headline")
        if head is not None:
            path = f"{path}.headline"
            require(head, path, *keys, "floor_enforced")
            typed(head, path, bool, "floor_enforced")
        return head

    def legs(items, path: str, fields: "dict[str, type]") -> list:
        if not isinstance(items, list) or not items:
            problems.append(f"{path} must be a non-empty list")
            return []
        for i, leg in enumerate(items):
            if not isinstance(leg, dict):
                problems.append(f"{path}[{i}] must be a dict")
                continue
            for key, kind in fields.items():
                typed(leg, f"{path}[{i}]", kind, key)
            is_true(leg, f"{path}[{i}]", "parity_ok")
        return items

    if payload.get("schema") != SERVE_BENCH_SCHEMA:
        problems.append(
            f"schema must be {SERVE_BENCH_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in (
        "preset", "seed", "workload", "naive", "async", "headline",
        "quant", "embed", "resilience", "sessions",
    ):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")

    workload = child(payload, "workload")
    if workload is not None:
        typed(workload, "workload", int,
              "n_train", "n_queries", "n_aps", "batch_size", "producers")
        typed(workload, "workload", str, "model")
    naive = child(payload, "naive")
    if naive is not None:
        typed(naive, "naive", float, "seconds", "requests_per_second")
    legs(payload.get("async"), "async", _LEG_FIELDS)
    head = child(payload, "headline")
    if head is not None:
        require(head, "headline",
                "deadline_ms", "async_speedup", "min_speedup_asserted")
        bound(head, "headline", "async_speedup", "min_speedup_asserted")

    quant = child(payload, "quant")
    if quant is not None:
        typed(quant, "quant", int,
              "n_points", "n_aps", "n_queries", "k", "n_bins", "refine")
        for side in ("baseline", "quant"):
            leg = child(quant, f"quant.{side}")
            if leg is not None:
                typed(leg, f"quant.{side}", float,
                      "seconds", "requests_per_second", "bytes_per_fingerprint")
        typed(quant, "quant", float,
              "recall_at_k", "oracle_error_m", "quant_error_m", "error_delta_m")
        qhead = headline(quant, "quant",
                         "speedup_vs_float32", "min_speedup_asserted",
                         "recall_at_k", "min_recall_asserted",
                         "bytes_ratio", "max_bytes_ratio_asserted")
        if qhead is not None:
            path = "quant.headline"
            bound(qhead, path, "speedup_vs_float32", "min_speedup_asserted",
                  enforced=True)
            bound(qhead, path, "recall_at_k", "min_recall_asserted")
            bound(qhead, path, "bytes_ratio", "max_bytes_ratio_asserted",
                  ceiling=True)

    embed = child(payload, "embed")
    if embed is not None:
        typed(embed, "embed", int,
              "n_points", "n_aps", "n_queries", "k", "n_components")
        typed(embed, "embed", str, "embedder")
        for side in ("raw", "embed"):
            leg = child(embed, f"embed.{side}")
            if leg is not None:
                typed(leg, f"embed.{side}", float, "fit_seconds", "seconds",
                      "requests_per_second", "error_m", "recall_at_k")
        ehead = headline(embed, "embed",
                         "speedup_vs_raw", "min_speedup_asserted",
                         "error_ratio_vs_raw", "max_error_ratio_asserted",
                         "recall_ratio_vs_raw", "min_recall_ratio_asserted")
        if ehead is not None:
            path = "embed.headline"
            bound(ehead, path, "speedup_vs_raw", "min_speedup_asserted",
                  enforced=True)
            bound(ehead, path, "error_ratio_vs_raw", "max_error_ratio_asserted",
                  ceiling=True)
            bound(ehead, path, "recall_ratio_vs_raw", "min_recall_ratio_asserted")

    resilience = child(payload, "resilience")
    if resilience is not None:
        typed(resilience, "resilience", int, "queries", "max_pending")
        typed(resilience, "resilience", float, "availability")
        faults = child(resilience, "resilience.faults")
        if faults is not None:
            typed(faults, "resilience.faults", int, "delayed_batches")
        outcomes = child(resilience, "resilience.outcomes")
        if outcomes is not None:
            typed(outcomes, "resilience.outcomes", int,
                  "answered", "shed", "failed", "hung")
        rhead = headline(resilience, "resilience",
                         "availability", "min_availability_asserted",
                         "hung", "failed", "parity_ok", "fairness_ok")
        if rhead is not None:
            path = "resilience.headline"
            is_true(rhead, path, "parity_ok",
                    " (answered chaos requests diverged from the oracle)")
            is_zero(rhead, path, "hung", "(requests were lost under faults)")
            is_zero(rhead, path, "failed",
                    "(requests failed dirty under faults)")
            bound(rhead, path, "availability", "min_availability_asserted",
                  enforced=True)

    sessions = child(payload, "sessions")
    if sessions is not None:
        typed(sessions, "sessions", str, "engine")
        typed(sessions, "sessions", int, "users", "ticks_per_user",
              "samples_per_segment", "batch_size", "producers")
        throughput = child(sessions, "sessions.throughput")
        if throughput is not None:
            typed(throughput, "sessions.throughput", float,
                  "seconds", "tracks_per_second", "mean_batch_fill")
            typed(throughput, "sessions.throughput", int, "n_batches")
        parity = child(sessions, "sessions.parity")
        if parity is not None:
            typed(parity, "sessions.parity", float, "max_abs_delta_m",
                  "rmse_delta_m", "served_rmse_m", "oracle_rmse_m")
            is_true(parity, "sessions.parity", "parity_ok")
        recovery = child(sessions, "sessions.recovery")
        if recovery is not None:
            typed(recovery, "sessions.recovery", int,
                  "checkpointed", "restored", "lost_tracks")
            is_true(recovery, "sessions.recovery", "resumed_parity_ok")
        shead = headline(sessions, "sessions",
                         "tracks_per_second", "concurrent_sessions",
                         "min_tracks_per_second_asserted", "rmse_delta_m",
                         "lost_tracks", "parity_ok")
        if shead is not None:
            path = "sessions.headline"
            is_true(shead, path, "parity_ok",
                    " (served trajectories diverged from the offline oracle)")
            rmse_delta = shead.get("rmse_delta_m")
            if not (_is(rmse_delta, float) and float(rmse_delta) == 0.0):
                problems.append(
                    f"{path}.rmse_delta_m is {rmse_delta!r}, must be exactly "
                    "0.0 (session parity is bitwise, not approximate)"
                )
            is_zero(shead, path, "lost_tracks",
                    "(sessions were lost across the restart leg)")
            bound(shead, path, "tracks_per_second",
                  "min_tracks_per_second_asserted", enforced=True)

    if payload.get("store") is not None:
        store = child(payload, "store")
        if store is not None:
            typed(store, "store", str, "backend")
            typed(store, "store", float, "cold_fit_seconds",
                  "warm_restore_seconds", "speedup", "min_speedup_asserted")
            is_true(store, "store", "parity_ok")
            bound(store, "store", "speedup", "min_speedup_asserted")
    if problems:
        raise ValueError("invalid BENCH_serve payload: " + "; ".join(problems))
