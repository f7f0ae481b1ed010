"""Serving benchmark: open-loop localization and tracking workloads.

Run from the repository root::

    python3 perfbench/run.py --workload wifi-noble --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run serves one workload against the program's default
configuration.  After an untimed warm-up it measures an open-loop phase
at the workload's nominal rate (latency and SLO metrics) and then a
saturated phase (throughput).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` installs outside-in spans at the layer
boundaries and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
its own process.  See ``perfbench/README.md`` for every definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Untimed open-loop warm-up at the nominal rate, then an untimed burst.
WARMUP_S = 1.5
WARM_BURST_S = 0.5
#: The timed part of a run alternates this many nominal-rate and
#: saturated rounds, so the shared machine's slow spells of a few
#: seconds fall on some rounds of each metric rather than on all of one.
#: A traced run keeps one nominal phase and alternates untraced and
#: traced saturated rounds.
ROUNDS = 4
#: A run whose generator fell behind schedule by more than this at p99
#: measured the generator, not the program: it is reported invalid.
MAX_GEN_LAG_P99_MS = 20.0

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "slo_ok_fraction": "fraction",
    "error_m": "m",
    "floor_accuracy": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from tracing import NN_LAYERS

    units = {
        "frontend.submit_us_p50": "us", "frontend.submit_us_p99": "us",
        "frontend.queue_wait_ms_p50": "ms", "frontend.queue_wait_ms_p99": "ms",
        "frontend.predict_ms_p99": "ms",
        "frontend.resolve_ms_p50": "ms", "frontend.resolve_ms_p99": "ms",
        "frontend.batches": "count", "frontend.batch_fill_mean": "rows",
        "frontend.worker_busy_fraction": "fraction",
        "frontend.shed": "count", "frontend.timeouts": "count",
        "batcher.self_ms_p50": "ms",
        "registry.predict_batch_ms_p50": "ms", "registry.predict_batch_ms_p99": "ms",
        "registry.rows_per_call_mean": "rows",
        "knn.query_ms_p50": "ms", "knn.decode_ms_p50": "ms", "knn.fit_s": "s",
        "chunked.calls": "count", "chunked.ms_p50": "ms",
        "chunked.points_scanned": "count", "chunked.bytes_computed": "bytes",
        "noble.predict_ms_p50": "ms",
        "nn.train.forward_s": "s", "nn.train.backward_s": "s",
        "nn.train.step_s": "s", "nn.train.other_s": "s",
    }
    for label in NN_LAYERS:
        units[f"nn.train.forward_s.{label}"] = "s"
        units[f"nn.train.backward_s.{label}"] = "s"
    units.update({
        "sessions.step_batch_ms_p50": "ms", "sessions.step_batch_ms_p99": "ms",
        "sessions.step_many_ms_p50": "ms", "sessions.waves_per_batch_mean": "count",
        "sessions.users_per_wave_mean": "count", "sessions.checkpoints": "count",
        "sessions.ckpt_batch_ms_p50": "ms", "sessions.plain_batch_ms_p50": "ms",
        "sessions.ckpt_batch_time_share": "fraction", "sessions.restore_ms_p50": "ms",
        "persistence.files": "count", "persistence.bytes_written": "bytes",
        "gen.lag_p99_ms": "ms", "trace.unattributed_fraction": "fraction",
        "trace.overhead_fraction": "fraction",
    })
    return units


class Plan:
    """Phase lengths of one run and the scratch directory it may write."""

    def __init__(self, seconds: float, trace: bool, nominal_share: float):
        self.nominal_s = nominal_share * seconds
        rest = seconds - self.nominal_s
        self.saturated = [rest / ROUNDS] * ROUNDS
        self.saturated_s = WARM_BURST_S + sum(self.saturated)
        self.warmup_s = WARMUP_S
        self.open_seconds = WARMUP_S + self.nominal_s
        self.open_phases = 1 + ROUNDS
        self.scratch_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(self.scratch_dir, exist_ok=True)

    def open_requests(self, rate: float) -> int:
        """Poisson arrivals of every open phase, with room for the tail."""
        expected = rate * self.open_seconds
        return int(expected + 6 * expected**0.5) + 16


def import_program() -> None:
    """Import every module a workload touches, so no timing pays for it."""
    import repro.core.persistence  # noqa: F401
    import repro.data  # noqa: F401
    import repro.data.imu  # noqa: F401
    import repro.geometry.segments  # noqa: F401
    import repro.localization.knn  # noqa: F401
    import repro.localization.noble  # noqa: F401
    import repro.manifold.chunked  # noqa: F401
    import repro.manifold.neighbors  # noqa: F401
    import repro.nn  # noqa: F401
    import repro.serving  # noqa: F401
    import repro.serving.sessions  # noqa: F401


def frontend_counters(frontend) -> dict:
    stats = frontend.stats()
    return {"batches": stats.batches, "served": stats.served,
            "shed": stats.shed, "timeouts": stats.timeouts}


def run_workload(args) -> int:
    import numpy as np

    import loadgen
    import tracing
    import workloads

    import_program()
    workload = workloads.make(args.workload)
    plan = Plan(args.seconds, bool(args.trace), workload.nominal_share)
    tracer = tracing.Tracer() if args.trace else None
    workload.prepare(args.seed, plan)

    setup_times = []
    if tracer is None:
        for _ in range(workload.setup_repeats):
            # every repeat starts from the same heap: the previous
            # repeat's system is collected here, not inside the timing
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
    else:
        patches = tracing.Patches()
        if args.workload == "wifi-noble":
            tracing.trace_noble_fit(tracer, patches)
        elif args.workload == "bigmap-knn":
            tracing.trace_knn_fit(tracer, patches)
        else:
            from repro.serving.sessions import SessionManager

            patches.set(SessionManager, "ensure_session", tracer.wrap(
                "sessions.restore", SessionManager.ensure_session))
        try:
            tracer.wrap("setup", workload.setup)()
        finally:
            patches.undo()
    setup_end = tracer.mark() if tracer else 0

    frontend = workload.frontend()
    submit = workload.submitter(frontend)

    def open_phase(seconds):
        offsets, keys = workload.open_keys(seconds)
        phase = loadgen.open_loop(submit, keys, offsets[:len(keys)])
        workload.advance(phase)
        return phase

    def saturated_phase(seconds):
        phase = loadgen.saturate(submit, workload.saturated_keys(), seconds,
                                 frontend.batch_size)
        workload.advance(phase)
        return phase

    try:
        warm = [open_phase(WARMUP_S), saturated_phase(WARM_BURST_S)]
        if tracer is None:
            nominal_parts, saturated_parts = [], []
            for seconds in plan.saturated:
                nominal_parts.append(open_phase(plan.nominal_s / ROUNDS))
                saturated_parts.append(saturated_phase(seconds))
            timed = nominal_parts + saturated_parts
        else:
            def install():
                patches = tracing.Patches()
                if args.workload == "track-particle":
                    written = tracing.trace_sessions(tracer, patches, workload.manager)
                else:
                    written = {"files": 0, "bytes": 0}
                    tracing.trace_point_frontend(tracer, patches, frontend, workload.estimator)
                return patches, written

            patches, written = install()
            try:
                before = frontend_counters(frontend)
                serve_start = tracer.mark()
                nominal = open_phase(plan.nominal_s)
                serve_end = tracer.mark()
                after = frontend_counters(frontend)
                nominal_written = dict(written)
            finally:
                patches.undo()
            # untraced and traced saturated rounds alternate, so drift in
            # the machine's speed falls on both sides of the overhead ratio
            nominal_parts = [nominal]
            timed = [nominal]
            rates = {False: [], True: []}
            for round_, seconds in enumerate(plan.saturated):
                traced = round_ % 2 == 1
                patches = install()[0] if traced else tracing.Patches()
                try:
                    saturated = saturated_phase(seconds)
                finally:
                    patches.undo()
                rates[traced].append(saturated.throughput())
                timed.append(saturated)
    finally:
        workload.close(frontend)

    verdict = workload.check(timed, warm)
    ok = verdict["ok"]
    attempted = len(ok)
    failed = int((~ok).sum())
    lag_p99 = loadgen.percentile(np.concatenate([p.lag_ms for p in nominal_parts]), 99)
    latency = np.concatenate([p.latency_ms for p in nominal_parts])
    n_nominal = len(latency)
    nominal_ok = ok[:n_nominal]
    repeated = getattr(workload, "repeated_scans", 0)
    correct = verdict["mismatches"] == 0 and repeated == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"  nominal rate {workload.rate:g} {workload.unit}, p99 limit "
          f"{workload.p99_limit_ms:g} ms, {n_nominal} nominal-rate samples, "
          f"{sum(map(len, timed)) - n_nominal} saturated-phase requests")
    print(f"  inputs {workload.describe()}")
    print(f"  oracle: {verdict['oracle_checked']} answers checked, "
          f"{verdict['mismatches']} mismatches; repeated scans {repeated}; "
          f"failed {failed}/{attempted} (failed_fraction {failed / attempted:.6f}); "
          f"generator lag p99 {lag_p99:.3f} ms")
    failures = sorted({type(e).__name__ for p in timed for e in p.errors})
    if failures:
        print(f"  failures raised: {', '.join(failures)}")
    if tracer is None:
        print(f"  setup {len(setup_times)} times, min {min(setup_times):.4f} s, "
              f"median {statistics.median(setup_times):.4f} s, max {max(setup_times):.4f} s")
        print("  saturated rounds " + ", ".join(
            f"{p.throughput():.6g}" for p in saturated_parts) + f" {workload.unit}")

    if lag_p99 > MAX_GEN_LAG_P99_MS:
        print(f"INVALID RUN: generator lag p99 {lag_p99:.3f} ms exceeds "
              f"{MAX_GEN_LAG_P99_MS} ms; no result recorded", file=sys.stderr)
        return 3

    if tracer is None:
        within = nominal_ok & (latency <= workload.p99_limit_ms)
        metrics = {
            "throughput_rps": statistics.median(p.throughput() for p in saturated_parts),
            "p50_ms": loadgen.windowed_percentile(latency, 50),
            "p99_ms": loadgen.windowed_percentile(latency, 99),
            "slo_ok_fraction": float(within.sum() / n_nominal),
            "error_m": verdict["error_m"],
            "floor_accuracy": verdict["floor_accuracy"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        if args.workload == "track-particle":
            batch_name, first_row_of = "sessions.step_batch", None
        else:
            batch_name, first_row_of = "batcher.predict_many", workload.scans.__getitem__
        serve_spans = tracer.spans[serve_start:serve_end]
        breakdown = tracing.request_breakdown(
            tracer, serve_spans, nominal, batch_name, first_row_of)
        delta = {key: after[key] - before[key] for key in after}
        metrics = tracing.layer_metrics(
            tracer.spans[:setup_end], serve_spans, breakdown, nominal, delta,
            nominal_written, statistics.mean(rates[False]), statistics.mean(rates[True]))
        units = per_layer_units()
        tracer.write(os.path.join(plan.scratch_dir, "traces",
                                  f"{args.workload}-seed{args.seed}.jsonl"))
        if not breakdown["mapped"]:
            correct = False
            print("  trace: batch spans do not map onto the phase's requests")
        metrics = {name: metrics[name] for name in units}

    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  correct {correct}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        result = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = result.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if result.returncode != 0 or not lines:
            print(f"{name}: exited with code {result.returncode}", file=sys.stderr)
            return result.returncode or 1
        report = json.loads(lines[-1])
        combined["correct"] &= report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for metric, entry in report["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wifi-noble", "bigmap-knn", "track-particle", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # one BLAS thread: the generator and the front end's worker already
    # occupy both cores, and spinning BLAS threads on top of them make
    # every timing depend on the scheduler (set before numpy loads)
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program source under {source}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
