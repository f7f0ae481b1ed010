"""The train-bench engine: seed-path vs fused float32 training time.

Times cold fits of the paper's neural models through the three training
configurations the PR 3 fast path introduced:

* ``float64-reference`` — dtype float64 with ``fused=False``: the
  seed's training loop (allocating optimizers and layers, per-sample
  batch collation, boolean-masked sigmoid), kept as a faithful
  before-measurement and numerical reference.
* ``float64-fused`` — the allocation-free loop at the historical
  precision (NObLe only), isolating the fusion win from the dtype win.
* ``float32-fused`` — the full fast path: float32 end to end plus
  fused/workspace hot loops.

Each leg trains the same seeded model on the same split and is scored
on held-out mean/median localization error; the bench **asserts metric
parity** between the fast path and the reference (coordinate error
within tolerance) and a minimum cold-fit speedup, then emits the
``BENCH_train.json`` payload — the repo's persistent perf trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: Identifier (and version) of the emitted JSON payload.
BENCH_SCHEMA = "repro-train-bench/1"

#: Keys every leg record must carry, with their types.
_LEG_FIELDS = {
    "dtype": str,
    "fused": bool,
    "fit_seconds": float,
    "epochs_run": int,
    "epoch_seconds": float,
    "samples_per_second": float,
    "mean_error_m": float,
    "median_error_m": float,
}


class BenchParityError(AssertionError):
    """The fast path's localization error drifted beyond tolerance."""


class BenchSpeedupError(AssertionError):
    """The fast path's cold-fit speedup fell below the asserted floor."""


@dataclass
class BenchPreset:
    """One workload scale for the training benchmark."""

    name: str
    n_spots_per_building: int
    measurements_per_spot: int
    n_aps_per_floor: int
    noble_epochs: int
    cnnloc_epochs: int
    cnnloc_pretrain_epochs: int
    min_speedup: float
    parity_abs_m: float
    parity_rel: float
    #: Fits per leg; the reported time is the minimum (standard
    #: best-of-N benchmarking, shields the trajectory from scheduler
    #: noise on shared machines).
    repeats: int = 1


PRESETS = {
    # Schema/plumbing validation in seconds, not minutes: far too small
    # and undertrained for a meaningful speedup, so none is asserted.
    "smoke": BenchPreset(
        name="smoke",
        n_spots_per_building=10,
        measurements_per_spot=6,
        n_aps_per_floor=6,
        noble_epochs=4,
        cnnloc_epochs=3,
        cnnloc_pretrain_epochs=2,
        min_speedup=0.0,
        parity_abs_m=30.0,
        parity_rel=0.8,
        repeats=1,
    ),
    # The ROADMAP's serving workload — the ~3.4 s NObLe cold fit every
    # ModelCache miss used to pay.
    "fast": BenchPreset(
        name="fast",
        n_spots_per_building=48,
        measurements_per_spot=10,
        n_aps_per_floor=10,
        noble_epochs=60,
        cnnloc_epochs=30,
        cnnloc_pretrain_epochs=10,
        min_speedup=2.0,
        parity_abs_m=1.5,
        parity_rel=0.25,
        repeats=3,
    ),
    # Denser campus, wider multi-hot head — closer to real UJIIndoorLoc.
    "paper": BenchPreset(
        name="paper",
        n_spots_per_building=96,
        measurements_per_spot=15,
        n_aps_per_floor=25,
        noble_epochs=60,
        cnnloc_epochs=60,
        cnnloc_pretrain_epochs=20,
        min_speedup=2.0,
        parity_abs_m=1.5,
        parity_rel=0.25,
    ),
}


@dataclass
class TrainBenchResult:
    """Everything ``run_train_bench`` measured, ready for JSON or print."""

    preset: str
    seed: int
    min_speedup: float
    workload: dict
    models: "dict[str, dict]" = field(default_factory=dict)

    @property
    def headline_speedup(self) -> "float | None":
        noble = self.models.get("noble")
        return None if noble is None else noble["speedup"]

    def payload(self) -> dict:
        """The ``BENCH_train.json`` dictionary (a detached deep copy)."""
        import copy

        return {
            "schema": BENCH_SCHEMA,
            "preset": self.preset,
            "seed": self.seed,
            "workload": dict(self.workload),
            "models": copy.deepcopy(self.models),
            "headline": {
                "noble_cold_fit_speedup": self.headline_speedup,
                "min_speedup_asserted": self.min_speedup,
            },
        }

    def report(self) -> str:
        lines = [
            f"train-bench preset={self.preset} seed={self.seed} "
            f"({self.workload['n_train']} train / {self.workload['n_test']} test, "
            f"{self.workload['n_aps']} WAPs)",
        ]
        for name, entry in self.models.items():
            lines.append(f"\n{name}:")
            lines.append(
                "  leg                 fit(s)   epoch(ms)   samples/s   mean(m)  median(m)"
            )
            for leg_name, leg in entry["legs"].items():
                lines.append(
                    f"  {leg_name:18s} {leg['fit_seconds']:7.3f} "
                    f"{leg['epoch_seconds'] * 1000:10.1f} "
                    f"{leg['samples_per_second']:11.0f} "
                    f"{leg['mean_error_m']:9.3f} {leg['median_error_m']:9.3f}"
                )
            parity = entry["parity"]
            lines.append(
                f"  speedup (reference/float32): {entry['speedup']:.2f}x   "
                f"parity |Δmean| {parity['mean_error_delta_m']:.3f} m "
                f"(tol {parity['tolerance_m']:.3f} m) "
                f"{'ok' if parity['ok'] else 'FAIL'}"
            )
        return "\n".join(lines)


def _score(model, test) -> tuple[float, float]:
    errors = np.linalg.norm(
        model.predict_coordinates(test) - test.coordinates, axis=1
    )
    return float(errors.mean()), float(np.median(errors))


def _leg(model_factory, train, test, n_train: int, repeats: int = 1) -> dict:
    fit_seconds = float("inf")
    for _ in range(max(repeats, 1)):
        model = model_factory()
        tic = time.perf_counter()
        model.fit(train)
        fit_seconds = min(fit_seconds, time.perf_counter() - tic)
    epochs_run = model.history_.epochs_run if model.history_ is not None else 0
    mean_error, median_error = _score(model, test)
    return {
        "dtype": str(np.dtype(model.dtype) if model.dtype is not None else np.dtype(float)),
        "fused": bool(model.fused),
        "fit_seconds": float(fit_seconds),
        "epochs_run": int(epochs_run),
        "epoch_seconds": float(fit_seconds / max(epochs_run, 1)),
        "samples_per_second": float(epochs_run * n_train / fit_seconds),
        "mean_error_m": mean_error,
        "median_error_m": median_error,
    }


def run_train_bench(
    preset: str = "fast",
    seed: int = 42,
    models: "tuple[str, ...]" = ("noble", "cnnloc"),
    min_speedup: "float | None" = None,
    include_float64_fused: bool = True,
) -> TrainBenchResult:
    """Benchmark the training fast path and assert parity + speedup.

    Raises :class:`BenchParityError` when the float32 fast path's mean
    coordinate error drifts beyond the preset tolerance of the float64
    reference, and :class:`BenchSpeedupError` when the NObLe cold-fit
    speedup falls below ``min_speedup`` (preset default; pass 0 to
    disable).
    """
    from repro.data.ujiindoor import generate_uji_like
    from repro.localization.cnnloc import CNNLocWifi
    from repro.localization.noble import NObLeWifi

    try:
        config = PRESETS[preset]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; choices: {sorted(PRESETS)}"
        ) from None
    unknown = set(models) - {"noble", "cnnloc"}
    if unknown:
        raise ValueError(f"unknown bench models: {sorted(unknown)}")
    if min_speedup is None:
        min_speedup = config.min_speedup

    dataset = generate_uji_like(
        n_spots_per_building=config.n_spots_per_building,
        measurements_per_spot=config.measurements_per_spot,
        n_aps_per_floor=config.n_aps_per_floor,
        seed=seed,
    )
    train, test = dataset.split((0.8, 0.2), rng=seed + 1)
    result = TrainBenchResult(
        preset=config.name,
        seed=seed,
        min_speedup=float(min_speedup),
        workload={
            "n_train": len(train),
            "n_test": len(test),
            "n_aps": train.n_aps,
            "noble_epochs": config.noble_epochs,
            "cnnloc_epochs": config.cnnloc_epochs,
            "cnnloc_pretrain_epochs": config.cnnloc_pretrain_epochs,
        },
    )

    def noble_factory(**overrides):
        return lambda: NObLeWifi(
            epochs=config.noble_epochs, val_fraction=0.0, seed=seed, **overrides
        )

    def cnnloc_factory(**overrides):
        return lambda: CNNLocWifi(
            epochs=config.cnnloc_epochs,
            pretrain_epochs=config.cnnloc_pretrain_epochs,
            seed=seed,
            **overrides,
        )

    factories = {"noble": noble_factory, "cnnloc": cnnloc_factory}
    for name in models:
        factory = factories[name]
        repeats = config.repeats
        legs = {
            "float64-reference": _leg(
                factory(dtype="float64", fused=False), train, test, len(train),
                repeats=repeats,
            )
        }
        if include_float64_fused and name == "noble":
            legs["float64-fused"] = _leg(
                factory(dtype="float64"), train, test, len(train), repeats=repeats
            )
        legs["float32-fused"] = _leg(
            factory(dtype="float32"), train, test, len(train), repeats=repeats
        )
        reference, fast = legs["float64-reference"], legs["float32-fused"]
        delta = abs(fast["mean_error_m"] - reference["mean_error_m"])
        tolerance = max(
            config.parity_abs_m, config.parity_rel * reference["mean_error_m"]
        )
        parity_ok = delta <= tolerance
        result.models[name] = {
            "legs": legs,
            "speedup": reference["fit_seconds"] / fast["fit_seconds"],
            "parity": {
                "mean_error_delta_m": delta,
                "tolerance_m": tolerance,
                "ok": parity_ok,
            },
        }
        if not parity_ok:
            raise BenchParityError(
                f"{name}: float32 mean error {fast['mean_error_m']:.3f} m vs "
                f"float64 reference {reference['mean_error_m']:.3f} m — "
                f"|Δ| {delta:.3f} m exceeds tolerance {tolerance:.3f} m"
            )

    headline = result.headline_speedup
    if min_speedup > 0 and headline is not None and headline < min_speedup:
        raise BenchSpeedupError(
            f"NObLe cold-fit speedup {headline:.2f}x is below the asserted "
            f"minimum {min_speedup:.2f}x"
        )
    return result


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_bench_payload(payload: dict) -> None:
    """Validate a ``BENCH_train.json`` dictionary; raises ``ValueError``.

    Guards the persistent trajectory's shape: schema tag, workload
    block, at least one model with complete legs, and a headline block
    whose NObLe cold-fit speedup clears a positive asserted floor — so
    ``make bench-smoke`` and ``make check-bench-artifacts`` fail loudly
    when the emitted artifact drifts or is hand-edited.
    """
    problems: list[str] = []
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}")
    for key in ("preset", "seed", "workload", "models", "headline"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    workload = payload.get("workload", {})
    for key in ("n_train", "n_test", "n_aps"):
        if not isinstance(workload.get(key), int):
            problems.append(f"workload.{key} must be an int")
    models = payload.get("models", {})
    if not isinstance(models, dict) or not models:
        problems.append("models must be a non-empty mapping")
    else:
        for name, entry in models.items():
            legs = entry.get("legs", {})
            if "float64-reference" not in legs or "float32-fused" not in legs:
                problems.append(
                    f"models.{name} must carry float64-reference and float32-fused legs"
                )
            for leg_name, leg in legs.items():
                for field_name, field_type in _LEG_FIELDS.items():
                    value = leg.get(field_name)
                    if field_type is float:
                        ok = _is_number(value)
                    else:
                        ok = isinstance(value, field_type)
                    if not ok:
                        problems.append(
                            f"models.{name}.legs.{leg_name}.{field_name} must be "
                            f"{field_type.__name__}"
                        )
            parity = entry.get("parity", {})
            for key in ("mean_error_delta_m", "tolerance_m", "ok"):
                if key not in parity:
                    problems.append(f"models.{name}.parity missing {key!r}")
            if not isinstance(entry.get("speedup"), (int, float)):
                problems.append(f"models.{name}.speedup must be a number")
    headline = payload.get("headline", {})
    if not isinstance(headline, dict):
        problems.append("headline must be a dict")
        headline = {}
    for key in ("noble_cold_fit_speedup", "min_speedup_asserted"):
        if key not in headline:
            problems.append(f"headline missing {key!r}")
    speedup = headline.get("noble_cold_fit_speedup")
    floor = headline.get("min_speedup_asserted")
    if speedup is not None and not _is_number(speedup):
        problems.append("headline.noble_cold_fit_speedup must be a number")
    elif _is_number(speedup) and _is_number(floor) and 0 < floor and speedup < floor:
        problems.append(
            f"headline.noble_cold_fit_speedup {speedup} is below the asserted "
            f"floor {floor} (stale or hand-edited artifact?)"
        )
    if problems:
        raise ValueError(
            "invalid BENCH_train payload: " + "; ".join(problems)
        )
