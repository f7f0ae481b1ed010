"""train-bench: smoke execution, schema validation, CLI artifact."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    run_train_bench,
    validate_bench_payload,
)
from repro.bench.train import PRESETS


@pytest.fixture(scope="module")
def smoke_result():
    return run_train_bench(preset="smoke", seed=11, models=("noble",))


class TestRunTrainBench:
    def test_payload_validates(self, smoke_result):
        payload = smoke_result.payload()
        validate_bench_payload(payload)  # raises on problems
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["preset"] == "smoke"

    def test_legs_present_with_sane_numbers(self, smoke_result):
        legs = smoke_result.models["noble"]["legs"]
        assert set(legs) == {"float64-reference", "float64-fused", "float32-fused"}
        for leg in legs.values():
            assert leg["fit_seconds"] > 0
            assert leg["epochs_run"] == PRESETS["smoke"].noble_epochs
            assert leg["samples_per_second"] > 0
        assert legs["float32-fused"]["dtype"] == "float32"
        assert legs["float64-reference"]["fused"] is False

    def test_parity_asserted_and_recorded(self, smoke_result):
        parity = smoke_result.models["noble"]["parity"]
        assert parity["ok"] is True
        assert parity["mean_error_delta_m"] <= parity["tolerance_m"]

    def test_headline_speedup_positive(self, smoke_result):
        assert smoke_result.headline_speedup > 0

    def test_report_renders(self, smoke_result):
        report = smoke_result.report()
        assert "float32-fused" in report and "speedup" in report

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            run_train_bench(preset="warp")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="models"):
            run_train_bench(preset="smoke", models=("noble", "resnet"))

    def test_impossible_speedup_floor_raises(self):
        from repro.bench.train import BenchSpeedupError

        with pytest.raises(BenchSpeedupError):
            run_train_bench(
                preset="smoke", seed=11, models=("noble",), min_speedup=1e9
            )


class TestValidatePayload:
    def test_rejects_wrong_schema(self, smoke_result):
        payload = smoke_result.payload()
        payload["schema"] = "nope/0"
        with pytest.raises(ValueError, match="schema"):
            validate_bench_payload(payload)

    def test_rejects_missing_leg(self, smoke_result):
        payload = smoke_result.payload()
        del payload["models"]["noble"]["legs"]["float32-fused"]
        with pytest.raises(ValueError, match="float32-fused"):
            validate_bench_payload(payload)

    def test_rejects_broken_leg_field(self, smoke_result):
        payload = smoke_result.payload()
        payload["models"]["noble"]["legs"]["float32-fused"]["fit_seconds"] = "fast"
        with pytest.raises(ValueError, match="fit_seconds"):
            validate_bench_payload(payload)

    def test_rejects_empty_models(self, smoke_result):
        payload = smoke_result.payload()
        payload["models"] = {}
        with pytest.raises(ValueError, match="models"):
            validate_bench_payload(payload)

    def test_rejects_cold_fit_speedup_below_floor(self, smoke_result):
        payload = smoke_result.payload()
        payload["headline"]["min_speedup_asserted"] = 2.0
        payload["headline"]["noble_cold_fit_speedup"] = 1.5
        with pytest.raises(ValueError, match="below the asserted floor"):
            validate_bench_payload(payload)

    def test_zero_floor_disables_the_speedup_check(self, smoke_result):
        payload = smoke_result.payload()
        payload["headline"]["min_speedup_asserted"] = 0.0
        payload["headline"]["noble_cold_fit_speedup"] = 0.5
        validate_bench_payload(payload)


class TestCLI:
    def test_train_bench_writes_artifact(self, tmp_path):
        from repro.cli import main

        output = tmp_path / "BENCH_train.json"
        assert (
            main(
                [
                    "train-bench",
                    "--preset",
                    "smoke",
                    "--models",
                    "noble",
                    "--seed",
                    "11",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        payload = json.loads(output.read_text())
        validate_bench_payload(payload)

    def test_smoke_preset_rejected_elsewhere(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["energy", "--preset", "smoke"])
