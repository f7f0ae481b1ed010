"""serve-bench: smoke execution, schema validation, CLI artifact."""

import json

import pytest

from repro.bench import (
    SERVE_BENCH_SCHEMA,
    run_serve_bench,
    validate_bench_payload,
    validate_serve_bench_payload,
    validate_train_bench_payload,
)
from repro.bench.serve import PRESETS, ServeParityError, ServeSpeedupError


@pytest.fixture(scope="module")
def smoke_result():
    return run_serve_bench(preset="smoke", seed=9)


class TestRunServeBench:
    def test_payload_validates(self, smoke_result):
        payload = smoke_result.payload()
        validate_serve_bench_payload(payload)  # raises on problems
        validate_bench_payload(payload)  # the dispatcher routes it too
        assert payload["schema"] == SERVE_BENCH_SCHEMA
        assert payload["preset"] == "smoke"

    def test_legs_cover_the_deadline_sweep(self, smoke_result):
        deadlines = [leg["deadline_ms"] for leg in smoke_result.legs]
        assert deadlines == list(PRESETS["smoke"].deadlines_ms)
        for leg in smoke_result.legs:
            assert leg["parity_ok"] is True
            assert leg["requests_per_second"] > 0
            assert leg["n_batches"] >= 1
            assert 0 < leg["mean_batch_fill"] <= PRESETS["smoke"].batch_size
            assert leg["n_timeouts"] == 0
            assert leg["p95_latency_ms"] >= leg["mean_latency_ms"] >= 0

    def test_naive_baseline_recorded(self, smoke_result):
        assert smoke_result.naive["seconds"] > 0
        assert smoke_result.naive["requests_per_second"] > 0

    def test_headline_block(self, smoke_result):
        headline = smoke_result.headline
        assert headline["deadline_ms"] == PRESETS["smoke"].headline_deadline_ms
        assert headline["async_speedup"] > 0
        assert headline["min_speedup_asserted"] == 0.0

    def test_report_renders(self, smoke_result):
        report = smoke_result.report()
        assert "per-query baseline" in report
        assert "deadline" in report and "headline" in report

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            run_serve_bench(preset="warp")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_serve_bench(preset="smoke", model="resnet")

    def test_bad_sweep_parameters_rejected(self):
        with pytest.raises(ValueError, match="deadlines"):
            run_serve_bench(preset="smoke", deadlines_ms=())
        with pytest.raises(ValueError, match="deadlines"):
            run_serve_bench(preset="smoke", deadlines_ms=(0.0,))
        with pytest.raises(ValueError, match="producers"):
            run_serve_bench(preset="smoke", producers=0)

    def test_impossible_speedup_floor_raises(self):
        with pytest.raises(ServeSpeedupError):
            run_serve_bench(preset="smoke", seed=9, min_speedup=1e9)


class TestValidatePayload:
    def test_rejects_wrong_schema(self, smoke_result):
        payload = smoke_result.payload()
        payload["schema"] = "nope/0"
        with pytest.raises(ValueError, match="schema"):
            validate_serve_bench_payload(payload)

    def test_rejects_empty_sweep(self, smoke_result):
        payload = smoke_result.payload()
        payload["async"] = []
        with pytest.raises(ValueError, match="async"):
            validate_serve_bench_payload(payload)

    def test_rejects_broken_leg_field(self, smoke_result):
        payload = smoke_result.payload()
        payload["async"][0]["requests_per_second"] = "fast"
        with pytest.raises(ValueError, match="requests_per_second"):
            validate_serve_bench_payload(payload)

    def test_rejects_failed_parity(self, smoke_result):
        payload = smoke_result.payload()
        payload["async"][0]["parity_ok"] = False
        with pytest.raises(ValueError, match="parity_ok"):
            validate_serve_bench_payload(payload)

    def test_rejects_missing_headline_key(self, smoke_result):
        payload = smoke_result.payload()
        del payload["headline"]["async_speedup"]
        with pytest.raises(ValueError, match="async_speedup"):
            validate_serve_bench_payload(payload)

    def test_rejects_async_speedup_below_positive_floor(self, smoke_result):
        payload = smoke_result.payload()
        payload["headline"]["min_speedup_asserted"] = 5.0
        payload["headline"]["async_speedup"] = 2.0
        with pytest.raises(ValueError, match="headline.async_speedup 2.0 is below"):
            validate_bench_payload(payload)

    def test_zero_floor_disables_the_async_speedup_check(self, smoke_result):
        payload = smoke_result.payload()
        payload["headline"]["min_speedup_asserted"] = 0.0
        payload["headline"]["async_speedup"] = 0.5
        validate_bench_payload(payload)

    def test_rejects_bool_as_number(self, smoke_result):
        payload = smoke_result.payload()
        payload["naive"]["seconds"] = True
        with pytest.raises(ValueError, match="naive.seconds must be a number"):
            validate_serve_bench_payload(payload)

    def test_rejects_non_dict_block_without_crashing(self, smoke_result):
        payload = smoke_result.payload()
        payload["quant"] = ["not", "a", "block"]
        payload["workload"] = None
        with pytest.raises(ValueError, match="quant must be a dict"):
            validate_serve_bench_payload(payload)

    def test_rejects_non_dict_payload(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_bench_payload(["not", "a", "payload"])

    def test_train_validator_rejects_serve_payload(self, smoke_result):
        with pytest.raises(ValueError, match="schema"):
            validate_train_bench_payload(smoke_result.payload())


class TestCLI:
    def test_async_serve_bench_writes_artifact(self, tmp_path):
        from repro.cli import main

        output = tmp_path / "BENCH_serve.json"
        assert (
            main(
                [
                    "serve-bench",
                    "--preset",
                    "smoke",
                    "--seed",
                    "9",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        payload = json.loads(output.read_text())
        validate_bench_payload(payload)
        assert payload["schema"] == SERVE_BENCH_SCHEMA

    def test_malformed_deadlines_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="deadlines"):
            main(["serve-bench", "--preset", "smoke",
                  "--deadlines", "fast,slow"])


@pytest.fixture(scope="module")
def smoke_store_result(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("bench-store")
    return run_serve_bench(preset="smoke", seed=9, store_dir=store_dir)


class TestStoreLeg:
    def test_absent_without_store_dir(self, smoke_result):
        assert smoke_result.store is None
        assert "store" not in smoke_result.payload()

    def test_store_block_emitted_and_valid(self, smoke_store_result):
        payload = smoke_store_result.payload()
        validate_serve_bench_payload(payload)
        store = payload["store"]
        assert store["backend"] == "noble"
        assert store["parity_ok"] is True
        assert store["cold_fit_seconds"] > 0
        assert store["warm_restore_seconds"] > 0
        assert store["speedup"] == pytest.approx(
            store["cold_fit_seconds"] / store["warm_restore_seconds"], rel=1e-6
        )

    def test_report_mentions_the_restart_leg(self, smoke_store_result):
        report = smoke_store_result.report()
        assert "warm restore" in report and "restart speedup" in report

    def test_impossible_store_floor_raises(self, tmp_path):
        with pytest.raises(ServeSpeedupError, match="warm restore"):
            run_serve_bench(
                preset="smoke", seed=9, store_dir=tmp_path,
                store_min_speedup=1e9,
            )

    def test_validator_rejects_failed_store_parity(self, smoke_store_result):
        payload = smoke_store_result.payload()
        payload["store"]["parity_ok"] = False
        with pytest.raises(ValueError, match="store.parity_ok"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_incomplete_store_block(self, smoke_store_result):
        payload = smoke_store_result.payload()
        del payload["store"]["warm_restore_seconds"]
        with pytest.raises(ValueError, match="warm_restore_seconds"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_speedup_below_floor(self, smoke_store_result):
        payload = smoke_store_result.payload()
        payload["store"]["min_speedup_asserted"] = 10.0
        payload["store"]["speedup"] = 3.0
        with pytest.raises(ValueError, match="below the asserted floor"):
            validate_serve_bench_payload(payload)


class TestSchemaVersioning:
    def test_stale_v1_artifact_fails_validation(self, smoke_result):
        payload = smoke_result.payload()
        payload["schema"] = "repro-serve-bench/1"
        with pytest.raises(ValueError, match="schema"):
            validate_serve_bench_payload(payload)
        # the dispatcher still routes it to the serve validator, which
        # reports the version mismatch (instead of half-reading it)
        with pytest.raises(ValueError, match="repro-serve-bench"):
            validate_bench_payload(payload)


class TestQuantBlock:
    """The quantized-scan leg (schema v4): emission + validation."""

    def test_block_emitted_and_valid(self, smoke_result):
        payload = smoke_result.payload()
        validate_serve_bench_payload(payload)
        quant = payload["quant"]
        preset = PRESETS["smoke"]
        assert quant["n_bins"] == preset.quant_bins
        assert quant["k"] == min(preset.quant_k, quant["n_points"])
        assert quant["refine"] == preset.quant_refine
        assert quant["n_queries"] == preset.quant_queries
        assert quant["baseline"]["requests_per_second"] > 0
        assert quant["quant"]["requests_per_second"] > 0
        # exactly the uint8 / float32 itemsize ratio
        assert quant["headline"]["bytes_ratio"] == pytest.approx(0.25)
        assert quant["recall_at_k"] >= preset.quant_min_recall
        # the throughput floor is deliberately off at smoke scale
        assert quant["headline"]["floor_enforced"] is False
        assert quant["headline"]["min_speedup_asserted"] == 0.0

    def test_report_mentions_the_quant_leg(self, smoke_result):
        report = smoke_result.report()
        assert "quant:" in report
        assert "uint8 scan" in report and "float32 scan" in report

    def test_impossible_quant_floor_raises(self):
        with pytest.raises(ServeSpeedupError, match="monolithic"):
            run_serve_bench(preset="smoke", seed=9, quant_min_speedup=1e9)

    def test_impossible_recall_floor_raises(self):
        # 2-bin quantization cannot hit perfect recall: the recall floor
        # must trip as a parity failure, not pass silently
        from dataclasses import replace

        from repro.bench.serve import _quant_block

        impossible = replace(
            PRESETS["smoke"], quant_bins=2, quant_refine=0,
            quant_min_recall=1.0, quant_max_bytes_ratio=0.0,
        )
        with pytest.raises(ServeParityError, match="recall"):
            _quant_block(impossible, seed=9, min_speedup=0.0)

    def test_validator_rejects_missing_block(self, smoke_result):
        payload = smoke_result.payload()
        del payload["quant"]
        with pytest.raises(ValueError, match="quant"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_broken_leg_field(self, smoke_result):
        payload = smoke_result.payload()
        payload["quant"]["quant"]["requests_per_second"] = "fast"
        with pytest.raises(ValueError, match="requests_per_second"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_recall_below_floor(self, smoke_result):
        payload = smoke_result.payload()
        payload["quant"]["headline"]["recall_at_k"] = 0.5
        with pytest.raises(ValueError, match="recall_at_k 0.5 is below"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_bytes_above_ceiling(self, smoke_result):
        payload = smoke_result.payload()
        payload["quant"]["headline"]["bytes_ratio"] = 0.9
        with pytest.raises(ValueError, match="bytes_ratio"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_enforced_floor_violation(self, smoke_result):
        payload = smoke_result.payload()
        head = payload["quant"]["headline"]
        head["floor_enforced"] = True
        head["min_speedup_asserted"] = 10.0
        head["speedup_vs_float32"] = 1.2
        with pytest.raises(ValueError, match="below the asserted floor"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_missing_headline_key(self, smoke_result):
        payload = smoke_result.payload()
        del payload["quant"]["headline"]["max_bytes_ratio_asserted"]
        with pytest.raises(ValueError, match="max_bytes_ratio_asserted"):
            validate_serve_bench_payload(payload)


class TestEmbedBlock:
    """The learned-embedding leg (schema v7): emission + validation."""

    def test_block_emitted_and_valid(self, smoke_result):
        payload = smoke_result.payload()
        validate_serve_bench_payload(payload)
        embed = payload["embed"]
        preset = PRESETS["smoke"]
        assert embed["embedder"] == preset.embed_embedder
        assert embed["n_components"] == preset.embed_components
        assert embed["n_queries"] == preset.embed_queries
        assert embed["n_bins"] == preset.embed_bins
        assert embed["k"] == min(preset.embed_k, embed["n_points"])
        for side in ("raw", "embed"):
            leg = embed[side]
            assert leg["fit_seconds"] > 0
            assert leg["requests_per_second"] > 0
            assert leg["error_m"] > 0
            assert 0.0 <= leg["recall_at_k"] <= 1.0
        head = embed["headline"]
        assert head["speedup_vs_raw"] > 0
        # every accuracy/throughput floor is deliberately off at smoke
        # scale: the tiny map can't show the noisy-map win
        assert head["floor_enforced"] is False
        assert head["min_speedup_asserted"] == 0.0
        assert head["max_error_ratio_asserted"] == 0.0
        assert head["min_recall_ratio_asserted"] == 0.0

    def test_report_mentions_the_embed_leg(self, smoke_result):
        report = smoke_result.report()
        assert "embed:" in report
        assert "embed-knn" in report and "raw kNN" in report

    def test_impossible_embed_floor_raises(self):
        with pytest.raises(ServeSpeedupError, match="raw-RSSI"):
            run_serve_bench(preset="smoke", seed=9, embed_min_speedup=1e9)

    def test_impossible_error_ceiling_raises(self):
        from dataclasses import replace

        from repro.bench.serve import _embed_block

        impossible = replace(PRESETS["smoke"], embed_max_error_ratio=1e-6)
        with pytest.raises(ServeParityError, match="position error"):
            _embed_block(impossible, seed=9, min_speedup=0.0)

    def test_impossible_recall_floor_raises(self):
        from dataclasses import replace

        from repro.bench.serve import _embed_block

        impossible = replace(PRESETS["smoke"], embed_min_recall_ratio=100.0)
        with pytest.raises(ServeParityError, match="recall"):
            _embed_block(impossible, seed=9, min_speedup=0.0)

    def test_validator_rejects_missing_block(self, smoke_result):
        payload = smoke_result.payload()
        del payload["embed"]
        with pytest.raises(ValueError, match="embed"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_broken_leg_field(self, smoke_result):
        payload = smoke_result.payload()
        payload["embed"]["embed"]["requests_per_second"] = "fast"
        with pytest.raises(ValueError, match="requests_per_second"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_enforced_floor_violation(self, smoke_result):
        payload = smoke_result.payload()
        head = payload["embed"]["headline"]
        head["floor_enforced"] = True
        head["min_speedup_asserted"] = 10.0
        head["speedup_vs_raw"] = 1.1
        with pytest.raises(ValueError, match="below the asserted floor"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_error_above_ceiling(self, smoke_result):
        payload = smoke_result.payload()
        head = payload["embed"]["headline"]
        head["max_error_ratio_asserted"] = 1.0
        head["error_ratio_vs_raw"] = 1.4
        with pytest.raises(ValueError, match="above the asserted ceiling"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_recall_below_floor(self, smoke_result):
        payload = smoke_result.payload()
        head = payload["embed"]["headline"]
        head["min_recall_ratio_asserted"] = 0.95
        head["recall_ratio_vs_raw"] = 0.5
        with pytest.raises(ValueError, match="recall_ratio_vs_raw"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_missing_headline_key(self, smoke_result):
        payload = smoke_result.payload()
        del payload["embed"]["headline"]["recall_ratio_vs_raw"]
        with pytest.raises(ValueError, match="recall_ratio_vs_raw"):
            validate_serve_bench_payload(payload)


class TestResilienceBlock:
    """The chaos-harness leg (schema v5): emission + validation."""

    def test_block_emitted_and_valid(self, smoke_result):
        payload = smoke_result.payload()
        validate_serve_bench_payload(payload)
        resilience = payload["resilience"]
        preset = PRESETS["smoke"]
        assert resilience["queries"] == preset.chaos_queries
        assert resilience["max_pending"] == preset.chaos_max_pending
        outcomes = resilience["outcomes"]
        # every submitted request is accounted for, none lost or dirty
        assert outcomes["answered"] + outcomes["shed"] == preset.chaos_queries
        assert outcomes["failed"] == 0
        assert outcomes["hung"] == 0
        head = resilience["headline"]
        assert head["availability"] >= preset.chaos_min_availability
        assert head["parity_ok"] is True
        assert head["floor_enforced"] is True

    def test_hot_tenant_sheds_more_than_light_tenants(self, smoke_result):
        shed = smoke_result.resilience["shed"]
        assert shed["fairness_ok"] is True
        # the 10x tenant absorbs the evictions; every light tenant keeps
        # a strictly lower shed rate under the same overload burst
        for tenant, rate in shed["rates"].items():
            if tenant != "hot":
                assert rate <= shed["hot_rate"]

    def test_report_mentions_the_chaos_storm(self, smoke_result):
        report = smoke_result.report()
        assert "resilience:" in report
        assert "availability" in report and "faults" in report

    def test_impossible_availability_floor_raises(self):
        from repro.bench.serve import _resilience_block, serve_workload

        config, train, queries = serve_workload("smoke", 9)
        with pytest.raises(ServeSpeedupError, match="availability"):
            _resilience_block(config, train, queries, 9, 2.0)

    def test_validator_rejects_missing_block(self, smoke_result):
        payload = smoke_result.payload()
        del payload["resilience"]
        with pytest.raises(ValueError, match="resilience"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_hung_requests(self, smoke_result):
        payload = smoke_result.payload()
        payload["resilience"]["headline"]["hung"] = 3
        with pytest.raises(ValueError, match="hung"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_dirty_failures(self, smoke_result):
        payload = smoke_result.payload()
        payload["resilience"]["headline"]["failed"] = 1
        with pytest.raises(ValueError, match="failed"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_failed_parity(self, smoke_result):
        payload = smoke_result.payload()
        payload["resilience"]["headline"]["parity_ok"] = False
        with pytest.raises(ValueError, match="parity_ok"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_enforced_floor_violation(self, smoke_result):
        payload = smoke_result.payload()
        head = payload["resilience"]["headline"]
        head["floor_enforced"] = True
        head["min_availability_asserted"] = 0.99
        head["availability"] = 0.5
        with pytest.raises(ValueError, match="below the asserted floor"):
            validate_serve_bench_payload(payload)

    def test_validator_rejects_missing_headline_key(self, smoke_result):
        payload = smoke_result.payload()
        del payload["resilience"]["headline"]["min_availability_asserted"]
        with pytest.raises(ValueError, match="min_availability_asserted"):
            validate_serve_bench_payload(payload)


class TestSessionsValidation:
    """The sessions headline invariants a committed artifact must keep."""

    def test_smoke_block_validates(self, smoke_result):
        head = smoke_result.payload()["sessions"]["headline"]
        assert head["lost_tracks"] == 0 and head["rmse_delta_m"] == 0.0

    def test_rejects_lost_tracks(self, smoke_result):
        payload = smoke_result.payload()
        payload["sessions"]["headline"]["lost_tracks"] = 1
        with pytest.raises(ValueError, match="sessions.headline.lost_tracks"):
            validate_serve_bench_payload(payload)

    def test_rejects_nonzero_rmse_delta(self, smoke_result):
        payload = smoke_result.payload()
        payload["sessions"]["headline"]["rmse_delta_m"] = 1e-9
        with pytest.raises(ValueError, match="exactly 0.0"):
            validate_serve_bench_payload(payload)

    def test_rejects_failed_parity(self, smoke_result):
        payload = smoke_result.payload()
        payload["sessions"]["headline"]["parity_ok"] = False
        with pytest.raises(ValueError, match="parity_ok is not True"):
            validate_serve_bench_payload(payload)

    def test_rejects_enforced_floor_violation(self, smoke_result):
        payload = smoke_result.payload()
        head = payload["sessions"]["headline"]
        head["floor_enforced"] = True
        head["min_tracks_per_second_asserted"] = 100.0
        head["tracks_per_second"] = 10.0
        with pytest.raises(ValueError, match="below the asserted floor"):
            validate_serve_bench_payload(payload)

    def test_rejects_missing_headline_key(self, smoke_result):
        payload = smoke_result.payload()
        del payload["sessions"]["headline"]["concurrent_sessions"]
        with pytest.raises(ValueError, match="concurrent_sessions"):
            validate_serve_bench_payload(payload)
