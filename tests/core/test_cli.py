"""Smoke tests for the CLI driver (argument handling + energy run)."""

import pytest

from repro import cli


class TestCLIParsing:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["teleport"])

    def test_energy_runs(self, capsys):
        assert cli.main(["energy"]) == 0
        out = capsys.readouterr().out
        assert "wifi inference" in out
        assert "27x" in out

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "experiment" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["quant-bench"],
            ["embed-bench"],
            ["chaos-bench"],
            ["track-bench"],
            ["serve-bench", "--async"],
            ["serve-bench", "--workers", "2"],
            ["shard-bench"],
        ],
    )
    def test_removed_bench_commands_rejected(self, argv, capsys):
        # every serving block runs through serve-bench alone, and the
        # process-worker and shard sweeps are gone with what they measured
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--preset", "smoke"])
        assert excinfo.value.code == 2  # an argparse usage error
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_serve_bench_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            cli.main(["serve-bench", "--model", "teleport"])


class TestSnapshotWarmServe:
    def test_snapshot_then_warm_serve(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["--model", "knn", "--preset", "smoke", "--seed", "11",
                "--store", store]
        assert cli.main(["snapshot", *args]) == 0
        out = capsys.readouterr().out
        assert "fitted + spilled" in out
        assert "artifact:" in out

        # second snapshot is idempotent: restores instead of re-fitting
        assert cli.main(["snapshot", *args]) == 0
        assert "restored existing snapshot" in capsys.readouterr().out

        # the restarted process serves without re-fitting
        assert cli.main(["warm-serve", *args]) == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "no re-fit" in out
        assert "req/s" in out

    def test_warm_serve_cold_start_spills(self, tmp_path, capsys):
        store = str(tmp_path / "empty-store")
        args = ["--model", "knn", "--preset", "smoke", "--seed", "11",
                "--store", store]
        assert cli.main(["warm-serve", *args]) == 0
        out = capsys.readouterr().out
        assert "cold start" in out
        # ... but the fit was spilled: the next warm-serve restores it
        assert cli.main(["warm-serve", *args]) == 0
        assert "warm start" in capsys.readouterr().out

    def test_snapshot_unknown_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown estimator"):
            cli.main(["snapshot", "--model", "teleport", "--preset", "smoke",
                      "--store", str(tmp_path / "s")])

    def test_snapshot_spill_failure_exits_cleanly(self, tmp_path, monkeypatch):
        from repro.core.persistence import ModelStore

        def broken_put(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ModelStore, "put", broken_put)
        with pytest.warns(RuntimeWarning, match="write-through failed"):
            with pytest.raises(SystemExit, match="no artifact could be written"):
                cli.main(["snapshot", "--model", "knn", "--preset", "smoke",
                          "--store", str(tmp_path / "s")])

    def test_warm_serve_reports_failed_spill(self, tmp_path, monkeypatch, capsys):
        from repro.core.persistence import ModelStore

        def broken_put(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ModelStore, "put", broken_put)
        with pytest.warns(RuntimeWarning, match="write-through failed"):
            assert cli.main(["warm-serve", "--model", "knn", "--preset",
                             "smoke", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "could not be written" in out
