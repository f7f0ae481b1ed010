"""scripts/check_bench_artifacts.py: the committed-artifact guard.

The script is a thin loader around :func:`repro.bench.validate_bench_payload`;
these tests point it at copies of the committed artifacts so the real
files are never touched.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ARTIFACTS = ("BENCH_train.json", "BENCH_serve.json")


@pytest.fixture()
def checker(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_bench_artifacts", REPO / "scripts" / "check_bench_artifacts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ARTIFACTS:
        shutil.copy(REPO / name, tmp_path / name)
    monkeypatch.setattr(module, "REPO", str(tmp_path))
    return module


def test_committed_artifacts_pass(checker, capsys):
    assert checker.main() == 0
    assert "bench artifacts OK" in capsys.readouterr().out


def test_lost_track_in_serve_artifact_fails(checker, tmp_path, capsys):
    path = tmp_path / "BENCH_serve.json"
    payload = json.loads(path.read_text())
    payload["sessions"]["headline"]["lost_tracks"] = 1
    path.write_text(json.dumps(payload))
    assert checker.main() == 1
    err = capsys.readouterr().err
    assert "BENCH_serve.json" in err
    assert "sessions.headline.lost_tracks" in err


def test_missing_train_artifact_fails(checker, tmp_path, capsys):
    (tmp_path / "BENCH_train.json").unlink()
    assert checker.main() == 1
    assert "BENCH_train.json: missing" in capsys.readouterr().err
