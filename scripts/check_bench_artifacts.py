#!/usr/bin/env python
"""Bench-drift guard: validate the committed BENCH_*.json trajectories.

The repo commits its performance trajectory (``BENCH_train.json``,
``BENCH_serve.json``) so regressions are visible in review.  That only
works if the artifacts stay well-formed and honest — a hand-edited,
truncated, or stale file must fail the build, not rot silently.  This
script loads each committed payload and runs it through
:func:`repro.bench.validate_bench_payload`, the single bench-artifact
checker (schema tag, required blocks, per-leg fields, and every
headline floor the artifact records).

Run via ``make check-bench-artifacts`` (part of ``make check`` /
``make ci`` and the CI workflow).  Exit status 0 = all artifacts valid.
"""

from __future__ import annotations

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

#: Committed trajectory artifacts, relative to the repo root.
ARTIFACTS = ("BENCH_train.json", "BENCH_serve.json")


def check_artifact(name: str) -> "list[str]":
    from repro.bench import validate_bench_payload

    path = os.path.join(REPO, name)
    if not os.path.exists(path):
        return [f"{name}: missing (the trajectory artifact must be committed)"]
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{name}: unreadable JSON: {error}"]
    try:
        validate_bench_payload(payload)
    except ValueError as error:
        return [f"{name}: {error}"]
    return []


def main() -> int:
    failures = [problem for name in ARTIFACTS for problem in check_artifact(name)]
    if failures:
        for failure in failures:
            print(f"bench-artifact check FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"bench artifacts OK: {', '.join(ARTIFACTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
