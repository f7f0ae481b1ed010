#!/usr/bin/env bash
# Strict suite gate (invoked by `make check` / `make check-fast`, and
# through `make ci` / `make ci-fast` by the CI workflow).
#
# Runs the tier-1 suite exactly like `make test`, but escalates every
# pytest collection warning into a hard error.  This guards the
# invariant documented in ROADMAP.md ("Test-suite invariants"): the
# suite only collects cleanly because every tests/ subpackage has an
# __init__.py AND pytest.ini forces --import-mode=importlib.  A dropped
# __init__.py or a duplicate-basename regression surfaces here as a
# failure instead of a warning that scrolls past.
#
# --strict-markers additionally rejects any marker not registered in
# pytest.ini (e.g. a typo'd @pytest.mark.slaw that would silently run
# in the "fast" lane).
#
# Extra arguments pass straight to pytest (`make check-fast` sends
# -m "not slow").  The pytest tail line (collected/passed counts) is
# appended to $GITHUB_STEP_SUMMARY when CI provides one, so the job
# summary always states the authoritative count — commit messages and
# CHANGES.md can be reconciled against it instead of hand-copied.
set -euo pipefail
cd "$(dirname "$0")/.."

make clean-pyc
PYTEST_TAIL=/tmp/pytest-tail.txt
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q \
    --strict-markers \
    -W error::pytest.PytestCollectionWarning \
    "$@" | tee /tmp/pytest-output.txt
grep -E '[0-9]+ (passed|failed|error)' /tmp/pytest-output.txt | tail -1 \
    > "$PYTEST_TAIL" || true
if [[ -n "${GITHUB_STEP_SUMMARY:-}" && -s "$PYTEST_TAIL" ]]; then
    {
        echo "### Test suite"
        echo ""
        echo '```'
        cat "$PYTEST_TAIL"
        echo '```'
    } >> "$GITHUB_STEP_SUMMARY"
fi

# Smoke the training benchmark: runs a tiny train-bench workload and
# schema-validates the emitted BENCH_train.json, so a bench or schema
# regression fails `make check` instead of rotting silently.
make bench-smoke

# Smoke the serving benchmark the same way: every serve-bench block
# (deadline sweep, learned embedding, chaos overload burst, streaming
# sessions, model-store restart leg) at smoke scale, schema-validating
# BENCH_serve.json, so a broken block or payload drift fails `make
# check` too.
make serve-bench-smoke

# Bench-drift guard: the committed trajectory artifacts must pass
# repro.bench.validate_bench_payload, headline floors included.
make check-bench-artifacts
