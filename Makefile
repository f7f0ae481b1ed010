# Developer entry points.  `make test` is the tier-1 verification command;
# it clears compiled bytecode first so a stale __pycache__ can never
# resurrect the seed's duplicate-basename collection failure.
# `make test-fast` skips tests marked `slow` (sharding stress runs);
# `make check` additionally fails on any pytest collection warning and
# runs the two bench smokes (train-bench, serve-bench) + committed-artifact
# validation.
# `make ci` / `make ci-fast` are the CI pipeline (lint + check), exactly
# what .github/workflows/ci.yml runs — reproducible locally in one line.

PYTHON ?= python

.PHONY: test test-fast check check-fast lint ci ci-fast check-bench-artifacts \
	clean-pyc serve-bench serve-bench-smoke shard-bench train-bench \
	bench-smoke snapshot warm-serve

test: clean-pyc
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-fast: clean-pyc
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m "not slow"

check:
	bash scripts/check_suite.sh

# The fast CI lane: the same strict gate minus tests marked `slow`.
check-fast:
	bash scripts/check_suite.sh -m "not slow"

# Lint gate (pyflakes-class findings only, no style churn): ruff when
# installed, the bundled scripts/lint.py fallback checker otherwise.
lint:
	$(PYTHON) scripts/lint.py

# Bench-drift guard: run the committed BENCH_train.json /
# BENCH_serve.json trajectories through repro.bench.validate_bench_payload
# (schema, fields and every headline floor), so a hand-edited or stale
# artifact fails the build.
check-bench-artifacts:
	$(PYTHON) scripts/check_bench_artifacts.py

# The CI pipeline, end to end: lint, full strict suite (slow markers
# included), bench smokes, committed-artifact validation.
ci: lint check

# Two-python fast lane run by CI on every push/PR.
ci-fast: lint check-fast

clean-pyc:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	find . -name '*.pyc' -delete

# The serving benchmark: sweeps flush deadline vs throughput through
# the async front end with concurrent producers, asserts prediction
# parity + the headline speedup over per-query serving, then runs the
# quantized uint8 scan, the learned-embedding kNN, the chaos overload
# burst, the streaming-session harness and the model-store
# cold-vs-warm restart leg, asserting each block's preset floors, and
# writes BENCH_serve.json.
serve-bench:
	rm -rf /tmp/repro-model-store.bench
	PYTHONPATH=src $(PYTHON) -m repro.cli serve-bench \
		--store /tmp/repro-model-store.bench
	rm -rf /tmp/repro-model-store.bench

# Tiny-workload serve-bench: runs every block at smoke scale and
# validates the emitted BENCH_serve.json (store restart leg included)
# without overwriting the real trajectory; hooked into
# scripts/check_suite.sh so a broken serving block fails `make check`.
# The artifact is left in /tmp so CI can upload it.
serve-bench-smoke:
	rm -rf /tmp/repro-model-store.smoke /tmp/BENCH_serve.smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.cli serve-bench --preset smoke \
		--store /tmp/repro-model-store.smoke \
		--output /tmp/BENCH_serve.smoke.json
	rm -rf /tmp/repro-model-store.smoke

shard-bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli shard-bench

# Times NObLe/CNNLoc cold fits (seed-equivalent float64 reference vs the
# fused float32 fast path), asserts metric parity + minimum speedup, and
# writes BENCH_train.json — the persistent perf trajectory.
train-bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli train-bench

# Tiny-workload train-bench: validates the emitted BENCH_train.json
# schema without overwriting the real trajectory; hooked into
# scripts/check_suite.sh so a broken bench fails `make check`.  The
# artifact is left in /tmp so CI can upload it.
bench-smoke:
	rm -f /tmp/BENCH_train.smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.cli train-bench --preset smoke \
		--output /tmp/BENCH_train.smoke.json

# Persist a fitted model to ./model-store, then restore and serve it
# without re-fitting — the warm-start deployment story, end to end.
snapshot:
	PYTHONPATH=src $(PYTHON) -m repro.cli snapshot --model noble

warm-serve:
	PYTHONPATH=src $(PYTHON) -m repro.cli warm-serve --model noble
