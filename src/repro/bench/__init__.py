"""Persistent performance benchmarks: training and serving trajectories.

``repro.bench.train`` times NObLe/CNNLoc cold fits through the numpy NN
stack — the seed-equivalent float64 reference loop against the fused
float32 fast path — asserts metric parity between the precisions, and
emits ``BENCH_train.json``.  Run it via ``python -m repro.cli
train-bench`` or ``make train-bench``.

``repro.bench.serve`` drives the deadline-driven async serving front
end (:class:`repro.serving.ServingFrontend`) with concurrent producers,
sweeps flush deadline vs throughput against a naive per-query baseline,
asserts prediction parity on every leg, and emits
``BENCH_serve.json``.  Run it via ``python -m repro.cli serve-bench``.

Both artifacts are schema-tagged; :func:`validate_bench_payload`
dispatches on the tag, and ``make bench-smoke`` / ``make
serve-bench-smoke`` exercise tiny workloads and validate the schemas as
part of ``make check``.
"""

from repro.bench.serve import (
    SERVE_BENCH_SCHEMA,
    SERVE_BENCH_SCHEMA_PREFIX,
    ServeBenchResult,
    run_serve_bench,
    validate_serve_bench_payload,
)
from repro.bench.train import (
    BENCH_SCHEMA,
    TrainBenchResult,
    run_train_bench,
)
from repro.bench.train import (
    validate_bench_payload as validate_train_bench_payload,
)


def validate_bench_payload(payload: dict) -> None:
    """Validate any bench artifact; dispatches on its ``schema`` tag.

    ``repro-serve-bench/*`` payloads go to
    :func:`validate_serve_bench_payload` (which rejects versions other
    than the current one — e.g. a stale ``repro-serve-bench/1``
    artifact fails as a schema mismatch rather than being half-read);
    everything else (including the historical ``repro-train-bench/1``)
    goes to the train-bench validator, which reports an unknown tag as
    a schema mismatch.  Raises ``ValueError`` on problems, including a
    payload that is not a dict.
    """
    if not isinstance(payload, dict):
        raise ValueError("invalid bench payload: must be a JSON object")
    schema = payload.get("schema")
    if isinstance(schema, str) and schema.startswith(SERVE_BENCH_SCHEMA_PREFIX):
        return validate_serve_bench_payload(payload)
    return validate_train_bench_payload(payload)


__all__ = [
    "BENCH_SCHEMA",
    "SERVE_BENCH_SCHEMA",
    "SERVE_BENCH_SCHEMA_PREFIX",
    "TrainBenchResult",
    "ServeBenchResult",
    "run_train_bench",
    "run_serve_bench",
    "validate_bench_payload",
    "validate_train_bench_payload",
    "validate_serve_bench_payload",
]
