"""Outside-in spans at the serving stack's layer boundaries.

Nothing under ``src/`` is instrumented.  For a traced run the benchmark
wraps the public callables each layer's caller looks up -- an instance
attribute (``frontend.batcher.predict_many``), a proxy handed in where
the caller takes an object (``MicroBatcher.estimator``,
``SessionManager.engine``), or the module attribute a caller imported
by name (``repro.manifold.neighbors.chunked_argkmin``) -- and restores
every original afterwards.  Untraced runs install nothing.

A span is ``(id, name, start, end, parent, tag)`` on ``time.monotonic``;
``parent`` is the innermost open span of the same thread, so self time
is a span's duration minus its children's.  Spans stay in memory and
are written out once, as JSON lines, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

import numpy as np

_MISSING = object()


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def mark(self) -> int:
        """Position in :attr:`spans`; spans recorded later have larger indices."""
        return len(self.spans)

    def begin(self):
        """Open a span on this thread; returns the token :meth:`end` takes."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent, time.monotonic()

    def end(self, token, name: str, tag=None) -> None:
        end = time.monotonic()
        sid, parent, start = token
        self._local.stack.pop()
        self.spans.append((sid, name, start, end, parent, tag))

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording one span per call; ``tag(args)`` labels it."""

        def traced(*args, **kwargs):
            label = tag(args) if tag is not None else None
            token = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token, name, label)

        return traced

    def add(self, name: str, start: float, end: float, parent=-1, tag=None) -> int:
        """Record a span measured elsewhere (e.g. from request stamps)."""
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent, tag))
        return sid

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for sid, name, start, end, parent, tag in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "tag": _jsonable(tag)}
                handle.write(json.dumps(record) + "\n")


def _jsonable(tag):
    if isinstance(tag, tuple):
        return [_jsonable(t) for t in tag]
    if isinstance(tag, np.generic):
        return tag.item()
    if isinstance(tag, np.ndarray):
        return None
    return tag


class Patches:
    """Attribute replacements that :meth:`undo` puts back exactly."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        # an instance attribute that shadowed nothing is deleted on undo,
        # so lookups fall through to the class method again
        previous = vars(owner).get(name, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


class Probe:
    """Transparent proxy: named methods are traced, everything else forwarded."""

    def __init__(self, target, tracer: Tracer, methods: dict):
        self._target = target
        for method, (span, tag) in methods.items():
            setattr(self, method, tracer.wrap(span, getattr(target, method), tag))

    def __getattr__(self, name):
        return getattr(self._target, name)


def rows(args) -> int:
    return len(args[0])


def first_row(args):
    return (len(args[0]), np.array(args[0][0], copy=True))


def scan_shape(args):
    """(query rows, map rows, dims, bytes read) of one chunked_argkmin call.

    Bytes are computed from array sizes, not measured: the query block
    plus one streamed pass over the stored points and their cached
    squared norms per query block of ``resolve_chunk_rows`` rows.
    """
    from repro.manifold.chunked import resolve_chunk_rows

    queries, points = args[0], args[1]
    m = len(queries)
    n, dim = points.shape
    itemsize = int(getattr(points, "storage_itemsize", np.dtype(points.dtype).itemsize))
    blocks = -(-m // resolve_chunk_rows(dim, itemsize)) if m else 0
    read = queries.nbytes + blocks * (n * dim * itemsize + n * 8)
    return (m, n, dim, read)


# ---------------------------------------------------------------- installers
def trace_noble_fit(tracer: Tracer, patches: Patches) -> None:
    """Per-layer forward/backward and optimizer-step spans of a NObLe fit."""
    from repro.localization.noble import NObLeWifi
    from repro.nn.optim import Adam

    build = NObLeWifi._build_model

    def traced_build(self, *args, **kwargs):
        model = build(self, *args, **kwargs)
        for index, layer in enumerate(model):
            label = f"l{index}_{type(layer).__name__.lower()}"
            patches.set(layer, "forward", tracer.wrap(f"nn.forward.{label}", layer.forward))
            patches.set(layer, "backward", tracer.wrap(f"nn.backward.{label}", layer.backward))
        patches.set(model, "forward", tracer.wrap("nn.forward", model.forward))
        patches.set(model, "backward", tracer.wrap("nn.backward", model.backward))
        return model

    patches.set(NObLeWifi, "_build_model", traced_build)
    patches.set(Adam, "step", tracer.wrap("nn.step", Adam.step))


def trace_knn_fit(tracer: Tracer, patches: Patches) -> None:
    from repro.localization.knn import KNNFingerprinting

    patches.set(KNNFingerprinting, "fit", tracer.wrap("knn.fit", KNNFingerprinting.fit))


def trace_point_frontend(tracer: Tracer, patches: Patches, frontend, estimator) -> None:
    """Batch spans on a live :class:`ServingFrontend` over a registry estimator."""
    batcher = frontend.batcher
    patches.set(batcher, "predict_many",
                tracer.wrap("batcher.predict_many", batcher.predict_many, first_row))
    patches.set(batcher, "estimator",
                Probe(estimator, tracer, {"predict_batch": ("registry.predict_batch", rows)}))
    model = estimator.model_
    if hasattr(model, "predict_full"):  # kNN family
        import repro.manifold.neighbors as neighbors

        patches.set(model, "predict_full", tracer.wrap("knn.predict_full", model.predict_full))
        patches.set(model.index_, "query", tracer.wrap("knn.query", model.index_.query))
        patches.set(neighbors, "chunked_argkmin",
                    tracer.wrap("chunked.argkmin", neighbors.chunked_argkmin, scan_shape))
    else:
        patches.set(model, "predict", tracer.wrap("noble.predict", model.predict))


class StoreProbe:
    """Forwarding :class:`ModelStore` proxy remembering each ``path_for``."""

    def __init__(self, store):
        self._store = store
        self.paths: list = []

    def path_for(self, *args):
        path = self._store.path_for(*args)
        self.paths.append(path)
        return path

    def __getattr__(self, name):
        return getattr(self._store, name)


def trace_sessions(tracer: Tracer, patches: Patches, manager) -> dict:
    """Step-batch, step-many and checkpoint-write accounting on a live manager."""
    written = {"files": 0, "bytes": 0}
    store = StoreProbe(manager.store)
    patches.set(manager, "engine",
                Probe(manager.engine, tracer, {"step_many": ("sessions.step_many", rows)}))
    patches.set(manager, "store", store)
    step_batch = manager.step_batch

    def traced_step_batch(items):
        before = manager.stats().checkpoints
        del store.paths[:]
        token = tracer.begin()
        try:
            return step_batch(items)
        finally:
            wrote = manager.stats().checkpoints - before
            tracer.end(token, "sessions.step_batch", (len(items), wrote))
            for path in store.paths[-wrote:] if wrote else ():
                written["files"] += 1
                written["bytes"] += os.path.getsize(path)

    patches.set(manager, "step_batch", traced_step_batch)
    return written


# ------------------------------------------------------------ per-layer view
def _durations(spans, name) -> np.ndarray:
    return np.array([s[3] - s[2] for s in spans if s[1] == name])


def _self_times(spans, name) -> np.ndarray:
    """Duration minus the time the span's direct children cover."""
    covered: dict = {}
    for sid, _, start, end, parent, _ in spans:
        if parent != -1:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return np.array([s[3] - s[2] - covered.get(s[0], 0.0) for s in spans if s[1] == name])


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def request_breakdown(tracer: Tracer, spans, phase, batch_name: str, first_row_of=None) -> dict:
    """Split each request's latency into queue wait, predict and resolve.

    Batches are served FIFO by one worker and every request of the phase
    came from one generator, so the k-th batch span serves the next
    ``rows`` requests.  ``first_row_of(key)`` (when given) confirms the
    mapping against the rows the batch actually received.  Queue wait
    runs from the scheduled send to the batch's predict start, predict
    is the batch span, resolve runs from its end to the ticket's resolve.
    """
    batches = sorted((s for s in spans if s[1] == batch_name), key=lambda s: s[2])
    sizes = [s[5][0] for s in batches]
    scheduled = np.asarray(phase.scheduled)
    resolved = phase.resolved
    n = len(scheduled)
    mapped = sum(sizes) == n
    owner = np.repeat(np.arange(len(batches)), sizes) if mapped else None
    if mapped and first_row_of is not None:
        starts = np.cumsum([0] + sizes[:-1])
        mapped = all(np.array_equal(first_row_of(phase.keys[i]), b[5][1])
                     for i, b in zip(starts, batches))
    latency = resolved - scheduled
    if not mapped:
        return {"mapped": False, "unattributed": 1.0, "queue_wait": np.empty(0),
                "predict": np.empty(0), "resolve": np.empty(0), "busy": 0.0}
    b_start = np.array([b[2] for b in batches])[owner]
    b_end = np.array([b[3] for b in batches])[owner]
    queue_wait = b_start - scheduled
    predict = b_end - b_start
    resolve = resolved - b_end
    parts = np.maximum(queue_wait, 0) + np.maximum(predict, 0) + np.maximum(resolve, 0)
    done = np.isfinite(latency)
    unattributed = float(np.abs(latency - parts)[done].sum() / latency[done].sum())
    last_resolve = np.zeros(len(batches))
    np.maximum.at(last_resolve, owner[done], resolved[done])
    busy = float(np.sum(last_resolve - [b[2] for b in batches])
                 / (np.nanmax(resolved) - scheduled.min()))
    for i in range(n):
        tracer.add("request", scheduled[i], resolved[i],
                   tag=(i, batches[owner[i]][0]))
    return {"mapped": True, "unattributed": unattributed, "queue_wait": queue_wait[done],
            "predict": predict[done], "resolve": resolve[done], "busy": busy}


def layer_metrics(setup_spans, serve_spans, breakdown, phase, stats_delta,
                  written, throughput_plain, throughput_traced) -> dict:
    """Every per-layer metric, zero where a workload never enters the layer."""
    ms = 1e3
    m = {}
    submit_us = (np.asarray(phase.returned) - np.asarray(phase.sent)) * 1e6
    m["frontend.submit_us_p50"] = _p(submit_us, 50)
    m["frontend.submit_us_p99"] = _p(submit_us, 99)
    m["frontend.queue_wait_ms_p50"] = _p(breakdown["queue_wait"], 50) * ms
    m["frontend.queue_wait_ms_p99"] = _p(breakdown["queue_wait"], 99) * ms
    m["frontend.predict_ms_p99"] = _p(breakdown["predict"], 99) * ms
    m["frontend.resolve_ms_p50"] = _p(breakdown["resolve"], 50) * ms
    m["frontend.resolve_ms_p99"] = _p(breakdown["resolve"], 99) * ms
    m["frontend.batches"] = stats_delta["batches"]
    m["frontend.batch_fill_mean"] = (
        stats_delta["served"] / stats_delta["batches"] if stats_delta["batches"] else 0.0)
    m["frontend.worker_busy_fraction"] = breakdown["busy"]
    m["frontend.shed"] = stats_delta["shed"]
    m["frontend.timeouts"] = stats_delta["timeouts"]

    m["batcher.self_ms_p50"] = _p(_self_times(serve_spans, "batcher.predict_many"), 50) * ms
    registry = _durations(serve_spans, "registry.predict_batch")
    m["registry.predict_batch_ms_p50"] = _p(registry, 50) * ms
    m["registry.predict_batch_ms_p99"] = _p(registry, 99) * ms
    m["registry.rows_per_call_mean"] = _mean(
        [s[5] for s in serve_spans if s[1] == "registry.predict_batch"])

    m["knn.query_ms_p50"] = _p(_durations(serve_spans, "knn.query"), 50) * ms
    m["knn.decode_ms_p50"] = _p(_self_times(serve_spans, "knn.predict_full"), 50) * ms
    m["knn.fit_s"] = float(_durations(setup_spans, "knn.fit").sum())
    scans = [s for s in serve_spans if s[1] == "chunked.argkmin"]
    m["chunked.calls"] = len(scans)
    m["chunked.ms_p50"] = _p(_durations(serve_spans, "chunked.argkmin"), 50) * ms
    m["chunked.points_scanned"] = int(sum(s[5][0] * s[5][1] for s in scans))
    m["chunked.bytes_computed"] = int(sum(s[5][3] for s in scans))

    m["noble.predict_ms_p50"] = _p(_durations(serve_spans, "noble.predict"), 50) * ms

    fit = float(_durations(setup_spans, "setup").sum()) if any(
        s[1] == "nn.forward" for s in setup_spans) else 0.0
    parts = {part: float(_durations(setup_spans, f"nn.{part}").sum())
             for part in ("forward", "backward", "step")}
    for part, seconds in parts.items():
        m[f"nn.train.{part}_s"] = seconds
    m["nn.train.other_s"] = fit - sum(parts.values()) if fit else 0.0
    for label in NN_LAYERS:
        for part in ("forward", "backward"):
            m[f"nn.train.{part}_s.{label}"] = float(
                _durations(setup_spans, f"nn.{part}.{label}").sum())

    steps = [s for s in serve_spans if s[1] == "sessions.step_batch"]
    step_ms = np.array([s[3] - s[2] for s in steps]) * ms
    wrote = np.array([s[5][1] for s in steps], dtype=int)
    waves = [s for s in serve_spans if s[1] == "sessions.step_many"]
    m["sessions.step_batch_ms_p50"] = _p(step_ms, 50)
    m["sessions.step_batch_ms_p99"] = _p(step_ms, 99)
    m["sessions.step_many_ms_p50"] = _p(_durations(serve_spans, "sessions.step_many"), 50) * ms
    m["sessions.waves_per_batch_mean"] = len(waves) / len(steps) if steps else 0.0
    m["sessions.users_per_wave_mean"] = _mean([s[5] for s in waves])
    m["sessions.checkpoints"] = int(wrote.sum())
    m["sessions.ckpt_batch_ms_p50"] = _p(step_ms[wrote > 0], 50)
    m["sessions.plain_batch_ms_p50"] = _p(step_ms[wrote == 0], 50)
    m["sessions.ckpt_batch_time_share"] = (
        float(step_ms[wrote > 0].sum() / step_ms.sum()) if len(step_ms) else 0.0)
    m["sessions.restore_ms_p50"] = _p(_durations(setup_spans, "sessions.restore"), 50) * ms
    m["persistence.files"] = written["files"]
    m["persistence.bytes_written"] = written["bytes"]

    m["gen.lag_p99_ms"] = _p(phase.lag_ms, 99)
    m["trace.unattributed_fraction"] = breakdown["unattributed"]
    m["trace.overhead_fraction"] = (
        1.0 - throughput_traced / throughput_plain if throughput_plain else 0.0)
    return m


#: Layers of the default NObLe MLP, as the traced fit labels them.
NN_LAYERS = ("l0_linear", "l1_batchnorm1d", "l2_tanh", "l3_linear",
             "l4_batchnorm1d", "l5_tanh", "l6_linear")
