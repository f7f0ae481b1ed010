"""repro.serving — batched, cached, deadline-driven model serving.

The production-facing seam of the repo.  Four pieces compose:

``registry``
    :class:`Estimator` protocol (``fit(dataset)`` /
    ``predict_batch(raw_signals) -> Prediction``) plus a name-keyed
    registry adapting every localization backend — ``"knn"``,
    ``"noble"``, ``"cnnloc"``, ``"knn-regressor"``, ``"forest"``,
    ``"embed-knn"`` (kNN in a learned embedding space), and the
    multi-backend ``"ensemble"`` (NObLe primary with a kNN fallback
    for out-of-distribution scans).
``pipeline``
    :class:`FeaturePipeline`, the composable feature-space seam the
    kNN-family backends share: one validated embedder → binner →
    sharded-index chain (``transform=``), with the legacy
    ``shards``/``partitioner``/``quantize_bins``/``dtype`` kwargs kept
    working as shims and every stage absent-by-default so existing
    cache keys and on-disk artifacts resolve unchanged.
``cache``
    :class:`ModelCache`, a thread-safe LRU of fitted models keyed by
    dataset fingerprint + hyperparameters, with a per-key in-flight
    guard so a stampede of identical misses fits exactly once.
``batcher``
    :class:`MicroBatcher`, which accumulates single-query requests into
    fixed-size micro-batches served by one vectorized model call
    (internally locked for concurrent producers).
``frontend``
    :class:`ServingFrontend`, the asynchronous front end: a worker
    thread drains the batcher with deadline-based flush (a partial
    batch goes out when its oldest request's latency budget expires),
    bounded-queue backpressure under a pluggable admission policy,
    per-request timeouts, boundary validation (wrong-width and
    non-finite rows are refused at ``submit``), and deterministic
    drain-or-cancel shutdown.
``store`` (re-exported from :mod:`repro.core.persistence`)
    :class:`ModelStore`, the persistent spill tier: versioned on-disk
    artifacts (``save_estimator``/``load_estimator``) keyed like the
    cache, so ``ModelCache(store=ModelStore(dir))`` warm-starts a
    restarted process from disk instead of re-fitting every model.
``sessions``
    The stateful streaming tier: :class:`SessionManager` owns one
    :class:`TrackingSession` per user (any :class:`SessionTracker`
    engine — PDR, map-matching particle filter, or NObLe fingerprint
    snapping), micro-batching concurrent ticks *across users per time
    step* so every served estimate stays bitwise equal to the user's
    solo offline trajectory (:func:`solo_trajectory` is the oracle).
    Sessions checkpoint through the :class:`ModelStore`
    (``repro-session/1`` artifacts, periodic + on-evict + shutdown),
    idle-TTL evict, and warm-restore on the next tick after a restart
    — with an in-flight guard so a restore stampede loads exactly
    once.  :class:`TrackingFrontend` puts the deadline front end on
    top: ``submit(user_id, imu=segment)`` returns a ticket for that
    user's next position.  The ``sessions`` block of ``python -m
    repro.cli serve-bench`` proves throughput, oracle parity, and
    restart recovery.
``resilience`` / ``faults``
    The self-protection layer and the chaos harness that proves it:
    pluggable :class:`AdmissionPolicy` load shedding on the front end
    (:class:`FairShedAdmission` — per-tenant weighted-fair shedding
    with deadline-aware early reject), :class:`RetryPolicy` for
    transient store write failures, a :class:`DelayedEstimator` for
    seeded slow batches (the ``resilience`` block of ``python -m
    repro.cli serve-bench`` runs its overload burst through one), and
    a seeded :class:`FaultInjector` corrupting store artifacts.

Forking
-------
Code that forks around serving objects (e.g. a preforking web server
holding a :class:`ModelCache`) is protected where it matters: the
cache registers an ``os.register_at_fork`` hook that gives children a
fresh lock and in-flight table.  Forking a live
:class:`ServingFrontend` is not supported — create it after the fork.

Typical synchronous loop::

    from repro.serving import MicroBatcher, ModelCache

    cache = ModelCache(capacity=8)
    estimator = cache.get_or_fit("knn", radio_map, k=3)
    batcher = MicroBatcher(estimator, batch_size=64)
    tickets = [batcher.submit(scan) for scan in incoming]
    batcher.flush()
    positions = [t.result().coordinates[0] for t in tickets]

Asynchronous serving under a 50 ms latency budget::

    from repro.serving import ServingFrontend

    with ServingFrontend(estimator, batch_size=64, deadline_ms=50) as fe:
        tickets = [fe.submit(scan) for scan in incoming]
        positions = [t.result().coordinates[0] for t in tickets]

``python -m repro.cli serve-bench`` sweeps deadline vs throughput
through the front end, runs every other serving block, and writes the
``BENCH_serve.json`` trajectory artifact.
"""

from repro.serving.batcher import MicroBatcher, Ticket
from repro.serving.cache import CacheStats, ModelCache, dataset_fingerprint
from repro.serving.faults import DelayedEstimator, FaultInjector
from repro.serving.frontend import (
    AsyncTicket,
    FrontendClosedError,
    FrontendStats,
    QueueFullError,
    RequestTimeoutError,
    ServingFrontend,
    ShedError,
    TenantPane,
)
from repro.serving.pipeline import PIPELINE_STAGES, FeaturePipeline
from repro.serving.resilience import (
    AdmissionPolicy,
    BlockAdmission,
    FairShedAdmission,
    RejectAdmission,
    RetryPolicy,
)
from repro.serving.registry import (
    Estimator,
    Prediction,
    available,
    concatenate,
    create,
    get,
    params_key,
    register,
)

from repro.serving.sessions import (
    SESSION_SCHEMA,
    SessionManager,
    SessionStats,
    SessionTracker,
    StreamingNobleTracker,
    StreamingParticleTracker,
    StreamingPDRTracker,
    TrackingFrontend,
    TrackingSession,
    UnknownSessionError,
    solo_trajectory,
)

# imported last: persistence pulls in the model stacks and reaches back
# into repro.serving.registry, which the lines above fully initialized
from repro.core.persistence import (  # noqa: E402
    ArtifactError,
    ModelStore,
    load_estimator,
    save_estimator,
)

__all__ = [
    "Estimator",
    "Prediction",
    "available",
    "concatenate",
    "create",
    "get",
    "register",
    "params_key",
    "FeaturePipeline",
    "PIPELINE_STAGES",
    "ModelCache",
    "CacheStats",
    "dataset_fingerprint",
    "ModelStore",
    "ArtifactError",
    "save_estimator",
    "load_estimator",
    "MicroBatcher",
    "Ticket",
    "ServingFrontend",
    "AsyncTicket",
    "FrontendStats",
    "TenantPane",
    "QueueFullError",
    "FrontendClosedError",
    "RequestTimeoutError",
    "ShedError",
    "AdmissionPolicy",
    "BlockAdmission",
    "RejectAdmission",
    "FairShedAdmission",
    "RetryPolicy",
    "DelayedEstimator",
    "FaultInjector",
    "SESSION_SCHEMA",
    "SessionManager",
    "SessionStats",
    "SessionTracker",
    "StreamingNobleTracker",
    "StreamingParticleTracker",
    "StreamingPDRTracker",
    "TrackingFrontend",
    "TrackingSession",
    "UnknownSessionError",
    "solo_trajectory",
]
