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
    bounded-queue backpressure (``block`` or ``reject``), per-request
    timeouts, and deterministic drain-or-cancel shutdown.
``store`` (re-exported from :mod:`repro.core.persistence`)
    :class:`ModelStore`, the persistent spill tier: versioned on-disk
    artifacts (``save_estimator``/``load_estimator``) keyed like the
    cache, so ``ModelCache(store=ModelStore(dir))`` warm-starts a
    restarted process from disk instead of re-fitting every model.
``workers`` / ``shm``
    The multi-process execution tier: :class:`ShardWorkerPool` scatters
    each micro-batch to N shard-worker processes over shared-memory
    ring buffers and merges their per-shard top-k exactly; plugged into
    the front end via ``executor=`` (:class:`WorkerPoolExecutor`) or
    all at once with :func:`make_worker_frontend`, which falls back to
    the thread path when ``workers=0`` or shared memory is unavailable.
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
    with deadline-aware early reject), :class:`CircuitBreaker` +
    :class:`FallbackExecutor` degrading an unhealthy worker tier to the
    thread path (and probing it back), :class:`RetryPolicy` for
    transient store/dispatch failures, and a seeded
    :class:`FaultInjector` (worker kills, heartbeat stalls, shm slot
    and store-artifact corruption) driving the ``resilience`` block of
    ``python -m repro.cli serve-bench``.

Spawn-vs-fork policy
--------------------
Worker processes are started with the **spawn** method, never fork:

* a forked child inherits every lock, condition variable, and
  in-flight event of the parent at the instant of the fork — with the
  owning threads gone, any of them can deadlock the child.  A spawned
  worker begins from a clean interpreter and warm-starts its model
  from the :class:`ModelStore` artifact instead (milliseconds, since
  PR 5 artifacts carry the finished shard state).
* spawn keeps worker memory disjoint by construction, so the only
  shared state is the explicitly designed shared-memory channel of
  :mod:`repro.serving.shm`.

Code that *does* fork around serving objects (e.g. a preforking web
server holding a :class:`ModelCache`) is still protected where it
matters: the cache registers an ``os.register_at_fork`` hook that
gives children a fresh lock and in-flight table.  Forking a live
:class:`ServingFrontend` or :class:`ShardWorkerPool` is not supported
— create them after the fork.

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
through the front end — and, with ``--workers N``, through the
process-backed tier — runs every other serving block, and writes the
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
    CircuitBreaker,
    FairShedAdmission,
    FallbackExecutor,
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
from repro.serving.shm import shm_available
from repro.serving.workers import (
    ShardWorkerPool,
    WorkerPoolError,
    WorkerPoolExecutor,
    make_worker_frontend,
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
    "ShardWorkerPool",
    "WorkerPoolExecutor",
    "WorkerPoolError",
    "make_worker_frontend",
    "shm_available",
    "ShedError",
    "AdmissionPolicy",
    "BlockAdmission",
    "RejectAdmission",
    "FairShedAdmission",
    "CircuitBreaker",
    "RetryPolicy",
    "FallbackExecutor",
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
