"""Process-backed shard workers: the serving tier that escapes the GIL.

Every throughput number before this module was single-core — the
:class:`~repro.serving.frontend.ServingFrontend` and the in-process
:class:`~repro.sharding.ShardedKNNIndex` fan out over *threads*, and
the GIL serializes the numpy-adjacent glue between kernel calls.  This
module moves the shard scans into real processes:

* :class:`ShardWorkerPool` partitions the shards of a fitted sharded
  ``knn`` estimator across N worker processes.  Each worker
  **warm-starts** by restoring the estimator from the
  :class:`~repro.core.persistence.ModelStore` (PR 5 artifacts carry the
  finished ``shard_state``, so a restore skips the partition fit and
  costs milliseconds plus interpreter startup) and then serves scan
  requests over the shared-memory rings of :mod:`repro.serving.shm` —
  query matrix in, per-shard top-k candidates out, no pickling on the
  hot path.
* The parent scatters each micro-batch to every worker, gathers the
  per-worker candidates, and merges them with the same tie-ordered
  top-k the in-process fan-out uses
  (:func:`repro.manifold.chunked.tie_ordered_top_k`), then computes
  predictions from the merged neighbor sets in-process
  (:meth:`~repro.localization.knn.KNNFingerprinting.predict_from_neighbors`).
  Results are bit-compatible with the thread path's.
* **Crash recovery**: a worker that dies (or stops heartbeating) is
  detected during dispatch/gather, respawned from the same store
  artifact, and the in-flight batch is re-dispatched.  Stale results
  from the pre-crash incarnation are discarded by batch-id stamping.

Spawn-vs-fork policy: workers use the **spawn** context (see
:mod:`repro.serving` for the rationale); the worker entrypoint
:func:`_worker_main` is module-level and takes only picklable scalars.

:class:`WorkerPoolExecutor` adapts a pool to the front end's executor
seam, so ``ServingFrontend(executor=WorkerPoolExecutor(pool))`` keeps
the exact ``submit()``/``AsyncTicket``/deadline semantics while batches
execute across processes.  :func:`make_worker_frontend` wires the whole
stack with graceful fallback to the thread path when ``workers=0`` or
shared memory is unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time

import numpy as np

from repro.serving.registry import Prediction
from repro.serving.shm import (
    CORRUPT_SLOT,
    RingSpec,
    WorkerChannel,
    _spin,
    shm_available,
)

#: Worker processes always use the spawn start method (fresh
#: interpreter, no inherited locks); see the package docstring.
WORKER_START_METHOD = "spawn"


class WorkerPoolError(RuntimeError):
    """The worker pool cannot serve: spawn failed, or a batch was lost."""


def _worker_main(
    worker_id: int,
    channel_name: str,
    spec_tuple: "tuple[int, int, int, int]",
    store_dir: str,
    backend: str,
    fingerprint: str,
    params_key: str,
    shard_ids: "list[int]",
) -> None:
    """Entry point of one spawned shard worker.

    Attaches the shared channel, warm-starts the estimator from the
    model store, then serves: pop a normalized query batch, scan the
    owned shards, push the local top-k (padded to the ring's ``k``
    columns with ``inf``/``-1`` so slot shapes stay fixed), heartbeat,
    repeat until the stop flag.
    """
    channel = WorkerChannel(RingSpec(*spec_tuple), name=channel_name)
    try:
        from repro.core.persistence import ModelStore

        estimator = ModelStore(store_dir).get(backend, fingerprint, params_key)
        if estimator is None:
            channel.set_ready(ok=False)
            return
        index = estimator.model_.index_
        k_slot = channel.spec.k
        channel.set_ready()
        while not channel.stop_requested():
            channel.bump_heartbeat()
            item = channel.queries.pop(
                timeout=0.05, abort=channel.stop_requested
            )
            if item is None:
                continue
            if item is CORRUPT_SLOT:
                continue  # corrupted query slot: parent re-dispatches
            batch_id, n_rows, k, queries = item
            distances, indices = index.scan_shards(
                shard_ids, queries, min(k, k_slot)
            )
            if distances.shape[1] < k_slot:
                pad = k_slot - distances.shape[1]
                distances = np.pad(
                    distances, ((0, 0), (0, pad)), constant_values=np.inf
                )
                indices = np.pad(
                    indices, ((0, 0), (0, pad)), constant_values=-1
                )
            channel.results.push(
                batch_id, n_rows, distances, indices, extra=k,
                abort=channel.stop_requested,
            )
            channel.bump_heartbeat()
    except KeyboardInterrupt:
        pass
    finally:
        channel.close()


class _WorkerHandle:
    """Parent-side state of one worker: process, channel, shard slice."""

    __slots__ = ("worker_id", "shard_ids", "channel", "process",
                 "last_heartbeat", "last_beat_at", "consecutive_respawns")

    def __init__(self, worker_id, shard_ids, channel):
        self.worker_id = worker_id
        self.shard_ids = shard_ids
        self.channel = channel
        self.process = None
        self.last_heartbeat = -1
        self.last_beat_at = 0.0
        self.consecutive_respawns = 0


def _partition_shards(sizes: "list[int]", n_workers: int) -> "list[list[int]]":
    """Balanced shard→worker assignment: largest shards first, greedily
    onto the lightest worker, so per-worker scan work stays even."""
    buckets = [[] for _ in range(n_workers)]
    loads = [0] * n_workers
    for shard in sorted(range(len(sizes)), key=lambda s: -sizes[s]):
        lightest = loads.index(min(loads))
        buckets[lightest].append(shard)
        loads[lightest] += sizes[shard]
    return [sorted(bucket) for bucket in buckets]


class ShardWorkerPool:
    """N shard-worker processes serving exact top-k over shared memory.

    Parameters
    ----------
    estimator:
        A **fitted** ``knn`` registry estimator with a sharded index
        (``shards > 1``); its shards are partitioned across the
        workers.
    store:
        :class:`~repro.core.persistence.ModelStore` the workers
        warm-start from.  The estimator's artifact is written through
        on construction if the store does not already hold it.
    fingerprint:
        Dataset fingerprint of the radio map the estimator was fitted
        on (:func:`repro.serving.dataset_fingerprint`) — the store-key
        component that ties workers to the parent's exact model.
    n_workers:
        Worker process count; clamped to the shard count (an idle
        worker with zero shards would add spawn cost for nothing).
    max_rows:
        Largest query batch shipped in one ring slot; larger matrices
        are chunked transparently by :meth:`query`.
    n_slots:
        Ring depth per direction.
    spawn_timeout_s / batch_timeout_s:
        Bounds on worker warm-start and on one batch's round trip
        (after respawn attempts) before :class:`WorkerPoolError`.
    heartbeat_timeout_s:
        A worker whose heartbeat stalls this long mid-gather is
        declared dead and respawned even if the process object still
        reports alive (wedged child).
    respawn_budget / respawn_window_s:
        Token bucket bounding respawn storms: at most ``respawn_budget``
        respawns per rolling ``respawn_window_s`` window; past the
        budget :class:`WorkerPoolError` is raised instead of respawning
        (the tier is unhealthy — let a circuit breaker degrade).
    respawn_backoff_s / respawn_backoff_cap_s:
        Capped exponential backoff (with seeded jitter) between
        consecutive respawns of the *same* worker, so a crash-looping
        child does not hot-spin the spawn path.
    dispatch_retries:
        Bound on re-dispatches of one in-flight batch to a respawned
        worker before the batch fails with :class:`WorkerPoolError`.
    """

    def __init__(
        self,
        estimator,
        store,
        fingerprint: str,
        n_workers: int,
        max_rows: int = 256,
        n_slots: int = 4,
        spawn_timeout_s: float = 60.0,
        batch_timeout_s: float = 60.0,
        heartbeat_timeout_s: float = 10.0,
        respawn_budget: int = 8,
        respawn_window_s: float = 60.0,
        respawn_backoff_s: float = 0.05,
        respawn_backoff_cap_s: float = 2.0,
        dispatch_retries: int = 3,
        seed: int = 0,
    ):
        from repro.serving.registry import params_key as canonical_params_key
        from repro.sharding.index import ShardedKNNIndex

        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        # timeouts first, before any estimator probing: a non-positive
        # timeout used to construct silently and disable wedge detection
        if spawn_timeout_s <= 0:
            raise ValueError(
                f"spawn_timeout_s must be > 0, got {spawn_timeout_s}"
            )
        if batch_timeout_s <= 0:
            raise ValueError(
                f"batch_timeout_s must be > 0, got {batch_timeout_s}"
            )
        if heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0, got {heartbeat_timeout_s}"
            )
        if respawn_budget < 1:
            raise ValueError(
                f"respawn_budget must be >= 1, got {respawn_budget}"
            )
        if respawn_window_s <= 0:
            raise ValueError(
                f"respawn_window_s must be > 0, got {respawn_window_s}"
            )
        if respawn_backoff_s < 0:
            raise ValueError(
                f"respawn_backoff_s must be >= 0, got {respawn_backoff_s}"
            )
        if respawn_backoff_cap_s < respawn_backoff_s:
            raise ValueError(
                "respawn_backoff_cap_s must be >= respawn_backoff_s, got "
                f"{respawn_backoff_cap_s}"
            )
        if dispatch_retries < 0:
            raise ValueError(
                f"dispatch_retries must be >= 0, got {dispatch_retries}"
            )
        if getattr(estimator, "registry_name", None) != "knn":
            raise WorkerPoolError(
                "ShardWorkerPool serves the 'knn' backend; got "
                f"{getattr(estimator, 'registry_name', type(estimator).__name__)!r}"
            )
        model = getattr(estimator, "model_", None)
        if model is None:
            raise WorkerPoolError("estimator must be fitted before pooling")
        if not isinstance(model.index_, ShardedKNNIndex):
            raise WorkerPoolError(
                "the fitted index is monolithic; fit with shards > 1 so "
                "workers have shard subsets to own"
            )
        if not shm_available():
            raise WorkerPoolError(
                "shared memory is unavailable on this system; use the "
                "thread front end instead (workers=0)"
            )
        self.estimator = estimator
        self.model = model
        self.index = model.index_
        self.store = store
        self.fingerprint = str(fingerprint)
        self.params_key = canonical_params_key(estimator.params)
        self.backend = estimator.registry_name
        self.k = int(model.k)
        self.n_workers = min(int(n_workers), self.index.n_shards)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.batch_timeout_s = float(batch_timeout_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.respawn_budget = int(respawn_budget)
        self.respawn_window_s = float(respawn_window_s)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.respawn_backoff_cap_s = float(respawn_backoff_cap_s)
        self.dispatch_retries = int(dispatch_retries)
        self._rng = random.Random(seed)
        self._respawn_tokens = float(respawn_budget)
        self._respawn_refill_at = time.monotonic()
        self.spec = RingSpec(
            n_slots=n_slots,
            max_rows=max_rows,
            width=self.index.points.shape[1],
            k=self.k,
        )
        self._context = multiprocessing.get_context(WORKER_START_METHOD)
        self._batch_counter = 0
        self.respawns = 0
        self.n_batches = 0
        self.n_corrupt_slots = 0
        self.n_store_heals = 0
        self._closed = False

        # the workers restore from disk: make sure the artifact exists
        # before any of them race to read it
        path = store.path_for(self.backend, self.fingerprint, self.params_key)
        if not os.path.exists(path):
            store.put(self.backend, self.fingerprint, self.params_key, estimator)

        assignment = _partition_shards(self.index.shard_sizes, self.n_workers)
        self.workers = [
            _WorkerHandle(i, shard_ids, WorkerChannel(self.spec, create=True))
            for i, shard_ids in enumerate(assignment)
        ]
        try:
            for handle in self.workers:
                self._spawn(handle)
            for handle in self.workers:
                self._wait_ready(handle)
        except BaseException:
            self.close()
            raise

    # ----------------------------------------------------------- lifecycle
    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.channel.reset()
        process = self._context.Process(
            target=_worker_main,
            args=(
                handle.worker_id,
                handle.channel.name,
                self.spec.as_tuple(),
                os.fspath(self.store.directory),
                self.backend,
                self.fingerprint,
                self.params_key,
                list(handle.shard_ids),
            ),
            name=f"shard-worker-{handle.worker_id}",
            daemon=True,
        )
        process.start()
        # published only once started: close() and _reap() join
        # handle.process, and joining a never-started process raises
        # (which would mask the start error and leak every segment)
        handle.process = process
        handle.last_heartbeat = -1
        handle.last_beat_at = time.monotonic()

    def _wait_ready(self, handle: _WorkerHandle) -> None:
        state = _spin(
            handle.channel.ready_state,
            lambda s: s != 0,
            timeout=self.spawn_timeout_s,
            abort=lambda: not handle.process.is_alive(),
        )
        if state != 1:
            detail = (
                "could not warm-start from the model store (artifact "
                "missing or unreadable)"
                if state == -1
                else "did not become ready "
                     f"(alive={handle.process.is_alive()})"
            )
            raise WorkerPoolError(
                f"shard worker {handle.worker_id} {detail}"
            )

    def _spend_respawn_token(self) -> None:
        """Charge the respawn token bucket; raise when the budget is dry.

        Tokens refill continuously at ``respawn_budget`` per
        ``respawn_window_s`` — a steady trickle of crashes is absorbed,
        a storm exhausts the bucket and turns into
        :class:`WorkerPoolError` so a circuit breaker above can degrade
        to the thread path instead of respawning forever.
        """
        now = time.monotonic()
        elapsed = now - self._respawn_refill_at
        if elapsed > 0:
            self._respawn_tokens = min(
                float(self.respawn_budget),
                self._respawn_tokens
                + elapsed * self.respawn_budget / self.respawn_window_s,
            )
        self._respawn_refill_at = now
        if self._respawn_tokens < 1.0:
            raise WorkerPoolError(
                f"respawn budget exhausted ({self.respawn_budget} per "
                f"{self.respawn_window_s:.0f}s window); worker tier is "
                "unhealthy"
            )
        self._respawn_tokens -= 1.0

    def _reap(self, handle: _WorkerHandle) -> None:
        """Make sure a worker process is really gone before respawning.

        SIGTERM is never delivered to a SIGSTOPped child, so a wedged
        (stopped) worker must be escalated to SIGKILL — which stopped
        processes cannot block — before its rings are reset.
        """
        process = handle.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _spawn_ready(self, handle: _WorkerHandle) -> None:
        """Spawn + warm-start, self-healing a quarantined artifact once.

        A worker that cannot restore usually means the on-disk artifact
        was corrupted (and quarantined by the store on read).  The
        parent still holds the fitted estimator, so re-write the
        artifact and retry once before declaring the tier unhealthy.
        """
        self._spawn(handle)
        try:
            self._wait_ready(handle)
        except WorkerPoolError:
            self.store.put(
                self.backend, self.fingerprint, self.params_key, self.estimator
            )
            self.n_store_heals += 1
            self._reap(handle)
            self._spawn(handle)
            self._wait_ready(handle)

    def _respawn(self, handle: _WorkerHandle) -> None:
        """Replace a dead/wedged worker; its rings are reset, so any
        in-flight batch must be re-dispatched by the caller.

        Bounded by the pool-wide token bucket (respawn storms raise
        :class:`WorkerPoolError`) and paced by capped exponential
        backoff per worker, with seeded jitter so several crash-looping
        workers do not respawn in lockstep.
        """
        self._spend_respawn_token()
        self._reap(handle)
        if self.respawn_backoff_s and handle.consecutive_respawns:
            backoff = min(
                self.respawn_backoff_cap_s,
                self.respawn_backoff_s
                * (2.0 ** (handle.consecutive_respawns - 1)),
            )
            time.sleep(backoff * (1.0 + 0.25 * self._rng.random()))
        handle.consecutive_respawns += 1
        self.respawns += 1
        self._spawn_ready(handle)

    def _dead(self, handle: _WorkerHandle) -> bool:
        """Crash/wedge detection: the heartbeat slot plus liveness."""
        if not handle.process.is_alive():
            return True
        beat = handle.channel.heartbeat()
        now = time.monotonic()
        if beat != handle.last_heartbeat:
            handle.last_heartbeat = beat
            handle.last_beat_at = now
            return False
        return now - handle.last_beat_at > self.heartbeat_timeout_s

    def close(self) -> None:
        """Stop workers, join them, and unlink every segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self.workers:
            handle.channel.request_stop()
        for handle in self.workers:
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                if handle.process.is_alive():
                    # a SIGSTOPped child ignores SIGTERM; SIGKILL does not
                    handle.process.kill()
                    handle.process.join(timeout=5.0)
        for handle in self.workers:
            handle.channel.close()
            handle.channel.unlink()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --------------------------------------------------------------- serving
    def query(
        self, queries: np.ndarray, k: "int | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact global ``(distances, indices)`` over all shards.

        ``queries`` are **normalized** signal rows (the space the index
        was built in).  Matrices wider than one ring slot are chunked.
        Equal to ``index.query(queries, k)``, ties included.
        """
        if self._closed:
            raise WorkerPoolError("query on a closed worker pool")
        queries = np.ascontiguousarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.spec.width:
            raise ValueError(
                f"queries must be (M, {self.spec.width}), got shape "
                f"{queries.shape}"
            )
        k = self.k if k is None else int(k)
        if not 1 <= k <= self.spec.k:
            raise ValueError(
                f"k must be in [1, {self.spec.k}] for this pool, got {k}"
            )
        if len(queries) == 0:
            eff_k = min(k, len(self.index.points))
            return (
                np.empty((0, eff_k)), np.empty((0, eff_k), dtype=int)
            )
        parts = [
            self._run_chunk(queries[start : start + self.spec.max_rows], k)
            for start in range(0, len(queries), self.spec.max_rows)
        ]
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([d for d, _ in parts]),
            np.concatenate([i for _, i in parts]),
        )

    def _run_chunk(self, queries, k):
        """Scatter one ≤max_rows batch to every worker, gather, merge."""
        from repro.manifold.chunked import tie_ordered_top_k

        self._batch_counter += 1
        batch_id = self._batch_counter
        for handle in self.workers:
            self._dispatch(handle, batch_id, queries, k)
        gathered = [
            self._gather(handle, batch_id, queries, k)
            for handle in self.workers
        ]
        self.n_batches += 1
        cand_d = np.concatenate([d for d, _ in gathered], axis=1)
        cand_i = np.concatenate([i for _, i in gathered], axis=1)
        eff_k = min(k, len(self.index.points))
        return tie_ordered_top_k(cand_d, cand_i, eff_k)

    def _dispatch(self, handle, batch_id, queries, k) -> None:
        deadline = time.monotonic() + self.batch_timeout_s
        while True:
            if handle.channel.queries.try_push(
                batch_id, len(queries), queries, extra=k
            ):
                return
            if self._dead(handle):
                self._respawn(handle)  # resets the rings: retry the push
                continue
            if time.monotonic() >= deadline:
                raise WorkerPoolError(
                    f"shard worker {handle.worker_id} did not accept batch "
                    f"{batch_id} within {self.batch_timeout_s:.0f}s"
                )
            time.sleep(5e-5)

    def _gather(self, handle, batch_id, queries, k):
        """One worker's ``(distances, indices)`` for ``batch_id``.

        Discards stale slots from pre-respawn incarnations; a worker
        that dies mid-batch is respawned and the batch re-dispatched —
        at most ``dispatch_retries`` times (each retry spends a respawn
        token when the worker is dead) before the batch fails with
        :class:`WorkerPoolError`.  A checksum-failed result slot
        (:data:`~repro.serving.shm.CORRUPT_SLOT`) is counted and the
        batch re-dispatched to the (healthy) worker — never merged.
        """
        deadline = time.monotonic() + self.batch_timeout_s
        redispatches = 0
        while True:
            item = handle.channel.results.try_pop()
            if item is CORRUPT_SLOT:
                # payload failed its checksum: the data is gone but the
                # worker is healthy — recompute instead of respawn
                self.n_corrupt_slots += 1
                redispatches += 1
                if redispatches > self.dispatch_retries:
                    raise WorkerPoolError(
                        f"shard worker {handle.worker_id} failed batch "
                        f"{batch_id} after {self.dispatch_retries} "
                        "re-dispatches (corrupt result slots)"
                    )
                self._dispatch(handle, batch_id, queries, k)
                continue
            if item is not None:
                result_id, _n_rows, _extra, distances, indices = item
                if result_id == batch_id:
                    handle.consecutive_respawns = 0
                    return distances, indices
                continue  # stale batch from before a crash: drop it
            if self._dead(handle):
                redispatches += 1
                if redispatches > self.dispatch_retries:
                    raise WorkerPoolError(
                        f"shard worker {handle.worker_id} lost batch "
                        f"{batch_id} after {self.dispatch_retries} "
                        "re-dispatches"
                    )
                self._respawn(handle)
                self._dispatch(handle, batch_id, queries, k)
                continue
            if time.monotonic() >= deadline:
                raise WorkerPoolError(
                    f"shard worker {handle.worker_id} lost batch {batch_id} "
                    f"({self.batch_timeout_s:.0f}s timeout)"
                )
            time.sleep(5e-5)

    def predict(self, signals: np.ndarray) -> Prediction:
        """Serve raw RSSI rows end to end: featurize in the parent
        (normalize, plus the model's learned embedding when it has
        one), scan across the workers, reduce to a :class:`Prediction`."""
        featurized = self.model._signals(self.estimator._as_dataset(signals))
        distances, indices = self.query(featurized, k=self.k)
        coordinates, building, floor = self.model.predict_from_neighbors(
            distances, indices
        )
        return Prediction(
            coordinates=coordinates, building=building, floor=floor
        )

    def heartbeats(self) -> "list[int]":
        """Current heartbeat counters, one per worker (observability)."""
        return [handle.channel.heartbeat() for handle in self.workers]


class WorkerPoolExecutor:
    """Adapter: a :class:`ShardWorkerPool` behind the front end's
    executor seam (``predict(signals) -> Prediction`` + ``n_batches``).

    ``close_pool=True`` hands pool ownership to the front end (its
    ``close()`` tears the workers down); the default leaves the pool
    alive so several front ends (or bench repeats) can share it.
    """

    def __init__(self, pool: ShardWorkerPool, close_pool: bool = False):
        self.pool = pool
        self._close_pool = bool(close_pool)
        # counted here, not delegated to the pool: several executors can
        # share one pool (e.g. bench repeats) and each front end's
        # batch counters must cover only its own traffic
        self.n_batches = 0

    def predict(self, signals: np.ndarray) -> Prediction:
        prediction = self.pool.predict(signals)
        self.n_batches += 1
        return prediction

    def close(self) -> None:
        if self._close_pool:
            self.pool.close()


def make_worker_frontend(
    estimator,
    store,
    fingerprint: str,
    workers: int,
    max_rows: "int | None" = None,
    **frontend_kwargs,
):
    """A :class:`~repro.serving.ServingFrontend` over ``workers``
    shard processes, falling back to the thread path gracefully.

    ``workers == 0`` — or shared memory being unavailable — returns the
    plain thread front end over ``estimator``; otherwise the pool is
    built (spawn + warm-start from ``store``), owned by the returned
    front end, and torn down by its ``close()``.
    """
    from repro.serving.frontend import ServingFrontend

    if workers and shm_available():
        batch_size = frontend_kwargs.get("batch_size", 64)
        pool = ShardWorkerPool(
            estimator,
            store,
            fingerprint=fingerprint,
            n_workers=workers,
            max_rows=max_rows if max_rows is not None else batch_size,
        )
        return ServingFrontend(
            executor=WorkerPoolExecutor(pool, close_pool=True),
            **frontend_kwargs,
        )
    return ServingFrontend(estimator, **frontend_kwargs)
