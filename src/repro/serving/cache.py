"""LRU model/index cache for the serving layer.

Fitting a localization model — training the NObLe network, or even just
building the brute-force kNN index — dominates request latency.  The
cache keys a fitted estimator by (registry name, dataset fingerprint,
hyperparameters) so repeated requests against the same radio map never
re-fit or re-index:

    cache = ModelCache(capacity=8)
    est = cache.get_or_fit("knn", dataset, k=3)   # miss: fits
    est = cache.get_or_fit("knn", dataset, k=3)   # hit: cached instance

The dataset fingerprint is a content digest of the arrays themselves, so
two structurally identical datasets hit the same entry and any mutation
(new survey points, relabeled floors) transparently misses.

The cache is thread-safe: lookups and LRU bookkeeping run under one
lock (a hit stays lock-cheap — a dict probe plus ``move_to_end``), and
a per-key in-flight guard ensures that when many threads miss the same
key at once exactly one of them fits while the rest wait and then share
the fitted instance (a waiter counts as a hit).

With a spill tier (``store=``, a
:class:`repro.core.persistence.ModelStore`), fitted models are written
through to disk on insert and a miss consults the store before
re-fitting::

    cache = ModelCache(capacity=8, store=ModelStore("models/"))
    est = cache.get_or_fit("noble", dataset)  # first process: fits + spills
    # ... process restarts ...
    est = cache.get_or_fit("noble", dataset)  # disk hit: restores, no fit

Disk restores are counted as ``disk_hits`` in :meth:`ModelCache.stats`
and run under the same per-key in-flight guard, so a restart stampede
loads each artifact exactly once.  Store keys are the same (backend,
dataset fingerprint, hyperparameters) triple as memory keys, so a stale
artifact can never serve a changed radio map — new data means a new
fingerprint, which simply misses.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.data.ujiindoor import FingerprintDataset, content_digest
from repro.serving.registry import Estimator, create, params_key

#: Every live cache, so the fork hook below can reach them; weak so the
#: registry never keeps a discarded cache alive.
_LIVE_CACHES: "weakref.WeakSet[ModelCache]" = weakref.WeakSet()
_FORK_HOOK_INSTALLED = False


def _reset_caches_after_fork() -> None:
    """Repair every cache in a freshly forked child.

    A fork can happen while some thread holds a cache's lock or owns an
    in-flight fit; the child inherits the lock *locked* and the
    ``_InFlightFit`` events *unset*, with no thread left alive to ever
    release or set them — the first child thread to touch the cache
    would deadlock.  Fresh lock, empty in-flight table (fitted entries
    are plain data and stay valid; an interrupted owner's fit simply
    re-runs in the child on demand).
    """
    for cache in list(_LIVE_CACHES):
        cache._lock = threading.Lock()
        cache._inflight = {}


def _install_fork_hook() -> None:
    global _FORK_HOOK_INSTALLED
    if _FORK_HOOK_INSTALLED or not hasattr(os, "register_at_fork"):
        return
    os.register_at_fork(after_in_child=_reset_caches_after_fork)
    _FORK_HOOK_INSTALLED = True


def dataset_fingerprint(dataset: FingerprintDataset) -> str:
    """Stable content digest of a fingerprint dataset.

    Hashes shape, dtype, and bytes of every array the models consume
    (rssi, coordinates, floor, building); the optional floor plan and
    spot ids do not affect any estimator and are excluded.  Delegates to
    :meth:`FingerprintDataset.content_fingerprint`, which memoizes the
    digest (datasets are immutable), so only the first call per dataset
    pays the hashing cost; plain objects with the same four array
    attributes hash the slow way.
    """
    fingerprint = getattr(dataset, "content_fingerprint", None)
    if fingerprint is not None:
        return fingerprint()
    return content_digest(
        (dataset.rssi, dataset.coordinates, dataset.floor, dataset.building)
    )


#: Canonical hyperparameter key (shared with ModelStore via the registry).
_params_key = params_key


@dataclass
class CacheStats:
    """Counters exposed by :meth:`ModelCache.stats`.

    ``disk_hits`` counts memory-tier misses resolved by restoring an
    artifact from the spill store instead of re-fitting; they are not
    included in ``hits`` (which stay memory-only) or ``misses`` (which
    mean a fit actually ran).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    disk_hits: int = 0
    #: Write-throughs that failed even after retries (fit kept serving).
    spill_failures: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.disk_hits
        return (self.hits + self.disk_hits) / total if total else 0.0


class _InFlightFit:
    """Rendezvous for threads that missed the same key concurrently."""

    __slots__ = ("done", "error")

    def __init__(self):
        self.done = threading.Event()
        self.error: "BaseException | None" = None


class ModelCache:
    """Thread-safe LRU cache of fitted estimators.

    Parameters
    ----------
    capacity:
        Maximum number of fitted models held; least-recently-used
        entries are evicted beyond it.
    store:
        Optional :class:`repro.core.persistence.ModelStore` spill tier.
        Freshly fitted models are written through on insert (so a later
        process can warm-start), and a memory miss is resolved from disk
        before re-fitting.  Disk-tier eviction is the operator's
        business — the store is a directory, not an LRU.

    Concurrency: safe to share across threads.  A hit takes one short
    lock (dict probe + LRU bump — no hashing, no fitting, well under
    the ~0.1 ms memoized-fingerprint budget).  Concurrent misses of the
    *same* key are collapsed by a per-key in-flight guard: one thread
    fits — or restores from the store — while the others block until
    the result lands and then share the instance (counted as hits).  If
    the owning fit raises, every waiter sees that error.  Misses of
    *different* keys fit in parallel — the lock is never held across
    ``fit`` or disk I/O.

    Fork-safe: a child forked while another thread held the lock (or
    owned an in-flight fit) gets a fresh lock and an empty in-flight
    table via an ``os.register_at_fork`` hook, so touching an inherited
    cache can never deadlock — the orphaned fit simply re-runs in the
    child on demand.
    """

    def __init__(self, capacity: int = 8, store=None, spill_retry=None):
        from repro.serving.resilience import RetryPolicy

        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.store = store
        # transient spill failures (NFS hiccup, briefly full disk) get a
        # small bounded retry before the write-through is abandoned
        self.spill_retry = (
            RetryPolicy(attempts=3, base_delay_s=0.01, max_delay_s=0.1)
            if spill_retry is None
            else spill_retry
        )
        self._entries: "OrderedDict[tuple, Estimator]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: "dict[tuple, _InFlightFit]" = {}
        # forked children inherit the lock/in-flight state of whatever
        # instant the fork hit; the at-fork hook resets both (see
        # _reset_caches_after_fork) so a child can always make progress
        _LIVE_CACHES.add(self)
        _install_fork_hook()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.spill_failures = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_fit(
        self,
        name: str,
        dataset: FingerprintDataset,
        fingerprint: "str | None" = None,
        **hyperparams,
    ) -> Estimator:
        """Return a fitted estimator, fitting (and caching) on first use.

        ``fingerprint`` skips re-hashing the dataset on the hit path —
        pass :func:`dataset_fingerprint`'s output, computed once, when
        serving many requests against the same (immutable) radio map;
        hashing a UJIIndoorLoc-scale dataset costs more than a kNN query.

        Under a concurrent stampede on one key, exactly one caller fits
        (or restores from the spill store); the rest wait on the
        in-flight fit and share its result.
        """
        # key on the estimator's canonicalized params, not the raw kwargs,
        # so omitted defaults / equivalent spellings (k=5 vs k=5.0) dedupe;
        # construction is cheap — adapters only store params until fit()
        estimator = create(name, **hyperparams)
        if fingerprint is None:
            # hash outside the lock: memoized after the first call, and a
            # benign first-call race just computes the same digest twice
            fingerprint = dataset_fingerprint(dataset)
        key = (name, fingerprint, _params_key(estimator.params))
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return cached
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InFlightFit()
                    break  # this thread owns the fit
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            # the fit landed; loop to take it as a hit (or, if it was
            # already evicted by unrelated churn, become the new owner)
        restored = None
        try:
            if self.store is not None:
                # disk probe before the fit, outside the lock; under a
                # restart stampede only this owner thread reaches here,
                # so the artifact is loaded exactly once
                restored = self.store.get(name, fingerprint, key[2])
            if restored is None:
                estimator.fit(dataset)
                if self.store is not None:
                    # spill failures (disk full, permissions) must not
                    # discard a successful fit: transient errors get a
                    # bounded retry, then the memory tier keeps serving
                    # and only the warm-start coverage degrades
                    try:
                        self.spill_retry.call(
                            lambda: self.store.put(
                                name, fingerprint, key[2], estimator
                            ),
                            retry_on=(OSError,),
                        )
                    except Exception as spill_error:
                        import warnings

                        with self._lock:
                            self.spill_failures += 1
                        warnings.warn(
                            f"model store write-through failed for "
                            f"{name!r}: {spill_error}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
        except BaseException as error:
            flight.error = error
            with self._lock:
                self.misses += 1
                self._inflight.pop(key, None)
            flight.done.set()
            raise
        if restored is not None:
            estimator = restored
        with self._lock:
            if restored is not None:
                self.disk_hits += 1
            else:
                self.misses += 1
            self._entries[key] = estimator
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._inflight.pop(key, None)
        flight.done.set()
        return estimator

    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters and occupancy."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
                disk_hits=self.disk_hits,
                spill_failures=self.spill_failures,
            )

    def clear(self) -> None:
        """Drop all cached models and reset the counters.

        In-flight fits are unaffected: they land in the cleared cache
        when they finish.  The spill store is untouched — dropping disk
        artifacts is :meth:`repro.core.persistence.ModelStore.clear`.
        """
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = self.disk_hits = 0
            self.spill_failures = 0
