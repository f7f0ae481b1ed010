"""Deadline-driven asynchronous serving front end.

:class:`repro.serving.MicroBatcher` only drains when a batch fills or
someone calls ``flush()`` — fine for offline evaluation, wrong for a
production front end where the last few requests of a lull would wait
forever.  :class:`ServingFrontend` wraps the batcher in a worker thread
with the four properties a real serving tier needs:

* **deadline-based flush** — every request carries a latency budget
  (``deadline_ms``); a partial batch drains as soon as its *oldest*
  request's budget expires, not only when the batch fills.
* **bounded-queue backpressure** — at most ``max_pending`` requests may
  be queued; beyond that the ``admission=`` policy decides: by default
  ``submit`` blocks until the worker drains
  (:class:`~repro.serving.resilience.BlockAdmission`), or it sheds with
  :class:`ShedError` (``RejectAdmission``, ``FairShedAdmission``).
* **per-request timeouts** — a request still queued when its
  ``timeout_ms`` elapses fails with :class:`RequestTimeoutError`
  instead of being served stale.
* **deterministic shutdown** — ``close(drain=True)`` serves everything
  still queued, ``close(drain=False)`` fails it with
  :class:`FrontendClosedError`; either way every ticket ever returned
  by ``submit`` is resolved when ``close`` returns.

Typical use::

    with ServingFrontend(estimator, batch_size=64, deadline_ms=50) as fe:
        tickets = [fe.submit(scan) for scan in incoming]
        positions = [t.result().coordinates[0] for t in tickets]

Concurrency contract: ``submit`` is safe from any number of producer
threads.  The wrapped :class:`MicroBatcher` is owned exclusively by the
front end's drain path (a single-writer contract — the worker thread,
or the caller of :meth:`pump` in manual mode); nothing else may touch
it.  The batcher itself is also internally locked, so even an aliased
handle cannot corrupt the queue — the contract exists so batch
composition stays deterministic.

Batches run through an in-process :class:`MicroBatcher` over the given
estimator.  ``executor=`` instead accepts any object with
``predict(signals) -> Prediction``, an ``n_batches`` counter, and
``close()`` — :class:`repro.serving.sessions.TrackingFrontend` serves
session ticks that way.  Queueing, deadlines, backpressure, and ticket
semantics are identical either way.

Malformed input never reaches a batch: ``submit`` refuses a row that
holds NaN or inf, or whose width differs from the width the estimator
was fitted on, with ``ValueError`` before admission — one bad scan
cannot fail the well-formed requests it would have been batched with.

Determinism for tests: pass ``clock=`` (any monotonic ``() -> seconds``
callable) and ``start=False`` to get a *manual* front end with no
worker thread; drive it by advancing the fake clock and calling
:meth:`pump`.  All deadline/timeout semantics are expressed against the
injected clock, so the property suite in
``tests/serving/test_deadline_properties.py`` runs without a single
``time.sleep``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.serving.batcher import MicroBatcher
from repro.serving.registry import Estimator, Prediction
from repro.serving.resilience import (
    ADMIT,
    BLOCK,
    EVICT,
    SHED,
    AdmissionPolicy,
    BlockAdmission,
)


class QueueFullError(RuntimeError):
    """``submit`` rejected: the bounded queue is at ``max_pending``."""


class ShedError(QueueFullError):
    """The admission policy shed this request (clean load shedding).

    Subclasses :class:`QueueFullError`, so one ``except`` covers every
    full-queue refusal; raised both for arrivals refused at the door
    and for queued requests evicted by a fairness policy.
    """


class FrontendClosedError(RuntimeError):
    """The front end is closed: submission refused or ticket cancelled."""


class RequestTimeoutError(TimeoutError):
    """A queued request outlived its ``timeout_ms`` and was dropped."""


class AsyncTicket:
    """Future-like handle for one request submitted to the front end.

    Resolved exactly once — either with a single-row
    :class:`repro.serving.Prediction` or with an error
    (:class:`RequestTimeoutError`, :class:`FrontendClosedError`, or
    whatever the model raised).  ``result()`` blocks until then.

    Tickets are deliberately lighter than ``threading.Event``-per-ticket
    futures: all tickets of one front end share its resolution
    condition, which the drain path notifies once per *batch*.  Under
    the GIL, ``_done`` is written last in ``_resolve``/``_fail``, so the
    lock-free fast path in :meth:`result` can never observe a
    half-resolved ticket.
    """

    __slots__ = ("_cond", "_done", "_prediction", "_error", "_submitted_at",
                 "_resolved_at")

    def __init__(self, cond: threading.Condition, submitted_at: float):
        self._cond = cond
        self._done = False
        self._prediction: "Prediction | None" = None
        self._error: "BaseException | None" = None
        self._submitted_at = submitted_at
        self._resolved_at: "float | None" = None

    @property
    def done(self) -> bool:
        """True once the ticket carries a prediction or an error."""
        return self._done

    @property
    def latency_s(self) -> "float | None":
        """Submit-to-resolve time on the front end's clock, once done."""
        if self._resolved_at is None:
            return None
        return self._resolved_at - self._submitted_at

    def _wait(self, timeout: "float | None") -> None:
        if self._done:
            return
        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout):
                raise TimeoutError("ticket not resolved within the wait timeout")

    def result(self, timeout: "float | None" = None) -> Prediction:
        """Block until resolved; return the prediction or raise the error.

        ``timeout`` bounds the *wait* (real seconds) and raises plain
        ``TimeoutError`` when it expires — distinct from
        :class:`RequestTimeoutError`, which means the request itself
        expired inside the queue.
        """
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._prediction

    def exception(self, timeout: "float | None" = None) -> "BaseException | None":
        """Block until resolved; return the recorded error (or None)."""
        self._wait(timeout)
        return self._error

    def _resolve(self, prediction: Prediction, at: float) -> None:
        self._prediction = prediction
        self._resolved_at = at
        self._done = True

    def _fail(self, error: BaseException, at: float) -> None:
        self._error = error
        self._resolved_at = at
        self._done = True


class _BatcherExecutor:
    """Default executor: an in-process :class:`MicroBatcher`.

    ``predict`` delegates to
    :meth:`MicroBatcher.predict_many`, which serves one front-end batch
    as one vectorized model call (the front end never hands over more
    than ``batch_size`` rows at a time).
    """

    __slots__ = ("batcher",)

    def __init__(self, batcher: MicroBatcher):
        self.batcher = batcher

    @property
    def n_batches(self) -> int:
        return self.batcher.n_batches

    def predict(self, signals: np.ndarray) -> Prediction:
        return self.batcher.predict_many(signals)

    def close(self) -> None:
        pass


class _Request:
    """One queued query: its signal, ticket, and clock bookkeeping."""

    __slots__ = ("signal", "ticket", "due", "expires", "tenant")

    def __init__(self, signal, ticket, due, expires, tenant):
        self.signal = signal
        self.ticket = ticket
        self.due = due          # oldest-request flush trigger
        self.expires = expires  # per-request timeout, or None
        self.tenant = tenant    # admission-policy fairness label


class _AdmissionView:
    """Read surface handed to admission policies (under the lock).

    Policies see queue occupancy, per-tenant pending counts, and the
    measured per-request service-time estimate — enough for fairness
    and deadline-aware decisions without touching front-end internals.
    """

    __slots__ = ("_frontend",)

    def __init__(self, frontend: "ServingFrontend"):
        self._frontend = frontend

    @property
    def pending(self) -> int:
        return len(self._frontend._queue)

    @property
    def max_pending(self) -> int:
        return self._frontend.max_pending

    @property
    def tenant_pending(self) -> "dict[str, int]":
        return self._frontend._tenant_pending

    @property
    def service_estimate_s(self) -> "float | None":
        """EWMA seconds-per-request through the executor (None = cold)."""
        return self._frontend._service_ewma_s

    def newest_request_of(self, tenant: str):
        """The most recently queued request of ``tenant`` (or None)."""
        queue = self._frontend._queue
        for request in reversed(queue):
            if request.tenant == tenant:
                return request
        return None


@dataclass
class TenantPane:
    """Per-tenant admission counters inside :class:`FrontendStats`.

    :meth:`to_dict` renders the pane as a plain ``{"pending": ..,
    "admitted": .., "shed": ..}`` dict with stable keys.
    """

    #: Requests of this tenant currently queued.
    pending: int = 0
    #: Requests admitted past the admission policy since startup.
    admitted: int = 0
    #: Requests shed (refused at arrival or evicted for fairness).
    shed: int = 0

    def to_dict(self) -> "dict[str, int]":
        """The pane as a plain dict (stable keys)."""
        return {
            "pending": self.pending,
            "admitted": self.admitted,
            "shed": self.shed,
        }


@dataclass
class FrontendStats:
    """Counters exposed by :meth:`ServingFrontend.stats`.

    The one operator pane: the front end's own lifecycle and admission
    counters plus the attached model cache's ``disk_hits`` /
    ``spill_failures``.  :meth:`to_dict` renders the whole pane as
    JSON-ready plain dicts with stable keys.
    """

    submitted: int
    served: int
    timeouts: int
    rejected: int
    cancelled: int
    pending: int
    batches: int
    #: Total requests shed by the admission policy (refused arrivals
    #: plus queued requests evicted for fairness).
    shed: int = 0
    #: Per-tenant :class:`TenantPane` counters.
    tenants: "dict[str, TenantPane]" = field(default_factory=dict)
    #: EWMA per-request service time through the executor, in ms
    #: (None until the first batch lands).
    service_estimate_ms: "float | None" = None
    #: Disk-tier restores of the attached model cache (``cache=``).
    disk_hits: int = 0
    #: Failed store write-throughs of the attached model cache.
    spill_failures: int = 0

    @property
    def mean_batch_fill(self) -> float:
        """Average queries per model call (batch efficiency)."""
        return self.served / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """The pane as JSON-ready plain dicts (stable keys)."""
        from dataclasses import asdict

        return asdict(self)


class ServingFrontend:
    """Event-loop front end: deadline flush, backpressure, timeouts.

    Parameters
    ----------
    estimator:
        A fitted :class:`repro.serving.Estimator`; served through a
        privately owned :class:`MicroBatcher`.  Its ``n_features_in_``
        (when known) is the only row width ``submit`` accepts.
        Mutually exclusive with ``executor`` — pass exactly one.
    executor:
        Alternative batch execution engine: any object exposing
        ``predict(signals) -> Prediction``, ``n_batches``, and
        ``close()``.  The front end owns it — ``close()`` is called at
        shutdown.
    batch_size:
        Maximum queries per vectorized model call; a full batch drains
        immediately, a partial one when its oldest request's deadline
        expires.
    deadline_ms:
        Default per-request latency budget before a partial batch is
        forced out; ``submit`` can override per request.
    timeout_ms:
        Default per-request expiry: a request still *queued* this long
        after submission fails with :class:`RequestTimeoutError`
        instead of being served.  ``None`` (default) disables expiry.
    max_pending:
        Bound on queued (not yet served) requests — the backpressure
        limit.
    admission:
        Pluggable :class:`~repro.serving.resilience.AdmissionPolicy`
        consulted on every ``submit`` — e.g.
        :class:`~repro.serving.resilience.FairShedAdmission` for
        per-tenant weighted-fair load shedding with deadline-aware
        early reject.  Default:
        :class:`~repro.serving.resilience.BlockAdmission` (``submit``
        waits for the worker to drain).
    cache:
        Optional :class:`~repro.serving.ModelCache` whose
        ``disk_hits`` / ``spill_failures`` counters surface in
        :meth:`stats` (observability only; the front end never touches
        it otherwise).
    clock:
        Monotonic ``() -> seconds`` callable; defaults to
        ``time.monotonic``.  Inject a fake for deterministic tests.
    start:
        When True (default) a daemon worker thread drives the queue.
        ``start=False`` creates a *manual* front end: no thread, the
        caller drives it with :meth:`pump` (pairs with a fake clock).
    """

    def __init__(
        self,
        estimator: "Estimator | None" = None,
        batch_size: int = 64,
        deadline_ms: float = 50.0,
        timeout_ms: "float | None" = None,
        max_pending: int = 1024,
        clock=None,
        start: bool = True,
        executor=None,
        admission: "AdmissionPolicy | None" = None,
        cache=None,
    ):
        if (estimator is None) == (executor is None):
            raise ValueError(
                "pass exactly one of estimator (thread path) or executor"
            )
        if deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if admission is None:
            admission = BlockAdmission()
        elif not isinstance(admission, AdmissionPolicy):
            raise ValueError(
                "admission must be an AdmissionPolicy, got "
                f"{type(admission).__name__}"
            )
        if executor is None:
            # MicroBatcher validates batch_size; the front end is its
            # single writer (see module docstring)
            self.batcher = MicroBatcher(estimator, batch_size=batch_size)
            self.batch_size = self.batcher.batch_size
            self._executor = _BatcherExecutor(self.batcher)
            self._n_features = estimator.n_features_in_
        else:
            if int(batch_size) < 1:
                raise ValueError(f"batch_size must be >= 1, got {batch_size}")
            self.batcher = None
            self.batch_size = int(batch_size)
            self._executor = executor
            self._n_features = None
        self.deadline_ms = float(deadline_ms)
        self.timeout_ms = None if timeout_ms is None else float(timeout_ms)
        self.max_pending = int(max_pending)
        self.admission = admission
        self.cache = cache
        self._clock = time.monotonic if clock is None else clock
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # worker waits here
        self._space = threading.Condition(self._lock)  # blocked producers
        # shared by all tickets; its own lock, always acquired AFTER
        # self._lock (never the reverse), notified once per batch
        self._resolution = threading.Condition()
        self._queue: "deque[_Request]" = deque()
        # cached horizons, kept O(1) on submit and recomputed once per
        # drain cycle: the earliest due time triggers a batch take (a
        # younger request with a shorter per-request deadline can come
        # due before the queue head — the FIFO prefix rides out with
        # it), the earliest expiry only wakes the worker to expire
        self._earliest_due: "float | None" = None
        self._earliest_expiry: "float | None" = None
        self._closed = False
        self.n_submitted = 0
        self.n_served = 0
        self.n_timeouts = 0
        self.n_rejected = 0
        self.n_cancelled = 0
        self.n_shed = 0
        self._tenant_pending: "dict[str, int]" = {}
        self._tenant_stats: "dict[str, dict[str, int]]" = {}
        self._service_ewma_s: "float | None" = None
        self._admission_view = _AdmissionView(self)
        self._worker: "threading.Thread | None" = None
        if start:
            self._worker = threading.Thread(
                target=self._worker_loop, name="serving-frontend", daemon=True
            )
            self._worker.start()

    # ------------------------------------------------------------- producers
    def _tenant_counters_locked(self, tenant: str) -> "dict[str, int]":
        counters = self._tenant_stats.get(tenant)
        if counters is None:
            counters = {"admitted": 0, "shed": 0}
            self._tenant_stats[tenant] = counters
        return counters

    def _drop_tenant_pending_locked(self, tenant: str) -> None:
        remaining = self._tenant_pending.get(tenant, 0) - 1
        if remaining > 0:
            self._tenant_pending[tenant] = remaining
        else:
            self._tenant_pending.pop(tenant, None)

    def _evict_locked(self, victim: _Request) -> None:
        """Shed a queued request so the admission policy can reuse its slot."""
        try:
            self._queue.remove(victim)
        except ValueError:  # raced out of the queue already
            return
        self._drop_tenant_pending_locked(victim.tenant)
        self.n_shed += 1
        self._tenant_counters_locked(victim.tenant)["shed"] += 1
        victim.ticket._fail(
            ShedError(
                "request evicted by the admission policy to admit a "
                "lighter tenant"
            ),
            self._clock(),
        )
        self._recompute_horizons_locked()
        self._notify_resolved()

    def submit(
        self,
        signal: np.ndarray,
        deadline_ms: "float | None" = None,
        timeout_ms: "float | None" = None,
        tenant: str = "default",
    ) -> AsyncTicket:
        """Enqueue one raw RSSI row; returns immediately with a ticket.

        ``deadline_ms`` / ``timeout_ms`` override the front end's
        defaults for this request only; ``tenant`` is the fairness
        label (radio map / backend key) the admission policy sheds by.
        Raises ``ValueError`` for a row that is not 1-D, holds NaN or
        inf, or differs in width from the estimator's fitted width
        (when it reports one);
        :class:`FrontendClosedError` after :meth:`close`; and — per the
        admission policy — either waits for space at the backpressure
        bound (``BlockAdmission``) or refuses the request with
        :class:`ShedError` (a :class:`QueueFullError` subclass).
        """
        signal = np.asarray(signal, dtype=float)
        if signal.ndim != 1:
            raise ValueError(
                f"submit takes a single (W,) signal row, got shape {signal.shape}"
            )
        width = self._n_features
        if width is not None and signal.shape[0] != width:
            raise ValueError(
                f"signal width {signal.shape[0]} does not match the "
                f"{width} features the estimator was fitted on"
            )
        # NaN or inf anywhere makes the dot product non-finite; only then
        # pay for the exact check (a huge finite row can overflow it)
        if not (
            math.isfinite(signal.dot(signal)) or np.isfinite(signal).all()
        ):
            raise ValueError("signal row holds NaN or inf")
        deadline = (self.deadline_ms if deadline_ms is None else deadline_ms) / 1e3
        if deadline <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        timeout = self.timeout_ms if timeout_ms is None else timeout_ms
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        timeout_s = None if timeout is None else timeout / 1e3
        with self._lock:
            if self._closed:
                raise FrontendClosedError("submit on a closed front end")
            while True:
                verb, victim = self.admission.decide(
                    self._admission_view, tenant, timeout_s
                )
                if verb == ADMIT:
                    break
                if verb == EVICT:
                    self._evict_locked(victim)
                    break  # the arrival takes the victim's slot
                if verb == SHED:
                    self.n_rejected += 1
                    self.n_shed += 1
                    self._tenant_counters_locked(tenant)["shed"] += 1
                    raise ShedError(
                        f"request shed by {type(self.admission).__name__}: "
                        f"{len(self._queue)} requests pending "
                        f"(max_pending={self.max_pending})"
                    )
                if verb != BLOCK:
                    raise RuntimeError(
                        f"admission policy returned unknown verb {verb!r}"
                    )
                while len(self._queue) >= self.max_pending and not self._closed:
                    self._space.wait()
                if self._closed:
                    raise FrontendClosedError("front end closed while blocked")
                # space opened up (or the policy blocked below the
                # bound); ask it again against the fresh queue state
            now = self._clock()
            ticket = AsyncTicket(self._resolution, submitted_at=now)
            due = now + deadline
            expires = None if timeout is None else now + timeout / 1e3
            self._queue.append(
                _Request(signal, ticket, due=due, expires=expires, tenant=tenant)
            )
            self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1
            self._tenant_counters_locked(tenant)["admitted"] += 1
            if expires is not None and (
                self._earliest_expiry is None or expires < self._earliest_expiry
            ):
                self._earliest_expiry = expires
            self.n_submitted += 1
            # wake the worker only when its schedule actually changes: a
            # batch just filled, or this request's deadline/timeout lands
            # before the worker's current wake timer
            wake = len(self._queue) >= self.batch_size
            if self._earliest_due is None or due < self._earliest_due:
                self._earliest_due = due
                wake = True
            if expires is not None and expires == self._earliest_expiry:
                wake = True
            if wake:
                self._work.notify()
        return ticket

    # ---------------------------------------------------------- drain logic
    def _notify_resolved(self) -> None:
        """Wake every thread blocked in ``AsyncTicket.result``."""
        with self._resolution:
            self._resolution.notify_all()

    def _recompute_horizons_locked(self) -> None:
        """Rebuild the cached due/expiry horizons after the queue shrank."""
        self._earliest_due = None
        self._earliest_expiry = None
        for request in self._queue:
            if self._earliest_due is None or request.due < self._earliest_due:
                self._earliest_due = request.due
            if request.expires is not None and (
                self._earliest_expiry is None
                or request.expires < self._earliest_expiry
            ):
                self._earliest_expiry = request.expires

    def _expire_locked(self, now: float) -> None:
        """Fail every queued request whose timeout has elapsed."""
        if self._earliest_expiry is None or now < self._earliest_expiry:
            return
        kept = deque()
        for request in self._queue:
            if request.expires is not None and now >= request.expires:
                self.n_timeouts += 1
                self._drop_tenant_pending_locked(request.tenant)
                request.ticket._fail(
                    RequestTimeoutError("request timed out before it was served"),
                    now,
                )
            else:
                kept.append(request)
        self._queue = kept
        self._recompute_horizons_locked()
        # expiry frees queue slots just like a batch take does: without
        # this, producers blocked at max_pending would hang until an
        # unrelated drain happened to notify them
        self._space.notify_all()
        self._notify_resolved()

    def _take_batch_locked(self, now: float) -> "list[_Request]":
        """Pop the next due batch (empty list when nothing is due yet).

        A batch is due when it is full, when the front end is closed
        (drain), or when *any* queued request's deadline has passed —
        the queue drains FIFO, so an overdue request pulls the whole
        prefix ahead of it into the batch.
        """
        self._expire_locked(now)
        if not self._queue:
            return []
        due = (
            self._closed
            or len(self._queue) >= self.batch_size
            or (self._earliest_due is not None and now >= self._earliest_due)
        )
        if not due:
            return []
        batch = [
            self._queue.popleft()
            for _ in range(min(self.batch_size, len(self._queue)))
        ]
        for request in batch:
            self._drop_tenant_pending_locked(request.tenant)
        self._recompute_horizons_locked()
        return batch

    def _next_wake_locked(self, now: float) -> "float | None":
        """Seconds until the next deadline/timeout event (None = idle)."""
        if not self._queue:
            return None
        horizon = self._earliest_due
        if self._earliest_expiry is not None and self._earliest_expiry < horizon:
            horizon = self._earliest_expiry
        return max(horizon - now, 0.0)

    def _serve_batch(self, batch: "list[_Request]") -> None:
        """Run one batch through the executor (single-writer path).

        An executor error — rows of mixed width included, which only an
        estimator that reports no fitted width lets through ``submit``
        — fails the whole batch, and later batches still serve.
        """
        started = self._clock()
        try:
            signals = np.vstack([request.signal for request in batch])
            prediction = self._executor.predict(signals)
        except Exception as error:
            now = self._clock()
            for request in batch:
                request.ticket._fail(error, now)
            self._notify_resolved()
            return
        now = self._clock()
        for i, request in enumerate(batch):
            request.ticket._resolve(prediction.take([i]), now)
        self._notify_resolved()
        per_request = max(now - started, 0.0) / len(batch)
        with self._lock:
            self.n_served += len(batch)
            # EWMA per-request service time feeds the admission policy's
            # deadline-aware early reject (alpha=0.2: smooth but live)
            if self._service_ewma_s is None:
                self._service_ewma_s = per_request
            else:
                self._service_ewma_s += 0.2 * (per_request - self._service_ewma_s)

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while True:
                    if self._closed and not self._queue:
                        return
                    batch = self._take_batch_locked(self._clock())
                    if batch:
                        break
                    self._work.wait(timeout=self._next_wake_locked(self._clock()))
                self._space.notify_all()
            self._serve_batch(batch)

    # ------------------------------------------------------------ manual mode
    def pump(self) -> int:
        """Run one drain cycle against the current clock (manual mode).

        Expires timed-out requests, then — if a batch is due (full, or
        its oldest request's deadline has passed) — serves it.  Returns
        the number of requests taken this cycle.  Only valid on a front
        end built with ``start=False``; threaded front ends drain
        themselves.
        """
        if self._worker is not None:
            raise RuntimeError(
                "pump() is for manual front ends (start=False); "
                "this one has a worker thread"
            )
        with self._lock:
            batch = self._take_batch_locked(self._clock())
            if batch:
                self._space.notify_all()
        if not batch:
            return 0
        self._serve_batch(batch)
        return len(batch)

    # --------------------------------------------------------------- shutdown
    def close(self, drain: bool = True) -> None:
        """Shut down; every outstanding ticket is resolved on return.

        ``drain=True`` serves all queued requests (deadlines no longer
        apply — everything flushes immediately, in FIFO batches);
        ``drain=False`` cancels them with :class:`FrontendClosedError`.
        Idempotent; subsequent :meth:`submit` calls raise
        :class:`FrontendClosedError`.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                if not drain:
                    now = self._clock()
                    cancelled = bool(self._queue)
                    while self._queue:
                        request = self._queue.popleft()
                        self.n_cancelled += 1
                        request.ticket._fail(
                            FrontendClosedError("cancelled at shutdown"), now
                        )
                    self._tenant_pending.clear()
                    self._earliest_due = None
                    self._earliest_expiry = None
                    if cancelled:
                        self._notify_resolved()
            self._work.notify_all()
            self._space.notify_all()
        # never swap _worker out: concurrent close() calls must all join
        # the same thread (join is idempotent), not race one into the
        # manual-drain branch alongside a still-running worker
        if self._worker is not None:
            self._worker.join()
        else:
            while True:
                with self._lock:
                    batch = self._take_batch_locked(self._clock())
                if not batch:
                    break
                self._serve_batch(batch)
        # the front end owns its executor; executors close idempotently
        self._executor.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def n_pending(self) -> int:
        """Requests queued but not yet handed to the model."""
        with self._lock:
            return len(self._queue)

    def stats(self) -> FrontendStats:
        """Current lifecycle counters (see :class:`FrontendStats`),
        plus ``disk_hits`` / ``spill_failures`` of the ``cache=``."""
        with self._lock:
            tenants = {
                tenant: TenantPane(
                    pending=self._tenant_pending.get(tenant, 0),
                    admitted=counters["admitted"],
                    shed=counters["shed"],
                )
                for tenant, counters in self._tenant_stats.items()
            }
            ewma = self._service_ewma_s
            return FrontendStats(
                submitted=self.n_submitted,
                served=self.n_served,
                timeouts=self.n_timeouts,
                rejected=self.n_rejected,
                cancelled=self.n_cancelled,
                pending=len(self._queue),
                batches=self._executor.n_batches,
                shed=self.n_shed,
                tenants=tenants,
                service_estimate_ms=None if ewma is None else ewma * 1e3,
                disk_hits=int(getattr(self.cache, "disk_hits", 0) or 0),
                spill_failures=int(
                    getattr(self.cache, "spill_failures", 0) or 0
                ),
            )

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
