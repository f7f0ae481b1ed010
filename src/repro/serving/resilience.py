"""Self-protection primitives for the serving tier.

A hot tenant can flood the front end's bounded queue and starve
everyone else, and a transient store hiccup can cascade into a refit
stampede.  This module holds the policies that bound those failures:

* **Admission policies** — pluggable load-shedding strategies for
  :class:`~repro.serving.frontend.ServingFrontend` (``admission=``).
  :class:`BlockAdmission` (the default) makes producers wait for space
  at the bound, :class:`RejectAdmission` refuses them, and
  :class:`FairShedAdmission` adds per-tenant weighted-fair shedding
  (one hot radio map cannot starve the rest) and deadline-aware early
  reject (work that cannot meet its timeout given the measured
  in-queue latency is refused at the door instead of timing out after
  consuming a queue slot).
* **RetryPolicy** — bounded attempts with capped exponential backoff
  and deterministic seeded jitter, used by the model cache's
  write-through spill to the store.

Everything here is deterministic under an injected service-time
estimate and a seeded ``random`` stream, so the property tests never
sleep.
"""

from __future__ import annotations

import random
import time


# --------------------------------------------------------------------------
# admission control
# --------------------------------------------------------------------------

#: Decision verbs an admission policy may return (first tuple element).
ADMIT = "admit"
BLOCK = "block"
SHED = "shed"
EVICT = "evict"


class AdmissionPolicy:
    """Decides what happens to each arriving request.

    :meth:`decide` runs under the front end's lock on every ``submit``
    and must stay allocation-light.  It returns ``(verb, victim)``:

    - ``("admit", None)`` — enqueue the request;
    - ``("block", None)`` — the producer waits for queue space, then
      the policy is asked again;
    - ``("shed", None)`` — refuse the arriving request with
      :class:`~repro.serving.frontend.ShedError`;
    - ``("evict", request)`` — shed ``request`` (a currently queued
      :class:`_Request` obtained from the view) to make room, then
      admit the arrival.
    """

    def decide(self, view, tenant: str, timeout_s: "float | None"):
        raise NotImplementedError


class BlockAdmission(AdmissionPolicy):
    """The default policy: wait for space at the bound."""

    def decide(self, view, tenant, timeout_s):
        if view.pending < view.max_pending:
            return (ADMIT, None)
        return (BLOCK, None)


class RejectAdmission(AdmissionPolicy):
    """Refuse arrivals at the bound with a ``ShedError``."""

    def decide(self, view, tenant, timeout_s):
        if view.pending < view.max_pending:
            return (ADMIT, None)
        return (SHED, None)


class FairShedAdmission(AdmissionPolicy):
    """Weighted-fair shedding with deadline-aware early reject.

    Each tenant (radio map / backend key — any string label) owns a
    weighted fair share of the bounded queue.  Below the bound every
    request is admitted; *at* the bound the most-over-share tenant
    pays: if the arriving tenant is itself the most loaded (normalized
    by weight) its request is shed, otherwise the newest queued request
    of the most loaded tenant is evicted to make room.  A tenant at 10x
    offered load therefore absorbs almost all of the shedding while
    light tenants keep their fair share of slots.

    ``early_reject`` additionally refuses requests that cannot meet
    their own timeout: when the measured per-request service time (the
    front end's EWMA, or the ``service_time_s`` override) predicts an
    in-queue wait beyond ``margin`` times the request's timeout budget,
    the request is shed immediately instead of occupying a slot it is
    doomed to time out in.

    Parameters
    ----------
    weights:
        Optional ``{tenant: weight}`` map; heavier tenants own more of
        the queue.  Unknown tenants get ``default_weight``.
    early_reject:
        Enable the deadline-aware reject (default True; it is inert
        for requests without a timeout).
    margin:
        Early-reject tolerance: shed when predicted wait exceeds
        ``margin * timeout``.  1.0 is exact; larger values shed later.
    service_time_s:
        Fixed per-request service-time estimate overriding the front
        end's measured EWMA (deterministic tests; None = measured).
    """

    def __init__(
        self,
        weights: "dict[str, float] | None" = None,
        default_weight: float = 1.0,
        early_reject: bool = True,
        margin: float = 1.0,
        service_time_s: "float | None" = None,
    ):
        if default_weight <= 0:
            raise ValueError(
                f"default_weight must be > 0, got {default_weight}"
            )
        if margin <= 0:
            raise ValueError(f"margin must be > 0, got {margin}")
        if service_time_s is not None and service_time_s < 0:
            raise ValueError(
                f"service_time_s must be >= 0, got {service_time_s}"
            )
        self.weights = dict(weights or {})
        for name, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(
                    f"tenant weight must be > 0, got {name!r}: {weight}"
                )
        self.default_weight = float(default_weight)
        self.early_reject = bool(early_reject)
        self.margin = float(margin)
        self.service_time_s = service_time_s

    def _weight(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def decide(self, view, tenant, timeout_s):
        if self.early_reject and timeout_s is not None:
            per_request = (
                self.service_time_s
                if self.service_time_s is not None
                else view.service_estimate_s
            )
            if per_request is not None:
                predicted_wait = view.pending * per_request
                if predicted_wait > timeout_s * self.margin:
                    return (SHED, None)
        if view.pending < view.max_pending:
            return (ADMIT, None)
        # at the bound: the most over-share tenant (by weighted pending
        # occupancy) pays for the slot
        load = view.tenant_pending.get(tenant, 0) / self._weight(tenant)
        hottest, hottest_load = None, load
        for name, pending in view.tenant_pending.items():
            if pending <= 0 or name == tenant:
                continue
            normalized = pending / self._weight(name)
            if normalized > hottest_load:
                hottest, hottest_load = name, normalized
        if hottest is None:
            # the arrival belongs to the (tied-)hottest tenant already
            return (SHED, None)
        victim = view.newest_request_of(hottest)
        if victim is None:  # raced away; shed the arrival
            return (SHED, None)
        return (EVICT, victim)


# --------------------------------------------------------------------------
# retry policy
# --------------------------------------------------------------------------


class RetryPolicy:
    """Bounded retries with capped exponential backoff + seeded jitter.

    ``attempts`` is the total number of tries (1 = no retry).  Delay
    before retry ``i`` (1-based) is ``min(max_delay_s, base_delay_s *
    2**(i-1))`` stretched by up to ``jitter`` fraction, drawn from a
    seeded :class:`random.Random` so sequences are reproducible.
    """

    def __init__(
        self,
        attempts: int = 3,
        base_delay_s: float = 0.01,
        max_delay_s: float = 0.25,
        jitter: float = 0.5,
        seed: int = 0,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {base_delay_s}")
        if max_delay_s < base_delay_s:
            raise ValueError(
                f"max_delay_s must be >= base_delay_s, got {max_delay_s}"
            )
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.attempts = int(attempts)
        self.base_delay_s = float(base_delay_s)
        self.max_delay_s = float(max_delay_s)
        self.jitter = float(jitter)
        self._rng = random.Random(seed)

    def delay(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        delay = min(
            self.max_delay_s, self.base_delay_s * (2.0 ** (retry_index - 1))
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * self._rng.random()
        return delay

    def call(self, fn, retry_on=(OSError,), sleep=time.sleep):
        """Run ``fn`` with bounded retries on ``retry_on`` exceptions.

        Returns ``fn``'s result; re-raises the last exception once the
        attempt budget is spent.  Exceptions outside ``retry_on``
        propagate immediately.
        """
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except retry_on:
                if attempt == self.attempts:
                    raise
                sleep(self.delay(attempt))

