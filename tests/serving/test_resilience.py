"""Self-protection layer: admission, breaker, retry, fallback, stats.

Everything here runs deterministically — injected fake clocks, seeded
jitter, no real worker processes — pinning the contracts the chaos
harness (``test_faults.py``, the serve-bench resilience block) then
exercises under real SIGKILLs:

* **fair shedding** — a tenant at 10x offered load absorbs the
  evictions; light tenants keep their fair share of the bounded queue;
* **early reject** — work predicted to miss its own timeout is refused
  at the door instead of occupying a slot it is doomed to die in;
* **breaker round trip** — closed → (budget burst) → open → cooldown →
  half-open single probe → closed on success / longer cooldown on
  failure;
* **degradation** — a failing primary executor fails over per batch
  with no request lost, and identical predictions from the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import Estimator, Prediction, ServingFrontend, ShedError
from repro.serving.resilience import (
    AdmissionPolicy,
    BlockAdmission,
    CircuitBreaker,
    FairShedAdmission,
    FallbackExecutor,
    RejectAdmission,
    RetryPolicy,
)


class Echo(Estimator):
    """Deterministic estimator: coordinates echo the first signal value."""

    def fit(self, dataset):
        return self

    def predict_batch(self, signals):
        signals = np.asarray(signals, dtype=float)
        return Prediction(
            coordinates=np.column_stack([signals[:, 0], signals[:, 0]])
        )


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def manual_frontend(**kwargs) -> ServingFrontend:
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("deadline_ms", 50)
    if "estimator" in kwargs:
        estimator = kwargs.pop("estimator")
    else:
        estimator = Echo()
    return ServingFrontend(estimator, start=False, **kwargs)


class TestAdmissionPolicies:
    def test_legacy_policies_mirror_overflow_modes(self):
        frontend = manual_frontend(overflow="block")
        assert isinstance(frontend.admission, BlockAdmission)
        frontend.close(drain=False)
        frontend = manual_frontend(overflow="reject")
        assert isinstance(frontend.admission, RejectAdmission)
        frontend.close(drain=False)

    def test_admission_must_be_a_policy(self):
        with pytest.raises(ValueError, match="AdmissionPolicy"):
            manual_frontend(admission="fair")

    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            AdmissionPolicy().decide(None, "t", None)

    def test_fair_shed_validates_parameters(self):
        with pytest.raises(ValueError, match="default_weight"):
            FairShedAdmission(default_weight=0.0)
        with pytest.raises(ValueError, match="margin"):
            FairShedAdmission(margin=0.0)
        with pytest.raises(ValueError, match="weight"):
            FairShedAdmission(weights={"hot": -1.0})
        with pytest.raises(ValueError, match="service_time_s"):
            FairShedAdmission(service_time_s=-1.0)


class TestFairShedding:
    def test_hot_tenant_absorbs_the_shedding_at_10x(self):
        frontend = manual_frontend(
            max_pending=12, admission=FairShedAdmission(early_reject=False)
        )
        try:
            shed = {"hot": 0, "a": 0, "b": 0, "c": 0}
            # 10x offered load from "hot": 10 of every 13 submissions
            tenants = (["hot"] * 10 + ["a", "b", "c"]) * 8
            for i, tenant in enumerate(tenants):
                try:
                    frontend.submit(np.array([float(i), 0.0]), tenant=tenant)
                except ShedError:
                    shed[tenant] += 1
            stats = frontend.stats()

            def rate(tenant):
                c = stats.tenants[tenant]
                return c["shed"] / (c["admitted"] + c["shed"])

            # the hot tenant absorbs the shedding: its shed *rate* beats
            # every light tenant's, not just its absolute count
            assert stats.tenants["hot"]["shed"] > 0
            for light in ("a", "b", "c"):
                assert rate(light) < rate("hot")
            # light tenants hold their fair share of the bounded queue
            pending = {
                t: c["pending"] for t, c in stats.tenants.items()
            }
            assert pending["a"] >= 1
            assert pending["b"] >= 1
            assert pending["c"] >= 1
        finally:
            frontend.close(drain=False)

    def test_eviction_resolves_the_victim_with_shed_error(self):
        frontend = manual_frontend(
            max_pending=2, admission=FairShedAdmission(early_reject=False)
        )
        try:
            hot1 = frontend.submit(np.array([1.0, 0.0]), tenant="hot")
            hot2 = frontend.submit(np.array([2.0, 0.0]), tenant="hot")
            cold = frontend.submit(np.array([3.0, 0.0]), tenant="cold")
            # the *newest* hot request was evicted, FIFO order preserved
            assert hot2.done
            with pytest.raises(ShedError, match="evicted"):
                hot2.result()
            assert not hot1.done and not cold.done
            frontend.close(drain=True)
            assert hot1.result().coordinates[0][0] == 1.0
            assert cold.result().coordinates[0][0] == 3.0
        finally:
            frontend.close(drain=False)

    def test_single_tenant_at_bound_sheds_itself(self):
        frontend = manual_frontend(
            max_pending=1, admission=FairShedAdmission(early_reject=False)
        )
        try:
            frontend.submit(np.array([1.0, 0.0]))
            with pytest.raises(ShedError):
                frontend.submit(np.array([2.0, 0.0]))
            stats = frontend.stats()
            assert stats.shed == 1
            # legacy counter compatibility: a shed arrival still counts
            # as rejected (ShedError subclasses QueueFullError)
            assert stats.rejected == 1
        finally:
            frontend.close(drain=False)

    def test_weights_shift_the_fair_share(self):
        # tenant "big" owns 3x the queue of "small": at 2 pending each,
        # small (2/1=2.0) is hotter than big (2/3=0.67) and pays
        policy = FairShedAdmission(
            weights={"big": 3.0}, early_reject=False
        )
        frontend = manual_frontend(max_pending=4, admission=policy)
        try:
            for i in range(2):
                frontend.submit(np.array([float(i), 0.0]), tenant="big")
                frontend.submit(np.array([float(i), 0.0]), tenant="small")
            frontend.submit(np.array([9.0, 0.0]), tenant="big")
            stats = frontend.stats()
            assert stats.tenants["small"]["shed"] == 1
            assert stats.tenants["big"]["shed"] == 0
        finally:
            frontend.close(drain=False)


class TestEarlyReject:
    def test_doomed_request_is_refused_at_the_door(self):
        # 3 queued requests at a fixed 1 s service estimate predict a
        # 3 s wait; a 1 s timeout budget cannot survive that
        policy = FairShedAdmission(service_time_s=1.0)
        frontend = manual_frontend(max_pending=100, admission=policy)
        try:
            for i in range(3):
                frontend.submit(np.array([float(i), 0.0]))
            with pytest.raises(ShedError):
                frontend.submit(np.array([9.0, 0.0]), timeout_ms=1000.0)
            # without a timeout the same arrival is admitted (inert)
            frontend.submit(np.array([9.0, 0.0]))
            assert frontend.stats().shed == 1
        finally:
            frontend.close(drain=False)

    def test_margin_stretches_the_budget(self):
        lenient = FairShedAdmission(service_time_s=1.0, margin=10.0)
        frontend = manual_frontend(max_pending=100, admission=lenient)
        try:
            for i in range(3):
                frontend.submit(np.array([float(i), 0.0]))
            # predicted wait 3 s <= margin 10 x timeout 1 s: admitted
            frontend.submit(np.array([9.0, 0.0]), timeout_ms=1000.0)
        finally:
            frontend.close(drain=False)

    def test_measured_ewma_feeds_the_estimate(self):
        clock = FakeClock()

        class Slow(Echo):
            def predict_batch(self, signals):
                clock.now += 2.0  # 2 s per batch under the fake clock
                return super().predict_batch(signals)

        frontend = manual_frontend(
            estimator=Slow(),
            batch_size=1,
            max_pending=100,
            admission=FairShedAdmission(),
            clock=clock,
        )
        try:
            frontend.submit(np.array([1.0, 0.0]))
            clock.now += 1.0
            frontend.pump()  # measures ~2 s/request into the EWMA
            assert frontend.stats().service_estimate_ms == pytest.approx(
                2000.0
            )
            frontend.submit(np.array([2.0, 0.0]))
            with pytest.raises(ShedError):
                # one queued request x 2 s estimate > 0.1 s timeout
                frontend.submit(np.array([3.0, 0.0]), timeout_ms=100.0)
        finally:
            frontend.close(drain=False)


class TestCircuitBreaker:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="failure_budget"):
            CircuitBreaker(failure_budget=0)
        with pytest.raises(ValueError, match="window_s"):
            CircuitBreaker(window_s=0)
        with pytest.raises(ValueError, match="cooldown_s"):
            CircuitBreaker(cooldown_s=0)
        with pytest.raises(ValueError, match="cooldown_cap_s"):
            CircuitBreaker(cooldown_s=2.0, cooldown_cap_s=1.0)
        with pytest.raises(ValueError, match="jitter"):
            CircuitBreaker(jitter=1.0)

    def test_burst_trips_but_trickle_is_absorbed(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_budget=3, window_s=30.0, cooldown_s=1.0, jitter=0.0,
            clock=clock,
        )
        # a slow trickle refills faster than it spends
        for _ in range(10):
            clock.now += 15.0
            breaker.record_failure()
            assert breaker.state == CircuitBreaker.CLOSED
        # a burst spends the bucket dry
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.n_trips == 1
        assert not breaker.allow()

    def test_half_open_probe_success_closes_and_refills(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_budget=1, window_s=10.0, cooldown_s=1.0, jitter=0.0,
            clock=clock,
        )
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.now += 1.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # exactly one probe gets through; concurrent callers are refused
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        # the close refilled the budget: the next failure re-trips
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN

    def test_failed_probe_doubles_the_cooldown_up_to_the_cap(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_budget=1, window_s=1000.0, cooldown_s=1.0,
            cooldown_cap_s=4.0, jitter=0.0, clock=clock,
        )
        breaker.record_failure()  # trip 1: cooldown 1 s
        for expected in (2.0, 4.0, 4.0):  # doubling, then capped
            clock.now += breaker._current_cooldown
            assert breaker.allow()  # the half-open probe
            breaker.record_failure()
            assert breaker._current_cooldown == pytest.approx(expected)
            assert breaker.state == CircuitBreaker.OPEN

    def test_jitter_is_deterministic_per_seed(self):
        def trip(seed):
            clock = FakeClock()
            breaker = CircuitBreaker(
                failure_budget=1, cooldown_s=1.0, jitter=0.5, seed=seed,
                clock=clock,
            )
            breaker.record_failure()
            return breaker._current_cooldown

        assert trip(7) == trip(7)
        assert trip(7) != trip(8)


class TestRetryPolicy:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="base_delay_s"):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError, match="max_delay_s"):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="retry_index"):
            RetryPolicy().delay(0)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.1, max_delay_s=0.4, jitter=0.0
        )
        assert [policy.delay(i) for i in (1, 2, 3, 4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.4]
        )

    def test_call_retries_then_succeeds(self):
        sleeps: "list[float]" = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay_s=0.01, jitter=0.0)
        assert policy.call(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert sleeps == pytest.approx([0.01, 0.02])

    def test_call_reraises_after_budget_and_skips_foreign_errors(self):
        policy = RetryPolicy(attempts=2, base_delay_s=0.0, jitter=0.0)
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("disk gone")

        with pytest.raises(OSError, match="disk gone"):
            policy.call(always_fails, sleep=lambda _s: None)
        assert calls["n"] == 2

        def type_error():
            calls["n"] += 1
            raise TypeError("not transient")

        calls["n"] = 0
        with pytest.raises(TypeError):
            policy.call(type_error, sleep=lambda _s: None)
        assert calls["n"] == 1  # no retry on non-listed errors


class _FlakyPrimary:
    """Executor that fails the first ``n_failures`` batches."""

    def __init__(self, estimator, n_failures):
        self.estimator = estimator
        self.n_failures = n_failures
        self.n_batches = 0
        self.closed = False

    def predict(self, signals):
        from repro.serving.workers import WorkerPoolError

        self.n_batches += 1
        if self.n_failures > 0:
            self.n_failures -= 1
            raise WorkerPoolError("worker tier unhealthy")
        return self.estimator.predict_batch(signals)

    def close(self):
        self.closed = True


class _DirectExecutor:
    def __init__(self, estimator):
        self.estimator = estimator
        self.n_batches = 0
        self.closed = False

    def predict(self, signals):
        self.n_batches += 1
        return self.estimator.predict_batch(signals)

    def close(self):
        self.closed = True


class TestFallbackExecutor:
    def test_failed_batch_is_reserved_by_the_fallback(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_budget=10, window_s=30.0, jitter=0.0, clock=clock
        )
        executor = FallbackExecutor(
            _FlakyPrimary(Echo(), n_failures=1),
            _DirectExecutor(Echo()),
            breaker=breaker,
        )
        signals = np.array([[4.0, 0.0], [5.0, 0.0]])
        prediction = executor.predict(signals)
        # the batch that the primary failed still got served — and with
        # the exact same predictions the primary would have produced
        np.testing.assert_allclose(
            prediction.coordinates, Echo().predict_batch(signals).coordinates
        )
        assert executor.n_failovers == 1
        assert executor.n_fallback_batches == 1
        assert executor.n_primary_batches == 0

    def test_degradation_round_trip_through_half_open_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_budget=2, window_s=30.0, cooldown_s=1.0, jitter=0.0,
            clock=clock,
        )
        primary = _FlakyPrimary(Echo(), n_failures=2)
        executor = FallbackExecutor(
            primary, _DirectExecutor(Echo()), breaker=breaker
        )
        signals = np.array([[7.0, 0.0]])
        oracle = Echo().predict_batch(signals).coordinates

        # two failing batches burn the budget: breaker opens, both
        # batches still answered (by the fallback)
        for _ in range(2):
            np.testing.assert_allclose(
                executor.predict(signals).coordinates, oracle
            )
        assert breaker.state == CircuitBreaker.OPEN
        # while open the primary is not even tried
        primary_batches = primary.n_batches
        np.testing.assert_allclose(
            executor.predict(signals).coordinates, oracle
        )
        assert primary.n_batches == primary_batches
        # cooldown elapses: the next batch is the half-open probe, the
        # (recovered) primary serves it, and the breaker closes
        clock.now += 1.0
        np.testing.assert_allclose(
            executor.predict(signals).coordinates, oracle
        )
        assert primary.n_batches == primary_batches + 1
        assert breaker.state == CircuitBreaker.CLOSED
        assert executor.n_primary_batches == 1
        assert executor.n_fallback_batches == 3

    def test_model_errors_are_not_tier_failures(self):
        executor = FallbackExecutor(
            _FlakyPrimary(Echo(), n_failures=0), _DirectExecutor(Echo())
        )

        with pytest.raises(IndexError):
            executor.predict(np.empty((0,)))  # malformed input propagates
        assert executor.n_failovers == 0
        assert executor.breaker.state == CircuitBreaker.CLOSED

    def test_close_closes_both_sides(self):
        primary = _FlakyPrimary(Echo(), n_failures=0)
        fallback = _DirectExecutor(Echo())
        FallbackExecutor(primary, fallback).close()
        assert primary.closed and fallback.closed


class TestOperatorStats:
    def test_frontend_stats_surface_the_resilience_pane(self):
        breaker = CircuitBreaker()
        executor = FallbackExecutor(
            _FlakyPrimary(Echo(), n_failures=1),
            _DirectExecutor(Echo()),
            breaker=breaker,
        )
        frontend = ServingFrontend(
            executor=executor, batch_size=1, deadline_ms=50, start=False
        )
        try:
            ticket = frontend.submit(np.array([1.0, 0.0]), tenant="ops")
            frontend.pump()
            assert ticket.done
            stats = frontend.stats()
            assert stats.breaker_state == CircuitBreaker.CLOSED
            assert stats.failovers == 1
            assert stats.respawns == 0  # not pool-backed
            assert stats.tenants["ops"]["admitted"] == 1
        finally:
            frontend.close(drain=False)

    def test_thread_frontend_stats_have_inert_resilience_fields(self):
        frontend = manual_frontend()
        try:
            stats = frontend.stats()
            assert stats.breaker_state is None
            assert stats.failovers == 0
            assert stats.disk_hits == 0
            assert stats.spill_failures == 0
        finally:
            frontend.close(drain=False)

    def test_cache_counters_flow_through(self):
        class FakeCache:
            disk_hits = 3
            spill_failures = 1

        frontend = manual_frontend(cache=FakeCache())
        try:
            stats = frontend.stats()
            assert stats.disk_hits == 3
            assert stats.spill_failures == 1
        finally:
            frontend.close(drain=False)
