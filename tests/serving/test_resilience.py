"""Self-protection layer: admission, retry, stats.

Everything here runs deterministically — injected fake clocks and
seeded jitter — pinning the contracts the chaos harness (the
serve-bench resilience block) then exercises under real load:

* **fair shedding** — a tenant at 10x offered load absorbs the
  evictions; light tenants keep their fair share of the bounded queue;
* **early reject** — work predicted to miss its own timeout is refused
  at the door instead of occupying a slot it is doomed to die in;
* **retry** — bounded attempts with capped, seeded backoff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import Estimator, Prediction, ServingFrontend, ShedError
from repro.serving.resilience import (
    AdmissionPolicy,
    BlockAdmission,
    FairShedAdmission,
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
    def test_block_admission_is_the_default(self):
        frontend = manual_frontend()
        assert isinstance(frontend.admission, BlockAdmission)
        frontend.close(drain=False)
        frontend = manual_frontend(admission=RejectAdmission())
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
                return c.shed / (c.admitted + c.shed)

            # the hot tenant absorbs the shedding: its shed *rate* beats
            # every light tenant's, not just its absolute count
            assert stats.tenants["hot"].shed > 0
            for light in ("a", "b", "c"):
                assert rate(light) < rate("hot")
            # light tenants hold their fair share of the bounded queue
            pending = {t: c.pending for t, c in stats.tenants.items()}
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
            assert stats.tenants["small"].shed == 1
            assert stats.tenants["big"].shed == 0
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


class TestOperatorStats:
    def test_thread_frontend_stats_have_inert_resilience_fields(self):
        frontend = manual_frontend()
        try:
            stats = frontend.stats()
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
