"""Deadline/timeout semantics of the serving front end, pinned exactly.

Every test drives a *manual* :class:`ServingFrontend` (``start=False``)
with an injected fake clock and explicit :meth:`pump` calls — no worker
thread, no ``time.sleep``, fully deterministic under any scheduler.

The core properties (seeded, randomized arrivals):

* every submitted request either resolves within ``deadline + epsilon``
  (one pump step) or fails with :class:`RequestTimeoutError`;
* a served batch never exceeds ``batch_size``;
* FIFO order is preserved — batches are increasing subsequences of the
  submission order, and nothing is lost or duplicated.
"""

import numpy as np
import pytest

from repro.serving import (
    Estimator,
    Prediction,
    RequestTimeoutError,
    ServingFrontend,
)


class FakeClock:
    """Injectable monotonic clock, advanced explicitly by the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class EchoEstimator(Estimator):
    """Returns each row's first feature as its coordinates and records
    every batch it serves — the oracle for FIFO/identity assertions."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def fit(self, dataset):
        return self

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        signals = np.asarray(signals, dtype=float)
        self.batches.append(signals[:, 0].copy())
        return Prediction(
            coordinates=np.column_stack([signals[:, 0], -signals[:, 0]])
        )


class SlowEchoEstimator(EchoEstimator):
    """Echo estimator whose every model call advances the fake clock —
    simulates a model slow enough to push queued requests past their
    timeouts."""

    def __init__(self, clock: FakeClock, seconds_per_call: float):
        super().__init__()
        self._clock = clock
        self._seconds_per_call = seconds_per_call

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        self._clock.advance(self._seconds_per_call)
        return super().predict_batch(signals)


def _signal(seq: int, width: int = 4) -> np.ndarray:
    row = np.zeros(width)
    row[0] = float(seq)
    return row


STEP_MS = 1.0  # pump granularity = the epsilon of every latency bound


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_resolve_within_deadline_or_timeout_property(seed):
    """Randomized arrivals: the three core properties all hold."""
    rng = np.random.default_rng(seed)
    clock = FakeClock()
    estimator = EchoEstimator()
    batch_size = int(rng.integers(2, 7))
    frontend = ServingFrontend(
        estimator,
        batch_size=batch_size,
        deadline_ms=50.0,
        clock=clock,
        start=False,
    )
    deadlines = [10.0, 25.0, 60.0]
    timeouts = [5.0, 15.0, 80.0]
    n_requests = int(rng.integers(20, 40))
    # request i arrives at arrival[i] ms (sorted, FIFO by construction)
    arrivals = np.sort(rng.uniform(0.0, 120.0, size=n_requests))
    records = []  # (seq, ticket, submitted_ms, deadline_ms, timeout_ms)

    next_seq = 0
    horizon_ms = 300.0
    t_ms = 0.0
    while t_ms <= horizon_ms:
        while next_seq < n_requests and arrivals[next_seq] <= t_ms:
            deadline = float(rng.choice(deadlines))
            timeout = (
                float(rng.choice(timeouts)) if rng.random() < 0.35 else None
            )
            ticket = frontend.submit(
                _signal(next_seq), deadline_ms=deadline, timeout_ms=timeout
            )
            records.append((next_seq, ticket, clock.now * 1e3, deadline, timeout))
            next_seq += 1
        # drain like the worker thread: keep taking batches while due
        while frontend.pump() > 0:
            pass
        clock.advance(STEP_MS / 1e3)
        t_ms += STEP_MS
    assert next_seq == n_requests

    served, timed_out = [], []
    for seq, ticket, submitted_ms, deadline, timeout in records:
        assert ticket.done, f"request {seq} neither resolved nor timed out"
        error = ticket.exception()
        latency_ms = ticket.latency_s * 1e3
        if error is None:
            served.append(seq)
            # resolved within its own deadline, plus one pump step
            assert latency_ms <= deadline + STEP_MS + 1e-9, (
                f"request {seq}: latency {latency_ms:.1f} ms exceeds "
                f"deadline {deadline} ms + step"
            )
            if timeout is not None:
                assert latency_ms <= timeout + STEP_MS + 1e-9
        else:
            assert isinstance(error, RequestTimeoutError)
            timed_out.append(seq)
            assert timeout is not None, f"request {seq} timed out without one"
            assert latency_ms >= timeout - 1e-9

    # batches never exceed batch_size
    assert all(len(batch) <= batch_size for batch in estimator.batches)
    # FIFO: the served stream is a strictly increasing subsequence
    served_stream = [int(s) for batch in estimator.batches for s in batch]
    assert served_stream == sorted(served_stream)
    # nothing lost, nothing duplicated, nothing both served and timed out
    assert sorted(served_stream) == sorted(served)
    assert set(served) | set(timed_out) == set(range(n_requests))
    assert not set(served) & set(timed_out)
    frontend.close()


class TestDeadlineFlush:
    def test_default_serves_a_lone_request_on_the_first_pump(self):
        clock = FakeClock()
        frontend = ServingFrontend(
            EchoEstimator(), batch_size=8, clock=clock, start=False
        )
        ticket = frontend.submit(_signal(0))
        assert frontend.pump() == 1  # t=0: due on arrival
        assert ticket.done
        frontend.close()

    def test_partial_batch_waits_exactly_until_deadline(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=8, deadline_ms=50, clock=clock, start=False
        )
        ticket = frontend.submit(_signal(0))
        assert frontend.pump() == 0  # t=0: not due
        clock.advance(0.049)
        assert frontend.pump() == 0  # t=49ms: still inside the budget
        clock.advance(0.002)
        assert frontend.pump() == 1  # t=51ms: the oldest is overdue
        assert ticket.done and ticket.result().coordinates[0, 0] == 0.0
        frontend.close()

    def test_oldest_request_sets_the_flush_time_for_the_batch(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=8, deadline_ms=50, clock=clock, start=False
        )
        first = frontend.submit(_signal(0))
        clock.advance(0.040)
        second = frontend.submit(_signal(1))  # its own budget runs to t=90ms
        clock.advance(0.011)  # t=51ms: first is overdue, second is not
        assert frontend.pump() == 2  # the whole partial batch rides along
        assert first.done and second.done
        assert [list(b) for b in estimator.batches] == [[0.0, 1.0]]
        frontend.close()

    def test_full_batch_drains_regardless_of_deadline(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=3, deadline_ms=60_000, clock=clock, start=False
        )
        tickets = [frontend.submit(_signal(i)) for i in range(7)]
        assert frontend.pump() == 3  # full batch, no deadline needed
        assert frontend.pump() == 3
        assert frontend.pump() == 0  # 1 left, not due
        assert [t.done for t in tickets] == [True] * 6 + [False]
        frontend.close()  # drains the last one
        assert tickets[6].done
        assert all(len(b) <= 3 for b in estimator.batches)

    def test_per_request_deadline_overrides_default(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=8, deadline_ms=1000, clock=clock, start=False
        )
        hurried = frontend.submit(_signal(0), deadline_ms=5)
        clock.advance(0.006)
        assert frontend.pump() == 1
        assert hurried.done
        frontend.close()


class TestPerRequestTimeout:
    def test_timeout_fires_instead_of_serving_stale(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=8, deadline_ms=50, clock=clock, start=False
        )
        doomed = frontend.submit(_signal(0), timeout_ms=20)
        clock.advance(0.021)  # past the timeout, before the deadline
        frontend.pump()
        with pytest.raises(RequestTimeoutError):
            doomed.result()
        assert frontend.stats().timeouts == 1
        # the expired request must never reach the model
        assert estimator.batches == []
        frontend.close()

    def test_slow_model_expires_requests_left_in_queue(self):
        clock = FakeClock()
        estimator = SlowEchoEstimator(clock, seconds_per_call=0.030)
        frontend = ServingFrontend(
            estimator, batch_size=2, deadline_ms=5, clock=clock, start=False
        )
        served = [frontend.submit(_signal(0)), frontend.submit(_signal(1))]
        waiting = frontend.submit(_signal(2), timeout_ms=25)
        frontend.pump()  # serves [0, 1]; the model call burns 30 ms
        frontend.pump()  # request 2 is now 30 ms old: past its timeout
        assert all(t.exception() is None for t in served)
        assert isinstance(waiting.exception(), RequestTimeoutError)
        assert [list(b) for b in estimator.batches] == [[0.0, 1.0]]
        frontend.close()

    def test_timeouts_do_not_break_fifo_for_survivors(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=4, deadline_ms=40, clock=clock, start=False
        )
        keep_a = frontend.submit(_signal(0))
        drop = frontend.submit(_signal(1), timeout_ms=10)
        keep_b = frontend.submit(_signal(2))
        clock.advance(0.041)  # drop expired at t=10, batch due at t=40
        frontend.pump()
        assert keep_a.done and keep_b.done
        assert isinstance(drop.exception(), RequestTimeoutError)
        assert [list(b) for b in estimator.batches] == [[0.0, 2.0]]
        frontend.close()


class TestManualShutdownSemantics:
    def test_close_drain_serves_everything_in_fifo_batches(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=4, deadline_ms=60_000, clock=clock, start=False
        )
        tickets = [frontend.submit(_signal(i)) for i in range(10)]
        frontend.close(drain=True)
        assert all(t.done and t.exception() is None for t in tickets)
        assert [len(b) for b in estimator.batches] == [4, 4, 2]
        served = [int(s) for batch in estimator.batches for s in batch]
        assert served == list(range(10))

    def test_close_cancel_resolves_everything_with_errors(self):
        clock = FakeClock()
        estimator = EchoEstimator()
        frontend = ServingFrontend(
            estimator, batch_size=4, deadline_ms=60_000, clock=clock, start=False
        )
        tickets = [frontend.submit(_signal(i)) for i in range(5)]
        frontend.close(drain=False)
        assert all(t.done for t in tickets)
        assert estimator.batches == []  # nothing reached the model
        assert frontend.stats().cancelled == 5
