"""ServingFrontend: ticket lifecycle, backpressure, shutdown, errors.

Threaded behavior runs against the real clock with generous margins
(no timing assertions tighter than "it completed"); the precise
deadline/timeout semantics live in ``test_deadline_properties.py``
under an injected fake clock.
"""

import numpy as np
import pytest

from repro.serving import (
    Estimator,
    FrontendClosedError,
    Prediction,
    QueueFullError,
    RejectAdmission,
    ServingFrontend,
    create,
)


@pytest.fixture(scope="module")
def fitted_knn(uji_split):
    train, _val, _test = uji_split
    return create("knn", k=3).fit(train)


class TestRoundtrip:
    def test_submit_result_matches_direct_prediction(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        with ServingFrontend(fitted_knn, batch_size=8, deadline_ms=5) as frontend:
            tickets = [frontend.submit(row) for row in test.rssi[:20]]
            results = [t.result(timeout=30) for t in tickets]
        direct = fitted_knn.predict_batch(test.rssi[:20])
        for i, result in enumerate(results):
            np.testing.assert_allclose(
                result.coordinates, direct.coordinates[i : i + 1]
            )
            np.testing.assert_array_equal(result.building, direct.building[i : i + 1])
            np.testing.assert_array_equal(result.floor, direct.floor[i : i + 1])

    def test_full_batch_drains_without_waiting_for_deadline(
        self, fitted_knn, uji_split
    ):
        _train, _val, test = uji_split
        # a huge deadline: only the batch-full trigger can drain these
        with ServingFrontend(
            fitted_knn, batch_size=4, deadline_ms=60_000
        ) as frontend:
            tickets = [frontend.submit(row) for row in test.rssi[:4]]
            for ticket in tickets:
                ticket.result(timeout=30)
        assert frontend.stats().batches >= 1

    def test_stats_counters(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        with ServingFrontend(fitted_knn, batch_size=4, deadline_ms=5) as frontend:
            tickets = [frontend.submit(row) for row in test.rssi[:10]]
            for ticket in tickets:
                ticket.result(timeout=30)
            stats = frontend.stats()
        assert stats.submitted == 10
        assert stats.served == 10
        assert stats.timeouts == stats.rejected == stats.cancelled == 0
        assert stats.batches >= 3  # 10 queries through batches of <= 4
        assert 0 < stats.mean_batch_fill <= 4

    def test_ticket_latency_recorded(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        with ServingFrontend(fitted_knn, batch_size=1, deadline_ms=50) as frontend:
            ticket = frontend.submit(test.rssi[0])
            ticket.result(timeout=30)
        assert ticket.latency_s is not None and ticket.latency_s >= 0.0
        assert ticket.exception() is None


class TestShutdown:
    def test_close_drains_pending(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        frontend = ServingFrontend(
            fitted_knn, batch_size=100, deadline_ms=60_000, start=True
        )
        tickets = [frontend.submit(row) for row in test.rssi[:7]]
        frontend.close(drain=True)
        assert all(t.done for t in tickets)
        assert all(t.exception() is None for t in tickets)
        assert frontend.stats().served == 7

    def test_close_without_drain_cancels(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        frontend = ServingFrontend(
            fitted_knn, batch_size=100, deadline_ms=60_000, start=False
        )
        tickets = [frontend.submit(row) for row in test.rssi[:5]]
        frontend.close(drain=False)
        assert all(t.done for t in tickets)
        for ticket in tickets:
            with pytest.raises(FrontendClosedError):
                ticket.result()
        assert frontend.stats().cancelled == 5

    def test_submit_after_close_raises(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        frontend = ServingFrontend(fitted_knn)
        frontend.close()
        assert frontend.closed
        with pytest.raises(FrontendClosedError):
            frontend.submit(test.rssi[0])

    def test_close_idempotent(self, fitted_knn):
        frontend = ServingFrontend(fitted_knn)
        frontend.close()
        frontend.close()  # no error, still closed
        assert frontend.closed

    def test_context_manager_exit_drains(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        with ServingFrontend(
            fitted_knn, batch_size=100, deadline_ms=60_000
        ) as frontend:
            ticket = frontend.submit(test.rssi[0])
        assert ticket.done and ticket.exception() is None


class TestBackpressure:
    def test_reject_policy_raises_queue_full(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        # manual mode: nothing drains, so the bound is actually reached
        frontend = ServingFrontend(
            fitted_knn,
            batch_size=100,
            deadline_ms=60_000,
            max_pending=2,
            admission=RejectAdmission(),
            start=False,
        )
        frontend.submit(test.rssi[0])
        frontend.submit(test.rssi[1])
        with pytest.raises(QueueFullError):
            frontend.submit(test.rssi[2])
        assert frontend.stats().rejected == 1
        assert frontend.n_pending == 2
        frontend.close()

    def test_block_policy_completes_under_tiny_bound(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        # producers must block and be released by the worker's drain
        with ServingFrontend(
            fitted_knn, batch_size=2, deadline_ms=5, max_pending=2,
        ) as frontend:
            tickets = [frontend.submit(row) for row in test.rssi[:12]]
            results = [t.result(timeout=30) for t in tickets]
        assert len(results) == 12
        assert frontend.stats().rejected == 0


class TestErrorPaths:
    def test_model_error_fails_the_batch_tickets(self, uji_split):
        _train, _val, test = uji_split
        unfitted = create("knn", k=3)  # predict_batch raises RuntimeError
        frontend = ServingFrontend(
            unfitted, batch_size=2, deadline_ms=60_000, start=False
        )
        tickets = [frontend.submit(row) for row in test.rssi[:2]]
        frontend.pump()
        for ticket in tickets:
            with pytest.raises(RuntimeError, match="not fitted"):
                ticket.result()
        frontend.close()

    def test_width_mismatch_is_refused_at_submit(self, fitted_knn, uji_split):
        _train, _val, test = uji_split
        frontend = ServingFrontend(
            fitted_knn, batch_size=3, deadline_ms=60_000, start=False
        )
        good_a = frontend.submit(test.rssi[0])
        with pytest.raises(ValueError, match="width"):
            frontend.submit(np.zeros(test.n_aps + 1))
        good_b = frontend.submit(test.rssi[1])
        frontend.close()
        assert good_a.exception() is None and good_b.exception() is None
        assert frontend.stats().submitted == 2

    def test_bad_first_scan_does_not_fail_its_batch(
        self, fitted_knn, uji_split
    ):
        # a scan one WAP short arrives first; it is refused before
        # admission, and every well-formed scan that would have shared
        # its batch resolves to the synchronous oracle
        _train, _val, test = uji_split
        frontend = ServingFrontend(
            fitted_knn, batch_size=4, deadline_ms=60_000, start=False
        )
        with pytest.raises(ValueError, match="width"):
            frontend.submit(test.rssi[0][:-1])
        tickets = [frontend.submit(row) for row in test.rssi[1:4]]
        frontend.close()
        served = np.vstack([t.result().coordinates for t in tickets])
        oracle = fitted_knn.predict_batch(test.rssi[1:4]).coordinates
        np.testing.assert_allclose(served, oracle, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scan_is_refused_at_submit(
        self, fitted_knn, uji_split, bad
    ):
        _train, _val, test = uji_split
        frontend = ServingFrontend(fitted_knn, start=False)
        row = test.rssi[0].astype(float)
        row[3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            frontend.submit(row)
        with pytest.raises(ValueError, match="NaN or inf"):
            frontend.submit(np.full(test.n_aps, bad))
        assert frontend.stats().submitted == 0
        frontend.close()

    def test_mixed_widths_without_a_fitted_width_fail_one_batch(self):
        class Echo(Estimator):  # reports no fitted width
            def fit(self, dataset):
                return self

            def predict_batch(self, signals):
                return Prediction(coordinates=signals[:, :2])

        frontend = ServingFrontend(
            Echo(), batch_size=2, deadline_ms=60_000, start=False
        )
        ragged = [
            frontend.submit(np.zeros(3)), frontend.submit(np.zeros(4))
        ]
        frontend.pump()
        for ticket in ragged:
            assert isinstance(ticket.exception(), ValueError)
        # the drain path survives the ragged batch and keeps serving
        later = [frontend.submit(np.ones(3)), frontend.submit(np.ones(3))]
        frontend.pump()
        assert all(ticket.exception() is None for ticket in later)
        frontend.close()

    def test_result_wait_timeout_is_plain_timeout_error(
        self, fitted_knn, uji_split
    ):
        _train, _val, test = uji_split
        frontend = ServingFrontend(fitted_knn, deadline_ms=60_000, start=False)
        ticket = frontend.submit(test.rssi[0])
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        frontend.close()  # drains; the ticket resolves after all
        assert ticket.done

    def test_pump_rejected_on_threaded_frontend(self, fitted_knn):
        with ServingFrontend(fitted_knn) as frontend:
            with pytest.raises(RuntimeError, match="manual"):
                frontend.pump()


class TestValidation:
    def test_invalid_constructor_args(self, fitted_knn):
        with pytest.raises(ValueError):
            ServingFrontend(fitted_knn, batch_size=0)
        with pytest.raises(ValueError):
            ServingFrontend(fitted_knn, deadline_ms=0)
        with pytest.raises(ValueError):
            ServingFrontend(fitted_knn, timeout_ms=0)
        with pytest.raises(ValueError):
            ServingFrontend(fitted_knn, max_pending=0)

    def test_submit_rejects_matrices_and_bad_overrides(
        self, fitted_knn, uji_split
    ):
        _train, _val, test = uji_split
        frontend = ServingFrontend(fitted_knn, start=False)
        with pytest.raises(ValueError, match="single"):
            frontend.submit(np.zeros((2, test.n_aps)))
        with pytest.raises(ValueError, match="deadline_ms"):
            frontend.submit(test.rssi[0], deadline_ms=0)
        with pytest.raises(ValueError, match="timeout_ms"):
            frontend.submit(test.rssi[0], timeout_ms=-1)
        frontend.close()


class TestMonotonicLatency:
    """Ticket latency is measured on the injected monotonic clock only
    (PR 6 audit): a wall-clock step — NTP slew, DST, operator `date`
    — during a request must never corrupt ``latency_s``.
    """

    def test_latency_ignores_wall_clock_steps(self, monkeypatch):
        import time as time_mod

        from repro.serving import Estimator, Prediction

        class Echo(Estimator):
            def fit(self, dataset):
                return self

            def predict_batch(self, signals):
                signals = np.asarray(signals, dtype=float)
                return Prediction(
                    coordinates=np.column_stack(
                        [signals[:, 0], signals[:, 0]]
                    )
                )

        class FakeClock:
            def __init__(self):
                self.now = 100.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        # wall clock jumps an hour backwards mid-request; a wall-based
        # latency would come out at -3600s
        monkeypatch.setattr(time_mod, "time", lambda: -3600.0)
        frontend = ServingFrontend(
            Echo(), batch_size=4, deadline_ms=50, clock=clock, start=False
        )
        try:
            ticket = frontend.submit(np.array([1.0, 2.0]))
            clock.now += 0.25
            frontend.pump()
            assert ticket.done
            assert ticket.latency_s == pytest.approx(0.25)
        finally:
            frontend.close(drain=False)

    def test_failed_ticket_latency_is_monotonic_too(self, monkeypatch):
        import time as time_mod

        from repro.serving import Estimator

        class Broken(Estimator):
            def fit(self, dataset):
                return self

            def predict_batch(self, signals):
                raise RuntimeError("model exploded")

        class FakeClock:
            def __init__(self):
                self.now = 7.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        monkeypatch.setattr(time_mod, "time", lambda: 1e12)
        frontend = ServingFrontend(
            Broken(), batch_size=1, deadline_ms=50, clock=clock, start=False
        )
        try:
            ticket = frontend.submit(np.array([1.0]))
            clock.now += 0.125
            frontend.pump()
            assert isinstance(ticket.exception(), RuntimeError)
            assert ticket.latency_s == pytest.approx(0.125)
        finally:
            frontend.close(drain=False)


class TestCloseWakesBlockedProducers:
    """``close(drain=False)`` must wake producers blocked on the
    backpressure condition (PR 6 audit): a producer stuck in a full
    blocking queue gets :class:`FrontendClosedError`
    promptly instead of waiting forever for space that will never come.
    """

    def test_blocked_producer_unblocks_with_closed_error(
        self, fitted_knn, uji_split
    ):
        import threading

        _train, _val, test = uji_split
        frontend = ServingFrontend(
            fitted_knn, batch_size=100, deadline_ms=60_000,
            max_pending=1, start=False,
        )
        frontend.submit(test.rssi[0])  # fills the queue
        outcome = {}
        started = threading.Event()

        def producer():
            started.set()
            try:
                frontend.submit(test.rssi[1])
                outcome["result"] = "submitted"
            except FrontendClosedError:
                outcome["result"] = "closed"
            except Exception as error:  # pragma: no cover - diagnostic
                outcome["result"] = repr(error)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        started.wait(timeout=10)
        # let the producer actually park on the condition variable
        import time

        time.sleep(0.1)
        frontend.close(drain=False)
        thread.join(timeout=10)
        assert not thread.is_alive(), "producer still blocked after close"
        assert outcome["result"] == "closed"
