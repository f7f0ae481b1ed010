"""Open-loop and saturating load phases driven by one generator thread.

Both phases send requests from the calling thread through a
``submit(key) -> ticket`` callable and keep per-request stamps on
``time.monotonic``, the serving front end's default clock:

* :func:`open_loop` sends request ``i`` when it is due (``t0 +
  offsets[i]``), whether or not earlier requests were answered.  A
  request's latency runs from its *scheduled* send time to its resolve,
  so a stall also charges the requests that were due while it lasted.
* :func:`saturate` sends back to back until the phase time is up.  The
  front end's blocking admission bounds the queue, so the generator
  offers more than the system serves and completions per second is the
  service rate.
"""

from __future__ import annotations

import time

import numpy as np

#: Real seconds to wait for any single ticket after a phase's last send.
SETTLE_TIMEOUT_S = 120.0


class Phase:
    """Stamps and answers of the requests one phase sent.

    Answers live in compact arrays: ``coordinates`` is NaN and
    ``floor``/``building`` are -1 where a request failed (or the model
    has no such head).  A request's resolve time is its submit return
    plus the front end's own submit-to-resolve ``latency_s`` (the front
    end stamps the submit inside the call, microseconds before it
    returns).
    """

    def __init__(self, capacity: int):
        self.keys: list = []
        self.scheduled: "list[float]" = []
        self.sent: "list[float]" = []
        self.returned: "list[float]" = []
        self.started = 0.0
        self.errors: list = []
        self.resolved = np.full(capacity, np.nan)
        self.coordinates = np.full((capacity, 2), np.nan)
        self.floor = np.full(capacity, -1)
        self.building = np.full(capacity, -1)
        self.answered = np.zeros(capacity, dtype=bool)
        # tickets not yet collected; like a real client, the generator
        # drops each one once its answer is recorded
        self._tickets: list = []
        self._head = 0

    def __len__(self) -> int:
        return len(self.keys)

    def _collect(self, i: int, ticket) -> None:
        try:
            prediction = ticket.result(SETTLE_TIMEOUT_S)
        except Exception as error:  # every failure counts, none aborts
            self.errors.append(error)
        else:
            self.answered[i] = True
            self.coordinates[i] = prediction.coordinates[0]
            if prediction.floor is not None:
                self.floor[i] = prediction.floor[0]
            if prediction.building is not None:
                self.building[i] = prediction.building[0]
        if ticket.latency_s is not None:
            self.resolved[i] = self.returned[i] + ticket.latency_s

    def drain(self, limit: int) -> None:
        """Collect up to ``limit`` answered tickets, oldest first."""
        tickets = self._tickets
        head = self._head
        stop = min(len(tickets), head + limit)
        while head < stop and tickets[head].done:
            self._collect(head, tickets[head])
            tickets[head] = None
            head += 1
        self._head = head

    def settle(self) -> "Phase":
        """Wait for every remaining ticket, then trim to the requests sent."""
        n = len(self.keys)
        for i in range(self._head, n):
            self._collect(i, self._tickets[i])
        self._tickets = []
        self._head = n
        # copies, so a phase does not keep its whole capacity alive
        for name in ("resolved", "coordinates", "floor", "building", "answered"):
            setattr(self, name, getattr(self, name)[:n].copy())
        return self

    @property
    def latency_ms(self) -> np.ndarray:
        """Scheduled send to resolve, in ms (NaN for unresolved requests)."""
        return (self.resolved - np.asarray(self.scheduled)) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        """How late the generator itself called ``submit``, in ms.

        Lateness counts from the schedule or from the return of the
        previous ``submit``, whichever is later: time a request spent
        blocked inside the program's ``submit`` is the program's (and is
        in every later request's latency), not the generator's.
        """
        sent = np.asarray(self.sent)
        free = np.asarray(self.scheduled).copy()
        if len(sent) > 1:
            free[1:] = np.maximum(free[1:], np.asarray(self.returned)[:-1])
        return (sent - free) * 1e3

    def throughput(self) -> float:
        """Completions per second from the first send to the last resolve."""
        done = np.isfinite(self.resolved) & self.answered
        if not done.any():
            return 0.0
        return float(done.sum() / (np.nanmax(self.resolved) - self.started))


def open_loop(submit, keys, offsets) -> Phase:
    """Send ``keys[i]`` at ``t0 + offsets[i]`` seconds; returns the settled phase."""
    phase = Phase(len(keys))
    mono = time.monotonic
    sleep = time.sleep
    t0 = mono() + 0.002
    due = (t0 + np.asarray(offsets, dtype=float)).tolist()
    phase.started = t0
    phase.keys = list(keys)
    phase.scheduled = due
    sent = phase.sent
    returned = phase.returned
    tickets = phase._tickets
    for i, key in enumerate(keys):
        now = mono()
        if now < due[i]:
            # spend slack collecting answers, never time that is due
            phase.drain(4)
            now = mono()
            if now < due[i]:
                sleep(due[i] - now)
                now = mono()
        sent.append(now)
        tickets.append(submit(key))
        returned.append(mono())
    return phase.settle()


def saturate(submit, keys, seconds: float, batch_size: int) -> Phase:
    """Send ``keys`` back to back for ``seconds`` (or until they run out).

    Sending stops on a multiple of ``batch_size`` so the phase ends on a
    full batch rather than on a partial one idling to its deadline.
    """
    phase = Phase(len(keys))
    mono = time.monotonic
    sent = phase.sent
    returned = phase.returned
    tickets = phase._tickets
    used = phase.keys
    start = mono()
    stop = start + seconds
    now = start
    for key in keys:
        if now >= stop and len(used) % batch_size == 0:
            break
        sent.append(now)
        tickets.append(submit(key))
        now = mono()
        returned.append(now)
        used.append(key)
        phase.drain(2)
    phase.started = start
    # a saturated request is due the moment the generator can send it
    phase.scheduled = sent
    return phase.settle()


def poisson_offsets(rng, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate`` over ``seconds``."""
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected**0.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    return float(np.percentile(values, q)) if len(values) else 0.0


def windowed_percentile(values, q: float, min_samples: int = 1000, max_windows: int = 8) -> float:
    """Median over consecutive windows of the ``q``-th percentile of each.

    Windows hold at least ``min_samples`` values (so a p99 has ten beyond
    it); a burst of interference then moves one window, not the result.
    """
    values = np.asarray(values, dtype=float)
    windows = int(np.clip(len(values) // min_samples, 1, max_windows))
    return float(np.median([percentile(w, q) for w in np.array_split(values, windows)]))
