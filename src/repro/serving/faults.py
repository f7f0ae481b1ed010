"""Deterministic fault injection for the serving tier (chaos harness).

The resilience layer (:mod:`repro.serving.resilience`) claims the
serving tier stays available while workers die, heartbeats stall, shm
slots rot, store artifacts corrupt, and models run slow.  This module
*makes those things happen*, reproducibly: a :class:`FaultInjector`
draws every decision from one seeded :class:`numpy.random.Generator`
stream, so two injectors with the same seed plan the same fault
sequence — the serve-bench resilience block (``python -m repro.cli
serve-bench``) and the respawn-storm tests replay identical storms.

Fault surface:

* :meth:`FaultInjector.kill_worker` — SIGKILL one worker process of a
  :class:`~repro.serving.workers.ShardWorkerPool` (crash-recovery /
  respawn-budget path);
* :meth:`FaultInjector.stall_worker` — SIGSTOP a worker for
  ``stall_s`` (wedged-child path: the process is alive, the heartbeat
  is not), with :meth:`resume_stalled` issuing the SIGCONTs;
* :meth:`FaultInjector.corrupt_result_slot` — flip payload bytes in a
  worker's result ring; the slot checksum
  (:mod:`repro.serving.shm`) turns this into a detected
  :data:`~repro.serving.shm.CORRUPT_SLOT` instead of a wrong answer;
* :meth:`FaultInjector.corrupt_store_artifact` — overwrite bytes in
  the middle of a random :class:`~repro.core.persistence.ModelStore`
  artifact (quarantine + self-heal path);
* :class:`DelayedEstimator` — wraps an estimator so a seeded fraction
  of batches serve slowly (deadline/timeout pressure without changing
  any prediction).

All mutators are best-effort by design: a kill aimed at an
already-dead worker, or a slot corruption landing on an empty ring,
simply does nothing — chaos does not get to crash the harness.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np


class DelayedEstimator:
    """Estimator proxy that sleeps before a seeded fraction of batches.

    Predictions are untouched — only latency is injected — so every
    parity assertion downstream still holds.  ``rate`` is the
    per-``predict_batch`` probability of a ``delay_s`` stall, drawn
    from a seeded generator for reproducibility.
    """

    def __init__(self, estimator, rate: float = 0.1, delay_s: float = 0.05,
                 seed: int = 0):
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self._estimator = estimator
        self.rate = float(rate)
        self.delay_s = float(delay_s)
        self._rng = np.random.default_rng(seed)
        self.n_delays = 0

    def __getattr__(self, name):
        return getattr(self._estimator, name)

    def predict_batch(self, signals):
        if self.rate and self._rng.random() < self.rate:
            self.n_delays += 1
            time.sleep(self.delay_s)
        return self._estimator.predict_batch(signals)


class FaultInjector:
    """Seeded fault source for pools, channels, and model stores.

    One injector owns one ``numpy`` generator; every targeted fault
    (which worker, which slot, which artifact, which bytes) is drawn
    from it, so a seed fully determines the storm.  Counters
    (``kills``, ``stalls``, ``slot_corruptions``, ``store_corruptions``)
    record what actually landed — a fault aimed at a target that no
    longer exists is a no-op and is *not* counted.
    """

    def __init__(self, seed: int = 0, stall_s: float = 0.5):
        if stall_s < 0:
            raise ValueError(f"stall_s must be >= 0, got {stall_s}")
        self.seed = int(seed)
        self.stall_s = float(stall_s)
        self._rng = np.random.default_rng(seed)
        self._stalled: "list[tuple[int, float]]" = []  # (pid, resume_at)
        self.kills = 0
        self.stalls = 0
        self.slot_corruptions = 0
        self.store_corruptions = 0

    # ------------------------------------------------------------ processes
    def _pick_worker(self, pool):
        alive = [
            handle
            for handle in pool.workers
            if handle.process is not None and handle.process.is_alive()
        ]
        if not alive:
            return None
        return alive[int(self._rng.integers(0, len(alive)))]

    def kill_worker(self, pool) -> bool:
        """SIGKILL one live worker; True when a kill landed."""
        handle = self._pick_worker(pool)
        if handle is None:
            return False
        handle.process.kill()
        self.kills += 1
        return True

    def stall_worker(self, pool) -> bool:
        """SIGSTOP one live worker for ``stall_s`` (heartbeat freeze).

        The worker stays alive but stops heartbeating — the pool's
        wedge detection must notice.  :meth:`resume_stalled` (call it
        periodically, and once at teardown) sends the matching
        SIGCONT after ``stall_s``; a stopped process that got respawned
        away in the meantime is skipped.
        """
        handle = self._pick_worker(pool)
        if handle is None:
            return False
        pid = handle.process.pid
        try:
            os.kill(pid, signal.SIGSTOP)
        except (ProcessLookupError, PermissionError):
            return False
        self._stalled.append((pid, time.monotonic() + self.stall_s))
        self.stalls += 1
        return True

    def resume_stalled(self, force: bool = False) -> int:
        """SIGCONT every stalled worker whose stall elapsed; returns count.

        ``force=True`` resumes everything immediately (teardown), so a
        stopped process can never outlive the chaos run.
        """
        now = time.monotonic()
        keep, resumed = [], 0
        for pid, resume_at in self._stalled:
            if force or now >= resume_at:
                try:
                    os.kill(pid, signal.SIGCONT)
                except (ProcessLookupError, PermissionError):
                    pass
                resumed += 1
            else:
                keep.append((pid, resume_at))
        self._stalled = keep
        return resumed

    # --------------------------------------------------------- shared memory
    def corrupt_result_slot(self, pool) -> bool:
        """Smash bytes into one worker's result-ring payload.

        Whatever the ring's consumer later pops from that slot fails
        checksum verification and comes back as
        :data:`~repro.serving.shm.CORRUPT_SLOT` — the recovery path
        under test.  Corrupting a slot that is currently unpublished is
        harmless (the next push rewrites payload, header, and checksum
        from scratch); only the attempt is counted.
        """
        if not pool.workers:
            return False
        handle = pool.workers[int(self._rng.integers(0, len(pool.workers)))]
        ring = handle.channel.results
        if ring is None:  # channel already closed
            return False
        slot = int(self._rng.integers(0, ring.n_slots))
        payload = ring._payloads[0]
        noise = self._rng.integers(
            1, 2**31, size=payload.shape[1:], dtype=np.int64
        )
        payload[slot] = noise.view(np.float64)
        self.slot_corruptions += 1
        return True

    # ----------------------------------------------------------------- store
    def corrupt_store_artifact(self, store) -> "str | None":
        """Overwrite bytes mid-file in one random store artifact.

        Returns the corrupted path (None when the store is empty).  The
        artifact keeps its name and size, so only content validation —
        the quarantine path — can catch it.
        """
        paths = store.paths()
        if not paths:
            return None
        path = paths[int(self._rng.integers(0, len(paths)))]
        size = os.path.getsize(path)
        if size == 0:
            return None
        start = int(self._rng.integers(0, max(size // 2, 1)))
        blob = self._rng.integers(0, 256, size=min(512, size), dtype=np.uint8)
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(blob.tobytes())
        self.store_corruptions += 1
        return path
