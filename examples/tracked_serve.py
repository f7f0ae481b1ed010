"""Streaming trajectory serving: stateful sessions, crash, warm restore.

The stateful serving story end to end: a fleet of walkers streams IMU
ticks into one :class:`repro.serving.TrackingFrontend`; the
:class:`repro.serving.SessionManager` behind it owns one
:class:`TrackingSession` per user and micro-batches concurrent ticks
*across users per time step*, so every served estimate is **bitwise**
equal to running that user alone through the offline tracker
(:func:`repro.serving.solo_trajectory` is the oracle).

Mid-walk the process "dies": sessions are checkpointed through the
persistent :class:`repro.serving.ModelStore` (versioned
``repro-session/2`` artifacts) and the manager is dropped without a
clean shutdown.  A fresh manager over the same store warm-restores
every session on its next tick and the completed trajectories still
match the uninterrupted oracle exactly — a restart is invisible to the
track.

Run:  python examples/tracked_serve.py

The benchmarked version of this flow (throughput + parity + recovery
floors) is the ``sessions`` block of ``make serve-bench`` (``make
serve-bench-smoke`` at smoke scale).
"""

import tempfile

import numpy as np

from repro.data.imu import CampusWalkSimulator
from repro.serving import (
    ModelStore,
    SessionManager,
    StreamingPDRTracker,
    TrackingFrontend,
    solo_trajectory,
)

USERS, TICKS = 8, 12


def main() -> None:
    # one recorded campus walk; user u's stream starts u segments in,
    # so the concurrent sessions cover different stretches of the route
    walk = CampusWalkSimulator(samples_per_segment=96).record_session(
        n_walks=1, references_per_walk=USERS + TICKS + 1, rng=42
    )[0]
    streams = [
        [walk.segments[u + k] for k in range(TICKS)] for u in range(USERS)
    ]
    print(f"fleet: {USERS} walkers x {TICKS} IMU ticks each")

    with tempfile.TemporaryDirectory() as store_dir:
        store = ModelStore(store_dir)
        engine = StreamingPDRTracker()

        # --- process 1: live streaming, killed mid-walk ---------------
        manager = SessionManager(engine, store=store, seed=0)
        for u in range(USERS):
            manager.start_session(
                u, walk.references[u], float(walk.headings[u])
            )
        half = TICKS // 2
        with TrackingFrontend(
            manager, batch_size=USERS, deadline_ms=5.0
        ) as frontend:
            tickets = [
                frontend.submit(u, imu=streams[u][k])
                for k in range(half)
                for u in range(USERS)
            ]
            first_half = [t.result(30.0).coordinates[0] for t in tickets]
        stats = frontend.stats()
        print(f"first half        : {len(first_half)} ticks served in "
              f"{stats.batches} batches "
              f"(mean fill {stats.mean_batch_fill:.1f})")

        manager.checkpoint_all()
        print(f"checkpointed      : {manager.stats().checkpoints} session "
              f"snapshots in the store")
        del manager  # simulated SIGKILL: no close(), no clean shutdown

        # --- process 2: warm restore, the tracks just continue --------
        resumed = SessionManager(engine, store=store, seed=0)
        with TrackingFrontend(
            resumed, batch_size=USERS, deadline_ms=5.0
        ) as frontend:
            tickets = [
                frontend.submit(u, imu=streams[u][k])
                for k in range(half, TICKS)
                for u in range(USERS)
            ]
            second_half = [t.result(30.0).coordinates[0] for t in tickets]
        print(f"warm restore      : {resumed.stats().restored}/{USERS} "
              f"sessions restored from disk, "
              f"{len(second_half)} more ticks served")

        # --- parity: the restart is invisible to every trajectory -----
        served = np.array(first_half + second_half).reshape(TICKS, USERS, 2)
        for u in range(USERS):
            oracle = solo_trajectory(
                engine,
                streams[u],
                walk.references[u],
                float(walk.headings[u]),
                seed=resumed.session_seed(u),
            )
            assert np.array_equal(served[:, u], oracle), f"user {u} diverged"
        print("parity            : all served trajectories bitwise equal "
              "to the offline solo oracle (restart included)")


if __name__ == "__main__":
    main()
