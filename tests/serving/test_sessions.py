"""Concurrency and lifecycle of the streaming session tier.

Thread-level counterpart to ``test_session_properties.py``: real
producer threads through one :class:`TrackingFrontend` (no cross-user
state bleed under scheduler interleaving), the restart stampede
(restore-exactly-once through the manager's per-user in-flight guard),
deterministic drain-``close``, and the checkpoint lifecycle —
end/evict/corrupt-quarantine/fingerprint-mismatch semantics.
"""

import threading

import numpy as np
import pytest

from repro.core.persistence import ModelStore
from repro.data.imu import CampusWalkSimulator, court_route_graph
from repro.geometry.segments import route_graph_segments
from repro.serving.sessions import (
    SESSION_SCHEMA,
    SessionManager,
    StreamingParticleTracker,
    StreamingPDRTracker,
    TrackingFrontend,
    UnknownSessionError,
    solo_trajectory,
)


@pytest.fixture(scope="module")
def walk():
    sim = CampusWalkSimulator(samples_per_segment=64)
    return sim.record_session(n_walks=1, references_per_walk=28, rng=404)[0]


def _streams(walk, users, ticks):
    return [
        [walk.segments[u + k] for k in range(ticks)] for u in range(users)
    ]


class TestConcurrentProducers:
    def test_disjoint_users_no_state_bleed(self, walk):
        """8 producer threads, disjoint user ids, one front end: every
        user's served trajectory is bitwise the solo oracle — no tick
        lost, duplicated, reordered, or applied to the wrong session."""
        producers, users_per_producer, ticks = 8, 2, 6
        users = producers * users_per_producer
        streams = _streams(walk, users, ticks)
        engine = StreamingPDRTracker()
        manager = SessionManager(engine, seed=3)
        for u in range(users):
            manager.start_session(
                u, walk.references[u], float(walk.headings[u])
            )
        frontend = TrackingFrontend(manager, batch_size=8, deadline_ms=2.0)
        tickets = [[] for _ in range(users)]
        barrier = threading.Barrier(producers)

        def produce(mine):
            barrier.wait()
            for k in range(ticks):
                for u in mine:
                    tickets[u].append(frontend.submit(u, imu=streams[u][k]))

        threads = [
            threading.Thread(
                target=produce,
                args=(range(p * users_per_producer,
                            (p + 1) * users_per_producer),),
            )
            for p in range(producers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for u in range(users):
            got = np.array(
                [t.result(30.0).coordinates[0] for t in tickets[u]]
            )
            oracle = solo_trajectory(
                engine,
                streams[u],
                walk.references[u],
                float(walk.headings[u]),
                seed=manager.session_seed(u),
            )
            assert np.array_equal(got, oracle), f"user {u} bled state"
        frontend.close()
        assert manager.stats().ticks == users * ticks

    def test_restart_stampede_restores_exactly_once(self, walk, tmp_path):
        """N producers hitting one cold (checkpointed) user load the
        artifact from disk exactly once; the losers share the result."""
        engine = StreamingPDRTracker()
        store = ModelStore(tmp_path)
        first = SessionManager(engine, store=store, seed=7)
        first.start_session("cold", walk.references[0], 0.0)
        for k in range(3):
            first.step("cold", walk.segments[k])
        first.close()

        resumed = SessionManager(engine, store=store, seed=7)
        n_threads = 12
        barrier = threading.Barrier(n_threads)
        sessions = [None] * n_threads
        errors = []

        def stampede(i):
            barrier.wait()
            try:
                sessions[i] = resumed.ensure_session("cold")
            except BaseException as error:  # noqa: BLE001 — recorded
                errors.append(error)

        threads = [
            threading.Thread(target=stampede, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(s is sessions[0] for s in sessions)
        stats = resumed.stats()
        assert stats.restore_loads == 1  # one disk load, N-1 waiters
        assert stats.restored == 1
        # the restored state continues the trajectory bitwise
        got = resumed.step("cold", walk.segments[3])
        oracle = solo_trajectory(
            engine,
            [walk.segments[k] for k in range(4)],
            walk.references[0],
            0.0,
            seed=resumed.session_seed("cold"),
        )
        assert np.array_equal(got, oracle[-1])

    def test_close_resolves_every_inflight_tick(self, walk):
        """Drain-close: every ticket submitted before ``close`` resolves
        with its on-oracle prediction, none hang, and the manager's
        sessions were checkpoint-dropped afterward (close is inherited
        deterministic drain, then the executor closes the manager)."""
        users, ticks = 4, 5
        streams = _streams(walk, users, ticks)
        engine = StreamingPDRTracker()
        manager = SessionManager(engine, seed=11)
        for u in range(users):
            manager.start_session(
                u, walk.references[u], float(walk.headings[u])
            )
        # a deliberately lazy deadline so close() itself must drain
        frontend = TrackingFrontend(
            manager, batch_size=64, deadline_ms=10_000.0
        )
        tickets = [
            [frontend.submit(u, imu=streams[u][k]) for k in range(ticks)]
            for u in range(users)
        ]
        frontend.close()
        for u in range(users):
            assert all(t.done for t in tickets[u])
            got = np.array(
                [t.result(0.0).coordinates[0] for t in tickets[u]]
            )
            oracle = solo_trajectory(
                engine,
                streams[u],
                walk.references[u],
                float(walk.headings[u]),
                seed=manager.session_seed(u),
            )
            assert np.array_equal(got, oracle)
        assert manager.stats().active == 0  # close() dropped the table


class TestLifecycle:
    def test_duplicate_start_rejected(self, walk):
        manager = SessionManager(StreamingPDRTracker())
        manager.start_session("a", walk.references[0], 0.0)
        with pytest.raises(ValueError, match="already exists"):
            manager.start_session("a", walk.references[0], 0.0)

    def test_unknown_user_rejected_without_resolver(self, walk):
        manager = SessionManager(StreamingPDRTracker())
        with pytest.raises(UnknownSessionError):
            manager.step("ghost", walk.segments[0])

    def test_create_on_first_scan_via_resolver(self, walk):
        """The "create on first scan" path: a start_resolver turns the
        first contact's scan into a start pose."""
        seen = []

        def resolver(user_id, scan):
            seen.append((user_id, scan))
            return walk.references[0], float(walk.headings[0])

        engine = StreamingPDRTracker()
        manager = SessionManager(engine, seed=2, start_resolver=resolver)
        frontend = TrackingFrontend(
            manager, batch_size=4, deadline_ms=2.0
        )
        ticket = frontend.submit("new", scan="scan-blob", imu=walk.segments[0])
        got = ticket.result(30.0).coordinates[0]
        frontend.close()
        assert seen == [("new", "scan-blob")]
        oracle = solo_trajectory(
            engine,
            [walk.segments[0]],
            walk.references[0],
            float(walk.headings[0]),
            seed=manager.session_seed("new"),
        )
        assert np.array_equal(got, oracle[-1])

    def test_end_session_returns_final_and_forgets(self, walk, tmp_path):
        engine = StreamingPDRTracker()
        manager = SessionManager(engine, store=ModelStore(tmp_path), seed=4)
        manager.start_session("a", walk.references[0], 0.0)
        served = manager.step("a", walk.segments[0])
        final = manager.end_session("a")
        assert np.array_equal(final, served)
        assert manager.stats().ended == 1
        # ended without checkpoint=True: nothing to restore
        fresh = SessionManager(engine, store=ModelStore(tmp_path), seed=4)
        with pytest.raises(UnknownSessionError):
            fresh.step("a", walk.segments[1])
        with pytest.raises(UnknownSessionError):
            manager.end_session("a")

    def test_end_session_checkpoint_true_suspends_to_disk(
        self, walk, tmp_path
    ):
        engine = StreamingPDRTracker()
        store = ModelStore(tmp_path)
        manager = SessionManager(engine, store=store, seed=4)
        manager.start_session("a", walk.references[0], 0.0)
        manager.step("a", walk.segments[0])
        manager.end_session("a", checkpoint=True)
        resumed = SessionManager(engine, store=store, seed=4)
        got = resumed.step("a", walk.segments[1])
        oracle = solo_trajectory(
            engine,
            [walk.segments[0], walk.segments[1]],
            walk.references[0],
            0.0,
            seed=manager.session_seed("a"),
        )
        assert np.array_equal(got, oracle[-1])

    def test_periodic_checkpoint_cadence(self, walk, tmp_path):
        manager = SessionManager(
            StreamingPDRTracker(),
            store=ModelStore(tmp_path),
            checkpoint_every=2,
            seed=4,
        )
        manager.start_session("a", walk.references[0], 0.0)
        for k in range(5):
            manager.step("a", walk.segments[k])
        # ticks 2 and 4 crossed the cadence
        assert manager.stats().checkpoints == 2

    def test_namespaces_isolate_checkpoints(self, walk, tmp_path):
        engine = StreamingPDRTracker()
        store = ModelStore(tmp_path)
        blue = SessionManager(engine, store=store, namespace="blue", seed=4)
        blue.start_session("a", walk.references[0], 0.0)
        blue.step("a", walk.segments[0])
        blue.close()
        green = SessionManager(engine, store=store, namespace="green", seed=4)
        with pytest.raises(UnknownSessionError):
            green.step("a", walk.segments[1])


class TestCheckpointSafety:
    def test_corrupt_checkpoint_quarantined(self, walk, tmp_path):
        engine = StreamingPDRTracker()
        store = ModelStore(tmp_path)
        manager = SessionManager(engine, store=store, seed=4)
        manager.start_session("a", walk.references[0], 0.0)
        manager.step("a", walk.segments[0])
        manager.close()
        path = manager._checkpoint_path("a")
        with open(path, "wb") as handle:
            handle.write(b"not an npz archive")
        fresh = SessionManager(engine, store=store, seed=4)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(UnknownSessionError):
                fresh.step("a", walk.segments[1])
        assert fresh.stats().quarantined == 1
        import os

        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_foreign_schema_checkpoint_quarantined(self, walk, tmp_path):
        engine = StreamingPDRTracker()
        store = ModelStore(tmp_path)
        manager = SessionManager(engine, store=store, seed=4)
        manager.start_session("a", walk.references[0], 0.0)
        manager.step("a", walk.segments[0])
        manager.close()
        path = manager._checkpoint_path("a")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        import json

        envelope = json.loads(bytes(bytearray(arrays["session_json"])))
        assert envelope["schema"] == SESSION_SCHEMA
        envelope["schema"] = "repro-session/999"
        arrays["session_json"] = np.frombuffer(
            json.dumps(envelope).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        fresh = SessionManager(engine, store=store, seed=4)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(UnknownSessionError):
                fresh.step("a", walk.segments[1])

    @staticmethod
    def _particle_checkpoint(walk, store):
        route = court_route_graph()
        engine = StreamingParticleTracker(
            route_graph_segments(route.nodes, route.adjacency), n_particles=40
        )
        manager = SessionManager(engine, store=store, seed=13)
        manager.start_session("a", walk.references[0], float(walk.headings[0]))
        manager.step("a", walk.segments[0])
        manager.close()
        return engine, manager._checkpoint_path("a")

    @staticmethod
    def _read(path):
        import json

        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        envelope = json.loads(bytes(bytearray(members.pop("session_json"))))
        return members, envelope

    @staticmethod
    def _blob(envelope):
        import json

        return np.frombuffer(json.dumps(envelope).encode(), dtype=np.uint8)

    def _assert_quarantined(self, walk, engine, store, path):
        import os

        fresh = SessionManager(engine, store=store, seed=13)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(UnknownSessionError):
                fresh.step("a", walk.segments[1])
        assert fresh.stats().quarantined == 1
        assert fresh.stats().restored == 0
        assert os.path.exists(path + ".corrupt")

    def test_checkpoint_is_one_packed_state_array(self, walk, tmp_path):
        engine, path = self._particle_checkpoint(walk, ModelStore(tmp_path))
        members, envelope = self._read(path)
        assert list(members) == ["state"]
        assert members["state"].dtype == np.float64
        assert members["state"].ndim == 1
        assert envelope["schema"] == SESSION_SCHEMA == "repro-session/2"
        sizes = [int(np.prod(shape)) for _name, shape in envelope["layout"]]
        assert sum(sizes) == members["state"].size

    def test_seven_member_v1_checkpoint_quarantined(self, walk, tmp_path):
        """A checkpoint in the old one-member-per-array layout is never
        mis-restored by a build that reads the packed layout."""
        store = ModelStore(tmp_path)
        engine, path = self._particle_checkpoint(walk, store)
        members, envelope = self._read(path)
        arrays, start = {}, 0
        for name, shape in envelope.pop("layout"):
            size = int(np.prod(shape))
            arrays[name] = members["state"][start : start + size].reshape(shape)
            start += size
        envelope["schema"] = "repro-session/1"
        arrays["session_json"] = self._blob(envelope)
        assert len(arrays) == 7
        np.savez_compressed(path, **arrays)
        self._assert_quarantined(walk, engine, store, path)

    def test_layout_size_mismatch_quarantined(self, walk, tmp_path):
        store = ModelStore(tmp_path)
        engine, path = self._particle_checkpoint(walk, store)
        members, envelope = self._read(path)
        name, shape = envelope["layout"][0]
        envelope["layout"][0] = [name, [shape[0] - 1] + shape[1:]]
        np.savez(path, state=members["state"], session_json=self._blob(envelope))
        self._assert_quarantined(walk, engine, store, path)

    def test_engine_fingerprint_mismatch_ignored_not_quarantined(
        self, walk, tmp_path
    ):
        """A reconfigured engine cannot continue the old state; the
        checkpoint is ignored (fresh start via UnknownSessionError) but
        left on disk for the original engine."""
        store = ModelStore(tmp_path)
        manager = SessionManager(
            StreamingPDRTracker(), store=store, seed=4
        )
        manager.start_session("a", walk.references[0], 0.0)
        manager.step("a", walk.segments[0])
        manager.close()
        reconfigured = SessionManager(
            StreamingPDRTracker(stride_length=0.123), store=store, seed=4
        )
        with pytest.warns(RuntimeWarning, match="differently configured"):
            with pytest.raises(UnknownSessionError):
                reconfigured.step("a", walk.segments[1])
        assert reconfigured.stats().quarantined == 0
        # the original engine still restores it
        original = SessionManager(StreamingPDRTracker(), store=store, seed=4)
        original.step("a", walk.segments[1])
        assert original.stats().restored == 1

    def test_particle_checkpoint_roundtrip_bitwise(self, walk, tmp_path):
        """The stochastic engine's full state (particles, weights, RNG
        stream) survives a checkpoint/restore cycle bitwise."""
        route = court_route_graph()
        segs = route_graph_segments(route.nodes, route.adjacency)
        engine = StreamingParticleTracker(segs, n_particles=40)
        store = ModelStore(tmp_path)
        manager = SessionManager(engine, store=store, seed=13)
        manager.start_session("a", walk.references[0], float(walk.headings[0]))
        served = [manager.step("a", walk.segments[k]) for k in range(3)]
        manager.close()
        resumed = SessionManager(engine, store=store, seed=13)
        served += [resumed.step("a", walk.segments[k]) for k in range(3, 7)]
        oracle = solo_trajectory(
            engine,
            [walk.segments[k] for k in range(7)],
            walk.references[0],
            float(walk.headings[0]),
            seed=manager.session_seed("a"),
        )
        assert np.array_equal(np.array(served), oracle)


class TestFrontendValidation:
    def test_submit_requires_imu(self, walk):
        manager = SessionManager(StreamingPDRTracker())
        manager.start_session("a", walk.references[0], 0.0)
        frontend = TrackingFrontend(
            manager, batch_size=2, deadline_ms=1.0, start=False
        )
        with pytest.raises(ValueError, match="requires an imu"):
            frontend.submit("a")
        with pytest.raises(ValueError, match=r"\(T, 6\)"):
            frontend.submit("a", imu=np.zeros((4, 5)))
        frontend.close()

    def test_samples_per_tick_enforced(self, walk):
        manager = SessionManager(StreamingPDRTracker())
        manager.start_session("a", walk.references[0], 0.0)
        frontend = TrackingFrontend(
            manager,
            samples_per_tick=64,
            batch_size=2,
            deadline_ms=1.0,
            start=False,
        )
        with pytest.raises(ValueError, match="samples per tick"):
            frontend.submit("a", imu=np.zeros((32, 6)))
        frontend.close()
