"""The benchmark's three workloads, each against the program's defaults.

Every workload builds its inputs from the seed, sets the system up
(timed), opens the default front end, sends request keys through it,
and checks the served answers against an oracle.  Request keys are
what the load generator sends; ``submit(key)`` turns one into a
front-end call.

* ``wifi-noble`` -- ``create("noble")`` on the serve-bench fast-scale
  UJI-like map: a cheap model call, so the front end does the work.
* ``bigmap-knn`` -- ``create("knn")`` on the ~160k-row quant-scale map:
  the chunked brute-force scan does the work.
* ``track-particle`` -- 128 users streaming IMU ticks into particle
  filter sessions with periodic compressed checkpoints.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from loadgen import poisson_offsets

#: Per-request measurement jitter (dB) added to every detected WAP.
JITTER_DB = 2.0
#: A served answer matches the oracle when every coordinate is within
#: this many metres and the building and floor labels are equal.
COORD_TOLERANCE_M = 1e-6
#: Requests the saturated rounds may draw, per nominal request per
#: second of saturated time: a round runs its full time unless the system
#: serves more than this multiple of the nominal rate, and a faster one
#: ends early, its rate then measured over this fixed amount of work.
SATURATION_HEADROOM = 8.0
#: The front end's default queue bound; the saturated phase fills it.
MAX_PENDING = 1024
#: Reference points of the tracking walk.  Fixed, so the route and the
#: population on it do not depend on how long a run is.
WALK_REFERENCES = 1024


def saturated_requests(plan, rate: float) -> int:
    """Requests every saturated phase of ``plan`` may draw, queue fills included."""
    phases = 1 + len(plan.saturated)
    return int(SATURATION_HEADROOM * rate * plan.saturated_s) + phases * MAX_PENDING


class ScanSource:
    """Distinct request scans, built ``CHUNK`` rows at a time on first use.

    Request ``i`` is held-out row ``source[i]`` with seeded per-request
    N(0, ``JITTER_DB``) dB jitter on every detected WAP; ``NOT_DETECTED``
    entries are kept.  A chunk's jitter comes from its own seeded
    generator, so any chunk can be rebuilt exactly (the oracle does).
    Building lazily keeps the resident pool at one chunk however many
    requests a run sends.
    """

    CHUNK = 512

    def __init__(self, seed: int, heldout: np.ndarray, n: int):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.heldout = heldout
        self.source = rng.integers(0, len(heldout), size=n)
        self.projection = rng.standard_normal(heldout.shape[1])
        #: random projection of every row built; equal rows, equal values
        self.signatures = np.full(n, np.nan)
        self._chunk_id = -1
        self._chunk = None

    def __len__(self) -> int:
        return len(self.source)

    def chunk(self, c: int) -> np.ndarray:
        from repro.data.ujiindoor import NOT_DETECTED, SENSITIVITY_DBM

        rng = np.random.default_rng([self.seed, 2, c])
        rows = self.heldout[self.source[c * self.CHUNK:(c + 1) * self.CHUNK]]
        heard = rows != NOT_DETECTED
        rows[heard] = np.clip(
            rows[heard] + rng.normal(0.0, JITTER_DB, size=int(heard.sum())),
            SENSITIVITY_DBM, 0.0)
        return rows

    def __getitem__(self, i: int) -> np.ndarray:
        c, j = divmod(i, self.CHUNK)
        if c != self._chunk_id:
            self._chunk = self.chunk(c)
            self._chunk_id = c
            start = c * self.CHUNK
            self.signatures[start:start + len(self._chunk)] = self._chunk @ self.projection
        return self._chunk[j]

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Rebuilt rows for ``indices`` (any order)."""
        out = np.empty((len(indices), self.heldout.shape[1]))
        chunks = indices // self.CHUNK
        for c in np.unique(chunks):
            mask = chunks == c
            out[mask] = self.chunk(int(c))[indices[mask] % self.CHUNK]
        return out

    def repeated(self) -> int:
        """Rows built (so sent) that repeat an earlier row exactly."""
        built = self.signatures[np.isfinite(self.signatures)]
        return len(built) - len(np.unique(built))


class WifiWorkload:
    """Point localization queries: one scan in, one position out."""

    unit = "req/s"

    def __init__(self, model, map_scale, map_seed, rate, p99_limit_ms,
                 setup_repeats, oracle_sample, nominal_share):
        self.model = model
        self.map_scale = map_scale
        self.map_seed = map_seed
        self.rate = rate
        self.p99_limit_ms = p99_limit_ms
        self.setup_repeats = setup_repeats
        self.oracle_sample = oracle_sample
        self.nominal_share = nominal_share

    # ----------------------------------------------------------- inputs
    def prepare(self, seed: int, plan) -> None:
        """The site's radio map and the run's request stream.

        The map is the deployed site, fixed by ``map_seed``; ``seed``
        draws the traffic: which held-out scans arrive, their jitter and
        their arrival times.
        """
        from repro.data import generate_uji_like
        from repro.data.ujiindoor import NOT_DETECTED

        self.seed = seed
        self.rng = np.random.default_rng([seed, 3])
        dataset = generate_uji_like(*self.map_scale, seed=self.map_seed)
        self.train, test = dataset.split((0.8, 0.2), rng=self.map_seed + 1)
        # a scan that heard no WAP is no query (and could only repeat)
        test = test.subset(np.flatnonzero((test.rssi != NOT_DETECTED).any(axis=1)))
        n = plan.open_requests(self.rate) + saturated_requests(plan, self.rate)
        self.scans = ScanSource(seed, test.rssi.astype(float), n)
        self.truth = test.coordinates[self.scans.source]
        self.truth_floor = test.floor[self.scans.source]
        self.cursor = 0

    # ------------------------------------------------------------ setup
    def setup(self):
        from repro.serving import create

        self.estimator = create(self.model).fit(self.train)
        return self.estimator

    def frontend(self):
        from repro.serving import ServingFrontend

        return ServingFrontend(self.estimator)

    def close(self, frontend) -> None:
        frontend.close()

    # --------------------------------------------------------- requests
    def open_keys(self, seconds: float):
        offsets = poisson_offsets(self.rng, self.rate, seconds)
        return offsets, range(self.cursor, self.cursor + len(offsets))

    def saturated_keys(self):
        return range(self.cursor, len(self.scans))

    @property
    def repeated_scans(self) -> int:
        return self.scans.repeated()

    def advance(self, phase) -> None:
        self.cursor += len(phase)

    def submitter(self, frontend):
        scans = self.scans
        submit = frontend.submit
        return lambda key: submit(scans[key])

    # ------------------------------------------------------------ check
    def check(self, phases, warm) -> dict:
        """Oracle parity, position error and floor accuracy of timed answers.

        The oracle is a direct ``predict_batch`` on the same rows, in
        batches of the front end's size; ``oracle_sample`` limits it to a
        seeded sample of the timed requests when it would cost as much
        as the run.
        """
        keys = np.concatenate([np.asarray(p.keys, dtype=int) for p in phases])
        answered = np.concatenate([p.answered for p in phases])
        coords = np.concatenate([p.coordinates for p in phases])
        floor = np.concatenate([p.floor for p in phases])
        building = np.concatenate([p.building for p in phases])
        checked = np.arange(len(keys))
        if self.oracle_sample < len(keys):
            rng = np.random.default_rng([self.seed, 4])
            checked = np.sort(rng.choice(len(keys), self.oracle_sample, replace=False))
        match = np.ones(len(keys), dtype=bool)
        for start in range(0, len(checked), 64):
            idx = checked[start:start + 64]
            oracle = self.estimator.predict_batch(self.scans.rows(keys[idx]))
            match[idx] = (
                np.all(np.abs(coords[idx] - oracle.coordinates) <= COORD_TOLERANCE_M, axis=1)
                & (floor[idx] == oracle.floor)
                & (building[idx] == oracle.building)
            )
        ok = answered & match
        errors = np.linalg.norm(coords[answered] - self.truth[keys[answered]], axis=1)
        return {
            "ok": ok,
            "mismatches": int((answered & ~match).sum()),
            "oracle_checked": int(len(checked)),
            "error_m": float(errors.mean()) if len(errors) else float("nan"),
            "floor_accuracy": float(
                (floor[answered] == self.truth_floor[keys[answered]]).sum() / len(keys)),
        }

    def describe(self) -> dict:
        return {"train_rows": len(self.train), "waps": int(self.train.rssi.shape[1]),
                "map_seed": self.map_seed}


class TrackWorkload:
    """Streaming tracking: every user's IMU ticks feed one session each."""

    unit = "ticks/s"

    def __init__(self, rate, p99_limit_ms, setup_repeats, nominal_share, walk_seed, users=128,
                 samples_per_tick=96, particles=200, checkpoint_every=8,
                 prep_ticks=4, check_users=8):
        self.rate = rate
        self.p99_limit_ms = p99_limit_ms
        self.setup_repeats = setup_repeats
        self.nominal_share = nominal_share
        self.walk_seed = walk_seed
        self.users = users
        self.samples_per_tick = samples_per_tick
        self.particles = particles
        self.checkpoint_every = checkpoint_every
        self.prep_ticks = prep_ticks
        self.check_users = check_users

    # ----------------------------------------------------------- inputs
    def prepare(self, seed: int, plan) -> None:
        """Walk, per-user streams, and the checkpoints setup restores from."""
        from repro.core.persistence import ModelStore
        from repro.data.imu import CampusWalkSimulator, court_route_graph
        from repro.geometry.segments import route_graph_segments
        from repro.serving.sessions import StreamingParticleTracker

        self.seed = seed
        self.rng = np.random.default_rng([seed, 2])
        period = self.users / self.rate
        open_ticks = int(plan.open_seconds / period) + 2 * plan.open_phases
        saturated = saturated_requests(plan, self.rate) // self.users + 1
        spread = 2 * self.users
        self.ticks_per_user = min(self.prep_ticks + open_ticks + saturated,
                                  WALK_REFERENCES - spread - 1)
        simulator = CampusWalkSimulator(samples_per_segment=self.samples_per_tick)
        # the walk is the site's route, fixed by walk_seed; seed draws
        # each user's tick phase
        self.walk = simulator.record_session(
            n_walks=1, references_per_walk=WALK_REFERENCES, rng=self.walk_seed)[0]
        # the users are part of the site too: user u replays the walk from
        # its own start segment with its own session RNG stream
        self.offsets = np.random.default_rng([self.walk_seed, 2]).choice(
            spread, size=self.users, replace=False)
        self.eval_ticks = int(plan.warmup_s / period) + int(plan.nominal_s / period)
        route = court_route_graph()
        self.engine = StreamingParticleTracker(
            route_graph_segments(route.nodes, route.adjacency),
            n_particles=self.particles)
        self.phase_offsets = self.rng.uniform(0.0, period, size=self.users)
        self.store_dir = tempfile.mkdtemp(prefix="sessions-", dir=plan.scratch_dir)
        self.store = ModelStore(self.store_dir)
        manager = self._manager()
        for u in range(self.users):
            start = self.offsets[u]
            manager.start_session(u, self.walk.references[start],
                                  float(self.walk.headings[start]))
        for k in range(self.prep_ticks):
            manager.step_batch([(u, self._segment(u, k)) for u in range(self.users)])
        manager.close()  # checkpoints every session
        self.cursor = np.full(self.users, self.prep_ticks)

    def _manager(self):
        from repro.serving.sessions import SessionManager

        return SessionManager(self.engine, store=self.store, seed=self.walk_seed,
                              checkpoint_every=self.checkpoint_every)

    def _segment(self, user: int, tick: int) -> np.ndarray:
        return self.walk.segments[self.offsets[user] + tick]

    # ------------------------------------------------------------ setup
    def setup(self):
        """Warm restore of every user's session from its checkpoint."""
        manager = self._manager()
        for u in range(self.users):
            manager.ensure_session(u)
        self.manager = manager
        return manager

    def frontend(self):
        from repro.serving.sessions import TrackingFrontend

        return TrackingFrontend(self.manager)

    def close(self, frontend) -> None:
        frontend.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    # --------------------------------------------------------- requests
    def _keys(self, users) -> list:
        cursor = self.cursor.copy()
        keys = []
        for u in users:
            if cursor[u] >= self.ticks_per_user:
                break
            keys.append((int(u), int(cursor[u])))
            cursor[u] += 1
        return keys

    def open_keys(self, seconds: float):
        """Each user ticks every ``users / rate`` s from its own phase offset."""
        period = self.users / self.rate
        times, users = [], []
        for u in range(self.users):
            t = np.arange(self.phase_offsets[u], seconds, period)
            times.append(t)
            users.append(np.full(len(t), u))
        times = np.concatenate(times)
        order = np.argsort(times, kind="stable")
        return times[order], self._keys(np.concatenate(users)[order])

    def saturated_keys(self):
        return self._keys(np.tile(np.arange(self.users), self.ticks_per_user))

    def advance(self, phase) -> None:
        for u, k in phase.keys:
            self.cursor[u] = k + 1

    def submitter(self, frontend):
        submit = frontend.submit
        segment = self._segment
        return lambda key: submit(key[0], imu=segment(*key))

    # ------------------------------------------------------------ check
    def check(self, phases, warm) -> dict:
        """Bitwise parity with ``solo_trajectory`` on a seeded subset of
        users, and tick RMSE against the walk's reference positions.

        The RMSE covers the same ticks on every run: each user's first
        ``eval_ticks`` after the preparation phase, which every user has
        sent by the end of the nominal phase (warm-up included).  With
        the population fixed, they are the same estimates on every seed.
        """
        from repro.serving.sessions import solo_trajectory

        keys = [key for p in phases for key in p.keys]
        answered = np.concatenate([p.answered for p in phases])
        coords = np.concatenate([p.coordinates for p in phases])
        checked_users = set(np.random.default_rng([self.seed, 3]).choice(
            self.users, self.check_users, replace=False).tolist())
        oracle = {}
        for u in checked_users:
            start = self.offsets[u]
            oracle[u] = solo_trajectory(
                self.engine,
                [self._segment(u, k) for k in range(int(self.cursor[u]))],
                self.walk.references[start], float(self.walk.headings[start]),
                seed=self.manager.session_seed(u))
        match = np.ones(len(keys), dtype=bool)
        checked = 0
        for i, (u, k) in enumerate(keys):
            if answered[i] and u in oracle:
                checked += 1
                match[i] = np.array_equal(coords[i], oracle[u][k])
        squared = []
        last = self.prep_ticks + self.eval_ticks
        for p in warm + phases:
            for (u, k), done, position in zip(p.keys, p.answered, p.coordinates):
                if done and k < last:
                    truth = self.walk.references[self.offsets[u] + k + 1]
                    squared.append(float(np.sum((position - truth) ** 2)))
        ok = answered & match
        return {
            "ok": ok,
            "mismatches": int((answered & ~match).sum()),
            "oracle_checked": checked,
            "error_m": float(np.sqrt(np.mean(squared))) if squared else float("nan"),
            # one floor: an answered tick is on the walk's floor
            "floor_accuracy": float(answered.sum() / len(keys)),
        }

    def describe(self) -> dict:
        return {"users": self.users, "samples_per_tick": self.samples_per_tick,
                "particles": self.particles, "checkpoint_every": self.checkpoint_every,
                "ticks_per_user_built": self.ticks_per_user}


def make(name: str):
    """The named workload, with its nominal rate, p99 limit and the share
    of a run spent at that rate (the rest measures throughput)."""
    if name == "wifi-noble":
        return WifiWorkload("noble", (48, 10, 10), map_seed=42,
                            rate=10000.0, p99_limit_ms=50.0, setup_repeats=3,
                            oracle_sample=20000, nominal_share=0.4)
    if name == "bigmap-knn":
        return WifiWorkload("knn", (550, 121, 4), map_seed=45,
                            rate=100.0, p99_limit_ms=500.0, setup_repeats=15,
                            oracle_sample=256, nominal_share=0.75)
    if name == "track-particle":
        return TrackWorkload(rate=100.0, p99_limit_ms=250.0, setup_repeats=15,
                             nominal_share=0.75, walk_seed=42)
    raise KeyError(name)


NAMES = ("wifi-noble", "bigmap-knn", "track-particle")
