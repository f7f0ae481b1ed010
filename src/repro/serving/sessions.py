"""Streaming trajectory serving: stateful per-user tracking sessions.

The point-query tier (:class:`~repro.serving.frontend.ServingFrontend`)
treats every request as i.i.d. — fine for Wi-Fi fingerprint lookups,
wrong for the tracking subsystem, where each user is a *sequence*: the
next position estimate depends on filter state accumulated over every
previous IMU tick.  This module promotes tracking into the serving tier:

* :class:`SessionTracker` — the streaming tracker protocol.  One engine
  instance is shared by every session of its kind; per-user state lives
  in opaque state objects the engine creates, steps, and serializes.
  Three engines wrap the existing offline trackers:

  - :class:`StreamingPDRTracker` — pedestrian dead reckoning
    (:func:`repro.tracking.dead_reckoning.pdr_track`),
  - :class:`StreamingParticleTracker` — the map-constrained particle
    filter (:class:`repro.tracking.ParticleFilterTracker`), with one
    independent RNG stream per session,
  - :class:`StreamingNobleTracker` — the learned hop-by-hop tracker
    (:class:`repro.tracking.OnlineTracker` over a fitted NObLe net).

* :class:`SessionManager` — owns the per-user
  :class:`TrackingSession` table: create on first scan (explicit
  :meth:`~SessionManager.start_session`, a ``start_resolver`` hook, or
  warm restore from a checkpoint), idle-TTL eviction, explicit
  :meth:`~SessionManager.end_session`, and micro-batched stepping
  *across users per time step* (:meth:`~SessionManager.step_batch`).

* :class:`TrackingFrontend` — a :class:`ServingFrontend` whose
  ``submit(user_id, scan, imu)`` enqueues one IMU tick per call; the
  drain path decodes each batch and hands it to the manager, so all of
  the point tier's queueing, deadline, backpressure, admission, and
  deterministic-shutdown semantics apply unchanged to session traffic.

Batched-across-users parity
---------------------------
The serving claim that makes sessions testable: stepping N sessions
together is **bitwise identical** to stepping each session alone — the
"offline single-session oracle" (:func:`solo_trajectory`).  Two design
rules buy this:

1. Per-session arithmetic uses only that session's rows and (for the
   particle filter) that session's own RNG; the across-user
   vectorization batches row-independent work (heading integration,
   step detection, the ``segment_distances`` map scan, the NObLe
   network forward) where each output row depends only on its input row.
2. The streaming step detector replicates the offline loops exactly.
   Gyro headings chain the running ``cumsum`` fold across chunks (the
   carried partial sum is the *last fold value*, so every addition
   happens in the same order as one big ``np.cumsum``), and a two-sample
   tail carries the chunk boundary: the offline loops skip ``t = 0`` and
   ``t = len-1``, so a boundary sample becomes processable exactly when
   its successor arrives.  Consequently the estimate after tick *k*
   equals running the offline tracker on the concatenation of the first
   *k* segments — the parity oracle needs no special streaming mode.

Checkpointing
-------------
Session state persists through the :class:`ModelStore` directory as
versioned ``repro-session/2`` artifacts: a plain ``.npz`` of exactly
two members, ``state`` (every engine array packed into one flat
float64 vector) and ``session_json`` (the JSON envelope, which records
the ``[[name, shape], ...]`` layout that splits ``state`` back into
the engine's named arrays).  One uncompressed member keeps a warm
restore to a single array read.  Writes are atomic
(``mkstemp``/``os.replace``, as for the estimator artifacts), addressed
by ``store.path_for("session-<kind>", namespace, user_id)``.
Snapshots are taken every ``checkpoint_every`` ticks, on idle
eviction, and at ``close()``; a fresh manager over the same store
warm-restores a user's track on first contact, with a per-user
in-flight guard so a restart stampede loads each checkpoint exactly
once.  Corrupt or foreign artifacts are
quarantined (``*.corrupt``) with a warning and the track restarts
fresh — a bad file must never take down the serving path.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.data.gait import GRAVITY, IMUConfig
from repro.data.paths import featurize_segment
from repro.geometry.segments import segment_distances
from repro.serving.frontend import ServingFrontend
from repro.serving.registry import Prediction
from repro.utils.rng import ensure_rng

#: Version tag baked into every session checkpoint artifact.
SESSION_SCHEMA = "repro-session/2"

#: Step-detection constants shared with the offline trackers.
_STEP_THRESHOLD = 1.0
_MIN_STEP_INTERVAL_S = 0.35


class UnknownSessionError(KeyError):
    """A tick arrived for a user with no session, checkpoint, or resolver."""


def _json_blob(payload: dict) -> np.ndarray:
    """A JSON payload as a uint8 array (npz archives hold arrays only)."""
    import json

    text = json.dumps(payload, separators=(",", ":"))
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _json_unblob(array: np.ndarray) -> dict:
    import json

    return json.loads(bytes(bytearray(array)).decode("utf-8"))


def _pack_state(arrays: "dict[str, np.ndarray]"):
    """Named engine arrays as one flat float64 vector plus its layout."""
    layout = [[name, list(np.shape(array))] for name, array in arrays.items()]
    flat = np.concatenate(
        [np.asarray(array, dtype=np.float64).ravel() for array in arrays.values()]
    )
    return flat, layout


def _unpack_state(flat: np.ndarray, layout) -> "dict[str, np.ndarray]":
    """Invert :func:`_pack_state`; ``ValueError`` on any mismatch."""
    if flat.dtype != np.float64 or flat.ndim != 1:
        raise ValueError(
            f"checkpoint state must be flat float64, got {flat.dtype} "
            f"{flat.shape}"
        )
    try:
        shapes = [
            (str(name), tuple(int(n) for n in shape)) for name, shape in layout
        ]
    except (TypeError, ValueError) as error:
        raise ValueError(f"malformed checkpoint layout: {layout!r}") from error
    sizes = [math.prod(shape) for _name, shape in shapes]
    negative = any(n < 0 for _name, shape in shapes for n in shape)
    if negative or sum(sizes) != flat.size:
        raise ValueError(
            f"checkpoint layout {layout!r} does not match {flat.size} "
            "state values"
        )
    arrays, start = {}, 0
    for (name, shape), size in zip(shapes, sizes):
        arrays[name] = flat[start : start + size].reshape(shape)
        start += size
    return arrays


# ===================================================================== engines
class SessionTracker:
    """Protocol for streaming trackers behind :class:`SessionManager`.

    One engine serves every session of its kind; per-user filter state
    lives in state objects the engine hands out.  ``step_many`` is the
    vectorize-across-users entrypoint: it must be bitwise equivalent to
    stepping each state alone (the parity contract the property suite
    pins).
    """

    #: Artifact/engine discriminator ("pdr", "particle", "noble").
    kind: str = "abstract"

    def new_state(self, start_position, start_heading: float, seed):
        """Fresh per-session state at a known start pose."""
        raise NotImplementedError

    def step_many(self, states: list, segments: np.ndarray) -> np.ndarray:
        """Advance every state by its (T, 6) IMU segment; (N, 2) estimates.

        ``segments`` is (N, T, 6) — one chunk per state, equal lengths
        within the call.  States are mutated in place.
        """
        raise NotImplementedError

    def estimate(self, state) -> np.ndarray:
        """Current (2,) position estimate without consuming data."""
        raise NotImplementedError

    def state_arrays(self, state) -> "dict[str, np.ndarray]":
        """Checkpointable array view of ``state``."""
        raise NotImplementedError

    def state_meta(self, state) -> dict:
        """JSON-serializable non-array state (e.g. RNG state)."""
        return {}

    def restore_state(self, arrays: dict, meta: dict):
        """Rebuild a state object from :meth:`state_arrays` output."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable config digest; a checkpoint from a differently
        configured engine is ignored rather than silently continued."""
        raise NotImplementedError

    def _check_segments(self, states, segments) -> np.ndarray:
        segments = np.asarray(segments, dtype=float)
        if segments.ndim != 3 or segments.shape[2] != 6:
            raise ValueError(
                f"segments must be (N, T, 6), got {segments.shape}"
            )
        if len(segments) != len(states):
            raise ValueError(
                f"{len(states)} states but {len(segments)} segments"
            )
        return segments


class _StepperState:
    """Streaming step-detector state shared by the PDR/particle engines.

    ``fold`` is the running left-fold of gyro-z samples (the exact
    partial ``cumsum`` value), ``count`` the samples consumed, and the
    two tails hold the trailing (vertical, heading) samples whose peak
    test needs the not-yet-arrived successor.
    """

    __slots__ = (
        "initial_heading", "fold", "count", "last_step", "tail_v", "tail_h"
    )

    def __init__(self, initial_heading: float, min_gap: int):
        self.initial_heading = float(initial_heading)
        self.fold = 0.0
        self.count = 0
        self.last_step = -min_gap
        self.tail_v = np.empty(0)
        self.tail_h = np.empty(0)


def _extend_stream(states, segments, dt):
    """Extend each session's stream by one chunk; return peak-scan arrays.

    All states must share one tail length (callers group by it).
    Returns ``(ext_v, ext_h, abs_offset)`` — the vertical / heading
    series covering the carried tail plus the new chunk, and each row's
    absolute sample index of ``ext[:, 0]``.  Stream bookkeeping (fold,
    count, tails) is advanced here; step firing only touches tracker
    state.  Chaining the fold through ``np.cumsum`` keeps every
    addition in the same order as one offline cumsum over the full
    stream, so headings match the offline tracker bitwise.
    """
    gyro = segments[:, :, 5]
    folds = np.array([s.fold for s in states])
    run = np.cumsum(np.concatenate([folds[:, None], gyro], axis=1), axis=1)[:, 1:]
    inits = np.array([s.initial_heading for s in states])
    h_chunk = inits[:, None] + run * dt
    v_chunk = segments[:, :, 2] - GRAVITY
    tail_len = len(states[0].tail_v)
    if tail_len:
        ext_v = np.concatenate([np.stack([s.tail_v for s in states]), v_chunk], axis=1)
        ext_h = np.concatenate([np.stack([s.tail_h for s in states]), h_chunk], axis=1)
    else:
        ext_v, ext_h = v_chunk, h_chunk
    abs_offset = np.array([s.count - tail_len for s in states], dtype=int)
    chunk_len = segments.shape[1]
    keep = min(2, ext_v.shape[1])
    for i, state in enumerate(states):
        state.fold = float(run[i, -1])
        state.count += chunk_len
        state.tail_v = ext_v[i, -keep:].copy()
        state.tail_h = ext_h[i, -keep:].copy()
    return ext_v, ext_h, abs_offset


def _stepper_scalars(state) -> np.ndarray:
    return np.array(
        [
            state.initial_heading,
            state.fold,
            float(state.count),
            float(state.last_step),
        ]
    )


def _load_stepper_scalars(state, scalars) -> None:
    state.initial_heading = float(scalars[0])
    state.fold = float(scalars[1])
    state.count = int(scalars[2])
    state.last_step = int(scalars[3])


class _PDRState(_StepperState):
    __slots__ = ("position",)


class StreamingPDRTracker(SessionTracker):
    """Streaming pedestrian dead reckoning.

    Per-tick replica of :func:`repro.tracking.dead_reckoning.pdr_track`:
    after *k* ticks a session's estimate equals
    ``pdr_track(concat(segments[:k]), ...)[-1]`` bitwise, which is also
    what :class:`~repro.tracking.DeadReckoningTracker` reports for the
    full path — so the served trajectory scores identically under
    :func:`repro.tracking.evaluate_tracker`.
    """

    kind = "pdr"

    def __init__(
        self,
        config: "IMUConfig | None" = None,
        stride_length: "float | None" = None,
        step_threshold: float = _STEP_THRESHOLD,
        min_step_interval_s: float = _MIN_STEP_INTERVAL_S,
    ):
        self.config = config or IMUConfig()
        self.stride = (
            self.config.speed_mps / self.config.step_frequency_hz
            if stride_length is None
            else float(stride_length)
        )
        self.step_threshold = float(step_threshold)
        self.dt = 1.0 / self.config.sample_rate_hz
        self.min_gap = max(
            1, int(min_step_interval_s * self.config.sample_rate_hz)
        )

    def fingerprint(self) -> str:
        return repr(
            ("pdr", self.stride, self.step_threshold, self.dt, self.min_gap)
        )

    def new_state(self, start_position, start_heading: float, seed):
        state = _PDRState(start_heading, self.min_gap)
        state.position = np.asarray(start_position, dtype=float).copy()
        if state.position.shape != (2,):
            raise ValueError(
                f"start_position must be (2,), got {state.position.shape}"
            )
        return state

    def estimate(self, state) -> np.ndarray:
        return state.position.copy()

    def step_many(self, states, segments):
        segments = self._check_segments(states, segments)
        out = np.empty((len(states), 2))
        groups: "dict[int, list[int]]" = {}
        for i, state in enumerate(states):
            groups.setdefault(len(state.tail_v), []).append(i)
        for indices in groups.values():
            sub = [states[i] for i in indices]
            ext_v, ext_h, abs_offset = _extend_stream(
                sub, segments[indices], self.dt
            )
            positions = np.stack([s.position for s in sub])
            last_step = np.array([s.last_step for s in sub], dtype=int)
            for idx in range(1, ext_v.shape[1] - 1):
                v = ext_v[:, idx]
                peak = (
                    (v > self.step_threshold)
                    & (v >= ext_v[:, idx - 1])
                    & (v >= ext_v[:, idx + 1])
                )
                if not peak.any():
                    continue
                t_abs = abs_offset + idx
                fire = peak & (t_abs - last_step >= self.min_gap)
                if not fire.any():
                    continue
                last_step[fire] = t_abs[fire]
                h = ext_h[fire, idx]
                positions[fire, 0] += self.stride * np.cos(h)
                positions[fire, 1] += self.stride * np.sin(h)
            for row, i in enumerate(indices):
                states[i].position = positions[row]
                states[i].last_step = int(last_step[row])
                out[i] = positions[row]
        return out

    def state_arrays(self, state):
        return {
            "position": state.position,
            "tail_v": state.tail_v,
            "tail_h": state.tail_h,
            "scalars": _stepper_scalars(state),
        }

    def restore_state(self, arrays, meta):
        state = _PDRState(0.0, self.min_gap)
        _load_stepper_scalars(state, arrays["scalars"])
        state.position = np.asarray(arrays["position"], dtype=float).copy()
        state.tail_v = np.asarray(arrays["tail_v"], dtype=float).copy()
        state.tail_h = np.asarray(arrays["tail_h"], dtype=float).copy()
        return state


class _ParticleState(_StepperState):
    __slots__ = ("positions", "headings", "weights", "last_heading", "rng")


class StreamingParticleTracker(SessionTracker):
    """Streaming map-constrained particle filter.

    Per-event replica of
    :meth:`repro.tracking.ParticleFilterTracker._run_filter` with one
    independent RNG per session (seeded at session creation), so a
    session's end-of-path estimate equals
    ``ParticleFilterTracker(..., seed=<session seed>)
    .predict_coordinates(data, [path])`` bitwise.  ``step_many``
    batches the O(particles x route) map-distance scan across every
    session that stepped at the same sample — the dominant cost — while
    per-session noise draws stay on the session's own generator, which
    is what makes batched == solo exact.
    """

    kind = "particle"

    def __init__(
        self,
        route_segments: np.ndarray,
        config: "IMUConfig | None" = None,
        n_particles: int = 200,
        map_sigma: float = 3.0,
        step_noise: float = 0.15,
        heading_noise: float = 0.05,
    ):
        self.route_segments = np.asarray(route_segments, dtype=float)
        if self.route_segments.ndim != 3:
            raise ValueError("route_segments must be (E, 2, 2)")
        if n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {n_particles}")
        if map_sigma <= 0:
            raise ValueError(f"map_sigma must be positive, got {map_sigma}")
        self.config = config or IMUConfig()
        self.n_particles = int(n_particles)
        self.map_sigma = float(map_sigma)
        self.step_noise = float(step_noise)
        self.heading_noise = float(heading_noise)
        self.dt = 1.0 / self.config.sample_rate_hz
        self.stride = self.config.speed_mps / self.config.step_frequency_hz
        self.min_gap = max(1, int(0.35 * self.config.sample_rate_hz))

    def fingerprint(self) -> str:
        return repr(
            (
                "particle",
                self.n_particles,
                self.map_sigma,
                self.step_noise,
                self.heading_noise,
                self.stride,
                self.dt,
                self.route_segments.shape,
            )
        )

    def new_state(self, start_position, start_heading: float, seed):
        start = np.asarray(start_position, dtype=float)
        if start.shape != (2,):
            raise ValueError(f"start_position must be (2,), got {start.shape}")
        state = _ParticleState(start_heading, self.min_gap)
        state.rng = ensure_rng(seed)
        state.positions = np.tile(start, (self.n_particles, 1))
        state.headings = np.full(
            self.n_particles, float(start_heading)
        ) + state.rng.normal(0.0, self.heading_noise, size=self.n_particles)
        state.weights = np.full(self.n_particles, 1.0 / self.n_particles)
        state.last_heading = float(start_heading)
        return state

    def estimate(self, state) -> np.ndarray:
        return np.average(state.positions, axis=0, weights=state.weights)

    def step_many(self, states, segments):
        segments = self._check_segments(states, segments)
        groups: "dict[int, list[int]]" = {}
        for i, state in enumerate(states):
            groups.setdefault(len(state.tail_v), []).append(i)
        for indices in groups.values():
            sub = [states[i] for i in indices]
            ext_v, ext_h, abs_offset = _extend_stream(
                sub, segments[indices], self.dt
            )
            last_step = np.array([s.last_step for s in sub], dtype=int)
            for idx in range(1, ext_v.shape[1] - 1):
                v = ext_v[:, idx]
                peak = (
                    (v > _STEP_THRESHOLD)
                    & (v >= ext_v[:, idx - 1])
                    & (v >= ext_v[:, idx + 1])
                )
                if not peak.any():
                    continue
                t_abs = abs_offset + idx
                fire = peak & (t_abs - last_step >= self.min_gap)
                fired = np.nonzero(fire)[0]
                if not len(fired):
                    continue
                last_step[fired] = t_abs[fired]
                self._propagate(sub, fired, ext_h[:, idx])
            for row, i in enumerate(indices):
                states[i].last_step = int(last_step[row])
        return np.stack([self.estimate(state) for state in states])

    def _propagate(self, states, fired, headings_now) -> None:
        """One step event for the fired sessions (same sample index).

        Noise draws and re-weighting run per session on its own arrays
        and generator (the bitwise-parity contract); the map-distance
        scan — O(particles x route segments), the heavy part — runs as
        one stacked call across all fired sessions.
        """
        n = self.n_particles
        for i in fired:
            state = states[i]
            h_now = float(headings_now[i])
            turn = h_now - state.last_heading
            state.last_heading = h_now
            state.headings += turn + state.rng.normal(
                0.0, self.heading_noise, size=n
            )
            steps = self.stride + state.rng.normal(
                0.0, self.step_noise * self.stride, size=n
            )
            state.positions[:, 0] += steps * np.cos(state.headings)
            state.positions[:, 1] += steps * np.sin(state.headings)
        stacked = np.concatenate([states[i].positions for i in fired], axis=0)
        distances = segment_distances(stacked, self.route_segments)
        for row, i in enumerate(fired):
            state = states[i]
            d = distances[row * n : (row + 1) * n]
            state.weights *= np.exp(-0.5 * (d / self.map_sigma) ** 2)
            total = state.weights.sum()
            if total <= 1e-300:
                state.weights[:] = 1.0 / n
            else:
                state.weights /= total
            effective = 1.0 / np.sum(state.weights**2)
            if effective < n / 2:
                chosen = state.rng.choice(n, size=n, p=state.weights)
                state.positions = state.positions[chosen]
                state.headings = state.headings[chosen] + state.rng.normal(
                    0.0, self.heading_noise / 2, size=n
                )
                state.weights[:] = 1.0 / n

    def state_arrays(self, state):
        return {
            "positions": state.positions,
            "headings": state.headings,
            "weights": state.weights,
            "tail_v": state.tail_v,
            "tail_h": state.tail_h,
            "scalars": np.concatenate(
                [_stepper_scalars(state), [state.last_heading]]
            ),
        }

    def state_meta(self, state):
        return {"rng_state": state.rng.bit_generator.state}

    def restore_state(self, arrays, meta):
        positions = np.asarray(arrays["positions"], dtype=float).copy()
        if positions.shape != (self.n_particles, 2):
            raise ValueError(
                f"checkpoint has {positions.shape[0]} particles; engine "
                f"runs {self.n_particles}"
            )
        state = _ParticleState(0.0, self.min_gap)
        _load_stepper_scalars(state, arrays["scalars"])
        state.last_heading = float(arrays["scalars"][4])
        state.positions = positions
        state.headings = np.asarray(arrays["headings"], dtype=float).copy()
        state.weights = np.asarray(arrays["weights"], dtype=float).copy()
        state.tail_v = np.asarray(arrays["tail_v"], dtype=float).copy()
        state.tail_h = np.asarray(arrays["tail_h"], dtype=float).copy()
        state.rng = ensure_rng(0)
        saved = meta.get("rng_state")
        if saved is None:
            raise ValueError("particle checkpoint is missing its RNG state")
        if saved.get("bit_generator") != type(state.rng.bit_generator).__name__:
            raise ValueError(
                "checkpoint RNG "
                f"{saved.get('bit_generator')!r} does not match this "
                f"runtime's {type(state.rng.bit_generator).__name__!r}"
            )
        state.rng.bit_generator.state = saved
        return state


class _NobleState:
    __slots__ = ("position", "heading")

    def __init__(self, position, heading: float):
        self.position = np.asarray(position, dtype=float).copy()
        if self.position.shape != (2,):
            raise ValueError(
                f"start_position must be (2,), got {self.position.shape}"
            )
        self.heading = float(heading)


class StreamingNobleTracker(SessionTracker):
    """Streaming hop-by-hop NObLe tracking (the learned engine).

    Per-tick replica of :class:`repro.tracking.OnlineTracker` at
    ``hop=1``: each tick featurizes the raw (T, 6) segment with the same
    ``featurize_segment`` that built the training set, encodes the
    session's current (position, heading) the way ``NObLeTracker._adapt``
    does, and advances position to the predicted class centroid.
    ``step_many`` runs one network forward over all sessions — the
    across-user batching the point tier applies to RSSI rows, applied to
    tracks.
    """

    kind = "noble"

    def __init__(
        self,
        tracker,
        max_length: int,
        feature_dim: int,
        segment_duration: float,
        downsample: int = 16,
    ):
        if getattr(tracker, "network_", None) is None:
            raise ValueError("tracker must be a fitted NObLeTracker")
        self.tracker = tracker
        self.max_length = int(max_length)
        self.feature_dim = int(feature_dim)
        self.segment_duration = float(segment_duration)
        self.downsample = int(downsample)

    @classmethod
    def from_dataset(cls, tracker, data, downsample: int = 16):
        """Engine wired to the dataset geometry the tracker trained on."""
        from repro.tracking.online import OnlineTracker

        return cls(
            tracker,
            max_length=data.max_length,
            feature_dim=data.feature_dim,
            segment_duration=OnlineTracker._segment_duration(data),
            downsample=downsample,
        )

    def fingerprint(self) -> str:
        return repr(
            (
                "noble",
                self.max_length,
                self.feature_dim,
                self.segment_duration,
                self.downsample,
                self.tracker.quantizer_.n_classes,
            )
        )

    def new_state(self, start_position, start_heading: float, seed):
        return _NobleState(start_position, start_heading)

    def estimate(self, state) -> np.ndarray:
        return state.position.copy()

    def step_many(self, states, segments):
        from repro.quantization.labels import multi_hot

        segments = self._check_segments(states, segments)
        tracker = self.tracker
        quantizer = tracker.quantizer_
        n_classes = quantizer.n_classes
        feats = np.stack(
            [featurize_segment(seg, self.downsample) for seg in segments]
        )
        if feats.shape[1] != self.feature_dim:
            raise ValueError(
                f"tick featurizes to width {feats.shape[1]}; the trained "
                f"backbone expects {self.feature_dim} (segment length or "
                "downsample mismatch)"
            )
        # same row layout as OnlineTracker._predict_one: padded features
        # then the start encoding from NObLeTracker._adapt
        x = np.zeros(
            (len(states), self.max_length * self.feature_dim + n_classes + 2)
        )
        x[:, : self.feature_dim] = feats
        offset = self.max_length * self.feature_dim
        for i, state in enumerate(states):
            class_id = quantizer.transform(
                state.position[None, :], strict=False
            )[0]
            x[i, offset : offset + n_classes] = multi_hot(
                np.array([class_id]), n_classes
            )[0]
            x[i, offset + n_classes] = np.cos(state.heading)
            x[i, offset + n_classes + 1] = np.sin(state.heading)
        tracker.network_.eval()
        logits = tracker.network_(x)[:, :n_classes]
        positions = quantizer.inverse_transform(logits.argmax(axis=1))
        # heading advance mirrors OnlineTracker._update_heading (hop=1)
        blocks = self.feature_dim // 6
        gyro_z = feats[:, 5 * blocks :]
        for i, state in enumerate(states):
            state.position = positions[i].astype(float).copy()
            state.heading += (
                float(gyro_z[i].mean()) * self.segment_duration
            )
        return np.stack([state.position for state in states])

    def state_arrays(self, state):
        return {
            "position": state.position,
            "scalars": np.array([state.heading]),
        }

    def restore_state(self, arrays, meta):
        return _NobleState(arrays["position"], float(arrays["scalars"][0]))


def solo_trajectory(
    engine: SessionTracker,
    segments,
    start_position,
    start_heading: float = 0.0,
    seed=0,
) -> np.ndarray:
    """The offline single-session oracle: one session stepped alone.

    Returns the (K, 2) per-tick estimates of a fresh session consuming
    ``segments`` (a sequence of (T, 6) chunks) with no other session in
    the batch — the reference every served trajectory must match
    bitwise.
    """
    state = engine.new_state(start_position, start_heading, seed)
    out = np.empty((len(segments), 2))
    for k, segment in enumerate(segments):
        chunk = np.asarray(segment, dtype=float)
        out[k] = engine.step_many([state], chunk[None])[0]
    return out


# ===================================================================== manager
class TrackingSession:
    """One user's live track: engine state plus lifecycle bookkeeping."""

    __slots__ = (
        "user_id", "seed", "state", "created_at", "last_seen", "ticks",
        "ticks_since_checkpoint", "last_position", "restored",
    )

    def __init__(self, user_id, seed, state, now: float, restored: bool = False):
        self.user_id = user_id
        self.seed = seed
        self.state = state
        self.created_at = now
        self.last_seen = now
        self.ticks = 0
        self.ticks_since_checkpoint = 0
        self.last_position: "np.ndarray | None" = None
        self.restored = restored


@dataclass
class SessionStats:
    """Lifecycle counters exposed by :meth:`SessionManager.stats`."""

    active: int
    created: int
    restored: int
    evicted: int
    ended: int
    ticks: int
    checkpoints: int
    checkpoint_failures: int
    restore_loads: int
    quarantined: int


class _InFlightRestore:
    """Per-user restore rendezvous (the ModelCache in-flight idiom)."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error: "BaseException | None" = None


class SessionManager:
    """Owns every live :class:`TrackingSession` of one engine.

    Parameters
    ----------
    engine:
        The shared :class:`SessionTracker`.
    store:
        Optional :class:`repro.core.persistence.ModelStore`; enables
        checkpointing and warm restore.  Session artifacts live in the
        store directory under ``session-<kind>`` keys and never collide
        with estimator artifacts.
    namespace:
        Checkpoint keyspace — two managers with different namespaces
        sharing one store directory never see each other's tracks.
    idle_ttl_s:
        Evict (checkpoint + drop) sessions idle this long; swept after
        every :meth:`step_batch` and via :meth:`evict_idle`.  ``None``
        disables eviction.
    checkpoint_every:
        Periodic snapshot cadence in ticks per session (0 = only on
        evict/close).
    clock:
        Monotonic ``() -> seconds``; inject a fake for deterministic
        TTL tests.
    seed:
        Base seed; per-user session seeds derive from it (stable across
        restarts, so restored particle tracks keep their RNG stream).
    start_resolver:
        Optional ``(user_id, scan) -> (start_position, start_heading)``
        hook consulted when a first tick arrives for a user with no
        live session and no checkpoint ("create on first scan").
    """

    def __init__(
        self,
        engine: SessionTracker,
        store=None,
        namespace: str = "default",
        idle_ttl_s: "float | None" = None,
        checkpoint_every: int = 0,
        clock=None,
        seed=0,
        start_resolver=None,
    ):
        if idle_ttl_s is not None and idle_ttl_s <= 0:
            raise ValueError(f"idle_ttl_s must be > 0, got {idle_ttl_s}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.engine = engine
        self.store = store
        self.namespace = str(namespace)
        self.idle_ttl_s = idle_ttl_s
        self.checkpoint_every = int(checkpoint_every)
        self.seed = seed
        self.start_resolver = start_resolver
        self._clock = time.monotonic if clock is None else clock
        self._lock = threading.RLock()
        self._sessions: "dict[object, TrackingSession]" = {}
        self._restoring: "dict[object, _InFlightRestore]" = {}
        self.n_created = 0
        self.n_restored = 0
        self.n_evicted = 0
        self.n_ended = 0
        self.n_ticks = 0
        self.n_checkpoints = 0
        self.n_checkpoint_failures = 0
        self.n_restore_loads = 0
        self.n_quarantined = 0

    # ------------------------------------------------------------- lifecycle
    def session_seed(self, user_id) -> int:
        """Deterministic per-user seed (stable across restarts)."""
        digest = hashlib.blake2b(
            repr((self.seed, str(user_id))).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def start_session(
        self, user_id, start_position, start_heading: float = 0.0, seed=None
    ) -> TrackingSession:
        """Explicitly open a session at a known start pose."""
        seed = self.session_seed(user_id) if seed is None else seed
        with self._lock:
            if user_id in self._sessions:
                raise ValueError(f"session for {user_id!r} already exists")
            state = self.engine.new_state(start_position, start_heading, seed)
            session = TrackingSession(user_id, seed, state, self._clock())
            self._sessions[user_id] = session
            self.n_created += 1
            return session

    def ensure_session(self, user_id, scan=None) -> TrackingSession:
        """The session for ``user_id``, creating or restoring on demand.

        Resolution order: live session, then checkpoint warm restore,
        then the ``start_resolver`` hook (handed the first ``scan``).
        A per-user in-flight guard makes a restart stampede — N
        producers hitting one cold user at once — load the checkpoint
        from disk exactly once; the losers wait and share the result.
        """
        with self._lock:
            session = self._sessions.get(user_id)
            if session is not None:
                return session
            guard = self._restoring.get(user_id)
            owner = guard is None
            if owner:
                guard = _InFlightRestore()
                self._restoring[user_id] = guard
        if not owner:
            guard.event.wait()
            if guard.error is not None:
                raise guard.error
            with self._lock:
                session = self._sessions.get(user_id)
            if session is None:
                # the owner's session was ended/evicted already; retry
                return self.ensure_session(user_id, scan)
            return session
        try:
            session = self._restore_from_store(user_id)
            if session is None:
                if self.start_resolver is None:
                    raise UnknownSessionError(
                        f"no live session, checkpoint, or start_resolver "
                        f"for user {user_id!r}"
                    )
                start_position, start_heading = self.start_resolver(
                    user_id, scan
                )
                seed = self.session_seed(user_id)
                state = self.engine.new_state(
                    start_position, start_heading, seed
                )
                session = TrackingSession(user_id, seed, state, self._clock())
                with self._lock:
                    self._sessions[user_id] = session
                    self.n_created += 1
            return session
        except BaseException as error:
            guard.error = error
            raise
        finally:
            guard.event.set()
            with self._lock:
                self._restoring.pop(user_id, None)

    def end_session(self, user_id, checkpoint: bool = False):
        """Close a track; returns its final position estimate (or None).

        The finished track's checkpoint is deleted unless ``checkpoint``
        is True (a deliberate "suspend to disk").  Call after the user's
        outstanding ticks have resolved — an in-flight tick for an ended
        session fails its batch.
        """
        with self._lock:
            session = self._sessions.pop(user_id, None)
            if session is None:
                raise UnknownSessionError(f"no session for user {user_id!r}")
            self.n_ended += 1
            final = self.engine.estimate(session.state)
            if self.store is not None:
                if checkpoint:
                    self._checkpoint_locked(session)
                else:
                    path = self._checkpoint_path(user_id)
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
            return final

    def active_users(self) -> list:
        with self._lock:
            return list(self._sessions)

    def stats(self) -> SessionStats:
        with self._lock:
            return SessionStats(
                active=len(self._sessions),
                created=self.n_created,
                restored=self.n_restored,
                evicted=self.n_evicted,
                ended=self.n_ended,
                ticks=self.n_ticks,
                checkpoints=self.n_checkpoints,
                checkpoint_failures=self.n_checkpoint_failures,
                restore_loads=self.n_restore_loads,
                quarantined=self.n_quarantined,
            )

    # -------------------------------------------------------------- stepping
    def step(self, user_id, imu) -> np.ndarray:
        """Advance one session by one tick (convenience wrapper)."""
        return self.step_batch([(user_id, imu)])[0]

    def step_batch(self, items) -> np.ndarray:
        """Serve one micro-batch of ticks; (N, 2) estimates in item order.

        Ticks are scheduled in *waves*: wave *k* holds each user's k-th
        tick of the batch, so per-user order is preserved while every
        wave steps its users through one vectorized
        :meth:`SessionTracker.step_many` call — batching across users
        per time step, never across time within a user.
        """
        prepared = []
        for user_id, imu in items:
            chunk = np.asarray(imu, dtype=float)
            if chunk.ndim != 2 or chunk.shape[1] != 6:
                raise ValueError(
                    f"each tick takes a (T, 6) IMU segment, got {chunk.shape}"
                )
            prepared.append((user_id, chunk))
        out = np.empty((len(prepared), 2))
        with self._lock:
            waves: "list[list[tuple[int, object, np.ndarray]]]" = []
            seen: "dict[object, int]" = {}
            for index, (user_id, chunk) in enumerate(prepared):
                k = seen.get(user_id, 0)
                seen[user_id] = k + 1
                if k == len(waves):
                    waves.append([])
                waves[k].append((index, user_id, chunk))
            now = self._clock()
            for wave in waves:
                lengths = {chunk.shape[0] for _, _, chunk in wave}
                if len(lengths) > 1:
                    raise ValueError(
                        "ticks batched together must share one segment "
                        f"length, got {sorted(lengths)}"
                    )
                sessions = [
                    self._session_for_step(user_id) for _, user_id, _ in wave
                ]
                stacked = np.stack([chunk for _, _, chunk in wave])
                estimates = self.engine.step_many(
                    [s.state for s in sessions], stacked
                )
                for row, (index, _, _) in enumerate(wave):
                    session = sessions[row]
                    session.ticks += 1
                    session.ticks_since_checkpoint += 1
                    session.last_seen = now
                    session.last_position = estimates[row].copy()
                    out[index] = estimates[row]
                    self.n_ticks += 1
            if self.store is not None and self.checkpoint_every:
                for user_id in seen:
                    session = self._sessions.get(user_id)
                    if (
                        session is not None
                        and session.ticks_since_checkpoint
                        >= self.checkpoint_every
                    ):
                        self._checkpoint_locked(session)
            self._evict_idle_locked(now)
        return out

    def _session_for_step(self, user_id) -> TrackingSession:
        session = self._sessions.get(user_id)
        if session is not None:
            return session
        # direct manager use (no frontend ensure) still warm-restores
        session = self._restore_from_store(user_id)
        if session is None:
            raise UnknownSessionError(
                f"no live session or checkpoint for user {user_id!r}"
            )
        return session

    # ---------------------------------------------------------- checkpointing
    def _checkpoint_path(self, user_id) -> str:
        return self.store.path_for(
            f"session-{self.engine.kind}", self.namespace, str(user_id)
        )

    def checkpoint(self, user_id) -> "str | None":
        """Snapshot one session now; returns the artifact path."""
        with self._lock:
            session = self._sessions.get(user_id)
            if session is None:
                raise UnknownSessionError(f"no session for user {user_id!r}")
            return self._checkpoint_locked(session)

    def checkpoint_all(self) -> int:
        """Snapshot every live session; returns how many were written."""
        with self._lock:
            written = 0
            for session in self._sessions.values():
                if self._checkpoint_locked(session) is not None:
                    written += 1
            return written

    def _checkpoint_locked(self, session: TrackingSession) -> "str | None":
        if self.store is None:
            return None
        path = self._checkpoint_path(session.user_id)
        envelope = {
            "schema": SESSION_SCHEMA,
            "kind": self.engine.kind,
            "engine_fingerprint": self.engine.fingerprint(),
            "namespace": self.namespace,
            "user_id": str(session.user_id),
            "seed": session.seed,
            "ticks": session.ticks,
            "state_meta": self.engine.state_meta(session.state),
        }
        state, envelope["layout"] = _pack_state(
            self.engine.state_arrays(session.state)
        )
        base = os.path.basename(path)[: -len(".npz")]
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.store.directory, prefix=base + ".tmp-", suffix=".npz"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez(
                        handle, state=state, session_json=_json_blob(envelope)
                    )
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as error:
            # a full/failing disk must degrade checkpoint coverage, not
            # take down the serving path
            self.n_checkpoint_failures += 1
            warnings.warn(
                f"session checkpoint for {session.user_id!r} failed: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        session.ticks_since_checkpoint = 0
        self.n_checkpoints += 1
        return path

    def _restore_from_store(self, user_id) -> "TrackingSession | None":
        if self.store is None:
            return None
        path = self._checkpoint_path(user_id)
        if not os.path.exists(path):
            return None
        with self._lock:
            self.n_restore_loads += 1
        try:
            with np.load(path, allow_pickle=False) as archive:
                members = {name: archive[name] for name in archive.files}
            envelope = _json_unblob(members.pop("session_json"))
            if envelope.get("schema") != SESSION_SCHEMA:
                raise ValueError(
                    f"checkpoint schema {envelope.get('schema')!r}; this "
                    f"build reads {SESSION_SCHEMA!r}"
                )
            if (
                envelope.get("kind") != self.engine.kind
                or envelope.get("namespace") != self.namespace
                or envelope.get("user_id") != str(user_id)
            ):
                raise ValueError(
                    "checkpoint identity mismatch (foreign or hand-copied "
                    "artifact)"
                )
            if envelope.get("engine_fingerprint") != self.engine.fingerprint():
                # a reconfigured engine cannot continue this state; start
                # fresh rather than silently diverge
                warnings.warn(
                    f"session checkpoint for {user_id!r} was written by a "
                    "differently configured engine; ignoring it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return None
            state = self.engine.restore_state(
                _unpack_state(members["state"], envelope.get("layout")),
                envelope.get("state_meta") or {},
            )
        except (ValueError, KeyError, OSError, EOFError) as error:
            quarantine = path + ".corrupt"
            try:
                os.replace(path, quarantine)
            except OSError:
                quarantine = "<unmovable>"
            with self._lock:
                self.n_quarantined += 1
            warnings.warn(
                f"corrupt session checkpoint for {user_id!r} quarantined to "
                f"{quarantine}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        with self._lock:
            session = TrackingSession(
                user_id,
                envelope.get("seed"),
                state,
                self._clock(),
                restored=True,
            )
            session.ticks = int(envelope.get("ticks") or 0)
            session.last_position = self.engine.estimate(state)
            self._sessions[user_id] = session
            self.n_restored += 1
            return session

    # -------------------------------------------------------------- eviction
    def evict_idle(self) -> list:
        """Checkpoint + drop every session idle past ``idle_ttl_s``."""
        with self._lock:
            return self._evict_idle_locked(self._clock())

    def _evict_idle_locked(self, now: float) -> list:
        if self.idle_ttl_s is None:
            return []
        evicted = []
        for user_id, session in list(self._sessions.items()):
            if now - session.last_seen > self.idle_ttl_s:
                self._checkpoint_locked(session)
                del self._sessions[user_id]
                self.n_evicted += 1
                evicted.append(user_id)
        return evicted

    def close(self) -> None:
        """Checkpoint every live session and drop the table (idempotent)."""
        with self._lock:
            self.checkpoint_all()
            self._sessions.clear()


# ==================================================================== frontend
class SessionExecutor:
    """Batch executor bridging the front end's drain path to a manager.

    Each front-end batch row is one encoded tick:
    ``[user_slot, imu.ravel()]``; ``predict`` decodes the rows and serves
    them through :meth:`SessionManager.step_batch`, so one front-end
    batch = one across-users wave schedule.  Slots (not raw user ids)
    ride in the float row so arbitrary hashable user ids survive the
    numeric queue encoding.
    """

    def __init__(self, manager: SessionManager):
        self.manager = manager
        self.n_batches = 0
        self._slots: "dict[object, int]" = {}
        self._users: list = []
        self._slot_lock = threading.Lock()

    def slot_for(self, user_id) -> int:
        with self._slot_lock:
            slot = self._slots.get(user_id)
            if slot is None:
                slot = len(self._users)
                self._slots[user_id] = slot
                self._users.append(user_id)
            return slot

    def predict(self, signals: np.ndarray) -> Prediction:
        width = signals.shape[1] - 1
        if width <= 0 or width % 6:
            raise ValueError(
                f"encoded tick width {signals.shape[1]} is not 1 + T*6"
            )
        samples = width // 6
        with self._slot_lock:
            users = [self._users[int(row[0])] for row in signals]
        items = [
            (user, signals[i, 1:].reshape(samples, 6))
            for i, user in enumerate(users)
        ]
        coordinates = self.manager.step_batch(items)
        self.n_batches += 1
        return Prediction(coordinates=coordinates)

    def close(self) -> None:
        self.manager.close()


class TrackingFrontend(ServingFrontend):
    """A :class:`ServingFrontend` serving session ticks instead of scans.

    ``submit(user_id, scan, imu)`` ensures the user's session exists
    (live, warm-restored, or created from the first ``scan`` via the
    manager's ``start_resolver``) and enqueues the tick; everything else
    — deadline flush, backpressure, admission, per-request timeouts,
    deterministic ``close`` — is inherited.  Each user is their own
    admission tenant, so per-tenant fairness stats come for free.

    Ticks of one user resolve in submission order: the queue drains
    FIFO through a single drain path, and the manager's wave schedule
    preserves per-user order inside a batch.
    """

    def __init__(
        self,
        manager: SessionManager,
        samples_per_tick: "int | None" = None,
        **frontend_kwargs,
    ):
        if samples_per_tick is not None and samples_per_tick < 1:
            raise ValueError(
                f"samples_per_tick must be >= 1, got {samples_per_tick}"
            )
        self.manager = manager
        self.samples_per_tick = (
            None if samples_per_tick is None else int(samples_per_tick)
        )
        executor = SessionExecutor(manager)
        super().__init__(executor=executor, **frontend_kwargs)

    def submit(  # noqa: D402 — intentionally narrows the base signature
        self,
        user_id,
        scan=None,
        imu=None,
        deadline_ms: "float | None" = None,
        timeout_ms: "float | None" = None,
    ):
        """Enqueue one IMU tick for ``user_id``; returns the ticket.

        ``scan`` is only consulted when this is the user's first
        contact (session creation / warm restore happens here,
        synchronously, so the queued tick always finds its session).
        """
        if imu is None:
            raise ValueError("submit requires an imu=(T, 6) segment")
        chunk = np.asarray(imu, dtype=float)
        if chunk.ndim != 2 or chunk.shape[1] != 6:
            raise ValueError(
                f"imu must be a (T, 6) segment, got {chunk.shape}"
            )
        if (
            self.samples_per_tick is not None
            and chunk.shape[0] != self.samples_per_tick
        ):
            raise ValueError(
                f"tick has {chunk.shape[0]} samples; this front end serves "
                f"{self.samples_per_tick} samples per tick"
            )
        self.manager.ensure_session(user_id, scan=scan)
        row = np.empty(1 + chunk.size)
        row[0] = self._executor.slot_for(user_id)
        row[1:] = chunk.ravel()
        return super().submit(
            row,
            deadline_ms=deadline_ms,
            timeout_ms=timeout_ms,
            tenant=str(user_id),
        )

    def end_session(self, user_id, checkpoint: bool = False):
        """Close one track (see :meth:`SessionManager.end_session`)."""
        return self.manager.end_session(user_id, checkpoint=checkpoint)
