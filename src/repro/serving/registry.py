"""Unified estimator protocol and registry.

Every localization model in the repo — classic kNN fingerprinting, the
paper's NObLe network, the CNNLoc baseline, and the generic ml
regressors — historically exposed a slightly different fit/predict
surface.  The serving layer flattens them behind one contract:

    estimator = create("knn", k=3)
    estimator.fit(dataset)                      # FingerprintDataset
    prediction = estimator.predict_batch(raw)   # (N, W) raw RSSI rows

``predict_batch`` always takes **raw** RSSI matrices in UJIIndoorLoc
conventions (``NOT_DETECTED`` = +100 for unheard WAPs, dBm otherwise)
and always returns a :class:`Prediction`; normalization happens inside
the adapter so a request never has to know which backend serves it.

Registering a new backend is one decorator::

    @register("my-model")
    class MyEstimator(Estimator):
        ...
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.data.ujiindoor import FingerprintDataset
from repro.serving.pipeline import (
    FeaturePipeline,
    _canonical_seed,
    _sharding_params,
)
from repro.utils.validation import check_2d, check_fitted

#: name -> Estimator subclass; populated by :func:`register`.
_REGISTRY: "dict[str, type]" = {}


@dataclass
class Prediction:
    """Uniform output of :meth:`Estimator.predict_batch`.

    Attributes
    ----------
    coordinates:
        (N, 2) predicted positions in meters.
    building, floor:
        (N,) integer labels, or None when the backend has no such head.
    """

    coordinates: np.ndarray
    building: "np.ndarray | None" = None
    floor: "np.ndarray | None" = None

    def __len__(self) -> int:
        return len(self.coordinates)

    def take(self, indices) -> "Prediction":
        """A new Prediction restricted to ``indices`` (rows)."""
        return Prediction(
            coordinates=self.coordinates[indices],
            building=None if self.building is None else self.building[indices],
            floor=None if self.floor is None else self.floor[indices],
        )


def concatenate(predictions: "list[Prediction]") -> Prediction:
    """Stack per-batch predictions back into one (label heads must agree).

    Raises ``ValueError`` when some predictions carry a building/floor
    head and others do not — silently dropping valid labels would hide a
    backend mismatch.
    """
    if not predictions:
        return Prediction(coordinates=np.empty((0, 2)))
    heads = {}
    for name in ("building", "floor"):
        present = [getattr(p, name) is not None for p in predictions]
        if any(present) and not all(present):
            raise ValueError(
                f"cannot concatenate predictions with mixed {name} heads"
            )
        heads[name] = (
            np.concatenate([getattr(p, name) for p in predictions])
            if all(present)
            else None
        )
    return Prediction(
        coordinates=np.vstack([p.coordinates for p in predictions]),
        building=heads["building"],
        floor=heads["floor"],
    )


class Estimator:
    """Base class of the serving protocol.

    Subclasses implement :meth:`fit` on a :class:`FingerprintDataset`
    and :meth:`predict_batch` on a raw (N, W) RSSI matrix, and call
    ``super().__init__(**hyperparams)`` so :attr:`params` (used for
    cache keys and ``describe()``) reflects their configuration.
    """

    def __init__(self, **params):
        self.params = dict(params)

    def fit(self, dataset: FingerprintDataset) -> "Estimator":
        """Train on a fingerprint dataset; returns self."""
        raise NotImplementedError

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        """Predict one vectorized batch of raw RSSI rows."""
        raise NotImplementedError

    @property
    def n_features_in_(self) -> "int | None":
        """Raw signal width the fitted model serves (None: not reported).

        :class:`~repro.serving.ServingFrontend` refuses rows of any
        other width at ``submit``.  Backends report their fitted
        ``model_``'s width; unfitted ones report None.
        """
        model = getattr(self, "model_", None)
        return None if model is None else model.n_features_in_

    def describe(self) -> str:
        """Canonical ``name(key=value, ...)`` string (stable param order)."""
        name = getattr(self, "registry_name", type(self).__name__)
        inner = ", ".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{name}({inner})"

    @staticmethod
    def _as_dataset(signals: np.ndarray) -> FingerprintDataset:
        """Wrap raw RSSI rows so backends normalize them like training data."""
        signals = check_2d(signals, "signals")
        n = len(signals)
        return FingerprintDataset(
            rssi=signals,
            coordinates=np.zeros((n, 2)),
            floor=np.zeros(n, dtype=int),
            building=np.zeros(n, dtype=int),
        )

    #: Adapters without a kNN index to shard set this True so a
    #: ``shards`` hyperparameter fans the *query batch* out instead.
    #: Only safe when ``predict_fn`` is row-wise AND thread-safe (pure
    #: reads of the fitted state); models that mutate shared state
    #: during forward passes need their own replica per thread instead
    #: (see :meth:`NObLeWifiEstimator.predict_batch`).
    fanout_shards = False

    def _shard_predictions(self, signals: np.ndarray, predict_fn) -> Prediction:
        """Serve one batch, fanning chunks across threads when sharded."""
        shards = int(self.params.get("shards", 1))
        if not type(self).fanout_shards or shards <= 1 or len(signals) < 2:
            return predict_fn(signals)
        from repro.sharding import fanout_map

        return concatenate(fanout_map(predict_fn, signals, shards))


def register(name: str):
    """Class decorator adding an :class:`Estimator` subclass to the registry."""

    def decorator(cls):
        if not issubclass(cls, Estimator):
            raise TypeError(f"{cls.__name__} must subclass Estimator")
        if name in _REGISTRY:
            raise ValueError(f"estimator {name!r} already registered")
        cls.registry_name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def available() -> "tuple[str, ...]":
    """Registered estimator names, sorted."""
    return tuple(sorted(_REGISTRY))


def get(name: str) -> type:
    """The Estimator subclass registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; available: {', '.join(available())}"
        ) from None


def create(name: str, **hyperparams) -> Estimator:
    """Instantiate a registered estimator with ``hyperparams``."""
    return get(name)(**hyperparams)


def params_key(hyperparams: dict) -> str:
    """Canonical string form of an estimator's hyperparameters.

    The single definition both :class:`repro.serving.cache.ModelCache`
    and :class:`repro.core.persistence.ModelStore` key through, so an
    in-memory entry and its on-disk artifact can never disagree about
    which configuration they hold.  Assumes ``hyperparams`` is already
    canonicalized (i.e. an :class:`Estimator`'s ``params``).
    """
    return repr(sorted(hyperparams.items()))


# The canonical-param helpers (_canonical_seed, _dtype_param,
# _quantize_param, _sharding_params) moved to repro.serving.pipeline —
# the shared feature-space seam; the ones adapters still call are
# re-imported above.

# --------------------------------------------------------------------- adapters
@register("knn")
class KNNFingerprintingEstimator(Estimator):
    """Classic weighted-kNN fingerprinting behind the serving protocol.

    ``shards > 1`` serves from an exact sharded radio-map index
    (:class:`repro.sharding.ShardedKNNIndex`): both configurations keep
    the lowest index among fingerprints tied at the k-th neighbor
    distance, so sharded and monolithic predictions match exactly,
    ties included.
    """

    def __init__(
        self,
        k: int = 5,
        weighted: bool = True,
        shards: int = 1,
        partitioner="auto",
        quantize_bins: "int | None" = None,
        transform=None,
    ):
        self._pipeline = FeaturePipeline.resolve(
            transform,
            backend="knn",
            stages=("bin", "shard"),
            shards=shards,
            partitioner=partitioner,
            quantize_bins=quantize_bins,
        )
        self._partitioner = self._pipeline.partitioner
        super().__init__(
            k=int(k),
            weighted=bool(weighted),
            **self._pipeline.canonical_params(),
        )
        self.model_ = None

    def fit(self, dataset: FingerprintDataset) -> "KNNFingerprintingEstimator":
        from repro.localization.knn import KNNFingerprinting

        kwargs = dict(self.params)
        if "partitioner" in kwargs:
            # the model needs the raw spec, not the cache-key string
            kwargs["partitioner"] = self._partitioner
        self.model_ = KNNFingerprinting(**kwargs).fit(dataset)
        return self

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        check_fitted(self, "model_")
        coordinates, building, floor = self.model_.predict_full(
            self._as_dataset(signals)
        )
        return Prediction(coordinates=coordinates, building=building, floor=floor)


@register("embed-knn")
class EmbeddedKNNEstimator(Estimator):
    """kNN fingerprinting in a learned embedding space.

    The full feature-space pipeline: a learned embedder (§III-C — an
    NCA metric learner or an AE-pretrained MLP from
    :mod:`repro.embedding`) maps the radio map into a compact space at
    fit, the existing sharded/quantized kNN index stack is built on the
    *embedded* points, and query batches are embedded on the hot path
    before the neighbor scan.  Distances shrink from the raw WAP count
    to ``n_components``, so the scan is faster *and* — because the
    embedding pulls same-location fingerprints together — typically
    more accurate than raw-RSSI kNN (the ``embed`` block of ``python -m
    repro.cli serve-bench`` pins both claims).

    ``embedder`` picks the learner (``"mlp"`` default, or
    ``"metric"``); ``embed_params`` are its constructor kwargs.  The
    ``transform=`` spelling configures the same chain explicitly::

        create("embed-knn", transform={
            "embed": {"kind": "mlp", "n_components": 16},
            "bin": 16,
            "shard": 4,
        })
    """

    def __init__(
        self,
        k: int = 5,
        weighted: bool = True,
        embedder: "str | None" = None,
        embed_params: "dict | None" = None,
        shards: int = 1,
        partitioner="auto",
        quantize_bins: "int | None" = None,
        transform=None,
    ):
        transform_embeds = (
            isinstance(transform, dict) and "embed" in transform
        ) or (
            isinstance(transform, FeaturePipeline)
            and transform.embedder_kind is not None
        )
        if embedder is None and not transform_embeds:
            # an embedded backend always embeds: default to the MLP
            embedder = "mlp"
        pipeline = FeaturePipeline.resolve(
            transform,
            backend="embed-knn",
            stages=("embed", "bin", "shard"),
            embedder=embedder,
            embed_params=embed_params,
            shards=shards,
            partitioner=partitioner,
            quantize_bins=quantize_bins,
        )
        self._pipeline = pipeline
        self._partitioner = pipeline.partitioner
        super().__init__(
            k=int(k),
            weighted=bool(weighted),
            **pipeline.canonical_params(),
        )
        self.model_ = None

    def fit(self, dataset: FingerprintDataset) -> "EmbeddedKNNEstimator":
        from repro.embedding import fit_embedder
        from repro.localization.knn import KNNFingerprinting

        embedder = fit_embedder(self._pipeline.build_embedder(), dataset)
        kwargs = {
            key: value
            for key, value in self.params.items()
            if key not in ("embedder", "embed_params")
        }
        if "partitioner" in kwargs:
            # the model needs the raw spec, not the cache-key string
            kwargs["partitioner"] = self._partitioner
        self.model_ = KNNFingerprinting(embedder=embedder, **kwargs).fit(
            dataset
        )
        return self

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        check_fitted(self, "model_")
        coordinates, building, floor = self.model_.predict_full(
            self._as_dataset(signals)
        )
        return Prediction(coordinates=coordinates, building=building, floor=floor)


@register("noble")
class NObLeWifiEstimator(Estimator):
    """The paper's NObLe Wi-Fi network behind the serving protocol.

    ``dtype="float32"`` selects the fused float32 training fast path
    (~3-4x faster cold fits at parity-checked accuracy); it is a
    cache-keyed hyperparameter, so float32 and float64 fits never share
    a :class:`repro.serving.cache.ModelCache` entry.
    """

    def __init__(
        self,
        tau: float = 0.2,
        coarse: float = 4.0,
        hidden: int = 128,
        adjacency_weight: float = 0.3,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
        val_fraction: float = 0.0,
        seed=0,
        shards: int = 1,
        dtype=None,
        quantize_bins: "int | None" = None,
        transform=None,
    ):
        self._pipeline = FeaturePipeline.resolve(
            transform,
            backend="noble",
            stages=("bin", "shard"),
            shards=shards,
            quantize_bins=quantize_bins,
            dtype=dtype,
        )
        super().__init__(
            tau=float(tau),
            coarse=float(coarse),
            hidden=int(hidden),
            adjacency_weight=float(adjacency_weight),
            epochs=int(epochs),
            batch_size=int(batch_size),
            lr=float(lr),
            val_fraction=float(val_fraction),
            seed=_canonical_seed(seed),
            **self._pipeline.canonical_params(),
        )
        self.model_ = None
        self._replicas_: list = []

    def fit(self, dataset: FingerprintDataset) -> "NObLeWifiEstimator":
        from repro.localization.noble import NObLeWifi

        kwargs = {k: v for k, v in self.params.items() if k != "shards"}
        self.model_ = NObLeWifi(**kwargs).fit(dataset)
        self._replicas_ = []
        return self

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        check_fitted(self, "model_")
        signals = check_2d(signals, "signals")
        shards = int(self.params.get("shards", 1))
        if shards <= 1 or len(signals) < 2:
            return self._predict_with(self.model_, signals)
        # the numpy nn caches activations on its modules for backward(),
        # so one network must never serve two chunks concurrently: fan
        # the batch out over per-thread replicas of the fitted model.
        # Chunks beyond the core count can't run concurrently anyway, so
        # cap there — it bounds the replicas held in memory too.
        shards = min(shards, os.cpu_count() or 1)
        if shards <= 1:
            return self._predict_with(self.model_, signals)
        from concurrent.futures import ThreadPoolExecutor

        from repro.sharding import fanout_slices

        slices = fanout_slices(len(signals), shards)
        models = self._predict_replicas(len(slices))
        workers = len(slices)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda job: self._predict_with(job[0], signals[job[1]]),
                    zip(models, slices),
                )
            )
        return concatenate(parts)

    def _predict_replicas(self, count: int) -> list:
        """The fitted model plus ``count - 1`` deep copies, cached.

        Replicas are built lazily on the first sharded predict and
        reused across calls (``fit`` invalidates them), so steady-state
        serving pays no copy cost.
        """
        import copy

        while len(self._replicas_) < count - 1:
            self._replicas_.append(copy.deepcopy(self.model_))
        return [self.model_] + self._replicas_[: count - 1]

    def _predict_with(self, model, signals: np.ndarray) -> Prediction:
        detail = model.predict(self._as_dataset(signals))
        return Prediction(
            coordinates=detail.coordinates,
            building=detail.building,
            floor=detail.floor,
        )


@register("cnnloc")
class CNNLocEstimator(Estimator):
    """CNNLoc (SAE + 1-D CNN) baseline behind the serving protocol.

    ``dtype="float32"`` selects the fused float32 training fast path; a
    cache-keyed hyperparameter like on the ``noble`` backend.
    ``quantize_bins`` trains and serves on the uint8-quantized radio
    map (same semantics as the kNN/NObLe backends).
    """

    def __init__(
        self,
        encoder_sizes: tuple = (128, 64),
        conv_channels: tuple = (8, 16),
        pretrain_epochs: int = 20,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed=0,
        dtype=None,
        quantize_bins: "int | None" = None,
        transform=None,
    ):
        self._pipeline = FeaturePipeline.resolve(
            transform,
            backend="cnnloc",
            stages=("bin",),
            quantize_bins=quantize_bins,
            dtype=dtype,
        )
        super().__init__(
            encoder_sizes=tuple(int(s) for s in encoder_sizes),
            conv_channels=tuple(int(c) for c in conv_channels),
            pretrain_epochs=int(pretrain_epochs),
            epochs=int(epochs),
            batch_size=int(batch_size),
            lr=float(lr),
            seed=_canonical_seed(seed),
            **self._pipeline.canonical_params(),
        )
        self.model_ = None

    def fit(self, dataset: FingerprintDataset) -> "CNNLocEstimator":
        from repro.localization.cnnloc import CNNLocWifi

        self.model_ = CNNLocWifi(**self.params).fit(dataset)
        return self

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        check_fitted(self, "model_")
        coordinates, building, floor = self.model_.predict_full(
            self._as_dataset(signals)
        )
        return Prediction(coordinates=coordinates, building=building, floor=floor)


class _RegressorEstimator(Estimator):
    """Shared adapter for coordinate-only regressors on normalized signals."""

    def _build(self):
        raise NotImplementedError

    def fit(self, dataset: FingerprintDataset) -> "_RegressorEstimator":
        self.model_ = self._build()
        self.model_.fit(dataset.normalized_signals(), dataset.coordinates)
        return self

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        check_fitted(self, "model_")
        normalized = self._as_dataset(signals).normalized_signals()
        return self._shard_predictions(
            normalized,
            lambda chunk: Prediction(coordinates=self.model_.predict(chunk)),
        )


@register("knn-regressor")
class KNNRegressorEstimator(_RegressorEstimator):
    """Generic kNN regression (signals → coordinates) for serving.

    ``shards > 1`` shards the underlying index (exact merge), so the
    served coordinates equal the monolithic configuration's.
    """

    def __init__(
        self,
        k: int = 5,
        weights: str = "uniform",
        shards: int = 1,
        partitioner="kmeans",
        quantize_bins: "int | None" = None,
        transform=None,
    ):
        self._pipeline = FeaturePipeline.resolve(
            transform,
            backend="knn-regressor",
            stages=("bin", "shard"),
            shards=shards,
            partitioner=partitioner,
            quantize_bins=quantize_bins,
        )
        self._partitioner = self._pipeline.partitioner
        super().__init__(
            k=int(k),
            weights=weights,
            **self._pipeline.canonical_params(),
        )
        self.model_ = None

    def _build(self):
        from repro.ml.knn_regressor import KNNRegressor

        kwargs = dict(self.params)
        if "partitioner" in kwargs:
            kwargs["partitioner"] = self._partitioner
        return KNNRegressor(**kwargs)


@register("ensemble")
class EnsembleEstimator(Estimator):
    """Primary backend with a kNN fallback for out-of-distribution scans.

    The ROADMAP's multi-backend ensemble: serve the paper's NObLe
    network for scans that look like the radio map it was trained on,
    and fall back to classic kNN fingerprinting — which can never
    extrapolate off the map — for scans that do not.  A scan is ruled
    out-of-distribution when its nearest-neighbor distance to the
    training fingerprints (in normalized signal space) exceeds the
    ``ood_quantile`` quantile of the training set's own leave-one-out
    nearest-neighbor distances.

    Routing is strictly row-wise (each scan's gate depends only on that
    scan), so batched predictions equal per-query predictions and the
    micro-batcher/front-end parity guarantees carry over unchanged.
    Building/floor heads are served only when *both* sides produce them
    (probed once at fit time) — otherwise every prediction drops them,
    so head presence never depends on how a batch happened to route and
    :func:`repro.serving.concatenate` always sees a consistent shape.

    ``primary`` / ``fallback`` name any two registered backends;
    ``primary_params`` / ``fallback_params`` are forwarded to them and
    canonicalized into this estimator's cache key, so two spellings of
    the same child configuration share one
    :class:`repro.serving.cache.ModelCache` entry.  ``routes_`` counts
    how many rows each side served since ``fit`` (observability for the
    front end's multiplexing).
    """

    def __init__(
        self,
        primary: str = "noble",
        fallback: str = "knn",
        ood_quantile: float = 0.99,
        primary_params: "dict | None" = None,
        fallback_params: "dict | None" = None,
        quantize_bins: "int | None" = None,
        transform=None,
    ):
        if "ensemble" in (primary, fallback):
            raise ValueError("ensemble backends cannot nest")
        if not 0.0 <= float(ood_quantile) <= 1.0:
            raise ValueError(
                f"ood_quantile must be in [0, 1], got {ood_quantile}"
            )
        # the ensemble's own pipeline covers the OOD gate index; the
        # children configure theirs via primary_params/fallback_params
        self._pipeline = FeaturePipeline.resolve(
            transform,
            backend="ensemble",
            stages=("bin",),
            quantize_bins=quantize_bins,
        )
        self._primary = create(primary, **dict(primary_params or {}))
        self._fallback = create(fallback, **dict(fallback_params or {}))
        super().__init__(
            primary=primary,
            fallback=fallback,
            ood_quantile=float(ood_quantile),
            # children canonicalize their own params (defaults filled,
            # spellings collapsed), so the cache key inherits that
            primary_params=dict(sorted(self._primary.params.items())),
            fallback_params=dict(sorted(self._fallback.params.items())),
            **self._pipeline.canonical_params(),
        )
        self.ood_threshold_: "float | None" = None
        self.routes_ = {"primary": 0, "fallback": 0}

    @property
    def n_features_in_(self) -> "int | None":
        return self._primary.n_features_in_

    def fit(self, dataset: FingerprintDataset) -> "EnsembleEstimator":
        from repro.manifold.neighbors import KNNIndex

        self._primary.fit(dataset)
        self._fallback.fit(dataset)
        signals = dataset.normalized_signals()
        self._ood_index = KNNIndex(
            signals, method="brute", binner=self._fit_gate_binner(signals)
        )
        if len(signals) > 1:
            distances, _ = self._ood_index.query(
                signals, k=1, exclude_self=True, on_excess="clamp"
            )
            self.ood_threshold_ = float(
                np.quantile(distances[:, 0], self.params["ood_quantile"])
            )
        else:
            # a single-point map has no leave-one-out distances: nothing
            # is ever ruled out-of-distribution
            self.ood_threshold_ = float("inf")
        # probe with one real row: heads are served only when both sides
        # have them, so presence never depends on batch routing
        probe = dataset.rssi[:1]
        probed = [
            child.predict_batch(probe)
            for child in (self._primary, self._fallback)
        ]
        self._heads_ok = all(
            p.building is not None and p.floor is not None for p in probed
        )
        self.routes_ = {"primary": 0, "fallback": 0}
        return self

    def _fit_gate_binner(self, signals: np.ndarray):
        """uint8 quantizer for the OOD gate index when ``quantize_bins`` set.

        Mirrors the kNN backends: the gate's stored fingerprints are
        binned, queries stay raw (asymmetric distance), so the gate's
        memory footprint quantizes like the serving indexes do.
        """
        if "quantize_bins" not in self.params:
            return None
        from repro.quantization import FeatureBinner

        return FeatureBinner(n_bins=self.params["quantize_bins"]).fit(signals)

    def predict_batch(self, signals: np.ndarray) -> Prediction:
        check_fitted(self, "ood_threshold_")
        signals = check_2d(signals, "signals")
        if len(signals) == 0:
            return self._strip(self._primary.predict_batch(signals))
        normalized = self._as_dataset(signals).normalized_signals()
        distances, _ = self._ood_index.query(normalized, k=1)
        ood = distances[:, 0] > self.ood_threshold_
        self.routes_["primary"] += int((~ood).sum())
        self.routes_["fallback"] += int(ood.sum())
        if not ood.any():
            return self._strip(self._primary.predict_batch(signals))
        if ood.all():
            return self._strip(self._fallback.predict_batch(signals))
        return self._strip(
            self._merge(
                ood,
                self._primary.predict_batch(signals[~ood]),
                self._fallback.predict_batch(signals[ood]),
            )
        )

    def _strip(self, prediction: Prediction) -> Prediction:
        """Drop label heads unless both children serve them (see class doc)."""
        if self._heads_ok:
            return prediction
        return Prediction(coordinates=prediction.coordinates)

    @staticmethod
    def _merge(
        ood: np.ndarray, primary: Prediction, fallback: Prediction
    ) -> Prediction:
        """Interleave the two routed predictions back into request order."""
        n = len(ood)
        coordinates = np.empty((n, 2), dtype=float)
        coordinates[~ood] = primary.coordinates
        coordinates[ood] = fallback.coordinates
        heads = {}
        for name in ("building", "floor"):
            a, b = getattr(primary, name), getattr(fallback, name)
            if a is None or b is None:
                # a head only survives when both sides can fill it
                heads[name] = None
            else:
                merged = np.empty(n, dtype=np.asarray(a).dtype)
                merged[~ood] = a
                merged[ood] = b
                heads[name] = merged
        return Prediction(coordinates=coordinates, **heads)


@register("forest")
class RandomForestEstimator(_RegressorEstimator):
    """Random-forest regression (signals → coordinates) for serving."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: "int | None" = 8,
        min_samples_leaf: int = 1,
        seed=0,
        shards: int = 1,
    ):
        super().__init__(
            n_estimators=int(n_estimators),
            max_depth=None if max_depth is None else int(max_depth),
            min_samples_leaf=int(min_samples_leaf),
            seed=_canonical_seed(seed),
            **_sharding_params(shards),
        )
        self.model_ = None

    fanout_shards = True  # trees predict row-wise: fan the batch out

    def _build(self):
        from repro.ml.forest import RandomForestRegressor

        params = {
            k: v for k, v in self.params.items() if k != "shards"
        }
        params["rng"] = params.pop("seed")
        return RandomForestRegressor(**params)
