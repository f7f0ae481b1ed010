"""Versioned persistence for fitted models and the serving model store.

The paper's deployment story is "train offline, ship the fitted model,
restore without the training data" (the energy section's premise).  This
module is that story for the whole serving tier:

* :func:`save_noble_wifi` / :func:`load_noble_wifi` — the historical
  NObLe-model-level round trip (network weights via
  :mod:`repro.nn.serialization`, quantizer state, head layout).
* :func:`save_estimator` / :func:`load_estimator` — **versioned artifact
  format** (schema :data:`ARTIFACT_SCHEMA`) covering every backend in
  :mod:`repro.serving.registry` through a per-backend serializer
  registry that mirrors it: ``knn``, ``knn-regressor``, ``forest``,
  ``noble``, ``cnnloc``, and the composite ``ensemble`` — including
  ``shards=`` configurations, whose
  :class:`~repro.sharding.ShardedKNNIndex` persists its finished shard
  assignment so a restore skips the partition fit.
* :class:`ModelStore` — a directory of artifacts keyed by the same
  (backend, dataset fingerprint, hyperparameters) triple as
  :class:`repro.serving.cache.ModelCache`, which uses it as a spill
  tier: fitted models are written through on insert and misses are
  resolved from disk before re-fitting, so a process restart warm-starts
  instead of re-paying every cold fit.

Every artifact is a single compressed ``.npz`` whose ``artifact_json``
entry carries the envelope (schema tag, backend name, canonicalized
hyperparameters, serializer metadata).  A reader that does not recognize
the schema tag refuses with :class:`ArtifactError` rather than guessing
— renamed, truncated, or foreign files surface the same way.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from repro.localization.noble import ALL_HEADS, NObLeWifi
from repro.quantization.grid import GridQuantizer
from repro.quantization.multires import MultiResolutionQuantizer

#: Identifier (and version) of the estimator artifact envelope.  Bump on
#: any incompatible layout change; readers reject unknown tags.
ARTIFACT_SCHEMA = "repro-estimator/1"


class ArtifactError(ValueError):
    """A model artifact is unreadable, foreign, or from another version."""


# --------------------------------------------------------------------- NObLe
def save_noble_wifi(model: NObLeWifi, path: "str | os.PathLike") -> None:
    """Persist a fitted :class:`NObLeWifi` to ``path`` (.npz)."""
    np.savez_compressed(path, **_noble_arrays(model))


def load_noble_wifi(path: "str | os.PathLike") -> NObLeWifi:
    """Restore a :class:`NObLeWifi` saved by :func:`save_noble_wifi`."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return _noble_from_arrays(arrays)


def _noble_arrays(model: NObLeWifi) -> "dict[str, np.ndarray]":
    """A fitted NObLe model as a flat array dict (shared with artifacts)."""
    if model.model_ is None:
        raise ValueError("model is not fitted")
    arrays: dict[str, np.ndarray] = {}
    for name, value in model.model_.state_dict().items():
        arrays[f"net.{name}"] = value
    quantizer = model.quantizer_
    fine = quantizer.fine if isinstance(quantizer, MultiResolutionQuantizer) else quantizer
    arrays["fine.classes"] = fine.classes_
    arrays["fine.centroids"] = fine.centroids_
    arrays["fine.counts"] = fine.counts_
    arrays["fine.origin"] = fine.origin_
    if isinstance(quantizer, MultiResolutionQuantizer):
        arrays["coarse.classes"] = quantizer.coarse.classes_
        arrays["coarse.centroids"] = quantizer.coarse.centroids_
        arrays["coarse.counts"] = quantizer.coarse.counts_
        arrays["coarse.origin"] = quantizer.coarse.origin_
    if model.fine_class_building_ is not None:
        arrays["fine_class_building"] = model.fine_class_building_
    if model.binner_ is not None:
        for name, value in model.binner_.state_arrays().items():
            arrays[name] = value

    transform_name = None
    if model.signal_transform is not None:
        from repro.localization import representations

        for name in ("identity", "powed", "exponential", "binary"):
            if model.signal_transform is representations.get_representation(name):
                transform_name = name
                break
        else:
            raise ValueError(
                "only named signal transforms (repro.localization."
                "representations) can be persisted; got a custom callable"
            )

    meta = {
        "signal_transform": transform_name,
        "tau": model.tau,
        "coarse": model.coarse,
        "hidden": model.hidden,
        "heads": list(model.heads),
        "adjacency_weight": model.adjacency_weight,
        # restore must rebuild the network in the precision it was
        # trained in, or float32 weights would silently upcast and
        # predictions would drift from the shipped model
        "dtype": None if model.dtype is None else str(model._dtype),
        "n_inputs": model.model_[0].in_features,
        "n_outputs": model.model_[-1].out_features,
        "n_buildings": model.n_buildings_,
        "n_floors": model.n_floors_,
        "head_slices": {
            head: [s.start, s.stop] for head, s in model.head_slices_.items()
        },
        "multires": isinstance(quantizer, MultiResolutionQuantizer),
        "representative": fine.representative,
        "quantize_bins": model.quantize_bins,
    }
    arrays["meta_json"] = _json_blob(meta)
    return arrays


def _noble_from_arrays(arrays: "dict[str, np.ndarray]") -> NObLeWifi:
    """Rebuild a fitted NObLe model from :func:`_noble_arrays` output."""
    arrays = dict(arrays)
    meta = json.loads(bytes(arrays.pop("meta_json")).decode("utf-8"))

    model = NObLeWifi(
        tau=meta["tau"],
        coarse=meta["coarse"],
        hidden=meta["hidden"],
        heads=tuple(h for h in ALL_HEADS if h in meta["heads"]),
        adjacency_weight=meta["adjacency_weight"],
        signal_transform=meta.get("signal_transform"),
        dtype=meta.get("dtype"),
        quantize_bins=meta.get("quantize_bins"),
    )
    if model.quantize_bins is not None:
        from repro.quantization import FeatureBinner

        model.binner_ = FeatureBinner.from_state_arrays(arrays)
    model.n_buildings_ = meta["n_buildings"]
    model.n_floors_ = meta["n_floors"]
    model.head_slices_ = {
        head: slice(bounds[0], bounds[1])
        for head, bounds in meta["head_slices"].items()
    }
    model.quantizer_ = _restore_quantizer(meta, arrays)
    model.fine_class_building_ = arrays.get("fine_class_building")
    network = model._build_model(meta["n_inputs"], meta["n_outputs"], rng=0)
    network.load_state_dict(
        {
            name[len("net."):]: value
            for name, value in arrays.items()
            if name.startswith("net.")
        }
    )
    network.eval()
    model.model_ = network
    return model


def _restore_quantizer(meta: dict, arrays: dict):
    fine = _restore_grid(
        meta["tau"], meta["representative"], arrays, prefix="fine"
    )
    if not meta["multires"]:
        return fine
    quantizer = MultiResolutionQuantizer(
        meta["tau"], meta["coarse"], representative=meta["representative"]
    )
    quantizer.fine = fine
    quantizer.coarse = _restore_grid(
        meta["coarse"], meta["representative"], arrays, prefix="coarse"
    )
    return quantizer


def _restore_grid(tau: float, representative: str, arrays: dict, prefix: str):
    grid = GridQuantizer(tau, representative=representative)
    grid.origin_ = arrays[f"{prefix}.origin"]
    grid.classes_ = arrays[f"{prefix}.classes"].astype(int)
    grid.centroids_ = arrays[f"{prefix}.centroids"]
    grid.counts_ = arrays[f"{prefix}.counts"].astype(int)
    grid._rebuild_lookup()
    return grid


# ------------------------------------------------------ serializer registry
#: backend name -> serializer class; populated by :func:`register_serializer`.
_SERIALIZERS: "dict[str, type]" = {}


def register_serializer(name: str):
    """Class decorator adding a backend serializer to the registry.

    A serializer mirrors one :func:`repro.serving.registry.register`
    entry and provides two static methods:

    ``dump(estimator) -> (arrays, meta)``
        The fitted state as a flat ``str -> ndarray`` dict plus a
        JSON-serializable metadata dict.
    ``load(estimator, arrays, meta) -> None``
        Attach that state to a freshly constructed (unfitted) estimator
        of the same backend and hyperparameters.
    """

    def decorator(cls):
        if name in _SERIALIZERS:
            raise ValueError(f"serializer for {name!r} already registered")
        _SERIALIZERS[name] = cls
        return cls

    return decorator


def available_serializers() -> "tuple[str, ...]":
    """Backend names with a registered serializer, sorted."""
    return tuple(sorted(_SERIALIZERS))


def serializer_for(name: str) -> type:
    """The serializer registered for backend ``name``."""
    try:
        return _SERIALIZERS[name]
    except KeyError:
        raise ArtifactError(
            f"no serializer registered for backend {name!r}; "
            f"available: {', '.join(available_serializers())}"
        ) from None


# ------------------------------------------------------------ artifact format
def save_estimator(
    estimator,
    path: "str | os.PathLike",
    store_key: "tuple[str, str, str] | None" = None,
) -> None:
    """Persist a fitted registry estimator as a versioned ``.npz`` artifact.

    ``estimator`` must be an instance of a registered
    :class:`repro.serving.Estimator` backend (its ``registry_name`` and
    canonicalized ``params`` go into the envelope so
    :func:`load_estimator` can reconstruct an identically configured
    instance).  ``store_key`` is the (backend, dataset fingerprint,
    params key) identity triple recorded by :class:`ModelStore` so a
    renamed or foreign artifact can never serve under the wrong key;
    direct callers normally leave it ``None``.

    Raises :class:`ArtifactError` for estimators outside the registry
    and ``ValueError`` for unfitted ones.
    """
    name = getattr(estimator, "registry_name", None)
    if not isinstance(name, str):
        raise ArtifactError(
            "save_estimator takes a registered serving estimator "
            f"(got {type(estimator).__name__}); register the backend and "
            "a serializer to persist it"
        )
    serializer = serializer_for(name)
    arrays, meta = serializer.dump(estimator)
    envelope = {
        "schema": ARTIFACT_SCHEMA,
        "backend": name,
        "params": estimator.params,
        "meta": meta,
        "store_key": None if store_key is None else list(store_key),
    }
    arrays = dict(arrays)
    try:
        arrays["artifact_json"] = _json_blob(envelope)
    except TypeError as error:
        raise ArtifactError(
            f"backend {name!r} produced non-JSON-serializable artifact "
            f"metadata: {error}"
        ) from error
    np.savez_compressed(path, **arrays)


def load_estimator(
    path: "str | os.PathLike",
    expected_store_key: "tuple[str, str, str] | None" = None,
):
    """Restore a fitted estimator saved by :func:`save_estimator`.

    The returned instance is ready to ``predict_batch`` and produces
    bit-identical predictions to the estimator that was saved.  Raises
    :class:`ArtifactError` when the file is not a repro estimator
    artifact, was written under a different schema version, names an
    unknown backend, or (with ``expected_store_key``) was recorded under
    a different identity triple — the renamed-artifact guard
    :class:`ModelStore` relies on.  A missing file raises the usual
    ``FileNotFoundError``.
    """
    arrays, envelope = _read_artifact(path)
    if expected_store_key is not None:
        recorded = envelope.get("store_key")
        if recorded != list(expected_store_key):
            raise ArtifactError(
                f"artifact {path} was saved under store key {recorded!r}, "
                f"not {list(expected_store_key)!r} — renamed or foreign "
                "files cannot serve from the model store"
            )
    backend = envelope.get("backend")
    serializer = serializer_for(backend)
    from repro.serving.registry import create

    params = envelope.get("params") or {}
    try:
        estimator = create(backend, **params)
    except (TypeError, ValueError) as error:
        raise ArtifactError(
            f"cannot reconstruct backend {backend!r} from artifact "
            f"{path}: {error}"
        ) from error
    # the constructor must canonicalize the recorded params back to
    # themselves; a drifted default or renamed hyperparameter means this
    # reader no longer speaks the artifact's configuration language
    if json.dumps(estimator.params, sort_keys=True) != json.dumps(
        params, sort_keys=True
    ):
        raise ArtifactError(
            f"artifact {path} params do not round-trip through the "
            f"{backend!r} constructor: saved {params!r}, "
            f"reconstructed {estimator.params!r}"
        )
    try:
        serializer.load(estimator, arrays, envelope.get("meta") or {})
    except ArtifactError:
        raise
    except (KeyError, IndexError, ValueError, TypeError) as error:
        raise ArtifactError(
            f"artifact {path} is incomplete or inconsistent for backend "
            f"{backend!r}: {error}"
        ) from error
    return estimator


def _read_artifact(path) -> "tuple[dict, dict]":
    """Load an artifact's arrays and validated envelope."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except OSError:
        # I/O failures (EIO, stale NFS handle) are transient, not
        # corruption: propagate as-is so callers can retry instead of
        # quarantining a healthy file
        raise
    except Exception as error:
        raise ArtifactError(
            f"cannot read estimator artifact {path}: {error}"
        ) from error
    blob = arrays.pop("artifact_json", None)
    if blob is None:
        raise ArtifactError(
            f"{path} is not a repro estimator artifact (no envelope); "
            "was it written by save_estimator?"
        )
    try:
        envelope = json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactError(
            f"estimator artifact {path} has a corrupt envelope: {error}"
        ) from error
    schema = envelope.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"estimator artifact {path} has schema {schema!r}; this build "
            f"reads {ARTIFACT_SCHEMA!r} — re-export the model with a "
            "matching version"
        )
    return arrays, envelope


def _json_blob(payload: dict) -> np.ndarray:
    """A JSON payload as a uint8 array (npz archives hold arrays only)."""
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def _require_fitted(estimator, attr: str = "model_"):
    model = getattr(estimator, attr, None)
    if model is None:
        raise ValueError(
            f"cannot save an unfitted {estimator.registry_name!r} estimator"
        )
    return model


def _strip_prefix(arrays: dict, prefix: str) -> dict:
    return {
        name[len(prefix):]: value
        for name, value in arrays.items()
        if name.startswith(prefix)
    }


# ----------------------------------------------------------- index (de)hydration
def _index_state(index, prefix: str) -> "tuple[dict, dict]":
    """(arrays, meta) for a KNNIndex or ShardedKNNIndex.

    A binned (quantized) index persists its uint8 codes plus the fitted
    binner state instead of float points — the artifact gets the same 8x
    size cut the resident index enjoys, and restore rebuilds straight
    from the codes with no re-quantization.  Sharded binned indexes
    still persist the float map (shard state references it), plus the
    binner so per-shard indexes rebuild binned.
    """
    from repro.sharding.index import ShardedKNNIndex

    if isinstance(index, ShardedKNNIndex):
        arrays = {
            f"{prefix}{name}": value
            for name, value in index.shard_state().items()
        }
        arrays[f"{prefix}points"] = index.points
        meta = {
            "sharded": True,
            "method": index.shards_[0].method,
            "partitioner": index.partitioner.describe(),
            "prune": bool(index.prune),
        }
        if index.binner is not None:
            for name, value in index.binner.state_arrays().items():
                arrays[f"{prefix}{name}"] = value
            meta["binned"] = True
        return arrays, meta
    if index.binner is not None:
        arrays = {f"{prefix}codes": index.codes}
        for name, value in index.binner.state_arrays().items():
            arrays[f"{prefix}{name}"] = value
        return arrays, {"sharded": False, "method": "brute", "binned": True}
    return (
        {f"{prefix}points": index.points},
        {"sharded": False, "method": index.method},
    )


def _restore_index(arrays: dict, meta: dict, prefix: str):
    """Inverse of :func:`_index_state`; skips any partition fit."""
    from repro.manifold.neighbors import KNNIndex
    from repro.sharding.index import ShardedKNNIndex

    binner = None
    if meta.get("binned"):
        from repro.quantization import FeatureBinner

        binner = FeatureBinner.from_state_arrays(
            _strip_prefix(arrays, prefix)
        )
    if not meta["sharded"]:
        if binner is not None:
            return KNNIndex.from_codes(arrays[f"{prefix}codes"], binner)
        return KNNIndex(arrays[f"{prefix}points"], method=meta["method"])
    state = {
        name: arrays[f"{prefix}{name}"]
        for name in ("shard_concat", "shard_sizes", "centroids", "radii")
    }
    return ShardedKNNIndex.from_shard_state(
        arrays[f"{prefix}points"],
        state,
        partitioner_description=meta["partitioner"],
        method=meta["method"],
        prune=meta["prune"],
        binner=binner,
    )


# ------------------------------------------------------- backend serializers
def _restorable_partitioner(spec, shards: int):
    """A partitioner the restored model can carry.

    Spec *strings* (``"auto"``/``"labels"``/``"kmeans"``/``"chunk"``)
    survive the round trip verbatim, so a restored estimator can even
    be re-fit on new data.  A custom :class:`Partitioner` *instance*
    cannot be reconstructed from its recorded ``describe()`` string —
    the restored estimator serves normally, but re-fitting it gets a
    :class:`RestoredPartitioner` whose ``assign`` raises with an
    actionable message instead of ``make_partitioner`` choking on the
    describe string.
    """
    from repro.sharding.partitioner import _SPECS, RestoredPartitioner

    if spec is None or (isinstance(spec, str) and (spec == "auto" or spec in _SPECS)):
        return spec
    return RestoredPartitioner(str(spec), n_shards=max(int(shards), 1))


@register_serializer("knn")
class _KNNFingerprintingSerializer:
    @staticmethod
    def dump(estimator):
        model = _require_fitted(estimator)
        arrays, index_meta = _index_state(model.index_, prefix="index.")
        arrays["coordinates"] = model.coordinates_
        arrays["building"] = model.building_
        arrays["floor"] = model.floor_
        return arrays, {"index": index_meta}

    @staticmethod
    def load(estimator, arrays, meta):
        from repro.localization.knn import KNNFingerprinting

        kwargs = dict(estimator.params)
        if "partitioner" in kwargs:
            # also fix the estimator shell, whose own fit() re-injects
            # _partitioner — a refit must get the restorable form too
            estimator._partitioner = _restorable_partitioner(
                estimator._partitioner, kwargs.get("shards", 1)
            )
            kwargs["partitioner"] = estimator._partitioner
        model = KNNFingerprinting(**kwargs)
        model.index_ = _restore_index(arrays, meta["index"], prefix="index.")
        model.coordinates_ = arrays["coordinates"]
        model.building_ = arrays["building"].astype(int, copy=False)
        model.floor_ = arrays["floor"].astype(int, copy=False)
        estimator.model_ = model


@register_serializer("embed-knn")
class _EmbeddedKNNSerializer:
    """kNN-in-embedding-space artifacts: embedder + embedded index.

    The learned embedder rides along with the index it produced
    (:func:`repro.embedding.embedder_state`), so a warm restore serves
    bit-identical predictions without re-training either stage — the
    guarantee the ``embed-knn`` round-trip test pins.
    """

    @staticmethod
    def dump(estimator):
        from repro.embedding import embedder_state

        model = _require_fitted(estimator)
        arrays, index_meta = _index_state(model.index_, prefix="index.")
        embed_arrays, embed_meta = embedder_state(
            model.embedder, prefix="embedder."
        )
        arrays.update(embed_arrays)
        arrays["coordinates"] = model.coordinates_
        arrays["building"] = model.building_
        arrays["floor"] = model.floor_
        return arrays, {"index": index_meta, "embedder": embed_meta}

    @staticmethod
    def load(estimator, arrays, meta):
        from repro.embedding import restore_embedder
        from repro.localization.knn import KNNFingerprinting

        kwargs = {
            key: value
            for key, value in estimator.params.items()
            if key not in ("embedder", "embed_params")
        }
        if "partitioner" in kwargs:
            estimator._partitioner = _restorable_partitioner(
                estimator._partitioner, kwargs.get("shards", 1)
            )
            kwargs["partitioner"] = estimator._partitioner
        model = KNNFingerprinting(
            embedder=restore_embedder(
                arrays, meta["embedder"], prefix="embedder."
            ),
            **kwargs,
        )
        model.index_ = _restore_index(arrays, meta["index"], prefix="index.")
        model.coordinates_ = arrays["coordinates"]
        model.building_ = arrays["building"].astype(int, copy=False)
        model.floor_ = arrays["floor"].astype(int, copy=False)
        estimator.model_ = model


@register_serializer("knn-regressor")
class _KNNRegressorSerializer:
    @staticmethod
    def dump(estimator):
        model = _require_fitted(estimator)
        arrays, index_meta = _index_state(model.index_, prefix="index.")
        arrays["targets"] = model.targets_
        return arrays, {"index": index_meta, "squeeze": bool(model._squeeze)}

    @staticmethod
    def load(estimator, arrays, meta):
        if "partitioner" in estimator.params:
            estimator._partitioner = _restorable_partitioner(
                estimator._partitioner, estimator.params.get("shards", 1)
            )
        model = estimator._build()
        model.index_ = _restore_index(arrays, meta["index"], prefix="index.")
        model.targets_ = arrays["targets"]
        model._squeeze = bool(meta["squeeze"])
        estimator.model_ = model


@register_serializer("forest")
class _RandomForestSerializer:
    @staticmethod
    def dump(estimator):
        model = _require_fitted(estimator, "model_")
        if model.trees_ is None:
            raise ValueError("cannot save an unfitted 'forest' estimator")
        arrays: dict = {}
        for i, tree in enumerate(model.trees_):
            for name, value in tree.to_arrays().items():
                arrays[f"tree{i:04d}.{name}"] = value
        meta = {
            "n_trees": len(model.trees_),
            "squeeze": bool(model._squeeze),
            "oob_error": model.oob_error_,
        }
        return arrays, meta

    @staticmethod
    def load(estimator, arrays, meta):
        from repro.ml.tree import DecisionTreeRegressor

        model = estimator._build()
        model.trees_ = [
            DecisionTreeRegressor.from_arrays(
                _strip_prefix(arrays, f"tree{i:04d}.")
            )
            for i in range(int(meta["n_trees"]))
        ]
        model._squeeze = bool(meta["squeeze"])
        model.oob_error_ = meta.get("oob_error")
        estimator.model_ = model


@register_serializer("noble")
class _NObLeSerializer:
    @staticmethod
    def dump(estimator):
        return _noble_arrays(_require_fitted(estimator)), {}

    @staticmethod
    def load(estimator, arrays, meta):
        estimator.model_ = _noble_from_arrays(arrays)
        estimator._replicas_ = []


@register_serializer("cnnloc")
class _CNNLocSerializer:
    @staticmethod
    def dump(estimator):
        from repro.nn.serialization import state_arrays

        model = _require_fitted(estimator)
        if model.model_ is None:
            raise ValueError("cannot save an unfitted 'cnnloc' estimator")
        arrays = state_arrays(model.model_, prefix="net.")
        arrays["coord_mean"] = model.coord_mean_
        arrays["coord_std"] = model.coord_std_
        if model.binner_ is not None:
            for name, value in model.binner_.state_arrays().items():
                arrays[name] = value
        slices = model.head_slices_
        meta = {
            "encoder_sizes": list(model.encoder_sizes),
            "conv_channels": list(model.conv_channels),
            "kernel_size": model.kernel_size,
            "pool": model.pool,
            "dtype": None if model.dtype is None else str(model._dtype),
            "quantize_bins": model.quantize_bins,
            "n_inputs": model.model_[0].in_features,
            "n_buildings": slices["building"].stop,
            "n_floors": slices["floor"].stop - slices["floor"].start,
        }
        return arrays, meta

    @staticmethod
    def load(estimator, arrays, meta):
        from repro.localization.cnnloc import CNNLocWifi
        from repro.nn.serialization import load_state_arrays

        model = CNNLocWifi(
            encoder_sizes=tuple(meta["encoder_sizes"]),
            conv_channels=tuple(meta["conv_channels"]),
            kernel_size=meta["kernel_size"],
            pool=meta["pool"],
            dtype=meta["dtype"],
            # absent in pre-quantization artifacts: those serve raw
            quantize_bins=meta.get("quantize_bins"),
        )
        if model.quantize_bins is not None:
            from repro.quantization import FeatureBinner

            model.binner_ = FeatureBinner.from_state_arrays(arrays)
        network, head_slices = model._build_network(
            int(meta["n_inputs"]),
            int(meta["n_buildings"]),
            int(meta["n_floors"]),
            rng=0,
        )
        load_state_arrays(network, arrays, prefix="net.")
        network.eval()
        model.model_ = network
        model.head_slices_ = head_slices
        model.coord_mean_ = arrays["coord_mean"]
        model.coord_std_ = arrays["coord_std"]
        estimator.model_ = model


@register_serializer("ensemble")
class _EnsembleSerializer:
    @staticmethod
    def dump(estimator):
        if estimator.ood_threshold_ is None:
            raise ValueError("cannot save an unfitted 'ensemble' estimator")
        arrays, ood_meta = _index_state(estimator._ood_index, prefix="ood.")
        meta: dict = {
            "ood_threshold": float(estimator.ood_threshold_),
            "ood_index": ood_meta,
            "heads_ok": bool(estimator._heads_ok),
            "children": {},
        }
        for side in ("primary", "fallback"):
            child = getattr(estimator, f"_{side}")
            child_arrays, child_meta = serializer_for(
                child.registry_name
            ).dump(child)
            for name, value in child_arrays.items():
                arrays[f"{side}.{name}"] = value
            meta["children"][side] = {
                "backend": child.registry_name,
                "meta": child_meta,
            }
        return arrays, meta

    @staticmethod
    def load(estimator, arrays, meta):
        from repro.manifold.neighbors import KNNIndex

        for side in ("primary", "fallback"):
            child = getattr(estimator, f"_{side}")
            info = meta["children"][side]
            if info["backend"] != child.registry_name:
                raise ArtifactError(
                    f"ensemble artifact stores a {info['backend']!r} "
                    f"{side}, but the params built {child.registry_name!r}"
                )
            serializer_for(child.registry_name).load(
                child, _strip_prefix(arrays, f"{side}."), info["meta"]
            )
        if "ood_index" in meta:
            estimator._ood_index = _restore_index(
                arrays, meta["ood_index"], prefix="ood."
            )
        else:
            # pre-quantization artifacts stored the gate as raw points
            estimator._ood_index = KNNIndex(
                arrays["ood.points"], method=meta["ood_method"]
            )
        estimator.ood_threshold_ = float(meta["ood_threshold"])
        estimator._heads_ok = bool(meta["heads_ok"])
        estimator.routes_ = {"primary": 0, "fallback": 0}


# ----------------------------------------------------------------- ModelStore
class ModelStore:
    """A directory of estimator artifacts keyed like the ``ModelCache``.

    Artifacts are addressed by the (backend, dataset fingerprint,
    hyperparameter key) triple — the same key the in-memory
    :class:`repro.serving.cache.ModelCache` uses — hashed into a stable
    filename.  The triple is also recorded *inside* the artifact, so a
    renamed or hand-copied file can never be served under the wrong key,
    and a changed radio map (different fingerprint) simply misses: stale
    artifacts cannot shadow fresh data.

    ``get`` degrades unreadable artifacts (corrupt, foreign, other
    schema version) to a miss: the bad file is **quarantined** — renamed
    aside to ``<name>.corrupt`` so later misses on the same key go
    straight to a silent re-fit instead of re-reading and re-warning
    forever — and the one warning is issued at quarantine time.  The
    write-through on the subsequent insert replaces the artifact under
    the original name.  Transient I/O errors (``OSError`` that is not
    file-not-found) are retried ``read_retries`` times before degrading
    to a miss *without* quarantine — a healthy file must survive an NFS
    hiccup.  Use :func:`load_estimator` directly when a hard failure is
    wanted.

    Writes are atomic (O_EXCL temp file via ``tempfile.mkstemp`` +
    ``os.replace``), so a crashed writer never leaves a half-written
    artifact under a live key.  Safe across threads *and processes*:
    concurrent puts of the same key write disjoint temp files and
    last-write-win with an intact artifact either way.
    """

    def __init__(
        self,
        directory: "str | os.PathLike",
        read_retries: int = 2,
        retry_delay_s: float = 0.05,
    ):
        if read_retries < 0:
            raise ValueError(f"read_retries must be >= 0, got {read_retries}")
        if retry_delay_s < 0:
            raise ValueError(
                f"retry_delay_s must be >= 0, got {retry_delay_s}"
            )
        self.directory = os.fspath(directory)
        self.read_retries = int(read_retries)
        self.retry_delay_s = float(retry_delay_s)
        os.makedirs(self.directory, exist_ok=True)

    def path_for(self, name: str, fingerprint: str, params_key: str) -> str:
        """The artifact path owned by one (backend, dataset, params) triple."""
        import hashlib

        digest = hashlib.blake2b(
            repr((name, fingerprint, params_key)).encode("utf-8"),
            digest_size=12,
        ).hexdigest()
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name)
        return os.path.join(self.directory, f"{safe}-{digest}.npz")

    def put(
        self, name: str, fingerprint: str, params_key: str, estimator
    ) -> str:
        """Write ``estimator`` under the key triple; returns the path."""
        import tempfile

        path = self.path_for(name, fingerprint, params_key)
        base = os.path.basename(path)[: -len(".npz")]
        # O_EXCL temp file in the store directory: every writer —
        # thread *or process* — gets a name nobody else can open, so
        # concurrent puts of one key can never clobber each other's
        # half-written temp (a deterministic temp name can, across
        # processes).  Same filesystem as ``path``, so the final
        # ``os.replace`` stays atomic.  The ``.tmp-`` infix keeps
        # :meth:`paths` from listing in-flight writes; the ``.npz``
        # suffix stops np.savez from silently appending one and
        # dodging the rename.
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f"{base}.tmp-", suffix=".npz"
        )
        os.close(fd)
        try:
            save_estimator(
                estimator, tmp, store_key=(name, fingerprint, params_key)
            )
            os.replace(tmp, path)
        except BaseException:  # failed save: never leave debris
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def get(self, name: str, fingerprint: str, params_key: str):
        """The estimator stored under the triple, or None (soft miss).

        A corrupt artifact is quarantined (renamed to ``*.corrupt``)
        with a single warning; a transient I/O error is retried
        ``read_retries`` times, then degraded to a miss with a warning
        but the file is left in place.
        """
        import time as _time
        import warnings

        path = self.path_for(name, fingerprint, params_key)
        error: "Exception | None" = None
        for attempt in range(self.read_retries + 1):
            try:
                return load_estimator(
                    path, expected_store_key=(name, fingerprint, params_key)
                )
            except FileNotFoundError:
                return None
            except ArtifactError as artifact_error:
                # quarantine: one warning now, silence (a plain miss)
                # on every later get of this key — the write-through on
                # the next insert recreates the artifact
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                warnings.warn(
                    f"quarantining unreadable model artifact {path}: "
                    f"{artifact_error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return None
            except OSError as os_error:
                error = os_error
                if attempt < self.read_retries and self.retry_delay_s:
                    _time.sleep(self.retry_delay_s)
        warnings.warn(
            f"ignoring unreadable model artifact {path} after "
            f"{self.read_retries + 1} attempts: {error}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None

    def paths(self) -> "list[str]":
        """Paths of every artifact currently in the store, sorted.

        In-flight (or crash-orphaned) atomic-write temp files are not
        artifacts and are excluded.
        """
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.endswith(".npz") and ".tmp-" not in name
        )

    def __len__(self) -> int:
        return len(self.paths())

    def clear(self) -> None:
        """Delete every artifact in the store directory."""
        for path in self.paths():
            os.unlink(path)
