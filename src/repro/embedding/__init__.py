"""repro.embedding — learned feature spaces for fingerprint kNN.

§III-C of the paper: a metric-structured embedding pulls
same-location fingerprints together and tracks coordinate distance.
This package provides two learners of such spaces, one linear and one
nonlinear, behind a single ``fit``/``transform`` surface:

``"metric"`` → :class:`NCAEmbedder`
    Neighbourhood Components Analysis: a linear map trained by
    gradient ascent on the stochastic-kNN leave-one-out objective,
    with classes taken as distinct survey spots.
``"mlp"`` → :class:`MLPEmbedder`
    A stacked-autoencoder-pretrained tanh MLP fine-tuned to predict
    coordinates (on the fused :mod:`repro.nn` training path), with the
    supervised head discarded after training.

Either embedder slots into the serving tier as the first stage of the
feature-space pipeline (:class:`repro.serving.pipeline.FeaturePipeline`)
behind the ``"embed-knn"`` backend: the radio map is embedded once at
fit, the existing kNN index runs on the embedded points, and query
batches are embedded on the hot path.

Quality is measured by :mod:`repro.analysis.embedding`
(``class_scatter_ratio`` down, ``embedding_distance_correlation`` up —
asserted by the test-suite on synthetic maps).
"""

from __future__ import annotations

import numpy as np

from repro.embedding.metric import NCAEmbedder, nca_objective
from repro.embedding.mlp import MLPEmbedder

#: Registered embedder kinds, in the order the docs list them.
EMBEDDER_KINDS = ("metric", "mlp")


def make_embedder(kind: str, **params):
    """Instantiate an embedder by kind (``"metric"`` or ``"mlp"``)."""
    if kind == "metric":
        return NCAEmbedder(**params)
    if kind == "mlp":
        return MLPEmbedder(**params)
    raise ValueError(
        f"unknown embedder kind {kind!r}; available: "
        f"{', '.join(EMBEDDER_KINDS)}"
    )


def is_fitted(embedder) -> bool:
    """True when ``embedder`` has a learned transform ready to apply."""
    if isinstance(embedder, NCAEmbedder):
        return embedder.components_ is not None
    if isinstance(embedder, MLPEmbedder):
        return embedder.encoder_ is not None
    raise TypeError(f"not an embedder: {type(embedder).__name__}")


def fit_embedder(embedder, dataset):
    """Fit ``embedder`` on a :class:`FingerprintDataset`'s radio map.

    Picks the supervision signal each learner needs: the metric learner
    gets integer classes (one per distinct survey coordinate, the §III-C
    notion of "same location"), the MLP gets the coordinates themselves.
    Returns the fitted embedder.
    """
    signals = dataset.normalized_signals()
    if isinstance(embedder, NCAEmbedder):
        _, labels = np.unique(
            np.asarray(dataset.coordinates), axis=0, return_inverse=True
        )
        return embedder.fit(signals, labels)
    return embedder.fit(signals, dataset.coordinates)


def embedder_state(
    embedder, prefix: str = "embedder."
) -> "tuple[dict, dict]":
    """(arrays, meta) capturing a fitted embedder for an .npz artifact.

    ``meta`` is JSON-serializable (kind + constructor params + shape
    info); ``arrays`` hold the learned state under ``prefix``.  Inverse
    of :func:`restore_embedder` — the round trip is bit-identical, the
    guarantee the serving tier's warm restore relies on.
    """
    if isinstance(embedder, NCAEmbedder):
        if embedder.components_ is None:
            raise ValueError("cannot serialize an unfitted NCAEmbedder")
        arrays = {
            f"{prefix}mean": np.asarray(embedder.mean_),
            f"{prefix}components": np.asarray(embedder.components_),
        }
        return arrays, {"kind": "metric", "params": embedder.params}
    if isinstance(embedder, MLPEmbedder):
        if embedder.encoder_ is None:
            raise ValueError("cannot serialize an unfitted MLPEmbedder")
        from repro.nn.serialization import state_arrays

        arrays = state_arrays(embedder.encoder_, prefix=f"{prefix}net.")
        meta = {
            "kind": "mlp",
            "params": embedder.params,
            "n_features_in": int(embedder.n_features_in_),
        }
        return arrays, meta
    raise TypeError(f"not an embedder: {type(embedder).__name__}")


def restore_embedder(arrays: dict, meta: dict, prefix: str = "embedder."):
    """Rebuild a fitted embedder from :func:`embedder_state` output."""
    kind = meta["kind"]
    embedder = make_embedder(kind, **dict(meta["params"]))
    if kind == "metric":
        embedder.mean_ = np.asarray(arrays[f"{prefix}mean"], dtype=float)
        embedder.components_ = np.asarray(
            arrays[f"{prefix}components"], dtype=float
        )
        return embedder
    from repro.nn.serialization import load_state_arrays
    from repro.utils.rng import ensure_rng

    n_features = int(meta["n_features_in"])
    embedder.encoder_, embedder.model_ = embedder._build_network(
        n_features, ensure_rng(0)
    )
    load_state_arrays(embedder.encoder_, arrays, prefix=f"{prefix}net.")
    embedder.encoder_.eval()
    embedder.model_.eval()
    embedder.n_features_in_ = n_features
    return embedder


__all__ = [
    "EMBEDDER_KINDS",
    "MLPEmbedder",
    "NCAEmbedder",
    "embedder_state",
    "fit_embedder",
    "is_fitted",
    "make_embedder",
    "nca_objective",
    "restore_embedder",
]
