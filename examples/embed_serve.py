"""Learned-embedding serving: train embedder → snapshot → warm serve.

The §III-C feature-space story, end to end: fit the ``embed-knn``
backend so an AE-pretrained MLP (:class:`repro.embedding.MLPEmbedder`)
maps the radio map into a compact coordinate-organized space and the
kNN index is built on the *embedded* points, measure that the learned
space is genuinely better-structured than raw RSSI
(:mod:`repro.analysis.embedding`), snapshot the fitted model — the
embedder rides inside the artifact — and simulate a restart: the warm
restore serves bit-identical predictions without re-training either
stage, through the same deadline-driven front end.

The full composed pipeline is one ``transform=`` dict: the learned
embed stage, then the kNN index over the embedded points::

    create("embed-knn", transform={
        "embed": {"kind": "mlp", "n_components": 16},
    })

Run:  python examples/embed_serve.py

The throughput/accuracy claim behind this flow is pinned by the
serving benchmark (committed as the ``embed`` block of
``BENCH_serve.json``; ``make serve-bench-smoke`` runs it at smoke scale)::

    make serve-bench
"""

import tempfile

import numpy as np

from repro.analysis.embedding import (
    class_scatter_ratio,
    embedding_distance_correlation,
)
from repro.data import generate_uji_like
from repro.serving import ModelCache, ModelStore, ServingFrontend

HYPERPARAMS = dict(
    k=10,
    transform={
        "embed": {
            "kind": "mlp", "n_components": 16, "hidden": [64],
            "pretrain_epochs": 3, "epochs": 30,
        },
    },
)


def main() -> None:
    # a noisy map: heavy shadowing + device offsets, the regime where
    # raw RSSI distances degrade and the learned space earns its keep
    dataset = generate_uji_like(
        n_spots_per_building=48, measurements_per_spot=8,
        n_aps_per_floor=8, shadowing_sigma=8.0, device_offset_sigma=6.0,
        seed=27,
    )
    train, test = dataset.split((0.8, 0.2), rng=28)
    print(f"radio map: {len(train)} fingerprints x {train.n_aps} WAPs")

    with tempfile.TemporaryDirectory() as store_dir:
        store = ModelStore(store_dir)

        # --- fit once: embedder + embedded index ---------------------
        cache = ModelCache(capacity=4, store=store)
        embedded = cache.get_or_fit("embed-knn", train, **HYPERPARAMS)
        model = embedded.model_
        print(f"embedded index    : {train.n_aps}-dim raw RSSI -> "
              f"{model.index_.n_features}-dim learned space")

        # --- the space is measurably better organized than raw --------
        signals = train.normalized_signals()
        embeddings = model.embedder.transform(signals)
        _, spots = np.unique(
            np.asarray(train.coordinates), axis=0, return_inverse=True
        )
        print(f"class scatter     : {class_scatter_ratio(embeddings, spots, rng=1):.3f} "
              f"embedded vs {class_scatter_ratio(signals, spots, rng=1):.3f} raw "
              f"(lower = tighter same-spot clusters)")
        print(f"distance corr     : "
              f"{embedding_distance_correlation(embeddings, train.coordinates, rng=2):.3f} "
              f"embedded vs "
              f"{embedding_distance_correlation(signals, train.coordinates, rng=2):.3f} raw "
              f"(higher = tracks physical distance)")

        # --- accuracy on held-out scans -------------------------------
        truth = np.asarray(test.coordinates)
        embed_xy = embedded.predict_batch(test.rssi).coordinates
        raw = ModelCache(capacity=4).get_or_fit("knn", train, k=10)
        raw_xy = raw.predict_batch(test.rssi).coordinates

        def mean_error(xy):
            return float(np.linalg.norm(xy - truth, axis=1).mean())

        print(f"held-out error    : {mean_error(embed_xy):.2f} m embedded "
              f"vs {mean_error(raw_xy):.2f} m raw kNN "
              f"over {len(test)} queries")

        # --- restart: the embedder rides inside the artifact ----------
        restored = ModelCache(capacity=4, store=store).get_or_fit(
            "embed-knn", train, **HYPERPARAMS
        )
        assert np.array_equal(
            restored.predict_batch(test.rssi).coordinates, embed_xy
        )
        print("warm restore      : embedder + embedded index restored "
              "from the artifact, predictions bit-identical")

        # --- and it serves through the async front end unchanged ------
        with ServingFrontend(restored, batch_size=32, deadline_ms=50) as fe:
            tickets = [fe.submit(scan) for scan in test.rssi]
            served = np.vstack([t.result().coordinates for t in tickets])
        assert np.array_equal(served, embed_xy)
        print(f"served            : {len(served)} queries through the "
              f"async front end, parity held")


if __name__ == "__main__":
    main()
