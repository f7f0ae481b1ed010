"""Quantized serving: uint8 radio map → snapshot → warm quantized serve.

The memory/speed story of the quantized scan tier, end to end: fit a
kNN backend with ``quantize_bins=256`` so the radio map is stored as
uint8 bin codes (8x smaller than float64), snapshot the fitted model
through the persistent :class:`repro.serving.ModelStore` (the artifact
stores codes, not float points), then simulate a restart — the warm
restore rebuilds the binned index straight from the codes and serves
identically, through the same deadline-driven front end.

Under the hood every query runs the two-stage quantized plan: the
cache-blocked :func:`repro.manifold.chunked.chunked_argkmin` kernel
scans uint8 tiles for a ``refine * k`` shortlist (asymmetric distance —
raw float queries against bin-midpoint tiles), then the shortlist is
reranked with exact float distances, recovering near-perfect top-k
recall.  ``quantize_bins`` is a cache-keyed hyperparameter, so the
quantized and raw configurations never alias each other in the
:class:`repro.serving.ModelCache` or the store.

Run:  python examples/quantized_serve.py

The throughput/recall/bytes claim behind this flow is pinned by the
serving benchmark (committed as the ``quant`` block of
``BENCH_serve.json``; ``make serve-bench-smoke`` runs it at smoke scale)::

    make serve-bench
"""

import tempfile

import numpy as np

from repro.data import generate_uji_like
from repro.serving import ModelCache, ModelStore, ServingFrontend

HYPERPARAMS = dict(k=5, quantize_bins=256)


def main() -> None:
    dataset = generate_uji_like(
        n_spots_per_building=48, measurements_per_spot=8,
        n_aps_per_floor=8, seed=17,
    )
    train, test = dataset.split((0.8, 0.2), rng=18)
    print(f"radio map: {len(train)} fingerprints x {train.n_aps} WAPs")

    with tempfile.TemporaryDirectory() as store_dir:
        store = ModelStore(store_dir)

        # --- fit once: the index holds uint8 codes, not float points --
        cache = ModelCache(capacity=4, store=store)
        quantized = cache.get_or_fit("knn", train, **HYPERPARAMS)
        index = quantized.model_.index_
        float_bytes = len(train) * train.n_aps * 8
        print(f"resident map      : {index.codes.nbytes:8d} B as uint8 "
              f"codes ({float_bytes // index.codes.nbytes}x smaller than "
              f"the {float_bytes} B float64 map)")

        # --- accuracy: quantization barely moves the answer -----------
        raw = ModelCache(capacity=4).get_or_fit("knn", train, k=5)
        quant_xy = quantized.predict_batch(test.rssi).coordinates
        raw_xy = raw.predict_batch(test.rssi).coordinates
        drift = np.linalg.norm(quant_xy - raw_xy, axis=1)
        print(f"vs raw float kNN  : median prediction drift "
              f"{np.median(drift):.2f} m over {len(test)} queries")

        # --- restart: warm restore rebuilds straight from the codes ---
        restored = ModelCache(capacity=4, store=store).get_or_fit(
            "knn", train, **HYPERPARAMS
        )
        assert restored.model_.index_.binner is not None
        assert np.array_equal(
            restored.predict_batch(test.rssi).coordinates, quant_xy
        )
        print("warm restore      : binned index restored from the "
              "artifact, predictions exact")

        # --- and it serves through the async front end unchanged ------
        with ServingFrontend(restored, batch_size=32, deadline_ms=50) as fe:
            tickets = [fe.submit(scan) for scan in test.rssi]
            served = np.vstack([t.result().coordinates for t in tickets])
        assert np.array_equal(served, quant_xy)
        print(f"served            : {len(served)} queries through the "
              f"async front end, parity held")


if __name__ == "__main__":
    main()
