"""Input-space feature binning: uint8 radio maps.

RSSI fingerprints are stored as float64 by default — 8 bytes per
(AP, spot) reading for a signal that carries maybe 6 bits of usable
information.  :class:`FeatureBinner` bins each feature to at most 256
levels the way sklearn's hist-gradient-boosting does
(``_hist_gradient_boosting/binning.py``): per-feature thresholds fitted
on (a subsample of) the training map, codes stored as ``uint8`` — an 8x
memory cut — and distance arithmetic done against the *bin midpoints*
via a small dequantization LUT, so the cache-blocked
:func:`~repro.manifold.chunked.chunked_argkmin` kernel streams float32
tiles out of one-quarter the DRAM traffic of a raw float32 map.

Queries are deliberately **not** binned at search time (asymmetric
distance): raw float queries against dequantized map tiles halve the
quantization error versus code-vs-code distances and cost nothing, since
the query side is tiny.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_2d, check_fitted

#: uint8 codes cap the bin count; 2 is the smallest meaningful split.
MAX_BINS = 256


class FeatureBinner:
    """Per-feature scalar quantizer to at most 256 ``uint8`` codes.

    Parameters
    ----------
    n_bins:
        Number of bins per feature, in ``[2, 256]``.  256 keeps kNN
        recall effectively lossless on RSSI maps; lower settings trade
        recall for nothing here (codes are uint8 regardless), so they
        exist mainly for stress-testing the error envelope.
    strategy:
        ``"quantile"`` places thresholds at equally-spaced quantiles of
        the training distribution (sklearn's default — dense where the
        data is); ``"uniform"`` spaces them evenly over the observed
        range.
    subsample:
        Fit thresholds on at most this many rows, drawn without
        replacement (quantiles converge long before 2*10^5 rows; fitting
        on a 10^6-point map would just burn time sorting).  ``None``
        disables subsampling.
    seed:
        RNG seed for the subsample draw — fitting is deterministic.

    Attributes
    ----------
    thresholds_:
        (D, n_bins - 1) ascending per-feature bin edges.  Code ``c``
        covers ``(thresholds_[j, c-1], thresholds_[j, c]]``.
    midpoints_:
        (D, n_bins) float32 dequantization LUT — the representative
        value of each (feature, code) pair.
    """

    def __init__(
        self,
        n_bins: int = 256,
        strategy: str = "quantile",
        subsample: "int | None" = 200_000,
        seed: int = 0,
    ):
        n_bins = int(n_bins)
        if not 2 <= n_bins <= MAX_BINS:
            raise ValueError(
                f"n_bins must be in [2, {MAX_BINS}], got {n_bins}"
            )
        if strategy not in ("quantile", "uniform"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if subsample is not None and int(subsample) < 2:
            raise ValueError(f"subsample must be >= 2, got {subsample}")
        self.n_bins = n_bins
        self.strategy = strategy
        self.subsample = None if subsample is None else int(subsample)
        self.seed = int(seed)
        self.thresholds_: "np.ndarray | None" = None
        self.midpoints_: "np.ndarray | None" = None

    # ------------------------------------------------------------------ fitting
    def fit(self, X: np.ndarray) -> "FeatureBinner":
        """Learn per-feature thresholds and midpoint LUT from ``X``."""
        X = check_2d(X, "X")
        if not np.isfinite(X).all():
            raise ValueError("binning requires finite training values")
        if self.subsample is not None and len(X) > self.subsample:
            rng = np.random.default_rng(self.seed)
            X = X[rng.choice(len(X), size=self.subsample, replace=False)]
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        if self.strategy == "uniform":
            # (D, n_bins + 1) evenly spaced edges over the observed range
            grid = np.linspace(0.0, 1.0, self.n_bins + 1)
            edges = lo[:, None] + (hi - lo)[:, None] * grid[None, :]
        else:
            # interior edges at equally spaced quantiles; degenerate
            # (constant) features collapse every threshold onto the value,
            # which searchsorted handles — all rows land in one bin
            qs = np.linspace(0.0, 100.0, self.n_bins + 1)
            edges = np.percentile(X, qs, axis=0, method="midpoint").T
            edges[:, 0] = lo
            edges[:, -1] = hi
        self.thresholds_ = np.ascontiguousarray(edges[:, 1:-1], dtype=float)
        self.midpoints_ = (
            0.5 * (edges[:, :-1] + edges[:, 1:])
        ).astype(np.float32)
        return self

    # ---------------------------------------------------------------- transform
    def transform(self, X: np.ndarray) -> np.ndarray:
        """Bin values to uint8 codes, one ``searchsorted`` per feature.

        Out-of-range values clip into the first/last bin, matching the
        sklearn semantics for unseen data.
        """
        check_fitted(self, "thresholds_")
        X = check_2d(X, "X")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, the binner was fitted on "
                f"{self.n_features}"
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for j in range(X.shape[1]):
            codes[:, j] = np.searchsorted(
                self.thresholds_[j], X[:, j], side="left"
            )
        return codes

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Map uint8 codes back to their float32 bin midpoints."""
        check_fitted(self, "midpoints_")
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.n_features:
            raise ValueError(
                f"codes must be (N, {self.n_features}), got {codes.shape}"
            )
        return self.midpoints_[
            np.arange(self.n_features)[None, :], codes
        ]

    def quantize(self, X: np.ndarray) -> np.ndarray:
        """``dequantize(transform(X))`` — values snapped to bin midpoints."""
        return self.dequantize(self.transform(X))

    # ------------------------------------------------------------------- info
    @property
    def n_features(self) -> int:
        check_fitted(self, "thresholds_")
        return len(self.thresholds_)

    @property
    def params(self) -> "dict[str, object]":
        """Constructor parameters (cache-key / persistence material)."""
        return {
            "n_bins": self.n_bins,
            "strategy": self.strategy,
            "subsample": self.subsample,
            "seed": self.seed,
        }

    # ------------------------------------------------------------ persistence
    def state_arrays(self) -> "dict[str, np.ndarray]":
        """Fitted state as flat arrays for the artifact serializers."""
        check_fitted(self, "thresholds_")
        return {
            "binner_thresholds": self.thresholds_,
            "binner_midpoints": self.midpoints_,
            "binner_config": np.array(
                [
                    self.n_bins,
                    0 if self.strategy == "quantile" else 1,
                    -1 if self.subsample is None else self.subsample,
                    self.seed,
                ],
                dtype=np.int64,
            ),
        }

    @classmethod
    def from_state_arrays(
        cls, arrays: "dict[str, np.ndarray]"
    ) -> "FeatureBinner":
        """Rebuild a fitted binner from :meth:`state_arrays` output."""
        config = np.asarray(arrays["binner_config"], dtype=np.int64).ravel()
        n_bins, strategy_code, subsample, seed = (int(v) for v in config)
        binner = cls(
            n_bins=n_bins,
            strategy="quantile" if strategy_code == 0 else "uniform",
            subsample=None if subsample < 0 else subsample,
            seed=seed,
        )
        binner.thresholds_ = np.ascontiguousarray(
            arrays["binner_thresholds"], dtype=float
        )
        binner.midpoints_ = np.ascontiguousarray(
            arrays["binner_midpoints"], dtype=np.float32
        )
        if binner.thresholds_.shape != (
            len(binner.midpoints_),
            n_bins - 1,
        ) or binner.midpoints_.shape[1] != n_bins:
            raise ValueError(
                "binner state arrays are inconsistent with n_bins="
                f"{n_bins}: thresholds {binner.thresholds_.shape}, "
                f"midpoints {binner.midpoints_.shape}"
            )
        return binner


class BinnedPoints:
    """A uint8-coded point set exposing the chunk-source protocol.

    Adapts ``(codes, binner)`` to the duck-typed seam of
    :func:`repro.manifold.chunked.chunked_argkmin`: ``shape``/``dtype``
    describe the *dequantized* view, ``chunk(start, stop)`` streams
    float32 midpoint tiles.  Only the codes are held — ``nbytes`` is
    what the serving tier actually pays per resident radio map.
    """

    def __init__(self, binner: FeatureBinner, codes: np.ndarray):
        check_fitted(binner, "midpoints_")
        codes = np.asarray(codes)
        if codes.dtype != np.uint8:
            raise ValueError(f"codes must be uint8, got {codes.dtype}")
        if codes.ndim != 2 or codes.shape[1] != binner.n_features:
            raise ValueError(
                f"codes must be (N, {binner.n_features}), got {codes.shape}"
            )
        self.binner = binner
        self.codes = np.ascontiguousarray(codes)

    @property
    def shape(self) -> "tuple[int, int]":
        return self.codes.shape

    @property
    def dtype(self) -> np.dtype:
        return self.binner.midpoints_.dtype

    @property
    def nbytes(self) -> int:
        """Resident bytes of the stored map (codes only — the LUT is
        tiny next to the map and amortizes to nothing)."""
        return self.codes.nbytes

    @property
    def storage_itemsize(self) -> int:
        """Bytes per stored element (1 for uint8 codes); the chunked
        kernels size their tiles from this rather than the transient
        dequantized dtype, so binned scans get 4x-larger tiles out of
        the same L2 budget."""
        return self.codes.itemsize

    def __len__(self) -> int:
        return len(self.codes)

    def chunk(self, start: int, stop: int) -> np.ndarray:
        return self.binner.dequantize(self.codes[start:stop])

    def sq_norms(self, chunk_rows: int = 4096) -> np.ndarray:
        """``|p|^2`` of the dequantized points, one streaming pass."""
        n = len(self.codes)
        out = np.empty(n, dtype=self.dtype)
        for start in range(0, n, chunk_rows):
            tile = self.chunk(start, min(start + chunk_rows, n))
            out[start : start + len(tile)] = np.einsum(
                "ij,ij->i", tile, tile
            )
        return out
