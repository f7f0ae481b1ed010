"""Random forest regression: bagged CART trees with feature subsampling."""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_2d, check_fitted, check_lengths_match


class RandomForestRegressor:
    """Breiman-style random forest for (multi-output) regression.

    Each tree trains on a bootstrap resample with ``max_features``
    candidate features per split (√D by default); predictions are the
    ensemble mean.  Out-of-bag error is tracked when ``oob`` is set.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: "int | None" = None,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = "sqrt",
        bootstrap: bool = True,
        oob: bool = False,
        rng=None,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if oob and not bootstrap:
            raise ValueError("oob error requires bootstrap sampling")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob = oob
        self._rng = ensure_rng(rng)
        self.trees_: "list[DecisionTreeRegressor] | None" = None
        self.oob_error_: "float | None" = None

    @property
    def n_features_in_(self) -> "int | None":
        """Feature width the trees were grown on (None before ``fit``)."""
        return self.trees_[0].n_features_ if self.trees_ else None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        x = check_2d(x, "x")
        y = np.asarray(y, dtype=float)
        squeeze = y.ndim == 1
        if squeeze:
            y = y[:, None]
        check_lengths_match(x, y, "x", "y")
        n, d = x.shape
        max_features = self._resolve_max_features(d)
        tree_rngs = spawn_rngs(self._rng, self.n_estimators)

        self.trees_ = []
        oob_sum = np.zeros_like(y)
        oob_count = np.zeros(n)
        for rng in tree_rngs:
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=rng,
            )
            tree.fit(x[sample], y[sample])
            self.trees_.append(tree)
            if self.oob:
                out_of_bag = np.setdiff1d(np.arange(n), sample)
                if len(out_of_bag):
                    prediction = tree.predict(x[out_of_bag])
                    if prediction.ndim == 1:
                        prediction = prediction[:, None]
                    oob_sum[out_of_bag] += prediction
                    oob_count[out_of_bag] += 1
        if self.oob:
            seen = oob_count > 0
            if seen.any():
                oob_prediction = oob_sum[seen] / oob_count[seen, None]
                self.oob_error_ = float(
                    np.mean(np.sum((oob_prediction - y[seen]) ** 2, axis=1))
                )
        self._squeeze = squeeze
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "trees_")
        x = check_2d(x, "x")
        total = None
        for tree in self.trees_:
            prediction = tree.predict(x)
            if prediction.ndim == 1:
                prediction = prediction[:, None]
            total = prediction if total is None else total + prediction
        mean = total / len(self.trees_)
        return mean.ravel() if self._squeeze else mean

    def _resolve_max_features(self, d: int) -> "int | None":
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "log2":
            return max(1, int(np.log2(d)))
        if isinstance(self.max_features, (int, np.integer)):
            return int(min(self.max_features, d))
        raise ValueError(
            f"max_features must be None, 'sqrt', 'log2', or an int, "
            f"got {self.max_features!r}"
        )
