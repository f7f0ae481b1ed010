"""NObLe for Wi-Fi localization (§IV-A).

Architecture per the paper: a two-hidden-layer feed-forward network
(hidden size 128, tanh activations, batch normalization, Xavier init)
taking the normalized RSSI vector and predicting multiple labels at
once — building B, floor F, fine neighborhood class C, and coarse class
R — trained with binary cross-entropy on the multi-hot target.  At
inference the predicted fine class is looked up in the quantizer to get
the position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ujiindoor import FingerprintDataset
from repro.nn import (
    Adam,
    BatchNorm1d,
    BCEWithLogitsLoss,
    DataLoader,
    Linear,
    MultiHeadLoss,
    Sequential,
    Tanh,
    TensorDataset,
    Trainer,
    TrainingHistory,
)
from repro.nn.dtypes import resolve_dtype
from repro.quantization.grid import GridQuantizer
from repro.quantization.labels import multi_hot, soft_multi_hot
from repro.quantization.multires import MultiResolutionQuantizer
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted

#: All supported output heads, in logit order.
ALL_HEADS = ("building", "floor", "fine", "coarse")


@dataclass
class WifiPrediction:
    """Outputs of :meth:`NObLeWifi.predict`."""

    coordinates: np.ndarray
    building: "np.ndarray | None"
    floor: "np.ndarray | None"
    fine_class: np.ndarray
    coarse_class: "np.ndarray | None"


class NObLeWifi:
    """The paper's Wi-Fi localization model.

    Parameters
    ----------
    tau:
        Fine grid side length (meters); the paper uses τ < 0.2 m.
    coarse:
        Coarse grid side length l > τ for the auxiliary head.
    hidden:
        Hidden layer width (128 in the paper).
    heads:
        Which output heads to train.  ``"fine"`` is mandatory; dropping
        heads reproduces the A2 ablation.
    adjacency_weight:
        Soft target weight for cells adjacent to the true cell
        (0 disables the §III-B multi-label augmentation).
    epochs, batch_size, lr, weight_decay:
        Optimization hyperparameters (Adam).
    val_fraction:
        Held-out fraction for early stopping; 0 disables.
    signal_transform:
        Optional representation applied after normalization — a callable
        or a name from :mod:`repro.localization.representations`
        (``"powed"``, ``"exponential"``, ``"binary"``).
    dtype:
        Training/inference precision of the network — ``"float32"`` for
        the fast path, ``"float64"``/``None`` for the historical
        default.  Signals, targets, weights, and gradients all follow
        it; there are no silent upcasts in between.
    fused:
        Use the allocation-free trainer/optimizer fast path (default).
        ``fused=False`` reproduces the seed's allocating loops exactly —
        kept as the reference baseline for ``train-bench``.
    """

    def __init__(
        self,
        tau: float = 0.2,
        coarse: float = 4.0,
        hidden: int = 128,
        heads: tuple = ALL_HEADS,
        adjacency_weight: float = 0.3,
        head_weights: "dict[str, float] | None" = None,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        val_fraction: float = 0.1,
        patience: int = 10,
        signal_transform=None,
        seed=0,
        dtype=None,
        fused: bool = True,
        quantize_bins: "int | None" = None,
    ):
        if "fine" not in heads:
            raise ValueError("the 'fine' head is mandatory (it provides positions)")
        unknown = set(heads) - set(ALL_HEADS)
        if unknown:
            raise ValueError(f"unknown heads: {sorted(unknown)}")
        if not 0 <= val_fraction < 1:
            raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
        self.tau = float(tau)
        self.coarse = float(coarse)
        self.hidden = int(hidden)
        self.heads = tuple(h for h in ALL_HEADS if h in heads)
        self.adjacency_weight = float(adjacency_weight)
        self.head_weights = dict(head_weights or {})
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.val_fraction = float(val_fraction)
        self.patience = int(patience)
        if isinstance(signal_transform, str):
            from repro.localization.representations import get_representation

            signal_transform = get_representation(signal_transform)
        self.signal_transform = signal_transform
        self.seed = seed
        self.dtype = dtype
        self._dtype = resolve_dtype(dtype)
        self.fused = bool(fused)
        self.quantize_bins = (
            None if quantize_bins is None else int(quantize_bins)
        )

        self.binner_ = None  # FeatureBinner after fit when quantize_bins set
        self.model_: "Sequential | None" = None
        self.quantizer_: "MultiResolutionQuantizer | GridQuantizer | None" = None
        self.head_slices_: "dict[str, slice] | None" = None
        self.n_buildings_: "int | None" = None
        self.n_floors_: "int | None" = None
        self.history_: "TrainingHistory | None" = None
        self.fine_class_building_: "np.ndarray | None" = None

    @property
    def n_features_in_(self) -> "int | None":
        """Signal width the network was built for (None before ``fit``)."""
        return None if self.model_ is None else self.model_[0].in_features

    # --------------------------------------------------------------- training
    def fit(self, dataset: FingerprintDataset) -> "NObLeWifi":
        rng = ensure_rng(self.seed)
        self.binner_ = None  # refits must not bin through a stale binner
        signals = self._signals_of(dataset)
        if self.quantize_bins is not None:
            from repro.quantization import FeatureBinner

            # train on the bin-midpoint view so fit and serve see the exact
            # same quantized signal space (hist-gradient-boosting style)
            self.binner_ = FeatureBinner(n_bins=self.quantize_bins).fit(
                signals
            )
            signals = self.binner_.quantize(signals).astype(float)
        self.n_buildings_ = dataset.n_buildings
        self.n_floors_ = dataset.n_floors

        if "coarse" in self.heads:
            quantizer = MultiResolutionQuantizer(self.tau, self.coarse)
            fine_ids, coarse_ids = quantizer.fit_transform(dataset.coordinates)
            fine_quantizer = quantizer.fine
        else:
            quantizer = GridQuantizer(self.tau)
            fine_ids = quantizer.fit_transform(dataset.coordinates)
            coarse_ids = None
            fine_quantizer = quantizer
        self.quantizer_ = quantizer

        blocks, slices, cursor = [], {}, 0
        for head in self.heads:
            if head == "building":
                target = multi_hot(dataset.building, self.n_buildings_)
            elif head == "floor":
                target = multi_hot(dataset.floor, self.n_floors_)
            elif head == "fine":
                if self.adjacency_weight > 0:
                    target = soft_multi_hot(
                        fine_quantizer, fine_ids, self.adjacency_weight
                    )
                else:
                    target = multi_hot(fine_ids, fine_quantizer.n_classes)
            else:  # coarse
                target = multi_hot(coarse_ids, quantizer.n_coarse)
            blocks.append(target)
            slices[head] = slice(cursor, cursor + target.shape[1])
            cursor += target.shape[1]
        targets = np.hstack(blocks).astype(self._dtype, copy=False)
        signals = signals.astype(self._dtype, copy=False)
        self.head_slices_ = slices

        # majority building per fine class, for hierarchical inference
        if "building" in self.heads:
            self.fine_class_building_ = np.zeros(
                fine_quantizer.n_classes, dtype=int
            )
            for class_id in range(fine_quantizer.n_classes):
                members = dataset.building[fine_ids == class_id]
                if len(members):
                    values, counts = np.unique(members, return_counts=True)
                    self.fine_class_building_[class_id] = values[np.argmax(counts)]
        else:
            self.fine_class_building_ = None

        self.model_ = self._build_model(signals.shape[1], cursor, rng)
        loss = MultiHeadLoss(
            {
                head: (
                    slices[head],
                    BCEWithLogitsLoss(compat=not self.fused),
                    self.head_weights.get(head, 1.0),
                )
                for head in self.heads
            }
        )
        optimizer = Adam(
            self.model_.parameters(),
            lr=self.lr,
            weight_decay=self.weight_decay,
            fused=self.fused,
        )
        trainer = Trainer(self.model_, loss, optimizer, fused=self.fused)

        if self.val_fraction > 0 and len(signals) >= 20:
            n_val = max(1, int(len(signals) * self.val_fraction))
            order = rng.permutation(len(signals))
            val_idx, train_idx = order[:n_val], order[n_val:]
            train_loader = DataLoader(
                TensorDataset(signals[train_idx], targets[train_idx]),
                batch_size=self.batch_size,
                drop_last=True,
                rng=rng,
                fast_collate=self.fused,
            )
            val_loader = DataLoader(
                TensorDataset(signals[val_idx], targets[val_idx]),
                batch_size=self.batch_size,
                shuffle=False,
                fast_collate=self.fused,
            )
            self.history_ = trainer.fit(
                train_loader,
                epochs=self.epochs,
                val_loader=val_loader,
                patience=self.patience,
            )
        else:
            train_loader = DataLoader(
                TensorDataset(signals, targets),
                batch_size=self.batch_size,
                drop_last=True,
                rng=rng,
                fast_collate=self.fused,
            )
            self.history_ = trainer.fit(train_loader, epochs=self.epochs)
        return self

    def _build_model(self, n_inputs: int, n_outputs: int, rng) -> Sequential:
        dtype = self._dtype
        return Sequential(
            # the first layer's input gradient is never consumed
            Linear(n_inputs, self.hidden, rng=rng, dtype=dtype, input_grad=False),
            BatchNorm1d(self.hidden, dtype=dtype),
            Tanh(),
            Linear(self.hidden, self.hidden, rng=rng, dtype=dtype),
            BatchNorm1d(self.hidden, dtype=dtype),
            Tanh(),
            Linear(self.hidden, n_outputs, rng=rng, dtype=dtype),
        )

    # -------------------------------------------------------------- inference
    def predict(
        self,
        dataset: "FingerprintDataset | np.ndarray",
        hierarchical: bool = False,
    ) -> WifiPrediction:
        """Predict classes and coordinates for a dataset or raw signal matrix.

        With ``hierarchical=True`` (requires the building head) the fine
        cell is chosen only among cells whose training majority building
        matches the predicted building — the building head is nearly
        perfect (99.74 % in the paper), so it safely prunes cross-campus
        misclassifications from the fine head's tail.
        """
        check_fitted(self, "model_")
        signals = self._signals_of(dataset)
        self.model_.eval()
        logits = self.model_(signals)
        slices = self.head_slices_

        def head_argmax(head: str):
            if head not in slices:
                return None
            return logits[:, slices[head]].argmax(axis=1)

        if hierarchical:
            if self.fine_class_building_ is None:
                raise ValueError(
                    "hierarchical inference requires the 'building' head"
                )
            building = head_argmax("building")
            fine_logits = logits[:, slices["fine"]].copy()
            mismatch = (
                self.fine_class_building_[None, :] != building[:, None]
            )
            fine_logits[mismatch] = -np.inf
            fine = fine_logits.argmax(axis=1)
        else:
            fine = head_argmax("fine")
        fine_quantizer = (
            self.quantizer_.fine
            if isinstance(self.quantizer_, MultiResolutionQuantizer)
            else self.quantizer_
        )
        return WifiPrediction(
            coordinates=fine_quantizer.inverse_transform(fine),
            building=head_argmax("building"),
            floor=head_argmax("floor"),
            fine_class=fine,
            coarse_class=head_argmax("coarse"),
        )

    def predict_coordinates(self, dataset) -> np.ndarray:
        """(N, 2) predicted positions — the common localizer interface."""
        return self.predict(dataset).coordinates

    def embed(self, dataset) -> np.ndarray:
        """Penultimate-layer embeddings (the paper's manifold-learning view
        of the classifier: §III-C interprets these as the reconstructed
        embedding z)."""
        check_fitted(self, "model_")
        signals = self._signals_of(dataset)
        self.model_.eval()
        x = signals
        for layer in list(self.model_)[:-1]:
            x = layer(x)
        return x

    def true_labels(self, dataset: FingerprintDataset) -> dict:
        """Ground-truth integer labels per head for ``dataset``."""
        check_fitted(self, "quantizer_")
        labels: dict[str, np.ndarray] = {}
        if "building" in self.heads:
            labels["building"] = dataset.building
        if "floor" in self.heads:
            labels["floor"] = dataset.floor
        if isinstance(self.quantizer_, MultiResolutionQuantizer):
            fine, coarse = self.quantizer_.transform(dataset.coordinates, strict=False)
            labels["fine"] = fine
            if "coarse" in self.heads:
                labels["coarse"] = coarse
        else:
            labels["fine"] = self.quantizer_.transform(
                dataset.coordinates, strict=False
            )
        return labels

    def _signals_of(self, dataset) -> np.ndarray:
        if isinstance(dataset, FingerprintDataset):
            signals = dataset.normalized_signals()
        else:
            signals = np.asarray(dataset, dtype=float)
        if self.signal_transform is not None:
            signals = self.signal_transform(signals)
        if self.binner_ is not None:
            # snap inference inputs onto the quantized signal space the
            # model was trained in (midpoints are exact in float64)
            signals = self.binner_.quantize(signals).astype(float)
        return signals
