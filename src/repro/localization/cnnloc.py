"""CNNLoc-style baseline (Song et al., IEEE Access 2019; §II of the paper).

CNNLoc stacks a (stacked-)autoencoder front-end and a 1-D CNN over the
encoded fingerprint, predicting building/floor categorically and the
position by regression; the paper quotes its UJIIndoorLoc result
(11.78 m mean, ~99 % building, ~94 % floor) as the DNN state of the art
NObLe improves on.  This implementation keeps that shape: SAE
pretraining → Conv1d/MaxPool feature extractor → multi-head output
(building + floor BCE heads, coordinate MSE head).
"""

from __future__ import annotations

import numpy as np

from repro.data.ujiindoor import FingerprintDataset
from repro.nn import (
    Adam,
    BCEWithLogitsLoss,
    DataLoader,
    Linear,
    MSELoss,
    MultiHeadLoss,
    ReLU,
    Sequential,
    Tanh,
    TensorDataset,
    Trainer,
    TrainingHistory,
)
from repro.nn.autoencoder import pretrain_stacked_autoencoder
from repro.nn.conv import Conv1d, Flatten, MaxPool1d, Unflatten
from repro.nn.dtypes import resolve_dtype
from repro.quantization.labels import multi_hot
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fitted


class CNNLocWifi:
    """SAE + 1-D CNN localization baseline.

    Parameters
    ----------
    encoder_sizes:
        Stacked-autoencoder widths (the front-end is pretrained greedily
        then fine-tuned end to end).
    conv_channels, kernel_size, pool:
        The 1-D CNN over the encoded fingerprint.
    quantize_bins:
        Train and serve on the uint8-quantized radio map (the
        :class:`repro.quantization.FeatureBinner` reconstruction) —
        same semantics as the NObLe/kNN backends.
    """

    def __init__(
        self,
        encoder_sizes: tuple = (128, 64),
        conv_channels: tuple = (8, 16),
        kernel_size: int = 3,
        pool: int = 2,
        pretrain_epochs: int = 20,
        epochs: int = 60,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed=0,
        dtype=None,
        fused: bool = True,
        quantize_bins: "int | None" = None,
    ):
        if not encoder_sizes:
            raise ValueError("encoder_sizes must not be empty")
        if not conv_channels:
            raise ValueError("conv_channels must not be empty")
        self.encoder_sizes = tuple(int(s) for s in encoder_sizes)
        self.conv_channels = tuple(int(c) for c in conv_channels)
        self.kernel_size = int(kernel_size)
        self.pool = int(pool)
        self.pretrain_epochs = int(pretrain_epochs)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.seed = seed
        self.dtype = dtype
        self._dtype = resolve_dtype(dtype)
        self.fused = bool(fused)
        self.quantize_bins = (
            None if quantize_bins is None else int(quantize_bins)
        )
        self.binner_ = None  # FeatureBinner after fit when quantizing
        self.model_: "Sequential | None" = None
        self.head_slices_: "dict | None" = None
        self.coord_mean_: "np.ndarray | None" = None
        self.coord_std_: "np.ndarray | None" = None
        self.history_: "TrainingHistory | None" = None

    @property
    def n_features_in_(self) -> "int | None":
        """Signal width the network was built for (None before ``fit``)."""
        return None if self.model_ is None else self.model_[0].in_features

    def fit(self, dataset: FingerprintDataset) -> "CNNLocWifi":
        rng = ensure_rng(self.seed)
        signals = dataset.normalized_signals()
        if self.quantize_bins is not None:
            from repro.quantization import FeatureBinner

            # train on the quantizer's reconstruction so training and
            # serving see the identical feature space
            self.binner_ = FeatureBinner(n_bins=self.quantize_bins).fit(
                signals
            )
            signals = self.binner_.quantize(signals)
        signals = signals.astype(self._dtype, copy=False)
        n_buildings = dataset.n_buildings
        n_floors = dataset.n_floors

        encoders = pretrain_stacked_autoencoder(
            signals,
            list(self.encoder_sizes),
            epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            rng=rng,
            dtype=self._dtype,
            fused=self.fused,
        )

        self.model_, self.head_slices_ = self._build_network(
            signals.shape[1], n_buildings, n_floors, rng, encoders=encoders
        )

        self.coord_mean_ = dataset.coordinates.mean(axis=0)
        self.coord_std_ = dataset.coordinates.std(axis=0)
        self.coord_std_[self.coord_std_ == 0] = 1.0
        targets = np.hstack(
            [
                multi_hot(dataset.building, n_buildings),
                multi_hot(dataset.floor, n_floors),
                (dataset.coordinates - self.coord_mean_) / self.coord_std_,
            ]
        ).astype(self._dtype, copy=False)
        compat = not self.fused
        loss = MultiHeadLoss(
            {
                "building": (
                    self.head_slices_["building"],
                    BCEWithLogitsLoss(compat=compat),
                    1.0,
                ),
                "floor": (
                    self.head_slices_["floor"],
                    BCEWithLogitsLoss(compat=compat),
                    1.0,
                ),
                "position": (self.head_slices_["position"], MSELoss(compat=compat), 1.0),
            }
        )
        trainer = Trainer(
            self.model_,
            loss,
            Adam(self.model_.parameters(), lr=self.lr, fused=self.fused),
            fused=self.fused,
        )
        loader = DataLoader(
            TensorDataset(signals, targets),
            batch_size=self.batch_size,
            drop_last=True,
            rng=rng,
            fast_collate=self.fused,
        )
        self.history_ = trainer.fit(loader, epochs=self.epochs)
        return self

    def _build_network(
        self,
        n_inputs: int,
        n_buildings: int,
        n_floors: int,
        rng,
        encoders: "list[Linear] | None" = None,
    ) -> "tuple[Sequential, dict]":
        """Assemble the SAE + CNN + multi-head network and its head layout.

        ``encoders`` are the pretrained SAE layers from :meth:`fit`; when
        None (the persistence restore path), architecturally identical
        fresh :class:`Linear` layers are built instead — pretraining only
        shapes the weights, which the caller then overwrites via
        ``load_state_dict``.
        """
        if encoders is None:
            sizes = (int(n_inputs), *self.encoder_sizes)
            encoders = [
                Linear(n_in, n_out, rng=rng, dtype=self._dtype)
                for n_in, n_out in zip(sizes, sizes[1:])
            ]
        layers: list = []
        for encoder in encoders:
            layers.extend([encoder, Tanh()])
        layers.append(Unflatten(1))
        length = self.encoder_sizes[-1]
        in_channels = 1
        for out_channels in self.conv_channels:
            conv = Conv1d(
                in_channels, out_channels, self.kernel_size, rng=rng,
                dtype=self._dtype,
            )
            layers.extend([conv, ReLU(), MaxPool1d(self.pool)])
            length = (length - self.kernel_size + 1) // self.pool
            if length < 1:
                raise ValueError(
                    "CNN stack shrinks the encoded fingerprint to nothing; "
                    "reduce conv_channels/kernel_size/pool"
                )
            in_channels = out_channels
        layers.append(Flatten())
        flat_width = in_channels * length

        head_width = n_buildings + n_floors + 2
        layers.append(Linear(flat_width, head_width, rng=rng, dtype=self._dtype))
        head_slices = {
            "building": slice(0, n_buildings),
            "floor": slice(n_buildings, n_buildings + n_floors),
            "position": slice(n_buildings + n_floors, head_width),
        }
        return Sequential(*layers), head_slices

    def predict_coordinates(self, dataset) -> np.ndarray:
        out = self._forward(dataset)
        standardized = out[:, self.head_slices_["position"]]
        return standardized * self.coord_std_ + self.coord_mean_

    def predict_labels(self, dataset) -> tuple[np.ndarray, np.ndarray]:
        """(building, floor) argmax predictions."""
        out = self._forward(dataset)
        return (
            out[:, self.head_slices_["building"]].argmax(axis=1),
            out[:, self.head_slices_["floor"]].argmax(axis=1),
        )

    def predict_full(
        self, dataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coordinates, building, floor) from a single forward pass."""
        out = self._forward(dataset)
        standardized = out[:, self.head_slices_["position"]]
        return (
            standardized * self.coord_std_ + self.coord_mean_,
            out[:, self.head_slices_["building"]].argmax(axis=1),
            out[:, self.head_slices_["floor"]].argmax(axis=1),
        )

    def _forward(self, dataset) -> np.ndarray:
        check_fitted(self, "model_")
        signals = self._signals(dataset)
        self.model_.eval()
        return self.model_(signals)

    def _signals(self, dataset) -> np.ndarray:
        if isinstance(dataset, FingerprintDataset):
            signals = dataset.normalized_signals()
        else:
            signals = np.asarray(dataset, dtype=float)
        if self.binner_ is not None:
            signals = self.binner_.quantize(signals)
        return signals
