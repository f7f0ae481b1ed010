"""NCA-style linear metric learning for fingerprint embeddings.

§III-C of the paper argues that a good localization representation
pulls same-location fingerprints together while keeping the embedding
faithful to physical distance.  Neighbourhood Components Analysis
(Goldberger et al., 2005) optimizes exactly that objective for kNN:
maximize the expected number of points whose *stochastic* nearest
neighbor (softmax over negative squared embedded distances) shares
their class.  The learned transform is linear — ``z = (x - mean) @
A.T`` — so the serving hot path is one matmul and the sharding /
quantization machinery applies unchanged in the lower dimension.

The objective and its exact gradient live in module-level functions so
the test-suite can finite-difference-check the math directly.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_2d


def nca_objective(
    transform: np.ndarray, data: np.ndarray, labels: np.ndarray
) -> "tuple[float, np.ndarray]":
    """NCA objective and its gradient with respect to ``transform``.

    Parameters
    ----------
    transform:
        (d, D) linear map A; rows are embedding directions.
    data:
        (N, D) inputs (assumed centered by the caller).
    labels:
        (N,) integer class per row.

    Returns
    -------
    ``(objective, grad)`` where ``objective = sum_i p_i`` (the expected
    number of correctly-assigned points under the stochastic-neighbor
    rule) and ``grad`` is ``d objective / d transform`` — ascend it.

    Notes
    -----
    With ``p_ij = softmax_j(-||z_i - z_j||^2)`` (diagonal excluded) and
    ``p_i = sum_{j in class(i)} p_ij``, the gradient is

        dF/dA = 2 A · X^T (diag(r) + diag(c) - W - W^T) X

    where ``W_ij = p_i p_ij - p_ij [j in class(i)]`` and ``r``/``c``
    are its row/column sums — the graph-Laplacian form of the pairwise
    outer-product sum, which keeps the whole computation at matmul
    cost instead of materializing N² rank-one updates.
    """
    transform = np.asarray(transform, dtype=float)
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    if len(data) < 2:
        return 0.0, np.zeros_like(transform)
    embedded = data @ transform.T  # (N, d)
    sq = np.einsum("ij,ij->i", embedded, embedded)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (embedded @ embedded.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    logits = -d2
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    np.fill_diagonal(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    p_i = (p * same).sum(axis=1)
    objective = float(p_i.sum())
    weights = p * p_i[:, None] - p * same
    row = weights.sum(axis=1)
    col = weights.sum(axis=0)
    # X^T (diag(r) + diag(c) - W - W^T) X without forming the N x N
    # middle matrix explicitly more than once
    middle = -(weights + weights.T)
    middle[np.diag_indices_from(middle)] += row + col
    grad = 2.0 * transform @ (data.T @ (middle @ data))
    return objective, grad


class NCAEmbedder:
    """Linear NCA embedder: mini-batch gradient ascent on the NCA objective.

    Parameters
    ----------
    n_components:
        Embedding dimensionality ``d`` (capped at the input width).
    epochs, batch_size, lr:
        Mini-batch ascent schedule; the update rule is Adam (on the
        transform matrix directly — no nn graph needed for a linear
        map).
    seed:
        Seeds both the PCA-free parts of initialization and the batch
        shuffles, so fits are deterministic.
    """

    def __init__(
        self,
        n_components: int = 16,
        epochs: int = 30,
        batch_size: int = 256,
        lr: float = 0.02,
        seed=0,
    ):
        if n_components <= 0:
            raise ValueError(
                f"n_components must be positive, got {n_components}"
            )
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {batch_size}")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.n_components = int(n_components)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.seed = seed
        self.mean_: "np.ndarray | None" = None
        self.components_: "np.ndarray | None" = None
        self.objective_history_: "list[float]" = []

    @property
    def n_features_in_(self) -> "int | None":
        """Input width of the fitted projection (None before ``fit``)."""
        return None if self.mean_ is None else len(self.mean_)

    @property
    def params(self) -> dict:
        """Constructor kwargs that rebuild this configuration exactly."""
        return {
            "n_components": self.n_components,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "seed": self.seed,
        }

    def fit(self, data: np.ndarray, labels: np.ndarray) -> "NCAEmbedder":
        """Learn the transform from (N, D) inputs and (N,) class labels."""
        data = check_2d(data, "data")
        labels = np.asarray(labels).ravel()
        if len(labels) != len(data):
            raise ValueError(
                f"labels length {len(labels)} != data rows {len(data)}"
            )
        rng = ensure_rng(self.seed)
        n, width = data.shape
        d = min(self.n_components, width)
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        transform = _pca_init(centered, d)
        # inline Adam state on the transform matrix
        m = np.zeros_like(transform)
        v = np.zeros_like(transform)
        beta1, beta2, eps, t = 0.9, 0.999, 1e-8, 0
        self.objective_history_ = []
        for _epoch in range(self.epochs):
            order = rng.permutation(n)
            total, counted = 0.0, 0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                if len(batch) < 2:
                    continue
                objective, grad = nca_objective(
                    transform, centered[batch], labels[batch]
                )
                total += objective
                counted += len(batch)
                grad /= len(batch)
                t += 1
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad * grad
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                # ascent: the objective is maximized
                transform += self.lr * m_hat / (np.sqrt(v_hat) + eps)
            self.objective_history_.append(total / max(counted, 1))
        self.components_ = transform
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Embed (M, D) rows into the learned (M, d) space."""
        if self.components_ is None:
            raise ValueError("NCAEmbedder is not fitted; call fit() first")
        data = check_2d(data, "data")
        return (np.asarray(data, dtype=float) - self.mean_) @ self.components_.T

    def fit_transform(self, data: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.fit(data, labels).transform(data)


def _pca_init(centered: np.ndarray, n_components: int) -> np.ndarray:
    """Top principal directions of the (already centered) data.

    The standard NCA initialization: start from the variance-preserving
    linear map so early ascent steps refine structure instead of
    recovering it.  Deterministic (eigh of the covariance), and sign is
    fixed per row so fits don't flip between runs.
    """
    cov = (centered.T @ centered) / max(len(centered) - 1, 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    components = eigenvectors[:, order].T
    signs = np.sign(components[np.arange(len(components)),
                               np.abs(components).argmax(axis=1)])
    signs[signs == 0] = 1.0
    return components * signs[:, None]
