"""Nearest-neighbor search: brute force and KD-tree backed.

The KD-tree comes from scipy (cKDTree); the brute-force path exists both
as a correctness oracle for tests and for the high-dimensional RSSI
vectors where KD-trees degrade to linear scans anyway.  The brute scan
runs through the cache-blocked :func:`repro.manifold.chunked.chunked_argkmin`
kernel.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.manifold.chunked import chunked_argkmin, chunked_radius_neighbors
from repro.utils.validation import check_2d


class KNNIndex:
    """K-nearest-neighbor index over a fixed point set.

    Parameters
    ----------
    points:
        (N, D) array indexed once at construction.
    method:
        ``"auto"`` picks a KD-tree for D <= 20 and brute force otherwise;
        ``"kdtree"`` / ``"brute"`` force a backend.  The brute backend
        breaks distance ties by lowest index (the package-wide rule, see
        :mod:`repro.manifold.chunked`); the KD-tree backend matches it on
        distances only, since scipy owns the order of its ties.
    """

    def __init__(self, points: np.ndarray, method: str = "auto"):
        if method not in ("auto", "kdtree", "brute"):
            raise ValueError(f"unknown method {method!r}")
        self.points = check_2d(points, "points")
        if method == "auto":
            method = "kdtree" if self.points.shape[1] <= 20 else "brute"
        self.method = method
        self._n, self._dim = self.points.shape
        self._tree = cKDTree(self.points) if method == "kdtree" else None
        # |p|^2 term of the brute-force expansion; computed once so repeated
        # queries against the same index never rescan the point set for it
        self._sq_points = (
            np.sum(self.points**2, axis=1) if method == "brute" else None
        )

    @property
    def n_features(self) -> int:
        """Feature dimension of the indexed points."""
        return self._dim

    def __len__(self) -> int:
        return self._n

    def query(
        self,
        queries: np.ndarray,
        k: int,
        exclude_self: bool = False,
        on_excess: str = "raise",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (distances, indices), each (M, k), sorted by distance.

        ``exclude_self`` drops each query's own entry by index identity.
        It requires ``queries`` to be exactly the indexed point set, in
        order (row ``i`` is point ``i``) — the :func:`kneighbors`
        pattern.  A zero-distance *duplicate* of the query is a
        legitimate neighbor and is kept.  For a subset of the points,
        query without ``exclude_self`` and drop the unwanted entry by
        its known index instead.

        ``on_excess`` sets the policy when ``k`` (plus the self match,
        when excluded) exceeds the index size: ``"raise"`` rejects the
        query with ``ValueError``; ``"clamp"`` returns every indexed
        point — i.e. fewer than ``k`` columns — sorted by distance.  The
        policy is identical on the brute and KD-tree backends (scipy
        would otherwise pad the KD-tree result with ``inf`` placeholder
        rows silently).
        """
        queries, effective_k = _resolve_query_k(
            queries,
            index_dim=self._dim,
            index_size=self._n,
            k=k,
            exclude_self=exclude_self,
            on_excess=on_excess,
        )
        if self._tree is not None:
            distances, indices = self._tree.query(queries, k=effective_k)
            if effective_k == 1:
                distances = distances[:, None]
                indices = indices[:, None]
        else:
            distances, indices = self._brute_query(queries, effective_k)
        if exclude_self:
            distances, indices = _drop_self_matches(distances, indices, effective_k - 1)
        return distances, indices

    def _brute_query(self, queries: np.ndarray, k: int):
        # cache-blocked ||q - p||^2 GEMM with fused per-tile top-k
        return chunked_argkmin(
            queries, self.points, k, sq_norms=self._sq_points
        )


def kneighbors(
    points: np.ndarray, k: int, method: str = "auto"
) -> tuple[np.ndarray, np.ndarray]:
    """Self-kNN of a point set, excluding each point itself.

    Distance ties go to the lowest index (``method="kdtree"`` orders
    ties as scipy does).
    """
    index = KNNIndex(points, method=method)
    return index.query(index.points, k=k, exclude_self=True)


def epsilon_neighbors(
    points: np.ndarray, radius: float, method: str = "auto"
) -> list[np.ndarray]:
    """Indices of all neighbors within ``radius`` of each point (self excluded).

    Neighbor indices are returned in ascending order per point.
    ``method`` mirrors :class:`KNNIndex`: ``"auto"`` picks a KD-tree for
    D <= 20 and the cache-blocked brute kernel
    (:func:`repro.manifold.chunked.chunked_radius_neighbors`) for the
    high-dimensional RSSI regime where the tree degrades to a linear
    scan anyway.
    """
    points = check_2d(points, "points")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if method not in ("auto", "kdtree", "brute"):
        raise ValueError(f"unknown method {method!r}")
    n = len(points)
    if n == 0:
        return []
    if method == "auto":
        method = "kdtree" if points.shape[1] <= 20 else "brute"
    if method == "brute":
        return chunked_radius_neighbors(
            points,
            points,
            radius,
            sq_norms=np.sum(points**2, axis=1),
            exclude_self=True,
        )
    tree = cKDTree(points)
    # query_pairs gives each in-radius (i, j) pair once with i < j and never
    # pairs a point with itself; mirroring it yields both directions at once.
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    both = np.concatenate([pairs, pairs[:, ::-1]]).astype(int)
    order = np.lexsort((both[:, 1], both[:, 0]))
    sources, targets = both[order, 0], both[order, 1]
    counts = np.bincount(sources, minlength=n)
    return np.split(targets, np.cumsum(counts)[:-1])


def _resolve_query_k(
    queries: np.ndarray,
    index_dim: int,
    index_size: int,
    k: int,
    exclude_self: bool,
    on_excess: str,
) -> tuple[np.ndarray, int]:
    """Query validation + clamp-or-raise policy of :meth:`KNNIndex.query`.

    Returns ``(validated queries, effective k)`` where the effective k
    includes the self column and is clamped to the index size under
    ``on_excess="clamp"``.
    """
    queries = check_2d(queries, "queries")
    if queries.shape[1] != index_dim:
        raise ValueError(
            f"query dim {queries.shape[1]} != index dim {index_dim}"
        )
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if on_excess not in ("raise", "clamp"):
        raise ValueError(
            f"on_excess must be 'raise' or 'clamp', got {on_excess!r}"
        )
    effective_k = k + 1 if exclude_self else k
    if effective_k > index_size:
        if on_excess == "raise":
            raise ValueError(
                f"k={k} (self-excluded: {exclude_self}) exceeds index size "
                f"{index_size}"
            )
        effective_k = index_size
    return queries, effective_k


def _drop_self_matches(distances: np.ndarray, indices: np.ndarray, k: int):
    """Remove each row's own point, keep k columns.

    Queries are the indexed points themselves (row ``i`` is point ``i``),
    so the entry whose index equals its row is dropped *by identity* —
    a zero-distance duplicate of the query is a legitimate neighbor and
    must survive.  If the self entry was crowded out of the candidate
    set entirely (every kept candidate is a zero-distance duplicate with
    a lower index), the last column is dropped instead: the first ``k``
    are then exactly the self-excluded answer under the lowest-index
    tie rule.
    """
    m = distances.shape[0]
    is_self = indices == np.arange(m)[:, None]
    drop = np.where(
        is_self.any(axis=1), is_self.argmax(axis=1), distances.shape[1] - 1
    )
    keep = np.ones(distances.shape, dtype=bool)
    keep[np.arange(m), drop] = False
    return (
        np.ascontiguousarray(distances[keep].reshape(m, -1)[:, :k]),
        np.ascontiguousarray(indices[keep].reshape(m, -1)[:, :k]).astype(
            int, copy=False
        ),
    )
