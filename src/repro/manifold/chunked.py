"""Cache-blocked brute-force neighbor kernels.

The monolithic brute scan materializes the full ``(M, N)`` distance
matrix, which thrashes DRAM on campus-scale maps.  The kernels here
restructure it after sklearn's ``_pairwise_distances_reduction.pyx``:
the ``||q - p||^2 = |q|^2 - 2 q.p^T + |p|^2`` expansion is evaluated in
query-block x point-chunk tiles, and each tile is immediately reduced,
so no ``(M, N)`` buffer ever exists.

* **Tiles are shaped to the query block.**  The point tile is as tall
  as the L2 cache allows for the actual number of query rows
  (:func:`_tile_rows`), so a 10-row serving batch runs ~36 GEMMs over a
  160k-row map, not the ~340 of a square tile.
* **The top-k reduction is a bound-pruned merge.**  :func:`chunked_argkmin`
  keeps a running k-th-best distance per query row (sklearn's ArgKmin
  heap threshold; GPU k-selection in Johnson, Douze & Jegou,
  "Billion-scale similarity search with GPUs", 2019).  A tile costs one
  compare pass per row; only rows with a point strictly below their
  bound are partitioned and merged, and after the first tiles almost
  none are.
* **Lowest index wins.**  Every merge orders candidates by
  ``(distance, index)`` (:func:`tie_ordered_top_k`): the strict bound
  drops later points at an equal distance, and a tile whose k-th value
  is tied falls back to a full ordering of that row.  The answer is the
  one a stable argsort of the full distance matrix gives, whatever the
  tile layout or shard split.

:func:`chunked_radius_neighbors` uses the same tiles; its per-tile
reduction is an in-radius mask.

``points`` may be a plain ``(N, D)`` array or any *chunk source*: an
object exposing ``shape``, ``dtype``, and ``chunk(start, stop)``
returning a float array of rows ``[start, stop)``.  That duck-typed seam
is how quantized uint8 radio maps (:class:`repro.quantization.BinnedPoints`)
stream dequantized tiles through the same kernel without ever holding a
float copy of the whole map.
"""

from __future__ import annotations

import os

import numpy as np

from repro.utils.validation import check_2d

#: Fallback L2 size when the OS exposes nothing (1 MiB is the low end of
#: contemporary per-core L2; undershooting only shrinks tiles).
_DEFAULT_L2_BYTES = 1 << 20

_l2_cache: "int | None" = None


def l2_cache_bytes() -> int:
    """Best-effort per-core L2 cache size in bytes (memoized).

    Tries ``sysconf`` then the Linux sysfs cache hierarchy; falls back to
    1 MiB.  Only a tile-sizing heuristic — correctness never depends on it.
    """
    global _l2_cache
    if _l2_cache is None:
        _l2_cache = _detect_l2_cache_bytes()
    return _l2_cache


def _detect_l2_cache_bytes() -> int:
    try:
        size = os.sysconf("SC_LEVEL2_CACHE_SIZE")
        if size and size > 0:
            return int(size)
    except (AttributeError, OSError, ValueError):
        pass
    try:
        with open(
            "/sys/devices/system/cpu/cpu0/cache/index2/size"
        ) as handle:
            text = handle.read().strip().upper()
        if text.endswith("K"):
            return int(text[:-1]) * 1024
        if text.endswith("M"):
            return int(text[:-1]) * 1024 * 1024
        return int(text)
    except (OSError, ValueError):
        return _DEFAULT_L2_BYTES


def resolve_chunk_rows(
    n_features: int, itemsize: int, l2_bytes: "int | None" = None
) -> int:
    """Tile edge so two operand panels plus the product block fit in L2.

    Solves ``c^2 * s + 2 c * D * s <= L2`` for the (square) tile edge
    ``c`` — the ``(c, c)`` distance block dominates, the ``(c, D)``
    query/point panels ride along.  Clamped to ``[32, 8192]``.
    """
    l2 = l2_cache_bytes() if l2_bytes is None else int(l2_bytes)
    s = max(int(itemsize), 1)
    d = max(int(n_features), 1)
    c = int(np.sqrt(d * d + l2 / s) - d)
    return int(np.clip(c, 32, 8192))


def _as_source(points):
    """Normalize ``points`` to ``(chunk_fn, n, dim, dtype)``."""
    if hasattr(points, "chunk"):
        n, dim = points.shape
        return points.chunk, int(n), int(dim), np.dtype(points.dtype)
    points = check_2d(points, "points", dtype=None)
    return (
        lambda start, stop: points[start:stop],
        points.shape[0],
        points.shape[1],
        points.dtype,
    )


def _chunk_itemsize(points, compute_dtype: np.dtype) -> int:
    """Bytes per element of the *resident* stream the scan reads.

    A quantized chunk source streams its stored codes (uint8) from
    memory — the dequantized float tile is transient — so sources may
    advertise ``storage_itemsize`` and get proportionally larger tiles
    out of the same L2 budget, amortizing the per-tile top-k merge.
    """
    return max(int(getattr(points, "storage_itemsize", compute_dtype.itemsize)), 1)


def _source_sq_norms(chunk_fn, n: int, chunk_rows: int) -> np.ndarray:
    """One streaming pass computing ``|p|^2`` per point."""
    out = np.empty(n)
    for start in range(0, n, chunk_rows):
        block = chunk_fn(start, min(start + chunk_rows, n))
        out[start : start + len(block)] = np.einsum(
            "ij,ij->i", block, block
        )
    return out


def _tile_rows(
    q_rows: int, n_features: int, itemsize: int, l2_bytes: "int | None" = None
) -> int:
    """Point-tile height for a block of ``q_rows`` query rows.

    Solves ``q * c * s + (q + c) * D * s <= L2`` for ``c``: the ``(q, c)``
    distance block plus the ``(q, D)`` and ``(c, D)`` panels fit in L2.
    A square block (``q`` = :func:`resolve_chunk_rows`) gets the square
    edge back.  Clamped to ``[32, 8192]``.
    """
    l2 = l2_cache_bytes() if l2_bytes is None else int(l2_bytes)
    s = max(int(itemsize), 1)
    d = max(int(n_features), 1)
    q = max(int(q_rows), 1)
    return int(np.clip((l2 // s - q * d) // (q + d), 32, 8192))


def tie_ordered_top_k(
    dist: np.ndarray, idx: np.ndarray, k: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Per row, the ``k`` smallest ``(distance, index)`` pairs, in that order.

    The one neighbor merge of the package — the kernel's tile merge and
    the sharded index's shard merge.  Among
    equal distances the lowest index wins, both for membership at the
    k-th distance and for order within the row.  ``dist`` and ``idx``
    are ``(M, C)`` candidate matrices in any column order (``idx`` may
    be a broadcast view); returns two ``(M, min(k, C))`` arrays.
    """
    k = min(int(k), dist.shape[1])
    rows = np.arange(len(dist))[:, None]
    if dist.shape[1] > k:
        part = np.argpartition(dist, kth=k - 1, axis=1)[:, :k]
        kth = dist[rows[:, 0], part[:, k - 1]]
        # argpartition picks arbitrarily among values equal to the k-th:
        # a row holding more than k entries <= it is ordered in full
        tied = np.flatnonzero(np.count_nonzero(dist <= kth[:, None], axis=1) > k)
        if tied.size:
            part[tied] = np.lexsort((idx[tied], dist[tied]), axis=1)[:, :k]
        dist = dist[rows, part]
        idx = idx[rows, part]
    order = np.lexsort((idx, dist), axis=1)
    return dist[rows, order], idx[rows, order]


def _resolve_tiles(points, n_dim: int, compute_dtype, chunk_rows, query_block):
    """``(itemsize, chunk_rows, query_block)`` after the test overrides.

    ``chunk_rows`` stays ``None`` unless overridden: the tile height is
    then derived per query block by :func:`_tile_rows`.  The default
    query block is the square :func:`resolve_chunk_rows` edge.
    """
    itemsize = _chunk_itemsize(points, compute_dtype)
    if query_block is None:
        query_block = resolve_chunk_rows(n_dim, itemsize)
    if chunk_rows is not None:
        chunk_rows = max(int(chunk_rows), 1)
    return itemsize, chunk_rows, max(int(query_block), 1)


def _scan_setup(queries, points):
    """Validate a scan: ``(queries, chunk_fn, n_points, n_dim, compute_dtype)``.

    Float32 queries against a float32 source stay in float32 end to end
    (sgemm is ~2x dgemm on this class of hardware); anything else
    computes in float64.
    """
    queries = check_2d(queries, "queries", dtype=None)
    chunk_fn, n_points, n_dim, src_dtype = _as_source(points)
    if queries.shape[1] != n_dim:
        raise ValueError(
            f"query dim {queries.shape[1]} != points dim {n_dim}"
        )
    compute_dtype = np.promote_types(
        np.promote_types(queries.dtype, src_dtype), np.float32
    )
    return queries, chunk_fn, n_points, n_dim, compute_dtype


def _scan_norms(sq_norms, chunk_fn, n_points, compute_dtype, chunk_rows):
    """``|p|^2`` in the compute dtype: the cached vector, else one streaming pass."""
    if sq_norms is None:
        sq_norms = _source_sq_norms(chunk_fn, n_points, chunk_rows or 4096)
    return np.asarray(sq_norms).ravel().astype(compute_dtype, copy=False)


def chunked_argkmin(
    queries: np.ndarray,
    points,
    k: int,
    *,
    sq_norms: "np.ndarray | None" = None,
    chunk_rows: "int | None" = None,
    query_block: "int | None" = None,
):
    """Exact k smallest Euclidean distances of each query to ``points``.

    Returns ``(distances, indices)`` of shape ``(M, min(k, N))``, rows
    sorted by distance and then by index: among equal distances the
    lowest index wins, so the result equals a stable argsort of the
    full distance matrix whatever the tiling — without ever
    materializing an ``(M, N)`` buffer.  ``k > N`` is clamped at this
    level; callers wanting a raise policy enforce it above
    (``_resolve_query_k``).

    ``sq_norms`` caches ``|p|^2`` across calls; ``chunk_rows`` /
    ``query_block`` override the L2 tile heuristic (tests shrink them to
    force multi-tile runs).
    """
    queries, chunk_fn, n_points, n_dim, compute_dtype = _scan_setup(
        queries, points
    )
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(int(k), n_points)
    m = len(queries)
    itemsize, chunk_rows, query_block = _resolve_tiles(
        points, n_dim, compute_dtype, chunk_rows, query_block
    )
    if n_points == 0 or m == 0:
        return (
            np.zeros((m, k), dtype=compute_dtype),
            np.zeros((m, k), dtype=int),
        )
    sq_norms = _scan_norms(sq_norms, chunk_fn, n_points, compute_dtype, chunk_rows)

    queries = queries.astype(compute_dtype, copy=False)
    all_dist = np.empty((m, k), dtype=compute_dtype)
    all_idx = np.empty((m, k), dtype=int)
    for qs in range(0, m, query_block):
        q = queries[qs : qs + query_block]
        tile = chunk_rows or _tile_rows(len(q), n_dim, itemsize)
        # -2 is a power of two, so folding it into the query is exact
        q2 = -2.0 * q
        best_d = np.full((len(q), k), np.inf, dtype=compute_dtype)
        best_i = np.full((len(q), k), -1, dtype=int)
        # each row's k-th best so far: a view, so merges update it
        bound = best_d[:, k - 1]
        for ps in range(0, n_points, tile):
            pe = min(ps + tile, n_points)
            chunk = chunk_fn(ps, pe).astype(compute_dtype, copy=False)
            # |q|^2 is constant per row, so it never affects the ranking;
            # it is added back once, after the final merge
            d2 = q2 @ chunk.T
            d2 += sq_norms[ps:pe]
            # strict: a point equal to the bound loses to the lower-index
            # one already held, so only rows with a closer point merge
            live = np.flatnonzero(d2.min(axis=1) < bound)
            if not live.size:
                continue
            if live.size < len(q):
                d2 = d2[live]
            best_d[live], best_i[live] = tie_ordered_top_k(
                np.concatenate([best_d[live], d2], axis=1),
                np.concatenate(
                    [best_i[live], np.broadcast_to(np.arange(ps, pe), d2.shape)],
                    axis=1,
                ),
                k,
            )
        best_d += np.einsum("ij,ij->i", q, q)[:, None]
        np.maximum(best_d, 0.0, out=best_d)
        all_dist[qs : qs + len(q)] = np.sqrt(best_d)
        all_idx[qs : qs + len(q)] = best_i
    return all_dist, all_idx


def chunked_radius_neighbors(
    queries: np.ndarray,
    points,
    radius: float,
    *,
    sq_norms: "np.ndarray | None" = None,
    chunk_rows: "int | None" = None,
    query_block: "int | None" = None,
    exclude_self: bool = False,
) -> "list[np.ndarray]":
    """Indices of all points within ``radius`` of each query (inclusive).

    Per-query index arrays come back in ascending order — the
    :func:`repro.manifold.epsilon_neighbors` contract.  ``exclude_self``
    drops index ``i`` from query row ``i`` (the self-radius pattern
    where queries *are* the indexed points).  Same query-shaped tiles
    as :func:`chunked_argkmin`; the per-tile reduction is an in-radius
    mask instead of a top-k.
    """
    queries, chunk_fn, n_points, n_dim, compute_dtype = _scan_setup(
        queries, points
    )
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    m = len(queries)
    if m == 0:
        return []
    if n_points == 0:
        return [np.empty(0, dtype=int) for _ in range(m)]
    itemsize, chunk_rows, query_block = _resolve_tiles(
        points, n_dim, compute_dtype, chunk_rows, query_block
    )
    sq_norms = _scan_norms(sq_norms, chunk_fn, n_points, compute_dtype, chunk_rows)

    queries = queries.astype(compute_dtype, copy=False)
    r2 = float(radius) * float(radius)
    rows_out: "list[list[np.ndarray]]" = [[] for _ in range(m)]
    for qs in range(0, m, query_block):
        q = queries[qs : qs + query_block]
        tile = chunk_rows or _tile_rows(len(q), n_dim, itemsize)
        # per-row threshold folds |q|^2 out of the tile arithmetic:
        # d2_base <= r^2 - |q|^2  <=>  ||q - p||^2 <= r^2
        thresh = r2 - np.einsum("ij,ij->i", q, q)
        q2 = -2.0 * q
        for ps in range(0, n_points, tile):
            pe = min(ps + tile, n_points)
            chunk = chunk_fn(ps, pe).astype(compute_dtype, copy=False)
            d2 = q2 @ chunk.T
            d2 += sq_norms[ps:pe]
            hit_q, hit_p = np.nonzero(d2 <= thresh[:, None])
            if not len(hit_q):
                continue
            hit_p = hit_p + ps
            if exclude_self:
                keep = hit_p != hit_q + qs
                hit_q, hit_p = hit_q[keep], hit_p[keep]
            # np.nonzero walks rows in order, so per-row hits arrive
            # ascending and later chunks only append larger indices
            counts = np.bincount(hit_q, minlength=len(q))
            for row, part in zip(
                np.flatnonzero(counts),
                np.split(hit_p, np.cumsum(counts[counts > 0])[:-1]),
            ):
                rows_out[qs + row].append(part)
    return [
        np.concatenate(parts) if parts else np.empty(0, dtype=int)
        for parts in rows_out
    ]
