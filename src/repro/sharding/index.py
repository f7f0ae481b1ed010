"""Sharded k-nearest-neighbor index with parallel fan-out and exact merge.

:class:`ShardedKNNIndex` partitions a radio map into per-shard
:class:`~repro.manifold.neighbors.KNNIndex` instances (policy pluggable
via :mod:`repro.sharding.partitioner`), queries shards concurrently
through a ``ThreadPoolExecutor`` (numpy's distance kernels release the
GIL), and merges per-shard candidates into the exact global top-k with
:func:`repro.manifold.chunked.tie_ordered_top_k`.

Two properties make it a drop-in for the monolithic index:

**Exactness.**  Every shard returns its local top-``min(k, |shard|)``
in global indices, ordered by ``(distance, index)``; the union of
shards is the whole point set, so the merged global top-k is the
monolithic brute scan's answer — neighbor indices included, ties
included (lowest index wins everywhere) — even when ``k`` exceeds the
smallest shard.

**Pruning.**  Each shard carries its centroid and covering radius.  By
the triangle inequality no point of shard ``s`` can be closer to query
``q`` than ``lb(q, s) = max(0, ||q - c_s|| - r_s)``, so after scanning
the nearest shard any shard with ``lb >= tau`` (``tau`` = current k-th
best distance) is skipped.  The bound carries a small negative slack,
so a shard holding a point at exactly ``tau`` is still scanned and a
lower-index twin there still wins.  On clustered maps most queries
touch one or two shards, which is where the throughput win over the
monolithic scan comes from; ``prune=False`` forces the plain all-shard
fan-out.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.manifold.chunked import tie_ordered_top_k
from repro.manifold.neighbors import (
    KNNIndex,
    _drop_self_matches,
    _resolve_query_k,
)
from repro.sharding.partitioner import (
    Partitioner,
    RestoredPartitioner,
    make_partitioner,
)
from repro.utils.validation import check_2d

#: Relative slack applied to pruning bounds so float round-off in the
#: distance expansion can never skip a shard holding a strictly closer
#: point than the current k-th candidate.
_PRUNE_SLACK = 1e-7


class ShardedKNNIndex:
    """Partitioned kNN index over a fixed point set, exact under merge.

    Parameters
    ----------
    points:
        (N, D) array indexed once at construction.  Global indices
        returned by :meth:`query` refer to rows of this array.
    n_shards:
        Target shard count; the actual count can be lower when the
        partitioner produces fewer non-empty cells.  Defaults to 4 for
        spec strings; when ``partitioner`` is an instance it defaults
        to the instance's own ``n_shards``, and a conflicting explicit
        value raises rather than being silently overridden.
    partitioner:
        A :class:`~repro.sharding.partitioner.Partitioner` instance or
        spec string (``"auto"``, ``"labels"``, ``"kmeans"``,
        ``"chunk"``); ``"auto"`` partitions by ``labels`` when given,
        else by k-means cells.
    labels:
        Optional (N,) integer labels (e.g. building/floor) consumed by
        label-based partitioners.
    method:
        Backend for every per-shard :class:`KNNIndex` (``"auto"`` /
        ``"kdtree"`` / ``"brute"``).
    max_workers:
        Thread-pool width for the per-shard fan-out.  Defaults to
        ``min(n_shards, cpu_count)``; ``1`` scans serially (and lets
        pruning tighten its bound shard by shard).
    prune:
        Enable centroid-radius shard pruning (exact; see module docs).
    binner:
        Optional fitted :class:`repro.quantization.FeatureBinner`; every
        per-shard index then stores uint8 codes instead of float points
        (see :class:`KNNIndex`).  Pruning metadata is still computed from
        the float map at construction, and the top-level ``points`` is
        retained for persistence — the 8x memory cut applies to the
        per-shard scan state that worker processes hold resident.
    refine:
        Shortlist factor for the quantized two-stage query.  When a
        binner is set, :meth:`query` scans shards for the top
        ``refine * k`` candidates with the uint8 ADC distance, then
        reranks that shortlist with exact float distances against the
        retained ``points`` — the standard quantized-search refine step
        that recovers near-perfect top-k recall at negligible cost (the
        shortlist is tiny next to the scan).  ``None`` defaults to 4
        when a binner is set and to 0 (disabled) otherwise; pass 0
        explicitly to serve the raw quantized distances.
    """

    #: Default shortlist factor for binned indexes (``refine=None``).
    _DEFAULT_REFINE = 4

    def __init__(
        self,
        points: np.ndarray,
        n_shards: "int | None" = None,
        partitioner="auto",
        labels: "np.ndarray | None" = None,
        method: str = "auto",
        max_workers: "int | None" = None,
        prune: bool = True,
        binner=None,
        refine: "int | None" = None,
    ):
        self.points = check_2d(points, "points")
        if len(self.points) == 0:
            raise ValueError("cannot index an empty point set")
        if isinstance(partitioner, Partitioner):
            if n_shards is not None and int(n_shards) != partitioner.n_shards:
                raise ValueError(
                    f"n_shards={n_shards} conflicts with the partitioner's "
                    f"n_shards={partitioner.n_shards}; pass matching values "
                    f"or omit n_shards"
                )
        elif n_shards is None:
            n_shards = 4
        self.partitioner: Partitioner = make_partitioner(
            partitioner, n_shards, labels_available=labels is not None
        )
        assignment = np.asarray(
            self.partitioner.assign(self.points, labels)
        ).ravel()
        if len(assignment) != len(self.points):
            raise ValueError(
                f"partitioner returned {len(assignment)} assignments for "
                f"{len(self.points)} points"
            )
        # compact shard ids so empty cells vanish and ids are dense
        _uniq, compact = np.unique(assignment, return_inverse=True)
        self.shard_indices_ = [
            np.flatnonzero(compact == s) for s in range(int(compact.max()) + 1)
        ]
        self.binner = binner
        self.refine = _resolve_refine(refine, binner)
        self.shards_ = [
            KNNIndex(self.points[idx], method=method, binner=binner)
            for idx in self.shard_indices_
        ]
        if binner is None:
            # reuse the per-shard copies the KNNIndexes already hold instead
            # of fancy-indexing the full map a second time
            shard_points = [shard.points for shard in self.shards_]
        else:
            # binned shards hold no float points; prune metadata comes from
            # the full-precision map so bounds stay exact
            shard_points = [self.points[idx] for idx in self.shard_indices_]
        self.centroids_ = np.stack([p.mean(axis=0) for p in shard_points])
        self.radii_ = np.array(
            [
                np.sqrt(np.max(np.sum((p - c) ** 2, axis=1)))
                for p, c in zip(shard_points, self.centroids_)
            ]
        )
        if max_workers is None:
            max_workers = min(self.n_shards, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.prune = bool(prune)
        self._stats_lock = threading.Lock()
        self.points_scanned_ = 0  # cumulative (queries x shard-size) work

    #: Element budget for one query block's temporaries (see query());
    #: class-level so tests can shrink it to exercise multi-block runs.
    _block_elements = int(2e7)

    # ------------------------------------------------------------ persistence
    def shard_state(self) -> "dict[str, np.ndarray]":
        """The fitted partition as flat arrays (for persistence).

        Returns the concatenated per-shard global indices plus shard
        sizes and the centroid/radius pruning metadata — everything
        :meth:`from_shard_state` needs to rebuild the index without
        re-running the partitioner (whose k-means fit dominates
        construction on large maps).  The point set itself is *not*
        included; callers persist it alongside.
        """
        return {
            "shard_concat": np.concatenate(
                [idx.astype(np.int64) for idx in self.shard_indices_]
            ),
            "shard_sizes": np.array(self.shard_sizes, dtype=np.int64),
            "centroids": self.centroids_,
            "radii": self.radii_,
        }

    @classmethod
    def from_shard_state(
        cls,
        points: np.ndarray,
        state: "dict[str, np.ndarray]",
        partitioner_description: str = "restored",
        method: str = "brute",
        max_workers: "int | None" = None,
        prune: bool = True,
        binner=None,
        refine: "int | None" = None,
    ) -> "ShardedKNNIndex":
        """Rebuild an index from :meth:`shard_state`, skipping the partition fit.

        ``points`` must be the original indexed point set (global indices
        in ``state`` refer to its rows); the shard assignment, centroids,
        and covering radii are taken verbatim from ``state`` instead of
        re-running the partitioner, so restoring a 10^6-point k-means
        index costs per-shard index construction only.  The partition is
        validated to cover every point exactly once.  ``max_workers``
        defaults to ``min(n_shards, cpu_count)`` — deliberately not
        persisted, since it is a property of the serving machine.
        """
        self = cls.__new__(cls)
        self.points = check_2d(points, "points")
        if len(self.points) == 0:
            raise ValueError("cannot index an empty point set")
        sizes = np.asarray(state["shard_sizes"], dtype=int).ravel()
        concat = np.asarray(state["shard_concat"], dtype=int).ravel()
        if sizes.sum() != len(self.points) or len(concat) != len(self.points):
            raise ValueError(
                f"shard state covers {len(concat)} assignments in "
                f"{sizes.sum()} shard slots for {len(self.points)} points"
            )
        if (sizes < 1).any():
            raise ValueError("shard state contains an empty shard")
        if len(concat) and (
            concat.min() < 0 or concat.max() >= len(self.points)
        ):
            raise ValueError(
                "shard state references out-of-range point indices"
            )
        bounds = np.cumsum(sizes)
        self.shard_indices_ = [
            concat[start:stop]
            for start, stop in zip(np.concatenate([[0], bounds[:-1]]), bounds)
        ]
        covered = np.zeros(len(self.points), dtype=bool)
        covered[concat] = True
        if not covered.all() or len(np.unique(concat)) != len(concat):
            raise ValueError(
                "shard state is not a partition of the point set "
                "(every point must appear in exactly one shard)"
            )
        self.partitioner = RestoredPartitioner(
            partitioner_description, n_shards=len(self.shard_indices_)
        )
        self.binner = binner
        self.refine = _resolve_refine(refine, binner)
        self.shards_ = [
            KNNIndex(self.points[idx], method=method, binner=binner)
            for idx in self.shard_indices_
        ]
        self.centroids_ = np.asarray(state["centroids"], dtype=float)
        self.radii_ = np.asarray(state["radii"], dtype=float).ravel()
        if len(self.centroids_) != len(self.shards_) or len(self.radii_) != len(
            self.shards_
        ):
            raise ValueError(
                f"shard state carries {len(self.centroids_)} centroids / "
                f"{len(self.radii_)} radii for {len(self.shards_)} shards"
            )
        if max_workers is None:
            max_workers = min(len(self.shards_), os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.prune = bool(prune)
        self._stats_lock = threading.Lock()
        self.points_scanned_ = 0
        return self

    # ------------------------------------------------------------- properties
    @property
    def n_shards(self) -> int:
        """Number of non-empty shards actually built."""
        return len(self.shards_)

    @property
    def shard_sizes(self) -> "list[int]":
        return [len(idx) for idx in self.shard_indices_]

    def __len__(self) -> int:
        return len(self.points)

    # ------------------------------------------------------------------ query
    def query(
        self,
        queries: np.ndarray,
        k: int,
        exclude_self: bool = False,
        on_excess: str = "raise",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact global (distances, indices), each (M, k), sorted by distance.

        Same contract as :meth:`KNNIndex.query`, including the
        ``on_excess`` clamp-or-raise policy against the **global** point
        count (per-shard clamping is internal and lossless).
        ``exclude_self`` assumes row ``i`` of ``queries`` is point ``i``
        of the indexed set and removes that exact entry by identity, so
        it stays correct even when duplicate points straddle shards.
        """
        queries, eff_k = _resolve_query_k(
            queries,
            index_dim=self.points.shape[1],
            index_size=len(self.points),
            k=k,
            exclude_self=exclude_self,
            on_excess=on_excess,
        )
        out_k = eff_k - 1 if exclude_self else eff_k
        if len(queries) == 0:
            return np.empty((0, out_k)), np.empty((0, out_k), dtype=int)
        # quantized two-stage plan: scan shards for a refine*k shortlist
        # with the uint8 ADC distance, then rerank it exactly below
        refining = self.refine > 0 and self.binner is not None
        scan_k = (
            min(eff_k * self.refine, len(self.points)) if refining else eff_k
        )
        # bound the per-block temporaries — qc/lb are (block, S) and the
        # candidate concat is (block, <= k*S) — so a campus-scale self-kNN
        # (10^6 queries in one call) never materializes gigabytes at once
        block = max(1, self._block_elements // max(self.n_shards * scan_k, 1))
        parts = []
        for start in range(0, len(queries), block):
            chunk = queries[start : start + block]
            if self.prune and self.n_shards > 1:
                scanned = self._query_pruned(chunk, scan_k)
            else:
                scanned = self._query_all(chunk, scan_k)
            if refining:
                scanned = self._exact_rerank(chunk, scanned[1], eff_k)
            parts.append(scanned)
        if len(parts) == 1:
            distances, indices = parts[0]
        else:
            distances = np.concatenate([d for d, _ in parts])
            indices = np.concatenate([i for _, i in parts])
        if exclude_self:
            # identity-based drop (shared with the monolithic index), so a
            # zero-distance duplicate in another shard survives and the
            # query's own row never leaks into its neighbor list
            distances, indices = _drop_self_matches(
                distances, indices, eff_k - 1
            )
        return distances, indices

    def scan_shards(
        self, shard_ids, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Local top-k over a subset of shards, mapped to global indices.

        The per-worker entrypoint of the multi-process serving tier
        (:mod:`repro.serving.workers`): each worker process restores a
        copy of the index and scans only the shards it owns; the parent
        merges the per-worker candidates with the same
        :func:`~repro.manifold.chunked.tie_ordered_top_k` the in-process
        fan-out uses, so the merge over a partition of the shard ids
        equals :meth:`query` exactly, indices included.  Returns
        ``(distances, indices)`` of shape
        ``(M, min(k, points in the listed shards))``, rows ordered by
        distance, then index; ``indices`` are global (rows of
        ``self.points``).  Scans the listed shards serially — worker
        *processes* are the parallelism axis here.

        When a binner is set, the returned distances are the raw uint8
        ADC scan distances — the :attr:`refine` rerank deliberately does
        not run here, since the multi-process parent merges candidates
        across workers and owns any final refinement.
        """
        queries = check_2d(np.asarray(queries, dtype=float), "queries")
        if queries.shape[1] != self.points.shape[1]:
            raise ValueError(
                f"queries have {queries.shape[1]} features, the index has "
                f"{self.points.shape[1]}"
            )
        if int(k) < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        shard_ids = [int(s) for s in shard_ids]
        if not shard_ids:
            raise ValueError("scan_shards requires at least one shard id")
        bad = [s for s in shard_ids if not 0 <= s < self.n_shards]
        if bad or len(set(shard_ids)) != len(shard_ids):
            raise ValueError(
                f"shard ids must be unique and in [0, {self.n_shards}), "
                f"got {shard_ids}"
            )
        eff_k = min(int(k), sum(len(self.shards_[s]) for s in shard_ids))
        results = [self._scan_shard(s, queries, eff_k) for s in shard_ids]
        cand_d = np.concatenate([d for d, _ in results], axis=1)
        cand_i = np.concatenate([i for _, i in results], axis=1)
        return tie_ordered_top_k(cand_d, cand_i, eff_k)

    # ------------------------------------------------------------ query plans
    def _query_all(self, queries: np.ndarray, eff_k: int):
        """Fan out every query to every shard, then merge exactly."""
        results = self._map_shards(
            lambda s: self._scan_shard(s, queries, eff_k), range(self.n_shards)
        )
        cand_d = np.concatenate([d for d, _ in results], axis=1)
        cand_i = np.concatenate([i for _, i in results], axis=1)
        return tie_ordered_top_k(cand_d, cand_i, eff_k)

    def _query_pruned(self, queries: np.ndarray, eff_k: int):
        """Two-phase scan: nearest shard first, then only unpruned shards."""
        m = len(queries)
        qc = self._centroid_distances(queries)  # (M, S) exact distances
        nearest = np.argmin(qc, axis=1)
        cand_d = np.full((m, eff_k), np.inf)
        cand_i = np.full((m, eff_k), -1, dtype=int)

        groups = [
            (s, np.flatnonzero(nearest == s)) for s in range(self.n_shards)
        ]
        groups = [(s, rows) for s, rows in groups if len(rows)]
        first = self._map_shards(
            lambda job: self._scan_shard(job[0], queries[job[1]], eff_k), groups
        )
        for (s, rows), (d, gi) in zip(groups, first):
            cand_d[rows, : d.shape[1]] = d
            cand_i[rows, : d.shape[1]] = gi
        tau = cand_d[:, eff_k - 1]  # inf while fewer than eff_k candidates

        # triangle-inequality lower bound per (query, shard), with float slack
        lb = np.maximum(qc - self.radii_[None, :], 0.0)
        lb -= _PRUNE_SLACK * (qc + self.radii_[None, :] + 1.0)
        pending = lb < tau[:, None]
        pending[np.arange(m), nearest] = False

        if self.max_workers > 1:
            jobs = [
                (s, np.flatnonzero(pending[:, s])) for s in range(self.n_shards)
            ]
            jobs = [(s, rows) for s, rows in jobs if len(rows)]
            scans = self._map_shards(
                lambda job: self._scan_shard(job[0], queries[job[1]], eff_k),
                jobs,
            )
            for (s, rows), (d, gi) in zip(jobs, scans):
                _merge_rows(cand_d, cand_i, rows, d, gi, eff_k)
        else:
            # serial scan, cheapest-bound shards first, re-tightening tau so
            # later shards prune against the best candidates found so far
            for s in np.argsort(lb.min(axis=0)):
                rows = np.flatnonzero(pending[:, s] & (lb[:, s] < tau))
                if not rows.size:
                    continue
                d, gi = self._scan_shard(s, queries[rows], eff_k)
                _merge_rows(cand_d, cand_i, rows, d, gi, eff_k)
                tau[rows] = cand_d[rows, eff_k - 1]
        return cand_d, cand_i

    # -------------------------------------------------------------- internals
    def _exact_rerank(self, queries: np.ndarray, cand_i: np.ndarray, eff_k: int):
        """Rerank a quantized shortlist with exact float distances.

        ``cand_i`` is the (M, scan_k) shortlist from the uint8 ADC scan;
        rows may carry ``-1`` padding when the scan could not fill
        ``scan_k`` slots (kept at infinite distance so real candidates
        always win).  Processes row blocks so the (rows, scan_k, D)
        gather stays within the temporary budget.
        """
        m, scan_k = cand_i.shape
        keep = min(eff_k, scan_k)
        dim = self.points.shape[1]
        out_d = np.empty((m, keep))
        out_i = np.empty((m, keep), dtype=cand_i.dtype)
        rows = max(1, self._block_elements // max(scan_k * dim, 1))
        for start in range(0, m, rows):
            ci = cand_i[start : start + rows]
            missing = ci < 0
            gathered = self.points[np.where(missing, 0, ci)]
            diff = gathered - queries[start : start + rows, None, :]
            d = np.sqrt(np.einsum("mkd,mkd->mk", diff, diff))
            if missing.any():
                d[missing] = np.inf
            d_top, i_top = tie_ordered_top_k(d, ci, keep)
            out_d[start : start + rows] = d_top
            out_i[start : start + rows] = i_top
        return out_d, out_i

    def _scan_shard(self, s: int, queries: np.ndarray, eff_k: int):
        """One shard's local top-k mapped to global indices."""
        distances, local = self.shards_[s].query(
            queries, k=eff_k, on_excess="clamp"
        )
        with self._stats_lock:
            self.points_scanned_ += len(queries) * len(self.shards_[s])
        return distances, self.shard_indices_[s][local]

    def reset_stats(self) -> None:
        """Zero the cumulative scan-work counter (used by shard-bench)."""
        with self._stats_lock:
            self.points_scanned_ = 0

    def _map_shards(self, fn, jobs) -> list:
        """Run ``fn`` over jobs, threaded when the pool allows it."""
        jobs = list(jobs)
        workers = min(self.max_workers, len(jobs))
        if workers <= 1:
            return [fn(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))

    def _centroid_distances(self, queries: np.ndarray) -> np.ndarray:
        d2 = (
            np.sum(queries**2, axis=1)[:, None]
            - 2.0 * queries @ self.centroids_.T
            + np.sum(self.centroids_**2, axis=1)
        )
        return np.sqrt(np.maximum(d2, 0.0))


def _resolve_refine(refine: "int | None", binner) -> int:
    """Effective shortlist factor: default 4 for binned indexes, else 0."""
    if refine is None:
        return ShardedKNNIndex._DEFAULT_REFINE if binner is not None else 0
    refine = int(refine)
    if refine < 0:
        raise ValueError(f"refine must be >= 0, got {refine}")
    return refine


def _merge_rows(cand_d, cand_i, rows, d, gi, eff_k):
    """Fold one shard's candidates into the running top-k of ``rows``."""
    cand_d[rows], cand_i[rows] = tie_ordered_top_k(
        np.concatenate([cand_d[rows], d], axis=1),
        np.concatenate([cand_i[rows], gi], axis=1),
        eff_k,
    )
