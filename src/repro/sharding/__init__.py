"""repro.sharding — partitioned radio-map indexing for campus-scale maps.

The monolithic :class:`~repro.manifold.neighbors.KNNIndex` scans every
fingerprint per query, which caps serving far below the >10^6-point maps
the roadmap targets.  This package splits the map once and bounds the
per-query work:

``partitioner``
    :class:`Partitioner` protocol with label (building/floor), k-means,
    and contiguous-chunk policies; :func:`make_partitioner` resolves
    spec strings.
``index``
    :class:`ShardedKNNIndex` — per-shard ``KNNIndex`` fan-out via a
    ``ThreadPoolExecutor``, exact global top-k merge (lowest index wins
    ties, as in the monolithic scan), and triangle-inequality shard
    pruning.
``fanout``
    :func:`fanout_map` — query-side batch fan-out for backends without
    an index to shard (exact for row-wise models).
``bench``
    The ``shard-bench`` engine behind ``python -m repro.cli shard-bench``.

Entry points elsewhere: ``manifold.neighbors.kneighbors(..., shards=N)``,
``KNNFingerprinting(shards=N)``, and the ``shards=``/``partitioner=``
hyperparameters on the ``knn``/``noble``/``knn-regressor``/``forest``
serving backends.
"""

from repro.sharding.fanout import fanout_map, fanout_over_slices, fanout_slices
from repro.sharding.index import ShardedKNNIndex
from repro.sharding.partitioner import (
    ChunkPartitioner,
    KMeansPartitioner,
    LabelPartitioner,
    Partitioner,
    RestoredPartitioner,
    make_partitioner,
)

__all__ = [
    "ShardedKNNIndex",
    "Partitioner",
    "ChunkPartitioner",
    "KMeansPartitioner",
    "LabelPartitioner",
    "RestoredPartitioner",
    "make_partitioner",
    "fanout_map",
    "fanout_over_slices",
    "fanout_slices",
]
