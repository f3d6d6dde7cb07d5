"""Sharded incremental CSR graph store.

The capped KG adjacency the walk policy reads on every hot-path step,
stored as ``S`` contiguous entity-range shards so online deltas cost
what they touch:

* :class:`~repro.graphstore.store.CSRShard` — one immutable per-shard
  ``(indptr, rels, tails, degrees)`` bundle with a monotonic epoch and
  a cached content digest;
* :class:`~repro.graphstore.store.ShardedCSR` — the query facade
  (global degrees, zero-sentinel cross-shard gather, per-entity
  slices, flat compatibility view);
* :mod:`~repro.graphstore.merge` — the shared base-first capped merge
  kernel, per-shard (:func:`~repro.graphstore.merge.compact_store`)
  and monolithic (:func:`~repro.graphstore.merge.full_merge`, kept as
  the differential oracle).

Consumers: ``repro.core.environment`` (owns a store per environment),
``repro.runtime`` (exports each shard as its own shared-memory plane
generation and ships per-shard deltas to process workers).  See
``README.md`` in this directory for the shard lifecycle, the
epoch/fingerprint scheme, and the delta-publish protocol.
"""

from repro.graphstore.merge import (
    compact_store,
    full_merge,
    merge_capped,
    merge_shard,
)
from repro.graphstore.store import (
    CSRShard,
    ShardTables,
    ShardedCSR,
    auto_shard_count,
    pack_tables,
    shard_boundaries,
)

__all__ = [
    "CSRShard",
    "ShardTables",
    "ShardedCSR",
    "auto_shard_count",
    "compact_store",
    "full_merge",
    "merge_capped",
    "merge_shard",
    "pack_tables",
    "shard_boundaries",
]
