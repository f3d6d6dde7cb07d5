"""Merge kernels: fold staged edges into a capped CSR range.

:func:`merge_capped` is the one algorithm both compaction paths share.
The sharded store calls it once per *dirty* shard with entity-local
ids (delta-proportional cost); :func:`full_merge` runs it over a whole
store's flattened arrays — the pre-shard monolithic path, kept as the
differential oracle.

Semantics (pinned by the online staging tests): edges are grouped by
head with **base edges first** within each head — the established
adjacency wins — then the action cap is re-applied by
position-within-head, so staged extras are the ones truncated on
entities already at the cap.  Within a head, staged extras keep their
staging order.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.graphstore.store import CSRShard, ShardedCSR, pack_tables

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def merge_capped(n_heads: int, base_degrees: np.ndarray,
                 base_rels: np.ndarray, base_tails: np.ndarray,
                 extra_heads: np.ndarray, extra_rels: np.ndarray,
                 extra_tails: np.ndarray, action_cap: int) -> Arrays:
    """Merge base + staged edges over heads ``0..n_heads-1``.

    ``base_*`` is the existing capped adjacency (raw flat arrays, no
    sentinel slot, sorted by head); ``extra_*`` the staged overlay with
    entity-**local** head ids.  Returns ``(degrees, rels, tails)`` in
    the same raw layout, head-sorted, base-first per head, re-capped.
    """
    base_heads = np.repeat(np.arange(n_heads, dtype=np.int64),
                           base_degrees.astype(np.int64))
    heads = np.concatenate([base_heads,
                            np.asarray(extra_heads, dtype=np.int64)])
    rels = np.concatenate([base_rels.astype(np.int64),
                           np.asarray(extra_rels, dtype=np.int64)])
    tails = np.concatenate([base_tails.astype(np.int64),
                            np.asarray(extra_tails, dtype=np.int64)])
    order = np.argsort(heads, kind="stable")  # base-first per head
    heads, rels, tails = heads[order], rels[order], tails[order]
    degrees = np.bincount(heads, minlength=n_heads)
    indptr0 = np.concatenate([[0], np.cumsum(degrees)])
    # Re-apply the cap by position-within-head: the stable sort put
    # base edges first, so staged extras are the ones truncated on
    # heads already at the cap.
    pos = np.arange(heads.size, dtype=np.int64) - indptr0[heads]
    keep = pos < action_cap
    if not keep.all():
        heads, rels, tails = heads[keep], rels[keep], tails[keep]
        degrees = np.bincount(heads, minlength=n_heads)
    return degrees, rels, tails


def merge_shard(shard: CSRShard, extra_heads: np.ndarray,
                extra_rels: np.ndarray, extra_tails: np.ndarray,
                action_cap: int) -> CSRShard:
    """A fresh generation of ``shard`` with the staged edges folded in.

    ``extra_heads`` carries **global** entity ids (localized here); the
    returned shard's epoch is the old epoch + 1 and its digest cache is
    empty (fresh content hashes on first use).
    """
    tables = shard.tables
    degrees, rels, tails = merge_capped(
        shard.num_entities, tables.degrees, tables.rels[1:],
        tables.tails[1:],
        np.asarray(extra_heads, dtype=np.int64) - shard.start,
        extra_rels, extra_tails, action_cap)
    return CSRShard(shard.start, shard.stop,
                    pack_tables(degrees, rels, tails),
                    epoch=shard.epoch + 1)


def compact_store(store: ShardedCSR,
                  staged: Mapping[int, Arrays],
                  action_cap: int) -> Tuple[ShardedCSR, Dict[int, CSRShard]]:
    """Per-shard, delta-proportional compaction.

    ``staged`` maps shard index -> ``(heads, rels, tails)`` (global
    head ids).  Only those shards rebuild; every other shard rides into
    the new facade untouched.  Returns ``(new_store, updates)`` so the
    caller can see exactly which generations changed.
    """
    updates = {
        sid: merge_shard(store.shards[sid], heads, rels, tails,
                         action_cap)
        for sid, (heads, rels, tails) in sorted(staged.items())}
    return store.replace_shards(updates), updates


def full_merge(store: ShardedCSR, heads: np.ndarray, rels: np.ndarray,
               tails: np.ndarray, action_cap: int) -> Arrays:
    """Monolithic O(E) rebuild over the flattened store.

    The pre-shard compaction algorithm, byte-for-byte: the differential
    suite pins that per-shard compaction and this full rebuild agree on
    the final capped adjacency.
    """
    flat = store.to_flat()
    return merge_capped(store.num_entities, flat.degrees, flat.rels[1:],
                        flat.tails[1:], heads, rels, tails, action_cap)
