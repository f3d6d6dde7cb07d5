"""The sharded CSR graph store: immutable per-shard bundles, one facade.

``repro.core.environment`` used to keep the capped KG adjacency as one
monolithic flat-CSR triple; merging a 100-edge online delta meant
concatenating and re-sorting every edge in the graph, and the runtime
plane had to re-export the whole bundle as a new shared-memory
generation afterwards.  This module splits the entity-id space into
``S`` contiguous **shards**:

* a :class:`CSRShard` owns one immutable ``(indptr, rels, tails,
  degrees)`` bundle covering the entities ``[start, stop)``, plus a
  monotonic ``epoch`` (bumped on every rebuild) and a lazily-computed
  content ``digest()`` that is cached on the immutable bundle — an
  unchanged shard hashes for free;
* a :class:`ShardedCSR` facade stitches the shards back into the query
  contract the walk hot path expects: a global ``degrees`` view
  (concatenated lazily, so compaction never pays for it), the frontier
  gather :meth:`gather_flat` (a frontier's edges as flat
  ``(row_of, rels, tails)`` cells with no padding; shard-major grouped:
  contiguous sub-gathers per touched shard run, one permutation back to
  row order — never a Python loop per frontier row), and per-entity
  :meth:`slice` lookups;
* compaction becomes **delta-proportional**: only shards holding staged
  edges rebuild (see :func:`repro.graphstore.merge.merge_capped`), and
  :meth:`ShardedCSR.replace_shards` publishes a new facade that reuses
  every clean shard's arrays (and cached digest) untouched.

Shard boundaries are cut by edge mass (:func:`shard_boundaries`) from
the degree histogram the environment already materializes, so one hub
entity cannot concentrate the whole graph in a single shard.  The
``S = 1`` degenerate store is byte-for-byte the old monolithic layout
and keeps the old single-gather fast path.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.telemetry.block import gather_shard_counter


class ShardTables(NamedTuple):
    """One immutable CSR bundle (entity-local when owned by a shard).

    Slot 0 of the flat ``rels``/``tails`` arrays is a zero sentinel;
    real edges start at 1, so ``indptr`` is offset by one — the layout
    every shard, plane segment and content digest shares.  int32
    throughout: halves the memory traffic of the per-hop gathers, and
    no KG here approaches 2^31 entities or edges.
    """

    indptr: np.ndarray   # (n_local + 1,) int32, offset by the sentinel
    rels: np.ndarray     # flat int32, slot 0 is the zero sentinel
    tails: np.ndarray    # flat int32, slot 0 is the zero sentinel
    degrees: np.ndarray  # (n_local,) int32 capped out-degrees


def pack_tables(degrees: np.ndarray, rels: np.ndarray,
                tails: np.ndarray) -> ShardTables:
    """Prepend the zero sentinel and build the offset-by-one indptr."""
    indptr = np.concatenate([[1], 1 + np.cumsum(degrees)]).astype(np.int32)
    flat_rels = np.concatenate(
        [np.zeros(1, dtype=np.int32), rels.astype(np.int32)])
    flat_tails = np.concatenate(
        [np.zeros(1, dtype=np.int32), tails.astype(np.int32)])
    return ShardTables(indptr, flat_rels, flat_tails,
                       degrees.astype(np.int32))


class CSRShard:
    """One immutable generation of the adjacency of ``[start, stop)``.

    ``epoch`` counts rebuilds of this entity range (monotonic within a
    store lineage — plane bookkeeping); ``digest()`` is a content hash
    of the bundle, computed once and cached, so generation identity is
    stable across processes (a worker attaching the same bytes from
    shared memory reports the same digest as the publisher).
    """

    __slots__ = ("start", "stop", "tables", "epoch", "_digest")

    def __init__(self, start: int, stop: int, tables: ShardTables,
                 epoch: int = 0, digest: Optional[str] = None) -> None:
        self.start = int(start)
        self.stop = int(stop)
        self.tables = tables
        self.epoch = int(epoch)
        self._digest = digest

    @property
    def num_entities(self) -> int:
        return self.stop - self.start

    @property
    def num_edges(self) -> int:
        return int(self.tables.rels.size - 1)  # minus the sentinel slot

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.tables)

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(np.int64(self.start).tobytes())
            h.update(np.int64(self.stop).tobytes())
            for array in (self.tables.indptr, self.tables.rels,
                          self.tables.tails):
                h.update(np.ascontiguousarray(array).tobytes())
            self._digest = h.hexdigest()[:16]
        return self._digest

    def __repr__(self) -> str:
        return (f"CSRShard([{self.start}, {self.stop}), "
                f"edges={self.num_edges}, epoch={self.epoch})")


def shard_boundaries(degrees: np.ndarray, num_shards: int) -> np.ndarray:
    """Contiguous entity-id cut points balancing **edge mass** per shard.

    Returns an increasing ``(S' + 1,)`` int64 array with
    ``boundaries[0] == 0`` and ``boundaries[-1] == len(degrees)``;
    ``S' <= num_shards`` (duplicate cuts collapse on graphs too small
    or too skewed to fill every shard).  Cutting by cumulative degree
    rather than entity count keeps per-shard rebuild cost even under
    the heavy-tailed degree distributions real KGs have.
    """
    n = int(degrees.size)
    if n == 0:
        return np.array([0, 0], dtype=np.int64)
    num_shards = max(1, min(int(num_shards), n))
    if num_shards == 1:
        return np.array([0, n], dtype=np.int64)
    cum = np.cumsum(degrees, dtype=np.int64)
    total = int(cum[-1])
    if total == 0:  # edgeless graph: fall back to an even entity split
        cuts = np.linspace(0, n, num_shards + 1).round().astype(np.int64)
        return np.unique(cuts)
    targets = (np.arange(1, num_shards, dtype=np.int64)
               * total) // num_shards
    cuts = np.searchsorted(cum, targets, side="left") + 1
    boundaries = np.concatenate([[0], np.clip(cuts, 0, n), [n]])
    return np.unique(boundaries).astype(np.int64)


def auto_shard_count(num_entities: int, num_edges: int) -> int:
    """Default shard count when the caller doesn't pin one.

    Floor 1: graphs below ~250k edges keep the monolithic single-gather
    hot path — sharding them wins nothing (PR 5 measured fixed
    per-shard overheads eating the compaction gain at that size) while a
    cross-shard frontier gather costs several sub-gathers per hop.
    Beyond that, one shard per ~250k edges keeps a dirty-shard rebuild
    small relative to E, capped at 64 so per-shard bookkeeping (plane
    segments, manifest entries) stays negligible.  Online deployments
    that want sharding on a smaller graph pin ``graph_shards``
    explicitly.
    """
    if num_entities <= 1:
        return 1
    return int(min(64, max(1, num_edges // 250_000), num_entities))


class ShardedCSR:
    """Immutable facade over one generation of every shard.

    A store is published with a single attribute swap by its owning
    environment — readers load the facade once per query and then only
    touch its (immutable) members, so a concurrent per-shard compaction
    can never hand them an ``indptr`` from one generation and ``tails``
    from another.  The global ``degrees`` view (one int32 per entity,
    so the hot path's degree gather stays a single ``np.take``) is
    concatenated **lazily** from the per-shard bundles on first access
    and cached; :meth:`replace_shards` never touches it, so compaction
    cost is O(dirty-shard edges) with no O(entities) term.
    """

    __slots__ = ("boundaries", "shards", "_degrees", "_digest")

    def __init__(self, boundaries: np.ndarray,
                 shards: Tuple[CSRShard, ...],
                 degrees: Optional[np.ndarray] = None) -> None:
        self.boundaries = np.ascontiguousarray(boundaries, dtype=np.int64)
        self.shards = tuple(shards)
        if len(self.shards) != len(self.boundaries) - 1:
            raise ValueError(
                f"{len(self.shards)} shards need "
                f"{len(self.shards) + 1} boundaries, "
                f"got {len(self.boundaries)}")
        self._degrees = degrees
        self._digest: Optional[str] = None

    @property
    def degrees(self) -> np.ndarray:
        """Global capped out-degree array, concatenated on first use.

        The concat is paid at most once per facade, by the first hot
        query — never by :meth:`replace_shards`, which publishes
        delta-cost facades on the compaction path and usually retires
        them before anything reads degrees through the old one.
        """
        if self._degrees is None:
            self._degrees = (np.concatenate(
                [shard.tables.degrees for shard in self.shards])
                if self.shards else np.zeros(0, dtype=np.int32))
        return self._degrees

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, degrees: np.ndarray, rels: np.ndarray,
              tails: np.ndarray, num_shards: int = 1) -> "ShardedCSR":
        """Slice a flat capped adjacency (head-sorted, no sentinel)
        into ``num_shards`` edge-balanced shards."""
        boundaries = shard_boundaries(degrees, num_shards)
        edge_ptr = np.concatenate([[0], np.cumsum(degrees,
                                                  dtype=np.int64)])
        shards = []
        for s in range(len(boundaries) - 1):
            lo, hi = int(boundaries[s]), int(boundaries[s + 1])
            e_lo, e_hi = int(edge_ptr[lo]), int(edge_ptr[hi])
            shards.append(CSRShard(
                lo, hi, pack_tables(degrees[lo:hi], rels[e_lo:e_hi],
                                    tails[e_lo:e_hi])))
        return cls(boundaries, tuple(shards))

    def replace_shards(self, updates: Mapping[int, CSRShard]
                       ) -> "ShardedCSR":
        """A new facade with the given shards swapped in.

        Clean shards are shared by reference (arrays *and* cached
        digests), so the cost is O(dirty-shard edges) — the global
        degrees view is *not* copied or patched here (it re-concats
        lazily on the new facade's first degree query), removing the
        last O(entities) term from the compaction path.
        """
        shards = list(self.shards)
        for sid, shard in updates.items():
            old = shards[sid]
            if (shard.start, shard.stop) != (old.start, old.stop):
                raise ValueError(
                    f"shard {sid} covers [{old.start}, {old.stop}), "
                    f"got a replacement for [{shard.start}, {shard.stop})")
            shards[sid] = shard
        return ShardedCSR(self.boundaries, tuple(shards))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_entities(self) -> int:
        return int(self.boundaries[-1]) if self.boundaries.size else 0

    @property
    def num_edges(self) -> int:
        return sum(shard.num_edges for shard in self.shards)

    @property
    def nbytes(self) -> int:
        # The lazy global degrees view only counts once materialized —
        # introspection must not force an O(entities) concat.
        return (sum(shard.nbytes for shard in self.shards)
                + (self._degrees.nbytes
                   if self._degrees is not None else 0))

    def epochs(self) -> Tuple[int, ...]:
        return tuple(shard.epoch for shard in self.shards)

    def digest(self) -> str:
        """Content hash of the whole store: a digest over the per-shard
        digests (cached — after a 2-shard delta only 2 shards re-hash;
        the other S-2 reuse their cached value)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(np.ascontiguousarray(self.boundaries).tobytes())
            for shard in self.shards:
                h.update(shard.digest().encode("ascii"))
            self._digest = h.hexdigest()[:16]
        return self._digest

    # ------------------------------------------------------------------
    # Queries (the walk hot path)
    # ------------------------------------------------------------------
    def shard_of(self, entities: np.ndarray) -> np.ndarray:
        """Shard index of each entity id (vectorized)."""
        return np.searchsorted(self.boundaries, entities,
                               side="right") - 1

    def slice(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rels, tails)`` views of one entity's capped edge block."""
        sid = int(np.searchsorted(self.boundaries, entity,
                                  side="right")) - 1
        tables = self.shards[sid].tables
        local = int(entity) - int(self.boundaries[sid])
        start, stop = tables.indptr[local], tables.indptr[local + 1]
        return tables.rels[start:stop], tables.tails[start:stop]

    def gather_flat(self, entities: np.ndarray, metrics=None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A frontier's edges as flat ``(row_of, rels, tails)`` arrays.

        Row ``i``'s capped edge block is copied, in CSR order, into the
        cells whose ``row_of`` is ``i`` — rows ascending, no padding,
        zero-degree rows simply absent: ``M = degrees[entities].sum()``
        cells in all.

        Single-shard frontiers (always when ``S == 1``, and whenever the
        frontier's id range happens to fit one shard) take one global
        gather — the monolithic fast path; otherwise one contiguous
        sub-gather per touched shard over the shard-major sorted rows
        and a single permutation back to row order.  ``metrics`` (a
        ``repro.telemetry`` MetricBlock or None) picks up gather call /
        row counters and per-shard row counters.
        """
        n = len(entities)
        degs = np.take(self.degrees, entities).astype(np.int64)
        offsets = np.cumsum(degs) - degs        # row starts in the output
        total = int(offsets[-1] + degs[-1]) if n else 0
        row_of = np.repeat(np.arange(n, dtype=np.int64), degs)
        if total == 0:
            empty = np.zeros(0, dtype=np.int32)
            return row_of, empty, empty.copy()
        cells = np.arange(total, dtype=np.int64)
        boundaries = self.boundaries
        sid = 0
        if self.num_shards > 1:
            lo, hi = entities.min(), entities.max()
            sid = int(np.searchsorted(boundaries, lo, side="right")) - 1
            if hi >= boundaries[sid + 1]:
                return (row_of,) + self._gather_flat_multi(
                    entities, degs, offsets, cells, metrics)
        tables = self.shards[sid].tables
        local = entities - boundaries[sid] if sid else entities
        # Cell j of row i reads slot indptr[i] + j: shift every cell by
        # its row's (block start - output start).
        idx = cells + np.repeat(np.take(tables.indptr, local) - offsets,
                                degs)
        if metrics is not None:
            metrics.count("gather_calls_total")
            metrics.count("gather_rows_total", n)
            metrics.count(gather_shard_counter(sid), n)
        return row_of, np.take(tables.rels, idx), np.take(tables.tails, idx)

    def _gather_flat_multi(self, entities: np.ndarray, degs: np.ndarray,
                           offsets: np.ndarray, cells: np.ndarray,
                           metrics=None) -> Tuple[np.ndarray, np.ndarray]:
        """Cross-shard :meth:`gather_flat`: shard-major grouped gather.

        Rows are stably sorted by shard so each touched shard serves
        one contiguous run of cells; row ``i``'s cells then sit at
        ``offsets_s[rank of i]`` in that shard-major layout, and one
        take per output brings them back to row order.
        """
        sid = self.shard_of(entities)
        order = np.argsort(sid, kind="stable")
        sorted_sid = sid[order]
        ents_s, degs_s = entities[order], degs[order]
        offsets_s = np.cumsum(degs_s) - degs_s
        rels_s = np.empty(len(cells), dtype=np.int32)
        tails_s = np.empty(len(cells), dtype=np.int32)
        shard_ids, starts = np.unique(sorted_sid, return_index=True)
        stops = np.append(starts[1:], sorted_sid.size)
        for shard_id, start, stop in zip(shard_ids.tolist(),
                                         starts.tolist(), stops.tolist()):
            shard = self.shards[shard_id]
            tables = shard.tables
            lo = int(offsets_s[start])
            hi = int(offsets_s[stop - 1] + degs_s[stop - 1])
            block = slice(start, stop)
            idx = cells[lo:hi] + np.repeat(
                np.take(tables.indptr, ents_s[block] - shard.start)
                - offsets_s[block], degs_s[block])
            np.take(tables.rels, idx, out=rels_s[lo:hi])
            np.take(tables.tails, idx, out=tails_s[lo:hi])
            if metrics is not None:
                metrics.count(gather_shard_counter(shard_id), stop - start)
        source = np.empty_like(offsets)
        source[order] = offsets_s
        back = cells + np.repeat(source - offsets, degs)
        if metrics is not None:
            metrics.count("gather_calls_total")
            metrics.count("gather_multi_total")
            metrics.count("gather_rows_total", len(entities))
        return np.take(rels_s, back), np.take(tails_s, back)

    # ------------------------------------------------------------------
    # Flat compatibility view
    # ------------------------------------------------------------------
    def to_flat(self) -> ShardTables:
        """Materialize the monolithic flat bundle (O(E) — oracle/export
        use only; the hot path never calls this)."""
        rels = np.concatenate(
            [np.zeros(1, dtype=np.int32)]
            + [shard.tables.rels[1:] for shard in self.shards])
        tails = np.concatenate(
            [np.zeros(1, dtype=np.int32)]
            + [shard.tables.tails[1:] for shard in self.shards])
        indptr = np.concatenate(
            [[1], 1 + np.cumsum(self.degrees)]).astype(np.int32)
        return ShardTables(indptr, rels, tails, self.degrees)

    def __repr__(self) -> str:
        return (f"ShardedCSR(shards={self.num_shards}, "
                f"entities={self.num_entities}, edges={self.num_edges}, "
                f"epochs={self.epochs()})")
