"""MDP environment over the session knowledge graph (paper §III-B-2).

States are (session, current KG position) pairs; the *action space* of
an entity is its outgoing edge set minus already-visited entities
(self-loops back along the path are forbidden); transitions are
deterministic (Eq. 10).

This module owns the vectorized action-space construction.  The capped
adjacency (pruned to ``action_cap`` edges PGPR-style) is one immutable
CSR bundle (:class:`repro.graphstore.CSRTables`): ``indptr`` /
``rels`` / ``tails`` / ``degrees`` int32 arrays with a cached content
digest.

A frontier's action space has one layout, the **flat frontier** of
:meth:`KGEnvironment.flat_actions`: its legal actions as
``(row_of, rels, tails)`` cells in row-major order, sized by the
number of legal actions — one store gather per hop, no Python loop
over the frontier.  :meth:`REKSAgent.walk` expands it, in training
and in inference alike.
``actions_of`` is two O(1) slices, and
``batched_actions`` is a padded ``(N, A)`` view scattered from the same
cells, for callers that read a grid.

A **staged edge overlay** (:meth:`KGEnvironment.stage_edges` /
:meth:`KGEnvironment.compact`) lets the online subsystem append new
triples to a live environment: staged edges are visible to
``flat_actions`` (inserted after their rows' base cells) immediately,
and a periodic compaction folds them into a fresh bundle (the
base-first capped merge :func:`repro.graphstore.merge_capped`), published
with a single attribute swap so concurrent walks see either the old
bundle or the new one, never a mix.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.functional import add_at
from repro.data.loader import SessionBatch
from repro.graphstore import CSRTables
from repro.kg.builder import BuiltKG


@dataclass
class Rollout:
    """Result of walking ``path_length`` hops for a batch of sessions.

    ``entities`` has one column per visited node (hop 0 = start) and
    ``relations`` one column per hop taken.  ``session_idx`` maps every
    surviving path back to its source session row.  ``log_prob`` is the
    tensor of summed per-hop log probabilities from the one policy
    forward (on the autograd tape in grad mode, recording no graph
    under ``no_grad``; None for a dead-end or hand-built rollout);
    ``prob`` is its exponential as plain numpy.
    """

    session_idx: np.ndarray      # (P,)
    entities: np.ndarray         # (P, hops + 1)
    relations: np.ndarray        # (P, hops)
    prob: np.ndarray             # (P,)
    log_prob: Optional[object] = None  # Tensor (P,)

    @property
    def num_paths(self) -> int:
        return len(self.session_idx)

    @property
    def terminals(self) -> np.ndarray:
        return self.entities[:, -1]


def as_edge_ids(values) -> np.ndarray:
    """``values`` as a flat int64 id array; raises ``ValueError`` for a
    non-empty array that is not of an integer dtype (a float or string
    id would otherwise be truncated onto some other entity).  An empty
    list stays legal even though NumPy reads it as float64."""
    array = np.asarray(values).ravel()
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(
            f"edge ids must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` is in the sorted ``sorted_keys``."""
    if not sorted_keys.size:
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[pos] == keys


class RolloutWorkspace:
    """One walk's telemetry carrier, with an ownership check.

    The walk itself allocates its few action-count-sized arrays
    afresh; a workspace only threads the owner's telemetry through it
    (see the attributes set in ``__init__``).  It is **single-owner**:
    two concurrent walks sharing one would interleave their spans and
    frontier census.  The :meth:`checkout` / :meth:`release` hooks make
    ownership explicit — the serving executor checks its workspace out
    around every walk, and a double checkout raises.
    """

    def __init__(self) -> None:
        self._checked_out = False
        self.checkouts = 0
        # Optional telemetry attachments, threaded through the walk by
        # whoever owns the workspace: ``metrics`` is a
        # repro.telemetry MetricBlock (or None), ``spans`` a list the
        # agent appends (kind_id, t0, dur) tuples to for sampled
        # requests (or None).
        self.metrics = None
        self.spans = None
        # When set to a list, the walk appends one per-row surviving
        # path census (np.bincount over the batch) per executed hop —
        # the raw material for per-request cost attribution (see
        # repro.telemetry.trace.attribute_rows).
        self.row_frontier = None

    def checkout(self) -> "RolloutWorkspace":
        """Mark this workspace as owned by one rollout/worker.

        Raises if it is already checked out — a second concurrent user
        would mix its telemetry into the first one's.
        """
        if self._checked_out:
            raise RuntimeError(
                "RolloutWorkspace is already checked out; a workspace "
                "is single-owner — use one workspace per concurrent "
                "walk")
        self._checked_out = True
        self.checkouts += 1
        return self

    def release(self) -> None:
        """Return a checked-out workspace."""
        self._checked_out = False


class KGEnvironment:
    """CSR capped adjacency with batched action-space queries."""

    def __init__(self, built: BuiltKG, action_cap: int = 250,
                 seed: int = 0,
                 tables: Optional[CSRTables] = None) -> None:
        self.built = built
        self.kg = built.kg
        self.action_cap = action_cap
        if tables is not None:
            # Attach a precomputed bundle (e.g. shared-memory plane
            # views in a process worker) instead of re-running the
            # capping — the rng subsample below would otherwise have
            # to replay bit-exactly for rankings to match the
            # exporting parent.
            if tables.num_entities != self.kg.num_entities:
                raise ValueError(
                    f"tables cover {tables.num_entities} entities, "
                    f"this KG has {self.kg.num_entities}")
            self._csr = tables
        else:
            indptr, rels, tails = built.adjacency_csr()
            degrees = np.diff(indptr).astype(np.int64)
            rng = np.random.default_rng(seed)
            over = np.flatnonzero(degrees > action_cap)
            if over.size:
                keep = np.ones(rels.shape[0], dtype=bool)
                for entity in over:  # hubs only — a one-time build cost
                    start, stop = int(indptr[entity]), int(indptr[entity + 1])
                    # Uniform subsample keeps the relation-type mix
                    # unbiased (a head-truncation would drop whole
                    # relation blocks).
                    pick = rng.choice(stop - start, size=action_cap,
                                      replace=False)
                    pick.sort()
                    block = np.zeros(stop - start, dtype=bool)
                    block[pick] = True
                    keep[start:stop] = block
                rels, tails = rels[keep], tails[keep]
                degrees = np.minimum(degrees, action_cap)
            self._csr = CSRTables.build(degrees, rels, tails)
        # Staged edge overlay (online delta ingestion).  Edges land in
        # per-entity lists, are visible to flat_actions immediately,
        # and are folded into a fresh bundle by compact().
        # The lock covers staging and compaction; readers are lock-free
        # (they check one counter and snapshot the per-entity lists).
        # `_staged_len` doubles as the hot-path "has overlay" flag and
        # the at-cap bookkeeping; `_staged_keys` is the sorted scalar
        # (head, rel, tail) key array the vectorized dedup searches.
        self._overlay_lock = threading.Lock()
        self._staged: Dict[int, List[Tuple[int, int]]] = {}
        self._staged_len = np.zeros(self.kg.num_entities, dtype=np.int32)
        self._staged_keys = np.zeros(0, dtype=np.int64)
        self._staged_count = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    def degree(self, entity: int) -> int:
        return int(self._csr.degrees[entity])

    def actions_of(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        """(relations, tails) of one entity after capping (CSR slices).

        Includes any staged-but-uncompacted edges of ``entity`` (those
        come back as copies appended after the CSR block).
        """
        rels, tails = self._csr.slice(int(entity))
        if self._staged_count and self._staged_len[entity]:
            extras = list(self._staged.get(int(entity), ()))
            if extras:
                rels = np.concatenate(
                    [rels, np.array([r for r, _ in extras], dtype=np.int32)])
                tails = np.concatenate(
                    [tails, np.array([t for _, t in extras], dtype=np.int32)])
        return rels, tails

    # ------------------------------------------------------------------
    # Online delta ingestion: staged overlay + periodic compaction
    # ------------------------------------------------------------------
    @property
    def staged_edges(self) -> int:
        """Edges staged in the overlay, not yet compacted into CSR."""
        return self._staged_count

    def _edge_keys(self, heads: np.ndarray, rels: np.ndarray,
                   tails: np.ndarray) -> np.ndarray:
        """Scalar int64 identity of each (head, rel, tail) triple.

        Collision-free while ``num_entities**2 * num_relations < 2**63``
        — comfortably true for any int32-indexed KG this stack serves.
        """
        n_ent = np.int64(self.kg.num_entities)
        n_rel = np.int64(self.kg.num_relations)
        return (heads * n_rel + rels) * n_ent + tails

    def stage_edges(self, heads, rels, tails) -> int:
        """Stage new ``(head, relation, tail)`` edges into the overlay.

        Edges become visible to :meth:`flat_actions` /
        :meth:`actions_of` immediately (eventual within a concurrent
        call: a walk that already gathered its frontier keeps its
        snapshot).  Duplicates — against the capped CSR adjacency,
        within the overlay, and within the batch itself — are dropped,
        as are edges whose head is already at ``action_cap`` (they
        could never survive compaction, and serving them only until
        the next compaction would flip rankings with no new data);
        returns the number of edges actually staged.  Entities must
        already exist: growing the entity set online would also require
        growing the embedding tables, which is a retrain, not a delta.

        The dedup is fully vectorized: the batch heads' base edges (one
        flat gather, keys sorted) and the sorted overlay-key array each
        answer membership for every edge with one ``searchsorted`` — no
        per-edge CSR slice, no per-edge list scan.  Ids must be
        integers (see :func:`as_edge_ids`).
        """
        heads, rels, tails = (as_edge_ids(heads), as_edge_ids(rels),
                              as_edge_ids(tails))
        if not (heads.shape == rels.shape == tails.shape):
            raise ValueError("heads, rels, tails must have matching shapes")
        if heads.size == 0:
            return 0
        n_ent, n_rel = self.kg.num_entities, self.kg.num_relations
        if heads.min() < 0 or heads.max() >= n_ent \
                or tails.min() < 0 or tails.max() >= n_ent:
            raise IndexError("staged entity id out of range")
        if rels.min() < 0 or rels.max() >= n_rel:
            raise IndexError("staged relation id out of range")
        with self._overlay_lock:
            # Read the bundle under the lock: compact() also holds it,
            # so the dedup below can never run against a generation
            # older than the overlay it is staging into (a stale read
            # could re-stage a just-compacted edge and bake it into
            # the base twice at the next compaction).
            csr = self._csr
            keys = self._edge_keys(heads, rels, tails)
            # In-batch dedup: first occurrence wins, staging order kept.
            _, first = np.unique(keys, return_index=True)
            if first.size != keys.size:
                first.sort()
                heads, rels, tails = heads[first], rels[first], tails[first]
                keys = keys[first]
            # Membership vs the capped base adjacency (the batch heads'
            # edges as flat cells, keyed like the batch) and vs the
            # overlay.
            row_of, base_rels, base_tails = csr.gather_flat(heads)
            fresh = ~(_contains(np.sort(self._edge_keys(
                heads[row_of], base_rels, base_tails)), keys)
                | _contains(self._staged_keys, keys))
            if not fresh.any():
                return 0
            heads, rels, tails = heads[fresh], rels[fresh], tails[fresh]
            keys = keys[fresh]
            base_deg = np.take(csr.degrees, heads).astype(np.int64)
            # At-cap drop, order-preserving: the j-th surviving edge of
            # a head (after `existing` already-staged ones) lands only
            # if base_deg + existing + j < cap — identical to the old
            # sequential check, since the condition is monotone in j.
            order = np.argsort(heads, kind="stable")
            sorted_heads = heads[order]
            change = np.empty(sorted_heads.size, dtype=bool)
            change[0] = True
            np.not_equal(sorted_heads[1:], sorted_heads[:-1],
                         out=change[1:])
            group_start = np.flatnonzero(change)
            group_len = np.diff(np.concatenate(
                [group_start, [sorted_heads.size]]))
            pos_in_head = (np.arange(sorted_heads.size, dtype=np.int64)
                           - np.repeat(group_start, group_len))
            existing = np.take(self._staged_len,
                               sorted_heads).astype(np.int64)
            room = (base_deg[order] + existing + pos_in_head
                    < self.action_cap)
            kept = np.sort(order[room])
            if kept.size == 0:
                return 0
            heads, rels, tails = heads[kept], rels[kept], tails[kept]
            keys = keys[kept]
            for head, rel, tail in zip(heads.tolist(), rels.tolist(),
                                       tails.tolist()):
                self._staged.setdefault(head, []).append((rel, tail))
            add_at(self._staged_len, heads, 1)
            self._staged_keys = np.sort(
                np.concatenate([self._staged_keys, keys]))
            self._staged_count += int(heads.size)
            return int(heads.size)

    def compact(self) -> int:
        """Fold the staged overlay into a fresh bundle (atomic swap).

        Base + staged edges are merged per head, base edges first so
        ``action_cap`` truncation prefers the established adjacency
        (see :func:`repro.graphstore.merge_capped`).  The new
        bundle is published with a single attribute store: in-flight
        queries keep the bundle they already loaded, the next query
        sees the new one.  Returns the number of edges merged.
        """
        with self._overlay_lock:
            if not self._staged_count:
                return 0
            new_tables = self._csr.merged(*self._staged_triples_locked(),
                                          self.action_cap)
            merged = self._staged_count
            # Clear the overlay BEFORE publishing the merged bundle: a
            # lock-free reader between the two stores then misses the
            # staged edges for one query (benign eventual visibility)
            # instead of seeing them twice (duplicate actions).
            self._clear_overlay_locked()
            self._csr = new_tables
            self.compactions += 1
        return merged

    def _clear_overlay_locked(self) -> None:
        self._staged = {}
        self._staged_len = np.zeros(self.kg.num_entities, dtype=np.int32)
        self._staged_keys = np.zeros(0, dtype=np.int64)
        self._staged_count = 0

    def _staged_triples_locked(self) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
        """Flatten the overlay into ``(heads, rels, tails)`` arrays.

        The single overlay flattener (lock held): snapshots and
        compaction both derive from this, so the overlay representation
        has exactly one reader to change.
        Per-head staging order is preserved (heads grouped per dict
        entry, bucket order within).
        """
        triples = [(head, rel, tail)
                   for head, pairs in self._staged.items()
                   for rel, tail in pairs]
        if not triples:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        heads, rels, tails = (np.array(col, dtype=np.int64)
                              for col in zip(*triples))
        return heads, rels, tails

    def csr_tables(self) -> CSRTables:
        """The current immutable bundle (one atomic attribute load).

        This is the export surface of the environment: the runtime
        plane copies its arrays into OS shared memory, and worker
        processes hand equivalent zero-copy views back to
        :meth:`attach_tables`.
        """
        return self._csr

    def attach_tables(self, tables: CSRTables) -> None:
        """Atomically replace the bundle with foreign views.

        Used by process workers when the parent publishes a plane
        generation: the swap is a single attribute store, so a
        concurrent walk keeps the bundle it already loaded.  The staged
        overlay is cleared — the publisher ships its own overlay next
        to the generation, and the worker replays it afterwards.
        """
        if tables.num_entities != self.kg.num_entities:
            raise ValueError(
                f"tables cover {tables.num_entities} entities, "
                f"this KG has {self.kg.num_entities}")
        with self._overlay_lock:
            self._clear_overlay_locked()
            self._csr = tables
            self.compactions += 1

    def reset_overlay_after_fork(self) -> None:
        """Reinitialize overlay lock + staged state in a forked child.

        A fork can capture the overlay lock *held* by another parent
        thread (the child's copy would then never unlock) and the
        staged dict mid-mutation.  A child that owns its own delta
        stream — the subprocess updater re-derives edges from the
        sessions shipped to it — calls this first: fresh lock, empty
        overlay, immutable bundle untouched.
        """
        self._overlay_lock = threading.Lock()
        self._clear_overlay_locked()

    def staged_snapshot(self) -> Tuple[
            CSRTables, Tuple[np.ndarray, np.ndarray, np.ndarray], str]:
        """The bundle, its staged overlay and their fingerprint, read in
        one acquisition of the overlay lock.

        The overlay comes as ``(heads, rels, tails)`` arrays.  Lets a
        process worker replay edges that were staged but not yet
        compacted — at bootstrap, and after attaching a published
        generation — so child environments serve the same adjacency as
        the parent.  Read together, the three always describe one
        generation: a compaction cannot land between the bundle and the
        overlay it empties.
        """
        with self._overlay_lock:
            return (self._csr, self._staged_triples_locked(),
                    self._fingerprint(self._csr, self._staged_count))

    def fingerprint(self) -> str:
        """Digest of the served adjacency (bundle digest + staged count).

        Checkpoint manifests record it so a restored model can detect
        that it is being attached to a different graph than it was
        trained against.  The bundle digest is cached per generation,
        so only a compaction re-hashes.  Compaction changes the
        fingerprint; staging alone does too (via the staged-edge
        count).
        """
        return self._fingerprint(self._csr, self._staged_count)

    def _fingerprint(self, tables: CSRTables, staged_count: int) -> str:
        digest = hashlib.sha256()
        digest.update(np.int64(self.kg.num_entities).tobytes())
        digest.update(np.int64(staged_count).tobytes())
        digest.update(tables.digest().encode("ascii"))
        return digest.hexdigest()[:16]

    def flat_actions(self, entities: np.ndarray, visited: np.ndarray,
                     metrics=None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A frontier's legal actions as flat arrays — no padded grid.

        ``entities`` is the ``(N,)`` current entity per path and
        ``visited`` the ``(N, V)`` entities already on each path
        (including the current one).  Returns ``(row_of, rels,
        tails)`` where cell ``j`` is the action ``(rels[j], tails[j])``
        of frontier row ``row_of[j]``.  ``row_of`` is non-decreasing;
        within a row the capped CSR edges come first, then any
        staged-overlay edges, with visited tails removed; a row with no
        legal action has no cell.  This is what every walk hop expands
        (:meth:`REKSAgent.walk`): its size is the number of legal
        actions, not rows times the widest row.

        ``metrics`` (a ``repro.telemetry`` MetricBlock or None) picks
        up the store's gather counters.
        """
        entities = np.asarray(entities, dtype=np.int64)
        row_of, rels, tails = self._frontier(entities, metrics)
        keep = self._unvisited(row_of, tails, visited)
        return row_of[keep], rels[keep], tails[keep]

    def batched_actions(self, entities: np.ndarray, visited: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`flat_actions` as padded ``(N, A)`` grids: row ``i``
        holds entity ``i``'s actions in that order, visited tails
        included but masked out, so ``A`` is the frontier's largest
        degree (at least 1).  Returns int32 ``(relations, tails)`` and
        the legality ``mask``, padded cells 0; no walk reads it."""
        entities = np.asarray(entities, dtype=np.int64)
        row_of, rels, tails = self._frontier(entities, None)
        n = len(entities)
        counts = np.bincount(row_of, minlength=n)
        cols = np.arange(len(row_of)) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        shape = (n, max(int(counts.max(initial=0)), 1))
        grids = (np.zeros(shape, np.int32), np.zeros(shape, np.int32),
                 np.zeros(shape, bool))
        for grid, cells in zip(grids, (rels, tails, self._unvisited(
                row_of, tails, visited))):
            grid[row_of, cols] = cells
        return grids

    def _frontier(self, entities: np.ndarray, metrics
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every action of every row as flat cells, visited included."""
        row_of, rels, tails = self._csr.gather_flat(entities, metrics)
        if self._staged_count:
            row_of, rels, tails = self._append_overlay(
                entities, row_of, rels, tails)
        return row_of, rels, tails

    @staticmethod
    def _unvisited(row_of: np.ndarray, tails: np.ndarray,
                   visited: np.ndarray) -> np.ndarray:
        """Mask of the cells whose tail is not on their row's path."""
        visited = np.asarray(visited)
        keep = np.ones(len(tails), dtype=bool)
        for col in range(visited.shape[1]):  # path length, not frontier
            keep &= tails != np.take(visited[:, col], row_of)
        return keep

    def _append_overlay(self, entities: np.ndarray, row_of: np.ndarray,
                        rels: np.ndarray, tails: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert staged-overlay edges after their rows' base cells."""
        hot_rows = np.flatnonzero(np.take(self._staged_len, entities) > 0)
        # Copy each bucket: a concurrent stage_edges may append to the
        # live lists while this frontier is being assembled.
        extras = [(row, rel, tail) for row in hot_rows.tolist()
                  for rel, tail in list(self._staged.get(
                      int(entities[row]), ()))]
        if not extras:
            return row_of, rels, tails
        rows, extra_rels, extra_tails = (
            np.array(col, dtype=np.int64) for col in zip(*extras))
        # Equal insert positions keep their given order, so a row's
        # staged edges land after its base block, in staging order.
        at = np.searchsorted(row_of, rows, side="right")
        return (np.insert(row_of, at, rows),
                np.insert(rels, at, extra_rels),
                np.insert(tails, at, extra_tails))

    # ------------------------------------------------------------------
    def start_entities(self, batch: SessionBatch, start_from: str) -> np.ndarray:
        """Hop-0 entities: the last item of every prefix, or the user."""
        if start_from == "last_item":
            return self.built.entities_of_items(batch.last_items)
        if start_from == "user":
            if self.built.user_entity is None:
                raise ValueError(
                    "start_from='user' requires a KG built with users "
                    "(include_users=True and an Amazon-domain dataset)")
            if (batch.users < 0).any():
                raise ValueError("start_from='user' needs every row's "
                                 "user id")
            return self.built.user_entity[batch.users]
        raise ValueError(f"unknown start_from {start_from!r}")
