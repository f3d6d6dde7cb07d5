"""Typed knowledge-graph store with CSR adjacency.

Entities are globally numbered; each entity type owns a contiguous id
range so type membership is an O(1) range check.  Triples are finalized
into a CSR layout (offsets + relation/tail arrays sorted by head) so the
REKS environment can fetch an entity's outgoing action space as two
numpy slices without any Python-level iteration.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class KnowledgeGraph:
    """A directed multigraph ``(head, relation, tail)`` with typed entities."""

    def __init__(self) -> None:
        self.entity_type_names: List[str] = []
        self._type_ranges: Dict[str, Tuple[int, int]] = {}  # name -> (start, count)
        # Range starts in registration (= ascending id) order, parallel
        # to entity_type_names: local_id bisects them.
        self._type_starts: List[int] = []
        self.relation_names: List[str] = []
        self._relation_ids: Dict[str, int] = {}
        self.num_entities = 0
        self._heads: List[np.ndarray] = []
        self._rels: List[np.ndarray] = []
        self._tails: List[np.ndarray] = []
        self._finalized = False
        self._offsets: Optional[np.ndarray] = None
        self._adj_rels: Optional[np.ndarray] = None
        self._adj_tails: Optional[np.ndarray] = None
        self.entity_names: Dict[int, str] = {}
        # Label tables for rendering, filled on first use: the
        # ``type:local`` label of entities without a stored name, and
        # one ``--relation-->`` arrow per relation.
        self._fallback_names: Dict[int, str] = {}
        self._arrows: List[str] = []

    # ------------------------------------------------------------------
    # Schema construction
    # ------------------------------------------------------------------
    def add_entity_type(self, name: str, count: int) -> Tuple[int, int]:
        """Register ``count`` entities of a new type; returns (start, count)."""
        if self._finalized:
            raise RuntimeError("cannot add entity types after finalize()")
        if name in self._type_ranges:
            raise ValueError(f"entity type {name!r} already registered")
        start = self.num_entities
        self._type_ranges[name] = (start, count)
        self.entity_type_names.append(name)
        self._type_starts.append(start)
        self.num_entities += count
        return start, count

    def add_relation(self, name: str) -> int:
        """Register (or fetch) a relation id by name."""
        if name not in self._relation_ids:
            self._relation_ids[name] = len(self.relation_names)
            self.relation_names.append(name)
        return self._relation_ids[name]

    def relation_id(self, name: str) -> int:
        return self._relation_ids[name]

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    # ------------------------------------------------------------------
    # Entity id helpers
    # ------------------------------------------------------------------
    def entity_id(self, type_name: str, local_id: int) -> int:
        start, count = self._type_ranges[type_name]
        if not 0 <= local_id < count:
            raise IndexError(
                f"{type_name} local id {local_id} out of range [0, {count})"
            )
        return start + local_id

    def local_id(self, entity: int) -> Tuple[str, int]:
        """Inverse of :meth:`entity_id`."""
        if not 0 <= entity < self.num_entities:
            raise IndexError(f"entity {entity} out of range")
        # The last type starting at or before the entity: ranges are
        # contiguous, so that is its owner (an empty type shares its
        # start with the next one and is never the last such).
        index = bisect_right(self._type_starts, entity) - 1
        return (self.entity_type_names[index],
                entity - self._type_starts[index])

    def entity_type(self, entity: int) -> str:
        return self.local_id(entity)[0]

    def type_range(self, type_name: str) -> Tuple[int, int]:
        return self._type_ranges[type_name]

    def is_type(self, entity, type_name: str):
        """Vectorized type check (works on scalars and arrays)."""
        start, count = self._type_ranges[type_name]
        entity = np.asarray(entity)
        return (entity >= start) & (entity < start + count)

    def count_entities_of_type(self, type_name: str) -> int:
        return self._type_ranges[type_name][1]

    def entity_name(self, entity: int) -> str:
        name = self.entity_names.get(entity)
        if name is None:
            name = self._fallback_names.get(entity)
            if name is None:
                # An id's range is fixed when its type is registered,
                # so the label can be kept.
                type_name, local = self.local_id(entity)
                name = self._fallback_names[entity] = f"{type_name}:{local}"
        return name

    @property
    def relation_arrows(self) -> List[str]:
        """``--name-->`` per relation id, as paths render a hop."""
        if len(self._arrows) != len(self.relation_names):
            self._arrows = [f"--{name}-->" for name in self.relation_names]
        return self._arrows

    # ------------------------------------------------------------------
    # Triples
    # ------------------------------------------------------------------
    def add_triples(self, heads: Sequence[int], relation: int,
                    tails: Sequence[int]) -> None:
        """Append a block of triples sharing one relation id."""
        if self._finalized:
            raise RuntimeError("cannot add triples after finalize()")
        heads = np.asarray(heads, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        if heads.shape != tails.shape:
            raise ValueError("heads and tails must have matching shapes")
        if heads.size == 0:
            return
        if heads.min() < 0 or heads.max() >= self.num_entities:
            raise IndexError("head entity id out of range")
        if tails.min() < 0 or tails.max() >= self.num_entities:
            raise IndexError("tail entity id out of range")
        self._heads.append(heads)
        self._rels.append(np.full(heads.shape, relation, dtype=np.int64))
        self._tails.append(tails)

    def finalize(self, dedupe: bool = True) -> None:
        """Freeze the triple set and build CSR adjacency."""
        if self._finalized:
            return
        if self._heads:
            heads = np.concatenate(self._heads)
            rels = np.concatenate(self._rels)
            tails = np.concatenate(self._tails)
        else:
            heads = rels = tails = np.zeros(0, dtype=np.int64)
        if dedupe and heads.size:
            combined = np.stack([heads, rels, tails], axis=1)
            combined = np.unique(combined, axis=0)
            heads, rels, tails = combined[:, 0], combined[:, 1], combined[:, 2]
        order = np.argsort(heads, kind="stable")
        heads, rels, tails = heads[order], rels[order], tails[order]
        counts = np.bincount(heads, minlength=self.num_entities)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._adj_rels = rels
        self._adj_tails = tails
        self._heads_flat = heads
        self._finalized = True

    @property
    def num_triples(self) -> int:
        self._require_finalized()
        return int(self._adj_tails.shape[0])

    def triples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (head, relation, tail) arrays; finalize() first."""
        self._require_finalized()
        return self._heads_flat, self._adj_rels, self._adj_tails

    def adjacency_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, rels, tails)`` — the finalized CSR arrays.

        Views of the internal adjacency (no copy): entity ``e``'s
        outgoing edges are ``rels[offsets[e]:offsets[e + 1]]`` /
        ``tails[offsets[e]:offsets[e + 1]]``, in finalize order.
        """
        self._require_finalized()
        return self._offsets, self._adj_rels, self._adj_tails

    def neighbors(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        """Outgoing ``(relations, tails)`` of ``entity`` (views, no copy)."""
        self._require_finalized()
        start, stop = self._offsets[entity], self._offsets[entity + 1]
        return self._adj_rels[start:stop], self._adj_tails[start:stop]

    def out_degree(self, entity: int) -> int:
        self._require_finalized()
        return int(self._offsets[entity + 1] - self._offsets[entity])

    def count_edges_for_relation(self, relation: int) -> int:
        self._require_finalized()
        return int((self._adj_rels == relation).sum())

    def has_edge(self, head: int, relation: int, tail: int) -> bool:
        rels, tails = self.neighbors(head)
        return bool(((rels == relation) & (tails == tail)).any())

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("call finalize() before querying the graph")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        triples = self.num_triples if self._finalized else sum(
            h.size for h in self._heads)
        return (f"KnowledgeGraph(entities={self.num_entities}, "
                f"relations={self.num_relations}, triples={triples})")
