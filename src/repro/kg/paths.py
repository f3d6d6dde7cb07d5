"""Semantic path datatypes and rendering (paper §III-A, §IV-C)."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph


@dataclass
class SemanticPath:
    """A KG path ``e0 -r1-> e1 -r2-> ... -rh-> eh`` with its probability.

    ``prob`` is the product of per-step policy probabilities (the beam
    score); ``reward`` is the composite RL reward when computed.
    """

    entities: List[int]
    relations: List[int]
    prob: float = 0.0
    reward: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.entities) != len(self.relations) + 1:
            raise ValueError(
                f"path with {len(self.entities)} entities needs "
                f"{len(self.entities) - 1} relations, got {len(self.relations)}"
            )

    @property
    def terminal(self) -> int:
        return self.entities[-1]

    @property
    def hops(self) -> int:
        return len(self.relations)

    def pattern(self, kg: KnowledgeGraph) -> Tuple[str, ...]:
        """The relation-name signature, e.g. ('belong_to', 'belong_to')."""
        return tuple(kg.relation_names[r] for r in self.relations)

    def is_simple(self) -> bool:
        """True when no entity repeats (the MDP's visited-set invariant)."""
        return len(set(self.entities)) == len(self.entities)

    def render(self, kg: KnowledgeGraph) -> str:
        return render_path(self, kg)


class PathTable(Mapping):
    """Best path per ``(row, item)``, held as arrays.

    Given a batch's walked paths (source row, terminal item, entity and
    relation history, probability per path), keeps the most probable
    path of every ``(row, item)`` pair — the lowest path index on an
    exact probability tie — and skips paths ending at a non-item
    entity (``items == 0``).  The selection is one stable ``lexsort``;
    a :class:`SemanticPath` is only built when a key is looked up, so
    a caller pays for the explanations it reads, not for every path the
    walk kept.

    Keys iterate in ``(row, item)`` order.  As a ``Mapping`` it
    compares equal to a dict with the same paths (an empty rollout
    ``== {}``).

    Two ways out besides the mapping protocol: :meth:`blob` /
    :meth:`take` give plain-list ``(entities, relations, prob)`` tuples
    for one item or one row's items; :meth:`take_block` answers a whole
    flush of ``(row, item)`` cells as arrays — what serving uses (see
    :func:`repro.runtime.rowblock.select_rows`).
    """

    def __init__(self, rows: np.ndarray, items: np.ndarray,
                 entities: np.ndarray, relations: np.ndarray,
                 prob: np.ndarray, n_items: int) -> None:
        self._stride = int(n_items) + 1
        keep = np.flatnonzero(items)
        keys = rows[keep].astype(np.int64) * self._stride + items[keep]
        # Stable sort by (key, -prob): the first path of each key run
        # is its most probable one, earliest index on ties.
        order = np.lexsort((-prob[keep], keys))
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        best = keep[order[first]]
        self._keys = keys[first]
        # Each kept path as one row, entities then relations: the form
        # it has in a response payload.
        self._hops = relations.shape[1]
        self._nodes = np.concatenate(
            [entities[best], relations[best]], axis=1, dtype=np.int32,
            casting="unsafe")
        self._prob = prob[best]
        self._index: Optional[Dict[int, int]] = None

    def _probes(self) -> Dict[int, int]:
        index = self._index
        if index is None:
            # Built on first lookup; a concurrent first lookup builds
            # an identical dict, so the race is benign.
            index = self._index = {
                key: slot for slot, key in enumerate(self._keys.tolist())}
        return index

    def _slot(self, row: int, item: int) -> Optional[int]:
        if not 0 < item < self._stride:
            return None
        return self._probes().get(row * self._stride + item)

    def blob(self, row: int, item: int) -> Optional[tuple]:
        """``(entities, relations, prob)`` as plain lists and a float
        (the wire form process workers send), or None."""
        slot = self._slot(int(row), int(item))
        if slot is None:
            return None
        nodes = self._nodes[slot].tolist()
        return (nodes[:self._hops + 1], nodes[self._hops + 1:],
                float(self._prob[slot]))

    def take(self, row: int, items) -> List[Optional[tuple]]:
        """:meth:`blob` of ``(row, item)`` for each of ``items``, in
        order: one index probe per item, then one array-to-list
        conversion per field for the whole selection instead of three
        per item."""
        probe, stride = self._probes().get, self._stride
        base = int(row) * stride
        slots = [probe(base + item) if 0 < item < stride else None
                 for item in items]
        found = np.array([slot for slot in slots if slot is not None],
                         dtype=np.intp)
        cut = self._hops + 1
        blobs = ((nodes[:cut], nodes[cut:], prob) for nodes, prob
                 in zip(self._nodes[found].tolist(),
                        self._prob[found].tolist()))
        return [None if slot is None else next(blobs) for slot in slots]

    def take_block(self, rows: np.ndarray, items: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`blob` of every ``(rows[c], items[c])`` cell at once.

        Returns ``(found, nodes, probs)``: ``found`` marks the cells
        that have a path; ``nodes[f]`` is the f-th found cell's
        ``entities`` followed by its ``relations`` (one ``2h + 1``-wide
        int32 row per path of ``h`` hops) and ``probs[f]`` its
        probability.  One ``searchsorted`` over the table's sorted
        keys — no per-item probe, no lists.
        """
        if not len(self._keys):
            return (np.zeros(len(items), dtype=bool), self._nodes,
                    self._prob)
        items = np.asarray(items, dtype=np.int64)
        keys = np.asarray(rows, dtype=np.int64) * self._stride + items
        slots = np.searchsorted(self._keys, keys)
        np.minimum(slots, len(self._keys) - 1, out=slots)
        found = ((self._keys[slots] == keys) & (items > 0)
                 & (items < self._stride))
        slots = slots[found]
        return found, self._nodes[slots], self._prob[slots]

    def get(self, key: Tuple[int, int], default=None):
        blob = self.blob(*key)
        if blob is None:
            return default
        return SemanticPath(entities=blob[0], relations=blob[1],
                            prob=blob[2])

    def __getitem__(self, key: Tuple[int, int]) -> SemanticPath:
        path = self.get(key)
        if path is None:
            raise KeyError(key)
        return path

    def __contains__(self, key) -> bool:
        row, item = key
        return self._slot(int(row), int(item)) is not None

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for key in self._keys.tolist():
            yield divmod(key, self._stride)

    def __len__(self) -> int:
        return len(self._keys)


def join_path(entities: Sequence[int], relations: Sequence[int],
              kg: KnowledgeGraph) -> str:
    """The arrow form of ``entities[0] -relations[0]-> entities[1]
    ...``: the one formatter, for a :class:`SemanticPath`'s fields or
    slices of a flat node list alike."""
    name, arrows = kg.entity_name, kg.relation_arrows
    parts = [name(entities[0])]
    for rel, ent in zip(relations, entities[1:]):
        parts.append(arrows[rel])
        parts.append(name(ent))
    return " ".join(parts)


def render_path(path: SemanticPath, kg: KnowledgeGraph) -> str:
    """Human-readable arrow form used in the case studies (Fig. 10)."""
    return join_path(path.entities, path.relations, kg)


def path_diversity(paths: List[SemanticPath], kg: KnowledgeGraph) -> float:
    """Fraction of distinct relation patterns among ``paths`` (extension)."""
    if not paths:
        return 0.0
    patterns = {p.pattern(kg) for p in paths}
    return len(patterns) / len(paths)


def mean_path_embedding(entity_table: np.ndarray, relation_table: np.ndarray,
                        path: SemanticPath) -> np.ndarray:
    """``P = mean(x_e0, x_r1, ..., x_rT, x_eT)`` (Eq. 9)."""
    rows = [entity_table[path.entities[0]]]
    for rel, ent in zip(path.relations, path.entities[1:]):
        rows.append(relation_table[rel])
        rows.append(entity_table[ent])
    return np.mean(rows, axis=0)
