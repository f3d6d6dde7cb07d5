"""Semantic path datatypes and rendering (paper §III-A, §IV-C)."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

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
        self._entities = entities[best]
        self._relations = relations[best]
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
        return (self._entities[slot].tolist(),
                self._relations[slot].tolist(), float(self._prob[slot]))

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
        blobs = zip(self._entities[found].tolist(),
                    self._relations[found].tolist(),
                    self._prob[found].tolist())
        return [None if slot is None else next(blobs) for slot in slots]

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

    def row(self, row: int) -> "PathRow":
        """The paths of one batch row, keyed by item."""
        return PathRow(self, int(row))


class PathRow:
    """One row of a :class:`PathTable`: ``item -> best path``.

    What the serving layer keeps per walked row (and stores in the
    walk memo): ``take`` lists the plain ``(entities, relations,
    prob)`` tuples of a ranking's items — what process workers put on
    the wire and the server builds its :class:`SemanticPath` values
    from; ``get`` / ``blob`` answer for one item.  It holds the whole
    table alive, which a flush's rows share.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: PathTable, row: int) -> None:
        self._table = table
        self._row = row

    def get(self, item: int) -> Optional[SemanticPath]:
        return self._table.get((self._row, item))

    def blob(self, item: int) -> Optional[tuple]:
        return self._table.blob(self._row, item)

    def take(self, items) -> List[Optional[tuple]]:
        return self._table.take(self._row, items)


def render_path(path: SemanticPath, kg: KnowledgeGraph) -> str:
    """Human-readable arrow form used in the case studies (Fig. 10)."""
    parts = [kg.entity_name(path.entities[0])]
    for rel, ent in zip(path.relations, path.entities[1:]):
        parts.append(f"--{kg.relation_names[rel]}-->")
        parts.append(kg.entity_name(ent))
    return " ".join(parts)


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
