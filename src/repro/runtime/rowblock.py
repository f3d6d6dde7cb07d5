"""A flush's answers as one struct of arrays, and the one row selection.

A :class:`RowBlock` holds what a micro-batch answers with — per row
its ranked items, their scores and each item's best KG path — in
exactly the sections the response payload is made of
(:func:`repro.runtime.rings.encode_response`), so the in-memory value
*is* the wire body: the ring writes the arrays with ``tobytes`` and
reads them back as ``frombuffer`` views, the pipe pickles the same
six arrays, and thread mode hands the block straight to the server's
respond step.  That step cuts its ``ServedResult`` item / score tuples
from the flat sections and leaves the paths as they are: each row's
slice of the three path sections goes into the row's result as one
:class:`PathColumn` (:meth:`RowBlock.path_columns`), which builds
``SemanticPath`` values only when somebody reads them, and a request
for fewer items than the row ranks reads its ``head(k)``.
:meth:`RowBlock.to_rows` is the list-of-rows form ``pool.execute`` and
``decode_response`` answer with; it and the column decode through the
one :func:`decode_paths`, which cuts the node section where the
respond step's renderer does (:func:`path_slices`).

:func:`select_rows` is the only place an answer row is cut from a
walk's ranking — a prefix of it, never a re-selection — and
:func:`repro.runtime.flush.execute_flush` its only serving caller.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kg.paths import SemanticPath, take_paths

_I32 = np.dtype("<i4")
_F64 = np.dtype("<f8")


def path_slices(path_len: np.ndarray, path_nodes: np.ndarray
                ) -> Iterator[Optional[Tuple[List[int], List[int]]]]:
    """Each cell's ``(entities, relations)`` as plain-list slices of
    the flat node section, None for a cell without a path
    (``path_len`` -1), in cell order."""
    nodes = path_nodes.tolist()
    stop = 0
    for length in path_len.tolist():
        if length < 0:
            yield None
            continue
        mid = stop + length + 1
        start, stop = stop, mid + length
        yield nodes[start:mid], nodes[mid:stop]


def decode_paths(path_len: np.ndarray, path_nodes: np.ndarray,
                 probs: np.ndarray) -> List[Optional[tuple]]:
    """Every cell's path as ``(entities, relations, prob)`` plain
    lists and a float, or None — the three path sections (a block's,
    or one row's slice of them) decoded once, in cell order."""
    prob = iter(probs.tolist())
    return [None if cut is None else (*cut, next(prob))
            for cut in path_slices(path_len, path_nodes)]


def _frozen_copy(section: np.ndarray, dtype: np.dtype) -> np.ndarray:
    section = np.array(section, dtype=dtype)
    section.flags.writeable = False
    return section


class PathColumn(abc.Sequence):
    """One answer row's paths, kept as the block's three sections.

    A read-only sequence of ``Optional[SemanticPath]``: ``len``,
    iteration, an int index and ``==`` (against a tuple or another
    column) decode on read, so every reader gets fresh, private
    ``SemanticPath`` values — mutating one cannot change what the
    next reader (a later cache hit) sees — and a slice is a plain
    tuple.  Held in a ``ServedResult`` in place of a tuple of
    objects: one GC-tracked object per answer instead of three per
    path.

    The constructor **copies** its sections (a row is ~50 ``int32``
    + 10 ``float64``) and marks them read-only: a view would keep
    the whole flush's block — in process mode the whole response
    payload — alive for as long as the row sits in a cache.
    """

    __slots__ = ("path_len", "path_nodes", "probs")

    def __init__(self, path_len: np.ndarray, path_nodes: np.ndarray,
                 probs: np.ndarray) -> None:
        self.path_len = _frozen_copy(path_len, _I32)
        self.path_nodes = _frozen_copy(path_nodes, _I32)
        self.probs = _frozen_copy(probs, _F64)

    def __reduce__(self):
        return PathColumn, (self.path_len, self.path_nodes, self.probs)

    def head(self, k: int) -> "PathColumn":
        """The first ``k`` cells, nothing decoded and nothing copied:
        a column over a view of this one's ``path_len`` and its other
        two arrays whole (:func:`decode_paths` reads only the nodes
        and probabilities ``path_len`` names, so the unread tail is
        harmless and cutting it would be two more array slices on the
        cache-hit path); this column itself when it has no more than
        ``k``."""
        if k >= len(self.path_len):
            return self
        head = object.__new__(PathColumn)
        head.path_len = self.path_len[:k]
        head.path_nodes = self.path_nodes
        head.probs = self.probs
        return head

    def decode(self) -> Tuple[Optional[SemanticPath], ...]:
        """The column as a tuple of fresh ``SemanticPath`` values."""
        return tuple(
            None if blob is None else SemanticPath(*blob)
            for blob in decode_paths(self.path_len, self.path_nodes,
                                     self.probs))

    def __len__(self) -> int:
        return len(self.path_len)

    def __iter__(self) -> Iterator[Optional[SemanticPath]]:
        return iter(self.decode())

    def __getitem__(self, index: Union[int, slice]):
        return self.decode()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, PathColumn):
            other = other.decode()
        if isinstance(other, tuple):
            return self.decode() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PathColumn({self.decode()!r})"


@dataclass(frozen=True, eq=False)
class RowBlock:
    """``n`` answer rows over ``K = ks.sum()`` ranked cells.

    ``path_len[c]`` is cell ``c``'s path's relation count (-1: the
    item carries no path); ``path_nodes`` concatenates each present
    path's entities (``len + 1``) then relations (``len``) in cell
    order; ``probs`` has one entry per present path.
    """

    ks: np.ndarray          # int32 (n,)
    items: np.ndarray       # int32 (K,)
    scores: np.ndarray      # float64 (K,)
    path_len: np.ndarray    # int32 (K,)
    path_nodes: np.ndarray  # int32, flat
    probs: np.ndarray       # float64 (present paths,)

    def __len__(self) -> int:
        return len(self.ks)

    def _sections(self) -> Tuple[np.ndarray, ...]:
        return (self.ks, self.items, self.scores, self.path_len,
                self.path_nodes, self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RowBlock):
            return NotImplemented
        # bytes, not values: a score's float64 bits are part of the
        # transport contract.
        return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(self._sections(), other._sections()))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "RowBlock":
        """The block of ``(items, scores, path_blobs)`` list rows,
        ``path_blobs[i]`` being ``None`` or ``(entities, relations,
        prob)``."""
        items: List[int] = []
        scores: List[float] = []
        path_len: List[int] = []
        path_nodes: List[int] = []
        probs: List[float] = []
        for row_items, row_scores, row_paths in rows:
            items += row_items
            scores += row_scores
            for blob in row_paths:
                if blob is None:
                    path_len.append(-1)
                    continue
                entities, relations, prob = blob
                path_len.append(len(relations))
                path_nodes += entities
                path_nodes += relations
                probs.append(prob)
        return cls(np.array([len(row[0]) for row in rows], dtype=_I32),
                   np.array(items, dtype=_I32),
                   np.array(scores, dtype=_F64),
                   np.array(path_len, dtype=_I32),
                   np.array(path_nodes, dtype=_I32),
                   np.array(probs, dtype=_F64))

    def path_columns(self) -> List[PathColumn]:
        """Each row's paths as one :class:`PathColumn`: its slice of
        the three path sections, copied out of the block."""
        path_len = self.path_len
        present = path_len >= 0
        cells = [0] + np.cumsum(self.ks).tolist()
        nodes = [0] + np.cumsum(
            np.where(present, 2 * path_len + 1, 0)).tolist()
        slots = [0] + np.cumsum(present).tolist()
        return [PathColumn(path_len[c0:c1],
                           self.path_nodes[nodes[c0]:nodes[c1]],
                           self.probs[slots[c0]:slots[c1]])
                for c0, c1 in zip(cells, cells[1:])]

    def to_rows(self) -> List[tuple]:
        """Inverse of :meth:`from_rows`: plain lists, floats and ints.

        Each section becomes a Python list once and rows are slices of
        those lists — no per-item array access.
        """
        blobs = decode_paths(self.path_len, self.path_nodes, self.probs)
        items, scores = self.items.tolist(), self.scores.tolist()
        rows = []
        start = 0
        for k in self.ks.tolist():
            stop = start + k
            rows.append((items[start:stop], scores[start:stop],
                         blobs[start:stop]))
            start = stop
        return rows


def select_rows(rec, plan: Sequence[Tuple[int, int]]) -> RowBlock:
    """Cut every answer row of a flush from its walk's rankings.

    ``rec`` is the flush's ``Recommendations`` — rankings at the walk's
    ``k`` — and ``plan`` lists one ``(u, k)`` pair per block row, ``k``
    at most the walk's.  Row ``(u, k)`` is the first ``k`` of walk row
    ``u``'s ranking: :func:`~repro.core.agent._top_k` is a total
    order, so that prefix *is* the top-``k``.
    """
    picks = [rec.ranked_items[u][:k] for u, k in plan]
    ks = np.array([len(pick) for pick in picks], dtype=_I32)
    items = np.concatenate(picks)
    walk_rows = np.repeat(np.array([u for u, _ in plan], dtype=np.intp),
                          ks)
    path_len, path_nodes, probs = take_paths(
        [rec.paths.row(u) for u, _ in plan], ks, items)
    return RowBlock(ks, items.astype(_I32), rec.scores[walk_rows, items],
                    path_len, path_nodes, probs)
