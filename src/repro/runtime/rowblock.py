"""A flush's answers as one struct of arrays, and the one row selection.

A :class:`RowBlock` holds what a micro-batch answers with — per row
its ranked items, their scores and each item's best KG path — in
exactly the sections the response payload is made of
(:func:`repro.runtime.rings.encode_response`), so the in-memory value
*is* the wire body: the ring writes the arrays with ``tobytes`` and
reads them back as ``frombuffer`` views, the pipe pickles the same
six arrays, and thread mode hands the block straight to the server's
respond step, which cuts its ``ServedResult`` tuples straight from
the flat sections (:meth:`RowBlock.path_blobs` decodes the paths).
:meth:`RowBlock.to_rows` is the list-of-rows form ``pool.execute`` and
``decode_response`` answer with.

:func:`select_rows` is the only place a row's top-k is cut from its
score row, and :func:`repro.runtime.flush.execute_flush` its only
serving caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.agent import _top_k
from repro.kg.paths import take_paths

_I32 = np.dtype("<i4")
_F64 = np.dtype("<f8")


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

    def path_blobs(self) -> List[Optional[tuple]]:
        """Every cell's path as ``(entities, relations, prob)`` plain
        lists and a float, or None — the path sections decoded once,
        in cell order."""
        nodes = self.path_nodes.tolist()
        probs = iter(self.probs.tolist())
        blobs: List[Optional[tuple]] = []
        stop = 0
        for length in self.path_len.tolist():
            if length < 0:
                blobs.append(None)
                continue
            mid = stop + length + 1
            start, stop = stop, mid + length
            blobs.append((nodes[start:mid], nodes[mid:stop], next(probs)))
        return blobs

    def to_rows(self) -> List[tuple]:
        """Inverse of :meth:`from_rows`: plain lists, floats and ints.

        Each section becomes a Python list once and rows are slices of
        those lists — no per-item array access.
        """
        blobs = self.path_blobs()
        items, scores = self.items.tolist(), self.scores.tolist()
        rows = []
        start = 0
        for k in self.ks.tolist():
            stop = start + k
            rows.append((items[start:stop], scores[start:stop],
                         blobs[start:stop]))
            start = stop
        return rows


def select_rows(sources: Sequence[tuple], plan: Sequence[Tuple[int, int]],
                ranked: Optional[Sequence[Optional[np.ndarray]]] = None,
                ranked_k: int = 0) -> RowBlock:
    """Cut every answer row of a flush from its walked score row.

    ``sources[u]`` is unique walk row ``u``'s ``(scores_row,
    path_row)`` — the full dense score row and the row's
    :class:`~repro.kg.paths.PathRow` (a walk-memo entry, or the same
    pair made from a fresh ``Recommendations``); ``plan`` lists one
    ``(u, k)`` pair per block row.  ``ranked[u]``, where given, is the
    ranking the walk itself made for ``u`` at ``ranked_k``: a row
    asked for exactly that ``k`` reuses it.  Every other row (a
    smaller ``k``, a memo hit) is re-selected by one :func:`_top_k`
    per distinct ``k`` over those rows stacked — ``_top_k`` partitions
    each row independently, so both are bit-identical to a dedicated
    walk's own selection (a prefix of a larger-``k`` ranking is not:
    its tie order can depend on the partition point).
    """
    picks: List[Optional[np.ndarray]] = [None] * len(plan)
    redo: Dict[int, List[int]] = {}
    for r, (u, k) in enumerate(plan):
        if k == ranked_k and ranked is not None and ranked[u] is not None:
            picks[r] = ranked[u]
        else:
            redo.setdefault(k, []).append(r)
    for k, rows in redo.items():
        stacked = np.array([sources[plan[r][0]][0] for r in rows])
        for r, pick in zip(rows, _top_k(stacked, k)):
            picks[r] = pick
    ks = np.array([len(pick) for pick in picks], dtype=_I32)
    items = np.concatenate(picks)
    scores = np.concatenate(
        [sources[u][0][pick] for (u, _), pick in zip(plan, picks)])
    path_len, path_nodes, probs = take_paths(
        [sources[u][1] for u, _ in plan], ks, items)
    return RowBlock(ks, items.astype(_I32), scores, path_len, path_nodes,
                    probs)
