"""The CSR graph store: one immutable bundle of the capped adjacency.

A :class:`CSRTables` owns the ``(indptr, rels, tails, degrees)`` int32
arrays of one generation of the capped KG adjacency, a lazily computed
content ``digest()`` (cached on the immutable bundle, so a generation
hashes once), and the two queries the walk hot path makes:
:meth:`CSRTables.gather_flat` (a frontier's edges as flat
``(row_of, rels, tails)`` cells with no padding, one gather per hop)
and :meth:`CSRTables.slice` (one entity's edge block).  Compaction
builds a new bundle (:meth:`CSRTables.merged`, which runs
:func:`merge_capped` over the whole bundle) and the owning environment
publishes it with one attribute swap.

Merge semantics (pinned by the online staging tests): edges are grouped
by head with **base edges first** within each head — the established
adjacency wins — then the action cap is re-applied by
position-within-head, so staged extras are the ones truncated on
entities already at the cap.  Within a head, staged extras keep their
staging order.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def merge_capped(n_heads: int, base_degrees: np.ndarray,
                 base_rels: np.ndarray, base_tails: np.ndarray,
                 extra_heads: np.ndarray, extra_rels: np.ndarray,
                 extra_tails: np.ndarray, action_cap: int) -> Arrays:
    """Merge base + staged edges over heads ``0..n_heads-1``.

    ``base_*`` is the existing capped adjacency (raw flat arrays, no
    sentinel slot, sorted by head); ``extra_*`` the staged overlay.
    Returns ``(degrees, rels, tails)`` in the same raw layout,
    head-sorted, base-first per head, re-capped.
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


class CSRTables:
    """One immutable generation of the capped adjacency.

    Slot 0 of the flat ``rels``/``tails`` arrays is a zero sentinel;
    real edges start at 1, so ``indptr`` is offset by one — the layout
    the plane segment and the content digest share.  int32 throughout:
    it halves the memory traffic of the per-hop gathers, and no KG here
    approaches 2^31 entities or edges.

    ``digest()`` is a content hash of the bundle, computed once and
    cached, so generation identity is stable across processes (a worker
    attaching the same bytes from shared memory reports the same digest
    as the publisher).
    """

    ARRAYS = ("indptr", "rels", "tails", "degrees")

    __slots__ = ARRAYS + ("_digest",)

    def __init__(self, indptr: np.ndarray, rels: np.ndarray,
                 tails: np.ndarray, degrees: np.ndarray,
                 digest: Optional[str] = None) -> None:
        self.indptr = indptr    # (n + 1,) int32, offset by the sentinel
        self.rels = rels        # flat int32, slot 0 is the zero sentinel
        self.tails = tails      # flat int32, slot 0 is the zero sentinel
        self.degrees = degrees  # (n,) int32 capped out-degrees
        self._digest = digest

    @classmethod
    def build(cls, degrees: np.ndarray, rels: np.ndarray,
              tails: np.ndarray) -> "CSRTables":
        """Pack a head-sorted flat adjacency (no sentinel): prepend the
        zero sentinel and build the offset-by-one ``indptr``."""
        indptr = np.concatenate([[1], 1 + np.cumsum(degrees)]).astype(np.int32)
        flat_rels = np.concatenate(
            [np.zeros(1, dtype=np.int32), rels.astype(np.int32)])
        flat_tails = np.concatenate(
            [np.zeros(1, dtype=np.int32), tails.astype(np.int32)])
        return cls(indptr, flat_rels, flat_tails, degrees.astype(np.int32))

    def merged(self, heads: np.ndarray, rels: np.ndarray,
               tails: np.ndarray, action_cap: int) -> "CSRTables":
        """A new bundle with the staged edges folded in, base edges
        first per head and the cap re-applied
        (:func:`merge_capped`)."""
        return CSRTables.build(*merge_capped(
            self.num_entities, self.degrees, self.rels[1:], self.tails[1:],
            heads, rels, tails, action_cap))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return int(self.degrees.size)

    @property
    def num_edges(self) -> int:
        return int(self.rels.size - 1)  # minus the sentinel slot

    def arrays(self) -> Dict[str, np.ndarray]:
        """The four arrays by name (what a plane segment holds)."""
        return {name: getattr(self, name) for name in self.ARRAYS}

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            for array in (self.indptr, self.rels, self.tails):
                h.update(np.ascontiguousarray(array).tobytes())
            self._digest = h.hexdigest()[:16]
        return self._digest

    # ------------------------------------------------------------------
    # Queries (the walk hot path)
    # ------------------------------------------------------------------
    def slice(self, entity: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rels, tails)`` views of one entity's capped edge block."""
        start, stop = self.indptr[entity], self.indptr[entity + 1]
        return self.rels[start:stop], self.tails[start:stop]

    def gather_flat(self, entities: np.ndarray, metrics=None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A frontier's edges as flat ``(row_of, rels, tails)`` arrays.

        Row ``i``'s capped edge block is copied, in CSR order, into the
        cells whose ``row_of`` is ``i`` — rows ascending, no padding,
        zero-degree rows simply absent: ``M = degrees[entities].sum()``
        cells in all, taken with one gather per array.  ``metrics`` (a
        ``repro.telemetry`` MetricBlock or None) picks up the gather
        call and row counters.
        """
        n = len(entities)
        degs = np.take(self.degrees, entities).astype(np.int64)
        offsets = np.cumsum(degs) - degs        # row starts in the output
        total = int(offsets[-1] + degs[-1]) if n else 0
        row_of = np.repeat(np.arange(n, dtype=np.int64), degs)
        if metrics is not None:
            metrics.count("gather_calls_total")
            metrics.count("gather_rows_total", n)
        if total == 0:
            empty = np.zeros(0, dtype=np.int32)
            return row_of, empty, empty.copy()
        # Cell j of row i reads slot indptr[i] + j: shift every cell by
        # its row's (block start - output start).
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            np.take(self.indptr, entities) - offsets, degs)
        return row_of, np.take(self.rels, idx), np.take(self.tails, idx)

    def __repr__(self) -> str:
        return (f"CSRTables(entities={self.num_entities}, "
                f"edges={self.num_edges})")
