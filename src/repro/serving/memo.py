"""Shared-computation primitives: in-flush dedup + the walk memo.

Real session traffic is repeat-skewed — hot sessions and shared
suffixes recur both *within* a coalesced flush (two identical rows in
one micro-batch) and *across* flushes (the same suffix asked again a
moment later, often at a different ``k``).  The post-render
:class:`~repro.serving.cache.ExplanationCache` answers a repeat session
at the ``k`` it holds and at every smaller ``k`` its ranking decides
without a tie; what it cannot answer — a ``k`` larger than the one it
holds, a cut that lands on a tie, an evicted or never-seen session
whose walk inputs another row shares — would walk again even though
the walk is per-row deterministic and k-independent.

Two layers close that gap:

* :func:`dedup_plan` collapses duplicate rows inside one flush so each
  unique ``(suffix, user, candidate-set)`` walks **once** (at the max
  ``k`` over its duplicate group) and every original row re-selects its
  own top-k from the shared full score row;
* :class:`WalkMemo` caches the **numeric** walk output across flushes:
  the full dense score row plus the row's view of the walk's path
  table, which covers every terminal item.  Entries are
  renders-deferred and k-agnostic — a repeat suffix at *any* ``k`` is
  a memo hit + a deterministic :func:`~repro.core.agent._top_k`
  re-selection on the stored row, no walk, no policy forward.

Exactness: ``_top_k`` partitions each score row independently, so
re-selecting ``k`` items from the stored full row is bit-identical to
what a fresh walk's own selection would produce (a *prefix slice* of a
larger-k ranking is NOT — its tie order can depend on the partition
point — which is why entries store the full row, never a truncated
ranking).  Paths come from ``_best_paths``, which keeps one best path
per *terminal item* regardless of ``k``, so the stored path row covers
any selection.  Two batch-coupling effects would silently break row
reuse at the float-bit level and are handled explicitly: the encoder
runs over the *padded* batch layout, so memo keys carry the flush
width and miss walks collate at that width (see
:meth:`WalkMemo.key`); and the encoder-fallback floor is per row (see
``REKSAgent._encoder_fallback``), never a batch statistic.  One
coupling is irreducible: the policy forwards degree-bucketed frontier
rows of the whole flush together, so BLAS block-reduction order ties
each row's float bits to the *batch composition*.  Stored rows
therefore replay bit-exactly whenever composition is preserved
(sequential streams, any transport), while collapsing rows out of a
multi-row flush can move other rows' scores by the last ulp — the
same tolerance the coalescing layer has always documented for
batch-shape changes.  Rankings and rendered paths are invariant
either way; ``tests/test_shared_compute.py`` pins the exact cases
bitwise and holds the coalesced case to rankings/explanations
equality plus rtol 1e-6 scores.

Invalidation: keys carry the model ``version`` and a ``store_token``
(the environment fingerprint, which changes on both staged-edge
ingestion and shard compaction), so a hot swap or a graph change makes
stale entries unreachable — they age out of the LRU exactly like
:class:`ExplanationCache` entries do after a swap.  The candidate set
rides in the key too (the exact per-row tuple, strictly finer than the
``(provider_id, M)`` cascade identity), so a constrained walk can never
answer for a differently-constrained repeat.

Layering: the explanation cache sits **above** the memo (hit = no
scheduler, no render); the memo sits **below** the flush (hit = no
walk, but top-k re-selection + render still run).  A request can miss
the cache and hit the memo: a hot session asked at a larger ``k`` than
its entry holds (the upgrade re-selects from the stored row), or at a
``k`` whose cut ties (the cache counts a tie-miss and the memo answers
with a dedicated ``_top_k``).  With the cache serving every untied
smaller ``k`` itself, those two are most of what the memo still sees
from repeat traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple


def dedup_plan(keys: Sequence[Hashable]
               ) -> Tuple[List[int], List[int]]:
    """Collapse duplicate row keys to first occurrences.

    Returns ``(uniq, row_map)``: ``uniq[j]`` is the original index of
    the j-th unique key (first-occurrence order, so the unique batch
    preserves the flush's row order) and ``row_map[i]`` is original row
    i's index into the unique batch.  ``len(uniq) == len(keys)`` means
    nothing collapsed.
    """
    index: Dict[Hashable, int] = {}
    uniq: List[int] = []
    row_map: List[int] = []
    for i, key in enumerate(keys):
        j = index.get(key)
        if j is None:
            j = len(uniq)
            index[key] = j
            uniq.append(i)
        row_map.append(j)
    return uniq, row_map


class WalkMemo:
    """Thread-safe LRU over numeric walk outputs, keyed by walk inputs.

    Values are ``(scores_row, path_row)`` pairs — the full dense
    float64 score row (so any ``k`` re-selects exactly) and the row's
    :class:`~repro.kg.paths.PathRow` view of the walk's
    :class:`~repro.kg.paths.PathTable`, covering every terminal item.
    Both worker modes store the same view and read it the same way:
    :func:`~repro.runtime.rowblock.select_rows` gathers the paths of
    the items a flush's rows return, as arrays.  A view keeps its
    whole table alive; the rows of one flush share it.

    ``capacity`` 0 disables the memo (every lookup is a miss and
    :meth:`put` is a no-op), keeping callers branch-free.

    :attr:`seconds_saved` estimates walk time avoided: each hit banks
    the current EWMA of per-row walk seconds (fed by
    :meth:`note_walk_cost` after real walks) — an honest estimate, not
    a measurement, surfaced as the ``walk_seconds_saved_total`` gauge.
    """

    _EWMA_ALPHA = 0.2

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.seconds_saved = 0.0
        self._row_seconds = 0.0

    @staticmethod
    def key(prefix_items: Sequence[int], user_id: Optional[int],
            candidates: Optional[Tuple[int, ...]],
            version: int, store_token: str, width: int = 0) -> Tuple:
        """Memo key for one walk row.

        ``prefix_items`` must already be truncated to the suffix the
        model consumes; ``candidates`` is the exact candidate tuple the
        walk was constrained with (None = unconstrained);
        ``store_token`` is the environment fingerprint — it changes on
        staged-edge ingestion *and* compaction, so graph changes
        over-invalidate conservatively (a spurious miss re-walks; a
        spurious hit would be wrong).

        ``width`` is the padded batch width the row was collated at.
        Per-row numeric outputs are bit-identical across batches only
        at equal padded width (the encoder runs over the padded
        layout), so a repeat in a differently-shaped flush is a clean
        miss — a re-walk, never an almost-right row.  Serving passes
        the *flush* width (max truncated prefix length over the
        flush), which repeat-heavy traffic keeps stable.
        """
        return (tuple(int(i) for i in prefix_items), user_id,
                candidates, int(version), store_token, int(width))

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[tuple]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self.seconds_saved += self._row_seconds
            return value

    def put(self, key: Hashable, value: tuple) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def note_walk_cost(self, rows: int, seconds: float) -> None:
        """Fold one real walk's per-row cost into the savings EWMA."""
        if rows <= 0:
            return
        per_row = float(seconds) / rows
        with self._lock:
            self._row_seconds = (
                per_row if self._row_seconds == 0.0
                else (1.0 - self._EWMA_ALPHA) * self._row_seconds
                + self._EWMA_ALPHA * per_row)

    # ------------------------------------------------------------------
    def entries_by_version(self) -> Dict[int, int]:
        """Live entry counts per model version (key index 3) — the
        stale-entry drain a hot swap leaves behind is visible here."""
        with self._lock:
            counts: Dict[int, int] = {}
            for key in self._entries:
                version = int(key[3])
                counts[version] = counts.get(version, 0) + 1
            return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop entries but keep the counters (eviction-equivalent)."""
        with self._lock:
            self._entries.clear()
