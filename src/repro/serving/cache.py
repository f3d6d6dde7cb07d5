"""LRU cache of served recommendation + explanation results.

The cache's identity is the **session**, not the (session, ``k``)
pair: a key holds the exact model inputs of a request — the
(truncated) session suffix the encoder and walk actually see, the user
id when the walk starts from the user entity, the serving cascade
identity, and the **model version** that computed the answer — and the
value is an :class:`Entry`: the immutable
:class:`~repro.serving.server.ServedResult` at the largest ``k``
answered so far, safe to share across callers.

One ranking serves every ``k`` (REKS ranks a session once; the paper
reads that ranking at K = 5, 10 and 20): :meth:`ExplanationCache.lookup`
lets an entry admitted at ``asked`` answer a smaller ``k`` by slicing,
but only when the slice is *provably* what a dedicated
:func:`~repro.core.agent._top_k` at ``k`` returns.  A prefix of a
larger-``k`` ranking is not that in general — tie order depends on the
partition point — but when ``scores[0] > ... > scores[k]`` strictly,
both the top-``k`` set (strict at the cut) and its order (strict
inside) are unique, so the prefix is the answer, score bits, best
paths and rendered strings included.  A tie at or before the cut, or a
``k`` larger than the entry's, is a counted miss and takes the
scheduler → dedup → walk-memo → walk path.

The version tag is what makes zero-downtime hot-swaps possible: a
:meth:`~repro.serving.server.RecommendationServer.swap_model` bumps
the server's live version, so post-swap lookups miss the stale entries
(computed by the previous weights) without flushing them — warm
traffic racing the swap still hits its own version's entries, and the
stale generation simply ages out of the LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (Dict, Hashable, Iterable, NamedTuple, Optional, Sequence,
                    Tuple)


class CacheKey(NamedTuple):
    """One session's cache identity (see :meth:`ExplanationCache.key`)."""

    suffix: Tuple[int, ...]
    user: Optional[int]
    cascade: Optional[Tuple[str, int]]
    version: int


class Entry(NamedTuple):
    """A session's answer at the largest ``k`` asked so far.

    ``asked`` is the ``k`` that was requested — it exceeds
    ``len(result.items)`` when the catalogue clipped it; ``strict`` is
    the length of the strictly-decreasing prefix of ``result.scores``.
    Both are fixed at admission.
    """

    result: object
    asked: int
    strict: int


def strict_prefix(scores: Sequence[float]) -> int:
    """How many leading scores are strictly decreasing (0 if empty)."""
    if not scores:
        return 0
    n = 1
    for above, below in zip(scores, scores[1:]):
        if not above > below:
            break
        n += 1
    return n


class ExplanationCache:
    """Thread-safe LRU keyed by session, with hit/miss counters.

    ``capacity`` 0 disables caching (every lookup is a miss and
    admission is a no-op), which keeps the server code branch-free.
    :meth:`lookup` / :meth:`admit` are the serving protocol over
    :class:`Entry` values; :meth:`get` / :meth:`put` are the plain LRU
    underneath.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Of the hits, those served by slicing a larger-k entry; of
        # the misses, those that found one whose ranking ties at or
        # before the cut.
        self.nested_hits = 0
        self.tie_misses = 0

    @staticmethod
    def key(prefix_items: Tuple[int, ...], k: Optional[int] = None,
            user_id: Optional[int] = None,
            cascade: Optional[Tuple[str, int]] = None,
            version: int = 0) -> CacheKey:
        """Cache key for one session.

        ``prefix_items`` must already be truncated to the suffix the
        model consumes (``max_session_length`` last prefix items);
        ``user_id`` is only part of the identity for user-anchored
        walks (``start_from="user"``); ``cascade`` is the serving
        cascade identity ``(provider_id, M)`` (None when the cascade
        is off) — candidate-constrained answers must never be replayed
        under a different cascade configuration, or after toggling it;
        ``version`` is the model version whose weights computed (or
        would compute) the answer.  ``k`` is **not** part of the
        identity (it is what :meth:`lookup` is asked with); the
        positional slot stays for callers that build a key per
        request.
        """
        return CacheKey(tuple(int(i) for i in prefix_items), user_id,
                        cascade, int(version))

    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, k: int) -> Tuple[Optional[Entry], bool]:
        """``(entry, servable)``: the session's live entry, if any, and
        whether it answers ``k`` exactly.

        Servable iff ``k == asked``, or ``k < asked`` and either the
        entry is clipped at or below ``k`` (``k >= len(items)``: both
        ``_top_k`` calls clip to the same cut) or its first ``k + 1``
        scores are strictly decreasing (``strict > k``); the caller
        slices ``[:k]``.  Counts the hit (refreshing recency) or the
        miss here, so a tie at the cut is a miss, never a hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                asked = entry.asked
                if k == asked or (k < asked and (
                        k >= len(entry.result.items) or entry.strict > k)):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    if k != asked:
                        self.nested_hits += 1
                    return entry, True
                if k < asked:
                    self.tie_misses += 1
            self.misses += 1
            return entry, False

    def admit(self, keys: Iterable[Hashable],
              entries: Iterable[Entry]) -> None:
        """Admit a flush's entries under one lock acquisition, one per
        session: an entry replaces the live one unless that was asked
        at a larger ``k`` — then only its recency is refreshed."""
        if self.capacity == 0:
            return
        with self._lock:
            live = self._entries
            for key, entry in zip(keys, entries):
                old = live.get(key)
                if old is not None and old.asked > entry.asked:
                    live.move_to_end(key)
                else:
                    self._store(key, entry)

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value or None; counts the hit/miss and refreshes
        recency."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        self.put_many((key,), (value,))

    def put_many(self, keys: Iterable[Hashable], values: Iterable) -> None:
        """One lock acquisition — the same recency order and evictions
        as one :meth:`put` each."""
        if self.capacity == 0:
            return
        with self._lock:
            for key, value in zip(keys, values):
                self._store(key, value)

    def _store(self, key: Hashable, value) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    def entries_by_version(self) -> Dict[int, int]:
        """Live entry (= session) counts per model version.

        After a hot swap the stale generation's count only shrinks as
        the LRU evicts — this is how ``cli top`` and ``/metrics.json``
        make that drain visible."""
        with self._lock:
            counts: Dict[int, int] = {}
            for key in self._entries:
                version = key.version
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
