"""LRU cache of served recommendation + explanation results.

The cache's identity is the **session**, not the (session, ``k``)
pair: a key holds the exact model inputs of a request — the
(truncated) session suffix the encoder and walk actually see, the user
id when the walk starts from the user entity, the serving cascade
identity, and the **model version** that computed the answer — and the
value is an :class:`Entry`: the immutable
:class:`~repro.serving.server.ServedResult` ranked at the server's
``k`` ceiling when it walked, safe to share across callers.

One ranking serves every ``k`` (REKS ranks a session once; the paper
reads that ranking at K = 5, 10 and 20).
:func:`~repro.core.agent._top_k` ranks by the total order ``(-score,
item id)``, so a session's top-``k`` is the first ``k`` of its
top-``K`` for every ``K >= k`` — ties included — and
:meth:`ExplanationCache.lookup` answers any ``k`` up to the one the
entry was ranked at, or any ``k`` at all when that ranking already
holds the whole catalogue, by slicing: score bits, best paths and
rendered strings are the prefix's.  A larger ``k`` is a counted miss
and takes the scheduler → dedup → walk path.

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
from typing import Dict, Hashable, Iterable, NamedTuple, Optional, Tuple


class CacheKey(NamedTuple):
    """One session's cache identity (see :meth:`ExplanationCache.key`)."""

    suffix: Tuple[int, ...]
    user: Optional[int]
    cascade: Optional[Tuple[str, int]]
    version: int


class Entry(NamedTuple):
    """A session's answer, ranked at ``asked``.

    ``asked`` is the ``k`` the walk ranked at — the server's ceiling
    then — and exceeds ``len(result.items)`` when the catalogue clipped
    it.  Fixed at admission.
    """

    result: object
    asked: int


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
        # Of the hits, those served by slicing an entry ranked at
        # another k.
        self.nested_hits = 0

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
        whether it answers ``k``.

        Servable iff ``k <= asked``, or the entry is clipped
        (``len(items) < asked``: it ranks the whole catalogue, which
        every larger ``k`` clips to as well); the caller slices
        ``[:k]``.  Counts the hit (refreshing recency) or the miss
        here.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                asked = entry.asked
                if k <= asked or len(entry.result.items) < asked:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    if k != asked:
                        self.nested_hits += 1
                    return entry, True
            self.misses += 1
            return entry, False

    def admit(self, keys: Iterable[Hashable],
              entries: Iterable[Entry]) -> None:
        """Admit a flush's entries under one lock acquisition, one per
        session: an entry replaces the live one unless that was ranked
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
