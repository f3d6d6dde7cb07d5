"""LRU cache of served recommendation + explanation results.

Keys are the exact model inputs of a request — the (truncated) session
suffix the encoder and walk actually see, the requested ``k``, the
user id when the walk starts from the user entity, and the **model
version** that computed the answer — so a hit is guaranteed to be the
same answer the batch path would recompute.  Values are immutable
:class:`~repro.serving.server.ServedResult` payloads, safe to share
across callers.

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
from typing import Dict, Hashable, Iterable, Optional, Tuple


class ExplanationCache:
    """Thread-safe LRU keyed by (session-suffix, k) with hit/miss counters.

    ``capacity`` 0 disables caching (every lookup is a miss and
    :meth:`put` is a no-op), which keeps the server code branch-free.
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

    @staticmethod
    def key(prefix_items: Tuple[int, ...], k: int,
            user_id: Optional[int] = None,
            cascade: Optional[Tuple[str, int]] = None,
            version: int = 0) -> Tuple:
        """Cache key for one request.

        ``prefix_items`` must already be truncated to the suffix the
        model consumes (``max_session_length`` last prefix items);
        ``user_id`` is only part of the identity for user-anchored
        walks (``start_from="user"``); ``cascade`` is the serving
        cascade identity ``(provider_id, M)`` (None when the cascade
        is off) — candidate-constrained answers must never be replayed
        under a different cascade configuration, or after toggling it;
        ``version`` is the model version whose weights computed (or
        would compute) the answer.
        """
        return (tuple(int(i) for i in prefix_items), int(k), user_id,
                cascade, int(version))

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
        """Admit a flush's results under one lock acquisition — the
        same recency order and evictions as one :meth:`put` each."""
        if self.capacity == 0:
            return
        with self._lock:
            entries = self._entries
            for key, value in zip(keys, values):
                if key in entries:
                    entries.move_to_end(key)
                entries[key] = value
                while len(entries) > self.capacity:
                    entries.popitem(last=False)
                    self.evictions += 1

    # ------------------------------------------------------------------
    def entries_by_version(self) -> Dict[int, int]:
        """Live entry counts per model version (key index 4).

        After a hot swap the stale generation's count only shrinks as
        the LRU evicts — this is how ``cli top`` and ``/metrics.json``
        make that drain visible."""
        with self._lock:
            counts: Dict[int, int] = {}
            for key in self._entries:
                version = int(key[4])
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
