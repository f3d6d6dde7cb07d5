"""First-stage candidate generators for cascade serving.

A :class:`CandidateProvider` maps one session prefix to the top-``M``
plausible next items using a model that is far cheaper than the REKS
beam walk — the classic production two-stage shape: a broad, cheap
pre-rank whose output *candidate set* the expensive explainable
re-rank (the candidate-constrained walk) is then restricted to.

Two providers ship:

* :class:`NeighborsProvider` — session-kNN in the style of the
  ``repro.models.neighbors`` baselines: item-item cosine co-occurrence
  similarity to the session's last item, backfilled by global training
  popularity so the candidate list always has ``M`` entries even for
  cold tail items;
* :class:`EncoderProvider` — any fitted
  :class:`~repro.models.base.SessionEncoder` (GRU4Rec, NARM, …): one
  forward pass over the prefix, top-``M`` of the catalog logits.  When
  built from a REKS trainer this reuses the *same* encoder the agent
  walks with, so the cascade adds no extra model to train or ship.

Both are deterministic (ties broken by item id) — candidate identity
is part of the explanation-cache key, so a provider must return the
same set for the same prefix every time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np


class CandidateProvider(Protocol):
    """The first-stage contract: prefix -> candidate item ids.

    ``provider_id`` must identify the provider *and its fitted state*
    well enough for cache keying (two servers with the same id and the
    same ``M`` must produce the same candidate sets).
    """

    provider_id: str

    def top_m(self, prefix_items: Sequence[int], m: int,
              user_id: Optional[int] = None) -> np.ndarray:
        """The ``m`` best next-item candidates, best first, int64."""
        ...


def _ranked_top_m(scores: np.ndarray, m: int) -> np.ndarray:
    """Deterministic top-``m`` of a 1-D score row (item 0 excluded).

    Ties break toward the smaller item id: the sort key is
    ``(-score, item_id)``, the agent's ``_top_k`` order.  A one-row
    implementation of its own: calling the batched ``_top_k`` costs
    ~9 us more per request on the cascade path (12 vs 21 us for
    ``m`` = 50 over 700 items).
    """
    scores = scores.copy()
    scores[0] = -np.inf
    m = min(int(m), scores.shape[0] - 1)
    part = np.argpartition(-scores, kth=m - 1)[:m]
    # (-score, id) order within the partition: lexsort's last key is
    # primary, so ties inside the kept set come out id-ascending.
    ranked = part[np.lexsort((part, -scores[part]))]
    # argpartition's choice among equal scores *at the boundary* is
    # implementation-defined, so the membership of the boundary tie
    # group must be resolved explicitly: order the full group by id
    # and take what fits.  (Cheap — tie groups are tiny in practice.)
    boundary = scores[ranked[-1]]
    tied = np.flatnonzero(scores == boundary)
    if tied.size > 1:
        keep = ranked[scores[ranked] > boundary]
        fill = tied[:m - keep.size]
        ranked = np.concatenate([keep, fill])
    return ranked.astype(np.int64)


class NeighborsProvider:
    """Session-kNN candidates: ItemKNN cosine co-occurrence summed
    over the whole prefix with recency decay (most recent item weighted
    1, one step earlier ``decay``, ...), popularity-backfilled to
    always yield ``M`` items."""

    def __init__(self, n_items: int, sessions: Sequence,
                 regularization: float = 20.0,
                 decay: float = 0.6) -> None:
        from collections import Counter, defaultdict

        self.n_items = int(n_items)
        support: Counter = Counter()
        cooc: Dict[int, Counter] = defaultdict(Counter)
        pop = np.zeros(self.n_items + 1, dtype=np.float64)
        for session in sessions:
            items = list(session.items)
            for item in items:
                pop[item] += 1.0
            distinct = sorted(set(items))
            support.update(distinct)
            for i, a in enumerate(distinct):
                for b in distinct[i + 1:]:
                    cooc[a][b] += 1
                    cooc[b][a] += 1
        # CSR-shaped similarity rows (neighbor ids + values per item)
        # so top_m is a handful of vectorized scatter-adds, not a
        # python dict walk — the first stage must stay far cheaper
        # than the walk it feeds.
        self._sim_ids: Dict[int, np.ndarray] = {}
        self._sim_vals: Dict[int, np.ndarray] = {}
        for a, row in cooc.items():
            ids = np.fromiter(row.keys(), dtype=np.int64, count=len(row))
            counts = np.fromiter(row.values(), dtype=np.float64,
                                 count=len(row))
            sup = np.array([support[b] for b in row], dtype=np.float64)
            self._sim_ids[a] = ids
            self._sim_vals[a] = counts / (
                np.sqrt(support[a] * sup) + regularization)
        # Popularity backfill, scaled below every positive similarity
        # so co-occurrence evidence always outranks raw popularity.
        pmax = pop.max()
        self._pop_floor = pop / (pmax * 1e6) if pmax > 0 else pop
        self._decay = float(decay)
        self.provider_id = f"neighbors:r{regularization:g}:d{decay:g}"

    def top_m(self, prefix_items: Sequence[int], m: int,
              user_id: Optional[int] = None) -> np.ndarray:
        scores = self._pop_floor.copy()
        weight = 1.0
        for item in reversed(list(prefix_items)):
            ids = self._sim_ids.get(int(item))
            if ids is not None:
                scores[ids] += weight * self._sim_vals[int(item)]
            weight *= self._decay
        return _ranked_top_m(scores, m)


class EncoderProvider:
    """Top-``M`` of a fitted session encoder's catalog logits."""

    def __init__(self, encoder, max_session_length: int,
                 provider_id: str = "encoder") -> None:
        self._encoder = encoder
        self._max_len = int(max_session_length)
        self._lock = threading.Lock()
        self.provider_id = provider_id

    def top_m(self, prefix_items: Sequence[int], m: int,
              user_id: Optional[int] = None) -> np.ndarray:
        from repro.autograd import no_grad
        from repro.data.loader import collate_examples

        batch = collate_examples(
            [(list(prefix_items), 0, user_id or 0)], self._max_len)
        # Deterministic inference: eval mode (no dropout draws) and one
        # forward pass at a time — the provider may be called from
        # several dispatcher threads.
        with self._lock, no_grad():
            if self._encoder.training:
                self._encoder.eval()
            logits = self._encoder.score_items(
                self._encoder.encode(batch)).data[0]
        return _ranked_top_m(logits.astype(np.float64), m)


class CandidateCache:
    """Thread-safe LRU of candidate lists keyed by (prefix, user).

    The first stage is cheap but not free — interactive traffic
    re-requests the same session suffix while the user browses, so the
    planner memoizes provider output exactly like the explanation
    cache memoizes full answers.  ``capacity=0`` disables caching.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[np.ndarray]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value: np.ndarray) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def provider_from_trainer(trainer, name: str) -> CandidateProvider:
    """Build a named provider from a fitted REKS trainer.

    ``"neighbors"`` fits session-kNN on the trainer's train split;
    ``"encoder"`` reuses the agent's own (already-fitted) encoder.
    """
    key = (name or "").lower()
    if key == "neighbors":
        return NeighborsProvider(trainer.dataset.n_items,
                                 trainer.dataset.split.train)
    if key == "encoder":
        return EncoderProvider(
            trainer.agent.encoder,
            trainer.config.max_session_length,
            provider_id=f"encoder:{trainer.model_name}"
            if hasattr(trainer, "model_name") else "encoder")
    raise KeyError(f"unknown cascade provider {name!r}; "
                   f"choose 'neighbors' or 'encoder'")
