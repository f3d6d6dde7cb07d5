"""Reverse-reachability bitmaps: which entities can still reach a
candidate item in exactly ``r`` more hops.

The candidate-constrained walk prunes a frontier action as soon as its
tail entity provably cannot complete a path to any candidate item in
the hops that remain — the action's eventual contribution to every
candidate's score is zero, so (for saturating beam sizes) dropping it
never changes a candidate's score, only the work spent computing it.

The proof obligation is per (entity, remaining-hops) pair, so the
index precomputes, per hop level ``r`` and per item ``i``, the bitmap
of entities with a forward path of **exactly** ``r`` hops ending at
``i``'s entity:

* level 0 is the identity — item ``i``'s own entity;
* level ``r`` is one reverse-BFS expansion of level ``r-1`` over the
  compacted CSR adjacency (entity ``e`` is set iff some forward edge
  ``e -> t`` has ``t`` set at level ``r-1``).

Bitmaps are bit-packed (``np.packbits``) per item row, so a request's
per-row mask is one ``bitwise_or`` reduction over its ``M`` candidate
rows plus one unpack — no graph traversal on the request path.

Scope: the index is built from the **compacted** CSR bundle
(:class:`~repro.graphstore.CSRTables`); staged overlay edges are not
folded in, so a path that exists only through the overlay can be
pruned until the next compaction.  That makes cascade-on results
conservative (never wrong for compacted graphs, temporarily narrower
for freshly staged edges) and — crucially — identical between thread
mode and process workers, which rebuild the same index from the same
bundle digest.  Cascade-off serving is entirely unaffected.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Item-row chunking for the level expansion: bounds the unpacked
# (chunk, num_edges) scratch to ~64 rows regardless of catalog size.
_BUILD_CHUNK = 64


class ReachabilityIndex:
    """Per-hop packed bitmaps ``levels[r][i]`` = entities that reach
    item ``i``'s entity in exactly ``r`` forward hops."""

    def __init__(self, levels: List[np.ndarray], num_entities: int,
                 digest: str) -> None:
        self.levels = levels          # each (n_items + 1, packed_width)
        self.num_entities = int(num_entities)
        self.digest = digest          # store digest the index was built from

    @property
    def hops(self) -> int:
        """Highest exact-hop level available (``len(levels) - 1``)."""
        return len(self.levels) - 1

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, store, built, hops: int) -> "ReachabilityIndex":
        """Build levels ``0..hops`` from a :class:`CSRTables` bundle.

        O(hops * n_items * E / 8) bit-ops via chunked boolean
        reductions over the flat CSR — an offline cost paid once per
        store generation (the digest keys the cache in
        :func:`get_index`).
        """
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        n_entities = int(store.num_entities)
        n_items = built.n_items
        # Flat layout is offset-by-one with a slot-0 sentinel: entity
        # e's edges live at tails[indptr[e] : indptr[e + 1]] with
        # indptr[0] == 1, so shifting the pointers down by one indexes
        # the sentinel-free edge array directly.
        tails_flat = store.tails[1:].astype(np.int64)
        starts = (store.indptr[:-1].astype(np.int64) - 1)
        degrees = store.degrees.astype(np.int64)
        has_edges = degrees > 0

        level0 = np.zeros((n_items + 1, n_entities), dtype=bool)
        item_entities = built.item_entity[1:]
        level0[np.arange(1, n_items + 1), item_entities] = True
        levels = [np.packbits(level0, axis=1)]
        prev = level0
        for _ in range(hops):
            nxt = np.zeros((n_items + 1, n_entities), dtype=np.uint8)
            for lo in range(0, n_items + 1, _BUILD_CHUNK):
                hi = min(lo + _BUILD_CHUNK, n_items + 1)
                # (chunk, E): is each edge's tail reachable-at-prev?
                vals = prev[lo:hi, tails_flat].astype(np.uint8)
                if has_edges.any():
                    seg_starts = starts[has_edges]
                    # reduceat segments between consecutive non-empty
                    # entities span exactly one entity's edge slice
                    # (zero-degree entities in between contribute no
                    # edges, so the next pointer coincides).
                    nxt[lo:hi, has_edges] = np.maximum.reduceat(
                        vals, seg_starts, axis=1)
            prev = nxt.astype(bool)
            levels.append(np.packbits(prev, axis=1))
        return cls(levels, n_entities, digest=store.digest())

    # ------------------------------------------------------------------
    def entity_mask(self, candidate_rows: Sequence[np.ndarray],
                    remaining: int) -> np.ndarray:
        """(B, num_entities) bool: row ``b``'s allowed tails when
        ``remaining`` hops are left — entities reaching *some*
        candidate of row ``b`` in exactly ``remaining`` hops."""
        level = self.levels[remaining]
        width = level.shape[1]
        packed = np.zeros((len(candidate_rows), width), dtype=np.uint8)
        for b, cands in enumerate(candidate_rows):
            if len(cands):
                packed[b] = np.bitwise_or.reduce(
                    level[np.asarray(cands, dtype=np.int64)], axis=0)
        return np.unpackbits(packed, axis=1,
                             count=self.num_entities).astype(bool)

    def nbytes(self) -> int:
        return sum(level.nbytes for level in self.levels)


# ----------------------------------------------------------------------
# Per-process index cache: one entry per (store digest, hops).  Thread
# mode and every worker process each build their own from their own
# attached store — same digests, same bitmaps.
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple[str, int], ReachabilityIndex] = {}
_CACHE_LOCK = threading.Lock()
_CACHE_KEEP = 2  # current generation + the one a compaction just retired


def get_index(env, hops: int, metrics=None) -> ReachabilityIndex:
    """The (cached) reachability index for ``env``'s current store.

    ``metrics`` (a telemetry view) counts ``reachability_rebuilds_total``
    once per *actual* build — cache hits are free and uncounted, so the
    counter measures real post-compaction rebuild work, not lookups.
    """
    store = env.csr_tables()
    key = (store.digest(), int(hops))
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            return hit
    index = ReachabilityIndex.build(store, env.built, hops)
    if metrics is not None:
        metrics.count("reachability_rebuilds_total")
    with _CACHE_LOCK:
        _CACHE[key] = index
        while len(_CACHE) > _CACHE_KEEP:
            _CACHE.pop(next(iter(_CACHE)))
    return index


class ReachabilityPrewarmer:
    """Rebuild the reachability index off the request path.

    Lazily building on the first post-compaction request puts the whole
    O(hops * n_items * E / 8) build inside one unlucky request's
    latency.  The prewarmer watches the store digest and rebuilds in a
    background thread the moment it changes, so by the time traffic
    arrives :func:`get_index` is a cache hit.

    :meth:`poll_once` is the deterministic unit (used directly by tests
    and by the serving health loop); :meth:`start`/:meth:`stop` wrap it
    in a daemon thread for standalone use.  Duplicate concurrent builds
    are benign — both insert under the same digest key.
    """

    def __init__(self, env, hops: int, metrics=None,
                 interval_s: float = 0.25) -> None:
        self._env = env
        self._hops = int(hops)
        self._metrics = metrics
        self._interval = float(interval_s)
        self._last_key: Tuple[str, int] = ("", -1)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def poll_once(self) -> bool:
        """Check the digest; build if it moved.  True if a build ran."""
        store = self._env.csr_tables()
        key = (store.digest(), self._hops)
        if key == self._last_key:
            return False
        with _CACHE_LOCK:
            cached = key in _CACHE
        if not cached:
            get_index(self._env, self._hops, metrics=self._metrics)
        self._last_key = key
        return not cached

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="reach-prewarm")
        self._thread.start()

    def _run(self) -> None:
        try:
            self.poll_once()  # warm the current generation immediately
        except Exception:  # pragma: no cover - best-effort warmer
            pass
        while not self._stop.wait(self._interval):
            try:
                self.poll_once()
            except Exception:  # pragma: no cover - best-effort warmer
                pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
