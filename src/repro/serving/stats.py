"""Latency / throughput / occupancy accounting for the serving layer.

One :class:`ServerStats` instance is shared by every worker of a
:class:`~repro.serving.server.RecommendationServer`; all mutation goes
through a single lock (the recorded quantities are tiny relative to a
batch execution, so contention is negligible).  :meth:`snapshot`
returns an immutable :class:`StatsSnapshot` with the derived
percentiles, suitable for JSON emission.

Memory is **bounded at any request volume**: latencies feed a
log-bucketed :class:`~repro.telemetry.block.LocalHistogram` (exact
count/sum/min/max, ~1% bucketed quantiles) plus a fixed 4096-element
:class:`~repro.telemetry.block.Reservoir` whose uniform sample gives
exact percentiles until it overflows and unbiased ones after; swap
latencies keep only the most recent window.  The old implementation
appended every latency to a Python list — a 1M-request soak grew it
without bound (pinned flat by ``tests/test_telemetry.py`` now).

When a ``metrics`` block (:class:`~repro.telemetry.block.MetricBlock`)
is attached, every recording is mirrored into it so the fleet
registry's merged snapshot sees the serving parent's counters without
a second instrumentation site.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.block import LocalHistogram, Reservoir

SWAP_WINDOW = 64
RESERVOIR_SIZE = 4096


@dataclass(frozen=True)
class StatsSnapshot:
    """Point-in-time view of a server's counters (latencies in ms).

    ``cache_by_version`` splits the hit/miss counters by the model
    version a lookup was keyed against, which is how hot-swap rollovers
    are observed: right after a swap the new version's misses climb
    while the stale version stops being queried at all.
    ``cache_nested_hits`` are the hits served by slicing an entry
    admitted at a larger ``k``; ``cache_tie_misses`` the misses that
    found such an entry but a tie at or before the cut.
    """

    requests: int
    batches: int
    cache_hits: int
    cache_misses: int
    duration_s: float
    throughput_rps: float
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    batch_occupancy: Dict[int, int] = field(default_factory=dict)
    mean_occupancy: float = 0.0
    cache_by_version: Dict[int, Dict[str, int]] = field(default_factory=dict)
    cache_nested_hits: int = 0
    cache_tie_misses: int = 0
    swaps: int = 0
    swap_latency_ms: Tuple[float, ...] = ()
    # Shared-computation plane: rows collapsed by in-flush dedup, the
    # walk memo's counters, and live entry counts per model version for
    # both caches (how stale-entry drain after a hot swap is observed).
    dedup_rows: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0
    cache_entries_by_version: Dict[int, int] = field(default_factory=dict)
    memo_entries_by_version: Dict[int, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    def to_dict(self) -> dict:
        by_version = {}
        for version in sorted(self.cache_by_version):
            split = self.cache_by_version[version]
            total = split["hits"] + split["misses"]
            by_version[str(version)] = {
                "hits": split["hits"],
                "misses": split["misses"],
                "hit_rate": (split["hits"] / total) if total else 0.0,
            }
        return {
            "requests": self.requests,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_nested_hits": self.cache_nested_hits,
            "cache_tie_misses": self.cache_tie_misses,
            "cache_by_version": by_version,
            "swaps": self.swaps,
            "swap_latency_ms": list(self.swap_latency_ms),
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "mean": self.latency_ms_mean,
                "p50": self.latency_ms_p50,
                "p95": self.latency_ms_p95,
                "p99": self.latency_ms_p99,
            },
            "batch_occupancy": {str(size): count for size, count
                                in sorted(self.batch_occupancy.items())},
            "mean_occupancy": self.mean_occupancy,
            "dedup_rows": self.dedup_rows,
            "walk_memo": {
                "hits": self.memo_hits,
                "misses": self.memo_misses,
                "evictions": self.memo_evictions,
                "hit_rate": self.memo_hit_rate,
                "entries_by_version": {
                    str(v): n for v, n
                    in sorted(self.memo_entries_by_version.items())},
            },
            "cache_entries_by_version": {
                str(v): n for v, n
                in sorted(self.cache_entries_by_version.items())},
        }


class ServerStats:
    """Thread-safe recorder of per-request and per-batch telemetry."""

    def __init__(self, metrics=None) -> None:
        self._lock = threading.Lock()
        self._requests = 0
        self._lat_hist = LocalHistogram()
        self._lat_sample = Reservoir(RESERVOIR_SIZE)
        self._occupancy: Dict[int, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._nested_hits = 0
        self._tie_misses = 0
        self._cache_by_version: Dict[int, Dict[str, int]] = {}
        self._swaps = 0
        self._swap_latencies_s: deque = deque(maxlen=SWAP_WINDOW)
        self._dedup_rows = 0
        self._started_at: Optional[float] = None
        self._last_event_at: Optional[float] = None
        # Optional shared-memory mirror (repro.telemetry MetricBlock).
        self.metrics = metrics
        # Optional cache/memo references (attach_caches): snapshots
        # read their live per-version entry counts and the memo's own
        # hit/miss/eviction counters (each has its own lock, so the
        # reads happen outside ours).
        self._cache_ref = None
        self._memo_ref = None

    def attach_caches(self, cache=None, memo=None) -> None:
        """Let snapshots report the live ExplanationCache / WalkMemo
        state (per-version entry counts + memo counters)."""
        self._cache_ref = cache
        self._memo_ref = memo

    @property
    def nbytes(self) -> int:
        """Bound of the latency state (flat regardless of volume)."""
        return int(self._lat_hist.buckets.nbytes
                   + self._lat_sample.capacity * 8
                   + SWAP_WINDOW * 8)

    # ------------------------------------------------------------------
    def record_request(self, latency_s: float) -> None:
        """One completed request (queue wait + batch execution)."""
        now = perf_counter()
        with self._lock:
            if self._started_at is None:
                self._started_at = now - latency_s
            self._last_event_at = now
            self._requests += 1
            self._lat_hist.observe(latency_s)
            self._lat_sample.add(latency_s)
        if self.metrics is not None:
            self.metrics.count("requests_total")
            self.metrics.observe("request_latency_seconds", latency_s)

    def record_requests(self, latencies_s: Sequence[float]) -> None:
        """A flush's completed requests, in order, under one lock (and
        one seqlock publish of the mirror block) — the counters end up
        exactly where one :meth:`record_request` each leaves them."""
        if not latencies_s:
            return
        now = perf_counter()
        with self._lock:
            if self._started_at is None:
                self._started_at = now - latencies_s[0]
            self._last_event_at = now
            self._requests += len(latencies_s)
            self._lat_hist.observe_many(latencies_s)
            for latency in latencies_s:
                self._lat_sample.add(latency)
        if self.metrics is not None:
            self.metrics.count("requests_total", len(latencies_s))
            self.metrics.observe_many("request_latency_seconds",
                                      latencies_s)

    def record_batch(self, size: int) -> None:
        """One executed micro-batch of ``size`` coalesced requests."""
        with self._lock:
            self._occupancy[size] = self._occupancy.get(size, 0) + 1
        if self.metrics is not None:
            self.metrics.count("batches_total")

    def record_cache(self, hit: bool, version: int = 0,
                     tie: bool = False) -> None:
        """One cache lookup, attributed to the model version it keyed;
        ``tie`` marks a miss that found a larger-``k`` entry whose
        ranking ties at or before the cut."""
        with self._lock:
            split = self._cache_by_version.setdefault(
                int(version), {"hits": 0, "misses": 0})
            if hit:
                self._cache_hits += 1
                split["hits"] += 1
            else:
                self._cache_misses += 1
                split["misses"] += 1
                if tie:
                    self._tie_misses += 1
        if self.metrics is not None:
            self.metrics.count("cache_hits_total" if hit
                               else "cache_misses_total")
            if tie:
                self.metrics.count("cache_tie_misses_total")

    def record_hit(self, latency_s: float, version: int,
                   rendered: int, nested: bool = False) -> None:
        """One request served from the explanation cache, its
        ``rendered`` stored explanations re-served without rendering
        (``nested``: by slicing an entry admitted at a larger ``k``):
        ``record_cache(True, version)``, a ``render_deferred_total``
        count and ``record_request(latency_s)`` under one lock and one
        seqlock publish of the mirror block — every counter ends
        exactly where those three calls leave it."""
        now = perf_counter()
        with self._lock:
            split = self._cache_by_version.setdefault(
                int(version), {"hits": 0, "misses": 0})
            self._cache_hits += 1
            if nested:
                self._nested_hits += 1
            split["hits"] += 1
            if self._started_at is None:
                self._started_at = now - latency_s
            self._last_event_at = now
            self._requests += 1
            self._lat_hist.observe(latency_s)
            self._lat_sample.add(latency_s)
        if self.metrics is not None:
            self.metrics.count_observe(
                (("cache_hits_total", 1),
                 ("cache_nested_hits_total", int(nested)),
                 ("render_deferred_total", rendered),
                 ("requests_total", 1)),
                "request_latency_seconds", latency_s)

    def record_dedup(self, collapsed: int) -> None:
        """``collapsed`` duplicate rows folded away by in-flush dedup
        (the metric mirror happens in the server, which knows whether a
        flush actually collapsed anything)."""
        if collapsed <= 0:
            return
        with self._lock:
            self._dedup_rows += int(collapsed)

    def record_swap(self, latency_s: float) -> None:
        """One completed model hot-swap."""
        with self._lock:
            self._swaps += 1
            self._swap_latencies_s.append(latency_s)
        if self.metrics is not None:
            self.metrics.count("swaps_total")
            self.metrics.observe("swap_latency_seconds", latency_s)

    def reset(self) -> None:
        """Zero every counter (used between benchmark phases)."""
        with self._lock:
            self._requests = 0
            self._lat_hist.reset()
            self._lat_sample.reset()
            self._occupancy.clear()
            self._cache_hits = 0
            self._cache_misses = 0
            self._nested_hits = 0
            self._tie_misses = 0
            self._cache_by_version.clear()
            self._swaps = 0
            self._swap_latencies_s.clear()
            self._dedup_rows = 0
            self._started_at = None
            self._last_event_at = None

    # ------------------------------------------------------------------
    def snapshot(self) -> StatsSnapshot:
        with self._lock:
            requests = self._requests
            hist = self._lat_hist.snapshot()
            sample = self._lat_sample.values()
            sample_exact = self._lat_sample.seen <= self._lat_sample.capacity
            occupancy = dict(self._occupancy)
            hits, misses = self._cache_hits, self._cache_misses
            nested_hits, tie_misses = self._nested_hits, self._tie_misses
            by_version = {v: dict(split) for v, split
                          in self._cache_by_version.items()}
            swaps = self._swaps
            swap_ms = tuple(s * 1e3 for s in self._swap_latencies_s)
            dedup_rows = self._dedup_rows
            if self._started_at is not None \
                    and self._last_event_at is not None:
                duration = max(self._last_event_at - self._started_at, 1e-9)
            else:
                duration = 0.0
        if requests:
            mean = hist.mean * 1e3  # exact (count/sum are exact)
            if sample_exact:
                # The reservoir still holds every observation: identical
                # numbers to the old keep-everything implementation.
                p50, p95, p99 = np.percentile(sample, (50, 95, 99)) * 1e3
            else:
                # Uniform 4096-sample percentiles, clamped by the exact
                # histogram extremes.
                p50, p95, p99 = np.clip(
                    np.percentile(sample, (50, 95, 99)),
                    hist.min, hist.max) * 1e3
        else:
            p50 = p95 = p99 = mean = 0.0
        cache_ref, memo_ref = self._cache_ref, self._memo_ref
        cache_entries = (cache_ref.entries_by_version()
                         if cache_ref is not None else {})
        if memo_ref is not None:
            memo_entries = memo_ref.entries_by_version()
            memo_hits, memo_misses = memo_ref.hits, memo_ref.misses
            memo_evictions = memo_ref.evictions
        else:
            memo_entries = {}
            memo_hits = memo_misses = memo_evictions = 0
        sizes = np.array(sorted(occupancy), dtype=np.float64)
        counts = np.array([occupancy[int(s)] for s in sizes],
                          dtype=np.float64)
        mean_occ = float((sizes * counts).sum() / counts.sum()) \
            if counts.size else 0.0
        return StatsSnapshot(
            requests=requests,
            batches=int(counts.sum()),
            cache_hits=hits,
            cache_misses=misses,
            duration_s=duration,
            throughput_rps=(requests / duration) if duration else 0.0,
            latency_ms_mean=float(mean),
            latency_ms_p50=float(p50),
            latency_ms_p95=float(p95),
            latency_ms_p99=float(p99),
            batch_occupancy=occupancy,
            mean_occupancy=mean_occ,
            cache_by_version=by_version,
            cache_nested_hits=nested_hits,
            cache_tie_misses=tie_misses,
            swaps=swaps,
            swap_latency_ms=swap_ms,
            dedup_rows=dedup_rows,
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            memo_evictions=memo_evictions,
            cache_entries_by_version=cache_entries,
            memo_entries_by_version=memo_entries,
        )
