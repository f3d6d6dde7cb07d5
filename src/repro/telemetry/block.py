"""Fixed-layout shared-memory metric blocks with seqlock snapshots.

One :class:`MetricBlock` is a small shared-memory segment holding a
fixed set of counters (int64), gauges (float64), and log-bucketed
latency histograms, laid out from a :class:`MetricSchema` so any
process that holds the :class:`BlockManifest` can attach and read it
zero-copy.  Every block has exactly **one writer process** (the worker,
the updater child, or the serving parent) and any number of readers.

Publish discipline mirrors the request/response rings
(:mod:`repro.runtime.rings`): the writer is lock-free across processes
and publishes each mutation under a **seqlock** — it bumps the header
sequence word to odd, mutates, and bumps it back to even — so a reader
that copies the arrays while the sequence is even and unchanged has a
consistent snapshot (count == bucket mass, sum matches count), and
otherwise retries.  In-process writer threads serialize on an ordinary
lock (mutations are a few scalar stores; contention is negligible
relative to a batch execution).

Histograms are log-bucketed: bucket ``i`` holds observations in
``(2**(LO+i-1), 2**(LO+i)]`` seconds, spanning ~1µs to ~2^35s in 56
buckets (448 bytes each) with exact ``count``/``sum`` and running
``min``/``max`` — quantiles interpolate inside a bucket and clamp to
the observed extremes, so memory stays flat at any request volume.
:class:`LocalHistogram` and :class:`Reservoir` reuse the same bucket
math for purely in-process accounting (``repro.serving.stats``).

Backends: ``shm`` (POSIX shared memory) with an ``mmap`` temp-file
fallback — the block is the only segment thread mode creates, so a
thread-mode server runs on a host without POSIX shm (the process
fleet's planes and rings need it).  ``untrack`` on attach
(:func:`attach_shm`): False for multiprocessing children (they share
the creator's resource tracker), True only for foreign interpreters.
"""

from __future__ import annotations

import math
import mmap as _mmap
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")

_MAGIC = 0x524B4D42  # "RKMB"
_HEADER_WORDS = 8    # [magic, seq, pid, reserved*5]
_SEQ = 1
_PID = 2

# Log-bucket geometry (seconds).  Bucket i covers
# (2**(LO+i-1), 2**(LO+i)]; i=0 also absorbs <= 0 and underflow,
# the last bucket absorbs overflow.
HIST_BUCKETS = 56
_EXP_LO = -20  # first upper edge = 2**-20 s ~ 0.95 us


def bucket_index(value: float) -> int:
    """Bucket of one observation (clamped into range)."""
    if value <= 0.0:
        return 0
    exp = math.frexp(value)[1]  # value in [2**(exp-1), 2**exp)
    idx = exp - _EXP_LO
    if idx < 0:
        return 0
    if idx >= HIST_BUCKETS:
        return HIST_BUCKETS - 1
    return idx


def _fold(values: Sequence[float], total: float, lo: float, hi: float
          ) -> Tuple[Dict[int, int], float, float, float]:
    """What observing ``values`` one by one, in order, does to a
    histogram whose running ``sum`` / ``min`` / ``max`` are ``total``
    / ``lo`` / ``hi``: ``({bucket: increment}, sum, min, max)``.  The
    sum is accumulated left to right so its float64 bits match the
    scalar path's."""
    counts: Dict[int, int] = {}
    for value in values:
        bucket = bucket_index(value)
        counts[bucket] = counts.get(bucket, 0) + 1
        total += value
    return counts, total, min(lo, min(values)), max(hi, max(values))


def bucket_upper_edges() -> np.ndarray:
    """Upper edge (seconds) of each bucket (last is open-ended)."""
    return np.ldexp(1.0, np.arange(HIST_BUCKETS) + _EXP_LO)


@dataclass(frozen=True)
class MetricSchema:
    """Ordered metric names; fixes a block's byte layout.

    Names may carry Prometheus-style labels inline
    (``walk_hop_seconds{hop=1}``) —
    the exporters parse them back out; the block treats the full
    string as the key.
    """

    counters: Tuple[str, ...] = ()
    gauges: Tuple[str, ...] = ()
    histograms: Tuple[str, ...] = ()

    def nbytes(self) -> int:
        return (_HEADER_WORDS * 8
                + len(self.counters) * 8
                + len(self.gauges) * 8
                + len(self.histograms) * (HIST_BUCKETS + 3) * 8
                + len(self.histograms) * 8)


@dataclass(frozen=True)
class BlockManifest:
    """Everything a peer process needs to attach a block."""

    kind: str          # "shm" | "mmap"
    name: str          # segment name or file path
    role: str          # fleet-unique writer role ("worker0", "updater", ...)
    schema: MetricSchema
    nbytes: int


@dataclass(frozen=True)
class HistSnapshot:
    """Consistent copy of one histogram (times in seconds)."""

    count: int
    sum: float
    min: float
    max: float
    buckets: np.ndarray = field(repr=False)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile, clamped to the observed min/max."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        edges = bucket_upper_edges()
        cum = 0
        for i in range(HIST_BUCKETS):
            n = int(self.buckets[i])
            if n == 0:
                continue
            if cum + n >= target:
                lo = edges[i - 1] if i else 0.0
                hi = edges[i]
                frac = (target - cum) / n
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return float(min(max(value, self.min), self.max))
            cum += n
        return float(self.max)

    def to_dict(self) -> dict:
        edges = bucket_upper_edges()
        nz = np.flatnonzero(self.buckets)
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [[float(edges[i]), int(self.buckets[i])]
                        for i in nz],
        }


def merge_hists(parts) -> HistSnapshot:
    """Bucket-wise merge of histogram snapshots (sum-preserving)."""
    buckets = np.zeros(HIST_BUCKETS, dtype=np.int64)
    count, total = 0, 0.0
    lo, hi = math.inf, -math.inf
    for part in parts:
        if part is None or part.count == 0:
            continue
        buckets += part.buckets
        count += part.count
        total += part.sum
        lo = min(lo, part.min)
        hi = max(hi, part.max)
    if count == 0:
        lo = hi = 0.0
    return HistSnapshot(count=count, sum=total, min=lo, max=hi,
                        buckets=buckets)


@dataclass(frozen=True)
class BlockSnapshot:
    """Seqlock-consistent copy of one block's metrics."""

    role: str
    pid: int
    torn: bool
    counters: Dict[str, int]
    gauges: Dict[str, float]
    hists: Dict[str, HistSnapshot]


class _MMapSegment:
    """Minimal file-backed stand-in for SharedMemory (same duck API)."""

    def __init__(self, path: str, size: int, create: bool) -> None:
        self.name = path
        flags = os.O_RDWR | (os.O_CREAT if create else 0)
        fd = os.open(path, flags, 0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            self._mmap = _mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        try:
            self.buf.release()
            self._mmap.close()
        except (BufferError, ValueError):  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        try:
            os.unlink(self.name)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def attach_shm(name: str, untrack: bool):
    """Open an existing shared-memory segment without adopting it.

    On 3.13+ ``track=False`` keeps the attaching process's resource
    tracker out of the segment's lifetime (the publishing owner stays
    responsible for the unlink).  On 3.11/3.12 every attach registers
    with the process's resource tracker; ``multiprocessing`` children
    — fork *and* spawn — share the publisher's tracker (its fd rides
    in the spawn preparation data), so the registration is a set no-op
    there and the owner's ``unlink`` deregisters cleanly.  Only a
    **foreign** process (one not started by the publisher's
    interpreter) has a private tracker that would adopt the segment
    and unlink it at exit; such attachers pass ``untrack=True``.

    The one attach helper for every segment in the fleet: metric
    blocks, table planes and rings.
    """
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    shm = shared_memory.SharedMemory(name=name)
    if untrack:
        try:  # pragma: no cover - spawn-context only
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


class MetricBlock:
    """One writer process's metric arrays over a shared segment."""

    def __init__(self, segment, manifest: BlockManifest, owner: bool,
                 writer: bool) -> None:
        self._segment = segment
        self.manifest = manifest
        self._owner = owner
        self._closed = False
        self._wlock = threading.Lock()
        schema = manifest.schema
        buf = segment.buf
        offset = 0
        self._hdr = np.frombuffer(buf, dtype=_I64, count=_HEADER_WORDS,
                                  offset=offset)
        offset += _HEADER_WORDS * 8
        c, g, h = (len(schema.counters), len(schema.gauges),
                   len(schema.histograms))
        self._counters = np.frombuffer(buf, dtype=_I64, count=max(c, 1),
                                       offset=offset)[:c]
        offset += c * 8
        self._gauges = np.frombuffer(buf, dtype=_F64, count=max(g, 1),
                                     offset=offset)[:g]
        offset += g * 8
        self._hbuckets = np.frombuffer(
            buf, dtype=_I64, count=max(h * HIST_BUCKETS, 1),
            offset=offset)[:h * HIST_BUCKETS].reshape(h, HIST_BUCKETS)
        offset += h * HIST_BUCKETS * 8
        self._hcount = np.frombuffer(buf, dtype=_I64, count=max(h, 1),
                                     offset=offset)[:h]
        offset += h * 8
        self._hsum = np.frombuffer(buf, dtype=_F64, count=max(h, 1),
                                   offset=offset)[:h]
        offset += h * 8
        self._hmin = np.frombuffer(buf, dtype=_F64, count=max(h, 1),
                                   offset=offset)[:h]
        offset += h * 8
        self._hmax = np.frombuffer(buf, dtype=_F64, count=max(h, 1),
                                   offset=offset)[:h]
        self._ci = {name: i for i, name in enumerate(schema.counters)}
        self._gi = {name: i for i, name in enumerate(schema.gauges)}
        self._hi = {name: i for i, name in enumerate(schema.histograms)}
        if writer:
            self._hdr[_PID] = os.getpid()

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, schema: MetricSchema, role: str,
               backend: str = "auto") -> "MetricBlock":
        nbytes = schema.nbytes()
        segment = None
        kind = backend
        if backend in ("auto", "shm"):
            try:
                from multiprocessing import shared_memory
                segment = shared_memory.SharedMemory(create=True,
                                                     size=nbytes)
                kind = "shm"
            except (ImportError, OSError):
                if backend == "shm":
                    raise
        if segment is None:
            fd, path = tempfile.mkstemp(prefix=f"reks-metrics-{role}-",
                                        suffix=".bin")
            os.close(fd)
            segment = _MMapSegment(path, nbytes, create=True)
            kind = "mmap"
        segment.buf[:nbytes] = b"\x00" * nbytes
        name = segment.name
        manifest = BlockManifest(kind=kind, name=name, role=role,
                                 schema=schema, nbytes=nbytes)
        block = cls(segment, manifest, owner=True, writer=True)
        block._hdr[0] = _MAGIC
        if len(schema.histograms):
            block._hmin[:] = math.inf
            block._hmax[:] = -math.inf
        return block

    @classmethod
    def attach(cls, manifest: BlockManifest, untrack: bool = False,
               writer: bool = True) -> "MetricBlock":
        if manifest.kind == "shm":
            segment = attach_shm(manifest.name, untrack)
        else:
            segment = _MMapSegment(manifest.name, manifest.nbytes,
                                   create=False)
        return cls(segment, manifest, owner=False, writer=writer)

    # ------------------------------------------------------------------
    # Writer API (single writer process; in-process threads serialize)
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        i = self._ci.get(name)
        if i is None:
            return
        hdr = self._hdr
        with self._wlock:
            hdr[_SEQ] += 1
            self._counters[i] += n
            hdr[_SEQ] += 1

    def gauge(self, name: str, value: float) -> None:
        i = self._gi.get(name)
        if i is None:
            return
        hdr = self._hdr
        with self._wlock:
            hdr[_SEQ] += 1
            self._gauges[i] = value
            hdr[_SEQ] += 1

    def observe(self, name: str, value: float) -> None:
        if name in self._hi:
            self.count_observe((), name, value)

    def count_observe(self, counts: Sequence[Tuple[str, int]],
                      hist: str, value: float) -> None:
        """Every :meth:`count` in ``counts`` and one :meth:`observe`
        as one seqlock publish: a reader sees none of them or all."""
        ci = self._ci
        i = self._hi.get(hist)
        b = bucket_index(value)
        hdr = self._hdr
        with self._wlock:
            hdr[_SEQ] += 1
            for name, n in counts:
                c = ci.get(name)
                if c is not None:
                    self._counters[c] += n
            if i is not None:
                self._hbuckets[i, b] += 1
                self._hcount[i] += 1
                self._hsum[i] += value
                if value < self._hmin[i]:
                    self._hmin[i] = value
                if value > self._hmax[i]:
                    self._hmax[i] = value
            hdr[_SEQ] += 1

    def observe_many(self, name: str, values: Sequence[float]) -> None:
        """:meth:`observe` of each value, in order, as one seqlock
        publish: a reader sees none of the batch or all of it."""
        i = self._hi.get(name)
        if i is None or not len(values):
            return
        hdr = self._hdr
        with self._wlock:
            counts, total, lo, hi = _fold(
                values, float(self._hsum[i]), float(self._hmin[i]),
                float(self._hmax[i]))
            hdr[_SEQ] += 1
            for bucket, count in counts.items():
                self._hbuckets[i, bucket] += count
            self._hcount[i] += len(values)
            self._hsum[i] = total
            self._hmin[i] = lo
            self._hmax[i] = hi
            hdr[_SEQ] += 1

    # ------------------------------------------------------------------
    # Reader API
    # ------------------------------------------------------------------
    def snapshot(self, spins: int = 256) -> BlockSnapshot:
        """Seqlock-consistent copy; a writer that died mid-mutation
        (sequence stuck odd) yields a best-effort copy flagged
        ``torn`` after the retry budget."""
        hdr = self._hdr
        torn = True
        for attempt in range(max(1, spins)):
            s0 = int(hdr[_SEQ])
            if s0 & 1:
                time.sleep(0)
                continue
            copies = (self._counters.copy(), self._gauges.copy(),
                      self._hbuckets.copy(), self._hcount.copy(),
                      self._hsum.copy(), self._hmin.copy(),
                      self._hmax.copy())
            if int(hdr[_SEQ]) == s0:
                torn = False
                break
            time.sleep(0)
        else:
            copies = (self._counters.copy(), self._gauges.copy(),
                      self._hbuckets.copy(), self._hcount.copy(),
                      self._hsum.copy(), self._hmin.copy(),
                      self._hmax.copy())
        counters, gauges, hb, hc, hs, hmin, hmax = copies
        schema = self.manifest.schema
        hists = {
            name: HistSnapshot(
                count=int(hc[i]), sum=float(hs[i]),
                min=float(hmin[i]) if hc[i] else 0.0,
                max=float(hmax[i]) if hc[i] else 0.0,
                buckets=hb[i])
            for i, name in enumerate(schema.histograms)}
        return BlockSnapshot(
            role=self.manifest.role, pid=int(hdr[_PID]), torn=torn,
            counters={name: int(counters[i])
                      for i, name in enumerate(schema.counters)},
            gauges={name: float(gauges[i])
                    for i, name in enumerate(schema.gauges)},
            hists=hists)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Drop every numpy view before releasing the buffer.
        for attr in ("_hdr", "_counters", "_gauges", "_hbuckets",
                     "_hcount", "_hsum", "_hmin", "_hmax"):
            setattr(self, attr, None)
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        self.close()
        if not self._owner:
            return
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:
        return (f"MetricBlock(role={self.manifest.role!r}, "
                f"kind={self.manifest.kind}, "
                f"nbytes={self.manifest.nbytes})")


# ----------------------------------------------------------------------
# In-process companions (no shared memory; same bucket math)
# ----------------------------------------------------------------------
class LocalHistogram:
    """Bounded in-process histogram (``ServerStats``' latency store)."""

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets = np.zeros(HIST_BUCKETS, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.buckets[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` of each value, in order."""
        counts, self.sum, self.min, self.max = _fold(
            values, self.sum, self.min, self.max)
        for bucket, count in counts.items():
            self.buckets[bucket] += count
        self.count += len(values)

    def reset(self) -> None:
        self.buckets[:] = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def snapshot(self) -> HistSnapshot:
        return HistSnapshot(
            count=self.count, sum=self.sum,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
            buckets=self.buckets.copy())


class Reservoir:
    """Fixed-size uniform sample of a stream (exact small-N quantiles).

    Deterministic: replacement indices come from a private
    ``random.Random`` seed, so two runs over the same stream keep the
    same sample — benchmark reruns stay comparable.
    """

    __slots__ = ("_values", "_filled", "_seen", "_rng")

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        import random
        self._values = np.empty(max(1, capacity), dtype=np.float64)
        self._filled = 0
        self._seen = 0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self._seen += 1
        if self._filled < self._values.size:
            self._values[self._filled] = value
            self._filled += 1
            return
        j = self._rng.randrange(self._seen)
        if j < self._values.size:
            self._values[j] = value

    @property
    def seen(self) -> int:
        return self._seen

    @property
    def capacity(self) -> int:
        return int(self._values.size)

    def values(self) -> np.ndarray:
        return self._values[:self._filled].copy()

    def reset(self) -> None:
        self._filled = 0
        self._seen = 0


# ----------------------------------------------------------------------
# Canonical fleet schema + label helpers
# ----------------------------------------------------------------------
MAX_HOP_HISTS = 8


@lru_cache(maxsize=64)
def walk_hop_hist(hop: int) -> str:
    return f"walk_hop_seconds{{hop={hop}}}"


def fleet_schema(hops: int = 0) -> MetricSchema:
    """The schema every fleet role shares (unused metrics stay zero).

    One shared schema keeps merge trivial (union by name is identity)
    and lets any role record any metric its layer touches.  Per-hop
    walk histograms are materialized up to the config's path length
    (capped).
    """
    counters = [
        "requests_total", "batches_total",
        "cache_hits_total", "cache_misses_total",
        # of the hits: sliced from an entry ranked at another k
        "cache_nested_hits_total",
        "ring_batches_total",
        "worker_respawns_total",
        "exec_batches_total", "exec_rows_total",
        "render_rows_total", "render_deferred_total",
        "gather_calls_total", "gather_rows_total",
        "traces_sampled_total", "worker_traces_total",
        "trace_dropped_total",
        "swaps_total",
        "online_rounds_total", "online_sessions_total",
        "cascade_candidates_total", "cascade_pruned_frontier_rows_total",
        "dedup_rows_total",
        "reachability_rebuilds_total",
    ]
    gauges = ["model_version", "workers_alive", "trace_sample"]
    hists = [
        "request_latency_seconds", "enqueue_wait_seconds",
        "batch_flush_seconds", "transport_seconds", "exec_seconds",
        "walk_seconds", "topk_seconds", "render_seconds",
        "swap_latency_seconds",
        "online_round_seconds", "online_ingest_seconds",
        "online_compact_seconds", "online_publish_seconds",
    ]
    hists += [walk_hop_hist(hop) for hop in range(min(hops,
                                                      MAX_HOP_HISTS))]
    return MetricSchema(counters=tuple(counters), gauges=tuple(gauges),
                        histograms=tuple(hists))
