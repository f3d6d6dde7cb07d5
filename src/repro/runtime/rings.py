"""Shared-memory request/response rings (the serving dataplane).

The process fleet keeps the *big* state in shared-memory planes — the
CSR adjacency and the frozen embedding tables — and every flush
crosses to its worker here, with **no pickling**.  Each worker gets
one shared-memory **scratch segment** holding a request slot and a
response slot.  Sessions and rankings are small int32 rows, so a
flush encodes as flat numeric arrays:

* the request slot carries one :class:`~repro.runtime.flush.FlushPlan`
  as one int32 vector: a counting header, then every section in a
  fixed order (:func:`encode_plan`), all of it checked on decode;
* the response slot carries ``(status, version, ks, topk_items,
  topk_scores, path_len / path_entities / path_rels, path_probs)``
  — ``topk_scores`` and ``path_probs`` stay float64, so process-mode
  results are bit-identical to thread mode's;
* a failed execution posts ``status=1`` with the traceback as UTF-8
  bytes in the same slot.

Publish protocol: messages are numbered by a monotonically increasing
ticket.  The producer writes the payload length and bytes first, then
publishes by storing ``ticket + 1`` into the slot's sequence word; the
consumer knows which ticket it expects next and polls the sequence
until it matches.  A short spin is enough when the peer is already
running; the worker handle in ``repro.runtime.workers`` pairs each
ring with a **doorbell pipe** so an idle peer blocks in ``select``
instead of burning a core (the host may have a single CPU —
busy-polling there would starve the very worker being waited on).

Capacity is fixed at creation: a payload larger than its slot raises
:class:`RingUnsuitable`, and a second request posted before the first
one's response was consumed raises :class:`RingFull` (the pool holds
the worker lock for a whole round trip, so neither happens in
serving: a plan that would overflow a slot moves its worker onto a
bigger ring first).  See ``runtime/README.md`` for the slot layout and
the growth rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.flush import FlushPlan
from repro.runtime.rowblock import RowBlock
from repro.telemetry.block import attach_shm

_I32 = np.dtype("<i4")
_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")

# Per-slot header: [seq int64][length int64], payload follows.
_SLOT_HEADER = 16
_CACHE_LINE = 64

# Defaults sized for serving flushes (a 32-row flush of short sessions
# at k <= 186); a bigger plan grows its worker's ring (see workers.py).
DEFAULT_REQ_SLOT_BYTES = 1 << 16   # 64 KiB
DEFAULT_RESP_SLOT_BYTES = 1 << 18  # 256 KiB


class RingFull(RuntimeError):
    """The request slot holds a message whose response is unconsumed."""


class RingUnsuitable(RuntimeError):
    """This payload cannot ride the ring: it outgrows its slot, or a
    value does not fit int32."""


class CorruptPayload(RuntimeError):
    """A payload is truncated or internally inconsistent."""


@dataclass(frozen=True)
class RingManifest:
    """Everything a peer process needs to attach a ring pair."""

    segment: str
    req_slot_bytes: int
    resp_slot_bytes: int


def _align(offset: int, alignment: int = _CACHE_LINE) -> int:
    return -(-offset // alignment) * alignment


class RingPair:
    """One worker's request slot + response slot in a single segment.

    Single-producer / single-consumer per direction: the pool parent
    produces requests and consumes responses, the worker does the
    reverse.  Both sides hold a :class:`RingPair` over the same
    segment; ``owner=True`` (the creating parent) unlinks it.
    """

    def __init__(self, shm, manifest: RingManifest, owner: bool) -> None:
        self._shm = shm
        self.manifest = manifest
        self._owner = owner
        self._closed = False
        self._req_base = 0
        self._resp_base = _align(_SLOT_HEADER + manifest.req_slot_bytes)
        # Producer/consumer tickets are process-local: each side only
        # needs its own position (SPSC, strictly in-order).
        self._req_produced = 0
        self._req_consumed = 0
        self._resp_produced = 0
        self._resp_consumed = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, req_slot_bytes: int = DEFAULT_REQ_SLOT_BYTES,
               resp_slot_bytes: int = DEFAULT_RESP_SLOT_BYTES
               ) -> "RingPair":
        """Allocate the segment (raises ImportError/OSError when the
        host has no usable POSIX shared memory)."""
        from multiprocessing import shared_memory

        total = (_align(_SLOT_HEADER + req_slot_bytes) + _SLOT_HEADER
                 + resp_slot_bytes)
        shm = shared_memory.SharedMemory(create=True, size=total)
        shm.buf[:total] = b"\x00" * total
        manifest = RingManifest(segment=shm.name,
                                req_slot_bytes=req_slot_bytes,
                                resp_slot_bytes=resp_slot_bytes)
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: RingManifest,
               untrack: bool = False) -> "RingPair":
        shm = attach_shm(manifest.segment, untrack)
        return cls(shm, manifest, owner=False)

    # ------------------------------------------------------------------
    # Slot plumbing
    # ------------------------------------------------------------------
    def _post(self, offset: int, slot_bytes: int, ticket: int,
              payload: bytes) -> None:
        if len(payload) > slot_bytes:
            raise RingUnsuitable(
                f"payload of {len(payload)} bytes exceeds the "
                f"{slot_bytes}-byte slot")
        buf = self._shm.buf
        head = np.frombuffer(buf, dtype=_I64, count=2, offset=offset)
        # Payload and length first, sequence word last: a consumer that
        # observes seq == ticket + 1 is guaranteed a complete payload.
        body = offset + _SLOT_HEADER
        buf[body:body + len(payload)] = payload
        head[1] = len(payload)
        head[0] = ticket + 1

    def _take(self, offset: int, ticket: int,
              spin: int) -> Optional[bytes]:
        buf = self._shm.buf
        head = np.frombuffer(buf, dtype=_I64, count=2, offset=offset)
        for _ in range(max(1, spin)):
            if int(head[0]) == ticket + 1:
                length = int(head[1])
                body = offset + _SLOT_HEADER
                return bytes(buf[body:body + length])
        return None

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def post_request(self, payload: bytes) -> int:
        """Publish the next request; returns its ticket."""
        if self._req_produced > self._req_consumed:
            raise RingFull("the request slot is still in flight")
        ticket = self._req_produced
        self._post(self._req_base, self.manifest.req_slot_bytes, ticket,
                   payload)
        self._req_produced = ticket + 1
        return ticket

    def poll_response(self, spin: int = 1) -> Optional[bytes]:
        """The next in-order response, or None if not yet published."""
        payload = self._take(self._resp_base, self._resp_consumed, spin)
        if payload is not None:
            self._resp_consumed += 1
        return payload

    @property
    def requests_in_flight(self) -> int:
        return self._req_produced - self._req_consumed

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def poll_request(self, spin: int = 1) -> Optional[bytes]:
        """The next in-order request, or None if not yet published."""
        payload = self._take(self._req_base, self._req_consumed, spin)
        if payload is not None:
            self._req_consumed += 1
        return payload

    def post_response(self, payload: bytes) -> int:
        ticket = self._resp_produced
        self._post(self._resp_base, self.manifest.resp_slot_bytes,
                   ticket, payload)
        self._resp_produced = ticket + 1
        return ticket

    def note_response_consumed(self) -> None:
        """Parent bookkeeping: one request fully round-tripped (frees
        the request slot for the next one)."""
        self._req_consumed += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass

    def unlink(self) -> None:
        self.close()
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:
        return (f"RingPair(segment={self.manifest.segment!r}, "
                f"req_slot_bytes={self.manifest.req_slot_bytes}, "
                f"resp_slot_bytes={self.manifest.resp_slot_bytes}, "
                f"in_flight={self.requests_in_flight})")


# ----------------------------------------------------------------------
# Request codec: a FlushPlan <-> one flat int32 vector
# ----------------------------------------------------------------------
_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1
# users slot for "no user id" (sessions always carry one today; the
# sentinel keeps the codec total).
_NO_USER = _I32_MIN
_PLAN_MAGIC = 0x52454B53  # "REKS"
_PLAN_HEADER = 5


def _check_i32(value: int, what: str) -> int:
    value = int(value)
    if not _I32_MIN <= value <= _I32_MAX:
        raise RingUnsuitable(f"{what} {value} does not fit int32")
    return value


def encode_plan(plan: FlushPlan, max_length: int) -> bytes:
    """Flatten a :class:`~repro.runtime.flush.FlushPlan` to int32 words.

    A five-word header ``[magic, unique rows U, requests R, prefix
    items P, candidate items C | -1]`` and then every section, always,
    in one order: ``ks[U] lengths[U] targets[U] users[U] items[P]
    row_map[R] row_ks[R] traces[R]`` and, when the cascade is on
    (``C >= 0``), ``candidate lengths[U] candidate items[C]``.

    Prefixes are pre-truncated to ``max_length`` — bit-identical to
    shipping them whole, because ``collate_examples`` applies the same
    ``[-max_length:]`` truncation worker-side.  A value that does not
    fit int32 raises :class:`RingUnsuitable`.
    """
    rows, cands = plan.rows, plan.candidates
    prefixes = [row[0][-max_length:] for row in rows]
    items = [item for prefix in prefixes for item in prefix]
    cand_items = (None if cands is None
                  else [item for row in cands for item in row])
    flat = [_PLAN_MAGIC, len(rows), len(plan.row_map), len(items),
            -1 if cands is None else len(cand_items)]
    flat += plan.ks
    flat += map(len, prefixes)
    flat += [row[1] for row in rows]
    flat += [_NO_USER if row[2] is None else row[2] for row in rows]
    flat += items
    flat += plan.row_map
    flat += plan.row_ks
    flat += plan.traces
    if cands is not None:
        flat += map(len, cands)
        flat += cand_items
    try:
        return np.array(flat, dtype=_I32).tobytes()
    except OverflowError as exc:
        raise RingUnsuitable(f"request value does not fit int32: {exc}"
                             ) from None


def decode_plan(payload: bytes) -> FlushPlan:
    """Inverse of :func:`encode_plan` (prefixes and candidate rows come
    back as lists).

    The payload must be exactly the size its header implies, with
    ``lengths >= 1`` summing to ``P``, ``ks, row_ks >= 1``, ``0 <=
    row_map < U``, ``traces >= 0`` and candidate lengths ``>= 0``
    summing to ``C``; anything else raises :class:`CorruptPayload` —
    never a plausible different batch.  There is no section table:
    both ends of a ring are always the same commit, so a fixed order
    plus the header counts is fully checkable with less code.
    """
    if len(payload) % 4 or len(payload) < 4 * _PLAN_HEADER:
        raise CorruptPayload(f"request payload of {len(payload)} bytes")
    flat = np.frombuffer(payload, dtype=_I32).tolist()
    magic, n, n_req, n_items, n_cands = flat[:_PLAN_HEADER]
    if (magic != _PLAN_MAGIC or n < 1 or n_req < n or n_items < n
            or n_cands < -1):
        raise CorruptPayload(f"request header {flat[:_PLAN_HEADER]}")
    size = _PLAN_HEADER + 4 * n + n_items + 3 * n_req
    if n_cands >= 0:
        size += n + n_cands
    if len(flat) != size:
        raise CorruptPayload(
            f"request header {flat[:_PLAN_HEADER]} implies {size} words, "
            f"payload has {len(flat)}")
    cuts = [_PLAN_HEADER]
    for count in (n, n, n, n, n_items, n_req, n_req, n_req):
        cuts.append(cuts[-1] + count)
    ks, lengths, targets, users, items, row_map, row_ks, traces = (
        flat[start:stop] for start, stop in zip(cuts, cuts[1:]))
    stops = list(accumulate(lengths, initial=0))
    if (min(ks) < 1 or min(lengths) < 1 or stops[-1] != n_items
            or min(row_ks) < 1 or min(row_map) < 0 or max(row_map) >= n
            or min(traces) < 0):
        raise CorruptPayload("request section out of range")
    rows = [(items[start:stop], target, None if user == _NO_USER else user)
            for start, stop, target, user
            in zip(stops, stops[1:], targets, users)]
    candidates = None
    if n_cands >= 0:
        first = cuts[-1] + n
        cand_lengths = flat[cuts[-1]:first]
        stops = list(accumulate(cand_lengths, initial=first))
        if min(cand_lengths) < 0 or stops[-1] != len(flat):
            raise CorruptPayload("candidate lengths out of range")
        candidates = [flat[start:stop]
                      for start, stop in zip(stops, stops[1:])]
    return FlushPlan(rows, ks, candidates, row_map, row_ks, traces)


def encode_request(examples: Sequence[tuple], ks: Sequence[int],
                   max_length: int) -> bytes:
    """A plain batch — nothing collapsed, cascade and tracing off — as
    its identity plan's payload."""
    return encode_plan(FlushPlan.build(examples, ks), max_length)


decode_request = decode_plan


# ----------------------------------------------------------------------
# Response codec: a RowBlock's arrays <-> one payload
# ----------------------------------------------------------------------
_STATUS_OK = 0
_STATUS_ERROR = 1


def encode_error(traceback_text: str, capacity: int) -> bytes:
    """A status=1 slot whose payload is the (truncated) traceback."""
    head = np.array([_STATUS_ERROR, 0], dtype=_I64).tobytes()
    body = traceback_text.encode("utf-8", errors="replace")
    return head + body[:max(0, capacity - len(head))]


def _pad8(parts: List[bytes]) -> None:
    """Zero-pad ``parts`` so the next section starts 8-aligned."""
    size = sum(len(part) for part in parts)
    parts.append(b"\x00" * (_align(size, 8) - size))


def encode_response(version: int, rows, spans: Sequence[tuple] = (),
                    traces: Sequence[int] = (),
                    rowrecs: Sequence[tuple] = ()) -> bytes:
    """Marshal executed rows: a :class:`~repro.runtime.rowblock.RowBlock`
    (what workers post — its arrays are written as they are), or the
    list form ``(items, scores, path_blobs)`` per row, ``path_blobs[i]``
    being ``None`` or ``(entities, relations, prob)``.

    Layout (all little-endian, float64 sections 8-aligned):

    ``[status i64][version i64][n i32][ks i32*n][items i32*K]
    [scores f64*K][path_len i32*K][path_nodes i32*…][probs f64*P]``

    where ``K = sum(ks)``, ``path_len`` is the relation count (-1 for
    no path), ``path_nodes`` concatenates each present path's
    ``entities`` (len+1) then ``relations`` (len), and ``P`` is the
    number of present paths.

    When the request carried sampled trace ids, a **telemetry
    trailer** follows: ``[n_spans i32][n_traces i32]
    [traces i32*n_traces][pad8][spans f64*3*n_spans]`` — each span is
    a ``(kind_id, t0, dur)`` triple (see
    :data:`repro.telemetry.trace.SPAN_KINDS`).

    ``rowrecs`` (optional) appends a **per-row section** after the
    spans: ``[n_rows i32][hops i32][(trace i32, widths i32*hops) *
    n_rows][pad8][(walk_s f64, topk_s f64) * n_rows]`` — one record
    per sampled row, carrying its per-hop frontier width and its
    attributed walk / top-k duration share (see
    :func:`repro.telemetry.trace.attribute_rows`).  Every record in a
    batch shares the same executed-hop count.

    No trailer is emitted when every telemetry section is empty,
    keeping the tracing-off payload byte-identical to the
    pre-telemetry format (and the rowrecs-off payload byte-identical
    to the span-only trailer).
    """
    block = rows if isinstance(rows, RowBlock) else RowBlock.from_rows(rows)
    parts = [np.array([_STATUS_OK, int(version)], dtype=_I64).tobytes(),
             np.array([len(block)], dtype=_I32).tobytes(),
             block.ks.tobytes(), block.items.tobytes()]
    _pad8(parts)
    parts += [block.scores.tobytes(), block.path_len.tobytes(),
              block.path_nodes.tobytes()]
    _pad8(parts)
    parts.append(block.probs.tobytes())
    if spans or traces or rowrecs:
        parts.append(np.asarray([len(spans), len(traces)]
                                + [_check_i32(t, "trace id")
                                   for t in traces],
                                dtype=_I32).tobytes())
        _pad8(parts)
        parts.append(np.asarray(spans, dtype=_F64).tobytes())
    if rowrecs:
        hops = len(rowrecs[0][1])
        ints: List[int] = [len(rowrecs), hops]
        durs: List[float] = []
        for trace_id, widths, walk_s, topk_s in rowrecs:
            if len(widths) != hops:
                raise RingUnsuitable(
                    f"row record has {len(widths)} hop widths, "
                    f"batch has {hops}")
            ints.append(_check_i32(trace_id, "trace id"))
            ints += [_check_i32(w, "frontier width") for w in widths]
            durs += [float(walk_s), float(topk_s)]
        parts.append(np.asarray(ints, dtype=_I32).tobytes())
        _pad8(parts)
        parts.append(np.asarray(durs, dtype=_F64).tobytes())
    return b"".join(parts)


class _Reader:
    """Bounds-checked cursor over a response payload."""

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.offset = 0

    @property
    def left(self) -> int:
        return len(self.payload) - self.offset

    def take(self, dtype: np.dtype, count: int, what: str) -> np.ndarray:
        """The next ``count`` values (a view), or :class:`CorruptPayload`
        when the count is negative or the section overruns the end."""
        if count < 0 or count * dtype.itemsize > self.left:
            raise CorruptPayload(
                f"{what}: {count} x {dtype.name} at byte {self.offset} "
                f"of a {len(self.payload)}-byte payload")
        values = np.frombuffer(self.payload, dtype=dtype, count=count,
                               offset=self.offset)
        self.offset += count * dtype.itemsize
        return values

    def align(self) -> None:
        self.offset = _align(self.offset, 8)


def decode_block(payload: bytes
                 ) -> Tuple[int, RowBlock, List[tuple], List[int],
                            List[tuple]]:
    """Inverse of :func:`encode_response`; returns ``(version, block,
    spans, traces, rowrecs)`` (telemetry sections empty when the
    payload has no trailer).  The block's arrays are read-only views
    of ``payload``.

    Every count's sign and every section's extent is checked against
    the payload before it is read: a truncated or corrupted payload
    raises :class:`CorruptPayload`, never a bare NumPy error and never
    a plausible block.  Raises :class:`WorkerExecError` when the slot
    carries a worker traceback (status=1).
    """
    reader = _Reader(payload)
    status, version = reader.take(_I64, 2, "header").tolist()
    if status == _STATUS_ERROR:
        raise WorkerExecError(payload[16:].decode("utf-8",
                                                  errors="replace"))
    if status != _STATUS_OK:
        raise CorruptPayload(f"unknown response status {status}")
    n = int(reader.take(_I32, 1, "row count")[0])
    ks = reader.take(_I32, n, "ks")
    if n and int(ks.min()) < 0:
        raise CorruptPayload("negative k")
    total = int(ks.sum(dtype=np.int64))
    items = reader.take(_I32, total, "items")
    reader.align()
    scores = reader.take(_F64, total, "scores")
    path_len = reader.take(_I32, total, "path_len")
    if total and int(path_len.min()) < -1:
        raise CorruptPayload("path_len below -1")
    present = path_len >= 0
    n_paths = int(np.count_nonzero(present))
    path_nodes = reader.take(
        _I32, 2 * int(path_len[present].sum(dtype=np.int64)) + n_paths,
        "path_nodes")
    reader.align()
    probs = reader.take(_F64, n_paths, "probs")
    spans: List[tuple] = []
    traces: List[int] = []
    rowrecs: List[tuple] = []
    if reader.left:
        n_spans, n_traces = reader.take(_I32, 2, "span trailer").tolist()
        traces = reader.take(_I32, n_traces, "trace echo").tolist()
        reader.align()
        spans = [(int(kind), t0, dur) for kind, t0, dur
                 in reader.take(_F64, 3 * n_spans, "spans")
                 .reshape(n_spans, 3).tolist()]
    if reader.left:
        n_rowrecs, hops = reader.take(_I32, 2, "row records").tolist()
        if n_rowrecs < 0 or hops < 0:
            raise CorruptPayload("negative row-record shape")
        ints = reader.take(_I32, n_rowrecs * (1 + hops),
                           "row-record widths").reshape(n_rowrecs, 1 + hops)
        reader.align()
        durs = reader.take(_F64, 2 * n_rowrecs, "row-record durations")
        rowrecs = [(rec[0], tuple(rec[1:]), walk_s, topk_s)
                   for rec, (walk_s, topk_s)
                   in zip(ints.tolist(), durs.reshape(-1, 2).tolist())]
    if reader.left:
        raise CorruptPayload(f"{reader.left} trailing bytes")
    return (version, RowBlock(ks, items, scores, path_len, path_nodes,
                              probs), spans, traces, rowrecs)


def decode_response(payload: bytes
                    ) -> Tuple[int, List[tuple], List[tuple],
                               List[int], List[tuple]]:
    """:func:`decode_block` with the block as ``(items, scores,
    path_blobs)`` list rows — the inverse of :func:`encode_response`
    on its list form."""
    version, block, spans, traces, rowrecs = decode_block(payload)
    return version, block.to_rows(), spans, traces, rowrecs


class WorkerExecError(RuntimeError):
    """A ring response carried a worker-side traceback."""
