"""Fixed-slot shared-memory request/response rings (the serving dataplane).

PR 4's process fleet moved the *big* state out of the pipes — the CSR
adjacency and frozen embedding tables ride shared-memory planes — but
every ``exec`` round-trip still pickled the micro-batch and its result
rows through a duplex pipe.  At serving scale that pickle/unpickle pair
is the per-batch overhead that separates process mode from thread mode.

This module removes it.  Each worker gets one shared-memory **scratch
segment** holding a request ring and a response ring of fixed-size
slots.  Sessions and rankings are small int32 rows, so a micro-batch
encodes as flat numeric arrays — no pickling on the hot path:

* a request slot carries ``(n, ks[n], lengths[n], targets[n],
  users[n], items[sum lengths])`` as one int32 vector (``ks`` is
  per-row: a mixed-k flush executes as one superset walk);
* a response slot carries ``(status, version, ks, topk_items,
  topk_scores, path_len / path_entities / path_rels, path_probs)``
  — ``topk_scores`` and ``path_probs`` stay float64 so ring results
  are bit-identical to the pipe's ``float()``-marshalled rows;
* a failed execution posts ``status=1`` with the traceback as UTF-8
  bytes in the same slot.

Publish protocol: slots are claimed round-robin by a monotonically
increasing ticket.  The producer writes the payload length and bytes
first, then publishes by storing ``ticket + 1`` into the slot's
sequence word; the consumer knows which ticket it expects next and
polls that slot's sequence until it matches.  A short spin is enough
when the peer is already running; the transport layer in
``repro.runtime.workers`` pairs each ring with a **doorbell pipe** so
an idle peer blocks in ``select`` instead of burning a core (the bench
host may have a single CPU — busy-polling there would starve the very
worker being waited on).

Capacity is fixed at creation: a payload larger than a slot raises
:class:`RingUnsuitable` and a full ring raises :class:`RingFull`;
callers fall back to the pipe for that batch (counted, never silent).
See ``runtime/README.md`` for the slot layout diagram and the
pipe-vs-ring decision table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.rowblock import RowBlock

_I32 = np.dtype("<i4")
_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")

# Per-slot header: [seq int64][length int64], payload follows.
_SLOT_HEADER = 16
_CACHE_LINE = 64

# Defaults sized for serving micro-batches (max_batch <= 256 rows of
# <= max_session_length items) with headroom; oversize batches fall
# back to the pipe rather than growing the ring.
DEFAULT_SLOTS = 8
DEFAULT_REQ_SLOT_BYTES = 1 << 16   # 64 KiB
DEFAULT_RESP_SLOT_BYTES = 1 << 18  # 256 KiB


class RingFull(RuntimeError):
    """Every slot of the ring holds an unconsumed message."""


class RingUnsuitable(RuntimeError):
    """This payload cannot ride the ring (oversize or un-encodable);
    the caller should use the pipe for it."""


class CorruptPayload(RuntimeError):
    """A response payload is truncated or internally inconsistent."""


@dataclass(frozen=True)
class RingManifest:
    """Everything a peer process needs to attach a ring pair."""

    segment: str
    slots: int
    req_slot_bytes: int
    resp_slot_bytes: int


def _align(offset: int, alignment: int = _CACHE_LINE) -> int:
    return -(-offset // alignment) * alignment


class RingPair:
    """One worker's request ring + response ring in a single segment.

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
        slots = manifest.slots
        req_bytes = slots * (_SLOT_HEADER + manifest.req_slot_bytes)
        self._req_base = 0
        self._resp_base = _align(req_bytes)
        # Producer/consumer tickets are process-local: each side only
        # needs its own position (SPSC, strictly in-order).
        self._req_produced = 0
        self._req_consumed = 0
        self._resp_produced = 0
        self._resp_consumed = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, slots: int = DEFAULT_SLOTS,
               req_slot_bytes: int = DEFAULT_REQ_SLOT_BYTES,
               resp_slot_bytes: int = DEFAULT_RESP_SLOT_BYTES
               ) -> "RingPair":
        """Allocate the segment (may raise ImportError/OSError when the
        host has no usable POSIX shared memory — callers fall back to
        the pipe transport)."""
        from multiprocessing import shared_memory

        if slots < 1:
            raise ValueError(f"need >= 1 slot, got {slots}")
        req_bytes = slots * (_SLOT_HEADER + req_slot_bytes)
        resp_bytes = slots * (_SLOT_HEADER + resp_slot_bytes)
        total = _align(req_bytes) + resp_bytes
        shm = shared_memory.SharedMemory(create=True, size=total)
        shm.buf[:total] = b"\x00" * total
        manifest = RingManifest(segment=shm.name, slots=slots,
                                req_slot_bytes=req_slot_bytes,
                                resp_slot_bytes=resp_slot_bytes)
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: RingManifest,
               untrack: bool = False) -> "RingPair":
        from repro.runtime.plane import _attach_shm

        shm = _attach_shm(manifest.segment, untrack)
        return cls(shm, manifest, owner=False)

    # ------------------------------------------------------------------
    # Slot plumbing
    # ------------------------------------------------------------------
    def _slot_offset(self, base: int, slot_bytes: int, ticket: int) -> int:
        slot = ticket % self.manifest.slots
        return base + slot * (_SLOT_HEADER + slot_bytes)

    def _post(self, base: int, slot_bytes: int, ticket: int,
              payload: bytes) -> None:
        if len(payload) > slot_bytes:
            raise RingUnsuitable(
                f"payload of {len(payload)} bytes exceeds the "
                f"{slot_bytes}-byte slot")
        offset = self._slot_offset(base, slot_bytes, ticket)
        buf = self._shm.buf
        head = np.frombuffer(buf, dtype=_I64, count=2, offset=offset)
        # Payload and length first, sequence word last: a consumer that
        # observes seq == ticket + 1 is guaranteed a complete payload.
        body = offset + _SLOT_HEADER
        buf[body:body + len(payload)] = payload
        head[1] = len(payload)
        head[0] = ticket + 1

    def _take(self, base: int, slot_bytes: int, ticket: int,
              spin: int) -> Optional[bytes]:
        offset = self._slot_offset(base, slot_bytes, ticket)
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
        """Claim the next request slot; returns the ticket."""
        if self._req_produced - self._req_consumed >= self.manifest.slots:
            raise RingFull(
                f"all {self.manifest.slots} request slots in flight")
        ticket = self._req_produced
        self._post(self._req_base, self.manifest.req_slot_bytes, ticket,
                   payload)
        self._req_produced = ticket + 1
        return ticket

    def poll_response(self, spin: int = 1) -> Optional[bytes]:
        """The next in-order response, or None if not yet published."""
        payload = self._take(self._resp_base,
                             self.manifest.resp_slot_bytes,
                             self._resp_consumed, spin)
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
        payload = self._take(self._req_base, self.manifest.req_slot_bytes,
                             self._req_consumed, spin)
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
        its request slot for reuse)."""
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
                f"slots={self.manifest.slots}, "
                f"in_flight={self.requests_in_flight})")


# ----------------------------------------------------------------------
# Request codec: (examples, ks) <-> one flat int32 vector
# ----------------------------------------------------------------------
_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1
# users slot for "no user id" (sessions always carry one today; the
# sentinel keeps the codec total).
_NO_USER = _I32_MIN
# First word of the request tail when an in-flush dedup map is present.
# Legacy tails always start with a trace id (>= 0) or a candidate
# section forced behind traces, so a negative marker is unambiguous.
_DEDUP_MARKER = -2


def _check_i32(value: int, what: str) -> int:
    value = int(value)
    if not _I32_MIN <= value <= _I32_MAX:
        raise RingUnsuitable(f"{what} {value} does not fit int32")
    return value


def encode_request(examples: Sequence[tuple], ks: Sequence[int],
                   max_length: int,
                   traces: Optional[Sequence[int]] = None,
                   candidates: Optional[Sequence[Sequence[int]]] = None,
                   dedup: Optional[Tuple[Sequence[int],
                                         Sequence[int]]] = None
                   ) -> bytes:
    """Flatten ``(prefix_items, target, user)`` examples + per-row k.

    Prefixes are pre-truncated to ``max_length`` — bit-identical to
    shipping them whole, because ``collate_examples`` applies the same
    ``[-max_length:]`` truncation worker-side.

    ``traces`` (optional) carries one 31-bit trace id per row (0 = not
    sampled); a section of ``n`` int32 is appended only when at least
    one row is sampled, so the tracing-off payload is unchanged.

    ``candidates`` (optional) carries per-row cascade candidate item
    ids: a lengths section of ``n`` int32 followed by the concatenated
    ids.  Because the decoder tells the trailing sections apart by
    size (``n`` trailing words = traces only; ``> n`` = traces then
    candidates), a candidate section **forces** the traces section —
    all zeros when nothing is sampled.  With ``candidates=None`` the
    payload is byte-identical to the prior codec.

    ``dedup`` (optional) is ``(row_map, orig_ks)``: the in-flush dedup
    map from original rows to the unique rows actually shipped.  When
    present, the main body carries the **unique** rows (walked at the
    max k over their duplicate group) and the tail *starts* with a
    dedup section ``[_DEDUP_MARKER][n_orig][row_map i32*n_orig]
    [orig_ks i32*n_orig]`` — unambiguous because legacy tails always
    begin with a non-negative trace id.  After it, ``traces`` is sized
    per **original** row while ``candidates`` stays per unique row.
    With ``dedup=None`` the payload is byte-identical to the prior
    codec.
    """
    n = len(examples)
    if n == 0 or len(ks) != n:
        raise RingUnsuitable(f"bad batch shape ({n} examples, "
                             f"{len(ks)} ks)")
    n_rows = n
    if dedup is not None:
        row_map, orig_ks = dedup
        n_rows = len(row_map)
        if n_rows < n or len(orig_ks) != n_rows:
            raise RingUnsuitable(
                f"bad dedup shape ({n} uniques, {len(row_map)} rows, "
                f"{len(orig_ks)} orig ks)")
    if traces is not None and len(traces) != n_rows:
        raise RingUnsuitable(f"bad trace shape ({n_rows} rows, "
                             f"{len(traces)} traces)")
    if candidates is not None and len(candidates) != n:
        raise RingUnsuitable(f"bad candidate shape ({n} examples, "
                             f"{len(candidates)} rows)")
    flat: List[int] = [n]
    items: List[int] = []
    lengths: List[int] = []
    targets: List[int] = []
    users: List[int] = []
    for prefix, target, user in examples:
        prefix = list(prefix)[-max_length:]
        lengths.append(len(prefix))
        targets.append(_check_i32(target, "target item"))
        users.append(_NO_USER if user is None
                     else _check_i32(user, "user id"))
        for item in prefix:
            items.append(_check_i32(item, "session item"))
    flat += [_check_i32(k, "k") for k in ks]
    flat += lengths + targets + users + items
    if dedup is not None:
        flat += [_DEDUP_MARKER, n_rows]
        flat += [_check_i32(u, "dedup row index") for u in row_map]
        flat += [_check_i32(k, "dedup k") for k in orig_ks]
    if candidates is not None:
        flat += ([_check_i32(t, "trace id") for t in traces]
                 if traces is not None else [0] * n_rows)
        flat += [_check_i32(len(row), "candidate count")
                 for row in candidates]
        for row in candidates:
            flat += [_check_i32(item, "candidate item") for item in row]
    elif traces is not None and any(traces):
        flat += [_check_i32(t, "trace id") for t in traces]
    return np.asarray(flat, dtype=_I32).tobytes()


def decode_request(payload: bytes
                   ) -> Tuple[List[tuple], List[int], List[int],
                              Optional[List[List[int]]],
                              Optional[Tuple[List[int], List[int]]]]:
    flat = np.frombuffer(payload, dtype=_I32)
    n = int(flat[0])
    ks = flat[1:1 + n].tolist()
    lengths = flat[1 + n:1 + 2 * n]
    targets = flat[1 + 2 * n:1 + 3 * n].tolist()
    users = flat[1 + 3 * n:1 + 4 * n].tolist()
    total_items = int(lengths.sum())
    items = flat[1 + 4 * n:1 + 4 * n + total_items]
    tail = flat[1 + 4 * n + total_items:]
    dedup: Optional[Tuple[List[int], List[int]]] = None
    n_rows = n
    if tail.size >= 2 and int(tail[0]) == _DEDUP_MARKER:
        n_rows = int(tail[1])
        row_map = tail[2:2 + n_rows].tolist()
        orig_ks = tail[2 + n_rows:2 + 2 * n_rows].tolist()
        dedup = (row_map, orig_ks)
        tail = tail[2 + 2 * n_rows:]
    candidates: Optional[List[List[int]]] = None
    if tail.size > n_rows:
        # traces (n_rows) + candidate lengths (n) + concatenated ids
        cand_lengths = tail[n_rows:n_rows + n]
        cand_items = tail[n_rows + n:]
        stops_c = np.cumsum(cand_lengths)
        starts_c = stops_c - cand_lengths
        candidates = [
            cand_items[int(starts_c[i]):int(stops_c[i])].tolist()
            for i in range(n)]
    traces = tail[:n_rows].tolist() if tail.size >= n_rows else [0] * n_rows
    stops = np.cumsum(lengths)
    starts = stops - lengths
    examples = [
        (items[int(starts[i]):int(stops[i])].tolist(), targets[i],
         None if users[i] == _NO_USER else users[i])
        for i in range(n)]
    return examples, ks, traces, candidates, dedup


def dedup_pairs(row_map: Sequence[int], orig_ks: Sequence[int]
                ) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Canonical response plan for a dedup'd batch.

    The worker answers one response row per distinct ``(unique_idx,
    k)`` pair, in first-occurrence order over the original rows; the
    parent fans each pair's row out to every original row that maps to
    it.  Both sides derive this plan independently from the wire's
    ``(row_map, orig_ks)``, so it is part of the protocol: returns
    ``(pairs, row_pair)`` where ``pairs[p] = (unique_idx, k)`` and
    ``row_pair[i]`` is original row i's pair index.
    """
    index: Dict[Tuple[int, int], int] = {}
    pairs: List[Tuple[int, int]] = []
    row_pair: List[int] = []
    for u, k in zip(row_map, orig_ks):
        key = (int(u), int(k))
        p = index.get(key)
        if p is None:
            p = len(pairs)
            index[key] = p
            pairs.append(key)
        row_pair.append(p)
    return pairs, row_pair


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
