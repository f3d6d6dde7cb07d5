"""Zero-copy serving dataplane: ring codecs, ring vs thread differentials.

Tier-1.  Three layers pinned here:

1. **Ring mechanics** — sequence-number publish / poll round-trips on
   the one slot per direction, ``RingFull`` when a second request is
   posted before the first one's response, codec round-trips (mixed-k
   requests, responses with and without paths, worker-error slots),
   and the int32 encode guards.
2. **Ring vs thread differential** — process pools and servers, whose
   every flush rides the ring, must produce bit-identical rankings,
   scores, explanations, and cache stats to thread mode (or a direct
   ``execute_flush``) over mixed-k traffic, traced and untraced,
   mid-traffic hot swaps, and worker murder (the one-retry contract).
3. **Ring growth** — a plan too big for a slot moves its worker onto a
   bigger ring once, under the worker lock, and answers bit for bit;
   the next flush of that size reuses it, and shutdown leaves no
   segment behind.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.core.environment import RolloutWorkspace
from repro.online import CheckpointRegistry
from repro.runtime import ProcessWorkerPool, RingFull, RingPair
from repro.runtime.flush import FlushPlan, execute_flush
from repro.runtime.rings import (
    RingUnsuitable,
    WorkerExecError,
    decode_plan,
    decode_request,
    decode_response,
    encode_error,
    encode_plan,
    encode_request,
    encode_response,
)


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture()
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


def _examples(sessions):
    return [(list(s.items[:-1]), s.items[-1], s.user_id)
            for s in sessions]


# ----------------------------------------------------------------------
# Ring mechanics
# ----------------------------------------------------------------------
class TestRingPair:
    # Parent and worker each hold their OWN RingPair over the segment
    # (tickets are process-local SPSC state), so every mechanics test
    # attaches a second pair for the consumer side.
    def test_request_response_round_trip(self):
        parent = RingPair.create()
        try:
            worker = RingPair.attach(parent.manifest)
            parent.post_request(b"ping-payload")
            assert parent.requests_in_flight == 1
            assert bytes(worker.poll_request(spin=64)) == b"ping-payload"
            worker.post_response(b"pong-payload")
            assert bytes(parent.poll_response(spin=64)) == b"pong-payload"
            parent.note_response_consumed()
            assert parent.requests_in_flight == 0
            worker.close()
        finally:
            parent.unlink()

    def test_slots_recycle_in_order(self):
        parent = RingPair.create()
        try:
            worker = RingPair.attach(parent.manifest)
            for round_id in range(7):  # every ticket reuses the one slot
                payload = f"msg-{round_id}".encode()
                parent.post_request(payload)
                assert bytes(worker.poll_request(spin=64)) == payload
                worker.post_response(payload[::-1])
                assert bytes(parent.poll_response(spin=64)) \
                    == payload[::-1]
                parent.note_response_consumed()
            assert parent.requests_in_flight == 0
            worker.close()
        finally:
            parent.unlink()

    def test_full_ring_raises_ring_full(self):
        parent = RingPair.create()
        try:
            worker = RingPair.attach(parent.manifest)
            parent.post_request(b"a")
            with pytest.raises(RingFull):
                parent.post_request(b"b")
            # One full round-trip frees the slot again.
            assert bytes(worker.poll_request(spin=64)) == b"a"
            worker.post_response(b"a-done")
            assert bytes(parent.poll_response(spin=64)) == b"a-done"
            parent.note_response_consumed()
            parent.post_request(b"c")
            worker.close()
        finally:
            parent.unlink()

    def test_oversize_payload_raises_ring_unsuitable(self):
        parent = RingPair.create(req_slot_bytes=64, resp_slot_bytes=64)
        try:
            with pytest.raises(RingUnsuitable):
                parent.post_request(b"\x00" * 65)
            parent.post_request(b"\x00" * 64)  # exactly full slot is fine
        finally:
            parent.unlink()

    def test_poll_empty_returns_none(self):
        parent = RingPair.create()
        try:
            assert parent.poll_request(spin=8) is None
            assert parent.poll_response(spin=8) is None
        finally:
            parent.unlink()


class TestCodecs:
    # Request side: hand-picked plans; tests/test_flush.py round-trips
    # generated ones and mutates the payload.
    def test_request_round_trip_mixed_k(self):
        examples = [([3, 1, 4, 1, 5], 9, 2), ([2, 7], 1, None)]
        plan = decode_request(encode_request(examples, [5, 10],
                                             max_length=10))
        assert plan == FlushPlan.build(examples, [5, 10])
        assert plan.rows == examples
        assert plan.ks == plan.row_ks == [5, 10]
        assert plan.row_map == [0, 1] and plan.traces == [0, 0]
        assert plan.candidates is None

    def test_request_truncates_prefix_like_collate(self):
        long_prefix = list(range(1, 30))
        plan = decode_request(encode_request([(long_prefix, 5, None)], [3],
                                             max_length=10))
        assert plan.rows == [(long_prefix[-10:], 5, None)]

    def test_request_rejects_oversize_ids(self):
        with pytest.raises(RingUnsuitable):
            encode_request([([2 ** 40], 1, None)], [5], max_length=10)
        with pytest.raises(RingUnsuitable):
            encode_request([([1], 1, -2 ** 31 - 1)], [5], max_length=10)

    def test_request_candidate_round_trip(self):
        examples = [([3, 1, 4], 9, 2), ([2, 7], 1, None)]
        plan = FlushPlan.build(examples, [5, 10],
                               candidates=[[5, 9, 12], []])
        got = decode_plan(encode_plan(plan, 10))
        assert got == plan and got.candidates == [[5, 9, 12], []]
        assert got.traces == [0, 0]

    def test_request_candidates_with_traces_round_trip(self):
        examples = [([3, 1], 9, 2), ([2, 7], 1, None)]
        plan = FlushPlan.build(examples, [5, 10],
                               candidates=[[5, 9], [4, 6, 8]],
                               traces=[101, 0])
        got = decode_plan(encode_plan(plan, 10))
        assert got == plan and got.traces == [101, 0]

    def test_request_candidates_reject_mismatched_rows(self):
        with pytest.raises(ValueError):
            FlushPlan.build([([1], 2, None)], [5], candidates=[[3], [4]])

    def test_request_dedup_round_trip(self):
        # 4 requests collapsed onto 2 unique rows: ks are per unique
        # row, row_map / row_ks / traces per request.
        uniques = [([3, 1, 4], 9, 2), ([2, 7], 1, None)]
        row_map, row_ks = [0, 1, 0, 0], [5, 10, 3, 5]
        plan = FlushPlan.build([uniques[u] for u in row_map], row_ks,
                               traces=[7, 0, 0, 9],
                               dedup=([0, 1], row_map))
        got = decode_plan(encode_plan(plan, 10))
        assert got == plan
        assert got.rows == uniques and got.ks == [5, 10]
        assert (got.row_map, got.row_ks) == (row_map, row_ks)
        assert got.traces == [7, 0, 0, 9] and got.candidates is None

    def test_request_dedup_with_candidates_round_trip(self):
        uniques = [([2, 7], 1, None), ([3, 1], 9, 2)]
        cands = [[4, 6, 8], [5, 9]]
        row_map = [0, 1, 0]
        plan = FlushPlan.build([uniques[u] for u in row_map], [10, 5, 7],
                               candidates=[cands[u] for u in row_map],
                               dedup=([0, 1], row_map))
        got = decode_plan(encode_plan(plan, 10))
        assert got == plan
        assert got.rows == uniques and got.candidates == cands
        assert got.ks == [10, 5] and got.traces == [0, 0, 0]

    def test_request_dedup_rejects_bad_shapes(self):
        two = [([1], 2, None), ([3], 4, None)]
        with pytest.raises(ValueError):
            FlushPlan.build(two, [5, 5], dedup=([0], [0]))
        with pytest.raises(ValueError):
            FlushPlan.build(two, [5])
        with pytest.raises(ValueError):
            FlushPlan.build([], [])

    def test_dedup_pairs_first_occurrence_order(self):
        """One answer row per distinct (unique row, k), in first-request
        order; ``fan_out`` maps every request to its pair's row."""
        row_map = [0, 1, 0, 0, 1]
        plan = FlushPlan.build([([1 + u], 2, None) for u in row_map],
                               [5, 10, 3, 5, 10], dedup=([0, 1], row_map))
        assert plan.pairs == [(0, 5), (1, 10), (0, 3)]
        assert plan.fan_out == [0, 1, 2, 0, 1]

    def test_response_round_trip_with_and_without_paths(self):
        rows = [([4, 2], [1.5, 0.25], [([9, 4], [1], 0.5), None]),
                ([7], [0.125], [None])]
        version, got, spans, traces, rowrecs = decode_response(
            encode_response(11, rows))
        assert version == 11
        assert got == rows
        assert spans == [] and traces == [] and rowrecs == []

    def test_response_preserves_float64_bits(self):
        scores = [0.1 + 0.2, 1e-300, np.nextafter(1.0, 2.0)]
        rows = [([1, 2, 3], scores, [None, None, None])]
        _, got, _, _, _ = decode_response(encode_response(0, rows))
        assert all(a == b and np.float64(a).tobytes()
                   == np.float64(b).tobytes()
                   for a, b in zip(got[0][1], scores))

    def test_response_span_trailer_round_trip(self):
        rows = [([4, 2], [1.5, 0.25], [None, None])]
        spans = [(0, 1.25, 0.5), (1, 1.5, 0.125)]
        traces = [77, 0]
        _, got, got_spans, got_traces, got_rowrecs = decode_response(
            encode_response(3, rows, spans=spans, traces=traces))
        assert got == rows
        assert got_spans == spans
        assert got_traces == traces
        assert got_rowrecs == []

    def test_response_per_row_section_round_trip(self):
        rows = [([4, 2], [1.5, 0.25], [([9, 4], [1], 0.5), None]),
                ([7], [0.125], [None])]
        spans = [(1, 0.5, 0.25), (2, 0.75, 0.0625)]
        traces = [101, 202]
        rowrecs = [(101, (5, 3, 1), 0.1875, 0.03125),
                   (202, (2, 0, 0), 0.0625, 0.03125)]
        got = decode_response(encode_response(
            9, rows, spans=spans, traces=traces, rowrecs=rowrecs))
        version, got_rows, got_spans, got_traces, got_rowrecs = got
        assert version == 9
        assert got_rows == rows
        assert got_spans == spans
        assert got_traces == traces
        assert got_rowrecs == rowrecs

    def test_response_rowrecs_without_spans_round_trip(self):
        rows = [([7], [0.5], [None])]
        rowrecs = [(55, (4,), 0.25, 0.125)]
        _, got_rows, got_spans, _, got_rowrecs = decode_response(
            encode_response(1, rows, rowrecs=rowrecs))
        assert got_rows == rows
        assert got_spans == []
        assert got_rowrecs == rowrecs

    def test_response_rowrecs_reject_mismatched_hop_counts(self):
        rows = [([7], [0.5], [None])]
        with pytest.raises(RingUnsuitable, match="hop widths"):
            encode_response(1, rows,
                            rowrecs=[(1, (3, 2), 0.1, 0.1),
                                     (2, (3,), 0.1, 0.1)])

    def test_absent_telemetry_is_byte_identical_to_prior_codecs(self):
        """The telemetry sections must be invisible when absent: a
        tracing-off payload is byte-identical to the pre-telemetry
        layout, and a rowrecs-off payload is byte-identical to the
        span-only trailer layout (frozen here as references)."""

        def align(value: int) -> int:
            return (value + 7) & ~7

        def reference_base(version, rows):
            # Frozen pre-telemetry response layout.
            n = len(rows)
            ks = [len(r[0]) for r in rows]
            items, scores, path_len, path_nodes, probs = \
                [], [], [], [], []
            for row_items, row_scores, row_paths in rows:
                items += [int(i) for i in row_items]
                scores += [float(s) for s in row_scores]
                for blob in row_paths:
                    if blob is None:
                        path_len.append(-1)
                        continue
                    entities, relations, prob = blob
                    path_len.append(len(relations))
                    path_nodes += [int(e) for e in entities]
                    path_nodes += [int(r) for r in relations]
                    probs.append(float(prob))
            parts = [np.array([0, int(version)],
                              dtype=np.int64).tobytes(),
                     np.asarray([n] + ks + items,
                                dtype=np.int32).tobytes()]
            size = sum(len(p) for p in parts)
            parts.append(b"\x00" * (align(size) - size))
            parts.append(np.asarray(scores, dtype=np.float64).tobytes())
            parts.append(np.asarray(path_len + path_nodes,
                                    dtype=np.int32).tobytes())
            size = sum(len(p) for p in parts)
            parts.append(b"\x00" * (align(size) - size))
            parts.append(np.asarray(probs, dtype=np.float64).tobytes())
            return b"".join(parts)

        def reference_span_trailer(base, spans, traces):
            # Frozen span-only trailer layout.
            parts = [base,
                     np.asarray([len(spans), len(traces)]
                                + [int(t) for t in traces],
                                dtype=np.int32).tobytes()]
            size = sum(len(p) for p in parts)
            parts.append(b"\x00" * (align(size) - size))
            flat = []
            for kind_id, t0, dur in spans:
                flat += [float(kind_id), float(t0), float(dur)]
            parts.append(np.asarray(flat, dtype=np.float64).tobytes())
            return b"".join(parts)

        rows = [([4, 2], [1.5, 0.25], [([9, 4], [1], 0.5), None]),
                ([7], [0.125], [None])]
        assert encode_response(11, rows) == reference_base(11, rows)
        spans = [(0, 1.0, 0.5), (2, 1.5, 0.25), (3, 2.0, 0.125)]
        traces = [42]
        assert encode_response(11, rows, spans=spans, traces=traces) \
            == reference_span_trailer(reference_base(11, rows),
                                      spans, traces)

    def test_error_slot_raises_worker_exec_error(self):
        blob = encode_error("Traceback: kaboom", 4096)
        with pytest.raises(WorkerExecError, match="kaboom"):
            decode_response(blob)

    def test_error_truncated_to_capacity(self):
        blob = encode_error("x" * 10_000, 64)
        assert len(blob) <= 64


# ----------------------------------------------------------------------
# Ring vs thread differential
# ----------------------------------------------------------------------
class TestTransportEquivalence:
    def test_pool_transport_knob_validated(self, trainer):
        """The pickle pipe is gone: the server's one accepted transport
        is the ring."""
        with pytest.raises(ValueError, match="transport"):
            trainer.serve(worker_mode="process", workers=1,
                          transport="pipe")

    def test_exec_bit_identical_across_transports(self, trainer,
                                                  sessions):
        subset = _examples(sessions[:8])
        want, _, _ = execute_flush(trainer.agent, RolloutWorkspace(),
                                   FlushPlan.build(subset, [5] * 8), None)
        with ProcessWorkerPool(trainer.agent, workers=2) as pool:
            _, rows = pool.execute(subset, 5)
            assert pool.ring_batches == 1
        assert rows == want.to_rows()

    def test_mixed_k_bit_identical_across_transports(self, trainer,
                                                     sessions):
        """Untraced and with every request traced (trace ids out and
        spans + row records back ride the same payloads)."""
        subset = sessions[:12]
        ks = [3, 7, 5] * 4
        for trace_sample in (0.0, 1.0):
            outputs = {}
            for mode in ("thread", "process"):
                with trainer.serve(worker_mode=mode, workers=2,
                                   cache_size=0, max_wait_ms=5.0,
                                   trace_sample=trace_sample) as server:
                    futures = [server.submit(s, k=k)
                               for s, k in zip(subset, ks)]
                    outputs[mode] = [f.result() for f in futures]
                    assert bool(server.tracer.drain()) == bool(trace_sample)
            for got, want, k in zip(outputs["process"], outputs["thread"],
                                    ks):
                assert len(got.items) == k
                assert got.items == want.items
                assert got.scores == want.scores  # bitwise via the codec
                assert got.explanations == want.explanations

    def test_cache_stats_bit_identical_across_transports(self, trainer,
                                                         sessions):
        subset = sessions[:6]
        stats = {}
        for mode in ("thread", "process"):
            with trainer.serve(worker_mode=mode, workers=1) as server:
                for _ in range(2):  # second pass hits the cache
                    for session in subset:
                        server.recommend_one(session, k=5)
                snap = server.stats()
                stats[mode] = (snap.cache_hits, snap.cache_misses,
                               snap.to_dict()["cache_by_version"])
        assert stats["process"] == stats["thread"]

    def test_hot_swap_bit_identical_across_transports(self, trainer,
                                                      sessions, tmp_path):
        subset = sessions[:10]
        registry = CheckpointRegistry(tmp_path)
        state = trainer.agent.state_dict()
        v0 = registry.publish(state)
        perturbed = {k: (v + 0.03 if k.startswith("encoder.") else v)
                     for k, v in state.items()}
        v1 = registry.publish(perturbed)
        phases = {}
        for mode in ("thread", "process"):
            with trainer.serve(worker_mode=mode, workers=2, cache_size=0,
                               registry=registry) as server:
                server.swap_model(v0)
                before = [r.items for r
                          in server.recommend_many(subset, k=5)]
                server.swap_model(v1)
                after = [r.items for r
                         in server.recommend_many(subset, k=5)]
                phases[mode] = (before, after)
        assert phases["process"] == phases["thread"]
        assert phases["process"][0] != phases["process"][1]  # swap did something

    def test_worker_murder_one_retry_contract_on_ring(self, trainer,
                                                      sessions):
        """Killing every worker must stay invisible: execute routes
        around the corpses (one transparent retry), respawned workers
        get fresh rings, and results stay correct."""
        subset = sessions[:4]
        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as server:
            expected = [r.items for r
                        in server.recommend_many(subset, k=5)]
            corpses = [w.ring.manifest.segment
                       for w in server.process_pool._workers]
            for worker in server.process_pool._workers:
                worker.process.kill()
            time.sleep(0.2)
            for _ in range(3):
                recovered = [r.items for r
                             in server.recommend_many(subset, k=5)]
                assert recovered == expected
            assert server.process_pool.respawns >= 1
            # Replacement workers serve over fresh rings (their
            # predecessors' rings were retired with the corpses).
            assert not {w.ring.manifest.segment
                        for w in server.process_pool._workers} & set(corpses)


# ----------------------------------------------------------------------
# Ring growth
# ----------------------------------------------------------------------
def _shm_entries():
    return set(os.listdir("/dev/shm"))


class TestRingGrowth:
    def test_full_flush_at_catalogue_k_grows_once(self, trainer,
                                                  beauty_tiny):
        """A full 80-row flush ranked at k = n_items needs more than the
        default 256 KiB response slot: the worker moves onto a 512 KiB
        ring once, the answers are thread mode's byte for byte (traced),
        the next full flush reuses that ring, and shutdown leaves no
        shared-memory segment behind."""
        n_items = trainer.agent.n_items
        pool_sessions = [s for s in beauty_tiny.split.train
                         if len(s.items) >= 2]
        flushes = [pool_sessions[:80], pool_sessions[80:160]]
        assert len(flushes[1]) == 80
        opts = dict(workers=1, max_batch=80, max_wait_ms=2000.0,
                    cache_size=0, trace_sample=1.0)
        want = []
        with trainer.serve(worker_mode="thread", **opts) as server:
            for flush in flushes:
                want.append(server.recommend_many(flush, k=n_items))
        before = _shm_entries()
        with trainer.serve(worker_mode="process", **opts) as server:
            worker = server.process_pool._workers[0]
            default = worker.ring.manifest
            segments = []
            for flush, expected in zip(flushes, want):
                got = server.recommend_many(flush, k=n_items)
                segments.append(worker.ring.manifest)
                assert [r.items for r in got] \
                    == [r.items for r in expected]
                assert [r.scores for r in got] \
                    == [r.scores for r in expected]
                assert [r.explanations for r in got] \
                    == [r.explanations for r in expected]
                assert [tuple(r.paths) for r in got] \
                    == [tuple(r.paths) for r in expected]
            assert server.stats().to_dict()["batches"] == 2
            assert segments[0].segment != default.segment
            assert segments[0].resp_slot_bytes == 2 * default.resp_slot_bytes
            assert segments[0].req_slot_bytes == default.req_slot_bytes
            assert segments[1] == segments[0]     # grown once, not again
            assert server.process_pool.respawns == 0
        assert not _shm_entries() - before

    def test_oversize_request_grows_the_request_slot(self, trainer,
                                                     sessions):
        """A 2,000-row plan's request payload outgrows the 64 KiB
        request slot; the response still fits its slot, which stays."""
        examples = _examples(sessions) * (2000 // len(sessions) + 1)
        plan = FlushPlan.build(examples[:2000], [1] * 2000)
        want, _, _ = execute_flush(trainer.agent, RolloutWorkspace(), plan,
                                   None)
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            default = pool._workers[0].ring.manifest
            _, block, _, _ = pool.execute_block(plan)
            grown = pool._workers[0].ring.manifest
        assert block == want
        assert grown.req_slot_bytes > default.req_slot_bytes
        assert grown.resp_slot_bytes == default.resp_slot_bytes
