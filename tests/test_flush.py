"""One flush, one path, one wire: ``FlushPlan`` / ``execute_flush``.

Tier-1.  Pins that

1. a plan with **nothing to share** (identity ``row_map``) *is* the
   direct batch walk, bitwise, in thread mode, over the pipe and over
   the ring — which is why the server's ``dedup=`` argument chooses
   plan contents, not code;
2. the request codec round-trips generated plans and **every** damaged
   payload raises ``CorruptPayload`` — never a plausible different
   batch — and a corrupt request cannot wedge a live ring worker;
3. what used to drift between the thread and process mirrors cannot:
   a repeat is keyed on the user *anchor* in both modes, and a traced
   request's spans do not depend on who served it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import REKSConfig, REKSTrainer
from repro.cascade import build_constraint, provider_from_trainer
from repro.core.environment import RolloutWorkspace
from repro.data.loader import collate_examples
from repro.runtime import ProcessWorkerPool, RingUnsuitable, WorkerError
from repro.runtime import workers as workers_mod
from repro.runtime.flush import FlushPlan, execute_flush
from repro.runtime.rings import CorruptPayload, decode_plan, encode_plan
from repro.runtime.rowblock import select_rows
from repro.serving.memo import dedup_plan
from repro.telemetry.trace import spans_by_trace


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def user_trainer(beauty_tiny, beauty_kg, beauty_transe):
    """Walks start at the user entity, so the user id is a walk input."""
    config = REKSConfig(dim=16, state_dim=16, start_from="user",
                        path_length=3, sample_sizes=(20, 4, 1), seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


@pytest.fixture(scope="module")
def examples(sessions):
    return [(s.items[:-1], s.items[-1], s.user_id) for s in sessions[:24]]


# ----------------------------------------------------------------------
# Nothing to share is the direct walk
# ----------------------------------------------------------------------
def _direct(agent, examples, ks, candidates=None):
    """The plain batch walk, spelled out with no plan."""
    constraint = None
    if candidates is not None:
        constraint = build_constraint(agent, candidates,
                                      agent.config.path_length)
    rec = agent.recommend(
        collate_examples(examples, agent.config.max_session_length),
        k=max(ks), candidates=constraint)
    return select_rows(rec, list(enumerate(ks)))


def _flushes(trainer, examples):
    provider = provider_from_trainer(trainer, "neighbors")
    max_len = trainer.agent.config.max_session_length
    cands = [provider.top_m(list(prefix)[-max_len:], 15,
                            user_id=None).tolist()
             for prefix, _, _ in examples[:6]]
    return [(examples[:8], [3, 10, 5, 10, 1, 7, 3, 10], None),
            (examples[8:11], [4, 4, 4], None),
            (examples[:6], [10, 4, 10, 10, 2, 10], cands),
            (examples[11:12], [6], None)]


class TestNothingToShareIsTheDirectWalk:
    def test_thread(self, trainer, examples):
        agent = trainer.agent
        for batch, ks, cands in _flushes(trainer, examples):
            block, spans, rowrecs = execute_flush(
                agent, RolloutWorkspace(), FlushPlan.build(batch, ks, cands),
                None)
            assert block == _direct(agent, batch, ks, cands)
            assert spans == [] and rowrecs == []

    @pytest.mark.parametrize("transport", ["pipe", "ring"])
    def test_process(self, trainer, examples, transport):
        with ProcessWorkerPool(trainer.agent, workers=1,
                               transport=transport) as pool:
            for batch, ks, cands in _flushes(trainer, examples):
                _, block, _, _ = pool.execute_block(
                    FlushPlan.build(batch, ks, cands))
                assert block == _direct(trainer.agent, batch, ks, cands)
            assert pool.ring_fallbacks == 0

    def test_dedup_off_memo_off_server_is_the_direct_walk(self, trainer,
                                                           sessions):
        """The same claim through the server's own arguments (the
        server ranks the flush at its ceiling, 9, and cuts each
        request's prefix)."""
        subset = sessions[:5]
        ks = [5, 9, 5, 2, 9]
        want = _direct(trainer.agent,
                       [(s.items[:-1], s.items[-1], s.user_id)
                        for s in subset], ks).to_rows()
        with trainer.serve(worker_mode="thread", cache_size=0,
                           dedup=False, max_batch=5,
                           max_wait_ms=250.0) as server:
            futures = [server.submit(s, k=k) for s, k in zip(subset, ks)]
            got = [f.result() for f in futures]
        assert [(list(r.items), list(r.scores)) for r in got] == [
            (items, scores) for items, scores, _ in want]


# ----------------------------------------------------------------------
# The request wire
# ----------------------------------------------------------------------
_ids = st.integers(min_value=0, max_value=2 ** 31 - 1)
_example = st.tuples(st.lists(_ids, min_size=1, max_size=12), _ids,
                     st.none() | _ids)


@st.composite
def _plans(draw):
    """``(plan, expected after the codec's truncation, max_length)``:
    duplicate groups, mixed ks, prefixes longer than ``max_length``,
    ``user=None``, empty candidate rows, cascade off, sampled and
    unsampled traces."""
    pool = draw(st.lists(_example, min_size=1, max_size=5))
    groups = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                           max_size=8))
    n = len(groups)
    ks = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n))
    traces = draw(st.none() | st.lists(st.just(0) | _ids, min_size=n,
                                       max_size=n))
    pool_cands = draw(st.none() | st.lists(
        st.lists(_ids, max_size=6), min_size=len(pool),
        max_size=len(pool)))
    cands = (None if pool_cands is None
             else [pool_cands[g] for g in groups])
    dedup = draw(st.sampled_from([None, dedup_plan(groups)]))
    max_length = draw(st.integers(1, 14))

    def build(rows):
        return FlushPlan.build([rows[g] for g in groups], ks, cands,
                               traces, dedup)

    cut = [(prefix[-max_length:], target, user)
           for prefix, target, user in pool]
    return build(pool), build(cut), max_length


def _reference_plan():
    """Dedup + candidates + traces: every section present."""
    pool = [([3, 1, 4, 1, 5], 9, 2), ([2, 7], 1, None), ([6], 5, 3)]
    groups = [0, 1, 0, 2, 1, 0]
    cands = [[5, 9, 12], [], [4, 4]]
    return FlushPlan.build([pool[g] for g in groups],
                           [10, 5, 10, 3, 10, 5],
                           [cands[g] for g in groups],
                           [7, 0, 0, 9, 0, 11], dedup_plan(groups))


def _word_ranges(plan):
    """Word ranges of the structural sections of ``plan``'s payload."""
    u, r = len(plan.rows), len(plan.row_map)
    p = sum(len(row[0]) for row in plan.rows)
    ranges = {"header": (0, 5), "ks": (5, 5 + u),
              "lengths": (5 + u, 5 + 2 * u)}
    at = 5 + 4 * u + p
    for name in ("row_map", "row_ks", "traces"):
        ranges[name] = (at, at + r)
        at += r
    if plan.candidates is not None:
        ranges["cand_lengths"] = (at, at + u)
    return ranges


class TestPlanCodec:
    @given(case=_plans())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, case):
        plan, expected, max_length = case
        got = decode_plan(encode_plan(plan, max_length))
        assert got == expected
        assert (got.pairs, got.fan_out) == (plan.pairs, plan.fan_out)

    def test_reference_plan_round_trips(self):
        plan = _reference_plan()
        assert len(plan.rows) == 3 and len(plan.pairs) == 5
        assert decode_plan(encode_plan(plan, 10)) == plan

    @pytest.mark.parametrize("plan", [
        _reference_plan(), replace(_reference_plan(), candidates=None)],
        ids=["cascade-on", "cascade-off"])
    def test_every_mutation_raises_the_typed_error(self, plan):
        payload = encode_plan(plan, 10)
        words = np.frombuffer(payload, dtype="<i4")
        damaged = [payload[:cut] for cut in range(len(payload))]
        damaged.append(payload + b"\x00" * 4)

        def patched(index, value):
            flat = words.copy()
            flat[index] = value
            return flat.tobytes()

        ranges = _word_ranges(plan)
        for name in ("header", "lengths", "cand_lengths"):
            for index in range(*ranges.get(name, (0, 0))):
                for delta in (-1, 1):
                    damaged.append(patched(index,
                                           int(words[index]) + delta))
        for start, stop in ranges.values():
            for index in range(start, stop):
                damaged.append(patched(index, ~int(words[index])))
        for bad in damaged:
            with pytest.raises(CorruptPayload):
                decode_plan(bad)

    def test_out_of_int32_values_are_unsuitable(self):
        for row in (([2 ** 40], 1, None), ([1], 2 ** 31, None),
                    ([1], 1, 2 ** 31), ([1], 1, -2 ** 31 - 1)):
            with pytest.raises(RingUnsuitable):
                encode_plan(FlushPlan.build([row], [5]), 10)
        with pytest.raises(RingUnsuitable):
            encode_plan(FlushPlan.build([([1], 1, None)], [5],
                                        candidates=[[2 ** 31]]), 10)


class TestLiveRingWorker:
    def test_unencodable_request_rides_the_pipe_counted(self, trainer,
                                                        examples):
        prefix, target, _ = examples[0]
        plan = FlushPlan.build([(prefix, target, 2 ** 40)], [5])
        with ProcessWorkerPool(trainer.agent, workers=1,
                               transport="ring") as pool:
            _, want, _, _ = pool.execute_block(
                FlushPlan.build(examples[:1], [5]))
            _, block, _, _ = pool.execute_block(plan)
            assert (pool.ring_batches, pool.ring_fallbacks) == (1, 1)
        # the user is no walk input under start_from="last_item"
        assert block == want

    def test_corrupt_request_is_an_error_not_a_wrong_batch(
            self, trainer, examples, monkeypatch):
        """Drop the payload's last word in the slot: the worker must
        refuse it (``WorkerError`` parent-side), and the same worker
        must serve the next flush correctly."""
        plan = FlushPlan.build(examples[:4], [5, 3, 5, 7])
        with ProcessWorkerPool(trainer.agent, workers=1,
                               transport="ring") as pool:
            pid = pool._workers[0].process.pid
            monkeypatch.setattr(
                workers_mod, "encode_plan",
                lambda plan, max_len: encode_plan(plan, max_len)[:-4])
            with pytest.raises(WorkerError, match="CorruptPayload"):
                pool.execute_block(plan)
            monkeypatch.undo()
            _, block, _, _ = pool.execute_block(plan)
            assert block == _direct(trainer.agent, examples[:4],
                                    [5, 3, 5, 7])
            assert pool._workers[0].process.pid == pid
            assert (pool.respawns, pool.ring_fallbacks) == (0, 0)
            assert pool._workers[0].ring.requests_in_flight == 0


# ----------------------------------------------------------------------
# What the mirrors let drift
# ----------------------------------------------------------------------
_MODES = [dict(worker_mode="thread"),
          dict(worker_mode="process", workers=1)]
_MODE_IDS = ["thread", "process"]


@pytest.mark.parametrize("mode", _MODES, ids=_MODE_IDS)
class TestMemoKeysOnTheUserAnchor:
    """The cross-flush reuse of a walk — the explanation cache — keys
    on the user only when the walk starts from the user entity."""

    def _serve_twice(self, trainer, session, mode):
        other = replace(session, user_id=session.user_id + 1)
        with trainer.serve(**mode) as server:
            first = server.recommend_one(session, k=5)
            second = server.recommend_one(other, k=5)
            snap = server.fleet_snapshot()
        return (first, second, snap.counter("cache_hits_total"),
                snap.counter("cache_misses_total"))

    def test_last_item_walks_share_across_users(self, trainer, sessions,
                                                mode):
        first, second, hits, misses = self._serve_twice(
            trainer, sessions[0], mode)
        assert (first.items, first.scores, first.explanations) == (
            second.items, second.scores, second.explanations)
        assert (hits, misses) == (1, 1)

    def test_user_walks_do_not(self, user_trainer, sessions, mode):
        _, _, hits, misses = self._serve_twice(user_trainer, sessions[0],
                                               mode)
        assert (hits, misses) == (0, 2)


def _traced_passes(trainer, subset, **overrides):
    """One 3-row flush at k=5 and one at k=7, both walked (no cache),
    every request traced: per pass ``(span-name multiset per request,
    spans, exec_seconds histogram)``."""
    passes = []
    with trainer.serve(cache_size=0, trace_sample=1.0, max_batch=3,
                       max_wait_ms=500.0, **overrides) as server:
        for k in (5, 7):
            for future in [server.submit(s, k=k) for s in subset]:
                future.result()
            spans = server.tracer.drain()
            passes.append((
                sorted(tuple(sorted(Counter(s.name for s in records)
                                    .items()))
                       for records in spans_by_trace(spans).values()),
                spans, server.fleet_snapshot().hist("exec_seconds")))
    return passes


@pytest.mark.parametrize("cascade", [None, "neighbors"],
                         ids=["plain", "cascade"])
def test_spans_do_not_depend_on_who_served(trainer, sessions, cascade):
    over = {}
    if cascade:
        over["cascade"] = provider_from_trainer(trainer, cascade)
    thread = _traced_passes(trainer, sessions[:3], worker_mode="thread",
                            **over)
    process = _traced_passes(trainer, sessions[:3], worker_mode="process",
                             workers=1, **over)
    walked = Counter(["enqueue", "flush", "collate", "walk", "topk", "row",
                      "exec", "transport", "render", "respond"]
                     + ["cascade"] * (2 if cascade else 0))
    for passes, role in ((thread, "server"), (process, "worker")):
        for (names, spans, hist), want, flushes in zip(
                passes, (walked, walked), (1, 2)):
            assert names == [tuple(sorted(want.items()))] * 3
            executed = {s.name: s for s in spans
                        if s.name in ("collate", "walk", "topk", "row",
                                      "exec")}
            assert {s.role for s in executed.values()} == {role}
            # exec covers collate -> select_rows, and is what the
            # exec_seconds histogram observed for the flush
            run = executed["exec"]
            for name in set(executed) - {"exec", "row"}:
                inner = executed[name]
                assert run.t0 <= inner.t0
                assert inner.t0 + inner.dur <= run.t0 + run.dur
            assert hist.count == flushes
            assert hist.max >= run.dur >= hist.min
    assert thread[0][0] == process[0][0] and thread[1][0] == process[1][0]
