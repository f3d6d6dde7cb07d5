"""``RowBlock``: one columnar value from row selection to the wire.

Tier-1.  Pins that the block round-trips through both of its other
forms (the response payload and the ``(items, scores, path_blobs)``
list rows), that :func:`select_rows` — a prefix of each walk row's
ranking — answers exactly what a dedicated per-row ``_top_k`` at each
row's own ``k`` answers, byte for byte on the wire, for every kind of
flush the server cuts, and that a damaged payload raises one typed
error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import REKSConfig, REKSTrainer
from repro.cascade import build_constraint, provider_from_trainer
from repro.core.agent import Recommendations, _top_k
from repro.core.environment import RolloutWorkspace
from repro.data.loader import collate_examples
from repro.kg.paths import PathTable
from repro.runtime import ProcessWorkerPool
from repro.runtime.flush import FlushPlan, execute_flush
from repro.runtime.rings import (
    CorruptPayload,
    decode_block,
    decode_response,
    encode_response,
)
from repro.runtime.rowblock import RowBlock, select_rows

# ----------------------------------------------------------------------
# Round trips over generated rows
# ----------------------------------------------------------------------
_ids = st.integers(min_value=0, max_value=2 ** 31 - 1)
_floats = st.floats(allow_nan=False, width=64)


@st.composite
def _blob(draw):
    hops = draw(st.integers(min_value=0, max_value=3))
    return (draw(st.lists(_ids, min_size=hops + 1, max_size=hops + 1)),
            draw(st.lists(_ids, min_size=hops, max_size=hops)),
            draw(_floats))


@st.composite
def _row(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    return (draw(st.lists(_ids, min_size=k, max_size=k)),
            draw(st.lists(_floats, min_size=k, max_size=k)),
            draw(st.lists(st.none() | _blob(), min_size=k, max_size=k)))


_rows = st.lists(_row(), min_size=0, max_size=6)


class TestRoundTrips:
    @given(rows=_rows)
    @settings(max_examples=200, deadline=None)
    def test_rows_to_block_and_back(self, rows):
        assert RowBlock.from_rows(rows).to_rows() == rows

    @given(rows=_rows, version=st.integers(0, 2 ** 40),
           traced=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_block_to_payload_and_back(self, rows, version, traced):
        block = RowBlock.from_rows(rows)
        trailers = (dict(spans=[(1, 0.5, 0.25)], traces=[7],
                         rowrecs=[(7, (3, 1), 0.125, 0.0625)])
                    if traced else {})
        payload = encode_response(version, block, **trailers)
        # the list form is a wrapper over the same serializer
        assert payload == encode_response(version, rows, **trailers)
        got_version, got, spans, traces, rowrecs = decode_block(payload)
        assert got_version == version
        assert got == block
        assert (spans, traces, rowrecs) == (
            (trailers["spans"], trailers["traces"], trailers["rowrecs"])
            if traced else ([], [], []))
        assert decode_response(payload)[1] == rows

    def test_pathless_and_single_row_blocks(self):
        pathless = [([4, 2, 9], [0.5, 0.25, 1e-9], [None, None, None])]
        block = RowBlock.from_rows(pathless)
        assert len(block) == 1 and block.probs.size == 0
        assert block.path_nodes.size == 0
        assert decode_block(encode_response(3, block))[1] == block
        assert block.to_rows() == pathless
        assert RowBlock.from_rows([]).to_rows() == []

    def test_equality_is_by_float_bits(self):
        one = RowBlock.from_rows([([1], [0.0], [None])])
        other = RowBlock.from_rows([([1], [-0.0], [None])])
        assert one != other and one == RowBlock.from_rows(one.to_rows())


# ----------------------------------------------------------------------
# Damaged payloads
# ----------------------------------------------------------------------
class TestCorruptPayloads:
    ROWS = [([4, 2], [1.5, 0.25], [([9, 4, 6], [1, 0], 0.5), None]),
            ([7], [0.125], [([3, 8, 5], [2, 2], 0.25)])]
    TRAILERS = dict(spans=[(0, 1.0, 0.5), (2, 1.5, 0.25)], traces=[42, 0],
                    rowrecs=[(42, (5, 3), 0.1875, 0.03125)])

    def _valid_prefixes(self, payload):
        """Cuts that are themselves whole payloads: the base body, and
        the body plus the span trailer (trailers are optional and
        positional, so dropping one whole leaves a valid payload)."""
        base = len(encode_response(11, self.ROWS))
        spans = len(encode_response(11, self.ROWS,
                                    spans=self.TRAILERS["spans"],
                                    traces=self.TRAILERS["traces"]))
        return {base, spans, len(payload)}

    def test_every_truncation_raises_the_typed_error(self):
        payload = encode_response(11, self.ROWS, **self.TRAILERS)
        whole = self._valid_prefixes(payload)
        for cut in range(len(payload)):
            if cut in whole:
                assert decode_block(payload[:cut])[1].to_rows() == self.ROWS
                continue
            with pytest.raises(CorruptPayload):
                decode_block(payload[:cut])

    @pytest.mark.parametrize("word, value", [
        (4, -1),            # n
        (4, 2 ** 31 - 1),   # n far past the payload
        (5, -3),            # ks[0]
        (6, 2 ** 30),       # ks[1] far past the payload
    ])
    def test_bad_counts_raise_the_typed_error(self, word, value):
        flat = np.frombuffer(encode_response(11, self.ROWS),
                             dtype="<i4").copy()
        flat[word] = value
        with pytest.raises(CorruptPayload):
            decode_block(flat.tobytes())

    @pytest.mark.parametrize("value", [-2, -2 ** 31, 7, 2 ** 31 - 1])
    def test_bad_path_len_raises_the_typed_error(self, value):
        payload = encode_response(11, self.ROWS)
        block = decode_block(payload)[1]
        # path_len starts right after the (8-aligned) scores section
        offset = 16 + 4 * (1 + 2 + 3) + 8 * 3
        assert np.array_equal(
            np.frombuffer(payload, "<i4", 3, offset), block.path_len)
        flat = np.frombuffer(payload, dtype="<i4").copy()
        flat[offset // 4] = value
        with pytest.raises(CorruptPayload):
            decode_block(flat.tobytes())

    def test_unknown_status_and_trailing_bytes(self):
        payload = encode_response(11, self.ROWS)
        head = np.frombuffer(payload, dtype="<i8").copy()
        head[0] = 5
        with pytest.raises(CorruptPayload, match="status"):
            decode_block(head.tobytes())
        with pytest.raises(CorruptPayload):
            decode_block(payload + b"\x00" * 4)
        with pytest.raises(CorruptPayload):
            decode_response(payload[:20])

    def test_negative_trailer_counts(self):
        payload = encode_response(11, self.ROWS, **self.TRAILERS)
        base = len(encode_response(11, self.ROWS))
        for word in (0, 1):                 # n_spans, n_traces
            flat = np.frombuffer(payload, dtype="<i4").copy()
            flat[base // 4 + word] = -1
            with pytest.raises(CorruptPayload):
                decode_block(flat.tobytes())


# ----------------------------------------------------------------------
# select_rows against the per-row selection it replaced
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def examples(beauty_tiny):
    return [(s.items[:-1], s.items[-1], s.user_id)
            for s in beauty_tiny.split.test if len(s.items) >= 2][:24]


def _walk(trainer, examples, k, candidates=None):
    agent = trainer.agent
    constraint = None
    if candidates is not None:
        constraint = build_constraint(agent, candidates,
                                      agent.config.path_length)
    return agent.recommend(
        collate_examples(examples, agent.config.max_session_length),
        k=k, candidates=constraint)


def _reference_row(rec, u, k):
    """A dedicated selection at the row's own ``k``."""
    scores_row = rec.scores[u]
    ranked = _top_k(scores_row.reshape(1, -1), int(k))[0]
    items = ranked.tolist()
    return items, scores_row[ranked].tolist(), rec.paths.take(u, items)


def _reference(rec, plan):
    return [_reference_row(rec, u, k) for u, k in plan]


class TestSelectRows:
    def _check(self, rec, plan):
        block = select_rows(rec, plan)
        want = _reference(rec, plan)
        assert block.to_rows() == want
        assert encode_response(5, block) == encode_response(5, want)
        return block

    def test_all_rows_at_the_walks_own_k(self, trainer, examples):
        rec = _walk(trainer, examples[:8], 10)
        block = self._check(rec, [(row, 10) for row in range(8)])
        assert (block.path_len >= 0).any()

    def test_mixed_k(self, trainer, examples):
        ks = [3, 10, 5, 10, 1, 7, 3, 10]
        rec = _walk(trainer, examples[:8], max(ks))
        self._check(rec, list(enumerate(ks)))

    def test_dedup_fan_out_plan(self, trainer, examples):
        """A collapsed flush answers one block row per distinct
        (unique row, k); the fan-out index restores request order."""
        rec = _walk(trainer, examples[:3], 10)
        row_map, ks = [0, 1, 0, 2, 1, 0], [10, 5, 10, 3, 10, 5]
        plan = FlushPlan.build([examples[u] for u in row_map], ks,
                               dedup=([0, 1, 3], row_map))
        pairs, fan_out = plan.pairs, plan.fan_out
        assert len(pairs) == 5 and plan.ks == [10, 10, 3]
        block = self._check(rec, pairs)
        rows = block.to_rows()
        assert ([rows[p] for p in fan_out]
                == _reference(rec, list(zip(row_map, ks))))

    def test_cascade_constrained(self, trainer, examples):
        provider = provider_from_trainer(trainer, "neighbors")
        batch = examples[:6]
        candidates = [provider.top_m(list(prefix)[-10:], 15, user_id=None)
                      for prefix, _, _ in batch]
        rec = _walk(trainer, batch, 10, candidates)
        ks = [10, 4, 10, 10, 2, 10]
        block = self._check(rec, list(enumerate(ks)))
        for row, (items, _, _) in enumerate(block.to_rows()):
            assert set(items[:1]) <= {int(c) for c in candidates[row]}

    def test_k_past_the_catalogue_is_clipped(self, trainer, examples):
        rec = _walk(trainer, examples[:2], 10 ** 6)
        n_items = rec.scores.shape[1] - 1
        block = self._check(rec, [(0, 10 ** 6), (1, 2)])
        assert block.ks.tolist() == [n_items, 2]

    def test_empty_path_table(self, trainer, examples):
        """A walk that reached nothing still ranks (encoder-fallback
        floor); every cell is path-less."""
        rec = _walk(trainer, examples[:3], 5)
        empty = PathTable(np.zeros(0, np.int64), np.zeros(0, np.int64),
                          np.zeros((0, 3), np.int64),
                          np.zeros((0, 2), np.int64), np.zeros(0),
                          rec.scores.shape[1] - 1)
        block = self._check(Recommendations(rec.scores, rec.ranked_items,
                                            empty),
                            [(0, 5), (1, 3), (2, 5)])
        assert (block.path_len == -1).all() and block.probs.size == 0


# ----------------------------------------------------------------------
# The pool: the ring carries execute_flush's block, row count checked
# ----------------------------------------------------------------------
class TestPoolBlocks:
    def test_ring_and_pipe_carry_the_same_block(self, trainer, examples):
        """The block a worker answers over the ring is the one a direct
        ``execute_flush`` (thread mode's executor) builds."""
        rec = _walk(trainer, examples[:6], 7)
        ks = [7, 3, 7, 5, 7, 1]
        want = select_rows(rec, list(enumerate(ks)))
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            plan = FlushPlan.build(examples[:6], ks)
            version, block, spans, rowrecs = pool.execute_block(plan)
            assert plan.fan_out == list(range(6)) and block == want
            assert block == execute_flush(trainer.agent, RolloutWorkspace(),
                                          plan, None)[0]
            assert spans == [] and rowrecs == []
            assert pool.execute(examples[:6], ks) == (
                version, want.to_rows())
            # dedup: rows 0 and 2 are one request asked twice
            uniq = [examples[0], examples[1]]
            plan = FlushPlan.build(
                [examples[0], examples[1], examples[0]], [7, 3, 7],
                dedup=([0, 1], [0, 1, 0]))
            _, block, _, _ = pool.execute_block(plan)
            assert plan.rows == uniq and plan.fan_out == [0, 1, 0]
            pair = _walk(trainer, uniq, 7)
            assert block == select_rows(pair, [(0, 7), (1, 3)])

    def test_wrong_row_count_is_refused(self, trainer, examples,
                                        monkeypatch):
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            worker = pool._workers[0]
            real = worker.exec_batch

            def short(plan, *args):
                return real(FlushPlan.build(plan.rows[:1], plan.ks[:1]),
                            *args)

            monkeypatch.setattr(worker, "exec_batch", short)
            with pytest.raises(CorruptPayload, match="asked for 2"):
                pool.execute_block(FlushPlan.build(examples[:2], [5, 5]))
            monkeypatch.undo()
            assert len(pool.execute(examples[:2], 5)[1]) == 2
