"""A served answer's paths stay columns: what the respond step leaves
on the heap, and the sequence contract of what it leaves.

Tier-1.  ``RecommendationServer._respond`` hands each answer its slice
of the flush's path arrays as one ``PathColumn`` instead of a tuple of
``SemanticPath`` objects, so a cached answer is a handful of
GC-tracked objects, not three per path.  Pinned here:

* the guard — a **count**, not a timing: tracked objects retained per
  cold request, thread and process mode (41 before the column, 11
  with it);
* the column's contract over random blocks with missing paths and
  mixed path lengths: it reads exactly as the tuple it replaced
  (``len``, iteration, index, slice, ``==`` both ways, pickle), decodes
  fresh values on every read, owns copies of its arrays, and
  ``head(k)`` cuts it without decoding;
* what decode-on-read buys beyond the count: a caller that mutates a
  path it was handed cannot change what the next cache hit returns;
* ``serving_state()["gc"]``: collections per generation since the
  server started.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import REKSConfig, REKSTrainer
from repro.data.schema import Session
from repro.kg.paths import SemanticPath, render_path
from repro.runtime.rowblock import PathColumn, RowBlock
from repro.serving.server import ServedResult

FLUSH = 32
FLUSHES = 20
# Tracked objects a cold request may leave behind once its future and
# result are dropped: the cache's key, entry and result, the result's
# three tuples and its column, the walk memo's entry.
RETAINED_PER_REQUEST = 14


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


def cold_sessions(n_items: int, n: int):
    """``n`` sessions with pairwise distinct prefixes: every one walks."""
    rng = np.random.default_rng(5)
    prefixes, out = set(), []
    while len(out) < n:
        items = [int(i) for i in rng.integers(1, n_items + 1, 4)]
        if tuple(items[:-1]) not in prefixes:
            prefixes.add(tuple(items[:-1]))
            out.append(Session(items, user_id=0, day=0))
    return out


# ----------------------------------------------------------------------
# The guard
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_cold_answer_retains_few_tracked_objects(trainer, beauty_tiny,
                                                   mode):
    cold = cold_sessions(beauty_tiny.n_items, FLUSH * (FLUSHES + 1))
    with trainer.serve(worker_mode=mode, workers=1, max_batch=FLUSH,
                       max_wait_ms=5000.0, cache_size=4096) as server:
        def flush(batch):
            for future in [server.submit(s, k=10) for s in batch]:
                assert len(future.result(timeout=60).items) == 10

        flush(cold[:FLUSH])            # lazy set-up is not the answer's
        gc.collect()
        gc.disable()                   # nothing may be swept meanwhile
        try:
            before = len(gc.get_objects())
            for i in range(1, FLUSHES + 1):
                flush(cold[FLUSH * i:FLUSH * (i + 1)])
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert server.stats().batches == FLUSHES + 1   # full flushes
        assert len(server.cache) == FLUSH * (FLUSHES + 1)
    assert grown / (FLUSH * FLUSHES) <= RETAINED_PER_REQUEST


# ----------------------------------------------------------------------
# The column's contract
# ----------------------------------------------------------------------
@st.composite
def blocks(draw):
    """A block of 1-5 rows of 0-6 cells; a cell has no path or one of
    1-3 hops."""
    def cell():
        if draw(st.booleans()):
            return None
        hops = draw(st.integers(1, 3))
        node = st.integers(0, 999)
        return (draw(st.lists(node, min_size=hops + 1, max_size=hops + 1)),
                draw(st.lists(node, min_size=hops, max_size=hops)),
                draw(st.floats(0.0, 1.0)))

    rows = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(0, 6))
        rows.append((list(range(1, k + 1)), [1.0 / (i + 1) for i in range(k)],
                     [cell() for _ in range(k)]))
    return RowBlock.from_rows(rows)


def eager(block: RowBlock):
    """What ``_respond`` used to build: one tuple of objects per row."""
    return [tuple(None if blob is None else SemanticPath(*blob)
                  for blob in blobs) for _, _, blobs in block.to_rows()]


SECTIONS = ("path_len", "path_nodes", "probs")


class TestPathColumn:
    @settings(max_examples=150, deadline=None)
    @given(block=blocks(), data=st.data())
    def test_reads_as_the_tuple_it_replaced(self, block, data):
        columns = block.path_columns()
        assert len(columns) == len(block)
        for col, want in zip(columns, eager(block)):
            n = len(want)
            assert len(col) == n
            assert tuple(col) == want and list(col) == list(want)
            assert col == want and want == col
            assert not col != want and not want != col
            assert col == PathColumn(col.path_len, col.path_nodes, col.probs)
            assert col != want + (None,) and want + (None,) != col
            assert col != list(want)          # a tuple or a column only
            for section in SECTIONS:          # its own frozen copies
                array = getattr(col, section)
                assert array.base is None and not array.flags.writeable
                assert not np.shares_memory(array, getattr(block, section))
            again = pickle.loads(pickle.dumps(col))
            assert again == col and not again.path_len.flags.writeable
            if not n:
                assert col.head(0) is col and col[:] == ()
                continue
            j = data.draw(st.integers(0, n - 1))
            assert col[j] == want[j] and col[j - n] == want[j - n]
            assert col[-1] == want[-1]
            with pytest.raises(IndexError):
                col[n]
            lo, hi = sorted((data.draw(st.integers(-n, n)),
                             data.draw(st.integers(-n, n))))
            assert type(col[lo:hi]) is tuple and col[lo:hi] == want[lo:hi]
            other = SemanticPath([1, 2], [0], 2.0)   # no cell draws it
            assert (col[:j] + (other,) + col[j + 1:]
                    == want[:j] + (other,) + want[j + 1:])
            assert col != want[:j] + (other,) + want[j + 1:]

    @settings(max_examples=100, deadline=None)
    @given(block=blocks())
    def test_head_cuts_without_decoding(self, block):
        for col, want in zip(block.path_columns(), eager(block)):
            for k in range(len(want) + 3):
                head = col.head(k)
                assert tuple(head) == want[:k] and len(head) == min(
                    k, len(want))
                if k >= len(want):
                    assert head is col
                    continue
                assert head.path_len.base is col.path_len   # its arrays,
                assert head.path_nodes is col.path_nodes    # shared
                assert head.probs is col.probs
                assert pickle.loads(pickle.dumps(head)) == want[:k]
                assert head.head(k) is head
                assert head.head(k // 2) == want[:k // 2]

    @settings(max_examples=50, deadline=None)
    @given(block=blocks())
    def test_every_read_decodes_fresh_values(self, block):
        for col, want in zip(block.path_columns(), eager(block)):
            for path in col:
                if path is not None:
                    path.entities.append(0)
                    path.relations.clear()
                    path.prob = -1.0
            assert col == want
            assert all(a is not b for a, b in zip(col, col)
                       if a is not None)

    def test_a_result_still_takes_a_tuple(self):
        block = RowBlock.from_rows([
            ([4, 2, 9], [0.5, 0.25, 0.125],
             [([7, 8, 4], [1, 0], 0.5), None, ([7, 9], [2], 0.25)])])
        (col,) = block.path_columns()
        result = ServedResult((4, 2, 9), (0.5, 0.25, 0.125), col,
                              ("a", "", "b"))
        broken = replace(col[0], entities=[7, 7, 4])
        swapped = replace(result, paths=(broken,) + result.paths[1:])
        assert type(swapped.paths) is tuple and len(swapped.paths) == 3
        assert swapped.paths[0].entities == [7, 7, 4]
        assert swapped.paths[1:] == result.paths[1:]
        assert swapped != result
        assert replace(swapped, paths=tuple(col)) == result
        assert pickle.loads(pickle.dumps(result)) == result


# ----------------------------------------------------------------------
# Shared results stay what they were
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_caller_cannot_change_what_the_next_hit_returns(
        trainer, sessions, mode):
    kg = trainer.env.built.kg
    with trainer.serve(worker_mode=mode, workers=1,
                       max_wait_ms=0.0) as server:
        first = server.recommend_one(sessions[0], k=10)
        assert any(path is not None for path in first.paths)
        def scramble(result):
            for path in result.paths:
                if path is not None:
                    path.entities[0] = path.entities[-1]
                    path.prob = -1.0

        scramble(first)
        for k in (10, 5, 10):                  # exact, nested, exact
            hit = server.recommend_one(sessions[0], k=k)
            assert hit.cached
            assert hit.explanations == first.explanations[:k]
            assert tuple("" if path is None else render_path(path, kg)
                         for path in hit.paths) == hit.explanations
            assert all(path is None or path.prob >= 0.0
                       for path in hit.paths)
            scramble(hit)


# ----------------------------------------------------------------------
# serving_state()["gc"]
# ----------------------------------------------------------------------
def test_serving_state_counts_collections_since_start(trainer, sessions):
    gc.collect()
    with trainer.serve(workers=1, metrics=False) as server:
        server.recommend_many(sessions[:4], k=5)
        gc.collect()
        gc.collect()
        counts = server.serving_state()["gc"]["collections"]
    assert len(counts) == 3 and all(type(c) is int for c in counts)
    assert counts[2] >= 2 and min(counts) >= 0
