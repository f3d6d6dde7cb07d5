"""One cached answer per session serves every ``k`` — exactly.

Tier-1.  ``_top_k`` ranks by the total order ``(-score, item id)``, so
every top-``k`` is the first ``k`` of every top-``K``; the server ranks
every miss at its ``k`` ceiling (the largest ``k`` asked so far) and
keeps one entry per session, which answers any ``k`` up to the one it
was ranked at, or any ``k`` once it holds the whole catalogue.  Pinned
here:

* the order — property over tie-heavy score rows: prefix-closed,
  equal to a brute-force sort that never picks the padding item 0,
  and the cascade's ``top_m`` order;
* the rule is *exact* — every served answer equals the offline oracle
  (``REKSTrainer.recommend_sessions``; the constrained
  ``agent.recommend`` under the cascade) in items, paths, explanations
  and score bits, in thread mode and in process mode over the ring,
  for arbitrary ``k`` sequences, with ``cached`` true exactly
  when the rule says so — a hit's paths being the entry's
  ``PathColumn`` cut by ``head(k)``, the first ``k`` of the oracle's at
  the ``k`` the entry was ranked at;
* a tie at or past the cut is served from the entry like any other
  ``k``;
* the ceiling only rises, under concurrent submits too, and a ``k``
  past the catalogue clips the walk, not the ceiling;
* admission keeps one entry per session at the largest ``k``; the LRU
  counts and evicts sessions; a hot swap or another cascade identity
  misses.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import REKSConfig, REKSTrainer
from repro.cascade import build_constraint, provider_from_trainer
from repro.cascade.providers import _ranked_top_m
from repro.core.agent import _top_k
from repro.data.loader import collate_examples
from repro.kg.paths import render_path
from repro.runtime.rowblock import PathColumn
from repro.serving import ExplanationCache
from repro.serving.cache import Entry
from repro.serving.server import ServedResult

CASCADE_M = 20


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


class Oracle:
    """The offline answer for ``(session, k)``, computed once each."""

    def __init__(self, trainer, provider=None):
        self.trainer, self.provider = trainer, provider
        self._answers = {}

    def __call__(self, session, k):
        key = (tuple(session.items), session.user_id, k)
        if key not in self._answers:
            self._answers[key] = self._compute(session, k)
        return self._answers[key]

    def _compute(self, session, k):
        trainer, agent = self.trainer, self.trainer.agent
        if self.provider is None:
            (rec,) = trainer.recommend_sessions([session], k=k)
        else:
            length = trainer.config.max_session_length
            prefix = tuple(session.items[:-1][-length:])
            cands = self.provider.top_m(prefix, CASCADE_M, user_id=None)
            rec = agent.recommend(
                collate_examples([(session.items[:-1], session.items[-1],
                                   session.user_id)], length),
                k=k, candidates=build_constraint(
                    agent, [cands], agent.config.path_length))
        items = tuple(int(i) for i in rec.ranked_items[0])
        paths = tuple(rec.paths.get((0, item)) for item in items)
        return ServedResult(
            items, tuple(float(rec.scores[0, i]) for i in items), paths,
            tuple("" if p is None else render_path(p, trainer.env.built.kg)
                  for p in paths))


def assert_answers(result, expected):
    assert result.items == expected.items
    assert result.paths == expected.paths
    assert result.explanations == expected.explanations
    # bits, not values
    assert (np.array(result.scores).tobytes()
            == np.array(expected.scores).tobytes())


def entry_of(server, session):
    key = server._base_key(session) + (server._cascade_id,
                                       server.model_version)
    return server.cache._entries.get(key)


def servable(entry, k):
    """The rule, restated: the oracle ``cached`` is checked against."""
    return entry is not None and (
        k <= entry.asked or len(entry.result.items) < entry.asked)


tie_heavy_rows = st.lists(st.integers(0, 6), min_size=1, max_size=24)


def brute_top_k(row, k):
    """Sort every real item by ``(-score, id)``; item 0 is padding."""
    return sorted(range(1, len(row)), key=lambda i: (-row[i], i))[:k]


# ----------------------------------------------------------------------
# One total order, and the rule is exact wherever it says yes
# ----------------------------------------------------------------------
class TestRule:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(tie_heavy_rows, min_size=1, max_size=4),
           st.integers(1, 30))
    def test_top_k_is_one_total_order(self, values, ceiling):
        """Tie-heavy rows (few distinct values, zero runs, a scored
        padding column): every ``k <= K`` ranking is the first ``k`` of
        the ``K`` one, and both are the brute-force ``(-score, id)``
        sort without item 0 — the order the cascade's ``top_m`` ranks
        its candidates by."""
        width = max(map(len, values))
        rows = np.array([[v % 3 / 2] + [x / 4 for x in row]
                         + [0.0] * (width - len(row)) for v, row
                         in enumerate(values)])
        full = _top_k(rows, ceiling)
        for k in range(1, ceiling + 1):
            ranked = _top_k(rows, k)
            assert (ranked == full[:, :k]).all()
            for row, got in zip(rows, ranked):
                assert got.tolist() == brute_top_k(row, k)
                assert got.tolist() == _ranked_top_m(row, k).tolist()

    def test_top_k_never_serves_the_padding_item(self):
        """A cut inside a run of 0.0 scores: the parent partitioned
        over column 0 and could return item 0 (7 of 200 such rows)."""
        rng = np.random.default_rng(7)
        rows = np.zeros((200, 90))
        for row in rows:
            row[rng.choice(np.arange(1, 90), 30, replace=False)] = (
                rng.random(30) + 0.1)
        ranked = _top_k(rows, 40)
        assert (ranked > 0).all()
        for row, got in zip(rows, ranked):
            assert got.tolist() == brute_top_k(row, 40)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_rows, st.integers(1, 30), st.integers(1, 30))
    def test_a_servable_prefix_is_the_dedicated_top_k(self, values, asked,
                                                      k):
        """Wherever ``lookup`` serves ``k`` from the entry ranked at
        ``asked`` — every ``k <= asked``, and every ``k`` once the
        entry is clipped — the prefix equals ``_top_k(row, k)``."""
        row = np.array([[0.0] + [v / 4 for v in values]])
        ranked = _top_k(row, asked)[0]
        result = ServedResult(tuple(ranked.tolist()),
                              tuple(row[0, ranked].tolist()), (), ())
        cache = ExplanationCache(4)
        key = ExplanationCache.key((1, 2))
        cache.admit([key], [Entry(result, asked)])
        entry, ok = cache.lookup(key, k)
        assert entry.result is result
        assert ok == servable(entry, k) == (k <= asked
                                            or len(values) < asked)
        if ok:
            assert result.items[:k] == tuple(_top_k(row, k)[0].tolist())
        assert (cache.hits, cache.misses) == (int(ok), int(not ok))
        assert cache.nested_hits == int(ok and k != asked)

    def test_key_drops_k_and_names_its_fields(self):
        assert (ExplanationCache.key((1, 2), 5)
                == ExplanationCache.key((1, 2), 20)
                == ExplanationCache.key((1, 2)))
        key = ExplanationCache.key([np.int64(1), 2], user_id=7,
                                   cascade=("neighbors:r20", 50), version=3)
        assert key == ((1, 2), 7, ("neighbors:r20", 50), 3)
        assert (key.suffix, key.user, key.cascade, key.version) == key

    def test_other_cascade_identity_or_version_misses(self):
        result = ServedResult((4, 2), (0.5, 0.25), (None, None), ("", ""))
        cache = ExplanationCache(8)
        base = dict(cascade=("neighbors:r20", 50), version=1)
        cache.admit([ExplanationCache.key((1, 2), **base)],
                    [Entry(result, 2)])
        for other in (dict(base, cascade=("neighbors:r20", 100)),
                      dict(base, cascade=None),
                      dict(base, cascade=("encoder:narm", 50)),
                      dict(base, version=2)):
            assert cache.lookup(ExplanationCache.key((1, 2), **other),
                                2) == (None, False)
        assert cache.lookup(ExplanationCache.key((1, 2), **base), 2)[1]
        assert cache.entries_by_version() == {1: 1}

    def test_admit_keeps_the_larger_entry_and_refreshes_it(self):
        def entry(asked):
            scores = tuple(1.0 / (i + 1) for i in range(asked))
            return Entry(ServedResult(tuple(range(1, asked + 1)), scores,
                                      (None,) * asked, ("",) * asked),
                         asked)

        a, b, c = (ExplanationCache.key((i,)) for i in range(3))
        cache = ExplanationCache(2)
        cache.admit([a, b], [entry(20), entry(10)])
        cache.admit([a], [entry(5)])          # kept at 20, now most recent
        assert cache._entries[a].asked == 20
        cache.admit([c], [entry(5)])          # evicts b, not a
        assert list(cache._entries) == [a, c] and cache.evictions == 1
        cache.admit([c, c], [entry(20), entry(10)])   # one flush, two ks
        assert cache._entries[c].asked == 20 and len(cache) == 2
        off = ExplanationCache(0)
        off.admit([a], [entry(5)])
        assert len(off) == 0 and off.lookup(a, 5) == (None, False)


# ----------------------------------------------------------------------
# Served answers: any k sequence, both modes, cascade on and off
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[
    ("thread", False), ("thread", True), ("process", False),
    ("process", True)],
    ids=lambda p: f"{p[0]}-{'cascade' if p[1] else 'full'}")
def served(request, trainer):
    mode, cascade = request.param
    provider = (provider_from_trainer(trainer, "neighbors") if cascade
                else None)
    with trainer.serve(worker_mode=mode, workers=1, max_wait_ms=0.0,
                       cascade=provider, cascade_m=CASCADE_M) as server:
        yield server, Oracle(trainer, provider)


class TestServedSequences:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_every_answer_is_the_oracles(self, served, sessions, data):
        server, oracle = served
        n_items = server._agent.n_items
        session = sessions[data.draw(st.integers(0, len(sessions) - 1))]
        ks = data.draw(st.lists(
            st.one_of(st.integers(1, n_items + 5), st.integers(1, 24)),
            min_size=2, max_size=6))
        server.cache.clear()
        for k in ks:
            before = entry_of(server, session)
            result = server.recommend_one(session, k=k)
            assert result.cached == servable(before, k), (k, before)
            assert_answers(result, oracle(session, k))
            after = entry_of(server, session)
            if result.cached:
                assert after is before
                assert result.scores == before.result.scores[:k]
                # the entry's column, cut to k without decoding it:
                # the first k paths of the walk the entry came from
                assert isinstance(result.paths, PathColumn)
                assert tuple(result.paths) == oracle(
                    session, before.asked).paths[:k]
                assert result.paths == before.result.paths[:k]
            else:
                assert after.asked == server._ceiling >= k
            assert len(server.cache) == 1


# ----------------------------------------------------------------------
# Ties, clipping, upgrades, eviction, swap — on real walks
# ----------------------------------------------------------------------
@pytest.fixture(params=["thread", "process"])
def server(request, trainer):
    with trainer.serve(worker_mode=request.param, workers=1,
                       max_wait_ms=0.0) as server:
        yield server


class TestRealWalks:
    def test_tie_at_or_past_the_cut_is_a_hit(self, server, trainer,
                                              sessions):
        """With the encoder fallback off, a ranking over the whole
        catalogue ends in a run of pathless 0.0 scores, in id order:
        every cut — inside the run too — is the first ``k`` of that
        ranking, and is served from the one entry."""
        oracle = Oracle(trainer)
        session = sessions[0]
        n_items = server._agent.n_items
        full = server.recommend_one(session, k=n_items + 5)
        entry = entry_of(server, session)
        reached = sum(1 for score in full.scores if score > 0)
        assert 5 < reached < n_items - 5
        assert entry.asked == n_items + 5
        assert full.scores[reached:] == (0.0,) * (n_items - reached)
        assert list(full.items[reached:]) == sorted(full.items[reached:])
        assert 0 not in full.items

        ks = (1, reached - 1, reached, reached + 1, reached + 4,
              n_items - 1)
        for k in ks:
            hit = server.recommend_one(session, k=k)
            assert hit.cached and hit.items == full.items[:k]
            assert_answers(hit, oracle(session, k))
        assert entry_of(server, session) is entry
        stats = server.stats()
        assert (stats.cache_hits, stats.cache_misses) == (len(ks), 1)
        assert stats.cache_nested_hits == len(ks)
        assert "cache_tie_misses" not in stats.to_dict()
        snap = server.fleet_snapshot()
        assert snap.counter("cache_nested_hits_total") == len(ks)
        assert snap.counter("cache_hits_total") == len(ks)
        assert snap.counter("cache_misses_total") == 1
        assert server.serving_state()["cache_nested_hits"] == len(ks)
        assert (server.cache.hits, server.cache.misses) == (len(ks), 1)

    def test_clipped_entry_serves_every_k_at_or_past_the_catalogue(
            self, server, trainer, sessions):
        oracle = Oracle(trainer)
        session = sessions[1]
        n_items = server._agent.n_items
        full = server.recommend_one(session, k=n_items + 5)
        assert len(full.items) == n_items
        for k in (n_items, n_items + 2, n_items + 5):
            hit = server.recommend_one(session, k=k)
            assert hit.cached and hit.items is full.items
            assert_answers(hit, oracle(session, k))
        # clipped: it answers every k, however large
        assert server.recommend_one(session, k=n_items + 6).cached
        assert entry_of(server, session).asked == n_items + 5

    def test_upgrade_replaces_downgrade_does_not(self, server, sessions):
        up, down = sessions[2], sessions[3]
        assert not server.recommend_one(up, k=5).cached
        assert not server.recommend_one(up, k=20).cached     # larger: walk
        assert entry_of(server, up).asked == 20
        assert server.recommend_one(up, k=5).cached
        assert not server.recommend_one(down, k=20).cached
        twenty = entry_of(server, down)
        five = server.recommend_one(down, k=5)
        assert five.cached and five.items == twenty.result.items[:5]
        assert entry_of(server, down) is twenty
        assert len(server.cache) == 2

    def test_k_past_the_catalogue_clips_the_walk_not_the_ceiling(
            self, server, trainer, sessions):
        oracle = Oracle(trainer)
        n_items = server._agent.n_items
        big, small = sessions[9], next(
            s for s in sessions[10:]
            if server._base_key(s) != server._base_key(sessions[9]))
        first = server.recommend_one(big, k=n_items + 7)
        assert len(first.items) == n_items
        assert server.serving_state()["k_ceiling"] == n_items + 7
        assert entry_of(server, big).asked == n_items + 7
        # every later miss ranks the whole catalogue, once, and its
        # entry then answers any k
        three = server.recommend_one(small, k=3)
        assert not three.cached and len(three.items) == 3
        assert_answers(three, oracle(small, 3))
        entry = entry_of(server, small)
        assert entry.asked == n_items + 7
        assert len(entry.result.items) == n_items
        for k in (n_items, n_items + 7, 10 * n_items):
            hit = server.recommend_one(small, k=k)
            assert hit.cached and hit.items is entry.result.items
        assert server.recommend_one(small, k=4).cached
        assert server.serving_state()["k_ceiling"] == n_items + 7

    def test_the_ceiling_only_rises_under_concurrent_submits(
            self, trainer, sessions):
        """Eight threads submit mixed ``k`` with a 1 us switch
        interval while a reader watches the ceiling: it never moves
        down, ends at the largest ``k`` asked, and every answer has
        its own ``k``."""
        ks = [3, 20, 5, 11, 17, 2, 19, 7]
        seen = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        with trainer.serve(workers=1, max_wait_ms=0.0,
                           cache_size=0) as server:
            def watch():
                while not stop.is_set():
                    seen.append(server._ceiling)

            def client(k):
                for session in sessions[:12]:
                    assert len(server.submit(session, k=k).result(
                        timeout=60).items) == k

            reader = threading.Thread(target=watch)
            clients = [threading.Thread(target=client, args=(k,))
                       for k in ks]
            sys.setswitchinterval(1e-6)
            try:
                reader.start()
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
                stop.set()
                reader.join(timeout=10)
            assert not any(t.is_alive() for t in clients + [reader])
            assert server.stats().requests == len(ks) * 12
            assert server._ceiling == max(ks)
        assert seen and seen == sorted(seen)

    @pytest.mark.parametrize("ks", [(5, 20), (20, 5)])
    def test_two_ks_of_one_session_in_one_flush_admit_one_entry(
            self, trainer, sessions, ks):
        with trainer.serve(workers=1, max_batch=2,
                           max_wait_ms=5000.0) as server:
            futures = [server.submit(sessions[4], k=k) for k in ks]
            results = [future.result(timeout=30) for future in futures]
            assert [len(r.items) for r in results] == list(ks)
            assert not any(r.cached for r in results)
            assert server.stats().batches == 1
            assert len(server.cache) == 1
            assert entry_of(server, sessions[4]).asked == 20

    def test_len_counts_sessions_and_the_lru_evicts_whole_sessions(
            self, trainer, sessions):
        a, b, c = sessions[5:8]
        with trainer.serve(workers=1, max_wait_ms=0.0,
                           cache_size=2) as server:
            server.recommend_one(a, k=20)
            assert server.recommend_one(a, k=5).cached
            assert server.recommend_one(a, k=10).cached
            assert len(server.cache) == 1           # three ks, one entry
            server.recommend_one(b, k=10)
            server.recommend_one(c, k=10)           # evicts a, all of it
            assert len(server.cache) == 2
            assert server.cache.evictions == 1
            assert entry_of(server, a) is None
            assert not server.recommend_one(a, k=5).cached
            assert server.cache.entries_by_version() == {0: 2}

    def test_swap_model_misses(self, server, trainer, sessions):
        session = sessions[8]
        server.recommend_one(session, k=20)
        assert server.recommend_one(session, k=5).cached
        server.swap_model(state=trainer.agent.state_dict(), version=1)
        assert not server.recommend_one(session, k=5).cached
        # that miss ranked at the ceiling, 20
        assert server.recommend_one(session, k=20).cached
        assert server.recommend_one(session, k=5).cached
        assert server.cache.entries_by_version() == {0: 1, 1: 1}
