"""Shared-computation serving: in-flush dedup.

Tier-1.  Pins the hard invariant of the shared-computation layer:
**rankings, scores, and explanations are bit-identical with dedup on
versus off**, in thread mode and in process mode over the ring,
through repeat-heavy flushes with mixed ks.  Plus unit
coverage for :func:`dedup_plan` and the harness-only
:class:`WalkMemo` LRU, the reachability prewarmer, and the per-version
entry-count introspection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.cascade import provider_from_trainer
from repro.cascade import reachability as reach_mod
from repro.cascade.reachability import ReachabilityPrewarmer
from repro.online import CheckpointRegistry
from repro.serving.memo import WalkMemo, dedup_plan


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture()
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


def _private_trainer(beauty_tiny, beauty_kg, beauty_transe):
    """A trainer whose environment the test may mutate."""
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                      config=config, transe=beauty_transe)


def _fresh_edges(env, kg_bundle, count):
    """(heads, rels, tails) between products not currently adjacent."""
    co_occur = kg_bundle.kg.relation_id("co_occur")
    entities = kg_bundle.entities_of_items(
        np.arange(1, min(40, kg_bundle.n_items + 1)))
    heads, tails = [], []
    for head in entities:
        _, existing = env.actions_of(int(head))
        for tail in entities[::-1]:
            if int(tail) != int(head) and int(tail) not in existing:
                heads.append(int(head))
                tails.append(int(tail))
                break
        if len(heads) >= count:
            break
    assert heads, "fixture KG unexpectedly complete"
    return heads, [co_occur] * len(heads), tails


def _payload(result):
    return (result.items, result.scores, result.explanations)


# ----------------------------------------------------------------------
# Units: dedup plan + the harness-only walk memo LRU
# ----------------------------------------------------------------------
class TestDedupPlan:
    def test_collapses_to_first_occurrence(self):
        keys = ["a", "b", "a", "c", "b", "a"]
        uniq, row_map = dedup_plan(keys)
        assert uniq == [0, 1, 3]
        assert row_map == [0, 1, 0, 2, 1, 0]

    def test_all_distinct_is_identity(self):
        uniq, row_map = dedup_plan(["x", "y", "z"])
        assert uniq == [0, 1, 2]
        assert row_map == [0, 1, 2]

    def test_empty(self):
        assert dedup_plan([]) == ([], [])


class TestWalkMemo:
    def test_capacity_zero_disables(self):
        memo = WalkMemo(0)
        key = WalkMemo.key([1, 2], 3, None, 0, "tok")
        memo.put(key, ("row", {}))
        assert memo.get(key) is None
        assert len(memo) == 0
        assert memo.misses == 1 and memo.hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WalkMemo(-1)

    def test_hit_miss_and_lru_eviction(self):
        memo = WalkMemo(2)
        keys = [WalkMemo.key([i], None, None, 0, "tok")
                for i in range(3)]
        memo.put(keys[0], ("a", {}))
        memo.put(keys[1], ("b", {}))
        assert memo.get(keys[0]) == ("a", {})  # refresh 0: 1 is now LRU
        memo.put(keys[2], ("c", {}))           # evicts 1
        assert memo.evictions == 1
        assert memo.get(keys[1]) is None
        assert memo.get(keys[0]) == ("a", {})
        assert memo.get(keys[2]) == ("c", {})
        assert memo.hits == 3 and memo.misses == 1
        assert memo.hit_rate == 0.75

    def test_key_carries_version_and_store_token(self):
        base = WalkMemo.key([1, 2], 3, (4, 5), 7, "tok")
        assert WalkMemo.key([1, 2], 3, (4, 5), 8, "tok") != base
        assert WalkMemo.key([1, 2], 3, (4, 5), 7, "tok2") != base
        assert WalkMemo.key([1, 2], 3, (4, 6), 7, "tok") != base
        assert WalkMemo.key([1, 2], 3, None, 7, "tok") != base
        assert WalkMemo.key((1, 2), 3, (4, 5), 7, "tok") == base

    def test_entries_by_version(self):
        memo = WalkMemo(8)
        for version, n in ((3, 2), (4, 1)):
            for i in range(n):
                memo.put(WalkMemo.key([i], None, None, version, "tok"),
                         ("row", {}))
        assert memo.entries_by_version() == {3: 2, 4: 1}

    def test_clear_drops_entries_keeps_counters(self):
        memo = WalkMemo(4)
        key = WalkMemo.key([1], None, None, 0, "tok")
        memo.put(key, ("row", {}))
        memo.get(key)
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 1


# ----------------------------------------------------------------------
# Differential: dedup on == off, bit for bit, in both modes
# ----------------------------------------------------------------------
class TestSharedBitIdentity:
    def _mixed_duplicates(self, sessions):
        """A flush-shaped request list: 4 distinct sessions, each asked
        3 times at different ks, interleaved."""
        subset = sessions[:4]
        requests = [(s, k) for k in (5, 10, 3) for s in subset]
        return requests

    def _baseline(self, trainer, requests):
        with trainer.serve(worker_mode="thread", workers=2,
                           cache_size=0, dedup=False,
                           metrics=False, max_wait_ms=25.0) as server:
            futures = [server.submit(s, k=k) for s, k in requests]
            return [_payload(f.result()) for f in futures]

    @pytest.mark.parametrize("mode,transport",
                             [("thread", None), ("process", "ring")])
    def test_duplicate_flush_bit_identical(self, trainer, sessions,
                                           mode, transport):
        requests = self._mixed_duplicates(sessions)
        expected = self._baseline(trainer, requests)
        kwargs = dict(worker_mode=mode, workers=2, cache_size=0,
                      metrics=False, max_wait_ms=25.0)
        if transport is not None:
            kwargs["transport"] = transport
        with trainer.serve(**kwargs) as server:  # dedup on by default
            futures = [server.submit(s, k=k) for s, k in requests]
            got = [_payload(f.result()) for f in futures]
        assert got == expected

    def test_fresh_rows_at_walk_k_reuse_the_walk_ranking(
            self, trainer, sessions, monkeypatch):
        """Every answer row is a prefix of the ranking ``recommend``
        made at the walk's ``k`` — the server's ceiling — so a flush
        calls ``_top_k`` once, over its walked rows, and nothing
        re-selects: not a smaller ``k``, not a repeat.  Answers are the
        dedup-off server's either way."""
        import repro.core.agent as agent_mod

        calls = []
        real_top_k = agent_mod._top_k

        def counting(scores, k):
            calls.append((k, len(scores)))
            return real_top_k(scores, k)

        monkeypatch.setattr(agent_mod, "_top_k", counting)
        requests = [(s, 10) for s in sessions[:4]]
        mixed = [(sessions[4], 10), (sessions[5], 3)]
        # max_batch == the round size: a round flushes when full, and
        # the two-request mixed round on a timer far longer than the
        # gap between two submits.
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0, metrics=False, max_batch=4,
                           max_wait_ms=250.0) as server:
            futures = [server.submit(s, k=k) for s, k in requests]
            fresh = [_payload(f.result()) for f in futures]
            assert calls == [(10, 4)]   # the walk's own ranking
            futures = [server.submit(s, k=k) for s, k in requests]
            again = [_payload(f.result()) for f in futures]
            futures = [server.submit(s, k=k) for s, k in mixed]
            mixed_got = [_payload(f.result()) for f in futures]
            assert calls == [(10, 4)] * 2 + [(10, 2)]
        monkeypatch.undo()
        assert again == fresh
        assert [len(p[0]) for p in mixed_got] == [10, 3]
        legacy = (self._baseline(trainer, requests)
                  + self._baseline(trainer, mixed))
        # items + explanations: score bits additionally need the two
        # servers to have cut identical flushes, which the differential
        # tests above arrange and this one does not.
        assert ([(p[0], p[2]) for p in fresh + mixed_got]
                == [(p[0], p[2]) for p in legacy])

    def test_dedup_counter_and_stats(self, trainer, sessions):
        """In-flush duplicates collapse: dedup_rows_total counts the
        rows *not* walked, mirrored in ServerStats."""
        session = sessions[0]
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0,
                           max_wait_ms=50.0, max_batch=32) as server:
            futures = [server.submit(session, k=5) for _ in range(8)]
            results = [_payload(f.result()) for f in futures]
            snap = server.stats()
            fleet = server.fleet_snapshot()
        assert len(set(results)) == 1  # every duplicate gets one answer
        assert snap.dedup_rows >= 1
        assert fleet.counter("dedup_rows_total") == snap.dedup_rows
        assert snap.to_dict()["dedup_rows"] == snap.dedup_rows

# ----------------------------------------------------------------------
# Reachability prewarm (cascade)
# ----------------------------------------------------------------------
class TestReachabilityPrewarm:
    def test_poll_once_builds_on_digest_change_only(self, beauty_tiny,
                                                    beauty_kg,
                                                    beauty_transe):
        trainer = _private_trainer(beauty_tiny, beauty_kg, beauty_transe)
        env = trainer.env
        with reach_mod._CACHE_LOCK:
            reach_mod._CACHE.clear()
        warmer = ReachabilityPrewarmer(env, hops=2)
        assert warmer.poll_once() is True    # cold: builds
        assert warmer.poll_once() is False   # same digest: no-op
        heads, rels, tails = _fresh_edges(env, beauty_kg, 2)
        env.stage_edges(heads, rels, tails)
        env.compact()
        assert warmer.poll_once() is True    # digest moved: rebuilds
        key = (env.csr_tables().digest(), 2)
        with reach_mod._CACHE_LOCK:
            assert key in reach_mod._CACHE

    def test_first_request_after_compact_skips_build(self, beauty_tiny,
                                                     beauty_kg,
                                                     beauty_transe):
        """Satellite contract: after ``compact()`` +
        ``refresh_tables()``, the index for the new store generation is
        already cached (built by the prewarmer, counted in
        ``reachability_rebuilds_total``) — the first request finds a
        cache hit instead of paying the O(hops * items * E) build."""
        trainer = _private_trainer(beauty_tiny, beauty_kg, beauty_transe)
        env = trainer.env
        sessions = [s for s in beauty_tiny.split.test
                    if len(s.items) >= 2][:4]
        provider = provider_from_trainer(trainer, "neighbors")
        hops = trainer.config.path_length
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0, cascade=provider,
                           cascade_m=10) as server:
            server.recommend_many(sessions, k=5)  # current-gen traffic
            heads, rels, tails = _fresh_edges(env, beauty_kg, 3)
            env.stage_edges(heads, rels, tails)
            env.compact()
            server.refresh_tables()  # deterministic prewarm poll
            built = server.fleet_snapshot().counter(
                "reachability_rebuilds_total")
            assert built >= 1
            key = (env.csr_tables().digest(), hops)
            with reach_mod._CACHE_LOCK:
                assert key in reach_mod._CACHE  # request path will hit
            results = server.recommend_many(sessions, k=5)
            assert all(len(r.items) == 5 for r in results)
            # The request built nothing new.
            assert server.fleet_snapshot().counter(
                "reachability_rebuilds_total") == built


# ----------------------------------------------------------------------
# Introspection: per-version entry counts (post-swap drain)
# ----------------------------------------------------------------------
class TestServingState:
    def test_serving_state_and_snapshot_fields(self, trainer, sessions,
                                               tmp_path):
        subset = sessions[:4]
        registry = CheckpointRegistry(tmp_path)
        state = trainer.agent.state_dict()
        v0 = registry.publish(state)
        v1 = registry.publish({k: v + 0.01 for k, v in state.items()})
        with trainer.serve(worker_mode="thread", workers=1,
                           registry=registry, metrics=False) as server:
            server.swap_model(v0)
            server.recommend_many(subset, k=5)
            server.swap_model(v1)
            server.recommend_many(subset[:2], k=5)
            serving = server.serving_state()
            snap = server.stats()
        assert serving["dedup"] is True
        assert serving["k_ceiling"] == 5
        # The cache carries entries from both versions until the LRU
        # drains the stale ones — exactly what cli top watches.
        assert serving["cache_entries_by_version"] == {
            str(v0): 4, str(v1): 2}
        assert "walk_memo" not in serving
        assert snap.cache_entries_by_version == {v0: 4, v1: 2}
        assert snap.memo_hit_rate == 0.0
        blob = snap.to_dict()
        assert blob["cache_entries_by_version"] == {
            str(v0): 4, str(v1): 2}
        assert "walk_memo" not in blob
