"""Shared-computation serving: in-flush dedup + walk memoization.

Tier-1.  Pins the hard invariant of the shared-computation layer:
**rankings, scores, and explanations are bit-identical with dedup and
the walk memo on versus off**, across thread mode, the pickle pipe,
and the ring transport — through repeat-heavy flushes, mixed ks,
mid-traffic hot swaps, and staged-edge compaction (both of which must
*invalidate* the memo, never serve stale rows).  Plus unit coverage
for :func:`dedup_plan` / :class:`WalkMemo`, the reachability
prewarmer, and the per-version entry-count introspection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.cascade import provider_from_trainer
from repro.cascade import reachability as reach_mod
from repro.cascade.reachability import ReachabilityPrewarmer
from repro.online import CheckpointRegistry
from repro.serving import WalkMemo, dedup_plan


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
# Units: dedup plan + walk memo
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

    def test_seconds_saved_banks_ewma_per_hit(self):
        memo = WalkMemo(4)
        key = WalkMemo.key([1], None, None, 0, "tok")
        memo.put(key, ("row", {}))
        memo.get(key)
        assert memo.seconds_saved == 0.0  # no walk cost observed yet
        memo.note_walk_cost(rows=4, seconds=2.0)  # 0.5 s/row
        memo.get(key)
        assert memo.seconds_saved == pytest.approx(0.5)

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
# Differential: dedup/memo on == off, bit for bit, on every transport
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
                           cache_size=0, dedup=False, walk_memo_size=0,
                           metrics=False, max_wait_ms=25.0) as server:
            futures = [server.submit(s, k=k) for s, k in requests]
            return [_payload(f.result()) for f in futures]

    def _sequential_baseline(self, trainer, requests):
        """Legacy server driven one request at a time — the comparator
        for sequentially-driven treatments.  (Numeric outputs depend on
        the padded flush width, so exactness claims are per *stream of
        flushes*: a sequential treatment must be compared against a
        sequential legacy run, not a coalesced one.)"""
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0, dedup=False, walk_memo_size=0,
                           metrics=False) as server:
            return [_payload(server.recommend_one(s, k=k))
                    for s, k in requests]

    @pytest.mark.parametrize("mode,transport",
                             [("thread", None), ("process", "pipe"),
                              ("process", "ring")])
    def test_duplicate_flush_bit_identical(self, trainer, sessions,
                                           mode, transport):
        requests = self._mixed_duplicates(sessions)
        expected = self._baseline(trainer, requests)
        kwargs = dict(worker_mode=mode, workers=2, cache_size=0,
                      metrics=False, max_wait_ms=25.0)
        if transport is not None:
            kwargs["transport"] = transport
        with trainer.serve(**kwargs) as server:  # dedup + memo defaults
            futures = [server.submit(s, k=k) for s, k in requests]
            got = [_payload(f.result()) for f in futures]
        assert got == expected

    def test_repeat_traffic_hits_memo_bit_identical(self, trainer,
                                                    sessions):
        """The same suffix re-asked at a *different* k must be a memo
        hit (no walk) with a bit-identical result: the stored full
        score row re-selects any k exactly."""
        requests = [(s, k) for k in (5, 10, 20)
                    for s in sessions[:3]]
        expected = self._sequential_baseline(trainer, requests)
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0, metrics=False) as server:
            got = [_payload(server.recommend_one(s, k=k))
                   for s, k in requests]
            memo = server.walk_memo
            assert memo.hits >= 2 * 3  # rounds 2 and 3 hit per session
            assert len(memo) == 3      # one entry per distinct suffix
        assert got == expected

    def test_fresh_rows_at_walk_k_reuse_the_walk_ranking(
            self, trainer, sessions, monkeypatch):
        """A freshly walked row asked for the walk's own k takes the
        ranking ``recommend`` already made; memo hits and smaller-k
        rows re-select from their score rows, stacked, one ``_top_k``
        per distinct k.  Answers are the legacy server's either way."""
        import repro.runtime.rowblock as rowblock_mod

        calls = []
        real_top_k = rowblock_mod._top_k

        def counting(scores, k):
            calls.append((k, len(scores)))
            return real_top_k(scores, k)

        monkeypatch.setattr(rowblock_mod, "_top_k", counting)
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
            assert calls == []          # four walked rows, no re-select
            futures = [server.submit(s, k=k) for s, k in requests]
            hits = [_payload(f.result()) for f in futures]
            assert calls == [(10, 4)]   # memo hits have no ranking
            del calls[:]
            futures = [server.submit(s, k=k) for s, k in mixed]
            mixed_got = [_payload(f.result()) for f in futures]
            assert calls == [(3, 1)]    # only the smaller-k row
        monkeypatch.undo()
        assert hits == fresh
        legacy = (self._baseline(trainer, requests)
                  + self._baseline(trainer, mixed))
        # items + explanations: score bits additionally need the two
        # servers to have cut identical flushes, which the differential
        # tests above arrange and this one does not.
        assert ([(p[0], p[2]) for p in fresh + mixed_got]
                == [(p[0], p[2]) for p in legacy])

    def test_process_mode_worker_memo_hits(self, trainer, sessions):
        """Process workers own their memos; repeats across flushes are
        hits counted in the fleet metrics, results bit-identical."""
        requests = [(s, k) for k in (5, 10) for s in sessions[:3]]
        expected = self._sequential_baseline(trainer, requests)
        with trainer.serve(worker_mode="process", workers=1,
                           cache_size=0) as server:
            got = [_payload(server.recommend_one(s, k=k))
                   for s, k in requests]
            snap = server.fleet_snapshot()
        assert got == expected
        assert snap.counter("walk_memo_hits_total") >= 3
        assert snap.counter("walk_memo_misses_total") >= 3

    def test_dedup_counter_and_stats(self, trainer, sessions):
        """In-flush duplicates collapse: dedup_rows_total counts the
        rows *not* walked, mirrored in ServerStats."""
        session = sessions[0]
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0, walk_memo_size=0,
                           max_wait_ms=50.0, max_batch=32) as server:
            futures = [server.submit(session, k=5) for _ in range(8)]
            results = [_payload(f.result()) for f in futures]
            snap = server.stats()
            fleet = server.fleet_snapshot()
        assert len(set(results)) == 1  # every duplicate gets one answer
        assert snap.dedup_rows >= 1
        assert fleet.counter("dedup_rows_total") == snap.dedup_rows
        assert snap.to_dict()["dedup_rows"] == snap.dedup_rows

    def test_hot_swap_invalidates_memo(self, trainer, sessions,
                                       tmp_path):
        """Memo keys carry the model version: after a mid-traffic hot
        swap, the hot suffix re-walks under the new weights — identical
        to a memo-off server driven through the same swap."""
        subset = sessions[:6]
        registry = CheckpointRegistry(tmp_path)
        state = trainer.agent.state_dict()
        v0 = registry.publish(state)
        perturbed = {k: (v + 0.03 if k.startswith("encoder.") else v)
                     for k, v in state.items()}
        v1 = registry.publish(perturbed)
        phases = {}
        for label, overrides in (
                ("off", dict(dedup=False, walk_memo_size=0)),
                ("on", {})):
            with trainer.serve(worker_mode="thread", workers=2,
                               cache_size=0, registry=registry,
                               metrics=False, **overrides) as server:
                server.swap_model(v0)
                before = [_payload(r) for r
                          in server.recommend_many(subset, k=5)]
                # Warm the memo hard on v0, then swap mid-traffic.
                server.recommend_many(subset, k=10)
                server.swap_model(v1)
                after = [_payload(r) for r
                         in server.recommend_many(subset, k=5)]
                phases[label] = (before, after)
                if label == "on":
                    by_version = server.walk_memo.entries_by_version()
                    assert by_version.get(v1)  # post-swap entries exist
        assert phases["on"] == phases["off"]
        assert phases["on"][0] != phases["on"][1]  # swap did something

    def test_graph_change_invalidates_memo(self, beauty_tiny, beauty_kg,
                                           beauty_transe):
        """The store token (environment fingerprint) keys the memo:
        staged edges AND compaction both force a re-walk — identical to
        a memo-off server over the same mutation sequence."""
        trainer = _private_trainer(beauty_tiny, beauty_kg, beauty_transe)
        sessions = [s for s in beauty_tiny.split.test
                    if len(s.items) >= 2][:6]
        heads, rels, tails = _fresh_edges(trainer.env, beauty_kg, 6)

        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0, metrics=False,
                           dedup=False, walk_memo_size=0) as legacy, \
                trainer.serve(worker_mode="thread", workers=1,
                              cache_size=0,
                              metrics=False) as shared:
            def both(k):
                return ([_payload(r) for r
                         in legacy.recommend_many(sessions, k=k)],
                        [_payload(r) for r
                         in shared.recommend_many(sessions, k=k)])

            base_l, base_s = both(5)
            assert base_s == base_l
            assert len(shared.walk_memo) > 0

            # Stage: both servers read the shared env; the fingerprint
            # moved, so the memo must re-walk, not serve pre-edge rows.
            assert trainer.env.stage_edges(heads, rels, tails) > 0
            staged_l, staged_s = both(5)
            assert staged_s == staged_l

            # Compact: overlay folds into fresh CSR, fingerprint moves
            # again.
            trainer.env.compact()
            legacy.refresh_tables(), shared.refresh_tables()
            compact_l, compact_s = both(5)
            assert compact_s == compact_l
            assert compact_s == staged_s  # compaction preserves actions


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
        # Both caches carry entries from both versions until the LRU
        # drains the stale ones — exactly what cli top watches.
        assert serving["cache_entries_by_version"] == {
            str(v0): 4, str(v1): 2}
        memo_state = serving["walk_memo"]
        assert memo_state["entries_by_version"] == {
            str(v0): 4, str(v1): 2}
        assert memo_state["misses"] >= 6
        assert snap.cache_entries_by_version == {v0: 4, v1: 2}
        assert snap.memo_entries_by_version == {v0: 4, v1: 2}
        blob = snap.to_dict()
        assert blob["cache_entries_by_version"] == {
            str(v0): 4, str(v1): 2}
        assert blob["walk_memo"]["entries_by_version"] == {
            str(v0): 4, str(v1): 2}

    def test_memo_counters_reach_fleet_metrics_thread_mode(
            self, trainer, sessions):
        subset = sessions[:3]
        with trainer.serve(worker_mode="thread", workers=1,
                           cache_size=0) as server:
            server.recommend_many(subset, k=5)
            server.recommend_many(subset, k=10)  # memo hits, cache miss
            snap = server.fleet_snapshot()
        assert snap.counter("walk_memo_misses_total") == len(subset)
        assert snap.counter("walk_memo_hits_total") == len(subset)
        # exec_rows_total counts rows actually *walked* — the memo-hit
        # rows are not walk work.
        assert snap.counter("exec_rows_total") == len(subset)
