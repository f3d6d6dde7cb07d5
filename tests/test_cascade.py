"""Cascade serving: providers, reachability pruning, and the
differential guarantees.

The two contracts that matter:

* **cascade off == before**: a server without a cascade takes exactly
  the pre-cascade code path — rankings bit-identical to the trainer
  oracle in thread mode and over the ring;
* **cascade on is score-preserving**: pruning only removes
  zero-contribution paths, so with saturating beam widths any row
  whose unconstrained top-k (at strictly positive scores) survives
  the candidate set ranks identically.
"""

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.cascade import (
    CandidateCache,
    CascadePlanner,
    NeighborsProvider,
    build_constraint,
    get_index,
    provider_from_trainer,
)
from repro.cascade.providers import EncoderProvider, _ranked_top_m
from repro.serving import ExplanationCache


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    """Untrained (inference-ready) REKS stack, shared per module."""
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def saturated_trainer(beauty_tiny, beauty_kg, beauty_transe):
    """Beam widths that keep every valid action at every hop, so the
    constrained walk's kept paths are a strict superset argument."""
    config = REKSConfig(dim=16, state_dim=16,
                        sample_sizes=(4096, 4096), seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture(scope="module")
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


def _truncated_prefix(trainer, session):
    return list(session.items[:-1])[-trainer.config.max_session_length:]


# ----------------------------------------------------------------------
# Providers
# ----------------------------------------------------------------------
class TestProviders:
    def test_ranked_top_m_breaks_ties_by_item_id(self):
        scores = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 0.5])
        got = _ranked_top_m(scores, 2)
        # three-way tie at the boundary: smaller ids win, best first
        assert got.tolist() == [2, 3]
        assert _ranked_top_m(scores, 4).tolist() == [2, 3, 4, 1]

    def test_neighbors_provider_deterministic_and_full(self, trainer):
        provider = provider_from_trainer(trainer, "neighbors")
        prefix = _truncated_prefix(trainer, trainer.dataset.split.test[0])
        a = provider.top_m(prefix, 25)
        b = provider.top_m(prefix, 25)
        assert (a == b).all()
        assert len(a) == 25          # popularity backfill always fills M
        assert len(set(a.tolist())) == 25
        assert 0 not in a            # padding item never a candidate
        assert provider.provider_id.startswith("neighbors:")

    def test_encoder_provider_matches_bruteforce(self, trainer):
        provider = provider_from_trainer(trainer, "encoder")
        assert provider.provider_id == "encoder:narm"
        from repro.autograd import no_grad
        from repro.data.loader import collate_examples

        session = trainer.dataset.split.test[0]
        prefix = _truncated_prefix(trainer, session)
        got = provider.top_m(prefix, 10, user_id=session.user_id)
        batch = collate_examples([(prefix, 0, session.user_id)],
                                 trainer.config.max_session_length)
        with no_grad():
            logits = trainer.agent.encoder.score_items(
                trainer.agent.encoder.encode(batch)).data[0]
        assert (got == _ranked_top_m(logits.astype(np.float64),
                                     10)).all()

    def test_unknown_provider_raises(self, trainer):
        with pytest.raises(KeyError, match="unknown cascade provider"):
            provider_from_trainer(trainer, "bogus")

    def test_candidate_cache_lru_and_disable(self):
        cache = CandidateCache(2)
        cache.put(("a",), np.array([1]))
        cache.put(("b",), np.array([2]))
        assert cache.get(("a",)) is not None   # refresh "a"
        cache.put(("c",), np.array([3]))       # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.hits == 2 and cache.misses == 1
        off = CandidateCache(0)
        off.put(("a",), np.array([1]))
        assert off.get(("a",)) is None and len(off) == 0

    def test_planner_memoizes_and_reports_identity(self, trainer):
        provider = provider_from_trainer(trainer, "neighbors")
        planner = CascadePlanner(provider, m=12, cache_size=8)
        assert planner.identity == (provider.provider_id, 12)
        prefix = _truncated_prefix(trainer, trainer.dataset.split.test[0])
        first = planner.plan(prefix, None)
        again = planner.plan(prefix, None)
        assert (first == again).all() and len(first) == 12
        assert planner.cache.hits == 1


# ----------------------------------------------------------------------
# Reverse reachability
# ----------------------------------------------------------------------
class TestReachability:
    def test_level0_is_the_items_own_entity(self, trainer):
        agent = trainer.agent
        index = get_index(agent.env, agent.config.path_length)
        built = agent.env.built
        cand = np.array([5], dtype=np.int64)
        mask = index.entity_mask([cand], 0)[0]
        assert mask.sum() == 1
        assert mask[int(built.item_entity[5])]

    def test_level1_matches_bruteforce_adjacency(self, trainer):
        agent = trainer.agent
        index = get_index(agent.env, agent.config.path_length)
        store = agent.env.csr_tables()
        built = agent.env.built
        tails = store.tails[1:]
        starts = store.indptr[:-1] - 1
        degrees = store.degrees
        cand = np.array([3, 7, 11], dtype=np.int64)
        got = index.entity_mask([cand], 1)[0]
        targets = {int(built.item_entity[c]) for c in cand}
        brute = np.array(
            [any(int(t) in targets
                 for t in tails[int(starts[e]):
                                int(starts[e] + degrees[e])])
             for e in range(store.num_entities)])
        assert (got == brute).all()

    def test_empty_candidate_row_allows_nothing(self, trainer):
        agent = trainer.agent
        index = get_index(agent.env, agent.config.path_length)
        masks = index.entity_mask(
            [np.array([], dtype=np.int64),
             np.array([4], dtype=np.int64)], 1)
        assert not masks[0].any()

    def test_index_cached_per_store_digest(self, trainer):
        env = trainer.agent.env
        hops = trainer.config.path_length
        assert get_index(env, hops) is get_index(env, hops)


# ----------------------------------------------------------------------
# Constrained walk semantics
# ----------------------------------------------------------------------
class TestConstrainedWalk:
    def _batch(self, trainer, sessions):
        from repro.data.loader import collate_examples

        examples = [(list(s.items[:-1]), s.items[-1], s.user_id)
                    for s in sessions]
        return collate_examples(examples,
                                trainer.config.max_session_length)

    def test_full_catalog_candidates_are_bit_identical(
            self, saturated_trainer, sessions):
        """When the candidate set is the whole catalog, nothing can be
        pruned and the cascade walk must reproduce the plain walk
        ranking exactly."""
        agent = saturated_trainer.agent
        subset = sessions[:12]
        batch = self._batch(saturated_trainer, subset)
        n_items = saturated_trainer.dataset.n_items
        everything = [np.arange(1, n_items + 1)] * len(subset)
        constraint = build_constraint(
            agent, everything, saturated_trainer.config.path_length)
        rec_off = agent.recommend(batch, k=10)
        rec_on = agent.recommend(batch, k=10, candidates=constraint)
        assert (rec_off.ranked_items == rec_on.ranked_items).all()

    def test_survivor_rows_rank_identically(self, saturated_trainer,
                                            sessions):
        """Rows whose unconstrained top-k is inside the candidate set
        (at strictly positive scores — zero-score argpartition ties
        are not rank-stable under masking) must rank identically, with
        candidate scores preserved to the bit."""
        agent = saturated_trainer.agent
        provider = provider_from_trainer(saturated_trainer, "neighbors")
        subset = sessions[:24]
        batch = self._batch(saturated_trainer, subset)
        cand_rows = [provider.top_m(
            _truncated_prefix(saturated_trainer, s), 60)
            for s in subset]
        constraint = build_constraint(
            agent, cand_rows, saturated_trainer.config.path_length)
        rec_off = agent.recommend(batch, k=10)
        rec_on = agent.recommend(batch, k=10, candidates=constraint)
        checked = 0
        for row in range(len(subset)):
            off = rec_off.ranked_items[row]
            allowed = set(int(i) for i in cand_rows[row])
            if rec_off.scores[row, off[-1]] <= 0:
                continue
            if not all(int(i) in allowed for i in off):
                continue
            checked += 1
            assert (off == rec_on.ranked_items[row]).all()
            for item in off:
                assert rec_on.scores[row, item] == \
                    rec_off.scores[row, item]
        assert checked > 0          # the guarantee was actually exercised

    def test_non_candidates_never_surface(self, trainer, sessions):
        agent = trainer.agent
        provider = provider_from_trainer(trainer, "neighbors")
        subset = sessions[:16]
        batch = self._batch(trainer, subset)
        cand_rows = [provider.top_m(_truncated_prefix(trainer, s), 15)
                     for s in subset]
        constraint = build_constraint(agent, cand_rows,
                                      trainer.config.path_length)
        rec = agent.recommend(batch, k=10, candidates=constraint)
        for row in range(len(subset)):
            allowed = set(int(i) for i in cand_rows[row])
            for item in rec.ranked_items[row]:
                if rec.scores[row, item] > 0:
                    assert int(item) in allowed
        # non-candidate columns carry the sentinel, below every prob
        masked = ~constraint.item_allowed
        assert (rec.scores[masked] == -1.0).all()

    def test_pruning_reduces_frontier_mass(self, trainer, sessions):
        """The point of the exercise: a narrow candidate set must
        shrink the per-hop surviving-path census."""
        agent = trainer.agent
        provider = provider_from_trainer(trainer, "neighbors")
        subset = sessions[:16]
        batch = self._batch(trainer, subset)
        cand_rows = [provider.top_m(_truncated_prefix(trainer, s), 5)
                     for s in subset]
        constraint = build_constraint(agent, cand_rows,
                                      trainer.config.path_length)

        def frontier_mass(candidates):
            ws = agent.workspace
            ws.row_frontier = []
            try:
                agent.recommend(batch, k=10, candidates=candidates)
                return sum(int(c.sum()) for c in ws.row_frontier)
            finally:
                ws.row_frontier = None

        assert frontier_mass(constraint) < frontier_mass(None)


# ----------------------------------------------------------------------
# Cache keying (satellite: cascade identity in explanation-cache keys)
# ----------------------------------------------------------------------
class TestCacheKeying:
    def test_key_separates_cascade_configurations(self):
        base = ((1, 2, 3), 10, None)
        off = ExplanationCache.key(*base, version=3)
        on = ExplanationCache.key(*base, cascade=("neighbors:r20", 50),
                                  version=3)
        retuned = ExplanationCache.key(*base,
                                       cascade=("neighbors:r20", 100),
                                       version=3)
        other = ExplanationCache.key(*base, cascade=("encoder:narm", 50),
                                     version=3)
        assert len({off, on, retuned, other}) == 4

    def test_server_keys_carry_cascade_identity(self, trainer, sessions):
        provider = provider_from_trainer(trainer, "neighbors")
        with trainer.serve(workers=1, metrics=False, cascade=provider,
                           cascade_m=20) as server:
            result = server.recommend_one(sessions[0], k=5)
            assert not result.cached
            assert server.recommend_one(sessions[0], k=5).cached
            suffix, user = server._base_key(sessions[0])
            key = ExplanationCache.key(
                suffix, user_id=user,
                cascade=(provider.provider_id, 20),
                version=server.model_version)
            assert server._cache.get(key).asked == 5
            assert key.cascade == (provider.provider_id, 20)


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestConfig:
    def test_cascade_knob_validation(self, trainer):
        provider = provider_from_trainer(trainer, "neighbors")
        with pytest.raises(ValueError, match="cascade m"):
            trainer.serve(cascade=provider, cascade_m=0)
        with pytest.raises(ValueError, match="capacity"):
            trainer.serve(cascade=provider, cascade_cache_size=-1)

    def test_from_trainer_builds_planner(self, trainer):
        provider = provider_from_trainer(trainer, "neighbors")
        with trainer.serve(cascade=provider, cascade_m=25,
                           metrics=False) as server:
            assert server._cascade is not None
            assert server._cascade_id[1] == 25
            assert server._cascade_id[0].startswith("neighbors:")


# ----------------------------------------------------------------------
# Serving differential: both modes, on and off
# ----------------------------------------------------------------------
class TestServingDifferential:
    def test_cascade_off_matches_trainer_oracle_thread(self, trainer,
                                                       sessions):
        subset = sessions[:12]
        oracle = [r.ranked_items[0]
                  for s in subset
                  for r in trainer.recommend_sessions([s], k=10)]
        with trainer.serve(workers=2, metrics=False) as server:
            got = server.recommend_many(subset, k=10)
        for expect, result in zip(oracle, got):
            assert tuple(int(i) for i in expect[:len(result.items)]) \
                == result.items

    @pytest.mark.parametrize("transport", ["ring"])
    def test_cascade_off_matches_thread_per_transport(self, trainer,
                                                      sessions,
                                                      transport):
        subset = sessions[:8]
        with trainer.serve(workers=1, metrics=False) as server:
            expected = [r.items for r in
                        server.recommend_many(subset, k=8)]
        with trainer.serve(workers=1, metrics=False,
                           worker_mode="process") as server:
            got = [r.items for r in server.recommend_many(subset, k=8)]
        assert got == expected

    @pytest.mark.parametrize("transport", ["ring"])
    def test_cascade_on_identical_across_transports(self, trainer,
                                                    sessions, transport):
        """The candidate section must survive the ring codec: thread
        mode and process mode serve the same constrained rankings."""
        subset = sessions[:8]
        provider = provider_from_trainer(trainer, "neighbors")
        with trainer.serve(workers=1, metrics=False, cache_size=0,
                           cascade=provider, cascade_m=20) as server:
            expected = [r.items for r in
                        server.recommend_many(subset, k=8)]
        with trainer.serve(workers=1, metrics=False, cache_size=0,
                           cascade=provider, cascade_m=20,
                           worker_mode="process") as server:
            got = [r.items for r in server.recommend_many(subset, k=8)]
        assert got == expected

    def test_cascade_counters_and_span(self, trainer, sessions):
        subset = sessions[:6]
        provider = provider_from_trainer(trainer, "neighbors")
        with trainer.serve(workers=1, cache_size=0, cascade=provider,
                           cascade_m=10, trace_sample=1.0) as server:
            server.recommend_many(subset, k=5)
            snap = server.fleet_snapshot()
            spans = server.tracer.drain()
        assert snap.counter("cascade_candidates_total") \
            == 10 * len(subset)
        assert snap.counter("cascade_pruned_frontier_rows_total") > 0
        assert any(s.name == "cascade" for s in spans)


# ----------------------------------------------------------------------
# Accuracy budget
# ----------------------------------------------------------------------
class TestAccuracyBudget:
    def test_best_cascade_point_loses_at_most_two_points_of_hr10(self):
        """HR@10 of the ``neighbors`` cascade vs the unconstrained walk
        on the ``small`` Beauty world, first 128 test sessions: the
        better of M = 10 / 25 may lose at most 0.02.  Deterministic
        (0.648 unconstrained, 0.664 / 0.703 constrained).  Do not
        shrink the world: on ``tiny`` (37 sessions) M = 25 loses 0.027.
        """
        from repro import build_kg
        from repro.data import AmazonLikeGenerator
        from repro.eval.metrics import hit_rate_at_k
        from repro.kg import TransE, TransEConfig

        dataset = AmazonLikeGenerator("beauty", scale="small",
                                      seed=7).generate()
        built = build_kg(dataset)
        transe = TransE(built.kg.num_entities, built.kg.num_relations,
                        TransEConfig(dim=32, epochs=8, seed=13))
        transe.fit(built.kg)
        config = REKSConfig(dim=32, state_dim=32, sample_sizes=(100, 4),
                            action_cap=120, frontier_buckets=4, seed=0)
        trainer = REKSTrainer(dataset, built, model_name="narm",
                              config=config, transe=transe)
        subset = [s for s in dataset.split.test if len(s.items) >= 2][:128]
        targets = [s.items[-1] for s in subset]

        def hr10(**cascade):
            with trainer.serve(cache_size=0, **cascade) as server:
                ranked = [r.items for r
                          in server.recommend_many(subset, k=10)]
            return hit_rate_at_k(ranked, targets, 10)

        provider = provider_from_trainer(trainer, "neighbors")
        unconstrained = hr10()
        best = max(hr10(cascade=provider, cascade_m=m) for m in (10, 25))
        assert unconstrained > 0.5  # non-vacuous: the walk finds targets
        assert unconstrained - best <= 0.02
