"""Behavioral tests of the RL machinery on a minimal two-armed KG.

A hand-built world where the last session item has exactly two 2-hop
paths: one reaching the ground-truth target, one reaching a decoy.
Training must shift policy probability toward the rewarded arm — the
most direct check that REINFORCE-with-baseline, the ŷ aggregation, and
the loss wiring are all pulling in the same direction — plus a
finite-difference check of the policy gradient ``losses`` builds.
"""

import numpy as np
import pytest

from repro.autograd import Adam, Tensor, no_grad
from repro.core import REKSConfig
from repro.core.agent import REKSAgent, segment_top_k
from repro.core.environment import KGEnvironment
from repro.core.policy import PolicyNetwork
from repro.core.rewards import RewardComputer, RewardWeights
from repro.data.loader import SessionBatcher
from repro.data.schema import Session
from repro.kg.builder import BuiltKG
from repro.kg.graph import KnowledgeGraph
from repro.models import create_encoder


def two_armed_world():
    """Items 1..3; item 1 reaches item 2 via hub A and item 3 via hub B.

    Path arms:  item1 -> hubA -> item2   (the target arm)
                item1 -> hubB -> item3   (the decoy arm)
    """
    kg = KnowledgeGraph()
    kg.add_entity_type("product", 3)
    kg.add_entity_type("category", 2)
    rel = kg.add_relation("belong_to")
    p1, p2, p3 = 0, 1, 2
    hub_a = kg.entity_id("category", 0)
    hub_b = kg.entity_id("category", 1)
    kg.add_triples([p1, hub_a, p2, hub_a], rel, [hub_a, p1, hub_a, p2])
    kg.add_triples([p1, hub_b, p3, hub_b], rel, [hub_b, p1, hub_b, p3])
    kg.finalize()

    item_entity = np.array([-1, p1, p2, p3], dtype=np.int64)
    entity_item = np.zeros(kg.num_entities, dtype=np.int64)
    entity_item[[p1, p2, p3]] = [1, 2, 3]
    return BuiltKG(kg=kg, item_entity=item_entity, entity_item=entity_item,
                   user_entity=None, include_users=False)


@pytest.fixture()
def world():
    built = two_armed_world()
    rng = np.random.default_rng(0)
    dim = 8
    entity_table = rng.standard_normal(
        (built.kg.num_entities, dim)).astype(np.float32)
    relation_table = rng.standard_normal(
        (built.kg.num_relations, dim)).astype(np.float32)
    encoder = create_encoder("gru4rec", n_items=3, dim=dim, rng=rng)
    policy = PolicyNetwork(dim, dim, dim, entity_table, relation_table,
                           rng=rng)
    env = KGEnvironment(built, action_cap=10, seed=0)
    rewards = RewardComputer(built, entity_table, relation_table,
                             weights=RewardWeights(), mode="full",
                             gamma=1.0)
    cfg = REKSConfig(dim=dim, state_dim=dim, sample_sizes=(2, 1),
                     gamma=1.0, beta=0.5, seed=0)
    agent = REKSAgent(encoder, policy, env, rewards, cfg)
    return built, agent


def target_probability(agent, batch, target_item):
    with no_grad():
        se = agent.encoder.encode(batch)
        rollout = agent.walk(se, batch)
        scores = agent.aggregate_scores_numpy(rollout, batch.batch_size)
    total = scores[0].sum()
    return scores[0, target_item] / total if total > 0 else 0.0


class TestPolicyLearnsRewardedArm:
    def test_probability_of_target_arm_increases(self, world):
        built, agent = world
        # Session [1] with target 2: only the hubA arm is rewarded.
        sessions = [Session([1, 2], 0, 0)]
        batch = next(iter(SessionBatcher(sessions, batch_size=1,
                                         shuffle=False)))
        before = target_probability(agent, batch, target_item=2)

        optimizer = Adam(agent.parameters(), lr=5e-3)
        agent.train()
        for _ in range(60):
            optimizer.zero_grad()
            loss, _ = agent.losses(batch)
            loss.backward()
            optimizer.step()

        after = target_probability(agent, batch, target_item=2)
        assert after > before
        assert after > 0.8, f"target arm only reached p={after:.3f}"

    def test_decoy_arm_suppressed(self, world):
        built, agent = world
        sessions = [Session([1, 2], 0, 0)]
        batch = next(iter(SessionBatcher(sessions, batch_size=1,
                                         shuffle=False)))
        optimizer = Adam(agent.parameters(), lr=5e-3)
        agent.train()
        for _ in range(60):
            optimizer.zero_grad()
            loss, _ = agent.losses(batch)
            loss.backward()
            optimizer.step()
        decoy = target_probability(agent, batch, target_item=3)
        assert decoy < 0.2

    def test_item_reward_prefers_target_path(self, world):
        """The *item-level* reward (Eq. 6) must strictly prefer the arm
        ending at the target.  (The composite reward need not, at
        initialization: the rank term can transiently favor whichever
        arm the untrained policy happens to rank first.)"""
        built, agent = world
        sessions = [Session([1, 2], 0, 0)]
        batch = next(iter(SessionBatcher(sessions, batch_size=1,
                                         shuffle=False)))
        with no_grad():
            se = agent.encoder.encode(batch)
            rollout = agent.walk(se, batch)
        yhat = agent.aggregate_scores_numpy(rollout, 1)
        _, components = agent.rewards.compute(rollout, batch.targets,
                                              se.data, yhat)
        items = built.items_of_entities(rollout.terminals)
        target_item_reward = components["item"][items == 2]
        decoy_item_reward = components["item"][items == 3]
        assert len(target_item_reward) and len(decoy_item_reward)
        assert target_item_reward.max() == pytest.approx(1.0)
        assert decoy_item_reward.max() < 1.0


def one_hop(agent, k, stochastic=False, hop_allowed=None):
    """One walk hop from item 1 (both arms' first edge) for one row."""
    with no_grad():
        return agent._expand(Tensor(np.zeros((1, 8), dtype=np.float32)),
                             np.array([0]), np.array([[0]]), None, k,
                             stochastic, hop_allowed, None)


class TestSelectionMechanics:
    def test_top_k_selects_highest(self, world):
        row_of = np.array([0, 0, 0, 1, 1, 1])
        logp = np.log(np.array([0.7, 0.2, 0.1, 0.1, 0.3, 0.6]))
        assert segment_top_k(logp, row_of, 1).tolist() == [0, 5]
        assert segment_top_k(logp, row_of, 2).tolist() == [0, 1, 4, 5]

    def test_invalid_never_selected(self, world):
        """A cell the cascade disallows is never kept, even when ``k``
        exceeds the row's cells."""
        built, agent = world
        hub_b = built.kg.entity_id("category", 1)
        allowed = np.ones((1, built.kg.num_entities), dtype=bool)
        allowed[0, hub_b] = False
        rows, rels, tails, _ = one_hop(agent, k=4, hop_allowed=allowed)
        assert tails.tolist() == [built.kg.entity_id("category", 0)]

    def test_gumbel_sampling_varies(self, world, monkeypatch):
        _, agent = world

        def uniform(*args):          # step's signature, flat logits
            return Tensor(np.full(len(args[3]), np.log(0.5),
                                  dtype=np.float32))

        monkeypatch.setattr(agent.policy, "step", uniform)
        picks = set()
        for _ in range(20):
            _, _, tails, _ = one_hop(agent, k=1, stochastic=True)
            picks.add(int(tails[0]))
        assert len(picks) > 1  # uniform logits + gumbel -> variety

    def test_empty_mask_returns_nothing(self, world):
        built, agent = world
        none = np.zeros(0)
        assert segment_top_k(none, none.astype(np.int64), 2).tolist() == []
        nothing = np.zeros((1, built.kg.num_entities), dtype=bool)
        assert one_hop(agent, k=2, hop_allowed=nothing) is None


class TestPolicyGradient:
    def test_losses_gradient_matches_central_differences(self,
                                                         monkeypatch):
        """The surrogate loss ``β·Lr + Lce`` that ``losses`` builds on
        the tape differentiates correctly w.r.t. every policy
        parameter: autograd against central differences of the loss
        itself, on a toy KG with dropout 0.  The rewards and baseline
        are constants of the policy parameters (the rank term is
        piecewise constant), so the two agree exactly as long as every
        probe walks the same cells — asserted too.  Hop 0 keeps 3 of
        up to 10 actions and hop 1 keeps 2, so top-k cuts are inside
        the check."""
        from helpers import numerical_gradient
        from test_env_differential import random_built_kg

        rng = np.random.default_rng(4)
        built = random_built_kg(rng, n_items=6, n_other=3, n_relations=2,
                                n_edges=50)
        dim = 8
        entity_table = (0.5 * rng.standard_normal(
            (built.kg.num_entities, dim))).astype(np.float32)
        relation_table = (0.5 * rng.standard_normal(
            (built.kg.num_relations, dim))).astype(np.float32)
        policy = PolicyNetwork(dim, dim, dim, entity_table, relation_table,
                               rng=rng)
        agent = REKSAgent(
            create_encoder("gru4rec", n_items=6, dim=dim, rng=rng,
                           dropout=0.0),
            policy, KGEnvironment(built, action_cap=10, seed=0),
            RewardComputer(built, entity_table, relation_table,
                           weights=RewardWeights(), mode="full"),
            REKSConfig(dim=dim, state_dim=dim, sample_sizes=(3, 2),
                       dropout=0.0, beta=0.5, seed=0))
        agent.eval()  # no dropout anywhere; grad mode keeps the tape
        params = [p for p in policy.parameters() if p.requires_grad]
        for p in params:  # float64 leaves room for the differences
            p.data = p.data.astype(np.float64)
        sessions = [Session(list(rng.integers(1, 7, size=3)), 0, 0)
                    for _ in range(4)]
        batch = next(iter(SessionBatcher(sessions, batch_size=4,
                                         shuffle=False)))

        walks = []
        walk = agent.walk
        monkeypatch.setattr(agent, "walk", lambda *args, **kwargs:
                            walks.append(walk(*args, **kwargs))
                            or walks[-1])

        def loss():
            return agent.losses(batch)[0]

        loss().backward()
        assert walks[0].num_paths > len(sessions)
        for p in params:
            numeric = numerical_gradient(loss, p, eps=1e-6)
            np.testing.assert_allclose(p.grad, numeric, rtol=1e-4,
                                       atol=1e-7)
        assert any(np.abs(p.grad).sum() > 0 for p in params)
        for probe in walks[1:]:
            for field in ("session_idx", "entities", "relations"):
                np.testing.assert_array_equal(getattr(probe, field),
                                              getattr(walks[0], field))
