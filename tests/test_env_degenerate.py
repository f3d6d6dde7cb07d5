"""Regression tests for degenerate frontiers.

Zero-degree (dead-end) entities, all-dead-end batches, empty batches,
and visited-masking that kills every action of a row must all produce
well-formed ``(N, A)`` shapes — never raise — and a walk over a
dead-end frontier must return an empty but shape-consistent rollout.
"""

import numpy as np
import pytest

from repro.core.environment import KGEnvironment
from repro.kg.builder import BuiltKG
from repro.kg.graph import KnowledgeGraph

from test_env_differential import random_built_kg


@pytest.fixture(scope="module")
def built():
    return random_built_kg(np.random.default_rng(0), n_edges=200,
                           dead_ends=4)


@pytest.fixture(scope="module")
def env(built):
    return KGEnvironment(built, action_cap=50, seed=0)


def _dead_entities(built, count):
    start = built.kg.num_entities - count
    return np.arange(start, built.kg.num_entities, dtype=np.int64)


class TestDegenerateFrontiers:
    def test_zero_degree_entity_in_batch(self, env, built):
        dead = _dead_entities(built, 4)[:1]
        live = np.array([0], dtype=np.int64)  # hub-ish head
        entities = np.concatenate([live, dead])
        visited = entities[:, None]
        rels, tails, mask = env.batched_actions(entities, visited)
        assert rels.shape == tails.shape == mask.shape
        assert rels.shape[0] == 2
        assert not mask[1].any()          # dead row: nothing legal
        assert (rels[1] == 0).all() and (tails[1] == 0).all()

    def test_all_dead_end_batch(self, env, built):
        entities = _dead_entities(built, 4)
        rels, tails, mask = env.batched_actions(entities,
                                                entities[:, None])
        assert rels.shape == (4, 1)       # width floors at 1
        assert not mask.any()
        assert (rels == 0).all() and (tails == 0).all()

    def test_empty_batch(self, env):
        entities = np.zeros(0, dtype=np.int64)
        visited = np.zeros((0, 2), dtype=np.int64)
        rels, tails, mask = env.batched_actions(entities, visited)
        assert rels.shape == tails.shape == mask.shape == (0, 1)

    def test_empty_batch_with_workspace(self, env):
        entities = np.zeros(0, dtype=np.int64)
        visited = np.zeros((0, 3), dtype=np.int64)
        rels, tails, mask = env.batched_actions(entities, visited)
        assert rels.shape == (0, 1)
        assert not mask.any()
        row_of, rels, tails = env.flat_actions(entities, visited)
        assert len(row_of) == len(rels) == len(tails) == 0

    def test_visited_kills_every_action_of_a_row(self, env, built):
        entity = 0
        _, tails = env.actions_of(entity)
        assert len(tails) > 0
        neighborhood = np.unique(np.concatenate([[entity], tails]))
        visited = np.tile(neighborhood, (1, 1))
        rels, batch_tails, mask = env.batched_actions(
            np.array([entity]), visited)
        assert rels.shape[0] == 1
        assert not mask[0].any()

    def test_edgeless_kg(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("product", 3)
        kg.add_relation("r0")
        kg.finalize()
        item_entity = np.array([-1, 0, 1, 2], dtype=np.int64)
        entity_item = np.array([1, 2, 3], dtype=np.int64)
        built = BuiltKG(kg=kg, item_entity=item_entity,
                        entity_item=entity_item, user_entity=None,
                        include_users=False)
        env = KGEnvironment(built, action_cap=10, seed=0)
        entities = np.array([0, 1, 2], dtype=np.int64)
        rels, tails, mask = env.batched_actions(entities,
                                                entities[:, None])
        assert rels.shape == (3, 1)
        assert not mask.any()
        assert env.degree(0) == 0
        got_r, got_t = env.actions_of(1)
        assert len(got_r) == len(got_t) == 0


class TestDeadEndWalk:
    def test_walk_over_dead_frontier_is_empty_and_consistent(self):
        """A batch whose start entities have no edges yields an empty
        rollout with matching first dimensions, not a crash."""
        from repro.autograd import no_grad
        from repro.autograd.tensor import Tensor
        from repro.core.agent import REKSAgent
        from repro.core.config import REKSConfig
        from repro.core.policy import PolicyNetwork
        from repro.data.loader import SessionBatcher
        from repro.data.schema import Session

        rng = np.random.default_rng(3)
        # Items 1..3 are entities 0..2 with no outgoing edges at all.
        kg = KnowledgeGraph()
        kg.add_entity_type("product", 3)
        kg.add_entity_type("attribute", 2)
        r0 = kg.add_relation("r0")
        kg.add_triples([3], r0, [4])  # only attribute->attribute edges
        kg.finalize()
        item_entity = np.array([-1, 0, 1, 2], dtype=np.int64)
        entity_item = np.zeros(kg.num_entities, dtype=np.int64)
        entity_item[:3] = [1, 2, 3]
        built = BuiltKG(kg=kg, item_entity=item_entity,
                        entity_item=entity_item, user_entity=None,
                        include_users=False)
        env = KGEnvironment(built, action_cap=10, seed=0)
        dim = 8
        policy = PolicyNetwork(
            session_dim=dim, kg_dim=dim, state_dim=dim,
            entity_table=rng.standard_normal(
                (kg.num_entities, dim)).astype(np.float32),
            relation_table=rng.standard_normal(
                (kg.num_relations, dim)).astype(np.float32),
            rng=rng)
        cfg = REKSConfig(dim=dim, state_dim=dim, path_length=2,
                         sample_sizes=(4, 2), action_cap=10)
        agent = REKSAgent(encoder=None, policy=policy, env=env,
                          rewards=None, config=cfg)
        sessions = [Session([1, 2], 0, 0), Session([2, 3], 0, 0)]
        batch = next(iter(SessionBatcher(sessions, batch_size=4,
                                         shuffle=False)))
        session_repr = Tensor(
            rng.standard_normal((batch.batch_size, dim)).astype(np.float32))
        with no_grad():
            rollout = agent.walk(session_repr, batch)
        assert rollout.num_paths == 0
        assert rollout.entities.shape[0] == 0
        assert rollout.relations.shape[0] == 0
        assert rollout.prob.shape == (0,)
