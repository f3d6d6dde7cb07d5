"""Unit tests for the KG environment (action spaces, starts, capping)."""

import numpy as np
import pytest

from repro.core.environment import KGEnvironment
from repro.data.loader import SessionBatcher
from repro.data.schema import Session


@pytest.fixture(scope="module")
def env(beauty_kg):
    return KGEnvironment(beauty_kg, action_cap=50, seed=0)


class TestActionSpaces:
    def test_actions_match_graph_neighbors(self, env, beauty_kg):
        entity = int(beauty_kg.item_entity[1])
        rels, tails = env.actions_of(entity)
        kg_rels, kg_tails = beauty_kg.kg.neighbors(entity)
        kg_pairs = set(zip(kg_rels.tolist(), kg_tails.tolist()))
        assert set(zip(rels.tolist(), tails.tolist())) <= kg_pairs

    def test_cap_enforced(self, beauty_kg):
        env = KGEnvironment(beauty_kg, action_cap=5, seed=0)
        degrees = [env.degree(e) for e in range(beauty_kg.kg.num_entities)]
        assert max(degrees) <= 5

    def test_batched_shapes(self, env, beauty_kg):
        entities = beauty_kg.item_entity[np.array([1, 2, 3])]
        visited = entities[:, None]
        rels, tails, mask = env.batched_actions(entities, visited)
        assert rels.shape == tails.shape == mask.shape
        assert rels.shape[0] == 3

    def test_padded_rows_masked(self, env, beauty_kg):
        entities = beauty_kg.item_entity[np.array([1, 2])]
        visited = entities[:, None]
        _, tails, mask = env.batched_actions(entities, visited)
        for i, entity in enumerate(entities):
            deg = env.degree(int(entity))
            assert not mask[i, deg:].any()

    def test_visited_entities_excluded(self, env, beauty_kg):
        entity = int(beauty_kg.item_entity[1])
        _, tails = env.actions_of(entity)
        first_neighbor = int(tails[0])
        visited = np.array([[entity, first_neighbor]])
        _, batch_tails, mask = env.batched_actions(
            np.array([entity]), visited)
        forbidden = (batch_tails[0] == first_neighbor) & mask[0]
        assert not forbidden.any()

    def test_self_never_in_actions(self, env, beauty_kg):
        entity = int(beauty_kg.item_entity[3])
        visited = np.array([[entity]])
        _, tails, mask = env.batched_actions(np.array([entity]), visited)
        assert not ((tails[0] == entity) & mask[0]).any()

    def test_serving_batch_dedup_memo_matches_plain_rows(self, env,
                                                         beauty_kg):
        """A duplicate-rich micro-batch (the coalesced-serving shape:
        few distinct popular start entities repeated across 32-256
        rows) must produce row-for-row the same actions as one-row
        frontiers of the same entities."""
        distinct = beauty_kg.item_entity[np.array([1, 2, 3, 4])]
        # 64 rows over 4 distinct entities: far below the 2x-entities
        # pigeonhole bound, so only the micro-batch memo dedups this.
        entities = np.tile(distinct, 16)
        visited = entities[:, None]
        rels, tails, mask = env.batched_actions(entities, visited)
        for row in range(0, len(entities), 7):
            one_rels, one_tails, one_mask = env.batched_actions(
                entities[row:row + 1], visited[row:row + 1])
            got = set(zip(rels[row][mask[row]].tolist(),
                          tails[row][mask[row]].tolist()))
            want = set(zip(one_rels[0][one_mask[0]].tolist(),
                           one_tails[0][one_mask[0]].tolist()))
            assert got == want


class TestStartEntities:
    def _batch(self, sessions):
        return next(iter(SessionBatcher(sessions, batch_size=8,
                                        shuffle=False)))

    def test_last_item_start(self, env, beauty_kg):
        batch = self._batch([Session([1, 2, 3], 0, 0)])
        start = env.start_entities(batch, "last_item")
        assert start[0] == beauty_kg.item_entity[2]

    def test_user_start(self, env, beauty_kg):
        batch = self._batch([Session([1, 2, 3], 4, 0)])
        start = env.start_entities(batch, "user")
        assert start[0] == beauty_kg.user_entity[4]

    def test_user_start_without_users_raises(self, beauty_kg_no_users):
        env = KGEnvironment(beauty_kg_no_users, action_cap=10, seed=0)
        batch = self._batch([Session([1, 2], 0, 0)])
        with pytest.raises(ValueError):
            env.start_entities(batch, "user")

    def test_unknown_start_raises(self, env):
        batch = self._batch([Session([1, 2], 0, 0)])
        with pytest.raises(ValueError):
            env.start_entities(batch, "nowhere")
