"""Unit tests for the composite reward and its ablation modes."""

import numpy as np
import pytest

from repro.core.environment import Rollout
from repro.core.rewards import RewardComputer, RewardWeights


def make_rollout(built, session_idx, path_items):
    """Build a 2-hop rollout whose terminals are the given item ids
    (0 means 'terminate at a non-item entity' — we use a brand)."""
    kg = built.kg
    brand = kg.entity_id("brand", 0)
    entities = []
    for item in path_items:
        start = int(built.item_entity[1])
        mid = brand
        term = int(built.item_entity[item]) if item > 0 else brand
        entities.append([start, mid, term])
    n = len(path_items)
    return Rollout(
        session_idx=np.asarray(session_idx, dtype=np.int64),
        entities=np.asarray(entities, dtype=np.int64),
        relations=np.zeros((n, 2), dtype=np.int64),
        prob=np.full(n, 0.5),
    )


@pytest.fixture(scope="module")
def world(beauty_kg, beauty_transe):
    ent, rel = beauty_transe.embedding_tables()
    return beauty_kg, ent, rel


def make_computer(world, mode="full", gamma=1.0, rank_k=20):
    built, ent, rel = world
    return RewardComputer(built, ent, rel, weights=RewardWeights(),
                          mode=mode, gamma=gamma, rank_k=rank_k)


def dense_scores(built, rows):
    """(B, n+1) score matrix with the listed (row, item, score) triples."""
    n = built.n_items
    out = np.zeros((max(r for r, _, _ in rows) + 1, n + 1))
    for r, item, score in rows:
        out[r, item] = score
    return out


class TestItemReward:
    def test_exact_hit_is_one(self, world):
        built, _, _ = world
        comp = make_computer(world)
        rollout = make_rollout(built, [0], [5])
        targets = np.array([5])
        yhat = dense_scores(built, [(0, 5, 1.0)])
        se = np.zeros((1, 16))
        total, comps = comp.compute(rollout, targets, se, yhat)
        assert comps["item"][0] == pytest.approx(1.0)

    def test_near_miss_uses_similarity(self, world):
        built, ent, _ = world
        comp = make_computer(world)
        rollout = make_rollout(built, [0], [6])
        targets = np.array([5])
        yhat = dense_scores(built, [(0, 6, 1.0)])
        total, comps = comp.compute(rollout, targets, np.zeros((1, 16)), yhat)
        e6 = ent[built.item_entity[6]]
        e5 = ent[built.item_entity[5]]
        expected = 1.0 / (1.0 + np.exp(-(e6 * e5).sum()))
        assert comps["item"][0] == pytest.approx(expected, rel=1e-5)
        assert 0.0 < comps["item"][0] < 1.0

    def test_non_item_terminal_gets_zero(self, world):
        built, _, _ = world
        comp = make_computer(world)
        rollout = make_rollout(built, [0], [0])  # ends at a brand
        total, comps = comp.compute(rollout, np.array([5]),
                                    np.zeros((1, 16)),
                                    dense_scores(built, [(0, 1, 0.1)]))
        assert comps["item"][0] == 0.0
        assert comps["rank"][0] == 0.0


class TestRankReward:
    def test_top_ranked_item_gets_highest(self, world):
        built, _, _ = world
        comp = make_computer(world)
        rollout = make_rollout(built, [0, 0], [5, 6])
        yhat = dense_scores(built, [(0, 5, 0.9), (0, 6, 0.1)])
        _, comps = comp.compute(rollout, np.array([5]),
                                np.zeros((1, 16)), yhat)
        # Item 5 is rank 0 -> 1/log2(2) = 1; item 6 rank 1 -> 1/log2(3).
        assert comps["rank"][0] == pytest.approx(1.0)
        assert comps["rank"][1] == pytest.approx(1.0 / np.log2(3))

    def test_rank_beyond_k_gets_zero(self, world):
        built, _, _ = world
        comp = make_computer(world, rank_k=1)
        rollout = make_rollout(built, [0, 0], [5, 6])
        yhat = dense_scores(built, [(0, 5, 0.9), (0, 6, 0.1)])
        _, comps = comp.compute(rollout, np.array([5]),
                                np.zeros((1, 16)), yhat)
        assert comps["rank"][1] == 0.0


class TestPathReward:
    def test_in_unit_interval(self, world):
        built, _, _ = world
        comp = make_computer(world)
        rollout = make_rollout(built, [0], [5])
        se = np.random.default_rng(0).standard_normal((1, 16))
        _, comps = comp.compute(rollout, np.array([5]), se,
                                dense_scores(built, [(0, 5, 1.0)]))
        assert 0.0 < comps["path"][0] < 1.0

    def test_aligned_session_scores_higher(self, world):
        built, ent, rel = world
        comp = make_computer(world)
        rollout = make_rollout(built, [0], [5])
        # Session representation aligned with the path's mean embedding.
        mean = (ent[rollout.entities[0]].sum(axis=0)
                + rel[rollout.relations[0]].sum(axis=0)) / 5.0
        _, aligned = comp.compute(rollout, np.array([5]), mean[None, :] * 10,
                                  dense_scores(built, [(0, 5, 1.0)]))
        _, opposed = comp.compute(rollout, np.array([5]), -mean[None, :] * 10,
                                  dense_scores(built, [(0, 5, 1.0)]))
        assert aligned["path"][0] > opposed["path"][0]


class TestModesAndDiscount:
    def test_r1_mode_binary(self, world):
        built, _, _ = world
        comp = make_computer(world, mode="r1")
        rollout = make_rollout(built, [0, 0], [5, 6])
        total, comps = comp.compute(rollout, np.array([5]),
                                    np.zeros((1, 16)),
                                    dense_scores(built, [(0, 5, 1.0)]))
        np.testing.assert_allclose(total, [1.0, 0.0])

    def test_item_only_mode(self, world):
        built, _, _ = world
        comp = make_computer(world, mode="item_only")
        rollout = make_rollout(built, [0], [5])
        total, comps = comp.compute(rollout, np.array([5]),
                                    np.zeros((1, 16)),
                                    dense_scores(built, [(0, 5, 1.0)]))
        assert total[0] == pytest.approx(comps["item"][0])
        assert comps["rank"][0] == 0.0 and comps["path"][0] == 0.0

    def test_no_rank_mode(self, world):
        built, _, _ = world
        comp = make_computer(world, mode="no_rank")
        rollout = make_rollout(built, [0], [5])
        total, comps = comp.compute(rollout, np.array([5]),
                                    np.zeros((1, 16)),
                                    dense_scores(built, [(0, 5, 1.0)]))
        assert comps["rank"][0] == 0.0
        assert total[0] == pytest.approx(comps["item"][0] + comps["path"][0])

    def test_full_mode_weighting(self, world):
        built, _, _ = world
        comp = make_computer(world, mode="full")
        rollout = make_rollout(built, [0], [5])
        total, comps = comp.compute(rollout, np.array([5]),
                                    np.zeros((1, 16)),
                                    dense_scores(built, [(0, 5, 1.0)]))
        expected = (comps["item"][0] + 2.0 * comps["rank"][0]
                    + comps["path"][0])
        assert total[0] == pytest.approx(expected)

    def test_discount_applied(self, world):
        built, _, _ = world
        gamma = 0.5
        comp = make_computer(world, mode="r1", gamma=gamma)
        rollout = make_rollout(built, [0], [5])  # 2 hops -> gamma^1
        total, _ = comp.compute(rollout, np.array([5]),
                                np.zeros((1, 16)),
                                dense_scores(built, [(0, 5, 1.0)]))
        assert total[0] == pytest.approx(gamma)


class TestSigmoid:
    def test_extremes_do_not_warn(self):
        """exp(-x) overflows for very negative x; the sigmoid still
        returns its exact limits, silently, with unchanged bits."""
        import warnings

        from repro.core.rewards import _sigmoid

        x = np.array([-1000.0, 0.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(x)
        assert got.tolist() == [0.0, 0.5, 1.0]
        for dtype in (np.float32, np.float64):
            mid = np.linspace(-30, 30, 61, dtype=dtype)
            with np.errstate(over="raise"):
                assert _sigmoid(mid).tobytes() == (
                    1.0 / (1.0 + np.exp(-mid))).tobytes()
