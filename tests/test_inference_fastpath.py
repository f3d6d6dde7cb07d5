"""Differential tests for the array-native inference walk.

Under ``no_grad`` two parts of :meth:`REKSAgent.recommend` leave the
autograd wrappers: ``PolicyNetwork.step`` embeds and scores only the
legal cells of a frontier's action grid, and ``_best_paths`` returns an
array-backed :class:`PathTable` instead of a dict of ``SemanticPath``
objects.  Each is pinned here against what it replaced — the tape
forward (the same ``step`` in grad mode) and the dict builder kept
frozen in ``helpers.reference_best_paths`` — on Hypothesis-generated
KGs, frontiers and rollouts.

Selections, rollouts and rankings must agree exactly.  Log-probs and
scores agree to the repo's one documented float tolerance, rtol 1e-6
(the legal cells' dot products are summed in a different order); for
log-probs the same figure is also the absolute floor, since a relative
bound means nothing for a log-prob near zero.  The generated tables
are scaled like trained TransE embeddings (logits of order one).
Examples are derandomized so a tolerance or near-tie failure is a
reproducible one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.kg.paths as paths_mod
from helpers import reference_best_paths
from repro import REKSConfig, REKSTrainer
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.cascade.planner import build_constraint
from repro.core.agent import REKSAgent, _top_k
from repro.core.environment import KGEnvironment, Rollout
from repro.core.policy import PolicyNetwork
from repro.data.loader import SessionBatcher
from repro.data.schema import Session
from repro.kg.paths import PathTable, SemanticPath

from test_env_differential import random_built_kg, random_frontier

TABLE_SCALE = 0.2


def random_world(rng, action_cap, staged):
    built = random_built_kg(rng, n_items=int(rng.integers(3, 12)),
                            n_other=int(rng.integers(1, 6)),
                            n_relations=int(rng.integers(1, 4)),
                            n_edges=int(rng.integers(5, 120)),
                            dead_ends=int(rng.integers(0, 3)))
    env = KGEnvironment(built, action_cap=action_cap, seed=0)
    if staged:  # overlay-widened rows
        n_ent, n_rel = built.kg.num_entities, built.kg.num_relations
        env.stage_edges(rng.integers(0, n_ent, size=6),
                        rng.integers(0, n_rel, size=6),
                        rng.integers(0, n_ent, size=6))
    return built, env


def random_policy(rng, built, dim):
    policy = PolicyNetwork(
        session_dim=dim, kg_dim=dim, state_dim=dim,
        entity_table=(TABLE_SCALE * rng.standard_normal(
            (built.kg.num_entities, dim))).astype(np.float32),
        relation_table=(TABLE_SCALE * rng.standard_normal(
            (built.kg.num_relations, dim))).astype(np.float32),
        rng=rng)
    policy.eval()
    return policy


def both_steps(policy, *args):
    """(ragged, tape) log-prob grids of one hop."""
    with no_grad():
        fast = policy.step(*args)
    tape = policy.step(*args)  # grad mode: the tape forward
    return fast.data, tape.data


def assert_grids_agree(fast, tape, mask):
    assert fast.shape == tape.shape and fast.dtype == tape.dtype
    # Padded cells (and the uniform rows of an all-False mask) never
    # see a dot product, so they are equal to the bit.
    np.testing.assert_array_equal(fast[~mask], tape[~mask])
    np.testing.assert_allclose(fast, tape, rtol=1e-6, atol=1e-6)


# ----------------------------------------------------------------------
# Ragged policy step vs the tape forward
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([4, 8, 16]),
       action_cap=st.integers(1, 30), with_prev=st.booleans(),
       staged=st.booleans())
def test_ragged_step_matches_tape_forward(seed, dim, action_cap,
                                          with_prev, staged):
    rng = np.random.default_rng(seed)
    built, env = random_world(rng, action_cap, staged)
    policy = random_policy(rng, built, dim)
    n = int(rng.integers(1, 40))
    entities, visited = random_frontier(rng, built, n, 2)
    rels, tails, mask = env.batched_actions(entities, visited)
    session_repr = Tensor(rng.standard_normal((n, dim)).astype(np.float32))
    prev = (rng.integers(0, built.kg.num_relations, size=n)
            if with_prev else None)
    fast, tape = both_steps(policy, session_repr, entities, prev,
                            rels, tails, mask)
    assert_grids_agree(fast, tape, mask)

    # What the walk keeps is decided by _select: same cells either way,
    # with and without a cascade `allowed` mask.
    agent = REKSAgent(encoder=None, policy=policy, env=env, rewards=None,
                      config=REKSConfig(dim=dim, state_dim=dim))
    allowed = rng.random(mask.shape) < 0.6
    for k in (1, 3, mask.shape[1] + 1):
        for restrict in (None, allowed):
            got = agent._select(fast, mask, k, False, allowed=restrict)
            want = agent._select(tape, mask, k, False, allowed=restrict)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("mask", [
    np.zeros((3, 4), dtype=bool),                 # every row a dead end
    np.array([[True], [False], [True]]),          # width-1 grid
    np.array([[False, True, False, True]]),       # one row, holes
])
def test_ragged_step_degenerate_grids(mask):
    rng = np.random.default_rng(3)
    built, _ = random_world(rng, action_cap=5, staged=False)
    policy = random_policy(rng, built, 8)
    n, width = mask.shape
    n_ent, n_rel = built.kg.num_entities, built.kg.num_relations
    rels = np.where(mask, rng.integers(0, n_rel, size=mask.shape), 0)
    tails = np.where(mask, rng.integers(0, n_ent, size=mask.shape), 0)
    session_repr = Tensor(rng.standard_normal((n, 8)).astype(np.float32))
    fast, tape = both_steps(policy, session_repr,
                            rng.integers(0, n_ent, size=n), None,
                            rels.astype(np.int32), tails.astype(np.int32),
                            mask)
    assert_grids_agree(fast, tape, mask)
    empty = ~mask.any(axis=1)
    np.testing.assert_allclose(fast[empty], -np.log(width), rtol=1e-6)


def test_ragged_step_keeps_the_index_range_check():
    rng = np.random.default_rng(5)
    built, _ = random_world(rng, action_cap=5, staged=False)
    policy = random_policy(rng, built, 8)
    n_ent, n_rel = built.kg.num_entities, built.kg.num_relations
    session_repr = Tensor(np.zeros((2, 8), dtype=np.float32))
    good = dict(entities=np.array([0, 1]), relations=np.array([0, 0]),
                rels=np.zeros((2, 2), dtype=np.int32),
                tails=np.ones((2, 2), dtype=np.int32),
                mask=np.ones((2, 2), dtype=bool))
    with no_grad():
        policy.step(session_repr, **good)  # the baseline is accepted
        for field, value in (("entities", n_ent), ("entities", -1),
                             ("relations", n_rel), ("relations", -1)):
            broken = dict(good)
            broken[field] = np.array([0, value])
            with pytest.raises(IndexError):
                policy.step(session_repr, **broken)
        for field, value in (("tails", n_ent), ("tails", -1),
                             ("rels", n_rel), ("rels", -1)):
            broken = dict(good)
            grid = good[field].copy()
            grid[1, 1] = value
            broken[field] = grid
            with pytest.raises(IndexError):
                policy.step(session_repr, **broken)


# ----------------------------------------------------------------------
# The whole inference walk vs the walk on the tape forward
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), path_length=st.integers(1, 3),
       frontier_buckets=st.integers(1, 3), action_cap=st.integers(2, 30),
       constrained=st.booleans(), staged=st.booleans())
def test_inference_walk_matches_tape_walk(seed, path_length,
                                          frontier_buckets, action_cap,
                                          constrained, staged):
    dim = 8
    rng = np.random.default_rng(seed)
    built, env = random_world(rng, action_cap, staged)
    cfg = REKSConfig(dim=dim, state_dim=dim, path_length=path_length,
                     sample_sizes=(4,) + (2,) * (path_length - 1),
                     action_cap=action_cap,
                     frontier_buckets=frontier_buckets)
    agent = REKSAgent(encoder=None, policy=random_policy(rng, built, dim),
                      env=env, rewards=None, config=cfg)
    n_items = built.n_items
    sessions = [Session(list(rng.integers(1, n_items + 1, size=2)), 0, 0)
                for _ in range(int(rng.integers(1, 6)))]
    batch = next(iter(SessionBatcher(sessions, batch_size=8,
                                     shuffle=False)))
    rows = batch.batch_size
    session_repr = Tensor(rng.standard_normal(
        (rows, dim)).astype(np.float32))
    constraint = None
    if constrained:  # the cascade's per-row `allowed` masks
        constraint = build_constraint(
            agent, [rng.choice(np.arange(1, n_items + 1),
                               size=int(rng.integers(1, n_items + 1)),
                               replace=False) for _ in range(rows)],
            path_length)

    with no_grad():
        fast = agent.walk(session_repr, batch, candidates=constraint)
    tape = agent.walk(session_repr, batch, candidates=constraint)

    np.testing.assert_array_equal(fast.session_idx, tape.session_idx)
    np.testing.assert_array_equal(fast.entities, tape.entities)
    np.testing.assert_array_equal(fast.relations, tape.relations)
    np.testing.assert_allclose(fast.prob, tape.prob, rtol=1e-6)
    fast_scores = agent.aggregate_scores_numpy(fast, rows)
    tape_scores = agent.aggregate_scores_numpy(tape, rows)
    np.testing.assert_allclose(fast_scores, tape_scores, rtol=1e-6)
    for k in (1, 3, n_items):
        np.testing.assert_array_equal(_top_k(fast_scores, k),
                                      _top_k(tape_scores, k))


# ----------------------------------------------------------------------
# PathTable vs the frozen dict builder
# ----------------------------------------------------------------------
def random_rollout(rng, built, rows, paths, hops):
    """A hand-built rollout with many (row, item) collisions and exact
    probability ties (three distinct values over all paths)."""
    n_ent = built.kg.num_entities
    return Rollout(
        session_idx=rng.integers(0, rows, size=paths),
        entities=rng.integers(0, n_ent, size=(paths, hops + 1)),
        relations=rng.integers(0, built.kg.num_relations,
                               size=(paths, hops)),
        prob=rng.choice([0.125, 0.25, 0.5], size=paths))


def table_of(built, rollout):
    return PathTable(rollout.session_idx,
                     built.items_of_entities(rollout.terminals),
                     rollout.entities, rollout.relations, rollout.prob,
                     built.n_items)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6),
       paths=st.integers(0, 80), hops=st.integers(1, 3))
def test_path_table_matches_reference_dict(seed, rows, paths, hops):
    rng = np.random.default_rng(seed)
    built = random_built_kg(rng, n_items=int(rng.integers(2, 8)),
                            n_other=int(rng.integers(1, 5)),
                            n_relations=2, n_edges=10)
    rollout = random_rollout(rng, built, rows, paths, hops)
    want = reference_best_paths(built, rollout)
    table = table_of(built, rollout)

    assert set(table) == set(want)          # non-item terminals skipped
    assert len(table) == len(want)
    assert list(table) == sorted(want)      # (row, item) order
    assert table == want and dict(table.items()) == want  # tie winners
    for (row, item), path in want.items():
        assert (row, item) in table
        assert table[(row, item)] == path
        assert table.row(row).get(item) == path
        assert table.row(row).blob(item) == (path.entities,
                                             path.relations, path.prob)
        assert table.blob(row, item) == table.row(row).blob(item)
    stride = built.n_items + 1
    for row in range(rows):
        for item in range(-1, stride + 1):
            if (row, item) not in want:
                assert (row, item) not in table
                assert table.get((row, item)) is None
                assert table.row(row).get(item) is None
                assert table.row(row).blob(item) is None
                with pytest.raises(KeyError):
                    table[(row, item)]
    # A key must not alias its neighbour row's slot.
    for row, item in want:
        assert (row - 1, item + stride) not in table
        assert (row + 1, item - stride) not in table


def test_dead_end_rollout_is_an_empty_mapping():
    rng = np.random.default_rng(0)
    built = random_built_kg(rng, n_items=4, n_other=2, n_relations=2,
                            n_edges=10)
    rollout = Rollout(session_idx=np.zeros(0, dtype=np.int64),
                      entities=np.zeros((0, 3), dtype=np.int64),
                      relations=np.zeros((0, 2), dtype=np.int64),
                      prob=np.zeros(0))
    table = table_of(built, rollout)
    assert table == {}
    assert len(table) == 0 and list(table) == []
    assert table.get((0, 1)) is None and table.row(0).get(1) is None


def test_recommend_builds_no_semantic_path_until_lookup(
        monkeypatch, beauty_tiny, beauty_kg, beauty_transe):
    built = []

    def counting(*args, **kwargs):
        path = SemanticPath(*args, **kwargs)
        built.append(path)
        return path

    monkeypatch.setattr(paths_mod, "SemanticPath", counting)
    trainer = REKSTrainer(
        beauty_tiny, beauty_kg, model_name="narm",
        config=REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                          seed=0),
        transe=beauty_transe)
    sessions = [s for s in beauty_tiny.split.test if len(s.items) >= 2][:8]
    rec = trainer.recommend_sessions(sessions, k=5)[0]
    assert len(rec.paths) > 0
    assert built == []
    (row, item) = next(iter(rec.paths))
    assert (row, item) in rec.paths and built == []
    assert rec.paths.row(row).blob(item) is not None and built == []
    path = rec.paths[(row, item)]
    assert built == [path]
    assert built[0].entities[-1] == beauty_kg.entities_of_items(
        np.array([item]))[0]
