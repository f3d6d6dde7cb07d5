"""Differential tests for the array-native inference walk.

Every walk hop takes the frontier's legal actions as ``(row_of, rels,
tails)`` cells from ``KGEnvironment.flat_actions``, scores them in the
one policy forward, ``PolicyNetwork.step``, and keeps each row's best
with ``segment_top_k`` — no padded grid, no degree buckets.  Under
``no_grad`` that forward records no graph, and ``_best_paths`` returns
an array-backed :class:`PathTable` instead of a dict of
``SemanticPath`` objects.  Each piece is pinned here against a
reference — ``batched_actions``' grid, the same ``step`` in grad mode
on the same cells, a per-row sort, the same ``walk`` in grad mode and
the dict builder kept frozen in ``helpers.reference_best_paths`` — on
Hypothesis-generated KGs, frontiers and rollouts.

Grad mode only decides whether the ops record a graph, never what
they compute, so action sets, selections, log-probs, path sets,
scores and rankings must all agree exactly.  The generated tables are
scaled like trained TransE embeddings (logits of order one).
Examples are derandomized so a near-tie failure is a reproducible
one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.kg.paths as paths_mod
from helpers import reference_best_paths
from reference_env import ReferenceKGEnvironment
from repro import REKSConfig, REKSTrainer
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.cascade.planner import build_constraint
from repro.core.agent import REKSAgent, _top_k, segment_top_k
from repro.core.environment import KGEnvironment, Rollout
from repro.core.policy import PolicyNetwork
from repro.data.loader import SessionBatcher
from repro.data.schema import Session
from repro.kg.paths import PathTable, SemanticPath

from test_env_differential import (grid_cells, random_built_kg,
                                   random_frontier)

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
    # Zero-initialised biases let a ReLU-dead row project to exactly
    # zero: every action of the row then ties, and which one each
    # forward keeps turns on its last-digit rounding.  Random biases
    # rule that out.
    for layer in (policy.state_mlp.fc0, policy.state_mlp.fc1):
        layer.bias.data[:] = 0.1 * rng.standard_normal(layer.bias.shape)
    policy.eval()
    return policy


def both_steps(policy, session_repr, entities, prev, row_of, rels, tails):
    """(no_grad, grad mode) log-probs of one hop's legal cells from the
    one ``step``, same cells."""
    with no_grad():
        flat = policy.step(session_repr, entities, prev, row_of, rels,
                           tails)
    tape = policy.step(session_repr, entities, prev, row_of, rels, tails)
    assert tape.requires_grad and not flat.requires_grad
    return flat.data, tape.data


def assert_log_probs_agree(flat, tape):
    assert flat.shape == tape.shape and flat.dtype == tape.dtype
    np.testing.assert_array_equal(flat, tape)


def picked(expanded):
    """One hop's kept actions as (row, rel, tail) triples plus their
    log-probs, in the order the hop lists them."""
    if expanded is None:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0)
    rows, rels, tails, logp = expanded
    logp = np.asarray(getattr(logp, "data", logp))
    return np.column_stack([rows, rels, tails]).astype(np.int64), logp


# ----------------------------------------------------------------------
# Flat frontier vs the padded grid
# ----------------------------------------------------------------------
class CountingMetrics:
    def __init__(self):
        self.counters = {}

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), action_cap=st.integers(1, 30),
       staged=st.booleans(), visited_width=st.integers(1, 3))
def test_flat_actions_are_the_grids_legal_cells(seed, action_cap, staged,
                                                visited_width):
    """Same cells, same per-row order: base edges, then staged ones,
    visited tails gone, dead-end rows absent."""
    rng = np.random.default_rng(seed)
    built, env = random_world(rng, action_cap, staged)
    n = int(rng.integers(1, 40))
    entities, visited = random_frontier(rng, built, n, visited_width)
    metrics = CountingMetrics()
    row_of, rels, tails = env.flat_actions(entities, visited,
                                           metrics=metrics)
    grids = [env.batched_actions(entities, visited)]
    if not staged:  # the loop-based oracle knows no overlay
        grids.append(ReferenceKGEnvironment(built, action_cap=action_cap,
                                            seed=0).batched_actions(
                                                entities, visited))
    for grid in grids:
        want = grid_cells(*grid)
        np.testing.assert_array_equal(row_of, want[0])
        np.testing.assert_array_equal(rels, want[1])
        np.testing.assert_array_equal(tails, want[2])
    # One gather call over all n rows.
    assert metrics.counters == {"gather_calls_total": 1,
                                "gather_rows_total": n}


def test_flat_actions_of_an_empty_or_dead_end_frontier():
    rng = np.random.default_rng(2)
    built, env = random_world(rng, action_cap=5, staged=False)
    none = np.zeros(0, dtype=np.int64)
    for entities in (none, np.array([built.kg.num_entities - 1])):
        if len(entities):  # make the row a dead end whatever its edges
            visited = np.concatenate(
                [entities, env.actions_of(int(entities[0]))[1]])[None, :]
        else:
            visited = np.zeros((0, 1), dtype=np.int64)
        row_of, rels, tails = env.flat_actions(entities, visited)
        assert len(row_of) == len(rels) == len(tails) == 0


# ----------------------------------------------------------------------
# The policy step under no_grad vs in grad mode
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from([4, 8, 16]),
       action_cap=st.integers(1, 30), with_prev=st.booleans(),
       staged=st.booleans())
def test_flat_step_matches_tape_forward(seed, dim, action_cap,
                                        with_prev, staged):
    rng = np.random.default_rng(seed)
    built, env = random_world(rng, action_cap, staged)
    policy = random_policy(rng, built, dim)
    n = int(rng.integers(1, 40))
    entities, visited = random_frontier(rng, built, n, 2)
    row_of, rels, tails = env.flat_actions(entities, visited)
    session_repr = Tensor(rng.standard_normal((n, dim)).astype(np.float32))
    prev = (rng.integers(0, built.kg.num_relations, size=n)
            if with_prev else None)
    flat, tape = both_steps(policy, session_repr, entities, prev,
                            row_of, rels, tails)
    assert_log_probs_agree(flat, tape)

    # One whole hop in either grad mode keeps the same actions, in the
    # same order, with the same log-probs, with and without a cascade
    # mask — including rows whose only legal actions the cascade
    # disallows (dropped before the policy pass; every other row still
    # normalizes over all of its legal actions).
    agent = REKSAgent(encoder=None, policy=policy, env=env, rewards=None,
                      config=REKSConfig(dim=dim, state_dim=dim))
    allowed = rng.random((n, built.kg.num_entities)) < 0.6
    allowed[rng.random(n) < 0.3] = False
    sess_idx = np.arange(n)
    widest = int(np.bincount(row_of, minlength=1).max())
    for k in (1, 3, widest + 1):
        for hop_allowed in (None, allowed):
            args = (session_repr, sess_idx, visited, prev, k, False,
                    hop_allowed, None)
            with no_grad():
                got, got_logp = picked(agent._expand(*args))
            want, want_logp = picked(agent._expand(*args))
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_logp, want_logp)


@pytest.mark.parametrize("mask", [
    np.zeros((3, 4), dtype=bool),                 # every row a dead end
    np.array([[True], [False], [True]]),          # width-1 grid
    np.array([[False, True, False, True]]),       # one row, holes
])
def test_flat_step_degenerate_frontiers(mask):
    rng = np.random.default_rng(3)
    built, _ = random_world(rng, action_cap=5, staged=False)
    policy = random_policy(rng, built, 8)
    n = mask.shape[0]
    n_ent, n_rel = built.kg.num_entities, built.kg.num_relations
    rels = np.where(mask, rng.integers(0, n_rel, size=mask.shape), 0)
    tails = np.where(mask, rng.integers(0, n_ent, size=mask.shape), 0)
    session_repr = Tensor(rng.standard_normal((n, 8)).astype(np.float32))
    flat, tape = both_steps(policy, session_repr,
                            rng.integers(0, n_ent, size=n), None,
                            *grid_cells(rels.astype(np.int32),
                                        tails.astype(np.int32), mask))
    assert len(flat) == mask.sum()
    assert_log_probs_agree(flat, tape)
    # A row's log-probs normalize over its own cells only.
    rows = np.nonzero(mask)[0]
    np.testing.assert_allclose(
        np.bincount(rows, weights=np.exp(flat), minlength=n)[mask.any(1)],
        1.0, rtol=1e-6)


def test_flat_step_keeps_the_index_range_check():
    rng = np.random.default_rng(5)
    built, _ = random_world(rng, action_cap=5, staged=False)
    policy = random_policy(rng, built, 8)
    n_ent, n_rel = built.kg.num_entities, built.kg.num_relations
    session_repr = Tensor(np.zeros((2, 8), dtype=np.float32))
    good = dict(entities=np.array([0, 1]), relations=np.array([0, 0]),
                row_of=np.array([0, 0, 1, 1]),
                rels=np.zeros(4, dtype=np.int32),
                tails=np.ones(4, dtype=np.int32))
    with no_grad():  # the baseline is accepted in either grad mode
        flat = policy.step(session_repr, **good)
    assert_log_probs_agree(flat.data, policy.step(session_repr,
                                                  **good).data)
    for field, value in (("entities", n_ent), ("entities", -1),
                         ("relations", n_rel), ("relations", -1),
                         ("tails", n_ent), ("tails", -1),
                         ("rels", n_rel), ("rels", -1)):
        broken = dict(good)
        broken[field] = good[field].copy()
        broken[field][-1] = value
        with pytest.raises(IndexError):
            policy.step(session_repr, **broken)
        with no_grad(), pytest.raises(IndexError):
            policy.step(session_repr, **broken)


# ----------------------------------------------------------------------
# Segment top-k vs a per-row sort
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
       width=st.integers(1, 9), restricted=st.booleans())
def test_segment_top_k_matches_select(seed, n, width, restricted):
    """Each row keeps the cells of its ``k`` highest scores — checked
    against sorting every row of a (masked) grid on its own."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, width)) < 0.7
    # A permutation: tie-free, so each row's top-k has one answer.
    logp = rng.permutation(n * width).reshape(n, width).astype(np.float32)
    if restricted:
        mask &= rng.random((n, width)) < 0.6
    rows, cols = np.nonzero(mask)
    for k in (1, 2, width, width + 3):
        kept = segment_top_k(logp[rows, cols], rows, k)
        assert (np.diff(kept) > 0).all()  # ascending cell indices
        want = {(row, int(col)) for row in range(n)
                for col in np.flatnonzero(mask[row])[
                    np.argsort(-logp[row, mask[row]])[:k]]}
        assert set(zip(rows[kept].tolist(), cols[kept].tolist())) == want


def test_segment_top_k_takes_the_lowest_index_on_exact_ties():
    row_of = np.array([0, 0, 0, 0, 2, 2, 2, 5])
    scores = np.array([1.0, 3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 7.0])
    assert segment_top_k(scores, row_of, 1).tolist() == [1, 4, 7]
    assert segment_top_k(scores, row_of, 2).tolist() == [1, 2, 4, 5, 7]
    assert segment_top_k(scores, row_of, 3).tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert segment_top_k(scores, row_of, 4).tolist() == list(range(8))
    none = np.zeros(0)
    assert segment_top_k(none, none.astype(np.int64), 2).tolist() == []


# ----------------------------------------------------------------------
# The whole inference walk vs the same walk in grad mode
# ----------------------------------------------------------------------
def path_rows(rollout):
    """The rollout's paths sorted by (row, entities, relations), and
    the order that sorts them."""
    keys = np.column_stack([rollout.session_idx, rollout.entities,
                            rollout.relations]).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    return keys[order], order


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), path_length=st.integers(1, 3),
       action_cap=st.integers(2, 30), constrained=st.booleans(),
       staged=st.booleans())
def test_inference_walk_matches_tape_walk(seed, path_length, action_cap,
                                          constrained, staged):
    dim = 8
    rng = np.random.default_rng(seed)
    built, env = random_world(rng, action_cap, staged)
    cfg = REKSConfig(dim=dim, state_dim=dim, path_length=path_length,
                     sample_sizes=(4,) + (2,) * (path_length - 1),
                     action_cap=action_cap)
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

    # Same paths in the same order, with the same probabilities: one
    # forward, one expander, whatever the grad mode.
    fast_paths, _ = path_rows(fast)
    tape_paths, _ = path_rows(tape)
    np.testing.assert_array_equal(fast_paths, tape_paths)
    for field in ("session_idx", "entities", "relations", "prob"):
        np.testing.assert_array_equal(getattr(fast, field),
                                      getattr(tape, field))
    if fast.num_paths:  # a dead-end rollout has no log-probs
        np.testing.assert_array_equal(fast.log_prob.data,
                                      tape.log_prob.data)
        np.testing.assert_array_equal(
            fast.prob, np.exp(fast.log_prob.data.astype(float)))
    fast_scores = agent.aggregate_scores_numpy(fast, rows)
    tape_scores = agent.aggregate_scores_numpy(tape, rows)
    np.testing.assert_array_equal(fast_scores, tape_scores)
    for k in (1, 3, n_items):
        np.testing.assert_array_equal(_top_k(fast_scores, k),
                                      _top_k(tape_scores, k))


def test_walk_is_flat_only_without_grad_and_dropout(monkeypatch):
    """One expander and one forward, ``step``, run every hop in every
    mode.  Under ``no_grad`` the walk leaves no graph behind, live
    dropout or not; grad mode records a tape, with dropout live or
    not."""
    rng = np.random.default_rng(9)
    built, env = random_world(rng, action_cap=8, staged=False)
    policy = random_policy(rng, built, 8)
    agent = REKSAgent(encoder=None, policy=policy, env=env, rewards=None,
                      config=REKSConfig(dim=8, state_dim=8,
                                        sample_sizes=(3, 1)))
    batch = next(iter(SessionBatcher([Session([1, 2], 0, 0)], batch_size=8,
                                     shuffle=False)))
    session_repr = Tensor(rng.standard_normal((1, 8)).astype(np.float32))
    used = []

    def record(owner, name):
        inner = getattr(owner, name)
        monkeypatch.setattr(
            owner, name,
            lambda *args: used.append(name) or inner(*args))

    record(agent, "_expand")
    record(policy, "step")

    def taped():
        """Whether the walk's summed log-probs carry a graph."""
        used.clear()
        log_prob = agent.walk(session_repr, batch).log_prob
        assert used.count("_expand") >= 1
        assert set(used) == {"_expand", "step"}
        if log_prob._prev == () and log_prob._backward is None:
            assert not log_prob.requires_grad
            return False
        assert log_prob.requires_grad and log_prob._prev
        return True

    assert taped()                                # grad mode
    with no_grad():
        assert not taped()
        policy.drop.p = 0.5                       # eval mode: inactive
        assert not taped()
        policy.train()                            # dropout is live
        assert not taped()
    assert taped()                                # grad mode, live dropout
    policy.drop.p = 0.0
    policy.eval()
    assert taped()


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
        assert table.get((row, item)) == path
        assert table.blob(row, item) == (path.entities, path.relations,
                                         path.prob)
        assert table.take(row, [item]) == [table.blob(row, item)]
    stride = built.n_items + 1
    for row in range(rows):
        for item in range(-1, stride + 1):
            if (row, item) not in want:
                assert (row, item) not in table
                assert table.get((row, item)) is None
                assert table.blob(row, item) is None
                assert table.take(row, [item]) == [None]
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
    assert table.get((0, 1)) is None and table.take(0, [1]) == [None]


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
    assert rec.paths.blob(row, item) is not None and built == []
    path = rec.paths[(row, item)]
    assert built == [path]
    assert built[0].entities[-1] == beauty_kg.entities_of_items(
        np.array([item]))[0]
