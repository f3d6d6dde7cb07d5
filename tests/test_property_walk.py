"""Property test: every walked path is a genuine simple KG walk.

Hypothesis generates small random KGs, session batches, and beam
shapes; every path :meth:`REKSAgent.walk` returns must (a) start at
the session's last item, (b) follow real KG edges hop by hop, (c)
never revisit an entity, and (d) appear in the exhaustive
:func:`enumerate_paths` oracle for its start entity.  Runs the one
walk in both grad modes: under ``no_grad`` (no graph recorded) and on
the autograd tape.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.core.agent import REKSAgent
from repro.core.beam import enumerate_paths
from repro.core.config import REKSConfig
from repro.core.environment import KGEnvironment
from repro.core.policy import PolicyNetwork
from repro.data.loader import SessionBatcher
from repro.data.schema import Session

from test_env_differential import random_built_kg

DIM = 8


def make_agent(built, cfg, seed):
    rng = np.random.default_rng(seed)
    policy = PolicyNetwork(
        session_dim=DIM, kg_dim=DIM, state_dim=DIM,
        entity_table=rng.standard_normal(
            (built.kg.num_entities, DIM)).astype(np.float32),
        relation_table=rng.standard_normal(
            (max(built.kg.num_relations, 1), DIM)).astype(np.float32),
        rng=rng)
    return REKSAgent(encoder=None, policy=policy, env=built_env(built, cfg),
                     rewards=None, config=cfg)


def built_env(built, cfg):
    return KGEnvironment(built, action_cap=cfg.action_cap, seed=cfg.seed)


def oracle_path_set(built, start, length):
    return {(tuple(p.entities), tuple(p.relations))
            for p in enumerate_paths(built, start, length,
                                     max_paths=200_000)}


@settings(max_examples=20, deadline=None)
@given(
    kg_seed=st.integers(0, 10_000),
    path_length=st.integers(1, 3),
    action_cap=st.integers(2, 30),
    stochastic=st.booleans(),
    grad_off=st.booleans(),
)
def test_walk_paths_are_simple_kg_walks(kg_seed, path_length, action_cap,
                                        stochastic, grad_off):
    rng = np.random.default_rng(kg_seed)
    n_items = int(rng.integers(3, 9))
    built = random_built_kg(rng, n_items=n_items,
                            n_other=int(rng.integers(1, 5)),
                            n_relations=int(rng.integers(1, 4)),
                            n_edges=int(rng.integers(5, 60)),
                            dead_ends=int(rng.integers(0, 2)))
    cfg = REKSConfig(dim=DIM, state_dim=DIM, path_length=path_length,
                     sample_sizes=(3,) * path_length,
                     action_cap=action_cap,
                     seed=kg_seed % 17)
    agent = make_agent(built, cfg, seed=kg_seed % 23)

    sessions = [Session(list(rng.integers(1, n_items + 1, size=2)), 0, 0)
                for _ in range(int(rng.integers(1, 5)))]
    batch = next(iter(SessionBatcher(sessions, batch_size=8,
                                     shuffle=False)))
    session_repr = Tensor(rng.standard_normal(
        (batch.batch_size, DIM)).astype(np.float32))
    with no_grad() if grad_off else nullcontext():
        rollout = agent.walk(session_repr, batch, stochastic=stochastic)

    starts = built.entities_of_items(batch.last_items)
    oracles = {}
    for p in range(rollout.num_paths):
        ents = rollout.entities[p].tolist()
        rels = rollout.relations[p].tolist()
        row = int(rollout.session_idx[p])
        # (a) starts at the session's last item
        assert ents[0] == starts[row]
        # (b) every hop is a real KG edge
        for h, r, t in zip(ents[:-1], rels, ents[1:]):
            assert built.kg.has_edge(h, r, t), (h, r, t)
        # (c) simple: no entity repeats
        assert len(set(ents)) == len(ents)
        # (d) cross-check against the exhaustive oracle
        start = ents[0]
        if start not in oracles:
            oracles[start] = oracle_path_set(built, start, len(rels))
        assert (tuple(ents), tuple(rels)) in oracles[start]


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(
    kg_seed=st.integers(0, 10_000),
    path_length=st.integers(1, 4),
    action_cap=st.integers(1, 60),
    stochastic=st.booleans(),
    grad_off=st.booleans(),
)
def test_walk_paths_are_simple_kg_walks_sweep(kg_seed, path_length,
                                              action_cap, stochastic,
                                              grad_off):
    test_walk_paths_are_simple_kg_walks.hypothesis.inner_test(
        kg_seed, path_length, action_cap, stochastic, grad_off)
