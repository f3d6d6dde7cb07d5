"""Unit tests for the policy network."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.policy import PolicyNetwork


@pytest.fixture()
def policy(rng):
    entity_table = rng.standard_normal((20, 8)).astype(np.float32)
    relation_table = rng.standard_normal((4, 8)).astype(np.float32)
    return PolicyNetwork(session_dim=8, kg_dim=8, state_dim=8,
                         entity_table=entity_table,
                         relation_table=relation_table,
                         rng=np.random.default_rng(0))


class TestStateFeaturizer:
    def test_state_shape(self, policy, rng):
        se = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
        sp = policy.path_context(np.array([1, 2, 3]), None)
        st = policy.state(se, sp)
        assert st.shape == (3, 8)

    def test_path_context_adds_relation(self, policy):
        without = policy.path_context(np.array([5]), None).data
        with_rel = policy.path_context(np.array([5]), np.array([2])).data
        expected = without + policy.relation_emb.weight.data[2]
        np.testing.assert_allclose(with_rel, expected, rtol=1e-6)


class TestActionScoring:
    def test_log_probs_normalize_over_valid(self, policy, rng):
        se = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
        # Row 0 has three legal actions, row 1 five: flat cells.
        row_of = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        rels = np.zeros(8, dtype=np.int64)
        tails = np.array([0, 1, 2, 0, 1, 2, 3, 4])
        logp = policy.step(se, np.array([1, 2]), None, row_of, rels, tails)
        assert logp.shape == (8,)
        probs = np.exp(logp.data)
        np.testing.assert_allclose(np.bincount(row_of, weights=probs),
                                   np.ones(2), rtol=1e-4)

    def test_invalid_actions_get_negligible_mass(self, policy, rng):
        """A row's illegal actions have no cell, so its legal cells
        carry all of its mass — a row's distribution ignores its
        neighbours' cells."""
        se = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
        row_of = np.array([0, 0, 1])
        rels = np.zeros(3, dtype=np.int64)
        tails = np.array([0, 2, 1])
        logp = policy.step(se, np.array([0, 3]), None, row_of, rels, tails)
        probs = np.exp(logp.data)
        assert probs[:2].sum() == pytest.approx(1.0, rel=1e-5)
        assert probs[2] == pytest.approx(1.0, rel=1e-6)

    def test_gradients_flow_to_state_mlp(self, policy, rng):
        se = Tensor(rng.standard_normal((2, 8)).astype(np.float32),
                    requires_grad=True)
        row_of = np.array([0, 0, 0, 1, 1, 1])
        rels = np.zeros(6, dtype=np.int64)
        tails = np.tile(np.arange(3), 2)
        weights = Tensor(rng.standard_normal(6).astype(np.float32))
        logp = policy.step(se, np.array([0, 1]), None, row_of, rels, tails)
        (logp * weights).sum().backward()
        assert se.grad is not None and np.abs(se.grad).sum() > 0
        assert policy.w1.weight.grad is not None

    def test_kg_embeddings_frozen_by_default(self, policy, rng):
        se = Tensor(rng.standard_normal((1, 8)).astype(np.float32))
        logp = policy.step(se, np.array([0]), None, np.zeros(3, np.int64),
                           np.zeros(3, dtype=np.int64), np.arange(3))
        logp.sum().backward()
        assert policy.entity_emb.weight.grad is None
        assert not policy.entity_emb.weight.requires_grad

    def test_finetune_flag_enables_kg_grads(self, rng):
        policy = PolicyNetwork(
            session_dim=4, kg_dim=4, state_dim=4,
            entity_table=rng.standard_normal((10, 4)).astype(np.float32),
            relation_table=rng.standard_normal((2, 4)).astype(np.float32),
            finetune=True, rng=np.random.default_rng(0))
        se = Tensor(rng.standard_normal((1, 4)).astype(np.float32))
        logp = policy.step(se, np.array([0]), None, np.zeros(2, np.int64),
                           np.zeros(2, dtype=np.int64), np.arange(2))
        logp.sum().backward()
        assert policy.entity_emb.weight.grad is not None
