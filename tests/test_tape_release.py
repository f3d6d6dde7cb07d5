"""Backward consumes the autograd graph.

Every backward closure captures the node it belongs to, so a graph kept
whole after backward is a reference cycle per node: only the cyclic
collector frees it, and until it runs the whole tape — activations,
intermediate gradients — stays resident (and is inherited by every
process forked meanwhile).  Backward therefore drops each node's
closure, parents and gradient as soon as it has run.  These checks run
with the cyclic collector disabled, so anything that still depends on
it shows up as a live weakref or as a ``Tensor`` in ``gc.garbage``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.autograd import Tensor
from repro.autograd.functional import (
    concat,
    segment_dot,
    segment_log_softmax,
)
from repro.data.loader import SessionBatcher
from repro.online import CheckpointRegistry, DeltaIngestor, OnlineUpdater


@pytest.fixture()
def no_collector():
    """Clear what earlier tests left, then keep the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def collector_tensors():
    """Tensors that only the cyclic collector could free right now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [obj for obj in gc.garbage if isinstance(obj, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def non_leaves(root: Tensor):
    found, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.append(node)
        stack.extend(node._prev)
    return found


def mixed_graph(rng):
    """A scalar over matmul, segment_dot, segment_log_softmax and
    concat, with the leaves it was built from."""
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    y = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    row_of = np.array([0, 0, 1, 2, 2, 3])
    h = x @ w
    logp = segment_log_softmax(segment_dot(h, y, row_of), row_of)
    loss = concat([logp, (h * 2.0).sum(axis=1)]).sum()
    return loss, (x, w, y)


@pytest.fixture()
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        batch_size=16, seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


class TestGraphRelease:
    def test_non_leaves_die_with_the_root(self, no_collector):
        loss, leaves = mixed_graph(np.random.default_rng(0))
        refs = [weakref.ref(node) for node in non_leaves(loss)]
        assert len(refs) >= 6
        loss.backward()
        del loss
        assert [r for r in refs if r() is not None] == []
        assert all(leaf.grad is not None for leaf in leaves)

    def test_non_leaf_grad_is_not_kept(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        hidden = a * 3.0
        (hidden * 2.0).sum().backward()
        assert hidden.grad is None
        np.testing.assert_array_equal(a.grad, [6.0, 6.0])

    def test_a_training_step_leaves_no_cyclic_garbage(
            self, trainer, beauty_tiny, no_collector):
        batch = next(iter(SessionBatcher(beauty_tiny.split.train,
                                         batch_size=16, shuffle=False)))
        trainer.agent.train()
        trainer.optimizer.zero_grad()
        loss, stats = trainer.agent.losses(batch)
        loss.backward()
        trainer.optimizer.step()
        del loss, stats
        assert collector_tensors() == []

    def test_an_online_round_leaves_no_cyclic_garbage(
            self, trainer, beauty_tiny, tmp_path, no_collector):
        ingestor = DeltaIngestor(trainer.built, trainer.env)
        updater = OnlineUpdater(trainer, ingestor,
                                CheckpointRegistry(tmp_path / "registry"),
                                max_steps=2)
        ingestor.ingest_sessions([s for s in beauty_tiny.split.validation
                                  if len(s.items) >= 2][:8])
        assert updater.run_once(force=True) == 1
        assert updater.registry.manifest(1)["meta"]["steps"] >= 1
        assert collector_tensors() == []


class TestSecondBackward:
    def test_same_root_twice_raises(self):
        a = Tensor(1.0, requires_grad=True)
        loss = ((a * 3.0) * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="graph already freed"):
            loss.backward()
        assert float(a.grad) == 6.0

    def test_losses_sharing_a_subgraph_raise(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        shared = a * 3.0
        first = (shared * 2.0).sum()
        second = (shared * 5.0).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="graph already freed"):
            second.backward()

    def test_a_fresh_graph_accumulates(self):
        a = Tensor(1.0, requires_grad=True)
        for _ in range(2):
            ((a * 3.0) * 2.0).sum().backward()
        assert float(a.grad) == 12.0
