"""Micro-benchmarks of the substrate layers (throughput tracking).

Unlike the table/figure benches (one-shot protocol runs), these use
pytest-benchmark's repeated measurement to track the hot paths:
autograd backward, GRU step, transformer layer, KG action-space
queries, TransE epochs, the row scatter-add, and one full REKS train
step.  Useful when optimizing the numpy kernels.
"""

import numpy as np
import pytest

from common import get_world
from repro import REKSConfig, REKSTrainer, nn  # noqa: F401
from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.core.environment import KGEnvironment
from repro.data.loader import SessionBatcher
from repro.kg import TransE, TransEConfig
from repro.nn.rnn import GRU
from repro.nn.transformer import TransformerEncoderLayer


def test_micro_autograd_mlp_backward(benchmark):
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.standard_normal((128, 256)).astype(np.float32),
                requires_grad=True)
    w2 = Tensor(rng.standard_normal((256, 64)).astype(np.float32),
                requires_grad=True)
    x = Tensor(rng.standard_normal((64, 128)).astype(np.float32))

    def step():
        w1.grad = None
        w2.grad = None
        loss = F.softmax(x.matmul(w1).relu().matmul(w2)).sum()
        loss.backward()
        return float(loss.item())

    result = benchmark(step)
    assert np.isfinite(result)


def test_micro_gru_forward(benchmark):
    rng = np.random.default_rng(0)
    gru = GRU(64, 64, rng=rng)
    x = Tensor(rng.standard_normal((64, 8, 64)).astype(np.float32))

    outputs, final = benchmark(lambda: gru(x))
    assert final.shape == (64, 64)


def test_micro_transformer_layer(benchmark):
    rng = np.random.default_rng(0)
    layer = TransformerEncoderLayer(64, 2, dropout=0.0, rng=rng)
    layer.eval()
    x = Tensor(rng.standard_normal((32, 10, 64)).astype(np.float32))

    out = benchmark(lambda: layer(x))
    assert out.shape == (32, 10, 64)


def test_micro_kg_batched_actions(benchmark):
    world = get_world("beauty")
    env = KGEnvironment(world.built, action_cap=100, seed=0)
    rng = np.random.default_rng(0)
    start, count = world.built.kg.type_range("product")
    entities = rng.integers(start, start + count, size=512)
    visited = entities[:, None]

    rels, tails, mask = benchmark(
        lambda: env.batched_actions(entities, visited))
    assert rels.shape[0] == 512


def test_micro_transe_epoch(benchmark):
    world = get_world("beauty")
    heads, rels, tails = world.built.kg.triples()
    model = TransE(world.built.kg.num_entities,
                   world.built.kg.num_relations,
                   TransEConfig(dim=32, epochs=1, seed=0))

    benchmark(lambda: model.fit_triples(heads, rels, tails))


# (rows, dim, updates): a TransE batch's entity scatter on the harness
# world (11,640 entities, dim 64, four roles x 2,048 triples), and the
# entity-table backward of ``embedding_sum`` at hop 1 of a ``small``
# Beauty REKS step (3,850 entities, dim 32, 27,970 action cells).
ROW_SCATTER_SHAPES = {"transe_batch": (11_640, 64, 4 * 2048),
                      "embedding_sum_small": (3_850, 32, 27_970)}


@pytest.mark.parametrize("kernel", ["np_add_at", "add_at"])
@pytest.mark.parametrize("shape", sorted(ROW_SCATTER_SHAPES))
def test_micro_row_scatter(benchmark, shape, kernel):
    rows, dim, updates = ROW_SCATTER_SHAPES[shape]
    rng = np.random.default_rng(0)
    target = np.zeros((rows, dim), dtype=np.float32)
    index = rng.integers(0, rows, size=updates)
    values = rng.standard_normal((updates, dim)).astype(np.float32)
    scatter = np.add.at if kernel == "np_add_at" else F.add_at

    benchmark(lambda: scatter(target, index, values))


def test_micro_reks_train_step(benchmark):
    world = get_world("beauty")
    cfg = REKSConfig(dim=world.transe.config.dim,
                     state_dim=world.transe.config.dim,
                     epochs=1, batch_size=64, action_cap=60, seed=0)
    trainer = REKSTrainer(world.dataset, world.built, model_name="gru4rec",
                          config=cfg, transe=world.transe)
    batch = next(iter(SessionBatcher(world.dataset.split.train,
                                     batch_size=64, shuffle=False)))

    def step():
        trainer.optimizer.zero_grad()
        loss, stats = trainer.agent.losses(batch)
        loss.backward()
        trainer.optimizer.step()
        return stats.loss

    result = benchmark(step)
    assert np.isfinite(result)
