"""Shared machinery for the per-table/per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper's
evaluation section and writes the rows/series to
``benchmarks/results/<name>.txt`` (pytest captures stdout, so the files
are the canonical output; they are also printed for ``-s`` runs).

Scale is controlled by the ``REKS_BENCH_SCALE`` environment variable:

* ``smoke`` (default): tiny synthetic datasets, 3 seeds, ~3 epochs —
  minutes on a laptop; reproduces the *shape* of every result.
* ``small``: small datasets, 5 seeds (the paper's run count), more
  epochs — an hour-ish.
* ``paper``: paper-magnitude datasets; only for the patient.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    REKSConfig,
    REKSTrainer,
    StandaloneConfig,
    StandaloneTrainer,
    build_kg,
    create_encoder,
)
from repro.data import AmazonLikeGenerator, MovieLensLikeGenerator
from repro.data.stats import format_table
from repro.kg import TransE, TransEConfig

RESULTS_DIR = Path(__file__).parent / "results"

AMAZON_FLAVORS = ("beauty", "cellphones", "baby")
ALL_DATASETS = AMAZON_FLAVORS + ("movielens",)
MODELS = ("gru4rec", "narm", "srgnn", "gcsan", "bert4rec")


@dataclass
class BenchScale:
    """Knobs derived from REKS_BENCH_SCALE.

    ``final_beam`` widens the *last* hop of every REKS sampling-size
    tuple at reduced scale: the paper's {100, 1} assumes paper-scale
    fan-out (hundreds of outgoing edges per item), while tiny KGs have
    ~10-60, so the candidate pool would collapse to the out-degree of
    the last item.  Widening the final hop keeps the effective beam
    (number of candidate items per session) comparable to the paper's.
    Applied uniformly to every variant, so ablation comparisons stay
    internally fair; at ``paper`` scale it is 1 (exactly Table VII).
    """

    name: str
    data_scale: str
    seeds: Tuple[int, ...]
    reks_epochs: int
    base_epochs: int
    dim: int
    action_cap: int
    batch_size: int
    final_beam: int


_SCALES = {
    "smoke": BenchScale("smoke", "tiny", (0, 1, 2), 4, 4, 16, 60, 64, 8),
    "small": BenchScale("small", "small", (0, 1, 2, 3, 4), 6, 8, 32, 120,
                        128, 4),
    "paper": BenchScale("paper", "medium", (0, 1, 2, 3, 4), 10, 10, 64, 250,
                        128, 1),
}


def bench_scale() -> BenchScale:
    name = os.environ.get("REKS_BENCH_SCALE", "smoke").lower()
    if name not in _SCALES:
        raise ValueError(
            f"REKS_BENCH_SCALE={name!r} unknown; use {sorted(_SCALES)}")
    return _SCALES[name]


# ----------------------------------------------------------------------
# Cached worlds (dataset + KG + TransE), keyed by flavor.
# ----------------------------------------------------------------------
@dataclass
class World:
    dataset: object
    built: object
    transe: TransE
    built_no_users: object = None


_WORLDS: Dict[Tuple[str, str, int], World] = {}


def get_world(flavor: str, dim: Optional[int] = None,
              include_no_user: bool = False) -> World:
    scale = bench_scale()
    dim = dim or scale.dim
    key = (flavor, scale.data_scale, dim)
    if key not in _WORLDS:
        if flavor == "movielens":
            dataset = MovieLensLikeGenerator(scale=scale.data_scale,
                                             seed=11).generate()
        else:
            dataset = AmazonLikeGenerator(flavor, scale=scale.data_scale,
                                          seed=7).generate()
        built = build_kg(dataset)
        transe = TransE(built.kg.num_entities, built.kg.num_relations,
                        TransEConfig(dim=dim, epochs=8, seed=13))
        transe.fit(built.kg)
        _WORLDS[key] = World(dataset=dataset, built=built, transe=transe)
    world = _WORLDS[key]
    if include_no_user and world.built_no_users is None \
            and flavor != "movielens":
        world.built_no_users = build_kg(world.dataset, include_users=False)
    return world


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_baseline(world: World, model: str, seed: int,
                 ks=(5, 10, 20)) -> Dict[str, float]:
    """Train + evaluate one standalone (non-explainable) model."""
    scale = bench_scale()
    item_init = world.transe.item_embeddings(world.built.item_entity)
    encoder = create_encoder(model, n_items=world.dataset.n_items,
                             dim=item_init.shape[1], item_init=item_init,
                             rng=np.random.default_rng(seed))
    trainer = StandaloneTrainer(
        encoder, world.dataset.split.train, world.dataset.split.validation,
        StandaloneConfig(epochs=scale.base_epochs, lr=2e-3,
                         batch_size=scale.batch_size, patience=2, seed=seed))
    trainer.fit()
    return trainer.evaluate(world.dataset.split.test, ks=ks)


def run_reks(world: World, model: str, seed: int, ks=(5, 10, 20),
             config: Optional[REKSConfig] = None, built=None,
             return_trainer: bool = False):
    """Train + evaluate one REKS-wrapped model."""
    scale = bench_scale()
    built = built or world.built
    if config is None:
        config = REKSConfig()
    dim = world.transe.config.dim
    sizes = tuple(config.sample_sizes[:-1]) + (
        max(config.sample_sizes[-1], scale.final_beam),)
    cfg = REKSConfig(**{**config.__dict__,
                        "dim": dim, "state_dim": dim,
                        "sample_sizes": sizes,
                        "epochs": scale.reks_epochs,
                        "batch_size": scale.batch_size,
                        "action_cap": scale.action_cap,
                        "patience": 2, "seed": seed})
    transe = world.transe if built is world.built else None
    trainer = REKSTrainer(world.dataset, built, model_name=model,
                          config=cfg, transe=transe)
    trainer.fit()
    metrics = trainer.evaluate(world.dataset.split.test, ks=ks)
    if return_trainer:
        return metrics, trainer
    return metrics


def average_runs(runs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    keys = runs[0].keys()
    return {k: float(np.mean([r[k] for r in runs])) for k in keys}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path


def table(rows, headers) -> str:
    return format_table(rows, headers=headers)
