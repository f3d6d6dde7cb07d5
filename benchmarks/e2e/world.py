"""The world every workload runs on, and what building it costs.

One dataset, one KG, one TransE fit and one REKS training pass — all
seeds fixed, so every run of every workload serves the same model over
the same graph.  ``setup_s`` is the wall time of :func:`build_world`;
its three parts are reported as per-layer metrics so a slowdown in
``data``/``kg`` (world), ``kg.transe`` or ``autograd``/``nn``/
``core.trainer`` (the training pass) is attributable.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Tuple

import numpy as np

from repro import AmazonLikeGenerator, REKSConfig, REKSTrainer, build_kg
from repro.kg import TransE, TransEConfig

from benchmarks.e2e import BLAS_THREAD_VARS

# (data scale, training sessions, validation sessions).  The full world
# is the `medium` graph (699 items, 11.6k entities); the training pass
# covers a fixed slice of the split so that three set-ups fit in one
# run — serving cost depends on the graph and the model's shape, not on
# how converged the policy is.
SIZES = {
    "full": ("medium", 128, 32),
    "smoke": ("tiny", 64, 16),
}
SETUP_REPEATS = 3


@dataclass
class World:
    dataset: object
    built: object
    trainer: REKSTrainer
    parts: Dict[str, float]  # world_s / transe_s / fit_epoch_s

    @property
    def agent(self):
        return self.trainer.agent

    @property
    def env(self):
        return self.trainer.env


def build_world(size: str = "full") -> World:
    scale, n_train, n_val = SIZES[size]
    t0 = perf_counter()
    dataset = AmazonLikeGenerator("beauty", scale=scale, seed=7).generate()
    built = build_kg(dataset)
    t1 = perf_counter()
    transe = TransE(built.kg.num_entities, built.kg.num_relations,
                    TransEConfig(dim=64, epochs=8, seed=13))
    transe.fit(built.kg)
    t2 = perf_counter()
    config = REKSConfig(dim=64, state_dim=64, sample_sizes=(100, 1),
                        action_cap=250, frontier_buckets=4, batch_size=128,
                        epochs=1, seed=0)
    trainer = REKSTrainer(dataset, built, model_name="narm", config=config,
                          transe=transe)
    trainer.fit(dataset.split.train[:n_train],
                dataset.split.validation[:n_val])
    t3 = perf_counter()
    return World(dataset, built, trainer,
                 {"world_s": t1 - t0, "transe_s": t2 - t1,
                  "fit_epoch_s": t3 - t2})


def setup(size: str, speed) -> Tuple[World, Dict[str, float]]:
    """Build the world ``SETUP_REPEATS`` times; keep the last.

    Returns the medians: ``setup_s`` scaled to reference host speed by
    the samples taken around each build (see ``driver.HostSpeed``), and
    the three parts as measured.
    """
    runs = []
    world = None
    before = speed.factor()
    for _ in range(SETUP_REPEATS):
        world = None  # release the previous one before rebuilding
        t0 = perf_counter()
        world = build_world(size)
        wall = perf_counter() - t0
        after = speed.factor()
        runs.append({"setup_s": wall / ((before + after) / 2),
                     **world.parts})
        before = after
    return world, {key: statistics.median(r[key] for r in runs)
                   for key in runs[0]}


def host_fingerprint() -> dict:
    blas = "unknown"
    try:
        libs = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{libs.get('name')} {libs.get('version')}"
    except (TypeError, KeyError):  # older NumPy: no dict mode
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }
