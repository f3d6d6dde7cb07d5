"""Paper hyper-parameter presets (Table VII).

The paper tunes batch size, learning rate, dropout, and the loss
balance β per (model, dataset).  These presets reconstruct Table VII
verbatim so paper-scale runs start from the authors' settings; at
reduced scale the defaults in :class:`REKSConfig` are usually better.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.config import REKSConfig

# (model, dataset) -> (batch_size, lr, dropout, beta)   [Table VII]
TABLE_VII: Dict[Tuple[str, str], Tuple[int, float, float, float]] = {
    ("gru4rec", "beauty"): (256, 0.001, 0.5, 0.6),
    ("gru4rec", "cellphones"): (32, 0.0001, 0.5, 0.4),
    ("gru4rec", "baby"): (256, 0.0001, 0.7, 0.2),
    ("gru4rec", "movielens"): (128, 0.0001, 0.3, 0.2),
    ("narm", "beauty"): (256, 0.0005, 0.7, 0.2),
    ("narm", "cellphones"): (32, 0.0001, 0.7, 0.2),
    ("narm", "baby"): (256, 0.0001, 0.7, 0.2),
    ("narm", "movielens"): (32, 0.0001, 0.3, 0.2),
    ("srgnn", "beauty"): (128, 0.001, 0.5, 0.4),
    ("srgnn", "cellphones"): (256, 0.001, 0.7, 0.6),
    ("srgnn", "baby"): (256, 0.0001, 0.3, 0.2),
    ("srgnn", "movielens"): (256, 0.0001, 0.7, 0.4),
    ("gcsan", "beauty"): (256, 0.001, 0.5, 0.6),
    ("gcsan", "cellphones"): (256, 0.005, 0.5, 1.0),
    ("gcsan", "baby"): (256, 0.0005, 0.7, 0.2),
    ("gcsan", "movielens"): (256, 0.005, 0.5, 0.4),
    ("bert4rec", "beauty"): (256, 0.0001, 0.7, 0.2),
    ("bert4rec", "cellphones"): (64, 0.0001, 0.7, 0.2),
    ("bert4rec", "baby"): (256, 0.0001, 0.7, 0.2),
    ("bert4rec", "movielens"): (128, 0.001, 0.2, 0.4),
}

# Dimension d0 = d1 = d2 per dataset (§IV-A-4): 400 Amazon, 64 MovieLens.
PAPER_DIMS = {"beauty": 400, "cellphones": 400, "baby": 400,
              "movielens": 64}


def paper_config(model: str, dataset: str, **overrides) -> REKSConfig:
    """The paper's REKS configuration for a (model, dataset) pair.

    ``overrides`` win over the preset (e.g. pass a smaller ``dim`` to
    run the paper's lr/β/dropout at laptop scale).
    """
    key = (model.lower().replace("-", ""), dataset.lower())
    if key not in TABLE_VII:
        raise KeyError(
            f"no Table VII preset for {key}; models="
            f"{sorted({m for m, _ in TABLE_VII})}, datasets="
            f"{sorted({d for _, d in TABLE_VII})}")
    batch_size, lr, dropout, beta = TABLE_VII[key]
    dim = PAPER_DIMS[key[1]]
    settings = {
        "dim": dim, "state_dim": dim,
        "batch_size": batch_size, "lr": lr, "dropout": dropout,
        "beta": beta,
        # Fixed across Table VII: path length 2, sizes {100, 1}, γ=0.99.
        "path_length": 2, "sample_sizes": (100, 1), "gamma": 0.99,
    }
    settings.update(overrides)
    return REKSConfig(**settings)
