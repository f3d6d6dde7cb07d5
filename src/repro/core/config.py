"""REKS hyper-parameters and ablation switches (Table VII + §IV-B-2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


REWARD_MODES = ("full", "no_rank", "item_only", "r1")
LOSS_MODES = ("joint", "reward_only", "ce_only")
START_MODES = ("last_item", "user")


@dataclass
class REKSConfig:
    """All knobs of the framework.

    Defaults follow the paper: path length 2 with per-step sampling
    sizes (100, 1), discount 0.99, reward ``R_item + 2·R_rank + R_path``
    and loss ``β·Lr + Lce``.  The ablation benchmarks flip
    ``reward_mode`` / ``loss_mode`` / ``start_from`` / ``path_length``.
    Model and graph settings only: serving and continual-learning
    options are keywords of the constructors that consume them
    (``RecommendationServer``, ``OnlineUpdater``, ``DeltaIngestor``,
    ``CheckpointRegistry``).
    """

    # Dimensions.  The paper sets d0 = d1 (= 400 Amazon, 64 MovieLens);
    # R_path = σ(Pᵀ Se) requires it, so a single `dim` controls both,
    # and `state_dim` is d2.
    dim: int = 64
    state_dim: int = 64

    # Path search (Table VII text: length 2, sizes {100, 1}).
    path_length: int = 2
    sample_sizes: Tuple[int, ...] = (100, 1)
    action_cap: int = 250          # prune huge action spaces (PGPR-style)
    start_from: str = "last_item"  # or "user" (Fig. 4 ablation)
    # Ignored: every walk expands a flat frontier with no padding to
    # bucket (see REKSAgent.walk).  Still validated because the frozen
    # benchmark harness passes it; it goes when the harness stops
    # (ROADMAP direction 1(e)).
    frontier_buckets: int = 1

    # Reward (Eq. 5): weights of (item, rank, path) components.
    reward_weights: Tuple[float, float, float] = (1.0, 2.0, 1.0)
    reward_mode: str = "full"      # Fig. 5: full / no_rank / item_only / r1
    gamma: float = 0.99
    rank_k: int = 20               # top-K list used by the rank reward

    # Loss (Eq. 11).
    beta: float = 0.2
    loss_mode: str = "joint"       # Fig. 3: joint / reward_only / ce_only

    # Optimization.
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 10
    max_grad_norm: float = 5.0
    dropout: float = 0.5
    weight_decay: float = 0.0
    patience: int = 3
    augment_sessions: bool = True
    max_session_length: int = 10

    # TransE pre-training.
    transe_epochs: int = 10
    transe_lr: float = 0.01
    transe_margin: float = 1.0

    # Extensions (off by default; see DESIGN.md §7).
    train_selection: str = "top"   # or "sample" (stochastic exploration)
    finetune_kg_embeddings: bool = False
    entropy_weight: float = 0.0
    fallback_to_encoder: bool = False  # fill top-K with encoder scores

    seed: int = 0

    def __post_init__(self) -> None:
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(
                f"reward_mode {self.reward_mode!r} not in {REWARD_MODES}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(
                f"loss_mode {self.loss_mode!r} not in {LOSS_MODES}")
        if self.start_from not in START_MODES:
            raise ValueError(
                f"start_from {self.start_from!r} not in {START_MODES}")
        if len(self.sample_sizes) != self.path_length:
            raise ValueError(
                f"need one sample size per hop: path_length="
                f"{self.path_length} but sample_sizes={self.sample_sizes}")
        if self.train_selection not in ("top", "sample"):
            raise ValueError("train_selection must be 'top' or 'sample'")
        if self.frontier_buckets < 1:
            raise ValueError(
                f"frontier_buckets must be >= 1, got {self.frontier_buckets}")

    @classmethod
    def for_ablation(cls, name: str, **overrides) -> "REKSConfig":
        """Named variants used across Figures 3-6.

        ``name`` in {reks, reks_r, reks_c, reks_r1, reks-path,
        reks-rank, reks_user, reks_l3, reks_l4}.
        """
        presets = {
            "reks": {},
            "reks_r": {"loss_mode": "reward_only"},
            "reks_c": {"loss_mode": "ce_only"},
            "reks_r1": {"reward_mode": "r1"},
            "reks-path": {"reward_mode": "item_only"},
            "reks-rank": {"reward_mode": "no_rank"},
            "reks_user": {"start_from": "user", "path_length": 3,
                          "sample_sizes": (100, 10, 1)},
            "reks_l3": {"path_length": 3, "sample_sizes": (100, 1, 1)},
            "reks_l4": {"path_length": 4, "sample_sizes": (100, 1, 1, 1)},
        }
        key = name.lower()
        if key not in presets:
            raise KeyError(f"unknown ablation {name!r}; "
                           f"choose from {sorted(presets)}")
        merged = dict(presets[key])
        merged.update(overrides)
        return cls(**merged)
