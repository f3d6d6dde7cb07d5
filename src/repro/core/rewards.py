"""The composite REKS reward (Eq. 5-9) and its ablation variants.

``R = w_item · R_item + w_rank · R_rank + w_path · R_path`` with paper
weights (1, 2, 1):

* ``R_item`` (Eq. 6): 1 when the path terminates at the target item,
  the sigmoid embedding similarity to the target when it terminates at
  some *other* product, 0 otherwise;
* ``R_rank`` (Eq. 7): ``1 / log2(rank + 2)`` of the terminal item in
  the aggregated top-K prediction list (0 for non-product terminals or
  ranks beyond K) — pushes the target toward the top of the ranking;
* ``R_path`` (Eq. 8-9): ``σ(Pᵀ · Se)`` where ``P`` is the mean of all
  entity/relation embeddings on the path — favors session-relevant,
  explainable paths.

Modes (Fig. 5): ``full`` = all three; ``no_rank`` (paper "REKS-rank")
drops the rank term; ``item_only`` ("REKS-path") keeps only R_item;
``r1`` ("REKS R1") is the bare 0/1 terminal reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.environment import Rollout
from repro.kg.builder import BuiltKG


@dataclass
class RewardWeights:
    """Component weights of Eq. 5."""

    item: float = 1.0
    rank: float = 2.0
    path: float = 1.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-x) overflows to inf for x below about -709 (-88 in float32),
    # and 1 / (1 + inf) is the exact limit 0: silence the warning only.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class RewardComputer:
    """Computes per-path rewards for a rollout (pure numpy, no grad)."""

    def __init__(self, built: BuiltKG, entity_table: np.ndarray,
                 relation_table: np.ndarray,
                 weights: RewardWeights = None, mode: str = "full",
                 gamma: float = 0.99, rank_k: int = 20) -> None:
        self.built = built
        self.entity_table = entity_table
        self.relation_table = relation_table
        self.weights = weights or RewardWeights()
        self.mode = mode
        self.gamma = gamma
        self.rank_k = rank_k
        start, count = built.kg.type_range(self._item_type())
        self._item_lo, self._item_hi = start, start + count

    def _item_type(self) -> str:
        return "product" if "product" in self.built.kg.entity_type_names else "movie"

    # ------------------------------------------------------------------
    def compute(self, rollout: Rollout, target_items: np.ndarray,
                session_repr: np.ndarray, yhat: np.ndarray
                ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Total discounted terminal reward per path.

        Parameters
        ----------
        rollout:
            The finished batch rollout.
        target_items:
            ``(B,)`` ground-truth next item per session.
        session_repr:
            ``(B, dim)`` numpy copy of ``Se`` (for the path reward).
        yhat:
            ``(B, n_items + 1)`` aggregated path scores (for the rank
            reward) — column 0 is padding.

        Returns
        -------
        (discounted, components):
            ``discounted`` is ``γ^(T-1) · R`` per path; ``components``
            has the raw item/rank/path arrays for diagnostics.
        """
        sess = rollout.session_idx
        terminals = rollout.terminals
        target_entities = self.built.entities_of_items(target_items)[sess]

        is_item = (terminals >= self._item_lo) & (terminals < self._item_hi)
        exact = terminals == target_entities

        r_item = self._item_reward(terminals, target_entities, is_item, exact)
        if self.mode == "r1":
            total = exact.astype(np.float64)
            components = {"item": total, "rank": np.zeros_like(total),
                          "path": np.zeros_like(total)}
        else:
            r_rank = np.zeros(len(terminals))
            r_path = np.zeros(len(terminals))
            w = self.weights
            total = w.item * r_item
            if self.mode in ("full", "no_rank"):
                r_path = self._path_reward(rollout, session_repr)
                total = total + w.path * r_path
            if self.mode == "full":
                r_rank = self._rank_reward(rollout, yhat, is_item)
                total = total + w.rank * r_rank
            components = {"item": r_item, "rank": r_rank, "path": r_path}
        hops = rollout.entities.shape[1] - 1
        discounted = (self.gamma ** max(hops - 1, 0)) * total
        return discounted, components

    # ------------------------------------------------------------------
    def _item_reward(self, terminals: np.ndarray, targets: np.ndarray,
                     is_item: np.ndarray, exact: np.ndarray) -> np.ndarray:
        reward = np.zeros(len(terminals))
        reward[exact] = 1.0
        near = is_item & ~exact
        if near.any():
            sim = (self.entity_table[terminals[near]]
                   * self.entity_table[targets[near]]).sum(axis=1)
            reward[near] = _sigmoid(sim)
        return reward

    def _rank_reward(self, rollout: Rollout, yhat: np.ndarray,
                     is_item: np.ndarray) -> np.ndarray:
        """``1/log2(rank+2)`` of the terminal item within the top-K."""
        reward = np.zeros(rollout.num_paths)
        if not is_item.any():
            return reward
        # Per-session dense ranks of every item by aggregated score.
        order = np.argsort(-yhat, axis=1, kind="stable")
        ranks = np.empty_like(order)
        cols = np.arange(yhat.shape[1])
        for row in range(yhat.shape[0]):
            ranks[row, order[row]] = cols
        items = self.built.items_of_entities(rollout.terminals[is_item])
        path_rank = ranks[rollout.session_idx[is_item], items]
        in_top = path_rank < self.rank_k
        value = np.zeros(len(items))
        value[in_top] = 1.0 / np.log2(path_rank[in_top] + 2.0)
        reward[is_item] = value
        return reward

    def _path_reward(self, rollout: Rollout,
                     session_repr: np.ndarray) -> np.ndarray:
        """``σ(Pᵀ Se)`` with P the mean path-element embedding (Eq. 9)."""
        ent = self.entity_table[rollout.entities]      # (P, L+1, d)
        rel = self.relation_table[rollout.relations]   # (P, L, d)
        total = ent.sum(axis=1) + rel.sum(axis=1)
        count = rollout.entities.shape[1] + rollout.relations.shape[1]
        mean_emb = total / count
        se = session_repr[rollout.session_idx]
        return _sigmoid((mean_emb * se).sum(axis=1))
