"""TransE embeddings (Bordes et al., 2013) — Eq. 1 of the paper.

Margin-ranking loss with uniform negative sampling, optimized with
plain SGD and per-epoch entity renormalization, implemented directly in
numpy (no autograd needed: the gradients of the L2 energy are closed
form).  Each batch applies its sparse updates as two row scatters, one
per table, through :func:`repro.autograd.functional.add_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.autograd.functional import add_at
from repro.kg.graph import KnowledgeGraph


@dataclass
class TransEConfig:
    """Hyper-parameters for TransE pre-training."""

    dim: int = 64
    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 2048
    seed: int = 13


class TransE:
    """Learn entity/relation vectors such that ``h + r ≈ t``."""

    def __init__(self, num_entities: int, num_relations: int,
                 config: Optional[TransEConfig] = None) -> None:
        self.config = config or TransEConfig()
        rng = np.random.default_rng(self.config.seed)
        d = self.config.dim
        bound = 6.0 / np.sqrt(d)
        self.entity = rng.uniform(-bound, bound, size=(num_entities, d)).astype(np.float32)
        self.relation = rng.uniform(-bound, bound, size=(num_relations, d)).astype(np.float32)
        self.relation /= np.linalg.norm(self.relation, axis=1, keepdims=True) + 1e-12
        self._normalize_entities()
        self._rng = rng

    # ------------------------------------------------------------------
    def fit(self, kg: KnowledgeGraph, verbose: bool = False) -> "TransE":
        """Train on all triples of a finalized KG."""
        heads, rels, tails = kg.triples()
        return self.fit_triples(heads, rels, tails, verbose=verbose)

    def fit_triples(self, heads: np.ndarray, rels: np.ndarray,
                    tails: np.ndarray, verbose: bool = False) -> "TransE":
        cfg = self.config
        n = len(heads)
        if n == 0:
            return self
        for epoch in range(cfg.epochs):
            order = self._rng.permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                total += self._step(heads[idx], rels[idx], tails[idx])
            self._normalize_entities()
            if verbose:
                print(f"[transe] epoch {epoch + 1}/{cfg.epochs} "
                      f"loss={total / max(1, n):.4f}")
        return self

    # ------------------------------------------------------------------
    def _step(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> float:
        cfg = self.config
        batch = len(h)
        # Corrupt head or tail uniformly.
        corrupt_head = self._rng.random(batch) < 0.5
        negatives = self._rng.integers(0, self.entity.shape[0], size=batch)
        nh = np.where(corrupt_head, negatives, h)
        nt = np.where(corrupt_head, t, negatives)

        he, re, te = self.entity[h], self.relation[r], self.entity[t]
        nhe, nte = self.entity[nh], self.entity[nt]

        pos_diff = he + re - te
        neg_diff = nhe + re - nte
        pos_score = (pos_diff ** 2).sum(axis=1)
        neg_score = (neg_diff ** 2).sum(axis=1)
        violation = cfg.margin + pos_score - neg_score
        active = violation > 0
        if not active.any():
            return 0.0
        loss = float(violation[active].sum())

        # d(loss)/d(pos_diff) = 2 * pos_diff; d(loss)/d(neg_diff) = -2 * neg_diff
        gp = 2.0 * pos_diff[active]
        gn = -2.0 * neg_diff[active]
        scale = cfg.lr

        # One scatter per table.  The entity rows go in the order
        # h, t, nh, nt, so every element takes its updates in the same
        # sequence as one scatter per role would give it.
        add_at(self.entity,
               np.concatenate([h[active], t[active], nh[active], nt[active]]),
               np.concatenate([-scale * gp, scale * gp,
                               -scale * gn, scale * gn]))
        add_at(self.relation, r[active], -scale * (gp + gn))
        return loss

    def _normalize_entities(self) -> None:
        norms = np.linalg.norm(self.entity, axis=1, keepdims=True)
        self.entity /= np.maximum(norms, 1e-12)

    # ------------------------------------------------------------------
    def energy(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """L2 energy of triples (lower = more plausible)."""
        diff = self.entity[h] + self.relation[r] - self.entity[t]
        return (diff ** 2).sum(axis=1)

    def embedding_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(entity_matrix, relation_matrix)`` copies."""
        return self.entity.copy(), self.relation.copy()

    def item_embeddings(self, item_entity: np.ndarray) -> np.ndarray:
        """Rows for item ids 1..n plus a zero row for padding index 0.

        ``item_entity`` is the BuiltKG mapping (index 0 is -1/unused).
        """
        dim = self.entity.shape[1]
        table = np.zeros((len(item_entity), dim), dtype=np.float32)
        table[1:] = self.entity[item_entity[1:]]
        return table

    def link_prediction_metrics(self, kg: KnowledgeGraph,
                                sample_size: int = 200,
                                seed: int = 0) -> dict:
        """Tail-prediction quality of the embedding (hits@k / MRR).

        For a sample of triples ``(h, r, ?)``, ranks every entity by
        the TransE energy and reports where the true tail lands — the
        standard diagnostic for Eq.-1 pre-training quality.  Raw (not
        filtered) ranks; small KGs only (scores all entities).
        """
        heads, rels, tails = kg.triples()
        rng = np.random.default_rng(seed)
        n = len(heads)
        if n == 0:
            return {"hits@1": 0.0, "hits@10": 0.0, "mrr": 0.0,
                    "mean_rank": 0.0}
        picks = rng.choice(n, size=min(sample_size, n), replace=False)
        ranks = np.empty(len(picks), dtype=np.int64)
        for i, idx in enumerate(picks):
            translated = self.entity[heads[idx]] + self.relation[rels[idx]]
            energies = ((self.entity - translated) ** 2).sum(axis=1)
            ranks[i] = int((energies < energies[tails[idx]]).sum()) + 1
        return {
            "hits@1": float((ranks <= 1).mean()),
            "hits@10": float((ranks <= 10).mean()),
            "mrr": float((1.0 / ranks).mean()),
            "mean_rank": float(ranks.mean()),
        }
