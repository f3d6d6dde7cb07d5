"""The REKS policy network (Eq. 3-4).

``s_t = MLP(Se ⊕ Sp)`` fuses the session representation from the
wrapped SR model with the current path context ``Sp = x_et + x_rt``;
actions ``(r, e)`` are embedded as ``x_r + x_e`` and scored by
``(x_r + x_e)ᵀ (W1 s_t)``, masked to the legal action set, softmaxed.

KG entity/relation embeddings default to the frozen TransE tables
(PGPR convention); ``finetune=True`` makes them trainable parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear, MLP
from repro.nn.module import Module

NEG_INF = -1e9


class PolicyNetwork(Module):
    """State featurizer + action scorer."""

    def __init__(self, session_dim: int, kg_dim: int, state_dim: int,
                 entity_table: np.ndarray, relation_table: np.ndarray,
                 dropout: float = 0.0, finetune: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 copy_tables: bool = True) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.session_dim = session_dim
        self.kg_dim = kg_dim
        self.state_dim = state_dim
        # copy_tables=False mounts the given float32 buffers zero-copy
        # (e.g. shared-memory plane views in a process worker); it
        # implies frozen tables — a fine-tuning replica owns private
        # copies.
        self.entity_emb = Embedding.from_pretrained(
            entity_table, trainable=finetune and copy_tables,
            copy=copy_tables)
        self.relation_emb = Embedding.from_pretrained(
            relation_table, trainable=finetune and copy_tables,
            copy=copy_tables)
        self.state_mlp = MLP([session_dim + kg_dim, state_dim, state_dim],
                             rng=rng)
        self.w1 = Linear(state_dim, kg_dim, bias=False, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    # ------------------------------------------------------------------
    def path_context(self, entities: np.ndarray,
                     relations: Optional[np.ndarray]) -> Tensor:
        """``Sp``: current entity embedding plus last relation (if any)."""
        sp = self.entity_emb(entities)
        if relations is not None:
            sp = sp + self.relation_emb(relations)
        return sp

    def state(self, session_repr: Tensor, sp: Tensor) -> Tensor:
        """``s_t = MLP(Se ⊕ Sp)`` (Eq. 3)."""
        fused = F.concat([session_repr, sp], axis=-1)
        return self.state_mlp(self.drop(fused))

    def action_embeddings(self, rels: np.ndarray, tails: np.ndarray) -> Tensor:
        """``x_r + x_e`` for a padded ``(N, A)`` action grid."""
        return self.relation_emb(rels) + self.entity_emb(tails)

    def action_log_probs(self, state: Tensor, rels: np.ndarray,
                         tails: np.ndarray, mask: np.ndarray) -> Tensor:
        """Masked log-softmax over the action grid (Eq. 4).

        ``state`` is ``(N, state_dim)``; returns ``(N, A)``.  Rows whose
        mask is empty yield a uniform distribution — callers must drop
        those paths (the environment reports them as dead ends).
        """
        proj = self.w1(state)                         # (N, kg_dim)
        action_emb = self.action_embeddings(rels, tails)  # (N, A, kg_dim)
        n, width = rels.shape
        logits = action_emb.matmul(proj.reshape(n, self.kg_dim, 1))
        logits = logits.reshape(n, width)
        logits = logits.masked_fill(~mask, NEG_INF)
        return F.log_softmax(logits, axis=-1)

    def step(self, session_repr: Tensor, entities: np.ndarray,
             relations: Optional[np.ndarray], rels: np.ndarray,
             tails: np.ndarray, mask: np.ndarray) -> Tensor:
        """Full hop: context -> state -> masked action log-probs.

        Under ``no_grad`` (with dropout inactive) the hop runs on plain
        arrays and embeds/scores only the legal cells of the grid —
        see :meth:`_step_ragged`.
        """
        if not is_grad_enabled() and not (self.drop.training
                                          and self.drop.p > 0):
            return self._step_ragged(session_repr.data, entities,
                                     relations, rels, tails, mask)
        sp = self.path_context(entities, relations)
        st = self.state(session_repr, sp)
        return self.action_log_probs(st, rels, tails, mask)

    def _step_ragged(self, session_repr: np.ndarray, entities: np.ndarray,
                     relations: Optional[np.ndarray], rels: np.ndarray,
                     tails: np.ndarray, mask: np.ndarray) -> Tensor:
        """Inference-only :meth:`step` over the ``M`` legal actions.

        A padded ``(N, A)`` grid is mostly padding once frontier rows of
        different degree share it, so the tape forward's
        ``(N, A, kg_dim)`` action embedding spends most of its gathers
        and multiply-adds on cells the mask then discards.  Here only
        the legal cells (row-major, as ``np.nonzero(mask)`` orders
        them) are embedded and dotted against their row's projected
        state; the logits are scattered into a ``NEG_INF`` grid and go
        through the same log-softmax, so the result has the tape
        forward's shape and padding values and its legal cells agree
        to float32 summation order.
        """
        sp = self.entity_emb.gather(entities)
        if relations is not None:
            sp = sp + self.relation_emb.gather(relations)
        fc0, fc1 = self.state_mlp.fc0, self.state_mlp.fc1
        hidden = np.maximum(
            fc0.infer(np.concatenate([session_repr, sp], axis=-1)), 0.0)
        proj = self.w1.infer(fc1.infer(hidden))        # (N, kg_dim)
        action_emb = self.relation_emb.gather(rels[mask])
        action_emb += self.entity_emb.gather(tails[mask])  # (M, kg_dim)
        legal_per_row = np.count_nonzero(mask, axis=1)
        logits = np.full(mask.shape, NEG_INF, dtype=proj.dtype)
        logits[mask] = np.einsum(
            "md,md->m", action_emb, np.repeat(proj, legal_per_row, axis=0))
        return F.log_softmax(Tensor(logits, dtype=logits.dtype), axis=-1)
