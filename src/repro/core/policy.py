"""The REKS policy network (Eq. 3-4).

``s_t = MLP(Se ⊕ Sp)`` fuses the session representation from the
wrapped SR model with the current path context ``Sp = x_et + x_rt``;
actions ``(r, e)`` are embedded as ``x_r + x_e`` and scored by
``(x_r + x_e)ᵀ (W1 s_t)``, then softmaxed over each row's legal actions,
given as flat ``(row_of, rels, tails)`` cells.  Two forwards compute
that hop on the same cells: :meth:`PolicyNetwork.step` on the autograd
tape (training) and :meth:`PolicyNetwork.step_flat` on plain arrays
(inference) — :meth:`REKSAgent.walk` picks, from grad mode and dropout.

KG entity/relation embeddings default to the frozen TransE tables
(PGPR convention); ``finetune=True`` makes them trainable parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear, MLP
from repro.nn.module import Module


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
        """``x_r + x_e`` for the ``(M,)`` flat action cells."""
        return self.relation_emb(rels) + self.entity_emb(tails)

    def step(self, session_repr: Tensor, entities: np.ndarray,
             relations: Optional[np.ndarray], row_of: np.ndarray,
             rels: np.ndarray, tails: np.ndarray) -> Tensor:
        """Full hop on the autograd tape: ``(M,)`` log-probs.

        The tape forward of :meth:`step_flat`, on the same arguments:
        the ``N`` frontier rows (``session_repr`` / ``entities`` /
        ``relations``) and their ``M`` legal cells ``(rels[j],
        tails[j])`` of row ``row_of[j]``.  Dropout applies to the state
        input when the module is training.  Each cell is dotted against
        its row's projected state (a segment dot) and the softmax is
        taken per row segment, so gradients reach the session encoder,
        the state MLP and ``W1`` through the legal actions only.
        """
        sp = self.path_context(entities, relations)
        proj = self.w1(self.state(session_repr, sp))       # (N, kg_dim)
        action_emb = self.action_embeddings(rels, tails)   # (M, kg_dim)
        logits = F.segment_dot(proj, action_emb, row_of)
        return F.segment_log_softmax(logits, row_of)

    def step_flat(self, session_repr: np.ndarray, entities: np.ndarray,
                  relations: Optional[np.ndarray], row_of: np.ndarray,
                  rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Inference-only :meth:`step` on plain arrays: ``(M,)`` log-probs.

        Same arguments and cells as :meth:`step` (``row_of``
        non-decreasing — :meth:`KGEnvironment.flat_actions` order), no
        tape and no dropout: the caller checks both are off.  The state
        MLP runs once over all rows through ``Linear.infer`` /
        ``Embedding.gather``, so a cell's log-prob is the tape
        forward's for the same action to float32 summation order.
        """
        sp = self.entity_emb.gather(entities)
        if relations is not None:
            sp = sp + self.relation_emb.gather(relations)
        fc0, fc1 = self.state_mlp.fc0, self.state_mlp.fc1
        hidden = np.maximum(
            fc0.infer(np.concatenate([session_repr, sp], axis=-1)), 0.0)
        proj = self.w1.infer(fc1.infer(hidden))        # (N, kg_dim)
        action_emb = self.relation_emb.gather(rels)
        action_emb += self.entity_emb.gather(tails)    # (M, kg_dim)
        logits = np.einsum("md,md->m", action_emb, proj[row_of])
        return F.segment_log_softmax_data(logits, *F.segments(row_of))
