"""The REKS policy network (Eq. 3-4).

``s_t = MLP(Se ⊕ Sp)`` fuses the session representation from the
wrapped SR model with the current path context ``Sp = x_et + x_rt``;
actions ``(r, e)`` are embedded as ``x_r + x_e`` and scored by
``(x_r + x_e)ᵀ (W1 s_t)``, then softmaxed over each row's legal actions,
given as flat ``(row_of, rels, tails)`` cells.  One forward,
:meth:`PolicyNetwork.step`, computes that hop for training and for
inference alike: under ``no_grad`` its ops record no graph, so the
walk that serves a request runs the arithmetic training runs.

KG entity/relation embeddings default to the frozen TransE tables
(PGPR convention); ``finetune=True`` makes them trainable parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.dropout import Dropout
from repro.nn.embedding import Embedding, embedding_sum
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
        return embedding_sum(self.relation_emb, rels, self.entity_emb, tails)

    def step(self, session_repr: Tensor, entities: np.ndarray,
             relations: Optional[np.ndarray], row_of: np.ndarray,
             rels: np.ndarray, tails: np.ndarray) -> Tensor:
        """One hop: ``(M,)`` log-probs of the frontier's legal cells.

        The ``N`` frontier rows (``session_repr`` / ``entities`` /
        ``relations``) and their ``M`` legal cells ``(rels[j],
        tails[j])`` of row ``row_of[j]`` (non-decreasing —
        :meth:`KGEnvironment.flat_actions` order).  Dropout applies to
        the state input when the module is training.  Each cell is
        dotted against its row's projected state (a segment dot) and
        the softmax is taken per row segment, so in grad mode gradients
        reach the session encoder, the state MLP and ``W1`` through the
        legal actions only; under ``no_grad`` the same ops build no
        graph.
        """
        sp = self.path_context(entities, relations)
        proj = self.w1(self.state(session_repr, sp))       # (N, kg_dim)
        action_emb = self.action_embeddings(rels, tails)   # (M, kg_dim)
        logits = F.segment_dot(proj, action_emb, row_of)
        return F.segment_log_softmax(logits, row_of)
