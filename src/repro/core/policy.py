"""The REKS policy network (Eq. 3-4).

``s_t = MLP(Se ⊕ Sp)`` fuses the session representation from the
wrapped SR model with the current path context ``Sp = x_et + x_rt``;
actions ``(r, e)`` are embedded as ``x_r + x_e`` and scored by
``(x_r + x_e)ᵀ (W1 s_t)``, masked to the legal action set, softmaxed.
Two forwards compute that hop: :meth:`PolicyNetwork.step` over a padded
action grid on the autograd tape (training), and
:meth:`PolicyNetwork.step_flat` over the legal actions alone on plain
arrays (inference) — :meth:`REKSAgent.walk` picks, from grad mode.

KG entity/relation embeddings default to the frozen TransE tables
(PGPR convention); ``finetune=True`` makes them trainable parameters.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
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
        """Full hop on a padded grid: context -> state -> masked action
        log-probs.  This is the tape forward the training walk
        differentiates through; the inference walk scores the same
        actions without the grid via :meth:`step_flat`."""
        sp = self.path_context(entities, relations)
        st = self.state(session_repr, sp)
        return self.action_log_probs(st, rels, tails, mask)

    def step_flat(self, session_repr: np.ndarray, entities: np.ndarray,
                  relations: Optional[np.ndarray], row_of: np.ndarray,
                  rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Inference-only hop over a flat frontier: ``(M,)`` log-probs.

        ``session_repr`` / ``entities`` / ``relations`` describe the
        ``N`` frontier rows as in :meth:`step`; the actions are the
        ``M`` legal cells ``(rels[j], tails[j])`` of row ``row_of[j]``
        (``row_of`` non-decreasing —
        :meth:`KGEnvironment.flat_actions` order).  Plain arrays
        throughout, no tape and no dropout: the caller checks both are
        off.  The state MLP runs once over all rows, each cell is
        dotted against its row's projected state, and the softmax is
        taken per row segment, so a cell's log-prob is the tape
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
        return segment_log_softmax(logits, *segments(row_of))


def segments(row_of: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, counts)`` of the runs of equal values in a
    non-decreasing, non-negative ``row_of`` (one run per row that has
    a cell)."""
    counts = np.bincount(row_of)
    counts = counts[counts > 0]
    return np.cumsum(counts) - counts, counts


def segment_log_softmax(logits: np.ndarray, starts: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax within each ``segments`` run."""
    if not len(logits):
        return logits
    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts), counts)
    # float64 accumulation: reduceat adds left to right, and a float32
    # running sum over a few hundred cells would lose the last digits
    # the tape's pairwise row sum keeps.
    log_sum = np.log(np.add.reduceat(np.exp(shifted), starts,
                                     dtype=np.float64)).astype(logits.dtype)
    return shifted - np.repeat(log_sum, counts)
