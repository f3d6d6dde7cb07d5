"""REKS agent: differentiable KG walk + REINFORCE-with-baseline loss.

One training step (Algorithm 1, lines 4-12):

1. the wrapped SR encoder produces ``Se`` for the batch;
2. the policy walks ``path_length`` hops from each session's last item,
   keeping the top-``P_t`` actions per path at hop ``t`` (Table VII:
   {100, 1}); the summed log-probabilities stay on the autograd tape;
3. per-path probabilities are scatter-added into ``ŷ`` over the item
   catalog (paths ending at non-product entities contribute nothing);
4. rewards are computed (Eq. 5-9) and the loss ``L = β·Lr + Lce``
   (Eq. 11-14) is backpropagated through both the policy network and
   the SR encoder — the encoder is "part of the policy network".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # avoid a core -> cascade import cycle at runtime
    from repro.cascade.planner import WalkConstraint

import numpy as np

from repro.autograd import functional as F, no_grad
from repro.telemetry.block import walk_hop_hist
from repro.telemetry.trace import span_kind_id

_SPAN_WALK = span_kind_id("walk")
_SPAN_TOPK = span_kind_id("topk")
from repro.autograd.tensor import Tensor
from repro.core.config import REKSConfig
from repro.core.environment import (
    KGEnvironment,
    Rollout,
    RolloutWorkspace,
)
from repro.core.policy import PolicyNetwork
from repro.core.rewards import RewardComputer
from repro.data.loader import SessionBatch
from repro.kg.paths import PathTable
from repro.models.base import SessionEncoder
from repro.nn.module import Module


@dataclass
class StepStats:
    """Diagnostics from one training step."""

    loss: float
    reward_loss: float
    ce_loss: float
    mean_reward: float
    num_paths: int
    reward_components: Dict[str, float] = field(default_factory=dict)


@dataclass
class Recommendations:
    """Inference output for one batch.

    ``paths`` maps ``(row, item)`` to the most probable walked path
    ending at that item, for every item the walk reached (not only the
    ranked ones).  It is a read-only :class:`~repro.kg.paths.PathTable`
    over the rollout's arrays: ``paths[(row, item)]``, ``.get``, ``in``
    and iteration work as on a dict, and a ``SemanticPath`` object is
    only built for the keys a caller looks up.
    """

    scores: np.ndarray                       # (B, n_items + 1)
    ranked_items: np.ndarray                 # (B, K)
    paths: PathTable                         # (row, item) -> best path


class REKSAgent(Module):
    """Couples an encoder, a policy network, and the KG environment."""

    def __init__(self, encoder: SessionEncoder, policy: PolicyNetwork,
                 env: KGEnvironment, rewards: RewardComputer,
                 config: REKSConfig,
                 workspace: Optional[RolloutWorkspace] = None) -> None:
        super().__init__()
        self.encoder = encoder
        self.policy = policy
        self.env = env
        self.rewards = rewards
        self.config = config
        self.n_items = env.built.n_items
        self.workspace = workspace if workspace is not None \
            else RolloutWorkspace()
        self._rng = np.random.default_rng(config.seed + 101)

    # ------------------------------------------------------------------
    # Rollout
    # ------------------------------------------------------------------
    def walk(self, session_repr: Tensor, batch: SessionBatch,
             sizes: Optional[Tuple[int, ...]] = None,
             stochastic: bool = False,
             workspace: Optional[RolloutWorkspace] = None,
             candidates: Optional["WalkConstraint"] = None) -> Rollout:
        """Beam-walk the KG; gradient flows when grad mode is enabled.

        Every hop is one :meth:`_expand`: the frontier's legal actions
        as flat cells, one ``PolicyNetwork.step``, one segment top-k.
        Training and inference run that same forward; under
        ``no_grad`` it records no graph, so with dropout off a served
        walk keeps the actions and log-probs a grad-mode walk keeps,
        bit for bit.

        ``workspace`` overrides the agent's own telemetry carrier for
        this walk — serving workers each pin their own workspace so
        concurrent walks over one shared agent never collide.

        ``candidates`` (a :class:`repro.cascade.WalkConstraint`)
        restricts each hop's expansion to tails that can still reach a
        candidate item in the hops that remain.  Pruned actions are
        excluded from *selection only* — the policy still normalizes
        over the full valid action set, so the log-probability of every
        kept action (and hence every candidate item's score) is
        unchanged from the unconstrained walk.
        """
        cfg = self.config
        sizes = sizes or cfg.sample_sizes
        workspace = workspace if workspace is not None else self.workspace
        batch_size = batch.batch_size
        sess_idx = np.arange(batch_size, dtype=np.int64)
        entities = self.env.start_entities(batch, cfg.start_from)
        ent_hist = entities[:, None]
        rel_hist = np.zeros((batch_size, 0), dtype=np.int64)
        prev_rel: Optional[np.ndarray] = None
        log_prob: Optional[Tensor] = None  # summed per-hop log-probs

        # Per-hop wall time lands in the owner's metric block (if any);
        # the guard keeps the no-telemetry walk free of clock reads.
        metrics = None if workspace is None else workspace.metrics
        # Per-row frontier census for sampled batches: one bincount per
        # executed hop, appended to the owner's list (None = off).
        row_frontier = getattr(workspace, "row_frontier", None)

        for hop, k in enumerate(sizes):
            if len(sess_idx) == 0:
                break
            hop_t0 = perf_counter() if metrics is not None else 0.0
            hop_allowed = (None if candidates is None
                           else candidates.hop_mask(hop, len(sizes)))
            picked = self._expand(session_repr, sess_idx, ent_hist,
                                  prev_rel, k, stochastic, hop_allowed,
                                  metrics)
            if picked is None:
                # Every surviving path dead-ended: return a rollout
                # that is empty but shape-consistent.
                sess_idx = sess_idx[:0]
                ent_hist = ent_hist[:0]
                rel_hist = rel_hist[:0]
                log_prob = None
                if row_frontier is not None:
                    row_frontier.append(
                        np.zeros(batch_size, dtype=np.int64))
                if metrics is not None:
                    metrics.observe(walk_hop_hist(hop),
                                    perf_counter() - hop_t0)
                break
            rows, sel_rels, sel_tails, step_logp = picked
            log_prob = (step_logp if log_prob is None
                        else log_prob[rows] + step_logp)
            sess_idx = sess_idx[rows]
            ent_hist = np.concatenate(
                [ent_hist[rows], sel_tails[:, None]], axis=1)
            rel_hist = np.concatenate(
                [rel_hist[rows], sel_rels[:, None]], axis=1)
            prev_rel = rel_hist[:, -1]
            if row_frontier is not None:
                row_frontier.append(
                    np.bincount(sess_idx, minlength=batch_size))
            if metrics is not None:
                metrics.observe(walk_hop_hist(hop),
                                perf_counter() - hop_t0)

        prob = (np.exp(log_prob.data.astype(np.float64))
                if log_prob is not None else np.zeros(len(sess_idx)))
        return Rollout(session_idx=sess_idx, entities=ent_hist,
                       relations=rel_hist, prob=prob, log_prob=log_prob)

    def _expand(self, session_repr: Tensor, sess_idx: np.ndarray,
                ent_hist: np.ndarray, prev_rel: Optional[np.ndarray],
                k: int, stochastic: bool,
                hop_allowed: Optional[np.ndarray], metrics):
        """One hop: flat frontier, one policy forward, segment top-k.

        The whole frontier's legal actions arrive as flat
        ``(row_of, rels, tails)`` cells, ``PolicyNetwork.step`` scores
        them and one segment top-k keeps each row's best ``k`` —
        Gumbel-perturbed when ``stochastic``.  Returns ``(rows, rels,
        tails, log_probs)`` of the kept actions in frontier-row order,
        by action column within a row (``rows`` indexes the frontier,
        ``log_probs`` is a Tensor), or None when nothing could be
        kept.
        """
        row_of, rels, tails = self.env.flat_actions(
            ent_hist[:, -1], ent_hist, metrics=metrics)
        rows_g = np.arange(len(ent_hist))  # frontier rows the policy sees
        selectable = None                  # cells the cascade lets it keep
        if hop_allowed is not None:
            selectable = hop_allowed[sess_idx[row_of], tails]
            if metrics is not None:
                pruned = len(np.unique(row_of[~selectable]))
                if pruned:
                    metrics.count("cascade_pruned_frontier_rows_total",
                                  pruned)
            # Rows with nothing selectable are dropped before the
            # policy pass (exact — the softmax is per row); the others
            # still normalize over every legal action.
            live = np.zeros(len(ent_hist), dtype=bool)
            live[row_of[selectable]] = True
            if not live.all():
                cells = live[row_of]
                rows_g = np.flatnonzero(live)
                row_of = (np.cumsum(live) - 1)[row_of[cells]]
                rels, tails = rels[cells], tails[cells]
                selectable = selectable[cells]
        if len(row_of) == 0:
            return None
        logp = self.policy.step(
            session_repr[sess_idx[rows_g]], ent_hist[rows_g, -1],
            None if prev_rel is None else prev_rel[rows_g],
            row_of, rels, tails)
        scores = logp.data
        if stochastic:
            scores = scores - np.log(-np.log(
                self._rng.random(len(scores)) + 1e-12) + 1e-12)
        if selectable is None:
            kept = segment_top_k(scores, row_of, k)
        else:
            cells = np.flatnonzero(selectable)
            kept = cells[segment_top_k(scores[cells], row_of[cells], k)]
        return rows_g[row_of[kept]], rels[kept], tails[kept], logp[kept]

    # ------------------------------------------------------------------
    # ŷ aggregation (Eq. 14's predicted probabilities)
    # ------------------------------------------------------------------
    def aggregate_scores(self, rollout: Rollout, batch_size: int) -> Tensor:
        """Scatter path probabilities into ``(B, n_items + 1)`` scores."""
        if rollout.log_prob is None:
            raise RuntimeError("aggregate_scores needs a grad-mode rollout")
        items = self.env.built.items_of_entities(rollout.terminals)
        probs = rollout.log_prob.exp()
        # Non-item terminals fall into column 0, which is masked out of
        # the loss and never recommended.
        return F.scatter_add(probs, (rollout.session_idx, items),
                             (batch_size, self.n_items + 1))

    def aggregate_scores_numpy(self, rollout: Rollout,
                               batch_size: int) -> np.ndarray:
        items = self.env.built.items_of_entities(rollout.terminals)
        scores = np.zeros((batch_size, self.n_items + 1), dtype=np.float64)
        F.add_at(scores, (rollout.session_idx, items), rollout.prob)
        scores[:, 0] = 0.0
        return scores

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------
    def losses(self, batch: SessionBatch) -> Tuple[Tensor, StepStats]:
        """Forward pass producing ``L = β·Lr + Lce`` plus diagnostics."""
        cfg = self.config
        session_repr = self.encoder.encode(batch)
        rollout = self.walk(session_repr, batch,
                            stochastic=(cfg.train_selection == "sample"
                                        and self.training))
        batch_size = batch.batch_size
        if rollout.num_paths == 0:
            raise RuntimeError(
                "rollout produced no paths; the KG has isolated start "
                "entities — check co_occur/metadata edge construction")

        yhat = self.aggregate_scores(rollout, batch_size)
        yhat_np = yhat.data.copy()
        yhat_np[:, 0] = 0.0

        discounted, components = self.rewards.compute(
            rollout, batch.targets, session_repr.data, yhat_np)

        # REINFORCE with a per-session mean baseline (self-critical).
        counts = np.bincount(rollout.session_idx, minlength=batch_size)
        sums = np.bincount(rollout.session_idx, weights=discounted,
                           minlength=batch_size)
        baseline = sums / np.maximum(counts, 1)
        advantage = discounted - baseline[rollout.session_idx]

        reward_loss = -(rollout.log_prob
                        * Tensor(advantage.astype(np.float32))).sum() \
            * (1.0 / batch_size)
        if cfg.entropy_weight > 0:
            # Entropy bonus over kept actions (extension, off by default).
            reward_loss = reward_loss + (rollout.log_prob.exp()
                                         * rollout.log_prob).sum() \
                * (cfg.entropy_weight / batch_size)

        targets_dense = np.zeros((batch_size, self.n_items + 1),
                                 dtype=np.float32)
        targets_dense[np.arange(batch_size), batch.targets] = 1.0
        bce = F.binary_cross_entropy(yhat, targets_dense, reduction="none")
        col_mask = np.ones(self.n_items + 1, dtype=np.float32)
        col_mask[0] = 0.0
        ce_loss = (bce * Tensor(col_mask)).sum() * (1.0 / batch_size)

        if cfg.loss_mode == "reward_only":
            loss = reward_loss * cfg.beta
        elif cfg.loss_mode == "ce_only":
            loss = ce_loss
        else:
            loss = reward_loss * cfg.beta + ce_loss

        stats = StepStats(
            loss=float(loss.item()),
            reward_loss=float(reward_loss.item()),
            ce_loss=float(ce_loss.item()),
            mean_reward=float(discounted.mean()),
            num_paths=rollout.num_paths,
            reward_components={k: float(v.mean())
                               for k, v in components.items()},
        )
        return loss, stats

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def recommend(self, batch: SessionBatch, k: int = 20,
                  sizes: Optional[Tuple[int, ...]] = None,
                  workspace: Optional[RolloutWorkspace] = None,
                  candidates: Optional["WalkConstraint"] = None
                  ) -> Recommendations:
        """Top-``k`` items plus the best explanation path per item.

        ``workspace`` pins this call's telemetry carrier (see
        :meth:`walk`); required when several threads share the agent.
        Note the train/eval flag is module state, not per-thread:
        serving an agent while another thread trains it is not
        supported (grad mode is thread-local, dropout mode is not).

        ``candidates`` constrains the walk (see :meth:`walk`) and
        restricts final scoring to the candidate set: non-candidate
        columns score ``-1.0``, strictly below every reachable item
        (path probabilities are non-negative), so the top-k here can
        never rank one above a candidate.
        """
        if self.training:
            self.eval()
        cfg = self.config
        ws = workspace if workspace is not None else self.workspace
        metrics, spans = ws.metrics, ws.spans
        with no_grad():
            session_repr = self.encoder.encode(batch)
            walk_t0 = perf_counter()
            rollout = self.walk(session_repr, batch, sizes=sizes,
                                workspace=workspace, candidates=candidates)
            walk_dur = perf_counter() - walk_t0
            scores = self.aggregate_scores_numpy(rollout, batch.batch_size)
            if cfg.fallback_to_encoder:
                scores = self._encoder_fallback(scores, session_repr)
            if candidates is not None:
                scores = np.where(candidates.item_allowed, scores, -1.0)
        topk_t0 = perf_counter()
        ranked = _top_k(scores, k)
        paths = self._best_paths(rollout)
        topk_dur = perf_counter() - topk_t0
        if metrics is not None:
            metrics.observe("walk_seconds", walk_dur)
            metrics.observe("topk_seconds", topk_dur)
        if spans is not None:
            spans.append((_SPAN_WALK, walk_t0, walk_dur))
            spans.append((_SPAN_TOPK, topk_t0, topk_dur))
        return Recommendations(scores=scores, ranked_items=ranked, paths=paths)

    def _encoder_fallback(self, scores: np.ndarray,
                          session_repr: Tensor) -> np.ndarray:
        """Fill unreached items with down-scaled encoder scores.

        The floor is **per row** (each row's own smallest positive walk
        score; 1.0 for rows the walk reached nothing from), so a row's
        filled scores never depend on its batch-mates — required for
        row-level result reuse (in-flush dedup) to be bit-exact, and
        sufficient for correctness: the fill
        is ``1e-6 * floor * probs`` with ``probs <= 1``, strictly below
        every genuine path score of that row.
        """
        logits = self.encoder.score_items(session_repr).data
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        positive = np.where(scores > 0, scores, np.inf)
        floor = positive.min(axis=1, keepdims=True)
        floor = np.where(np.isfinite(floor), floor, 1.0)
        unreached = scores <= 0
        out = scores.copy()
        fill = 1e-6 * floor * probs
        out[unreached] = fill[unreached]
        out[:, 0] = 0.0
        return out

    def _best_paths(self, rollout: Rollout) -> PathTable:
        items = self.env.built.items_of_entities(rollout.terminals)
        return PathTable(rollout.session_idx, items, rollout.entities,
                         rollout.relations, rollout.prob, self.n_items)


def clone_agent(agent: REKSAgent) -> REKSAgent:
    """Structural copy of an agent with independent *trainable* state.

    The encoder and policy modules are deep-copied (fresh parameter
    arrays, no shared autograd state) **except the frozen TransE
    entity/relation tables**, which dominate the parameter count at
    paper dims and are never trained unless ``finetune_kg_embeddings``
    is set: their read-only payloads are aliased into the clone
    (deepcopy memo), making a clone — and therefore a serving
    hot-swap — O(trainable params) instead of O(all params).  Loading
    a checkpoint into the clone preserves the sharing via the
    copy-on-write path in ``Module.load_state_dict`` (identical frozen
    payloads are skipped; a genuinely different table would get a
    private copy, never corrupt the shared buffer).  The environment,
    reward computer, and config are shared as before.
    """
    import copy

    memo: dict = {}
    policy = agent.policy
    for emb in (policy.entity_emb, policy.relation_emb):
        weight = emb.weight
        if not weight.requires_grad and not weight.data.flags.writeable:
            memo[id(weight.data)] = weight.data  # alias, don't copy
    clone = REKSAgent(copy.deepcopy(agent.encoder),
                      copy.deepcopy(agent.policy, memo),
                      agent.env, agent.rewards, agent.config,
                      workspace=RolloutWorkspace())
    clone.eval()
    return clone


def segment_top_k(scores: np.ndarray, row_of: np.ndarray,
                  k: int) -> np.ndarray:
    """Cells of each row's ``k`` highest scores, as ascending indices.

    ``row_of`` (non-decreasing) assigns every cell to a row; a row
    with at most ``k`` cells keeps them all, and an exact tie at the
    cut keeps the lower index.
    """
    starts, counts = F.segments(row_of)
    if not len(scores) or k >= counts.max():
        return np.arange(len(scores))
    if k == 1:
        # The paper's last-hop size: a per-row arg-max needs no sort —
        # the first cell of each row that equals the row's maximum.
        best = np.flatnonzero(
            scores == np.repeat(np.maximum.reduceat(scores, starts), counts))
        return best[F.segments(row_of[best])[0]]
    # Stable sort by (row, -score): rows stay where they were, so rank
    # within a row is position minus the row's (unchanged) start.
    order = np.lexsort((-scores, row_of))
    rank = np.arange(len(scores)) - np.repeat(starts, counts)
    return np.sort(order[rank < k])


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's ``k`` best item ids, best first, in the total order
    ``(-score, item id)``.

    A total order makes every row's top-``k`` the first ``k`` of its
    top-``K`` for any ``K >= k``, so one ranking serves every smaller
    ``k`` by slicing.  Column 0 is the padding item and is never
    selected; ``k`` is clipped to the catalogue (``shape[1] - 1``).
    """
    if k < 1:
        # argpartition(kth=k-1)[:, :k] would slice from the end and
        # return almost the whole catalogue.
        raise ValueError(f"k must be >= 1, got {k}")
    items = scores[:, 1:]
    k = min(k, items.shape[1])
    rows = np.arange(len(items))[:, None]
    part = np.argpartition(-items, kth=k - 1, axis=1)[:, :k]
    kept = items[rows, part]
    cut = kept.min(axis=1, keepdims=True)
    # argpartition keeps an arbitrary subset of the scores equal to the
    # cut; a row whose tie group spills past it takes the group's lowest
    # ids instead (a stable sort keeps ties in id order).
    spill = np.flatnonzero((items == cut).sum(axis=1)
                           > (kept == cut).sum(axis=1))
    if spill.size:
        part[spill] = np.argsort(-items[spill], axis=1,
                                 kind="stable")[:, :k]
        kept[spill] = items[spill[:, None], part[spill]]
    order = np.lexsort((part, -kept), axis=1)
    return part[rows, order] + 1
