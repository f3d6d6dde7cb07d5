"""End-to-end REKS training (Algorithm 1) and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import Adam, clip_grad_norm
from repro.core.agent import REKSAgent, Recommendations
from repro.core.config import REKSConfig
from repro.core.environment import KGEnvironment
from repro.core.policy import PolicyNetwork
from repro.core.rewards import RewardComputer, RewardWeights
from repro.data.loader import SessionBatch, SessionBatcher
from repro.data.schema import Session, SessionDataset
from repro.eval.metrics import evaluate_rankings
from repro.kg.builder import BuiltKG
from repro.kg.transe import TransE, TransEConfig
from repro.models.registry import create_encoder


@dataclass
class REKSHistory:
    """Per-epoch training diagnostics."""

    losses: List[float] = field(default_factory=list)
    reward_losses: List[float] = field(default_factory=list)
    ce_losses: List[float] = field(default_factory=list)
    mean_rewards: List[float] = field(default_factory=list)
    val_metrics: List[Dict[str, float]] = field(default_factory=list)
    best_epoch: int = -1


class REKSTrainer:
    """Builds and trains the full REKS stack for one dataset + encoder.

    Parameters
    ----------
    dataset:
        The session dataset (synthetic Amazon or MovieLens).
    built:
        The finalized knowledge graph bundle from :func:`build_kg`.
    model_name:
        One of gru4rec / narm / srgnn / gcsan / bert4rec — the
        non-explainable model REKS wraps.
    transe:
        Optional pre-trained TransE (reused across trainers for speed);
        trained from scratch when omitted.
    """

    def __init__(self, dataset: SessionDataset, built: BuiltKG,
                 model_name: str = "narm",
                 config: Optional[REKSConfig] = None,
                 transe: Optional[TransE] = None) -> None:
        self.dataset = dataset
        self.built = built
        self.config = config or REKSConfig()
        cfg = self.config
        self.model_name = model_name
        rng = np.random.default_rng(cfg.seed)

        if transe is None:
            transe = TransE(built.kg.num_entities, built.kg.num_relations,
                            TransEConfig(dim=cfg.dim, lr=cfg.transe_lr,
                                         margin=cfg.transe_margin,
                                         epochs=cfg.transe_epochs,
                                         seed=cfg.seed + 7))
            transe.fit(built.kg)
        self.transe = transe
        entity_table, relation_table = transe.embedding_tables()
        item_init = transe.item_embeddings(built.item_entity)

        self.encoder = create_encoder(
            model_name, n_items=dataset.n_items, dim=cfg.dim,
            item_init=item_init, rng=rng, dropout=cfg.dropout)
        self.policy = PolicyNetwork(
            session_dim=cfg.dim, kg_dim=cfg.dim, state_dim=cfg.state_dim,
            entity_table=entity_table, relation_table=relation_table,
            dropout=cfg.dropout, finetune=cfg.finetune_kg_embeddings,
            rng=rng)
        self.env = KGEnvironment(built, action_cap=cfg.action_cap,
                                 seed=cfg.seed + 3)
        weights = RewardWeights(*cfg.reward_weights)
        self.rewards = RewardComputer(
            built, entity_table, relation_table, weights=weights,
            mode=cfg.reward_mode, gamma=cfg.gamma, rank_k=cfg.rank_k)
        self.agent = REKSAgent(self.encoder, self.policy, self.env,
                               self.rewards, cfg)
        self.optimizer = Adam(self.agent.parameters(), lr=cfg.lr,
                              weight_decay=cfg.weight_decay)
        self.history = REKSHistory()

    # ------------------------------------------------------------------
    def fit(self, train_sessions: Optional[Sequence[Session]] = None,
            val_sessions: Optional[Sequence[Session]] = None,
            verbose: bool = False) -> REKSHistory:
        cfg = self.config
        train_sessions = (self.dataset.split.train if train_sessions is None
                          else train_sessions)
        val_sessions = (self.dataset.split.validation if val_sessions is None
                        else val_sessions)
        batcher = SessionBatcher(
            train_sessions, batch_size=cfg.batch_size,
            max_length=cfg.max_session_length,
            augment=cfg.augment_sessions, shuffle=True,
            rng=np.random.default_rng(cfg.seed + 11))

        best_score, best_state, bad = -np.inf, None, 0
        for epoch in range(cfg.epochs):
            self.agent.train()
            sums = {"loss": 0.0, "reward_loss": 0.0, "ce_loss": 0.0,
                    "mean_reward": 0.0}
            batches = 0
            for batch in batcher:
                self.optimizer.zero_grad()
                loss, stats = self.agent.losses(batch)
                loss.backward()
                clip_grad_norm(self.agent.parameters(), cfg.max_grad_norm)
                self.optimizer.step()
                sums["loss"] += stats.loss
                sums["reward_loss"] += stats.reward_loss
                sums["ce_loss"] += stats.ce_loss
                sums["mean_reward"] += stats.mean_reward
                batches += 1
            for key in sums:
                sums[key] /= max(1, batches)
            self.history.losses.append(sums["loss"])
            self.history.reward_losses.append(sums["reward_loss"])
            self.history.ce_losses.append(sums["ce_loss"])
            self.history.mean_rewards.append(sums["mean_reward"])

            metrics = self.evaluate(val_sessions, ks=(10,))
            self.history.val_metrics.append(metrics)
            score = metrics["HR@10"]
            if verbose:
                print(f"[REKS_{self.model_name}] epoch {epoch + 1}: "
                      f"loss={sums['loss']:.4f} "
                      f"reward={sums['mean_reward']:.3f} "
                      f"val HR@10={score:.2f}")
            if score > best_score:
                best_score, best_state, bad = score, self.agent.state_dict(), 0
                self.history.best_epoch = epoch
            else:
                bad += 1
                if bad > cfg.patience:
                    break
        if best_state is not None:
            self.agent.load_state_dict(best_state)
        return self.history

    # ------------------------------------------------------------------
    def finetune(self, sessions: Sequence[Session],
                 max_steps: Optional[int] = None,
                 shuffle: bool = True) -> Dict[str, float]:
        """One incremental pass over a session delta (continual learning).

        Runs up to ``max_steps`` ordinary training steps — the same
        losses/clip/optimizer sequence as :meth:`fit` — over just the
        given sessions, without augmentation (an online delta is small
        and fresh; prefix expansion would overweight it) and without
        touching the early-stopping state.  Returns the step-averaged
        diagnostics.  Used by :class:`repro.online.OnlineUpdater`
        between checkpoint publishes.
        """
        cfg = self.config
        batcher = SessionBatcher(
            sessions, batch_size=cfg.batch_size,
            max_length=cfg.max_session_length, augment=False,
            shuffle=shuffle, rng=np.random.default_rng(cfg.seed + 23))
        self.agent.train()
        sums = {"loss": 0.0, "reward_loss": 0.0, "ce_loss": 0.0,
                "mean_reward": 0.0}
        steps = 0
        for batch in batcher:
            if max_steps is not None and steps >= max_steps:
                break
            self.optimizer.zero_grad()
            loss, stats = self.agent.losses(batch)
            loss.backward()
            clip_grad_norm(self.agent.parameters(), cfg.max_grad_norm)
            self.optimizer.step()
            sums["loss"] += stats.loss
            sums["reward_loss"] += stats.reward_loss
            sums["ce_loss"] += stats.ce_loss
            sums["mean_reward"] += stats.mean_reward
            steps += 1
        self.agent.eval()
        for key in sums:
            sums[key] /= max(1, steps)
        sums["steps"] = float(steps)
        return sums

    # ------------------------------------------------------------------
    def recommend_sessions(self, sessions: Sequence[Session], k: int = 20,
                           batch_size: int = 256) -> List[Recommendations]:
        """Batch inference over a session list."""
        sessions = list(sessions)
        if not sessions:
            # Match evaluate's empty-input guard instead of building a
            # degenerate zero-example SessionBatcher.
            return []
        batcher = SessionBatcher(sessions, batch_size=batch_size,
                                 max_length=self.config.max_session_length,
                                 augment=False, shuffle=False)
        return [self.agent.recommend(batch, k=k) for batch in batcher]

    def serve(self, **options):
        """A request-coalescing :class:`RecommendationServer` over this
        trainer's agent.

        ``options`` are :class:`RecommendationServer`'s keywords, passed
        through unchanged (its signature is the one list of them and
        their defaults).  The caller owns shutdown — use it as a
        context manager.
        """
        from repro.serving import RecommendationServer

        return RecommendationServer(self.agent, **options)

    def evaluate_prefixes(self, sessions: Sequence[Session],
                          ks=(5, 10, 20)) -> Dict[str, float]:
        """Prefix-augmented evaluation (extension protocol).

        Every session of length L contributes L-1 prediction points
        (items[:1]->items[1], ...), the stricter protocol some SR papers
        report alongside last-item evaluation.
        """
        expanded: List[Session] = []
        for session in sessions:
            for cut in range(1, len(session.items)):
                expanded.append(Session(session.items[:cut + 1],
                                        session.user_id, session.day))
        return self.evaluate(expanded, ks=ks)

    def evaluate(self, sessions: Sequence[Session],
                 ks=(5, 10, 20), server=None) -> Dict[str, float]:
        """HR/NDCG/MRR over path-based rankings (in percent).

        With ``server`` (a :class:`repro.serving.RecommendationServer`
        wrapping this trainer's agent) rankings are produced through
        its coalescing ``recommend_many`` path instead of the local
        synchronous batcher; results are identical by the serving
        determinism contract.

        Sessions with fewer than 2 items carry no (prefix, target)
        example and are dropped from both rankings and targets — the
        batcher already skipped them, so counting their targets would
        misalign every following row.
        """
        sessions = [s for s in sessions if len(s.items) >= 2]
        if not sessions:
            return {f"{m}@{k}": 0.0 for k in ks for m in ("HR", "NDCG", "MRR")}
        max_k = max(ks)
        ranked: List[np.ndarray] = []
        if server is not None:
            for result in server.recommend_many(sessions, k=max_k):
                ranked.append(np.asarray(result.items, dtype=np.int64))
        else:
            for rec in self.recommend_sessions(sessions, k=max_k):
                ranked.extend(rec.ranked_items)
        targets = [s.target for s in sessions]
        return evaluate_rankings(ranked, targets, ks=ks)

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Checkpoint the full agent (encoder + policy) to ``.npz``."""
        from repro.io import save_module

        save_module(path, self.agent, model=self.model_name,
                    dataset=self.dataset.name, dim=self.config.dim)

    def load(self, path) -> None:
        """Restore a checkpoint written by :meth:`save`.

        The header must match this trainer's model name, dataset, and
        dimension — loading a mismatched checkpoint raises ValueError.
        """
        from repro.io import load_module

        load_module(path, self.agent, model=self.model_name,
                    dataset=self.dataset.name, dim=self.config.dim)
