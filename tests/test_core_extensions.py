"""Tests for extension features: diversity report, prefix evaluation,
encoder fallback, KG-embedding finetuning, and the training walk's
flat frontier."""

import numpy as np
import pytest

from repro.core import Explainer, REKSConfig, REKSTrainer
from repro.data.schema import Session


@pytest.fixture(scope="module")
def fitted(beauty_tiny, beauty_kg, beauty_transe):
    cfg = REKSConfig(dim=16, state_dim=16, epochs=2, batch_size=64,
                     action_cap=60, sample_sizes=(100, 4), seed=5)
    trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                          config=cfg, transe=beauty_transe)
    trainer.fit()
    return trainer


class TestDiversityReport:
    def test_report_structure(self, fitted, beauty_tiny):
        explainer = Explainer(fitted)
        cases = explainer.explain_sessions(beauty_tiny.split.test[:10], k=5)
        report = explainer.diversity_report(cases)
        assert report["cases"] == 10
        assert report["recommendations"] > 0
        assert 0.0 < report["path_coverage"] <= 1.0
        assert 0.0 <= report["mean_relevance"] <= 1.0
        assert report["distinct_patterns"] >= 1
        assert sum(report["pattern_counts"].values()) <= report[
            "recommendations"]

    def test_patterns_are_two_hop(self, fitted, beauty_tiny):
        explainer = Explainer(fitted)
        cases = explainer.explain_sessions(beauty_tiny.split.test[:5], k=3)
        report = explainer.diversity_report(cases)
        for pattern in report["pattern_counts"]:
            assert pattern.count("->") == 1  # two relations per path

    def test_empty_cases(self, fitted):
        report = Explainer(fitted).diversity_report([])
        assert report["cases"] == 0
        assert report["path_coverage"] == 0.0


class TestPrefixEvaluation:
    def test_expands_sessions(self, fitted, beauty_tiny):
        sessions = beauty_tiny.split.test[:10]
        metrics = fitted.evaluate_prefixes(sessions, ks=(10,))
        assert 0.0 <= metrics["HR@10"] <= 100.0

    def test_prefix_harder_or_equal(self, fitted, beauty_tiny):
        """Short prefixes are harder; prefix-HR is typically <= last-item
        HR on this generator (weak check with slack for noise)."""
        sessions = beauty_tiny.split.test[:40]
        last = fitted.evaluate(sessions, ks=(10,))["HR@10"]
        prefix = fitted.evaluate_prefixes(sessions, ks=(10,))["HR@10"]
        assert prefix <= last + 15.0


class TestEncoderFallback:
    def test_fallback_fills_ranking(self, beauty_tiny, beauty_kg,
                                    beauty_transe):
        cfg = REKSConfig(dim=16, state_dim=16, epochs=1, batch_size=64,
                         action_cap=60, fallback_to_encoder=True, seed=0)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="gru4rec",
                              config=cfg, transe=beauty_transe)
        trainer.fit()
        rec = trainer.recommend_sessions(beauty_tiny.split.test[:8],
                                         k=20)[0]
        # With fallback every non-padding item gets some score, so the
        # full top-20 is populated.
        assert (rec.scores[:, 1:] > 0).all()

    def test_fallback_preserves_path_ranking(self, beauty_tiny, beauty_kg,
                                             beauty_transe):
        """Fallback scores must never outrank genuine path scores."""
        cfg = REKSConfig(dim=16, state_dim=16, epochs=1, batch_size=64,
                         action_cap=60, fallback_to_encoder=True, seed=0)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="gru4rec",
                              config=cfg, transe=beauty_transe)
        trainer.fit()
        recs = trainer.recommend_sessions(beauty_tiny.split.test[:8], k=20)
        rec = recs[0]
        for (row, item), path in rec.paths.items():
            fallback_scores = [
                rec.scores[row, j] for j in range(1, rec.scores.shape[1])
                if (row, j) not in rec.paths and rec.scores[row, j] > 0]
            if fallback_scores:
                assert rec.scores[row, item] > max(fallback_scores)


class TestFinetuneKGEmbeddings:
    def test_kg_embeddings_update_when_enabled(self, beauty_tiny,
                                               beauty_kg, beauty_transe):
        cfg = REKSConfig(dim=16, state_dim=16, epochs=1, batch_size=64,
                         action_cap=40, finetune_kg_embeddings=True, seed=0)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="gru4rec",
                              config=cfg, transe=beauty_transe)
        before = trainer.policy.entity_emb.weight.data.copy()
        trainer.fit()
        after = trainer.policy.entity_emb.weight.data
        assert not np.allclose(before, after)

    def test_kg_embeddings_frozen_by_default(self, beauty_tiny, beauty_kg,
                                             beauty_transe):
        cfg = REKSConfig(dim=16, state_dim=16, epochs=1, batch_size=64,
                         action_cap=40, seed=0)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="gru4rec",
                              config=cfg, transe=beauty_transe)
        before = trainer.policy.entity_emb.weight.data.copy()
        trainer.fit()
        np.testing.assert_allclose(trainer.policy.entity_emb.weight.data,
                                   before)


class TestBucketedFrontiers:
    def test_training_step_with_buckets_backprops(self, beauty_tiny,
                                                  beauty_kg, beauty_transe):
        """The training walk runs the policy forward on the tape over
        the flat frontier: the loss is finite and gradients reach both the
        policy and the wrapped encoder through the segment ops."""
        from repro.data.loader import SessionBatcher

        cfg = REKSConfig(dim=16, state_dim=16, epochs=1, batch_size=32,
                         action_cap=60, sample_sizes=(100, 4), seed=5)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="gru4rec",
                              config=cfg, transe=beauty_transe)
        batch = next(iter(SessionBatcher(beauty_tiny.split.train,
                                         batch_size=32, shuffle=False)))
        trainer.agent.train()
        loss, stats = trainer.agent.losses(batch)
        loss.backward()
        assert np.isfinite(stats.loss)
        assert stats.num_paths > 0
        for module in (trainer.policy, trainer.encoder):
            grads = [p.grad for p in module.parameters()
                     if p.requires_grad and p.grad is not None]
            assert grads and any(np.abs(g).sum() > 0 for g in grads)

    def test_bucketed_inference_matches_flat_candidates(self, beauty_tiny,
                                                        beauty_kg,
                                                        beauty_transe):
        """Same model, one forward in grad mode vs under ``no_grad``:
        identical (session, terminal) key sets."""
        from repro.autograd import no_grad
        from repro.data.loader import SessionBatcher

        cfg = REKSConfig(dim=16, state_dim=16, epochs=1, batch_size=32,
                         action_cap=60, sample_sizes=(100, 4), seed=5)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="gru4rec",
                              config=cfg, transe=beauty_transe)
        batch = next(iter(SessionBatcher(beauty_tiny.split.test,
                                         batch_size=32, shuffle=False)))
        trainer.agent.eval()
        se = trainer.encoder.encode(batch)
        tape = trainer.agent.walk(se, batch)
        assert tape.log_prob.requires_grad
        with no_grad():
            flat = trainer.agent.walk(se, batch)

        def key_set(rollout):
            return {(int(s), int(t)) for s, t in
                    zip(rollout.session_idx, rollout.terminals)}
        assert key_set(flat) == key_set(tape)
