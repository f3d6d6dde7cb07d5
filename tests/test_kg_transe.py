"""Unit tests for TransE pre-training."""

import hashlib

import numpy as np
import pytest

from repro.kg import TransE, TransEConfig


class TestTraining:
    def test_positive_energy_below_negative(self, beauty_kg, beauty_transe):
        h, r, t = beauty_kg.kg.triples()
        rng = np.random.default_rng(0)
        corrupt = rng.integers(0, beauty_kg.kg.num_entities, size=len(h))
        pos = beauty_transe.energy(h, r, t).mean()
        neg = beauty_transe.energy(h, r, corrupt).mean()
        assert pos < neg - 0.3

    def test_entities_stay_normalized(self, beauty_transe):
        norms = np.linalg.norm(beauty_transe.entity, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-4)

    def test_deterministic_under_seed(self, beauty_kg):
        cfg = TransEConfig(dim=8, epochs=2, seed=3)
        a = TransE(beauty_kg.kg.num_entities, beauty_kg.kg.num_relations, cfg)
        a.fit(beauty_kg.kg)
        b = TransE(beauty_kg.kg.num_entities, beauty_kg.kg.num_relations, cfg)
        b.fit(beauty_kg.kg)
        np.testing.assert_allclose(a.entity, b.entity)

    # sha256 of the fitted tables' bytes, recorded from the reference
    # update, five per-role ``np.add.at`` row scatters (x86-64, NumPy
    # 2.4).  Keyed by (batch size, epochs): batch 2048 takes the tiny
    # KG in three batches, batch 256 in seventeen.
    PINNED = {
        (2048, 5): (
            "ec3e9d2b32bba6ecf4b24e54c22e2932a8d0872d57426ebcd7e7e30d388392bb",
            "b1da89023fa26e53a6eec1f72dc0326df10677330cacf2ff75c86fd4e8a6b048"),
        (256, 3): (
            "22921771e5b869745733a68f2ff942c16eb969ffd58edd22adaaf804c18c8f2b",
            "c4bd7de3b15b33bada73e8e62f50afa780d47ee3fd6b5b26091cb59d438d953e"),
    }

    @pytest.mark.parametrize("batch_size,epochs", sorted(PINNED))
    def test_fit_is_bit_identical_to_pinned_digests(self, beauty_kg,
                                                    batch_size, epochs):
        model = TransE(beauty_kg.kg.num_entities, beauty_kg.kg.num_relations,
                       TransEConfig(dim=16, epochs=epochs,
                                    batch_size=batch_size, seed=5))
        model.fit(beauty_kg.kg)
        digests = tuple(hashlib.sha256(table.tobytes()).hexdigest()
                        for table in (model.entity, model.relation))
        assert digests == self.PINNED[batch_size, epochs]

    def test_empty_triples_noop(self):
        model = TransE(5, 2, TransEConfig(dim=4, epochs=1))
        before = model.entity.copy()
        model.fit_triples(np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64))
        np.testing.assert_allclose(model.entity, before)


class TestAccessors:
    def test_embedding_tables_are_copies(self, beauty_transe):
        ents, rels = beauty_transe.embedding_tables()
        ents[...] = 0.0
        assert not np.allclose(beauty_transe.entity, 0.0)

    def test_item_embeddings_layout(self, beauty_kg, beauty_transe):
        table = beauty_transe.item_embeddings(beauty_kg.item_entity)
        assert table.shape == (beauty_kg.n_items + 1,
                               beauty_transe.config.dim)
        np.testing.assert_allclose(table[0], 0.0)  # padding row
        np.testing.assert_allclose(
            table[1], beauty_transe.entity[beauty_kg.item_entity[1]])

    def test_energy_shape(self, beauty_transe, beauty_kg):
        h, r, t = beauty_kg.kg.triples()
        assert beauty_transe.energy(h[:10], r[:10], t[:10]).shape == (10,)
