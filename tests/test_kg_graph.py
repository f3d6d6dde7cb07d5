"""Unit tests for the KnowledgeGraph store."""

import numpy as np
import pytest

from repro.kg.graph import KnowledgeGraph


@pytest.fixture()
def small_kg():
    kg = KnowledgeGraph()
    kg.add_entity_type("product", 3)   # entities 0..2
    kg.add_entity_type("brand", 2)     # entities 3..4
    rel = kg.add_relation("produced_by")
    co = kg.add_relation("co_occur")
    kg.add_triples([0, 1], rel, [3, 4])
    kg.add_triples([0], co, [1])
    kg.finalize()
    return kg, rel, co


class TestSchema:
    def test_entity_id_ranges(self, small_kg):
        kg, _, _ = small_kg
        assert kg.entity_id("product", 0) == 0
        assert kg.entity_id("brand", 0) == 3
        assert kg.local_id(4) == ("brand", 1)
        assert kg.entity_type(2) == "product"

    def test_entity_id_out_of_range(self, small_kg):
        kg, _, _ = small_kg
        with pytest.raises(IndexError):
            kg.entity_id("brand", 2)
        with pytest.raises(IndexError):
            kg.local_id(99)

    def test_duplicate_type_raises(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("product", 2)
        with pytest.raises(ValueError):
            kg.add_entity_type("product", 2)

    def test_is_type_vectorized(self, small_kg):
        kg, _, _ = small_kg
        np.testing.assert_array_equal(
            kg.is_type(np.array([0, 3, 2, 4]), "product"),
            [True, False, True, False])

    def test_relation_registration_idempotent(self):
        kg = KnowledgeGraph()
        a = kg.add_relation("x")
        b = kg.add_relation("x")
        assert a == b
        assert kg.num_relations == 1


class TestTriples:
    def test_neighbors(self, small_kg):
        kg, rel, co = small_kg
        rels, tails = kg.neighbors(0)
        assert set(zip(rels.tolist(), tails.tolist())) == {(rel, 3), (co, 1)}
        assert kg.out_degree(0) == 2
        assert kg.out_degree(2) == 0

    def test_has_edge(self, small_kg):
        kg, rel, co = small_kg
        assert kg.has_edge(0, rel, 3)
        assert not kg.has_edge(0, rel, 4)

    def test_count_edges_for_relation(self, small_kg):
        kg, rel, co = small_kg
        assert kg.count_edges_for_relation(rel) == 2
        assert kg.count_edges_for_relation(co) == 1

    def test_dedupe(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("n", 2)
        r = kg.add_relation("r")
        kg.add_triples([0, 0, 0], r, [1, 1, 1])
        kg.finalize()
        assert kg.num_triples == 1

    def test_out_of_range_triples_raise(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("n", 2)
        r = kg.add_relation("r")
        with pytest.raises(IndexError):
            kg.add_triples([0], r, [5])

    def test_query_before_finalize_raises(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("n", 2)
        with pytest.raises(RuntimeError):
            kg.neighbors(0)

    def test_add_after_finalize_raises(self, small_kg):
        kg, rel, _ = small_kg
        with pytest.raises(RuntimeError):
            kg.add_triples([0], rel, [1])

    def test_mismatched_shapes_raise(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("n", 3)
        r = kg.add_relation("r")
        with pytest.raises(ValueError):
            kg.add_triples([0, 1], r, [2])

    def test_empty_graph_finalizes(self):
        kg = KnowledgeGraph()
        kg.add_entity_type("n", 3)
        kg.finalize()
        assert kg.num_triples == 0
        rels, tails = kg.neighbors(1)
        assert len(rels) == 0


class TestNames:
    def test_entity_name_fallback(self, small_kg):
        kg, _, _ = small_kg
        assert kg.entity_name(3) == "brand:0"
        kg.entity_names[3] = "Dove"
        assert kg.entity_name(3) == "Dove"

    def test_local_id_matches_a_range_scan_for_every_entity(self):
        """Owner type by bisection over the range starts, including
        empty types in front of, between and behind the others."""
        kg = KnowledgeGraph()
        counts = [("ghost", 0), ("product", 3), ("void", 0), ("empty", 0),
                  ("brand", 2), ("category", 1), ("tail", 0)]
        for name, count in counts:
            kg.add_entity_type(name, count)
        kg.entity_names[4] = "Dove"
        expected = [(name, local) for name, count in counts
                    for local in range(count)]
        assert kg.num_entities == len(expected) == 6
        for entity, (name, local) in enumerate(expected):
            assert kg.local_id(entity) == (name, local)
            assert kg.local_id(np.int64(entity)) == (name, local)
            assert kg.entity_type(entity) == name
            assert kg.entity_id(name, local) == entity
            assert kg.entity_name(entity) == (
                "Dove" if entity == 4 else f"{name}:{local}")
        assert kg.entity_name(np.int64(4)) == "Dove"
        for bad in (-1, 6, 7, np.int64(-1), np.int64(6)):
            with pytest.raises(IndexError, match="out of range"):
                kg.local_id(bad)
            with pytest.raises(IndexError, match="out of range"):
                kg.entity_name(bad)

    def test_no_entity_types_means_every_id_is_out_of_range(self):
        with pytest.raises(IndexError):
            KnowledgeGraph().entity_name(0)
