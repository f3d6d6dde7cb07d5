"""Unit tests for semantic path utilities."""

import numpy as np
import pytest

from repro.kg.paths import (
    PathTable,
    SemanticPath,
    mean_path_embedding,
    path_diversity,
    render_path,
)
from repro.kg.graph import KnowledgeGraph


@pytest.fixture()
def named_kg():
    kg = KnowledgeGraph()
    kg.add_entity_type("product", 3)
    kg.add_entity_type("category", 1)
    kg.add_relation("belong_to")
    kg.add_triples([0, 1], 0, [3, 3])
    kg.add_triples([3, 3], 0, [0, 1])
    kg.finalize()
    kg.entity_names[0] = "Shampoo"
    kg.entity_names[1] = "Conditioner"
    kg.entity_names[3] = "HairCare"
    return kg


class TestSemanticPath:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            SemanticPath(entities=[1, 2, 3], relations=[0])

    def test_properties(self):
        p = SemanticPath(entities=[0, 3, 1], relations=[0, 0], prob=0.5)
        assert p.terminal == 1
        assert p.hops == 2
        assert p.is_simple()

    def test_non_simple_detected(self):
        p = SemanticPath(entities=[0, 3, 0], relations=[0, 0])
        assert not p.is_simple()

    def test_pattern(self, named_kg):
        p = SemanticPath(entities=[0, 3, 1], relations=[0, 0])
        assert p.pattern(named_kg) == ("belong_to", "belong_to")


class TestRendering:
    def test_render_uses_names(self, named_kg):
        p = SemanticPath(entities=[0, 3, 1], relations=[0, 0])
        text = render_path(p, named_kg)
        assert text == ("Shampoo --belong_to--> HairCare "
                        "--belong_to--> Conditioner")

    def test_render_falls_back_to_type_local(self, named_kg):
        p = SemanticPath(entities=[2, 3, 1], relations=[0, 0])
        assert render_path(p, named_kg).startswith("product:2 ")


class TestEmbeddingsAndDiversity:
    def test_mean_path_embedding(self):
        entities = np.arange(12, dtype=np.float64).reshape(4, 3)
        relations = np.ones((2, 3), dtype=np.float64)
        p = SemanticPath(entities=[0, 1, 2], relations=[0, 0])
        emb = mean_path_embedding(entities, relations, p)
        manual = (entities[0] + relations[0] + entities[1]
                  + relations[0] + entities[2]) / 5.0
        np.testing.assert_allclose(emb, manual)

    def test_path_diversity(self, named_kg):
        a = SemanticPath(entities=[0, 3, 1], relations=[0, 0])
        b = SemanticPath(entities=[1, 3, 0], relations=[0, 0])
        assert path_diversity([a, b], named_kg) == pytest.approx(0.5)
        assert path_diversity([], named_kg) == 0.0


class TestPathTableTake:
    def test_take_matches_per_item_lookups(self):
        """``take`` is the per-item ``blob`` / ``get`` of each item in
        order: same tuples, same ``SemanticPath`` values, None for
        unreached and out-of-range items, repeats allowed."""
        rng = np.random.default_rng(4)
        n_items, rows, paths, hops = 9, 4, 60, 2
        table = PathTable(
            rng.integers(0, rows, size=paths),
            rng.integers(0, n_items + 1, size=paths),   # 0 = no item
            rng.integers(0, 30, size=(paths, hops + 1)),
            rng.integers(0, 3, size=(paths, hops)),
            rng.choice([0.125, 0.25, 0.5], size=paths), n_items)
        reached = 0
        for row in range(rows + 1):                     # one empty row
            items = rng.permutation(np.arange(-1, n_items + 3)).tolist()
            items += items[:3]
            want = [table.blob(row, item) for item in items]
            assert table.take(row, items) == want
            assert table.take(row, np.array(items)) == want
            for blob, item in zip(want, items):
                path = table.get((row, item))
                if blob is None:
                    assert path is None
                else:
                    reached += 1
                    assert path == SemanticPath(*blob)
                    assert type(blob[2]) is float
                    assert all(type(e) is int for e in blob[0] + blob[1])
            assert table.take(row, []) == []
        assert reached > 0


class TestPathTableTakeBlock:
    def _table(self, rng, n_items=9, rows=4, paths=60, hops=2):
        return PathTable(
            rng.integers(0, rows, size=paths),
            rng.integers(0, n_items + 1, size=paths),   # 0 = no item
            rng.integers(0, 30, size=(paths, hops + 1)),
            rng.integers(0, 3, size=(paths, hops)),
            rng.choice([0.125, 0.25, 0.5], size=paths), n_items)

    def test_take_block_matches_per_item_blob(self):
        """``take_block`` is ``blob`` of every cell at once: unreached
        items, ``item <= 0``, ``item >= stride`` (whose key would alias
        the next row's) and a row with no paths all come back absent."""
        rng = np.random.default_rng(4)
        n_items, rows = 9, 4
        table = self._table(rng, n_items, rows)
        cell_rows, cell_items = [], []
        for row in range(rows + 1):                     # one empty row
            items = rng.permutation(np.arange(-2, n_items + 4)).tolist()
            cell_rows += [row] * (len(items) + 3)
            cell_items += items + items[:3]             # repeats allowed
        found, nodes, probs = table.take_block(np.array(cell_rows),
                                               np.array(cell_items))
        want = [table.blob(row, item)
                for row, item in zip(cell_rows, cell_items)]
        assert found.tolist() == [blob is not None for blob in want]
        assert found.any() and not found.all()
        assert nodes.dtype == np.int32 and nodes.shape[1] == 5
        got = [(n[:3], n[3:], p)
               for n, p in zip(nodes.tolist(), probs.tolist())]
        assert got == [blob for blob in want if blob is not None]
        assert table.take_block([1, 1], [3, -1])[0].shape == (2,)

    def test_take_block_on_an_empty_table(self):
        table = PathTable(np.zeros(0, np.int64), np.zeros(0, np.int64),
                          np.zeros((0, 3), np.int64),
                          np.zeros((0, 2), np.int64), np.zeros(0), 9)
        found, nodes, probs = table.take_block(np.array([0, 1]),
                                               np.array([3, 4]))
        assert found.tolist() == [False, False]
        assert nodes.shape == (0, 5) and probs.shape == (0,)
