"""Differential tests: CSR environment vs the loop-based reference.

The CSR ``KGEnvironment`` and :class:`ReferenceKGEnvironment` consume
the action-cap RNG identically, so with equal seeds the comparison is
exact array equality, not just set equality.  The contract checked on
randomized KGs (varied degree distributions, action-cap hits,
duplicate edges, hub entities, dead ends) is that both return the
same legal-action set per frontier row — identical ``(rel, tail)``
pairs up to within-entity order — and the same mask semantics, and
that ``flat_actions`` (what every walk hop expands) is exactly the
reference grid's legal cells.
"""

import numpy as np
import pytest

from reference_env import ReferenceKGEnvironment
from repro.autograd import no_grad
from repro.core.environment import KGEnvironment
from repro.kg.builder import BuiltKG
from repro.kg.graph import KnowledgeGraph


# ----------------------------------------------------------------------
# Randomized KG construction
# ----------------------------------------------------------------------
def random_built_kg(rng, n_items=12, n_other=6, n_relations=3,
                    n_edges=120, hub_degree=0, duplicate_frac=0.0,
                    dead_ends=0):
    """A small random KG wrapped as a BuiltKG (items map to entities)."""
    kg = KnowledgeGraph()
    item_start, _ = kg.add_entity_type("product", n_items)
    kg.add_entity_type("attribute", n_other)
    for i in range(n_relations):
        kg.add_relation(f"r{i}")
    n_entities = kg.num_entities
    # The last `dead_ends` entities never appear as heads.
    head_pool = np.arange(n_entities - dead_ends)
    heads = rng.choice(head_pool, size=n_edges)
    tails = rng.integers(0, n_entities, size=n_edges)
    rel_of = rng.integers(0, n_relations, size=n_edges)
    for rel in range(n_relations):
        sel = rel_of == rel
        kg.add_triples(heads[sel], rel, tails[sel])
        if duplicate_frac > 0 and sel.any():
            n_dup = max(1, int(sel.sum() * duplicate_frac))
            kg.add_triples(heads[sel][:n_dup], rel, tails[sel][:n_dup])
    if hub_degree > 0:
        hub_tails = rng.integers(0, n_entities, size=hub_degree)
        kg.add_triples(np.zeros(hub_degree, dtype=np.int64), 0, hub_tails)
    kg.finalize()
    item_entity = np.full(n_items + 1, -1, dtype=np.int64)
    item_entity[1:] = item_start + np.arange(n_items)
    entity_item = np.zeros(kg.num_entities, dtype=np.int64)
    entity_item[item_entity[1:]] = np.arange(1, n_items + 1)
    return BuiltKG(kg=kg, item_entity=item_entity, entity_item=entity_item,
                   user_entity=None, include_users=False)


def random_frontier(rng, built, size, visited_width):
    """Random entities (with repeats) plus a visited history per row."""
    n_entities = built.kg.num_entities
    entities = rng.integers(0, n_entities, size=size)
    visited = rng.integers(0, n_entities, size=(size, visited_width))
    visited[:, 0] = entities  # the current entity is always visited
    return entities, visited


def legal_action_sets(rels, tails, mask):
    """Canonical per-row action sets: sorted (rel, tail) legal pairs."""
    return [sorted(zip(r[m].tolist(), t[m].tolist()))
            for r, t, m in zip(rels, tails, mask)]


def grid_cells(rels, tails, mask):
    """A padded grid's legal cells as flat ``(row_of, rels, tails)``
    arrays, row-major — the layout ``flat_actions`` returns."""
    return np.nonzero(mask)[0], rels[mask], tails[mask]


def assert_envs_agree(csr_env, ref_env, entities, visited, exact=True):
    got = csr_env.batched_actions(entities, visited)
    want = ref_env.batched_actions(entities, visited)
    assert got[0].shape == want[0].shape
    assert legal_action_sets(*got) == legal_action_sets(*want)
    flat = csr_env.flat_actions(entities, visited)
    if exact:  # same seed => same subsample order => identical arrays
        for g, w in zip(got, want):
            np.testing.assert_array_equal(np.asarray(g), w)
        # The flat frontier is the reference grid's legal cells.
        for f, w in zip(flat, grid_cells(*want)):
            np.testing.assert_array_equal(f, w)


# ----------------------------------------------------------------------
# Differential cases
# ----------------------------------------------------------------------
KG_VARIANTS = [
    dict(),                                           # plain random
    dict(n_edges=400, n_items=20, n_other=10),        # denser
    dict(hub_degree=300),                             # one mega-hub
    dict(duplicate_frac=0.3),                         # duplicate edges
    dict(dead_ends=4),                                # zero-degree tail
    dict(hub_degree=150, duplicate_frac=0.2, dead_ends=3),
]


@pytest.mark.parametrize("variant", range(len(KG_VARIANTS)))
@pytest.mark.parametrize("cap", [3, 10, 10_000])
def test_randomized_kgs_identical(variant, cap):
    rng = np.random.default_rng(1000 * variant + cap)
    built = random_built_kg(rng, **KG_VARIANTS[variant])
    csr_env = KGEnvironment(built, action_cap=cap, seed=variant)
    ref_env = ReferenceKGEnvironment(built, action_cap=cap, seed=variant)
    for trial in range(3):
        entities, visited = random_frontier(
            rng, built, size=rng.integers(1, 64),
            visited_width=rng.integers(1, 4))
        assert_envs_agree(csr_env, ref_env, entities, visited)


@pytest.mark.parametrize("cap", [1, 5])
def test_degrees_and_actions_of_match(cap):
    rng = np.random.default_rng(7)
    built = random_built_kg(rng, hub_degree=80, dead_ends=3)
    csr_env = KGEnvironment(built, action_cap=cap, seed=2)
    ref_env = ReferenceKGEnvironment(built, action_cap=cap, seed=2)
    for entity in range(built.kg.num_entities):
        assert csr_env.degree(entity) == ref_env.degree(entity) <= cap
        got_r, got_t = csr_env.actions_of(entity)
        want_r, want_t = ref_env.actions_of(entity)
        np.testing.assert_array_equal(np.asarray(got_r), want_r)
        np.testing.assert_array_equal(np.asarray(got_t), want_t)


def test_workspace_reuse_matches_fresh_allocation():
    """Consecutive frontiers that grow and shrink stay exact: nothing
    sized by one frontier carries into the next."""
    rng = np.random.default_rng(11)
    built = random_built_kg(rng, n_edges=300, hub_degree=60)
    csr_env = KGEnvironment(built, action_cap=40, seed=0)
    ref_env = ReferenceKGEnvironment(built, action_cap=40, seed=0)
    for size in (64, 8, 128, 1, 32):
        entities, visited = random_frontier(rng, built, size, 2)
        assert_envs_agree(csr_env, ref_env, entities, visited)


def test_workspace_reuse_is_tape_safe():
    """A later write to a frontier's arrays must not corrupt a pending
    autograd tape.

    Embedding lookups copy the int32 ``tails`` cells (dtype-preserving)
    before any backward closure retains them.  Pin it: look a frontier
    up through an Embedding, overwrite the caller's ``tails`` in place,
    then backward — the gradient must land at the *original* indices,
    bit-identical to an untouched-array run.
    """
    from repro.autograd.tensor import Tensor
    from repro.nn.embedding import Embedding

    rng = np.random.default_rng(13)
    built = random_built_kg(rng, n_edges=200)
    env = KGEnvironment(built, action_cap=30, seed=0)
    entities, visited = random_frontier(rng, built, 16, 2)
    _, _, tails = env.flat_actions(entities, visited)
    tails_frozen = tails.copy()

    table = rng.standard_normal(
        (built.kg.num_entities, 4)).astype(np.float32)
    upstream = rng.standard_normal(
        tails.shape + (4,)).astype(np.float32)

    emb = Embedding.from_pretrained(table, trainable=True)
    looked_up = emb(tails)  # closure must retain a *copy* of tails
    tails[:] = (tails_frozen + 1) % built.kg.num_entities
    assert not np.array_equal(tails, tails_frozen)  # really clobbered
    (looked_up * Tensor(upstream)).sum().backward()

    control = Embedding.from_pretrained(table, trainable=True)
    (control(tails_frozen) * Tensor(upstream)).sum().backward()
    np.testing.assert_array_equal(emb.weight.grad, control.weight.grad)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(25))
def test_differential_sweep(seed):
    """Broad randomized sweep (slow tier): many shapes, caps, widths."""
    rng = np.random.default_rng(seed)
    built = random_built_kg(
        rng,
        n_items=int(rng.integers(3, 40)),
        n_other=int(rng.integers(1, 20)),
        n_relations=int(rng.integers(1, 6)),
        n_edges=int(rng.integers(10, 1500)),
        hub_degree=int(rng.integers(0, 400)),
        duplicate_frac=float(rng.random() * 0.5),
        dead_ends=int(rng.integers(0, 3)),
    )
    cap = int(rng.integers(1, 300))
    csr_env = KGEnvironment(built, action_cap=cap, seed=seed)
    ref_env = ReferenceKGEnvironment(built, action_cap=cap, seed=seed)
    with no_grad():
        for trial in range(5):
            entities, visited = random_frontier(
                rng, built, size=int(rng.integers(1, 256)),
                visited_width=int(rng.integers(1, 5)))
            assert_envs_agree(csr_env, ref_env, entities, visited)
