"""CSR graph store: the bundle, compaction, and publish to workers.

Four contracts pinned here:

1. **The bundle round-trips** — ``CSRTables.build`` packs a flat
   adjacency behind the zero sentinel, its digest is content-stable
   and cached, and ``gather_flat`` returns each row's block in CSR
   order.
2. **Compaction is invisible to queries** — an environment that
   compacts answers every ``actions_of`` / ``batched_actions`` query
   identically to one that only stages, through random interleavings
   of staging, compaction and queries.
3. **Compaction equals a from-scratch build** — staging a delta and
   compacting gives each entity the same ``(rel, tail)`` set as
   building the environment from a KG whose triples include the delta
   (hypothesis property), and the merge keeps base edges first.
4. **Publish ships the bundle once per change** — after a compaction
   ``publish_tables`` re-exports the bundle, a clean publish is a no-op,
   and worker rankings stay bit-identical to thread mode, including for
   an edge staged while the segment is being written.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_env import ReferenceKGEnvironment
from test_env_differential import (
    legal_action_sets,
    random_built_kg,
    random_frontier,
)

from repro import REKSConfig, REKSTrainer
from repro.core.environment import KGEnvironment
from repro.graphstore import CSRTables, merge_capped
from repro.kg.builder import BuiltKG
from repro.kg.graph import KnowledgeGraph


def random_delta(rng, built, size):
    """Random candidate triples (dups and already-present edges mixed in)."""
    n_ent = built.kg.num_entities
    n_rel = built.kg.num_relations
    heads = rng.integers(0, n_ent, size=size)
    rels = rng.integers(0, n_rel, size=size)
    tails = rng.integers(0, n_ent, size=size)
    return heads, rels, tails


def assert_same_adjacency(env: KGEnvironment, other: KGEnvironment):
    for entity in range(env.kg.num_entities):
        for got, want in zip(env.actions_of(entity),
                             other.actions_of(entity)):
            np.testing.assert_array_equal(np.asarray(got),
                                          np.asarray(want))


# ----------------------------------------------------------------------
# The bundle
# ----------------------------------------------------------------------
class TestShardedStore:
    """The one CSR bundle (the class name predates the removal of graph
    sharding and is kept so the test ids stay stable)."""

    def _store(self, rng):
        degrees = rng.integers(0, 9, size=40).astype(np.int64)
        degrees[::7] = 0  # dead ends among the rows
        edges = int(degrees.sum())
        rels = rng.integers(0, 3, size=edges)
        tails = rng.integers(0, 40, size=edges)
        return CSRTables.build(degrees, rels, tails), (degrees, rels, tails)

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_build_round_trips_flat(self, seed):
        rng = np.random.default_rng(seed)
        tables, (degrees, rels, tails) = self._store(rng)
        np.testing.assert_array_equal(tables.degrees,
                                      degrees.astype(np.int32))
        assert tables.rels[0] == tables.tails[0] == 0  # the sentinel
        np.testing.assert_array_equal(tables.rels[1:],
                                      rels.astype(np.int32))
        np.testing.assert_array_equal(tables.tails[1:],
                                      tails.astype(np.int32))
        assert tables.num_edges == rels.size
        assert tables.num_entities == degrees.size
        starts = np.concatenate([[0], np.cumsum(degrees)])
        for entity in range(degrees.size):
            got_r, got_t = tables.slice(entity)
            lo, hi = starts[entity], starts[entity + 1]
            np.testing.assert_array_equal(got_r, rels[lo:hi])
            np.testing.assert_array_equal(got_t, tails[lo:hi])

    def test_digest_stable_and_shard_cached(self):
        rng = np.random.default_rng(5)
        tables, (degrees, rels, tails) = self._store(rng)
        again = CSRTables.build(degrees, rels, tails)
        assert tables.digest() == again.digest()
        # Cached on the immutable bundle: the second call hashes nothing.
        assert tables._digest is not None
        assert tables.digest() is tables.digest()
        # Content-addressed: one changed tail re-keys it.
        other = tails.copy()
        other[0] = (other[0] + 1) % 40
        assert CSRTables.build(degrees, rels, other).digest() \
            != tables.digest()

    @pytest.mark.parametrize("seed", [2, 3, 7])
    def test_scattered_gather_matches_monolithic(self, seed):
        """gather_flat on a scattered frontier — repeats, any order,
        dead ends — matches the rows' per-entity slices, cell for cell."""
        rng = np.random.default_rng(100 + seed)
        tables, _ = self._store(rng)
        for _ in range(3):
            n = int(rng.integers(3, 33))
            entities = rng.integers(0, tables.num_entities, size=n)
            row_of, rels, tails = tables.gather_flat(entities)
            blocks = [tables.slice(int(e)) for e in entities]
            np.testing.assert_array_equal(
                row_of, np.repeat(np.arange(n), [len(r) for r, _ in blocks]))
            np.testing.assert_array_equal(
                rels, np.concatenate([r for r, _ in blocks]))
            np.testing.assert_array_equal(
                tails, np.concatenate([t for _, t in blocks]))


# ----------------------------------------------------------------------
# Compacting vs staging-only differential (random delta streams)
# ----------------------------------------------------------------------
class TestMonoShardedDifferential:
    """Compaction and the staged overlay against each other and the
    loop oracle (the class name predates the removal of graph sharding
    and is kept so the test ids stay stable)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
    def test_delta_stream_interleavings(self, seed):
        """stage / compact / query interleavings on an environment that
        compacts agree at every step with one that only stages: the
        merge puts staged edges after their head's base edges, exactly
        where the overlay serves them."""
        rng = np.random.default_rng(100 + seed)
        built = random_built_kg(rng, n_items=16, n_other=8, n_edges=250,
                                hub_degree=40)
        cap = 12
        staging = KGEnvironment(built, action_cap=cap, seed=3)
        compacting = KGEnvironment(built, action_cap=cap, seed=3)
        for step in range(6):
            heads, rels, tails = random_delta(rng, built,
                                              rng.integers(1, 40))
            got = compacting.stage_edges(heads, rels, tails)
            want = staging.stage_edges(heads, rels, tails)
            assert got == want
            entities, visited = random_frontier(rng, built,
                                                rng.integers(1, 48), 2)
            got_grid = compacting.batched_actions(entities, visited)
            want_grid = staging.batched_actions(entities, visited)
            assert legal_action_sets(*got_grid) \
                == legal_action_sets(*want_grid)
            if step % 2 == 1:
                compacting.compact()
                assert compacting.staged_edges == 0
                assert_same_adjacency(compacting, staging)
        compacting.compact()
        assert_same_adjacency(compacting, staging)

    def test_sharded_env_matches_reference_oracle(self):
        """The loop-based oracle agrees with the CSR environment (same
        rng seed => exact array equality, not just set)."""
        rng = np.random.default_rng(17)
        built = random_built_kg(rng, n_edges=300, hub_degree=60)
        cap = 20
        env = KGEnvironment(built, action_cap=cap, seed=4)
        ref = ReferenceKGEnvironment(built, action_cap=cap, seed=4)
        for _ in range(4):
            entities, visited = random_frontier(rng, built,
                                                rng.integers(1, 64), 3)
            got = env.batched_actions(entities, visited)
            want = ref.batched_actions(entities, visited)
            assert got[0].shape == want[0].shape
            for g, w in zip(got, want):
                np.testing.assert_array_equal(np.asarray(g), w)

    def test_vectorized_staging_preserves_sequential_semantics(self):
        """In-batch duplicates collapse to the first occurrence and the
        at-cap drop keeps staging order — the vectorized dedup must be
        indistinguishable from the old per-edge loop."""
        rng = np.random.default_rng(23)
        built = random_built_kg(rng, n_edges=60, dead_ends=2)
        env = KGEnvironment(built, action_cap=5, seed=0)
        head = next(e for e in range(built.kg.num_entities)
                    if env.degree(e) == 0)
        tails = [(head + 1 + i) % built.kg.num_entities for i in range(8)]
        heads = [head] * 8
        rels = [0] * 8
        # Duplicate the 2nd edge in-batch: 8 candidates, 7 distinct,
        # cap 5 => exactly 5 staged, in input order.
        heads.insert(3, head), rels.insert(3, 0), tails.insert(3, tails[1])
        staged = env.stage_edges(heads, rels, tails)
        assert staged == 5
        got_r, got_t = env.actions_of(head)
        # First five *distinct* tails in input order (index 3 is the
        # in-batch duplicate, collapsed onto its first occurrence).
        distinct = [t for i, t in enumerate(tails) if i != 3]
        assert list(got_t) == distinct[:5]
        # Re-staging the same batch is a full dedup no-op.
        assert env.stage_edges(heads, rels, tails) == 0
        # After compaction the base holds them; still duplicates.
        env.compact()
        assert env.stage_edges(heads, rels, tails) == 0

    def test_fingerprint_deterministic_per_layout(self):
        """Same content => same fingerprint across independent builds;
        staging and compaction re-key it."""
        rng = np.random.default_rng(29)
        built = random_built_kg(rng, n_edges=200)
        env_a = KGEnvironment(built, action_cap=10, seed=1)
        env_b = KGEnvironment(built, action_cap=10, seed=1)
        assert env_a.fingerprint() == env_b.fingerprint()
        before = env_a.fingerprint()
        heads, rels, tails = random_delta(rng, built, 10)
        if env_a.stage_edges(heads, rels, tails):
            assert env_a.fingerprint() != before  # staged count counts
            env_a.compact()
            assert env_a.fingerprint() != before


# ----------------------------------------------------------------------
# Hypothesis: compaction == a from-scratch build
# ----------------------------------------------------------------------
def built_from_triples(n_entities, n_relations, heads, rels, tails):
    """A BuiltKG over ``n_entities`` product entities holding exactly
    the given triples."""
    kg = KnowledgeGraph()
    kg.add_entity_type("product", n_entities)
    for rel in range(n_relations):
        kg.add_relation(f"r{rel}")
        sel = rels == rel
        kg.add_triples(heads[sel], rel, tails[sel])
    kg.finalize()
    item_entity = np.arange(-1, n_entities, dtype=np.int64)
    entity_item = np.arange(1, n_entities + 1, dtype=np.int64)
    return BuiltKG(kg=kg, item_entity=item_entity, entity_item=entity_item,
                   user_entity=None, include_users=False)


def edge_sets(env):
    return [set(zip(*(np.asarray(a).tolist()
                      for a in env.actions_of(entity))))
            for entity in range(env.kg.num_entities)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
def test_property_compaction_equals_from_scratch_build(seed, rounds):
    """Staged deltas, compacted (once per round), leave every entity
    with the ``(rel, tail)`` set of an environment built from scratch
    over the base triples plus the deltas.  The cap is above any degree
    the graph can reach, so no edge is dropped on either side."""
    rng = np.random.default_rng(seed)
    n_ent, n_rel = int(rng.integers(2, 40)), int(rng.integers(1, 4))
    n_base = int(rng.integers(0, 120))
    base = tuple(rng.integers(0, hi, size=n_base)
                 for hi in (n_ent, n_rel, n_ent))
    cap = 10_000
    env = KGEnvironment(built_from_triples(n_ent, n_rel, *base),
                        action_cap=cap, seed=0)
    deltas = []
    for _ in range(rounds):
        n_delta = int(rng.integers(1, 40))
        delta = tuple(rng.integers(0, hi, size=n_delta)
                      for hi in (n_ent, n_rel, n_ent))
        env.stage_edges(*delta)
        env.compact()
        deltas.append(delta)
    assert env.staged_edges == 0
    everything = tuple(np.concatenate([base[col]] + [d[col] for d in deltas])
                       for col in range(3))
    scratch = KGEnvironment(built_from_triples(n_ent, n_rel, *everything),
                            action_cap=cap, seed=0)
    assert edge_sets(env) == edge_sets(scratch)
    assert env.csr_tables().num_edges == scratch.csr_tables().num_edges


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_merge_capped_is_base_first(seed):
    """Every head keeps its base edges (up to the cap) ahead of extras."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    base_deg = rng.integers(0, 5, size=n).astype(np.int64)
    edges = int(base_deg.sum())
    base_rels = rng.integers(0, 3, size=edges)
    base_tails = rng.integers(0, n, size=edges)
    extra = int(rng.integers(0, 15))
    cap = int(rng.integers(1, 8))
    base_deg = np.minimum(base_deg, cap)
    edges = int(base_deg.sum())
    base_rels, base_tails = base_rels[:edges], base_tails[:edges]
    deg, rels, tails = merge_capped(
        n, base_deg, base_rels, base_tails,
        rng.integers(0, n, size=extra), rng.integers(0, 3, size=extra),
        rng.integers(0, n, size=extra), cap)
    assert deg.max(initial=0) <= cap
    indptr = np.concatenate([[0], np.cumsum(deg)])
    base_ptr = np.concatenate([[0], np.cumsum(base_deg)])
    for head in range(n):
        kept = min(int(base_deg[head]), cap)
        lo, hi = base_ptr[head], base_ptr[head] + kept
        np.testing.assert_array_equal(
            rels[indptr[head]:indptr[head] + kept], base_rels[lo:hi])
        np.testing.assert_array_equal(
            tails[indptr[head]:indptr[head] + kept], base_tails[lo:hi])


# ----------------------------------------------------------------------
# Publish: the bundle travels once per change
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4), seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


def _fresh_edges(env, built, count=4):
    """(heads, rels, tails) new co_occur edges whose heads have room
    under the action cap."""
    co_occur = built.kg.relation_id("co_occur")
    heads, tails = [], []
    for head in range(built.kg.num_entities):
        if env.degree(head) >= env.action_cap - 1:
            continue
        _, existing = env.actions_of(head)
        for tail in range(built.kg.num_entities - 1, -1, -1):
            if tail != head and tail not in existing:
                heads.append(head)
                tails.append(tail)
                break
        if len(heads) >= count:
            break
    return heads, [co_occur] * len(heads), tails


def _serving_sessions(dataset):
    return [s for s in dataset.split.test if len(s.items) >= 2][:8]


class TestDeltaPublish:
    def test_publish_ships_only_dirty_shards(self, trainer, beauty_kg):
        """A publish re-exports the bundle only when its digest moved:
        after a compaction the generation changes and exactly the new
        bundle's bytes are written; a publish with nothing new is a
        no-op."""
        from repro.runtime import ProcessWorkerPool

        env = trainer.env
        heads, rels, tails = _fresh_edges(env, beauty_kg)
        assert heads, "no under-cap head found"
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            before = pool._csr_plane.manifest
            env.stage_edges(heads, rels, tails)
            pool.stage_edges(heads, rels, tails)
            assert env.compact() == len(heads)
            key = pool.publish_tables(env)
            assert key == env.fingerprint()
            after = pool._csr_plane.manifest
            assert after.segment != before.segment
            assert after.key == f"csr:{env.csr_tables().digest()}"
            assert pool.last_publish["nbytes"] == after.nbytes
            # A second publish with nothing new is a no-op.
            generation = pool.generation
            assert pool.publish_tables(env) == key
            assert pool.generation == generation

    def test_rankings_identical_after_delta_attach(self, trainer,
                                                   beauty_kg,
                                                   beauty_tiny):
        sessions = _serving_sessions(beauty_tiny)
        env = trainer.env
        heads, rels, tails = _fresh_edges(env, beauty_kg, count=3)
        assert heads
        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as proc, \
                trainer.serve(worker_mode="thread", workers=2,
                              cache_size=0) as thread:
            thread.stage_edges(heads, rels, tails)
            proc.stage_edges(heads, rels, tails)
            env.compact()
            generation = proc.process_pool.generation
            proc.refresh_tables()
            assert proc.process_pool.generation == generation + 1
            got = [r.items for r in proc.recommend_many(sessions, k=5)]
            want = [r.items for r in thread.recommend_many(sessions, k=5)]
            assert got == want

    def test_edge_staged_during_export_survives_publish(
            self, trainer, beauty_kg, beauty_tiny, monkeypatch):
        """An edge staged (parent, then workers) while the publish is
        writing the segment reaches the workers with the generation:
        the tables message carries the overlay snapshotted under the
        state lock, not one read before the export."""
        _publish_with_late_edge(trainer, beauty_kg, beauty_tiny,
                                monkeypatch, compact=False)

    def test_compaction_during_export_publishes_newer_bundle(
            self, trainer, beauty_kg, beauty_tiny, monkeypatch):
        """An edge staged and compacted while the publish is writing the
        segment reaches the workers: the older bundle no longer matches
        the overlay read under the state lock (the compaction emptied
        it), so the publish writes the newer bundle and ships that."""
        _publish_with_late_edge(trainer, beauty_kg, beauty_tiny,
                                monkeypatch, compact=True)


def _publish_with_late_edge(trainer, beauty_kg, beauty_tiny, monkeypatch,
                            compact):
    """Publish while the first segment write stages one late edge in
    the env and the pool (then compacts the env, if ``compact``), and
    check that every worker holds it and ranks like thread mode."""
    from repro.runtime.plane import PlaneArena

    sessions = _serving_sessions(beauty_tiny)
    env = trainer.env
    heads, rels, tails = _fresh_edges(env, beauty_kg, count=4)
    assert len(heads) == 4
    late = (heads[3:], rels[3:], tails[3:])
    with trainer.serve(worker_mode="process", workers=2,
                       cache_size=0) as proc, \
            trainer.serve(worker_mode="thread", workers=1,
                          cache_size=0) as thread:
        pool = proc.process_pool
        env.stage_edges(heads[:3], rels[:3], tails[:3])
        pool.stage_edges(heads[:3], rels[:3], tails[:3])
        env.compact()
        write = PlaneArena.write
        keys = []

        def write_then_stage(arena, arrays, *, key):
            plane = write(arena, arrays, key=key)
            keys.append(key)
            if len(keys) == 1:
                assert env.stage_edges(*late) == 1
                assert pool.stage_edges(*late) == 1
                if compact:
                    assert env.compact() == 1
            return plane

        monkeypatch.setattr(PlaneArena, "write", write_then_stage)
        generation = pool.generation
        proc.refresh_tables()
        monkeypatch.undo()
        # A compaction during the write makes the written bundle stale:
        # it is overwritten with the newer one, and one generation is
        # broadcast either way.
        assert len(keys) == 1 + compact and len(set(keys)) == len(keys)
        assert pool.generation == generation + 1
        assert env.staged_edges == (0 if compact else 1)
        assert pool._csr_plane.key == f"csr:{env.csr_tables().digest()}"
        assert pool.plane_key == env.fingerprint()
        # Every worker already holds the late edge.
        assert pool.stage_edges(*late) == 0
        got = [r.items for r in proc.recommend_many(sessions, k=5)]
        want = [r.items for r in thread.recommend_many(sessions, k=5)]
        assert got == want
        env.compact()
        proc.refresh_tables()
