"""Sharded graph store: monolithic-vs-sharded differential + delta publish.

Three contracts pinned here:

1. **Sharding is invisible to queries** — an environment over S shards
   answers every ``actions_of`` / ``batched_actions`` / ``flat_tables``
   query identically to the S=1 (monolithic) degenerate, through
   arbitrary interleavings of staging, compaction, and queries
   (random delta streams, mixed shard counts).
2. **Per-shard compaction == full rebuild** — the delta-proportional
   merge and the monolithic O(E) merge agree on the final capped
   adjacency (hypothesis property over random graphs and deltas).
3. **Delta publish ships only dirty shards** — after a compaction that
   touches a subset of shards, ``publish_tables`` exports exactly
   those shards' bytes (asserted via manifest inspection) and worker
   rankings stay bit-identical to thread mode.
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
from repro.graphstore import (
    ShardedCSR,
    compact_store,
    full_merge,
    merge_capped,
    shard_boundaries,
)


def random_delta(rng, built, size):
    """Random candidate triples (dups and already-present edges mixed in)."""
    n_ent = built.kg.num_entities
    n_rel = built.kg.num_relations
    heads = rng.integers(0, n_ent, size=size)
    rels = rng.integers(0, n_rel, size=size)
    tails = rng.integers(0, n_ent, size=size)
    return heads, rels, tails


def assert_same_adjacency(sharded: KGEnvironment, mono: KGEnvironment):
    flat_s, flat_m = sharded.flat_tables(), mono.flat_tables()
    for got, want in zip(flat_s, flat_m):
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))


# ----------------------------------------------------------------------
# Boundaries
# ----------------------------------------------------------------------
class TestShardBoundaries:
    def test_cover_and_monotone(self):
        rng = np.random.default_rng(0)
        degrees = rng.integers(0, 50, size=257)
        for shards in (1, 2, 5, 16, 257, 1000):
            bounds = shard_boundaries(degrees, shards)
            assert bounds[0] == 0 and bounds[-1] == degrees.size
            assert (np.diff(bounds) > 0).all()
            assert len(bounds) - 1 <= max(shards, 1)

    def test_edge_mass_balanced(self):
        # One mega-hub: the cut must isolate it rather than splitting
        # entities evenly.
        degrees = np.ones(100, dtype=np.int64)
        degrees[0] = 1000
        bounds = shard_boundaries(degrees, 4)
        # The hub's shard ends almost immediately; the rest of the
        # entity space is spread over the remaining shards.
        assert bounds[1] <= 5

    def test_edgeless_graph_splits_by_entity(self):
        bounds = shard_boundaries(np.zeros(64, dtype=np.int64), 4)
        assert bounds[0] == 0 and bounds[-1] == 64
        assert (np.diff(bounds) > 0).all()


# ----------------------------------------------------------------------
# Store-level invariants
# ----------------------------------------------------------------------
class TestShardedStore:
    def _store(self, rng, shards):
        degrees = rng.integers(0, 9, size=40).astype(np.int64)
        edges = int(degrees.sum())
        rels = rng.integers(0, 3, size=edges)
        tails = rng.integers(0, 40, size=edges)
        return ShardedCSR.build(degrees, rels, tails, num_shards=shards), \
            (degrees, rels, tails)

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_build_round_trips_flat(self, shards):
        rng = np.random.default_rng(shards)
        store, (degrees, rels, tails) = self._store(rng, shards)
        flat = store.to_flat()
        np.testing.assert_array_equal(flat.degrees,
                                      degrees.astype(np.int32))
        np.testing.assert_array_equal(flat.rels[1:],
                                      rels.astype(np.int32))
        np.testing.assert_array_equal(flat.tails[1:],
                                      tails.astype(np.int32))
        assert store.num_edges == rels.size

    def test_digest_stable_and_shard_cached(self):
        rng = np.random.default_rng(5)
        store, raw = self._store(rng, 4)
        again = ShardedCSR.build(*raw, num_shards=4)
        assert store.digest() == again.digest()
        # replace_shards keeps clean shards' digest objects (cached —
        # unchanged shards hash for free).
        fresh = store.replace_shards({})
        assert fresh.shards[1] is store.shards[1]
        assert fresh.shards[1]._digest == store.shards[1]._digest

    def test_replace_shards_rejects_range_mismatch(self):
        rng = np.random.default_rng(6)
        store, _ = self._store(rng, 4)
        wrong = store.shards[1]
        with pytest.raises(ValueError, match="covers"):
            store.replace_shards({0: wrong})

    def test_epochs_bump_only_on_dirty_shards(self):
        rng = np.random.default_rng(7)
        store, _ = self._store(rng, 4)
        heads = np.array([int(store.boundaries[0])], dtype=np.int64)
        staged = {0: (heads, np.zeros(1, np.int64), np.ones(1, np.int64))}
        new_store, updates = compact_store(store, staged, action_cap=50)
        assert set(updates) == {0}
        assert new_store.shards[0].epoch == store.shards[0].epoch + 1
        for sid in range(1, 4):
            assert new_store.shards[sid] is store.shards[sid]

    def test_degrees_lazy_and_replace_does_not_materialize(self):
        """replace_shards must not pay the O(entities) global-degrees
        copy: the fresh facade starts unmaterialized and re-concats
        only when something actually reads degrees through it."""
        rng = np.random.default_rng(8)
        store, (degrees, _, _) = self._store(rng, 4)
        assert store._degrees is None  # built lazy
        heads = np.array([int(store.boundaries[0])], dtype=np.int64)
        staged = {0: (heads, np.zeros(1, np.int64),
                      np.ones(1, np.int64))}
        new_store, _ = compact_store(store, staged, action_cap=50)
        assert new_store._degrees is None
        _ = new_store.nbytes  # introspection must not force the concat
        assert new_store._degrees is None
        got = new_store.degrees  # first real read materializes
        assert new_store._degrees is not None
        assert new_store.degrees is got  # cached
        # Content: concatenation of the (possibly rebuilt) shards.
        np.testing.assert_array_equal(
            got, np.concatenate([s.tables.degrees
                                 for s in new_store.shards]))
        # Clean-shard ranges agree with the original degrees.
        lo, hi = int(store.boundaries[1]), int(store.boundaries[-1])
        np.testing.assert_array_equal(got[lo:hi],
                                      degrees[lo:hi].astype(np.int32))

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_scattered_gather_matches_monolithic(self, shards):
        """gather_flat on a frontier scattered across every shard must
        match the S=1 store cell for cell (the shard-major grouped path
        against the monolithic single gather)."""
        rng = np.random.default_rng(100 + shards)
        store, raw = self._store(rng, shards)
        mono = ShardedCSR.build(*raw, num_shards=1)
        assert store.num_shards > 1
        candidates = np.flatnonzero(store.degrees > 0)
        for trial in range(3):
            n = int(rng.integers(3, 33))
            # The lowest and highest entities with edges sit in the
            # first and last shard: every frontier straddles.
            entities = np.concatenate(
                [rng.choice(candidates, size=n, replace=True),
                 candidates[[-1, 0]]]).astype(np.int64)
            assert len(np.unique(store.shard_of(entities))) > 1
            got = store.gather_flat(entities)
            want = mono.gather_flat(entities)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


# ----------------------------------------------------------------------
# Monolithic vs sharded differential (random delta streams)
# ----------------------------------------------------------------------
class TestMonoShardedDifferential:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
    def test_delta_stream_interleavings(self, shards):
        """stage / compact / query interleavings agree with S=1 at
        every step, and the final compacted adjacency is identical."""
        rng = np.random.default_rng(100 + shards)
        built = random_built_kg(rng, n_items=16, n_other=8, n_edges=250,
                                hub_degree=40)
        cap = 12
        mono = KGEnvironment(built, action_cap=cap, seed=3, shards=1)
        shard_env = KGEnvironment(built, action_cap=cap, seed=3,
                                  shards=shards)
        assert shard_env.num_shards == (shards if shards == 1
                                        else shard_env.num_shards)
        assert_same_adjacency(shard_env, mono)
        for step in range(6):
            heads, rels, tails = random_delta(rng, built,
                                              rng.integers(1, 40))
            got = shard_env.stage_edges(heads, rels, tails)
            want = mono.stage_edges(heads, rels, tails)
            assert got == want
            assert shard_env.staged_edges == mono.staged_edges
            entities, visited = random_frontier(rng, built,
                                                rng.integers(1, 48), 2)
            got_grid = shard_env.batched_actions(entities, visited)
            want_grid = mono.batched_actions(entities, visited)
            assert legal_action_sets(*got_grid) \
                == legal_action_sets(*want_grid)
            if step % 2 == 1:
                assert shard_env.compact() == mono.compact()
                assert_same_adjacency(shard_env, mono)
        shard_env.compact(), mono.compact()
        assert_same_adjacency(shard_env, mono)
        for entity in range(built.kg.num_entities):
            got_r, got_t = shard_env.actions_of(entity)
            want_r, want_t = mono.actions_of(entity)
            np.testing.assert_array_equal(np.asarray(got_r),
                                          np.asarray(want_r))
            np.testing.assert_array_equal(np.asarray(got_t),
                                          np.asarray(want_t))

    def test_sharded_env_matches_reference_oracle(self):
        """The loop-based oracle still agrees with a many-shard env
        (same rng seed => exact array equality, not just set)."""
        rng = np.random.default_rng(17)
        built = random_built_kg(rng, n_edges=300, hub_degree=60)
        cap = 20
        env = KGEnvironment(built, action_cap=cap, seed=4, shards=6)
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
        env = KGEnvironment(built, action_cap=5, seed=0, shards=3)
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
        """Same content + same shard layout => same fingerprint across
        independent processes/builds; staging and compaction re-key it.
        (The fingerprint is deliberately layout-scoped — re-sharding
        re-keys it, conservatively; see KGEnvironment.fingerprint —
        so cross-layout identity goes through flat_tables instead.)"""
        rng = np.random.default_rng(29)
        built = random_built_kg(rng, n_edges=200)
        env_a = KGEnvironment(built, action_cap=10, seed=1, shards=4)
        env_b = KGEnvironment(built, action_cap=10, seed=1, shards=4)
        assert env_a.fingerprint() == env_b.fingerprint()
        mono = KGEnvironment(built, action_cap=10, seed=1, shards=1)
        for got, want in zip(mono.flat_tables(), env_a.flat_tables()):
            np.testing.assert_array_equal(np.asarray(got),
                                          np.asarray(want))
        before = env_a.fingerprint()
        heads, rels, tails = random_delta(rng, built, 10)
        if env_a.stage_edges(heads, rels, tails):
            assert env_a.fingerprint() != before  # staged count counts
            env_a.compact()
            assert env_a.fingerprint() != before


# ----------------------------------------------------------------------
# Hypothesis: per-shard compaction == full rebuild
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shards=st.integers(1, 9),
       cap=st.sampled_from([1, 3, 8, 1000]))
def test_property_shard_compaction_equals_full_rebuild(seed, shards, cap):
    rng = np.random.default_rng(seed)
    n_ent = int(rng.integers(4, 60))
    degrees = rng.integers(0, 7, size=n_ent).astype(np.int64)
    degrees = np.minimum(degrees, cap)
    edges = int(degrees.sum())
    rels = rng.integers(0, 4, size=edges)
    tails = rng.integers(0, n_ent, size=edges)
    store = ShardedCSR.build(degrees, rels, tails, num_shards=shards)

    n_delta = int(rng.integers(1, 30))
    d_heads = rng.integers(0, n_ent, size=n_delta)
    d_rels = rng.integers(0, 4, size=n_delta)
    d_tails = rng.integers(0, n_ent, size=n_delta)

    # Route the delta through the per-shard path...
    staged = {}
    sid_of = store.shard_of(d_heads)
    for sid in np.unique(sid_of):
        rows = sid_of == sid
        staged[int(sid)] = (d_heads[rows], d_rels[rows], d_tails[rows])
    sharded, _ = compact_store(store, staged, action_cap=cap)

    # ...and through the monolithic full rebuild.
    # (full_merge concatenates per-head; group the delta by head first
    # the same way the overlay does — staging order within a head.)
    order = np.argsort(d_heads, kind="stable")
    f_deg, f_rels, f_tails = full_merge(
        store, d_heads[order], d_rels[order], d_tails[order], cap)

    flat = sharded.to_flat()
    np.testing.assert_array_equal(flat.degrees, f_deg.astype(np.int32))
    np.testing.assert_array_equal(flat.rels[1:], f_rels.astype(np.int32))
    np.testing.assert_array_equal(flat.tails[1:],
                                  f_tails.astype(np.int32))


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
# Delta publish: only dirty shards travel
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    # graph_shards pinned: the tiny fixture KG is below the auto
    # heuristic's sharding threshold, and the delta-publish tests need
    # shards to diff.
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        graph_shards=8, seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


def _fresh_edges_in_shard(env, built, sid, count=4):
    """(heads, rels, tails) new co_occur edges whose heads live in
    shard ``sid`` and have room under the action cap."""
    co_occur = built.kg.relation_id("co_occur")
    store = env.csr_tables()
    lo, hi = int(store.boundaries[sid]), int(store.boundaries[sid + 1])
    heads, tails = [], []
    for head in range(lo, hi):
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


class TestDeltaPublish:
    def test_publish_ships_only_dirty_shards(self, trainer, beauty_kg):
        from repro.runtime import ProcessWorkerPool

        env = trainer.env
        assert env.num_shards >= 2, "fixture KG must shard for this test"
        sid = 0
        heads, rels, tails = _fresh_edges_in_shard(env, beauty_kg, sid)
        assert heads, "no under-cap head found in shard 0"
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            before = pool.shard_manifests()
            total_bytes = sum(p.nbytes
                              for p in pool._csr_planes.values())
            env.stage_edges(heads, rels, tails)
            pool.stage_edges(heads, rels, tails)
            assert env.compact() == len(heads)
            key = pool.publish_tables(env)
            assert key == env.fingerprint()
            # Manifest inspection: exactly the dirty shard re-exported.
            after = pool.shard_manifests()
            assert pool.last_publish["shards"] == [sid]
            assert after[sid].segment != before[sid].segment
            assert after[sid].shard_ids() == (sid,)
            for other in after:
                if other != sid:
                    assert after[other] is before[other]
            # ...and only its bytes were published.
            assert pool.last_publish["nbytes"] \
                == pool._csr_planes[sid].nbytes < total_bytes
            # A second publish with nothing new is a no-op.
            generation = pool.generation
            assert pool.publish_tables(env) == key
            assert pool.generation == generation

    def test_rankings_identical_after_delta_attach(self, trainer,
                                                   beauty_kg,
                                                   beauty_tiny):
        sessions = [s for s in beauty_tiny.split.test
                    if len(s.items) >= 2][:8]
        env = trainer.env
        heads, rels, tails = _fresh_edges_in_shard(env, beauty_kg, 1,
                                                   count=3)
        assert heads
        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as proc, \
                trainer.serve(worker_mode="thread", workers=2,
                              cache_size=0) as thread:
            thread.stage_edges(heads, rels, tails)
            proc.stage_edges(heads, rels, tails)
            env.compact()
            proc.refresh_tables()
            assert proc.process_pool.last_publish["shards"] == [1]
            got = [r.items for r in proc.recommend_many(sessions, k=5)]
            want = [r.items for r in thread.recommend_many(sessions, k=5)]
            assert got == want

    def test_partial_attach_keeps_clean_shard_overlay(self, trainer,
                                                      beauty_kg):
        """attach_shards drops only the replaced shards' overlay slices
        and replays the shipped staged edges — the per-shard staged
        snapshot contract a delta-attaching worker relies on."""
        config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                            graph_shards=8, seed=0)
        private = REKSTrainer(trainer.dataset, beauty_kg,
                              model_name="narm", config=config,
                              transe=trainer.transe)
        env = private.env
        h0, r0, t0 = _fresh_edges_in_shard(env, beauty_kg, 0, count=2)
        h1, r1, t1 = _fresh_edges_in_shard(env, beauty_kg, 1, count=2)
        assert h0 and h1
        env.stage_edges(h0 + h1, r0 + r1, t0 + t1)
        by_shard = env.staged_by_shard()
        assert set(by_shard) == {0, 1}
        assert env.staged_counts_by_shard() == {0: len(h0), 1: len(h1)}
        # Replace shard 0 with a publisher-compacted generation.
        donor = KGEnvironment(beauty_kg, action_cap=env.action_cap,
                              seed=config.seed + 3,
                              shards=env.num_shards)
        donor.stage_edges(h0, r0, t0)
        donor.compact()
        update = {0: donor.csr_tables().shards[0]}
        env.attach_shards(update, staged=None)
        # Shard-0 overlay dropped (now in the base), shard-1 kept.
        assert env.staged_counts_by_shard() == {1: len(h1)}
        rels, tails = env.actions_of(h0[0])
        assert t0[0] in list(tails)  # served from the new base
        rels, tails = env.actions_of(h1[0])
        assert t1[0] in list(tails)  # still served from the overlay
