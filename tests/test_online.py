"""Continual-learning subsystem: registry, ingest, updater, hot swap.

Everything here is tier-1 (fast): the stack under test is an untrained
agent over the shared tiny fixtures — checkpoint round-trips, overlay
semantics, and swap atomicity do not depend on training quality.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.core.agent import clone_agent
from repro.data.schema import Session
from repro.online import (
    CheckpointNotFound,
    CheckpointRegistry,
    DeltaIngestor,
    OnlineUpdater,
)


@pytest.fixture()
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    """Untrained (but inference-ready) REKS stack.

    Function-scoped: ingestion mutates the environment's adjacency, so
    sharing one stack across tests would leak staged edges between
    them.
    """
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture()
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


@pytest.fixture()
def registry(tmp_path):
    return CheckpointRegistry(tmp_path / "registry", keep_last=3)


# ----------------------------------------------------------------------
# CheckpointRegistry
# ----------------------------------------------------------------------
class TestCheckpointRegistry:
    def test_publish_load_round_trip(self, trainer, registry):
        state = trainer.agent.state_dict()
        version = registry.publish(state, meta={"model": "narm"})
        assert version == 1
        loaded, meta = registry.load(version)
        assert meta["model"] == "narm"
        assert meta["version"] == 1
        assert set(loaded) == set(state)
        for key in state:
            np.testing.assert_array_equal(loaded[key], state[key])

    def test_versions_are_monotonic_across_restarts(self, trainer,
                                                    tmp_path):
        state = trainer.agent.state_dict()
        first = CheckpointRegistry(tmp_path / "reg", keep_last=2)
        assert [first.publish(state) for _ in range(3)] == [1, 2, 3]
        # Reopen: the counter continues past pruned versions.
        second = CheckpointRegistry(tmp_path / "reg", keep_last=2)
        assert second.publish(state) == 4
        assert second.versions() == [3, 4]

    def test_retention_prunes_files_not_history(self, trainer, registry):
        state = trainer.agent.state_dict()
        for _ in range(5):
            registry.publish(state)
        assert registry.versions() == [3, 4, 5]  # keep_last=3
        assert registry.latest() == 5
        files = sorted(p.name for p in registry.root.glob("ckpt-*.npz"))
        assert files == ["ckpt-000003.npz", "ckpt-000004.npz",
                         "ckpt-000005.npz"]
        with pytest.raises(CheckpointNotFound):
            registry.load(1)

    def test_load_latest_by_default(self, trainer, registry):
        state = trainer.agent.state_dict()
        registry.publish(state, meta={"tag": "a"})
        registry.publish(state, meta={"tag": "b"})
        _, meta = registry.load()
        assert meta["tag"] == "b"

    def test_empty_registry_raises(self, registry):
        assert registry.latest() is None
        with pytest.raises(CheckpointNotFound):
            registry.load()

    def test_meta_guard_rejects_mismatch(self, trainer, registry):
        registry.publish(trainer.agent.state_dict(),
                         meta={"model": "narm"})
        with pytest.raises(ValueError, match="mismatch"):
            registry.load(expected_meta={"model": "gru4rec"})

    def test_no_tmp_litter_after_publish(self, trainer, registry):
        registry.publish(trainer.agent.state_dict())
        assert not list(registry.root.glob("*.tmp"))


# ----------------------------------------------------------------------
# DeltaIngestor + environment overlay
# ----------------------------------------------------------------------
class TestDeltaIngestor:
    def test_staged_edges_visible_before_compaction(self, trainer):
        env = trainer.env
        ingestor = DeltaIngestor(trainer.built, env, compact_every=10_000)
        # co_occur never touches brand entities offline, so an
        # item -co_occur-> brand triple is guaranteed to be new.
        co_occur = trainer.built.kg.relation_id("co_occur")
        head = int(trainer.built.item_entity[1])
        tail = trainer.built.kg.type_range("brand")[0]
        staged = ingestor.ingest_triples([head], co_occur, [tail])
        assert staged == 1
        assert env.staged_edges == 1
        rels, tails = env.actions_of(head)
        assert ((rels == co_occur) & (tails == tail)).any()
        # batched_actions sees it too (the overlay widen path).
        grid_rels, grid_tails, mask = env.batched_actions(
            np.array([head]), np.array([[head]]))
        hit = (grid_rels == co_occur) & (grid_tails == tail) & mask
        assert hit.any()

    def test_compaction_merges_and_clears_overlay(self, trainer):
        env = trainer.env
        ingestor = DeltaIngestor(trainer.built, env, compact_every=10_000)
        co_occur = trainer.built.kg.relation_id("co_occur")
        head = int(trainer.built.item_entity[1])
        tail = trainer.built.kg.type_range("brand")[0]  # guaranteed new
        degree_before = env.degree(head)
        staged = env.stage_edges([head], [co_occur], [tail])
        assert staged == 1
        compacted = ingestor.compact()
        assert compacted == 1
        assert env.staged_edges == 0
        assert env.compactions == 1
        assert env.degree(head) == degree_before + 1
        rels, tails = env.actions_of(head)
        assert ((rels == co_occur) & (tails == tail)).any()

    def test_compaction_matches_offline_finalize_order_invariants(
            self, trainer):
        """Post-compaction grids equal a per-entity loop over
        actions_of — the same oracle contract the differential suite
        pins for the offline build."""
        env = trainer.env
        co_occur = trainer.built.kg.relation_id("co_occur")
        items = trainer.built.item_entity[1:20]
        heads = [int(e) for e in items[:-1]]
        tails = [int(e) for e in items[1:]]
        env.stage_edges(heads, [co_occur] * len(heads), tails)
        env.compact()
        frontier = np.array(heads[:8], dtype=np.int64)
        visited = frontier[:, None]
        rels, tls, mask = env.batched_actions(frontier, visited)
        for row, entity in enumerate(frontier):
            ref_rels, ref_tails = env.actions_of(int(entity))
            legal = ref_tails != entity
            got = sorted(zip(rels[row][mask[row]].tolist(),
                             tls[row][mask[row]].tolist()))
            want = sorted(zip(ref_rels[legal].tolist(),
                              ref_tails[legal].tolist()))
            assert got == want

    def test_session_ingest_stages_co_occur_and_buffers(self, trainer,
                                                        beauty_tiny):
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        delta = [s for s in beauty_tiny.split.validation
                 if len(s.items) >= 2][:10]
        ingestor.ingest_sessions(delta)
        assert ingestor.pending_sessions == len(delta)
        assert ingestor.sessions_ingested == len(delta)
        drained = ingestor.drain_sessions()
        assert drained == delta
        assert ingestor.pending_sessions == 0

    def test_duplicate_edges_not_staged_twice(self, trainer):
        env = trainer.env
        co_occur = trainer.built.kg.relation_id("co_occur")
        head = int(trainer.built.item_entity[2])
        tail = int(trainer.built.item_entity[7])
        first = env.stage_edges([head], [co_occur], [tail])
        second = env.stage_edges([head], [co_occur], [tail])
        assert second == 0
        assert env.staged_edges == first

    def test_out_of_catalog_items_rejected(self, trainer, beauty_tiny):
        ingestor = DeltaIngestor(trainer.built, trainer.env)
        bogus = Session([1, beauty_tiny.n_items + 5], user_id=0, day=0)
        with pytest.raises(ValueError, match="outside the trained"):
            ingestor.ingest_sessions([bogus])
        with pytest.raises(ValueError, match=">= 2 items"):
            ingestor.ingest_sessions([Session([3], user_id=0, day=0)])

    def test_stage_edges_rejects_heads_at_action_cap(self, beauty_kg):
        """An edge that could not survive compaction must not be
        staged either — otherwise it would serve until the next
        compaction and then vanish, flipping rankings with no new
        data."""
        from repro.core.environment import KGEnvironment

        env = KGEnvironment(beauty_kg, action_cap=3, seed=0)
        co_occur = beauty_kg.kg.relation_id("co_occur")
        capped = next(e for e in range(beauty_kg.kg.num_entities)
                      if env.degree(e) == 3)
        tail = beauty_kg.kg.type_range("brand")[0]
        assert env.stage_edges([capped], [co_occur], [tail]) == 0
        assert env.staged_edges == 0
        # Compaction therefore never truncates: merged == staged.
        under = next(e for e in range(beauty_kg.kg.num_entities)
                     if env.degree(e) < 3)
        staged = env.stage_edges([under], [co_occur], [tail])
        assert env.compact() == staged

    def test_stage_edges_validates_ids(self, trainer):
        env = trainer.env
        with pytest.raises(IndexError, match="entity id"):
            env.stage_edges([env.kg.num_entities + 1], [0], [0])
        with pytest.raises(IndexError, match="relation id"):
            env.stage_edges([0], [env.kg.num_relations + 3], [1])
        # Non-integer ids are refused, not truncated onto another
        # entity; empty lists (float64 to NumPy) stay legal.
        staged = env.staged_edges
        head = int(trainer.built.item_entity[1])
        tail = trainer.built.kg.type_range("brand")[0]
        ingestor = DeltaIngestor(trainer.built, env, compact_every=10_000)
        with pytest.raises(ValueError, match="integers"):
            ingestor.ingest_triples([head + 0.9], "co_occur", [tail])
        with pytest.raises(ValueError, match="integers"):
            env.stage_edges(["7"], [0], [1])
        with pytest.raises(ValueError, match="integers"):
            env.stage_edges([head], [0.0], [tail])
        assert env.stage_edges([], [], []) == 0
        assert ingestor.ingest_triples([], "co_occur", []) == 0
        assert env.staged_edges == staged

    def test_auto_compaction_threshold(self, trainer, beauty_tiny):
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=5)
        delta = [s for s in beauty_tiny.split.validation
                 if len(s.items) >= 2][:20]
        ingestor.ingest_sessions(delta)
        assert trainer.env.compactions >= 1
        assert trainer.env.staged_edges < 5


# ----------------------------------------------------------------------
# Walk correctness across ingestion
# ----------------------------------------------------------------------
class TestWalkAcrossIngestion:
    def test_rankings_stable_when_delta_is_redundant(self, trainer,
                                                     sessions):
        """Ingesting transitions the KG already has must not change a
        single ranking (the dedupe guarantees the action space is
        untouched)."""
        before = [rec.ranked_items
                  for rec in trainer.recommend_sessions(sessions[:8], k=5)]
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        # Training-split sessions: their co_occur edges are already in
        # the graph, so nothing new should be staged (purchase edges
        # too, when users are in the KG).
        import copy

        train_replay = copy.deepcopy(
            [s for s in trainer.dataset.split.train
             if len(s.items) >= 2][:10])
        staged = ingestor.ingest_sessions(train_replay)
        assert staged == 0
        after = [rec.ranked_items
                 for rec in trainer.recommend_sessions(sessions[:8], k=5)]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_walk_survives_mid_stream_compaction(self, trainer, sessions,
                                                 beauty_tiny):
        """Interleave recommend calls with staging and compaction; the
        walk must never crash and always produce full rankings."""
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        delta = [s for s in beauty_tiny.split.validation
                 if len(s.items) >= 2]
        for chunk_start in range(0, 15, 5):
            ingestor.ingest_sessions(delta[chunk_start:chunk_start + 5])
            recs = trainer.recommend_sessions(sessions[:4], k=5)
            assert all(r.ranked_items.shape == (len(sessions[:4]), 5)
                       or r.ranked_items.shape[1] == 5 for r in recs)
            ingestor.compact()
            recs = trainer.recommend_sessions(sessions[:4], k=5)
            assert all(r.ranked_items.shape[1] == 5 for r in recs)


# ----------------------------------------------------------------------
# OnlineUpdater
# ----------------------------------------------------------------------
class TestOnlineUpdater:
    def test_round_skipped_below_min_sessions(self, trainer, registry):
        ingestor = DeltaIngestor(trainer.built, trainer.env)
        updater = OnlineUpdater(trainer, ingestor, registry,
                                min_sessions=100)
        assert updater.run_once() is None
        assert registry.latest() is None

    def test_forced_round_publishes_warm_start(self, trainer, registry):
        ingestor = DeltaIngestor(trainer.built, trainer.env)
        updater = OnlineUpdater(trainer, ingestor, registry)
        version = updater.run_once(force=True)
        assert version == 1
        meta = registry.manifest(version)["meta"]
        assert meta["model"] == "narm"
        assert meta["sessions"] == 0
        assert meta["kg_fingerprint"] == trainer.env.fingerprint()

    def test_round_finetunes_drains_and_publishes(self, trainer,
                                                  registry, beauty_tiny):
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        published = []
        updater = OnlineUpdater(trainer, ingestor, registry,
                                min_sessions=4, max_steps=2,
                                on_publish=published.append)
        delta = [s for s in beauty_tiny.split.validation
                 if len(s.items) >= 2][:8]
        ingestor.ingest_sessions(delta)
        version = updater.run_once()
        assert version == 1
        assert published == [1]
        assert ingestor.pending_sessions == 0
        assert trainer.env.staged_edges == 0  # round compacts first
        meta = registry.manifest(version)["meta"]
        assert meta["sessions"] == len(delta)
        assert meta["steps"] >= 1
        assert np.isfinite(meta["loss"])

    def test_on_publish_errors_do_not_kill_round(self, trainer, registry,
                                                 beauty_tiny):
        ingestor = DeltaIngestor(trainer.built, trainer.env)

        def explode(version):
            raise RuntimeError("swap target gone")

        updater = OnlineUpdater(trainer, ingestor, registry,
                                on_publish=explode)
        version = updater.run_once(force=True)
        assert version == 1
        assert isinstance(updater.last_error, RuntimeError)

    def test_background_loop_start_stop(self, trainer, registry,
                                        beauty_tiny):
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        delta = [s for s in beauty_tiny.split.validation
                 if len(s.items) >= 2][:6]
        updater = OnlineUpdater(trainer, ingestor, registry,
                                min_sessions=4, max_steps=1,
                                interval_s=0.01)
        with updater:
            assert updater.running
            ingestor.ingest_sessions(delta)
            deadline = threading.Event()
            for _ in range(500):
                if registry.latest() is not None:
                    break
                deadline.wait(0.01)
        assert not updater.running
        assert registry.latest() >= 1
        with pytest.raises(RuntimeError, match="already started"):
            updater.start()
            updater.start()
        updater.stop()


# ----------------------------------------------------------------------
# Checkpoint round-trip through the registry (satellite: bit-identical)
# ----------------------------------------------------------------------
class TestCheckpointRoundTrip:
    def test_registry_round_trip_bit_identical_rankings(
            self, trainer, registry, sessions, beauty_tiny, beauty_kg,
            beauty_transe):
        version = registry.publish(trainer.agent.state_dict(),
                                   meta={"model": "narm"})
        expected = [rec.ranked_items for rec
                    in trainer.recommend_sessions(sessions, k=10)]

        other_cfg = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                               seed=999)  # different init seed
        other = REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                            config=other_cfg, transe=beauty_transe)
        state, _ = registry.load(version)
        other.agent.load_state_dict(state)
        got = [rec.ranked_items for rec
               in other.recommend_sessions(sessions, k=10)]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    def test_clone_agent_is_isolated(self, trainer, sessions):
        """Trainable params are private copies; frozen TransE tables
        are aliased read-only (cheap swap clones — see clone_agent)."""
        clone = clone_agent(trainer.agent)
        state = trainer.agent.state_dict()
        clone_params = dict(clone.named_parameters())
        frozen = {"policy.entity_emb.weight", "policy.relation_emb.weight"}
        for name, param in trainer.agent.named_parameters():
            if name in frozen:
                # Shared payload (same object id) and write-protected.
                assert clone_params[name].data is param.data
                assert not clone_params[name].data.flags.writeable
            else:
                assert clone_params[name].data is not param.data
            np.testing.assert_array_equal(clone_params[name].data,
                                          param.data)
        # Perturbing the clone's trainable state must not leak back.
        clone_params["encoder.item_embedding.weight"].data += 1.0
        for name, value in trainer.agent.state_dict().items():
            np.testing.assert_array_equal(value, state[name])
        # Loading a checkpoint into the clone keeps the frozen tables
        # shared (identical payload -> copy-on-write skip).
        clone.load_state_dict(state)
        for name in frozen:
            assert clone_params[name].data \
                is dict(trainer.agent.named_parameters())[name].data


# ----------------------------------------------------------------------
# Live hot swap (satellite: under concurrent traffic)
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_swap_is_bit_identical_to_fresh_server(self, trainer,
                                                   registry, sessions):
        v1 = registry.publish(trainer.agent.state_dict())
        with trainer.serve(workers=1, registry=registry) as server:
            server.swap_model(v1)
            assert server.model_version == v1
            swapped = [np.asarray(r.items, dtype=np.int64) for r in
                       server.recommend_many(sessions[:12], k=5)]
        with trainer.serve(workers=1, registry=registry) as fresh:
            fresh.swap_model(v1)
            baseline = [np.asarray(r.items, dtype=np.int64) for r in
                        fresh.recommend_many(sessions[:12], k=5)]
        for a, b in zip(swapped, baseline):
            np.testing.assert_array_equal(a, b)

    def test_swap_does_not_flush_cache(self, trainer, registry,
                                       sessions):
        v1 = registry.publish(trainer.agent.state_dict())
        v2 = registry.publish(trainer.agent.state_dict())
        with trainer.serve(workers=1, registry=registry) as server:
            server.swap_model(v1)
            server.recommend_one(sessions[0], k=5)
            entries_before = len(server.cache)
            assert entries_before >= 1
            server.swap_model(v2)
            assert len(server.cache) == entries_before  # kept, not hit
            # Same request now misses (new version tag) and re-caches.
            result = server.recommend_one(sessions[0], k=5)
            assert not result.cached
            assert len(server.cache) == entries_before + 1
            snapshot = server.stats()
        assert snapshot.cache_by_version[v1]["misses"] == 1
        assert snapshot.cache_by_version[v2]["misses"] == 1
        assert snapshot.swaps == 2
        assert len(snapshot.swap_latency_ms) == 2

    def test_same_version_traffic_still_hits_after_swap(self, trainer,
                                                        registry,
                                                        sessions):
        v1 = registry.publish(trainer.agent.state_dict())
        with trainer.serve(workers=1, registry=registry) as server:
            server.swap_model(v1)
            first = server.recommend_one(sessions[0], k=5)
            second = server.recommend_one(sessions[0], k=5)
            assert second.cached
            assert second.items == first.items

    def test_swap_under_concurrent_traffic(self, trainer, registry,
                                           sessions, beauty_tiny):
        self._swap_under_traffic("thread", trainer, registry, sessions,
                                 beauty_tiny)

    def test_swap_under_concurrent_traffic_subprocess_updater(
            self, trainer, registry, sessions, beauty_tiny):
        self._swap_under_traffic("subprocess", trainer, registry,
                                 sessions, beauty_tiny)

    @staticmethod
    def _swap_under_traffic(mode, trainer, registry, sessions,
                            beauty_tiny):
        """Clients hammer recommend_one while checkpoints publish and
        swap; no request may fail, and post-swap answers must match a
        fresh server on the final checkpoint."""
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        updater = OnlineUpdater(trainer, ingestor, registry,
                                min_sessions=1, max_steps=1, mode=mode)
        errors = []
        stop = threading.Event()
        try:
            # The warm-start round forks the subprocess-mode child:
            # before the server's and the clients' threads exist.
            v1 = updater.run_once(force=True)
            with trainer.serve(max_batch=8, max_wait_ms=1.0, workers=2,
                               registry=registry) as server:
                server.swap_model(v1)
                updater.on_publish = server.swap_model

                def client(shard):
                    try:
                        while not stop.is_set():
                            for session in shard:
                                server.recommend_one(session, k=5)
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [threading.Thread(target=client,
                                            args=(sessions[i::4],))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                # Publish + swap repeatedly while traffic flows.
                delta = [s for s in beauty_tiny.split.validation
                         if len(s.items) >= 2]
                for round_id in range(2):
                    ingestor.ingest_sessions(
                        delta[round_id * 4:(round_id + 1) * 4])
                    updater.run_once(force=True)
                stop.set()
                for thread in threads:
                    thread.join()
                assert not errors
                assert updater.last_error is None
                final_version = registry.latest()
                assert final_version == v1 + 2 == server.model_version
                swapped = [np.asarray(r.items, dtype=np.int64) for r in
                           server.recommend_many(sessions[:8], k=5)]
        finally:
            stop.set()
            updater.stop()

        with trainer.serve(workers=1, registry=registry) as fresh:
            fresh.swap_model(final_version)
            baseline = [np.asarray(r.items, dtype=np.int64) for r in
                        fresh.recommend_many(sessions[:8], k=5)]
        for a, b in zip(swapped, baseline):
            np.testing.assert_array_equal(a, b)

    def test_swap_without_registry_raises(self, trainer):
        with trainer.serve(workers=1) as server:
            with pytest.raises(ValueError, match="CheckpointRegistry"):
                server.swap_model(1)

    def test_swap_with_explicit_state(self, trainer, sessions):
        state = trainer.agent.state_dict()
        with trainer.serve(workers=1) as server:
            latency = server.swap_model(state=state, version=7)
            assert latency >= 0.0
            assert server.model_version == 7
            result = server.recommend_one(sessions[0], k=5)
            assert len(result.items) == 5
            with pytest.raises(ValueError, match="version tag"):
                server.swap_model(state=state)


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestOnlineConfig:
    def test_online_knob_validation(self, trainer, tmp_path):
        ingestor = DeltaIngestor(trainer.built, trainer.env)
        registry = CheckpointRegistry(tmp_path / "reg")
        for bad in ({"min_sessions": 0}, {"max_steps": 0},
                    {"interval_s": 0}, {"mode": "fiber"}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                OnlineUpdater(trainer, ingestor, registry, **bad)
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointRegistry(tmp_path / "reg", keep_last=-1)
        with pytest.raises(ValueError, match="compact_every"):
            DeltaIngestor(trainer.built, trainer.env, compact_every=0)
        updater = OnlineUpdater(trainer, ingestor, registry)
        assert (updater.min_sessions, updater.max_steps,
                updater.interval_s, updater.mode) == (64, 8, 5.0, "thread")
