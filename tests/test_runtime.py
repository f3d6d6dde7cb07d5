"""Runtime execution plane: plane, COW, lease, pool, differentials.

Everything here is tier-1.  The REKS stack under test is an untrained
agent over the shared tiny fixtures (process workers are rebuilt from
a spec + shared-memory plane, which does not depend on training), and
the differential suites pin the headline contract: process-mode
rankings, explanations, and cache stats are bit-identical to thread
mode across mixed-k batches, mid-traffic hot swaps, and a staged-edge
compaction.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.autograd.tensor import Tensor
from repro.core.agent import clone_agent
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.online import CheckpointRegistry
from repro.runtime import (
    FileLease,
    LeaseTimeout,
    ProcessWorkerPool,
    TablePlane,
)


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    """Untrained (but inference-ready) REKS stack, shared per module."""
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture()
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


def _examples(sessions):
    return [(list(s.items[:-1]), s.items[-1], s.user_id)
            for s in sessions]


def _sync_rankings(trainer, sessions, k):
    ranked = []
    for rec in trainer.recommend_sessions(sessions, k=k):
        ranked.extend([[int(i) for i in row] for row in rec.ranked_items])
    return ranked


# ----------------------------------------------------------------------
# TablePlane
# ----------------------------------------------------------------------
class TestTablePlane:
    def _arrays(self):
        return {"a/ints": np.arange(7, dtype=np.int32),
                "b/floats": np.linspace(0, 1, 12,
                                        dtype=np.float32).reshape(3, 4)}

    # One backend, POSIX shared memory; the id keeps its parameter.
    @pytest.mark.parametrize("backend", ["shm"])
    def test_publish_attach_round_trip(self, backend):
        arrays = self._arrays()
        plane = TablePlane.publish(arrays, key="gen-1")
        try:
            assert plane.key == "gen-1"
            attached = TablePlane.attach(plane.manifest)
            for name, source in arrays.items():
                view = attached[name]
                np.testing.assert_array_equal(view, source)
                assert not view.flags.writeable
                assert view.dtype == source.dtype
            attached.close()
        finally:
            plane.unlink()

    def test_views_are_read_only_even_for_owner(self):
        plane = TablePlane.publish(self._arrays(), key="ro")
        try:
            with pytest.raises((ValueError, TypeError)):
                plane["a/ints"][0] = 99
        finally:
            plane.unlink()

    def test_manifest_is_picklable(self):
        plane = TablePlane.publish(self._arrays(), key="pickle-me")
        try:
            manifest = pickle.loads(pickle.dumps(plane.manifest))
            assert manifest.key == "pickle-me"
            assert set(manifest.entries) == set(self._arrays())
        finally:
            plane.unlink()

    def test_unlink_retires_shm_segment(self):
        plane = TablePlane.publish(self._arrays(), key="gone")
        manifest = plane.manifest
        plane.unlink()
        with pytest.raises(FileNotFoundError):
            TablePlane.attach(manifest)

    def test_unknown_backend_rejected(self):
        """The mmap backend is deleted: planes take no backend."""
        with pytest.raises(TypeError, match="backend"):
            TablePlane.publish(self._arrays(), key="x", backend="mmap")


# ----------------------------------------------------------------------
# Copy-on-write over foreign buffers
# ----------------------------------------------------------------------
class TestCopyOnWrite:
    def test_frozen_from_pretrained_is_read_only(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        emb = Embedding.from_pretrained(table, trainable=False)
        assert not emb.weight.data.flags.writeable
        trainable = Embedding.from_pretrained(table, trainable=True)
        assert trainable.weight.data.flags.writeable

    def test_zero_copy_from_pretrained_aliases_buffer(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        table.flags.writeable = False
        emb = Embedding.from_pretrained(table, trainable=False,
                                        copy=False)
        assert emb.weight.data is table
        with pytest.raises(ValueError, match="copy=False"):
            Embedding.from_pretrained(table, trainable=True, copy=False)

    def test_load_identical_payload_keeps_sharing(self):
        table = np.ones((4, 3), dtype=np.float32)
        emb = Embedding.from_pretrained(table, trainable=False)
        shared = emb.weight.data
        emb.load_state_dict({"weight": np.ones((4, 3), dtype=np.float32)})
        assert emb.weight.data is shared

    def test_load_differing_payload_copies_privately(self):
        table = np.ones((4, 3), dtype=np.float32)
        emb = Embedding.from_pretrained(table, trainable=False)
        original = emb.weight.data
        emb.load_state_dict({"weight": np.full((4, 3), 2.0,
                                               dtype=np.float32)})
        assert emb.weight.data is not original
        assert emb.weight.data.flags.writeable
        np.testing.assert_array_equal(emb.weight.data, 2.0)
        np.testing.assert_array_equal(original, 1.0)  # untouched

    def test_partial_load_skips_missing_keys(self, rng):
        layer = Linear(3, 2, rng=rng)
        weight_before = layer.weight.data.copy()
        layer.load_state_dict({"bias": np.zeros(2, dtype=np.float32)},
                              partial=True)
        np.testing.assert_array_equal(layer.weight.data, weight_before)
        np.testing.assert_array_equal(layer.bias.data, 0.0)
        with pytest.raises(KeyError):
            layer.load_state_dict({"bias": np.zeros(2, dtype=np.float32)})

    def test_ensure_writable_copy_on_write(self):
        buffer = np.arange(4, dtype=np.float32)
        buffer.flags.writeable = False
        tensor = Tensor(buffer)
        assert tensor.data is buffer
        data = tensor.ensure_writable()
        assert data is tensor.data and data is not buffer
        data[0] = 9.0
        assert buffer[0] == 0.0
        assert tensor.ensure_writable() is data  # idempotent


# ----------------------------------------------------------------------
# FileLease
# ----------------------------------------------------------------------
class TestFileLease:
    def test_exclusive_while_held(self, tmp_path):
        path = tmp_path / "resource.lock"
        with FileLease(path, ttl_s=30.0):
            contender = FileLease(path, ttl_s=30.0, timeout_s=0.05)
            with pytest.raises(LeaseTimeout):
                contender.acquire()
        # Released: immediately acquirable again.
        with FileLease(path, timeout_s=1.0) as lease:
            assert lease.held

    def test_dead_holder_taken_over(self, tmp_path):
        path = tmp_path / "resource.lock"
        # A pid that cannot be alive (kernel pid space starts at 1 and
        # pid 1 is init; spawn+reap a child for a provably dead pid).
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        path.write_text(json.dumps({"pid": pid,
                                    "acquired_at": time.time()}))
        with FileLease(path, ttl_s=60.0, timeout_s=2.0) as lease:
            assert lease.held

    def test_expired_ttl_taken_over_when_liveness_unknowable(
            self, tmp_path):
        # A foreign-host holder (non-numeric pid) can only be broken
        # by the TTL.
        path = tmp_path / "resource.lock"
        path.write_text(json.dumps({"pid": "remote-host-4242",
                                    "acquired_at": time.time() - 100}))
        stale = time.time() - 100
        os.utime(path, (stale, stale))
        with FileLease(path, ttl_s=5.0, timeout_s=2.0) as lease:
            assert lease.held

    def test_live_holder_survives_ttl_expiry(self, tmp_path):
        """A slow-but-alive holder (think: paper-dims checkpoint write)
        must not have its lease broken by age — liveness outranks TTL."""
        path = tmp_path / "resource.lock"
        path.write_text(json.dumps({"pid": os.getppid(),  # alive for sure
                                    "acquired_at": time.time() - 100}))
        stale = time.time() - 100
        os.utime(path, (stale, stale))
        contender = FileLease(path, ttl_s=5.0, timeout_s=0.1)
        with pytest.raises(LeaseTimeout):
            contender.acquire()

    def test_unreadable_lease_respects_ttl_only(self, tmp_path):
        path = tmp_path / "resource.lock"
        path.write_text("not json")
        contender = FileLease(path, ttl_s=60.0, timeout_s=0.05)
        with pytest.raises(LeaseTimeout):
            contender.acquire()


# ----------------------------------------------------------------------
# Registry multi-writer safety
# ----------------------------------------------------------------------
def _publisher_proc(root, count, barrier):
    registry = CheckpointRegistry(root, keep_last=0)
    barrier.wait()
    for index in range(count):
        registry.publish({"w": np.full(4, index, dtype=np.float32)},
                         meta={"writer_pid": os.getpid()})


class TestRegistryMultiWriter:
    def test_two_process_publishers_race_safely(self, tmp_path):
        import multiprocessing as mp

        context = mp.get_context("fork")
        barrier = context.Barrier(2)
        count = 4
        procs = [context.Process(target=_publisher_proc,
                                 args=(tmp_path, count, barrier))
                 for _ in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(30)
            assert proc.exitcode == 0
        registry = CheckpointRegistry(tmp_path, keep_last=0)
        # No version reused, none lost, every checkpoint loadable.
        assert registry.versions() == list(range(1, 2 * count + 1))
        for version in registry.versions():
            state, meta = registry.load(version)
            assert meta["version"] == version

    def test_cross_handle_visibility(self, tmp_path, trainer):
        writer = CheckpointRegistry(tmp_path, keep_last=3)
        reader = CheckpointRegistry(tmp_path, keep_last=3)
        assert reader.latest() is None
        version = writer.publish(trainer.agent.state_dict())
        assert reader.latest() == version  # re-read from disk
        state, _ = reader.load(version)
        assert set(state) == set(trainer.agent.state_dict())

    def test_no_lock_litter_after_publish(self, tmp_path, trainer):
        registry = CheckpointRegistry(tmp_path)
        registry.publish(trainer.agent.state_dict())
        assert not (tmp_path / "registry.lock").exists()


# ----------------------------------------------------------------------
# ProcessWorkerPool
# ----------------------------------------------------------------------
class TestProcessWorkerPool:
    def test_exec_bit_identical_and_versioned(self, trainer, sessions):
        subset = sessions[:8]
        expected = _sync_rankings(trainer, subset, 5)
        with ProcessWorkerPool(trainer.agent, workers=2,
                               model_version=3) as pool:
            version, rows = pool.execute(_examples(subset), 5)
            assert version == 3
            assert [row[0] for row in rows] == expected
            assert pool.plane_key == trainer.env.fingerprint()
            assert pool.plane_nbytes > 0

    def test_swap_changes_results_and_version(self, trainer, sessions):
        subset = sessions[:6]
        state = trainer.agent.state_dict()
        perturbed = {k: (v + 0.05 if k.startswith("encoder.") else v)
                     for k, v in state.items()}
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            before = pool.execute(_examples(subset), 5)
            pool.swap(9, perturbed)
            version, _ = pool.execute(_examples(subset), 5)
            assert version == 9
            pool.swap(10, state)
            version, rows = pool.execute(_examples(subset), 5)
            assert version == 10
            # Back on the original weights: original rankings.
            assert [r[0] for r in rows] == [r[0] for r in before[1]]

    def test_worker_death_is_invisible_to_callers(self, trainer, sessions):
        """Killing every worker must not fail a single future: execute
        routes around corpses (liveness check + one transparent retry)
        and the pool respawns in place."""
        subset = sessions[:4]
        expected = _sync_rankings(trainer, subset, 5)
        with ProcessWorkerPool(trainer.agent, workers=2) as pool:
            pool.execute(_examples(subset), 5)
            for worker in pool._workers:
                worker.process.kill()
            time.sleep(0.2)
            for _ in range(4):  # no WorkerDied may escape
                _, rows = pool.execute(_examples(subset), 5)
                assert [r[0] for r in rows] == expected
            assert pool.respawns >= 1
            assert len(pool.ping()) == pool.size  # both slots alive

    def test_health_sweep_respawns_without_traffic(self, trainer):
        """The background sweep replaces a corpse with no execute ever
        observing it (eager death detection)."""
        with ProcessWorkerPool(trainer.agent, workers=2,
                               health_interval_s=0.05) as pool:
            pool._workers[0].process.kill()
            deadline = time.time() + 5.0
            while pool.respawns < 1 and time.time() < deadline:
                time.sleep(0.05)
            assert pool.respawns >= 1
            assert all(w.process.exitcode is None for w in pool._workers)

    def test_broadcast_respawn_then_execute_converges(self, trainer,
                                                      sessions):
        """A corpse detected by a broadcast (ping) must not poison the
        idle queue: the execute that later pops the stale object gets
        the already-respawned slot occupant, not a second respawn or a
        ValueError."""
        subset = sessions[:4]
        expected = _sync_rankings(trainer, subset, 5)
        with ProcessWorkerPool(trainer.agent, workers=2) as pool:
            for worker in pool._workers:
                worker.process.kill()
            time.sleep(0.2)
            assert len(pool.ping()) == 2  # broadcast respawns both slots
            assert pool.respawns == 2
            results = []
            for _ in range(6):  # flush the corpses out of the queue
                _, rows = pool.execute(_examples(subset), 5)
                results.append([r[0] for r in rows])
            assert results and all(r == expected for r in results)
            assert pool.respawns == 2  # no double-respawn of one corpse

    def test_respawned_worker_bootstraps_current_state(self, trainer,
                                                       sessions):
        subset = sessions[:4]
        state = trainer.agent.state_dict()
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            pool.swap(5, state)
            pool._workers[0].process.kill()
            time.sleep(0.2)
            # Death is invisible: the very next execute lands on a
            # respawn bootstrapped to the current ledger.
            version, _ = pool.execute(_examples(subset), 5)
            assert version == 5  # replayed onto the respawn

    def test_swap_delivered_to_dead_worker_lands_on_respawn(self, trainer,
                                                            sessions):
        """A swap whose broadcast finds a corpse must not leave the
        respawned slot one version behind: the ledger is updated
        before delivery, so the bootstrap replays the NEW state."""
        subset = sessions[:4]
        state = trainer.agent.state_dict()
        with ProcessWorkerPool(trainer.agent, workers=2) as pool:
            pool._workers[0].process.kill()
            time.sleep(0.2)
            pool.swap(7, state)  # delivery hits the corpse mid-broadcast
            assert pool.respawns == 1
            assert pool.ping() == [7, 7]
            versions = {pool.execute(_examples(subset), 5)[0]
                        for _ in range(4)}
            assert versions == {7}

    def test_delta_publish_reuses_spare_arena(self, beauty_tiny,
                                              beauty_kg, beauty_transe,
                                              sessions):
        """Double-buffered CSR segments: the first two publishes prime
        the buffer pair (one arena each); from the third on the write
        lands in the retired spare and steady-state publish allocates
        zero new segments."""
        config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                            seed=0)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                              config=config, transe=beauty_transe)
        subset = sessions[:4]
        env = trainer.env
        co_occur = beauty_kg.kg.relation_id("co_occur")
        entities = beauty_kg.entities_of_items(
            np.arange(1, min(40, beauty_kg.n_items + 1)))
        head = int(entities[0])
        _, existing = env.actions_of(head)
        tails = [int(t) for t in entities
                 if int(t) != head and int(t) not in existing][:3]
        assert len(tails) == 3, "fixture KG unexpectedly complete"
        with ProcessWorkerPool(trainer.agent, workers=1) as pool:
            allocations = []
            for tail in tails:
                env.stage_edges([head], [co_occur], [tail])
                env.compact()
                pool.publish_tables(env)
                publish = pool.last_publish
                assert publish["key"] == env.fingerprint()
                allocations.append(publish["segments_allocated"])
                # Every generation flip must still serve correctly.
                _, rows = pool.execute(_examples(subset), 5)
                assert [r[0] for r in rows] \
                    == _sync_rankings(trainer, subset, 5)
            assert allocations == [1, 1, 0]


# ----------------------------------------------------------------------
# Thread/process differential suite
# ----------------------------------------------------------------------
class TestModeEquivalence:
    def test_mixed_k_batches_bit_identical(self, trainer, sessions):
        subset = sessions[:12]
        ks = [3, 7, 5, 3, 7, 5, 3, 7, 5, 3, 7, 5]
        outputs = {}
        for mode in ("thread", "process"):
            with trainer.serve(worker_mode=mode, workers=2,
                               cache_size=0, max_wait_ms=5.0) as server:
                futures = [server.submit(s, k=k)
                           for s, k in zip(subset, ks)]
                outputs[mode] = [f.result() for f in futures]
        for got, want, k in zip(outputs["process"], outputs["thread"], ks):
            assert len(got.items) == k
            assert got.items == want.items
            assert got.explanations == want.explanations
            assert got.scores == want.scores  # bitwise, not approximate

    def test_cache_stats_bit_identical(self, trainer, sessions):
        subset = sessions[:6]
        stats = {}
        for mode in ("thread", "process"):
            with trainer.serve(worker_mode=mode, workers=1) as server:
                for _ in range(2):  # second pass hits
                    for session in subset:
                        server.recommend_one(session, k=5)
                snap = server.stats()
                stats[mode] = (snap.cache_hits, snap.cache_misses,
                               snap.to_dict()["cache_by_version"])
        assert stats["process"] == stats["thread"]

    def test_hot_swap_bit_identical_across_modes(self, trainer, sessions,
                                                 tmp_path):
        subset = sessions[:10]
        registry = CheckpointRegistry(tmp_path)
        state = trainer.agent.state_dict()
        v0 = registry.publish(state)
        perturbed = {k: (v + 0.03 if k.startswith("encoder.") else v)
                     for k, v in state.items()}
        v1 = registry.publish(perturbed)
        phases = {}
        for mode in ("thread", "process"):
            with trainer.serve(worker_mode=mode, workers=2,
                               cache_size=0, registry=registry) as server:
                server.swap_model(v0)
                before = [r.items for r
                          in server.recommend_many(subset, k=5)]
                server.swap_model(v1)
                assert server.model_version == v1
                after = [r.items for r
                         in server.recommend_many(subset, k=5)]
                phases[mode] = (before, after)
        assert phases["process"] == phases["thread"]
        # The perturbed checkpoint must actually change something,
        # otherwise the swap comparison proves nothing.
        assert phases["thread"][0] != phases["thread"][1]

    def test_staged_edges_and_compaction_bit_identical(
            self, beauty_tiny, beauty_kg, beauty_transe, sessions):
        # Private trainer: this test mutates the environment.
        config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                            seed=0)
        trainer = REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                              config=config, transe=beauty_transe)
        subset = sessions[:10]
        env = trainer.env
        co_occur = beauty_kg.kg.relation_id("co_occur")
        # Derive fresh (head, co_occur, tail) edges between products
        # that are not currently adjacent.
        entities = beauty_kg.entities_of_items(
            np.arange(1, min(40, beauty_kg.n_items + 1)))
        heads, tails = [], []
        for head in entities:
            _, existing = env.actions_of(int(head))
            for tail in entities[::-1]:
                if int(tail) != int(head) and int(tail) not in existing:
                    heads.append(int(head))
                    tails.append(int(tail))
                    break
            if len(heads) >= 6:
                break
        assert heads, "fixture KG unexpectedly complete"
        rels = [co_occur] * len(heads)

        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as proc_server, \
                trainer.serve(worker_mode="thread", workers=2,
                              cache_size=0) as thread_server:
            base_p = [r.items for r
                      in proc_server.recommend_many(subset, k=5)]
            base_t = [r.items for r
                      in thread_server.recommend_many(subset, k=5)]
            assert base_p == base_t

            # Stage: thread mode reads the shared env; process workers
            # get the broadcast.
            staged_parent = thread_server.stage_edges(heads, rels, tails)
            staged_workers = proc_server.stage_edges(heads, rels, tails)
            assert staged_parent == staged_workers > 0
            staged_p = [r.items for r
                        in proc_server.recommend_many(subset, k=5)]
            staged_t = [r.items for r
                        in thread_server.recommend_many(subset, k=5)]
            assert staged_p == staged_t

            # Compact: the parent env folds the overlay into fresh CSR;
            # process workers re-attach the new plane generation.
            merged = env.compact()
            assert merged == staged_parent
            key = proc_server.refresh_tables()
            assert key == env.fingerprint()
            assert proc_server.process_pool.generation == 1
            compact_p = [r.items for r
                         in proc_server.recommend_many(subset, k=5)]
            compact_t = [r.items for r
                         in thread_server.recommend_many(subset, k=5)]
            assert compact_p == compact_t
            assert compact_p == staged_p  # compaction preserves actions

    def test_worker_murder_never_fails_a_future(self, trainer, sessions):
        """Failure injection: kill every process worker under a live
        server — no caller-visible future may fail; the pool routes
        around the corpses and the next responses are already correct."""
        subset = sessions[:4]
        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as server:
            expected = [r.items for r
                        in server.recommend_many(subset, k=5)]
            for worker in server.process_pool._workers:
                worker.process.kill()
            time.sleep(0.2)
            for _ in range(3):  # every future must resolve, no retry loop
                recovered = [r.items for r
                             in server.recommend_many(subset, k=5)]
                assert recovered == expected
            assert server.process_pool.respawns >= 1


# ----------------------------------------------------------------------
# Cheap swap clones (satellite)
# ----------------------------------------------------------------------
class TestCheapClones:
    def test_clone_shares_frozen_tables_by_id(self, trainer):
        clone = clone_agent(trainer.agent)
        assert clone.policy.entity_emb.weight.data \
            is trainer.agent.policy.entity_emb.weight.data
        assert clone.policy.relation_emb.weight.data \
            is trainer.agent.policy.relation_emb.weight.data
        # Trainable modules stay private.
        assert clone.encoder.item_embedding.weight.data \
            is not trainer.agent.encoder.item_embedding.weight.data

    def test_finetuned_tables_are_not_shared(self, beauty_tiny, beauty_kg,
                                             beauty_transe):
        config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                            finetune_kg_embeddings=True, seed=0)
        private = REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                              config=config, transe=beauty_transe)
        clone = clone_agent(private.agent)
        assert clone.policy.entity_emb.weight.data \
            is not private.agent.policy.entity_emb.weight.data

    def test_swap_keeps_sharing_through_checkpoint_load(self, trainer,
                                                        tmp_path):
        registry = CheckpointRegistry(tmp_path)
        version = registry.publish(trainer.agent.state_dict())
        with trainer.serve(workers=1, registry=registry) as server:
            server.swap_model(version)
            live = server._agent
            assert live is not trainer.agent
            assert live.policy.entity_emb.weight.data \
                is trainer.agent.policy.entity_emb.weight.data
