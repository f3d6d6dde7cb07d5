"""Serving subsystem: scheduler, executor, cache, server, determinism.

Everything here is tier-1 (fast): the REKS stack under test is an
untrained agent over the shared tiny fixtures — serving behavior does
not depend on training, and the determinism contract is exactly about
reproducing ``recommend_sessions`` bit-for-bit on rankings.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.core.environment import RolloutWorkspace
from repro.runtime import ProcessWorkerPool
from repro.serving import (
    BatchScheduler,
    ExplanationCache,
    SchedulerClosed,
    ServerClosed,
)

from helpers import check_determinism


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


# ----------------------------------------------------------------------
# BatchScheduler
# ----------------------------------------------------------------------
class TestBatchScheduler:
    def test_size_flush_returns_full_batch_immediately(self):
        sched = BatchScheduler(max_batch=4, max_wait_ms=10_000)
        futures = [sched.submit(i) for i in range(4)]
        start = perf_counter()
        batch = sched.next_batch()
        assert perf_counter() - start < 1.0  # no deadline wait
        assert [r.payload for r in batch] == [0, 1, 2, 3]
        assert all(not f.done() for f in futures)

    def test_deadline_flush_with_single_queued_request(self):
        sched = BatchScheduler(max_batch=64, max_wait_ms=30)
        sched.submit("lone")
        start = perf_counter()
        batch = sched.next_batch()
        waited = perf_counter() - start
        assert [r.payload for r in batch] == ["lone"]
        assert waited < 5.0  # flushed on deadline, not stranded

    def test_oversize_burst_splits_at_max_batch(self):
        sched = BatchScheduler(max_batch=4, max_wait_ms=0)
        for i in range(11):
            sched.submit(i)
        sizes = []
        while sched.pending:
            sizes.append(len(sched.next_batch()))
        assert sum(sizes) == 11
        assert max(sizes) <= 4
        assert sizes[0] == 4  # oldest-first, full cuts while oversize

    def test_close_drain_keeps_pending_for_workers(self):
        sched = BatchScheduler(max_batch=8, max_wait_ms=10_000)
        sched.submit("queued")
        assert sched.close(drain=True) == []
        batch = sched.next_batch()
        assert [r.payload for r in batch] == ["queued"]
        assert sched.next_batch() is None  # drained -> workers exit

    def test_close_without_drain_returns_abandoned(self):
        sched = BatchScheduler(max_batch=8, max_wait_ms=10_000)
        sched.submit("dropped")
        abandoned = sched.close(drain=False)
        assert [r.payload for r in abandoned] == ["dropped"]
        assert sched.next_batch() is None

    def test_submit_after_close_raises(self):
        sched = BatchScheduler()
        sched.close()
        with pytest.raises(SchedulerClosed):
            sched.submit("late")

    def test_invalid_knobs_raise(self):
        with pytest.raises(ValueError):
            BatchScheduler(max_batch=0)
        with pytest.raises(ValueError):
            BatchScheduler(max_wait_ms=-1)


# ----------------------------------------------------------------------
# RolloutWorkspace ownership hooks
# ----------------------------------------------------------------------
class TestWorkspaceOwnership:
    def test_double_checkout_raises(self):
        workspace = RolloutWorkspace()
        workspace.checkout()
        with pytest.raises(RuntimeError, match="checked out"):
            workspace.checkout()
        workspace.release()
        workspace.checkout()  # usable again
        assert workspace.checkouts == 2


# ----------------------------------------------------------------------
# ExplanationCache
# ----------------------------------------------------------------------
class TestExplanationCache:
    def test_hit_miss_accounting(self):
        cache = ExplanationCache(4)
        key = ExplanationCache.key((1, 2, 3), 10)
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = ExplanationCache(2)
        a, b, c = (ExplanationCache.key((i,), 1) for i in range(3))
        cache.put(a, "a")
        cache.put(b, "b")
        assert cache.get(a) == "a"  # refresh a
        cache.put(c, "c")           # evicts b (least recent)
        assert cache.get(b) is None
        assert cache.get(a) == "a"
        assert cache.get(c) == "c"
        assert cache.evictions == 1

    def test_capacity_zero_disables(self):
        cache = ExplanationCache(0)
        key = ExplanationCache.key((1,), 1)
        cache.put(key, "value")
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_user_scoped_keys_differ(self):
        base = ExplanationCache.key((1, 2), 5)
        scoped = ExplanationCache.key((1, 2), 5, user_id=7)
        assert base != scoped


# ----------------------------------------------------------------------
# RecommendationServer
# ----------------------------------------------------------------------
class TestRecommendationServer:
    def test_coalesced_matches_recommend_sessions(self, trainer, sessions):
        """Determinism: coalesced rankings and paths == the synchronous
        batch path, request interleaving notwithstanding."""
        k = 10
        expected_rank, expected_paths = [], []
        recs = trainer.recommend_sessions(sessions, k=k)
        offset = 0
        for rec in recs:
            for row in range(rec.ranked_items.shape[0]):
                expected_rank.append(rec.ranked_items[row])
                expected_paths.append(
                    {item: rec.paths[(row, item)]
                     for (r, item) in rec.paths if r == row})
            offset += rec.ranked_items.shape[0]
        with trainer.serve(max_batch=8, max_wait_ms=5.0, workers=2,
                           cache_size=0) as server:
            results = server.recommend_many(sessions, k=k)
        assert len(results) == len(sessions)
        for result, rank, paths in zip(results, expected_rank,
                                       expected_paths):
            np.testing.assert_array_equal(
                np.asarray(result.items, dtype=np.int64), rank)
            for item, path in zip(result.items, result.paths):
                if path is None:
                    assert item not in paths
                else:
                    assert paths[item].entities == path.entities
                    assert paths[item].relations == path.relations

    def test_concurrent_callers_each_get_their_answer(self, trainer,
                                                      sessions):
        k = 5
        flat = []
        for rec in trainer.recommend_sessions(sessions, k=k):
            flat.extend(rec.ranked_items)
        results = [None] * len(sessions)
        with trainer.serve(max_batch=4, max_wait_ms=3.0,
                           workers=2, cache_size=0) as server:
            def client(i):
                results[i] = server.recommend_one(sessions[i], k=k)
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(sessions))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for result, rank in zip(results, flat):
            np.testing.assert_array_equal(
                np.asarray(result.items, dtype=np.int64), rank)

    def test_deadline_flush_serves_single_request(self, trainer,
                                                  sessions):
        with trainer.serve(max_batch=64, max_wait_ms=10.0,
                           workers=1) as server:
            result = server.recommend_one(sessions[0], k=5)
            snapshot = server.stats()
        assert len(result.items) == 5
        assert snapshot.batch_occupancy.get(1) == 1
        assert snapshot.requests == 1

    def test_oversize_request_split(self, trainer, sessions):
        many = (sessions * 3)[:12]
        with trainer.serve(max_batch=4, max_wait_ms=1.0, workers=1,
                           cache_size=0) as server:
            results = server.recommend_many(many, k=5)
            snapshot = server.stats()
        assert len(results) == 12
        assert snapshot.requests == 12
        assert max(snapshot.batch_occupancy) <= 4
        assert snapshot.batches >= 3

    def test_cache_hit_returns_identical_payload(self, trainer,
                                                 sessions):
        with trainer.serve(max_batch=8, max_wait_ms=1.0,
                           workers=1) as server:
            first = server.recommend_one(sessions[0], k=5)
            second = server.recommend_one(sessions[0], k=5)
            snapshot = server.stats()
            assert server.cache.hits == 1
            assert server.cache.misses == 1
        assert not first.cached
        assert second.cached
        assert second.items == first.items
        assert second.scores == first.scores
        assert second.explanations == first.explanations
        assert snapshot.cache_hits == 1
        assert snapshot.cache_misses == 1
        assert snapshot.requests == 2

    def test_distinct_k_not_conflated(self, trainer, sessions):
        with trainer.serve(max_batch=8, max_wait_ms=1.0,
                           workers=1) as server:
            five = server.recommend_one(sessions[0], k=5)
            ten = server.recommend_one(sessions[0], k=10)
        assert len(five.items) == 5
        assert len(ten.items) == 10
        assert server.cache.hits == 0  # 10 after 5 is an upgrade: it walks

    def test_mixed_k_coalesced_batch(self, trainer, sessions):
        """Requests with different k coalesce but execute exactly."""
        with trainer.serve(max_batch=16, max_wait_ms=20.0, workers=1,
                           cache_size=0) as server:
            futures = [server.submit(sessions[i % len(sessions)],
                                     k=(5 if i % 2 else 10))
                       for i in range(6)]
            results = [f.result() for f in futures]
        for i, result in enumerate(results):
            assert len(result.items) == (5 if i % 2 else 10)

    def test_mixed_k_single_superset_flush_bit_identical(self, trainer,
                                                         sessions):
        """A mixed-k flush executes as ONE superset walk — a single
        batch at max(k) with each row selected at its own k — and every
        ranking, score, and explanation is bit-identical to a dedicated
        per-k execution of that session alone."""
        subset = sessions[:6]
        ks = [3, 10, 5, 7, 10, 3]
        with trainer.serve(max_batch=16, max_wait_ms=50.0, workers=1,
                           cache_size=0) as server:
            futures = [server.submit(s, k=k)
                       for s, k in zip(subset, ks)]
            results = [f.result() for f in futures]
            snapshot = server.stats()
        # One flush, one walk: the mixed ks did NOT split the batch.
        assert snapshot.batches == 1
        assert snapshot.batch_occupancy.get(len(subset)) == 1
        # Per-k reference: the SAME collated batch executed at each
        # distinct k (scores/walk are batch-composition dependent, so
        # the batch is held fixed; the superset selection must then be
        # bitwise indistinguishable from a dedicated k run).
        reference = {k: trainer.recommend_sessions(subset, k=k)[0]
                     for k in set(ks)}
        for row, (k, result) in enumerate(zip(ks, results)):
            assert len(result.items) == k
            rec = reference[k]
            np.testing.assert_array_equal(
                np.asarray(result.items, dtype=np.int64),
                rec.ranked_items[row])
            assert result.scores == tuple(
                float(rec.scores[row, item]) for item in result.items)
            for item, path in zip(result.items, result.paths):
                expected = rec.paths.get((row, item))
                if path is None:
                    assert expected is None
                else:
                    assert path.entities == expected.entities
                    assert path.relations == expected.relations

    def test_graceful_shutdown_completes_in_flight(self, trainer,
                                                   sessions):
        server = trainer.serve(max_batch=64, max_wait_ms=10_000.0,
                               workers=1, cache_size=0)
        futures = [server.submit(s, k=5) for s in sessions[:6]]
        assert not any(f.done() for f in futures)  # parked on deadline
        server.shutdown(drain=True)
        for future in futures:
            assert len(future.result(timeout=0).items) == 5
        with pytest.raises(ServerClosed):
            server.recommend_one(sessions[0], k=5)

    def test_shutdown_without_drain_fails_pending(self, trainer,
                                                  sessions):
        server = trainer.serve(max_batch=64, max_wait_ms=10_000.0,
                               workers=1, cache_size=0)
        futures = [server.submit(s, k=5) for s in sessions[:3]]
        server.shutdown(drain=False)
        failed = 0
        for future in futures:
            try:
                future.result(timeout=1)
            except ServerClosed:
                failed += 1
        assert failed == len(futures)

    def test_short_session_rejected(self, trainer, beauty_tiny):
        from repro.data.schema import Session

        stub = Session([3], user_id=0, day=0)
        with trainer.serve(workers=1) as server:
            with pytest.raises(ValueError, match=">= 2 items"):
                server.recommend_one(stub, k=5)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("k", [0, -3])
    def test_non_positive_k_rejected(self, trainer, sessions, mode, k):
        """``k=-3`` used to come back with almost the whole catalogue
        (``argpartition(kth=k-1)[:, :k]`` slices from the end)."""
        with trainer.serve(workers=1, worker_mode=mode) as server:
            for call in (server.submit, server.recommend_one):
                with pytest.raises(ValueError, match="k must be >= 1"):
                    call(sessions[0], k)
            with pytest.raises(ValueError, match="k must be >= 1"):
                server.recommend_many(sessions[:2], k=k)
            # Rejected before the cache lookup, and the server still
            # answers.
            assert server.stats().cache_hits == 0
            assert server.stats().cache_misses == 0
            assert len(server.recommend_one(sessions[0], k=3).items) == 3

    def test_non_positive_k_rejected_below_the_server(self, trainer,
                                                      sessions):
        from repro.core.agent import _top_k
        from repro.data.loader import SessionBatcher

        batch = next(iter(SessionBatcher(sessions[:4], batch_size=4,
                                         shuffle=False)))
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                trainer.agent.recommend(batch, k=k)
            # _top_k is also what cascade providers rank candidates with.
            with pytest.raises(ValueError, match="k must be >= 1"):
                _top_k(np.zeros((1, 5)), k)

    def test_from_trainer_uses_config_knobs(self, trainer):
        """``trainer.serve`` hands its options to the server's
        constructor, whose keywords are their one home — defaults,
        overrides and validation included."""
        with trainer.serve() as server:
            assert server._scheduler.max_batch == 32
            assert server.cache.capacity == 2048
            assert server.default_k == 20
            assert server.worker_mode == "thread"
        with trainer.serve(max_batch=4, cache_size=7,
                           default_k=3) as server:
            assert server._scheduler.max_batch == 4
            assert server.cache.capacity == 7
            assert server.default_k == 3
        for retired in ({"serve_max_batch": 4}, {"walk_memo_size": 0}):
            with pytest.raises(TypeError):
                trainer.serve(**retired)

    def test_option_validation_at_the_constructor(self, trainer):
        for bad in ({"default_k": 0}, {"trace_sample": 1.5},
                    {"trace_sample": -0.1}, {"window_interval_ms": -5},
                    {"metrics_port": -1}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                trainer.serve(**bad)
        # Regression: a negative period used to start a health thread
        # that spun (0.9 CPU-seconds per idle second in the parent).
        before = threading.active_count()
        with pytest.raises(ValueError, match="health_interval_ms"):
            trainer.serve(worker_mode="process", health_interval_ms=-1)
        with pytest.raises(ValueError, match="health_interval_s"):
            ProcessWorkerPool(trainer.agent, workers=1,
                              health_interval_s=-0.001)
        assert threading.active_count() == before

    def test_check_determinism_helper(self, trainer, sessions):
        assert check_determinism(trainer, sessions[:10], k=5)


def _park_first_walk(monkeypatch):
    """Make the first ``REKSAgent.recommend`` call wait inside the
    flush: returns ``(entered, gate)`` — set when the executor is
    parked, and what lets it go."""
    from repro.core.agent import REKSAgent

    real = REKSAgent.recommend
    gate, entered = threading.Event(), threading.Event()

    def parked(self, *args, **kwargs):
        if not entered.is_set():
            entered.set()
            assert gate.wait(timeout=30)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(REKSAgent, "recommend", parked)
    return entered, gate


# ----------------------------------------------------------------------
# Failure containment: a worker raising mid-flush must fail the
# affected futures, release its pinned workspace, and keep serving.
# ----------------------------------------------------------------------
class TestWorkerFailureContainment:
    def test_batch_failure_fails_all_futures_and_recovers(
            self, trainer, sessions, monkeypatch):
        from repro.core.agent import REKSAgent

        real = REKSAgent.recommend
        calls = {"n": 0}

        def flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected walk failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(REKSAgent, "recommend", flaky)
        with trainer.serve(max_batch=8, max_wait_ms=20.0, workers=1,
                           cache_size=0) as server:
            futures = [server.submit(s, k=5) for s in sessions[:3]]
            failed = 0
            for future in futures:
                try:
                    future.result(timeout=10)
                except RuntimeError as exc:
                    assert "injected walk failure" in str(exc)
                    failed += 1
            assert failed == 3  # coalesced batch: all fail, none hang
            # The workspace was released on the error path (a second
            # checkout would raise otherwise)...
            assert server.workspace.checkouts == 1
            server.workspace.checkout()
            server.workspace.release()
            # ...and the executor survived to serve new traffic.
            result = server.recommend_one(sessions[0], k=5)
            assert len(result.items) == 5
            assert server.workspace.checkouts == 3

    def test_failure_leaves_later_queue_intact(self, trainer, sessions,
                                               monkeypatch):
        """Requests queued behind a failing batch still execute."""
        from repro.core.agent import REKSAgent

        real = REKSAgent.recommend
        calls = {"n": 0}

        def flaky(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch dies")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(REKSAgent, "recommend", flaky)
        with trainer.serve(max_batch=1, max_wait_ms=0.0, workers=1,
                           cache_size=0) as server:
            futures = [server.submit(s, k=5) for s in sessions[:4]]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(len(future.result(timeout=10).items))
                except RuntimeError:
                    outcomes.append("failed")
            assert outcomes.count("failed") == 1
            assert outcomes.count(5) == 3


    @pytest.mark.parametrize("drain", [True, False])
    def test_shutdown_resolves_every_queued_future(self, trainer,
                                                   sessions, monkeypatch,
                                                   drain):
        """More queued than one flush holds, behind a parked flush:
        the one executor finishes them all (drain) or the server fails
        them all (no drain) — nothing hangs."""
        entered, gate = _park_first_walk(monkeypatch)
        server = trainer.serve(max_batch=2, max_wait_ms=0.0, workers=4,
                               cache_size=0)
        try:
            first = server.submit(sessions[0], k=5)
            assert entered.wait(timeout=10)
            queued = [server.submit(s, k=5) for s in sessions[1:6]]
            closer = threading.Thread(target=server.shutdown,
                                      kwargs={"drain": drain})
            closer.start()
            time.sleep(0.05)
        finally:
            gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert len(first.result(timeout=0).items) == 5
        for future in queued:
            if drain:
                assert len(future.result(timeout=0).items) == 5
            else:
                with pytest.raises(ServerClosed):
                    future.result(timeout=0)

    def test_dead_worker_loop_fails_queued_futures(self, trainer,
                                                   sessions, monkeypatch):
        """Last resort: if the executor's loop itself dies, everything
        still queued fails with that error instead of hanging on the
        only thread that could have cut it."""
        from repro.serving import RecommendationServer

        gate = threading.Event()

        def broken(self, batch):
            assert gate.wait(timeout=30)
            raise MemoryError("executor died")

        died = []
        monkeypatch.setattr(RecommendationServer, "_process", broken)
        monkeypatch.setattr(threading, "excepthook", died.append)
        server = trainer.serve(max_batch=1, max_wait_ms=0.0,
                               cache_size=0)
        try:
            futures = [server.submit(s, k=5) for s in sessions[:4]]
            cancelled = futures[2].cancel()
            gate.set()
            for future in futures[1:2] + futures[3:]:
                with pytest.raises(MemoryError, match="executor died"):
                    future.result(timeout=10)
            assert cancelled and futures[2].cancelled()
            with pytest.raises(ServerClosed):
                server.submit(sessions[0], k=5)
        finally:
            server.shutdown()
        assert len(died) == 1 and died[0].exc_type is MemoryError


# ----------------------------------------------------------------------
# The scheduling contract: one executor per interpreter in thread mode
# (threads share a GIL, so a second one only splits flushes), and
# ``workers`` concurrent dispatchers in process mode.
# ----------------------------------------------------------------------
def _serve_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("reks-serve-")]


class TestExecutorContract:
    def test_thread_mode_runs_one_executor(self, trainer, sessions,
                                           monkeypatch):
        from repro.core.agent import REKSAgent

        real = REKSAgent.recommend
        lock = threading.Lock()
        seen = {"inside": 0, "peak": 0, "calls": 0}

        def watched(self, *args, **kwargs):
            with lock:
                seen["calls"] += 1
                seen["inside"] += 1
                seen["peak"] = max(seen["peak"], seen["inside"])
            try:
                time.sleep(0.002)  # room for a second executor to enter
                return real(self, *args, **kwargs)
            finally:
                with lock:
                    seen["inside"] -= 1

        monkeypatch.setattr(REKSAgent, "recommend", watched)
        before = len(_serve_threads())
        with trainer.serve(max_batch=2, max_wait_ms=0.0, workers=4,
                           worker_mode="thread",
                           cache_size=0) as server:
            assert len(_serve_threads()) - before == 1
            assert server.executors == 1
            clients = [threading.Thread(target=server.recommend_many,
                                        args=(sessions[i::4], 5))
                       for i in range(4)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60)
                assert not client.is_alive()
            assert server.stats().requests == len(sessions)
        assert len(_serve_threads()) == before
        assert seen["calls"] > 1
        assert seen["peak"] == 1

    @pytest.mark.parametrize("extra, flushes", [
        (3, {1: 1, 3: 1}),        # fewer than max_batch: one flush
        (7, {1: 1, 4: 1, 3: 1}),  # max_batch + 3: a full one, then 3
    ])
    def test_misses_behind_a_flush_leave_together(self, trainer, sessions,
                                                  monkeypatch, extra,
                                                  flushes):
        """Misses that arrive while a flush executes accumulate —
        well past ``max_wait_ms`` — and leave as one flush (cut at
        ``max_batch``) the moment the executor is free, instead of
        being timer-cut into small flushes by a second thread."""
        entered, gate = _park_first_walk(monkeypatch)
        with trainer.serve(max_batch=4, max_wait_ms=5.0, workers=2,
                           cache_size=0) as server:
            try:
                first = server.submit(sessions[0], k=5)
                assert entered.wait(timeout=10)
                queued = []
                for session in sessions[1:1 + extra]:
                    queued.append(server.submit(session, k=5))
                    time.sleep(0.004)
                time.sleep(0.02)  # every queued miss is past its deadline
                assert server.pending == extra
                assert server.stats().batches == 1
            finally:
                gate.set()
            for future in [first] + queued:
                assert len(future.result(timeout=30).items) == 5
            assert server.stats().batch_occupancy == flushes

    def test_process_mode_keeps_workers_flushes_in_flight(
            self, trainer, sessions, monkeypatch):
        """Process dispatchers wait on a doorbell with the GIL
        released, so ``workers=2`` still means two flushes walking at
        once: both (forked) workers park inside ``recommend`` before
        either is let go."""
        import multiprocessing as mp

        from repro.core.agent import REKSAgent

        context = mp.get_context("fork")
        gate, parked = context.Event(), context.Semaphore(0)
        real = REKSAgent.recommend

        def held(self, *args, **kwargs):
            parked.release()
            gate.wait(timeout=30)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(REKSAgent, "recommend", held)
        with trainer.serve(worker_mode="process", mp_context="fork",
                           workers=2, max_batch=1, max_wait_ms=0.0,
                           cache_size=0) as server:
            assert server.executors == 2
            try:
                futures = [server.submit(s, k=5) for s in sessions[:2]]
                assert parked.acquire(timeout=20)
                assert parked.acquire(timeout=20)
                assert not any(future.done() for future in futures)
            finally:
                gate.set()
            for future in futures:
                assert len(future.result(timeout=30).items) == 5

    def test_workers_must_be_positive(self, trainer):
        with pytest.raises(ValueError, match=">= 1 worker"):
            trainer.serve(workers=0)


# ----------------------------------------------------------------------
# Cancellation: a caller's ``future.cancel()`` on a queued request drops
# that request alone.
# ----------------------------------------------------------------------
class TestCancelledRequests:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_cancelled_request_does_not_poison_its_flush(
            self, trainer, sessions, mode):
        """``set_result`` on a cancelled future raised
        ``InvalidStateError`` out of the respond step, and the failure
        handler then failed every later request of the flush although
        its answer was computed, cached and counted."""
        subset = sessions[:4]
        with trainer.serve(max_batch=4, max_wait_ms=10_000.0, workers=1,
                           worker_mode=mode, cache_size=0) as server:
            expected = [r.items
                        for r in server.recommend_many(subset, k=5)]
        server = trainer.serve(max_batch=4, max_wait_ms=10_000.0,
                               workers=1, worker_mode=mode)
        try:
            futures = [server.submit(s, k=5) for s in subset[:3]]
            assert futures[1].cancel()
            futures.append(server.submit(subset[3], k=5))  # size flush
            for index in (0, 2, 3):
                assert futures[index].result(timeout=30).items \
                    == expected[index]
            assert futures[1].cancelled()
            stats = server.stats()
            # Cancelled before the cut: not walked, not counted, not
            # cached — and its flush-mates are all three.
            assert stats.requests == 3
            assert stats.batch_occupancy == {3: 1}
            assert len(server.cache) == 3
            # A claimed (running) request can no longer be cancelled.
            assert not futures[0].cancel()
        finally:
            server.shutdown()

    def test_cancelled_request_survives_no_drain_shutdown(self, trainer,
                                                          sessions):
        server = trainer.serve(max_batch=64, max_wait_ms=10_000.0,
                               cache_size=0)
        futures = [server.submit(s, k=5) for s in sessions[:3]]
        assert futures[0].cancel()
        server.shutdown(drain=False)  # used to raise InvalidStateError
        assert futures[0].cancelled()
        for future in futures[1:]:
            with pytest.raises(ServerClosed):
                future.result(timeout=1)


# ----------------------------------------------------------------------
# Trainer integration
# ----------------------------------------------------------------------
class TestTrainerIntegration:
    def test_evaluate_routes_through_server(self, trainer, sessions):
        direct = trainer.evaluate(sessions, ks=(5, 10))
        with trainer.serve(max_batch=8, max_wait_ms=2.0,
                           workers=2) as server:
            served = trainer.evaluate(sessions, ks=(5, 10),
                                      server=server)
        assert served == direct

    def test_recommend_sessions_empty_input(self, trainer):
        assert trainer.recommend_sessions([]) == []
        assert trainer.recommend_sessions(iter(())) == []

    def test_evaluate_drops_short_sessions_consistently(self, trainer,
                                                        sessions):
        """A <2-item session must not shift rankings against targets,
        and the server path must agree with the direct path."""
        from repro.data.schema import Session

        stub = Session([3], user_id=0, day=0)
        mixed = [sessions[0], stub, sessions[1]]
        clean = [sessions[0], sessions[1]]
        expected = trainer.evaluate(clean, ks=(5,))
        assert trainer.evaluate(mixed, ks=(5,)) == expected
        with trainer.serve(workers=1) as server:
            assert trainer.evaluate(mixed, ks=(5,),
                                    server=server) == expected


def test_serving_smoke_round_trip(trainer, sessions):
    """Tier-1 smoke: one coalesced round trip with explanations."""
    with trainer.serve(max_batch=4, max_wait_ms=1.0,
                       workers=1) as server:
        result = server.recommend_one(sessions[0], k=3)
    assert len(result.items) == 3
    assert len(result.explanations) == 3
    assert any(result.scores)  # something was actually ranked
    for path, rendered in zip(result.paths, result.explanations):
        assert (path is None) == (rendered == "")
