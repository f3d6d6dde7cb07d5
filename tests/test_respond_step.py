"""The server's respond step and the per-flush accounting under it.

Tier-1.  ``ExplanationCache.put_many``, ``ServerStats.record_requests``
and ``MetricBlock.observe_many`` must leave exactly the state one
scalar call per element leaves (they replace a per-request loop), a
reader must never see half a batch, and a request's cache admission
and accounting must still precede its future's resolution.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.data.schema import Session
from repro.serving import ExplanationCache
from repro.serving.stats import RESERVOIR_SIZE, ServerStats
from repro.telemetry.block import (LocalHistogram, MetricBlock,
                                   MetricSchema, fleet_schema)

LATENCIES = [0.004, 0.0005, 0.031, 0.004, 1e-7, 2.5, 0.0, 0.0121]


def _hist_state(hist):
    return (hist.count, hist.sum, hist.min, hist.max,
            hist.buckets.tolist())


class TestBatchedAccounting:
    def test_put_many_is_one_put_each(self):
        keys = [ExplanationCache.key((i % 5,), 1) for i in range(12)]
        values = [f"v{i}" for i in range(12)]
        one, many = ExplanationCache(3), ExplanationCache(3)
        for cache in (one, many):
            cache.put(keys[4], "old")
        for key, value in zip(keys, values):
            one.put(key, value)
        many.put_many(keys, values)
        assert list(one._entries.items()) == list(many._entries.items())
        assert one.evictions == many.evictions > 0
        off = ExplanationCache(0)
        off.put_many(keys, values)
        assert len(off) == 0

    def test_local_histogram_observe_many(self):
        one, many = LocalHistogram(), LocalHistogram()
        for hist in (one, many):
            hist.observe(0.25)
        for value in LATENCIES:
            one.observe(value)
        many.observe_many(LATENCIES)
        assert _hist_state(one.snapshot()) == _hist_state(many.snapshot())

    def test_metric_block_observe_many(self):
        schema = MetricSchema(counters=("a_total",),
                              histograms=("lat_seconds", "other_seconds"))
        one = MetricBlock.create(schema, role="one")
        many = MetricBlock.create(schema, role="many")
        try:
            for block in (one, many):
                block.observe("lat_seconds", 0.25)
            for value in LATENCIES:
                one.observe("lat_seconds", value)
            many.observe_many("lat_seconds", LATENCIES)
            many.observe_many("lat_seconds", [])          # no-op
            many.observe_many("not_in_schema", LATENCIES)  # ignored
            a, b = one.snapshot(), many.snapshot()
            assert (_hist_state(a.hists["lat_seconds"])
                    == _hist_state(b.hists["lat_seconds"]))
            assert b.hists["other_seconds"].count == 0
        finally:
            one.unlink()
            many.unlink()

    def test_record_requests_is_one_record_request_each(self):
        # past the reservoir's capacity, so replacement draws are
        # compared too
        rng = np.random.default_rng(3)
        values = rng.uniform(1e-4, 0.05, RESERVOIR_SIZE + 500).tolist()
        blocks = [MetricBlock.create(fleet_schema(), role=f"s{i}")
                  for i in range(2)]
        try:
            one, many = (ServerStats(metrics=block) for block in blocks)
            for value in values:
                one.record_request(value)
            for lo in range(0, len(values), 32):
                many.record_requests(values[lo:lo + 32])
            many.record_requests([])
            a, b = one.snapshot(), many.snapshot()
            assert a.requests == b.requests == len(values)
            assert (a.latency_ms_mean, a.latency_ms_p50, a.latency_ms_p95,
                    a.latency_ms_p99) == (
                b.latency_ms_mean, b.latency_ms_p50, b.latency_ms_p95,
                b.latency_ms_p99)
            assert (_hist_state(one._lat_hist.snapshot())
                    == _hist_state(many._lat_hist.snapshot()))
            assert np.array_equal(one._lat_sample.values(),
                                  many._lat_sample.values())
            snaps = [block.snapshot() for block in blocks]
            assert (snaps[0].counters["requests_total"]
                    == snaps[1].counters["requests_total"] == len(values))
            assert (_hist_state(snaps[0].hists["request_latency_seconds"])
                    == _hist_state(
                        snaps[1].hists["request_latency_seconds"]))
        finally:
            for block in blocks:
                block.unlink()

    def test_record_hit_is_its_three_scalar_calls(self):
        """The hit path's single call ends where ``record_cache`` +
        the ``render_deferred_total`` count + ``record_request`` end:
        same ``stats()`` and same mirror block, per-version split and
        reservoir draws included."""
        rng = np.random.default_rng(5)
        values = rng.uniform(1e-6, 1e-3, RESERVOIR_SIZE + 500).tolist()
        blocks = [MetricBlock.create(fleet_schema(), role=f"h{i}")
                  for i in range(2)]
        try:
            three, one = (ServerStats(metrics=block) for block in blocks)
            for stats in (three, one):
                stats.record_cache(False, 1)
            for n, value in enumerate(values):
                version, rendered = 1 + n % 3, n % 21
                three.record_cache(True, version)
                blocks[0].count("render_deferred_total", rendered)
                three.record_request(value)
                one.record_hit(value, version, rendered)
            a, b = three.snapshot().to_dict(), one.snapshot().to_dict()
            for timing in ("duration_s", "throughput_rps"):
                a.pop(timing), b.pop(timing)
            assert a == b
            assert a["requests"] == a["cache_hits"] == len(values)
            assert np.array_equal(three._lat_sample.values(),
                                  one._lat_sample.values())
            snaps = [block.snapshot() for block in blocks]
            assert snaps[0].counters == snaps[1].counters
            assert snaps[0].counters["render_deferred_total"] == sum(
                n % 21 for n in range(len(values)))
            assert (_hist_state(snaps[0].hists["request_latency_seconds"])
                    == _hist_state(
                        snaps[1].hists["request_latency_seconds"]))
            # Without a mirror block the call still counts.
            bare = ServerStats()
            bare.record_hit(0.001, 0, 3)
            assert bare.snapshot().cache_hits == 1
        finally:
            for block in blocks:
                block.unlink()

    def test_reader_never_sees_half_a_batch(self):
        """Every batch is 32 observations of one constant: an untorn
        snapshot's count is a multiple of 32 and its bucket mass and
        sum agree with it."""
        schema = MetricSchema(histograms=("lat_seconds",))
        block = MetricBlock.create(schema, role="h")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                block.observe_many("lat_seconds", [0.5] * 32)

        writer = threading.Thread(target=hammer)
        writer.start()
        try:
            checked = 0
            deadline = time.time() + 2.0
            while checked < 300 and time.time() < deadline:
                snap = block.snapshot()
                if snap.torn:
                    continue
                hist = snap.hists["lat_seconds"]
                assert hist.count % 32 == 0
                assert int(hist.buckets.sum()) == hist.count
                assert hist.sum == 0.5 * hist.count
                checked += 1
            assert checked >= 100
        finally:
            stop.set()
            writer.join()
            block.unlink()


@pytest.fixture(scope="module")
def trainer(beauty_tiny, beauty_kg, beauty_transe):
    config = REKSConfig(dim=16, state_dim=16, sample_sizes=(20, 4),
                        seed=0)
    return REKSTrainer(beauty_tiny, beauty_kg, model_name="narm",
                       config=config, transe=beauty_transe)


@pytest.fixture()
def sessions(beauty_tiny):
    return [s for s in beauty_tiny.split.test if len(s.items) >= 2]


class TestRespondStep:
    def test_base_key_plus_tail_is_the_cache_key(self, trainer):
        session = Session(items=[np.int64(3), 7, np.int32(9), 4],
                          user_id=5, day=0)
        with trainer.serve(workers=1) as server:
            base = server._base_key(session)
            assert base + (None, 3) == ExplanationCache.key(
                (3, 7, 9), user_id=None, cascade=None, version=3)
            assert all(type(i) is int for i in base[0])

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_counted_and_cached_before_the_future_resolves(
            self, trainer, sessions, mode):
        """A done-callback runs inside ``set_result``: whatever it
        sees is what a caller sees right after ``result()``."""
        subset = sessions[:6] + sessions[:2]      # two in-flush repeats
        seen = []
        with trainer.serve(worker_mode=mode, workers=1, max_batch=8,
                           max_wait_ms=100.0) as server:
            def check(future, session):
                key = server._base_key(session) + (None, 0)
                entry = server.cache._entries.get(key)
                seen.append((server.stats().requests,
                             entry is not None and entry.asked == 5,
                             future.result()))

            futures = []
            for session in subset:
                future = server.submit(session, k=5)
                future.add_done_callback(
                    lambda f, s=session: check(f, s))
                futures.append(future)
            results = [future.result() for future in futures]
            deadline = time.time() + 5.0   # result() can return just
            while len(seen) < 8 and time.time() < deadline:  # before
                time.sleep(0.001)          # the last callback ran
            assert [count for count, _, _ in seen] == [8] * 8
            assert all(cached for _, cached, _ in seen)
            assert server.stats().requests == 8
            assert len(server.cache) == 6
            # dedup fan-out: repeats share their tuples, not copies
            assert results[6].items is results[0].items
            assert results[6].paths is results[0].paths
            assert results[7].explanations is results[1].explanations
            assert not any(result.cached for result in results)
            assert all(result.latency_ms > 0 for result in results)
            hit = server.submit(subset[0], k=5).result()
            assert hit.cached and hit.items is results[0].items
            assert hit.explanations == results[0].explanations
            snap = server.fleet_snapshot()
            assert snap.counter("requests_total") == 9
            assert snap.counter("render_rows_total") == 8 * 5
            assert snap.counter("render_deferred_total") == 5
            assert snap.hist("request_latency_seconds").count == 9
