"""Telemetry plane: metric blocks, fleet registry, tracing, exporters.

Unit layers (block seqlock, registry retire/merge, tracer, Prometheus
text, SLO gates, HTTP endpoint) run against synthetic metrics; the
integration layers drive a real :class:`RecommendationServer` — thread
and process worker modes — and assert the fleet snapshot, trace-id
propagation through the ring codec, and
bounded ``ServerStats`` memory under a 1M-request soak.
"""

from __future__ import annotations

import json
import math
import threading
import time
from urllib.error import HTTPError
from urllib.request import urlopen

import numpy as np
import pytest

from repro import REKSConfig, REKSTrainer
from repro.serving.stats import RESERVOIR_SIZE, ServerStats
from repro.telemetry.block import (
    HIST_BUCKETS,
    LocalHistogram,
    MetricBlock,
    MetricSchema,
    Reservoir,
    bucket_index,
    bucket_upper_edges,
    fleet_schema,
    merge_hists,
    walk_hop_hist,
)
from repro.telemetry.exporters import (
    SLO,
    evaluate_slos,
    json_snapshot,
    prometheus_text,
    serving_slos,
    split_labels,
)
from repro.telemetry.httpd import MetricsEndpoint
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.sink import TraceSink
from repro.telemetry.top import render_top
from repro.telemetry.trace import (
    ROW_SPAN,
    SPAN_KINDS,
    SpanRecord,
    Tracer,
    attribute_rows,
    span_kind_id,
    spans_by_trace,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.telemetry.window import (
    RollingWindow,
    WindowSampler,
    hist_delta,
    hist_from_dict,
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


SMALL = MetricSchema(counters=("a_total", "b_total"),
                     gauges=("level",),
                     histograms=("lat_seconds",))


# ----------------------------------------------------------------------
# MetricBlock
# ----------------------------------------------------------------------
class TestMetricBlock:
    def test_bucket_geometry(self):
        edges = bucket_upper_edges()
        assert len(edges) == HIST_BUCKETS
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(1e-12) == 0      # underflow clamps low
        assert bucket_index(1e12) == HIST_BUCKETS - 1  # overflow clamps
        for value in (1e-6, 1e-3, 0.5, 1.0, 7.3):
            i = bucket_index(value)
            assert value <= edges[i]
            if i:
                # Exact powers of two sit on the boundary (frexp puts
                # them in the upper bucket); everything else is strict.
                assert value >= edges[i - 1]

    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_create_write_snapshot(self, backend):
        block = MetricBlock.create(SMALL, role="t", backend=backend)
        try:
            block.count("a_total")
            block.count("a_total", 4)
            block.count("nonexistent_total")   # unknown names are no-ops
            block.gauge("level", 2.5)
            for v in (0.001, 0.002, 0.004):
                block.observe("lat_seconds", v)
            snap = block.snapshot()
            assert not snap.torn
            assert snap.role == "t"
            assert snap.counters == {"a_total": 5, "b_total": 0}
            assert snap.gauges["level"] == 2.5
            hist = snap.hists["lat_seconds"]
            assert hist.count == 3
            assert hist.sum == pytest.approx(0.007)
            assert hist.min == 0.001 and hist.max == 0.004
            assert int(hist.buckets.sum()) == 3
        finally:
            block.unlink()

    def test_attach_sees_writer_mutations(self):
        block = MetricBlock.create(SMALL, role="w")
        try:
            reader = MetricBlock.attach(block.manifest, writer=False)
            block.count("b_total", 7)
            block.observe("lat_seconds", 0.25)
            snap = reader.snapshot()
            assert snap.counters["b_total"] == 7
            assert snap.hists["lat_seconds"].count == 1
            reader.close()
        finally:
            block.unlink()

    def test_quantiles_clamped_to_observed_extremes(self):
        block = MetricBlock.create(SMALL, role="q")
        try:
            for v in [0.010] * 99 + [0.100]:
                block.observe("lat_seconds", v)
            hist = block.snapshot().hists["lat_seconds"]
            assert hist.quantile(0.5) == pytest.approx(0.010, rel=0.6)
            assert hist.quantile(0.5) >= hist.min
            assert hist.quantile(1.0) == pytest.approx(0.100)
            assert hist.to_dict()["p99"] <= hist.max
        finally:
            block.unlink()

    def test_empty_histogram_snapshot(self):
        block = MetricBlock.create(SMALL, role="e")
        try:
            hist = block.snapshot().hists["lat_seconds"]
            assert hist.count == 0
            assert hist.quantile(0.99) == 0.0
            assert hist.mean == 0.0
            assert hist.to_dict()["min"] == 0.0  # not the +inf sentinel
        finally:
            block.unlink()

    def test_seqlock_consistent_under_hammering_writer(self):
        """Reader snapshots taken while a writer thread hammers the
        block must be internally consistent: bucket mass == count and
        count*value == sum (every observation is the same constant, so
        any torn copy shows up as a mismatch)."""
        block = MetricBlock.create(SMALL, role="h")
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                block.observe("lat_seconds", 0.5)
                block.count("a_total")

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
                assert int(hist.buckets.sum()) == hist.count
                assert hist.sum == pytest.approx(0.5 * hist.count)
                checked += 1
            assert checked >= 100  # the seqlock actually admits readers
        finally:
            stop.set()
            writer.join()
            block.unlink()

    def test_merge_hists_sums_mass_and_extremes(self):
        a, b = LocalHistogram(), LocalHistogram()
        for v in (0.001, 0.004):
            a.observe(v)
        b.observe(2.0)
        merged = merge_hists((a.snapshot(), None, b.snapshot()))
        assert merged.count == 3
        assert merged.sum == pytest.approx(2.005)
        assert merged.min == 0.001 and merged.max == 2.0
        empty = merge_hists(())
        assert empty.count == 0 and empty.min == 0.0

    def test_fleet_schema_labelled_families(self):
        schema = fleet_schema(hops=2)
        assert walk_hop_hist(1) in schema.histograms
        assert walk_hop_hist(2) not in schema.histograms
        # One shared schema: every core family present regardless.
        assert "requests_total" in schema.counters
        assert "request_latency_seconds" in schema.histograms


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_merges_counters_and_hists_across_roles(self):
        with MetricsRegistry() as registry:
            w0 = registry.create_block("w0", SMALL)
            w1 = registry.create_block("w1", SMALL)
            w0.count("a_total", 2)
            w1.count("a_total", 3)
            w0.observe("lat_seconds", 0.01)
            w1.observe("lat_seconds", 0.03)
            w0.gauge("level", 1.0)
            w1.gauge("level", 2.0)
            snap = registry.snapshot()
            assert snap.roles == ("w0", "w1")
            assert snap.counter("a_total") == 5
            assert snap.hist("lat_seconds").count == 2
            # Gauges stay per-role (point-in-time, not additive).
            assert snap.gauges["level"] == {"w0": 1.0, "w1": 2.0}

    def test_respawn_never_double_counts(self):
        """create_block under a live role retires the stale block:
        the fleet total is old + new, exactly once each."""
        with MetricsRegistry() as registry:
            old = registry.create_block("w0", SMALL)
            old.count("a_total", 5)
            old.observe("lat_seconds", 0.01)
            fresh = registry.create_block("w0", SMALL)  # the respawn
            fresh.count("a_total", 3)
            snap = registry.snapshot()
            assert snap.counter("a_total") == 8
            assert snap.hist("lat_seconds").count == 1
            assert snap.retired_blocks == 1
            assert snap.roles == ("w0",)
            # A second snapshot must not re-fold the retired mass.
            assert registry.snapshot().counter("a_total") == 8

    def test_retire_folds_and_is_idempotent(self):
        with MetricsRegistry() as registry:
            block = registry.create_block("u", SMALL)
            block.count("b_total", 9)
            block.gauge("level", 4.0)
            assert registry.retire("u") is True
            assert registry.retire("u") is False
            snap = registry.snapshot()
            assert snap.counter("b_total") == 9
            assert snap.roles == ()
            assert "level" not in snap.gauges  # gauges die with the role

    def test_close_retires_everything_and_rejects_creates(self):
        registry = MetricsRegistry()
        block = registry.create_block("w0", SMALL)
        block.count("a_total")
        registry.close()
        assert registry.snapshot().counter("a_total") == 1
        with pytest.raises(RuntimeError):
            registry.create_block("w1", SMALL)
        registry.close()  # idempotent


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(sample=0.0)
        assert not tracer.enabled
        assert tracer.maybe_start() == 0
        tracer.record(0, "enqueue", "server", 0.0, 1.0)
        assert tracer.drain() == []

    def test_full_sampling_consumes_no_sampling_rng(self):
        """At sample=1.0 the accept/reject RNG is untouched — the id
        stream is a pure function of the seed, so traced differential
        runs stay deterministic."""
        a, b = Tracer(sample=1.0), Tracer(sample=1.0)
        ids_a = [a.maybe_start() for _ in range(50)]
        ids_b = [b.maybe_start() for _ in range(50)]
        assert ids_a == ids_b
        assert all(0 < tid < (1 << 31) for tid in ids_a)
        assert a._rng.getstate() == Tracer(sample=1.0)._rng.getstate()

    def test_partial_sampling_rate(self):
        tracer = Tracer(sample=0.25)
        ids = [tracer.maybe_start() for _ in range(2000)]
        hit = sum(1 for tid in ids if tid)
        assert 300 < hit < 700  # ~500 expected

    def test_batch_span_attribution(self):
        tracer = Tracer(sample=1.0)
        t1, t2 = tracer.maybe_start(), tracer.maybe_start()
        spans = [(span_kind_id("walk"), 1.0, 0.5),
                 (span_kind_id("topk"), 1.5, 0.1)]
        tracer.record_batch_spans([t1, 0, t2], "worker", spans)
        grouped = spans_by_trace(tracer.drain())
        assert set(grouped) == {t1, t2}
        for records in grouped.values():
            assert [s.name for s in records] == ["walk", "topk"]
            assert all(s.role == "worker" for s in records)

    def test_capacity_bounds_and_drops(self):
        tracer = Tracer(sample=1.0, capacity=8)
        for i in range(20):
            tracer.record(i + 1, "enqueue", "server", float(i), 0.1)
        assert len(tracer.peek()) == 8
        assert tracer.dropped == 12
        assert len(tracer.drain()) == 8
        assert tracer.peek() == []

    def test_export_formats(self):
        tracer = Tracer(sample=1.0)
        tid = tracer.maybe_start()
        tracer.record(tid, "enqueue", "server", 10.0, 0.002)
        tracer.record(tid, "exec", "worker", 10.002, 0.005)
        spans = tracer.drain()
        jsonl = spans_to_jsonl(spans)
        lines = [json.loads(line) for line in jsonl.splitlines()]
        assert [ln["name"] for ln in lines] == ["enqueue", "exec"]
        assert all(ln["trace_id"] == tid for ln in lines)
        chrome = spans_to_chrome_trace(spans)
        events = chrome["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"server", "worker"}
        xs = [e for e in events if e["ph"] == "X"]
        assert xs[0]["ts"] == 0.0  # rebased to the earliest span
        assert xs[1]["dur"] == pytest.approx(5000.0)  # us
        assert spans_to_chrome_trace([]) == {"traceEvents": [],
                                             "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Exporters + SLO gates
# ----------------------------------------------------------------------
class TestExporters:
    def test_split_labels(self):
        assert split_labels("requests_total") == ("requests_total", {})
        assert split_labels("walk_hop_seconds{hop=3}") == (
            "walk_hop_seconds", {"hop": "3"})
        assert split_labels("x_seconds{hop=1,kind=walk}") == (
            "x_seconds", {"hop": "1", "kind": "walk"})

    def _snapshot(self):
        registry = MetricsRegistry()
        block = registry.create_block(
            "w0", fleet_schema(hops=1))
        block.count("requests_total", 10)
        block.count("cache_hits_total", 6)
        block.count("cache_misses_total", 4)
        block.count("gather_rows_total", 33)
        block.gauge("model_version", 3)
        for v in (0.001, 0.002, 0.004, 0.008):
            block.observe("request_latency_seconds", v)
        block.observe(walk_hop_hist(0), 0.003)
        snap = registry.snapshot()
        registry.close()
        return snap

    def test_prometheus_text_shape(self):
        text = prometheus_text(self._snapshot())
        assert "# TYPE reks_requests_total counter" in text
        assert "reks_requests_total 10" in text
        # Inline labels round-trip into real Prometheus labels.
        assert "reks_gather_rows_total 33" in text
        assert 'reks_walk_hop_seconds_count{hop="0"} 1' in text
        assert 'reks_model_version{role="w0"} 3' in text
        assert "reks_request_latency_seconds_count 4" in text
        assert 'le="+Inf"' in text
        # Bucket series are cumulative and end at the total count.
        bucket_counts = [int(line.rsplit(" ", 1)[1])
                         for line in text.splitlines()
                         if line.startswith(
                             "reks_request_latency_seconds_bucket")]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 4

    def test_json_snapshot_round_trips(self):
        payload = json.loads(json_snapshot(self._snapshot()))
        assert payload["counters"]["requests_total"] == 10
        assert payload["histograms"]["request_latency_seconds"][
            "count"] == 4
        assert payload["roles"] == ["w0"]

    def test_serving_slos_evaluate(self):
        snap = self._snapshot()
        results = evaluate_slos(snap, serving_slos(
            p99_ms=1000.0, swap_max_ms=100.0,
            cache_hit_floor=0.5))
        by_name = {r.slo.name: r for r in results}
        assert by_name["request_p99"].ok       # 8ms << 1s
        assert by_name["swap_latency"].ok      # empty hist -> 0, passes
        assert by_name["cache_hit_rate"].value == pytest.approx(0.6)
        assert by_name["cache_hit_rate"].ok
        failing = evaluate_slos(snap, serving_slos(cache_hit_floor=0.9))
        assert not failing[0].ok
        assert "VIOLATED" in failing[0].describe()

    def test_slo_stats_and_unknown_stat(self):
        snap = self._snapshot()
        count = evaluate_slos(snap, [SLO(name="n", stat="count",
                                         metric="request_latency_seconds",
                                         min_value=4)])[0]
        assert count.ok and count.value == 4.0
        value = evaluate_slos(snap, [SLO(name="v", stat="value",
                                         metric="requests_total",
                                         max_value=10)])[0]
        assert value.ok
        with pytest.raises(ValueError):
            evaluate_slos(snap, [SLO(name="bad", stat="p42",
                                     metric="request_latency_seconds")])

    def test_serving_slos_none_skips_gates(self):
        assert serving_slos() == ()
        assert len(serving_slos(p99_ms=5.0)) == 1


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_scrape_endpoints(self):
        with MetricsRegistry() as registry:
            block = registry.create_block("w0", SMALL)
            block.count("a_total", 3)
            endpoint = MetricsEndpoint(registry.snapshot, port=0)
            try:
                assert endpoint.port > 0
                with urlopen(endpoint.url, timeout=5) as resp:
                    text = resp.read().decode()
                    assert resp.headers["Content-Type"].startswith(
                        "text/plain")
                assert "reks_a_total 3" in text
                base = endpoint.url.rsplit("/", 1)[0]
                with urlopen(f"{base}/metrics.json", timeout=5) as resp:
                    payload = json.loads(resp.read().decode())
                assert payload["counters"]["a_total"] == 3
                with urlopen(f"{base}/healthz", timeout=5) as resp:
                    assert resp.read() == b"ok\n"
                with pytest.raises(HTTPError):
                    urlopen(f"{base}/nope", timeout=5)
            finally:
                endpoint.close()

    def test_scrape_sees_live_mutations(self):
        with MetricsRegistry() as registry:
            block = registry.create_block("w0", SMALL)
            endpoint = MetricsEndpoint(registry.snapshot, port=0)
            try:
                block.count("a_total", 1)
                with urlopen(endpoint.url, timeout=5) as resp:
                    first = resp.read().decode()
                block.count("a_total", 1)
                with urlopen(endpoint.url, timeout=5) as resp:
                    second = resp.read().decode()
                assert "reks_a_total 1" in first
                assert "reks_a_total 2" in second
            finally:
                endpoint.close()


# ----------------------------------------------------------------------
# Bounded ServerStats
# ----------------------------------------------------------------------
class TestBoundedStats:
    def test_exact_percentiles_below_reservoir_capacity(self):
        stats = ServerStats()
        values = [i / 1000.0 for i in range(1, 101)]
        for v in values:
            stats.record_request(v)
        snap = stats.snapshot()
        want = np.percentile(values, (50, 95, 99)) * 1e3
        assert snap.latency_ms_p50 == pytest.approx(want[0])
        assert snap.latency_ms_p95 == pytest.approx(want[1])
        assert snap.latency_ms_p99 == pytest.approx(want[2])
        assert snap.latency_ms_mean == pytest.approx(
            float(np.mean(values)) * 1e3)

    def test_million_request_soak_stays_flat(self):
        """Satellite (a): the old list-append implementation grew ~8MB
        per million requests; the histogram+reservoir bound is a fixed
        few tens of KB and the snapshot stays sane."""
        stats = ServerStats()
        bound = stats.nbytes
        assert bound < 100_000
        record = stats.record_request
        for i in range(1_000_000):
            record(0.002 if i % 10 else 0.020)
        assert stats.nbytes == bound              # flat, by construction
        assert stats._lat_sample.seen == 1_000_000
        assert stats._lat_sample.capacity == RESERVOIR_SIZE
        snap = stats.snapshot()
        assert snap.requests == 1_000_000
        assert snap.latency_ms_mean == pytest.approx(3.8, rel=0.01)
        assert 1.0 <= snap.latency_ms_p50 <= 21.0  # clamped to extremes
        assert snap.latency_ms_p99 <= 20.0 + 1e-6

    def test_snapshot_api_unchanged(self):
        """The StatsSnapshot surface every bench payload reads."""
        stats = ServerStats()
        stats.record_request(0.004)
        stats.record_batch(3)
        stats.record_cache(True, version=2)
        stats.record_cache(False, version=2)
        stats.record_swap(0.1)
        snap = stats.snapshot()
        payload = snap.to_dict()
        assert payload["requests"] == 1
        assert payload["batch_occupancy"] == {"3": 1}
        assert payload["cache_by_version"]["2"]["hit_rate"] == 0.5
        assert payload["swap_latency_ms"] == [pytest.approx(100.0)]
        assert snap.cache_hit_rate == 0.5
        stats.reset()
        assert stats.snapshot().requests == 0

    def test_mirrors_into_metric_block(self):
        block = MetricBlock.create(fleet_schema(), role="server")
        try:
            stats = ServerStats(metrics=block)
            stats.record_request(0.004)
            stats.record_cache(True)
            stats.record_swap(0.01)
            snap = block.snapshot()
            assert snap.counters["requests_total"] == 1
            assert snap.counters["cache_hits_total"] == 1
            assert snap.counters["swaps_total"] == 1
            assert snap.hists["request_latency_seconds"].count == 1
            assert snap.hists["swap_latency_seconds"].count == 1
        finally:
            block.unlink()

    def test_reservoir_is_deterministic(self):
        a, b = Reservoir(capacity=16, seed=0), Reservoir(capacity=16,
                                                         seed=0)
        for i in range(1000):
            a.add(float(i))
            b.add(float(i))
        assert np.array_equal(a.values(), b.values())
        assert a.seen == 1000 and a.capacity == 16


# ----------------------------------------------------------------------
# Server integration: fleet snapshot, tracing, lazy render
# ----------------------------------------------------------------------
class TestServerTelemetry:
    def test_fleet_snapshot_thread_mode(self, trainer, sessions):
        subset = sessions[:12]
        with trainer.serve(trace_sample=1.0) as server:
            server.recommend_many(subset, k=5)   # cold: misses
            server.recommend_many(subset, k=5)   # warm: hits
            snap = server.fleet_snapshot()
            spans = server.tracer.drain()
        assert "server" in snap.roles
        assert snap.counter("requests_total") == 2 * len(subset)
        assert snap.counter("cache_hits_total") == len(subset)
        assert snap.counter("cache_misses_total") == len(subset)
        # exec_rows_total counts rows actually *walked*; any in-flush
        # duplicates (same suffix + user) collapse into dedup_rows_total.
        assert (snap.counter("exec_rows_total")
                + snap.counter("dedup_rows_total")) == len(subset)
        assert snap.hist("request_latency_seconds").count == 2 * len(subset)
        assert snap.hist("walk_seconds").count >= 1
        # Render happened once per explanation row, at cache admission;
        # the warm replay deferred exactly those rows instead of
        # re-rendering them.
        assert snap.counter("render_rows_total") >= len(subset)
        assert snap.counter("render_deferred_total") \
            == snap.counter("render_rows_total")
        grouped = spans_by_trace(spans)
        assert len(grouped) == len(subset)  # only misses start traces
        for records in grouped.values():
            names = {s.name for s in records}
            assert {"enqueue", "flush", "transport",
                    "render", "respond"} <= names
            assert "walk" in names and "topk" in names

    def test_workers_alive_is_the_one_thread_executor(self, trainer):
        """``workers`` sizes the process fleet; a thread server runs
        one executor whatever it says, and the gauge (and ``cli top``'s
        fleet line) says so."""
        with trainer.serve(workers=3) as server:
            snap = server.fleet_snapshot()
            assert server.executors == 1
        assert snap.gauges["workers_alive"]["server"] == 1.0
        assert "workers alive 1" in render_top(snap.to_dict())

    def test_metrics_disabled_raises(self, trainer, sessions):
        with trainer.serve(metrics=False) as server:
            server.recommend_many(sessions[:4], k=5)
            with pytest.raises(RuntimeError):
                server.fleet_snapshot()

    def test_http_endpoint_on_live_server(self, trainer, sessions):
        with trainer.serve(metrics_port=0) as server:
            server.recommend_many(sessions[:6], k=5)
            with urlopen(server.metrics_url, timeout=5) as resp:
                text = resp.read().decode()
            assert text.startswith("# ")
            assert "reks_requests_total 6" in text

    def test_snapshot_survives_shutdown(self, trainer, sessions):
        with trainer.serve() as server:
            server.recommend_many(sessions[:5], k=5)
        # The server role was retired at shutdown; its counts persist
        # in the retained accumulators.
        snap = server.fleet_snapshot()
        assert snap.counter("requests_total") == 5
        assert "server" not in snap.roles

    def test_tracing_off_by_default_and_deterministic(self, trainer,
                                                      sessions):
        subset = sessions[:8]
        with trainer.serve(cache_size=0) as plain:
            baseline = [r.items for r in plain.recommend_many(subset, k=5)]
        with trainer.serve(cache_size=0, trace_sample=1.0) as traced:
            got = [r.items for r in traced.recommend_many(subset, k=5)]
            assert traced.tracer.peek()   # spans actually recorded
        assert got == baseline            # tracing never perturbs results


# ----------------------------------------------------------------------
# Process-mode integration: cross-process blocks, traces, respawn
# ----------------------------------------------------------------------
class TestProcessFleetTelemetry:
    def test_worker_blocks_merge_into_fleet_snapshot(self, trainer,
                                                     sessions):
        subset = sessions[:10]
        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as server:
            server.recommend_many(subset, k=5)
            snap = server.fleet_snapshot()
        assert {"server", "worker0", "worker1"} <= set(snap.roles)
        assert snap.counter("exec_rows_total") == len(subset)
        assert snap.counter("exec_batches_total") >= 1
        assert snap.counter("ring_batches_total") >= 1
        assert snap.hist("exec_seconds").count >= 1

    def test_trace_ids_cross_the_ring(self, trainer, sessions):
        subset = sessions[:6]
        with trainer.serve(worker_mode="process", workers=1,
                           cache_size=0, trace_sample=1.0) as server:
            server.recommend_many(subset, k=5)
            spans = server.tracer.drain()
            snap = server.fleet_snapshot()
        grouped = spans_by_trace(spans)
        assert len(grouped) == len(subset)
        for records in grouped.values():
            roles = {s.role for s in records}
            assert "worker" in roles          # echoed back over the ring
            names = {s.name for s in records}
            assert "exec" in names and "walk" in names
        assert snap.counter("worker_traces_total") == len(subset)

    def test_respawn_keeps_counts_without_double_counting(self, trainer,
                                                          sessions):
        subset = sessions[:6]
        with trainer.serve(worker_mode="process", workers=2,
                           cache_size=0) as server:
            server.recommend_many(subset, k=5)
            before = server.fleet_snapshot()
            assert before.counter("exec_rows_total") == len(subset)
            for handle in server.process_pool._workers:
                handle.process.kill()
            time.sleep(0.2)
            server.recommend_many(subset, k=5)
            after = server.fleet_snapshot()
        # Old counts folded exactly once, new counts added on top.
        assert after.counter("exec_rows_total") == 2 * len(subset)
        assert after.counter("worker_respawns_total") >= 1
        assert after.retired_blocks >= 1
        assert {"worker0", "worker1"} <= set(after.roles)
        # Stable across repeated snapshots (no re-folding).
        assert after.counter("exec_rows_total") == 2 * len(subset)


    def test_workers_alive_tracks_the_live_fleet(self, trainer,
                                                 monkeypatch):
        """The gauge is the pool's live process count, revised by the
        health sweep: a dead worker that cannot be respawned shows as
        one fewer, and the respawn brings it back."""
        def alive(server):
            return server.fleet_snapshot().gauges["workers_alive"]["server"]

        def wait_for(predicate):
            deadline = time.time() + 10.0
            while not predicate() and time.time() < deadline:
                time.sleep(0.02)
            assert predicate()

        with trainer.serve(worker_mode="process", workers=2,
                           health_interval_ms=20.0) as server:
            pool = server.process_pool
            assert alive(server) == 2.0
            assert "workers alive 2" in render_top(
                server.fleet_snapshot().to_dict())
            spawn = pool._spawn

            def no_spawn(index):
                raise OSError("injected: cannot spawn")

            monkeypatch.setattr(pool, "_spawn", no_spawn)
            pool._workers[0].process.kill()
            wait_for(lambda: alive(server) == 1.0)
            assert pool.health_failures >= 1
            monkeypatch.setattr(pool, "_spawn", spawn)
            wait_for(lambda: alive(server) == 2.0)
            assert pool.respawns == 1


# ----------------------------------------------------------------------
# Updater child block
# ----------------------------------------------------------------------
class TestUpdaterTelemetry:
    @pytest.mark.parametrize("mode", ["thread", "subprocess"])
    def test_round_metrics_flow_into_fleet(self, trainer, beauty_tiny,
                                           tmp_path, mode):
        from repro.online import (CheckpointRegistry, DeltaIngestor,
                                  OnlineUpdater)

        delta = [s for s in beauty_tiny.split.validation
                 if len(s.items) >= 2][:8]
        registry = CheckpointRegistry(tmp_path, keep_last=2)
        ingestor = DeltaIngestor(trainer.built, trainer.env,
                                 compact_every=10_000)
        fleet = MetricsRegistry()
        updater = OnlineUpdater(trainer, ingestor, registry,
                                min_sessions=1, max_steps=1, mode=mode,
                                metrics_registry=fleet)
        try:
            assert updater.run_once(force=True) is not None
            ingestor.ingest_sessions(delta)
            assert updater.run_once(force=True) is not None
            snap = fleet.snapshot()
        finally:
            updater.stop()
            fleet.close()
        assert "updater" in snap.roles
        assert snap.counter("online_rounds_total") == 2
        assert snap.counter("online_sessions_total") == len(delta)
        assert snap.hist("online_round_seconds").count == 2
        assert snap.hist("online_publish_seconds").count == 2


# ----------------------------------------------------------------------
# Streaming trace sink
# ----------------------------------------------------------------------
class TestTraceSink:
    def test_streams_jsonl_with_args(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSink(path) as sink:
            tracer = Tracer(sample=1.0, sink=sink)
            tid = tracer.maybe_start()
            tracer.record(tid, "enqueue", "server", 1.0, 0.25)
            tracer.record_rows([(tid, (4, 2), 0.5, 0.125)], "server")
            sink.flush()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [ln["name"] for ln in lines] == ["enqueue", ROW_SPAN]
        assert lines[1]["args"] == {"frontier": [4, 2], "walk_s": 0.5,
                                    "topk_s": 0.125}

    def test_size_rotation_keeps_generations(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSink(path, max_bytes=2048, keep=3) as sink:
            tracer = Tracer(sample=1.0, sink=sink)
            for i in range(400):
                tracer.record(i + 1, "soak", "t", float(i), 1e-3)
            sink.flush()
            assert sink.rotations >= 1
            files = sink.files()
        assert str(path) in files
        assert any(f.endswith(".1") for f in files)
        assert len(files) <= 4  # live + keep generations
        for f in files:  # every retained line parses
            for line in open(f, encoding="utf-8"):
                assert json.loads(line)["name"] == "soak"

    def test_100k_span_soak_is_lossless_with_sink_attached(self,
                                                           tmp_path):
        """Satellite: the drain-or-drop tracer buffer loses nothing on
        a 100k-span soak once the streaming sink takes the handoff —
        the deque alone would have evicted all but its tail.  The
        producer waits for the writer every half queue depth: a tight
        loop can outrun the writer thread past the 65,536-span handoff
        queue, and a *counted* drop there is the sink working as
        designed, not the loss this pins."""
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, max_bytes=1 << 20, keep=200)
        tracer = Tracer(sample=1.0, capacity=64, sink=sink)
        total = 100_000
        for i in range(total):
            tracer.record((i % 997) + 1, "soak", "t", float(i), 1e-6)
            if i % 32_768 == 32_767:
                sink.flush()
        sink.flush()
        sink.close()
        assert tracer.dropped == 0
        assert sink.dropped == 0
        assert sink.written == total
        assert sink.rotations >= 1
        retained = sum(1 for f in sink.files()
                       for line in open(f, encoding="utf-8") if line)
        assert retained == total

    def test_closed_sink_counts_drops_in_metrics(self, tmp_path):
        block = MetricBlock.create(fleet_schema(), "sink")
        try:
            sink = TraceSink(tmp_path / "t.jsonl", metrics=block)
            sink.close()
            span = SpanRecord(trace_id=1, name="late", role="t",
                              t0=0.0, dur=0.0)
            assert sink.offer(span) is False
            assert sink.dropped == 1
            assert block.snapshot().counters["trace_dropped_total"] == 1
        finally:
            block.unlink()

    def test_tracer_does_not_double_count_sink_drops(self, tmp_path):
        """When tracer and sink share the metric block, a rejected
        span lands in ``trace_dropped_total`` exactly once."""
        block = MetricBlock.create(fleet_schema(), "t")
        try:
            sink = TraceSink(tmp_path / "t.jsonl", metrics=block)
            sink.close()  # every offer now rejects
            tracer = Tracer(sample=1.0, sink=sink, metrics=block)
            tracer.record(5, "x", "t", 0.0, 0.0)
            assert tracer.dropped == 1
            assert block.snapshot().counters["trace_dropped_total"] == 1
        finally:
            block.unlink()


# ----------------------------------------------------------------------
# Rolling windows + burn-rate SLOs
# ----------------------------------------------------------------------
class TestRollingWindow:
    def _observe(self, block, values):
        for v in values:
            block.observe("request_latency_seconds", v)

    def test_window_matches_cumulative_oracle(self):
        """Windowed count/sum are exact; windowed quantiles match an
        oracle histogram fed only the window's values to within one
        log-2 bucket (the resolution every quantile here has)."""
        registry = MetricsRegistry()
        block = registry.create_block("w0", fleet_schema())
        phase_a = [0.001 * (i % 7 + 1) for i in range(200)]
        phase_b = [0.004 * (i % 13 + 1) for i in range(300)]
        self._observe(block, phase_a)
        block.count("requests_total", len(phase_a))
        rolling = RollingWindow()
        rolling.record(registry.snapshot())
        self._observe(block, phase_b)
        block.count("requests_total", len(phase_b))
        rolling.record(registry.snapshot())
        registry.close()

        win = rolling.window(None)
        assert win.counter("requests_total") == len(phase_b)
        hist = win.hist("request_latency_seconds")
        oracle = LocalHistogram()
        for v in phase_b:
            oracle.observe(v)
        want = oracle.snapshot()
        assert hist.count == want.count
        assert hist.sum == pytest.approx(want.sum)
        assert np.array_equal(hist.buckets, want.buckets)
        for q in (0.5, 0.95, 0.99):
            got = hist.quantile(q)
            ref = want.quantile(q)
            assert ref / 2 <= got <= ref * 2

    def test_hist_delta_zero_window(self):
        hist = LocalHistogram()
        hist.observe(0.25)
        snap = hist.snapshot()
        delta = hist_delta(snap, snap)
        assert delta.count == 0 and delta.sum == 0.0
        # No start: the cumulative end IS the window.
        assert hist_delta(snap, None) is snap

    def test_hist_from_dict_round_trips(self):
        hist = LocalHistogram()
        for v in (0.001, 0.01, 0.3):
            hist.observe(v)
        snap = hist.snapshot()
        back = hist_from_dict(snap.to_dict())
        assert back.count == snap.count
        assert back.sum == pytest.approx(snap.sum)
        assert np.array_equal(back.buckets, snap.buckets)

    def test_window_seconds_selects_start_sample(self):
        registry = MetricsRegistry()
        block = registry.create_block("w0", fleet_schema())
        rolling = RollingWindow()
        for round_id in range(3):
            block.count("requests_total", 10)
            snap = registry.snapshot()
            # Synthetic timestamps: one sample per second.
            object.__setattr__(snap, "generated_at", float(round_id))
            rolling.record(snap)
        registry.close()
        # Full span: both increments since the first sample.
        assert rolling.window(None).counter("requests_total") == 20
        # A 1s window starts at the middle sample.
        win = rolling.window(1.0)
        assert win.counter("requests_total") == 10
        assert win.seconds == pytest.approx(1.0)
        assert win.rate("requests_total") == pytest.approx(10.0)

    def test_windowed_slos_and_burn_rate(self):
        registry = MetricsRegistry()
        block = registry.create_block("w0", fleet_schema())
        rolling = RollingWindow()
        self._observe(block, [0.001] * 50)  # calm cumulative past
        rolling.record(registry.snapshot())
        self._observe(block, [0.9] * 50)    # the window is on fire
        rolling.record(registry.snapshot())
        snapshot = registry.snapshot()
        registry.close()
        slos = serving_slos(p99_ms=100.0)
        cumulative = evaluate_slos(snapshot, slos)[0]
        windowed = evaluate_slos(snapshot, slos,
                                 window=rolling.window(None))[0]
        # The cumulative p99 already trips here too, but the windowed
        # value isolates the hot phase and burns hotter.
        assert not windowed.ok
        assert windowed.burn_rate > 1.0
        assert windowed.window_seconds is not None
        assert windowed.value >= cumulative.value
        assert "burn=" in windowed.describe()
        assert "over" in windowed.describe()

    def test_burn_rate_floor_direction(self):
        registry = MetricsRegistry()
        block = registry.create_block("w0", fleet_schema())
        block.count("cache_hits_total", 1)
        block.count("cache_misses_total", 9)
        snapshot = registry.snapshot()
        registry.close()
        result = evaluate_slos(snapshot,
                               serving_slos(cache_hit_floor=0.5))[0]
        assert not result.ok
        assert result.burn_rate == pytest.approx(5.0)  # 0.5 / 0.1

    def test_quiet_window_passes_vacuously(self):
        # A window with no traffic cannot burn a floor: the windowed
        # cache-hit ratio is 0/0, not 0, and the windowed p99 has no
        # observations — both must pass with burn_rate None even while
        # the cumulative snapshot is violating.
        registry = MetricsRegistry()
        block = registry.create_block("w0", fleet_schema())
        block.count("cache_hits_total", 1)
        block.count("cache_misses_total", 9)
        block.observe("request_latency_seconds", 0.5)
        rolling = RollingWindow()
        rolling.record(registry.snapshot())
        rolling.record(registry.snapshot())   # nothing moved between
        snapshot = registry.snapshot()
        registry.close()
        win = rolling.window(None)
        assert win is not None
        slos = serving_slos(cache_hit_floor=0.5, p99_ms=100.0)
        cumulative = evaluate_slos(snapshot, slos)
        assert not all(r.ok for r in cumulative)
        windowed = evaluate_slos(snapshot, slos, window=win)
        assert all(r.ok for r in windowed)
        assert all(r.burn_rate is None for r in windowed)

    def test_window_sampler_feeds_rolling_window(self):
        registry = MetricsRegistry()
        block = registry.create_block("w0", fleet_schema())
        rolling = RollingWindow()
        sampler = WindowSampler(registry.snapshot, rolling,
                                interval_s=0.02)
        try:
            deadline = time.monotonic() + 5.0
            while len(rolling) < 3 and time.monotonic() < deadline:
                block.count("requests_total", 1)
                time.sleep(0.02)
        finally:
            sampler.close()
            registry.close()
        assert len(rolling) >= 3
        assert rolling.window(None).counter("requests_total") >= 1


# ----------------------------------------------------------------------
# Per-row span attribution (unit)
# ----------------------------------------------------------------------
class TestRowAttribution:
    def test_walk_time_splits_by_frontier_mass(self):
        spans = [(span_kind_id("walk"), 0.0, 0.8),
                 (span_kind_id("topk"), 0.8, 0.2)]
        # Row 0 carries 3x the frontier mass of row 1; row 2 unsampled.
        frontier = [np.array([6, 2, 4]), np.array([3, 1, 2])]
        records = attribute_rows([11, 22, 0], [5, 10, 5],
                                 frontier, spans)
        assert [r[0] for r in records] == [11, 22]
        (t1, w1, walk1, topk1), (t2, w2, walk2, topk2) = records
        assert w1 == (6, 3) and w2 == (2, 1)
        assert walk1 == pytest.approx(0.8 * 9 / 18)
        assert walk2 == pytest.approx(0.8 * 3 / 18)
        assert topk1 == pytest.approx(0.2 * 5 / 20)
        assert topk2 == pytest.approx(0.2 * 10 / 20)

    def test_zero_mass_falls_back_to_equal_split(self):
        spans = [(span_kind_id("walk"), 0.0, 0.4)]
        frontier = [np.zeros(2, dtype=np.int64)]
        records = attribute_rows([7, 9], [5, 5], frontier, spans)
        assert [r[2] for r in records] == pytest.approx([0.2, 0.2])

    def test_no_frontier_yields_empty_widths(self):
        records = attribute_rows([3], [5], None,
                                 [(span_kind_id("walk"), 0.0, 0.1)])
        assert records == [(3, (), pytest.approx(0.1), 0.0)]


# ----------------------------------------------------------------------
# Live fleet view rendering
# ----------------------------------------------------------------------
class TestTopView:
    def _snapshot_dict(self, requests, latencies, at):
        registry = MetricsRegistry()
        block = registry.create_block(
            "server", fleet_schema())
        block.count("requests_total", requests)
        block.count("cache_hits_total", requests // 2)
        block.count("cache_misses_total", requests - requests // 2)
        block.gauge("model_version", 4)
        for v in latencies:
            block.observe("request_latency_seconds", v)
        snap = registry.snapshot()
        object.__setattr__(snap, "generated_at", float(at))
        payload = snap.to_dict()
        registry.close()
        return payload

    def test_render_cumulative_and_windowed_frames(self):
        prev = self._snapshot_dict(10, [0.001] * 10, at=0.0)
        curr = self._snapshot_dict(30, [0.001] * 30, at=2.0)
        first = render_top(prev)
        assert "cumulative" in first
        assert "requests" in first
        frame = render_top(curr, prev)
        assert "2.0s window" in frame
        assert "model v4" in frame
        assert "p50" in frame and "p99" in frame
        assert "server" in frame      # per-role table row
        # 20 new requests over 2s.
        assert "10/s" in frame


# ----------------------------------------------------------------------
# Continuous serving integration: row spans, windows, health, close
# ----------------------------------------------------------------------
class TestContinuousServing:
    def test_per_row_spans_thread_mode(self, trainer, sessions):
        subset = sessions[:8]
        with trainer.serve(cache_size=0, trace_sample=1.0) as server:
            server.recommend_many(subset, k=5)
            spans = server.tracer.drain()
        rows = [s for s in spans if s.name == ROW_SPAN]
        grouped = spans_by_trace(spans)
        assert len(rows) == len(subset)  # one row record per request
        for span in rows:
            assert span.args is not None
            widths = span.args["frontier"]
            assert len(widths) >= 1       # at least one executed hop
            assert all(w >= 0 for w in widths)
            assert span.dur == pytest.approx(span.args["walk_s"]
                                             + span.args["topk_s"])
        # Row spans attribute the batch's walk time exactly: per-trace
        # walk shares of one batch sum to that batch's walk span.
        for records in grouped.values():
            walk = sum(s.dur for s in records if s.name == "walk")
            row = [s for s in records if s.name == ROW_SPAN]
            assert len(row) == 1
            assert row[0].args["walk_s"] <= walk + 1e-9

    def test_per_row_spans_cross_the_ring(self, trainer, sessions):
        subset = sessions[:6]
        with trainer.serve(worker_mode="process", workers=1,
                           cache_size=0, trace_sample=1.0) as server:
            server.recommend_many(subset, k=5)
            spans = server.tracer.drain()
        rows = [s for s in spans if s.name == ROW_SPAN]
        assert len(rows) == len(subset)
        assert {s.role for s in rows} == {"worker"}
        for span in rows:
            assert len(span.args["frontier"]) >= 1

    def test_trace_rows_off_suppresses_row_spans(self, trainer,
                                                 sessions):
        subset = sessions[:4]
        with trainer.serve(cache_size=0, trace_sample=1.0,
                           trace_rows=False) as server:
            server.recommend_many(subset, k=5)
            spans = server.tracer.drain()
        assert [s for s in spans if s.name == ROW_SPAN] == []
        assert spans  # batch-level tracing still on

    def test_row_spans_do_not_perturb_results(self, trainer, sessions):
        subset = sessions[:8]
        with trainer.serve(cache_size=0) as plain:
            want = [r.items for r in plain.recommend_many(subset, k=5)]
        for mode in ("thread", "process"):
            with trainer.serve(worker_mode=mode, cache_size=0,
                               trace_sample=1.0,
                               trace_rows=True) as server:
                got = [r.items
                       for r in server.recommend_many(subset, k=5)]
            assert got == want

    def test_trace_path_streams_spans_to_jsonl(self, trainer, sessions,
                                               tmp_path):
        path = tmp_path / "server_trace.jsonl"
        with trainer.serve(cache_size=0, trace_sample=1.0,
                           trace_path=str(path)) as server:
            server.recommend_many(sessions[:5], k=5)
            assert server.trace_sink is not None
            server.trace_sink.flush()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines
        names = {ln["name"] for ln in lines}
        assert ROW_SPAN in names and "walk" in names

    def test_window_endpoint_and_healthz(self, trainer, sessions):
        subset = sessions[:6]
        with trainer.serve(metrics_port=0, cache_size=0) as server:
            server.recommend_many(subset, k=5)
            base = server.metrics_url.rsplit("/metrics", 1)[0]
            with urlopen(f"{base}/metrics.json?window=all",
                         timeout=5) as resp:
                win = json.loads(resp.read().decode())
            assert win["window_seconds"] >= 0.0
            assert win["counters"]["requests_total"] == len(subset)
            assert "request_latency_seconds" in win["histograms"]
            with urlopen(f"{base}/metrics.json?window=5",
                         timeout=5) as resp:
                assert resp.status == 200
            for bad in ("abc", "-1", "nan", "inf"):
                # A client's malformed window is a 400, not a 500.
                with pytest.raises(HTTPError) as err:
                    urlopen(f"{base}/metrics.json?window={bad}",
                            timeout=5)
                assert err.value.code == 400
                assert bad in json.loads(err.value.read())["error"]
            with urlopen(f"{base}/healthz", timeout=5) as resp:
                assert resp.read() == b"ok\n"
            assert server.health()["roles"]["server"]["ok"] is True
            # server.window() serves the same view programmatically.
            assert server.window().counter("requests_total") \
                == len(subset)

    def test_healthz_degraded_on_torn_block(self, trainer, sessions):
        from repro.telemetry.block import _SEQ

        with trainer.serve(metrics_port=0) as server:
            server.recommend_many(sessions[:3], k=5)
            base = server.metrics_url.rsplit("/metrics", 1)[0]
            block = server._metrics_registry.block("server")
            block._hdr[_SEQ] += 1  # odd seqlock: writer died mid-write
            try:
                with pytest.raises(HTTPError) as err:
                    urlopen(f"{base}/healthz", timeout=10)
                assert err.value.code == 503
                body = json.loads(err.value.read().decode())
                assert body["ok"] is False
                assert body["roles"]["server"]["torn"] is True
            finally:
                block._hdr[_SEQ] += 1  # restore even for shutdown

    def test_close_shuts_endpoint_thread_down(self, trainer, sessions):
        server = trainer.serve(metrics_port=0)
        try:
            server.recommend_many(sessions[:3], k=5)
            endpoint = server._endpoint
            assert endpoint.alive
        finally:
            server.close()
        assert not endpoint.alive          # no dangling HTTP thread
        server.close()                     # idempotent

    def test_window_sampler_on_live_server(self, trainer, sessions):
        with trainer.serve(cache_size=0,
                           window_interval_ms=20.0) as server:
            server.recommend_many(sessions[:6], k=5)
            time.sleep(0.1)                # a few sampler ticks
            win = server.window(seconds=60.0)
            assert win is not None
            assert win.counter("requests_total") == 6
            sampler = server._window_sampler
            assert sampler is not None
        # shutdown joined the sampler thread with everything else
        assert not sampler._thread.is_alive()
