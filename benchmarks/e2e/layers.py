"""Per-layer numbers: a traced pass through the server and a layer
replay driven by the harness.  Never mixed into the timed run.

*Traced pass* — the first ``TRACE_REQUESTS`` timed requests again on a
fresh server with ``trace_sample=1.0`` (and once untraced, for the
tracing bill); queue wait, flush, exec, hop and hit-ratio numbers are
read through the program's existing public ``stats()`` /
``fleet_snapshot()``.

*Layer replay* — ``REPLAY_GROUPS`` consecutive 32-row groups of the
same list, pushed call by call through each layer's public function
with a harness span around each call.  Spans are held in memory and
written to ``results/trace_<workload>.json`` when the run ends.

Every number here is as measured (``host.calib_ms`` says how fast the
host was).  A layer the workload does not pass through reports 0 for
the numbers only the server can give (no process pool: no
``runtime.spawn_s``; no writer: no ``online.*``).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.autograd import no_grad
from repro.cascade import (ReachabilityIndex, build_constraint,
                           provider_from_trainer)
from repro.data.loader import collate_examples
from repro.runtime.rings import (decode_request, decode_response,
                                 encode_request, encode_response)
from repro.serving.cache import ExplanationCache
from repro.serving.memo import WalkMemo, dedup_plan
from repro.telemetry.block import walk_hop_hist

from benchmarks.e2e.bench import (CASCADE_M, LIVE_BATCH, check, results_dir,
                                  sample_indices, serving, training_users)
from benchmarks.e2e.driver import HostSpeed
from benchmarks.e2e.workload import (MAX_SESSION_LENGTH, SERVER_BASE,
                                     Request, Spec, distinct_sessions,
                                     identity)
from benchmarks.e2e.world import World

GROUP = SERVER_BASE["max_batch"]
TRACE_REQUESTS = 2560
REPLAY_GROUPS = 40
STAGE_BATCHES = 4
HISTS = ("request_latency_seconds", "enqueue_wait_seconds",
         "batch_flush_seconds", "transport_seconds", "exec_seconds",
         "walk_seconds", "topk_seconds", "render_seconds",
         "online_publish_seconds", walk_hop_hist(0), walk_hop_hist(1))
COUNTERS = ("ring_fallbacks_total", "cascade_pruned_frontier_rows_total")


class Spans:
    """In-memory span store: rows of (name, t0, t1, parent, group)."""

    def __init__(self) -> None:
        self.rows: List[Optional[tuple]] = []

    @contextmanager
    def span(self, name: str, group: int,
             parent: Optional[int] = None) -> Iterator[int]:
        """Time the body; yields the span's id (its row number)."""
        index = len(self.rows)
        self.rows.append(None)
        t0 = perf_counter()
        try:
            yield index
        finally:
            self.rows[index] = (name, t0, perf_counter(), parent, group)

    def call(self, name: str, group: int, parent: Optional[int],
             fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` under a span."""
        with self.span(name, group, parent):
            return fn(*args, **kwargs)

    def total_s(self, name: str) -> float:
        return sum(row[2] - row[1] for row in self.rows if row[0] == name)


def _examples(group: Sequence[Request]) -> List[tuple]:
    return [(s.items[:-1], s.items[-1], s.user_id) for s, _ in group]


def _groups(requests: Sequence[Request], start: int, shrink: int
            ) -> List[Sequence[Request]]:
    count = max(REPLAY_GROUPS // shrink, 2)
    return [requests[start + g * GROUP:start + (g + 1) * GROUP]
            for g in range(count)]


def _pass(world: World, spec: Spec, requests: Sequence[Request], seed: int,
          seconds: float, speed: HostSpeed, shrink: int,
          spans: Optional[Spans]) -> dict:
    """Warm up and drive the traced slice once, traced iff ``spans`` is
    given; returns what the server reports about that slice (histogram
    and counter totals are diffed across it)."""
    warm = spec.warmup // shrink
    stop = warm + max(TRACE_REQUESTS // shrink, GROUP)
    out: dict = {}
    t0 = perf_counter()
    # The traced pass's writer ingests other sessions than the untraced
    # pass's did: the same ones again would stage nothing.
    with serving(world, spec, seed if spans is None else seed + 1, shrink,
                 trace_sample=0.0 if spans is None else 1.0) as live:
        server = live.server
        pool = server.process_pool
        out["spawn_s"] = perf_counter() - t0 if pool else 0.0
        out["plane_mb"] = pool.plane_nbytes / 2 ** 20 if pool else 0.0
        live.drive(requests, stop=warm)
        before = server.fleet_snapshot()
        server.reset_stats()
        factor = speed.factor()
        run = live.drive(requests, start=warm, stop=stop, seconds=seconds,
                         keep=sample_indices(stop, seed))
        factor = (factor + speed.factor()) / 2
        after = server.fleet_snapshot()

        def total(snapshot, name: str) -> tuple:
            hist = snapshot.hist(name)
            return (hist.count, hist.sum) if hist else (0, 0.0)

        out.update(
            run=run, stats=server.stats(), rps=run.n / run.wall_s,
            rps_at_reference=run.n / run.wall_s * factor,
            hist={name: tuple(a - b for a, b in zip(total(after, name),
                                                    total(before, name)))
                  for name in HISTS},
            count={name: after.counter(name) - before.counter(name)
                   for name in COUNTERS})
        if spans is not None:
            spans.rows += [("request", float(t0), float(t1), None, warm + i)
                           for i, (t0, t1)
                           in enumerate(zip(run.submitted, run.done))]
            if pool is not None:
                for g, group in enumerate(_groups(requests, warm, shrink)):
                    spans.call("runtime.exec_roundtrip_ms", g, None,
                               pool.execute, _examples(group),
                               [k for _, k in group])
            out["server_spans_tail"] = [
                span.to_dict() for span in server.tracer.drain()[-256:]]
        # check() stops the writer, so its timings are final after it
        out["errors"] = check(world, live, requests, run.kept, seed)
        out["writer"] = live.writer
    return out


def replay(world: World, groups: Sequence[Sequence[Request]],
           spans: Spans) -> None:
    """Push each group through every layer's public function."""
    agent, env, kg = world.agent, world.env, world.built.kg
    hops = agent.config.path_length
    provider = provider_from_trainer(world.trainer, "neighbors")
    index = spans.call("cascade.index_build_ms", 0, None,
                       ReachabilityIndex.build, env.csr_tables(),
                       world.built, hops)
    token = env.fingerprint()
    cache = ExplanationCache(2048)
    memo = WalkMemo(512)
    agent.eval()
    for g, group in enumerate(groups):
        with spans.span("flush", g) as flush:

            def call(name: str, fn: Callable, *args, **kwargs):
                return spans.call(name, g, flush, fn, *args, **kwargs)

            examples = _examples(group)
            ks = [k for _, k in group]
            n = len(group)
            batch = call("data.collate_ms", collate_examples, examples,
                         MAX_SESSION_LENGTH)
            # One untimed pass first: whichever call touched this group's
            # part of the graph first would otherwise pay for the cold
            # caches and the parts would not add up to the whole.
            agent.recommend(batch, k=max(ks))
            rec = call("core.recommend_ms", agent.recommend, batch, k=max(ks))
            with no_grad():
                encoded = call("models.encode_ms", agent.encoder.encode, batch)
                rollout = call("core.walk_ms", agent.walk, encoded, batch)
                call("core.aggregate_ms", agent.aggregate_scores_numpy,
                     rollout, n)
            call("core.batched_actions_ms", env.batched_actions,
                 rollout.entities[:, 1], rollout.entities[:, :2])
            ranked = [[int(i) for i in rec.ranked_items[row][:ks[row]]]
                      for row in range(n)]
            paths = [[rec.paths.get((row, item)) for item in ranked[row]]
                     for row in range(n)]
            call("kg.render_ms", lambda: [path.render(kg) for row in paths
                                          for path in row if path is not None])
            prefixes = [identity(s) for s, _ in group]
            cands = call("cascade.top_m_ms", lambda: [
                provider.top_m(prefix, CASCADE_M, user_id=None)
                for prefix in prefixes])
            call("cascade.constraint_ms", build_constraint, agent, cands, hops,
                 index=index)
            payload = call("runtime.ring_encode_us", encode_request, examples,
                           ks, MAX_SESSION_LENGTH)
            call("runtime.ring_decode_us", decode_request, payload)
            rows = [(ranked[row],
                     [float(rec.scores[row, item]) for item in ranked[row]],
                     [None if p is None else (p.entities, p.relations, p.prob)
                      for p in paths[row]]) for row in range(n)]
            call("runtime.response_codec_us",
                 lambda: decode_response(encode_response(0, rows)))
            cache_keys = [ExplanationCache.key(prefix, k)
                          for prefix, k in zip(prefixes, ks)]
            memo_keys = [WalkMemo.key(prefix, None, None, 0, token,
                                      width=batch.items.shape[1])
                         for prefix in prefixes]
            for row in range(n):
                cache.put(cache_keys[row], rows[row])
                memo.put(memo_keys[row], (rec.scores[row], {}))
            call("serving.cache_get_us", lambda: [cache.get(key)
                                                  for key in cache_keys])
            call("serving.memo_get_us", lambda: [memo.get(key)
                                                 for key in memo_keys])
            call("serving.dedup_plan_us", dedup_plan,
                 [(prefix, None, None) for prefix in prefixes])


def graphstore_replay(world: World, fresh: Sequence, spans: Spans) -> int:
    """Stage the co-occurrence edges of ``STAGE_BATCHES`` ingest
    batches, fingerprint after each, compact.  Mutates the graph, so it
    runs last.  Returns the number of edges offered to ``stage_edges``."""
    env, built = world.env, world.built
    rel = built.kg.relation_id("co_occur")
    offered = 0
    for b in range(STAGE_BATCHES):
        heads, tails = [], []
        for session in fresh[b * LIVE_BATCH:(b + 1) * LIVE_BATCH]:
            entities = built.entities_of_items(session.items)
            heads += [int(e) for e in entities[:-1]]
            tails += [int(e) for e in entities[1:]]
        offered += len(heads)
        spans.call("graphstore.stage", b, None, env.stage_edges, heads,
                   [rel] * len(heads), tails)
        spans.call("graphstore.fingerprint_us", b, None, env.fingerprint)
    spans.call("graphstore.compact_ms", 0, None, env.compact)
    return offered


def traced_run(world: World, spec: Spec, requests: Sequence[Request],
               seed: int, seconds: float, speed: HostSpeed, shrink: int,
               setup_parts: Dict[str, float]) -> dict:
    """The per-layer metrics of one workload."""
    spans = Spans()
    untraced = _pass(world, spec, requests, seed, seconds / 2, speed,
                     shrink, None)
    traced = _pass(world, spec, requests, seed, seconds / 2, speed, shrink,
                   spans)
    groups = _groups(requests, spec.warmup // shrink, shrink)
    replay(world, groups, spans)
    fresh = distinct_sessions(STAGE_BATCHES * LIVE_BATCH,
                              world.dataset.n_items, training_users(world),
                              seed + 5)
    offered = graphstore_replay(world, fresh, spans)

    hist, count, stats = traced["hist"], traced["count"], traced["stats"]

    def flush_ms(name: str) -> float:   # replay: mean per 32-row group
        return spans.total_s(name) / len(groups) * 1e3

    def mean_ms(name: str) -> float:    # traced pass: histogram mean
        n, total = hist[name]
        return total / n * 1e3 if n else 0.0

    m: Dict[str, float] = {}
    for name in ("data.collate_ms", "models.encode_ms", "core.recommend_ms",
                 "core.walk_ms", "core.aggregate_ms",
                 "core.batched_actions_ms", "kg.render_ms",
                 "cascade.top_m_ms", "cascade.constraint_ms",
                 "runtime.exec_roundtrip_ms"):
        m[name] = flush_ms(name)
    m["core.rank_paths_self_ms"] = (
        m["core.recommend_ms"] - m["models.encode_ms"] - m["core.walk_ms"]
        - m["core.aggregate_ms"])
    m["core.walk_hop0_ms"] = mean_ms(walk_hop_hist(0))
    m["core.walk_hop1_ms"] = mean_ms(walk_hop_hist(1))
    m["cascade.index_build_ms"] = spans.total_s("cascade.index_build_ms") * 1e3
    m["cascade.pruned_rows"] = count["cascade_pruned_frontier_rows_total"]

    m["serving.queue_wait_ms"] = mean_ms("enqueue_wait_seconds")
    m["serving.flush_ms"] = mean_ms("batch_flush_seconds")
    m["serving.exec_ms"] = mean_ms("exec_seconds")
    m["serving.exec_self_ms"] = (m["serving.exec_ms"]
                                 - mean_ms("walk_seconds")
                                 - mean_ms("topk_seconds"))
    m["serving.render_ms"] = mean_ms("render_seconds")
    m["serving.batch_occupancy_mean"] = stats.mean_occupancy
    m["serving.cache_hit_ratio"] = stats.cache_hit_rate
    m["serving.memo_hit_ratio"] = stats.memo_hit_rate
    m["serving.dedup_rows"] = stats.dedup_rows
    for name in ("serving.cache_get_us", "serving.memo_get_us"):
        m[name] = flush_ms(name) * 1e3 / GROUP  # per lookup
    for name in ("serving.dedup_plan_us", "runtime.ring_encode_us",
                 "runtime.ring_decode_us", "runtime.response_codec_us"):
        m[name] = flush_ms(name) * 1e3          # per flush
    # The ledger: mean latency of the requests that queued (cache hits
    # never do and answer in microseconds) less the mean of every stage
    # a histogram covers.  Stage means are per batch, so uneven batches
    # skew it; cascade planning and the future hand-off are in no
    # histogram and land here.
    queued = max(hist["enqueue_wait_seconds"][0], 1)
    m["ledger.unattributed_ms"] = (
        hist["request_latency_seconds"][1] / queued * 1e3
        - m["serving.queue_wait_ms"] - m["serving.flush_ms"]
        - mean_ms("transport_seconds") - m["serving.render_ms"])
    ceiling_rps = SERVER_BASE["workers"] * GROUP / m["core.recommend_ms"] * 1e3
    m["serving.overhead_ratio"] = untraced["rps"] / ceiling_rps

    m["runtime.transport_ms"] = mean_ms("transport_seconds")
    m["runtime.ring_fallbacks"] = count["ring_fallbacks_total"]
    m["runtime.spawn_s"] = traced["spawn_s"]
    m["runtime.plane_mb"] = traced["plane_mb"]

    m["graphstore.stage_us_per_edge"] = (spans.total_s("graphstore.stage")
                                         / max(offered, 1) * 1e6)
    m["graphstore.compact_ms"] = spans.total_s("graphstore.compact_ms") * 1e3
    m["graphstore.fingerprint_us"] = (
        spans.total_s("graphstore.fingerprint_us") / STAGE_BATCHES * 1e6)

    writer = traced["writer"]

    def writer_mean(attribute: str) -> float:
        values = getattr(writer, attribute, ())  # no writer: no values
        return statistics.fmean(values) if values else 0.0

    m["online.ingest_ms"] = writer_mean("ingest_s") * 1e3
    m["online.round_s"] = writer_mean("round_s")
    m["online.swap_ms"] = writer_mean("swap_s") * 1e3
    m["online.publish_ms"] = mean_ms("online_publish_seconds")
    m["online.compactions"] = writer.compactions if writer else 0

    m["setup.world_s"] = setup_parts["world_s"]
    m["setup.transe_s"] = setup_parts["transe_s"]
    m["setup.fit_epoch_s"] = setup_parts["fit_epoch_s"]
    m["telemetry.trace_overhead_ratio"] = (traced["rps_at_reference"]
                                           / untraced["rps_at_reference"])
    m["host.calib_ms"] = statistics.median(speed.samples_ms)

    path = results_dir() / f"trace_{spec.name}.json"
    path.write_text(json.dumps({
        "workload": spec.name, "seed": seed,
        "span_fields": ["name", "t0", "t1", "parent", "group"],
        "spans": spans.rows,
        "server_spans_tail": traced["server_spans_tail"]}))
    errors = [error for side in (untraced, traced)
              for error in side["run"].failures + side["errors"]]
    return {"metrics": m,
            "attempted": untraced["run"].n + traced["run"].n,
            "failed": len(errors), "errors": errors[:5]}
