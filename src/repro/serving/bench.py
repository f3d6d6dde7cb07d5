"""Closed-loop load generation against a :class:`RecommendationServer`.

Three measured phases per run:

1. **naive** — the pre-serving baseline: a single thread calling
   ``recommend_sessions`` once *per session* (one synchronous
   SessionBatcher loop per call);
2. **coalesced** — ``concurrency`` closed-loop client threads issuing
   blocking ``recommend_one`` calls against a fresh server (cold
   cache), so micro-batches form from genuinely concurrent traffic;
3. **warm** — the same request set replayed against the now-populated
   explanation cache.

The emitted payload (``BENCH_serving.json``) carries throughput for
all three, the coalesced-vs-naive speedup, latency percentiles, the
batch-occupancy histogram, and the cache hit rate.

A fourth phase exercises the telemetry plane end to end: a fresh
server with the ``/metrics`` HTTP endpoint and (optionally) request
tracing enabled takes a short warm+cold pass, the endpoint is scraped
over real HTTP, the fleet snapshot is captured as JSON, and the
declarative serving SLOs (:func:`repro.telemetry.exporters.serving_slos`)
are evaluated against it — the CLI turns a violation into a non-zero
exit so CI gates on it.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.data.schema import Session
from repro.serving.server import RecommendationServer, naive_recommend_loop


def _closed_loop(server: RecommendationServer, sessions: Sequence[Session],
                 concurrency: int, k: int) -> float:
    """Drive every session through ``recommend_one`` from ``concurrency``
    client threads (round-robin shards); returns elapsed seconds."""
    shards: List[List[Session]] = [
        list(sessions[i::concurrency]) for i in range(concurrency)]
    errors: List[BaseException] = []

    def client(shard: List[Session]) -> None:
        try:
            for session in shard:
                server.recommend_one(session, k=k)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(shard,))
               for shard in shards if shard]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed


def run_telemetry_phase(trainer, sessions: Sequence[Session], *,
                        concurrency: int = 32, k: int = 20,
                        trace_sample: float = 0.0,
                        window_interval_ms: float = 50.0,
                        slo_p99_ms: float = 1000.0,
                        slo_swap_max_ms: float = 5000.0,
                        slo_cache_hit_floor: float = 0.25,
                        slo_ring_fallback_ceiling: float = 0.5,
                        overrides: Optional[dict] = None) -> dict:
    """Drive a fresh server with the full telemetry plane enabled.

    Cold pass (misses) + warm replay (hits), a real HTTP scrape of the
    ``/metrics`` endpoint plus ``/metrics.json?window=`` and
    ``/healthz``, the merged fleet snapshot as JSON, and the canonical
    serving SLO gates evaluated **twice** — against the cumulative
    snapshot (historical gate) and against the rolling window covering
    the warm pass (burn-rate gate).  Returns the JSON-ready
    ``telemetry`` section of a bench payload.
    """
    from urllib.request import urlopen

    from repro.telemetry.exporters import evaluate_slos, serving_slos
    from repro.telemetry.trace import ROW_SPAN, spans_by_trace

    with trainer.serve(metrics_port=0, trace_sample=trace_sample,
                       window_interval_ms=window_interval_ms,
                       **(overrides or {})) as server:
        _closed_loop(server, sessions, concurrency, k)   # cold: misses
        warm_t0 = perf_counter()
        _closed_loop(server, sessions, concurrency, k)   # warm: hits
        warm_s = perf_counter() - warm_t0
        # Slice the window NOW, before the HTTP scrapes below — the
        # sampler keeps ticking while we scrape, and a trailing
        # ``warm_s``-deep window taken afterwards would cover the
        # scrape idle time instead of the warm traffic.
        win = server.window(seconds=warm_s)
        with urlopen(server.metrics_url, timeout=10) as resp:
            scrape = resp.read().decode("utf-8")
        base = server.metrics_url.rsplit("/metrics", 1)[0]
        with urlopen(f"{base}/healthz", timeout=10) as resp:
            healthz_ok = resp.read().decode("utf-8").strip() == "ok"
        with urlopen(f"{base}/metrics.json?window=all",
                     timeout=10) as resp:
            window_scrape = json.loads(resp.read().decode("utf-8"))
        snapshot = server.fleet_snapshot()
        spans = server.tracer.drain()
    slos = serving_slos(p99_ms=slo_p99_ms, swap_max_ms=slo_swap_max_ms,
                        cache_hit_floor=slo_cache_hit_floor,
                        ring_fallback_ceiling=slo_ring_fallback_ceiling)
    results = evaluate_slos(snapshot, slos)
    windowed = evaluate_slos(snapshot, slos, window=win)
    burns = [r.burn_rate for r in windowed if r.burn_rate is not None]
    return {
        "trace_sample": trace_sample,
        "prometheus_bytes": len(scrape),
        "prometheus_scraped": scrape.startswith("# "),
        "healthz_ok": healthz_ok,
        "window_endpoint_ok": bool(
            window_scrape.get("window_seconds") is not None
            or window_scrape.get("available") is False),
        "snapshot": snapshot.to_dict(),
        "spans_recorded": len(spans),
        "traces_recorded": len(spans_by_trace(spans)),
        "row_spans_recorded": sum(1 for s in spans
                                  if s.name == ROW_SPAN),
        "slo": [result.to_dict() for result in results],
        "slo_ok": all(result.ok for result in results),
        "window": {
            "available": win is not None,
            "seconds": win.seconds if win is not None else None,
            "slo": [result.to_dict() for result in windowed],
            "slo_ok": all(result.ok for result in windowed),
            "burn_max": max(burns) if burns else 0.0,
        },
    }


def run_serving_bench(trainer, sessions: Sequence[Session], *,
                      concurrency: int = 32, k: int = 20,
                      max_batch: Optional[int] = None,
                      max_wait_ms: Optional[float] = None,
                      workers: Optional[int] = None,
                      min_requests: int = 512,
                      naive_sessions: Optional[int] = None,
                      trace_sample: float = 0.0,
                      slo: Optional[dict] = None,
                      hot_replay: Optional[dict] = None) -> dict:
    """One load-generator run; returns the JSON-ready payload.

    The request stream repeats the session list until it is at least
    ``min_requests`` long, so the coalesced phase measures steady-state
    batching rather than the client-thread ramp-up; the cold phase runs
    with the cache disabled so repeats still exercise the full walk.
    ``naive_sessions`` bounds the (slow) per-session baseline loop; its
    throughput extrapolates linearly since every call is independent.
    """
    sessions = [s for s in sessions if len(s.items) >= 2]
    if not sessions:
        raise ValueError("no usable sessions (need >= 2 items each)")
    rounds = max(1, -(-min_requests // len(sessions)))
    stream = list(sessions) * rounds
    overrides = {}
    if max_batch is not None:
        overrides["max_batch"] = max_batch
    if max_wait_ms is not None:
        overrides["max_wait_ms"] = max_wait_ms
    if workers is not None:
        overrides["workers"] = workers

    # Phase 1: naive one-session-per-call loop (the pre-serving path).
    # Best-of-2 on both timed phases: this benchmark compares two
    # absolute timings on a possibly noisy host, so each side gets
    # its best attempt (same policy as bench_micro_env_hotpath).
    naive_n = min(len(stream),
                  naive_sessions if naive_sessions else 128)
    naive_s = float("inf")
    for _ in range(2):
        start = perf_counter()
        naive_recommend_loop(trainer, stream[:naive_n], k=k)
        naive_s = min(naive_s, perf_counter() - start)
    naive_rps = naive_n / naive_s

    # Phase 2: cold coalesced pass — cache off, every request walks.
    with trainer.serve(cache_size=0, **overrides) as server:
        cold_s, cold = float("inf"), None
        for _ in range(2):
            elapsed = _closed_loop(server, stream, concurrency, k)
            if elapsed < cold_s:
                cold_s, cold = elapsed, server.stats()
            server.reset_stats()
        occupancy = cold.batch_occupancy
        scheduler_max_batch = server._scheduler.max_batch
        scheduler_wait_ms = server._scheduler.max_wait_s * 1e3
        n_workers = server.executors
        pool_bytes = server.workspace.nbytes
        worker_mode = server.worker_mode
        plane_bytes = (server.process_pool.plane_nbytes
                       if server.process_pool is not None else 0)

    # Phase 3: cache efficiency — populate once (misses), replay (hits).
    with trainer.serve(**overrides) as server:
        _closed_loop(server, sessions, concurrency, k)
        server.reset_stats()
        warm_s = _closed_loop(server, sessions, concurrency, k)
        warm = server.stats()
        cache = server.cache

    # Phase 4: telemetry plane — /metrics scrape + fleet snapshot +
    # SLO gates on a short dedicated pass (phases 1-3 keep their
    # historical shape for comparability).
    telemetry = run_telemetry_phase(
        trainer, sessions, concurrency=concurrency, k=k,
        trace_sample=trace_sample, overrides=overrides, **(slo or {}))

    # Phase 5 (opt-in): Zipf hot-session replay gating the shared-
    # computation layer (dedup + walk memo) — see run_hot_replay.
    replay = None
    if hot_replay is not None:
        replay = run_hot_replay(trainer, sessions,
                                concurrency=concurrency,
                                overrides=overrides, **hot_replay)

    return {
        "benchmark": "serving",
        "concurrency": concurrency,
        "k": k,
        "requests": len(stream),
        "distinct_sessions": len(sessions),
        "max_batch": scheduler_max_batch,
        "max_wait_ms": scheduler_wait_ms,
        "workers": n_workers,
        "worker_mode": worker_mode,
        "plane_nbytes": plane_bytes,
        "naive": {"requests": naive_n, "seconds": naive_s,
                  "throughput_rps": naive_rps},
        "coalesced": {"seconds": cold_s,
                      "throughput_rps": len(stream) / cold_s,
                      "latency_ms": {
                          "mean": cold.latency_ms_mean,
                          "p50": cold.latency_ms_p50,
                          "p95": cold.latency_ms_p95,
                          "p99": cold.latency_ms_p99},
                      "batch_occupancy": {
                          str(s): c for s, c
                          in sorted(occupancy.items())},
                      "mean_occupancy": cold.mean_occupancy,
                      "batches": cold.batches},
        "warm": {"seconds": warm_s,
                 "throughput_rps": len(sessions) / warm_s,
                 "latency_ms": {
                     "mean": warm.latency_ms_mean,
                     "p50": warm.latency_ms_p50,
                     "p95": warm.latency_ms_p95,
                     "p99": warm.latency_ms_p99}},
        "cache": {"hits": cache.hits, "misses": cache.misses,
                  "hit_rate": cache.hit_rate,
                  "entries": len(cache),
                  "evictions": cache.evictions,
                  "by_version": warm.to_dict()["cache_by_version"]},
        "speedup_vs_naive": (len(stream) / cold_s) / naive_rps,
        "workspace_pool_bytes": pool_bytes,
        "telemetry": telemetry,
        **({"hot_replay": replay} if replay is not None else {}),
    }


def _replay(server: RecommendationServer,
            requests: Sequence[tuple], concurrency: int):
    """Closed-loop drive of an explicit ``(session, k)`` request list;
    returns ``(elapsed_seconds, results_in_request_order)``."""
    results: List[Optional[object]] = [None] * len(requests)
    shards = [list(range(i, len(requests), concurrency))
              for i in range(concurrency)]
    errors: List[BaseException] = []

    def client(indices: List[int]) -> None:
        try:
            for i in indices:
                session, k = requests[i]
                results[i] = server.recommend_one(session, k=k)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(shard,))
               for shard in shards if shard]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, results


def _replay_waves(server: RecommendationServer,
                  requests: Sequence[tuple], wave: int):
    """Deterministic wave drive: submit ``wave`` requests, await them
    all, then the next wave.  Unlike the closed-loop :func:`_replay`,
    every run sees the **identical sequence of flush compositions** (a
    wave's cache misses coalesce into one flush) — which is what makes
    float-bit comparisons across two servers meaningful, because
    per-row numeric outputs depend on the flush's padded width."""
    results: List[Optional[object]] = [None] * len(requests)
    start = perf_counter()
    for base in range(0, len(requests), wave):
        futures = [(i, server.submit(requests[i][0], k=requests[i][1]))
                   for i in range(base, min(base + wave, len(requests)))]
        for i, future in futures:
            results[i] = future.result()
    return perf_counter() - start, results


def run_hot_replay(trainer, sessions: Sequence[Session], *,
                   concurrency: int = 32, requests: int = 512,
                   zipf_s: float = 1.0, ks: Sequence[int] = (5, 10, 20),
                   seed: int = 2024,
                   slo_p99_ms: float = 1000.0,
                   slo_memo_hit_floor: float = 0.25,
                   overrides: Optional[dict] = None) -> dict:
    """Zipf-skewed hot-session replay: shared computation on vs off.

    A seeded Zipf(``zipf_s``) draw over the distinct sessions (rank 1 =
    hottest) builds one fixed request stream whose ``k`` cycles through
    ``ks`` per request — so repeat suffixes keep changing k, the case
    only the walk memo (not any exact-repeat cache) can share.  The
    identical stream is then driven through two servers: **baseline**
    with ``dedup=False, walk_memo_size=0`` and **shared** with the
    defaults — both with the explanation cache *off*, so every request
    reaches the scheduler and the measured speedup isolates the
    walk-sharing layer rather than re-measuring ISSUE-4 caching.
    Best-of-2 with a fresh server per attempt keeps cold-start cost
    symmetric.  Both runs use the deterministic :func:`_replay_waves`
    driver (``concurrency`` = wave size), so the two servers see the
    identical sequence of flush compositions.  Both runs execute in
    **thread mode** whatever the outer bench pinned: the layer under
    test is transport-agnostic and its process-mode differentials are
    covered bitwise by the tier-1 suite, while process-mode marshal
    overhead belongs to the bench's main phases, not this ratio.

    Equality gate (``bit_identical``): rankings and rendered
    explanations must match the baseline **exactly**, and scores to
    within last-ulp BLAS reassociation (rtol 1e-6).  Collapsing
    duplicate rows or serving a memo hit changes the *walk batch's row
    composition*, and per-row float bits are only reproducible for an
    identical batch composition (degree-bucketed policy forwards batch
    rows together, so BLAS block reduction order couples rows) — the
    same last-ulp tolerance the coalescing layer has always documented
    for batch-shape changes, with rankings and paths invariant.  Score
    bits *are* exactly reproduced whenever composition is preserved —
    across transports, and for sequential streams — which is what the
    tier-1 differential suite pins; ``scores_bit_identical`` reports
    how often that held here, honestly, without gating on it.

    Emits dedup/memo hit counters, walked-row counts from the fleet
    plane, the speedup, the equality breakdown, and the declarative
    SLO verdicts (memo-hit floor + p99 ceiling) evaluated on the
    shared run's fleet snapshot.
    """
    from repro.telemetry.exporters import evaluate_slos, serving_slos

    sessions = [s for s in sessions if len(s.items) >= 2]
    if not sessions:
        raise ValueError("no usable sessions (need >= 2 items each)")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(sessions) + 1, dtype=np.float64)
    weights = ranks ** -float(zipf_s)
    weights /= weights.sum()
    picks = rng.choice(len(sessions), size=int(requests), p=weights)
    ks = tuple(int(k) for k in ks)
    stream = [(sessions[int(p)], ks[i % len(ks)])
              for i, p in enumerate(picks)]

    def drive(server_overrides: dict):
        best = None
        for _ in range(2):
            with trainer.serve(**server_overrides) as server:
                elapsed, results = _replay_waves(server, stream,
                                                 concurrency)
                stats = server.stats()
                snap = (server.fleet_snapshot()
                        if server.metrics_registry is not None else None)
            if best is None or elapsed < best[0]:
                best = (elapsed, results, stats, snap)
        return best

    # Short flush deadline (identical on both sides): the wave driver
    # pays one deadline wait per wave, and at the bench's default 2ms
    # that fixed cost drowns the walk-time difference being measured.
    # Submitting a wave takes microseconds, so 0.5ms still coalesces
    # every wave into one deterministic flush.
    #
    # The replay always runs in thread mode regardless of the outer
    # bench's pinned worker mode: the shared-computation layer is
    # transport-agnostic (the plan's dedup sections / per-worker memo
    # differentials are pinned bitwise by tests/test_shared_compute.py),
    # and in process mode the fixed per-flush ring marshal + render
    # cost — already measured by the bench's main phases — dilutes the
    # wall ratio of the one layer this stage isolates.
    base_over = {k: v for k, v in (overrides or {}).items()
                 if k not in ("worker_mode", "transport", "workers")}
    base_over.update(cache_size=0, dedup=False, walk_memo_size=0,
                     max_wait_ms=0.5, worker_mode="thread")
    base_s, base_results, base_stats, base_snap = drive(base_over)
    shared_over = {k: v for k, v in (overrides or {}).items()
                   if k not in ("worker_mode", "transport", "workers")}
    shared_over.update(cache_size=0, max_wait_ms=0.5,
                       worker_mode="thread")
    shared_s, shared_results, shared_stats, shared_snap = drive(
        shared_over)

    rankings_ok = len(base_results) == len(shared_results) and all(
        b.items == s.items
        for b, s in zip(base_results, shared_results))
    explanations_ok = rankings_ok and all(
        b.explanations == s.explanations
        for b, s in zip(base_results, shared_results))
    scores_bitwise = rankings_ok and all(
        b.scores == s.scores
        for b, s in zip(base_results, shared_results))
    score_rel_err = 0.0
    scores_close = rankings_ok
    if rankings_ok:
        for b, s in zip(base_results, shared_results):
            bs = np.asarray(b.scores)
            ss = np.asarray(s.scores)
            denom = np.maximum(np.abs(bs), 1e-300)
            err = float(np.max(np.abs(bs - ss) / denom)) if bs.size else 0.0
            score_rel_err = max(score_rel_err, err)
        scores_close = score_rel_err <= 1e-6
    identical = rankings_ok and explanations_ok and scores_close

    def counter(snap, name: str) -> int:
        return int(snap.counter(name)) if snap is not None else 0

    memo_hits = counter(shared_snap, "walk_memo_hits_total")
    memo_misses = counter(shared_snap, "walk_memo_misses_total")
    saved = 0.0
    if shared_snap is not None:
        saved = float(sum((shared_snap.to_dict().get("gauges", {})
                           .get("walk_seconds_saved_total") or {})
                          .values()))

    slos = serving_slos(p99_ms=slo_p99_ms,
                        memo_hit_floor=slo_memo_hit_floor)
    slo_results = (evaluate_slos(shared_snap, slos)
                   if shared_snap is not None else [])

    def phase(elapsed: float, stats) -> dict:
        return {"seconds": elapsed,
                "throughput_rps": len(stream) / elapsed,
                "latency_ms": {"mean": stats.latency_ms_mean,
                               "p50": stats.latency_ms_p50,
                               "p95": stats.latency_ms_p95,
                               "p99": stats.latency_ms_p99}}

    return {
        "requests": len(stream),
        "distinct_sessions": len(sessions),
        "zipf_s": float(zipf_s),
        "ks": list(ks),
        "concurrency": concurrency,
        "worker_mode": "thread",
        "baseline": {**phase(base_s, base_stats),
                     "walked_rows": counter(base_snap,
                                            "exec_rows_total")},
        "shared": {**phase(shared_s, shared_stats),
                   "walked_rows": counter(shared_snap,
                                          "exec_rows_total"),
                   "dedup_rows": counter(shared_snap,
                                         "dedup_rows_total"),
                   "memo": {"hits": memo_hits,
                            "misses": memo_misses,
                            "hit_rate": (memo_hits
                                         / (memo_hits + memo_misses)
                                         if memo_hits + memo_misses
                                         else 0.0),
                            "evictions": counter(
                                shared_snap,
                                "walk_memo_evictions_total"),
                            "seconds_saved": saved}},
        "speedup": base_s / shared_s if shared_s else 0.0,
        "bit_identical": identical,
        "rankings_identical": rankings_ok,
        "explanations_identical": explanations_ok,
        "scores_bit_identical": scores_bitwise,
        "scores_max_rel_err": score_rel_err,
        "slo": [result.to_dict() for result in slo_results],
        "slo_ok": all(result.ok for result in slo_results),
    }


def check_determinism(trainer, sessions: Sequence[Session],
                      k: int = 20) -> bool:
    """Coalesced rankings must equal the synchronous batch rankings."""
    sessions = [s for s in sessions if len(s.items) >= 2]
    expected: List[np.ndarray] = []
    for rec in trainer.recommend_sessions(sessions, k=k):
        expected.extend(rec.ranked_items)
    with trainer.serve(cache_size=0) as server:
        results = server.recommend_many(sessions, k=k)
    got = [np.asarray(r.items, dtype=np.int64) for r in results]
    return all(np.array_equal(g, e) for g, e in zip(got, expected)) \
        and len(got) == len(expected)


def emit(payload: dict, out_path) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2))
    return out_path


def format_report(payload: dict) -> str:
    """Human-readable summary of one run."""
    cold = payload["coalesced"]
    warm = payload["warm"]
    lines = [
        f"serving bench @ concurrency {payload['concurrency']} "
        f"(k={payload['k']}, max_batch={payload['max_batch']}, "
        f"wait={payload['max_wait_ms']:.1f}ms, "
        f"workers={payload['workers']} "
        f"{payload.get('worker_mode', 'thread')})",
        f"  naive loop    : {payload['naive']['throughput_rps']:>8.1f} req/s",
        f"  coalesced     : {cold['throughput_rps']:>8.1f} req/s "
        f"({payload['speedup_vs_naive']:.2f}x naive)  "
        f"p50={cold['latency_ms']['p50']:.1f}ms "
        f"p95={cold['latency_ms']['p95']:.1f}ms "
        f"p99={cold['latency_ms']['p99']:.1f}ms",
        f"  warm (cached) : {warm['throughput_rps']:>8.1f} req/s  "
        f"hit rate {payload['cache']['hit_rate']:.1%}",
        f"  occupancy     : mean {cold['mean_occupancy']:.1f} "
        f"over {cold['batches']} batches",
    ]
    tel = payload.get("telemetry")
    if tel is not None:
        failed = [r["name"] for r in tel["slo"] if not r["ok"]]
        lines.append(
            f"  telemetry     : /metrics scrape {tel['prometheus_bytes']}B, "
            f"{tel['spans_recorded']} spans over "
            f"{tel['traces_recorded']} traces "
            f"(sample={tel['trace_sample']:.2f}), SLO "
            + ("PASS" if tel["slo_ok"] else f"FAIL {failed}"))
        win = tel.get("window")
        if win and win.get("available"):
            wfailed = [r["name"] for r in win["slo"] if not r["ok"]]
            lines.append(
                f"  window        : {win['seconds']:.2f}s, "
                f"burn max {win['burn_max']:.3g}, SLO "
                + ("PASS" if win["slo_ok"] else f"FAIL {wfailed}"))
    replay = payload.get("hot_replay")
    if replay is not None:
        memo = replay["shared"]["memo"]
        rfailed = [r["name"] for r in replay["slo"] if not r["ok"]]
        lines.append(
            f"  hot replay    : {replay['speedup']:.2f}x over dedup-off "
            f"(zipf s={replay['zipf_s']:g}, "
            f"{replay['requests']} reqs, "
            f"{replay.get('worker_mode', 'thread')} mode), memo hit "
            f"{memo['hit_rate']:.1%}, "
            f"{replay['shared']['dedup_rows']} deduped, walks "
            f"{replay['shared']['walked_rows']}"
            f"/{replay['baseline']['walked_rows']}, "
            + ("identical" if replay["bit_identical"]
               else "MISMATCH")
            + (" (scores bitwise)" if replay["scores_bit_identical"]
               else f" (score ulp err {replay['scores_max_rel_err']:.1e})")
            + ", SLO "
            + ("PASS" if replay["slo_ok"] else f"FAIL {rfailed}"))
    return "\n".join(lines)
