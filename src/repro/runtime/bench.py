"""Benchmark the runtime execution plane: process serving + isolation.

Three measured stories, one payload (``BENCH_runtime.json``):

1. **Thread vs process serving** — the same cold-cache closed-loop
   request stream driven against ``worker_mode="thread"`` and
   ``worker_mode="process"`` servers (one thread executor against
   ``workers`` processes), the process
   mode measured over **both exec transports** (shared-memory rings,
   the default, and the legacy pickle pipe) with per-micro-batch
   overhead ratios against thread mode, plus bit-identity checks
   between the modes' and the transports' rankings and explanations.
   The plane sizes, generation key, and ring/pipe/fallback batch
   counters are recorded so the dataplane story is auditable.
2. **Shard-major frontier gather** — a scattered frontier against a
   multi-shard store: the old per-shard sub-gather loop (one fancy
   row-scatter per touched shard per output) vs the grouped
   :meth:`~repro.graphstore.ShardedCSR.gather_into` path (contiguous
   sub-gathers, one scatter back to row order), outputs checked
   identical.
3. **Fine-tune / serving isolation** — serving p95 at steady state
   (idle), then during a concurrent fine-tune round executed (a) on a
   thread of the serving interpreter and (b) in a subprocess updater.
   The ratio of each concurrent p95 to the idle p95 quantifies how
   much a training round steals from serving; subprocess isolation
   exists to push that ratio to ~1.0 **when spare cores exist** — the
   payload records ``cpu_count`` because on a single-core host every
   mode fights for the same clock.

Numbers are environment-dependent; the *contracts* (bit-identity,
zero dropped requests) are hard-checked here and in
``tests/test_runtime.py``.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter, sleep
from typing import List, Sequence

import numpy as np

from repro.data.schema import Session
from repro.online.ingest import DeltaIngestor
from repro.online.registry import CheckpointRegistry
from repro.online.updater import OnlineUpdater
from repro.serving.bench import _closed_loop, emit  # noqa: F401 (emit re-exported)


class _TrafficLoop:
    """Continuously drive closed-loop traffic from client threads."""

    def __init__(self, server, sessions: Sequence[Session],
                 concurrency: int, k: int) -> None:
        self._server = server
        self._sessions = list(sessions)
        self._k = k
        self._stop = threading.Event()
        self.errors: List[BaseException] = []
        self.completed = 0
        self._count_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._client, args=(i,), daemon=True)
            for i in range(concurrency)]

    def _client(self, index: int) -> None:
        shard = self._sessions[index::len(self._threads)] \
            or self._sessions[:1]
        position = 0
        try:
            while not self._stop.is_set():
                self._server.recommend_one(shard[position % len(shard)],
                                           k=self._k)
                position += 1
                with self._count_lock:
                    self.completed += 1
        except BaseException as exc:  # surfaced at stop()
            self.errors.append(exc)

    def __enter__(self) -> "_TrafficLoop":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        # Surface a client-side error only when the body succeeded —
        # never mask the measurement's own exception with one of ours.
        if exc_type is None and self.errors:
            raise self.errors[0]


def _latency_section(stats) -> dict:
    return {"mean": stats.latency_ms_mean, "p50": stats.latency_ms_p50,
            "p95": stats.latency_ms_p95, "p99": stats.latency_ms_p99}


def _results_identical(left, right) -> bool:
    return all(a.items == b.items
               and a.scores == b.scores
               and a.explanations == b.explanations
               for a, b in zip(left, right))


def check_mode_equivalence(trainer, sessions: Sequence[Session],
                           k: int = 10, workers: int = 2) -> bool:
    """Process-mode results must be bit-identical to thread mode.

    Exact equality on scores too — both modes marshal the same
    float64 score row through ``float()`` (the ring codec carries
    float64 verbatim), so anything short of bitwise identity means the
    contract is already broken.
    """
    sessions = [s for s in sessions if len(s.items) >= 2]
    with trainer.serve(worker_mode="thread", workers=workers,
                       cache_size=0) as server:
        thread_results = server.recommend_many(sessions, k=k)
    with trainer.serve(worker_mode="process", workers=workers,
                       cache_size=0) as server:
        process_results = server.recommend_many(sessions, k=k)
    return _results_identical(thread_results, process_results)


def check_transport_equivalence(trainer, sessions: Sequence[Session],
                                k: int = 10, workers: int = 2,
                                trace_sample: float = 0.0) -> bool:
    """Ring-transport results must be bit-identical to the pipe's.

    With ``trace_sample=1.0`` every request carries a trace id through
    the codec's trailing trace section and every response carries the
    span trailer — the differential then proves the telemetry sections
    are invisible to the result payload on both transports."""
    sessions = [s for s in sessions if len(s.items) >= 2]
    with trainer.serve(worker_mode="process", transport="pipe",
                       workers=workers, cache_size=0,
                       trace_sample=trace_sample) as server:
        pipe_results = server.recommend_many(sessions, k=k)
    with trainer.serve(worker_mode="process", transport="ring",
                       workers=workers, cache_size=0,
                       trace_sample=trace_sample) as server:
        ring_results = server.recommend_many(sessions, k=k)
    return _results_identical(pipe_results, ring_results)


def _reference_shard_gather(store, entities, cols, mask,
                            rels_out, tails_out) -> None:
    """The pre-grouping multi-shard gather: one fancy row-scatter per
    touched shard per output grid (kept here as the bench baseline)."""
    sid = store.shard_of(entities)
    order = np.argsort(sid, kind="stable")
    sorted_sid = sid[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_sid[1:] != sorted_sid[:-1]]))
    stops = np.concatenate([starts[1:], [sorted_sid.size]])
    for start, stop in zip(starts, stops):
        shard = store.shards[int(sorted_sid[start])]
        tables = shard.tables
        rows = order[start:stop]
        local = entities[rows] - shard.start
        sub = np.take(tables.indptr, local)[:, None] + cols[None, :]
        sub *= mask[rows]
        rels_out[rows] = np.take(tables.rels, sub)
        tails_out[rows] = np.take(tables.tails, sub)


def run_gather_bench(trainer, *, num_shards: int = 32, rows: int = 512,
                     repeats: int = 9, seed: int = 7) -> dict:
    """Scattered-frontier gather: per-shard sub-gathers vs shard-major.

    Rebuilds the trainer's adjacency as a ``num_shards``-way store (the
    bench-scale graph is single-shard by default, where the question
    doesn't arise), draws a delta-sized frontier scattered uniformly
    across the id space — the delta-traffic worst case PR 5 measured at
    3x where a shard-confined frontier got 42x — and times the old
    per-shard sub-gather loop against the grouped ``gather_into`` path.
    The regime is deliberately many-shards / few-rows-per-shard: that
    is where per-shard fixed costs (one fancy row-scatter per touched
    shard per output grid) dominate and the single-scatter grouping
    pays off; with thousands of rows per shard the two converge.
    Outputs are required identical.
    """
    from repro.graphstore import ShardedCSR

    flat = trainer.env.csr_tables().to_flat()
    degrees = flat.degrees
    store = ShardedCSR.build(degrees, flat.rels[1:], flat.tails[1:],
                             num_shards=num_shards)
    rng = np.random.default_rng(seed)
    candidates = np.flatnonzero(degrees > 0)
    entities = rng.choice(candidates, size=rows, replace=True)
    entities = entities.astype(np.int64)
    width = int(degrees[entities].max())
    cols = np.arange(width, dtype=np.int32)
    mask = cols[None, :] < degrees[entities][:, None]
    idx = np.empty((rows, width), dtype=np.int32)
    ref_rels = np.empty((rows, width), dtype=np.int32)
    ref_tails = np.empty((rows, width), dtype=np.int32)
    new_rels = np.empty((rows, width), dtype=np.int32)
    new_tails = np.empty((rows, width), dtype=np.int32)

    best_ref = best_new = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        _reference_shard_gather(store, entities, cols, mask,
                                ref_rels, ref_tails)
        best_ref = min(best_ref, perf_counter() - started)
        started = perf_counter()
        store.gather_into(entities, cols, mask, idx, new_rels, new_tails)
        best_new = min(best_new, perf_counter() - started)
    identical = (np.array_equal(ref_rels, new_rels)
                 and np.array_equal(ref_tails, new_tails))
    return {
        "num_shards": store.num_shards,
        "rows": rows,
        "width": width,
        "per_shard_ms": best_ref * 1e3,
        "grouped_ms": best_new * 1e3,
        "speedup": best_ref / max(best_new, 1e-12),
        "identical": identical,
    }


def run_runtime_bench(trainer, sessions: Sequence[Session],
                      delta: Sequence[Session], *, checkpoint_dir,
                      workers: int = 4, concurrency: int = 8,
                      k: int = 10, min_requests: int = 256,
                      check_sessions: int = 32,
                      idle_window_s: float = 0.75) -> dict:
    """One full runtime-plane run; returns the JSON-ready payload."""
    sessions = [s for s in sessions if len(s.items) >= 2]
    delta = [s for s in delta if len(s.items) >= 2]
    if not sessions or not delta:
        raise ValueError("need non-empty serving and delta session sets")
    rounds = max(1, -(-min_requests // len(sessions)))
    stream = list(sessions) * rounds
    cfg = trainer.config

    payload: dict = {
        "benchmark": "runtime",
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "concurrency": concurrency,
        "k": k,
        "requests": len(stream),
        "distinct_sessions": len(sessions),
    }

    # ------------------------------------------------------------------
    # Phase 1: thread vs process serving throughput (cold cache), the
    # process mode over both exec transports.  "process" is the ring
    # default; "process_pipe" forces the legacy pickle protocol so the
    # dataplane win is measured, not assumed.
    # ------------------------------------------------------------------
    serve_section: dict = {}
    variants = (("thread", {"worker_mode": "thread"}),
                ("process", {"worker_mode": "process",
                             "transport": "ring"}),
                ("process_traced", {"worker_mode": "process",
                                    "transport": "ring",
                                    "trace_sample": 1.0}),
                ("process_pipe", {"worker_mode": "process",
                                  "transport": "pipe"}))
    fleet_snapshot = None
    window_section = None
    for label, overrides in variants:
        with trainer.serve(workers=workers, cache_size=0,
                           **overrides) as server:
            best_s, best = float("inf"), None
            for _ in range(2):  # best-of-2, same policy as serve-bench
                elapsed = _closed_loop(server, stream, concurrency, k)
                if elapsed < best_s:
                    best_s, best = elapsed, server.stats()
                server.reset_stats()
            if label == "process":
                # Merged fleet metrics for the ring run: the worker
                # children's per-shard gather counters and exec/walk
                # timings next to the parent's transport counters.
                fleet_snapshot = server.fleet_snapshot().to_dict()
                # Rolling-window view over the same run: the server
                # records a snapshot at construction, so the full-span
                # window isolates this variant's traffic from the
                # other variants' registries entirely.
                win = server.window()
                if win is not None:
                    from repro.telemetry.exporters import (
                        evaluate_slos, serving_slos)
                    snap = server.fleet_snapshot()
                    windowed = evaluate_slos(snap, serving_slos(),
                                             window=win)
                    burns = [r.burn_rate for r in windowed
                             if r.burn_rate is not None]
                    window_section = {
                        "seconds": win.seconds,
                        "slo": [r.to_dict() for r in windowed],
                        "slo_ok": all(r.ok for r in windowed),
                        "burn_max": max(burns) if burns else 0.0,
                    }
            batches = max(1, round(best.requests
                                   / max(best.mean_occupancy, 1e-9)))
            entry = {
                "seconds": best_s,
                "throughput_rps": len(stream) / best_s,
                "latency_ms": _latency_section(best),
                "mean_occupancy": best.mean_occupancy,
                "per_batch_ms": best_s / batches * 1e3,
            }
            pool = server.process_pool
            if pool is not None:
                entry["transport"] = server.transport
                entry["plane_key"] = pool.plane_key
                entry["plane_nbytes"] = pool.plane_nbytes
                entry["mp_start_method"] = \
                    pool._context.get_start_method()
                entry["ring_batches"] = pool.ring_batches
                entry["pipe_batches"] = pool.pipe_batches
                entry["ring_fallbacks"] = pool.ring_fallbacks
            serve_section[label] = entry
    serve_section["process_vs_thread_throughput"] = (
        serve_section["process"]["throughput_rps"]
        / serve_section["thread"]["throughput_rps"])
    thread_batch_ms = serve_section["thread"]["per_batch_ms"]
    for label in ("process", "process_traced", "process_pipe"):
        serve_section[label]["per_batch_vs_thread"] = (
            serve_section[label]["per_batch_ms"]
            / max(thread_batch_ms, 1e-12))
    serve_section["bit_identical"] = check_mode_equivalence(
        trainer, sessions[:check_sessions], k=k, workers=workers)
    serve_section["transport_bit_identical"] = check_transport_equivalence(
        trainer, sessions[:check_sessions], k=k, workers=workers)
    # Same differential with every request traced: the codec's trace /
    # span sections must not perturb the result payload on either
    # transport.
    serve_section["transport_bit_identical_traced"] = (
        check_transport_equivalence(trainer, sessions[:check_sessions],
                                    k=k, workers=workers,
                                    trace_sample=1.0))
    payload["serve"] = serve_section
    # The serve variants above already ran with the metrics plane on
    # (the config default), so the ring-vs-thread per-batch ratio IS
    # the with-telemetry overhead number the SLO gate consumes.
    payload["telemetry"] = {
        "ring_per_batch_vs_thread": serve_section["process"][
            "per_batch_vs_thread"],
        # Every request traced with per-row span attribution: the
        # fully-observed ring batch against bare thread mode.
        "ring_traced_per_batch_vs_thread": serve_section[
            "process_traced"]["per_batch_vs_thread"],
        "snapshot": fleet_snapshot,
        "window": window_section,
    }

    # ------------------------------------------------------------------
    # Phase 1b: scattered-frontier shard-major gather.
    # ------------------------------------------------------------------
    payload["gather"] = run_gather_bench(trainer)

    # ------------------------------------------------------------------
    # Phase 2: serving p95 while a fine-tune round runs concurrently.
    # ------------------------------------------------------------------
    registry = CheckpointRegistry(checkpoint_dir,
                                  keep_last=cfg.online_keep_checkpoints)
    ingestor = DeltaIngestor(trainer.built, trainer.env,
                             compact_every=cfg.online_compact_every)
    inline = OnlineUpdater(trainer, ingestor, registry, min_sessions=1,
                           max_steps=cfg.online_max_steps, mode="thread")
    isolated = OnlineUpdater(trainer, ingestor, registry, min_sessions=1,
                             max_steps=cfg.online_max_steps,
                             mode="subprocess")
    # Warm-up: publishes the swap target and forks the subprocess
    # child *before* traffic threads exist (clean fork).
    v_base = inline.run_once(force=True)
    isolated.run_once(force=True)
    half = max(1, len(delta) // 2)

    def round_workload(part: Sequence[Session]) -> List[Session]:
        """Repeat a delta slice until it fills ``online_max_steps``
        fine-tune batches — a sub-second round would measure scheduler
        noise, not contention."""
        need = cfg.online_max_steps * cfg.batch_size
        reps = max(1, -(-need // max(len(part), 1)))
        return list(part) * reps

    online_section: dict = {"versions": {"base": v_base}}
    try:
        # Cache off: the isolation story is about walk compute
        # stealing, which a warm explanation cache would hide entirely.
        with trainer.serve(worker_mode="thread", registry=registry,
                           cache_size=0) as server:
            server.swap_model(v_base)  # serve a clone; tunes stay private
            with _TrafficLoop(server, sessions, concurrency, k):
                sleep(0.1)  # ramp
                server.reset_stats()
                sleep(idle_window_s)
                idle = server.stats()

                ingestor.ingest_sessions(round_workload(delta[:half]))
                server.reset_stats()
                started = perf_counter()
                isolated.run_once(force=True)
                subprocess_s = perf_counter() - started
                during_subprocess = server.stats()

                ingestor.ingest_sessions(round_workload(delta[half:]))
                server.reset_stats()
                started = perf_counter()
                inline.run_once(force=True)  # trains on this interpreter
                inline_s = perf_counter() - started
                during_inline = server.stats()
    finally:
        isolated.stop()  # a failed run must not leak the forked child

    idle_p95 = max(idle.latency_ms_p95, 1e-9)
    online_section.update({
        "idle": {"window_s": idle_window_s,
                 "requests": idle.requests,
                 "latency_ms": _latency_section(idle)},
        "during_subprocess_round": {
            "round_seconds": subprocess_s,
            "requests": during_subprocess.requests,
            "latency_ms": _latency_section(during_subprocess),
            "p95_vs_idle": during_subprocess.latency_ms_p95 / idle_p95,
        },
        "during_inline_round": {
            "round_seconds": inline_s,
            "requests": during_inline.requests,
            "latency_ms": _latency_section(during_inline),
            "p95_vs_idle": during_inline.latency_ms_p95 / idle_p95,
        },
    })
    online_section["isolation_gain"] = (
        online_section["during_inline_round"]["p95_vs_idle"]
        / max(online_section["during_subprocess_round"]["p95_vs_idle"],
              1e-9))
    payload["online"] = online_section
    return payload


def format_report(payload: dict) -> str:
    """Human-readable summary of one runtime run."""
    serve = payload["serve"]
    online = payload["online"]
    gather = payload.get("gather")
    pipe = serve.get("process_pipe")
    lines = [
        f"runtime bench @ {payload['workers']} workers, concurrency "
        f"{payload['concurrency']} (k={payload['k']}, "
        f"{payload['cpu_count']} cpu)",
        f"  thread serve   : {serve['thread']['throughput_rps']:>8.1f} "
        f"req/s  p95={serve['thread']['latency_ms']['p95']:.1f}ms",
        f"  process (ring) : {serve['process']['throughput_rps']:>8.1f} "
        f"req/s  p95={serve['process']['latency_ms']['p95']:.1f}ms "
        f"({serve['process_vs_thread_throughput']:.2f}x thread, "
        f"batch {serve['process'].get('per_batch_vs_thread', 0):.2f}x, "
        f"plane {serve['process'].get('plane_nbytes', 0) / 1e6:.1f}MB "
        f"via {serve['process'].get('mp_start_method', '?')}, "
        f"fallbacks {serve['process'].get('ring_fallbacks', 0)})",
    ]
    traced = serve.get("process_traced")
    if traced is not None:
        lines.append(
            f"  process traced : {traced['throughput_rps']:>8.1f} "
            f"req/s  p95={traced['latency_ms']['p95']:.1f}ms "
            f"(batch {traced.get('per_batch_vs_thread', 0):.2f}x "
            f"thread, per-row spans @ sample=1.0)")
    if pipe is not None:
        lines.append(
            f"  process (pipe) : {pipe['throughput_rps']:>8.1f} "
            f"req/s  p95={pipe['latency_ms']['p95']:.1f}ms "
            f"(batch {pipe.get('per_batch_vs_thread', 0):.2f}x thread)")
    lines.append(
        f"  bit-identical  : modes={serve['bit_identical']} "
        f"transports={serve.get('transport_bit_identical', '?')} "
        f"traced={serve.get('transport_bit_identical_traced', '?')}")
    if gather is not None:
        lines.append(
            f"  scatter gather : {gather['num_shards']} shards x "
            f"{gather['rows']} rows  per-shard "
            f"{gather['per_shard_ms']:.2f}ms -> grouped "
            f"{gather['grouped_ms']:.2f}ms "
            f"({gather['speedup']:.2f}x, identical="
            f"{gather['identical']})")
    lines += [
        f"  idle p95       : {online['idle']['latency_ms']['p95']:.1f}ms",
        f"  + inline round : p95 "
        f"{online['during_inline_round']['latency_ms']['p95']:.1f}ms "
        f"({online['during_inline_round']['p95_vs_idle']:.2f}x idle)",
        f"  + subproc round: p95 "
        f"{online['during_subprocess_round']['latency_ms']['p95']:.1f}ms "
        f"({online['during_subprocess_round']['p95_vs_idle']:.2f}x idle)",
        f"  isolation gain : {online['isolation_gain']:.2f}x",
    ]
    win = payload.get("telemetry", {}).get("window")
    if win:
        lines.append(
            f"  ring window    : {win['seconds']:.2f}s, "
            f"burn max {win['burn_max']:.3g}, SLO "
            + ("PASS" if win["slo_ok"] else "FAIL"))
    return "\n".join(lines)
