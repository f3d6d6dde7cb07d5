"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands cover the release workflow end to end:

* ``stats``       — dataset/KG statistics (Tables II-VI flavor)
* ``baseline``    — train + evaluate a standalone SR model
* ``reks``        — train + evaluate a REKS-wrapped model
* ``explain``     — print explanation cards for test sessions
* ``compare``     — baseline vs REKS side by side
* ``serve-bench`` — load-test the request-coalescing serving layer
* ``ingest``      — demo the streaming ingest -> fine-tune -> publish loop
* ``online-bench``— measure the continual-learning lifecycle (hot swap)
* ``runtime-bench``— thread-vs-process serving + fine-tune isolation
* ``metrics``     — emit the merged fleet metrics snapshot
* ``top``         — live terminal fleet view (poll /metrics.json)
* ``trace-soak``  — soak the tracer -> streaming-sink handoff

Example::

    python -m repro.cli reks --dataset beauty --model narm \
        --scale tiny --epochs 4 --dim 32
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from repro import (
    Explainer,
    REKSConfig,
    REKSTrainer,
    StandaloneConfig,
    StandaloneTrainer,
    build_kg,
    create_encoder,
)
from repro.data import AmazonLikeGenerator, MovieLensLikeGenerator
from repro.data.stats import (
    dataset_statistics,
    entity_statistics,
    format_table,
    relation_statistics,
)
from repro.kg import TransE, TransEConfig
from repro.utils import default_bench_path

DATASETS = ("beauty", "cellphones", "baby", "movielens")
MODELS = ("gru4rec", "narm", "srgnn", "gcsan", "bert4rec")


def _emit_metrics_artifact(snapshot_dict: dict, out_path, name: str):
    """Write a fleet metrics snapshot next to a BENCH_*.json artifact."""
    import json
    from pathlib import Path

    path = Path(out_path).parent / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot_dict, indent=2, sort_keys=True))
    return path


def _print_slo(telemetry: dict) -> bool:
    """Print each SLO verdict; returns True when every gate passed."""
    for result in telemetry.get("slo", ()):
        bound = []
        if result.get("min") is not None:
            bound.append(f">= {result['min']:g}")
        if result.get("max") is not None:
            bound.append(f"<= {result['max']:g}")
        verdict = "ok" if result["ok"] else "VIOLATED"
        print(f"  SLO {result['name']}: {result['stat']}"
              f"({result['metric']}) = {result['value']:.6g} "
              f"(want {' and '.join(bound) or 'anything'}) [{verdict}]")
    return bool(telemetry.get("slo_ok", True))


def make_dataset(name: str, scale: str, seed: int):
    """Generate the requested synthetic dataset."""
    if name == "movielens":
        return MovieLensLikeGenerator(scale=scale, seed=seed).generate()
    return AmazonLikeGenerator(name, scale=scale, seed=seed).generate()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASETS, default="beauty")
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "medium", "paper"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--lr", type=float, default=1e-3)


def cmd_stats(args) -> int:
    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset)
    print(format_table(
        sorted(relation_statistics(built.kg).items()),
        headers=["relation", "#edges"]))
    print()
    print(format_table(
        sorted(entity_statistics(built.kg).items()),
        headers=["entity type", "#entities"]))
    print()
    stats = dataset_statistics(dataset, built.kg)
    print(format_table(sorted(stats.items()), headers=["field", "value"]))
    return 0


def cmd_baseline(args) -> int:
    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset)
    transe = TransE(built.kg.num_entities, built.kg.num_relations,
                    TransEConfig(dim=args.dim, epochs=8, seed=13))
    transe.fit(built.kg)
    encoder = create_encoder(
        args.model, n_items=dataset.n_items, dim=args.dim,
        item_init=transe.item_embeddings(built.item_entity),
        rng=np.random.default_rng(args.seed))
    trainer = StandaloneTrainer(
        encoder, dataset.split.train, dataset.split.validation,
        StandaloneConfig(epochs=args.epochs, lr=args.lr,
                         batch_size=args.batch_size, seed=args.seed))
    trainer.fit(verbose=True)
    _print_metrics(f"{args.model} (standalone)",
                   trainer.evaluate(dataset.split.test))
    return 0


def _reks_trainer(args) -> REKSTrainer:
    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, beta=args.beta,
                        sample_sizes=(100, args.final_beam),
                        frontier_buckets=args.frontier_buckets,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    trainer.fit(verbose=True)
    return trainer


def cmd_reks(args) -> int:
    trainer = _reks_trainer(args)
    _print_metrics(f"REKS_{args.model}",
                   trainer.evaluate(trainer.dataset.split.test))
    return 0


def cmd_explain(args) -> int:
    trainer = _reks_trainer(args)
    explainer = Explainer(trainer)
    cases = explainer.explain_sessions(
        trainer.dataset.split.test[:args.cases], k=args.top_k)
    for case in cases:
        print()
        print(explainer.render_case(case))
    return 0


def cmd_compare(args) -> int:
    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset)
    transe = TransE(built.kg.num_entities, built.kg.num_relations,
                    TransEConfig(dim=args.dim, epochs=8, seed=13))
    transe.fit(built.kg)

    encoder = create_encoder(
        args.model, n_items=dataset.n_items, dim=args.dim,
        item_init=transe.item_embeddings(built.item_entity),
        rng=np.random.default_rng(args.seed))
    baseline = StandaloneTrainer(
        encoder, dataset.split.train, dataset.split.validation,
        StandaloneConfig(epochs=args.epochs, lr=2e-3,
                         batch_size=args.batch_size, seed=args.seed))
    baseline.fit()
    base_metrics = baseline.evaluate(dataset.split.test)

    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, beta=args.beta,
                        sample_sizes=(100, args.final_beam),
                        seed=args.seed)
    reks = REKSTrainer(dataset, built, model_name=args.model,
                       config=config, transe=transe)
    reks.fit()
    reks_metrics = reks.evaluate(dataset.split.test)

    rows = [[metric, f"{base_metrics[metric]:.2f}",
             f"{reks_metrics[metric]:.2f}"]
            for metric in ("HR@5", "HR@10", "HR@20",
                           "NDCG@5", "NDCG@10", "NDCG@20")]
    print(format_table(rows, headers=["metric", args.model,
                                      f"REKS_{args.model}"]))
    return 0


def cmd_serve_bench(args) -> int:
    """Closed-loop load generation over a dataset's test sessions.

    Builds an (untrained unless ``--epochs > 0``-and-``--fit``) REKS
    stack, verifies the coalescing determinism contract, then measures
    naive vs coalesced vs cache-warm throughput and emits
    ``BENCH_serving.json``.
    """
    from repro.serving.bench import (
        check_determinism,
        emit,
        format_report,
        run_serving_bench,
    )

    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, sample_sizes=(100, args.final_beam),
                        transe_epochs=2 if args.quick else 10,
                        serve_max_batch=args.max_batch,
                        serve_max_wait_ms=args.max_wait_ms,
                        serve_workers=args.workers,
                        serve_worker_mode=args.worker_mode,
                        serve_transport=args.transport,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    if args.fit:
        trainer.fit(verbose=True)

    sessions = [s for s in dataset.split.test if len(s.items) >= 2]
    if args.quick:
        sessions = sessions[:256]
    if not check_determinism(trainer, sessions[:64], k=args.top_k):
        print("FAIL: coalesced results diverge from recommend_sessions")
        return 1
    print("determinism: coalesced == recommend_sessions")
    payload = run_serving_bench(
        trainer, sessions, concurrency=args.concurrency, k=args.top_k,
        min_requests=(384 if args.quick else 1024),
        naive_sessions=(64 if args.quick else None),
        trace_sample=args.trace_sample,
        slo={"slo_p99_ms": args.slo_p99_ms,
             "slo_cache_hit_floor": args.slo_cache_hit_floor,
             "slo_ring_fallback_ceiling": args.slo_ring_fallback_ceiling},
        hot_replay=({"requests": 256 if args.quick else 768,
                     "slo_p99_ms": args.slo_p99_ms,
                     "slo_memo_hit_floor": args.slo_memo_hit_floor}
                    if args.hot_replay else None))
    path = emit(payload, args.out)
    print(format_report(payload))
    print(f"-> {path}")
    metrics_path = _emit_metrics_artifact(
        payload["telemetry"]["snapshot"], args.out, "METRICS_serving.json")
    print(f"-> {metrics_path}")
    slo_ok = _print_slo(payload["telemetry"])
    if payload["speedup_vs_naive"] < args.speedup_floor:
        print(f"FAIL: speedup {payload['speedup_vs_naive']:.2f}x < "
              f"floor {args.speedup_floor:.1f}x")
        return 1
    if not payload["telemetry"]["prometheus_scraped"]:
        print("FAIL: /metrics endpoint scrape did not return "
              "Prometheus text")
        return 1
    if not slo_ok:
        print("FAIL: serving SLO violated (see gates above)")
        return 1
    replay = payload.get("hot_replay")
    if replay is not None:
        if not replay["bit_identical"]:
            print("FAIL: hot-replay results diverge between shared-"
                  "computation on and off")
            return 1
        if not replay["slo_ok"]:
            failed = [r["name"] for r in replay["slo"] if not r["ok"]]
            print(f"FAIL: hot-replay SLO violated: {failed}")
            return 1
    win = payload["telemetry"].get("window") or {}
    if win.get("available"):
        print(f"  windowed burn max {win['burn_max']:.3g} over "
              f"{win['seconds']:.2f}s "
              f"[{'ok' if win['slo_ok'] else 'VIOLATED'}]")
        if args.slo_burn_ceiling and \
                win["burn_max"] > args.slo_burn_ceiling:
            print(f"FAIL: windowed SLO burn rate {win['burn_max']:.3g} "
                  f"> ceiling {args.slo_burn_ceiling:g}")
            return 1
    elif args.slo_burn_ceiling:
        print("FAIL: --slo-burn-ceiling set but no rolling window was "
              "recorded (metrics plane off?)")
        return 1
    return 0


def cmd_ingest(args) -> int:
    """Replay held-out sessions as a live stream through the
    continual-learning loop: ingest in chunks, fine-tune + publish a
    checkpoint per round, and report what each round did.
    """
    from repro.online import CheckpointRegistry, DeltaIngestor, OnlineUpdater

    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, sample_sizes=(100, args.final_beam),
                        transe_epochs=2,
                        online_max_steps=args.max_steps,
                        online_compact_every=args.compact_every,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    if args.fit:
        trainer.fit(verbose=True)

    registry = CheckpointRegistry(args.checkpoints,
                                  keep_last=config.online_keep_checkpoints)
    ingestor = DeltaIngestor(built, trainer.env,
                             compact_every=args.compact_every)
    updater = OnlineUpdater(trainer, ingestor, registry,
                            min_sessions=1, max_steps=args.max_steps)
    base = updater.run_once(force=True)
    print(f"published warm-start checkpoint v{base} "
          f"(kg fingerprint {trainer.env.fingerprint()})")

    stream = [s for s in dataset.split.validation if len(s.items) >= 2]
    rows = []
    for round_id in range(args.rounds):
        chunk = stream[round_id * args.chunk:(round_id + 1) * args.chunk]
        if not chunk:
            break
        staged = ingestor.ingest_sessions(chunk)
        version = updater.run_once(force=True)
        meta = registry.manifest(version)["meta"]
        rows.append([round_id + 1, len(chunk), staged,
                     trainer.env.compactions, f"v{version}",
                     f"{meta['loss']:.4f}" if meta["loss"] else "-"])
    print(format_table(rows, headers=["round", "sessions", "new edges",
                                      "compactions", "published",
                                      "loss"]))
    print(f"registry: {registry!r}")
    metrics = trainer.evaluate(dataset.split.test, ks=(10,))
    print(f"post-ingest test HR@10: {metrics['HR@10']:.2f}")
    return 0


def cmd_online_bench(args) -> int:
    """Measure the full continual-learning lifecycle and emit
    ``BENCH_online.json`` (ingest throughput, swap latency, post-swap
    p95 vs cold restart, per-version cache split).
    """
    from repro.online.bench import emit, format_report, run_online_bench

    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, sample_sizes=(100, args.final_beam),
                        transe_epochs=2 if args.quick else 10,
                        online_max_steps=4,
                        online_updater_mode=args.updater_mode,
                        serve_workers=args.workers,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    if args.fit:
        trainer.fit(verbose=True)

    serving = [s for s in dataset.split.test if len(s.items) >= 2]
    delta = [s for s in dataset.split.validation if len(s.items) >= 2]
    if args.quick:
        serving, delta = serving[:128], delta[:64]
    import tempfile

    with tempfile.TemporaryDirectory(prefix="reks-online-") as tmp:
        payload = run_online_bench(
            trainer, serving, delta,
            checkpoint_dir=(args.checkpoints or tmp),
            concurrency=args.concurrency, k=args.top_k,
            min_requests=(256 if args.quick else 768),
            slo={"swap_max_ms": args.slo_swap_max_ms})
    path = emit(payload, args.out)
    print(format_report(payload))
    print(f"-> {path}")
    metrics_path = _emit_metrics_artifact(
        payload["telemetry"]["snapshot"], args.out, "METRICS_online.json")
    print(f"-> {metrics_path}")
    slo_ok = _print_slo(payload["telemetry"])
    if not slo_ok:
        print("FAIL: online SLO violated (see gates above)")
        return 1
    if payload["swap"]["dropped"]:
        print(f"FAIL: {payload['swap']['dropped']} requests dropped "
              f"during hot swap")
        return 1
    if not payload["determinism_bit_identical"]:
        print("FAIL: post-swap rankings diverge from a fresh server")
        return 1
    if payload["swap"]["cache_flushed"]:
        print("FAIL: hot swap flushed the explanation cache")
        return 1
    return 0


def cmd_runtime_bench(args) -> int:
    """Measure the multiprocess execution plane and emit
    ``BENCH_runtime.json``: thread-vs-process serving throughput with
    a bit-identity gate, and serving p95 during a concurrent
    fine-tune round (inline thread vs isolated subprocess).
    """
    import tempfile

    from repro.runtime.bench import (
        emit,
        format_report,
        run_runtime_bench,
    )

    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, sample_sizes=(100, args.final_beam),
                        transe_epochs=2 if args.quick else 10,
                        # Long enough rounds that the concurrent-round
                        # p95 window measures contention, not scheduler
                        # noise around a sub-second blip.
                        online_max_steps=16,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    if args.fit:
        trainer.fit(verbose=True)

    serving = [s for s in dataset.split.test if len(s.items) >= 2]
    delta = [s for s in dataset.split.validation if len(s.items) >= 2]
    if args.quick:
        serving, delta = serving[:128], delta[:64]
    # Thread/process equivalence is checked inside run_runtime_bench
    # (payload["serve"]["bit_identical"]) and gated below.
    with tempfile.TemporaryDirectory(prefix="reks-runtime-") as tmp:
        payload = run_runtime_bench(
            trainer, serving, delta,
            checkpoint_dir=(args.checkpoints or tmp),
            workers=args.workers, concurrency=args.concurrency,
            k=args.top_k,
            min_requests=(256 if args.quick else 768))
    path = emit(payload, args.out)
    print(format_report(payload))
    print(f"-> {path}")
    if payload["telemetry"]["snapshot"] is not None:
        metrics_path = _emit_metrics_artifact(
            payload["telemetry"]["snapshot"], args.out,
            "METRICS_runtime.json")
        print(f"-> {metrics_path}")
    if not payload["serve"]["bit_identical"]:
        print("FAIL: thread/process rankings diverged during the run")
        return 1
    if not payload["serve"]["transport_bit_identical"]:
        print("FAIL: pipe/ring rankings diverged during the run")
        return 1
    if not payload["serve"]["transport_bit_identical_traced"]:
        print("FAIL: pipe/ring rankings diverged with tracing at "
              "sample=1.0")
        return 1
    if not payload["gather"]["identical"]:
        print("FAIL: shard-major grouped gather diverged from the "
              "per-shard reference")
        return 1
    overhead = payload["telemetry"]["ring_per_batch_vs_thread"]
    if args.telemetry_overhead_ceiling and \
            overhead > args.telemetry_overhead_ceiling:
        print(f"FAIL: ring per-batch with telemetry {overhead:.2f}x "
              f"thread mode > ceiling "
              f"{args.telemetry_overhead_ceiling:.2f}x")
        return 1
    return 0


def cmd_metrics(args) -> int:
    """Stand up a miniature serving fleet — >= 2 plane-attached worker
    processes plus a subprocess fine-tune child — drive traffic and an
    online round through it, and emit the merged fleet metrics snapshot
    in Prometheus text and JSON (per-shard gather counters, per-hop
    walk timings, online round phases, transport counters)."""
    import json
    import tempfile
    from pathlib import Path

    from repro.online import CheckpointRegistry, DeltaIngestor, OnlineUpdater
    from repro.serving.bench import _closed_loop
    from repro.telemetry.exporters import prometheus_text
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.trace import spans_to_chrome_trace, spans_to_jsonl

    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, sample_sizes=(100, args.final_beam),
                        transe_epochs=2,
                        # Multi-shard store so the per-shard gather
                        # counters actually split across shards.
                        graph_shards=args.graph_shards,
                        online_max_steps=2,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    sessions = [s for s in dataset.split.test
                if len(s.items) >= 2][:args.requests]
    delta = [s for s in dataset.split.validation if len(s.items) >= 2][:64]
    if not sessions:
        print("FAIL: dataset has no usable serving sessions")
        return 1

    fleet = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="reks-metrics-") as tmp:
        registry = CheckpointRegistry(tmp, keep_last=2)
        ingestor = DeltaIngestor(built, trainer.env, compact_every=256)
        updater = OnlineUpdater(trainer, ingestor, registry,
                                min_sessions=1, max_steps=2,
                                mode="subprocess",
                                metrics_registry=fleet)
        try:
            # Fork the fine-tune child before the server spawns its
            # worker processes and dispatcher threads (clean fork).
            updater.run_once(force=True)
            with trainer.serve(worker_mode="process",
                               workers=args.workers,
                               trace_sample=args.trace_sample,
                               metrics_registry=fleet) as server:
                _closed_loop(server, sessions, args.concurrency,
                             args.top_k)  # cold pass: misses + walks
                _closed_loop(server, sessions, args.concurrency,
                             args.top_k)  # warm replay: cache hits
                if delta:
                    ingestor.ingest_sessions(delta)
                updater.run_once(force=True)
                snapshot = server.fleet_snapshot()
                spans = server.tracer.drain()
        finally:
            updater.stop()
            fleet.close()

    roles = sorted(snapshot.roles)
    workers_seen = [r for r in roles if r.startswith("worker")]
    print(f"fleet roles: {', '.join(roles)}")
    if len(workers_seen) < 2 or "updater" not in roles:
        print(f"FAIL: expected >= 2 worker blocks + an updater block, "
              f"got {roles}")
        return 1

    prom = prometheus_text(snapshot)
    if args.format in ("prom", "both"):
        print(prom, end="")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot.to_dict(), indent=2,
                              sort_keys=True))
    print(f"-> {out}")
    if args.prom_out:
        Path(args.prom_out).write_text(prom)
        print(f"-> {args.prom_out}")
    if args.trace_out and spans:
        Path(args.trace_out).write_text(spans_to_jsonl(spans))
        chrome = Path(args.trace_out).with_suffix(".chrome.json")
        chrome.write_text(json.dumps(spans_to_chrome_trace(spans)))
        print(f"-> {args.trace_out} ({len(spans)} spans), {chrome}")

    # The snapshot must carry the labelled families the exporters
    # split back out: per-shard gather counters and per-hop walk hists.
    shard_counters = [name for name in snapshot.counters
                      if name.startswith("gather_rows_total{shard=")]
    hop_hists = [name for name in snapshot.hists
                 if name.startswith("walk_hop_seconds{hop=")]
    print(f"per-shard gather counters: {len(shard_counters)}, "
          f"per-hop walk timings: {len(hop_hists)}")
    if not shard_counters or not hop_hists:
        print("FAIL: snapshot is missing per-shard gather counters or "
              "per-hop walk timings")
        return 1
    return 0


def cmd_top(args) -> int:
    """Live fleet view: render consecutive ``/metrics.json`` snapshots
    as terminal frames — per-role QPS, windowed request p50/p99, cache
    hit rate, ring/pipe transport mix, trace pressure, and a per-shard
    gather heat bar.  With ``--url`` it polls a running server's
    metrics endpoint; without one it stands up a demo fleet and drives
    a traffic pass between frames."""
    import json
    import time
    from repro.telemetry.top import render_top

    def show(curr: dict, prev, frame: int) -> None:
        if frame and not args.no_clear:
            print("\x1b[2J\x1b[H", end="")
        print(render_top(curr, prev), end="", flush=True)

    if args.url:
        import urllib.request

        url = args.url
        if "metrics.json" not in url:
            url = url.rstrip("/") + "/metrics.json"
        prev = None
        frame = 0
        try:
            while True:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    curr = json.loads(resp.read().decode("utf-8"))
                show(curr, prev, frame)
                prev = curr
                frame += 1
                if args.frames and frame >= args.frames:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return 0

    # Demo fleet: a small process-mode server, one closed-loop traffic
    # pass per frame so every frame diffs against real activity.
    from repro.serving.bench import _closed_loop

    dataset = make_dataset(args.dataset, args.scale, args.seed)
    built = build_kg(dataset, include_users=not args.no_users)
    config = REKSConfig(dim=args.dim, state_dim=args.dim,
                        epochs=args.epochs, batch_size=args.batch_size,
                        lr=args.lr, sample_sizes=(100, 4),
                        transe_epochs=2, graph_shards=4,
                        seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    sessions = [s for s in dataset.split.test
                if len(s.items) >= 2][:64]
    if not sessions:
        print("FAIL: dataset has no usable serving sessions")
        return 1
    frames = args.frames or 3
    with trainer.serve(worker_mode="process", workers=2,
                       trace_sample=1.0) as server:
        prev = None
        for frame in range(frames):
            _closed_loop(server, sessions, args.concurrency, args.top_k)
            curr = server.fleet_snapshot().to_dict()
            # Same extra section /metrics.json serves: per-version
            # entry counts for the explanation cache and walk memo.
            curr["serving"] = server.serving_state()
            show(curr, prev, frame)
            prev = curr
    return 0


def cmd_trace_soak(args) -> int:
    """Soak the tracer -> streaming-sink handoff: push ``--spans``
    spans through a :class:`Tracer` with a :class:`TraceSink` attached
    (rotation forced by a small ``--rotate-bytes``), then audit the
    ledger: every span must be accounted for as written or as a
    *counted* drop, drops must be zero at the default queue depth, and
    rotation must actually have happened."""
    import json
    from pathlib import Path

    from repro.telemetry.block import MetricBlock, fleet_schema
    from repro.telemetry.sink import TraceSink
    from repro.telemetry.trace import Tracer

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    live = out_dir / "trace.jsonl"
    for stale in out_dir.glob("trace.jsonl*"):
        stale.unlink()

    block = MetricBlock.create(fleet_schema(), "soak")
    sink = TraceSink(live, max_bytes=args.rotate_bytes,
                     keep=args.keep, metrics=block)
    tracer = Tracer(sample=1.0, capacity=1024, seed=args.seed,
                    sink=sink, metrics=block)
    for i in range(args.spans):
        tracer.record(trace_id=(i % (1 << 30)) + 1, name="soak",
                      role="soak", t0=float(i) * 1e-6, dur=1e-6)
    sink.flush()
    sink.close()

    retained = 0
    for path in sink.files():
        if Path(path).exists():
            retained += sum(1 for line in
                            Path(path).read_text().splitlines() if line)
    dropped = sink.dropped
    counted = block.snapshot().counters.get("trace_dropped_total", 0)
    block.unlink()
    summary = {
        "spans": args.spans,
        "written": sink.written,
        "retained": retained,
        "rotations": sink.rotations,
        "dropped": dropped,
        "trace_dropped_total": int(counted),
        "files": sink.files(),
    }
    (out_dir / "soak_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True))
    print(f"trace soak: {args.spans} spans -> {sink.written} written, "
          f"{retained} retained across {len(sink.files())} files, "
          f"{sink.rotations} rotations, {dropped} dropped")
    print(f"-> {out_dir}/soak_summary.json")
    if sink.written + dropped != args.spans:
        print(f"FAIL: span ledger does not balance "
              f"({sink.written} written + {dropped} dropped != "
              f"{args.spans})")
        return 1
    if dropped != counted:
        print(f"FAIL: {dropped} drops but trace_dropped_total={counted} "
              f"(silent loss)")
        return 1
    if dropped:
        print(f"FAIL: {dropped} spans dropped during the soak")
        return 1
    if args.spans and not sink.rotations:
        print("FAIL: soak never rotated the live file "
              "(--rotate-bytes too large?)")
        return 1
    return 0


def _print_metrics(label: str, metrics: dict) -> None:
    rows = [[k, f"{v:.2f}"] for k, v in metrics.items()
            if k.startswith(("HR", "NDCG"))]
    print(format_table(rows, headers=[label, "%"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset/KG statistics")
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_base = sub.add_parser("baseline", help="train a standalone model")
    _add_common(p_base)
    p_base.add_argument("--model", choices=MODELS, default="narm")
    p_base.set_defaults(func=cmd_baseline)

    for name, func, extra in (("reks", cmd_reks, False),
                              ("explain", cmd_explain, True)):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("--model", choices=MODELS, default="narm")
        p.add_argument("--beta", type=float, default=0.2)
        p.add_argument("--final-beam", type=int, default=4)
        p.add_argument("--frontier-buckets", type=int, default=1,
                       help="degree-quantile buckets per hop frontier "
                            "of the training walk (1 = one padded "
                            "rectangle per hop; inference pads nothing)")
        p.add_argument("--no-users", action="store_true",
                       help="build the KG without user entities")
        if extra:
            p.add_argument("--cases", type=int, default=3)
            p.add_argument("--top-k", type=int, default=3)
        p.set_defaults(func=func)

    p_cmp = sub.add_parser("compare", help="baseline vs REKS")
    _add_common(p_cmp)
    p_cmp.add_argument("--model", choices=MODELS, default="narm")
    p_cmp.add_argument("--beta", type=float, default=0.2)
    p_cmp.add_argument("--final-beam", type=int, default=4)
    p_cmp.set_defaults(func=cmd_compare)

    p_srv = sub.add_parser(
        "serve-bench",
        help="load-test the request-coalescing serving layer")
    _add_common(p_srv)
    p_srv.add_argument("--model", choices=MODELS, default="narm")
    p_srv.add_argument("--final-beam", type=int, default=4)
    p_srv.add_argument("--no-users", action="store_true")
    p_srv.add_argument("--fit", action="store_true",
                       help="train before benchmarking (serving "
                            "throughput does not depend on it)")
    p_srv.add_argument("--quick", action="store_true",
                       help="bounded request count + short TransE "
                            "pre-training")
    p_srv.add_argument("--concurrency", type=int, default=32,
                       help="closed-loop client threads")
    p_srv.add_argument("--top-k", type=int, default=10)
    p_srv.add_argument("--max-batch", type=int, default=32)
    p_srv.add_argument("--max-wait-ms", type=float, default=2.0)
    p_srv.add_argument("--workers", type=int, default=2,
                       help="worker processes with --worker-mode "
                            "process; thread mode runs one executor "
                            "whatever this says")
    p_srv.add_argument("--worker-mode", choices=("thread", "process"),
                       default="thread",
                       help="execute micro-batches on one executor "
                            "thread or on plane-attached worker "
                            "processes")
    p_srv.add_argument("--transport", choices=("pipe", "ring"),
                       default="ring",
                       help="process-mode exec dataplane: shared-memory "
                            "rings (default) or the pickle pipe")
    p_srv.add_argument("--speedup-floor", type=float, default=2.0,
                       help="fail below this coalesced/naive ratio")
    p_srv.add_argument("--trace-sample", type=float, default=0.0,
                       help="request-trace sampling rate for the "
                            "telemetry phase (0..1)")
    p_srv.add_argument("--slo-p99-ms", type=float, default=1000.0,
                       help="fail when request p99 exceeds this")
    p_srv.add_argument("--slo-cache-hit-floor", type=float, default=0.25,
                       help="fail when the cache hit rate drops below "
                            "this")
    p_srv.add_argument("--slo-ring-fallback-ceiling", type=float,
                       default=0.5,
                       help="fail when the ring->pipe fallback rate "
                            "exceeds this")
    p_srv.add_argument("--hot-replay", action="store_true",
                       help="run the Zipf hot-session replay stage "
                            "gating the shared-computation layer "
                            "(in-flush dedup + walk memo) on bit-"
                            "identity and the memo-hit floor")
    p_srv.add_argument("--slo-memo-hit-floor", type=float, default=0.25,
                       help="hot-replay walk-memo hit-rate floor "
                            "(hits / (hits + misses))")
    p_srv.add_argument("--slo-burn-ceiling", type=float, default=0.0,
                       help="fail when the rolling-window SLO burn "
                            "rate exceeds this multiple of budget "
                            "(0 disables the gate)")
    p_srv.add_argument("--out", default=default_bench_path(
        "BENCH_serving.json"))
    p_srv.set_defaults(func=cmd_serve_bench)

    p_ing = sub.add_parser(
        "ingest",
        help="stream sessions through the continual-learning loop")
    _add_common(p_ing)
    p_ing.add_argument("--model", choices=MODELS, default="narm")
    p_ing.add_argument("--final-beam", type=int, default=4)
    p_ing.add_argument("--no-users", action="store_true")
    p_ing.add_argument("--fit", action="store_true",
                       help="train offline before streaming")
    p_ing.add_argument("--rounds", type=int, default=3,
                       help="ingest -> fine-tune -> publish rounds")
    p_ing.add_argument("--chunk", type=int, default=32,
                       help="sessions ingested per round")
    p_ing.add_argument("--max-steps", type=int, default=4,
                       help="fine-tune batches per round")
    p_ing.add_argument("--compact-every", type=int, default=256,
                       help="staged edges before CSR compaction")
    p_ing.add_argument("--checkpoints", default="checkpoints",
                       help="registry directory")
    p_ing.set_defaults(func=cmd_ingest)

    p_onl = sub.add_parser(
        "online-bench",
        help="measure the continual-learning lifecycle (hot swap)")
    _add_common(p_onl)
    p_onl.add_argument("--model", choices=MODELS, default="narm")
    p_onl.add_argument("--final-beam", type=int, default=4)
    p_onl.add_argument("--no-users", action="store_true")
    p_onl.add_argument("--fit", action="store_true",
                       help="train before benchmarking")
    p_onl.add_argument("--quick", action="store_true",
                       help="bounded session sets + short TransE "
                            "pre-training")
    p_onl.add_argument("--concurrency", type=int, default=16,
                       help="closed-loop client threads")
    p_onl.add_argument("--top-k", type=int, default=10)
    p_onl.add_argument("--workers", type=int, default=2,
                       help="worker processes (process worker mode "
                            "only)")
    p_onl.add_argument("--checkpoints", default=None,
                       help="registry directory (default: temp dir)")
    p_onl.add_argument("--updater-mode", choices=("thread", "subprocess"),
                       default="thread",
                       help="where the fine-tune replica runs")
    p_onl.add_argument("--slo-swap-max-ms", type=float, default=30_000.0,
                       help="fail when a hot swap takes longer than "
                            "this")
    p_onl.add_argument("--out", default=default_bench_path(
        "BENCH_online.json"))
    p_onl.set_defaults(func=cmd_online_bench)

    p_run = sub.add_parser(
        "runtime-bench",
        help="thread-vs-process serving + fine-tune isolation")
    _add_common(p_run)
    p_run.add_argument("--model", choices=MODELS, default="narm")
    p_run.add_argument("--final-beam", type=int, default=4)
    p_run.add_argument("--no-users", action="store_true")
    p_run.add_argument("--fit", action="store_true",
                       help="train before benchmarking")
    p_run.add_argument("--quick", action="store_true",
                       help="bounded session sets + short TransE "
                            "pre-training")
    p_run.add_argument("--workers", type=int, default=4,
                       help="worker processes (the thread-mode "
                            "side runs one executor)")
    p_run.add_argument("--concurrency", type=int, default=8,
                       help="closed-loop client threads")
    p_run.add_argument("--top-k", type=int, default=10)
    p_run.add_argument("--checkpoints", default=None,
                       help="registry directory (default: temp dir)")
    p_run.add_argument("--telemetry-overhead-ceiling", type=float,
                       default=0.0,
                       help="fail when ring per-batch time with the "
                            "telemetry plane exceeds this multiple of "
                            "thread mode (0 disables the gate)")
    p_run.add_argument("--out", default=default_bench_path(
        "BENCH_runtime.json"))
    p_run.set_defaults(func=cmd_runtime_bench)

    p_met = sub.add_parser(
        "metrics",
        help="emit the merged fleet metrics snapshot (Prometheus + JSON)")
    _add_common(p_met)
    p_met.add_argument("--model", choices=MODELS, default="narm")
    p_met.add_argument("--final-beam", type=int, default=4)
    p_met.add_argument("--no-users", action="store_true")
    p_met.add_argument("--workers", type=int, default=2,
                       help="plane-attached worker processes (>= 2 so "
                            "the snapshot demonstrably merges blocks)")
    p_met.add_argument("--graph-shards", type=int, default=4,
                       help="graph-store shards (per-shard gather "
                            "counters split across these)")
    p_met.add_argument("--trace-sample", type=float, default=1.0,
                       help="request-trace sampling rate (0..1)")
    p_met.add_argument("--concurrency", type=int, default=8)
    p_met.add_argument("--top-k", type=int, default=10)
    p_met.add_argument("--requests", type=int, default=64,
                       help="distinct sessions driven per pass")
    p_met.add_argument("--format", choices=("prom", "json", "both"),
                       default="prom",
                       help="what to print on stdout (the JSON "
                            "snapshot is always written to --out)")
    p_met.add_argument("--out", default=default_bench_path(
        "METRICS_fleet.json"))
    p_met.add_argument("--prom-out", default=None,
                       help="also write the Prometheus text here")
    p_met.add_argument("--trace-out", default=None,
                       help="write drained spans as JSONL here (plus a "
                            "sibling Chrome trace_event file)")
    p_met.set_defaults(func=cmd_metrics)

    p_top = sub.add_parser(
        "top",
        help="live terminal fleet view (polls /metrics.json)")
    _add_common(p_top)
    p_top.add_argument("--model", choices=MODELS, default="narm")
    p_top.add_argument("--no-users", action="store_true")
    p_top.add_argument("--url", default=None,
                       help="metrics endpoint of a running server "
                            "(e.g. http://127.0.0.1:9201); omitted = "
                            "stand up a demo fleet")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between frames in --url mode")
    p_top.add_argument("--frames", type=int, default=0,
                       help="stop after this many frames (0 = until "
                            "Ctrl-C in --url mode, 3 in demo mode)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append frames instead of clearing the "
                            "screen (headless/CI logs)")
    p_top.add_argument("--concurrency", type=int, default=8)
    p_top.add_argument("--top-k", type=int, default=10)
    p_top.set_defaults(func=cmd_top)

    p_soak = sub.add_parser(
        "trace-soak",
        help="soak the tracer -> streaming trace sink handoff")
    p_soak.add_argument("--spans", type=int, default=100_000,
                        help="spans pushed through the sink")
    p_soak.add_argument("--rotate-bytes", type=int, default=1 << 20,
                        help="live-file size that forces a rotation")
    p_soak.add_argument("--keep", type=int, default=64,
                        help="rotated generations retained (large "
                             "enough that the soak keeps every span)")
    p_soak.add_argument("--seed", type=int, default=7)
    p_soak.add_argument("--out", default="traces",
                        help="directory for trace.jsonl* and the soak "
                             "summary")
    p_soak.set_defaults(func=cmd_trace_soak)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
