"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands cover the release workflow end to end:

* ``stats``       — dataset/KG statistics (Tables II-VI flavor)
* ``baseline``    — train + evaluate a standalone SR model
* ``reks``        — train + evaluate a REKS-wrapped model
* ``explain``     — print explanation cards for test sessions
* ``compare``     — baseline vs REKS side by side
* ``ingest``      — demo the streaming ingest -> fine-tune -> publish loop
* ``metrics``     — emit the merged fleet metrics snapshot
* ``top``         — live terminal fleet view (poll /metrics.json)

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

DATASETS = ("beauty", "cellphones", "baby", "movielens")
MODELS = ("gru4rec", "narm", "srgnn", "gcsan", "bert4rec")


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
                        transe_epochs=2, seed=args.seed)
    trainer = REKSTrainer(dataset, built, model_name=args.model,
                          config=config)
    if args.fit:
        trainer.fit(verbose=True)

    registry = CheckpointRegistry(args.checkpoints)
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
                # Cold pass (misses + walks), then a warm replay (hits).
                server.recommend_many(sessions, k=args.top_k)
                server.recommend_many(sessions, k=args.top_k)
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

    # Demo fleet: a small process-mode server, one traffic pass per
    # frame so every frame diffs against real activity.
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
            server.recommend_many(sessions, k=args.top_k)
            curr = server.fleet_snapshot().to_dict()
            # Same extra section /metrics.json serves: per-version
            # entry counts for the explanation cache.
            curr["serving"] = server.serving_state()
            show(curr, prev, frame)
            prev = curr
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
    p_met.add_argument("--top-k", type=int, default=10)
    p_met.add_argument("--requests", type=int, default=64,
                       help="distinct sessions driven per pass")
    p_met.add_argument("--format", choices=("prom", "json", "both"),
                       default="prom",
                       help="what to print on stdout (the JSON "
                            "snapshot is always written to --out)")
    p_met.add_argument("--out", required=True,
                       help="where to write the JSON snapshot")
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
    p_top.add_argument("--top-k", type=int, default=10)
    p_top.set_defaults(func=cmd_top)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
