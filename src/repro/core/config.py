"""REKS hyper-parameters and ablation switches (Table VII + §IV-B-2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


REWARD_MODES = ("full", "no_rank", "item_only", "r1")
LOSS_MODES = ("joint", "reward_only", "ce_only")
START_MODES = ("last_item", "user")


@dataclass
class REKSConfig:
    """All knobs of the framework.

    Defaults follow the paper: path length 2 with per-step sampling
    sizes (100, 1), discount 0.99, reward ``R_item + 2·R_rank + R_path``
    and loss ``β·Lr + Lce``.  The ablation benchmarks flip
    ``reward_mode`` / ``loss_mode`` / ``start_from`` / ``path_length``.
    """

    # Dimensions.  The paper sets d0 = d1 (= 400 Amazon, 64 MovieLens);
    # R_path = σ(Pᵀ Se) requires it, so a single `dim` controls both,
    # and `state_dim` is d2.
    dim: int = 64
    state_dim: int = 64

    # Path search (Table VII text: length 2, sizes {100, 1}).
    path_length: int = 2
    sample_sizes: Tuple[int, ...] = (100, 1)
    action_cap: int = 250          # prune huge action spaces (PGPR-style)
    start_from: str = "last_item"  # or "user" (Fig. 4 ablation)
    # Degree-bucketed frontier padding: split each hop's frontier into
    # this many degree-quantile buckets so a single hub entity doesn't
    # inflate the pad width for the whole batch.  1 = one rectangle
    # per hop (the paper's layout and the default).  Applies to the
    # tape walk (training, grad mode) only: the inference walk expands
    # a flat frontier with no padding to tame (see REKSAgent.walk).
    frontier_buckets: int = 1
    # Graph-store shards: the capped adjacency is partitioned into this
    # many contiguous, edge-mass-balanced entity-range shards so online
    # compaction rebuilds only the shards a delta touches and the
    # runtime plane ships per-shard generations.  0 = auto: one shard
    # per ~250k edges, so small graphs keep the monolithic single-
    # gather hot path (see repro.graphstore.auto_shard_count).
    # Sharding never changes query results, only delta cost.
    graph_shards: int = 0

    # Reward (Eq. 5): weights of (item, rank, path) components.
    reward_weights: Tuple[float, float, float] = (1.0, 2.0, 1.0)
    reward_mode: str = "full"      # Fig. 5: full / no_rank / item_only / r1
    gamma: float = 0.99
    rank_k: int = 20               # top-K list used by the rank reward

    # Loss (Eq. 11).
    beta: float = 0.2
    loss_mode: str = "joint"       # Fig. 3: joint / reward_only / ce_only

    # Optimization.
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 10
    max_grad_norm: float = 5.0
    dropout: float = 0.5
    weight_decay: float = 0.0
    patience: int = 3
    augment_sessions: bool = True
    max_session_length: int = 10

    # TransE pre-training.
    transe_epochs: int = 10
    transe_lr: float = 0.01
    transe_margin: float = 1.0

    # Extensions (off by default; see DESIGN.md §7).
    train_selection: str = "top"   # or "sample" (stochastic exploration)
    finetune_kg_embeddings: bool = False
    entropy_weight: float = 0.0
    fallback_to_encoder: bool = False  # fill top-K with encoder scores

    # Serving (repro.serving): request-coalescing server defaults.
    # ``REKSTrainer.serve()`` builds a RecommendationServer from these;
    # they have no effect on training.
    serve_max_batch: int = 32      # flush a micro-batch at this size...
    serve_max_wait_ms: float = 2.0  # ...or when the oldest request ages out
    serve_workers: int = 2         # worker processes (thread mode runs one executor)
    serve_cache_size: int = 2048   # LRU explanation-cache entries (0 = off)
    serve_default_k: int = 20      # top-K when a request doesn't specify one
    # Execution plane (repro.runtime): thread workers share the GIL;
    # process workers attach the shared-memory table plane and execute
    # micro-batches with true parallelism (rankings bit-identical).
    serve_worker_mode: str = "thread"   # or "process"
    serve_mp_context: str = "auto"      # fork | spawn | auto (prefer fork)
    runtime_plane_backend: str = "auto"  # shm | mmap | auto (prefer shm)
    # Process-mode exec dataplane: "ring" serves micro-batches over
    # fixed-slot shared-memory rings (no pickling on the hot path;
    # control messages stay on the pipe, and the pool falls back to
    # "pipe" per batch when a payload doesn't fit and wholesale when
    # the host lacks POSIX shared memory); "pipe" forces the PR 4
    # pickle protocol for everything.  Ignored in thread mode.
    serve_transport: str = "ring"       # or "pipe"
    # Process-mode eager death detection: the pool's background sweep
    # polls worker liveness at this period and respawns corpses before
    # the next micro-batch is routed to them.  0 disables the sweep
    # (execute() still routes around and retries past dead workers).
    serve_health_interval_ms: float = 200.0
    # Telemetry (repro.telemetry): fleet-wide shared-memory metric
    # blocks (server + worker children + updater child, merged by the
    # parent registry) and sampled cross-process request tracing.
    serve_metrics: bool = True       # False skips block creation entirely
    serve_trace_sample: float = 0.0  # fraction of requests traced (1 = all)
    # Per-request span attribution: sampled batches additionally carry
    # per-row frontier widths and walk/top-k duration shares back over
    # the transport (a "row" span per sampled request).  Only active
    # while sampling is on; False keeps spans batch-granular.
    serve_trace_rows: bool = True
    # Streaming trace export: path of the rotating JSONL file the
    # tracer's sink appends to ("" = no sink, drain-or-drop deque).
    serve_trace_path: str = ""
    # Rolling-window sampling period for windowed SLOs / the live view
    # (0 = no background sampler; server.window() still samples on
    # demand).
    serve_window_interval_ms: float = 0.0
    # >= 0 exposes a stdlib-HTTP /metrics endpoint on that port
    # (0 = ephemeral, read server.metrics_url); -1 disables it.
    serve_metrics_port: int = -1
    # Cascade serving (repro.cascade): a cheap first-stage provider
    # pre-ranks top-M candidates per request and the beam walk is
    # constrained to candidate-reachable entities.  "" disables the
    # cascade entirely (bit-identical to pre-cascade serving);
    # "neighbors" fits session-kNN on the train split, "encoder"
    # reuses the agent's own fitted session encoder.
    serve_cascade_provider: str = ""
    serve_cascade_m: int = 50           # first-stage candidate count
    serve_cascade_cache_size: int = 1024  # LRU candidate lists (0 = off)
    # Shared-computation serving (repro.serving.memo): collapse
    # duplicate rows inside one flush to a single walk (exact — every
    # original row re-selects its own top-k from the shared score row),
    # and memoize numeric walk outputs across flushes in a
    # version/digest-tagged LRU (k-agnostic: a repeat suffix at any k
    # is a memo hit + re-selection, no walk).  Both exact by
    # construction.
    serve_walk_memo_size: int = 512     # WalkMemo entries (0 = off)

    # Continual learning (repro.online): checkpoint publishing, delta
    # ingestion, and background fine-tuning.  ``OnlineUpdater`` and
    # ``DeltaIngestor`` default to these; they have no effect on
    # offline training.
    online_min_sessions: int = 64   # buffered sessions before a round runs
    online_max_steps: int = 8       # fine-tune batches per update round
    online_interval_s: float = 5.0  # background loop poll period
    online_keep_checkpoints: int = 5  # registry retention (0 = unbounded)
    online_compact_every: int = 1024  # staged edges before CSR compaction
    # Per-shard early trigger: compact as soon as any single shard
    # accumulates this many staged edges (a hot shard rebuilds cheaply
    # on its own instead of waiting for the global threshold while its
    # overlay widens every frontier touching it).  0 disables.
    online_compact_shard_every: int = 0
    online_auto_swap: bool = True   # hot-swap servers on each publish
    # "subprocess" fine-tunes in an isolated interpreter (checkpoints
    # ship through the file-locked registry), so a training round no
    # longer steals serving throughput from this process's GIL.
    online_updater_mode: str = "thread"  # or "subprocess"
    # Niceness of the subprocess fine-tune child.  With spare cores it
    # is irrelevant (the child runs on its own core); on saturated
    # hosts it keeps the OS scheduler from granting the trainer long
    # quanta at serving's expense — training is the batch workload,
    # serving is the latency workload.
    online_subprocess_nice: int = 10

    seed: int = 0

    def __post_init__(self) -> None:
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(
                f"reward_mode {self.reward_mode!r} not in {REWARD_MODES}")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(
                f"loss_mode {self.loss_mode!r} not in {LOSS_MODES}")
        if self.start_from not in START_MODES:
            raise ValueError(
                f"start_from {self.start_from!r} not in {START_MODES}")
        if len(self.sample_sizes) != self.path_length:
            raise ValueError(
                f"need one sample size per hop: path_length="
                f"{self.path_length} but sample_sizes={self.sample_sizes}")
        if self.train_selection not in ("top", "sample"):
            raise ValueError("train_selection must be 'top' or 'sample'")
        if self.frontier_buckets < 1:
            raise ValueError(
                f"frontier_buckets must be >= 1, got {self.frontier_buckets}")
        if self.graph_shards < 0:
            raise ValueError(
                f"graph_shards must be >= 0 (0 = auto), "
                f"got {self.graph_shards}")
        if self.serve_health_interval_ms < 0:
            raise ValueError(
                f"serve_health_interval_ms must be >= 0 (0 = off), "
                f"got {self.serve_health_interval_ms}")
        if not 0.0 <= self.serve_trace_sample <= 1.0:
            raise ValueError(
                f"serve_trace_sample must be in [0, 1], "
                f"got {self.serve_trace_sample}")
        if self.serve_metrics_port < -1:
            raise ValueError(
                f"serve_metrics_port must be >= -1 (-1 = off), "
                f"got {self.serve_metrics_port}")
        if self.serve_window_interval_ms < 0:
            raise ValueError(
                f"serve_window_interval_ms must be >= 0 (0 = off), "
                f"got {self.serve_window_interval_ms}")
        if self.serve_max_batch < 1:
            raise ValueError(
                f"serve_max_batch must be >= 1, got {self.serve_max_batch}")
        if self.serve_max_wait_ms < 0:
            raise ValueError(
                f"serve_max_wait_ms must be >= 0, got {self.serve_max_wait_ms}")
        if self.serve_workers < 1:
            raise ValueError(
                f"serve_workers must be >= 1, got {self.serve_workers}")
        if self.serve_cache_size < 0:
            raise ValueError(
                f"serve_cache_size must be >= 0, got {self.serve_cache_size}")
        if self.serve_default_k < 1:
            raise ValueError(
                f"serve_default_k must be >= 1, got {self.serve_default_k}")
        if self.serve_worker_mode not in ("thread", "process"):
            raise ValueError(
                f"serve_worker_mode must be 'thread' or 'process', "
                f"got {self.serve_worker_mode!r}")
        if self.serve_mp_context not in ("auto", "fork", "spawn"):
            raise ValueError(
                f"serve_mp_context must be auto/fork/spawn, "
                f"got {self.serve_mp_context!r}")
        if self.runtime_plane_backend not in ("auto", "shm", "mmap"):
            raise ValueError(
                f"runtime_plane_backend must be auto/shm/mmap, "
                f"got {self.runtime_plane_backend!r}")
        if self.serve_transport not in ("pipe", "ring"):
            raise ValueError(
                f"serve_transport must be 'pipe' or 'ring', "
                f"got {self.serve_transport!r}")
        if self.serve_cascade_provider not in ("", "neighbors", "encoder"):
            raise ValueError(
                f"serve_cascade_provider must be '' (off), 'neighbors', "
                f"or 'encoder', got {self.serve_cascade_provider!r}")
        if self.serve_cascade_m < 1:
            raise ValueError(
                f"serve_cascade_m must be >= 1, got {self.serve_cascade_m}")
        if self.serve_cascade_cache_size < 0:
            raise ValueError(
                f"serve_cascade_cache_size must be >= 0, "
                f"got {self.serve_cascade_cache_size}")
        if self.serve_walk_memo_size < 0:
            raise ValueError(
                f"serve_walk_memo_size must be >= 0, "
                f"got {self.serve_walk_memo_size}")
        if self.online_updater_mode not in ("thread", "subprocess"):
            raise ValueError(
                f"online_updater_mode must be 'thread' or 'subprocess', "
                f"got {self.online_updater_mode!r}")
        if not 0 <= self.online_subprocess_nice <= 19:
            raise ValueError(
                f"online_subprocess_nice must be in [0, 19], "
                f"got {self.online_subprocess_nice}")
        if self.online_min_sessions < 1:
            raise ValueError(
                f"online_min_sessions must be >= 1, "
                f"got {self.online_min_sessions}")
        if self.online_max_steps < 1:
            raise ValueError(
                f"online_max_steps must be >= 1, got {self.online_max_steps}")
        if self.online_interval_s <= 0:
            raise ValueError(
                f"online_interval_s must be > 0, got {self.online_interval_s}")
        if self.online_keep_checkpoints < 0:
            raise ValueError(
                f"online_keep_checkpoints must be >= 0, "
                f"got {self.online_keep_checkpoints}")
        if self.online_compact_every < 1:
            raise ValueError(
                f"online_compact_every must be >= 1, "
                f"got {self.online_compact_every}")
        if self.online_compact_shard_every < 0:
            raise ValueError(
                f"online_compact_shard_every must be >= 0 (0 = off), "
                f"got {self.online_compact_shard_every}")

    @classmethod
    def for_ablation(cls, name: str, **overrides) -> "REKSConfig":
        """Named variants used across Figures 3-6.

        ``name`` in {reks, reks_r, reks_c, reks_r1, reks-path,
        reks-rank, reks_user, reks_l3, reks_l4}.
        """
        presets = {
            "reks": {},
            "reks_r": {"loss_mode": "reward_only"},
            "reks_c": {"loss_mode": "ce_only"},
            "reks_r1": {"reward_mode": "r1"},
            "reks-path": {"reward_mode": "item_only"},
            "reks-rank": {"reward_mode": "no_rank"},
            "reks_user": {"start_from": "user", "path_length": 3,
                          "sample_sizes": (100, 10, 1)},
            "reks_l3": {"path_length": 3, "sample_sizes": (100, 1, 1)},
            "reks_l4": {"path_length": 4, "sample_sizes": (100, 1, 1, 1)},
        }
        key = name.lower()
        if key not in presets:
            raise KeyError(f"unknown ablation {name!r}; "
                           f"choose from {sorted(presets)}")
        merged = dict(presets[key])
        merged.update(overrides)
        return cls(**merged)
