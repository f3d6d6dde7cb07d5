"""The request-coalescing recommendation + explanation server.

A :class:`RecommendationServer` wraps one fitted
:class:`~repro.core.agent.REKSAgent` and turns its batch-oriented
``recommend`` into an interactive-traffic API:

* :meth:`submit` / :meth:`recommend_one` — single-session requests,
  coalesced across callers into micro-batches by a
  :class:`~repro.serving.scheduler.BatchScheduler`;
* :meth:`recommend_many` — bulk traffic (splits oversize lists across
  micro-batches and reuses cached entries);
* one executor thread owns the server's one
  :class:`~repro.core.environment.RolloutWorkspace` (``workers`` sizes
  the process fleet only: threads share a GIL, so a second executor
  would just split the flushes and fight the first for it);
* an :class:`~repro.serving.cache.ExplanationCache` LRU short-circuits
  repeat sessions — every miss is ranked at the server's ``k``
  *ceiling* (the largest ``k`` asked so far, clipped to the
  catalogue), so one entry per session serves every ``k`` up to it by
  slicing;
* a :class:`~repro.serving.stats.ServerStats` recorder tracks latency
  percentiles, batch occupancy, and cache efficiency.

Determinism contract: a coalesced micro-batch is collated with the
same routine as :meth:`REKSTrainer.recommend_sessions`
(:func:`repro.data.loader.collate_examples`, prefix = ``items[:-1]``),
and per-row rankings are batch-composition invariant, so the served
``items`` match a synchronous ``recommend_sessions`` call for the same
sessions and ``k`` regardless of how requests were interleaved.

Worker modes (``worker_mode``): ``"thread"`` executes micro-batches on
this interpreter's single executor thread (coalescing wins only — the
GIL serializes the compute, so misses that arrive during a flush leave
as one larger flush when it ends); ``"process"`` hands each micro-batch
to one of ``workers`` dispatcher threads and its
:class:`~repro.runtime.ProcessWorkerPool` worker that attaches the
shared-memory table plane (CSR adjacency + frozen embedding tables,
zero-copy) and executes with true parallelism.  The determinism and
hot-swap contracts hold identically in both modes — process-mode
rankings, scores, and rendered explanations are bit-identical to
thread mode (``tests/test_runtime.py`` pins this).

Hot-swap contract (:meth:`RecommendationServer.swap_model`): a new
checkpoint is loaded into a *clone* of the live agent off the request
path, then the live ``(agent, version)`` pair is replaced under a lock
that workers take once per micro-batch — an in-flight batch finishes
entirely on the weights it started with, queued requests execute on
the new ones, and no request is dropped.  Cache entries are keyed by
model version, so the swap does not flush the cache: stale entries
stop being queried and age out of the LRU while same-version warm
traffic keeps hitting.
"""

from __future__ import annotations

import gc
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.agent import REKSAgent, clone_agent
from repro.core.environment import RolloutWorkspace
from repro.data.schema import Session
from repro.kg.paths import SemanticPath, join_path
from repro.runtime import ProcessWorkerPool
from repro.runtime.flush import FlushPlan, execute_flush
from repro.runtime.rowblock import PathColumn, RowBlock, path_slices
from repro.serving.cache import CacheKey, Entry, ExplanationCache
from repro.serving.memo import dedup_plan
from repro.serving.scheduler import (
    BatchScheduler,
    PendingRequest,
    SchedulerClosed,
)
from repro.serving.stats import ServerStats, StatsSnapshot
from repro.telemetry.block import fleet_schema
from repro.telemetry.httpd import MetricsEndpoint
from repro.telemetry.registry import FleetSnapshot, MetricsRegistry
from repro.telemetry.sink import TraceSink
from repro.telemetry.trace import Tracer
from repro.telemetry.window import (RollingWindow, WindowSampler,
                                    WindowSnapshot)


@dataclass(frozen=True)
class ServedResult:
    """Per-request response: ranked items, scores, rendered paths.

    ``explanations[i]`` is the arrow-form rendering of ``paths[i]``
    (empty string when the item carries no path, e.g. it was reached
    only through the encoder fallback or not at all).

    A served result's ``paths`` is a
    :class:`~repro.runtime.rowblock.PathColumn` — the answer's slice
    of its flush's path arrays, read as a sequence of
    ``Optional[SemanticPath]`` that are built fresh on every read
    (iteration, index, ``==``; a slice is a plain tuple), so a result
    shared across cache hits cannot be changed through the paths it
    hands out.  A plain tuple is accepted too
    (``dataclasses.replace(result, paths=...)``).
    """

    items: Tuple[int, ...]
    scores: Tuple[float, ...]
    paths: Union[PathColumn, Tuple[Optional[SemanticPath], ...]]
    explanations: Tuple[str, ...]
    cached: bool = False
    latency_ms: float = 0.0


@dataclass(frozen=True)
class _Request:
    """Scheduler payload for one session.

    ``base_key`` is the version-less cache identity ``(suffix,
    user)``, already normalised
    (:meth:`RecommendationServer._base_key`) — ``submit`` and the
    respond step append ``(cascade, version)`` to it.  The executing
    worker supplies the model version it actually ran with, which may
    be newer than the one the submitter looked up (a swap landed
    between submit and execution; the result is then cached under the
    version that computed it).
    """

    session: Session
    k: int
    base_key: tuple
    trace: int = 0  # sampled trace id (0 = this request is not traced)


class ServerClosed(RuntimeError):
    """Raised when submitting to a shut-down server."""


class RecommendationServer:
    """Coalesce concurrent single-session requests into shared walks."""

    def __init__(self, agent: REKSAgent, *, max_batch: int = 32,
                 max_wait_ms: float = 2.0, workers: int = 2,
                 cache_size: int = 2048, default_k: int = 20,
                 registry=None, model_version: int = 0,
                 worker_mode: str = "thread", mp_context: str = "auto",
                 plane_backend: str = "auto",
                 transport: str = "ring",
                 health_interval_ms: float = 200.0,
                 trace_sample: float = 0.0,
                 trace_rows: bool = True,
                 trace_path: Optional[str] = None,
                 window_interval_ms: float = 0.0,
                 metrics: bool = True,
                 metrics_port: Optional[int] = None,
                 metrics_registry: Optional[MetricsRegistry] = None,
                 cascade=None, cascade_m: int = 50,
                 cascade_cache_size: int = 1024,
                 dedup: bool = True) -> None:
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', "
                f"got {worker_mode!r}")
        if transport not in ("pipe", "ring"):
            raise ValueError(
                f"transport must be 'pipe' or 'ring', got {transport!r}")
        if workers < 1:
            raise ValueError(f"need >= 1 worker, got {workers}")
        if default_k < 1:
            raise ValueError(f"default_k must be >= 1, got {default_k}")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {trace_sample}")
        if health_interval_ms < 0:
            raise ValueError(
                f"health_interval_ms must be >= 0 (0 = off), "
                f"got {health_interval_ms}")
        if window_interval_ms < 0:
            raise ValueError(
                f"window_interval_ms must be >= 0 (0 = off), "
                f"got {window_interval_ms}")
        if metrics_port is not None and metrics_port < 0:
            raise ValueError(
                f"metrics_port must be None (off) or >= 0 (0 = "
                f"ephemeral), got {metrics_port}")
        # Cascade serving: ``cascade`` is a CandidateProvider (wrapped
        # in a planner with an LRU candidate cache) or an already-built
        # CascadePlanner; None serves the full unconstrained walk,
        # bit-identical to a server without the feature.
        self._cascade = None
        if cascade is not None:
            from repro.cascade import CascadePlanner

            self._cascade = (cascade if isinstance(cascade, CascadePlanner)
                             else CascadePlanner(cascade, cascade_m,
                                                 cascade_cache_size))
        self._cascade_id = (None if self._cascade is None
                            else self._cascade.identity)
        self._agent = agent
        self._model_version = int(model_version)
        self._agent_lock = threading.Lock()
        self._registry = registry
        self._kg = agent.env.built.kg
        self._max_session_length = agent.config.max_session_length
        self._start_from = agent.config.start_from
        self.default_k = default_k
        self.worker_mode = worker_mode
        self._scheduler = BatchScheduler(max_batch=max_batch,
                                         max_wait_ms=max_wait_ms)
        # Telemetry plane (repro.telemetry): one shared-memory metric
        # block per process in the serving fleet, all merged by a
        # parent-side registry.  The server owns the "server" role
        # block (request latency, cache, enqueue/flush/render timings
        # — and, in thread mode, the walk/gather instrumentation that
        # otherwise lands in the worker children's blocks).
        self._tracer = Tracer(sample=trace_sample)
        self._trace_rows = bool(trace_rows)
        self._sink: Optional[TraceSink] = None
        self._metrics_registry: Optional[MetricsRegistry] = None
        self._owns_registry = False
        self._metrics = None
        if metrics:
            self._metrics_registry = (metrics_registry
                                      if metrics_registry is not None
                                      else MetricsRegistry(
                                          backend=plane_backend))
            self._owns_registry = metrics_registry is None
            store = agent.env.csr_tables()
            schema = fleet_schema(num_shards=len(store.shards),
                                  hops=agent.config.path_length)
            self._metrics = self._metrics_registry.create_block(
                "server", schema)
            self._metrics.gauge("model_version", float(model_version))
            self._metrics.gauge("trace_sample", float(trace_sample))
            # Thread mode runs one executor; in process mode the pool
            # overwrites this with its live worker count.
            self._metrics.gauge("workers_alive", 1.0)
            self._tracer.attach_metrics(self._metrics)
        if trace_path and trace_sample > 0.0:
            # Streaming export: spans flow to a rotating JSONL file
            # through a bounded handoff queue (drops counted, never
            # silent) instead of dying in the drain-or-drop deque.
            self._sink = TraceSink(trace_path, metrics=self._metrics)
            self._tracer.attach_sink(self._sink)
        # In process mode the dispatcher threads below only marshal
        # batches to/from the worker processes, which own their
        # workspaces; the server's workspace serves thread mode.
        self._procpool: Optional[ProcessWorkerPool] = None
        if worker_mode == "process":
            self._procpool = ProcessWorkerPool(
                agent, workers=workers, mp_context=mp_context,
                plane_backend=plane_backend, model_version=model_version,
                transport=transport,
                health_interval_s=(health_interval_ms / 1e3
                                   if health_interval_ms else None),
                metrics_registry=self._metrics_registry,
                metrics_block=self._metrics)
            # The pool may downgrade ring -> pipe when the host has no
            # usable POSIX shared memory; report what actually runs.
            transport = self._procpool.transport
        self.transport = transport
        self._workspace = RolloutWorkspace()
        self._workspace.metrics = self._metrics
        self._cache = ExplanationCache(cache_size)
        # The k every miss is ranked at: the largest k asked so far
        # (never lowered; see submit), clipped to the catalogue when a
        # flush reads it.
        self._ceiling = 0
        self._ceiling_lock = threading.Lock()
        self._n_items = agent.n_items
        self._dedup = bool(dedup)
        self._stats = ServerStats(metrics=self._metrics)
        self._stats.attach_cache(self._cache)
        # Reachability prewarm (thread mode with the cascade on): a
        # background watcher rebuilds the pruning index the moment the
        # store digest moves, so the first post-compaction request
        # doesn't pay the build.  Process workers prewarm themselves
        # after every tables broadcast.
        self._prewarmer = None
        if self._cascade is not None and worker_mode == "thread":
            from repro.cascade.reachability import ReachabilityPrewarmer

            self._prewarmer = ReachabilityPrewarmer(
                agent.env, agent.config.path_length,
                metrics=self._metrics)
            self._prewarmer.start()
        # Rolling-window plane: a bounded ring of fleet snapshots that
        # turns the cumulative counters into windowed rates/quantiles
        # (burn-rate SLOs, cli top).  The background sampler only runs
        # when an interval is configured; window() also records a
        # fresh sample on demand, so the ring is usable without it.
        self._window: Optional[RollingWindow] = None
        self._window_sampler: Optional[WindowSampler] = None
        if self._metrics_registry is not None:
            self._window = RollingWindow()
            self._window.record(self._metrics_registry.snapshot())
            if window_interval_ms:
                self._window_sampler = WindowSampler(
                    self._metrics_registry.snapshot, self._window,
                    interval_s=window_interval_ms / 1e3)
        self._endpoint: Optional[MetricsEndpoint] = None
        if self._metrics_registry is not None and metrics_port is not None:
            self._endpoint = MetricsEndpoint(
                self.fleet_snapshot, port=int(metrics_port),
                window_fn=self.window,
                health_fn=self._metrics_registry.health,
                extra_fn=self.serving_state)
        self._gc_at_start = _gc_collections()
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        # One executor per interpreter (module docstring): only a
        # process dispatcher, blocked on its worker's doorbell with the
        # GIL released, runs beside another.
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"reks-serve-{i}")
            for i in range(workers if worker_mode == "process" else 1)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(self, session: Session, k: Optional[int] = None) -> Future:
        """Non-blocking submission; the future yields a ServedResult.

        Cache hits resolve the future immediately without touching the
        scheduler — the session's entry answers every ``k`` up to the
        one it was ranked at (:meth:`ExplanationCache.lookup`), by
        slicing.  A miss first raises the server's ``k`` ceiling to
        ``k``, so the flush that answers it ranks at least that deep.
        ``k`` must be at least 1 (``ValueError``).
        """
        if self._shut_down:
            raise ServerClosed("server has been shut down")
        k = self.default_k if k is None else int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = perf_counter()
        base = self._base_key(session)
        version = self._model_version
        entry, servable = self._cache.lookup(
            CacheKey(*base, self._cascade_id, version), k)
        if servable:
            hit = entry.result
            answer = _first(k, hit.items, hit.scores, hit.paths,
                            hit.explanations)
            latency = perf_counter() - started
            # Rendering happened once, at cache admission; a hit
            # serves the stored strings without re-rendering.
            self._stats.record_hit(latency, version, len(answer[0]),
                                   nested=k != entry.asked)
            future: Future = Future()
            future.set_result(ServedResult(*answer, cached=True,
                                           latency_ms=latency * 1e3))
            return future
        self._stats.record_cache(False, version)
        if k > self._ceiling:
            # Checked again under the lock: two racing raises must not
            # let the smaller one land last.  Only a raise takes it.
            with self._ceiling_lock:
                self._ceiling = max(self._ceiling, k)
        trace = self._tracer.maybe_start()
        if trace and self._metrics is not None:
            self._metrics.count("traces_sampled_total")
        try:
            return self._scheduler.submit(_Request(session, k, base, trace))
        except SchedulerClosed as exc:
            # Lost the race against a concurrent shutdown(): surface
            # the server-level type the API documents.
            raise ServerClosed("server has been shut down") from exc

    def recommend_one(self, session: Session,
                      k: Optional[int] = None) -> ServedResult:
        """Blocking single-session request (the interactive path)."""
        return self.submit(session, k).result()

    def recommend_many(self, sessions: Sequence[Session],
                       k: Optional[int] = None) -> List[ServedResult]:
        """Bulk request: every session is enqueued up front (oversize
        lists split into ``max_batch`` micro-batches) and results come
        back in input order."""
        futures = [self.submit(session, k) for session in sessions]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Model lifecycle (hot swap)
    # ------------------------------------------------------------------
    @property
    def model_version(self) -> int:
        """The version tag of the currently live model."""
        return self._model_version

    def swap_model(self, version: Optional[int] = None, *,
                   registry=None, state: Optional[dict] = None) -> float:
        """Atomically roll the live model to a published checkpoint.

        Loads checkpoint ``version`` (default: the registry's latest)
        into a clone of the live agent *off the request path*, then
        swaps the live ``(agent, version)`` pair under the worker lock.
        In-flight micro-batches complete on the weights they started
        with; queued requests execute on the new ones; nothing is
        dropped and the cache is not flushed (stale versions age out).

        ``state`` short-circuits the registry read with an in-memory
        state dict (then ``version`` is its required tag).  Returns the
        end-to-end swap latency in seconds.
        """
        if self._shut_down:
            raise ServerClosed("server has been shut down")
        started = perf_counter()
        if state is None:
            registry = registry if registry is not None else self._registry
            if registry is None:
                raise ValueError(
                    "swap_model needs a CheckpointRegistry (pass one at "
                    "construction or per call) or an explicit state dict")
            state, manifest = registry.load(version)
            version = manifest["version"]
        elif version is None:
            raise ValueError("swap_model(state=...) requires a version tag")
        if self._procpool is not None:
            # Process mode: broadcast the checkpoint to every worker.
            # Each worker applies it between micro-batches (its pipe is
            # locked per batch), so in-flight batches still finish on
            # the weights they started with.
            with self._agent_lock:
                self._procpool.swap(int(version), state)
                self._model_version = int(version)
        else:
            fresh = clone_agent(self._agent)
            fresh.load_state_dict(state)
            with self._agent_lock:
                self._agent = fresh
                self._model_version = int(version)
        latency = perf_counter() - started
        self._stats.record_swap(latency)
        if self._metrics is not None:
            self._metrics.gauge("model_version",
                                float(self._model_version))
        return latency

    def _live(self) -> Tuple[REKSAgent, int]:
        """The (agent, version) pair, read atomically (one per batch)."""
        with self._agent_lock:
            return self._agent, self._model_version

    # ------------------------------------------------------------------
    # Environment synchronization (online delta wiring)
    # ------------------------------------------------------------------
    def stage_edges(self, heads, rels, tails) -> int:
        """Stage overlay edges into the serving adjacency.

        Thread mode shares the template agent's environment with the
        ingesting trainer, so edges staged there are already visible —
        this only broadcasts them to the process workers' private
        environments when running in process mode.  Returns the number
        of edges newly staged (per worker in process mode).
        """
        if self._procpool is not None:
            return self._procpool.stage_edges(heads, rels, tails)
        return self._agent.env.stage_edges(heads, rels, tails)

    def refresh_tables(self) -> Optional[str]:
        """Ship the template environment's compacted shards to the
        process workers (no-op in thread mode, where workers read the
        compacted store directly).

        The publish is a **delta**: only shards whose content changed
        since the last export travel — fresh segments per dirty shard,
        a delta manifest broadcast, partial re-attach worker-side, old
        segments unlinked (see
        :meth:`~repro.runtime.ProcessWorkerPool.publish_tables`;
        ``process_pool.last_publish`` records what actually shipped).
        Returns the generation key, or None in thread mode."""
        if self._procpool is None:
            if self._prewarmer is not None:
                # Thread mode reads the compacted store directly, so a
                # refresh is the caller telling us the store moved —
                # rebuild the reachability index now, deterministically,
                # instead of waiting for the background watcher's tick.
                self._prewarmer.poll_once()
            return None
        return self._procpool.publish_tables(self._agent.env)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> StatsSnapshot:
        return self._stats.snapshot()

    def reset_stats(self) -> None:
        self._stats.reset()

    def fleet_snapshot(self) -> FleetSnapshot:
        """Merged metrics across every process in the serving fleet
        (server block + worker children + any co-registered roles)."""
        if self._metrics_registry is None:
            raise RuntimeError("server was built with metrics=False")
        return self._metrics_registry.snapshot()

    def window(self, seconds: Optional[float] = None
               ) -> Optional[WindowSnapshot]:
        """The rolling-window delta ending *now* (a fresh snapshot is
        recorded on demand, so this works without a background
        sampler).  ``seconds=None`` spans the whole retained ring.
        Returns None when metrics are disabled or fewer than two
        samples exist (a just-started server)."""
        if self._window is None or self._metrics_registry is None:
            return None
        try:
            self._window.record(self._metrics_registry.snapshot())
        except RuntimeError:  # registry closed mid-shutdown
            return None
        return self._window.window(seconds)

    def serving_state(self) -> dict:
        """JSON-safe shared-computation state for ``/metrics.json``:
        per-version cache entry counts (the post-swap stale-entry
        drain), the cache's nested-hit counter, the ``k`` ceiling
        misses are ranked at, and how often this interpreter's cyclic
        collector ran, per generation, since the server started."""
        return {
            "gc": {"collections": [
                now - then for now, then
                in zip(_gc_collections(), self._gc_at_start)]},
            "dedup": self._dedup,
            "k_ceiling": self._ceiling,
            "cache_entries_by_version": {
                str(v): n for v, n
                in sorted(self._cache.entries_by_version().items())},
            "cache_nested_hits": self._cache.nested_hits,
        }

    def health(self) -> dict:
        """Fleet liveness report (see
        :meth:`~repro.telemetry.registry.MetricsRegistry.health`);
        trivially ok when metrics are disabled."""
        if self._metrics_registry is None:
            return {"ok": True, "roles": {}}
        return self._metrics_registry.health()

    @property
    def metrics_registry(self) -> Optional[MetricsRegistry]:
        """The fleet registry (None when metrics are disabled)."""
        return self._metrics_registry

    @property
    def tracer(self) -> Tracer:
        """The request tracer (disabled unless ``trace_sample > 0``)."""
        return self._tracer

    @property
    def trace_sink(self) -> Optional[TraceSink]:
        """The streaming JSONL sink (None unless ``trace_path`` was
        given with sampling enabled)."""
        return self._sink

    @property
    def metrics_url(self) -> Optional[str]:
        """URL of the /metrics HTTP endpoint (None unless enabled)."""
        return self._endpoint.url if self._endpoint is not None else None

    @property
    def cache(self) -> ExplanationCache:
        return self._cache

    @property
    def workspace(self) -> RolloutWorkspace:
        """The thread-mode executor's scratch workspace (idle in
        process mode, where each worker process owns its own)."""
        return self._workspace

    @property
    def executors(self) -> int:
        """Threads cutting flushes: 1 in thread mode, ``workers``
        dispatchers in process mode."""
        return len(self._threads)

    @property
    def process_pool(self) -> Optional[ProcessWorkerPool]:
        """The process worker pool (None in thread mode)."""
        return self._procpool

    @property
    def pending(self) -> int:
        return self._scheduler.pending

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True) -> None:
        """Stop the workers.

        With ``drain=True`` every already-submitted request still
        completes (its future resolves with a result) before the
        workers exit; with ``drain=False`` queued-but-unstarted
        requests fail with :class:`ServerClosed`.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        _fail_queued(self._scheduler.close(drain=drain),
                     ServerClosed("server shut down before execution"))
        for thread in self._threads:
            thread.join()
        if self._prewarmer is not None:
            self._prewarmer.stop()
        if self._window_sampler is not None:
            self._window_sampler.close()
        if self._endpoint is not None:
            # joins the HTTP thread: no dangling daemon thread holding
            # the port after close() returns.
            self._endpoint.close()
        if self._procpool is not None:
            self._procpool.close()
        if self._sink is not None:
            # Drain the handoff queue to disk before the file closes —
            # a clean shutdown never loses an offered span.  The tracer
            # reverts to deque mode so a late record() cannot touch the
            # closed sink (or the about-to-retire metric block).
            self._sink.close()
            self._tracer.attach_sink(None)
        if self._metrics_registry is not None:
            # Fold the server block's final counters into the registry's
            # retired accumulators: fleet_snapshot() keeps reporting the
            # full run after shutdown, with the shared memory released.
            self._stats.metrics = None
            self._metrics = None
            self._tracer.attach_metrics(None)
            self._metrics_registry.retire("server")

    def close(self, drain: bool = True) -> None:
        """Alias for :meth:`shutdown` (context-manager symmetry with
        the other fleet components)."""
        self.shutdown(drain=drain)

    def __enter__(self) -> "RecommendationServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _base_key(self, session: Session) -> tuple:
        """Version-less cache identity: the first two fields of
        :class:`~repro.serving.cache.CacheKey`, normalised here once,
        so that ``base + (cascade, version)`` *is* the cache key."""
        items = session.items
        if len(items) < 2:
            raise ValueError(
                "serving requires sessions with >= 2 items (prefix + "
                f"next-item slot); got {len(items)}")
        prefix = items[:-1][-self._max_session_length:]
        user = session.user_id if self._start_from == "user" else None
        return (tuple(map(int, prefix)), user)

    def _worker(self) -> None:
        try:
            while True:
                batch = self._scheduler.next_batch()
                if batch is None:
                    return
                # Claim the flush's futures at the cut: one the caller
                # cancelled while it was queued is dropped here, alone
                # and unwalked, and a claimed one can no longer be
                # cancelled — so resolving it cannot raise and fail
                # its flush-mates' computed answers.
                batch = [request for request in batch
                         if request.future.set_running_or_notify_cancel()]
                if batch:
                    self._process(batch)
        except BaseException as exc:
            # The worker loop itself died (next_batch raised, or
            # _process's own failure handler failed).  Fail everything
            # still queued instead of letting callers hang on futures
            # no surviving worker will ever cut.
            _fail_queued(self._scheduler.close(drain=False), exc)
            raise

    def _process(self, batch: List[PendingRequest]) -> None:
        try:
            self._execute(batch)
        except BaseException as exc:  # worker must never die silently
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)

    def _execute(self, group: List[PendingRequest]) -> None:
        """Serve one coalesced micro-batch: instrument, plan, execute,
        respond.

        The flush is cut into one
        :class:`~repro.runtime.flush.FlushPlan` that ranks every row at
        the ``k`` ceiling, read once here (at least every ``k`` in the
        flush: each miss raised it before it was queued), clipped to
        the catalogue — with ``dedup`` on, duplicate walk inputs
        ``(truncated suffix, user anchor, exact candidate set)``
        collapse to one unique row; off, the plan is the identity — and
        :func:`~repro.runtime.flush.execute_flush` answers it: here, on
        the live ``(agent, version)`` read once per flush, or in a
        process worker, which reports the version it executed with (a
        swap broadcast lands between batches, never mid-batch).  The
        results are cached under that version.

        The walk and the score matrix are k-independent and ``_top_k``
        is a total order, so a request's answer is the first ``k`` of
        its row's ranking — rankings and explanations exact by
        construction; score bits additionally match whenever the
        walk-batch composition is preserved, and sit within the
        documented last-ulp batch-shape tolerance when collapsing
        shrinks a multi-row flush.  Both worker modes answer with one
        **unrendered** :class:`~repro.runtime.rowblock.RowBlock`;
        :meth:`_respond` fans it out and renders, exactly once, at
        cache admission.  Sampled requests get enqueue / flush /
        cascade / transport / render / respond spans here plus the
        executor's collate / cascade / walk / topk / exec / row spans
        under the role that ran them.
        """
        pickup = perf_counter()
        self._stats.record_batch(len(group))
        metrics, tracer = self._metrics, self._tracer
        payloads = [request.payload for request in group]
        traces = [payload.trace for payload in payloads]
        sampled = [trace for trace in traces if trace]
        for request, trace in zip(group, traces):
            wait = pickup - request.enqueued_at
            if metrics is not None:
                metrics.observe("enqueue_wait_seconds", wait)
            if trace:
                tracer.record(trace, "enqueue", "server",
                              request.enqueued_at, wait)
        asked = self._ceiling
        examples = [(payload.base_key[0], payload.session.items[-1],
                     payload.session.user_id) for payload in payloads]
        flush_dur = perf_counter() - pickup
        if metrics is not None:
            metrics.observe("batch_flush_seconds", flush_dur)
        for trace in sampled:
            tracer.record(trace, "flush", "server", pickup, flush_dur)
        cands = None
        if self._cascade is not None:
            # First stage: per-row candidate sets from the (memoized)
            # provider, keyed by the same truncated prefix + user the
            # cache key uses.  Strictly per row — never unioned — so a
            # session's ranking can't depend on its batch-mates.
            c0 = perf_counter()
            cands = [tuple(self._cascade.plan(*payload.base_key).tolist())
                     for payload in payloads]
            cascade_dur = perf_counter() - c0
            if metrics is not None:
                metrics.count("cascade_candidates_total",
                              sum(len(c) for c in cands))
            for trace in sampled:
                tracer.record(trace, "cascade", "server", c0, cascade_dur)
        dedup = None
        if self._dedup:
            # Model version and cascade identity are batch-constant:
            # they ride the cache key, not the plan.
            dedup = dedup_plan([
                (*payload.base_key,
                 None if cands is None else cands[row])
                for row, payload in enumerate(payloads)])
            collapsed = len(group) - len(dedup[0])
            if collapsed:
                self._stats.record_dedup(collapsed)
                if metrics is not None:
                    metrics.count("dedup_rows_total", collapsed)
        plan = FlushPlan.build(examples,
                               [min(asked, self._n_items)] * len(group),
                               cands, traces, dedup)
        t0 = perf_counter()
        if self._procpool is not None:
            role = "worker"
            version, block, spans, rowrecs = (
                self._procpool.execute_block(plan))
        else:
            role = "server"
            agent, version = self._live()
            # The checkout raises rather than corrupting if a second
            # walk ever ran beside this one, and the release on the
            # error path keeps a failed walk from wedging the next
            # flush.
            workspace = self._workspace.checkout()
            try:
                block, spans, rowrecs = execute_flush(
                    agent, workspace, plan, metrics)
            finally:
                workspace.release()
        tracer.record_batch_spans(sampled, role, spans)
        if self._trace_rows:
            # Walk time by frontier-mass share, top-k time by k share.
            tracer.record_rows(rowrecs, role, t0)
        self._respond(group, block, plan.fan_out, version, asked, sampled,
                      t0)

    def _respond(self, group: List[PendingRequest], block: RowBlock,
                 fan_out: Optional[Sequence[int]], version: int,
                 asked: int, sampled: Sequence[int], t0: float) -> None:
        """Turn a flush's block into its requests' results.

        Each distinct block row becomes its answer once — item and
        score tuples cut from the block's flat sections and the row's
        :class:`~repro.runtime.rowblock.PathColumn`, its paths left as
        arrays (still the transport step that began at ``t0``: this is
        the unmarshalling), then every explanation rendered straight
        from the flush's node list, no ``SemanticPath`` in between —
        and requests that share a row (``fan_out``) share those values.
        Then, in this order: every ``ServedResult`` is constructed with
        its latency — the row's whole answer, and a request asking for
        fewer items its ``[:k]`` slice; the whole answers are admitted
        to the cache, one entry per session ranked at ``asked``
        (:meth:`ExplanationCache.admit`); the stats and the request
        histogram take the whole flush; and only then do the futures
        resolve — a caller that reads ``stats()`` or resubmits right
        after ``result()`` finds its request counted and cached.
        """
        metrics, tracer, kg = self._metrics, self._tracer, self._kg
        columns = block.path_columns()
        items, scores = block.items.tolist(), block.scores.tolist()
        transport_dur = perf_counter() - t0
        if metrics is not None:
            metrics.observe("transport_seconds", transport_dur)
        for trace in sampled:
            tracer.record(trace, "transport", "server", t0, transport_dur)
        r0 = perf_counter()
        texts = ["" if cut is None else join_path(*cut, kg)
                 for cut in path_slices(block.path_len, block.path_nodes)]
        answers = []
        stop = 0
        for k, column in zip(block.ks.tolist(), columns):
            start, stop = stop, stop + k
            answers.append((tuple(items[start:stop]),
                            tuple(scores[start:stop]), column,
                            tuple(texts[start:stop])))
        render_dur = perf_counter() - r0
        if fan_out is None:
            fan_out = range(len(group))
        if metrics is not None:
            metrics.observe("render_seconds", render_dur)
        for trace in sampled:
            tracer.record(trace, "render", "server", r0, render_dur)
        t_resp = perf_counter()
        cascade_id = self._cascade_id
        keys, entries, results, latencies = [], [], [], []
        served = 0
        for request, p in zip(group, fan_out):
            payload = request.payload
            latency = t_resp - request.enqueued_at
            answer, k = answers[p], payload.k
            result = ServedResult(*answer, cached=False,
                                  latency_ms=latency * 1e3)
            keys.append(CacheKey(*payload.base_key, cascade_id, version))
            entries.append(Entry(result, asked))
            if k < len(answer[0]):
                result = ServedResult(*_first(k, *answer), cached=False,
                                      latency_ms=latency * 1e3)
            served += len(result.items)
            results.append(result)
            latencies.append(latency)
        if metrics is not None and served:
            # explanations handed to requests; a hit counts its own in
            # render_deferred_total
            metrics.count("render_rows_total", served)
        self._cache.admit(keys, entries)
        self._stats.record_requests(latencies)
        for request, result in zip(group, results):
            request.future.set_result(result)
        respond_dur = perf_counter() - t_resp
        for trace in sampled:
            tracer.record(trace, "respond", "server", t_resp, respond_dur)


def _first(k: int, items, scores, paths, explanations) -> tuple:
    """An answer's first ``k``: three tuple slices and the path
    column's ``head(k)`` — or the answer itself when it holds no more
    (``_top_k`` is a total order, so that prefix is the top-``k``)."""
    if k >= len(items):
        return items, scores, paths, explanations
    return items[:k], scores[:k], paths.head(k), explanations[:k]


def _gc_collections() -> List[int]:
    """Collections run so far, per generation — a count read on
    demand, not a collector hook timing pauses: a hook can fire inside
    a metric block's write lock on the thread that holds it."""
    return [generation["collections"] for generation in gc.get_stats()]


def _fail_queued(requests: Sequence[PendingRequest],
                 exc: BaseException) -> None:
    """Fail requests that never reached a flush (skipping any their
    caller already cancelled, which ``set_exception`` would reject)."""
    for request in requests:
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(exc)
