"""Process-level execution: spec-built worker agents over shard planes.

Thread workers share one interpreter, so at paper dims (400) every
serving worker fights the trainer and its siblings for the GIL.  This
module runs each worker in its **own process** while keeping the big
read-only state physically shared:

* an :class:`AgentSpec` is the picklable recipe for rebuilding an
  inference-only :class:`~repro.core.agent.REKSAgent` inside a child —
  the small trainable modules travel by value, the large frozen tables
  travel *by reference* as :class:`~repro.runtime.plane.PlaneManifest`
  entries (attached zero-copy in the child);
* the CSR adjacency is exported **one plane generation per graph-store
  shard** (:func:`export_shard_planes`): after a per-shard compaction,
  :meth:`ProcessWorkerPool.publish_tables` exports only the *dirty*
  shards into fresh segments, broadcasts a delta manifest, and workers
  re-attach just those shards (atomic facade swap via
  :meth:`~repro.core.environment.KGEnvironment.attach_shards`); the
  retired shard segments are unlinked once every worker has moved;
* :func:`_worker_main` is the child loop: attach planes, build the
  agent, then serve ``exec`` / ``swap`` / ``stage`` / ``tables``
  messages until told to stop.  Control messages always ride the
  duplex pipe; with ``transport="ring"`` (the default) the hot-path
  ``exec`` traffic instead rides a per-worker shared-memory ring pair
  (:mod:`repro.runtime.rings`) — micro-batches and result rows cross
  as flat numeric arrays with **no pickling**, and a doorbell pipe
  wakes the idle peer so nobody busy-polls a shared core.  A batch the
  ring cannot carry (oversize, un-encodable, or the ring is full)
  falls back to the pipe for that batch, counted in
  ``ProcessWorkerPool.ring_fallbacks`` — never silent, never wrong;
* a :class:`ProcessWorkerPool` owns N such children plus the plane
  generations, hands micro-batches to idle workers, broadcasts model
  swaps and adjacency changes, and **never shrinks**: dead workers are
  detected eagerly (an optional background health sweep, plus a
  liveness check before every batch route) and respawned with the
  current ledger replayed, so worker death is invisible to callers —
  a micro-batch that races a death is retried once, transparently, on
  the respawned slot (inference is idempotent).

Determinism contract: a worker rebuilt from a spec attaches the exact
shard bundles and embedding tables the parent serves, loads the exact
trainable weights, and walks with the same deterministic top-k
selection — so process-mode rankings, scores, and rendered
explanations are bit-identical to thread mode (pinned by
``tests/test_runtime.py``).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.agent import REKSAgent
from repro.core.config import REKSConfig
from repro.core.environment import KGEnvironment, RolloutWorkspace
from repro.core.policy import PolicyNetwork
from repro.core.rewards import RewardComputer, RewardWeights
from repro.graphstore import CSRShard, ShardTables, ShardedCSR
from repro.kg.builder import BuiltKG
from repro.runtime.flush import FlushPlan, execute_flush
from repro.runtime.plane import (
    PlaneArena,
    PlaneManifest,
    TablePlane,
    layout_size,
)
from repro.runtime.rings import (
    CorruptPayload,
    RingFull,
    RingManifest,
    RingPair,
    RingUnsuitable,
    WorkerExecError,
    decode_block,
    decode_plan,
    encode_error,
    encode_plan,
    encode_response,
)
from repro.runtime.rowblock import RowBlock
from repro.telemetry.block import BlockManifest, MetricBlock, fleet_schema

# Worst-case telemetry trailer per sampled batch: header + trace echo
# + pad + (collate/cascade/walk/topk/exec) span triples.
_MAX_RESP_SPANS = 8

# Per-shard plane array names (stable across generations).
SHARD_ARRAYS = ("indptr", "rels", "tails", "degrees")
EMB_ENTITY = "emb/entity"
EMB_RELATION = "emb/relation"
# Policy parameters whose payload is plane-backed rather than shipped.
TABLE_PARAMS = ("entity_emb.weight", "relation_emb.weight")


class WorkerDied(RuntimeError):
    """A worker process exited while an operation was in flight."""


class WorkerError(RuntimeError):
    """A worker survived but the requested operation raised."""


@dataclass
class AgentSpec:
    """Picklable recipe for rebuilding an inference agent in a child.

    ``encoder`` rides along by value (its parameters are trainable and
    must match the parent exactly); the policy is rebuilt in the child
    over the plane's embedding views and then patched with
    ``policy_state`` (everything but the table parameters).
    """

    built: BuiltKG
    config: REKSConfig
    encoder: object
    policy_state: Dict[str, np.ndarray]
    model_version: int = 0
    staged: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0, dtype=np.int64),) * 3)

    @classmethod
    def from_agent(cls, agent: REKSAgent,
                   model_version: int = 0) -> "AgentSpec":
        policy_state = {
            name: value
            for name, value in agent.policy.state_dict().items()
            if name not in TABLE_PARAMS}
        return cls(built=agent.env.built, config=agent.config,
                   encoder=agent.encoder, policy_state=policy_state,
                   model_version=model_version,
                   staged=agent.env.staged_snapshot())


def shard_plane_key(sid: int, shard: CSRShard) -> str:
    """Content-addressed generation key of one shard plane."""
    return f"csr:{sid}:{shard.digest()}"


def export_shard_plane(sid: int, shard: CSRShard,
                       backend: str = "auto") -> TablePlane:
    """Publish one shard's bundle as its own plane generation.

    Each shard gets a private segment so a delta publish can retire
    exactly the dirty generations while clean shards' segments — and
    every worker mapping of them — stay untouched.
    """
    return TablePlane.publish(
        {name: getattr(shard.tables, name) for name in SHARD_ARRAYS},
        key=shard_plane_key(sid, shard), backend=backend,
        shard_of={name: sid for name in SHARD_ARRAYS})


def export_shard_planes(env: KGEnvironment,
                        backend: str = "auto") -> Dict[int, TablePlane]:
    """Publish every shard of ``env``'s current store (full export)."""
    store = env.csr_tables()
    return {sid: export_shard_plane(sid, shard, backend=backend)
            for sid, shard in enumerate(store.shards)}


def export_embedding_plane(agent: REKSAgent,
                           backend: str = "auto") -> TablePlane:
    """Publish the policy's entity/relation tables (one per pool)."""
    return TablePlane.publish(
        {EMB_ENTITY: agent.policy.entity_emb.weight.data,
         EMB_RELATION: agent.policy.relation_emb.weight.data},
        key="embeddings", backend=backend)


def shard_from_plane(sid: int, plane: TablePlane, start: int,
                     stop: int, epoch: int = 0) -> CSRShard:
    """Rebuild a shard over a plane's zero-copy views.

    The publisher's content digest rides in the plane key
    (``csr:<sid>:<digest>``), so the attaching side never re-hashes an
    unchanged shard.
    """
    tables = ShardTables(*(plane[name] for name in SHARD_ARRAYS))
    digest = None
    parts = plane.key.split(":")
    if len(parts) == 3 and parts[0] == "csr" and parts[1] == str(sid):
        digest = parts[2]
    return CSRShard(start, stop, tables, epoch=epoch, digest=digest)


def store_from_planes(boundaries: np.ndarray,
                      planes: Dict[int, TablePlane]) -> ShardedCSR:
    """Stitch a full set of attached shard planes into a store."""
    shards = tuple(
        shard_from_plane(sid, planes[sid], int(boundaries[sid]),
                         int(boundaries[sid + 1]))
        for sid in range(len(boundaries) - 1))
    return ShardedCSR(boundaries, shards)


def build_worker_agent(spec: AgentSpec,
                       shard_planes: Dict[int, TablePlane],
                       boundaries: np.ndarray,
                       emb_plane: TablePlane) -> REKSAgent:
    """Reconstruct the serving agent from a spec + attached planes.

    Every large array is a zero-copy plane view; only the trainable
    modules allocate.  The returned agent is eval-mode and owns a fresh
    :class:`RolloutWorkspace` (one per worker process, per the
    single-owner scratch contract).
    """
    cfg = spec.config
    env = KGEnvironment(spec.built, action_cap=cfg.action_cap,
                        seed=cfg.seed + 3,
                        tables=store_from_planes(boundaries, shard_planes))
    if spec.staged[0].size:
        env.stage_edges(*spec.staged)
    policy = PolicyNetwork(
        session_dim=cfg.dim, kg_dim=cfg.dim, state_dim=cfg.state_dim,
        entity_table=emb_plane[EMB_ENTITY],
        relation_table=emb_plane[EMB_RELATION],
        dropout=cfg.dropout, rng=np.random.default_rng(cfg.seed),
        copy_tables=False)
    policy.load_state_dict(spec.policy_state, partial=True)
    rewards = RewardComputer(
        spec.built, emb_plane[EMB_ENTITY], emb_plane[EMB_RELATION],
        weights=RewardWeights(*cfg.reward_weights), mode=cfg.reward_mode,
        gamma=cfg.gamma, rank_k=cfg.rank_k)
    agent = REKSAgent(spec.encoder, policy, env, rewards, cfg,
                      workspace=RolloutWorkspace())
    agent.eval()
    return agent


# ----------------------------------------------------------------------
# Child process loop
# ----------------------------------------------------------------------
def _worker_main(conn, spec: AgentSpec,
                 shard_manifests: Dict[int, PlaneManifest],
                 boundaries: np.ndarray, emb_manifest: PlaneManifest,
                 untrack_shm: bool = False,
                 ring_manifest: Optional[RingManifest] = None,
                 db_req=None, db_resp=None,
                 metrics_manifest: Optional[BlockManifest] = None
                 ) -> None:
    """Entry point of one worker process.

    ``untrack_shm`` stays False for pool-started workers (fork and
    spawn children share the publisher's resource tracker); it exists
    for embedders that run this loop from a foreign interpreter whose
    private tracker would adopt — and later unlink — the live planes.

    With a ``ring_manifest`` the worker also attaches its request /
    response ring pair and serves ``exec`` traffic from it: it blocks
    in ``connection.wait`` on the control pipe *and* the request
    doorbell, so a message on either wakes it and neither side ever
    spins on an idle shared core.
    """
    import traceback

    shard_planes = {sid: TablePlane.attach(manifest, untrack=untrack_shm)
                    for sid, manifest in shard_manifests.items()}
    emb_plane = TablePlane.attach(emb_manifest, untrack=untrack_shm)
    ring = (RingPair.attach(ring_manifest, untrack=untrack_shm)
            if ring_manifest is not None else None)
    metrics = (MetricBlock.attach(metrics_manifest, untrack=untrack_shm,
                                  writer=True)
               if metrics_manifest is not None else None)
    agent = build_worker_agent(spec, shard_planes, boundaries, emb_plane)
    version = spec.model_version
    workspace = agent.workspace
    # The workspace carries the metric block through the walk so the
    # environment / graph store record gather + per-hop timings without
    # any global sink (single-owner scratch contract extends to it).
    workspace.metrics = metrics
    # Whether this worker has ever built a cascade constraint — the
    # trigger for pre-warming the reachability index after a "tables"
    # re-attach (a config-independent signal, unlike the provider knob).
    saw_candidates = False

    def run_exec(plan: FlushPlan) -> Tuple[RowBlock, list, list]:
        """Execute one plan: ``(block, spans, rowrecs)``."""
        nonlocal saw_candidates
        saw_candidates = saw_candidates or plan.candidates is not None
        if metrics is not None and any(plan.traces):
            metrics.count("worker_traces_total",
                          sum(1 for trace in plan.traces if trace))
        return execute_flush(agent, workspace, plan, metrics)

    def serve_ring_request() -> None:
        # The doorbell byte is consumed by the caller; the request is
        # already published (the parent posts payload-then-doorbell),
        # so a short sequence-number poll always finds it.
        payload = ring.poll_request(spin=4096)
        if payload is None:  # pragma: no cover - protocol violation
            raise RuntimeError("ring doorbell without a published slot")
        try:
            plan = decode_plan(payload)
            block, spans, rowrecs = run_exec(plan)
            ring.post_response(encode_response(
                version, block, spans=spans,
                traces=[trace for trace in plan.traces if trace],
                rowrecs=rowrecs))
        except Exception:
            ring.post_response(encode_error(
                traceback.format_exc(),
                ring.manifest.resp_slot_bytes))
        db_resp.send_bytes(b"\x01")

    def prewarm_reachability() -> None:
        """Rebuild the cascade reachability index for the just-attached
        store off the request path (daemon thread; a racing request
        building the same index concurrently is benign — both insert
        the same digest-keyed entry)."""
        from repro.cascade.reachability import get_index

        try:
            get_index(agent.env, agent.config.path_length,
                      metrics=metrics)
        except Exception:  # pragma: no cover - prewarm is best-effort
            pass

    try:
        while True:
            if ring is not None:
                ready = _mp_wait([conn, db_req])
                if db_req in ready:
                    db_req.recv_bytes()
                    serve_ring_request()
                if conn not in ready:
                    continue
            message = conn.recv()
            op = message[0]
            try:
                if op == "exec":
                    block, spans, rowrecs = run_exec(message[1])
                    # The same unrendered block crosses on both
                    # transports; the parent renders at cache
                    # admission (see serving.server).
                    conn.send(("ok", version, block, spans, rowrecs))
                elif op == "swap":
                    _, new_version, state = message
                    # Partial: frozen plane-backed tables are not
                    # shipped (see ProcessWorkerPool.swap).
                    agent.load_state_dict(state, partial=True)
                    version = int(new_version)
                    conn.send(("ok", version))
                elif op == "stage":
                    _, heads, rels, tails = message
                    added = agent.env.stage_edges(heads, rels, tails)
                    conn.send(("ok", added))
                elif op == "tables":
                    # Delta re-attach: only the dirty shards arrive.
                    _, manifests, staged = message
                    store = agent.env.csr_tables()
                    fresh = {sid: TablePlane.attach(manifest,
                                                    untrack=untrack_shm)
                             for sid, manifest in manifests.items()}
                    updates = {
                        sid: shard_from_plane(
                            sid, plane, store.shards[sid].start,
                            store.shards[sid].stop,
                            epoch=store.shards[sid].epoch + 1)
                        for sid, plane in fresh.items()}
                    agent.env.attach_shards(updates, staged)
                    for sid, plane in fresh.items():
                        shard_planes[sid].close()
                        shard_planes[sid] = plane
                    if saw_candidates:
                        threading.Thread(target=prewarm_reachability,
                                         daemon=True).start()
                    conn.send(("ok", agent.env.fingerprint()))
                elif op == "ping":
                    conn.send(("ok", version))
                elif op == "stop":
                    conn.send(("ok", version))
                    return
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception:
                # Operation-level failure: report and keep serving.
                conn.send(("err", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        if ring is not None:
            ring.close()
        if metrics is not None:
            metrics.close()
        for plane in shard_planes.values():
            plane.close()
        emb_plane.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
class _Worker:
    """One child process plus its transports; at most one op in flight.

    Control messages (swap / stage / tables / ping / stop — and any
    ``exec`` the ring cannot carry) ride the duplex pickle pipe; with
    ``transport="ring"`` hot-path ``exec`` batches ride the worker's
    shared-memory ring pair, with a simplex **doorbell pipe** per
    direction carrying a single raw byte per message so the idle peer
    blocks in ``select`` instead of polling.  One lock serializes both
    transports, so a broadcast can never interleave with an in-flight
    micro-batch on the same worker regardless of which road the batch
    took.
    """

    def __init__(self, context, spec: AgentSpec,
                 shard_manifests: Dict[int, PlaneManifest],
                 boundaries: np.ndarray, emb_manifest: PlaneManifest,
                 name: str, index: int, untrack_shm: bool,
                 transport: str = "pipe",
                 metrics_manifest: Optional[BlockManifest] = None
                 ) -> None:
        self.index = index
        self._lock = threading.Lock()
        self.conn, child_conn = context.Pipe(duplex=True)
        self.ring: Optional[RingPair] = None
        self._db_req = self._db_resp = None
        ring_manifest = None
        child_db_req = child_db_resp = None
        if transport == "ring":
            self.ring = RingPair.create()
            ring_manifest = self.ring.manifest
            # Doorbells: parent -> child for requests, child -> parent
            # for responses (recv end first from Pipe(duplex=False)).
            child_db_req, self._db_req = context.Pipe(duplex=False)
            self._db_resp, child_db_resp = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, spec, shard_manifests, boundaries,
                  emb_manifest, untrack_shm, ring_manifest,
                  child_db_req, child_db_resp, metrics_manifest),
            name=name, daemon=True)
        self.process.start()
        child_conn.close()  # parent keeps only its end
        if child_db_req is not None:
            child_db_req.close()
            child_db_resp.close()

    def request(self, message: tuple):
        """Round-trip one pipe message; raises WorkerDied/WorkerError."""
        with self._lock:
            try:
                self.conn.send(message)
                reply = self.conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerDied(
                    f"worker {self.process.name} (pid "
                    f"{self.process.pid}) died during {message[0]!r}"
                ) from exc
        if reply[0] == "err":
            raise WorkerError(reply[1])
        return reply[1:]

    def exec_batch(self, plan: FlushPlan, max_len: int, resp_bound: int
                   ) -> Tuple[str, int, RowBlock, list, list]:
        """Run one flush plan over the best transport available.

        Returns ``(used, version, block, spans, rowrecs)`` where
        ``used`` is ``"ring"``, ``"pipe"`` (this worker has no ring),
        or ``"fallback"`` (it has one, but this plan could not ride it
        — oversize payload, un-encodable values, or a full ring).  The
        answer is the same unrendered
        :class:`~repro.runtime.rowblock.RowBlock` on every transport;
        ``spans`` and ``rowrecs`` are
        :func:`~repro.runtime.flush.execute_flush`'s (empty when no
        request was sampled).
        """
        used = "pipe"
        if self.ring is not None:
            used = "fallback"
            manifest = self.ring.manifest
            try:
                payload = encode_plan(plan, max_len)
            except RingUnsuitable:
                payload = None
            if (payload is not None
                    and len(payload) <= manifest.req_slot_bytes
                    and resp_bound <= manifest.resp_slot_bytes):
                with self._lock:
                    try:
                        self.ring.post_request(payload)
                    except RingFull:
                        pass
                    else:
                        self._db_req.send_bytes(b"\x01")
                        raw = self._await_ring_response()
                        try:
                            version, block, spans, _, rowrecs = (
                                decode_block(raw))
                        except WorkerExecError as exc:
                            raise WorkerError(str(exc)) from None
                        return "ring", version, block, spans, rowrecs
        return (used,) + self.request(("exec", plan))

    def _await_ring_response(self) -> bytes:
        """Block on the response doorbell (or the child's death).

        Strict accounting — exactly one doorbell byte per response —
        keeps the ring tickets and the doorbell pipe in lockstep, so a
        wake always finds its slot published (the worker posts the
        payload before ringing).
        """
        while True:
            try:
                ready = _mp_wait([self._db_resp, self.process.sentinel])
            except OSError as exc:  # pragma: no cover - defensive
                raise WorkerDied(
                    f"worker {self.process.name} lost its doorbell"
                ) from exc
            if self._db_resp in ready:
                try:
                    self._db_resp.recv_bytes()
                except (EOFError, OSError) as exc:
                    raise WorkerDied(
                        f"worker {self.process.name} (pid "
                        f"{self.process.pid}) died mid-batch") from exc
                payload = self.ring.poll_response(spin=4096)
                if payload is None:  # pragma: no cover - protocol bug
                    raise WorkerDied(
                        f"worker {self.process.name} rang with no "
                        f"published response slot")
                self.ring.note_response_consumed()
                return payload
            raise WorkerDied(
                f"worker {self.process.name} (pid {self.process.pid}) "
                f"died during 'exec'")

    def close_transports(self) -> None:
        for conn in (self.conn, self._db_req, self._db_resp):
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if self.ring is not None:
            self.ring.unlink()

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            self.request(("stop",))
        except (WorkerDied, WorkerError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.terminate()
            self.process.join(timeout)
        self.close_transports()


def resolve_context(name: str = "auto"):
    """Pick a multiprocessing start method.

    ``auto`` prefers ``fork`` only on Linux (cheap bootstrap, inherits
    the parent's imports); elsewhere it picks ``spawn`` — macOS lists
    fork but CPython switched its default away from it because forking
    a process that uses system frameworks is crash-prone.  ``spawn``
    works everywhere because every spec component is picklable, but
    pays a fresh-interpreter import per worker.  Explicit names are
    honored as given.  See the runtime README for the full caveat
    list (including respawn-forks from an already-threaded parent).
    """
    import multiprocessing as mp
    import sys as _sys

    if name == "auto":
        name = ("fork" if _sys.platform.startswith("linux")
                and "fork" in mp.get_all_start_methods() else "spawn")
    if name not in mp.get_all_start_methods():
        raise ValueError(f"start method {name!r} unavailable "
                         f"(have {mp.get_all_start_methods()})")
    return mp.get_context(name)


class ProcessWorkerPool:
    """Fixed-size pool of process workers over shared shard planes.

    The pool owns one embedding plane (frozen tables never change) and
    one plane generation **per graph-store shard** (dirty ones replaced
    by :meth:`publish_tables` after a compaction).  Broadcast
    operations (``swap`` / ``stage_edges`` / ``publish_tables``)
    serialize against in-flight executions per worker, and their
    effects are recorded so a respawned worker can be bootstrapped back
    to the pool's current state.

    ``health_interval_s`` arms a background sweep that respawns dead
    workers between batches (eager death detection); independent of the
    sweep, :meth:`execute` checks liveness before routing and retries a
    batch once on a respawned slot, so a worker death never surfaces to
    a caller as a failed future.
    """

    def __init__(self, agent: REKSAgent, workers: int,
                 mp_context: str = "auto", plane_backend: str = "auto",
                 model_version: int = 0,
                 health_interval_s: Optional[float] = None,
                 transport: str = "ring",
                 metrics_registry=None,
                 metrics_block=None) -> None:
        if workers < 1:
            raise ValueError(f"need >= 1 worker, got {workers}")
        if transport not in ("pipe", "ring"):
            raise ValueError(
                f"transport must be 'pipe' or 'ring', got {transport!r}")
        if health_interval_s is not None and health_interval_s < 0:
            # Event.wait(negative) returns at once: the sweep would spin.
            raise ValueError(
                f"health_interval_s must be None (off) or >= 0, "
                f"got {health_interval_s}")
        self._context = resolve_context(mp_context)
        self._spec = AgentSpec.from_agent(agent,
                                          model_version=model_version)
        self._backend = plane_backend
        if transport == "ring":
            # Probe once: a host without usable POSIX shared memory
            # (rings require it even when the planes fell back to
            # mmap) serves over the pipe instead of failing.
            try:
                RingPair.create(slots=1, req_slot_bytes=64,
                                resp_slot_bytes=64).unlink()
            except (ImportError, OSError):
                transport = "pipe"
        self.transport = transport
        self._max_len = self._spec.config.max_session_length
        # Worst-case per-cell response bytes: items + scores + path_len
        # + a full-length path (2L+1 int32 nodes) + its prob.
        self._resp_cell_bytes = (
            4 + 8 + 4 + (2 * self._spec.config.path_length + 1) * 4 + 8)
        # Transport accounting (tests assert on these).
        self.ring_batches = 0
        self.pipe_batches = 0
        self.ring_fallbacks = 0
        self._counter_lock = threading.Lock()
        self._emb_plane = export_embedding_plane(agent,
                                                 backend=plane_backend)
        store = agent.env.csr_tables()
        self._boundaries = np.array(store.boundaries, dtype=np.int64)
        self._csr_planes = export_shard_planes(agent.env,
                                               backend=plane_backend)
        # Telemetry: one shared-memory metric block per worker role
        # (created by the parent's registry so retire-on-respawn folds
        # counts without double counting), plus an optional
        # parent-written block for the pool's own transport counters.
        self._metrics_registry = metrics_registry
        self._metrics = metrics_block
        self._metrics_schema = fleet_schema(
            num_shards=len(self._csr_planes),
            hops=self._spec.config.path_length)
        # Double-buffered delta publish: each dirty-shard generation is
        # written into that shard's *spare* arena and flipped live, so
        # steady state re-publishes allocate zero new segments.
        # _shard_arenas maps sid -> the arena backing its live plane
        # (absent while the live plane is still the initial one-shot
        # export); _spare_arenas holds the write target for the next
        # publish of that shard.
        self._shard_arenas: Dict[int, PlaneArena] = {}
        self._spare_arenas: Dict[int, PlaneArena] = {}
        self._shard_digests = {sid: shard.digest()
                               for sid, shard in enumerate(store.shards)}
        self._csr_key = agent.env.fingerprint()
        # Current-state ledger for respawn bootstrap.
        self._version = int(model_version)
        self._swap_state: Optional[dict] = None
        # Frozen parameters are plane-backed in every worker; swaps
        # drop them from the broadcast (partial load child-side) so a
        # hot swap ships only the trainable weights.
        self._frozen_keys = {
            name for name, param in agent.named_parameters()
            if not param.requires_grad}
        self._staged_log: List[tuple] = []
        self.generation = 0
        self.respawns = 0
        # Failed respawn attempts from the health sweep (observable
        # signal that recovery itself is broken, e.g. fd exhaustion).
        self.health_failures = 0
        # What the last delta publish actually shipped (manifest-level
        # accounting: dirty shard ids + exported bytes) — tests assert
        # delta cost against it.
        self.last_publish: Optional[dict] = None
        # One re-entrant lock serializes everything that touches the
        # state ledger: broadcasts (which mutate it first, then
        # deliver) and respawns (which replay it).  Re-entrant so a
        # broadcast that finds a corpse can respawn under its own
        # lock; execute() only takes it on the death path, never per
        # batch.
        self._state_lock = threading.RLock()
        # Serializes whole publishes so the slow segment export can run
        # outside the state lock without two publishers interleaving.
        self._publish_lock = threading.Lock()
        self._closed = False
        self.size = workers
        # Workers never untrack: multiprocessing children (fork AND
        # spawn) share the parent's resource tracker — the fd rides in
        # the spawn preparation data — so their attach registrations
        # land in the owner's tracker and the owner's unlink cleans up.
        # TablePlane.attach(untrack=True) exists for *foreign*
        # processes (not started by this interpreter's multiprocessing)
        # whose private tracker would adopt and kill the segments.
        self._untrack_shm = False
        self._workers = [self._spawn(i) for i in range(workers)]
        self._idle: "queue.LifoQueue[_Worker]" = queue.LifoQueue()
        for worker in self._workers:
            self._idle.put(worker)
        self._publish_alive()
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if health_interval_s:
            self._health_thread = threading.Thread(
                target=self._health_loop, args=(float(health_interval_s),),
                name="reks-procpool-health", daemon=True)
            self._health_thread.start()

    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        manifests = {sid: plane.manifest
                     for sid, plane in self._csr_planes.items()}
        metrics_manifest = None
        if self._metrics_registry is not None:
            # create_block retires any stale block under this role
            # first (final snapshot folded into the retained
            # accumulators), so a respawn re-registers a zeroed block
            # and the fleet totals never double count.
            block = self._metrics_registry.create_block(
                f"worker{index}", self._metrics_schema)
            metrics_manifest = block.manifest
        return _Worker(self._context, self._spec, manifests,
                       self._boundaries, self._emb_plane.manifest,
                       name=f"reks-procworker-{index}", index=index,
                       untrack_shm=self._untrack_shm,
                       transport=self.transport,
                       metrics_manifest=metrics_manifest)

    def _bootstrap(self, worker: _Worker) -> None:
        """Replay the pool's current state into a fresh worker."""
        for heads, rels, tails in self._staged_log:
            worker.request(("stage", heads, rels, tails))
        if self._swap_state is not None:
            worker.request(("swap", self._version, self._swap_state))

    def _respawn(self, dead: _Worker) -> _Worker:
        """Replace a dead worker's slot (the pool never shrinks).

        Idempotent per corpse: a dead worker can be observed several
        times — by the health sweep, by a broadcast walking
        ``_workers``, and by an ``execute`` that popped the stale
        object from the idle queue — and only the first observer spawns
        a replacement; later observers are handed the already-live slot
        occupant.  Runs under the state lock, and broadcasts mutate the
        ledger *before* delivering, so a worker respawned mid-broadcast
        is bootstrapped onto the ledger state that broadcast is
        delivering — never one behind.
        """
        with self._state_lock:
            current = self._workers[dead.index]
            if current is not dead:
                return current  # already replaced by another observer
            try:
                dead.process.join(0.1)
            except OSError:  # pragma: no cover - defensive
                pass
            dead.close_transports()  # also retires the corpse's ring
            fresh = self._spawn(dead.index)
            self._bootstrap(fresh)
            self._workers[dead.index] = fresh
            self.respawns += 1
            if self._metrics is not None:
                self._metrics.count("worker_respawns_total")
            self._publish_alive()
            return fresh

    def _publish_alive(self) -> None:
        """``workers_alive`` gauge: worker processes running now."""
        if self._metrics is not None:
            self._metrics.gauge("workers_alive", float(sum(
                worker.process.exitcode is None
                for worker in self._workers)))

    def _health_loop(self, interval: float) -> None:
        """Background sweep: respawn dead workers between batches.

        Uses the cheap ``exitcode`` poll (no pipe round-trip, so it
        never contends with an in-flight micro-batch on a live
        worker); a corpse found here is replaced before the next batch
        is routed to its slot.
        """
        while not self._health_stop.wait(interval):
            if self._closed:
                return
            for slot in range(self.size):
                worker = self._workers[slot]
                if worker.process.exitcode is not None:
                    try:
                        self._respawn(worker)
                    except Exception:  # pragma: no cover - last resort
                        # Persistent respawn failure (fd exhaustion,
                        # fork errors) must stay observable: count it
                        # rather than silently retrying forever.
                        self.health_failures += 1
            self._publish_alive()

    # ------------------------------------------------------------------
    # Micro-batch execution
    # ------------------------------------------------------------------
    def execute(self, examples: Sequence[tuple],
                k: Union[int, Sequence[int]]) -> Tuple[int, List[tuple]]:
        """:meth:`execute_block` on a plain batch (``k`` one top-k for
        every example or one each), answering ``(model_version, rows)``
        with the block as unrendered ``(items, scores, path_blobs)``
        list rows."""
        ks = ([int(k)] * len(examples) if isinstance(k, (int, np.integer))
              else [int(v) for v in k])
        version, block, _, _ = self.execute_block(
            FlushPlan.build(list(examples), ks))
        return version, block.to_rows()

    def execute_block(self, plan: FlushPlan
                      ) -> Tuple[int, RowBlock, List[tuple], List[tuple]]:
        """Run one flush plan on an idle worker.

        Returns ``(model_version, block, spans, rowrecs)``: the version
        is the one the worker actually executed with (a swap broadcast
        can land between submission and execution, never mid-batch),
        ``block`` the unrendered
        :class:`~repro.runtime.rowblock.RowBlock` exactly as it crossed
        the transport, one row per ``plan.pairs`` entry — rendering and
        the ``plan.fan_out`` back to requests happen in the serving
        layer — and ``spans`` / ``rowrecs`` the worker's batch spans
        and per-row attribution records (empty unless the plan carries
        a sampled trace id).

        Worker death is invisible here: a corpse popped from the idle
        queue is swapped for its respawned slot occupant before
        routing, and a batch that races a death mid-flight is
        re-executed once on a fresh respawn (idempotent — pure
        inference).  :class:`WorkerDied` escapes only if the respawned
        worker dies too.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        resp_ks = [k for _, k in plan.pairs]
        n_sampled = sum(1 for trace in plan.traces if trace)
        resp_bound = (64 + 4 * len(resp_ks)
                      + sum(resp_ks) * self._resp_cell_bytes)
        if n_sampled:
            # Telemetry trailer: header + trace echo + pad + spans,
            # then the per-row section (header + int records + pad +
            # two f64 durations per sampled row).
            hops = self._spec.config.path_length
            resp_bound += 16 + 4 * n_sampled + 24 * _MAX_RESP_SPANS
            resp_bound += (16 + 4 * (1 + hops) * n_sampled
                           + 16 * n_sampled)
        worker = self._idle.get()
        try:
            if worker.process.exitcode is not None:
                # Died while idle (or a stale corpse whose slot the
                # health sweep already refilled): route to the live
                # occupant instead of failing the batch.
                worker = self._respawn(worker)
            try:
                used, version, block, spans, rowrecs = worker.exec_batch(
                    plan, self._max_len, resp_bound)
            except WorkerDied:
                worker = self._respawn(worker)
                try:
                    used, version, block, spans, rowrecs = (
                        worker.exec_batch(plan, self._max_len, resp_bound))
                except WorkerDied:
                    worker = self._respawn(worker)
                    raise
        finally:
            self._idle.put(worker)
        if len(block) != len(resp_ks):
            raise CorruptPayload(
                f"asked for {len(resp_ks)} rows, the worker answered "
                f"{len(block)}")
        with self._counter_lock:
            if used == "ring":
                self.ring_batches += 1
            else:
                self.pipe_batches += 1
                if used == "fallback":
                    self.ring_fallbacks += 1
        if self._metrics is not None:
            self._metrics.count("ring_batches_total"
                                if used == "ring"
                                else "pipe_batches_total")
            if used == "fallback":
                self._metrics.count("ring_fallbacks_total")
        return int(version), block, spans, rowrecs

    # ------------------------------------------------------------------
    # Broadcasts
    # ------------------------------------------------------------------
    def _deliver(self, message: tuple) -> List[tuple]:
        """Deliver one message to every live slot (state lock held).

        Each worker is locked for its round-trip, so a broadcast never
        interleaves with a micro-batch on the same worker; different
        workers may see the broadcast at different batch boundaries
        (same contract as thread mode, where each batch reads the live
        agent pointer once).  Callers mutate the state ledger *before*
        delivering, which makes failure handling convergent: a worker
        that died — or errored applying the op, leaving its state
        unknowable — is replaced, and the respawn bootstrap replays
        the already-updated ledger, so every slot ends on the new
        state and the pool never serves mixed generations.
        """
        replies = []
        for slot in range(self.size):
            worker = self._workers[slot]
            try:
                replies.append(worker.request(message))
            except WorkerDied:
                self._respawn(worker)  # bootstrap replays the ledger
                replies.append(("bootstrapped",))
            except WorkerError:
                # The op failed in a live worker (e.g. a mid-apply
                # exception): its state no longer matches the ledger.
                # Replace it; the bootstrap replays the ledger.
                try:
                    worker.process.terminate()
                    worker.process.join(5.0)
                except OSError:  # pragma: no cover - defensive
                    pass
                self._respawn(worker)
                replies.append(("bootstrapped",))
        return replies

    def swap(self, version: int, state: dict) -> None:
        """Roll every worker to checkpoint ``state`` tagged ``version``.

        Frozen (plane-backed) parameters are dropped from the
        broadcast — at paper dims they dominate the checkpoint, every
        worker already reads them from shared memory, and a frozen
        table never changes between checkpoints of one stack — so the
        pipe carries only the trainable weights.
        """
        state = {key: value for key, value in state.items()
                 if key not in self._frozen_keys}
        with self._state_lock:
            self._version = int(version)
            self._swap_state = state
            self._deliver(("swap", int(version), state))

    def stage_edges(self, heads, rels, tails) -> int:
        """Stage overlay edges in every worker environment."""
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        with self._state_lock:
            self._staged_log.append((heads, rels, tails))
            replies = self._deliver(("stage", heads, rels, tails))
        for reply in replies:
            if reply and reply[0] != "bootstrapped":
                return int(reply[0])
        return 0

    def publish_tables(self, env: KGEnvironment) -> str:
        """Delta-publish ``env``'s current store to every worker.

        Compares each shard's content digest against the generation the
        pool last exported and ships **only the dirty shards**: fresh
        segments are published per dirty shard, the delta manifest is
        broadcast, workers re-attach just those shards (clearing only
        their overlay slices — see
        :meth:`~repro.core.environment.KGEnvironment.attach_shards` —
        and replaying ``env``'s still-staged edges for them), and the
        retired backing flips to the shard's spare arena (or, for the
        initial one-shot export, is unlinked) once every worker has
        moved.  With no dirty shard this is a no-op returning the
        current generation key.

        Segment accounting rides in
        ``last_publish["segments_allocated"]``: the first two publishes
        of a shard each allocate one arena (the double buffer priming
        itself); from the third on, the write lands in the spare retired
        two generations ago — which every worker un-mapped before
        acking the previous broadcast — and the steady-state count is
        zero.
        """
        store = env.csr_tables()
        # One publisher at a time; the slow part — segment writes + the
        # per-shard byte copy — runs OUTSIDE the state lock so corpse
        # respawns, pings, and execute()'s recovery path never queue
        # behind a large export.  Only the ledger mutation + delivery
        # take the state lock.
        with self._publish_lock:
            with self._state_lock:
                digests = dict(self._shard_digests)
            dirty = {sid: shard for sid, shard in enumerate(store.shards)
                     if digests.get(sid) != shard.digest()}
            if not dirty:
                return self._csr_key
            staged_all = env.staged_by_shard()
            staged_dirty = {sid: staged_all[sid] for sid in dirty
                            if sid in staged_all}
            fresh: Dict[int, TablePlane] = {}
            fresh_arenas: Dict[int, PlaneArena] = {}
            segments_allocated = 0
            for sid, shard in dirty.items():
                arrays = {name: getattr(shard.tables, name)
                          for name in SHARD_ARRAYS}
                arena = self._spare_arenas.pop(sid, None)
                if arena is not None and not arena.fits(arrays):
                    # Shard outgrew its buffer; retire and re-size.
                    arena.unlink()
                    arena = None
                if arena is None:
                    # 25% headroom so ordinary delta growth keeps
                    # fitting the same arena across generations.
                    capacity = layout_size(arrays) * 5 // 4 + 64
                    arena = PlaneArena.create(capacity,
                                              backend=self._backend)
                    segments_allocated += 1
                fresh[sid] = arena.write(
                    arrays, key=shard_plane_key(sid, shard),
                    shard_of={name: sid for name in SHARD_ARRAYS})
                fresh_arenas[sid] = arena
            with self._state_lock:
                retired = {sid: self._csr_planes[sid] for sid in dirty}
                retired_arenas = {
                    sid: self._shard_arenas.pop(sid)
                    for sid in dirty if sid in self._shard_arenas}
                self._csr_planes.update(fresh)
                self._shard_arenas.update(fresh_arenas)
                self._shard_digests.update(
                    {sid: shard.digest() for sid, shard in dirty.items()})
                self._csr_key = env.fingerprint()
                # Respawn bootstrap replays the parent's full overlay
                # onto the freshly-attached store (duplicates of
                # already-staged broadcasts dedup to no-ops child-side).
                snapshot = env.staged_snapshot()
                self._staged_log = ([snapshot] if snapshot[0].size
                                    else [])
                self.generation += 1
                self.last_publish = {
                    "shards": sorted(dirty),
                    "total_shards": store.num_shards,
                    "nbytes": sum(plane.nbytes
                                  for plane in fresh.values()),
                    "segments_allocated": segments_allocated,
                    "key": self._csr_key,
                }
                self._deliver(
                    ("tables",
                     {sid: plane.manifest
                      for sid, plane in fresh.items()},
                     staged_dirty))
            # Workers detached from the retired generations in the
            # broadcast (respawned ones never attached them).  An
            # arena-backed retiree keeps its segment and becomes the
            # shard's spare — the write target of the next publish of
            # that shard; the initial one-shot export is unlinked for
            # good.
            for sid, plane in retired.items():
                if sid in retired_arenas:
                    self._spare_arenas[sid] = retired_arenas[sid]
                else:
                    plane.unlink()
        return self._csr_key

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    @property
    def plane_key(self) -> str:
        """Environment fingerprint of the last exported generation."""
        return self._csr_key

    @property
    def plane_nbytes(self) -> int:
        return (sum(plane.nbytes for plane in self._csr_planes.values())
                + self._emb_plane.nbytes)

    @property
    def num_shards(self) -> int:
        return len(self._csr_planes)

    def shard_manifests(self) -> Dict[int, PlaneManifest]:
        """The per-shard manifest directory of the current generation."""
        with self._state_lock:
            return {sid: plane.manifest
                    for sid, plane in self._csr_planes.items()}

    def ping(self) -> List[int]:
        """Liveness probe; returns each worker's model version.

        Dead workers are respawned (and bootstrapped to the current
        ledger) as a side effect, so a periodic ping doubles as eager
        death detection (the built-in health sweep uses the cheaper
        ``exitcode`` poll instead so it never queues behind a long
        micro-batch).
        """
        with self._state_lock:
            replies = self._deliver(("ping",))
        return [self._version if reply[0] == "bootstrapped"
                else int(reply[0]) for reply in replies]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        for worker in self._workers:
            worker.shutdown()
        if self._metrics_registry is not None:
            # Fold final worker counts into the retained accumulators
            # (the blocks outlive their writers just long enough to be
            # read) and unlink the segments.
            for index in range(self.size):
                self._metrics_registry.retire(f"worker{index}")
        for sid, plane in self._csr_planes.items():
            if sid not in self._shard_arenas:
                plane.unlink()
        for arena in self._shard_arenas.values():
            arena.unlink()
        for arena in self._spare_arenas.values():
            arena.unlink()
        self._emb_plane.unlink()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ProcessWorkerPool(size={self.size}, "
                f"version={self._version}, generation={self.generation}, "
                f"shards={self.num_shards}, plane={self.plane_key!r}, "
                f"respawns={self.respawns})")
