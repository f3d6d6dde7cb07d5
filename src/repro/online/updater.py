"""Background fine-tune → publish loop closing the train→serve cycle.

An :class:`OnlineUpdater` owns the *training replica* of the stack (a
:class:`~repro.core.trainer.REKSTrainer`) and periodically:

1. compacts the environment's staged edge overlay so fine-tune walks
   see the freshest adjacency in CSR form;
2. drains buffered sessions from the :class:`~repro.online.ingest.DeltaIngestor`
   and runs a bounded number of ordinary training steps on them
   (:meth:`REKSTrainer.finetune`);
3. publishes the updated weights to the
   :class:`~repro.online.registry.CheckpointRegistry` with the KG
   fingerprint in the manifest;
4. invokes ``on_publish(version)`` — typically
   ``server.swap_model`` — so live servers roll over with zero
   downtime.

Thread model: the updater trains on its *own* thread with gradient
mode enabled there (grad mode is thread-local — see
``repro.autograd.tensor``), while serving workers run ``no_grad``
walks on *cloned* agents (:func:`repro.core.agent.clone_agent`, which
every :meth:`~repro.serving.server.RecommendationServer.swap_model`
performs).  The trainer's own agent must therefore not serve traffic
while the background loop is running — publish + swap is the hand-off.

Process model (``mode="subprocess"``): the fine-tune replica lives in
a **forked child interpreter**, so a training round no longer competes
with serving workers for this process's GIL.  Each round the parent
drains the ingestor's buffered sessions over a pipe; the child
re-derives their KG edges into its own environment, fine-tunes its own
trainer copy, and publishes through the (file-locked)
:class:`~repro.online.registry.CheckpointRegistry`; the parent then
fires ``on_publish`` — servers load the checkpoint from disk exactly
as in thread mode.  The parent's trainer weights intentionally stay at
their fork-time values (the child owns the evolving replica; the
registry is the source of truth).  Requires the ``fork`` start method
(the live environment cannot be pickled for ``spawn``); raw-triple
deltas ingested via ``ingest_triples`` reach the child only at the
next fork, so stacks relying on them should stay in thread mode.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Callable, List, Optional

from repro.online.ingest import DeltaIngestor
from repro.online.registry import CheckpointRegistry
from repro.telemetry.block import BlockManifest, MetricBlock


# Niceness of the subprocess fine-tune child.  With spare cores it is
# irrelevant (the child runs on its own core); on a saturated host it
# keeps the scheduler from granting the trainer long quanta at
# serving's expense: training is the batch workload, serving the
# latency workload.
CHILD_NICENESS = 10


def _run_round(trainer, ingestor: DeltaIngestor,
               registry: CheckpointRegistry, sessions,
               max_steps: int, metrics: Optional[MetricBlock] = None
               ) -> int:
    """One compact → fine-tune → publish round (caller's interpreter).

    Shared by the inline path (:meth:`OnlineUpdater.run_once`) and the
    subprocess child loop so both publish byte-identical manifests.
    With a ``metrics`` block the round's phases land in the fleet
    telemetry plane (``online_round/compact/publish_seconds``,
    ``online_rounds/sessions_total``) — written by whichever
    interpreter runs the round, merged by the parent registry.
    """
    started = perf_counter()
    ingestor.compact()  # fine-tune walks on merged CSR tables
    compacted = perf_counter()
    diagnostics = {"steps": 0.0}
    if sessions:
        diagnostics = trainer.finetune(sessions, max_steps=max_steps)
    publish_t0 = perf_counter()
    meta = {
        "model": trainer.model_name,
        "dataset": trainer.dataset.name,
        "dim": trainer.config.dim,
        "kg_fingerprint": trainer.env.fingerprint(),
        "sessions": len(sessions),
        "steps": int(diagnostics["steps"]),
        "loss": diagnostics.get("loss"),
        "round_seconds": perf_counter() - started,
    }
    version = registry.publish(trainer.agent.state_dict(), meta=meta)
    if metrics is not None:
        done = perf_counter()
        metrics.count("online_rounds_total")
        metrics.count("online_sessions_total", len(sessions))
        metrics.observe("online_compact_seconds", compacted - started)
        metrics.observe("online_publish_seconds", done - publish_t0)
        metrics.observe("online_round_seconds", done - started)
    return version


def _updater_child_main(conn, trainer, registry_root, keep_last: int,
                        compact_every: int, max_steps: int,
                        metrics_manifest: Optional[BlockManifest] = None
                        ) -> None:
    """Child loop of the subprocess updater.

    Owns a forked copy of the trainer (environment included) plus its
    own registry handle and ingestor; sessions arrive over the pipe
    and their KG edges are re-derived locally, mirroring what the
    parent's ingestor staged into the serving environment.  The child
    deprioritizes itself by :data:`CHILD_NICENESS`.
    """
    import traceback

    try:
        os.nice(CHILD_NICENESS)
    except OSError:  # pragma: no cover - restricted environments
        pass

    # Fork hygiene: the parent is multi-threaded, so the inherited
    # overlay lock may be captured held and the staged dict captured
    # mid-mutation.  This child re-derives every edge from the
    # sessions shipped to it, so it starts from a fresh lock and an
    # empty overlay rather than trusting fork-time state.
    trainer.env.reset_overlay_after_fork()
    registry = CheckpointRegistry(registry_root, keep_last=keep_last)
    ingestor = DeltaIngestor(trainer.built, trainer.env,
                             compact_every=compact_every)
    # The parent owns the block's segment (it outlives child respawns);
    # this child only attaches as the writer.
    metrics = (MetricBlock.attach(metrics_manifest, writer=True)
               if metrics_manifest is not None else None)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, KeyboardInterrupt):
                return
            if message[0] == "stop":
                conn.send(("ok",))
                return
            if message[0] != "round":  # pragma: no cover - protocol guard
                conn.send(("err", f"unknown op {message[0]!r}"))
                continue
            _, sessions = message
            try:
                if sessions:
                    ingest_t0 = perf_counter()
                    ingestor.ingest_sessions(sessions)
                    # The round fine-tunes on the pipe-shipped list;
                    # drain the ingestor's duplicate buffer or the
                    # persistent child accumulates every session it
                    # ever saw.
                    ingestor.drain_sessions()
                    if metrics is not None:
                        metrics.observe("online_ingest_seconds",
                                        perf_counter() - ingest_t0)
                version = _run_round(trainer, ingestor, registry,
                                     sessions, max_steps, metrics)
                conn.send(("published", version))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    finally:
        if metrics is not None:
            metrics.close()


class OnlineUpdater:
    """Drive ingest → fine-tune → publish rounds, inline or background.

    Parameters
    ----------
    trainer:
        The training replica whose agent is fine-tuned and checkpointed.
    ingestor:
        Source of buffered session deltas (and staged KG edges).
    registry:
        Destination for published checkpoints.
    min_sessions / max_steps / interval_s:
        A round is skipped while fewer than ``min_sessions`` sessions
        are buffered; each round runs at most ``max_steps`` fine-tune
        batches; the background loop polls every ``interval_s`` seconds.
    mode:
        ``"thread"`` fine-tunes in this interpreter, ``"subprocess"`` in
        a forked child (see the module docstring).
    on_publish:
        Optional callback invoked with each new version id after a
        successful publish (exceptions are captured per round, not
        raised into the loop).
    """

    def __init__(self, trainer, ingestor: DeltaIngestor,
                 registry: CheckpointRegistry, *,
                 min_sessions: int = 64, max_steps: int = 8,
                 interval_s: float = 5.0,
                 on_publish: Optional[Callable[[int], None]] = None,
                 mode: str = "thread",
                 metrics_registry=None) -> None:
        if min_sessions < 1:
            raise ValueError(
                f"min_sessions must be >= 1, got {min_sessions}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if mode not in ("thread", "subprocess"):
            raise ValueError(
                f"mode must be 'thread' or 'subprocess', got {mode!r}")
        self.trainer = trainer
        self.ingestor = ingestor
        self.registry = registry
        self.min_sessions = min_sessions
        self.max_steps = max_steps
        self.interval_s = interval_s
        self.mode = mode
        self.on_publish = on_publish
        # Fleet telemetry: one "updater" role block in the caller's
        # MetricsRegistry (usually the serving server's).  The parent
        # owns the segment; thread-mode rounds write it directly, while
        # subprocess mode ships the manifest to the forked child, which
        # attaches as the writer — either way the registry's merged
        # snapshot carries the online round/ingest/compact/publish
        # timings next to the serving counters.
        self._metrics_registry = metrics_registry
        self._metrics = None
        if metrics_registry is not None:
            from repro.telemetry.block import fleet_schema
            self._metrics = metrics_registry.create_block(
                "updater", fleet_schema(hops=trainer.config.path_length))
        self.rounds = 0
        self.published: List[int] = []
        self.last_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Subprocess mode: one persistent forked child owning the
        # fine-tune replica; guarded by a lock so the background loop
        # and explicit run_once calls serialize on the pipe.
        self._child = None
        self._child_conn = None
        self._child_lock = threading.Lock()

    # ------------------------------------------------------------------
    # One round (also the unit the tests drive deterministically)
    # ------------------------------------------------------------------
    def run_once(self, force: bool = False) -> Optional[int]:
        """One ingest→fine-tune→publish round.

        Returns the published version id, or None when the round was
        skipped (fewer than ``min_sessions`` buffered and not
        ``force``).  ``force`` with an empty buffer still publishes —
        that is how the very first checkpoint (the warm-start weights
        a server boots from) enters the registry.
        """
        if not force and self.ingestor.pending_sessions < self.min_sessions:
            return None
        sessions = self.ingestor.drain_sessions()
        if self.mode == "subprocess":
            version = self._round_in_subprocess(sessions)
        else:
            version = _run_round(self.trainer, self.ingestor,
                                 self.registry, sessions, self.max_steps,
                                 self._metrics)
        self.rounds += 1
        self.published.append(version)
        if self.on_publish is not None:
            try:
                self.on_publish(version)
            except BaseException as exc:  # keep the loop alive
                self.last_error = exc
        return version

    # ------------------------------------------------------------------
    # Subprocess isolation
    # ------------------------------------------------------------------
    def _ensure_child(self):
        """Fork the persistent fine-tune child on first use."""
        if self._child is not None and self._child.is_alive():
            return
        from repro.runtime import resolve_context

        try:
            context = resolve_context("fork")
        except ValueError as exc:
            raise RuntimeError(
                "subprocess updater mode needs the 'fork' start method "
                "(the live environment cannot be pickled for spawn); "
                "use mode='thread' on this platform") from exc
        self._child_conn, child_end = context.Pipe(duplex=True)
        self._child = context.Process(
            target=_updater_child_main,
            args=(child_end, self.trainer, self.registry.root,
                  self.registry.keep_last, self.ingestor.compact_every,
                  self.max_steps,
                  self._metrics.manifest
                  if self._metrics is not None else None),
            name="reks-online-updater-proc", daemon=True)
        self._child.start()
        child_end.close()

    def _round_in_subprocess(self, sessions) -> int:
        """Ship one round to the child and wait for its publish.

        Blocking here costs only the *calling* thread — serving workers
        keep executing because the fine-tune compute happens in the
        child interpreter, which is the entire point of the mode.
        """
        with self._child_lock:
            self._ensure_child()
            self._child_conn.send(("round", list(sessions)))
            reply = self._child_conn.recv()
        if reply[0] == "published":
            # The parent's own environment already carries these edges
            # (the ingestor staged them at ingest time); compact so the
            # serving adjacency matches the fingerprint just published.
            self.ingestor.compact()
            return int(reply[1])
        raise RuntimeError(
            f"subprocess fine-tune round failed:\n{reply[1]}")

    def _stop_child(self) -> None:
        with self._child_lock:
            if self._child is None:
                return
            try:
                self._child_conn.send(("stop",))
                self._child_conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                pass
            self._child.join(5.0)
            if self._child.is_alive():  # pragma: no cover - stuck child
                self._child.terminate()
                self._child.join(5.0)
            self._child_conn.close()
            self._child = None
            self._child_conn = None

    # ------------------------------------------------------------------
    # Background loop
    # ------------------------------------------------------------------
    def start(self) -> "OnlineUpdater":
        """Run rounds on a daemon thread every ``interval_s`` seconds."""
        if self._thread is not None:
            raise RuntimeError("updater already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="reks-online-updater")
        self._thread.start()
        return self

    def stop(self, final_round: bool = False) -> None:
        """Stop the loop; optionally flush one last forced round."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if final_round and self.ingestor.pending_sessions:
            self.run_once(force=True)
        self._stop_child()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except BaseException as exc:  # pragma: no cover - defensive
                self.last_error = exc
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "OnlineUpdater":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
