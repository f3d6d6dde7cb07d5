"""One workload, end to end: build the server, warm it, drive it in
segments, verify it, shut it down and check nothing is left behind.

``timed_run`` is the untraced measurement the end-to-end metrics come
from; ``layers.traced_run`` reuses :func:`serving` for its passes.
"""

from __future__ import annotations

import glob
import os
import queue
import shutil
import tempfile
import threading
from contextlib import contextmanager
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro import (CheckpointRegistry, DeltaIngestor, OnlineUpdater,
                   RecommendationServer)
from repro.cascade import provider_from_trainer
from repro.data.schema import Session
from repro.telemetry.registry import MetricsRegistry

from benchmarks.e2e.driver import (LIVE_SLICES, SLICES, Drive, HostSpeed, Slice,
                                   drive, peak_rss_mb, timing_metrics)
from benchmarks.e2e.verify import SAMPLE, verify
from benchmarks.e2e.workload import (CASCADE_M, SERVER_BASE, Request, Spec,
                                     distinct_sessions)
from benchmarks.e2e.world import World

KEEP_STRIDE = 16

# live_update: the writer's work per read is fixed by pacing it on read
# progress.  Every period of LIVE_PERIOD reads is one slice and carries
# one ingest batch of LIVE_BATCH sessions, then one fine-tune round + publish + hot swap, both
# posted early in the period so the work lands on that period's reads
# (the round takes ~0.1 s alone and several times that beside the
# serving threads, which is the interference being measured).
LIVE_PERIOD = 500
LIVE_INGEST_AT = 50
LIVE_ROUND_AT = 100
LIVE_BATCH = 16
LIVE_STEPS = 1


def training_users(world: World) -> List[int]:
    return sorted({s.user_id for s in world.dataset.split.train})


def long_tail_sessions(world: World, n: int, seed: int) -> List[Session]:
    """Fresh traffic for the writer to ingest: uniform draws over the
    half of the catalogue with the fewest edges.

    Not Zipf over the hot items, because the program cannot serve that:
    ``RolloutWorkspace.buffer`` doubles a buffer's *rows* whenever the
    frontier's width grows by a column, ingesting popular items raises
    the widest frontier a little every period, and about 13 periods in
    a flush asks for a (32.6M, 250) int32 array and every request of it
    fails with MemoryError (seen on 2 of 10 seeds).  Long-tail items
    never become the widest node, so the width — and the walk's cost,
    which also keeps the workload stationary — stays where the base
    graph put it.
    """
    entities = world.built.item_entity[1:]  # item ids are 1-based
    by_degree = np.argsort([world.env.degree(e) for e in entities],
                           kind="stable")
    quiet = by_degree[:len(entities) // 2] + 1
    return [Session([int(quiet[i - 1]) for i in s.items], s.user_id, s.day)
            for s in distinct_sessions(n, len(quiet), training_users(world),
                                       seed, exponent=0.0)]


class Writer(threading.Thread):
    """The one writer thread of ``live_update``.

    The driver posts two ticks at fixed positions of every period of
    submitted reads: one ingests a fresh batch, one runs a fine-tune
    round, publishes it and hot-swaps the server.  Ticks queue if the
    writer falls behind, so the work per read stays fixed.  Durations
    are timed around the public calls.
    """

    def __init__(self, world: World, server, registry, seed: int,
                 shrink: int) -> None:
        super().__init__(name="e2e-writer")
        self.period = max(LIVE_PERIOD // shrink, 64)
        self._ingest_at = LIVE_INGEST_AT * self.period // LIVE_PERIOD
        self._round_at = LIVE_ROUND_AT * self.period // LIVE_PERIOD
        self._world, self._server = world, server
        self._ingestor = DeltaIngestor(world.built, world.env)
        self._updater = OnlineUpdater(
            world.trainer, self._ingestor, registry, min_sessions=1,
            max_steps=LIVE_STEPS, mode="thread",
            metrics_registry=server.metrics_registry)
        self._fresh = long_tail_sessions(world, LIVE_BATCH * 64, seed + 2)
        self._ticks: "queue.Queue[Optional[bool]]" = queue.Queue()
        self.ingest_s: List[float] = []
        self.round_s: List[float] = []
        self.swap_s: List[float] = []
        self._compactions_before = world.env.compactions
        self.error: Optional[BaseException] = None

    @property
    def compactions(self) -> int:
        return self._world.env.compactions - self._compactions_before

    def baseline(self) -> None:
        """Publish the warm-start checkpoint and swap the server to it,
        so serving runs on a clone and fine-tuning on the original."""
        self._server.swap_model(self._updater.run_once(force=True))

    def on_submit(self, index: int) -> None:
        at = index % self.period
        if at == self._ingest_at or at == self._round_at:
            self._ticks.put(at == self._round_at)

    def wait_idle(self) -> None:
        """Block until every posted tick has been worked off."""
        self._ticks.join()

    def finish(self) -> None:
        if self.is_alive():
            self._ticks.put(None)
            self.join()
        if self.error is not None:
            raise self.error

    def run(self) -> None:
        while True:
            do_round = self._ticks.get()
            try:
                if do_round is None:
                    return
                if self.error is None:
                    (self._round if do_round else self._ingest)()
            except BaseException as exc:  # surfaced by finish()
                self.error = exc
            finally:
                self._ticks.task_done()

    def _ingest(self) -> None:
        lo = (len(self.ingest_s) * LIVE_BATCH) % len(self._fresh)
        t0 = perf_counter()
        self._ingestor.ingest_sessions(self._fresh[lo:lo + LIVE_BATCH])
        self.ingest_s.append(perf_counter() - t0)

    def _round(self) -> None:
        t0 = perf_counter()
        version = self._updater.run_once(force=True)
        self.round_s.append(perf_counter() - t0)
        self.swap_s.append(self._server.swap_model(version))


class Serving:
    """A live server for one workload plus what verifying it needs."""

    def __init__(self, server, provider, writer: Optional[Writer]) -> None:
        self.server = server
        self.provider = provider
        self.writer = writer

    def drive(self, requests: Sequence[Request], **kwargs) -> Drive:
        """Drive a slice.  With a writer, return once it is idle too:
        whatever the caller times next starts on a quiet process, and
        the slice is charged the CPU the writer used to get there."""
        if self.writer is None:
            return drive(self.server, requests, **kwargs)
        return drive(self.server, requests, on_submit=self.writer.on_submit,
                     on_drained=self.writer.wait_idle, **kwargs)


@contextmanager
def serving(world: World, spec: Spec, seed: int, shrink: int = 1,
            trace_sample: float = 0.0) -> Iterator[Serving]:
    """Build the workload's server (and writer); always tear it down."""
    kwargs = dict(SERVER_BASE, trace_sample=trace_sample, **spec.server)
    provider = None
    if spec.cascade:
        provider = provider_from_trainer(world.trainer, "neighbors")
        kwargs.update(cascade=provider, cascade_m=CASCADE_M)
    checkpoints = None
    if spec.live:
        checkpoints = tempfile.mkdtemp(prefix="ckpt_", dir=results_dir())
        kwargs["registry"] = CheckpointRegistry(checkpoints)
    # Our own metrics registry, so the writer's "updater" block has an
    # owner that closes it (a server retires only its own block).
    metrics = MetricsRegistry()
    server = RecommendationServer(world.agent, metrics_registry=metrics,
                                  **kwargs)
    writer = None
    try:
        if spec.live:
            writer = Writer(world, server, kwargs["registry"], seed, shrink)
            writer.baseline()
            writer.start()
        yield Serving(server, provider, writer)
    finally:
        if writer is not None:
            writer.finish()
        server.shutdown()
        metrics.close()
        if checkpoints is not None:
            shutil.rmtree(checkpoints, ignore_errors=True)


def results_dir() -> Path:
    path = Path(__file__).resolve().parent / "results"
    path.mkdir(exist_ok=True)
    return path


def sample_indices(n: int, seed: int) -> frozenset:
    """Which responses a run keeps for the verifier: a seeded stride.

    The run's length is not known beforehand, so one response in
    ``KEEP_STRIDE`` is kept across the whole list and the checked
    sample is drawn from those that completed.
    """
    offset = int(np.random.default_rng(seed + 3).integers(KEEP_STRIDE))
    return frozenset(range(offset, n, KEEP_STRIDE))


def check(world: World, live: Serving, requests: Sequence[Request],
          kept: Dict[int, object], seed: int) -> List[str]:
    """Verify a seeded sample of the kept responses.

    ``live_update`` answers were computed on whichever model and graph
    were current, so they get the structural check against the final
    graph (edges are only ever added), and the oracle comparison runs
    on the list's last ``SAMPLE`` requests — never driven, the pool
    outlasts the run — served after the writer has stopped.
    """
    picked = np.random.default_rng(seed + 4).permutation(sorted(kept))
    sample = {int(i): kept[int(i)] for i in picked[:SAMPLE]}
    if live.writer is None:
        return verify(world, requests, sample, live.provider)
    live.writer.finish()
    errors = verify(world, requests, sample, against_oracle=False)
    tail = range(len(requests) - SAMPLE, len(requests))
    after = drive(live.server, requests, start=tail.start, keep=tail)
    return errors + verify(world, requests, after.kept)


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/*"))


def stop_resource_tracker() -> None:
    """End the stdlib's shared-memory resource tracker and wait for it.

    The program's telemetry blocks and feature plane are shared memory,
    so even a thread-mode server starts ``multiprocessing``'s tracker
    process, which by design outlives its parent by a moment.  Closing
    its pipe and reaping it here means nothing of the run is alive
    once the result line is printed.  No-op when it is not running.
    """
    resource_tracker._resource_tracker._stop()


def child_pids() -> List[int]:
    """Live (or unreaped) processes whose parent is this one."""
    me, found = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # gone while we looked
            continue
        if int(fields[1]) == me:
            found.append(int(stat.split("/")[2]))
    return sorted(found)


def residue(shm_before: set) -> List[str]:
    """What a finished run must not leave: child processes (the
    resource tracker included), shared memory segments, checkpoint
    directories."""
    stop_resource_tracker()
    left = [f"child pid {pid}" for pid in child_pids()]
    left += sorted(shm_segments() - shm_before)
    left += glob.glob(str(results_dir() / "ckpt_*"))
    return left


def timed_run(world: World, spec: Spec, requests: Sequence[Request],
              seed: int, seconds: float, speed: HostSpeed,
              shrink: int = 1) -> dict:
    """Warm up, drive slices for ``seconds`` in all, verify; the
    end-to-end numbers.

    Between slices the window drains and the host speed is sampled on
    an idle process; a slice's times are scaled by the mean of the two
    samples around it.  ``live_update`` slices are whole writer periods
    (as many as fit in ``seconds``, at least ``LIVE_SLICES``); the others
    are ``SLICES`` equal time slices.
    """
    first = at = spec.warmup // shrink
    end = len(requests) - SAMPLE  # the tail is check()'s fresh sample
    keep = sample_indices(end, seed)
    slices: List[Slice] = []
    kept: Dict[int, object] = {}
    with serving(world, spec, seed, shrink) as live:
        live.drive(requests, stop=first)
        period = live.writer.period if live.writer else None
        deadline = perf_counter() + seconds

        def more() -> bool:
            if period:
                return len(slices) < LIVE_SLICES or perf_counter() < deadline
            return len(slices) < SLICES

        before = speed.factor()
        while at < end and more():
            run = live.drive(
                requests, start=at, keep=keep,
                stop=min(at + period, end) if period else end,
                seconds=None if period else seconds / SLICES)
            after = speed.factor()
            slices.append(Slice(run, (before + after) / 2))
            before = after
            at += run.n
            kept.update(run.kept)
        metrics = timing_metrics(slices)
        metrics["peak_rss_mb"] = peak_rss_mb()
        errors = [failure for s in slices for failure in s.run.failures]
        errors += check(world, live, requests, kept, seed)
    return {"metrics": metrics, "attempted": at - first,
            "failed": len(errors), "errors": errors[:5]}
