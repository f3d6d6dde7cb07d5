"""Closed-loop driver, host-speed calibration and the end-to-end
metric arithmetic.

One submitting thread keeps ``WINDOW`` requests in flight through the
public ``RecommendationServer.submit`` API (the host has two cores and
the server has two workers; a client thread pool would only measure
the GIL).  Completion is stamped by ``Future.add_done_callback`` — in
the worker thread, the moment the result is set — not when the driver
gets round to collecting it.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Collection, Dict, List, Optional, Sequence

import numpy as np

from benchmarks.e2e.workload import WINDOW, Request

SLICES = 20       # time slices of a timed run
LIVE_SLICES = 5   # fewest writer periods a live_update run measures
_TICKS = os.sysconf("SC_CLK_TCK")


def _pids() -> List[int]:
    return [os.getpid()] + [child.pid
                            for child in multiprocessing.active_children()]


def cpu_seconds() -> float:
    """User+system CPU of this process and its live children."""
    total = 0.0
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the child exited between listing and reading
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process and its children."""
    total_kb = 0
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class HostSpeed:
    """How fast the host is right now, against a fixed reference.

    The shared 2-core host this benchmark was built on flips between
    two speeds about 1.3x apart, in bursts of 0.2 s to minutes
    (measured: one commit served 2,000 req/s and 1,100 req/s in
    back-to-back runs, CPU time per request moving with it — it is not
    steal).  A raw time from one state compared with a raw time from
    the other says nothing about the program.  So the harness times a
    fixed kernel of its own — table gather, small matmul, sort, Python
    loop: the mix a walk is made of, none of the program's code, no
    allocation — on an idle process before and after every slice of a
    run, and every end-to-end time is divided (throughput multiplied)
    by ``factor``: kernel time over ``REFERENCE_MS``.  On 12 runs of 20
    slices the slope of log throughput on log factor was -0.98 and the
    spread of the run medians fell from 11% to 4.6%.  The per-layer
    numbers stay raw; ``host.calib_ms`` is reported beside them.
    """

    REFERENCE_MS = 4.3
    ROWS = 8000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal((12000, 64))
        self._index = rng.integers(0, 12000, size=self.ROWS)
        self._weight = rng.standard_normal((64, 64))
        self._gathered = np.empty((self.ROWS, 64))
        self._hidden = np.empty((self.ROWS, 64))
        self._score = np.empty(self.ROWS)
        self._loop = self._index[:2000].tolist()
        self.samples_ms: List[float] = []

    def _kernel(self) -> None:
        np.take(self._table, self._index, axis=0, out=self._gathered)
        np.matmul(self._gathered, self._weight, out=self._hidden)
        np.tanh(self._hidden, out=self._hidden)
        np.multiply(self._hidden, self._gathered, out=self._hidden)
        np.sum(self._hidden, axis=1, out=self._score)
        self._score.argsort()[:256].tolist()
        total = 0
        for value in self._loop:
            total += value

    def factor(self, rounds: int = 4) -> float:
        times = []
        for _ in range(rounds):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        ms = statistics.median(times) * 1e3
        self.samples_ms.append(ms)
        return ms / self.REFERENCE_MS


@dataclass
class Drive:
    """One driven slice: per-request stamps, kept responses, CPU used.

    ``failures`` says why for each request that raised, was refused, or
    answered with the wrong number of items; ``kept`` holds the responses whose
    index was in ``keep`` (the verifier's sample) — the rest are
    dropped at completion, as a real caller would, so the harness does
    not grow the heap the program's collector has to scan.
    """

    submitted: np.ndarray   # perf_counter at submit, per request
    done: np.ndarray        # perf_counter at completion, per request
    cpu_s: float
    kept: Dict[int, object]
    failures: List[str]

    @property
    def n(self) -> int:
        return len(self.done)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def wall_s(self) -> float:
        return float(self.done.max() - self.submitted[0])


def drive(server, requests: Sequence[Request], *, start: int = 0,
          stop: Optional[int] = None, seconds: Optional[float] = None,
          keep: Collection[int] = frozenset(),
          on_submit: Optional[Callable[[int], None]] = None,
          on_drained: Optional[Callable[[], None]] = None) -> Drive:
    """Drive ``requests[start:stop]`` closed-loop; stop early after
    ``seconds``.  Indices (``keep``, ``Drive.kept``, ``on_submit``) are
    positions in ``requests``.

    ``on_submit(i)`` runs on the driver thread before request ``i`` is
    submitted (the live workload paces its writer with it);
    ``on_drained()`` runs once every request has completed and before
    the CPU clock is read (the live workload waits there for its writer
    to go idle, so the slice is charged the writer's CPU).
    """
    stop = len(requests) if stop is None else min(stop, len(requests))
    submitted = np.zeros(stop - start)
    done = np.zeros(stop - start)
    window = threading.Semaphore(WINDOW)
    kept: Dict[int, object] = {}
    failures: List[str] = []  # list.append is atomic across workers

    def stamp(index: int, k: int):
        def callback(future) -> None:
            done[index - start] = perf_counter()
            error = future.exception()
            if error is not None:
                failures.append(f"request {index}: {error!r}")
            elif len(future.result().items) != k:
                failures.append(f"request {index}: k={k} but "
                                f"{len(future.result().items)} items")
            elif index in keep:
                kept[index] = future.result()
            window.release()
        return callback

    sent = 0
    cpu0 = cpu_seconds()
    deadline = None if seconds is None else perf_counter() + seconds
    for index in range(start, stop):
        window.acquire()
        if deadline is not None and perf_counter() >= deadline:
            window.release()
            break
        if on_submit is not None:
            on_submit(index)
        session, k = requests[index]
        submitted[sent] = perf_counter()
        server.submit(session, k).add_done_callback(stamp(index, k))
        sent += 1
    for _ in range(WINDOW):  # every in-flight request has completed
        window.acquire()
    if on_drained is not None:
        on_drained()
    return Drive(submitted[:sent], done[:sent], cpu_seconds() - cpu0,
                 kept, failures)


@dataclass
class Slice:
    """One driven slice and the host-speed factor around it."""

    run: Drive
    factor: float

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.run.done - self.run.submitted) * 1e3 / self.factor


def timing_metrics(slices: Sequence[Slice]) -> Dict[str, float]:
    """End-to-end timing metrics at reference host speed: each is the
    median over the slices of the slice's own value.

    A pooled value moves with one noisy second of a shared host; the
    median of the slice values does not.  Requests complete a flush at
    a time, so a slice's p99 is in effect the latency of its slowest
    flush, and the median over slices is the typical slice's worst — on
    ``live_update``, the typical stall per writer period.  A stall that
    hits fewer than half the slices does not show in it.
    """
    def median(value) -> float:
        return statistics.median(value(s) for s in slices)

    return {
        "throughput_rps": median(lambda s: s.run.n / s.run.wall_s * s.factor),
        "latency_p50_ms": median(
            lambda s: float(np.percentile(s.latency_ms, 50))),
        "latency_p99_ms": median(
            lambda s: float(np.percentile(s.latency_ms, 99))),
        "cpu_ms_per_req": median(
            lambda s: s.run.cpu_s * 1e3 / s.run.n / s.factor),
    }
