"""Parent-side fleet registry: create, retire, and merge metric blocks.

The registry lives in the serving parent.  It creates one
:class:`~repro.telemetry.block.MetricBlock` per writer role
(``server``, ``worker0..N``, ``updater``) and hands children the
:class:`~repro.telemetry.block.BlockManifest` so they attach the same
segment and write in place — no IPC per metric, the parent reads the
shared arrays directly.

Respawn discipline (no double counting): when a worker dies or is
replaced, the parent **retires** its block — takes a final (possibly
torn, if the writer died mid-mutation) snapshot, folds counters and
histogram buckets into per-role retained accumulators, and unlinks the
segment — then creates a *fresh zeroed block* for the replacement
under the same role.  A fleet snapshot is therefore always
``retired accumulators + live blocks``: restarting a worker never
re-adds its old counts, and never loses them either.  Gauges are
point-in-time per role and are dropped on retirement.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .block import (BlockSnapshot, HistSnapshot, MetricBlock,
                    MetricSchema, merge_hists)


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; pid 0 = writer not attached yet."""
    if pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - defensive
        return True
    return True


@dataclass
class _RetiredAccum:
    """Counters + histogram mass folded out of dead blocks."""

    counters: Dict[str, int] = field(default_factory=dict)
    hists: Dict[str, HistSnapshot] = field(default_factory=dict)
    blocks: int = 0
    torn: int = 0

    def fold(self, snap: BlockSnapshot) -> None:
        self.blocks += 1
        if snap.torn:
            self.torn += 1
        for name, value in snap.counters.items():
            if value:
                self.counters[name] = self.counters.get(name, 0) + value
        for name, hist in snap.hists.items():
            if hist.count == 0:
                continue
            prior = self.hists.get(name)
            self.hists[name] = merge_hists((prior, hist))


@dataclass(frozen=True)
class FleetSnapshot:
    """Merged view over every live + retired block.

    ``per_role`` carries each *live* role's own nonzero counters (the
    merged ``counters`` fold retired mass in; the per-role view is
    what a live fleet display diffs for per-role rates).
    """

    counters: Dict[str, int]
    gauges: Dict[str, Dict[str, float]]   # name -> role -> value
    hists: Dict[str, HistSnapshot]
    roles: Tuple[str, ...]
    retired_blocks: int
    torn_snapshots: int
    generated_at: float
    per_role: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def hist(self, name: str) -> Optional[HistSnapshot]:
        return self.hists.get(name)

    def to_dict(self) -> dict:
        return {
            "generated_at": self.generated_at,
            "roles": list(self.roles),
            "retired_blocks": self.retired_blocks,
            "torn_snapshots": self.torn_snapshots,
            "counters": {k: v for k, v in sorted(self.counters.items())
                         if v},
            "per_role": {role: dict(sorted(counters.items()))
                         for role, counters
                         in sorted(self.per_role.items())},
            "gauges": {name: dict(sorted(per_role.items()))
                       for name, per_role in sorted(self.gauges.items())},
            "histograms": {name: hist.to_dict()
                           for name, hist in sorted(self.hists.items())
                           if hist.count},
        }


class MetricsRegistry:
    """Creates, tracks, retires, and merges the fleet's metric blocks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocks: Dict[str, MetricBlock] = {}
        self._retired = _RetiredAccum()
        self._closed = False

    # ------------------------------------------------------------------
    def create_block(self, role: str, schema: MetricSchema) -> MetricBlock:
        """Create (or replace — retiring the old one) the block for a
        writer role and return it; the caller ships
        ``block.manifest`` to the writer process."""
        with self._lock:
            if self._closed:
                raise RuntimeError("MetricsRegistry is closed")
            stale = self._blocks.pop(role, None)
            if stale is not None:
                self._retire_locked(stale)
            block = MetricBlock.create(schema, role=role)
            self._blocks[role] = block
            return block

    def block(self, role: str) -> Optional[MetricBlock]:
        with self._lock:
            return self._blocks.get(role)

    @property
    def roles(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._blocks))

    # ------------------------------------------------------------------
    def _retire_locked(self, block: MetricBlock) -> None:
        try:
            self._retired.fold(block.snapshot())
        finally:
            block.unlink()

    def retire(self, role: str) -> bool:
        """Fold a dead writer's block into the retained accumulators
        and unlink its segment.  Idempotent; returns whether a block
        was retired."""
        with self._lock:
            block = self._blocks.pop(role, None)
            if block is None:
                return False
            self._retire_locked(block)
            return True

    # ------------------------------------------------------------------
    def snapshot(self) -> FleetSnapshot:
        with self._lock:
            live = [(role, block.snapshot())
                    for role, block in sorted(self._blocks.items())]
            retired = self._retired
            counters = dict(retired.counters)
            torn = retired.torn
            gauges: Dict[str, Dict[str, float]] = {}
            hist_parts: Dict[str, List[HistSnapshot]] = {
                name: [hist] for name, hist in retired.hists.items()}
            for role, snap in live:
                if snap.torn:
                    torn += 1
                for name, value in snap.counters.items():
                    if value:
                        counters[name] = counters.get(name, 0) + value
                for name, value in snap.gauges.items():
                    if value:
                        gauges.setdefault(name, {})[role] = value
                for name, hist in snap.hists.items():
                    if hist.count:
                        hist_parts.setdefault(name, []).append(hist)
            hists = {name: merge_hists(parts)
                     for name, parts in hist_parts.items()}
            per_role = {
                role: {name: value
                       for name, value in snap.counters.items() if value}
                for role, snap in live}
            return FleetSnapshot(
                counters=counters, gauges=gauges, hists=hists,
                roles=tuple(role for role, _ in live),
                retired_blocks=retired.blocks, torn_snapshots=torn,
                generated_at=time.time(), per_role=per_role)

    # ------------------------------------------------------------------
    # Health / per-role introspection
    # ------------------------------------------------------------------
    def role_snapshots(self) -> Dict[str, BlockSnapshot]:
        """A fresh seqlock snapshot of every live block, by role."""
        with self._lock:
            blocks = list(sorted(self._blocks.items()))
        return {role: block.snapshot() for role, block in blocks}

    def health(self) -> dict:
        """Liveness report over the live writer blocks.

        A role is degraded when its latest snapshot read torn (writer
        died mid-mutation — the seqlock never recovered to even) or
        its recorded writer pid no longer exists.  ``pid == 0`` means
        the writer has not attached yet (a just-spawned worker), which
        is healthy.  The serving ``/healthz`` endpoint turns
        ``ok=False`` into a 503.
        """
        roles: Dict[str, dict] = {}
        ok = True
        for role, snap in self.role_snapshots().items():
            alive = _pid_alive(snap.pid)
            degraded = snap.torn or not alive
            roles[role] = {"pid": snap.pid, "alive": alive,
                           "torn": snap.torn, "ok": not degraded}
            if degraded:
                ok = False
        return {"ok": ok, "roles": roles}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire every live block and unlink segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for role in sorted(self._blocks):
                self._retire_locked(self._blocks.pop(role))

    def __enter__(self) -> "MetricsRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
