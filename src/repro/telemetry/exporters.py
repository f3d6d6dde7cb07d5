"""Fleet snapshot exporters and declarative SLO gates.

Prometheus text format: counters end in ``_total``, histograms expand
to ``_bucket{le=...}`` / ``_sum`` / ``_count`` (cumulative, seconds),
gauges carry a ``role`` label per writer.  Metric names that embed
labels inline (``walk_hop_seconds{hop=1}``) are parsed back into
real Prometheus labels.

SLOs are declarative: each :class:`SLO` names a metric, a statistic
(quantile/max/mean/count/value/ratio), and bounds.  ``evaluate_slos``
runs them against a :class:`~repro.telemetry.registry.FleetSnapshot`
(or a rolling window of them), so one table gates either.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .block import HistSnapshot, bucket_upper_edges
from .registry import FleetSnapshot

_NAME_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?$")


def split_labels(name: str) -> Tuple[str, Dict[str, str]]:
    """``"walk_hop_seconds{hop=1}" -> ("walk_hop_seconds",
    {"hop": "1"})``; plain names return empty labels."""
    match = _NAME_RE.match(name)
    if not match:
        return name, {}
    base, raw = match.group(1), match.group(2)
    labels: Dict[str, str] = {}
    if raw:
        for part in raw.split(","):
            key, _, value = part.partition("=")
            labels[key.strip()] = value.strip().strip('"')
    return base, labels


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: FleetSnapshot,
                    namespace: str = "reks") -> str:
    """Render a fleet snapshot in Prometheus text exposition format."""
    lines: List[str] = []

    counter_groups: Dict[str, List[Tuple[Dict[str, str], int]]] = {}
    for name, value in sorted(snapshot.counters.items()):
        base, labels = split_labels(name)
        counter_groups.setdefault(base, []).append((labels, value))
    for base, series in counter_groups.items():
        full = f"{namespace}_{base}"
        lines.append(f"# TYPE {full} counter")
        for labels, value in series:
            lines.append(f"{full}{_fmt_labels(labels)} {value}")

    for name, per_role in sorted(snapshot.gauges.items()):
        base, labels = split_labels(name)
        full = f"{namespace}_{base}"
        lines.append(f"# TYPE {full} gauge")
        for role, value in sorted(per_role.items()):
            merged = dict(labels, role=role)
            lines.append(f"{full}{_fmt_labels(merged)} "
                         f"{_fmt_value(value)}")

    edges = bucket_upper_edges()
    hist_groups: Dict[str, List[Tuple[Dict[str, str], HistSnapshot]]] = {}
    for name, hist in sorted(snapshot.hists.items()):
        if hist.count == 0:
            continue
        base, labels = split_labels(name)
        hist_groups.setdefault(base, []).append((labels, hist))
    for base, series in hist_groups.items():
        full = f"{namespace}_{base}"
        lines.append(f"# TYPE {full} histogram")
        for labels, hist in series:
            cum = 0
            for i in range(len(edges)):
                n = int(hist.buckets[i])
                if n == 0 and i < len(edges) - 1:
                    continue
                cum += n
                le = dict(labels, le=repr(float(edges[i])))
                lines.append(f"{full}_bucket{_fmt_labels(le)} {cum}")
            inf = dict(labels, le="+Inf")
            lines.append(f"{full}_bucket{_fmt_labels(inf)} "
                         f"{hist.count}")
            lines.append(f"{full}_sum{_fmt_labels(labels)} "
                         f"{_fmt_value(hist.sum)}")
            lines.append(f"{full}_count{_fmt_labels(labels)} "
                         f"{hist.count}")

    lines.append(f"# TYPE {namespace}_retired_blocks gauge")
    lines.append(f"{namespace}_retired_blocks "
                 f"{snapshot.retired_blocks}")
    return "\n".join(lines) + "\n"


def json_snapshot(snapshot: FleetSnapshot, indent: int = 2) -> str:
    return json.dumps(snapshot.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# SLO gates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective.

    ``stat``: ``p50|p95|p99`` (histogram quantile, seconds), ``max``,
    ``mean``, ``count`` (histogram), ``value`` (counter), or
    ``ratio`` (counter ``metric`` over the sum of ``denominator``
    counters; empty denominator sum evaluates the ratio as 0).
    Bounds are inclusive; ``None`` means unbounded on that side.
    """

    name: str
    metric: str
    stat: str
    max_value: Optional[float] = None
    min_value: Optional[float] = None
    denominator: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SLOResult:
    """One evaluated gate.

    ``burn_rate`` normalizes the value against its bound: for a
    ceiling it is ``value / max_value`` (1.0 = exactly at budget,
    above 1 = burning), for a floor ``min_value / value`` — so "any
    burn rate > 1" is the violation condition regardless of gate
    direction.  ``window_seconds`` is set when the evaluation ran
    against a rolling window rather than the cumulative snapshot.
    """

    slo: SLO
    value: float
    ok: bool
    burn_rate: Optional[float] = None
    window_seconds: Optional[float] = None

    def describe(self) -> str:
        bounds = []
        if self.slo.min_value is not None:
            bounds.append(f">= {self.slo.min_value:g}")
        if self.slo.max_value is not None:
            bounds.append(f"<= {self.slo.max_value:g}")
        verdict = "ok" if self.ok else "VIOLATED"
        scope = (f" over {self.window_seconds:.1f}s"
                 if self.window_seconds is not None else "")
        burn = (f" burn={self.burn_rate:.3g}"
                if self.burn_rate is not None else "")
        return (f"{self.slo.name}: {self.slo.stat}({self.slo.metric})"
                f"{scope} = {self.value:.6g} "
                f"(want {' and '.join(bounds) or 'anything'}){burn} "
                f"[{verdict}]")

    def to_dict(self) -> dict:
        return {"name": self.slo.name, "metric": self.slo.metric,
                "stat": self.slo.stat, "value": self.value,
                "min": self.slo.min_value, "max": self.slo.max_value,
                "ok": self.ok, "burn_rate": self.burn_rate,
                "window_seconds": self.window_seconds}


def _slo_value(snapshot: FleetSnapshot, slo: SLO) -> float:
    if slo.stat == "value":
        return float(snapshot.counter(slo.metric))
    if slo.stat == "ratio":
        num = float(snapshot.counter(slo.metric))
        den = float(sum(snapshot.counter(d) for d in slo.denominator))
        return num / den if den > 0 else 0.0
    hist = snapshot.hist(slo.metric)
    if hist is None or hist.count == 0:
        return 0.0
    if slo.stat in ("p50", "p95", "p99"):
        return hist.quantile(int(slo.stat[1:]) / 100.0)
    if slo.stat == "max":
        return hist.max
    if slo.stat == "mean":
        return hist.mean
    if slo.stat == "count":
        return float(hist.count)
    raise ValueError(f"unknown SLO stat: {slo.stat!r}")


def _burn_rate(slo: SLO, value: float) -> Optional[float]:
    """Value normalized against its bound (> 1 means violating)."""
    if slo.max_value is not None:
        if slo.max_value > 0:
            return value / slo.max_value
        return math.inf if value > 0 else 0.0
    if slo.min_value is not None:
        if value > 0:
            return slo.min_value / value
        return math.inf if slo.min_value > 0 else 0.0
    return None


def _no_window_data(target, slo: SLO) -> bool:
    """True when the window carries no observations for this gate:
    a ratio whose denominator counters never moved, or a histogram
    stat over an empty histogram."""
    if slo.stat == "ratio":
        return float(sum(target.counter(d)
                         for d in slo.denominator)) <= 0
    if slo.stat in ("p50", "p95", "p99", "max", "mean", "count"):
        hist = target.hist(slo.metric)
        return hist is None or hist.count == 0
    return False


def evaluate_slos(snapshot: FleetSnapshot, slos: Sequence[SLO],
                  window=None) -> List[SLOResult]:
    """Evaluate gates against the cumulative ``snapshot`` — or, when
    ``window`` (a :class:`~repro.telemetry.window.WindowSnapshot`) is
    given, against that rolling window instead: same declarative SLO
    objects, burn rates scoped to the window's interval.  ``window``
    may be None even when requested (fewer than two samples yet), in
    which case the cumulative snapshot is used.

    A window with no observations of a gated metric (quiet interval:
    ratio denominator never moved, histogram empty) passes vacuously
    with ``burn_rate=None`` — an idle service is not burning its
    cache-hit floor."""
    target = window if window is not None else snapshot
    window_seconds = (float(window.seconds) if window is not None
                      else None)
    results = []
    for slo in slos:
        value = _slo_value(target, slo)
        if window is not None and _no_window_data(target, slo):
            results.append(SLOResult(slo=slo, value=value, ok=True,
                                     burn_rate=None,
                                     window_seconds=window_seconds))
            continue
        ok = True
        if slo.max_value is not None and value > slo.max_value:
            ok = False
        if slo.min_value is not None and value < slo.min_value:
            ok = False
        results.append(SLOResult(slo=slo, value=value, ok=ok,
                                 burn_rate=_burn_rate(slo, value),
                                 window_seconds=window_seconds))
    return results


def slo_failures(results: Sequence[SLOResult]) -> List[SLOResult]:
    return [r for r in results if not r.ok]


def serving_slos(p99_ms: Optional[float] = None,
                 swap_max_ms: Optional[float] = None,
                 cache_hit_floor: Optional[float] = None
                 ) -> Tuple[SLO, ...]:
    """The canonical serving gate set: request p99, swap latency
    ceiling, cache-hit floor.  ``None`` skips a gate."""
    slos: List[SLO] = []
    if p99_ms is not None:
        slos.append(SLO(name="request_p99", stat="p99",
                        metric="request_latency_seconds",
                        max_value=p99_ms / 1e3))
    if swap_max_ms is not None:
        slos.append(SLO(name="swap_latency", stat="max",
                        metric="swap_latency_seconds",
                        max_value=swap_max_ms / 1e3))
    if cache_hit_floor is not None:
        slos.append(SLO(name="cache_hit_rate", stat="ratio",
                        metric="cache_hits_total",
                        denominator=("cache_hits_total",
                                     "cache_misses_total"),
                        min_value=cache_hit_floor))
    return tuple(slos)
