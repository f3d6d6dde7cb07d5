"""Live fleet view rendering (``cli top``).

Pure functions from :class:`~repro.telemetry.registry.FleetSnapshot`
JSON dicts (what ``/metrics.json`` serves) to a terminal frame — no
I/O, no curses, no dependencies — so the same renderer drives the
interactive ``cli top`` loop, the ``--frames`` headless mode, and the
unit tests.  Two consecutive snapshots make one frame: counters diff
into per-second rates, histograms diff bucket-wise (via
:func:`~repro.telemetry.window.hist_delta`) into windowed p50/p99.

The frame shows what the serving fleet's operators actually watch:
per-role QPS, windowed request p50/p99, cache hit rate, dedup, live
cache entries per version, and trace pressure (sampled vs dropped).
"""

from __future__ import annotations

from typing import List, Optional

from .block import HistSnapshot
from .window import hist_delta, hist_from_dict


def _fmt_rate(value: float) -> str:
    if value >= 1000:
        return f"{value / 1000:.1f}k"
    if value >= 10:
        return f"{value:.0f}"
    return f"{value:.1f}"


def _fmt_ms(seconds: float) -> str:
    ms = seconds * 1e3
    if ms >= 1000:
        return f"{ms / 1000:.2f}s"
    if ms >= 10:
        return f"{ms:.0f}ms"
    return f"{ms:.2f}ms"


def _counter_delta(curr: dict, prev: Optional[dict], name: str) -> int:
    now = int(curr.get("counters", {}).get(name, 0))
    if prev is None:
        return now
    return max(now - int(prev.get("counters", {}).get(name, 0)), 0)


def _window_hist(curr: dict, prev: Optional[dict],
                 name: str) -> Optional[HistSnapshot]:
    payload = curr.get("histograms", {}).get(name)
    if payload is None:
        return None
    end = hist_from_dict(payload)
    if prev is None:
        return end if end.count else None
    before = prev.get("histograms", {}).get(name)
    delta = hist_delta(end, hist_from_dict(before) if before else None)
    return delta if delta.count else None


def _role_rows(curr: dict, prev: Optional[dict],
               dt: float) -> List[str]:
    rows: List[str] = []
    per_role = curr.get("per_role", {})
    prev_roles = (prev or {}).get("per_role", {})
    for role in sorted(per_role):
        now = per_role[role]
        before = prev_roles.get(role, {})

        def delta(name: str) -> int:
            d = int(now.get(name, 0)) - int(before.get(name, 0))
            return max(d, 0)

        qps = (delta("requests_total") or delta("exec_rows_total")) / dt
        batches = delta("batches_total") or delta("exec_batches_total")
        traces = delta("traces_sampled_total") \
            or delta("worker_traces_total")
        rows.append(f"  {role:<10} {_fmt_rate(qps):>7}/s "
                    f"{batches:>7} batches "
                    f"{traces:>7} traces "
                    f"{delta('trace_dropped_total'):>5} dropped")
    return rows


def render_top(curr: dict, prev: Optional[dict] = None) -> str:
    """Render one frame from consecutive ``FleetSnapshot.to_dict()``
    dicts.  With ``prev=None`` the frame shows cumulative totals with
    the interval annotated as the full uptime (first frame of a
    session)."""
    dt = 0.0
    if prev is not None:
        dt = float(curr.get("generated_at", 0.0)) \
            - float(prev.get("generated_at", 0.0))
    windowed = dt > 0.0
    dt = dt if windowed else 1.0

    lines: List[str] = []
    roles = curr.get("roles", [])
    scope = f"{dt:.1f}s window" if windowed else "cumulative"
    health = (f"retired={curr.get('retired_blocks', 0)} "
              f"torn={curr.get('torn_snapshots', 0)}")
    lines.append(f"REKS fleet  [{scope}]  roles={len(roles)}  {health}")

    gauges = curr.get("gauges", {})
    version = gauges.get("model_version", {})
    alive = gauges.get("workers_alive", {})
    if version or alive:
        ver = max(version.values()) if version else 0
        workers = max(alive.values()) if alive else 0
        lines.append(f"  model v{int(ver)}   workers alive "
                     f"{int(workers)}")

    req = _counter_delta(curr, prev, "requests_total")
    lines.append("")
    lines.append(f"  requests   {_fmt_rate(req / dt):>7}/s")
    lat = _window_hist(curr, prev, "request_latency_seconds")
    if lat is not None:
        lines.append(f"  latency    p50 {_fmt_ms(lat.quantile(0.5)):>8}"
                     f"   p99 {_fmt_ms(lat.quantile(0.99)):>8}"
                     f"   max {_fmt_ms(lat.max):>8}")

    hits = _counter_delta(curr, prev, "cache_hits_total")
    misses = _counter_delta(curr, prev, "cache_misses_total")
    if hits + misses:
        rate = hits / (hits + misses)
        lines.append(f"  cache      {rate * 100:5.1f}% hit "
                     f"({hits}/{hits + misses})")

    dedup = _counter_delta(curr, prev, "dedup_rows_total")
    if dedup:
        lines.append(f"  shared     {dedup} rows deduped")

    # Per-version live entry counts (the "serving" extra section of
    # /metrics.json): after a hot swap the stale version's counts only
    # shrink — this is where that drain is watched.
    serving = curr.get("serving") or {}
    cache_bv = serving.get("cache_entries_by_version") or {}
    if cache_bv:
        entries = " ".join(f"v{v}:{cache_bv[v]}"
                           for v in sorted(cache_bv, key=int))
        lines.append(f"  entries    cache [{entries}]")

    sampled = _counter_delta(curr, prev, "traces_sampled_total")
    dropped = _counter_delta(curr, prev, "trace_dropped_total")
    if sampled or dropped:
        lines.append(f"  traces     {sampled} sampled, "
                     f"{dropped} dropped")

    role_rows = _role_rows(curr, prev, dt)
    if role_rows:
        lines.append("")
        lines.append("  role       qps/rows     batches      traces "
                     "drops")
        lines.extend(role_rows)
    return "\n".join(lines) + "\n"
