"""Fleet-wide telemetry plane: shared-memory metrics, request tracing,
and SLO-gated exporters.

- :mod:`repro.telemetry.block` — per-process seqlock metric blocks
  (counters / gauges / log-bucketed histograms) over shared memory,
  plus in-process :class:`LocalHistogram` / :class:`Reservoir`.
- :mod:`repro.telemetry.registry` — parent-side fleet registry:
  create, retire (respawn-safe, no double counting), merge, health.
- :mod:`repro.telemetry.trace` — sampled per-request trace ids, span
  records riding the ring codec, and per-row cost attribution.
- :mod:`repro.telemetry.sink` — streaming JSONL trace sink with
  bounded handoff and size/age rotation.
- :mod:`repro.telemetry.window` — rolling-window aggregation over
  fleet snapshots (windowed rates/quantiles, SLO burn rates).
- :mod:`repro.telemetry.exporters` — Prometheus text / JSON snapshot
  and declarative SLO evaluation (cumulative or windowed).
- :mod:`repro.telemetry.httpd` — optional stdlib ``/metrics`` HTTP
  endpoint (``/metrics.json?window=``, ``/healthz``).
- :mod:`repro.telemetry.top` — pure live-fleet frame renderer behind
  ``cli top``.

See ``src/repro/telemetry/README.md`` for layout and merge semantics.
"""

from .block import (BlockManifest, BlockSnapshot, HistSnapshot,
                    LocalHistogram, MetricBlock, MetricSchema, Reservoir,
                    bucket_index, bucket_upper_edges, fleet_schema,
                    merge_hists, walk_hop_hist)
from .exporters import (SLO, SLOResult, evaluate_slos, json_snapshot,
                        prometheus_text, serving_slos, slo_failures,
                        split_labels)
from .httpd import MetricsEndpoint
from .registry import FleetSnapshot, MetricsRegistry
from .sink import TraceSink
from .top import render_top
from .trace import (ROW_SPAN, SPAN_KINDS, SpanRecord, Tracer,
                    attribute_rows, span_kind_id, span_kind_name,
                    spans_by_trace, spans_to_chrome_trace,
                    spans_to_jsonl)
from .window import (RollingWindow, WindowSampler, WindowSnapshot,
                     hist_delta, hist_from_dict)

__all__ = [
    "BlockManifest", "BlockSnapshot", "HistSnapshot", "LocalHistogram",
    "MetricBlock", "MetricSchema", "Reservoir", "bucket_index",
    "bucket_upper_edges", "fleet_schema", "merge_hists", "walk_hop_hist",
    "SLO", "SLOResult", "evaluate_slos", "json_snapshot",
    "prometheus_text", "serving_slos", "slo_failures", "split_labels",
    "MetricsEndpoint", "FleetSnapshot", "MetricsRegistry",
    "TraceSink", "render_top",
    "ROW_SPAN", "SPAN_KINDS", "SpanRecord", "Tracer", "attribute_rows",
    "span_kind_id", "span_kind_name", "spans_by_trace",
    "spans_to_chrome_trace", "spans_to_jsonl",
    "RollingWindow", "WindowSampler", "WindowSnapshot", "hist_delta",
    "hist_from_dict",
]
