"""Optional stdlib HTTP ``/metrics`` endpoint for the serving parent.

A daemon :class:`ThreadingHTTPServer` that renders the registry's
fleet snapshot on demand — ``/metrics`` (Prometheus text),
``/metrics.json`` (JSON snapshot; add ``?window=SECONDS`` for the
rolling-window delta when the owner wired a window function), and
``/healthz`` (200 ``ok`` / 503 degraded when any writer block reads
torn or its writer process is dead).  Zero dependencies; ``port=0``
binds an ephemeral port (read it back from ``endpoint.port``), which
is what the tests and CI smoke use.  ``http.server`` is imported when
an endpoint is built, so a server without ``metrics_port`` (and every
worker it forks) never loads it.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from .exporters import json_snapshot, prometheus_text
from .registry import FleetSnapshot


def _window_seconds(raw: str) -> Optional[float]:
    """``?window=`` as seconds: None for ``all`` (the full retained
    span), the value for a finite number >= 0; ValueError otherwise."""
    if raw == "all":
        return None
    seconds = float(raw)
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(raw)
    return seconds


class MetricsEndpoint:
    """Serves live metrics snapshots over HTTP until closed.

    ``window_fn`` (optional) maps a window length in seconds (or None
    for the full retained span) to a
    :class:`~repro.telemetry.window.WindowSnapshot` or None; it backs
    ``/metrics.json?window=``.  ``health_fn`` (optional) returns a
    dict with an ``ok`` bool (see
    :meth:`~repro.telemetry.registry.MetricsRegistry.health`); without
    one ``/healthz`` is unconditionally ``ok``.  ``extra_fn``
    (optional) returns a JSON-safe dict merged into ``/metrics.json``
    under a ``"serving"`` key — the server uses it to expose state the
    shared-memory plane can't carry, like per-version entry counts of
    the explanation cache.
    """

    def __init__(self, snapshot_fn: Callable[[], FleetSnapshot],
                 host: str = "127.0.0.1", port: int = 0,
                 namespace: str = "reks",
                 window_fn: Optional[Callable] = None,
                 health_fn: Optional[Callable[[], dict]] = None,
                 extra_fn: Optional[Callable[[], dict]] = None) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self._snapshot_fn = snapshot_fn
        self._namespace = namespace
        self._window_fn = window_fn
        self._health_fn = health_fn
        self._extra_fn = extra_fn
        endpoint = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                parts = urlsplit(self.path)
                path = parts.path
                params = parse_qs(parts.query)
                try:
                    status = 200
                    if path in ("/metrics", "/"):
                        body = prometheus_text(
                            endpoint._snapshot_fn(),
                            namespace=endpoint._namespace)
                        ctype = "text/plain; version=0.0.4"
                    elif path == "/metrics.json":
                        status, body = endpoint._metrics_json(params)
                        ctype = "application/json"
                    elif path == "/healthz":
                        status, body, ctype = endpoint._healthz()
                    else:
                        self.send_error(404)
                        return
                except Exception as exc:  # surface, don't hang the probe
                    status = 500
                    body = json.dumps({"error": repr(exc)})
                    ctype = "application/json"
                payload = body.encode()
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:  # quiet
                pass

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="reks-metrics-http",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def _metrics_json(self, params) -> tuple:
        raw = params.get("window", [None])[0]
        if raw is None:
            if self._extra_fn is None:
                return 200, json_snapshot(self._snapshot_fn())
            payload = self._snapshot_fn().to_dict()
            payload["serving"] = self._extra_fn()
            return 200, json.dumps(payload, indent=2, sort_keys=True)
        if self._window_fn is None:
            return 400, json.dumps(
                {"error": "no rolling window configured on this "
                          "endpoint"})
        try:
            seconds = _window_seconds(raw)
        except ValueError:
            return 400, json.dumps(
                {"error": "window must be 'all' or a finite number of "
                          f"seconds >= 0, got {raw!r}"})
        win = self._window_fn(seconds)
        if win is None:  # fewer than two samples retained yet
            return 200, json.dumps({"window_seconds": seconds,
                                    "available": False})
        return 200, json.dumps(win.to_dict(), indent=2, sort_keys=True)

    def _healthz(self) -> tuple:
        if self._health_fn is None:
            return 200, "ok\n", "text/plain"
        health = self._health_fn()
        if health.get("ok", True):
            return 200, "ok\n", "text/plain"
        return (503, json.dumps(health, indent=2, sort_keys=True),
                "application/json")

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/metrics"

    @property
    def alive(self) -> bool:
        """Whether the serving thread is still running (False after a
        clean :meth:`close` — the no-dangling-thread contract)."""
        return self._thread.is_alive()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
