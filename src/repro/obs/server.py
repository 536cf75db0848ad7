"""A stdlib-only HTTP ops endpoint for live introspection.

:class:`OpsServer` runs a :class:`~http.server.ThreadingHTTPServer` on a
daemon thread and exposes the process's runtime diagnostics:

======================  ================================================
``GET /metrics``        Prometheus text exposition of the process-global
                        metrics registry.
``GET /healthz``        JSON liveness document: uptime, recorder
                        occupancy, plan-cache occupancy/hit-ratio,
                        store size gauges, workload-tracker summary,
                        plus whatever the optional ``health`` callable
                        contributes (the CDC pipeline adds its
                        staleness watermark and queue depth).
``GET /debug/slow``     JSON array: the flight recorder's slow-op log.
``GET /debug/trace``    JSON array: recent spans from the span ring
                        (``?limit=N`` caps the tail).
``GET /debug/statements``  JSON array: per-fingerprint statement
                        statistics from the workload tracker, heaviest
                        first (``?top=N``, ``?lang=sparql|cypher``).
``GET /``               Route index.
``/quitquitquit``       Sets the shutdown event (GET or POST) — the
                        owning process decides what to do with it; used
                        by ``repro serve --once`` to end a grace period
                        deterministically.
======================  ================================================

Everything is read-only snapshots over thread-safe structures, so
serving concurrent scrapes while the service mutates state needs no
extra locking here.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .metrics import get_metrics
from .recorder import get_recorder
from .workload import get_workload, plan_cache_stats

__all__ = ["OpsServer"]

_ROUTES = [
    "/metrics",
    "/healthz",
    "/debug/slow",
    "/debug/trace",
    "/debug/statements",
    "/quitquitquit",
]

#: ``serve_forever``'s shutdown-poll period.  ``stop()`` blocks for up to
#: one period; socketserver's default of 0.5 s is paid by every exit.
_POLL_INTERVAL_S = 0.05

#: Gauges surfaced by ``/healthz`` as the store-size summary (set by the
#: CDC pipeline per batch).
_STORE_GAUGES = (
    ("nodes", "repro_store_nodes"),
    ("edges", "repro_store_edges"),
    ("triples", "repro_graph_triples"),
)


def _store_sizes() -> dict:
    sizes: dict = {}
    registry = get_metrics()
    for key, name in _STORE_GAUGES:
        family = registry.family(name)
        if family is None:
            continue
        for labels, gauge in family.children():
            if labels == ():
                sizes[key] = gauge.value
    return sizes


class OpsServer:
    """Serve ``/metrics``, ``/healthz``, and the debug routes.

    Args:
        host: bind address (default loopback).
        port: bind port; 0 picks an ephemeral port (see :meth:`start`'s
            return value for the actual one).
        health: optional zero-argument callable returning a dict merged
            into the ``/healthz`` document (e.g. CDC pipeline state).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Callable[[], dict] | None = None,
    ):
        self.host = host
        self.port = port
        self.health = health
        #: Set when a ``/quitquitquit`` request arrives.
        self.shutdown_requested = threading.Event()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> tuple[str, int]:
        """Bind and serve on a daemon thread; returns ``(host, port)``."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _POLL_INTERVAL_S},
            name="repro-ops-server",
            daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until ``/quitquitquit`` is hit (True) or timeout (False)."""
        return self.shutdown_requested.wait(timeout)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Route payloads
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        document: dict = {"status": "ok"}
        recorder = get_recorder()
        if recorder is not None:
            document["recorder"] = recorder.snapshot()
        caches = plan_cache_stats()
        if caches:
            document["plan_cache"] = caches
        sizes = _store_sizes()
        if sizes:
            document["store"] = sizes
        tracker = get_workload()
        if tracker is not None:
            document["statements"] = tracker.summary()
        if self.health is not None:
            try:
                document.update(self.health())
            except Exception as exc:
                document["status"] = "degraded"
                document["health_error"] = f"{type(exc).__name__}: {exc}"
        return document

    def debug_slow(self) -> list[dict]:
        recorder = get_recorder()
        return recorder.slow() if recorder is not None else []

    def debug_trace(self, limit: int | None = None) -> list[dict]:
        recorder = get_recorder()
        if recorder is not None:
            return recorder.recent_spans(limit)
        from .tracer import get_tracer

        tracer = get_tracer()
        if tracer is None:
            return []
        spans = tracer.serialized()
        return spans[-limit:] if limit is not None else spans

    def debug_statements(
        self, top: int | None = None, lang: str | None = None
    ) -> list[dict]:
        tracker = get_workload()
        return tracker.snapshot(top=top, lang=lang) if tracker else []


def _make_handler(server: OpsServer):
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args: object) -> None:
            pass  # scrapes should not spam the service's stderr

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            if route == "/metrics":
                body = get_metrics().to_prometheus().encode()
                self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")
            elif route == "/healthz":
                self._json(200, server.healthz())
            elif route == "/debug/slow":
                self._json(200, server.debug_slow())
            elif route == "/debug/trace":
                query = parse_qs(parsed.query)
                limit = None
                if "limit" in query:
                    try:
                        limit = max(0, int(query["limit"][0]))
                    except ValueError:
                        self._json(400, {"error": "limit must be an integer"})
                        return
                self._json(200, server.debug_trace(limit))
            elif route == "/debug/statements":
                query = parse_qs(parsed.query)
                top = None
                if "top" in query:
                    try:
                        top = max(0, int(query["top"][0]))
                    except ValueError:
                        self._json(400, {"error": "top must be an integer"})
                        return
                lang = query.get("lang", [None])[0]
                if lang not in (None, "sparql", "cypher"):
                    self._json(400, {"error": "lang must be sparql or cypher"})
                    return
                self._json(200, server.debug_statements(top, lang))
            elif route == "/quitquitquit":
                server.shutdown_requested.set()
                self._json(200, {"shutdown": True})
            elif route == "/":
                self._json(200, {"routes": _ROUTES})
            else:
                self._json(404, {"error": f"unknown route {route!r}"})

        def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
            route = urlparse(self.path).path.rstrip("/")
            if route == "/quitquitquit":
                server.shutdown_requested.set()
                self._json(200, {"shutdown": True})
            else:
                self._json(404, {"error": f"unknown route {route!r}"})

        def _json(self, status: int, payload: object) -> None:
            body = json.dumps(payload, indent=2, default=str).encode()
            self._reply(status, body, "application/json")

        def _reply(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return _Handler
