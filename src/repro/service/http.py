"""Stdlib JSON-over-HTTP frontend for :class:`~repro.service.QueryService`.

Endpoints:

* ``POST /query`` — body ``{"graph": ..., "method": ..., "seed_node": ...,
  "params": {...}, "rng": ..., "top_k": ..., "timeout_ms": ...}``; responds
  with the :meth:`QueryResponse.to_dict` envelope.  ``400`` for invalid
  requests, ``429`` when admission control rejects (backpressure), ``504``
  when the query's deadline trips (body carries ``timeout_ms``,
  ``elapsed_ms`` and the partial-work counters), ``500`` for execution
  failures.
* ``GET /stats`` — request totals and rate, cache hit rate, queue and
  batcher state, walks run, walk-index and graph-storage state (latency
  histograms are in ``/metrics``).
* ``GET /metrics`` — the Prometheus text exposition of the service's
  labeled metrics registry (disable with ``make_server(...,
  metrics_enabled=False)`` / ``repro-cli serve --no-metrics``).
* ``GET /trace/recent?n=K`` — the most recent finished query traces,
  newest first (spans with per-phase timings).
* ``POST /graphs/<name>/edges`` — body ``{"add": [[u, v], ...],
  "remove": [[u, v], ...]}``; applies an epoch-bumping edge mutation to a
  served graph (see :mod:`repro.dynamic`) and responds with the mutation
  summary (new epoch, edge count, whether the delta compacted, whether a
  walk index was detached).  ``404`` for an unknown graph, ``400`` for
  invalid edges (items that are not two integers, out-of-range,
  self-loops, duplicates, absent removals).
* ``DELETE /graphs/<name>`` — unregister a served graph, evicting its
  cached results.
* ``GET /graphs`` — registered graphs and their sizes.
* ``GET /methods`` — the servable methods with their full declarative
  parameter schemas, rendered straight from the estimator registry
  (:mod:`repro.estimators`).
* ``GET /healthz`` — liveness probe.

Built on ``http.server.ThreadingHTTPServer`` deliberately: one handler
thread per connection is exactly the shape the micro-batcher wants (many
concurrently *blocked* requests for it to fuse), and the stdlib keeps the
serving layer dependency-free.  This frontend is for trusted/benchmark use —
it performs no authentication.
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.exceptions import (
    QueryTimeoutError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.service.planner import DEFAULT_TOP_K
from repro.service.service import QueryService

#: Largest accepted request body, a defense against accidental floods.
MAX_BODY_BYTES = 1 << 20

#: Hard cap on how long a handler thread blocks on the response future.
#: A backstop behind the cooperative per-query deadline: it only fires if
#: a walk phase outlives its deadline checks (or no deadline is set at
#: all), and it maps to the same 504 a cooperative trip produces.  A push
#: runs inside ``submit``, before this wait starts, so only the query's
#: own deadline ends it.
FUTURE_TIMEOUT_SECONDS = 60.0


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps the JSON API onto a :class:`QueryService` (set on the server)."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: headers and body go out as
    # two writes, and with Nagle on a keep-alive response body waits for
    # the client's delayed ACK of the headers (a ~40 ms floor per request).
    disable_nagle_algorithm = True

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict, *, close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets self.close_connection, tearing the socket down
            # after the response is written.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        path = parts.path
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/metrics":
            if not getattr(self.server, "metrics_enabled", True):
                self._send_json(
                    404, {"error": "metrics endpoint is disabled"}
                )
                return
            self._send_text(
                200, self.service.render_metrics(), METRICS_CONTENT_TYPE
            )
        elif path == "/trace/recent":
            query = parse_qs(parts.query)
            try:
                n = int(query["n"][0]) if "n" in query else None
            except (TypeError, ValueError):
                self._send_json(
                    400, {"error": f"non-integer n={query.get('n')!r}"}
                )
                return
            self._send_json(200, {"traces": self.service.recent_traces(n)})
        elif path == "/graphs":
            self._send_json(200, {"graphs": self.service.registry.describe()})
        elif path == "/methods":
            from repro.estimators import describe_methods
            from repro.service.planner import SERVICE_METHODS

            self._send_json(
                200, {"methods": describe_methods(SERVICE_METHODS.values())}
            )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    @staticmethod
    def _mutation_target(path: str) -> str | None:
        """The graph name in ``/graphs/<name>/edges``, or ``None``."""
        segments = path.split("/")
        if len(segments) == 4 and segments[:2] == ["", "graphs"] and segments[3] == "edges":
            return unquote(segments[2]) or None
        return None

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        mutation_target = self._mutation_target(urlsplit(self.path).path)
        if self.path != "/query" and mutation_target is None:
            # The body is never read on this path — close so a keep-alive
            # connection does not parse its next request from body bytes.
            self._send_json(404, {"error": f"unknown path {self.path!r}"}, close=True)
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._send_json(400, {"error": "invalid Content-Length header"}, close=True)
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so a keep-alive connection would
            # desync (the next request would be parsed from body bytes) —
            # close it instead of draining megabytes.
            self._send_json(
                400, {"error": "missing or oversized request body"}, close=True
            )
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_json(400, {"error": f"invalid JSON body: {error}"})
            return
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "request body must be a JSON object"})
            return
        if mutation_target is not None:
            self._handle_mutation(mutation_target, payload)
            return
        missing = [key for key in ("graph", "method", "seed_node") if key not in payload]
        if missing:
            self._send_json(400, {"error": f"missing field(s): {missing}"})
            return
        try:
            response = self.service.query(
                payload["graph"],
                payload["method"],
                payload["seed_node"],
                payload.get("params"),
                rng=payload.get("rng"),
                top_k=payload.get("top_k", DEFAULT_TOP_K),
                timeout_ms=payload.get("timeout_ms"),
                timeout=FUTURE_TIMEOUT_SECONDS,
            )
            # The response carries the graph snapshot resolved at
            # admission — do NOT look the name up again here: an unregister
            # between execution and rendering used to turn a completed
            # query into a spurious 500, and a mutation would re-rank it.
            self._send_json(200, response.to_dict())
        except QueryTimeoutError as error:
            body = {
                "error": str(error),
                "timeout_ms": error.timeout_ms,
            }
            if error.elapsed_ms is not None:
                body["elapsed_ms"] = round(error.elapsed_ms, 3)
            if error.counters is not None:
                body["counters"] = error.counters.as_dict()
            self._send_json(504, body)
        except concurrent.futures.TimeoutError:
            # The future-wait backstop fired (the query is still running
            # server-side).  This used to fall into the blanket handler
            # below and masquerade as a 500.
            self._send_json(
                504,
                {
                    "error": (
                        "query did not complete within the server's "
                        f"{FUTURE_TIMEOUT_SECONDS:g} s response window"
                    ),
                    "timeout_ms": FUTURE_TIMEOUT_SECONDS * 1000.0,
                },
            )
        except ServiceOverloadedError as error:
            self._send_json(429, {"error": str(error)})
        except ReproError as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - keep the server alive
            self._send_json(500, {"error": f"internal error: {error}"})

    def _handle_mutation(self, name: str, payload: dict) -> None:
        """``POST /graphs/<name>/edges`` — apply an edge mutation."""
        unknown = [key for key in payload if key not in ("add", "remove")]
        if unknown:
            self._send_json(
                400,
                {"error": f"unknown field(s) {unknown}; expected add/remove"},
            )
            return
        add = payload.get("add", [])
        remove = payload.get("remove", [])
        if not isinstance(add, list) or not isinstance(remove, list):
            self._send_json(
                400, {"error": "add/remove must be lists of [u, v] pairs"}
            )
            return
        try:
            # Resolve first so an unknown graph is a 404 (resource missing)
            # rather than the 400 a bad edge batch earns below.
            self.service.registry.get(name)
        except ServiceError as error:
            self._send_json(404, {"error": str(error)})
            return
        try:
            summary = self.service.mutate_graph(name, add=add, remove=remove)
        except ReproError as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - keep the server alive
            self._send_json(500, {"error": f"internal error: {error}"})
        else:
            self._send_json(200, summary)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        segments = urlsplit(self.path).path.split("/")
        if len(segments) == 3 and segments[:2] == ["", "graphs"] and segments[2]:
            name = unquote(segments[2])
            try:
                self.service.remove_graph(name)
            except ServiceError as error:
                self._send_json(404, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 - keep the server alive
                self._send_json(500, {"error": f"internal error: {error}"})
            else:
                self._send_json(200, {"removed": name})
            return
        self._send_json(404, {"error": f"unknown path {self.path!r}"}, close=True)


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8355,
    *,
    metrics_enabled: bool = True,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``host:port``."""
    server = ThreadingHTTPServer((host, port), ServiceRequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.metrics_enabled = metrics_enabled  # type: ignore[attr-defined]
    return server


def serve_in_thread(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    metrics_enabled: bool = True,
) -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the server on a background thread (tests; port 0 = ephemeral)."""
    server = make_server(service, host, port, metrics_enabled=metrics_enabled)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread
