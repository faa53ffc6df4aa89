"""Stdlib HTTP front-end for the query broker.

A thin JSON protocol over :class:`http.server.ThreadingHTTPServer` (one
handler thread per connection; actual evaluation concurrency is bounded
by the broker's pool):

``POST /query``
    Request body: ``{"query": "<sPaQL>", "method": "summarysearch",
    "overrides": {"seed": 7, ...}, "deadline_ms": 250}`` (``method``,
    ``overrides``, and ``deadline_ms`` are optional; overrides are
    :class:`repro.config.SPQConfig` fields).  Response:
    ``{"feasible": ..., "objective": ..., "package": {...},
    "deadline_met": ..., "gap": ..., "anytime": {...},
    "wall_time_s": ..., "store": {...}}``.  Errors map to status codes:
    400 (bad request / parse / compile / invalid override value), 409
    (solve failure),
    503 (broker saturated), 504 (deadline expired before any incumbent
    existed — see docs/qos.md), 500 (unexpected).  A deadline that
    expires mid-solve is NOT an error: the response is a 200 carrying
    the best incumbent with ``deadline_met: false`` and its ``gap``.

``POST /update``
    Live-data mutation (docs/live_data.md).  Request body:
    ``{"table": "<name>", "delta": {"inserts": [...], "updates":
    [[key, {col: value}], ...], "deletes": [key, ...]}}``.  Applies the
    delta through :meth:`QueryBroker.apply_update` — catalog version
    bumps, the fingerprint lineage is extended, stale scenario matrices
    are pruned — and returns the application summary
    (``catalog_version``, old/new fingerprint, ``dirty_rows``).  Errors:
    400 (malformed delta), 404 (unknown table), 503 (broker closed).

``GET /status``
    Broker pool state, lifetime counters, uptime, store statistics.

``GET /metrics``
    Prometheus text exposition of the same counters
    (``repro_store_hits_total`` etc.) plus the per-stage latency
    histogram family ``repro_stage_seconds``.

``GET /trace/<trace_id>``
    Span tree of one recent query (the bounded broker trace ring; 404
    once evicted or when tracing is disabled).  ``POST /query`` accepts
    an optional ``"trace": true`` field to inline the same document in
    the response (under ``"trace"``), and always returns the
    ``"trace_id"`` when tracing is enabled.

Started from the CLI via ``repro serve`` or embedded via
:class:`SPQService` (``port=0`` binds an ephemeral port for tests).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .. import __version__
from ..config import SPQConfig
from ..errors import (
    CompileError,
    EvaluationError,
    ParseError,
    SchemaError,
    SPQError,
    VGFunctionError,
)
from ..obs import FAMILIES, histogram_exposition, status_sections
from .broker import BrokerSaturatedError, QueryBroker
from .qos import DeadlineExpiredError

#: How long ``GET /trace/<id>`` and ``"trace": true`` wait for a trace's
#: root span to land after its future resolves (done-callbacks run just
#: after result waiters wake; this is a bound, not a typical latency).
_TRACE_WAIT_S = 5.0

#: Maximum accepted request body (guards the JSON parse, not the solve).
MAX_BODY_BYTES = 4 * 1024 * 1024


def _json_value(value):
    """Coerce numpy scalars to JSON-serializable python values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_value(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def result_payload(result, wall_time_s: float) -> dict:
    """JSON document for one PackageResult."""
    payload = {
        "method": result.method,
        "feasible": bool(result.feasible),
        "succeeded": bool(result.succeeded),
        "objective": _json_value(result.objective),
        "epsilon_upper": _json_value(result.epsilon_upper),
        "message": result.message,
        "wall_time_s": wall_time_s,
        "package": None,
        # QoS contract (docs/qos.md): every response states its deadline
        # verdict and optimality gap, deadline or not.
        "deadline_met": True,
        "gap": 0.0 if result.succeeded else None,
        # A feasible answer with no certifiable (1+eps) bound.
        "uncertified": bool(result.uncertified),
        # certified / uncertified / proved_infeasible / not_found.
        "verdict": result.verdict,
    }
    if result.anytime is not None:
        payload["deadline_met"] = bool(result.anytime.deadline_met)
        payload["gap"] = _json_value(result.anytime.gap)
        payload["anytime"] = result.anytime.as_dict()
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict) and "catalog_version" in meta:
        # The catalog version the evaluation compiled against — clients
        # (and the soak harness) use it to detect stale answers after
        # a POST /update.
        payload["catalog_version"] = _json_value(meta["catalog_version"])
    if result.stats is not None:
        payload["stats"] = {
            "n_iterations": result.stats.n_iterations,
            "final_n_scenarios": result.stats.final_n_scenarios,
            "final_n_summaries": result.stats.final_n_summaries,
            "total_time": result.stats.total_time,
            "timed_out": result.stats.timed_out,
        }
    if result.package is not None:
        relation = result.package.to_relation()
        payload["package"] = {
            "total_count": result.package.total_count,
            "n_distinct": result.package.n_distinct,
            "multiplicities": {
                str(k): v for k, v in result.package.key_multiplicities().items()
            },
            "columns": relation.column_names,
            "rows": [
                {k: _json_value(v) for k, v in row.items()}
                for row in relation.iter_rows()
            ],
        }
    return payload


def metrics_text(broker: QueryBroker) -> str:
    """Prometheus text exposition of broker + store counters.

    One loop over :data:`~repro.obs.metrics.FAMILIES`, reading each
    value from the ``/status`` document built from the same snapshot;
    build info and the stage histograms are the only labelled families.
    The tier-1 format test validates the result with a strict text-format
    parser.
    """
    snapshot = broker.metrics()
    status = broker.status(snapshot)
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str, samples: list) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    # Standard build-info gauge: constant 1, identity in the labels, so
    # dashboards can join every other family against version/runtime.
    family(
        "repro_build_info", "gauge",
        "Build and runtime identity of this service (constant 1).",
        [
            f'repro_build_info{{version="{__version__}",'
            f'python="{platform.python_version()}"}} 1'
        ],
    )
    for name, kind, help_text, section, key in FAMILIES:
        values = status if section is None else status[section]
        # A gauge with no value (the gap of an answer that carried none)
        # is NaN in the text format.
        value = "NaN" if values[key] is None else values[key]
        family(name, kind, help_text, [f"{name} {value}"])
    # Per-stage latency histograms (trace spans observe into these even
    # when the ring is disabled -- they only need an active session).
    lines.extend(
        histogram_exposition(
            "repro_stage_seconds",
            "Wall seconds per traced pipeline stage.",
            snapshot["histograms"],
        )
    )
    return "\n".join(lines) + "\n"


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes /query, /status, /metrics onto the server's broker."""

    server: "SPQService"
    protocol_version = "HTTP/1.1"

    # --- plumbing -----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _respond(self, code: int, payload, content_type="application/json") -> None:
        body = (
            payload.encode()
            if isinstance(payload, str)
            else json.dumps(payload).encode()
        )
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, kind: str, message: str) -> None:
        # Error paths may leave an unread request body in the socket
        # (e.g. an oversized POST rejected before draining); closing the
        # connection keeps HTTP/1.1 keep-alive framing intact.
        self.close_connection = True
        self._respond(code, {"error": {"kind": kind, "message": message}})

    # --- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path == "/status":
            self._respond(200, {"status": "ok", **self.server.broker.status()})
        elif self.path == "/metrics":
            self._respond(
                200, metrics_text(self.server.broker), "text/plain; version=0.0.4"
            )
        elif self.path.startswith("/trace/"):
            self._get_trace(self.path[len("/trace/"):])
        else:
            self._error(404, "not-found", f"no route {self.path!r}")

    def _get_trace(self, trace_id: str) -> None:
        ring = self.server.broker.trace_ring
        if ring is None:
            self._error(
                404, "tracing-disabled",
                "tracing is disabled (config.trace_enabled = False)",
            )
            return
        tree = ring.tree(trace_id, wait_s=_TRACE_WAIT_S)
        if tree is None:
            self._error(
                404, "unknown-trace",
                f"no trace {trace_id!r} (unknown id, or evicted from the"
                f" ring of {ring.capacity})",
            )
            return
        self._respond(200, tree)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path not in ("/query", "/update"):
            self._error(404, "not-found", f"no route {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = 0
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, "bad-request", "body required (JSON, <= 4 MiB)")
            return
        try:
            request = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as error:
            self._error(400, "bad-request", f"invalid JSON: {error}")
            return
        if self.path == "/update":
            self._post_update(request)
            return
        if not isinstance(request, dict) or not isinstance(
            request.get("query"), str
        ):
            self._error(400, "bad-request", 'expected {"query": "<sPaQL>", ...}')
            return
        method = request.get("method", "summarysearch")
        overrides = request.get("overrides", {})
        if not isinstance(overrides, dict):
            self._error(400, "bad-request", '"overrides" must be an object')
            return
        unknown = set(overrides) - {f.name for f in dataclasses.fields(SPQConfig)}
        if unknown:
            self._error(
                400, "bad-request", f"unknown override(s): {sorted(unknown)}"
            )
            return
        if request.get("deadline_ms") is not None:
            # Top-level deadline_ms is sugar for the override (and wins
            # over a duplicate inside "overrides").
            overrides = {**overrides, "deadline_ms": request["deadline_ms"]}
        want_trace = bool(request.get("trace", False))
        started = time.perf_counter()
        try:
            future = self.server.broker.submit(
                request["query"], method=method, **overrides
            )
            result = future.result()
        except BrokerSaturatedError as error:
            self._error(503, "saturated", str(error))
            return
        except (ParseError, CompileError, SchemaError, VGFunctionError) as error:
            self._error(400, "parse", str(error))
            return
        except DeadlineExpiredError as error:
            self._error(504, "deadline-expired", str(error))
            return
        except EvaluationError as error:
            # Bad client-supplied config values (e.g. a non-numeric
            # deadline_ms) are malformed requests, not solve failures.
            self._error(400, "bad-request", str(error))
            return
        except SPQError as error:
            self._error(409, "solve", str(error))
            return
        except Exception as error:  # noqa: BLE001 - surface as JSON 500
            self._error(500, "internal", f"{type(error).__name__}: {error}")
            return
        payload = result_payload(result, time.perf_counter() - started)
        self._finish_query(payload, future, want_trace)

    def _post_update(self, request) -> None:
        """``POST /update`` — apply one relation delta (docs/live_data.md)."""
        if not isinstance(request, dict) or not isinstance(
            request.get("table"), str
        ):
            self._error(
                400, "bad-request",
                'expected {"table": "<name>", "delta": {...}}',
            )
            return
        delta = request.get("delta")
        if not isinstance(delta, dict):
            self._error(400, "bad-request", '"delta" must be an object')
            return
        try:
            summary = self.server.broker.apply_update(request["table"], delta)
        except SchemaError as error:
            message = str(error)
            if "unknown table" in message:
                self._error(404, "unknown-table", message)
            else:
                self._error(400, "bad-delta", message)
            return
        except SPQError as error:
            self._error(503, "unavailable", str(error))
            return
        except Exception as error:  # noqa: BLE001 - surface as JSON 500
            self._error(500, "internal", f"{type(error).__name__}: {error}")
            return
        self._respond(200, {"status": "ok", **summary})

    def _finish_query(self, payload: dict, future, want_trace: bool) -> None:
        snapshot = self.server.broker.metrics()
        payload["store"] = status_sections(snapshot)["store"]
        trace_id = getattr(future, "trace_id", None)
        ring = self.server.broker.trace_ring
        if trace_id is not None and ring is not None:
            payload["trace_id"] = trace_id
            if want_trace:
                # The root span lands in a done-callback, which may run
                # a beat after future.result() wakes us: wait on the
                # ring's condition, not just a snapshot.
                payload["trace"] = ring.tree(trace_id, wait_s=_TRACE_WAIT_S)
        self._respond(200, payload)


class SPQService(ThreadingHTTPServer):
    """The package-query HTTP service: a ThreadingHTTPServer + broker.

    ``port=0`` binds an ephemeral port (see :attr:`server_port`), which
    is what the end-to-end tests and the smoke script use.  The service
    does not own the broker unless ``own_broker=True`` (then
    :meth:`shutdown` also closes the broker and its store).
    """

    daemon_threads = True
    #: Listen backlog.  The stdlib default of 5 resets connections under
    #: a concurrent-client burst on a loaded host (the accept loop
    #: competes with handler threads for the GIL while handshakes queue);
    #: admission control — not the TCP backlog — is the intended place
    #: to shed load.
    request_queue_size = 128

    def __init__(
        self,
        broker: QueryBroker,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
        own_broker: bool = False,
    ):
        super().__init__((host, port), _ServiceHandler)
        self.broker = broker
        self.verbose = verbose
        self.own_broker = own_broker
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        return (self.server_address[0], self.server_port)

    def start_background(self) -> "SPQService":
        """Serve on a daemon thread (tests and embedded use)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="spq-service", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving; join the background thread; close owned broker."""
        super().shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()
        if self.own_broker:
            self.broker.close()
