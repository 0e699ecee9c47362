"""Request/Response model and the transport-agnostic :class:`App` base.

A transport parses one HTTP request into a :class:`Request`, calls
``app.handle(request)`` and writes the returned :class:`Response` — nothing
else crosses the boundary.  Apps declare their endpoints as a
:class:`Route` table; handlers raise domain exceptions
(:class:`~repro.exceptions.ModelError` & co.) and the shared mapper in
:mod:`~repro.service.http.errors` turns them into status codes, so the
error contract lives in exactly one place.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs

__all__ = [
    "App",
    "MAX_BODY_BYTES",
    "Request",
    "Response",
    "Route",
]

#: Refuse request bodies larger than this (64 MiB) — a crude but effective
#: guard against memory exhaustion from a single client.  Enforced by the
#: transport *before* reading the body.
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request, transport-independent.

    ``target`` is the raw request target (path + query, exactly as sent —
    the 404 diagnostics quote it verbatim); ``path`` and ``query`` are its
    split halves.  ``headers`` only needs case-insensitive ``get``.
    """

    method: str
    target: str
    path: str
    query: str
    headers: Any
    body: bytes = b""

    def query_param(self, name: str) -> str | None:
        """First value of a query parameter, or ``None`` when absent."""
        values = parse_qs(self.query).get(name)
        return values[0] if values else None


@dataclass
class Response:
    """One HTTP response: status, body bytes and extra headers.

    Transports always emit ``Content-Type`` and an exact ``Content-Length``
    (including ``0`` for empty bodies) plus every entry of ``headers`` —
    the ``X-Repro-*`` contract rides there.  ``close`` asks the transport
    to drop the connection after writing; ``after_send`` runs once the
    bytes are on the wire (the ``/shutdown`` hook).

    Streaming variant: when ``stream`` is set (an iterable of byte frames;
    ``body`` stays empty) the transport emits ``Transfer-Encoding: chunked``
    instead of a ``Content-Length``, writing exactly one HTTP chunk per
    non-empty frame as the iterator yields it — frame boundaries are part
    of the wire contract, pinned by the chunked parity matrix in
    ``tests/test_http_parity.py``.  A clean end of iteration writes the
    terminating zero-length chunk; an iterator that *raises* mid-stream
    aborts the connection **without** the terminator, so truncation is the
    client's one error signal.  ``after_send`` runs only
    after a complete stream.
    """

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)
    close: bool = False
    after_send: Callable[[], None] | None = None
    stream: Iterable[bytes] | None = None

    @classmethod
    def json(cls, status: int, payload: dict, **kwargs) -> "Response":
        """JSON response with the stack's canonical ``json.dumps`` bytes."""
        return cls(status, json.dumps(payload).encode(), **kwargs)

    @classmethod
    def ndjson_stream(cls, frames: Iterable[bytes], **kwargs) -> "Response":
        """Chunked NDJSON stream (one JSON line per frame, ``POST /replay``)."""
        return cls(200, stream=frames, content_type="application/x-ndjson", **kwargs)


@dataclass(frozen=True)
class Route:
    """One route-table entry.

    ``prefix=True`` matches any path starting with ``path`` and passes the
    remainder to the handler as a second argument (``/trace/<id>``).
    """

    method: str
    path: str
    handler: Callable[..., Response]
    prefix: bool = False


class App:
    """Transport-agnostic application: ``handle(Request) -> Response``.

    Subclasses extend :meth:`routes` (declarative table) with plain
    handler methods.  ``handle`` owns dispatch, the 404 fallback and the
    single error→status mapping; handlers either return a
    :class:`Response` or raise, never both map and send.  The base serves
    what every app shares: ``GET /traces``, the gated ``POST /shutdown``
    and the trace landing of :meth:`traced_response`.
    """

    #: Transports reject bodies above this before reading them.
    max_body_bytes = MAX_BODY_BYTES
    #: ``POST /shutdown`` answers 403 unless a subclass sets this.
    allow_shutdown = False
    #: The :class:`~repro.obs.tracing.TraceStore` behind ``GET /traces``
    #: and :meth:`traced_response`; every subclass provides one.
    traces: Any

    def __init__(self, *, verbose: bool = False) -> None:
        self.verbose = verbose
        #: Installed by the transport that binds this app: a zero-argument
        #: callable triggering a graceful server stop (the /shutdown hook).
        self.transport_shutdown: Callable[[], None] | None = None
        self._exact: dict[tuple[str, str], Callable[..., Response]] = {}
        self._prefixes: list[Route] = []
        for route in self.routes():
            if route.prefix:
                self._prefixes.append(route)
            else:
                self._exact[(route.method, route.path)] = route.handler

    # ------------------------------------------------------------------ #
    # subclass surface
    # ------------------------------------------------------------------ #
    def routes(self) -> list[Route]:
        """The routes every app serves; subclasses extend this list."""
        return [
            Route("GET", "/traces", self._handle_traces),
            Route("POST", "/shutdown", self._handle_shutdown),
        ]

    def close(self) -> None:
        """Release app-owned resources (called by ``transport.close()``)."""

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def handle(self, request: Request) -> Response:
        handler = self._exact.get((request.method, request.path))
        args: tuple = (request,)
        if handler is None:
            for route in self._prefixes:
                if request.method == route.method and request.path.startswith(
                    route.path
                ):
                    handler = route.handler
                    args = (request, request.path[len(route.path) :])
                    break
        if handler is None:
            return Response.json(404, {"error": f"unknown path {request.target!r}"})
        try:
            return handler(*args)
        except Exception as exc:  # noqa: BLE001 — never drop the connection
            # The one place request-handling exceptions become statuses:
            # anything a handler raises (malformed input, backpressure, a
            # user-registered scheduler crashing) must still come back as
            # the documented JSON error instead of a reset socket.
            from .errors import map_exception

            return map_exception(exc)

    def log(self, message: str, *args) -> None:
        """Operator log line (stderr), printed only in verbose mode."""
        if self.verbose:
            print(message % args if args else message, file=sys.stderr, flush=True)

    # ------------------------------------------------------------------ #
    # shared routes
    # ------------------------------------------------------------------ #
    def _handle_traces(self, request: Request) -> Response:
        """Newest-first trace summaries; ``?slow_ms=N`` filters by duration."""
        store = self.traces
        slow_ms = self.parse_slow_ms_query(request)
        return Response.json(
            200,
            {
                "traces": store.summaries(slow_ms=slow_ms),
                "slow_log": store.slow_log(),
                "slow_total": store.slow_total,
                "slow_ms": store.slow_ms,
            },
        )

    def _handle_shutdown(self, request: Request) -> Response:
        if not self.allow_shutdown:
            return Response.json(403, {"error": "shutdown endpoint disabled"})
        # The stop signal fires only after the response bytes are on the
        # wire (the transport's shutdown hook is itself non-blocking).
        return Response.json(
            200, {"status": "shutting down"}, after_send=self._request_stop
        )

    def _request_stop(self) -> None:
        if self.transport_shutdown is not None:
            self.transport_shutdown()

    # ------------------------------------------------------------------ #
    # shared request plumbing
    # ------------------------------------------------------------------ #
    def traced_response(self, status: int, body: bytes | dict, trace) -> Response:
        """Land ``trace`` (if any), then answer ``body`` with its id header.

        The trace is finished and stored *before* the bytes hit the wire
        (the transport writes only after ``handle`` returns), so a client
        can ``GET /trace/<id>`` the id it reads from the
        ``X-Repro-Trace-Id`` header immediately.  Stored for every status:
        a 503 after exhausted retries is exactly the request worth a record
        of.  The body never carries the id, so it stays byte-identical to
        the untraced output.
        """
        if isinstance(body, dict):
            body = json.dumps(body).encode()
        headers: dict[str, str] = {}
        if trace is not None:
            trace.finish()
            self.traces.add(trace)
            if trace.duration_ms >= self.traces.slow_ms:
                self.log(
                    "slow request trace=%s %.1fms", trace.trace_id, trace.duration_ms
                )
            headers["X-Repro-Trace-Id"] = trace.trace_id
        return Response(status, body, headers=headers)

    @staticmethod
    def metrics_response(
        request: Request, metrics: dict, render: Callable[[dict], str]
    ) -> Response:
        """``/metrics`` as JSON, or rendered by ``render`` (``?format=prometheus``)."""
        if request.query_param("format") == "prometheus":
            return Response(
                200,
                render(metrics).encode(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        return Response.json(200, metrics)

    @staticmethod
    def read_json_body(request: Request) -> dict:
        """Decode a required JSON request body (400 via ModelError if bad)."""
        from ...exceptions import ModelError

        if not request.body:
            raise ModelError("missing or empty request body")
        try:
            return json.loads(request.body)
        except json.JSONDecodeError as exc:
            raise ModelError(f"request body is not valid JSON: {exc}") from exc

    @staticmethod
    def read_optional_dict_body(request: Request, *, context: str) -> dict:
        """Decode an optional JSON-object body (``/purge``); ``{}`` if empty."""
        from ...exceptions import ModelError

        if not request.body:
            return {}
        try:
            decoded = json.loads(request.body)
        except (json.JSONDecodeError, ValueError) as exc:
            raise ModelError(f"{context} body is not valid JSON") from exc
        return decoded if isinstance(decoded, dict) else {}

    @staticmethod
    def parse_window_query(request: Request) -> tuple[float | None, float | None]:
        """``?window=<s>&step=<s>`` of ``/metrics/history`` (400 when bad)."""
        from ...exceptions import ModelError

        try:
            window = request.query_param("window")
            step = request.query_param("step")
            window_s = float(window) if window is not None else None
            step_s = float(step) if step is not None else None
            if window_s is not None and window_s <= 0:
                raise ValueError("window must be positive")
            if step_s is not None and step_s <= 0:
                raise ValueError("step must be positive")
        except ValueError as exc:
            raise ModelError(f"bad history query: {exc}") from None
        return window_s, step_s

    @staticmethod
    def parse_slow_ms_query(request: Request) -> float | None:
        """``?slow_ms=N`` of ``/traces`` (400 when not a float)."""
        from ...exceptions import ModelError

        slow_param = request.query_param("slow_ms")
        if slow_param is None:
            return None
        try:
            return float(slow_param)
        except ValueError:
            raise ModelError(f"bad slow_ms {slow_param!r}") from None
