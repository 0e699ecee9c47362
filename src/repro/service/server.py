"""HTTP frontend for :class:`~repro.service.core.SchedulerService`.

The daemon is an app/transport split (:mod:`repro.service.http`):
:class:`DaemonApp` is a pure ``handle(Request) -> Response`` object holding
every endpoint, and :class:`~repro.service.http.ThreadedTransport` binds it
to a socket (one thread per connection)::

    server = ThreadedTransport(("127.0.0.1", 0), DaemonApp(service))
    server.serve_forever()          # server.app.service is the service

Endpoints:

``POST /schedule``
    Body: ``{"algorithm", "instance" | "generate", "params", "validate"}``
    (see :func:`repro.service.core.request_from_payload`), answered on the
    connection's own thread by :meth:`SchedulerService.schedule`.  Returns
    the response payload of :func:`repro.service.core.compute_response` plus
    ``"cache_hit"`` and ``"elapsed_ms"``.  Malformed input → 400; service
    backpressure → 503; a wait past ``request_timeout`` → 504; internal
    scheduling failures → 500.
``POST /replay``
    Online replay, streamed: epoch-reschedule an arrival trace and return
    a chunked ``application/x-ndjson`` stream — one ``{"epoch": ...}``
    line per rescheduling epoch as it completes, then the full legacy
    response document (metrics + epochs + schedule + ``"elapsed_ms"``) as
    the final line.  Per-epoch batch plans are memoised in the service's
    plan cache, so re-runs and overlapping traces skip the offline kernel.
    A replay failure after streaming began truncates the stream (no
    terminating zero chunk); parse errors are still plain 400s.
``GET /healthz``
    SLO-driven health probe: ``{"status": "ok" | "degraded" | "failing",
    "uptime_seconds", "reasons", "scale_hint"}``; ``failing`` answers 503.
``GET /metrics``
    The :meth:`SchedulerService.metrics` JSON (request counts, cache
    hit/miss, latency percentiles, queue depth, rejections, SLO burn
    rates, health state); ``?format=prometheus`` renders the text
    exposition format instead.
``GET /metrics/history``
    Downsampled metric time series over the trailing window
    (``?window=<seconds>&step=<seconds>``) plus the SLO evaluation.
``GET /trace/<id>`` / ``GET /traces``
    One stitched trace document / newest-first trace summaries.
``POST /purge``
    Explicit cache-eviction control message (the shared-nothing eviction
    protocol of the sharded cluster): drops expired entries now, or the whole
    cache with body ``{"all": true}``.  Returns the purge counts.
``POST /shutdown``
    Graceful stop — only honoured when the app was created with
    ``allow_shutdown=True`` (tests and self-hosted benchmarks);
    403 otherwise.

Shard deployments (:mod:`repro.service.cluster`) create the app with
``trust_fast_headers=True``: when the router forwarded a request with the
precomputed cache-key headers (``X-Repro-Fingerprint`` & co.), a cache hit is
served straight from the trusted headers without parsing the body — the shard
"owns" its cache slice and answers hits locally.

No third-party dependencies: the whole frontend is stdlib ``http.server`` +
``json``, matching the repo's stdlib-only constraint.
"""

from __future__ import annotations

import json
import threading
import time

from ..obs.names import (
    SPAN_FAST_HIT,
    SPAN_FINGERPRINT,
    SPAN_PARSE,
    SPAN_SERIALIZE,
)
from ..obs.prometheus import render_service_metrics
from ..obs.tracing import Trace
from .cache import MISS
from .core import SchedulerService, request_from_payload
from .http import App, Request, Response, Route, ThreadedTransport

__all__ = [
    "DaemonApp",
    "start_background_server",
]


class DaemonApp(App):
    """The daemon/shard application: every endpoint over one service.

    Pure request→response logic; sockets, threads and event loops live in
    the transport that binds it.  Handlers raise domain exceptions — the
    shared mapper in :mod:`repro.service.http.errors` owns the
    error→status contract (400/503/504/500).
    """

    def __init__(
        self,
        service: SchedulerService | None = None,
        *,
        allow_shutdown: bool = False,
        request_timeout: float | None = 300.0,
        verbose: bool = False,
        trust_fast_headers: bool = False,
    ) -> None:
        super().__init__(verbose=verbose)
        self.service = service or SchedulerService()
        self.allow_shutdown = allow_shutdown
        self.request_timeout = request_timeout
        self.trust_fast_headers = trust_fast_headers
        self.started = time.monotonic()

    def routes(self) -> list[Route]:
        return super().routes() + [
            Route("GET", "/healthz", self._handle_healthz),
            Route("GET", "/metrics", self._handle_metrics),
            Route("GET", "/metrics/history", self._handle_history),
            Route("GET", "/trace/", self._handle_trace, prefix=True),
            Route("POST", "/schedule", self._handle_schedule),
            Route("POST", "/replay", self._handle_replay),
            Route("POST", "/purge", self._handle_purge),
        ]

    @property
    def traces(self):
        return self.service.traces

    def close(self) -> None:
        self.service.close()

    # ------------------------------------------------------------------ #
    # GET routes
    # ------------------------------------------------------------------ #
    def _handle_healthz(self, request: Request) -> Response:
        # Health is the SLO-driven state machine, not bare liveness:
        # "failing" maps to 503 so load balancers eject the instance,
        # "degraded" stays 200 (still serving) with reasons attached.
        health = self.service.health()
        return Response.json(
            503 if health["state"] == "failing" else 200,
            {
                "status": health["state"],
                "uptime_seconds": time.monotonic() - self.started,
                "reasons": health["reasons"],
                "scale_hint": health["scale_hint"],
            },
        )

    def _handle_metrics(self, request: Request) -> Response:
        return self.metrics_response(
            request, self.service.metrics(), render_service_metrics
        )

    def _handle_history(self, request: Request) -> Response:
        """Downsampled metric time series: ``?window=<s>&step=<s>``."""
        window_s, step_s = self.parse_window_query(request)
        return Response.json(200, self.service.history_document(window_s, step_s))

    def _handle_trace(self, request: Request, trace_id: str) -> Response:
        """One stitched trace document: ``{"trace_id", "components": [...]}``.

        A single daemon/shard contributes exactly one component; the
        cluster router overrides this route to concatenate its own
        component with every shard's before responding.
        """
        trace = self.service.traces.get(trace_id)
        if trace is None:
            return Response.json(404, {"error": f"unknown trace {trace_id!r}"})
        return Response.json(
            200, {"trace_id": trace_id, "components": [trace.as_dict()]}
        )

    # ------------------------------------------------------------------ #
    # POST routes
    # ------------------------------------------------------------------ #
    def _try_fast_hit(self, request: Request, trace: Trace | None) -> Response | None:
        """Serve a cache hit keyed by trusted router headers, or ``None``.

        Only active with ``trust_fast_headers`` (shard workers behind the
        cluster router).  The router already parsed and fingerprinted the
        payload, so the full cache key travels in headers and a hit skips
        body parsing and fingerprinting entirely.  On a miss the caller
        falls through to the normal pipeline.
        """
        if not self.trust_fast_headers:
            return None
        fingerprint = request.headers.get("X-Repro-Fingerprint")
        if not fingerprint:
            return None
        start = time.perf_counter()
        key = (
            fingerprint,
            request.headers.get("X-Repro-Algorithm", "mrt"),
            request.headers.get("X-Repro-Params", "{}"),
            request.headers.get("X-Repro-Validate", "0") == "1",
        )
        payload = self.service.serve_cached(key)
        if payload is MISS:
            return None
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.service.note_latency(elapsed_ms)
        response = dict(payload)  # shallow: "result" is shared and read-only
        response["cache_hit"] = True
        response["elapsed_ms"] = elapsed_ms
        if trace is not None:
            trace.record_span(SPAN_FAST_HIT, start, time.perf_counter())
        return self._finish_schedule(response, trace)

    def _finish_schedule(self, payload: dict, trace: Trace | None) -> Response:
        """Serialize (under a span when traced) and land the trace."""
        if trace is None:
            return Response.json(200, payload)
        start = time.perf_counter()
        body = json.dumps(payload).encode()
        trace.record_span(SPAN_SERIALIZE, start, time.perf_counter())
        return self.traced_response(200, body, trace)

    def _handle_schedule(self, request: Request) -> Response:
        service = self.service
        trace: Trace | None = None
        if service.tracing:
            # Adopt a propagated id (router→shard hop) or mint a fresh one.
            trace = service.tracer.start(request.headers.get("X-Repro-Trace-Id"))
        fast = self._try_fast_hit(request, trace)
        if fast is not None:
            return fast
        if trace is not None:
            start = time.perf_counter()
            payload = self.read_json_body(request)
            parsed = time.perf_counter()
            trace.record_span(SPAN_PARSE, start, parsed)
            sched_request = request_from_payload(payload)
            trace.record_span(SPAN_FINGERPRINT, parsed, time.perf_counter())
        else:
            sched_request = request_from_payload(self.read_json_body(request))
        response = service.schedule(
            sched_request, trace=trace, timeout=self.request_timeout
        )
        return self._finish_schedule(response, trace)

    def _handle_replay(self, request: Request) -> Response:
        """Online replay, streamed: one NDJSON frame per epoch, chunked.

        The payload is parsed before the response starts (so malformed
        payloads stay clean 400s); the replay then runs on the handler
        thread as the transport pulls
        :func:`~repro.online.replay.iter_replay_frames`: each
        :class:`~repro.online.epoch.EpochReport` is written as an
        ``{"epoch": ...}`` line the moment its batch is scheduled, the next
        batch waits for that write, and the final line is the complete
        legacy response document.  Per-epoch
        batch plans are memoised in the service's
        :class:`~repro.online.plancache.PlanCache`, so repeated and
        overlapping traces skip the dichotomic search.  The ``/schedule``
        result cache is untouched.
        """
        # Local import: only /replay needs the online subsystem — keep the
        # serving frontend's module dependency graph decoupled from it.
        from ..online.replay import iter_replay_frames, replay_from_payload

        trace, rescheduler, validate = replay_from_payload(
            self.read_json_body(request), plan_cache=self.service.plan_cache
        )
        return Response.ndjson_stream(
            iter_replay_frames(trace, rescheduler, validate)
        )

    def _handle_purge(self, request: Request) -> Response:
        """Explicit eviction message: drop expired entries (or everything).

        ``{"all": true}`` also empties the replay plan cache (it has no TTL,
        so a full purge is its only eviction message besides LRU pressure);
        the count comes back as ``"plan_cleared"``.
        """
        payload = self.read_optional_dict_body(request, context="purge")
        cache = self.service.cache
        cleared = 0
        plan_cleared = 0
        if payload.get("all"):
            cleared = len(cache)
            cache.clear()
            plan_cleared = self.service.plan_cache.clear()
            expired = 0
        else:
            expired = cache.purge_expired()
        return Response.json(
            200,
            {
                "expired_purged": expired,
                "cleared": cleared,
                "plan_cleared": plan_cleared,
                "size": len(cache),
            },
        )


def start_background_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: SchedulerService | None = None,
    **app_kwargs,
):
    """Serve a :class:`DaemonApp` on a daemon thread; returns ``(server, thread)``.

    ``port=0`` picks an ephemeral port; ``app_kwargs`` go to
    :class:`DaemonApp` and ``server.app.service`` is the service.  Used by
    the tests and the benchmarks.  Stop it with ``server.close()``.
    """
    app = DaemonApp(service, **app_kwargs)
    server = ThreadedTransport((host, port), app, verbose=app.verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="scheduler-service-http", daemon=True
    )
    thread.start()
    return server, thread
