"""Shard router: the HTTP frontend of the sharded scheduling cluster.

``POST /schedule`` requests are *routed by content*: the router fingerprints
the raw payload with the same
:func:`~repro.service.core.payload_fingerprint` /
:func:`~repro.model.instance.profile_fingerprint` pair the single-process
daemon uses, asks the :class:`~repro.service.cluster.ring.ShardRing` for the
owning shard, and forwards the *unmodified* body bytes there over a pooled
loopback HTTP connection.  Because the body is relayed verbatim and every
shard runs the exact same request pipeline as the standalone daemon, a
cluster response is byte-identical to a single-process response for the same
request.

The router additionally precomputes the shard's full cache key
(fingerprint, algorithm, canonical params JSON, validate flag) and sends it
as ``X-Repro-*`` headers: the shard (created with ``trust_fast_headers``)
serves cache hits straight from the trusted headers without re-parsing the
body — hit work splits between the router process (parse + fingerprint) and
the owning shard (lookup + serialisation), which is what lets hit throughput
scale with cores.

Payloads the fast fingerprint cannot handle (generator specs, malformed
bodies) are routed by a hash of their canonical JSON — deterministic, so
replays still land on the same shard and error responses come from the same
shard-side code path as the daemon's.

Like the daemon (:mod:`repro.service.server`), the router is an
app/transport split: :class:`RouterApp` holds every route and all routing
state, and :class:`~repro.service.http.ThreadedTransport` binds it to a
socket: ``ThreadedTransport(address, RouterApp(supervisor))``.

``POST /replay`` routes by ``(trace-prefix, kernel)`` — the fingerprint of
the trace's earliest-released tasks plus the kernel name (see
:func:`replay_routing_key`) — so re-runs and overlapping traces land on the
shard whose per-epoch plan cache is already warm, and relays the shard's
chunked NDJSON stream frame-for-frame as it is produced.

Other routes: ``GET /healthz`` (fleet liveness + the SLO-driven health
state machine; a fully-dead fleet or ``failing`` state answers 503),
``GET /metrics`` (aggregated per-shard + router view, including
hit-distribution imbalance, exact cluster-wide SLO burn rates and the
``scale_hint`` autoscaler contract), ``GET /metrics/history`` (per-shard
time series + merged cluster windows), ``POST /purge`` (fan the eviction
message out to every shard) and the gated ``POST /shutdown``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from hashlib import blake2b

from ...exceptions import ClusterError
from ...obs.health import evaluate_health
from ...obs.histogram import LatencyHistogram
from ...obs.names import SPAN_FORWARD, SPAN_ROUTE
from ...obs.prometheus import render_cluster_metrics
from ...obs.slo import SLO, evaluate_slo
from ...obs.timeseries import WindowDelta
from ...obs.tracing import Trace, TraceStore, Tracer
from ..cache import MISS, LRUTTLCache
from ..core import canonical_json, payload_fingerprint
from ..http import App, ConnectionPool, Request, Response, Route, ThreadedTransport
from .supervisor import ClusterSupervisor
from .worker import ShardSpec

__all__ = [
    "ClusterHandle",
    "RouterApp",
    "replay_routing_key",
    "routing_info",
    "start_cluster",
]


def routing_info(raw: bytes) -> tuple[str, dict[str, str]]:
    """Routing key and fast-path headers for a raw ``/schedule`` body.

    Returns ``(key, headers)`` where ``key`` feeds the consistent-hash ring
    and ``headers`` is either the full precomputed shard cache key
    (``X-Repro-*``) or empty when the fast path does not apply.  Never
    raises: undecodable bodies are routed by a content hash and rejected by
    the owning shard with exactly the daemon's error response.

    The headers are sent only for a body the shard's own parser accepts
    under the very same key; a fast hit would otherwise answer 200 where
    the daemon answers 400.  Bodies carrying both ``instance`` and
    ``generate``, ill-typed ``algorithm``/``params``/``validate`` and
    algorithm names no header carries verbatim (non-ASCII, control
    characters such as CR/LF, surrounding blanks) route by content alone,
    so the shard's request parser produces the canonical 400.
    """
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
        return "raw:" + blake2b(raw, digest_size=8).hexdigest(), {}
    if isinstance(payload, dict):
        instance = payload.get("instance")
        if isinstance(instance, dict):
            fingerprint = payload_fingerprint(instance)
            if fingerprint is not None:
                algorithm = payload.get("algorithm", "mrt")
                params = payload.get("params", {})
                validate = payload.get("validate", False)
                if (
                    "generate" in payload
                    or not isinstance(validate, bool)
                    or not isinstance(params, dict)
                    or not isinstance(algorithm, str)
                    or not algorithm.isascii()
                    or not algorithm.isprintable()
                    or algorithm != algorithm.strip()
                ):
                    return fingerprint, {}
                try:
                    params_json = canonical_json(params)
                except (TypeError, ValueError):  # pragma: no cover
                    return fingerprint, {}
                return fingerprint, {
                    "X-Repro-Fingerprint": fingerprint,
                    "X-Repro-Algorithm": algorithm,
                    "X-Repro-Params": params_json,
                    "X-Repro-Validate": "1" if validate else "0",
                }
    try:
        canon = canonical_json(payload)
    except (TypeError, ValueError):
        canon = raw.decode("utf-8", "replace")
    return "body:" + blake2b(canon.encode(), digest_size=8).hexdigest(), {}


#: How many of the earliest-released tasks form the replay routing prefix.
_REPLAY_PREFIX_TASKS = 8

#: Request headers of every router→shard ``/replay`` forward.
_REPLAY_HEADERS = {
    "Content-Type": "application/json",
    "Accept": "application/x-ndjson",
}


def replay_routing_key(raw: bytes) -> str:
    """``(trace-prefix, kernel)`` routing key for a raw ``/replay`` body.

    Replays are routed by the fingerprint of the trace's *prefix* — the
    first :data:`_REPLAY_PREFIX_TASKS` tasks in stable release order — plus
    the kernel name, so re-runs, extended traces and overlapping traces all
    land on the shard whose plan cache is already warm with their early
    epochs.  (Routing by the full-trace fingerprint would scatter a trace
    and its one-task extension to different shards; routing by prefix keeps
    them together, and later epochs of a longer trace warm the same shard
    further.)  Generator specs route by their canonical spec hash — the
    same ``(spec, kernel)`` always replays on the same shard.  Never
    raises: undecodable bodies route by content hash and are rejected by
    the owning shard with exactly the daemon's error bytes.
    """
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
        return "replay-raw:" + blake2b(raw, digest_size=8).hexdigest()
    if isinstance(payload, dict):
        kernel = payload.get("kernel", "barrier")
        if not isinstance(kernel, str):
            kernel = "?"
        trace = payload.get("trace")
        if isinstance(trace, dict) and isinstance(trace.get("tasks"), list):
            tasks = trace["tasks"]

            def release_of(task) -> float:
                value = task.get("release", 0.0) if isinstance(task, dict) else 0.0
                return value if isinstance(value, (int, float)) else 0.0

            prefix = sorted(tasks, key=release_of)[:_REPLAY_PREFIX_TASKS]
            fingerprint = payload_fingerprint(
                {"num_procs": trace.get("num_procs"), "tasks": prefix}
            )
            if fingerprint is not None:
                return f"replay:{kernel}:{fingerprint}"
        generate = payload.get("generate")
        if isinstance(generate, dict):
            try:
                canon = canonical_json(generate)
            except (TypeError, ValueError):  # pragma: no cover - json-decoded
                canon = repr(generate)
            digest = blake2b(canon.encode(), digest_size=8).hexdigest()
            return f"replay:{kernel}:gen:{digest}"
    try:
        canon = canonical_json(payload)
    except (TypeError, ValueError):
        canon = raw.decode("utf-8", "replace")
    return "replay-body:" + blake2b(canon.encode(), digest_size=8).hexdigest()


class RouterApp(App):
    """The router application: content routing + fleet aggregation.

    Pure request→response logic over one :class:`ClusterSupervisor`;
    sockets live in the transport that binds it.  Forward failures are
    infrastructure outcomes, not handler exceptions — they answer 503 here
    (the shard-unavailable contract), while malformed *client* input is
    still rejected by the owning shard's own pipeline so the bytes match
    the daemon's.
    """

    def __init__(
        self,
        supervisor: ClusterSupervisor,
        *,
        allow_shutdown: bool = False,
        verbose: bool = False,
        forward_timeout: float = 300.0,
        forward_retries: int = 3,
        retry_wait: float = 0.25,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_ms: float = 500.0,
        trace_seed: int = 0,
        slo: SLO | None = None,
    ) -> None:
        super().__init__(verbose=verbose)
        self.supervisor = supervisor
        self.slo = slo if slo is not None else SLO()
        # The supervisor's monitor loop drives the cluster health probe so
        # the fleet reacts to burn rates without waiting for a scrape.
        supervisor.health_probe = self.cluster_health
        self.allow_shutdown = allow_shutdown
        self.forward_retries = int(forward_retries)
        self.retry_wait = float(retry_wait)
        self.connections = ConnectionPool(forward_timeout)
        # body-digest → (routing key, fast headers); see _handle_schedule.
        self.route_cache = LRUTTLCache(4096)
        self.tracing = bool(tracing)
        self.tracer = Tracer("router", seed=trace_seed)
        self.traces = TraceStore(trace_capacity, slow_ms=slow_ms)
        self._stats_lock = threading.Lock()
        self._requests_total = 0
        self._routing_errors = 0
        self._per_shard: dict[int, dict[str, int]] = {}
        # Router-observed forward latency: bounded log-bucket histogram
        # (the old deque grew a sample per request and aggregated wrongly).
        self.latency = LatencyHistogram()

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

    def close(self) -> None:
        """Stop routing on behalf of this app (the fleet stays up).

        Does *not* stop the shard fleet — that is the supervisor's job (see
        :meth:`ClusterHandle.close` for the combined teardown).
        """
        # Uninstall the health probe: the supervisor may outlive the router
        # and must not keep fanning out on behalf of a closed frontend.
        if self.supervisor.health_probe == self.cluster_health:
            self.supervisor.health_probe = None
        self.connections.close_all()

    # ------------------------------------------------------------------ #
    # GET routes
    # ------------------------------------------------------------------ #
    def _handle_healthz(self, request: Request) -> Response:
        """Fleet health: liveness + the SLO-driven cluster state machine.

        Answers 503 for a fully-dead fleet and for the ``failing`` state so
        load balancers can key off the status code; the JSON body keeps the
        pre-existing keys (``status``/``shards``/``alive``/``backend``/
        ``uptime_seconds``) and adds ``reasons`` + ``scale_hint``.  Uses the
        monitor-cached health document when fresh; recomputes when the
        cache is stale or liveness has visibly changed under it.
        """
        supervisor = self.supervisor
        alive = supervisor.alive_count()
        health = supervisor.last_health(max_age=supervisor.health_interval * 2.0)
        if health is None or alive < supervisor.num_shards:
            health = self.cluster_health()
        failing = alive == 0 or health["state"] == "failing"
        return Response.json(
            503 if failing else 200,
            {
                "status": health["state"],
                "shards": supervisor.num_shards,
                "alive": alive,
                "backend": supervisor.backend,
                "uptime_seconds": supervisor.uptime_seconds,
                "reasons": health["reasons"],
                "scale_hint": health["scale_hint"],
            },
        )

    def _handle_metrics(self, request: Request) -> Response:
        return self.metrics_response(
            request, self.aggregate_metrics(), render_cluster_metrics
        )

    def _handle_history(self, request: Request) -> Response:
        """Fleet time series: per-shard history docs + exact cluster SLO.

        One fan-out gathers every shard's ``/metrics/history``; the
        cluster-level SLO evaluation merges the window deltas those
        documents already carry (no second fan-out).
        """
        window_s, step_s = self.parse_window_query(request)
        supervisor = self.supervisor
        documents = supervisor.shard_histories(window_s, step_s)
        slo_status = self.cluster_slo_status(documents)
        health = evaluate_health(
            slo_status,
            alive=supervisor.alive_count(),
            shards=supervisor.num_shards,
        )
        return Response.json(
            200,
            {
                "component": "router",
                "window_s": window_s,
                "step_s": step_s,
                "shards": {
                    str(sid): doc for sid, doc in sorted(documents.items())
                },
                "slo": slo_status,
                "health": health,
            },
        )

    def _handle_trace(self, request: Request, trace_id: str) -> Response:
        """Stitch one trace across the fleet: router + every shard component.

        The router's component is the authoritative head (it observed the
        client-facing request); shard components are gathered with a
        best-effort fan-out keyed by the same propagated id, so one
        ``X-Repro-Trace-Id`` yields a single document spanning the forward
        hop *and* the shard-side pipeline.
        """
        trace = self.traces.get(trace_id)
        components: list[dict] = []
        if trace is not None:
            components.append(trace.as_dict())
        components.extend(self.supervisor.gather_trace_components(trace_id))
        if not components:
            return Response.json(404, {"error": f"unknown trace {trace_id!r}"})
        return Response.json(
            200, {"trace_id": trace_id, "components": components}
        )

    # ------------------------------------------------------------------ #
    # POST routes
    # ------------------------------------------------------------------ #
    def _handle_schedule(self, request: Request) -> Response:
        raw = request.body
        trace: Trace | None = None
        if self.tracing:
            # Adopt a client-supplied id or mint one; either way the same id
            # travels to the owning shard so /trace/<id> stitches both sides.
            trace = self.tracer.start(request.headers.get("X-Repro-Trace-Id"))
        # Route cache: routing_info is a pure function of the body bytes, and
        # the whole point of the fingerprint cache is that bodies repeat —
        # replays skip the JSON parse + fingerprint entirely (a ~100-byte
        # digest lookup instead), which keeps the router off the critical
        # path of warm-hit throughput.
        route_start = time.perf_counter()
        digest = blake2b(raw, digest_size=16).digest()
        cached = self.route_cache.get(digest)
        if cached is not MISS:
            key, fast_headers = cached
        else:
            key, fast_headers = routing_info(raw)
            self.route_cache.put(digest, (key, fast_headers))
        if trace is not None:
            trace.record_span(
                SPAN_ROUTE,
                route_start,
                time.perf_counter(),
                route_cached=cached is not MISS,
            )
        headers = {
            "Content-Type": "application/json",
            "Accept": "application/json",
            **fast_headers,
        }
        if trace is not None:
            headers["X-Repro-Trace-Id"] = trace.trace_id
        sent = self._forward(key, "/schedule", raw, headers, trace)
        if isinstance(sent, Response):
            return sent
        _, _, _, upstream, body = sent
        return self.traced_response(upstream.status, body, trace)

    def _handle_replay(self, request: Request) -> Response:
        """Route a replay to its ``(trace-prefix, kernel)`` shard and relay
        the chunked NDJSON stream frame-for-frame.

        Once the shard answered 200 the first frame may already be on the
        wire, so a mid-stream shard death surfaces to the client as stream
        truncation — the same error signal the daemon emits, which is
        exactly what keeps the two frontends behaviourally identical.
        Non-200 shard responses are read in full and relayed verbatim, so
        error bytes match the daemon's.  The replay path records no router
        trace: a trace's spans land when the response is *finished*, and a
        streamed body outlives the handler — forward latency is recorded
        as time-to-first-byte instead.
        """
        raw = request.body
        sent = self._forward(
            replay_routing_key(raw), "/replay", raw, _REPLAY_HEADERS, None,
            stream=True,
        )
        if isinstance(sent, Response):
            return sent
        shard_id, url, conn, upstream, body = sent
        if body is not None:
            return Response(upstream.status, body)
        return Response(
            200,
            stream=self._relay_stream(shard_id, url, conn, upstream),
            content_type=upstream.getheader("Content-Type")
            or "application/x-ndjson",
        )

    def _forward(
        self,
        key: str,
        path: str,
        raw: bytes,
        headers: dict[str, str],
        trace: Trace | None,
        *,
        stream: bool = False,
    ):
        """Route ``key`` to its shard and POST ``raw`` there, with retries.

        A failed attempt (connection refused or reset, a response cut
        short) sleeps ``retry_wait`` and retries on a freshly routed shard,
        up to ``forward_retries`` times; then, or on an empty ring, the
        answer is the documented 503.  Infrastructure outcomes, not handler
        bugs: each attempt records a forward span (``error=True`` when it
        failed) and the trace lands on every outcome.

        Returns that 503 :class:`Response`, or ``(shard_id, url, conn,
        upstream, body)``.  ``body`` holds the whole upstream body, with
        ``conn`` already back in the pool, except for a 200 on a ``stream``
        request: then ``body`` is ``None`` and the caller relays
        ``upstream`` off the still-held ``conn``.  Retries therefore only
        ever happen before a stream starts.
        """
        start = time.perf_counter()
        attempts = self.forward_retries + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.retry_wait)
            try:
                # Re-resolve the shard URL on every attempt: a crashed shard
                # comes back on a fresh port once the monitor respawns it.
                shard_id, url = self.supervisor.route(key)
            except ClusterError as exc:
                self.record_route_error(None)
                return self.traced_response(503, {"error": str(exc)}, trace)
            forward_start = time.perf_counter()
            conn = None
            try:
                # Connecting to a dead shard's port fails here, in acquire.
                conn = self.connections.acquire(shard_id, url)
                conn.request("POST", path, body=raw, headers=headers)
                upstream = conn.getresponse()
                body = None if stream and upstream.status == 200 else upstream.read()
            except (OSError, http.client.HTTPException):
                if conn is not None:
                    conn.close()
                if trace is not None:
                    trace.record_span(
                        SPAN_FORWARD,
                        forward_start,
                        time.perf_counter(),
                        shard=shard_id,
                        attempt=attempt,
                        error=True,
                    )
                self.record_route_error(shard_id)
                continue
            if body is not None:
                if upstream.will_close:
                    conn.close()
                else:
                    self.connections.release(shard_id, url, conn)
            if trace is not None:
                trace.record_span(
                    SPAN_FORWARD,
                    forward_start,
                    time.perf_counter(),
                    shard=shard_id,
                    attempt=attempt,
                    status=upstream.status,
                )
            self.record_forward(shard_id, (time.perf_counter() - start) * 1e3)
            return shard_id, url, conn, upstream, body
        return self.traced_response(
            503,
            {
                "error": f"shard {shard_id} unavailable after "
                f"{attempts} attempts; retry later"
            },
            trace,
        )

    def _relay_stream(self, shard_id, url, conn, upstream):
        """Re-emit the shard's NDJSON stream one line (= one chunk) at a time.

        ``http.client`` transparently decodes the shard's chunked framing;
        re-framing by line preserves the one-chunk-per-epoch boundary the
        parity suite pins.  A truncated upstream (shard died mid-replay)
        must truncate the client-facing stream too, so this reads with
        ``read1`` — the one decoding path that *raises* ``IncompleteRead``
        on truncation and returns ``b""`` only after consuming the clean
        terminating zero chunk (``readline``'s ``peek`` swallows the
        difference, and ``isclosed()`` cannot tell either: the protocol-lost
        path closes the response object too).  The pooled connection is only
        released for reuse after a complete, clean relay.
        """
        reusable = False
        try:
            buffer = b""
            while True:
                data = upstream.read1(65536)
                if not data:
                    if buffer:
                        raise ConnectionError(
                            "upstream replay stream ended mid-line"
                        )
                    reusable = not upstream.will_close
                    return
                buffer += data
                while (newline := buffer.find(b"\n")) >= 0:
                    yield buffer[: newline + 1]
                    buffer = buffer[newline + 1 :]
        finally:
            if reusable:
                self.connections.release(shard_id, url, conn)
            else:
                conn.close()

    def _handle_purge(self, request: Request) -> Response:
        payload = self.read_optional_dict_body(request, context="purge")
        results = self.supervisor.purge_all(all=bool(payload.get("all")))
        reachable = [r for r in results.values() if r is not None]
        return Response.json(
            200,
            {
                "expired_purged": sum(r["expired_purged"] for r in reachable),
                "cleared": sum(r["cleared"] for r in reachable),
                "plan_cleared": sum(
                    r.get("plan_cleared", 0) for r in reachable
                ),
                "shards": {str(sid): r for sid, r in results.items()},
            },
        )

    # ------------------------------------------------------------------ #
    # bookkeeping (called from handler threads)
    # ------------------------------------------------------------------ #
    def record_forward(self, shard_id: int, elapsed_ms: float) -> None:
        with self._stats_lock:
            self._requests_total += 1
            entry = self._per_shard.setdefault(
                shard_id, {"requests": 0, "errors": 0}
            )
            entry["requests"] += 1
            self.latency.observe(elapsed_ms)

    def record_route_error(self, shard_id: int | None) -> None:
        with self._stats_lock:
            self._routing_errors += 1
            if shard_id is not None:
                entry = self._per_shard.setdefault(
                    shard_id, {"requests": 0, "errors": 0}
                )
                entry["errors"] += 1

    # ------------------------------------------------------------------ #
    # SLO / health
    # ------------------------------------------------------------------ #
    def cluster_slo_status(self, snapshots: dict[int, dict | None]) -> dict:
        """Exact fleet-wide SLO evaluation from per-shard documents.

        ``snapshots`` maps shard id to any document carrying an ``slo``
        block (a ``/metrics`` snapshot or a ``/metrics/history`` doc).
        Each window's shard deltas merge by summing counters and histogram
        buckets — per-shard monotonic clocks never compare, the
        interval-relative deltas do — so the cluster burn rates equal what
        a single process observing all requests would compute.
        """
        fast_parts: list[WindowDelta] = []
        slow_parts: list[WindowDelta] = []
        for snapshot in snapshots.values():
            if not isinstance(snapshot, dict):
                continue
            windows = (snapshot.get("slo") or {}).get("windows") or {}
            for parts, name in ((fast_parts, "fast"), (slow_parts, "slow")):
                delta = (windows.get(name) or {}).get("delta")
                if delta:
                    parts.append(WindowDelta.from_dict(delta))
        return evaluate_slo(
            self.slo,
            WindowDelta.merged(fast_parts),
            WindowDelta.merged(slow_parts),
        )

    def cluster_health(
        self, snapshots: dict[int, dict | None] | None = None
    ) -> dict:
        """Evaluate (and cache on the supervisor) the fleet health document.

        Installed as the supervisor's :attr:`health_probe`; also invoked by
        ``/healthz`` on a stale cache and by :meth:`aggregate_metrics`
        (which passes the snapshots it already fanned out for).
        """
        supervisor = self.supervisor
        if snapshots is None:
            snapshots = supervisor.shard_metrics()
        health = evaluate_health(
            self.cluster_slo_status(snapshots),
            alive=supervisor.alive_count(),
            shards=supervisor.num_shards,
        )
        supervisor.record_health(health)
        return health

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def aggregate_metrics(self) -> dict:
        """One ``/metrics`` view over the whole cluster.

        Shape: ``cluster`` (summed counters + rolled-up cache stats + the
        *exact* fleet-wide latency: shard histograms merged bucket-by-bucket,
        so ``p50_ms``/``p99_ms`` are true cluster percentiles instead of the
        old router-only view), ``router`` (forward counts per shard, routing
        errors, router-observed forward latency, trace-store gauges),
        ``shards`` (full per-shard snapshots — per-shard percentiles live
        here) and ``imbalance`` (max-over-ideal of the per-shard request
        counts — 1.0 is a perfectly even spread).
        """
        supervisor = self.supervisor
        snapshots = supervisor.shard_metrics()
        urls = supervisor.shard_urls()
        counter_keys = (
            "requests_total",
            "rejections",
            "batches",
            "deduped_in_batch",
            "fast_hits",
            "queue_depth",
        )
        totals = dict.fromkeys(counter_keys, 0)
        cache_keys = (
            "hits",
            "misses",
            "evictions_lru",
            "evictions_ttl",
            "expired_purged",
            "size",
        )
        cache_totals = dict.fromkeys(cache_keys, 0)
        plan_totals = dict.fromkeys(cache_keys, 0)
        shards_view: dict[str, dict] = {}
        fleet_latency = LatencyHistogram()
        for shard_id, snapshot in sorted(snapshots.items()):
            shards_view[str(shard_id)] = {
                "url": urls.get(shard_id),
                "alive": snapshot is not None,
                "metrics": snapshot,
            }
            if snapshot is None:
                continue
            for key in counter_keys:
                totals[key] += int(snapshot.get(key, 0))
            shard_cache = snapshot.get("cache", {})
            for key in cache_keys:
                cache_totals[key] += int(shard_cache.get(key, 0))
            shard_plans = snapshot.get("plan_cache", {})
            for key in cache_keys:
                plan_totals[key] += int(shard_plans.get(key, 0))
            # Exact merge: every shard buckets into the same pinned bounds,
            # so summing counters yields the true fleet-wide distribution.
            shard_histogram = snapshot.get("latency", {}).get("histogram")
            if shard_histogram is not None:
                fleet_latency.merge(shard_histogram)
        lookups = cache_totals["hits"] + cache_totals["misses"]
        cache_totals["hit_rate"] = cache_totals["hits"] / lookups if lookups else 0.0
        plan_lookups = plan_totals["hits"] + plan_totals["misses"]
        plan_totals["hit_rate"] = (
            plan_totals["hits"] / plan_lookups if plan_lookups else 0.0
        )
        slo_status = self.cluster_slo_status(snapshots)
        health = evaluate_health(
            slo_status,
            alive=supervisor.alive_count(),
            shards=supervisor.num_shards,
        )
        supervisor.record_health(health)
        # The stats lock covers only the router's own counters; the route
        # cache and the trace store synchronise themselves.
        with self._stats_lock:
            requests_total = self._requests_total
            routing_errors = self._routing_errors
            per_shard = {
                str(sid): dict(entry)
                for sid, entry in sorted(self._per_shard.items())
            }
            latency_summary = self.latency.summary()
        router = {
            "requests_total": requests_total,
            "routing_errors": routing_errors,
            "route_cache": {
                **self.route_cache.stats.as_dict(),
                "size": len(self.route_cache),
            },
            "per_shard": per_shard,
            "latency": latency_summary,
            "traces": {
                "stored": len(self.traces),
                "capacity": self.traces.capacity,
                "slow_total": self.traces.slow_total,
                "slow_ms": self.traces.slow_ms,
                "enabled": self.tracing,
            },
        }
        latency = fleet_latency.summary()
        forwarded = [e["requests"] for e in router["per_shard"].values()]
        total_forwarded = sum(forwarded)
        ideal = total_forwarded / supervisor.num_shards if total_forwarded else 0.0
        imbalance = {
            "requests_total": total_forwarded,
            "ideal_per_shard": ideal,
            "max_per_shard": max(forwarded) if forwarded else 0,
            "max_over_ideal": (max(forwarded) / ideal) if ideal else None,
        }
        return {
            "cluster": {
                "shards": supervisor.num_shards,
                "alive": supervisor.alive_count(),
                "backend": supervisor.backend,
                "respawns": supervisor.respawns,
                "uptime_seconds": supervisor.uptime_seconds,
                **totals,
                "cache": cache_totals,
                "plan_cache": plan_totals,
                "latency": latency,
            },
            "router": router,
            "shards": shards_view,
            "imbalance": imbalance,
            "slo": slo_status,
            "health": health,
            # The autoscaler contract, surfaced at the top level so a
            # consumer needs no knowledge of the health-block layout.
            "scale_hint": health["scale_hint"],
        }


@dataclass
class ClusterHandle:
    """A running cluster: router server, its serve thread and the fleet.

    ``server`` is the router's transport; ``server.app`` the
    :class:`RouterApp`.
    """

    supervisor: ClusterSupervisor
    server: ThreadedTransport
    thread: threading.Thread

    @property
    def url(self) -> str:
        return self.server.url

    def close(self) -> None:
        self.server.close()
        self.supervisor.close()

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_cluster(
    shards: int = 2,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    spec: ShardSpec | None = None,
    backend: str = "process",
    vnodes: int = 64,
    respawn: bool = True,
    allow_shutdown: bool = False,
    verbose: bool = False,
    forward_timeout: float = 300.0,
    slo: SLO | None = None,
) -> ClusterHandle:
    """Boot a sharded cluster and serve its router on a background thread.

    The cluster equivalent of
    :func:`~repro.service.server.start_background_server`; used by the
    tests.  Stop it with :meth:`ClusterHandle.close`.
    """
    supervisor = ClusterSupervisor(
        shards, spec=spec, backend=backend, vnodes=vnodes, respawn=respawn
    ).start()
    try:
        app = RouterApp(
            supervisor,
            allow_shutdown=allow_shutdown,
            verbose=verbose,
            forward_timeout=forward_timeout,
            slo=slo,
        )
        server = ThreadedTransport((host, port), app, verbose=verbose)
    except Exception:
        supervisor.close()
        raise
    thread = threading.Thread(
        target=server.serve_forever, name="repro-cluster-router", daemon=True
    )
    thread.start()
    return ClusterHandle(supervisor=supervisor, server=server, thread=thread)
