"""Minimal stdlib HTTP client for the scheduling service.

Used by the tests, ``python -m repro replay --url`` and the service
throughput benchmark — anything that talks to a running
``python -m repro serve``.  Only ``http.client`` + ``json``; no
third-party dependencies.

Connections are persistent (HTTP/1.1 keep-alive, one per calling thread,
Nagle disabled — see :func:`repro.service.http.pool.open_http_connection`,
shared with the router's forwarding path): a benchmark fires thousands of
requests at one base URL, and per-request TCP connects would otherwise
dominate the client side of every throughput measurement.  A request that
fails on a *reused* connection (the server closed it while idle) is
transparently retried once on a fresh one.

Backpressure handling: a ``503`` (:class:`~repro.exceptions.ServiceOverloadedError`
on the server side) is retried through the shared
:class:`~repro.service.http.pool.RetryPolicy` — capped, fully-jittered
exponential backoff, ``retries`` attempts (default 3) with delays drawn
uniformly from ``[0, min(backoff_cap, backoff * 2**attempt)]``.  The
cumulative number of retries is exposed as
:attr:`ServiceClient.retries_total` so a caller can report how much
backoff the run absorbed.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any
from urllib.parse import urlsplit

from ..model.instance import Instance
from .http.pool import RetryPolicy, open_http_connection

__all__ = ["ReplayStreamError", "ServiceClient", "ServiceHTTPError"]


class ServiceHTTPError(RuntimeError):
    """Non-2xx response from the service, with the decoded error payload."""

    def __init__(self, status: int, payload: dict | None, url: str) -> None:
        message = (payload or {}).get("error", "<no error payload>")
        super().__init__(f"HTTP {status} from {url}: {message}")
        self.status = status
        self.payload = payload or {}


class ReplayStreamError(RuntimeError):
    """A ``/replay`` stream ended without its final document.

    Truncation *is* the server's mid-stream error signal (the chunked
    response is aborted without the terminating zero chunk when a replay
    fails after streaming began), so an incomplete stream always raises —
    a short read is never silently returned as a result.
    """


class ServiceClient:
    """Blocking JSON-over-HTTP client bound to one service base URL.

    Parameters
    ----------
    timeout:
        Per-request socket timeout (seconds).
    retries:
        How many times a ``503`` (service overloaded) response is retried
        before the :class:`ServiceHTTPError` propagates; 0 disables retries.
    backoff / backoff_cap:
        Exponential-backoff base and cap (seconds) for the retry delays;
        the actual sleep is jittered uniformly over ``[0, delay]``.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 300.0,
        retries: int = 3,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        # The shared policy validates its knobs (retries >= 0, positive
        # backoff) with the same errors this constructor used to raise.
        self._retry_policy = RetryPolicy(
            retries=int(retries),
            backoff=float(backoff),
            backoff_cap=float(backoff_cap),
        )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = self._retry_policy.retries
        self.backoff = self._retry_policy.backoff
        self.backoff_cap = self._retry_policy.backoff_cap
        self.retries_total = 0
        self._retry_lock = threading.Lock()
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", "https"):
            raise ValueError(
                f"unsupported URL scheme {split.scheme!r} in {base_url!r} "
                "(use http:// or https://)"
            )
        self._scheme = split.scheme
        self._host_port = split.netloc
        self._base_path = split.path.rstrip("/")
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's keep-alive connection; ``(conn, was_reused)``."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn, True
        conn = open_http_connection(
            self._host_port, timeout=self.timeout, scheme=self._scheme
        )
        self._local.conn = conn
        return conn, False

    def _drop_connection(self, conn: http.client.HTTPConnection) -> None:
        conn.close()
        self._local.conn = None

    def _send_once(
        self, method: str, path: str, body: bytes | None, *, stream: bool = False
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse, bytes | None]:
        """One exchange on this thread's connection; ``(conn, response, data)``.

        ``data`` is the whole response body, except for a successful
        ``stream`` request: then it is ``None`` and the caller reads the
        body off ``response`` (``conn`` stays this thread's connection).
        A status >= 400 raises :class:`ServiceHTTPError`.
        """
        headers = {"Accept": "application/x-ndjson" if stream else "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn, reused = self._connection()
            try:
                conn.request(
                    method, self._base_path + path, body=body, headers=headers
                )
                response = conn.getresponse()
                data = None if stream and response.status < 400 else response.read()
            except (http.client.HTTPException, OSError):
                self._drop_connection(conn)
                # A reused connection may have been closed by the server
                # while idle — retry exactly once on a fresh one.  A fresh
                # connection failing is a real error.
                if reused and attempt == 0:
                    continue
                raise
            break
        # Trace ids travel in a response header (never the body, which
        # must stay byte-identical); remember the last one per thread so
        # callers can fetch the matching /trace/<id> document.
        self._local.last_trace_id = response.getheader("X-Repro-Trace-Id")
        if data is not None and response.will_close:
            self._drop_connection(conn)
        if response.status >= 400:
            try:
                error_body = json.loads(data)
            except (json.JSONDecodeError, ValueError):
                error_body = None
            raise ServiceHTTPError(
                response.status, error_body, f"{self.base_url}{path}"
            )
        return conn, response, data

    def _send(
        self, method: str, path: str, body: bytes | None, *, stream: bool = False
    ):
        """:meth:`_send_once`, retrying 503s with the capped jittered backoff."""
        attempt = 0
        while True:
            try:
                return self._send_once(method, path, body, stream=stream)
            except ServiceHTTPError as exc:
                if exc.status != 503 or attempt >= self._retry_policy.retries:
                    raise
            with self._retry_lock:
                self.retries_total += 1
            self._retry_policy.sleep(attempt)
            attempt += 1

    def _request(self, path: str, payload: dict | None = None) -> dict:
        if payload is not None:
            body, method = json.dumps(payload).encode(), "POST"
        else:
            body, method = None, "GET"
        return json.loads(self._send(method, path, body)[2])

    def close(self) -> None:
        """Close this thread's keep-alive connection (best effort)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._drop_connection(conn)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    @property
    def last_trace_id(self) -> str | None:
        """Trace id of this thread's most recent response (header-borne)."""
        return getattr(self._local, "last_trace_id", None)

    def healthz(self) -> dict:
        return self._request("/healthz")

    def metrics(self) -> dict:
        return self._request("/metrics")

    def metrics_history(
        self, window: float | None = None, step: float | None = None
    ) -> dict:
        """Downsampled metric time series (``GET /metrics/history``)."""
        params = []
        if window is not None:
            params.append(f"window={window}")
        if step is not None:
            params.append(f"step={step}")
        suffix = "?" + "&".join(params) if params else ""
        return self._request(f"/metrics/history{suffix}")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition (``GET /metrics?format=prometheus``)."""
        return self._send_once("GET", "/metrics?format=prometheus", None)[2].decode()

    def trace(self, trace_id: str) -> dict:
        """One stitched trace document (``GET /trace/<id>``); 404 raises."""
        return self._request(f"/trace/{trace_id}")

    def traces(self, *, slow_ms: float | None = None) -> dict:
        """Trace summaries + the slow-request log (``GET /traces``)."""
        suffix = f"?slow_ms={slow_ms}" if slow_ms is not None else ""
        return self._request(f"/traces{suffix}")

    def purge(self, *, all: bool = False) -> dict:  # noqa: A002 (wire name)
        """Send the explicit cache-eviction message (``POST /purge``)."""
        return self._request("/purge", payload={"all": True} if all else {})

    def shutdown(self) -> dict:
        return self._request("/shutdown", payload={})

    def schedule_payload(self, payload: dict) -> dict:
        """POST a ``/schedule`` body (already in wire shape)."""
        return self._request("/schedule", payload=payload)

    def schedule(
        self,
        instance: Instance | dict | None = None,
        *,
        generate: dict | None = None,
        algorithm: str = "mrt",
        params: dict | None = None,
        validate: bool = False,
    ) -> dict:
        """Schedule one instance (explicit or server-generated).

        ``instance`` may be an :class:`~repro.model.instance.Instance` or its
        ``as_dict`` payload; alternatively pass a ``generate`` spec to have
        the server synthesise the workload.
        """
        if (instance is None) == (generate is None):
            raise ValueError("pass exactly one of instance or generate")
        body: dict[str, Any] = {"algorithm": algorithm, "validate": validate}
        if params:
            body["params"] = params
        if instance is not None:
            body["instance"] = (
                instance.as_dict() if isinstance(instance, Instance) else instance
            )
        else:
            body["generate"] = generate
        return self.schedule_payload(body)

    def replay(
        self,
        trace: Instance | dict | None = None,
        *,
        generate: dict | None = None,
        algorithm: str = "mrt",
        params: dict | None = None,
        quantum: float | None = None,
        validate: bool = False,
        on_epoch=None,
    ) -> dict:
        """Replay an online arrival trace (streamed ``POST /replay``).

        ``trace`` may be an :class:`~repro.model.instance.Instance` (tasks
        carrying release times) or its ``as_dict`` payload; alternatively
        pass a ``generate`` spec (``{"pattern", "family", "tasks", "procs",
        "seed", ...}``) to have the server synthesise the trace.  The body
        names no ``"kernel"``: the server's one kernel, ``"barrier"``,
        applies.

        The server answers with a chunked NDJSON stream; ``on_epoch`` (if
        given) is called with each epoch's report dict as its frame
        arrives, and the returned value is the stream's final document —
        the same shape the old synchronous endpoint answered with
        (``result`` + ``fingerprint`` + ``validation`` + ``elapsed_ms``).
        A stream that ends without that final document raises
        :class:`ReplayStreamError`; HTTP errors raise
        :class:`ServiceHTTPError` exactly as before.  A 503 (fleet not
        ready) arrives before any frame, so the usual retry/backoff loop
        still applies.
        """
        if (trace is None) == (generate is None):
            raise ValueError("pass exactly one of trace or generate")
        body: dict[str, Any] = {
            "algorithm": algorithm,
            "validate": validate,
        }
        if params:
            body["params"] = params
        if quantum is not None:
            body["quantum"] = quantum
        if trace is not None:
            body["trace"] = trace.as_dict() if isinstance(trace, Instance) else trace
        else:
            body["generate"] = generate
        conn, response, _ = self._send(
            "POST", "/replay", json.dumps(body).encode(), stream=True
        )
        final: dict | None = None
        try:
            # http.client decodes the chunked framing; each readline is one
            # NDJSON frame.  Truncation (server aborted mid-stream) raises
            # out of readline as IncompleteRead/ConnectionError.
            while True:
                line = response.readline()
                if not line:
                    break
                document = json.loads(line)
                if "epoch" in document:
                    if on_epoch is not None:
                        on_epoch(document["epoch"])
                else:
                    final = document
        except (http.client.HTTPException, OSError, ValueError) as exc:
            self._drop_connection(conn)
            raise ReplayStreamError(
                f"replay stream from {self.base_url} failed mid-stream: {exc}"
            ) from exc
        if final is None:
            self._drop_connection(conn)
            raise ReplayStreamError(
                f"replay stream from {self.base_url} ended without a final "
                "document (server aborted the replay mid-stream)"
            )
        if response.will_close:
            self._drop_connection(conn)
        return final
