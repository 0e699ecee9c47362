"""Transport-agnostic HTTP layer of the serving stack.

The daemon (:mod:`repro.service.server`) and the cluster router
(:mod:`repro.service.cluster.router`) used to be ~1300 lines of
near-duplicate ``BaseHTTPRequestHandler`` subclasses, each hand-rolling
routing, header handling and error→status mapping.  This package splits
that stack into two layers:

* **Application** — :class:`~repro.service.http.app.App`: a pure
  ``handle(Request) -> Response`` object with a declarative route table.
  Apps never touch sockets; handlers raise domain exceptions and the one
  shared mapper (:func:`~repro.service.http.errors.map_exception`) turns
  them into status codes, so the error contract is enforced once (lint
  rule RL008 keeps it that way).
* **Transport** — anything that parses bytes off a socket into a
  :class:`Request` and writes the :class:`Response` back.  Two are
  provided, serving byte-identical responses:

  - :class:`~repro.service.http.threaded.ThreadedTransport` — the
    classic ``ThreadingHTTPServer`` (one thread per connection); the
    default.
  - :class:`~repro.service.http.aio.AsyncioTransport` — a single-threaded
    ``asyncio`` frontend (minimal HTTP/1.1 parser, keep-alive, pipelined
    requests served in order) that dispatches ``App.handle`` calls to a
    worker-thread executor, so one process holds thousands of idle
    keep-alive connections without a thread each while the scheduler
    compute path and its locks stay untouched.

:func:`make_transport` is the one way to bind an app: every frontend (the
daemon, each shard worker, the cluster router, ``repro serve``) builds its
app and calls ``make_transport(kind, address, app)``; the returned server
exposes the app as ``server.app``.

:mod:`~repro.service.http.pool` holds the client-side twins: the shared
keep-alive :class:`ConnectionPool` (client and router) and the
capped-jitter :class:`RetryPolicy` behind
:class:`~repro.service.client.ServiceClient`'s 503 backoff.
"""

from __future__ import annotations

from .aio import AsyncioTransport
from .app import MAX_BODY_BYTES, App, Headers, Request, Response, Route
from .errors import map_exception, oversized_body_response
from .pool import ConnectionPool, RetryPolicy, open_http_connection
from .threaded import ThreadedTransport

__all__ = [
    "App",
    "AsyncioTransport",
    "ConnectionPool",
    "Headers",
    "MAX_BODY_BYTES",
    "Request",
    "Response",
    "RetryPolicy",
    "Route",
    "TRANSPORTS",
    "ThreadedTransport",
    "make_transport",
    "map_exception",
    "open_http_connection",
    "oversized_body_response",
]

#: The pluggable transport kinds accepted by ``make_transport`` and the
#: CLI ``--transport`` flag.
TRANSPORTS = ("threaded", "asyncio")


def make_transport(kind: str, address: tuple[str, int], app: App, *, verbose: bool = False):
    """Bind ``app`` behind the chosen transport; returns the server object.

    ``address`` port 0 picks an ephemeral port.  Both transports expose the
    same lifecycle surface: ``app``, ``server_address``, ``url``,
    ``serve_forever()``, ``shutdown()``, ``server_close()`` and ``close()``
    (which also closes the app).
    """
    if kind == "threaded":
        return ThreadedTransport(address, app, verbose=verbose)
    if kind == "asyncio":
        return AsyncioTransport(address, app, verbose=verbose)
    raise ValueError(
        f"unknown transport {kind!r} (choose from {', '.join(TRANSPORTS)})"
    )
