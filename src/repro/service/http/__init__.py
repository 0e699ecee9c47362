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
* **Transport** — :class:`~repro.service.http.threaded.ThreadedTransport`,
  the stdlib ``ThreadingHTTPServer`` (one thread per connection), which
  parses bytes off a socket into a :class:`Request` and writes the
  :class:`Response` back.  Every frontend (the daemon, each shard worker,
  the cluster router, ``repro serve``) builds its app and binds it with
  ``ThreadedTransport(address, app)``; the server exposes the app as
  ``server.app``.

:mod:`~repro.service.http.pool` holds the client-side twins: the shared
keep-alive :class:`ConnectionPool` (client and router) and the
capped-jitter :class:`RetryPolicy` behind
:class:`~repro.service.client.ServiceClient`'s 503 backoff.
"""

from __future__ import annotations

from .app import MAX_BODY_BYTES, App, Request, Response, Route
from .errors import map_exception, oversized_body_response
from .pool import ConnectionPool, RetryPolicy, open_http_connection
from .threaded import ThreadedTransport

__all__ = [
    "App",
    "ConnectionPool",
    "MAX_BODY_BYTES",
    "Request",
    "Response",
    "RetryPolicy",
    "Route",
    "ThreadedTransport",
    "map_exception",
    "open_http_connection",
    "oversized_body_response",
]
