"""Keep-alive connections (client + router) and the client's retry policy.

:class:`~repro.service.client.ServiceClient` and the router's forwarding
path both talk over eagerly connected ``http.client`` connections with
Nagle disabled (a reused keep-alive connection writes headers and body
separately, and Nagle + the peer's delayed ACK would stall every exchange
by ~40ms otherwise).

* :func:`open_http_connection` — one eagerly-connected ``HTTPConnection``
  with ``TCP_NODELAY`` set before the first request.
* :class:`ConnectionPool` — a bounded idle pool keyed by an arbitrary
  hashable (the router keys by shard id) and the connection's *current*
  URL: after a shard respawn the URL changes, stale pooled connections
  fail to match and are simply dropped.
* :class:`RetryPolicy` — capped, fully-jittered exponential backoff: the
  client's 503-absorbing loop.  (The router's forward retry is not a
  backoff: it sleeps a fixed ``retry_wait`` between attempts.)
"""

from __future__ import annotations

import http.client
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Hashable

__all__ = ["ConnectionPool", "RetryPolicy", "open_http_connection"]

#: Idle connections a :class:`ConnectionPool` keeps per key; extras are
#: closed on release.
_MAX_IDLE_PER_KEY = 8


def open_http_connection(
    host_port: str,
    *,
    timeout: float,
    scheme: str = "http",
) -> http.client.HTTPConnection:
    """Eagerly-connected keep-alive connection with Nagle disabled.

    Connecting eagerly (instead of on first request) lets ``TCP_NODELAY``
    land before any bytes are written — the whole point of the option.
    """
    if scheme == "https":
        conn: http.client.HTTPConnection = http.client.HTTPSConnection(
            host_port, timeout=timeout
        )
    else:
        conn = http.client.HTTPConnection(host_port, timeout=timeout)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class ConnectionPool:
    """Tiny keep-alive pool of HTTP connections, keyed by peer.

    ``acquire(key, url)`` hands back an idle connection previously pooled
    for the *same* ``(key, url)`` pair, or opens a fresh one.  The URL
    match is the staleness check: when a peer moves (router→shard after a
    respawn), pooled connections for the old URL are closed on sight.
    Callers hold a connection exclusively between acquire and release, so
    the pool is safe to share across handler threads.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self._idle: dict[Hashable, deque[tuple[str, http.client.HTTPConnection]]] = {}
        self._lock = threading.Lock()

    def acquire(self, key: Hashable, url: str) -> http.client.HTTPConnection:
        with self._lock:
            idle = self._idle.get(key)
            while idle:
                pooled_url, conn = idle.popleft()
                if pooled_url == url:
                    return conn
                conn.close()  # stale: the peer moved (respawn)
        host_port = url.split("//", 1)[1]
        return open_http_connection(host_port, timeout=self.timeout)

    def release(
        self, key: Hashable, url: str, conn: http.client.HTTPConnection
    ) -> None:
        with self._lock:
            idle = self._idle.setdefault(key, deque())
            if len(idle) < _MAX_IDLE_PER_KEY:
                idle.append((url, conn))
                return
        conn.close()

    def close_all(self) -> None:
        with self._lock:
            for idle in self._idle.values():
                for _, conn in idle:
                    conn.close()
            self._idle.clear()


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter.

    ``delay(attempt)`` is ``min(cap, backoff * 2**attempt)``; the actual
    sleep is drawn uniformly from ``[0, delay]`` (full jitter — lockstep
    retries would re-thunder the herd they are spreading).  ``retries`` is
    how many retries follow the first attempt; 0 disables retrying.
    """

    retries: int = 3
    backoff: float = 0.1
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff <= 0 or self.backoff_cap <= 0:
            raise ValueError("backoff and backoff_cap must be positive")

    def delay(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff * (2**attempt))

    def sleep(self, attempt: int) -> None:
        """Block for this attempt's jittered backoff delay."""
        # Deliberately unseeded: clients in lockstep would re-thunder the herd.
        time.sleep(random.uniform(0.0, self.delay(attempt)))
