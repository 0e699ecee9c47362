"""Scheduling-as-a-service layer.

Turns the package's one-shot schedulers into a long-lived serving stack:

* :class:`~repro.service.core.SchedulerService` — in-process facade that
  answers each request on the caller's thread from an LRU+TTL result cache
  keyed by :meth:`Instance.fingerprint()
  <repro.model.instance.Instance.fingerprint>`, with single-flight misses
  over a bounded number of compute slots;
* :mod:`~repro.service.http` — the transport/app split: a shared
  WSGI-style core (``Request``/``Response``/``App``) and its one frontend,
  the threaded ``http.server`` transport; ``ThreadedTransport(address,
  app)`` binds an app;
* :mod:`~repro.service.server` — :class:`DaemonApp`, the daemon/shard
  application (``POST /schedule``, ``GET /healthz``, ``GET /metrics``) over
  that layer, and :func:`start_background_server`;
* :mod:`~repro.service.client` — keep-alive ``http.client`` client (with
  503 retry/backoff);
* :mod:`~repro.service.cluster` — sharded cluster: consistent-hash cache
  shards (``ShardRing``), per-shard worker processes, the ``RouterApp``
  frontend and the ``ClusterSupervisor`` (``serve --shards N``).
"""

from .cache import CacheStats, LRUTTLCache, MISS
from .client import ReplayStreamError, ServiceClient, ServiceHTTPError
from .core import (
    ScheduleRequest,
    SchedulerService,
    canonical_json,
    compute_response,
    payload_fingerprint,
    request_from_payload,
)
from .http import ThreadedTransport
from .server import DaemonApp, start_background_server
from .cluster import (
    ClusterHandle,
    ClusterSupervisor,
    RouterApp,
    ShardRing,
    ShardSpec,
    start_cluster,
)

__all__ = [
    "CacheStats",
    "ClusterHandle",
    "ClusterSupervisor",
    "DaemonApp",
    "LRUTTLCache",
    "MISS",
    "ReplayStreamError",
    "RouterApp",
    "ScheduleRequest",
    "SchedulerService",
    "ServiceClient",
    "ServiceHTTPError",
    "ShardRing",
    "ShardSpec",
    "ThreadedTransport",
    "canonical_json",
    "compute_response",
    "payload_fingerprint",
    "request_from_payload",
    "start_background_server",
    "start_cluster",
]
