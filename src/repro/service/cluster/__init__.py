"""Sharded scheduling cluster: consistent-hash cache shards behind a router.

The single-process daemon (:mod:`repro.service`) keeps its fingerprint
result cache in-process, so extra server processes each rebuild the same hot
set.  This package scales the cache *horizontally* instead:

* :mod:`~repro.service.cluster.ring` — :class:`ShardRing`, consistent
  hashing with virtual nodes over fingerprint prefixes;
* :mod:`~repro.service.cluster.worker` — shard workers (process or thread
  backend), each a full daemon owning a disjoint cache slice and serving
  its hits locally;
* :mod:`~repro.service.cluster.supervisor` — :class:`ClusterSupervisor`,
  spawn/monitor/respawn plus fleet-wide metrics and purge fan-out;
* :mod:`~repro.service.cluster.router` — :class:`RouterApp`, the HTTP
  frontend app that fingerprints raw payloads and relays them verbatim to
  the owning shard (responses stay byte-identical to the daemon's); bind it
  with ``ThreadedTransport(address, RouterApp(supervisor))``.

Shared-nothing eviction protocol: no cross-shard invalidation exists or is
needed (keys are partitioned), entries age out via TTL + the periodic
purge, and ``POST /purge`` is the explicit eviction message.

Entry points: ``python -m repro serve --shards N`` (CLI) or
:func:`start_cluster` (in-process, used by tests and benchmarks).
"""

from .ring import KEY_PREFIX_LEN, ShardRing
from .router import (
    ClusterHandle,
    RouterApp,
    routing_info,
    start_cluster,
)
from .supervisor import ClusterSupervisor
from .worker import (
    ProcessShardHandle,
    ShardHandle,
    ShardSpec,
    ThreadShardHandle,
    run_shard,
)

__all__ = [
    "KEY_PREFIX_LEN",
    "ClusterHandle",
    "ClusterSupervisor",
    "ProcessShardHandle",
    "RouterApp",
    "ShardHandle",
    "ShardRing",
    "ShardSpec",
    "ThreadShardHandle",
    "routing_info",
    "run_shard",
    "start_cluster",
]
