"""Load generator for the scheduling service.

Drives a running service over HTTP with a mixed workload — fresh instances
from the synthetic generator families plus deterministic adversarial
instances — in two phases:

* **cold** — every instance in the pool is requested once (cache misses on a
  fresh server);
* **warm** — the same pool is replayed ``repeats`` times (fingerprint cache
  hits), which is where the content-addressed cache turns the allotment
  engine's cached-replay speedup into end-to-end throughput.

Besides throughput and client-side latency percentiles, the run cross-checks
*correctness under caching*: every replayed response must carry a ``result``
payload byte-identical (canonical JSON) to the first response for the same
instance.  Used by ``python -m repro loadtest`` and by
``benchmarks/bench_service_throughput.py``.

The generator is shard-aware: 503 backpressure responses are absorbed by the
client's capped jittered retries (``retries_total`` lands in the report),
and when the target is a cluster router (its ``/metrics`` carries a
``shards`` section) the report additionally breaks the traffic down per
shard — forwarded requests, cache hits, fast hits — plus the ring's
``imbalance`` (max-over-ideal request share).
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import urlsplit

import numpy as np

from ..workloads.adversarial import fragmentation_instance, lpt_worst_case_instance
from ..workloads.generators import make_workload
from .client import ServiceClient, ServiceHTTPError
from .core import canonical_json

__all__ = [
    "PhaseStats",
    "build_workload_payloads",
    "run_loadtest",
    "run_soak",
    "shard_distribution",
]


@dataclass
class PhaseStats:
    """Aggregate measurements of one load-test phase."""

    name: str
    requests: int
    errors: int
    seconds: float
    cache_hits: int
    p50_ms: float
    p99_ms: float

    @property
    def rps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "requests": self.requests,
            "errors": self.errors,
            "seconds": self.seconds,
            "rps": self.rps,
            "cache_hits": self.cache_hits,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        }


def build_workload_payloads(
    *,
    families: Sequence[str] = ("mixed", "uniform"),
    instances: int = 8,
    tasks: int = 30,
    procs: int = 16,
    seed: int = 0,
    algorithm: str = "mrt",
    params: dict | None = None,
    validate: bool = False,
    include_adversarial: bool = True,
) -> list[dict]:
    """Build the ``POST /schedule`` bodies of the mixed instance pool.

    ``instances`` synthetic instances are drawn round-robin from
    ``families`` (distinct seeds, so the cold phase is all fresh content);
    with ``include_adversarial`` the deterministic fragmentation and
    LPT-worst-case instances join the pool.  Instances are embedded
    explicitly (``as_dict``) so a replayed payload carries bit-identical
    profiles and therefore the same fingerprint.
    """
    pool = []
    for i in range(instances):
        family = families[i % len(families)]
        pool.append(make_workload(family, tasks, procs, seed=seed + i))
    if include_adversarial:
        pool.append(fragmentation_instance(procs))
        pool.append(lpt_worst_case_instance(procs))
    payloads = []
    for inst in pool:
        body: dict = {"algorithm": algorithm, "instance": inst.as_dict()}
        if params:
            body["params"] = params
        if validate:
            body["validate"] = True
        payloads.append(body)
    return payloads


def _run_phase(
    client: ServiceClient,
    payloads: Sequence[dict],
    *,
    name: str,
    concurrency: int,
    encoded: Sequence[bytes] | None = None,
) -> tuple[PhaseStats, list[dict | None], list[float]]:
    """Fire every payload once through ``concurrency`` client threads.

    ``encoded`` carries the payloads pre-serialised to bytes so replayed
    phases measure the service, not the client's ``json.dumps``.  The raw
    per-request latencies are returned alongside the summary so multi-pass
    callers can compute *true* percentiles over the union of every pass —
    a median of per-pass p50s (or a max of p99s) is not a percentile of
    the combined sample.
    """

    responses: list[dict | None] = [None] * len(payloads)
    if encoded is None:
        encoded = [json.dumps(p).encode() for p in payloads]

    def fire(index: int) -> float | None:
        """Returns the request latency in ms, or ``None`` on error."""
        start = time.perf_counter()
        try:
            responses[index] = client.schedule_raw(encoded[index])
        except (ServiceHTTPError, OSError):
            return None
        return (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            outcomes = list(pool.map(fire, range(len(payloads))))
    else:
        outcomes = [fire(index) for index in range(len(payloads))]
    seconds = time.perf_counter() - start
    latencies_ms = [ms for ms in outcomes if ms is not None]
    errors = sum(1 for ms in outcomes if ms is None)
    hits = sum(1 for r in responses if r is not None and r.get("cache_hit"))
    stats = PhaseStats(
        name=name,
        requests=len(payloads),
        errors=errors,
        seconds=seconds,
        cache_hits=hits,
        p50_ms=float(np.percentile(latencies_ms, 50)) if latencies_ms else 0.0,
        p99_ms=float(np.percentile(latencies_ms, 99)) if latencies_ms else 0.0,
    )
    return stats, responses, latencies_ms


def shard_distribution(server_metrics: dict) -> tuple[dict | None, dict | None]:
    """Per-shard traffic breakdown of a cluster ``/metrics`` snapshot.

    Returns ``(distribution, imbalance)``, both ``None`` when the target was
    a plain single-process daemon (no ``shards`` section in its metrics).
    """
    if not isinstance(server_metrics, dict) or "shards" not in server_metrics:
        return None, None
    per_shard_router = server_metrics.get("router", {}).get("per_shard", {})
    distribution: dict[str, dict] = {}
    # Shard ids are stringified ints (JSON keys): sort numerically so
    # clusters with >= 10 shards report 0,1,2,...,10 not 0,1,10,11,2,...
    for shard_id, view in sorted(
        server_metrics["shards"].items(), key=lambda kv: int(kv[0])
    ):
        shard = {
            "requests_forwarded": per_shard_router.get(shard_id, {}).get("requests", 0),
            "errors": per_shard_router.get(shard_id, {}).get("errors", 0),
            "alive": bool(view.get("alive")),
        }
        metrics = view.get("metrics") or {}
        cache = metrics.get("cache", {})
        shard["cache_hits"] = cache.get("hits", 0)
        shard["cache_size"] = cache.get("size", 0)
        shard["fast_hits"] = metrics.get("fast_hits", 0)
        distribution[shard_id] = shard
    return distribution, server_metrics.get("imbalance")


async def _soak_exchange(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    head: bytes,
    body: bytes,
) -> tuple[int, bool]:
    """One request/response on a soak connection: ``(status, server_closed)``."""
    writer.write(head)
    writer.write(body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    content_length = 0
    close = False
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        lowered = name.strip().lower()
        if lowered == b"content-length":
            content_length = int(value.strip())
        elif lowered == b"connection" and b"close" in value.lower():
            close = True
    if content_length:
        await reader.readexactly(content_length)
    return status, close


def run_soak(
    base_url: str,
    encoded: Sequence[bytes],
    *,
    connections: int,
    requests_per_connection: int = 20,
    timeout: float = 300.0,
) -> dict:
    """High-concurrency keep-alive soak: hundreds of concurrent connections.

    The cold/warm phases drive one client thread per concurrency slot, which
    tops out around a few dozen connections before client-side thread churn
    dominates.  This phase instead holds ``connections`` concurrent
    keep-alive connections on a single asyncio event loop (one coroutine
    each) and fires ``requests_per_connection`` sequential
    ``POST /schedule`` requests down every one of them.  That measures the
    server's connection-scaling behaviour: its accept backlog and one
    handler thread per connection.

    Payloads are the pre-encoded warm pool, so a warmed server answers from
    cache and the measurement is connection handling, not scheduling.
    """
    split = urlsplit(base_url)
    host = split.hostname or "127.0.0.1"
    port = split.port or (443 if split.scheme == "https" else 80)
    path = (split.path.rstrip("/") or "") + "/schedule"
    heads = [
        (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {split.netloc}\r\n"
            "Content-Type: application/json\r\n"
            "Accept: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        for body in encoded
    ]

    async def one_connection(conn_index: int) -> tuple[int, int, int]:
        """``(ok, rejected, errors)`` — 503 backpressure is *rejected*, not
        an error: at hundreds of connections the service's bounded submit
        queue is expected to push back, and the soak measures how the
        transport behaves around that, not whether it happens."""
        ok = rejected = errors = 0
        reader = writer = None
        try:
            for r in range(requests_per_connection):
                index = (conn_index + r) % len(encoded)
                try:
                    if writer is None:
                        reader, writer = await asyncio.wait_for(
                            asyncio.open_connection(host, port), timeout
                        )
                    status, close = await asyncio.wait_for(
                        _soak_exchange(reader, writer, heads[index], encoded[index]),
                        timeout,
                    )
                except (OSError, asyncio.IncompleteReadError, TimeoutError, ValueError):
                    errors += 1
                    if writer is not None:
                        writer.close()
                        writer = None
                    continue
                if 200 <= status < 300:
                    ok += 1
                elif status == 503:
                    rejected += 1
                else:
                    errors += 1
                if close:
                    writer.close()
                    writer = None
        finally:
            if writer is not None:
                writer.close()
        return ok, rejected, errors

    async def drive() -> tuple[tuple[int, int, int], float]:
        start = time.perf_counter()
        results = await asyncio.gather(
            *(one_connection(i) for i in range(connections))
        )
        seconds = time.perf_counter() - start
        totals = tuple(sum(column) for column in zip(*results))
        return totals, seconds

    (ok, rejected, errors), seconds = asyncio.run(drive())
    total = ok + rejected + errors
    return {
        "connections": connections,
        "requests_per_connection": requests_per_connection,
        "requests": total,
        "ok": ok,
        "rejected": rejected,
        "errors": errors,
        "seconds": seconds,
        "rps": total / seconds if seconds > 0 else 0.0,
        "ok_rps": ok / seconds if seconds > 0 else 0.0,
    }


def run_loadtest(
    base_url: str,
    *,
    families: Sequence[str] = ("mixed", "uniform"),
    instances: int = 8,
    tasks: int = 30,
    procs: int = 16,
    seed: int = 0,
    repeats: int = 3,
    concurrency: int = 4,
    algorithm: str = "mrt",
    params: dict | None = None,
    validate: bool = False,
    include_adversarial: bool = True,
    client_timeout: float = 300.0,
    retries: int = 3,
    soak_connections: int = 0,
    soak_requests: int = 20,
) -> dict:
    """Run the cold/warm load test against ``base_url``; returns a report dict.

    The report carries both phases (:class:`PhaseStats` shapes), the
    warm-over-cold throughput ``speedup``, a ``consistent`` flag (every warm
    ``result`` byte-identical to its cold counterpart under canonical JSON),
    the total 503-retry count absorbed by the client, the server's own
    ``/metrics`` snapshot, and — against a sharded cluster — the per-shard
    hit distribution plus the ring imbalance.

    With ``soak_connections > 0`` a third phase follows the warm passes: a
    :func:`run_soak` high-concurrency sweep holding that many concurrent
    keep-alive connections (the report gains a ``"soak"`` block).
    """
    client = ServiceClient(base_url, timeout=client_timeout, retries=retries)
    payloads = build_workload_payloads(
        families=families,
        instances=instances,
        tasks=tasks,
        procs=procs,
        seed=seed,
        algorithm=algorithm,
        params=params,
        validate=validate,
        include_adversarial=include_adversarial,
    )
    encoded = [json.dumps(p).encode() for p in payloads]
    cold, cold_responses, _ = _run_phase(
        client, payloads, name="cold", concurrency=concurrency, encoded=encoded
    )
    reference = [
        canonical_json(r["result"]) if r is not None else None for r in cold_responses
    ]
    warm_stats: list[PhaseStats] = []
    warm_latencies: list[float] = []
    consistent = True
    for _ in range(repeats):
        stats, responses, latencies = _run_phase(
            client, payloads, name="warm", concurrency=concurrency, encoded=encoded
        )
        warm_stats.append(stats)
        warm_latencies.extend(latencies)
        for ref, resp in zip(reference, responses):
            if ref is not None and resp is not None:
                consistent = consistent and canonical_json(resp["result"]) == ref
    # True percentiles over the union of every warm pass: the old
    # median-of-p50s / max-of-p99s summary was not a percentile of the
    # combined sample and overstated p99 by construction.
    warm = PhaseStats(
        name="warm",
        requests=sum(s.requests for s in warm_stats),
        errors=sum(s.errors for s in warm_stats),
        seconds=sum(s.seconds for s in warm_stats),
        cache_hits=sum(s.cache_hits for s in warm_stats),
        p50_ms=float(np.percentile(warm_latencies, 50)) if warm_latencies else 0.0,
        p99_ms=float(np.percentile(warm_latencies, 99)) if warm_latencies else 0.0,
    )
    soak = None
    if soak_connections > 0:
        # After the warm passes the whole pool is cached, so the soak
        # measures connection handling at fan-in, not scheduling.
        soak = run_soak(
            base_url,
            encoded,
            connections=soak_connections,
            requests_per_connection=soak_requests,
            timeout=client_timeout,
        )
    server_metrics = client.metrics()
    distribution, imbalance = shard_distribution(server_metrics)
    report = {
        "config": {
            "base_url": base_url,
            "families": list(families),
            "instances": instances,
            "tasks": tasks,
            "procs": procs,
            "seed": seed,
            "repeats": repeats,
            "concurrency": concurrency,
            "algorithm": algorithm,
            "params": params or {},
            "validate": validate,
            "include_adversarial": include_adversarial,
            "pool_size": len(payloads),
            "retries": retries,
            "soak_connections": soak_connections,
            "soak_requests": soak_requests,
        },
        "cold": cold.as_dict(),
        "warm": warm.as_dict(),
        "speedup": (warm.rps / cold.rps) if cold.rps > 0 else float("inf"),
        "consistent": consistent,
        "retries_total": client.retries_total,
        "server_metrics": server_metrics,
        # Server-side SLO evaluation at end of run (same shape for a
        # daemon's /metrics and a router's aggregate): compliance next to
        # the client-observed percentiles.
        "slo": server_metrics.get("slo"),
        "health": server_metrics.get("health"),
    }
    if soak is not None:
        report["soak"] = soak
    if distribution is not None:
        report["shard_distribution"] = distribution
        report["imbalance"] = imbalance
    return report
