"""Cluster supervisor: spawns, monitors and respawns the shard workers.

:class:`ClusterSupervisor` owns the shard fleet of one cluster:

* builds the :class:`~repro.service.cluster.ring.ShardRing` over the shard
  ids (the ring is membership-only, so a respawned shard keeps its key
  range even though its port changes);
* spawns one worker per shard (``backend="process"`` by default, falling
  back to in-process threads where subprocesses are forbidden — the same
  degradation as :func:`repro.analysis.experiments.make_pool`);
* runs a monitor thread that detects dead workers and respawns them in
  place (the replacement starts cold: a crash loses that shard's cache
  slice and nothing else);
* aggregates per-shard ``/metrics`` and fans out the ``/purge`` eviction
  message;
* periodically invokes the router-installed :attr:`health_probe` and
  caches the resulting health document (:meth:`last_health`), tightening
  its liveness poll while the fleet is not ``ok`` — the supervisor reacts
  to the SLO burn-rate signals, not just to dead processes.

The supervisor is transport-agnostic: the HTTP frontend over it lives in
:mod:`repro.service.cluster.router`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ...exceptions import ClusterError
from ..client import ServiceClient
from .ring import ShardRing
from .worker import ProcessShardHandle, ShardHandle, ShardSpec, ThreadShardHandle

__all__ = ["ClusterSupervisor"]


class ClusterSupervisor:
    """Spawn/monitor/respawn a fleet of shard workers behind one ring.

    Parameters
    ----------
    shards:
        Number of shard workers (>= 1).
    spec:
        Per-shard :class:`~repro.service.cluster.worker.ShardSpec`.
    backend:
        ``"process"`` (default; real parallelism, auto-falls back to
        threads in restricted sandboxes) or ``"thread"``.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring.
    respawn:
        Monitor and respawn dead shards (disable for tests that manage the
        lifecycle themselves).
    monitor_interval / ready_timeout:
        Liveness poll period and per-shard startup deadline (seconds).
    health_interval:
        How often (seconds) the monitor invokes the router-installed
        :attr:`health_probe` (cluster-wide SLO + health evaluation).
    """

    def __init__(
        self,
        shards: int,
        *,
        spec: ShardSpec | None = None,
        backend: str = "process",
        vnodes: int = 64,
        respawn: bool = True,
        monitor_interval: float = 0.25,
        ready_timeout: float = 30.0,
        health_interval: float = 1.0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if backend not in ("process", "thread"):
            raise ValueError(f"backend must be 'process' or 'thread', got {backend!r}")
        self.num_shards = int(shards)
        self.spec = spec or ShardSpec()
        self.backend = backend
        self.ring = ShardRing(range(self.num_shards), vnodes=vnodes)
        self.ready_timeout = float(ready_timeout)
        self.monitor_interval = float(monitor_interval)
        self._respawn_enabled = respawn
        self._handles: dict[int, ShardHandle] = {}
        self._urls: dict[int, str] = {}
        self._lock = threading.Lock()
        self._respawns = 0
        self._started_at: float | None = None
        self._closed = False
        self._monitor: threading.Thread | None = None
        #: Set by the HTTP router: a zero-argument callable returning the
        #: cluster health document ({"state", "reasons", "scale_hint"}).
        #: The monitor loop calls it every ``health_interval`` seconds.
        self.health_probe = None
        self.health_interval = float(health_interval)
        self._last_health: dict | None = None
        self._last_health_at: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterSupervisor":
        """Spawn every shard (blocking until all report ready)."""
        if self._started_at is not None:
            raise RuntimeError("cluster already started")
        self._started_at = time.monotonic()
        try:
            for shard_id in range(self.num_shards):
                self._spawn(shard_id)
        except Exception:
            self.close()
            raise
        if self._respawn_enabled:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _make_handle(self, shard_id: int) -> ShardHandle:
        if self.backend == "process":
            return ProcessShardHandle(shard_id, self.spec)
        return ThreadShardHandle(shard_id, self.spec)

    def _spawn(self, shard_id: int) -> None:
        handle = self._make_handle(shard_id)
        try:
            url = handle.start(self.ready_timeout)
        except (OSError, PermissionError) as exc:
            if self.backend != "process":
                raise
            # Restricted sandbox: degrade the whole fleet to threads (the
            # process backend would fail identically for every shard).
            self.backend = "thread"
            handle = self._make_handle(shard_id)
            url = handle.start(self.ready_timeout)
            if shard_id == 0:
                print(f"cluster: process backend unavailable ({exc}); using threads")
        with self._lock:
            # The supervisor may have been closed while this (blocking)
            # spawn was in flight — a late respawn must not outlive it.
            if self._closed:
                register = False
            else:
                self._handles[shard_id] = handle
                self._urls[shard_id] = url
                register = True
        if not register:
            handle.stop()

    def _is_closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stop the monitor and terminate every shard."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._monitor is not None:
            self._monitor.join(timeout=self.monitor_interval * 8 + 5.0)
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
            self._urls.clear()
        for handle in handles:
            try:
                handle.stop()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def __enter__(self) -> "ClusterSupervisor":
        return self.start() if self._started_at is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # routing / introspection
    # ------------------------------------------------------------------ #
    def shard_url(self, shard_id: int) -> str:
        with self._lock:
            try:
                return self._urls[shard_id]
            except KeyError:
                raise ClusterError(f"shard {shard_id} is not running") from None

    def shard_urls(self) -> dict[int, str]:
        with self._lock:
            return dict(self._urls)

    def route(self, key: str) -> tuple[int, str]:
        """Owning ``(shard_id, base_url)`` of a routing key."""
        shard_id = self.ring.assign(key)
        return shard_id, self.shard_url(shard_id)

    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for h in self._handles.values() if h.is_alive())

    @property
    def respawns(self) -> int:
        with self._lock:
            return self._respawns

    def record_health(self, document: dict) -> None:
        """Cache the latest cluster health document (router or monitor)."""
        with self._lock:
            self._last_health = document
            self._last_health_at = time.monotonic()

    def last_health(self, *, max_age: float | None = None) -> dict | None:
        """The most recent health document, or ``None`` if absent/stale."""
        with self._lock:
            if self._last_health is None:
                return None
            if max_age is not None and (
                time.monotonic() - self._last_health_at > max_age
            ):
                return None
            return self._last_health

    @property
    def uptime_seconds(self) -> float:
        return 0.0 if self._started_at is None else time.monotonic() - self._started_at

    # ------------------------------------------------------------------ #
    # fleet-wide operations
    # ------------------------------------------------------------------ #
    def _fan_out(
        self, call, *, timeout: float
    ) -> dict[int, dict | None]:
        """Run ``call(url)`` against every shard concurrently.

        Concurrency bounds the fleet-wide latency at the slowest *single*
        shard — with sequential polling one hung shard would stall the whole
        aggregated ``/metrics`` response for its full timeout before the
        next shard was even tried.  Unreachable shards yield ``None``.
        """
        urls = sorted(self.shard_urls().items())
        if not urls:
            return {}

        def probe(url: str) -> dict | None:
            client = ServiceClient(url, timeout=timeout, retries=0)
            try:
                return call(client)
            except Exception:
                return None
            finally:
                client.close()

        with ThreadPoolExecutor(max_workers=min(len(urls), 16)) as pool:
            snapshots = pool.map(probe, (url for _, url in urls))
            return {shard_id: snap for (shard_id, _), snap in zip(urls, snapshots)}

    def shard_metrics(self, *, timeout: float = 5.0) -> dict[int, dict | None]:
        """Per-shard ``/metrics`` snapshots (``None`` for unreachable shards)."""
        return self._fan_out(lambda client: client.metrics(), timeout=timeout)

    def shard_histories(
        self,
        window: float | None = None,
        step: float | None = None,
        *,
        timeout: float = 5.0,
    ) -> dict[int, dict | None]:
        """Per-shard ``/metrics/history`` documents (``None`` = unreachable)."""
        return self._fan_out(
            lambda client: client.metrics_history(window, step),
            timeout=timeout,
        )

    def purge_all(self, *, all: bool = False) -> dict[int, dict | None]:  # noqa: A002
        """Fan the explicit eviction message out to every shard."""
        return self._fan_out(
            lambda client: client.purge(all=all), timeout=30.0
        )

    def gather_trace_components(
        self, trace_id: str, *, timeout: float = 5.0
    ) -> list[dict]:
        """Every shard-side component of one propagated trace id.

        Best-effort fan-out: shards that never saw the id answer 404 and
        contribute nothing, so the list usually holds exactly the owning
        shard's component.  The router concatenates these after its own
        component to form the stitched ``GET /trace/<id>`` document.
        """
        documents = self._fan_out(
            lambda client: client.trace(trace_id), timeout=timeout
        )
        components: list[dict] = []
        for shard_id in sorted(documents):
            document = documents[shard_id]
            if document:
                components.extend(document.get("components", []))
        return components

    # ------------------------------------------------------------------ #
    # monitor
    # ------------------------------------------------------------------ #
    def _maybe_probe_health(self, next_probe: float) -> float:
        """Run the router-installed health probe when due; returns the next
        due time.  Probe failures (router mid-shutdown, shards respawning)
        leave the cached document untouched and retry next interval."""
        probe = self.health_probe
        now = time.monotonic()
        if probe is None or now < next_probe:
            return next_probe
        try:
            document = probe()
        except Exception:
            document = None
        if document is not None:
            self.record_health(document)
        return now + self.health_interval

    def _monitor_loop(self) -> None:
        next_probe = time.monotonic()
        while not self._is_closed():
            health = self.last_health()
            interval = self.monitor_interval
            if health is not None and health.get("state") != "ok":
                # An unhealthy fleet gets a tighter loop: dead shards are
                # respawned (and the health probe re-run) sooner.
                interval = self.monitor_interval / 4.0
            time.sleep(interval)
            if self._is_closed():
                return
            next_probe = self._maybe_probe_health(next_probe)
            with self._lock:
                dead = [
                    shard_id
                    for shard_id, handle in self._handles.items()
                    if not handle.is_alive()
                ]
            for shard_id in dead:
                if self._is_closed():
                    return
                try:
                    with self._lock:
                        handle = self._handles.get(shard_id)
                    if handle is not None:
                        handle.stop()  # reap the corpse before replacing it
                    self._spawn(shard_id)
                    with self._lock:
                        self._respawns += 1
                except Exception:  # pragma: no cover - keep monitoring
                    # Spawn failed (e.g. resource exhaustion): leave the
                    # shard down and retry on the next tick.
                    pass
