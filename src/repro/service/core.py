"""In-process scheduling service: caching, single-flight compute, backpressure.

:class:`SchedulerService` is the serving-layer facade over the package's
schedulers.  :meth:`SchedulerService.schedule` answers one
:class:`ScheduleRequest` on the caller's thread (the HTTP transport gives
each connection its own): hits come straight from the
:class:`~repro.service.cache.LRUTTLCache`; a miss joins the computation
already running for the same key, or else takes one of ``workers`` compute
slots and runs :func:`compute_response` itself.

The cache key is ``(Instance.fingerprint(), algorithm, canonical params
JSON, validate)``: instances repeat in real workloads (same job mix,
different labels), so a content hash turns the allotment engine's cached
replay speedup into end-to-end service throughput.

The HTTP frontend in :mod:`repro.service.server` is a thin translation
layer over this class.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..exceptions import ModelError, ServiceOverloadedError
from ..model.instance import Instance, profile_fingerprint
from ..obs.health import evaluate_health
from ..obs.histogram import LatencyHistogram
from ..obs.names import SPAN_BATCH_COMPUTE, SPAN_CACHE_LOOKUP, SPAN_QUEUE_WAIT
from ..obs.slo import SLO, evaluate_slo
from ..obs.timeseries import MetricRing
from ..obs.tracing import Trace, TraceStore, Tracer
from ..registry import make_scheduler
from ..sim.validate import simulate_and_check
from ..workloads.generators import WORKLOAD_FAMILIES, make_workload
from ..workloads.ocean import ocean_instance
from .cache import MISS, LRUTTLCache

__all__ = [
    "ScheduleRequest",
    "SchedulerService",
    "canonical_json",
    "compute_response",
    "payload_fingerprint",
    "request_from_payload",
]


def canonical_json(obj: Any) -> str:
    """Canonical JSON encoding (sorted keys, no whitespace).

    Equal payloads encode to equal bytes, which makes JSON strings usable as
    cache-key components and lets the benchmark assert byte-identity between
    service responses and direct scheduler calls.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling request as seen by the service.

    ``instance`` is either a materialised :class:`Instance` or its raw
    ``as_dict`` payload.  The raw form is the service hot path: the HTTP
    frontend fingerprints the payload directly
    (:func:`payload_fingerprint`), so a cache hit never pays for instance
    construction — the ``Instance`` is only built by :func:`compute_response`
    on a miss.
    A dict ``instance`` must come with its precomputed ``fingerprint``
    (:func:`request_from_payload` guarantees this).
    """

    instance: Instance | dict
    algorithm: str = "mrt"
    params: dict = field(default_factory=dict)
    validate: bool = False
    fingerprint: str | None = None

    def instance_fingerprint(self) -> str:
        if isinstance(self.instance, Instance):
            return self.instance.fingerprint()
        if self.fingerprint is None:
            raise ModelError("raw-payload request without a precomputed fingerprint")
        return self.fingerprint

    def cache_key(self) -> tuple[str, str, str, bool]:
        """Content-addressed key: fingerprint + algorithm + params + validate."""
        return (
            self.instance_fingerprint(),
            self.algorithm,
            canonical_json(self.params),
            self.validate,
        )


def payload_fingerprint(payload: dict) -> str | None:
    """Fingerprint an ``Instance.as_dict`` payload without building it.

    Mirrors :meth:`Instance.fingerprint` exactly for well-formed payloads
    (the constructor truncates every profile to ``num_procs`` columns, so the
    same truncation is applied here), including the optional per-task
    ``"release"`` times of online traces — a trace must never share a cache
    key with its release-free twin.  Returns ``None`` when the payload does
    not have the expected shape — callers then fall back to full
    :meth:`Instance.from_dict` construction, which raises the proper
    :class:`~repro.exceptions.ModelError`.
    """
    try:
        m = int(payload["num_procs"])
        tasks = payload["tasks"]
        if m < 1 or not isinstance(tasks, list) or not tasks:
            return None
        rows = []
        releases = []
        for task in tasks:
            times = task["times"]
            if not isinstance(times, (list, tuple)) or len(times) < m:
                return None
            # Validate the FULL profile (as MalleableTask would), not just
            # the truncated columns: otherwise a payload with garbage beyond
            # column m would 400 on a cold cache yet 200 on a warm one.
            full = np.asarray(times, dtype=float)
            if full.ndim != 1 or not np.all(np.isfinite(full)) or np.any(full <= 0):
                return None
            release = float(task.get("release", 0.0))
            if not np.isfinite(release) or release < 0.0:
                return None
            rows.append(full[:m])
            releases.append(release)
        matrix = np.asarray(rows, dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    return profile_fingerprint(m, matrix, np.asarray(releases, dtype=float))


def request_from_payload(payload: dict) -> ScheduleRequest:
    """Build a :class:`ScheduleRequest` from a decoded JSON request body.

    The body carries either an explicit ``"instance"`` (the
    :meth:`Instance.as_dict` shape) or a ``"generate"`` spec
    (``{"family", "tasks", "procs", "seed"}``; family ``"ocean"`` maps to the
    ocean-circulation workload).  Optional fields: ``"algorithm"`` (default
    ``"mrt"``), ``"params"`` (keyword arguments for the scheduler factory)
    and ``"validate"`` (run :func:`repro.sim.validate.simulate_and_check` on
    the produced schedule).  Raises :class:`~repro.exceptions.ModelError` on
    malformed input so frontends can map it to a 400.
    """
    if not isinstance(payload, dict):
        raise ModelError("request body must be a JSON object")
    if ("instance" in payload) == ("generate" in payload):
        raise ModelError("request must carry exactly one of 'instance' or 'generate'")
    fingerprint: str | None = None
    try:
        if "instance" in payload:
            # Hot path: fingerprint the raw payload; materialise the Instance
            # lazily (only on a cache miss).  Payloads the fast fingerprint
            # cannot handle are materialised here so malformed input fails
            # with a ModelError at parse time.
            instance: Instance | dict = payload["instance"]
            fingerprint = payload_fingerprint(instance) if isinstance(instance, dict) else None
            if fingerprint is None:
                instance = Instance.from_dict(instance)
        else:
            spec = payload["generate"]
            if not isinstance(spec, dict):
                raise ModelError("'generate' must be an object")
            family = spec.get("family", "mixed")
            procs = int(spec.get("procs", 16))
            seed = int(spec.get("seed", 0))
            if family == "ocean":
                instance = ocean_instance(procs, seed=seed)
            elif family in WORKLOAD_FAMILIES:
                instance = make_workload(
                    family, int(spec.get("tasks", 32)), procs, seed=seed
                )
            else:
                raise ModelError(
                    f"unknown workload family {family!r}; choose from "
                    f"{sorted(WORKLOAD_FAMILIES) + ['ocean']}"
                )
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed request: {exc}") from exc
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ModelError("'params' must be an object")
    algorithm = payload.get("algorithm", "mrt")
    if not isinstance(algorithm, str):
        raise ModelError("'algorithm' must be a string")
    return ScheduleRequest(
        instance=instance,
        algorithm=algorithm,
        params=params,
        validate=bool(payload.get("validate", False)),
        fingerprint=fingerprint,
    )


def compute_response(
    instance: Instance | dict, algorithm: str, params: dict, validate: bool
) -> dict:
    """Run the scheduler and build the cacheable response payload.

    ``instance`` may still be a raw payload dict (the lazy hot path); it is
    materialised here, so parsing cost is only ever paid on a cache miss.
    The ``"result"`` sub-object is a pure function of the request content —
    deterministic schedulers make a cached replay byte-identical (under
    :func:`canonical_json`) to a direct ``Scheduler.schedule()`` call.
    """
    if isinstance(instance, dict):
        instance = Instance.from_dict(instance)
    scheduler = make_scheduler(algorithm, params)
    schedule = scheduler.schedule(instance)
    payload: dict = {
        "result": {
            "algorithm": schedule.algorithm or scheduler.name,
            "makespan": schedule.makespan(),
            "num_tasks": instance.num_tasks,
            "num_procs": instance.num_procs,
            "schedule": schedule.as_dict(),
        },
        "fingerprint": instance.fingerprint(),
        "validation": None,
    }
    if validate:
        sim = simulate_and_check(schedule)
        payload["validation"] = {
            "simulated_makespan": sim.makespan,
            "utilization": sim.utilization,
            "events": len(sim.events),
        }
    return payload


@dataclass
class _Flight:
    """One computation in progress; identical misses wait on it."""

    done: threading.Event = field(default_factory=threading.Event)
    waiters: int = 0
    payload: dict | None = None
    error: BaseException | None = None


class SchedulerService:
    """Scheduling service with a fingerprint result cache and single-flight misses.

    Parameters
    ----------
    workers:
        Number of compute slots: at most this many distinct misses run
        :func:`compute_response` at once (default: up to 4, bounded by the
        CPU count).  ``--shards N`` is the way to use several cores.
    cache_capacity / cache_ttl:
        LRU capacity and optional TTL (seconds) of the result cache.
    purge_interval:
        How often (seconds) the service's tick eagerly drops expired cache
        entries (:meth:`LRUTTLCache.purge_expired`) so a long-idle service
        does not pin dead entries until the next lookup.  ``None`` (default)
        purges once per ``cache_ttl``; ignored when no TTL is configured.
    plan_cache_capacity:
        LRU capacity of the per-epoch batch-plan cache
        (:class:`~repro.online.plancache.PlanCache`) behind the streaming
        ``/replay`` path.  Content-addressed, so no TTL applies.
    max_pending:
        Backpressure bound on in-flight requests; beyond it
        :meth:`schedule` raises :class:`~repro.exceptions.ServiceOverloadedError`.
    clock:
        Time source for the cache TTL (injectable for tests).
    tracing:
        Record per-request spans into the bounded trace store (default on;
        the overhead benchmark gate measures its cost with this off).
        Latency histograms are unconditional — they replace the old
        unbounded latency list and cost O(1) memory.
    trace_capacity / slow_ms / trace_seed / trace_component:
        Ring-buffer capacity of the trace store, the slow-request-log
        threshold in milliseconds, the seed of the deterministic trace-id
        source, and the component label stamped on every trace this
        service records (shard workers use ``"shard-<id>"``).
    sample_interval / history_capacity:
        Cadence (seconds) and ring capacity of the metric time series
        (:class:`~repro.obs.timeseries.MetricRing`).  The service's 0.1 s
        tick drives sampling beside the cache purge.  ``sample_interval=
        None`` disables interval sampling (tests call :meth:`sample_now`
        instead).  The defaults retain 12 minutes of 1 Hz samples —
        enough to cover the default slow SLO window.
    slo:
        The :class:`~repro.obs.slo.SLO` evaluated by :meth:`slo_status`
        and :meth:`health` (default: the stock objectives).
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache_capacity: int = 2048,
        cache_ttl: float | None = None,
        purge_interval: float | None = None,
        plan_cache_capacity: int = 512,
        max_pending: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_ms: float = 500.0,
        trace_seed: int = 0,
        trace_component: str = "service",
        sample_interval: float | None = 1.0,
        history_capacity: int = 720,
        slo: SLO | None = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 1 (or 0/None for the default)")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.workers = workers or max(2, min(4, os.cpu_count() or 2))
        self.max_pending = int(max_pending)
        if purge_interval is not None and purge_interval <= 0:
            raise ValueError("purge_interval must be positive (or None for auto)")
        self.cache = LRUTTLCache(cache_capacity, ttl=cache_ttl, clock=clock)
        # Lazy import: repro.online's kernels import this package for the
        # shared LRU machinery, so a module-level import here would cycle.
        from ..online.plancache import PlanCache

        #: Per-epoch batch-plan cache of the streaming ``/replay`` path —
        #: content-addressed (no TTL), shared across kernels and requests.
        self.plan_cache = PlanCache(plan_cache_capacity, clock=clock)
        # Purge scheduling runs on the same (injectable) clock as the cache
        # TTL so tests can drive both deterministically.
        self._clock = clock
        self.purge_interval = (
            purge_interval if purge_interval is not None else cache_ttl
        )
        self._next_purge = (
            clock() + self.purge_interval if self.purge_interval is not None else None
        )
        self._slots = threading.BoundedSemaphore(self.workers)
        self._inflight: dict[tuple, _Flight] = {}
        self._lock = threading.Lock()
        self._pending = 0
        self._requests_total = 0
        self._rejections = 0
        self._batches = 0
        self._deduped = 0
        self._fast_hits = 0
        # Fixed log-bucket histogram: constant memory under sustained load
        # and exact cross-shard merging (see repro.obs.histogram).
        self.latency = LatencyHistogram()
        self.tracing = bool(tracing)
        self.tracer = Tracer(trace_component, seed=trace_seed)
        self.traces = TraceStore(trace_capacity, slow_ms=slow_ms)
        self.slo = slo if slo is not None else SLO()
        self.history = MetricRing(
            history_capacity, interval=sample_interval, clock=clock
        )
        self._started = time.monotonic()
        self._closed = False
        self._stop = threading.Event()
        self._ticker = threading.Thread(
            target=self._tick_loop, name="scheduler-service-tick", daemon=True
        )
        self._ticker.start()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        request: ScheduleRequest,
        *,
        trace: Trace | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Answer one request on the calling thread; returns the response dict.

        The response is the :func:`compute_response` payload plus per-request
        metadata: ``"cache_hit"`` and ``"elapsed_ms"`` (lookup, wait and
        compute time as observed by the service).  A ``trace`` (usually
        minted by the HTTP frontend) collects the cache-lookup, queue-wait
        and batch-compute spans.  ``timeout`` bounds each wait — for a
        compute slot or for another request's identical computation — and
        raises :class:`TimeoutError` when it runs out.  Raises
        :class:`~repro.exceptions.ServiceOverloadedError` when
        ``max_pending`` requests are already in flight.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        # Key computation can raise (raw-dict request without a fingerprint);
        # it must happen before a backpressure slot is taken or the slot
        # would leak and eventually wedge the service at max_pending.
        key = request.cache_key()
        with self._lock:
            if self._pending >= self.max_pending:
                self._rejections += 1
                raise ServiceOverloadedError(
                    f"{self._pending} requests in flight (max_pending="
                    f"{self.max_pending}); retry later"
                )
            self._pending += 1
            self._requests_total += 1
            self._batches += 1
        start = time.perf_counter()
        try:
            payload, cache_hit = self._lookup_or_compute(
                request, key, trace if self.tracing else None, timeout
            )
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            with self._lock:
                self._pending -= 1
        self.note_latency(elapsed_ms)
        response = dict(payload)  # shallow: "result" is shared and read-only
        response["cache_hit"] = cache_hit
        response["elapsed_ms"] = elapsed_ms
        return response

    def serve_cached(self, key: tuple) -> Any:
        """Fast-path cache probe: the payload for ``key``, or :data:`MISS`.

        Used by the HTTP frontend when a trusted router forwarded the request
        with a precomputed cache key (sharded deployments): a hit is served
        without a body parse or fingerprinting.  Hits are counted as requests
        and as ``fast_hits``; a miss is *not* counted (the caller falls back
        to :meth:`schedule`, which performs the authoritative counted lookup).
        """
        value = self.cache.get_if_hit(key)
        if value is not MISS:
            with self._lock:
                self._requests_total += 1
                self._fast_hits += 1
        return value

    def note_latency(self, elapsed_ms: float) -> None:
        """Record one answered request's latency."""
        with self._lock:
            self.latency.observe(elapsed_ms)

    # ------------------------------------------------------------------ #
    # time series, SLO, health
    # ------------------------------------------------------------------ #
    def _collect_sample(self) -> tuple[dict, dict, dict]:
        """One observation for the metric ring (gauges, counters, latency)."""
        with self._lock:
            gauges = {"queue_depth": float(self._pending)}
            counters = {
                "requests_total": self._requests_total,
                "rejections": self._rejections,
                "fast_hits": self._fast_hits,
                "batches": self._batches,
                "deduped_in_batch": self._deduped,
            }
            latency = self.latency.as_dict()
        stats = self.cache.stats
        gauges["cache_size"] = float(len(self.cache))
        gauges["cache_hit_rate"] = float(stats.hit_rate)
        counters["cache_hits"] = stats.hits
        counters["cache_misses"] = stats.misses
        return gauges, counters, latency

    def _maybe_sample(self) -> None:
        """Tick hook: sample once per ``sample_interval``."""
        self.history.maybe_sample(self._collect_sample)

    def sample_now(self) -> None:
        """Take one sample unconditionally (tests, interval=None setups)."""
        gauges, counters, latency = self._collect_sample()
        self.history.record(gauges, counters, latency)

    def slo_status(self) -> dict:
        """Multi-window burn-rate evaluation of :attr:`slo` (the ``slo``
        block of ``/metrics``); window deltas ride along for exact
        cross-shard aggregation by the cluster router."""
        return evaluate_slo(
            self.slo,
            self.history.window(self.slo.fast_window_s),
            self.history.window(self.slo.slow_window_s),
        )

    def health(self) -> dict:
        """Health state + reasons + ``scale_hint`` (drives ``/healthz``)."""
        return evaluate_health(self.slo_status())

    def history_document(
        self,
        window_s: float | None = None,
        step_s: float | None = None,
    ) -> dict:
        """The ``GET /metrics/history`` response: downsampled ring view
        plus the current SLO evaluation."""
        if window_s is None:
            window_s = self.slo.slow_window_s
        if step_s is None:
            step_s = max(self.history.interval or 1.0, window_s / 60.0)
        doc = self.history.history(window_s, step_s)
        doc["slo"] = self.slo_status()
        doc["component"] = self.tracer.component
        return doc

    def metrics(self) -> dict:
        """Service counters in the shape served by ``GET /metrics``.

        The ``latency`` block carries the full histogram snapshot next to
        the headline percentiles so a router (or any aggregator) can merge
        shard latencies *exactly* instead of taking max-of-p99s.
        """
        with self._lock:
            lat = self.latency.summary()
            pending = self._pending
            snapshot = {
                "requests_total": self._requests_total,
                "rejections": self._rejections,
                "batches": self._batches,
                "deduped_in_batch": self._deduped,
                "fast_hits": self._fast_hits,
            }
        return {
            **snapshot,
            "queue_depth": pending,
            "cache": {**self.cache.stats.as_dict(), "size": len(self.cache)},
            "plan_cache": self.plan_cache.metrics(),
            "latency": lat,
            "traces": {
                "stored": len(self.traces),
                "capacity": self.traces.capacity,
                "slow_total": self.traces.slow_total,
                "slow_ms": self.traces.slow_ms,
                "enabled": self.tracing,
            },
            "workers": self.workers,
            "slo": self.slo_status(),
            "health": self.health(),
            "history": {
                "samples": len(self.history),
                "capacity": self.history.capacity,
                "interval_s": self.history.interval,
            },
            "uptime_seconds": time.monotonic() - self._started,
        }

    def close(self) -> None:
        """Stop the purge/sample tick; later requests raise ``RuntimeError``."""
        self._closed = True
        self._stop.set()
        self._ticker.join(timeout=10.0)

    def __enter__(self) -> "SchedulerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def _maybe_purge(self) -> None:
        """Eagerly drop expired cache entries once per ``purge_interval``."""
        if self._next_purge is None:
            return
        now = self._clock()
        if now >= self._next_purge:
            self._next_purge = now + self.purge_interval
            self.cache.purge_expired()

    def _tick_loop(self) -> None:
        while True:
            self._maybe_purge()
            self._maybe_sample()
            if self._stop.wait(0.1):
                return

    def _lookup_or_compute(
        self,
        request: ScheduleRequest,
        key: tuple,
        trace: Trace | None,
        timeout: float | None,
    ) -> tuple[dict, bool]:
        """``(payload, cache_hit)`` for one admitted request.

        A request whose key is already being computed joins that
        computation without a counted lookup.  Otherwise the counted lookup
        runs in the same critical section as the leader's removal of its
        entry (which follows its ``cache.put``), so a miss either joins the
        running computation or finds its result cached — the same key is
        never computed twice at once.
        """
        probe_start = time.perf_counter()
        with self._lock:
            flight = self._inflight.get(key)
            leader = flight is None
            cached = self.cache.get(key) if leader else MISS
            if cached is MISS:
                if leader:
                    flight = self._inflight[key] = _Flight()
                else:
                    self._deduped += 1
                flight.waiters += 1
        if trace is not None:
            trace.record_span(
                SPAN_CACHE_LOOKUP, probe_start, time.perf_counter(),
                hit=cached is not MISS,
            )
        if cached is not MISS:
            return cached, True
        if not leader:
            waited = time.perf_counter()
            if not flight.done.wait(timeout):
                raise TimeoutError("identical computation still running")
            if trace is not None:
                trace.record_span(
                    SPAN_BATCH_COMPUTE, waited, time.perf_counter(),
                    group_size=flight.waiters,
                )
            if flight.error is not None:
                raise flight.error
            return flight.payload, False
        queued = time.perf_counter()
        try:
            if not self._slots.acquire(timeout=timeout):
                raise TimeoutError("no compute slot became free")
            try:
                started = time.perf_counter()
                flight.payload = compute_response(
                    request.instance, request.algorithm, request.params,
                    request.validate,
                )
                computed = time.perf_counter()
            finally:
                self._slots.release()
            # Cached before the in-flight entry goes (see the docstring).
            self.cache.put(key, flight.payload)
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._inflight[key]
            flight.done.set()
        if trace is not None:
            trace.record_span(SPAN_QUEUE_WAIT, queued, started)
            trace.record_span(
                SPAN_BATCH_COMPUTE, started, computed, group_size=flight.waiters
            )
        return flight.payload, False
