"""Pinned registry of every span and metric name the stack may emit.

Observability names are load-bearing: dashboards, the Prometheus scrape
in CI and the stitched-trace assertions all key off these exact strings,
and a typo'd name does not fail loudly — the series silently vanishes.
Every span opened through :meth:`repro.obs.tracing.Trace.span` /
:meth:`~repro.obs.tracing.Trace.record_span` and every metric family
rendered by :mod:`repro.obs.prometheus` must therefore reference one of
the constants below; lint rule RL007 enforces that statically (string
literals at a span call site, or ``repro_*`` literals outside this
module, are findings).

Adding a name is a deliberate act: declare the constant here, add it to
the registry mapping, and the rule accepts it everywhere.
"""

from __future__ import annotations

__all__ = [
    "METRICS",
    "METRIC_NAMES",
    "SPAN_NAMES",
]

# ---------------------------------------------------------------------- #
# span names (one constant per pipeline stage)
# ---------------------------------------------------------------------- #
#: Root span of one HTTP request (daemon, shard or router side).
SPAN_REQUEST = "request"
#: Body read + JSON decode.
SPAN_PARSE = "parse"
#: Payload canonicalisation + content fingerprint.
SPAN_FINGERPRINT = "fingerprint"
#: Fingerprint-cache probe (hit or miss).
SPAN_CACHE_LOOKUP = "cache_lookup"
#: Cache miss -> a free compute slot.
SPAN_QUEUE_WAIT = "queue_wait"
#: Scheduler run for the miss (meta: group_size, the requests it answers).
SPAN_BATCH_COMPUTE = "batch_compute"
#: Response dict -> JSON bytes on the wire.
SPAN_SERIALIZE = "serialize"
#: Router: shard-ring resolution (route-cache probe included).
SPAN_ROUTE = "route"
#: Router: one forward attempt to a shard (meta: shard, attempt).
SPAN_FORWARD = "forward"
#: Trusted-header fast path serving a cached result without parsing.
SPAN_FAST_HIT = "fast_hit"
#: One online-replay epoch's kernel compute.
SPAN_EPOCH = "epoch"

#: Every span name a tracer may record.
SPAN_NAMES = frozenset(
    {
        SPAN_REQUEST,
        SPAN_PARSE,
        SPAN_FINGERPRINT,
        SPAN_CACHE_LOOKUP,
        SPAN_QUEUE_WAIT,
        SPAN_BATCH_COMPUTE,
        SPAN_SERIALIZE,
        SPAN_ROUTE,
        SPAN_FORWARD,
        SPAN_FAST_HIT,
        SPAN_EPOCH,
    }
)

# ---------------------------------------------------------------------- #
# metric family names (Prometheus exposition)
# ---------------------------------------------------------------------- #
METRIC_REQUESTS_TOTAL = "repro_requests_total"
METRIC_REJECTIONS_TOTAL = "repro_rejections_total"
METRIC_BATCHES_TOTAL = "repro_batches_total"
METRIC_DEDUPED_TOTAL = "repro_deduped_in_batch_total"
METRIC_FAST_HITS_TOTAL = "repro_fast_hits_total"
METRIC_QUEUE_DEPTH = "repro_queue_depth"
METRIC_CACHE_HITS_TOTAL = "repro_cache_hits_total"
METRIC_CACHE_MISSES_TOTAL = "repro_cache_misses_total"
METRIC_CACHE_SIZE = "repro_cache_size"
METRIC_LATENCY_MS = "repro_request_latency_ms"
METRIC_UPTIME_SECONDS = "repro_uptime_seconds"
METRIC_TRACES_STORED = "repro_traces_stored"
METRIC_SLOW_REQUESTS_TOTAL = "repro_slow_requests_total"
METRIC_FORWARDS_TOTAL = "repro_forwards_total"
METRIC_ROUTE_ERRORS_TOTAL = "repro_route_errors_total"
METRIC_SHARDS = "repro_shards"
METRIC_HEALTH_STATE = "repro_health_state"
METRIC_SLO_FAST_BURN = "repro_slo_fast_burn_rate"
METRIC_SLO_SLOW_BURN = "repro_slo_slow_burn_rate"
METRIC_SCALE_HINT = "repro_scale_hint"
METRIC_HISTORY_SAMPLES = "repro_history_samples"

#: name -> (prometheus type, help text).  The exposition renderer iterates
#: this mapping, so a family that is not declared here cannot be emitted.
METRICS: dict[str, tuple[str, str]] = {
    METRIC_REQUESTS_TOTAL: ("counter", "Requests accepted by the service"),
    METRIC_REJECTIONS_TOTAL: ("counter", "Requests rejected at admission"),
    METRIC_BATCHES_TOTAL: ("counter", "Requests answered by the full pipeline"),
    METRIC_DEDUPED_TOTAL: ("counter", "Requests answered by another in-flight compute"),
    METRIC_FAST_HITS_TOTAL: (
        "counter",
        "Trusted-header fast-path cache hits",
    ),
    METRIC_QUEUE_DEPTH: ("gauge", "Requests in flight"),
    METRIC_CACHE_HITS_TOTAL: ("counter", "Fingerprint cache hits"),
    METRIC_CACHE_MISSES_TOTAL: ("counter", "Fingerprint cache misses"),
    METRIC_CACHE_SIZE: ("gauge", "Entries resident in the fingerprint cache"),
    METRIC_LATENCY_MS: (
        "histogram",
        "End-to-end request latency in milliseconds",
    ),
    METRIC_UPTIME_SECONDS: ("gauge", "Seconds since the service started"),
    METRIC_TRACES_STORED: ("gauge", "Traces resident in the ring buffer"),
    METRIC_SLOW_REQUESTS_TOTAL: (
        "counter",
        "Requests slower than the slow-log threshold",
    ),
    METRIC_FORWARDS_TOTAL: ("counter", "Router forwards that reached a shard"),
    METRIC_ROUTE_ERRORS_TOTAL: (
        "counter",
        "Router forwards that exhausted every retry",
    ),
    METRIC_SHARDS: ("gauge", "Shards the router currently fans out to"),
    METRIC_HEALTH_STATE: (
        "gauge",
        "Health state (0=ok, 1=degraded, 2=failing)",
    ),
    METRIC_SLO_FAST_BURN: (
        "gauge",
        "Worst-objective SLO burn rate over the fast window",
    ),
    METRIC_SLO_SLOW_BURN: (
        "gauge",
        "Worst-objective SLO burn rate over the slow window",
    ),
    METRIC_SCALE_HINT: (
        "gauge",
        "Autoscaling hint (-1=shrink, 0=hold, 1=grow)",
    ),
    METRIC_HISTORY_SAMPLES: (
        "gauge",
        "Samples resident in the metric history ring",
    ),
}

#: Every metric family name the exposition may emit.
METRIC_NAMES = frozenset(METRICS)
