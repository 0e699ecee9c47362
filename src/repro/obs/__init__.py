"""`repro.obs` — stdlib-only observability: tracing, histograms, exposition.

The pillars, threaded through every serving and replay layer:

- :mod:`repro.obs.tracing` — contextvar span tracer with deterministic
  seeded ids, ``X-Repro-Trace-Id`` propagation across the router→shard
  hop, and a bounded ring-buffer :class:`TraceStore` behind
  ``GET /trace/<id>`` / ``GET /traces``.
- :mod:`repro.obs.histogram` — fixed log-bucket latency histograms that
  merge *exactly* across shards, replacing unbounded latency lists and
  the max-of-p99s fleet aggregation.
- :mod:`repro.obs.timeseries` — fixed-memory :class:`MetricRing` of
  gauge/counter/histogram samples; window deltas reconstruct any recent
  interval's exact distribution from two cumulative snapshots.
- :mod:`repro.obs.slo` — multi-window (fast/slow) burn-rate evaluation
  of p99-latency and availability objectives over those window deltas.
- :mod:`repro.obs.health` — the ``ok → degraded → failing`` state
  machine with machine-readable reasons and the ``scale_hint`` contract.
- :mod:`repro.obs.prometheus` — text exposition of the same numbers via
  ``GET /metrics?format=prometheus``.

Every span/metric name is pinned in :mod:`repro.obs.names`; tracing
and the Prometheus renderer raise on any name it does not declare.
"""

from .health import (
    HEALTH_STATES,
    STATE_DEGRADED,
    STATE_FAILING,
    STATE_OK,
    evaluate_health,
    state_value,
)
from .histogram import BOUNDS_MS, LatencyHistogram
from .names import METRIC_NAMES, METRICS, SPAN_NAMES
from .prometheus import render_cluster_metrics, render_service_metrics
from .slo import SLO, evaluate_slo, window_status
from .timeseries import MetricRing, MetricSample, WindowDelta
from .tracing import Span, Trace, TraceStore, Tracer

__all__ = [
    "BOUNDS_MS",
    "HEALTH_STATES",
    "LatencyHistogram",
    "METRICS",
    "METRIC_NAMES",
    "MetricRing",
    "MetricSample",
    "SLO",
    "SPAN_NAMES",
    "STATE_DEGRADED",
    "STATE_FAILING",
    "STATE_OK",
    "Span",
    "Trace",
    "TraceStore",
    "Tracer",
    "WindowDelta",
    "evaluate_health",
    "evaluate_slo",
    "render_cluster_metrics",
    "render_service_metrics",
    "state_value",
    "window_status",
]
