"""Prometheus text exposition for the `/metrics` JSON documents.

``GET /metrics?format=prometheus`` renders the same numbers the JSON
document reports, as text exposition format version 0.0.4 — the format
every Prometheus-compatible scraper (Prometheus, VictoriaMetrics,
Grafana Agent) ingests.  Only metric families declared in
:data:`repro.obs.names.METRICS` can be emitted: the renderer iterates
that registry's ``HELP``/``TYPE`` metadata, so an undeclared family is a
``KeyError`` here, never a silent new series.

Latency renders as a real Prometheus histogram (cumulative ``_bucket``
series over the pinned bounds, ``_sum``/``_count``), so ``histogram_quantile``
works out of the box and shard series aggregate exactly server-side.
"""

from __future__ import annotations

from .histogram import BOUNDS_MS
from . import names

__all__ = ["render_cluster_metrics", "render_service_metrics"]


def _fmt(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class _Exposition:
    """Accumulates samples, emitting HELP/TYPE once per family."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._declared: set[str] = set()

    def _declare(self, name: str) -> None:
        if name in self._declared:
            return
        kind, help_text = names.METRICS[name]
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")
        self._declared.add(name)

    def sample(
        self, name: str, value: float, labels: dict | None = None
    ) -> None:
        self._declare(name)
        self._lines.append(f"{name}{_labels(labels)} {_fmt(value)}")

    def histogram(
        self, name: str, snapshot: dict, labels: dict | None = None
    ) -> None:
        """Emit one histogram family from a ``LatencyHistogram.as_dict``."""
        self._declare(name)
        base = dict(labels or {})
        cumulative = 0
        counts = snapshot["counts"]
        for bound, count in zip(BOUNDS_MS, counts):
            cumulative += count
            bucket = dict(base, le=format(bound, ".6g"))
            self._lines.append(
                f"{name}_bucket{_labels(bucket)} {cumulative}"
            )
        cumulative += counts[len(BOUNDS_MS)]
        bucket = dict(base, le="+Inf")
        self._lines.append(f"{name}_bucket{_labels(bucket)} {cumulative}")
        self._lines.append(
            f"{name}_sum{_labels(base)} {_fmt(snapshot['sum_ms'])}"
        )
        self._lines.append(f"{name}_count{_labels(base)} {cumulative}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def _core_samples(
    exp: _Exposition, metrics: dict, labels: dict | None = None
) -> None:
    """Samples every service-shaped metrics dict (daemon, shard) carries."""
    exp.sample(names.METRIC_REQUESTS_TOTAL, metrics["requests_total"], labels)
    exp.sample(names.METRIC_REJECTIONS_TOTAL, metrics["rejections"], labels)
    exp.sample(names.METRIC_BATCHES_TOTAL, metrics["batches"], labels)
    exp.sample(names.METRIC_DEDUPED_TOTAL, metrics["deduped_in_batch"], labels)
    exp.sample(names.METRIC_FAST_HITS_TOTAL, metrics["fast_hits"], labels)
    exp.sample(names.METRIC_QUEUE_DEPTH, metrics["queue_depth"], labels)
    cache = metrics["cache"]
    exp.sample(names.METRIC_CACHE_HITS_TOTAL, cache["hits"], labels)
    exp.sample(names.METRIC_CACHE_MISSES_TOTAL, cache["misses"], labels)
    exp.sample(names.METRIC_CACHE_SIZE, cache.get("size", 0), labels)
    histogram = metrics["latency"].get("histogram")
    if histogram is not None:
        exp.histogram(names.METRIC_LATENCY_MS, histogram, labels)


#: health-state string -> gauge value, pinned by ``health.HEALTH_STATES``.
_STATE_VALUES = {"ok": 0, "degraded": 1, "failing": 2}
_HINT_VALUES = {"shrink": -1, "hold": 0, "grow": 1}


def _signal_samples(
    exp: _Exposition, metrics: dict, labels: dict | None = None
) -> None:
    """SLO / health / history gauges, when the document carries them."""
    health = metrics.get("health")
    if isinstance(health, dict):
        exp.sample(
            names.METRIC_HEALTH_STATE,
            _STATE_VALUES.get(health.get("state"), 0),
            labels,
        )
        hint = health.get("scale_hint") or {}
        exp.sample(
            names.METRIC_SCALE_HINT,
            _HINT_VALUES.get(hint.get("direction"), 0),
            labels,
        )
    slo = metrics.get("slo")
    if isinstance(slo, dict):
        exp.sample(names.METRIC_SLO_FAST_BURN, slo["fast_burn"], labels)
        exp.sample(names.METRIC_SLO_SLOW_BURN, slo["slow_burn"], labels)
    history = metrics.get("history")
    if isinstance(history, dict):
        exp.sample(
            names.METRIC_HISTORY_SAMPLES, history["samples"], labels
        )


def _trace_samples(
    exp: _Exposition, metrics: dict, labels: dict | None = None
) -> None:
    traces = metrics.get("traces")
    if traces is None:
        return
    exp.sample(names.METRIC_TRACES_STORED, traces["stored"], labels)
    exp.sample(names.METRIC_SLOW_REQUESTS_TOTAL, traces["slow_total"], labels)


def render_service_metrics(metrics: dict) -> str:
    """Exposition for the single-daemon / shard ``/metrics`` document."""
    exp = _Exposition()
    _core_samples(exp, metrics)
    _trace_samples(exp, metrics)
    _signal_samples(exp, metrics)
    exp.sample(names.METRIC_UPTIME_SECONDS, metrics["uptime_seconds"])
    return exp.render()


def render_cluster_metrics(metrics: dict) -> str:
    """Exposition for the router's aggregated ``/metrics`` document.

    Cluster-wide series carry no labels (they are the exact merge across
    the fleet); the same families repeat per shard with a ``shard`` label
    so imbalance stays diagnosable from one scrape.
    """
    exp = _Exposition()
    cluster = metrics["cluster"]
    router = metrics["router"]
    _core_samples(exp, cluster)
    exp.sample(names.METRIC_FORWARDS_TOTAL, router["requests_total"])
    exp.sample(names.METRIC_ROUTE_ERRORS_TOTAL, router["routing_errors"])
    exp.sample(names.METRIC_SHARDS, cluster["shards"])
    _trace_samples(exp, router)
    _signal_samples(exp, metrics)
    exp.sample(names.METRIC_UPTIME_SECONDS, cluster["uptime_seconds"])
    for shard_id, entry in sorted(metrics.get("shards", {}).items()):
        snapshot = entry.get("metrics") if isinstance(entry, dict) else None
        if not isinstance(snapshot, dict):
            continue  # an unreachable shard reports no snapshot
        labels = {"shard": str(shard_id)}
        _core_samples(exp, snapshot, labels)
        _trace_samples(exp, snapshot, labels)
        _signal_samples(exp, snapshot, labels)
    return exp.render()
