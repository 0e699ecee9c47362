"""Unit tests for the observability package (`repro.obs`).

Histogram exactness (merge = single observer), tracer determinism, trace
store bounds (the memory-constancy regression for the old unbounded
latency lists) and the Prometheus text exposition.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (
    BOUNDS_MS,
    LatencyHistogram,
    METRIC_NAMES,
    Trace,
    TraceStore,
    Tracer,
    render_service_metrics,
)
from repro.obs.names import (
    METRICS,
    SPAN_BATCH_COMPUTE,
    SPAN_CACHE_LOOKUP,
    SPAN_PARSE,
    SPAN_QUEUE_WAIT,
)
from repro.service.core import SchedulerService, request_from_payload


# --------------------------------------------------------------------------- #
# histogram
# --------------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_empty_summary_is_zeroed(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.mean_ms == 0.0
        summary = hist.summary()
        assert summary["count"] == 0 and summary["p50_ms"] == 0.0

    def test_single_observation_is_exact(self):
        hist = LatencyHistogram()
        hist.observe(3.7)
        # Clamping to [min_ms, max_ms] makes single observations exact even
        # though the bucket is ~41% wide.
        assert hist.percentile(50) == pytest.approx(3.7)
        assert hist.percentile(99) == pytest.approx(3.7)
        assert hist.mean_ms == pytest.approx(3.7)

    def test_merge_equals_single_observer(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=1.0, sigma=1.5, size=600)
        parts = [LatencyHistogram() for _ in range(3)]
        whole = LatencyHistogram()
        for i, value in enumerate(samples):
            parts[i % 3].observe(value)
            whole.observe(value)
        merged = LatencyHistogram.merged(p.as_dict() for p in parts)
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.sum_ms == pytest.approx(whole.sum_ms)
        assert merged.min_ms == whole.min_ms
        assert merged.max_ms == whole.max_ms
        for q in (50, 90, 99):
            assert merged.percentile(q) == pytest.approx(whole.percentile(q))

    def test_percentile_tracks_numpy_within_bucket_resolution(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.5, 200.0, size=2000)
        hist = LatencyHistogram()
        for value in samples:
            hist.observe(value)
        for q in (50, 90, 99):
            exact = float(np.percentile(samples, q))
            # Bucket bounds grow by sqrt(2): the estimate can be off by at
            # most one bucket width (~41% relative).
            assert hist.percentile(q) == pytest.approx(exact, rel=0.45)

    def test_memory_is_constant_under_load(self):
        hist = LatencyHistogram()
        for i in range(10_000):
            hist.observe(i * 0.013)
        assert len(hist.counts) == len(BOUNDS_MS) + 1
        assert hist.count == 10_000

    def test_round_trip_and_scheme_guard(self):
        hist = LatencyHistogram()
        for value in (0.1, 1.0, 50.0, 1e6):  # includes the overflow bucket
            hist.observe(value)
        clone = LatencyHistogram.from_dict(hist.as_dict())
        assert clone.as_dict() == hist.as_dict()
        bad = hist.as_dict() | {"scheme": "linear-v0"}
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict(bad)
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict(hist.as_dict() | {"counts": [0, 1]})


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_ids_are_deterministic_per_seed(self):
        a = Tracer("service", seed=0)
        b = Tracer("service", seed=0)
        assert [a.next_id() for _ in range(5)] == [b.next_id() for _ in range(5)]
        c = Tracer("service", seed=1)
        assert a.next_id() != c.next_id()
        assert Tracer("router", seed=0).next_id() != Tracer("shard-0", seed=0).next_id()

    def test_adopts_propagated_id(self):
        tracer = Tracer("shard-1")
        trace = tracer.start("cafecafecafecafe")
        assert trace.trace_id == "cafecafecafecafe"
        assert trace.component == "shard-1"


class TestTrace:
    def test_nested_spans_parent_correctly(self):
        trace = Tracer("service").start()
        with trace.span(SPAN_PARSE):
            with trace.span(SPAN_CACHE_LOOKUP, hit=False):
                pass
        trace.finish()
        spans = {s.name: s for s in trace.spans}
        assert spans[SPAN_CACHE_LOOKUP].parent_id == spans[SPAN_PARSE].span_id
        assert spans[SPAN_PARSE].parent_id is None
        assert spans[SPAN_CACHE_LOOKUP].meta == {"hit": False}
        assert trace.duration_ms >= spans[SPAN_PARSE].duration_ms

    def test_record_span_accepts_cross_thread_intervals(self):
        trace = Tracer("service").start()
        trace.record_span(SPAN_QUEUE_WAIT, 1.0, 1.5)
        trace.record_span(SPAN_BATCH_COMPUTE, 1.5, 1.75, group_size=4)
        names = [s.name for s in trace.spans]
        assert names == [SPAN_QUEUE_WAIT, SPAN_BATCH_COMPUTE]
        assert trace.spans[0].duration_ms == pytest.approx(500.0)

    def test_unregistered_span_name_is_rejected(self):
        trace = Tracer("service").start()
        with pytest.raises(ValueError):
            trace.record_span("made_up_stage", 0.0, 1.0)

    def test_as_dict_shape(self):
        trace = Tracer("service").start()
        with trace.span(SPAN_PARSE):
            pass
        doc = trace.finish().as_dict()
        assert set(doc) == {
            "trace_id", "component", "started_at", "duration_ms", "spans",
        }
        assert set(doc["spans"][0]) == {
            "span_id", "name", "start_ms", "duration_ms", "parent_id", "meta",
        }


class TestTraceStore:
    def _trace(self, tracer, *, slow=False):
        trace = tracer.start()
        trace.finish()
        if slow:
            trace.duration_ms = 1e6
        return trace

    def test_ring_evicts_oldest(self):
        tracer = Tracer("service")
        store = TraceStore(capacity=4)
        traces = [self._trace(tracer) for _ in range(10)]
        for trace in traces:
            store.add(trace)
        assert len(store) == 4
        assert store.get(traces[0].trace_id) is None
        assert store.get(traces[-1].trace_id) is traces[-1]
        # newest first
        assert [s["trace_id"] for s in store.summaries()] == [
            t.trace_id for t in reversed(traces[-4:])
        ]

    def test_slow_log_survives_ring_eviction(self):
        tracer = Tracer("service")
        store = TraceStore(capacity=2, slow_ms=500.0, slow_capacity=3)
        slow = self._trace(tracer, slow=True)
        store.add(slow)
        for _ in range(5):
            store.add(self._trace(tracer))
        assert store.get(slow.trace_id) is None  # fell off the ring
        assert store.slow_total == 1
        assert [e["trace_id"] for e in store.slow_log()] == [slow.trace_id]

    def test_slow_log_is_bounded_but_total_keeps_counting(self):
        tracer = Tracer("service")
        store = TraceStore(capacity=64, slow_ms=500.0, slow_capacity=3)
        for _ in range(8):
            store.add(self._trace(tracer, slow=True))
        assert store.slow_total == 8
        assert len(store.slow_log()) == 3
        assert store.summaries(slow_ms=500.0) == store.summaries()[:64]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


# --------------------------------------------------------------------------- #
# service-level memory bounds (the unbounded-telemetry regression)
# --------------------------------------------------------------------------- #
class TestServiceTelemetryBounds:
    def test_sustained_traffic_holds_telemetry_memory_constant(self):
        service = SchedulerService(workers=2, trace_capacity=16, trace_seed=1)
        try:
            payload = {
                "generate": {
                    "family": "uniform", "tasks": 4, "procs": 4, "seed": 5,
                },
                "algorithm": "mrt",
            }
            for _ in range(200):
                request = request_from_payload(payload)
                trace = service.tracer.start()
                service.schedule(request, trace=trace, timeout=60)
                service.traces.add(trace.finish())
            metrics = service.metrics()
            # Latency telemetry is a fixed histogram, not a growing list...
            histogram = metrics["latency"]["histogram"]
            assert metrics["latency"]["count"] == 200
            assert len(histogram["counts"]) == len(BOUNDS_MS) + 1
            assert sum(histogram["counts"]) == 200
            # ...and the trace ring never outgrows its capacity.
            assert metrics["traces"]["stored"] == 16
            assert metrics["traces"]["capacity"] == 16
            assert len(service.traces) == 16
        finally:
            service.close()

    def test_tracing_disabled_records_nothing(self):
        service = SchedulerService(workers=2, tracing=False)
        try:
            request = request_from_payload(
                {
                    "generate": {
                        "family": "uniform", "tasks": 4, "procs": 4, "seed": 5,
                    },
                }
            )
            service.schedule(request, timeout=60)
            metrics = service.metrics()
            assert metrics["traces"]["enabled"] is False
            assert metrics["traces"]["stored"] == 0
        finally:
            service.close()


# --------------------------------------------------------------------------- #
# prometheus exposition
# --------------------------------------------------------------------------- #
def parse_prometheus(text: str) -> dict[str, dict]:
    """Minimal 0.0.4 text-format parser: family -> {"type", "samples"}."""
    families: dict[str, dict] = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families[name] = {"type": kind, "samples": {}}
        elif line.startswith("# HELP "):
            assert line.split(" ", 3)[3], "HELP text must not be empty"
        else:
            sample, value = line.rsplit(" ", 1)
            float(value)  # must parse
            base = sample.split("{", 1)[0]
            family = base
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in families:
                    family = base[: -len(suffix)]
            assert family in families, f"sample {sample!r} before TYPE"
            families[family]["samples"][sample] = float(value)
    return families


class TestPrometheusRendering:
    def test_service_exposition_parses_and_covers_registry(self):
        service = SchedulerService(workers=2)
        try:
            request = request_from_payload(
                {
                    "generate": {
                        "family": "uniform", "tasks": 4, "procs": 4, "seed": 2,
                    },
                }
            )
            service.schedule(request, timeout=60)
            text = render_service_metrics(service.metrics())
        finally:
            service.close()
        families = parse_prometheus(text)
        assert set(families) <= METRIC_NAMES
        assert families["repro_requests_total"]["samples"][
            "repro_requests_total"
        ] == 1.0
        assert families["repro_request_latency_ms"]["type"] == "histogram"
        # Cumulative buckets: non-decreasing, +Inf equals _count.
        buckets = [
            (sample, value)
            for sample, value in families["repro_request_latency_ms"][
                "samples"
            ].items()
            if "_bucket" in sample
        ]
        values = [value for _, value in buckets]
        assert values == sorted(values)
        inf = families["repro_request_latency_ms"]["samples"][
            'repro_request_latency_ms_bucket{le="+Inf"}'
        ]
        count = families["repro_request_latency_ms"]["samples"][
            "repro_request_latency_ms_count"
        ]
        assert inf == count == 1.0

    def test_registry_types_are_valid(self):
        assert METRIC_NAMES == set(METRICS)
        for name, (kind, help_text) in METRICS.items():
            assert kind in ("counter", "gauge", "histogram"), name
            assert help_text


# --------------------------------------------------------------------------- #
# metrics block wiring
# --------------------------------------------------------------------------- #
class TestMetricsDocument:
    def test_latency_block_is_histogram_backed(self):
        service = SchedulerService(workers=2)
        try:
            metrics = service.metrics()
        finally:
            service.close()
        latency = metrics["latency"]
        assert {"count", "p50_ms", "p99_ms", "mean_ms", "histogram"} <= set(
            latency
        )
        assert json.dumps(latency)  # JSON-serialisable end to end
