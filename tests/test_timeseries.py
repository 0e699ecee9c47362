"""Time-series ring, SLO burn-rate engine and health state machine.

Unit coverage for :mod:`repro.obs.timeseries` / :mod:`repro.obs.slo` /
:mod:`repro.obs.health`, the injectable-clock tracing regression, a
Hypothesis property tying windowed percentiles to the full-history
histogram, and a 2-shard overload → degraded → recovery integration test
against the real router HTTP surface — all on fake clocks, no real
sleeps.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    SLO,
    LatencyHistogram,
    MetricRing,
    Tracer,
    WindowDelta,
    evaluate_health,
    evaluate_slo,
    state_value,
    window_status,
)
from repro.obs.health import (
    HEALTH_STATES,
    QUEUE_GROWTH_MIN_DEPTH,
    REASON_FAST_BURN_AVAILABILITY,
    REASON_FAST_BURN_P99,
    REASON_FLEET_DOWN,
    REASON_QUEUE_GROWTH,
    REASON_SHARDS_DEAD,
    REASON_SUSTAINED_HEADROOM,
    STATE_DEGRADED,
    STATE_FAILING,
    STATE_OK,
)
from repro.obs.histogram import BOUNDS_MS
from repro.obs.names import SPAN_PARSE
from repro.obs.slo import P99_BUDGET
from repro.obs.timeseries import gauge_stats, histogram_delta
from repro.service.cluster.router import RouterApp
from repro.service.cluster.supervisor import ClusterSupervisor
from repro.service.cluster.worker import ShardSpec
from repro.service.client import ServiceClient
from repro.service.core import SchedulerService
from repro.service.http import ThreadedTransport


class FakeClock:
    """Deterministic monotonic clock for rings, tracers and services."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def hist_of(values) -> LatencyHistogram:
    out = LatencyHistogram()
    for value in values:
        out.observe(value)
    return out


# ---------------------------------------------------------------------- #
# histogram_delta / fraction_over
# ---------------------------------------------------------------------- #
class TestHistogramDelta:
    def test_delta_is_exact_bucket_subtraction(self):
        first = [10.0, 20.0, 30.0]
        second = [900.0, 1000.0, 40.0, 0.5]
        start = hist_of(first)
        end = hist_of(first + second)
        delta = histogram_delta(start.as_dict(), end.as_dict())
        assert delta.counts == hist_of(second).counts
        assert delta.count == len(second)
        assert delta.sum_ms == pytest.approx(sum(second))

    def test_missing_endpoints(self):
        snapshot = hist_of([5.0]).as_dict()
        assert histogram_delta(None, None).count == 0
        assert histogram_delta(snapshot, None).count == 0
        assert histogram_delta(None, snapshot).count == 1

    def test_counter_reset_uses_end_snapshot(self):
        # A shard restart zeroes its cumulative histogram: the old baseline
        # predates the restart, so the end snapshot is the window content.
        start = hist_of([1.0] * 100)
        end = hist_of([50.0, 60.0])
        delta = histogram_delta(start.as_dict(), end.as_dict())
        assert delta.counts == end.counts
        assert delta.count == 2

    def test_window_min_max_bracket_the_true_extremes(self):
        start = hist_of([10.0])
        window = [3.0, 700.0]
        end = hist_of([10.0] + window)
        delta = histogram_delta(start.as_dict(), end.as_dict())
        assert delta.min_ms <= min(window)
        assert delta.max_ms >= max(window)


class TestFractionOver:
    def test_empty_is_zero(self):
        assert LatencyHistogram().fraction_over(100.0) == 0.0

    def test_extremes(self):
        hist = hist_of([1.0] * 10)
        assert hist.fraction_over(10_000.0) == 0.0
        assert hist.fraction_over(0.0) == pytest.approx(1.0, abs=0.05)

    def test_whole_buckets_above_are_counted_exactly(self):
        hist = hist_of([1.0] * 90 + [900.0] * 10)
        # 100ms separates the two populations by many buckets, so the
        # linear split of the covering bucket cannot blur the answer.
        assert hist.fraction_over(100.0) == pytest.approx(0.10)

    def test_monotone_in_threshold(self):
        hist = hist_of([1.0, 5.0, 25.0, 125.0, 625.0])
        fractions = [hist.fraction_over(t) for t in (0.5, 3.0, 20.0, 500.0)]
        assert fractions == sorted(fractions, reverse=True)


# ---------------------------------------------------------------------- #
# MetricRing windows
# ---------------------------------------------------------------------- #
class TestGaugeStats:
    def test_trend_summary(self):
        stats = gauge_stats([3.0, 9.0, 6.0])
        assert stats == {"first": 3.0, "last": 6.0, "max": 9.0, "mean": 6.0}

    def test_empty_series_is_all_zero(self):
        assert gauge_stats([]) == {
            "first": 0.0, "last": 0.0, "max": 0.0, "mean": 0.0,
        }


class TestMetricRing:
    def test_rejects_degenerate_configuration(self):
        with pytest.raises(ValueError):
            MetricRing(1)
        with pytest.raises(ValueError):
            MetricRing(8, interval=0.0)

    def test_young_process_uses_zero_baseline(self):
        clock = FakeClock()
        ring = MetricRing(16, interval=None, clock=clock)
        ring.record({}, {"requests_total": 7}, hist_of([10.0] * 7).as_dict(), t=5.0)
        delta = ring.window(60.0, now=10.0)
        # Nothing was ever evicted: the cumulative totals genuinely all
        # happened inside the window.
        assert delta.counter("requests_total") == 7
        assert delta.latency.count == 7

    def test_baseline_is_newest_sample_at_or_before_cutoff(self):
        clock = FakeClock()
        ring = MetricRing(16, interval=None, clock=clock)
        ring.record({}, {"requests_total": 10}, hist_of([1.0] * 10).as_dict(), t=10.0)
        ring.record({}, {"requests_total": 25}, hist_of([1.0] * 25).as_dict(), t=40.0)
        ring.record({}, {"requests_total": 31}, hist_of([1.0] * 31).as_dict(), t=70.0)
        delta = ring.window(45.0, now=80.0)  # cutoff 35: baseline t=10
        assert delta.counter("requests_total") == 21
        assert delta.samples == 2
        assert delta.duration_s == pytest.approx(60.0)

    def test_counter_reset_falls_back_to_end_value(self):
        clock = FakeClock()
        ring = MetricRing(16, interval=None, clock=clock)
        ring.record({}, {"requests_total": 100}, None, t=10.0)
        ring.record({}, {"requests_total": 4}, None, t=40.0)  # restarted
        assert ring.window(60.0, now=50.0).counter("requests_total") == 4

    def test_wraparound_does_not_bill_evicted_history(self):
        clock = FakeClock()
        ring = MetricRing(4, interval=None, clock=clock)
        for i in range(10):  # cumulative counter 0,10,...,90
            ring.record({}, {"requests_total": 10 * i}, None, t=float(i))
        delta = ring.window(1000.0, now=9.0)
        # Retained samples are t=6..9; the oldest retained (t=6, value 60)
        # is the baseline, so the window truncates to the ring's span
        # instead of attributing the evicted 60 requests to it.
        assert delta.counter("requests_total") == 30
        assert delta.duration_s == pytest.approx(3.0)
        assert delta.samples == 3

    def test_wrapped_ring_consumes_oldest_retained_as_baseline(self):
        clock = FakeClock()
        ring = MetricRing(2, interval=None, clock=clock)
        for i in range(5):
            ring.record({}, {"requests_total": i}, None, t=float(i))
        # Retained: t=3 (value 3) and t=4 (value 4).  The window covers
        # both, so the oldest retained becomes the baseline, not a point.
        delta = ring.window(100.0, now=4.0)
        assert delta.counter("requests_total") == 1
        assert delta.samples == 1
        assert delta.duration_s == pytest.approx(1.0)

    def test_stale_ring_yields_empty_window(self):
        clock = FakeClock()
        ring = MetricRing(8, interval=None, clock=clock)
        ring.record({}, {"requests_total": 5}, None, t=1.0)
        delta = ring.window(10.0, now=1000.0)  # sampling stopped long ago
        assert delta.samples == 0
        assert delta.counter("requests_total") == 0

    def test_maybe_sample_gates_on_the_interval(self):
        clock = FakeClock()
        ring = MetricRing(8, interval=5.0, clock=clock)
        collect = lambda: ({}, {"requests_total": 1}, None)  # noqa: E731
        assert ring.maybe_sample(collect) is False  # not due yet
        clock.advance(5.0)
        assert ring.maybe_sample(collect) is True
        assert ring.maybe_sample(collect) is False
        assert len(ring) == 1

    def test_idle_gap_takes_one_catchup_sample_not_a_burst(self):
        # Clock skew / long idle: rescheduling relative to *now* means a
        # 10-interval gap yields one sample, not ten back-to-back.
        clock = FakeClock()
        ring = MetricRing(8, interval=1.0, clock=clock)
        collect = lambda: ({}, {}, None)  # noqa: E731
        clock.advance(10.0)
        assert ring.maybe_sample(collect) is True
        assert ring.maybe_sample(collect) is False
        clock.advance(0.5)
        assert ring.maybe_sample(collect) is False
        clock.advance(0.5)
        assert ring.maybe_sample(collect) is True
        assert len(ring) == 2

    def test_interval_none_disables_interval_sampling(self):
        ring = MetricRing(8, interval=None, clock=FakeClock())
        assert ring.maybe_sample(lambda: ({}, {}, None)) is False
        assert len(ring) == 0

    def test_history_downsamples_to_one_point_per_step(self):
        clock = FakeClock()
        ring = MetricRing(64, interval=None, clock=clock)
        for i in range(1, 13):
            ring.record(
                {"queue_depth": float(i)},
                {"requests_total": 10 * i},
                hist_of([5.0] * (10 * i)).as_dict(),
                t=float(i),
            )
        doc = ring.history(12.0, 4.0, now=12.0)
        # One point per step bucket (its newest sample), young process =
        # zero baseline for the first point.
        assert [p["t"] for p in doc["points"]] == [3.0, 7.0, 11.0, 12.0]
        # Counter deltas between consecutive points partition the total.
        deltas = [p["deltas"]["requests_total"] for p in doc["points"]]
        assert deltas == [30, 40, 40, 10]
        assert sum(deltas) == 120
        assert [p["latency"]["count"] for p in doc["points"]] == deltas
        assert doc["samples"] == 12 and doc["capacity"] == 64

    def test_history_wrapped_prev_rule_matches_window(self):
        clock = FakeClock()
        ring = MetricRing(4, interval=None, clock=clock)
        for i in range(10):
            ring.record({}, {"requests_total": 10 * i}, None, t=float(i))
        doc = ring.history(1000.0, 1.0, now=9.0)
        total = sum(p["deltas"]["requests_total"] for p in doc["points"])
        assert total == ring.window(1000.0, now=9.0).counter("requests_total")


class TestWindowDelta:
    def make(self, n: int) -> WindowDelta:
        return WindowDelta(
            duration_s=60.0,
            samples=2,
            counters={"requests_total": n, "rejections": 1},
            gauges={"queue_depth": {"first": 1.0, "last": 2.0, "max": 3.0, "mean": 1.5}},
            latency=hist_of([10.0] * n),
        )

    def test_dict_roundtrip(self):
        delta = self.make(5)
        clone = WindowDelta.from_dict(json.loads(json.dumps(delta.as_dict())))
        assert clone.as_dict() == delta.as_dict()

    def test_merge_sums_counters_gauges_and_buckets(self):
        merged = WindowDelta.merged([self.make(5), self.make(7).as_dict()])
        assert merged.counter("requests_total") == 12
        assert merged.counter("rejections") == 2
        assert merged.latency.count == 12
        # A fleet's queue depth is the sum of its shards' queue depths.
        assert merged.gauges["queue_depth"]["last"] == pytest.approx(4.0)
        assert merged.duration_s == pytest.approx(60.0)


# ---------------------------------------------------------------------- #
# SLO burn rates
# ---------------------------------------------------------------------- #
def slo_status_for(
    fast: WindowDelta, slow: WindowDelta, slo: SLO | None = None
) -> dict:
    return evaluate_slo(slo or SLO(p99_ms=100.0), fast, slow)


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(p99_ms=0.0)
        with pytest.raises(ValueError):
            SLO(availability=1.0)
        with pytest.raises(ValueError):
            SLO(fast_window_s=600.0, slow_window_s=60.0)
        with pytest.raises(ValueError):
            SLO(fast_burn_threshold=0.0)

    def test_idle_window_burns_nothing(self):
        status = window_status(SLO(), WindowDelta())
        assert status["burn"] == 0.0
        assert status["availability"] == 1.0

    def test_latency_burn_is_fraction_over_divided_by_budget(self):
        delta = WindowDelta(
            duration_s=60.0,
            counters={"requests_total": 100},
            latency=hist_of([10.0] * 90 + [900.0] * 10),
        )
        status = window_status(SLO(p99_ms=100.0), delta)
        assert status["fraction_over_target"] == pytest.approx(0.10)
        assert status["latency_burn"] == pytest.approx(0.10 / P99_BUDGET)

    def test_availability_burn(self):
        delta = WindowDelta(
            duration_s=60.0,
            counters={"requests_total": 990, "rejections": 10},
        )
        status = window_status(SLO(availability=0.999), delta)
        assert status["availability"] == pytest.approx(0.99)
        assert status["availability_burn"] == pytest.approx(10.0)

    def test_breach_flags_compare_burn_to_window_thresholds(self):
        hot = WindowDelta(
            duration_s=60.0,
            counters={"requests_total": 100},
            latency=hist_of([900.0] * 20 + [10.0] * 80),
        )
        cold = WindowDelta(
            duration_s=600.0,
            counters={"requests_total": 1000},
            latency=hist_of([10.0] * 1000),
        )
        status = slo_status_for(hot, cold)
        assert status["fast_breach"] is True
        assert status["slow_breach"] is False
        assert status["compliant"] is False
        assert slo_status_for(cold, cold)["compliant"] is True


# ---------------------------------------------------------------------- #
# health state machine
# ---------------------------------------------------------------------- #
class TestHealth:
    def good(self, n: int = 1000) -> WindowDelta:
        return WindowDelta(
            duration_s=60.0,
            counters={"requests_total": n},
            latency=hist_of([10.0] * n),
        )

    def bad(self, n: int = 100) -> WindowDelta:
        return WindowDelta(
            duration_s=60.0,
            counters={"requests_total": n, "rejections": n // 2},
            latency=hist_of([900.0] * n),
        )

    def test_state_values_index_the_severity_order(self):
        assert HEALTH_STATES == (STATE_OK, STATE_DEGRADED, STATE_FAILING)
        assert [state_value(s) for s in HEALTH_STATES] == [0, 1, 2]

    def test_clean_windows_are_ok(self):
        health = evaluate_health(slo_status_for(self.good(), self.good()))
        assert health["state"] == STATE_OK
        assert health["reasons"] == []

    def test_fast_only_breach_is_degraded_with_grow_hint(self):
        health = evaluate_health(slo_status_for(self.bad(), self.good()))
        assert health["state"] == STATE_DEGRADED
        codes = {r["code"] for r in health["reasons"]}
        assert REASON_FAST_BURN_P99 in codes
        assert REASON_FAST_BURN_AVAILABILITY in codes
        assert health["scale_hint"]["direction"] == "grow"

    def test_both_windows_breached_is_failing(self):
        health = evaluate_health(slo_status_for(self.bad(), self.bad(1000)))
        assert health["state"] == STATE_FAILING

    def test_fleet_down_is_failing_even_with_clean_windows(self):
        health = evaluate_health(
            slo_status_for(WindowDelta(), WindowDelta()), alive=0, shards=2
        )
        assert health["state"] == STATE_FAILING
        assert health["reasons"][0]["code"] == REASON_FLEET_DOWN

    def test_dead_shard_is_degraded(self):
        health = evaluate_health(
            slo_status_for(self.good(), self.good()), alive=1, shards=2
        )
        assert health["state"] == STATE_DEGRADED
        assert health["reasons"][0]["code"] == REASON_SHARDS_DEAD
        assert "1 of 2" in health["reasons"][0]["detail"]

    def test_queue_growth_flags_and_requests_growth(self):
        fast = self.good()
        fast.gauges["queue_depth"] = {
            "first": 2.0,
            "last": 4.0 * QUEUE_GROWTH_MIN_DEPTH,
            "max": 4.0 * QUEUE_GROWTH_MIN_DEPTH,
            "mean": 12.0,
        }
        health = evaluate_health(slo_status_for(fast, self.good()))
        assert health["state"] == STATE_DEGRADED
        assert health["reasons"][0]["code"] == REASON_QUEUE_GROWTH
        assert health["scale_hint"] == {
            "direction": "grow",
            "reasons": [REASON_QUEUE_GROWTH],
        }

    def test_tiny_queues_are_not_growth(self):
        fast = self.good()
        fast.gauges["queue_depth"] = {
            "first": 1.0, "last": 4.0, "max": 4.0, "mean": 2.0,
        }
        assert evaluate_health(slo_status_for(fast, self.good()))["state"] == STATE_OK

    def test_sustained_headroom_hints_shrink(self):
        health = evaluate_health(slo_status_for(self.good(), self.good()))
        assert health["scale_hint"] == {
            "direction": "shrink",
            "reasons": [REASON_SUSTAINED_HEADROOM],
        }

    def test_barely_under_target_holds(self):
        # p99 just under target is not headroom: shrink needs the slow
        # window comfortably (4x) under the objective.
        near = WindowDelta(
            duration_s=600.0,
            counters={"requests_total": 100},
            latency=hist_of([80.0] * 100),
        )
        health = evaluate_health(slo_status_for(self.good(n=100), near))
        assert health["scale_hint"]["direction"] == "hold"

    def test_recovery_is_implicit_in_the_window_algebra(self):
        overloaded = evaluate_health(slo_status_for(self.bad(), self.bad(1000)))
        cleared_fast = evaluate_health(slo_status_for(self.good(), self.bad(1000)))
        cleared_both = evaluate_health(slo_status_for(self.good(), self.good()))
        assert overloaded["state"] == STATE_FAILING
        assert cleared_fast["state"] == STATE_DEGRADED
        assert cleared_both["state"] == STATE_OK


# ---------------------------------------------------------------------- #
# tracing clock regression (durations are monotonic-clock deltas)
# ---------------------------------------------------------------------- #
class TestTracingClock:
    def test_durations_come_from_the_injected_clock(self, monkeypatch):
        import repro.obs.tracing as tracing

        clock = FakeClock(100.0)
        tracer = Tracer("test", clock=clock)
        # Hostile wall clock: steps backwards mid-request (NTP, DST).  The
        # epoch stamp may say anything; durations must not.
        monkeypatch.setattr(tracing.time, "time", lambda: 5_000_000.0)
        trace = tracer.start()
        assert trace.started_at == 5_000_000.0
        monkeypatch.setattr(tracing.time, "time", lambda: 4_000_000.0)
        with trace.span(SPAN_PARSE):
            clock.advance(0.25)
        clock.advance(0.75)
        trace.finish()
        assert trace.duration_ms == pytest.approx(1000.0)
        (span,) = trace.spans
        assert span.start_ms == pytest.approx(0.0)
        assert span.duration_ms == pytest.approx(250.0)

    def test_record_span_offsets_are_relative_to_trace_start(self):
        clock = FakeClock(50.0)
        trace = Tracer("test", clock=clock).start()
        trace.record_span(SPAN_PARSE, 50.5, 51.0)
        (span,) = trace.spans
        assert span.start_ms == pytest.approx(500.0)
        assert span.duration_ms == pytest.approx(500.0)


# ---------------------------------------------------------------------- #
# property: ring windows vs. full-history ground truth
# ---------------------------------------------------------------------- #
LATENCIES = st.lists(
    st.floats(min_value=0.05, max_value=30_000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=100,
)


class TestWindowPercentileProperty:
    @given(prefix=LATENCIES, recent=LATENCIES)
    @settings(max_examples=60, deadline=None)
    def test_windowed_p99_within_one_bucket_of_ground_truth(
        self, prefix, recent
    ):
        ring = MetricRing(8, interval=None, clock=FakeClock())
        cumulative = hist_of(prefix)
        ring.record({}, {"requests_total": len(prefix)},
                    cumulative.as_dict(), t=10.0)
        for value in recent:
            cumulative.observe(value)
        ring.record({}, {"requests_total": len(prefix) + len(recent)},
                    cumulative.as_dict(), t=50.0)
        delta = ring.window(45.0, now=60.0)  # covers only the second sample
        truth = hist_of(recent)
        # The delta reconstructs the window's distribution bucket-exactly...
        assert delta.latency.counts == truth.counts
        assert delta.counter("requests_total") == len(recent)
        # ...so its percentiles can drift from the ground truth only by
        # min/max clamping inside one log-sqrt2 bucket.
        for q in (50.0, 99.0):
            windowed = delta.latency.percentile(q)
            exact = truth.percentile(q)
            assert abs(
                LatencyHistogram._bucket_index(windowed)
                - LatencyHistogram._bucket_index(exact)
            ) <= 1

    @given(
        increments=st.lists(st.integers(0, 50), min_size=6, max_size=40),
        capacity=st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_wraparound_window_never_exceeds_retained_increments(
        self, increments, capacity
    ):
        ring = MetricRing(capacity, interval=None, clock=FakeClock())
        total = 0
        cumulative = []
        for i, inc in enumerate(increments):
            total += inc
            cumulative.append(total)
            ring.record({}, {"requests_total": total}, None, t=float(i))
        now = float(len(increments) - 1)
        delta = ring.window(10 * len(increments), now=now)
        if len(increments) > capacity:  # wrapped: oldest retained = baseline
            expected = cumulative[-1] - cumulative[-capacity]
        else:  # young process: zero baseline, totals are genuine
            expected = cumulative[-1]
        assert delta.counter("requests_total") == expected

    @given(gap=st.floats(min_value=1.0, max_value=10_000.0))
    @settings(max_examples=30, deadline=None)
    def test_clock_gap_never_produces_a_sample_burst(self, gap):
        clock = FakeClock()
        ring = MetricRing(8, interval=1.0, clock=clock)
        clock.advance(gap)
        samples = sum(
            ring.maybe_sample(lambda: ({}, {}, None)) for _ in range(5)
        )
        assert samples == 1  # one catch-up sample, however long the gap


# ---------------------------------------------------------------------- #
# 2-shard integration: overload -> degraded -> recovery, over real HTTP
# ---------------------------------------------------------------------- #
def raw_get(url: str, path: str) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(url.replace("http://", ""), timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, json.loads(body) if body else {}
    finally:
        conn.close()


@pytest.fixture
def cluster():
    supervisor = ClusterSupervisor(
        2,
        spec=ShardSpec(workers=1, sample_interval=None, slo_p99_ms=100.0),
        backend="thread",
        respawn=False,
        # Zero cache age: /healthz re-evaluates on every probe instead of
        # serving the monitor-cached document (the monitor is off here).
        health_interval=0.0,
    ).start()
    server = ThreadedTransport(
        ("127.0.0.1", 0), RouterApp(supervisor, slo=SLO(p99_ms=100.0))
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield supervisor, server
    server.close()
    supervisor.close()


def shard_services(supervisor) -> list:
    return [
        handle._server.app.service
        for _, handle in sorted(supervisor._handles.items())
    ]


def install_overload(service, clock: FakeClock) -> None:
    """Synthetic timeline: 600s of good traffic, then a 60s overload.

    Cumulative snapshots recorded straight into the shard's ring on the
    injected clock — the slow window stays healthy (burn < 2) while the
    fast window burns two orders of magnitude too fast.
    """
    ring = service.history
    ring._clock = clock
    good = hist_of([10.0] * 2000)
    ring.record({"queue_depth": 0.0},
                {"requests_total": 0, "rejections": 0},
                LatencyHistogram().as_dict(), t=1.0)
    ring.record({"queue_depth": 1.0},
                {"requests_total": 2000, "rejections": 0},
                good.as_dict(), t=530.0)
    for _ in range(5):
        good.observe(10.0)
    ring.record({"queue_depth": 1.0},
                {"requests_total": 2005, "rejections": 0},
                good.as_dict(), t=550.0)
    for _ in range(10):
        good.observe(900.0)
    ring.record({"queue_depth": 2.0},
                {"requests_total": 2015, "rejections": 3},
                good.as_dict(), t=590.0)
    clock.t = 600.0


class TestClusterHealthIntegration:
    def test_overload_degrades_then_recovers(self, cluster):
        supervisor, server = cluster
        clocks = []
        for service in shard_services(supervisor):
            clock = FakeClock()
            install_overload(service, clock)
            clocks.append(clock)

        # Fast window burning, slow window still inside budget: /healthz
        # reports degraded (200 — the service still serves) with the
        # fast-burn reasons, and the aggregate asks for growth.
        status, body = raw_get(server.url, "/healthz")
        assert status == 200
        assert body["status"] == STATE_DEGRADED
        # Backward-compatible body: the pre-existing keys survive.
        assert {"status", "shards", "alive", "backend", "uptime_seconds",
                "reasons", "scale_hint"} <= set(body)
        assert body["shards"] == 2 and body["alive"] == 2
        codes = {r["code"] for r in body["reasons"]}
        assert REASON_FAST_BURN_P99 in codes
        assert body["scale_hint"]["direction"] == "grow"

        metrics = ServiceClient(server.url, retries=0).metrics()
        assert metrics["health"]["state"] == STATE_DEGRADED
        assert metrics["scale_hint"]["direction"] == "grow"
        assert metrics["slo"]["fast_breach"] is True
        assert metrics["slo"]["slow_breach"] is False
        # Cluster burn is evaluated on the *merged* deltas: both shards'
        # fast windows contribute, doubling counts but not the fractions.
        fast = metrics["slo"]["windows"]["fast"]
        assert fast["requests"] == 30 and fast["rejections"] == 6

        # The history endpoint serves per-shard time series plus the same
        # merged evaluation, in one fan-out.
        history = ServiceClient(server.url, retries=0).metrics_history(
            window=600.0, step=60.0
        )
        assert set(history["shards"]) == {"0", "1"}
        for doc in history["shards"].values():
            assert doc["points"], "each shard serves downsampled points"
            assert doc["window_s"] == 600.0
        assert history["slo"]["fast_breach"] is True
        assert history["health"]["state"] == STATE_DEGRADED

        # Load stops; ~700s later (just over one slow window) both windows
        # have rotated past the incident and the fleet is ok again — no
        # reset hook, purely the window algebra.
        for service, clock in zip(shard_services(supervisor), clocks):
            ring = service.history
            last = ring.samples()[-1]
            ring.record(last.gauges, last.counters, last.latency, t=1250.0)
            ring.record({"queue_depth": 0.0}, last.counters, last.latency,
                        t=1290.0)
            clock.t = 1300.0
        status, body = raw_get(server.url, "/healthz")
        assert status == 200
        assert body["status"] == STATE_OK
        assert body["reasons"] == []
        assert body["scale_hint"]["direction"] == "hold"

    def test_both_windows_burning_is_failing_503(self, cluster):
        supervisor, server = cluster
        for service in shard_services(supervisor):
            clock = FakeClock()
            ring = service.history
            ring._clock = clock
            ring.record({}, {"requests_total": 0, "rejections": 0},
                        LatencyHistogram().as_dict(), t=1.0)
            hot = hist_of([900.0] * 100 + [10.0] * 50)
            ring.record({}, {"requests_total": 150, "rejections": 150},
                        hot.as_dict(), t=590.0)
            clock.t = 600.0
        status, body = raw_get(server.url, "/healthz")
        assert status == 503
        assert body["status"] == STATE_FAILING
        assert body["alive"] == 2  # failing on burn, not liveness

    def test_one_dead_shard_is_degraded_200(self, cluster):
        supervisor, server = cluster
        dead = supervisor._handles[0]
        dead.stop()
        status, body = raw_get(server.url, "/healthz")
        assert status == 200
        assert body["status"] == STATE_DEGRADED
        assert body["alive"] == 1
        assert REASON_SHARDS_DEAD in {r["code"] for r in body["reasons"]}

    def test_dead_fleet_is_503(self, cluster):
        supervisor, server = cluster
        for handle in supervisor._handles.values():
            handle.stop()
        status, body = raw_get(server.url, "/healthz")
        assert status == 503
        assert body["status"] == STATE_FAILING
        assert body["alive"] == 0
        assert body["reasons"][0]["code"] == REASON_FLEET_DOWN

    def test_history_bad_query_is_400(self, cluster):
        _, server = cluster
        status, body = raw_get(server.url, "/metrics/history?window=-5")
        assert status == 400
        assert "window" in body["error"]


# ---------------------------------------------------------------------- #
# standalone daemon: the service-level blocks (no HTTP, fake clock)
# ---------------------------------------------------------------------- #
class TestServiceSampling:
    def test_metrics_and_history_blocks(self):
        clock = FakeClock()
        service = SchedulerService(
            workers=1,
            sample_interval=None,
            slo=SLO(p99_ms=100.0),
            clock=clock,
        )
        try:
            service.sample_now()
            metrics = service.metrics()
            assert metrics["health"]["state"] == STATE_OK
            assert metrics["slo"]["compliant"] is True
            assert metrics["history"]["samples"] == 1
            document = service.history_document()
            assert document["component"] == "service"
            assert document["window_s"] == service.slo.slow_window_s
            assert document["slo"]["objective"]["p99_ms"] == 100.0
        finally:
            service.close()

    def test_sampling_rides_the_dispatcher_idle_tick(self):
        # With a real (default) clock and a tiny interval the dispatch
        # loop itself must take samples — no extra thread exists to.
        from repro.service.core import ScheduleRequest
        from repro.workloads import uniform_instance

        service = SchedulerService(workers=1, sample_interval=0.01)
        try:
            inst = uniform_instance(num_tasks=4, num_procs=2, seed=7)
            service.schedule(ScheduleRequest(instance=inst))
            deadline = time.monotonic() + 10.0
            while len(service.history) == 0:
                assert time.monotonic() < deadline, (
                    "dispatcher never sampled the metric ring"
                )
                time.sleep(0.01)
            sample = service.history.samples()[-1]
            assert sample.counters["requests_total"] >= 1
        finally:
            service.close()
