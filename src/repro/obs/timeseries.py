"""Fixed-memory metric time series sampled from the serving counters.

``/metrics`` is a point-in-time snapshot: it can say *what the counters
read now* but not *whether p99 is degrading* or *how fast the error
budget burns*.  This module adds the missing time axis with constant
memory:

* :class:`MetricSample` — one timestamped observation: gauge values,
  cumulative counters and a cumulative
  :class:`~repro.obs.histogram.LatencyHistogram` snapshot.
* :class:`MetricRing` — a bounded ring of samples taken at a
  configurable interval on an injectable clock (the service's 0.1 s
  tick drives it, beside the cache purge).
* :class:`WindowDelta` — the *exact* difference between two ring
  samples: because counters and histogram bucket counts are monotone,
  subtracting an old cumulative snapshot from the newest one yields
  precisely the distribution of everything observed in between
  (:func:`histogram_delta`).  Window deltas merge across shards the same
  way full histograms do — summing — so the router's fleet-wide windowed
  p99 is exact, not an approximation.

Everything here is stdlib-only and deterministic: no
wall-clock reads, no randomness — time enters only through the injected
clock, which tests replace with a counter.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable

from .histogram import BOUNDS_MS, LatencyHistogram

__all__ = [
    "MetricRing",
    "MetricSample",
    "WindowDelta",
    "gauge_stats",
    "histogram_delta",
]


def histogram_delta(
    start: dict | None, end: dict | None
) -> LatencyHistogram:
    """Exact latency distribution between two cumulative snapshots.

    Bucket counts are monotone counters, so ``end - start`` per bucket is
    precisely the histogram of the observations recorded between the two
    snapshots.  The window's true ``min_ms``/``max_ms`` are not
    recoverable from cumulative snapshots; the delta uses the bounds of
    its extreme non-empty buckets instead, which keeps percentile
    estimates within one bucket of the ground truth.

    A shard respawn resets its counters to zero; when the end snapshot's
    total count is *below* the start's, the start baseline predates the
    restart and the end snapshot itself is the honest window content.
    """
    empty = LatencyHistogram()
    if end is None:
        return empty
    end_h = LatencyHistogram.from_dict(end)
    if start is None:
        return end_h
    start_h = LatencyHistogram.from_dict(start)
    if end_h.count < start_h.count:  # counter reset (restart) between samples
        return end_h
    counts = [max(0, e - s) for s, e in zip(start_h.counts, end_h.counts)]
    total = sum(counts)
    if total == 0:
        return empty
    out = LatencyHistogram()
    out.counts = counts
    out.count = total
    out.sum_ms = max(0.0, end_h.sum_ms - start_h.sum_ms)
    lo = next(i for i, n in enumerate(counts) if n)
    hi = next(i for i in range(len(counts) - 1, -1, -1) if counts[i])
    out.min_ms = BOUNDS_MS[lo - 1] if lo > 0 else 0.0
    out.max_ms = BOUNDS_MS[hi] if hi < len(BOUNDS_MS) else max(
        end_h.max_ms, BOUNDS_MS[-1]
    )
    return out


def gauge_stats(values: Iterable[float]) -> dict:
    """First/last/max/mean trend summary of one gauge over a window."""
    series = [float(v) for v in values]
    if not series:
        return {"first": 0.0, "last": 0.0, "max": 0.0, "mean": 0.0}
    return {
        "first": series[0],
        "last": series[-1],
        "max": max(series),
        "mean": sum(series) / len(series),
    }


class MetricSample:
    """One timestamped observation of gauges + cumulative counters.

    ``t`` is on the ring's (injectable, monotonic) clock; ``latency`` is
    the cumulative :meth:`LatencyHistogram.as_dict` snapshot at sample
    time, kept as a plain dict so samples serialise straight to JSON.
    """

    __slots__ = ("t", "gauges", "counters", "latency")

    def __init__(
        self,
        t: float,
        gauges: dict[str, float],
        counters: dict[str, int],
        latency: dict | None,
    ) -> None:
        self.t = float(t)
        self.gauges = dict(gauges)
        self.counters = dict(counters)
        self.latency = latency

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "gauges": dict(self.gauges),
            "counters": dict(self.counters),
            "latency": self.latency,
        }


class WindowDelta:
    """What happened between two ring samples: counter deltas, gauge
    trends and the exact latency distribution of the interval.

    Deltas from different shards merge exactly (sum counters, sum
    histogram buckets, sum gauge trends — a fleet's queue depth is the
    sum of its shards' queue depths), which is what lets the router
    evaluate cluster-wide SLO windows without approximation.
    """

    __slots__ = ("duration_s", "samples", "counters", "gauges", "latency")

    def __init__(
        self,
        *,
        duration_s: float = 0.0,
        samples: int = 0,
        counters: dict[str, int] | None = None,
        gauges: dict[str, dict] | None = None,
        latency: LatencyHistogram | None = None,
    ) -> None:
        self.duration_s = float(duration_s)
        self.samples = int(samples)
        self.counters: dict[str, int] = dict(counters or {})
        self.gauges: dict[str, dict] = {
            k: dict(v) for k, v in (gauges or {}).items()
        }
        self.latency = latency if latency is not None else LatencyHistogram()

    def counter(self, name: str) -> int:
        return int(self.counters.get(name, 0))

    def as_dict(self) -> dict:
        """Mergeable snapshot; shape pinned by ``tests/test_contracts.py``."""
        return {
            "duration_s": self.duration_s,
            "samples": self.samples,
            "counters": dict(self.counters),
            "gauges": {k: dict(v) for k, v in self.gauges.items()},
            "latency": self.latency.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WindowDelta":
        return cls(
            duration_s=float(data.get("duration_s", 0.0)),
            samples=int(data.get("samples", 0)),
            counters={
                str(k): int(v)
                for k, v in dict(data.get("counters", {})).items()
            },
            gauges={
                str(k): dict(v)
                for k, v in dict(data.get("gauges", {})).items()
            },
            latency=LatencyHistogram.from_dict(data["latency"])
            if data.get("latency")
            else None,
        )

    def merge(self, other: "WindowDelta | dict") -> "WindowDelta":
        """Fold another shard's window into this one, exactly."""
        if isinstance(other, dict):
            other = WindowDelta.from_dict(other)
        self.duration_s = max(self.duration_s, other.duration_s)
        self.samples += other.samples
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)
        for key, stats in other.gauges.items():
            mine = self.gauges.get(key)
            if mine is None:
                self.gauges[key] = dict(stats)
            else:
                for stat in ("first", "last", "max", "mean"):
                    mine[stat] = mine.get(stat, 0.0) + float(
                        stats.get(stat, 0.0)
                    )
        self.latency.merge(other.latency)
        return self

    @classmethod
    def merged(cls, parts: Iterable["WindowDelta | dict"]) -> "WindowDelta":
        out = cls()
        for part in parts:
            out.merge(part)
        return out


class MetricRing:
    """Bounded ring of :class:`MetricSample` on an injectable clock.

    ``capacity`` bounds memory regardless of uptime (old samples fall
    off); ``interval`` gates :meth:`maybe_sample` so the service's
    tick can call it unconditionally; ``interval=None`` disables
    interval-driven sampling while leaving explicit :meth:`record`
    (and :meth:`sample_now`-style callers) functional.
    """

    def __init__(
        self,
        capacity: int = 720,
        *,
        interval: float | None = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 2:
            raise ValueError("metric ring capacity must be >= 2")
        if interval is not None and interval <= 0:
            raise ValueError("sample interval must be positive (or None)")
        self.capacity = int(capacity)
        self.interval = interval
        self._clock = clock
        self._samples: deque[MetricSample] = deque(maxlen=self.capacity)
        self._recorded = 0
        self._lock = threading.Lock()
        self._next_sample = clock() + interval if interval is not None else None

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def samples(self) -> list[MetricSample]:
        with self._lock:
            return list(self._samples)

    def _snapshot(self) -> tuple[list[MetricSample], bool]:
        """Retained samples plus whether the ring has evicted any."""
        with self._lock:
            retained = list(self._samples)
            return retained, self._recorded > len(retained)

    def record(
        self,
        gauges: dict[str, float],
        counters: dict[str, int],
        latency: dict | None,
        *,
        t: float | None = None,
    ) -> MetricSample:
        """Append one sample unconditionally (``t`` defaults to the clock)."""
        sample = MetricSample(
            self._clock() if t is None else t, gauges, counters, latency
        )
        with self._lock:
            self._samples.append(sample)
            self._recorded += 1
        return sample

    def maybe_sample(
        self, collect: Callable[[], tuple[dict, dict, dict | None]]
    ) -> bool:
        """Record a sample if the interval elapsed; ``collect`` returns
        ``(gauges, counters, latency_snapshot)`` and only runs when due."""
        if self.interval is None:
            return False
        now = self._clock()
        with self._lock:
            if now < self._next_sample:
                return False
            # Schedule relative to *now*: after an idle gap the ring takes
            # one catch-up sample instead of a burst.
            self._next_sample = now + self.interval
        gauges, counters, latency = collect()
        self.record(gauges, counters, latency, t=now)
        return True

    # ------------------------------------------------------------------ #
    def window(self, window_s: float, *, now: float | None = None) -> "WindowDelta":
        """Exact delta over the trailing ``window_s`` seconds.

        The baseline is the newest sample at or before ``now - window_s``.
        When none is old enough there are two cases: a *young* process
        (nothing ever evicted) uses a zero baseline — the cumulative
        totals genuinely all happened inside the window — while a
        *wrapped* ring uses its oldest retained sample, truncating the
        window to the ring's span rather than billing evicted history to
        it.  A ring whose newest sample predates the window (sampling
        stopped) yields an empty delta.
        """
        snap, wrapped = self._snapshot()
        if not snap:
            return WindowDelta()
        if now is None:
            now = self._clock()
        cutoff = float(now) - float(window_s)
        inside = [s for s in snap if s.t > cutoff]
        if not inside:
            return WindowDelta()
        baseline_idx = len(snap) - len(inside) - 1
        start = snap[baseline_idx] if baseline_idx >= 0 else None
        if start is None and wrapped:
            if len(inside) < 2:
                return WindowDelta()
            start, inside = inside[0], inside[1:]
        end = inside[-1]
        counters: dict[str, int] = {}
        for key, end_value in end.counters.items():
            base = int(start.counters.get(key, 0)) if start is not None else 0
            delta = int(end_value) - base
            if delta < 0:  # counter reset (restart) between the samples
                delta = int(end_value)
            counters[key] = delta
        gauge_keys = sorted({k for s in inside for k in s.gauges})
        gauges = {
            key: gauge_stats(s.gauges.get(key, 0.0) for s in inside)
            for key in gauge_keys
        }
        return WindowDelta(
            duration_s=end.t - (start.t if start is not None else inside[0].t),
            samples=len(inside),
            counters=counters,
            gauges=gauges,
            latency=histogram_delta(
                start.latency if start is not None else None, end.latency
            ),
        )

    def history(
        self,
        window_s: float,
        step_s: float,
        *,
        now: float | None = None,
    ) -> dict:
        """Downsampled view of the trailing window (``GET /metrics/history``).

        One point per ``step_s`` bucket (the bucket's newest sample);
        counters are reported as deltas between consecutive points and the
        per-point latency block is the exact inter-point histogram delta.
        """
        if now is None:
            now = self._clock()
        window_s = float(window_s)
        step_s = max(float(step_s), 1e-9)
        snap, wrapped = self._snapshot()
        cutoff = float(now) - window_s
        inside = [s for s in snap if s.t > cutoff]
        baseline_idx = len(snap) - len(inside) - 1
        prev = snap[baseline_idx] if baseline_idx >= 0 else None
        if prev is None and wrapped and inside:
            # Wrapped ring: the oldest retained sample is the baseline,
            # not a data point — same truncation rule as :meth:`window`.
            prev, inside = inside[0], inside[1:]
        selected: list[MetricSample] = []
        last_bucket = None
        for sample in inside:
            bucket = int((sample.t - cutoff) / step_s)
            if selected and bucket == last_bucket:
                selected[-1] = sample
            else:
                selected.append(sample)
            last_bucket = bucket
        points = []
        for sample in selected:
            deltas: dict[str, int] = {}
            for key, value in sample.counters.items():
                base = int(prev.counters.get(key, 0)) if prev is not None else 0
                delta = int(value) - base
                if delta < 0:
                    delta = int(value)
                deltas[key] = delta
            lat = histogram_delta(
                prev.latency if prev is not None else None, sample.latency
            )
            points.append(
                {
                    "t": sample.t,
                    "age_s": float(now) - sample.t,
                    "gauges": dict(sample.gauges),
                    "deltas": deltas,
                    "latency": {
                        "count": lat.count,
                        "p50_ms": lat.percentile(50.0),
                        "p99_ms": lat.percentile(99.0),
                    },
                }
            )
            prev = sample
        return {
            "clock": float(now),
            "interval_s": self.interval,
            "capacity": self.capacity,
            "samples": len(snap),
            "window_s": window_s,
            "step_s": step_s,
            "points": points,
        }
