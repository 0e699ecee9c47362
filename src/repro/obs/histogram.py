"""Fixed log-bucket latency histograms that merge exactly across shards.

The serving stack previously kept raw per-request latency lists — memory
grew with traffic, and fleet percentiles were aggregated wrongly (median
of per-shard p50s, ``max`` of p99s).  A histogram with *pinned* bucket
bounds fixes both at once: memory is a constant ``len(BOUNDS_MS) + 1``
counters regardless of traffic, and because every shard buckets into the
same bounds, summing the counter vectors is an *exact* merge — the
cluster-wide percentile estimate equals what a single process observing
all requests would report.

Bucket scheme (``SCHEME``): geometric bounds ``0.05ms * sqrt(2)**i``,
two buckets per octave from 50µs to ~37s, plus one overflow bucket.
Percentiles interpolate linearly inside the covering bucket and clamp to
the observed ``[min_ms, max_ms]`` range, so single-observation and
narrow-spread histograms report exact values.  Mergers refuse mixed
schemes rather than silently blending incompatible bounds.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["BOUNDS_MS", "LatencyHistogram"]

#: Pinned bucket upper bounds in milliseconds (exclusive of the overflow
#: bucket).  Changing these breaks merge compatibility across versions —
#: bump ``SCHEME`` in the same commit.
BOUNDS_MS: tuple[float, ...] = tuple(
    0.05 * (2.0 ** (i / 2.0)) for i in range(40)
)


class LatencyHistogram:
    """Constant-memory latency sketch with exact cross-shard merge."""

    SCHEME = "log-sqrt2-v1"

    __slots__ = ("counts", "count", "sum_ms", "min_ms", "max_ms")

    def __init__(self) -> None:
        self.counts: list[int] = [0] * (len(BOUNDS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    # ------------------------------------------------------------------ #
    def observe(self, value_ms: float) -> None:
        """Record one latency observation (milliseconds).

        Not synchronised: callers observing from several threads must hold
        their own lock (the service layer observes under its state lock).
        """
        value_ms = max(0.0, float(value_ms))
        self.counts[self._bucket_index(value_ms)] += 1
        self.count += 1
        self.sum_ms += value_ms
        if value_ms < self.min_ms:
            self.min_ms = value_ms
        if value_ms > self.max_ms:
            self.max_ms = value_ms

    @staticmethod
    def _bucket_index(value_ms: float) -> int:
        # Bisection over ~40 pinned bounds; bounds are sorted by
        # construction so the first bound >= value is the bucket.
        lo, hi = 0, len(BOUNDS_MS)
        while lo < hi:
            mid = (lo + hi) // 2
            if value_ms <= BOUNDS_MS[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------ #
    def merge(self, other: "LatencyHistogram | dict") -> "LatencyHistogram":
        """Fold ``other`` (histogram or its ``as_dict``) into self, exactly."""
        if isinstance(other, dict):
            other = LatencyHistogram.from_dict(other)
        if other.SCHEME != self.SCHEME:  # pragma: no cover - defensive
            raise ValueError(
                f"cannot merge histogram scheme {other.SCHEME!r} into "
                f"{self.SCHEME!r}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum_ms += other.sum_ms
        self.min_ms = min(self.min_ms, other.min_ms)
        self.max_ms = max(self.max_ms, other.max_ms)
        return self

    @classmethod
    def merged(
        cls, parts: Iterable["LatencyHistogram | dict"]
    ) -> "LatencyHistogram":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    # ------------------------------------------------------------------ #
    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100); 0.0 when empty."""
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lower = BOUNDS_MS[i - 1] if i > 0 else 0.0
                upper = BOUNDS_MS[i] if i < len(BOUNDS_MS) else self.max_ms
                fraction = (target - cumulative) / n
                value = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return float(min(max(value, self.min_ms), self.max_ms))
            cumulative += n
        return float(self.max_ms)  # pragma: no cover - defensive

    def fraction_over(self, threshold_ms: float) -> float:
        """Estimated fraction of observations above ``threshold_ms``.

        The SLO burn-rate engine's primitive: with a p99 objective the
        error budget is the fraction of requests allowed over the target,
        and this is the observed spend.  Counts whole buckets above the
        threshold exactly and splits the covering bucket linearly, so the
        estimate is within one bucket's population of the truth.
        """
        if self.count == 0:
            return 0.0
        threshold_ms = max(0.0, float(threshold_ms))
        idx = self._bucket_index(threshold_ms)
        below = sum(self.counts[:idx])
        covering = self.counts[idx]
        if covering:
            lower = BOUNDS_MS[idx - 1] if idx > 0 else 0.0
            upper = (
                BOUNDS_MS[idx]
                if idx < len(BOUNDS_MS)
                else max(self.max_ms, lower)
            )
            if upper > lower:
                fraction = (threshold_ms - lower) / (upper - lower)
                below += covering * max(0.0, min(1.0, fraction))
            else:
                below += covering
        over = self.count - below
        return float(max(0.0, min(1.0, over / self.count)))

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """Mergeable snapshot; shape pinned by ``tests/test_contracts.py``."""
        return {
            "scheme": self.SCHEME,
            "count": self.count,
            "sum_ms": self.sum_ms,
            "min_ms": self.min_ms if self.count else 0.0,
            "max_ms": self.max_ms,
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        scheme = data.get("scheme")
        if scheme != cls.SCHEME:
            raise ValueError(
                f"histogram snapshot scheme {scheme!r} does not match "
                f"{cls.SCHEME!r}"
            )
        out = cls()
        counts = list(data["counts"])
        if len(counts) != len(out.counts):
            raise ValueError("histogram snapshot has wrong bucket count")
        out.counts = [int(n) for n in counts]
        out.count = int(data["count"])
        out.sum_ms = float(data["sum_ms"])
        out.max_ms = float(data["max_ms"])
        out.min_ms = float(data["min_ms"]) if out.count else float("inf")
        return out

    def summary(self) -> dict:
        """The ``/metrics`` latency block: headline stats + merge payload."""
        return {
            "count": self.count,
            "p50_ms": self.percentile(50.0),
            "p99_ms": self.percentile(99.0),
            "mean_ms": self.mean_ms,
            "histogram": self.as_dict(),
        }
