"""Order statistics and span arithmetic used by every workload.

The percentile rule follows the benchmark's reporting contract: a
percentile is reported only when at least ten samples lie beyond it, so a
p99 needs 1000 samples and a p90 needs 100.  ``percentile`` refuses a
sample that is too small instead of quietly extrapolating from its top
few values.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


def min_samples(p: float) -> int:
    """Smallest sample size whose ``p``-th percentile has ten samples beyond."""
    if not 0.0 <= p < 100.0:
        raise ValueError(f"percentile must lie in [0, 100), got {p}")
    if p == 0.0:
        return MIN_TAIL_SAMPLES
    # n * (100 - p) / 100 >= 10; rounding first keeps float residue such as
    # 100 - 99.9 = 0.0999... from pushing the count one sample higher.
    return math.ceil(round(MIN_TAIL_SAMPLES * 100 / (100 - p), 6))


def _interpolated(ordered: Sequence[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile; raises ``ValueError`` when the sample is too small.

    The median is exempt from the tail rule beyond needing one sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if p != 50.0 and len(ordered) < min_samples(p):
        raise ValueError(
            f"p{p:g} needs at least {min_samples(p)} samples "
            f"(ten beyond it); got {len(ordered)}"
        )
    return _interpolated(ordered, p)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Iterable[float]) -> float:
    items = list(values)
    if not items:
        raise ValueError("mean of an empty sample")
    return sum(items) / len(items)


def cycle_means(values: Sequence[float], cycle: int) -> list[float]:
    """Means of consecutive, whole groups of ``cycle`` values.

    A workload whose inputs repeat a fixed mix of kinds every ``cycle``
    requests is one population at this grain, so a percentile of these
    means never falls on the boundary between two kinds of request.
    """
    whole = len(values) - len(values) % cycle
    return [sum(values[i:i + cycle]) / cycle for i in range(0, whole, cycle)]


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other and may stick out of the parent (clock
    skew between threads); only the overlap with ``[start, end]`` counts,
    and overlapping children are counted once.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - covered_length(clipped)
