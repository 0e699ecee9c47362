"""One-dimensional bin packing under a deadline.

The paper packs the "small" sequential tasks (canonical execution time at
most d/2) onto processors with the *First Fit* algorithm of Johnson et al.
[11]: processors are bins of capacity equal to the shelf deadline and task
durations are item sizes.  The only property the analysis of Section 4.1
needs is the classical First Fit guarantee: at most one bin ends up at most
half full, hence ``Σ sizes > (num_bins - 1) * capacity/2`` whenever more
than one bin is opened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..exceptions import InfeasibleError
from ..model.task import EPS

__all__ = ["BinPackingResult", "first_fit"]


@dataclass
class BinPackingResult:
    """Outcome of a 1-D packing.

    Attributes
    ----------
    capacity:
        Bin capacity (the shelf deadline).
    bins:
        ``bins[b]`` is the list of item indices assigned to bin ``b``.
    loads:
        ``loads[b]`` is the total size packed into bin ``b``.
    assignment:
        ``assignment[i]`` is the bin of item ``i``.
    """

    capacity: float
    bins: list[list[int]] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    assignment: dict[int, int] = field(default_factory=dict)

    @property
    def num_bins(self) -> int:
        """Number of bins opened."""
        return len(self.bins)

    def validate(self, sizes: Sequence[float], tol: float = 1e-9) -> None:
        """Check loads and capacity; raise :class:`InfeasibleError` on violation."""
        for b, items in enumerate(self.bins):
            load = sum(sizes[i] for i in items)
            if abs(load - self.loads[b]) > tol * max(1.0, load):
                raise InfeasibleError(f"bin {b}: recorded load differs from items")
            if load > self.capacity + tol:
                raise InfeasibleError(
                    f"bin {b}: load {load} exceeds capacity {self.capacity}"
                )
        packed = sorted(i for items in self.bins for i in items)
        if packed != sorted(self.assignment):
            raise InfeasibleError("assignment and bins disagree")


def first_fit(sizes: Sequence[float], capacity: float) -> BinPackingResult:
    """First Fit in input order (the packing used by the paper, FF).

    Guarantee used in the analysis (Section 4.1): **at most one** bin has
    load at most ``capacity/2`` (two such bins would have been merged by the
    greedy rule), hence ``Σ sizes > (num_bins − 1) · capacity/2`` whenever
    ``num_bins >= 2``.

    A previous revision overstated this as ``Σ sizes > capacity/2 ·
    num_bins`` "because every bin except possibly the last is more than half
    full".  That justification is wrong on both counts: the at-most-half-full
    bin need not be the *last* one (``sizes = [0.9, 0.3, 0.8]`` at capacity 1
    packs to loads ``[0.9, 0.3, 0.8]`` — the middle bin stays light), and
    "all but one bin > capacity/2" only yields the ``(num_bins − 1)`` form
    stated above, which is exactly what the two-shelf analysis needs.  Both
    facts are pinned by property tests in ``test_bin_packing.py``.
    """
    result = BinPackingResult(capacity=float(capacity))
    for i in range(len(sizes)):
        size = float(sizes[i])
        if size > capacity + EPS:
            raise InfeasibleError(
                f"item {i} of size {size} does not fit in capacity {capacity}"
            )
        chosen = -1
        for b, load in enumerate(result.loads):
            if load + size <= capacity + EPS:
                chosen = b
                break
        if chosen < 0:
            result.bins.append([])
            result.loads.append(0.0)
            chosen = len(result.bins) - 1
        result.bins[chosen].append(i)
        result.loads[chosen] += size
        result.assignment[i] = chosen
    return result
