"""Timed calls into ``repro.core``: the names ``repro.core.mrt`` looks up.

:class:`CoreProbe` swaps each function or method the MRT scheduler calls
for a wrapper that records a span in a :class:`~pbench.spans.SpanLog`, and
puts the originals back on exit.  It runs only in the benchmark's own
process, only in a traced run, and never changes a result: the wrapped
calls return exactly what the originals return, which the correctness
checks confirm against the server's answers.
"""

from __future__ import annotations

import functools

import repro.core.malleable_list as malleable_list
import repro.core.mrt as mrt
import repro.core.two_shelves as two_shelves

from .spans import SpanLog
from .stats import covered_length

#: The two-shelf chain of ``MRTDual._run_branch`` (Section 4 of the paper).
TWO_SHELF_CHAIN = (
    "build_partition",
    "find_trivial_solution",
    "build_trivial_schedule",
    "select_shelf2_subset",
    "build_lambda_schedule",
)
KNAPSACKS = ("knapsack_max_profit", "knapsack_min_weight", "knapsack_fptas")
LOWER_BOUNDS = ("trivial_lower_bound", "canonical_area_lower_bound")
#: Every value ``MRTScheduler.last_result.branch`` takes.
BRANCHES = (
    "malleable-list",
    "canonical-list",
    "two-shelves-trivial",
    "two-shelves",
    "malleable-list-fallback",
)


class CoreProbe:
    """Context manager recording one span per core call into ``log``.

    Each ``MRTScheduler.schedule`` call is a root span and starts a new
    request id, so per-request figures group by ``Span.request``.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        #: ``last_result.branch`` of every ``MRTScheduler.schedule`` call.
        self.branches: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, *, root: bool = False) -> None:
        original = getattr(owner, attr)
        log = self.log
        branches = self.branches

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if root:
                log.request += 1
            index = log.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                log.close(index)
                if root:
                    branches.append(args[0].last_result.branch)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, timed)

    def __enter__(self) -> "CoreProbe":
        self._wrap(mrt.MRTScheduler, "schedule", "core.schedule", root=True)
        self._wrap(mrt.MRTDual, "run", "core.guess")
        self._wrap(mrt, "canonical_list_schedule", "core.canonical_list")
        for attr in TWO_SHELF_CHAIN:
            self._wrap(mrt, attr, f"core.two_shelves.{attr}")
        for attr in KNAPSACKS:
            self._wrap(two_shelves, attr, "core.knapsack")
        for attr in LOWER_BOUNDS:
            self._wrap(mrt, attr, "core.lower_bound")
        # The dual's malleable-list branch and the unconditional fallback
        # both run MalleableListDual.run; the parent span tells them apart.
        self._wrap(malleable_list.MalleableListDual, "run", "core.malleable_list")
        self._wrap(malleable_list.MalleableListScheduler, "schedule", "core.fallback")
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def core_metrics(log: SpanLog, branches: list[str]) -> dict[str, float]:
    """Per-call figures over every ``core.schedule`` span in ``log``.

    ``*_ms`` figures are mean milliseconds per scheduler call (a branch that
    did not run contributes 0); ``*_calls`` and ``guesses_per_req`` are mean
    counts per call; ``guess_ms`` is the mean time of one dual guess.
    ``branches`` holds ``last_result.branch`` of each call, in order.
    """
    calls = log.named("core.schedule")
    n = len(calls)
    if n == 0:
        return {}
    spans = log.spans
    guesses = log.named("core.guess")

    def total_ms(predicate) -> float:
        return sum(span.ms for span in spans if predicate(span))

    chain = [span for span in spans if span.name.startswith("core.two_shelves.")]
    chain_ms = 0.0
    for request in {span.request for span in chain}:
        # The chain's calls run one after another; their union is the
        # time spent in the two-shelf branch.
        chain_ms += 1e3 * covered_length(
            (span.start, span.end) for span in chain if span.request == request
        )
    out = {
        "core.schedule_ms": sum(span.ms for span in calls) / n,
        "core.guesses_per_req": len(guesses) / n,
        "core.guess_ms": (sum(span.ms for span in guesses) / len(guesses)) if guesses else 0.0,
        "core.canonical_list_ms": total_ms(lambda s: s.name == "core.canonical_list") / n,
        "core.canonical_list_calls": len(log.named("core.canonical_list")) / n,
        "core.two_shelves_ms": chain_ms / n,
        "core.two_shelves_calls": len(log.named("core.two_shelves.build_partition")) / n,
        "core.knapsack_ms": total_ms(lambda s: s.name == "core.knapsack") / n,
        "core.malleable_list_ms": total_ms(
            lambda s: s.name == "core.malleable_list"
            and s.parent >= 0
            and spans[s.parent].name == "core.guess"
        )
        / n,
        "core.fallback_ms": total_ms(lambda s: s.name == "core.fallback") / n,
        "core.lower_bound_ms": total_ms(lambda s: s.name == "core.lower_bound") / n,
    }
    for branch in BRANCHES:
        out[f"core.branch.{branch}"] = float(branches.count(branch))
    return out
