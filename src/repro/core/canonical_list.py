"""Canonical List Algorithm (Section 3.2, Theorem 2).

Given a guess ``d`` such that a schedule of length at most ``d`` is assumed
to exist:

* **Allotment** — every task receives its *canonical* number of processors
  γ_i(d), the minimal allotment meeting the deadline ``d``.  In any optimal
  schedule of length ≤ d each task uses at least γ_i(d) processors, so
  Property 2 bounds the canonical work by ``m·d``.
* **Scheduling** — the rigid tasks are list-scheduled in order of
  non-increasing canonical execution time, each on the contiguous block of
  processors minimising its start time, with the paper's tie-breaking rule
  (leftmost when starting at time 0, rightmost otherwise).

Theorem 2: if the instance admits a schedule of length ≤ d on ``m ≥ m*(μ)``
processors and the canonical μ-area satisfies ``W_m ≤ μ·m·d``, then the
schedule produced has length at most ``2μ·d`` — with ``μ = √3/2`` this is the
√3 guarantee.  The structural ingredients (Property 3: first-two-level tasks
finish by 2μ·d; Lemma 1: every other task is a small sequential task
finishing by 2μ·d) are exposed for the tests and the figure benchmarks
through :func:`first_two_level_completion` and
:func:`outside_levels_are_small_sequential`.

The implementation never relies on Theorem 2 for soundness: the caller
(:class:`repro.core.mrt.MRTDual`) simply measures the produced makespan and
only accepts the guess when it is within the target factor.
"""

from __future__ import annotations

import math

from ..lower_bounds import canonical_area_lower_bound, trivial_lower_bound
from ..model.allotment import Allotment
from ..model.instance import Instance
from ..model.schedule import Schedule
from ..model.task import EPS
from ..scheduler import Scheduler
from .dual import DualSearchResult, dual_search
from .list_scheduling import compute_levels, contiguous_list_schedule
from .properties import canonical_allotment

__all__ = [
    "MU_STAR",
    "canonical_list_schedule",
    "CanonicalListDual",
    "CanonicalListScheduler",
    "first_two_level_completion",
    "outside_levels_are_small_sequential",
]

#: The paper's choice of μ: 2μ = √3.
MU_STAR: float = math.sqrt(3.0) / 2.0


def canonical_list_schedule(
    instance: Instance, guess: float, *, memo: dict[bytes, Schedule] | None = None
) -> Schedule | None:
    """Run the canonical list algorithm for the guess ``d``.

    Returns ``None`` when some task cannot meet the deadline on ``m``
    processors (γ_i(d) does not exist) — a sound infeasibility certificate.
    The produced schedule is always valid; its *length* is only guaranteed to
    be ≤ 2μ·d under the hypotheses of Theorem 2, which the caller must check.

    The schedule depends on ``d`` only through γ(d), which is piecewise
    constant in ``d``.  ``memo`` maps ``γ(d).procs.tobytes()`` to the schedule
    already built for that allotment of ``instance``; a repeated allotment
    returns that same validated schedule instead of building it again.
    """
    if guess <= 0:
        return None
    alloc = canonical_allotment(instance, guess)
    if alloc is None:
        return None
    key = alloc.procs.tobytes()
    if memo is not None and key in memo:
        return memo[key]
    allotment = Allotment(instance, alloc.procs)
    order = sorted(
        range(instance.num_tasks), key=lambda i: (-alloc.times[i], i)
    )
    schedule = contiguous_list_schedule(
        allotment, order, algorithm="canonical-list"
    )
    schedule.validate()
    if memo is not None:
        memo[key] = schedule
    return schedule


def first_two_level_completion(schedule: Schedule) -> float:
    """Latest completion time among tasks of the first two levels (Property 3)."""
    levels = compute_levels(schedule)
    times = [
        entry.end
        for entry in schedule.entries
        if levels.get(entry.task_index, 1) <= 2
    ]
    return max(times, default=0.0)


def outside_levels_are_small_sequential(
    schedule: Schedule, guess: float, *, tol: float = 1e-9
) -> bool:
    """Lemma 1 check: tasks outside the first two levels are sequential and short.

    Every such task must be allotted one processor and have execution time at
    most ``guess/2``.  (Lemma 1 additionally bounds their completion time by
    2μ·guess, which is covered by the overall makespan check.)
    """
    levels = compute_levels(schedule)
    for entry in schedule.entries:
        if levels.get(entry.task_index, 1) <= 2:
            continue
        if entry.num_procs != 1:
            return False
        if entry.duration > guess / 2.0 + tol * max(1.0, guess):
            return False
    return True


class CanonicalListDual:
    """Dual 2μ-approximation built from the canonical list algorithm.

    ``run`` accepts a guess only when the produced schedule is within
    ``2μ·guess``; otherwise it rejects.  Under the hypotheses of Theorem 2 a
    rejection certifies infeasibility; outside them it merely steers the
    dichotomic search (see the module docstring of :mod:`repro.core.mrt`).
    """

    def __init__(self, mu: float = MU_STAR) -> None:
        if not 0.5 < mu <= 1.0:
            raise ValueError("mu must lie in (1/2, 1]")
        self.mu = mu
        self.rho = 2.0 * mu

    def run(self, instance: Instance, guess: float) -> Schedule | None:
        schedule = canonical_list_schedule(instance, guess)
        if schedule is None:
            return None
        target = self.rho * guess
        if schedule.makespan() > target + EPS * max(1.0, target):
            return None
        return schedule


class CanonicalListScheduler(Scheduler):
    """Stand-alone scheduler: canonical list algorithm + dichotomic search.

    Because the canonical-list dual may reject feasible guesses when the
    hypotheses of Theorem 2 do not hold, this scheduler falls back to the
    malleable-list schedule of the same guess whenever that one is shorter,
    so it always terminates with a valid schedule (guarantee ≤ 2).  It is
    primarily used to study the list branch in isolation (experiments FIG2,
    FIG7, THM2); the paper's full algorithm is
    :class:`repro.core.mrt.MRTScheduler`.
    """

    name = "canonical-list"

    def __init__(self, *, mu: float = MU_STAR, eps: float = 1e-3) -> None:
        self.mu = mu
        self.eps = eps
        self.last_result: DualSearchResult | None = None

    def schedule(self, instance: Instance) -> Schedule:
        from .malleable_list import MalleableListDual  # local import, no cycle

        dual = CanonicalListDual(self.mu)
        fallback = MalleableListDual.for_instance(instance)

        class _Combined:
            rho = dual.rho

            @staticmethod
            def run(inst: Instance, guess: float) -> Schedule | None:
                primary = dual.run(inst, guess)
                if primary is not None:
                    return primary
                # Fall back to the malleable list algorithm so that large
                # guesses are always accepted and the search terminates.
                secondary = fallback.run(inst, guess)
                if secondary is not None and secondary.makespan() <= max(
                    dual.rho, fallback.rho
                ) * guess * (1 + 1e-12):
                    return secondary
                return None

        result = dual_search(_Combined(), instance, eps=self.eps)
        self.last_result = result
        result.schedule.validate()
        return result.schedule
