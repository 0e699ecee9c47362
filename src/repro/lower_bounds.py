"""Makespan lower bounds for malleable-task instances.

The approximation ratios reported by :mod:`repro.analysis.experiments` (and
``python -m repro compare``) are measured against
these lower bounds (and, on small instances, against the exact optimum from
:mod:`repro.baselines.optimal`).  Three bounds are provided, each valid even
against preemptive and non-contiguous optimal schedules:

``trivial_lower_bound``
    ``max(Σ_i t_i(1) / m, max_i t_i(m))`` — the classical area bound (work is
    minimised on one processor by monotonicity) combined with the longest
    unavoidable task.

``canonical_area_lower_bound``
    The tightest value ``d`` that survives the paper's Property 2 test: if a
    schedule of length ``d`` exists then every task admits γ_i(d) and
    ``Σ_i W_i(γ_i(d)) <= m·d``.  The smallest ``d`` satisfying both is a
    valid lower bound and is found by dichotomic search; it dominates the
    trivial bound.

``squashed_area_lower_bound``
    The fractional "squashed area" bound used by Turek, Wolf & Yu: for each
    task take the work of the allotment minimising ``max(t_i(p), W_i(p)/m)``;
    kept mainly for comparison in the experiment tables.
"""

from __future__ import annotations

import numpy as np

from .model.instance import Instance
from .model.task import EPS

__all__ = [
    "trivial_lower_bound",
    "canonical_area_lower_bound",
    "squashed_area_lower_bound",
    "best_lower_bound",
]


def trivial_lower_bound(instance: Instance) -> float:
    """``max(area bound, longest minimal task)``."""
    return instance.lower_bound()


def _property2_feasible(instance: Instance, deadline: float) -> bool:
    """Whether the guess ``deadline`` survives the Property 2 test."""
    work = instance.canonical_work(deadline)
    if work is None:
        return False
    return work <= instance.num_procs * deadline + EPS


def canonical_area_lower_bound(
    instance: Instance, *, rel_tol: float = 1e-9, max_iter: int = 200
) -> float:
    """Largest guess proved infeasible by the Property 2 test (dichotomic search).

    The returned value ``lo`` is certified infeasible (or equals the trivial
    lower bound when that one already survives the test), hence the optimum
    is at least ``lo`` and the value is a safe makespan lower bound — it
    never exceeds the optimum, unlike the upper end of the search interval
    which could overshoot by the search tolerance.
    """
    lo = trivial_lower_bound(instance)
    if _property2_feasible(instance, lo):
        return lo
    hi = lo
    # Exponential search for a feasible upper end.  Σ t_i(1) always passes
    # the test (the canonical allotment is then component-wise minimal and
    # its work is at most Σ t_i(1) <= m·d), so the loop terminates.
    ceiling = max(instance.upper_bound(), lo)
    for _ in range(max_iter):
        hi = min(hi * 2.0, ceiling)
        if _property2_feasible(instance, hi) or hi >= ceiling:
            break
    for _ in range(max_iter):
        if hi - lo <= rel_tol * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if _property2_feasible(instance, mid):
            hi = mid
        else:
            lo = mid
    return lo


def squashed_area_lower_bound(instance: Instance) -> float:
    """Turek-style squashed-area bound (vectorized).

    Three valid ingredients are combined by ``max``:

    * the classical area bound ``Σ_i t_i(1) / m`` (work is minimised on one
      processor by monotonicity);
    * for every task, ``min_p max(t_i(p), W_i(p)/m)``: whatever allotment
      ``p*`` the optimal schedule uses, ``t_i(p*) ≤ OPT`` and
      ``W_i(p*)/m ≤ (total work)/m ≤ OPT``, so the minimum over ``p`` is a
      valid per-task lower bound;
    * the longest unavoidable duration ``max_i t_i(m)``.

    A previous revision promised to additionally combine the *averaged area
    of the per-task minimisers*, ``Σ_i W_i(p̂_i)/m`` where ``p̂_i`` attains
    the per-task minimum.  That combination is **not** a valid lower bound:
    the optimal schedule may run a task on fewer processors than ``p̂_i``
    with strictly less work, so the sum can exceed the optimum (see the
    regression test ``test_lower_bounds.py::test_squashed_minimiser_area_
    combination_is_unsound`` for a concrete two-task counterexample).  The
    accumulation was dead code and has been removed.
    """
    m = instance.num_procs
    engine = instance.engine
    # value[i, p-1] = max(t_i(p), W_i(p)/m); its row-wise minimum is the
    # per-task squashed bound.
    value = np.maximum(engine.times_matrix, engine.works_matrix / m)
    per_task_bound = value.min(axis=1)
    area = instance.total_sequential_work() / m
    return float(
        max(area, per_task_bound.max(), instance.max_min_time())
    )


def best_lower_bound(instance: Instance) -> float:
    """The strongest lower bound implemented (used by the experiments)."""
    return max(
        trivial_lower_bound(instance),
        canonical_area_lower_bound(instance),
        squashed_area_lower_bound(instance),
    )
