"""Property-based tests (Hypothesis) on the core invariants.

These tests exercise the model and the algorithms on randomly generated
monotonic profiles far away from the parametric workload families:

* monotonic-envelope repair always yields a valid monotonic task;
* canonical numbers of processors satisfy Properties 1 and 2;
* the contiguous list scheduler always produces valid schedules;
* every scheduler produces a valid complete schedule whose makespan lies
  between the lower bound and the sequential upper bound;
* the knapsack DP matches brute force on small inputs;
* the √3 guarantee holds against the lower bound on random instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Instance, MalleableTask, MRTScheduler, best_lower_bound
from repro.baselines.sequential import SequentialLPTScheduler
from repro.core.knapsack import KnapsackItem, knapsack_max_profit
from repro.core.list_scheduling import contiguous_list_schedule, sliding_window_max
from repro.core.malleable_list import MalleableListScheduler
from repro.core.properties import property1_holds, property2_bound_holds
from repro.model.allotment import Allotment

SQRT3 = math.sqrt(3.0)

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
positive_times = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


@st.composite
def monotonic_tasks(draw, max_procs: int | None = None):
    """A random monotonic task (built through the envelope repair)."""
    raw = draw(positive_times)
    if max_procs is not None:
        raw = (raw * max_procs)[:max_procs]
        if len(raw) < max_procs:
            raw = raw + [raw[-1]] * (max_procs - len(raw))
    name = draw(st.text(min_size=1, max_size=8, alphabet="abcdefgh"))
    return MalleableTask.monotonic_envelope(name, raw)


@st.composite
def instances(draw, max_tasks: int = 6, max_procs: int = 8):
    m = draw(st.integers(min_value=1, max_value=max_procs))
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = [draw(monotonic_tasks(max_procs=m)) for _ in range(n)]
    named = [
        MalleableTask(f"T{i}", task.times, require_monotonic=False)
        for i, task in enumerate(tasks)
    ]
    return Instance(named, m)


# --------------------------------------------------------------------------- #
# model invariants
# --------------------------------------------------------------------------- #
@given(times=positive_times)
def test_monotonic_envelope_always_valid(times):
    task = MalleableTask.monotonic_envelope("t", times)
    assert task.is_monotonic
    # repaired times never exceed the running minimum of the originals from above
    assert task.time(1) == times[0]


@given(times=positive_times, deadline=st.floats(min_value=0.01, max_value=200.0))
def test_canonical_procs_is_minimal(times, deadline):
    task = MalleableTask.monotonic_envelope("t", times)
    gamma = task.canonical_procs(deadline)
    if gamma is None:
        assert task.min_time() > deadline
    else:
        assert task.time(gamma) <= deadline + 1e-9
        if gamma > 1:
            assert task.time(gamma - 1) > deadline
    assert property1_holds(task, deadline)


@given(inst=instances(), factor=st.floats(min_value=1.0, max_value=4.0))
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_property2_holds_at_feasible_deadlines(inst, factor):
    """At any deadline at least the sequential upper bound, Property 2 holds."""
    deadline = inst.upper_bound() * factor
    assert property2_bound_holds(inst, deadline) is True


# --------------------------------------------------------------------------- #
# list scheduling invariants
# --------------------------------------------------------------------------- #
@given(
    values=st.one_of(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        # tie-heavy: every window holds repeated maxima
        st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=40),
    ),
    data=st.data(),
)
def test_sliding_window_max_matches_naive(values, data):
    arr = np.array(values)
    width = data.draw(
        st.one_of(st.just(len(values)), st.integers(min_value=1, max_value=len(values)))
    )
    fast = sliding_window_max(arr, width)
    naive = np.array([arr[s : s + width].max() for s in range(arr.size - width + 1)])
    assert np.array_equal(fast, naive)
    assert not np.shares_memory(fast, arr)


@given(inst=instances(max_tasks=6, max_procs=6), data=st.data())
@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_contiguous_list_schedule_always_valid(inst, data):
    procs = [
        data.draw(st.integers(min_value=1, max_value=inst.num_procs))
        for _ in range(inst.num_tasks)
    ]
    allotment = Allotment(inst, procs)
    schedule = contiguous_list_schedule(allotment, range(inst.num_tasks))
    schedule.validate()
    assert schedule.is_complete()
    assert schedule.makespan() >= allotment.area_bound() - 1e-9


# --------------------------------------------------------------------------- #
# scheduler invariants
# --------------------------------------------------------------------------- #
@given(inst=instances(max_tasks=5, max_procs=6))
@settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_schedulers_produce_valid_bounded_schedules(inst):
    lb = best_lower_bound(inst)
    ub = inst.upper_bound()
    for scheduler in (MRTScheduler(eps=1e-2), MalleableListScheduler(eps=1e-2), SequentialLPTScheduler()):
        schedule = scheduler.schedule(inst)
        schedule.validate()
        assert schedule.is_complete()
        assert lb - 1e-6 <= schedule.makespan() <= ub + 1e-6


@given(inst=instances(max_tasks=5, max_procs=8))
@settings(
    max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
def test_mrt_sqrt3_guarantee_against_lower_bound(inst):
    schedule = MRTScheduler(eps=1e-2).schedule(inst)
    assert schedule.makespan() <= SQRT3 * best_lower_bound(inst) * (1 + 2e-2) + 1e-9


# --------------------------------------------------------------------------- #
# knapsack invariant
# --------------------------------------------------------------------------- #
@given(
    weights=st.lists(st.integers(min_value=0, max_value=10), min_size=0, max_size=8),
    profits=st.lists(st.integers(min_value=0, max_value=10), min_size=0, max_size=8),
    capacity=st.integers(min_value=0, max_value=30),
)
def test_knapsack_matches_bruteforce(weights, profits, capacity):
    n = min(len(weights), len(profits))
    items = [KnapsackItem(i, weights[i], profits[i]) for i in range(n)]
    solution = knapsack_max_profit(items, capacity)
    best = 0
    for r in range(n + 1):
        for combo in itertools.combinations(items, r):
            if sum(i.weight for i in combo) <= capacity:
                best = max(best, sum(i.profit for i in combo))
    assert solution.profit == best
    assert solution.weight <= capacity or solution.weight == 0
