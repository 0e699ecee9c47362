"""Tests for the complete √3 scheduler (repro.core.mrt)."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.canonical_list as canonical_list
import repro.core.mrt as mrt
from repro import (
    MRTScheduler,
    best_lower_bound,
    heavy_tailed_instance,
    mixed_instance,
    rigid_heavy_instance,
    uniform_instance,
)
from repro.core.canonical_list import MU_STAR
from repro.core.mrt import MRTDual
from repro.baselines.optimal import optimal_schedule
from repro.core.properties import canonical_allotment
from repro.lower_bounds import canonical_area_lower_bound
from repro.model.instance import Instance
from repro.online.epoch import EpochRescheduler
from repro.workloads.adversarial import (
    fragmentation_instance,
    lpt_worst_case_instance,
    property3_stress_instances,
    shelf_overflow_instance,
)
from repro.workloads.arrivals import make_trace
from test_property_based import instances

SQRT3 = math.sqrt(3.0)


class TestMRTDual:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MRTDual(lam=0.3)
        with pytest.raises(ValueError):
            MRTDual(mu=1.2)

    def test_rho_is_sqrt3_for_defaults(self):
        assert MRTDual().rho == pytest.approx(SQRT3)

    def test_rejects_impossible_guess(self, medium_instance):
        dual = MRTDual()
        assert dual.run(medium_instance, 1e-9) is None
        assert dual.last_branch is None

    def test_accepts_generous_guess(self, medium_instance):
        dual = MRTDual()
        schedule = dual.run(medium_instance, medium_instance.upper_bound())
        assert schedule is not None
        assert dual.last_branch == schedule.algorithm

    @pytest.mark.parametrize("seed", range(4))
    def test_accepted_schedule_within_sqrt3_of_guess(self, seed):
        inst = mixed_instance(18, 16, seed=seed)
        dual = MRTDual()
        lb = canonical_area_lower_bound(inst)
        for factor in (1.0, 1.1, 1.4, 2.0, 4.0):
            schedule = dual.run(inst, lb * factor)
            if schedule is not None:
                schedule.validate()
                assert schedule.makespan() <= SQRT3 * lb * factor * (1 + 1e-9) + 1e-9

    def test_mu_area_recorded(self, medium_instance):
        dual = MRTDual()
        dual.run(medium_instance, medium_instance.upper_bound())
        assert dual.last_mu_area is not None

    @pytest.mark.parametrize("method", ["exact", "dual", "fptas"])
    def test_knapsack_method_variants_agree_on_acceptance(self, method):
        inst = shelf_overflow_instance(16, seed=5)
        lb = canonical_area_lower_bound(inst)
        baseline = MRTDual().run(inst, lb * 1.3) is not None
        variant = MRTDual(knapsack_method=method).run(inst, lb * 1.3) is not None
        # the FPTAS may be slightly weaker but never stronger than exact on
        # acceptance; all three must accept generous guesses
        if baseline:
            assert MRTDual(knapsack_method=method).run(inst, lb * 2.5) is not None
        assert isinstance(variant, bool)


class TestMRTScheduler:
    WORKLOADS = [
        ("uniform", lambda seed: uniform_instance(20, 16, seed=seed)),
        ("mixed", lambda seed: mixed_instance(20, 16, seed=seed)),
        ("heavy", lambda seed: heavy_tailed_instance(20, 16, seed=seed)),
        ("rigid", lambda seed: rigid_heavy_instance(20, 16, seed=seed)),
    ]

    @pytest.mark.parametrize("name,factory", WORKLOADS, ids=[w[0] for w in WORKLOADS])
    @pytest.mark.parametrize("seed", range(3))
    def test_ratio_to_lower_bound_below_sqrt3(self, name, factory, seed):
        """The headline claim: makespan within √3 of the (lower bound on the) optimum."""
        inst = factory(seed)
        scheduler = MRTScheduler(eps=1e-3)
        schedule = scheduler.schedule(inst)
        schedule.validate()
        lb = best_lower_bound(inst)
        assert schedule.makespan() <= SQRT3 * lb * (1 + 5e-3)

    @pytest.mark.parametrize("seed", range(4))
    def test_within_sqrt3_of_exact_optimum_small(self, seed):
        inst = mixed_instance(5, 4, seed=seed)
        mrt = MRTScheduler().schedule(inst)
        opt = optimal_schedule(inst)
        assert mrt.makespan() <= SQRT3 * opt.makespan() * (1 + 1e-6)

    def test_result_metadata(self, medium_instance):
        scheduler = MRTScheduler()
        schedule = scheduler.schedule(medium_instance)
        result = scheduler.last_result
        assert result is not None
        assert result.schedule is schedule
        assert result.lower_bound > 0
        assert result.ratio_to_lower_bound >= 1.0 - 1e-9
        assert result.branch
        assert result.search.iterations > 0

    def test_adversarial_instances(self):
        for inst in (
            fragmentation_instance(16),
            lpt_worst_case_instance(8),
            shelf_overflow_instance(16, seed=2),
        ):
            scheduler = MRTScheduler()
            schedule = scheduler.schedule(inst)
            schedule.validate()
            assert schedule.makespan() <= SQRT3 * best_lower_bound(inst) * (1 + 5e-3)

    def test_single_task_instance(self):
        from repro import Instance, MalleableTask

        inst = Instance([MalleableTask.constant_work("only", 10.0, 8)], 8)
        schedule = MRTScheduler().schedule(inst)
        # a single perfectly parallel task should be run close to full width
        assert schedule.makespan() <= 10.0 / 8 * SQRT3 + 1e-9

    def test_small_machine_uses_list_guarantee(self):
        """On m <= 6 the malleable list bound is below √3 already."""
        inst = mixed_instance(10, 4, seed=1)
        scheduler = MRTScheduler()
        schedule = scheduler.schedule(inst)
        lb = best_lower_bound(inst)
        assert schedule.makespan() <= SQRT3 * lb * (1 + 5e-3)

    def test_deterministic_given_seeded_instance(self):
        inst = mixed_instance(15, 8, seed=9)
        a = MRTScheduler().schedule(inst).makespan()
        b = MRTScheduler().schedule(inst).makespan()
        assert a == pytest.approx(b)


# --------------------------------------------------------------------------- #
# the per-search canonical-list memo
# --------------------------------------------------------------------------- #
#: Fixed seeds of every family in :mod:`repro.workloads.adversarial`.
ADVERSARIAL = [
    *property3_stress_instances(8, MU_STAR, trials=2, rng=0),
    shelf_overflow_instance(16, seed=2),
    fragmentation_instance(16),
    lpt_worst_case_instance(8),
]


def assert_search_matches_fresh_duals(inst: Instance) -> None:
    """Every guess of a memoised search answers what a fresh dual answers."""
    scheduler = MRTScheduler()
    schedule = scheduler.schedule(inst)
    result = scheduler.last_result
    best_guess, best_makespan = None, math.inf
    for outcome in result.search.trace:
        fresh = MRTDual().run(inst, outcome.guess)
        assert (fresh is not None) == outcome.accepted
        if fresh is None:
            continue
        assert fresh.makespan() == outcome.makespan
        if outcome.makespan < best_makespan:
            best_guess, best_makespan = outcome.guess, outcome.makespan
    if result.branch != "malleable-list-fallback":
        assert schedule.as_dict() == MRTDual().run(inst, best_guess).as_dict()


class TestCanonicalListMemo:
    @given(inst=instances(max_tasks=6, max_procs=8))
    @settings(
        max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
    )
    def test_memoised_search_matches_fresh_duals(self, inst):
        assert_search_matches_fresh_duals(inst)

    @pytest.mark.parametrize("index", range(len(ADVERSARIAL)))
    def test_memoised_search_matches_fresh_duals_adversarial(self, index):
        assert_search_matches_fresh_duals(ADVERSARIAL[index])

    def test_memo_is_reset_for_another_instance(self):
        first = mixed_instance(12, 8, seed=3)
        second = Instance.from_dict(first.as_dict())
        guess = first.upper_bound()
        assert (
            canonical_allotment(first, guess).procs.tobytes()
            == canonical_allotment(second, guess).procs.tobytes()
        )
        dual = MRTDual()
        for inst in (first, second, first):
            schedule = dual.run(inst, guess)
            assert dual.last_branch == "canonical-list"
            assert schedule.instance is inst

    def test_mutating_a_result_leaves_the_next_call_clean(self):
        inst = mixed_instance(16, 8, seed=5)
        clean = MRTScheduler().schedule(mixed_instance(16, 8, seed=5)).as_dict()
        scheduler = MRTScheduler()
        first = scheduler.schedule(inst)
        first.add(0, first.makespan(), 0, 1)
        assert scheduler.schedule(inst).as_dict() == clean

    @pytest.mark.parametrize("seed", range(3))
    def test_one_list_schedule_per_distinct_allotment(self, seed, monkeypatch):
        """The canonical-list branch builds each distinct γ(d) once per search."""
        built = 0
        seen: list[set[bytes]] = []
        list_schedule = canonical_list.contiguous_list_schedule
        branch = mrt.canonical_list_schedule
        search = mrt.MRTScheduler.schedule

        def counting_list_schedule(*args, **kwargs):
            nonlocal built
            built += 1
            return list_schedule(*args, **kwargs)

        def recording_branch(instance, guess, **kwargs):
            alloc = canonical_allotment(instance, guess) if guess > 0 else None
            if alloc is not None:
                seen[-1].add(alloc.procs.tobytes())
            return branch(instance, guess, **kwargs)

        def recording_search(self, instance):
            seen.append(set())
            return search(self, instance)

        monkeypatch.setattr(canonical_list, "contiguous_list_schedule", counting_list_schedule)
        monkeypatch.setattr(mrt, "canonical_list_schedule", recording_branch)
        monkeypatch.setattr(mrt.MRTScheduler, "schedule", recording_search)
        trace = make_trace("poisson", "mixed", 64, 16, seed=seed)
        EpochRescheduler().replay(trace)
        distinct = sum(len(allotments) for allotments in seen)
        assert distinct > 0
        assert built == distinct
