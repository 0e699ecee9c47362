"""Tests for the vectorized allotment engine (repro.core.allotment_engine).

The engine must reproduce the scalar reference path —
``MalleableTask.canonical_procs`` / ``canonical_time`` / ``canonical_work``
and the hand-rolled μ-area loop — bit-for-bit across random instances and
deadlines, including non-monotonic profiles and infeasible deadlines, while
memoizing repeated deadlines.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.analysis.experiments import run_comparison, sweep_workloads
from repro.baselines.sequential import SequentialLPTScheduler
from repro.core.allotment_engine import AllotmentEngine, quantize_deadline
from repro.core.malleable_list import MalleableListScheduler
from repro.core.partition import LAMBDA_STAR, build_partition
from repro.core.properties import canonical_allotment
from repro.model.instance import Instance
from repro.model.task import MalleableTask
from repro.workloads.generators import make_workload


# --------------------------------------------------------------------------- #
# scalar reference implementations (the pre-engine code paths)
# --------------------------------------------------------------------------- #
def scalar_gamma(instance: Instance, deadline: float) -> list[int | None]:
    return [t.canonical_procs(deadline) for t in instance.tasks]


def scalar_canonical_work(instance: Instance, deadline: float) -> float | None:
    total = 0.0
    for task in instance.tasks:
        p = task.canonical_procs(deadline)
        if p is None:
            return None
        total += task.work(p)
    return total


def scalar_mu_area(instance: Instance, deadline: float) -> float | None:
    gammas = []
    for task in instance.tasks:
        p = task.canonical_procs(deadline)
        if p is None:
            return None
        gammas.append((task.time(p), p, task.work(p)))
    gammas.sort(key=lambda item: -item[0])
    area = 0.0
    used = 0
    for time, procs, work in gammas:
        if used + procs <= instance.num_procs:
            area += work
            used += procs
            if used == instance.num_procs:
                break
        else:
            area += (instance.num_procs - used) * time
            break
    return area


def random_instances(n_instances: int = 12) -> list[Instance]:
    rng = np.random.default_rng(2024)
    out = []
    for k in range(n_instances):
        m = int(rng.integers(2, 24))
        n = int(rng.integers(1, 30))
        family = ["uniform", "mixed", "heavy-tailed", "rigid-heavy"][k % 4]
        out.append(make_workload(family, n, m, seed=rng))
    return out


def interesting_deadlines(instance: Instance, rng) -> list[float]:
    """Deadlines straddling every regime: infeasible, boundary, feasible."""
    tmin = min(t.min_time() for t in instance.tasks)
    tmax = instance.max_sequential_time()
    exact = [float(t.time(p)) for t in instance.tasks[:4] for p in (1, instance.num_procs)]
    return (
        [-1.0, 0.0, tmin * 0.5, tmin, tmax, tmax * 2.0]
        + exact
        + list(rng.uniform(tmin * 0.25, tmax * 1.5, size=8))
    )


class TestGammaMatchesScalar:
    @pytest.mark.parametrize("idx", range(12))
    def test_random_instances(self, idx):
        instance = random_instances()[idx]
        rng = np.random.default_rng(500 + idx)
        for d in interesting_deadlines(instance, rng):
            expected = scalar_gamma(instance, d)
            assert instance.canonical_procs(d) == expected
            alloc = canonical_allotment(instance, d)
            if any(p is None for p in expected):
                assert alloc is None
                assert instance.canonical_work(d) is None
                assert instance.mu_area(d) is None
            else:
                assert alloc is not None
                assert alloc.procs.tolist() == expected
                for i, task in enumerate(instance.tasks):
                    assert alloc.times[i] == task.time(expected[i])
                    assert alloc.works[i] == task.work(expected[i])
                work = instance.canonical_work(d)
                ref = scalar_canonical_work(instance, d)
                assert work == pytest.approx(ref, rel=1e-12, abs=1e-12)
                mu = instance.mu_area(d)
                mu_ref = scalar_mu_area(instance, d)
                assert mu == pytest.approx(mu_ref, rel=1e-12, abs=1e-12)

    def test_non_monotonic_profiles(self):
        """γ must be the *first* fitting p, like the scalar linear scan."""
        tasks = [
            MalleableTask("a", [5.0, 7.0, 2.0, 3.0], require_monotonic=False),
            MalleableTask("b", [4.0, 1.0, 6.0, 0.5], require_monotonic=False),
            MalleableTask("c", [9.0, 8.0, 8.5, 8.4], require_monotonic=False),
        ]
        instance = Instance(tasks, 4)
        for d in [-1.0, 0.0, 0.4, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 8.4, 8.5, 9.0, 20.0]:
            assert instance.canonical_procs(d) == scalar_gamma(instance, d)

    def test_infeasible_deadline_returns_none(self):
        instance = Instance([MalleableTask.rigid("r", 10.0, 4)], 4)
        assert canonical_allotment(instance, 5.0) is None
        assert instance.canonical_work(5.0) is None
        assert instance.mu_area(5.0) is None
        profile = instance.engine.gamma(5.0)
        assert not profile.feasible
        assert profile.procs_list() == [None]

    def test_partial_feasibility_profile(self):
        """The per-task view keeps reachable tasks even when others fail."""
        tasks = [MalleableTask.rigid("slow", 10.0, 4), MalleableTask.constant_work("fast", 4.0, 4)]
        instance = Instance(tasks, 4)
        profile = instance.engine.gamma(2.0)
        assert profile.procs_list() == [None, 2]
        assert not profile.feasible
        assert profile.mask.tolist() == [False, True]


class TestMemoization:
    def test_repeated_deadlines_hit_the_cache(self):
        instance = make_workload("mixed", 20, 8, seed=7)
        engine = instance.engine
        engine.clear_cache()
        engine.gamma(3.0)
        engine.gamma(3.0)
        engine.gamma(3.0 + 1e-16)  # quantizes to the same key
        info = engine.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_distinct_guesses_are_not_conflated(self):
        # The finest search tolerance is 1e-9 relative; keys keep 12
        # significant digits, so neighbouring dichotomic guesses stay apart.
        assert quantize_deadline(1.0) != quantize_deadline(1.0 + 1e-9)
        assert quantize_deadline(1e6) != quantize_deadline(1e6 * (1 + 1e-9))
        assert quantize_deadline(0.0) == 0.0

    def test_lower_bound_searches_share_guesses(self):
        """canonical_area_lower_bound is recomputed by dual_search,
        MRTScheduler and best_lower_bound — the repeats are pure hits."""
        from repro.lower_bounds import canonical_area_lower_bound

        instance = make_workload("uniform", 15, 8, seed=3)
        first = canonical_area_lower_bound(instance)
        misses_after_first = instance.engine.cache_info()["misses"]
        second = canonical_area_lower_bound(instance)
        info = instance.engine.cache_info()
        assert second == first
        assert info["misses"] == misses_after_first  # no new vectorized passes
        assert info["hits"] >= misses_after_first

    def test_mrt_scheduler_run_populates_cache(self):
        """One MRT guess touches γ(d) several times (Property 2, μ-area,
        partition) plus the repeated lower-bound searches — all cache hits."""
        from repro.core.mrt import MRTScheduler

        instance = make_workload("uniform", 12, 8, seed=3)
        MRTScheduler().schedule(instance)
        info = instance.engine.cache_info()
        assert info["hits"] > info["misses"]

    def test_lru_eviction_bounds_memory(self):
        instance = make_workload("uniform", 5, 4, seed=1)
        from repro.core.allotment_engine import AllotmentEngine

        engine = AllotmentEngine(instance.times_matrix, cache_size=4)
        for d in np.linspace(1.0, 2.0, 20):
            engine.gamma(float(d))
        assert engine.cache_info()["size"] <= 4

    def test_cached_replay_is_3x_faster_than_the_scalar_loop(self):
        """The schedulers' access pattern: the same guesses probed again and
        again.  A warm engine answers them >= 3x faster than ``scalar_gamma``
        (best of 3; 60x32 mixed, 40 deadlines x 5 replays)."""
        instance = make_workload("mixed", 60, 32, seed=42)
        lb = instance.lower_bound()
        deadlines = [float(d) for d in np.linspace(lb * 0.5, lb * 3.0, 40)]
        engine = AllotmentEngine(instance.times_matrix, instance.works_matrix)
        for d in deadlines:
            engine.gamma(d)

        def replay_seconds(probe) -> float:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(5):
                    for d in deadlines:
                        probe(d)
                best = min(best, time.perf_counter() - start)
            return best

        scalar = replay_seconds(lambda d: scalar_gamma(instance, d))
        cached = replay_seconds(engine.gamma)
        assert scalar / cached >= 3.0, f"cached replay only {scalar / cached:.1f}x"


class TestPartitionSplit:
    @pytest.mark.parametrize("seed", range(5))
    def test_build_partition_matches_scalar_reference(self, seed):
        instance = make_workload("mixed", 18, 10, seed=seed)
        rng = np.random.default_rng(900 + seed)
        lb = instance.lower_bound()
        for d in rng.uniform(lb * 0.8, lb * 3.0, size=6):
            part = build_partition(instance, float(d), LAMBDA_STAR)
            alloc = canonical_allotment(instance, float(d))
            if alloc is None:
                assert part is None
                continue
            assert part is not None
            shelf2_deadline = LAMBDA_STAR * float(d)
            t1, t2, t3 = [], [], []
            for i, task in enumerate(instance.tasks):
                t_canon = float(alloc.times[i])
                if t_canon > shelf2_deadline + 1e-9:
                    t1.append(i)
                elif t_canon > float(d) / 2.0 + 1e-9:
                    t2.append(i)
                else:
                    t3.append(i)
            assert part.t1 == t1
            assert part.t2 == t2
            assert part.t3 == t3
            for i in t1:
                assert part.shelf2_procs[i] == instance.tasks[i].canonical_procs(
                    shelf2_deadline
                )
            assert part.q1 == sum(int(alloc.procs[i]) for i in t1)
            assert part.q2 == sum(int(alloc.procs[i]) for i in t2)


class TestEngineStandalone:
    def test_rejects_bad_matrices(self):
        from repro.exceptions import ModelError

        with pytest.raises(ModelError):
            AllotmentEngine(np.zeros((0, 0)))
        with pytest.raises(ModelError):
            AllotmentEngine(np.ones(4))
        with pytest.raises(ModelError):
            AllotmentEngine(np.ones((2, 3)), np.ones((2, 4)))

    def test_derives_works_matrix(self):
        times = np.array([[4.0, 2.5, 2.0]])
        engine = AllotmentEngine(times)
        assert engine.works_matrix.tolist() == [[4.0, 5.0, 6.0]]
        assert engine.num_tasks == 1
        assert engine.num_procs == 3

    def test_property2_helper(self):
        instance = Instance([MalleableTask.constant_work("w", 8.0, 2)], 2)
        engine = instance.engine
        # d = 4: gamma = 2, work 8 <= m*d = 8 -> holds.
        assert engine.property2_holds(4.0)
        # d = 3.9: infeasible (t(2) = 4 > 3.9) -> fails.
        assert not engine.property2_holds(3.9)


class TestInstancePickling:
    def test_engine_cache_is_dropped_on_pickle(self):
        import pickle

        instance = make_workload("uniform", 10, 6, seed=5)
        instance.engine.gamma(2.0)
        clone = pickle.loads(pickle.dumps(instance))
        assert clone.name == instance.name
        assert clone.num_procs == instance.num_procs
        assert clone.engine.cache_info()["size"] == 0
        assert clone.canonical_procs(2.0) == instance.canonical_procs(2.0)


class TestParallelDeterminism:
    @staticmethod
    def assert_same_records(serial, parallel):
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            # runtime_seconds is a wall-clock measurement; everything else
            # must be identical, in identical order.
            assert dataclasses.replace(a, runtime_seconds=0.0) == dataclasses.replace(
                b, runtime_seconds=0.0
            )

    def test_run_comparison_workers_matches_serial(self):
        instances = [
            make_workload("mixed", 10, 6, seed=11),
            make_workload("uniform", 8, 4, seed=12),
        ]
        schedulers = lambda: [MalleableListScheduler(), SequentialLPTScheduler()]
        serial = run_comparison(instances, schedulers(), family="det")
        parallel = run_comparison(instances, schedulers(), family="det", workers=4)
        self.assert_same_records(serial, parallel)

    def test_sweep_workloads_workers_matches_serial(self):
        """EXP-A end to end: the fanned-out sweep records equal the serial ones."""
        kwargs = dict(
            families=("uniform", "mixed"),
            num_tasks=12,
            machine_sizes=(8,),
            repetitions=1,
            seed=7,
        )
        self.assert_same_records(
            sweep_workloads(**kwargs), sweep_workloads(**kwargs, workers=4)
        )
