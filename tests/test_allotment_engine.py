"""Tests for the vectorized allotment engine (repro.core.allotment_engine).

The engine must reproduce the scalar reference path —
``MalleableTask.canonical_procs`` / ``canonical_time`` / ``canonical_work``
and the hand-rolled μ-area loop — bit-for-bit across random instances and
deadlines, including non-monotonic profiles and infeasible deadlines, while
memoizing repeated deadlines.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_comparison, sweep_workloads
from repro.baselines.sequential import SequentialLPTScheduler
from repro.core.allotment_engine import AllotmentEngine, quantize_deadline
from repro.core.malleable_list import MalleableListScheduler
from repro.core.partition import LAMBDA_STAR, build_partition
from repro.core.properties import canonical_allotment
from repro.model.instance import Instance
from repro.model.task import EPS, MalleableTask
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

    def test_key_is_the_twelve_digit_scientific_rounding(self):
        """The keys decide which probes count as hits, so they must stay
        ``float(f"{d:.12e}")`` for finite non-zero deadlines."""
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [rng.lognormal(0.0, 8.0, 2000), -rng.lognormal(0.0, 8.0, 200)]
        )
        for d in values.tolist() + [5e-324, 1.7e308, 1.0 / 3.0]:
            assert quantize_deadline(d) == float(f"{d:.12e}")
        assert quantize_deadline(np.float64(2.5)) == 2.5
        assert quantize_deadline(math.inf) == math.inf
        assert math.isnan(quantize_deadline(math.nan))

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

    def test_time_rows_are_dropped_on_pickle_and_rebuilt(self):
        import pickle

        instance = make_workload("uniform", 10, 6, seed=5)
        rows = instance.time_rows()
        assert rows == instance.times_matrix.tolist()
        assert instance.time_rows() is rows
        clone = pickle.loads(pickle.dumps(instance))
        assert clone._time_rows is None
        assert clone.time_rows() == rows


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


# --------------------------------------------------------------------------- #
# golden counters: the engine's memo statistics are on the wire (every
# ``/replay`` epoch frame carries them), so any change to how γ(d) is
# computed must leave them, and the search that drives them, exactly as is.
# --------------------------------------------------------------------------- #
#: seed -> (replay makespan, per epoch: (num_tasks, memo_hits, memo_misses,
#: guesses, epoch makespan)) for ``make_trace("poisson", "mixed", 64, 16)``.
REPLAY_GOLDEN = {
    0: (
        39.00423139928569,
        [
            (1, 7, 5, 12, 0.4552190078029037),
            (1, 7, 4, 11, 0.20348562759408942),
            (1, 7, 4, 11, 1.428663444908074),
            (4, 93, 54, 147, 4.407887158863568),
            (11, 95, 55, 150, 6.496452386486272),
            (18, 95, 49, 144, 10.143229050549627),
            (23, 95, 49, 144, 10.118255900759303),
            (5, 7, 4, 11, 5.6673070606479055),
        ],
    ),
    1: (
        27.811011956828008,
        [
            (1, 9, 2, 11, 3.3032310481723246),
            (9, 95, 55, 150, 5.3836513208574175),
            (21, 95, 49, 144, 7.42402801663066),
            (32, 95, 49, 144, 10.168275302992914),
            (1, 9, 2, 11, 1.5318262681746904),
        ],
    ),
    2: (
        35.340734323429395,
        [
            (1, 7, 5, 12, 0.4850566188244845),
            (1, 7, 5, 12, 0.06653853088674966),
            (1, 7, 5, 12, 0.1724101972858239),
            (1, 7, 5, 12, 1.1572428803445722),
            (5, 93, 54, 147, 3.787555498539978),
            (11, 95, 49, 144, 4.767548754494067),
            (14, 7, 5, 12, 7.318840554116826),
            (29, 95, 49, 144, 16.24234577698465),
            (1, 7, 4, 11, 0.8196835898392182),
        ],
    ),
}

#: name -> (branch, search length, accepted flags ("A" accept, "r" reject),
#: engine hits, engine misses, makespan, best guess, lower bound).
MRT_GOLDEN = {
    "mixed": (
        "canonical-list", 16, "ArAAAAAAAAAAAAAA", 95, 49,
        9.52646845382975, 8.885087989674561, 8.877864165906718,
    ),
    "heavy-tailed": (
        "canonical-list", 16, "ArAAAAAAAAAAAAAA", 95, 49,
        6.258326873184382, 6.083602546288425, 6.0796234436856675,
    ),
    "uniform": (
        "canonical-list", 15, "ArAAAAAAAAAAAAA", 93, 48,
        7.647603162136561, 6.910169419607097, 6.904462757879249,
    ),
    "shelf-overflow": (
        "two-shelves-trivial", 2, "AA", 7, 5,
        2.652066233079024, 1.565211433211857, 1.565211433211857,
    ),
}


def golden_instance(name: str) -> Instance:
    from repro.workloads.adversarial import shelf_overflow_instance

    return {
        "mixed": lambda: make_workload("mixed", 24, 16, seed=0),
        "heavy-tailed": lambda: make_workload("heavy-tailed", 20, 12, seed=1),
        "uniform": lambda: make_workload("uniform", 12, 8, seed=3),
        "shelf-overflow": lambda: shelf_overflow_instance(64, seed=0),
    }[name]()


class TestCounterStability:
    @pytest.mark.parametrize("seed", sorted(REPLAY_GOLDEN))
    def test_replay_epoch_counters(self, seed):
        from repro.online.epoch import EpochRescheduler
        from repro.workloads.arrivals import make_trace

        trace = make_trace("poisson", "mixed", 64, 16, seed=seed)
        result = EpochRescheduler("mrt").replay(trace)
        makespan, epochs = REPLAY_GOLDEN[seed]
        assert result.makespan == pytest.approx(makespan, rel=1e-12)
        assert len(result.epochs) == len(epochs)
        for report, (tasks, hits, misses, guesses, span) in zip(result.epochs, epochs):
            assert report.num_tasks == tasks
            assert report.engine == {
                "memo_hits": hits,
                "memo_misses": misses,
                "guesses": guesses,
            }
            assert report.makespan == pytest.approx(span, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(MRT_GOLDEN))
    def test_mrt_search(self, name):
        from repro.core.mrt import MRTScheduler

        branch, length, accepted, hits, misses, makespan, guess, lower = MRT_GOLDEN[name]
        instance = golden_instance(name)
        scheduler = MRTScheduler()
        schedule = scheduler.schedule(instance)
        result = scheduler.last_result
        assert result.branch == branch
        assert len(result.search.trace) == length
        assert "".join("A" if g.accepted else "r" for g in result.search.trace) == accepted
        info = instance.engine.cache_info()
        assert (info["hits"], info["misses"]) == (hits, misses)
        assert schedule.makespan() == pytest.approx(makespan, rel=1e-12)
        assert result.best_guess == pytest.approx(guess, rel=1e-12)
        assert result.lower_bound == pytest.approx(lower, rel=1e-12)


# --------------------------------------------------------------------------- #
# the piece table: a miss in a known piece of γ must be indistinguishable
# from the vectorized pass it replaces
# --------------------------------------------------------------------------- #
#: a few repeated values make ties between rows and columns (equal prefix
#: minima) common, next to arbitrary floats.
profile_values = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def profile_instances(draw) -> Instance:
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for i in range(n):
        times = draw(st.lists(profile_values, min_size=m, max_size=m))
        if draw(st.booleans()):
            tasks.append(MalleableTask(f"t{i}", times, require_monotonic=False))
        else:
            tasks.append(MalleableTask.monotonic_envelope(f"t{i}", times))
    return Instance(tasks, m)


def piece_deadlines(instance: Instance, rng_values: list[float]) -> list[float]:
    """Every breakpoint b with b - EPS and its two float neighbours, plus
    random, zero, negative, infinite and NaN deadlines."""
    breaks = np.minimum.accumulate(instance.times_matrix, axis=1).ravel()
    out = [0.0, -1.0, math.inf, math.nan] + rng_values
    for b in breaks.tolist():
        below = b - EPS
        out += [b, below, np.nextafter(below, -np.inf), np.nextafter(below, np.inf)]
    return [float(d) for d in out]


def same_float(a: float | None, b: float | None) -> bool:
    return a == b or (a is not None and b is not None and a != a and b != b)


def assert_profile_matches_pass(engine: AllotmentEngine, deadline: float) -> None:
    """``engine.gamma(deadline)`` against the direct pass of a fresh engine.

    Only misses are compared: an LRU hit returns the profile of an earlier
    deadline with the same quantized key (``b - EPS`` and its float
    neighbours share one), which is the LRU's contract, not the table's.
    """
    misses = engine.misses
    profile = engine.gamma(deadline)
    if engine.misses == misses:
        return
    reference = AllotmentEngine(engine.times_matrix, engine.works_matrix)
    direct = reference._compute(deadline)
    for field in ("procs", "times", "works", "mask"):
        assert np.array_equal(getattr(profile, field), getattr(direct, field)), field
    assert profile.feasible == direct.feasible
    assert same_float(profile.deadline, deadline)
    assert same_float(profile.total_work, direct.total_work)
    # the first probe of a fresh engine is always the vectorized pass
    assert same_float(engine.mu_area(deadline), reference.mu_area(deadline))
    alloc = profile.allotment()
    assert (alloc is None) == (direct.allotment() is None)
    if alloc is not None:
        assert alloc.deadline == deadline


class TestPieceTable:
    @settings(max_examples=80, deadline=None)
    @given(
        instance=profile_instances(),
        extra=st.lists(st.floats(min_value=0.0, max_value=60.0), max_size=6),
        data=st.data(),
    )
    def test_piece_path_equals_the_direct_pass(self, instance, extra, data):
        deadlines = piece_deadlines(instance, extra)
        for d in deadlines:
            assert_profile_matches_pass(
                AllotmentEngine(instance.times_matrix, instance.works_matrix), d
            )
        # A one-entry LRU forgets each deadline at once, so on the second
        # pass nearly every probe is a miss answered from the piece table.
        order = data.draw(st.permutations(deadlines))
        warm = AllotmentEngine(
            instance.times_matrix, instance.works_matrix, cache_size=1
        )
        for d in order + order:
            assert_profile_matches_pass(warm, d)


class TestThreadSafety:
    def test_shared_engine_under_eight_threads(self):
        """The experiment runner's thread fallback shares one engine per
        instance: concurrent probes must see the serial answers, and every
        probe must count exactly once as a hit or a miss."""
        instance = make_workload("mixed", 24, 16, seed=5)
        lb = instance.lower_bound()
        deadlines = [float(d) for d in np.linspace(lb * 0.5, lb * 3.0, 150)] * 2
        random.Random(7).shuffle(deadlines)
        serial = AllotmentEngine(instance.times_matrix, instance.works_matrix)
        expected = [
            (serial.gamma(d).procs.tolist(), serial.total_work(d), serial.mu_area(d))
            for d in deadlines
        ]
        shared = AllotmentEngine(instance.times_matrix, instance.works_matrix)
        start = threading.Barrier(8)
        results: list[list | None] = [None] * 8

        def probe(slot: int) -> None:
            start.wait(timeout=30)
            results[slot] = [
                (shared.gamma(d).procs.tolist(), shared.total_work(d), shared.mu_area(d))
                for d in deadlines
            ]

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in results)
        info = shared.cache_info()
        assert info["hits"] + info["misses"] == 8 * 3 * len(deadlines)

    def test_cache_info_waits_for_the_lock(self):
        """``cache_info`` reads the counters ``gamma`` updates under the
        lock, so it must wait for the lock too: a snapshot taken mid-update
        could pair the hits of one moment with the size of another."""
        instance = make_workload("mixed", 8, 4, seed=1)
        engine = AllotmentEngine(instance.times_matrix, instance.works_matrix)
        engine.gamma(instance.lower_bound())
        snapshots: list[dict] = []
        reader = threading.Thread(target=lambda: snapshots.append(engine.cache_info()))
        with engine._lock:
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive() and snapshots == []
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert snapshots == [{"hits": 0, "misses": 1, "size": 1, "maxsize": engine._cache_size}]
