"""Tests for the vectorized allotment engine (repro.core.allotment_engine).

The engine must reproduce the scalar reference path —
``MalleableTask.canonical_procs`` / ``canonical_time`` / ``canonical_work``
and the hand-rolled μ-area loop — bit-for-bit across random instances and
deadlines, including non-monotonic profiles and infeasible deadlines, while
running the vectorized pass once per piece of γ.
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
from repro.core.allotment_engine import AllotmentEngine
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


class CountingEngine(AllotmentEngine):
    """An engine that counts its γ(d) probes and its vectorized passes."""

    __slots__ = ("probes", "passes")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.probes = 0
        self.passes = 0

    def gamma(self, deadline: float):
        self.probes += 1
        return super().gamma(deadline)

    def _compute(self, deadline: float):
        self.passes += 1
        return super()._compute(deadline)


def counting_engine(instance: Instance) -> CountingEngine:
    """Install a :class:`CountingEngine` as ``instance``'s engine."""
    instance._engine = CountingEngine(instance.times_matrix, instance.works_matrix)
    return instance._engine


class TestMemoization:
    def test_repeated_deadlines_hit_the_cache(self):
        """A deadline seen before returns its profile; another deadline in
        the same piece shares the arrays and keeps its own ``deadline``."""
        instance = make_workload("mixed", 20, 8, seed=7)
        engine = counting_engine(instance)
        profile = engine.gamma(3.0)
        assert engine.gamma(3.0) is profile
        neighbour = float(np.nextafter(3.0, np.inf))
        twin = engine.gamma(neighbour)
        assert twin.procs is profile.procs and twin.deadline == neighbour
        assert engine.passes == 1

    def test_lower_bound_searches_share_guesses(self):
        """canonical_area_lower_bound is recomputed by dual_search,
        MRTScheduler and best_lower_bound — the repeats run no new pass."""
        from repro.lower_bounds import canonical_area_lower_bound

        instance = make_workload("uniform", 15, 8, seed=3)
        engine = counting_engine(instance)
        first = canonical_area_lower_bound(instance)
        passes_after_first = engine.passes
        probes_after_first = engine.probes
        second = canonical_area_lower_bound(instance)
        assert second == first
        assert engine.passes == passes_after_first  # no new vectorized passes
        assert engine.probes == 2 * probes_after_first

    def test_mrt_scheduler_run_reuses_pieces(self):
        """One MRT guess touches γ(d) several times (Property 2, μ-area,
        partition) plus the repeated lower-bound searches; most probes land
        in a piece computed before."""
        from repro.core.mrt import MRTScheduler

        instance = make_workload("uniform", 12, 8, seed=3)
        engine = counting_engine(instance)
        MRTScheduler().schedule(instance)
        assert 2 * engine.passes < engine.probes

    def test_piece_table_holds_at_most_nm_plus_one_profiles(self):
        """However many deadlines are probed, the table files one profile
        per piece of γ, and γ has at most ``n·m + 1`` pieces."""
        instance = make_workload("uniform", 5, 4, seed=1)
        engine = counting_engine(instance)
        breaks = np.minimum.accumulate(instance.times_matrix, axis=1).ravel()
        probes = np.concatenate(
            [np.linspace(0.01, 2.0 * breaks.max(), 400), breaks, breaks - EPS]
        )
        for d in probes.tolist():
            engine.gamma(d)
        assert len(engine._pieces) <= 5 * 4 + 1
        assert engine.passes == len(engine._pieces)

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
        assert clone._engine is None
        assert clone.engine._pieces == {}
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
# golden searches: every ``/replay`` epoch frame carries the batch's
# certificate (dual guesses, branch, lower bound, ratio), so any change to how
# γ(d) is computed must leave the search that produces it exactly as is.
# --------------------------------------------------------------------------- #
#: seed -> (replay makespan, per epoch: (num_tasks, guesses, branch,
#: lower bound, ratio to the lower bound, epoch makespan)) for
#: ``make_trace("poisson", "mixed", 64, 16)``.
REPLAY_GOLDEN = {
    0: (
        39.00423139928569,
        [
            (1, 2, "two-shelves", 0.4552190078029037, 1.0, 0.4552190078029037),
            (1, 2, "canonical-list", 0.20348562759408942, 1.0, 0.20348562759408942),
            (1, 2, "canonical-list", 1.428663444908074, 1.0, 1.428663444908074),
            (4, 15, "canonical-list", 4.239451314388015, 1.039730576431886, 4.407887158863568),
            (11, 16, "canonical-list", 6.232898267719202, 1.0422843607334398, 6.496452386486272),
            (18, 16, "canonical-list", 10.031029043599727, 1.0111852937980963, 10.143229050549627),
            (23, 16, "canonical-list", 8.743268631384073, 1.157262384051623, 10.118255900759303),
            (5, 2, "canonical-list", 5.6673070606479055, 1.0, 5.6673070606479055),
        ],
    ),
    1: (
        27.811011956828008,
        [
            (1, 2, "canonical-list", 3.3032310481723246, 1.0, 3.3032310481723246),
            (9, 16, "canonical-list", 5.3264304425566795, 1.0107428190263332, 5.3836513208574175),
            (21, 16, "canonical-list", 6.640510824548826, 1.117990499945472, 7.42402801663066),
            (32, 16, "canonical-list", 9.531617157930409, 1.066794347120079, 10.168275302992914),
            (1, 2, "canonical-list", 1.5318262681746904, 1.0, 1.5318262681746904),
        ],
    ),
    2: (
        35.340734323429395,
        [
            (1, 2, "two-shelves", 0.4850566188244845, 1.0, 0.4850566188244845),
            (1, 2, "two-shelves", 0.06653853088674966, 1.0, 0.06653853088674966),
            (1, 2, "two-shelves", 0.1724101972858239, 1.0, 0.1724101972858239),
            (1, 2, "two-shelves", 1.1572428803445722, 1.0, 1.1572428803445722),
            (5, 15, "canonical-list", 3.6958590126318795, 1.0248106017017138, 3.787555498539978),
            (11, 16, "canonical-list", 3.9070970413852057, 1.2202278837701457, 4.767548754494067),
            (14, 2, "two-shelves-trivial", 4.958795661456171, 1.4759310634646352, 7.318840554116826),
            (29, 16, "canonical-list", 14.084154478108129, 1.153235418017541, 16.24234577698465),
            (1, 2, "canonical-list", 0.8196835898392182, 1.0, 0.8196835898392182),
        ],
    ),
}

#: name -> (branch, search length, accepted flags ("A" accept, "r" reject),
#: makespan, best guess, lower bound, ratio to the lower bound).
MRT_GOLDEN = {
    "mixed": (
        "canonical-list", 16, "ArAAAAAAAAAAAAAA",
        9.52646845382975, 8.885087989674561, 8.877864165906718, 1.073058595603866,
    ),
    "heavy-tailed": (
        "canonical-list", 16, "ArAAAAAAAAAAAAAA",
        6.258326873184382, 6.083602546288425, 6.0796234436856675, 1.029393831896664,
    ),
    "uniform": (
        "canonical-list", 15, "ArAAAAAAAAAAAAA",
        7.647603162136561, 6.910169419607097, 6.904462757879249, 1.1076318940831789,
    ),
    "shelf-overflow": (
        "two-shelves-trivial", 2, "AA",
        2.652066233079024, 1.565211433211857, 1.565211433211857, 1.6943820986771807,
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


def expected_certificate(guesses, branch, lower, ratio) -> dict:
    return {
        "guesses": guesses,
        "branch": branch,
        "lower_bound": pytest.approx(lower, rel=1e-12),
        "ratio_to_lower_bound": pytest.approx(ratio, rel=1e-12),
    }


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
        for report, (tasks, guesses, branch, lower, ratio, span) in zip(
            result.epochs, epochs
        ):
            assert report.num_tasks == tasks
            assert report.certificate == expected_certificate(
                guesses, branch, lower, ratio
            )
            assert report.makespan == pytest.approx(span, rel=1e-12)
        assert result.metrics()["guesses"] == sum(epoch[1] for epoch in epochs)

    @pytest.mark.parametrize("name", sorted(MRT_GOLDEN))
    def test_mrt_search(self, name):
        from repro.core.mrt import MRTScheduler
        from repro.online.epoch import certificate

        branch, length, accepted, makespan, guess, lower, ratio = MRT_GOLDEN[name]
        instance = golden_instance(name)
        scheduler = MRTScheduler()
        schedule = scheduler.schedule(instance)
        result = scheduler.last_result
        assert result.branch == branch
        assert len(result.search.trace) == length
        assert "".join("A" if g.accepted else "r" for g in result.search.trace) == accepted
        assert schedule.makespan() == pytest.approx(makespan, rel=1e-12)
        assert result.best_guess == pytest.approx(guess, rel=1e-12)
        assert result.lower_bound == pytest.approx(lower, rel=1e-12)
        assert certificate(scheduler) == expected_certificate(
            length, branch, lower, ratio
        )

    @pytest.mark.parametrize("algorithm", ["gang", "ludwig", "sequential", "turek"])
    def test_other_kernels_have_no_certificate(self, algorithm):
        from repro.online.epoch import EpochRescheduler
        from repro.workloads.arrivals import make_trace

        trace = make_trace("poisson", "mixed", 8, 4, seed=0)
        result = EpochRescheduler(algorithm).replay(trace)
        assert all(epoch.certificate is None for epoch in result.epochs)
        assert result.metrics()["guesses"] == 0


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
    """``engine.gamma(deadline)`` against the direct pass of a fresh engine."""
    profile = engine.gamma(deadline)
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
        # One engine over a shuffled order, twice: every probe after the
        # first of its piece is answered from the piece table.
        order = data.draw(st.permutations(deadlines))
        warm = AllotmentEngine(instance.times_matrix, instance.works_matrix)
        for d in order + order:
            assert_profile_matches_pass(warm, d)


class TestThreadSafety:
    def test_shared_engine_under_eight_threads(self):
        """The experiment runner's thread fallback shares one engine per
        instance: concurrent probes must see the serial answers, and the
        shared table must file the same pieces as the serial one."""
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
        assert shared._pieces.keys() == serial._pieces.keys()
