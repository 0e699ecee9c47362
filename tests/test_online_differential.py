"""Differential conformance suite: the barrier kernel vs offline MRT.

The replay kernel stitches per-epoch offline schedules into one timeline,
the correctness-critical path of the online subsystem, so this suite pins
it against the offline scheduler it drives:

(a) with all release times zero, the replay reproduces the offline
    scheduler's makespan bit-exactly (it degenerates to a single epoch
    whose schedule *is* the offline schedule);
(b) the kernel's name rides the ``ReplayResult`` and its metrics, and
    :func:`~repro.registry.make_rescheduler` builds no other kernel;
(c) on Poisson / burst / diurnal / Pareto traces (and Poisson batched at
    a tenth of its arrival span) the makespan stays within 2x of
    clairvoyant offline MRT, and every stitched timeline passes
    ``simulate_and_check(respect_release=True)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.online import EpochRescheduler, PlanCache
from repro.registry import make_rescheduler, make_scheduler
from repro.sim.validate import simulate_and_check
from repro.workloads.arrivals import make_trace
from repro.workloads.generators import WORKLOAD_FAMILIES, make_workload

FAMILIES = sorted(WORKLOAD_FAMILIES)

offline_instances = st.builds(
    make_workload,
    st.sampled_from(FAMILIES),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestOfflineConformance:
    @given(instance=offline_instances)
    @settings(max_examples=25, deadline=None)
    def test_zero_releases_reproduce_offline_makespan_bit_exactly(self, instance):
        """(a) the replay degenerates to the offline schedule at releases 0."""
        offline = make_scheduler("mrt").schedule(instance)
        result = make_rescheduler("barrier", "mrt").replay(instance)
        assert result.makespan == offline.makespan()  # bit-exact, no approx
        assert result.num_epochs == 1

    def test_zero_releases_reproduce_offline_entries(self):
        """Stronger anchor on a few seeds: the *entries* coincide, not just
        the makespan."""
        for seed in range(4):
            instance = make_workload("mixed", 12, 8, seed=seed)
            offline = make_scheduler("mrt").schedule(instance)
            reference = [
                (e.task_index, e.start, e.first_proc, e.num_procs, e.duration)
                for e in offline.entries
            ]
            result = make_rescheduler("barrier", "mrt").replay(instance)
            stitched = [
                (e.task_index, e.start, e.first_proc, e.num_procs, e.duration)
                for e in result.schedule.entries
            ]
            assert sorted(stitched) == sorted(reference)


class TestKernelIdentity:
    def test_metrics_report_the_kernel_name(self):
        """(b) the result and its metrics name the kernel that ran."""
        trace = make_trace("poisson", "mixed", 10, 6, seed=5)
        result = make_rescheduler("barrier", "mrt").replay(trace)
        assert result.kernel == "barrier"
        assert result.metrics()["kernel"] == "barrier"

    def test_barrier_is_the_only_kernel(self):
        assert isinstance(make_rescheduler("barrier", "mrt"), EpochRescheduler)
        assert EpochRescheduler.kernel == "barrier"
        with pytest.raises(ModelError) as excinfo:
            make_rescheduler("availability", "mrt")
        assert str(excinfo.value) == (
            "unknown online kernel 'availability'; choose from ['barrier']"
        )

    def test_make_rescheduler_forwards_its_settings(self):
        cache = PlanCache(8)
        rescheduler = make_rescheduler(
            "barrier", "sequential", {}, quantum=2.5, plan_cache=cache
        )
        assert isinstance(rescheduler, EpochRescheduler)
        assert rescheduler.algorithm == "sequential"
        assert rescheduler.quantum == 2.5
        assert rescheduler.plan_cache is cache

    def test_epoch_reports_count_every_task_once(self):
        """Per-epoch makespan is the epoch's span, and the per-epoch task
        counts add up to the trace exactly."""
        for seed in range(4):
            trace = make_trace("pareto", "mixed", 16, 6, seed=seed)
            result = make_rescheduler("barrier", "mrt").replay(trace)
            assert sum(e.num_tasks for e in result.epochs) == trace.num_tasks
            for epoch in result.epochs:
                assert epoch.makespan == pytest.approx(epoch.end - epoch.start)


class TestClairvoyantRatio:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "pattern,batched",
        [("poisson", False), ("burst", False), ("diurnal", False),
         ("pareto", False), ("poisson", True)],
        ids=["poisson", "burst", "diurnal", "pareto", "poisson-quantum"],
    )
    def test_kernels_within_2x_of_clairvoyant_offline(self, pattern, batched, seed):
        """(c) Offline MRT gets every task up front with releases erased, so
        its makespan bounds what a release-respecting replay can reach."""
        trace = make_trace(pattern, "mixed", 14, 8, seed=seed)
        span = float(trace.release_times.max())
        quantum = span / 10.0 if batched and span > 0 else None
        offline = make_scheduler("mrt").schedule(trace).makespan()
        result = make_rescheduler("barrier", "mrt", quantum=quantum).replay(trace)
        simulate_and_check(result.schedule, respect_release=True)
        assert result.makespan <= 2.0 * offline, result.makespan / offline
