"""Differential conformance suite: availability kernel vs barrier vs offline.

The availability kernel rewrites the hottest correctness-critical path of
the online subsystem (timeline stitching), so this suite pins it against
two independent references:

(a) with all release times zero, *both* kernels reproduce the offline
    scheduler's makespan bit-exactly (the replay degenerates to a single
    epoch whose schedule *is* the offline schedule);
(b) on random Poisson / burst / Pareto traces the availability kernel's
    mean flow time never exceeds the barrier kernel's, and every stitched
    timeline passes ``simulate_and_check(respect_release=True)``;
(c) the kernel choice never changes the ``ReplayResult`` field shapes (nor
    the ``POST /replay`` response shape), so clients cannot observe a
    schema difference between kernels;
(d) on Poisson / burst / diurnal / Pareto traces (and Poisson batched at
    a tenth of its arrival span) each kernel's makespan stays within 2x
    of clairvoyant offline MRT, and the arrival-by-arrival baselines'
    timelines respect release dates too.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import (
    AvailabilityRescheduler,
    EpochRescheduler,
    compute_replay_response,
    first_fit_replay,
    online_list_replay,
)
from repro.registry import ONLINE_KERNELS, make_rescheduler, make_scheduler
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

random_traces = st.builds(
    make_trace,
    st.sampled_from(["poisson", "burst", "pareto"]),
    st.sampled_from(FAMILIES),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestOfflineConformance:
    @given(instance=offline_instances)
    @settings(max_examples=25, deadline=None)
    def test_zero_releases_reproduce_offline_makespan_bit_exactly(self, instance):
        """(a) both kernels degenerate to the offline schedule at releases 0."""
        offline = make_scheduler("mrt").schedule(instance)
        for kernel in ONLINE_KERNELS:
            result = make_rescheduler(kernel, "mrt").replay(instance)
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
            for kernel in ONLINE_KERNELS:
                result = make_rescheduler(kernel, "mrt").replay(instance)
                stitched = [
                    (e.task_index, e.start, e.first_proc, e.num_procs, e.duration)
                    for e in result.schedule.entries
                ]
                assert sorted(stitched) == sorted(reference)


class TestFlowDominance:
    @given(trace=random_traces)
    @settings(max_examples=25, deadline=None)
    def test_availability_flow_never_exceeds_barrier(self, trace):
        """(b) mean-flow dominance + validated stitched timelines."""
        barrier = EpochRescheduler("mrt").replay(trace)
        avail = AvailabilityRescheduler("mrt").replay(trace)
        simulate_and_check(barrier.schedule, respect_release=True)
        simulate_and_check(avail.schedule, respect_release=True)
        assert float(avail.flow_times().mean()) <= float(
            barrier.flow_times().mean()
        ) + 1e-9

    @given(trace=random_traces, quantum_tenths=st.integers(min_value=1, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_dominance_holds_under_quantum_batching(self, trace, quantum_tenths):
        span = float(trace.release_times.max())
        if span <= 0:
            return
        quantum = span * quantum_tenths / 10.0
        barrier = EpochRescheduler("mrt", quantum=quantum).replay(trace)
        avail = AvailabilityRescheduler("mrt", quantum=quantum).replay(trace)
        simulate_and_check(avail.schedule, respect_release=True)
        assert float(avail.flow_times().mean()) <= float(
            barrier.flow_times().mean()
        ) + 1e-9


class TestShapeConformance:
    @pytest.fixture(scope="class")
    def results(self):
        trace = make_trace("poisson", "mixed", 10, 6, seed=5)
        return trace, {
            kernel: make_rescheduler(kernel, "mrt").replay(trace)
            for kernel in ONLINE_KERNELS
        }

    def test_replay_result_fields_identical(self, results):
        """(c) the dataclass fields and metric keys match across kernels."""
        _, by_kernel = results
        field_names = {
            kernel: [f.name for f in dataclasses.fields(result)]
            for kernel, result in by_kernel.items()
        }
        assert len({tuple(names) for names in field_names.values()}) == 1
        metric_keys = {
            kernel: sorted(result.metrics()) for kernel, result in by_kernel.items()
        }
        assert len({tuple(keys) for keys in metric_keys.values()}) == 1
        epoch_keys = {
            kernel: sorted(result.epochs[0].as_dict())
            for kernel, result in by_kernel.items()
        }
        assert len({tuple(keys) for keys in epoch_keys.values()}) == 1

    def test_replay_response_shape_identical(self, results):
        trace, _ = results
        shapes = []
        for kernel in ONLINE_KERNELS:
            response = compute_replay_response(
                trace, make_rescheduler(kernel, "mrt"), True
            )
            shapes.append(
                (
                    sorted(response),
                    sorted(response["result"]),
                    sorted(response["validation"]),
                    sorted(response["result"]["epochs"][0]),
                    sorted(response["result"]["schedule"]),
                )
            )
            assert response["result"]["kernel"] == kernel
        assert shapes[0] == shapes[1]

    def test_metrics_report_the_kernel_name(self, results):
        _, by_kernel = results
        for kernel, result in by_kernel.items():
            assert result.metrics()["kernel"] == kernel
            assert result.kernel == kernel

    def test_registry_names_match_kernel_factories(self):
        """ONLINE_KERNELS (CLI choices) and the factory classes cannot drift."""
        from repro.online import AvailabilityRescheduler, EpochRescheduler

        assert set(ONLINE_KERNELS) == {
            AvailabilityRescheduler.kernel,
            EpochRescheduler.kernel,
        }
        for kernel in ONLINE_KERNELS:
            assert make_rescheduler(kernel, "mrt").kernel == kernel

    def test_schedule_tag_is_consistent_even_on_fallback(self):
        """The availability kernel never leaks barrier metadata: whatever
        timeline the no-regret guard adopts is labelled availability-*."""
        for seed in range(6):
            trace = make_trace("poisson", "mixed", 14, 8, seed=seed)
            result = AvailabilityRescheduler("mrt").replay(trace)
            assert result.kernel == "availability"
            assert result.schedule.algorithm == "availability-mrt"

    def test_epoch_reports_never_double_count_committed_work(self):
        """Per-epoch makespan is the committed span, and the per-epoch task
        counts add up to the trace exactly (deferred work is reported once,
        by the epoch that commits it)."""
        for seed in range(4):
            trace = make_trace("pareto", "mixed", 16, 6, seed=seed)
            result = AvailabilityRescheduler("mrt", fallback=False).replay(trace)
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
        """(d) Offline MRT gets every task up front with releases erased, so
        its makespan bounds what a release-respecting replay can reach."""
        trace = make_trace(pattern, "mixed", 14, 8, seed=seed)
        span = float(trace.release_times.max())
        quantum = span / 10.0 if batched and span > 0 else None
        offline = make_scheduler("mrt").schedule(trace).makespan()
        for kernel in ONLINE_KERNELS:
            result = make_rescheduler(kernel, "mrt", quantum=quantum).replay(trace)
            simulate_and_check(result.schedule, respect_release=True)
            assert result.makespan <= 2.0 * offline, (kernel, result.makespan / offline)
        for replay in (online_list_replay, first_fit_replay):
            simulate_and_check(replay(trace), respect_release=True)
