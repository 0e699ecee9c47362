"""Tests for the discrete-event machine simulator (repro.sim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Allotment,
    Instance,
    InvalidScheduleError,
    MalleableTask,
    MRTScheduler,
    OnlineListSimulator,
    Schedule,
    mixed_instance,
    simulate_and_check,
    simulate_schedule,
)
from repro.baselines.gang import GangScheduler
from repro.baselines.sequential import SequentialLPTScheduler
from repro.registry import ALGORITHMS, make_scheduler
from repro.sim.events import Event, EventKind
from repro.workloads.generators import make_workload


class TestEvents:
    def test_ordering_finish_before_start_at_same_time(self):
        start = Event(1.0, 1, 0, EventKind.TASK_START, 0, 0, 1)
        finish = Event(1.0, 0, 1, EventKind.TASK_FINISH, 1, 0, 1)
        assert sorted([start, finish])[0] is finish

    def test_procs_range(self):
        event = Event(0.0, 1, 0, EventKind.TASK_START, 0, 2, 3)
        assert list(event.procs) == [2, 3, 4]


class TestSimulateSchedule:
    def test_matches_static_makespan(self, medium_instance):
        schedule = MRTScheduler().schedule(medium_instance)
        result = simulate_schedule(schedule)
        assert result.makespan == pytest.approx(schedule.makespan())
        assert result.num_procs == medium_instance.num_procs

    def test_utilization_matches_schedule(self, small_instance):
        schedule = MRTScheduler().schedule(small_instance)
        result = simulate_schedule(schedule)
        assert result.utilization == pytest.approx(schedule.utilization(), rel=1e-6)
        per_proc = result.per_processor_utilization()
        assert per_proc.shape == (small_instance.num_procs,)
        assert (per_proc <= 1.0 + 1e-9).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_finish_times_match_the_static_view_exactly(self, seed):
        """Static and simulated per-processor finish times agree, bit for bit."""
        schedule = MRTScheduler().schedule(make_workload("mixed", 10, 6, seed=seed))
        np.testing.assert_allclose(
            schedule.processor_finish_times(),
            simulate_schedule(schedule).finish_time,
            rtol=0,
            atol=0,
        )

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_scheduler_matches_the_static_view_exactly(self, algorithm):
        instance = make_workload("mixed", 10, 6, seed=3)
        schedule = make_scheduler(algorithm).schedule(instance)
        np.testing.assert_allclose(
            schedule.processor_finish_times(),
            simulate_schedule(schedule).finish_time,
            rtol=0,
            atol=0,
        )

    def test_detects_overlap(self):
        inst = Instance([MalleableTask.rigid("a", 2.0, 2), MalleableTask.rigid("b", 2.0, 2)], 2)
        bad = Schedule(inst)
        bad.add(0, 0.0, 0, 1)
        bad.add(1, 1.0, 0, 1)  # overlaps task a on processor 0
        with pytest.raises(InvalidScheduleError):
            simulate_schedule(bad)

    def test_empty_schedule(self, small_instance):
        result = simulate_schedule(Schedule(small_instance))
        assert result.makespan == 0.0
        assert result.utilization == 0.0

    def test_ulp_drifted_abutment_is_not_an_overlap(self):
        """A start one ulp before the finish it abuts must simulate cleanly.

        Stitched online timelines shift every epoch by its start time, and
        ``(s + clock) + d`` vs ``clock + (s + d)`` can disagree in the last
        ulp — the simulator treats an owner finishing within ``tol`` of a
        start as already finished instead of reporting an overlap.
        """
        inst = Instance(
            [MalleableTask.rigid("a", 2.0, 1), MalleableTask.rigid("b", 2.0, 1)], 1
        )
        schedule = Schedule(inst)
        schedule.add(0, 0.0, 0, 1)  # ends at exactly 2.0
        # one ulp before 2.0: logically abuts task a's finish
        import math

        schedule.add(1, math.nextafter(2.0, 0.0), 0, 1)
        result = simulate_schedule(schedule)
        assert result.makespan == pytest.approx(4.0)

    def test_sub_tolerance_duration_task_simulates(self):
        """A task shorter than ``tol`` must not trip the overlap machinery.

        Its start and finish are closer together than the tolerance window;
        the simulator must still process the start before the finish
        (regression for a timestamp-snapping approach that inverted them).
        """
        inst = Instance([MalleableTask("tiny", [1e-12])], 1)
        schedule = Schedule(inst)
        schedule.add(0, 0.0, 0, 1)
        result = simulate_schedule(schedule)
        assert result.makespan == pytest.approx(1e-12, abs=1e-15)
        # and back-to-back with a sub-tol task in front
        inst2 = Instance(
            [MalleableTask("tiny", [1e-12]), MalleableTask.rigid("b", 1.0, 1)], 1
        )
        chain = Schedule(inst2)
        chain.add(0, 0.0, 0, 1)
        chain.add(1, 1e-12, 0, 1)
        assert simulate_schedule(chain).makespan == pytest.approx(1.0)


class TestSimulateAndCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_scheduler_output_executes_cleanly(self, seed):
        inst = mixed_instance(12, 8, seed=seed)
        for scheduler in (MRTScheduler(), GangScheduler(), SequentialLPTScheduler()):
            result = simulate_and_check(scheduler.schedule(inst))
            assert result.makespan > 0


class TestOnlineListSimulator:
    def test_valid_complete_schedule(self, medium_instance):
        allotment = Allotment.sequential(medium_instance)
        schedule = OnlineListSimulator(allotment).run()
        schedule.validate()
        assert schedule.is_complete()

    def test_respects_allotment(self, small_instance):
        allotment = Allotment.canonical(
            small_instance, small_instance.lower_bound() * 1.5
        )
        if allotment is None:
            pytest.skip("canonical allotment infeasible at this deadline")
        schedule = OnlineListSimulator(allotment).run()
        for entry in schedule.entries:
            assert entry.num_procs == allotment[entry.task_index]

    def test_sequential_tasks_match_lpt_makespan(self, small_instance):
        """With one processor per task the online policy equals static LPT."""
        allotment = Allotment.sequential(small_instance)
        online = OnlineListSimulator(allotment).run()
        static = SequentialLPTScheduler().schedule(small_instance)
        assert online.makespan() == pytest.approx(static.makespan())

    def test_custom_order(self, small_instance):
        allotment = Allotment.sequential(small_instance)
        order = list(range(small_instance.num_tasks))
        schedule = OnlineListSimulator(allotment, order=order).run()
        schedule.validate()

    def test_no_idle_processor_while_task_waits(self, medium_instance):
        """Work-conservation: the online policy never leaves a fitting task waiting."""
        allotment = Allotment.sequential(medium_instance)
        schedule = OnlineListSimulator(allotment).run()
        # with sequential tasks, no processor may be idle before the last start
        last_start = max(e.start for e in schedule.entries)
        finish = schedule.processor_finish_times()
        for proc_intervals in schedule.processor_intervals():
            clock = 0.0
            for start, end, _ in proc_intervals:
                # any idle gap must be after the last task has started
                if start > clock + 1e-9:
                    assert clock >= last_start - 1e-9 or start >= last_start - 1e-9
                clock = max(clock, end)
