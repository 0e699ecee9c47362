"""Unit tests for Schedule / ScheduledTask (repro.model.schedule)."""

from __future__ import annotations

import pytest

from repro import Instance, InvalidScheduleError, MalleableTask, ModelError, Schedule


@pytest.fixture
def inst() -> Instance:
    tasks = [
        MalleableTask("a", [4.0, 2.5, 2.0, 1.8]),
        MalleableTask("b", [3.0, 1.8, 1.5, 1.3]),
        MalleableTask("c", [1.0, 0.9, 0.85, 0.8]),
    ]
    return Instance(tasks, 4)


def full_schedule(inst: Instance) -> Schedule:
    sched = Schedule(inst, algorithm="manual")
    sched.add(0, 0.0, 0, 2)  # a on P0-P1, [0, 2.5)
    sched.add(1, 0.0, 2, 2)  # b on P2-P3, [0, 1.8)
    sched.add(2, 2.5, 0, 1)  # c on P0,   [2.5, 3.5)
    return sched


class TestBuilding:
    def test_add_and_entries(self, inst):
        sched = full_schedule(inst)
        assert len(sched) == 3
        entry = sched.entry_for(0)
        assert entry.start == 0.0
        assert entry.end == pytest.approx(2.5)
        assert list(entry.procs) == [0, 1]
        assert entry.work == pytest.approx(5.0)

    def test_entry_for_missing(self, inst):
        sched = Schedule(inst)
        with pytest.raises(KeyError):
            sched.entry_for(0)

    def test_add_invalid_task_index(self, inst):
        sched = Schedule(inst)
        with pytest.raises(ModelError):
            sched.add(99, 0.0, 0, 1)

    def test_is_complete(self, inst):
        sched = full_schedule(inst)
        assert sched.is_complete()
        partial = Schedule(inst)
        partial.add(0, 0.0, 0, 1)
        assert not partial.is_complete()

    def test_duration_defaults_to_profile(self, inst):
        sched = Schedule(inst)
        entry = sched.add(0, 0.0, 0, 3)
        assert entry.duration == pytest.approx(inst.tasks[0].time(3))


class TestMetrics:
    def test_makespan(self, inst):
        assert full_schedule(inst).makespan() == pytest.approx(3.5)

    def test_empty_makespan(self, inst):
        assert Schedule(inst).makespan() == 0.0

    def test_total_work_and_utilization(self, inst):
        sched = full_schedule(inst)
        expected_work = 2 * 2.5 + 2 * 1.8 + 1 * 1.0
        assert sched.total_work() == pytest.approx(expected_work)
        assert sched.utilization() == pytest.approx(expected_work / (4 * 3.5))
        assert sched.idle_area() == pytest.approx(4 * 3.5 - expected_work)

    def test_processor_intervals(self, inst):
        intervals = full_schedule(inst).processor_intervals()
        assert len(intervals) == 4
        assert [t for _, _, t in intervals[0]] == [0, 2]

    def test_processor_finish_times(self, inst):
        finish = full_schedule(inst).processor_finish_times()
        assert finish[0] == pytest.approx(3.5)
        assert finish[3] == pytest.approx(1.8)


class TestValidation:
    def test_valid_schedule_passes(self, inst):
        full_schedule(inst).validate()

    def test_missing_task_detected(self, inst):
        sched = Schedule(inst)
        sched.add(0, 0.0, 0, 2)
        with pytest.raises(InvalidScheduleError):
            sched.validate()
        sched.validate(require_complete=False)

    def test_duplicate_task_detected(self, inst):
        sched = full_schedule(inst)
        sched.add(0, 5.0, 0, 1)
        with pytest.raises(InvalidScheduleError):
            sched.validate()

    def test_overlap_detected(self, inst):
        sched = Schedule(inst)
        sched.add(0, 0.0, 0, 2)
        sched.add(1, 1.0, 1, 2)  # overlaps task 0 on processor 1
        with pytest.raises(InvalidScheduleError):
            sched.validate(require_complete=False)

    def test_touching_intervals_are_fine(self, inst):
        sched = Schedule(inst)
        sched.add(0, 0.0, 0, 2)
        sched.add(1, 2.5, 0, 2)
        sched.validate(require_complete=False)

    def test_negative_start_detected(self, inst):
        sched = Schedule(inst)
        sched.add(0, -1.0, 0, 1)
        with pytest.raises(InvalidScheduleError):
            sched.validate(require_complete=False)

    def test_out_of_machine_detected(self, inst):
        sched = Schedule(inst)
        sched.add(0, 0.0, 3, 2)  # P3-P4 but machine has P0..P3
        with pytest.raises(InvalidScheduleError):
            sched.validate(require_complete=False)

    def test_wrong_duration_detected(self, inst):
        sched = Schedule(inst)
        sched.add(0, 0.0, 0, 1, duration=99.0)
        with pytest.raises(InvalidScheduleError):
            sched.validate(require_complete=False)

    def test_deadline_check(self, inst):
        sched = full_schedule(inst)
        sched.validate(deadline=3.6)
        with pytest.raises(InvalidScheduleError):
            sched.validate(deadline=3.0)

    def test_is_valid_boolean(self, inst):
        assert full_schedule(inst).is_valid()
        bad = Schedule(inst)
        bad.add(0, -1.0, 0, 1)
        assert not bad.is_valid(require_complete=False)


class TestTransformations:
    def test_shifted(self, inst):
        sched = full_schedule(inst)
        moved = sched.shifted(10.0)
        assert moved.makespan() == pytest.approx(13.5)
        assert moved.entry_for(0).start == pytest.approx(10.0)

    def test_merged_with(self, inst):
        first = Schedule(inst, algorithm="x")
        first.add(0, 0.0, 0, 2)
        second = Schedule(inst)
        second.add(1, 0.0, 2, 2)
        second.add(2, 2.5, 0, 1)
        merged = first.merged_with(second)
        assert merged.is_complete()
        assert merged.algorithm == "x"

    def test_merged_with_other_instance_rejected(self, inst):
        other = Instance([MalleableTask("z", [1.0] * 4)], 4)
        with pytest.raises(ModelError):
            Schedule(inst).merged_with(Schedule(other))

    def test_dict_round_trip(self, inst):
        sched = full_schedule(inst)
        clone = Schedule.from_dict(inst, sched.as_dict())
        assert clone.makespan() == pytest.approx(sched.makespan())
        assert len(clone) == len(sched)
        clone.validate()


class TestCachedMakespan:
    """``makespan()`` is cached; every way of growing a schedule resets it."""

    def test_tracks_add(self, inst):
        sched = Schedule(inst)
        assert sched.makespan() == 0.0
        sched.add(1, 0.0, 2, 2)
        assert sched.makespan() == 1.8
        sched.add(0, 0.0, 0, 2)
        assert sched.makespan() == 2.5
        sched.add(2, 2.5, 0, 1)
        assert sched.makespan() == 3.5
        assert sched.makespan() == max(e.end for e in sched)

    def test_tracks_extend(self, inst):
        sched = full_schedule(inst)
        assert sched.makespan() == 3.5
        target = Schedule(inst)
        assert target.makespan() == 0.0
        target.extend(sched.entries[:2])
        assert target.makespan() == 2.5
        target.extend(sched.entries[2:])
        assert target.makespan() == 3.5

    def test_shifted_and_merged(self, inst):
        sched = full_schedule(inst)
        assert sched.makespan() == 3.5
        moved = sched.shifted(10.0)
        assert moved.makespan() == max(e.end for e in moved)
        assert sched.makespan() == 3.5
        first = Schedule(inst)
        first.add(0, 0.0, 0, 2)
        assert first.makespan() == 2.5
        second = Schedule(inst)
        second.add(2, 2.5, 0, 1)
        assert second.makespan() == 3.5
        merged = first.merged_with(second)
        assert merged.makespan() == 3.5
        assert first.makespan() == 2.5

    def test_empty_and_dict_round_trip(self, inst):
        assert Schedule(inst).makespan() == 0.0
        assert Schedule.from_dict(inst, Schedule(inst).as_dict()).makespan() == 0.0
        sched = full_schedule(inst)
        expected = sched.makespan()
        clone = Schedule.from_dict(inst, sched.as_dict())
        assert clone.makespan() == expected
