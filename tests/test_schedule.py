"""Unit tests for Schedule / ScheduledTask (repro.model.schedule)."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_property_based import instances

from repro import Instance, InvalidScheduleError, MalleableTask, ModelError, Schedule
from repro.model.schedule import ScheduledTask
from repro.registry import ALGORITHMS, make_scheduler


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

    def test_negative_index_does_not_wrap_to_a_task(self):
        """Index -1 would name the last task: task 1 would then run twice."""
        two = Instance.from_profiles([[2.0, 1.5], [3.0, 2.0]])
        sched = Schedule(two)
        sched.add(0, 0.0, 0, 2)
        sched.add(1, 1.5, 0, 2)
        sched.extend([ScheduledTask(-1, 5.0, 0, 2, 2.0)])
        with pytest.raises(InvalidScheduleError, match=r"task index -1 outside 0\.\.1"):
            sched.validate()

    def test_index_past_the_last_task_is_rejected(self):
        two = Instance.from_profiles([[2.0, 1.5], [3.0, 2.0]])
        sched = Schedule(two)
        sched.add(0, 0.0, 0, 2)
        sched.add(1, 1.5, 0, 2)
        sched.extend([ScheduledTask(2, 5.0, 0, 2, 2.0)])
        with pytest.raises(InvalidScheduleError, match=r"task index 2 outside 0\.\.1"):
            sched.validate()

    @pytest.mark.parametrize("start", [math.inf, math.nan, -math.inf])
    def test_non_finite_start_detected(self, start):
        two = Instance.from_profiles([[2.0, 1.5], [3.0, 2.0]])
        sched = Schedule(two)
        sched.add(0, 0.0, 0, 2)
        sched.add(1, start, 0, 2)
        with pytest.raises(InvalidScheduleError, match="non-finite times"):
            sched.validate()

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_detected(self, duration):
        two = Instance.from_profiles([[2.0, 1.5], [3.0, 2.0]])
        sched = Schedule(two)
        sched.add(0, 0.0, 0, 2)
        sched.extend([ScheduledTask(1, 1.5, 0, 2, duration)])
        with pytest.raises(InvalidScheduleError, match="non-finite times"):
            sched.validate()

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


# ---------------------------------------------------------------------- #
# the one-pass verdict against the check-by-check loop
# ---------------------------------------------------------------------- #
#: Ways to break a valid schedule, each aimed at one check; ``none`` and a
#: tol/2 ``touch`` leave it valid unless the moved entry lands on a third.
MUTANTS = (
    "none", "overlap", "touch", "duration", "past-machine", "before-machine",
    "no-procs", "float-procs", "missing", "duplicate", "negative-index",
    "index-out-of-range", "negative-start", "non-finite", "release",
)

def outcome(check, **kwargs):
    """``None`` when ``check`` passes, else the exception's type and text."""
    try:
        check(**kwargs)
    except Exception as exc:  # TypeError too: ill-typed fields
        return type(exc), str(exc)
    return None


def mutate(entries, kind, m, n, tol, pick):
    """``entries`` broken as ``kind`` says, at the entry ``pick`` selects."""
    entries = list(entries)
    i = pick % len(entries)
    e = entries[i]
    if kind == "overlap" or kind == "touch":
        # Another entry moved to start 2·tol (or tol/2) before ``e`` ends,
        # on a block that shares ``e``'s first processor.
        assume(len(entries) >= 2)
        j = (i + 1) % len(entries)
        f = entries[j]
        gap = 2 * tol if kind == "overlap" else tol / 2
        first = min(e.first_proc, m - f.num_procs)
        entries[j] = dataclasses.replace(f, start=e.end - gap, first_proc=first)
    elif kind == "duration":
        entries[i] = dataclasses.replace(e, duration=e.duration + 2 * tol * max(1.0, e.duration))
    elif kind == "past-machine":
        entries[i] = dataclasses.replace(e, first_proc=m - e.num_procs + 1)
    elif kind == "before-machine":
        entries[i] = dataclasses.replace(e, first_proc=-1)
    elif kind == "no-procs":
        entries[i] = dataclasses.replace(e, num_procs=0)
    elif kind == "float-procs":
        entries[i] = dataclasses.replace(e, num_procs=float(e.num_procs))
    elif kind == "missing":
        del entries[i]
    elif kind == "duplicate":
        # After every other entry, so no overlap hides the duplicate.
        later = max(x.end for x in entries) + 1.0
        entries.append(dataclasses.replace(e, start=later))
    elif kind == "negative-index":
        entries[i] = dataclasses.replace(e, task_index=-1 - pick % n)
    elif kind == "index-out-of-range":
        entries[i] = dataclasses.replace(e, task_index=n)
    elif kind == "negative-start":
        entries[i] = dataclasses.replace(e, start=-2 * tol)
    elif kind == "non-finite":
        value = (math.nan, math.inf)[pick % 2]
        entries[i] = dataclasses.replace(e, **{("start", "duration")[pick // 2 % 2]: value})
    return entries


class TestOnePassVerdict:
    """``Schedule._passes`` against the loop it short-cuts.

    The loop (``_raise_first_violation``) is the reference.  Over valid
    schedules from every registered scheduler and over mutants of them,
    ``validate()`` must fail exactly when the loop fails, with its exact
    exception and message, and the verdict must pass exactly when the loop
    passes.
    """

    @pytest.mark.parametrize("kind", MUTANTS)
    @given(
        inst=instances(),
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
        pick=st.integers(min_value=0, max_value=50),
        release_slack=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=6, max_size=6),
        require_complete=st.booleans(),
        respect_release=st.booleans(),
        deadline_kind=st.sampled_from([None, "above", "below"]),
        tol=st.sampled_from([1e-6, 1e-3]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_verdict_agrees_with_the_loop(
        self, kind, inst, algorithm, pick, release_slack, require_complete,
        respect_release, deadline_kind, tol,
    ):
        base = make_scheduler(algorithm).schedule(inst)
        base.validate()
        n, m = inst.num_tasks, inst.num_procs
        entries = sorted(base.entries, key=lambda e: e.task_index)
        # Releases at or before each start, except the ``release`` mutant's
        # task, released 2·tol after its start.
        releases = [
            max(0.0, e.start - slack) for e, slack in zip(entries, release_slack)
        ]
        if kind == "release":
            victim = pick % n
            releases[victim] = entries[victim].start + 2 * tol
        released = inst.with_releases(releases)
        schedule = Schedule(released, algorithm=base.algorithm)
        schedule.extend(mutate(entries, kind, m, n, tol, pick))
        deadline = {
            None: None,
            "above": base.makespan() + tol / 2,
            "below": base.makespan() - 2 * tol,
        }[deadline_kind]
        options = dict(
            require_complete=require_complete,
            deadline=deadline,
            respect_release=respect_release,
            tol=tol,
        )
        reference = outcome(schedule._raise_first_violation, **options)
        assert outcome(schedule.validate, **options) == reference
        verdict = schedule._passes(require_complete, deadline, respect_release, tol)
        assert verdict == (reference is None)
        caught = {
            "overlap": True, "duration": True, "past-machine": True,
            "before-machine": True, "no-procs": True, "float-procs": True,
            "duplicate": True, "index-out-of-range": True,
            "negative-start": True, "missing": require_complete,
            "negative-index": True, "non-finite": True,
            "release": respect_release,
        }.get(kind, False)
        if kind == "none":
            # Releases never exceed the starts here, so only the deadline bites.
            caught = deadline_kind == "below"
            assert (reference is not None) == caught
        elif caught:
            assert reference is not None
