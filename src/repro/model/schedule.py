"""Schedules of malleable tasks on an identical-processor machine.

A :class:`Schedule` assigns every task a start time, a contiguous block of
processors and (implicitly, through the task profile) a duration.  The paper
searches for *non-preemptive, contiguous* schedules, so contiguity is the
default and is part of :meth:`Schedule.validate`; the guarantee of every
algorithm is nevertheless measured against an optimal schedule that may be
preemptive and non-contiguous (handled by the lower bounds, not by this
class).

The class is deliberately strict: every scheduler in the package finishes by
calling :meth:`Schedule.validate`, and the test-suite re-validates every
schedule produced on random instances, so a structural bug in an algorithm
surfaces as an :class:`~repro.exceptions.InvalidScheduleError` rather than as
a silently wrong makespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import InvalidScheduleError, ModelError
from .instance import Instance
from .task import EPS

__all__ = ["ScheduledTask", "Schedule"]


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of a single task inside a schedule.

    Attributes
    ----------
    task_index:
        Index of the task in the instance.
    start:
        Start time (``>= 0``).
    first_proc:
        Index (0-based) of the first processor of the contiguous block.
    num_procs:
        Number of processors allotted; the block is
        ``first_proc .. first_proc + num_procs - 1``.
    duration:
        Execution time; must equal ``task.time(num_procs)``.
    """

    task_index: int
    start: float
    first_proc: int
    num_procs: int
    duration: float

    @property
    def end(self) -> float:
        """Completion time of the task."""
        return self.start + self.duration

    @property
    def procs(self) -> range:
        """The processors used, as a ``range``."""
        return range(self.first_proc, self.first_proc + self.num_procs)

    @property
    def work(self) -> float:
        """Processor-time area occupied by the task."""
        return self.num_procs * self.duration


class Schedule:
    """A complete (or partial) schedule for an instance.

    Parameters
    ----------
    instance:
        The instance being scheduled.
    algorithm:
        Optional name of the algorithm that produced the schedule (reported
        in tables and Gantt charts).
    """

    __slots__ = ("_instance", "_entries", "_algorithm", "_makespan")

    def __init__(self, instance: Instance, *, algorithm: str = "") -> None:
        self._instance = instance
        self._entries: list[ScheduledTask] = []
        self._algorithm = algorithm
        #: cached :meth:`makespan`; ``add`` and ``extend`` reset it.
        self._makespan: float | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(
        self,
        task_index: int,
        start: float,
        first_proc: int,
        num_procs: int,
        *,
        duration: float | None = None,
    ) -> ScheduledTask:
        """Place a task and return the created :class:`ScheduledTask`.

        ``duration`` defaults to the task's execution time on ``num_procs``
        processors; passing an explicit duration is only meant for tests that
        build deliberately inconsistent schedules.
        """
        if not 0 <= task_index < self._instance.num_tasks:
            raise ModelError(f"task index {task_index} out of range")
        task = self._instance.tasks[task_index]
        if duration is None:
            duration = task.time(num_procs)
        entry = ScheduledTask(
            task_index=int(task_index),
            start=float(start),
            first_proc=int(first_proc),
            num_procs=int(num_procs),
            duration=float(duration),
        )
        self._entries.append(entry)
        self._makespan = None
        return entry

    def extend(self, entries: Iterable[ScheduledTask]) -> None:
        """Append pre-built entries (used by schedule transformations)."""
        self._entries.extend(entries)
        self._makespan = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> Instance:
        """The scheduled instance."""
        return self._instance

    @property
    def algorithm(self) -> str:
        """Name of the producing algorithm."""
        return self._algorithm

    @property
    def entries(self) -> tuple[ScheduledTask, ...]:
        """All task placements, in insertion order."""
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries)

    def entry_for(self, task_index: int) -> ScheduledTask:
        """The placement of task ``task_index`` (raises ``KeyError`` if absent)."""
        for entry in self._entries:
            if entry.task_index == task_index:
                return entry
        raise KeyError(task_index)

    def is_complete(self) -> bool:
        """Whether every task of the instance has been placed exactly once."""
        placed = [e.task_index for e in self._entries]
        return sorted(placed) == list(range(self._instance.num_tasks))

    # ------------------------------------------------------------------ #
    # aggregate metrics
    # ------------------------------------------------------------------ #
    def makespan(self) -> float:
        """Completion time of the last task (0 for an empty schedule)."""
        if self._makespan is None:
            self._makespan = max((e.end for e in self._entries), default=0.0)
        return self._makespan

    def total_work(self) -> float:
        """Total processor-time area occupied by tasks."""
        return float(sum(e.work for e in self._entries))

    def utilization(self) -> float:
        """Fraction of the ``m x makespan`` rectangle occupied by tasks."""
        cmax = self.makespan()
        if cmax <= 0:
            return 0.0
        return self.total_work() / (self._instance.num_procs * cmax)

    def idle_area(self) -> float:
        """Idle processor-time area below the makespan."""
        return self._instance.num_procs * self.makespan() - self.total_work()

    def processor_intervals(self) -> list[list[tuple[float, float, int]]]:
        """Per-processor busy intervals ``(start, end, task_index)``, sorted."""
        per_proc: list[list[tuple[float, float, int]]] = [
            [] for _ in range(self._instance.num_procs)
        ]
        for entry in self._entries:
            for proc in entry.procs:
                if 0 <= proc < self._instance.num_procs:
                    per_proc[proc].append((entry.start, entry.end, entry.task_index))
        for intervals in per_proc:
            intervals.sort()
        return per_proc

    def processor_finish_times(self) -> np.ndarray:
        """Completion time of the last task on each processor."""
        finish = np.zeros(self._instance.num_procs)
        for entry in self._entries:
            for proc in entry.procs:
                finish[proc] = max(finish[proc], entry.end)
        return finish

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(
        self,
        *,
        require_complete: bool = True,
        require_contiguous: bool = True,
        deadline: float | None = None,
        respect_release: bool = False,
        tol: float = 1e-6,
    ) -> None:
        """Check every structural constraint; raise on the first violation.

        Parameters
        ----------
        require_complete:
            Every task of the instance must appear exactly once.
        require_contiguous:
            Kept for API symmetry; placements are contiguous by construction
            (a block is stored as ``first_proc`` + ``num_procs``), so this
            only verifies the block lies inside the machine.
        deadline:
            If given, additionally check ``makespan <= deadline + tol``.
        respect_release:
            Additionally check that no task starts before its release time
            (the online-timeline constraint; off by default because the
            offline schedulers ignore release dates).
        tol:
            Absolute tolerance for floating point comparisons.

        The verdict comes from one pass (:meth:`_passes`); only a schedule
        it fails goes through the check-by-check loop, which words the
        first violation.
        """
        if not self._passes(require_complete, deadline, respect_release, tol):
            self._raise_first_violation(require_complete, deadline, respect_release, tol)

    def _passes(
        self,
        require_complete: bool,
        deadline: float | None,
        respect_release: bool,
        tol: float,
    ) -> bool:
        """Whether :meth:`_raise_first_violation` would raise nothing, in one pass.

        Plain Python on purpose: a schedule has about ten entries, too few
        for numpy to pay off.  One loop checks each entry against the
        instance's cached :meth:`~repro.model.instance.Instance.time_rows`
        and counts tasks; a sweep in ``(start, end)`` order keeps each
        processor's latest end, and an entry starting more than ``tol``
        before it overlaps.  That finds an overlap exactly when the loop's
        sorted per-processor pairs do.  ``False`` also stands for "let the
        loop word it": a task index outside ``0..n-1``, a non-finite start
        or end, and an ill-typed field.
        """
        instance = self._instance
        rows = instance.time_rows()
        tasks = instance.tasks
        n = len(rows)
        m = instance.num_procs
        counts = [0] * n
        spans = []
        try:
            for entry in self._entries:
                index = entry.task_index
                start = entry.start
                first = entry.first_proc
                k = entry.num_procs
                duration = entry.duration
                end = start + duration
                if not (0 <= index < n and math.isfinite(end)):
                    return False
                counts[index] += 1
                if start < -tol:
                    return False
                if respect_release and start < tasks[index].release_time - tol:
                    return False
                if k < 1 or first < 0 or first + k > m:
                    return False
                expected = rows[index][k - 1]
                if abs(duration - expected) > tol * max(1.0, expected):
                    return False
                spans.append((start, end, first, k))
            if max(counts) > 1 or (require_complete and min(counts) < 1):
                return False
            spans.sort()
            latest = [-math.inf] * m
            for start, end, first, k in spans:
                block = latest[first : first + k]
                if start < max(block) - tol:
                    return False
                latest[first : first + k] = [end if end > x else x for x in block]
        except TypeError:  # ill-typed fields: the loop words it
            return False
        return deadline is None or not self.makespan() > deadline + tol

    def _raise_first_violation(
        self,
        require_complete: bool,
        deadline: float | None,
        respect_release: bool,
        tol: float,
    ) -> None:
        """Check each constraint in turn; raise on the first violation."""
        m = self._instance.num_procs
        n = self._instance.num_tasks
        seen: dict[int, int] = {}
        for entry in self._entries:
            # The index and the times first: a negative index would wrap to
            # a real task, and a non-finite time would sort and compare as
            # if it were valid.
            if not 0 <= entry.task_index < n:
                raise InvalidScheduleError(
                    f"task index {entry.task_index} outside 0..{n - 1}"
                )
            task = self._instance.tasks[entry.task_index]
            if not (math.isfinite(entry.start) and math.isfinite(entry.end)):
                raise InvalidScheduleError(
                    f"task {task.name!r} runs over non-finite times "
                    f"[{entry.start}, {entry.end})"
                )
            seen[entry.task_index] = seen.get(entry.task_index, 0) + 1
            if entry.start < -tol:
                raise InvalidScheduleError(
                    f"task {task.name!r} starts at negative time {entry.start}"
                )
            if respect_release and entry.start < task.release_time - tol:
                raise InvalidScheduleError(
                    f"task {task.name!r} starts at {entry.start:.6g} before its "
                    f"release time {task.release_time:.6g}"
                )
            if entry.num_procs < 1:
                raise InvalidScheduleError(
                    f"task {task.name!r} uses {entry.num_procs} processors"
                )
            if entry.first_proc < 0 or entry.first_proc + entry.num_procs > m:
                raise InvalidScheduleError(
                    f"task {task.name!r} uses processors "
                    f"{entry.first_proc}..{entry.first_proc + entry.num_procs - 1} "
                    f"outside 0..{m - 1}"
                )
            expected = task.time(entry.num_procs)
            if abs(entry.duration - expected) > tol * max(1.0, expected):
                raise InvalidScheduleError(
                    f"task {task.name!r} recorded duration {entry.duration} but "
                    f"t({entry.num_procs}) = {expected}"
                )
        if require_complete:
            missing = [
                i for i in range(self._instance.num_tasks) if seen.get(i, 0) == 0
            ]
            if missing:
                names = ", ".join(self._instance.tasks[i].name for i in missing[:5])
                raise InvalidScheduleError(
                    f"{len(missing)} task(s) not scheduled (e.g. {names})"
                )
        duplicated = [i for i, count in seen.items() if count > 1]
        if duplicated:
            raise InvalidScheduleError(
                f"task(s) scheduled more than once: {sorted(duplicated)}"
            )
        # Overlap check per processor.
        for proc, intervals in enumerate(self.processor_intervals()):
            for (s1, e1, t1), (s2, e2, t2) in zip(intervals, intervals[1:]):
                if s2 < e1 - tol:
                    n1 = self._instance.tasks[t1].name
                    n2 = self._instance.tasks[t2].name
                    raise InvalidScheduleError(
                        f"tasks {n1!r} and {n2!r} overlap on processor {proc}: "
                        f"[{s1:.4g}, {e1:.4g}) and [{s2:.4g}, {e2:.4g})"
                    )
        if deadline is not None and self.makespan() > deadline + tol:
            raise InvalidScheduleError(
                f"makespan {self.makespan():.6g} exceeds deadline {deadline:.6g}"
            )

    def is_valid(self, **kwargs) -> bool:
        """Boolean variant of :meth:`validate`."""
        try:
            self.validate(**kwargs)
        except InvalidScheduleError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # transformations & serialisation
    # ------------------------------------------------------------------ #
    def shifted(self, offset: float) -> "Schedule":
        """A copy of the schedule with every start time shifted by ``offset``."""
        out = Schedule(self._instance, algorithm=self._algorithm)
        out.extend(
            ScheduledTask(
                e.task_index, e.start + offset, e.first_proc, e.num_procs, e.duration
            )
            for e in self._entries
        )
        return out

    def merged_with(self, other: "Schedule", *, algorithm: str | None = None) -> "Schedule":
        """Union of two partial schedules over the same instance."""
        if other.instance is not self._instance:
            raise ModelError("cannot merge schedules of different instances")
        out = Schedule(
            self._instance, algorithm=algorithm or self._algorithm or other.algorithm
        )
        out.extend(self._entries)
        out.extend(other.entries)
        return out

    def as_dict(self) -> dict:
        """JSON-serialisable representation (without the instance)."""
        return {
            "algorithm": self._algorithm,
            "entries": [
                {
                    "task_index": e.task_index,
                    "start": e.start,
                    "first_proc": e.first_proc,
                    "num_procs": e.num_procs,
                    "duration": e.duration,
                }
                for e in self._entries
            ],
        }

    @classmethod
    def from_dict(cls, instance: Instance, payload: dict) -> "Schedule":
        """Inverse of :meth:`as_dict`."""
        sched = cls(instance, algorithm=payload.get("algorithm", ""))
        for item in payload["entries"]:
            sched.add(
                item["task_index"],
                item["start"],
                item["first_proc"],
                item["num_procs"],
                duration=item["duration"],
            )
        return sched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule(algorithm={self._algorithm!r}, tasks={len(self._entries)}, "
            f"makespan={self.makespan():.4g})"
        )
