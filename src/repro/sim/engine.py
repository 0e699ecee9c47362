"""Discrete-event simulator of an ``m``-processor machine.

Two entry points:

* :func:`simulate_schedule` *executes* a static :class:`~repro.model.schedule.Schedule`
  event by event, checking dynamically that no processor is ever claimed by
  two tasks and reporting per-processor busy times, utilisation and the
  simulated makespan — an independent end-to-end re-validation of any
  scheduler's output, used by the integration tests.
* :class:`OnlineListSimulator` runs an *online* contiguous list-scheduling
  policy for a rigid allotment: tasks wait in a priority queue and are
  started, in priority order, whenever a contiguous block of free processors
  of the required width exists.  Unlike the static list scheduler of
  :mod:`repro.core.list_scheduling` it naturally back-fills freed processors,
  providing the "what a runtime system would actually do" comparison point
  used in the examples.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvalidScheduleError, SchedulingError
from ..model.allotment import Allotment
from ..model.instance import Instance
from ..model.schedule import Schedule
from .events import Event, EventKind, times_close

__all__ = ["SimulationResult", "simulate_schedule", "OnlineListSimulator"]


@dataclass
class SimulationResult:
    """Outcome of executing a schedule on the simulated machine."""

    makespan: float
    events: list[Event] = field(default_factory=list)
    busy_time: np.ndarray | None = None
    num_procs: int = 0
    #: Simulated completion time of the last task on each processor (0.0 for
    #: processors that never ran a task).  Lets validators pinpoint *where*
    #: the simulated execution diverges from a schedule's static view.
    finish_time: np.ndarray | None = None

    @property
    def utilization(self) -> float:
        """Average processor utilisation over the simulated horizon."""
        if self.busy_time is None or self.makespan <= 0 or self.num_procs == 0:
            return 0.0
        return float(self.busy_time.sum() / (self.num_procs * self.makespan))

    def per_processor_utilization(self) -> np.ndarray:
        """Utilisation of each processor individually."""
        if self.busy_time is None or self.makespan <= 0:
            return np.zeros(self.num_procs)
        return self.busy_time / self.makespan


def simulate_schedule(schedule: Schedule, *, tol: float = 1e-9) -> SimulationResult:
    """Execute a static schedule and re-check it dynamically.

    Raises :class:`~repro.exceptions.InvalidScheduleError` if a task starts
    on a processor that is still busy.  A start that collides with an owner
    finishing within ``tol`` of it is treated as starting *after* that
    finish: float drift (e.g. the per-epoch shifts of a stitched online
    timeline) can order a start one ulp before the finish it logically
    abuts, and that must not read as an overlap.
    """
    instance = schedule.instance
    m = instance.num_procs
    events: list[Event] = []
    seq = 0
    for entry in schedule.entries:
        events.append(
            Event(
                time=entry.start,
                priority=1,
                sequence=seq,
                kind=EventKind.TASK_START,
                task_index=entry.task_index,
                first_proc=entry.first_proc,
                num_procs=entry.num_procs,
            )
        )
        seq += 1
        events.append(
            Event(
                time=entry.end,
                priority=0,
                sequence=seq,
                kind=EventKind.TASK_FINISH,
                task_index=entry.task_index,
                first_proc=entry.first_proc,
                num_procs=entry.num_procs,
            )
        )
        seq += 1
    events.sort()
    owner = np.full(m, -1, dtype=int)  # task currently running on each processor
    owner_end = np.zeros(m)  # scheduled finish time of the current owner
    #: (task, proc) pairs released by a within-``tol`` start before their own
    #: finish event arrived; the finish event then just clears the record.
    early_released: set[tuple[int, int]] = set()
    busy = np.zeros(m)
    finish = np.zeros(m)
    makespan = 0.0
    processed: list[Event] = []
    for event in events:
        if event.kind is EventKind.TASK_FINISH:
            for proc in event.procs:
                if owner[proc] == event.task_index:
                    owner[proc] = -1
                elif (event.task_index, proc) in early_released:
                    early_released.discard((event.task_index, proc))
                else:
                    raise InvalidScheduleError(
                        f"finish event of task {event.task_index} on processor {proc} "
                        f"which it does not own"
                    )
                finish[proc] = max(finish[proc], event.time)
            makespan = max(makespan, event.time)
        else:
            for proc in event.procs:
                if owner[proc] != -1:
                    if owner_end[proc] <= event.time or times_close(
                        owner_end[proc], event.time, tol=tol
                    ):
                        # The owner finishes within tolerance of this start:
                        # release it now, let its finish event clear the record.
                        early_released.add((int(owner[proc]), proc))
                        owner[proc] = -1
                    else:
                        other = instance.tasks[int(owner[proc])].name
                        name = instance.tasks[event.task_index].name
                        raise InvalidScheduleError(
                            f"task {name!r} starts on processor {proc} while {other!r} "
                            f"is still running"
                        )
                owner[proc] = event.task_index
            duration = instance.tasks[event.task_index].time(event.num_procs)
            block = slice(event.first_proc, event.first_proc + event.num_procs)
            owner_end[block] = event.time + duration
            busy[block] += duration
        processed.append(event)
    if np.any(owner != -1):
        raise InvalidScheduleError("simulation ended with tasks still running")
    return SimulationResult(
        makespan=makespan,
        events=processed,
        busy_time=busy,
        num_procs=m,
        finish_time=finish,
    )


class OnlineListSimulator:
    """Online contiguous list scheduling of a rigid allotment.

    Tasks enter the waiting queue at their release time (offline instances
    release everything at 0) and are kept in a fixed priority order.  Every
    time processors free up — or a new task arrives — the waiting queue is
    scanned in priority order and every *released* task whose processor
    requirement fits a contiguous free block is started (leftmost fitting
    block).  This is the event-driven counterpart of Graham's list
    scheduling with contiguous allocations; since it honours release times,
    it also runs arrival-by-arrival traces as a greedy online policy.
    """

    def __init__(self, allotment: Allotment, order: list[int] | None = None) -> None:
        self.allotment = allotment
        self.instance = allotment.instance
        if order is None:
            times = allotment.times()
            order = sorted(range(len(allotment)), key=lambda i: (-times[i], i))
        self.order = list(order)

    def _find_block(self, free: np.ndarray, width: int) -> int | None:
        """Leftmost contiguous block of ``width`` free processors, or None."""
        run = 0
        for proc in range(free.size):
            if free[proc]:
                run += 1
                if run >= width:
                    return proc - width + 1
            else:
                run = 0
        return None

    def run(self) -> Schedule:
        """Simulate the policy and return the resulting schedule."""
        instance = self.instance
        m = instance.num_procs
        releases = np.array([t.release_time for t in instance.tasks], dtype=float)
        free = np.ones(m, dtype=bool)
        pending = list(self.order)
        schedule = Schedule(instance, algorithm="online-list")
        finish_heap: list[tuple[float, int, int, int]] = []  # (time, task, first, width)
        clock = 0.0
        guard = 0
        while pending or finish_heap:
            guard += 1
            if guard > 10 * (instance.num_tasks + 1) * (m + 1):
                raise SchedulingError("online simulation failed to make progress")
            # Start every released pending task that fits, in priority order.
            started_any = True
            while started_any:
                started_any = False
                for task_index in list(pending):
                    if releases[task_index] > clock and not times_close(
                        releases[task_index], clock, tol=1e-12
                    ):
                        continue  # not arrived yet
                    width = self.allotment[task_index]
                    block = self._find_block(free, width)
                    if block is None:
                        continue
                    duration = instance.tasks[task_index].time(width)
                    schedule.add(task_index, clock, block, width)
                    free[block : block + width] = False
                    heapq.heappush(
                        finish_heap, (clock + duration, task_index, block, width)
                    )
                    pending.remove(task_index)
                    started_any = True
            # Next event: the earliest completion or the next arrival,
            # whichever comes first (arrivals can back-fill a busy machine).
            next_release = min(
                (
                    releases[i]
                    for i in pending
                    if releases[i] > clock
                    and not times_close(releases[i], clock, tol=1e-12)
                ),
                default=None,
            )
            if not finish_heap:
                if next_release is None:
                    if pending:
                        raise SchedulingError(
                            "pending tasks cannot be started on an idle machine"
                        )
                    break
                clock = float(next_release)
                continue
            if next_release is not None and next_release < finish_heap[0][0]:
                clock = float(next_release)
                continue
            # Advance to the next completion(s).
            clock, task_index, block, width = heapq.heappop(finish_heap)
            free[block : block + width] = True
            while finish_heap and times_close(finish_heap[0][0], clock, tol=1e-12):
                _, t2, b2, w2 = heapq.heappop(finish_heap)
                free[b2 : b2 + w2] = True
        schedule.validate(respect_release=True)
        return schedule
