"""Level-oriented strip packing for rigid task scheduling.

The second phase of the two-phase baselines must schedule a rigid instance —
rectangles of width ``p_i`` (processors) and height ``t_i(p_i)`` (time) —
inside a strip of width ``m``, minimising the height (makespan).  The paper
points out that this is exactly 2-dimensional strip packing and that the best
absolute guarantee usable in practice at the time was Steinberg's factor 2
[17] as used by Ludwig [12].

This module implements the classical *level* (shelf) algorithms of Coffman,
Garey, Johnson & Tarjan [5]:

* **NFDH** — Next Fit Decreasing Height: sort by non-increasing height, fill
  the current shelf left to right, open a new shelf when the item does not
  fit (asymptotic factor 2, absolute factor 3 with tall items bounded by the
  optimum);
* **FFDH** — First Fit Decreasing Height: like NFDH but an item may be placed
  on *any* earlier shelf with room (asymptotic factor 1.7).

**Substitution note.**  Steinberg's absolute-2 algorithm is intricate and
produces non-shelf packings; we substitute FFDH here.  Every rectangle
produced by the allotment-selection phase has height at most the makespan
target, in which case FFDH's shelves give an absolute factor well below 3 and
empirically close to 2 — the baseline therefore keeps the behaviour the paper
ascribes to it (a constant-factor two-phase method limited by its general
strip-packing phase).  ``benchmarks/bench_expA_comparison.py`` measures the
two-phase baselines built on it against the √3 scheduler.
"""

from __future__ import annotations

from ..exceptions import SchedulingError
from ..model.allotment import Allotment
from ..model.schedule import Schedule
from ..packing.shelves import Shelf

__all__ = ["nfdh_schedule", "ffdh_schedule", "pack_with"]


def _decreasing_height_order(allotment: Allotment) -> list[int]:
    times = allotment.times()
    return sorted(range(len(allotment)), key=lambda i: (-times[i], -allotment[i], i))


def _shelves_to_schedule(
    allotment: Allotment, shelves: list[Shelf], *, algorithm: str
) -> Schedule:
    schedule = Schedule(allotment.instance, algorithm=algorithm)
    for shelf in shelves:
        for placement in shelf.placements:
            schedule.add(
                placement.task_index,
                shelf.start,
                placement.first_proc,
                placement.width,
            )
    schedule.validate()
    return schedule


def nfdh_schedule(allotment: Allotment) -> Schedule:
    """Next Fit Decreasing Height shelf packing of the rigid instance."""
    instance = allotment.instance
    m = instance.num_procs
    shelves: list[Shelf] = []
    current: Shelf | None = None
    for i in _decreasing_height_order(allotment):
        width = allotment[i]
        height = instance.tasks[i].time(width)
        if width > m:
            raise SchedulingError(
                f"task {instance.tasks[i].name!r} is wider than the machine"
            )
        if current is None or not current.fits(width, height):
            start = 0.0 if current is None else current.end
            current = Shelf(start=start, num_procs=m)
            shelves.append(current)
        current.place(i, width, height)
    return _shelves_to_schedule(allotment, shelves, algorithm="nfdh")


def ffdh_schedule(allotment: Allotment) -> Schedule:
    """First Fit Decreasing Height shelf packing of the rigid instance."""
    instance = allotment.instance
    m = instance.num_procs
    shelves: list[Shelf] = []
    for i in _decreasing_height_order(allotment):
        width = allotment[i]
        height = instance.tasks[i].time(width)
        if width > m:
            raise SchedulingError(
                f"task {instance.tasks[i].name!r} is wider than the machine"
            )
        placed = False
        for shelf in shelves:
            if shelf.fits(width, height):
                shelf.place(i, width, height)
                placed = True
                break
        if not placed:
            start = shelves[-1].end if shelves else 0.0
            shelf = Shelf(start=start, num_procs=m)
            shelf.place(i, width, height)
            shelves.append(shelf)
    # FFDH may have grown an earlier shelf after later shelves were opened
    # (an item taller than the shelf's current height never lands on an old
    # shelf because items are sorted by decreasing height, so starts stay
    # consistent) — recompute starts defensively to keep the schedule valid.
    start = 0.0
    for shelf in shelves:
        shelf.start = start
        start += shelf.height
    return _shelves_to_schedule(allotment, shelves, algorithm="ffdh")


def pack_with(allotment: Allotment, method: str) -> Schedule:
    """Dispatch helper: ``method`` is ``"nfdh"``, ``"ffdh"`` or ``"list"``."""
    if method == "nfdh":
        return nfdh_schedule(allotment)
    if method == "ffdh":
        return ffdh_schedule(allotment)
    if method == "list":
        from .listsched import rigid_list_schedule

        return rigid_list_schedule(allotment)
    raise ValueError(f"unknown strip-packing method {method!r}")
