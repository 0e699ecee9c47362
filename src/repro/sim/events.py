"""Event types and the time-comparison helper of the machine simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["EventKind", "Event", "times_close"]


def times_close(a: float, b: float, *, tol: float = 1e-9) -> bool:
    """True when two simulated timestamps coincide within tolerance.

    The one sanctioned way to test time coincidence (a naked ``==``/``!=``
    between time expressions depends on rounding): stitched online
    timelines shift every epoch's entries by a float epoch start, so two
    logically equal timestamps routinely differ by an ulp.  The tolerance
    is scale-aware — ``tol * max(1, |a|, |b|)`` — because an absolute
    epsilon underflows the float64 ulp once timelines grow past ``1/tol``.
    """
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class EventKind(enum.Enum):
    """Kind of a simulation event."""

    TASK_START = "start"
    TASK_FINISH = "finish"


@dataclass(frozen=True, order=True)
class Event:
    """A timestamped simulation event.

    Events are ordered by time; at equal times, finish events are processed
    before start events (``priority`` 0 vs 1) so that a task may start
    exactly when another one releases its processors.
    """

    time: float
    priority: int
    sequence: int
    kind: EventKind = field(compare=False)
    task_index: int = field(compare=False)
    first_proc: int = field(compare=False)
    num_procs: int = field(compare=False)

    @property
    def procs(self) -> range:
        """The processors touched by the event."""
        return range(self.first_proc, self.first_proc + self.num_procs)
