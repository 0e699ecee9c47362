"""Malleable task model.

A *malleable task* (Section 2 of the paper) is a computational unit that can
be executed on any number of processors ``p`` in ``1..p_max`` with an
execution time ``t(p)`` that depends on the amount of resources allotted to
it.  The paper's *monotonic* assumption states that

* ``t(p)`` is non-increasing in ``p``  (more processors never slow the task
  down), and
* the computational work (or *area*) ``W(p) = p * t(p)`` is non-decreasing in
  ``p`` (speedup is never super-linear — Brent's lemma).

Both directions are used throughout the algorithms of Sections 3 and 4, so
:class:`MalleableTask` validates them at construction time (and exposes
:meth:`MalleableTask.monotonic_envelope` to repair an arbitrary profile into
the closest monotonic one, which is how the workload generators synthesise
valid profiles from noisy speedup models).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ModelError, MonotonicityError

__all__ = ["EPS", "MalleableTask"]

#: Global absolute tolerance used for floating point comparisons on execution
#: times and deadlines.  Algorithms treat ``t <= d + EPS`` as "fits in d".
EPS: float = 1e-9


class MalleableTask:
    """A malleable task described by its execution-time profile.

    Parameters
    ----------
    name:
        Human readable identifier (also used in Gantt charts and tables).
    times:
        Sequence ``times[p-1] = t(p)`` of execution times for ``p`` from 1 to
        ``len(times)`` processors.  All values must be finite and positive.
    require_monotonic:
        If true (default), a :class:`~repro.exceptions.MonotonicityError` is
        raised when the profile violates the monotonic assumption.  When
        false the profile is stored as given; algorithms that rely on
        monotonicity may then lose their guarantee (this mirrors the paper's
        remark that the assumption "can not be asserted for all the
        applications").
    release_time:
        Earliest time at which the task may start (default 0.0 — the paper's
        offline setting).  Only the online replay layer
        (:mod:`repro.online`) interprets release dates; the offline
        schedulers ignore them, and :meth:`Schedule.validate
        <repro.model.schedule.Schedule.validate>` checks them only when
        asked (``respect_release=True``).

    Notes
    -----
    The profile is stored as an immutable ``float64`` NumPy array.  Processor
    counts are 1-based in the public API, matching the paper's notation.
    """

    __slots__ = ("_name", "_times", "_works", "_monotonic", "_release")

    def __init__(
        self,
        name: str,
        times: Sequence[float] | np.ndarray,
        *,
        require_monotonic: bool = True,
        release_time: float = 0.0,
    ) -> None:
        arr = np.asarray(times, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ModelError(
                f"task {name!r}: the execution-time profile must be a non-empty "
                f"1-D sequence, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"task {name!r}: execution times must be finite")
        if np.any(arr <= 0.0):
            raise ModelError(f"task {name!r}: execution times must be positive")
        release = float(release_time)
        if not np.isfinite(release) or release < 0.0:
            raise ModelError(
                f"task {name!r}: release time must be finite and non-negative, "
                f"got {release_time!r}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self._name = str(name)
        self._times = arr
        self._release = release
        works = arr * np.arange(1, arr.size + 1, dtype=float)
        works.setflags(write=False)
        self._works = works
        self._monotonic = self._check_monotonic(arr, works)
        if require_monotonic and not self._monotonic:
            raise MonotonicityError(
                f"task {name!r}: execution-time profile violates the monotonic "
                "assumption (time must be non-increasing and work non-decreasing "
                "in the number of processors); use MalleableTask.monotonic_envelope "
                "to repair it or pass require_monotonic=False"
            )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_checked(
        cls,
        name: str,
        times: np.ndarray,
        works: np.ndarray,
        monotonic: bool,
        release: float,
    ) -> "MalleableTask":
        """A task over rows the caller has already checked.

        The bulk parser of :meth:`Instance.from_dict
        <repro.model.instance.Instance.from_dict>` checks a whole payload
        in one numpy pass and hands each task read-only row views of its
        ``times``/``works`` matrices, with the monotonic flag and the
        release already computed exactly as :meth:`__init__` would.
        """
        task = cls.__new__(cls)
        task._name = name
        task._times = times
        task._works = works
        task._monotonic = monotonic
        task._release = release
        return task

    @staticmethod
    def _check_monotonic(times: np.ndarray, works: np.ndarray) -> bool:
        """Return True when the profile satisfies both monotonic conditions."""
        if times.size == 1:
            return True
        time_ok = bool(np.all(np.diff(times) <= EPS))
        work_ok = bool(np.all(np.diff(works) >= -EPS))
        return time_ok and work_ok

    @classmethod
    def monotonic_envelope(
        cls, name: str, times: Sequence[float] | np.ndarray
    ) -> "MalleableTask":
        """Build a task from ``times`` after repairing monotonicity.

        The repair first enforces non-increasing execution times by a running
        minimum (a scheduler can always ignore extra processors, so the
        repaired time is achievable), then enforces non-decreasing work by a
        running maximum on the work profile expressed back as times
        ``t(p) = max(t(p), W(p-1)/p)``.  The result dominates the original
        profile point-wise from above on time only where necessary, and is
        the canonical way the workload generators sanitise noisy profiles.
        """
        arr = np.asarray(times, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ModelError(
                f"task {name!r}: the execution-time profile must be a non-empty "
                f"1-D sequence, got shape {arr.shape}"
            )
        repaired = np.minimum.accumulate(arr.astype(float))
        # Enforce non-decreasing work: W(p) >= W(p-1)  <=>  t(p) >= W(p-1)/p.
        out = repaired.copy()
        prev_work = out[0]
        for p in range(2, out.size + 1):
            needed = prev_work / p
            if out[p - 1] < needed:
                out[p - 1] = needed
            prev_work = p * out[p - 1]
        return cls(name, out, require_monotonic=True)

    @classmethod
    def constant_work(cls, name: str, work: float, max_procs: int) -> "MalleableTask":
        """A perfectly parallel task: ``t(p) = work / p`` for every ``p``."""
        if max_procs < 1:
            raise ModelError("max_procs must be >= 1")
        p = np.arange(1, max_procs + 1, dtype=float)
        return cls(name, work / p)

    @classmethod
    def rigid(cls, name: str, duration: float, max_procs: int) -> "MalleableTask":
        """A task that does not benefit from parallelism: ``t(p) = duration``."""
        if max_procs < 1:
            raise ModelError("max_procs must be >= 1")
        return cls(name, np.full(max_procs, float(duration)))

    @classmethod
    def from_speedup(
        cls,
        name: str,
        sequential_time: float,
        speedup: Iterable[float] | "np.ndarray",
    ) -> "MalleableTask":
        """Build a task from a sequential time and a speedup curve.

        ``speedup[p-1]`` is the speedup on ``p`` processors; the execution
        time is ``sequential_time / speedup[p-1]``.  The profile is repaired
        with :meth:`monotonic_envelope` so arbitrary speedup curves (for
        instance the parametric families of :mod:`repro.model.speedup`)
        always produce valid monotonic tasks.
        """
        s = np.asarray(list(speedup), dtype=float)
        if np.any(s <= 0):
            raise ModelError(f"task {name!r}: speedups must be positive")
        return cls.monotonic_envelope(name, float(sequential_time) / s)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Identifier of the task."""
        return self._name

    @property
    def max_procs(self) -> int:
        """Largest processor count for which the profile is defined."""
        return int(self._times.size)

    @property
    def times(self) -> np.ndarray:
        """Read-only execution time profile, ``times[p-1] = t(p)``."""
        return self._times

    @property
    def works(self) -> np.ndarray:
        """Read-only work profile, ``works[p-1] = p * t(p)``."""
        return self._works

    @property
    def is_monotonic(self) -> bool:
        """Whether the stored profile satisfies the monotonic assumption."""
        return self._monotonic

    @property
    def release_time(self) -> float:
        """Earliest start time of the task (0.0 in the offline setting)."""
        return self._release

    def time(self, procs: int) -> float:
        """Execution time on ``procs`` processors (1-based)."""
        self._check_procs(procs)
        return float(self._times[procs - 1])

    def work(self, procs: int) -> float:
        """Computational area ``procs * t(procs)``."""
        self._check_procs(procs)
        return float(self._works[procs - 1])

    def speedup(self, procs: int) -> float:
        """Speedup ``t(1) / t(procs)``."""
        self._check_procs(procs)
        return float(self._times[0] / self._times[procs - 1])

    def efficiency(self, procs: int) -> float:
        """Parallel efficiency ``speedup(procs) / procs`` (in ``(0, 1]``)."""
        return self.speedup(procs) / procs

    def sequential_time(self) -> float:
        """Execution time on a single processor, ``t(1)``."""
        return float(self._times[0])

    def min_time(self) -> float:
        """Shortest achievable execution time, ``t(p_max)``."""
        return float(self._times[-1])

    def _check_procs(self, procs: int) -> None:
        if not isinstance(procs, (int, np.integer)):
            raise ModelError(
                f"task {self._name!r}: processor count must be an integer, got "
                f"{type(procs).__name__}"
            )
        if not 1 <= procs <= self._times.size:
            raise ModelError(
                f"task {self._name!r}: processor count {procs} outside 1..{self._times.size}"
            )

    # ------------------------------------------------------------------ #
    # canonical processor numbers (Section 2.1)
    # ------------------------------------------------------------------ #
    def canonical_procs(self, deadline: float) -> int | None:
        """Minimal number of processors executing the task within ``deadline``.

        This is the paper's canonical number γ(d): the smallest ``p`` such
        that ``t(p) <= d``.  Returns ``None`` when even ``p_max`` processors
        cannot meet the deadline (``t(p_max) > d``), which is the paper's
        certificate that no schedule of length ``<= d`` exists.
        """
        if deadline <= 0:
            return None
        idx = np.searchsorted(-self._times, -(deadline + EPS), side="left")
        # ``times`` is non-increasing, so ``-times`` is non-decreasing and
        # ``idx`` is the first position with ``times[idx] <= deadline + EPS``.
        # For non-monotonic profiles fall back to a linear scan.
        if not self._monotonic:
            hits = np.nonzero(self._times <= deadline + EPS)[0]
            return int(hits[0]) + 1 if hits.size else None
        if idx >= self._times.size:
            return None
        return int(idx) + 1

    def canonical_time(self, deadline: float) -> float | None:
        """Execution time at the canonical allotment γ(d), or ``None``."""
        p = self.canonical_procs(deadline)
        return None if p is None else self.time(p)

    def canonical_work(self, deadline: float) -> float | None:
        """Work at the canonical allotment γ(d), or ``None``."""
        p = self.canonical_procs(deadline)
        return None if p is None else self.work(p)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def restricted(self, max_procs: int) -> "MalleableTask":
        """A copy of the task whose profile is truncated to ``max_procs``."""
        if max_procs < 1:
            raise ModelError("max_procs must be >= 1")
        limit = min(max_procs, self.max_procs)
        return MalleableTask(
            self._name,
            self._times[:limit],
            require_monotonic=False,
            release_time=self._release,
        )

    def scaled(self, factor: float) -> "MalleableTask":
        """A copy of the task with all times (and the release) scaled by ``factor``.

        The release time scales with the execution times so that scaling an
        online trace rescales its whole time axis consistently.
        """
        if factor <= 0:
            raise ModelError("scaling factor must be positive")
        return MalleableTask(
            self._name,
            self._times * factor,
            require_monotonic=False,
            release_time=self._release * factor,
        )

    def released(self, release_time: float) -> "MalleableTask":
        """A copy of the task with the given release time (profile unchanged)."""
        return MalleableTask(
            self._name,
            self._times,
            require_monotonic=False,
            release_time=release_time,
        )

    def as_dict(self) -> dict:
        """JSON-serialisable representation of the task.

        ``tolist`` converts the ``float64`` profile to native Python floats;
        ``json`` serialises those with their shortest round-trip ``repr``, so
        ``from_dict(as_dict())`` restores the exact same bits (pinned by a
        property test).  The ``"release"`` key is only emitted for tasks with
        a non-zero release time, so offline instances serialise to the exact
        same bytes as before release dates existed.
        """
        payload = {"name": self._name, "times": self._times.tolist()}
        if self._release > 0.0:
            payload["release"] = self._release
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MalleableTask":
        """Inverse of :meth:`as_dict`."""
        return cls(
            payload["name"],
            payload["times"],
            require_monotonic=False,
            release_time=float(payload.get("release", 0.0)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MalleableTask):
            return NotImplemented
        return (
            self._name == other._name
            and self._release == other._release
            and np.array_equal(self._times, other._times)
        )

    def __hash__(self) -> int:
        return hash((self._name, self._release, self._times.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MalleableTask({self._name!r}, t(1)={self.sequential_time():.3g}, "
            f"t({self.max_procs})={self.min_time():.3g})"
        )
