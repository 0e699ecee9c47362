"""Problem instances: a set of malleable tasks plus a machine size.

An :class:`Instance` bundles the ``n`` independent malleable tasks of the
paper with the number ``m`` of identical processors.  It exposes the
quantities that the algorithms of Sections 3 and 4 are built from:

* canonical allotments γ(d) (minimal processors meeting a deadline ``d``),
* the total canonical work used by Property 2,
* the canonical μ-area ``W_m`` of Definition 1,
* simple makespan lower bounds used to seed the dual-approximation search.

Tasks inside an instance are restricted to ``m`` processors; an instance is
immutable once built.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..exceptions import ModelError
from .task import EPS, MalleableTask

__all__ = ["Instance", "ParsedProfiles", "parse_profiles", "profile_fingerprint"]


def profile_fingerprint(
    num_procs: int,
    times_matrix: np.ndarray,
    release_times: np.ndarray | Sequence[float] | None = None,
) -> str:
    """Content hash shared by :meth:`Instance.fingerprint` and the service.

    Hashes the machine size and the ``(n, m)`` execution-time matrix at full
    ``float64`` precision (little-endian, so the digest is architecture
    independent).  Exposed at module level so the service frontend can
    fingerprint a raw request payload without materialising the
    :class:`Instance` (the cache-hit fast path).

    ``release_times`` extends the hash to online traces.  An all-zero (or
    ``None``) release vector contributes *nothing* to the digest, so
    release-free instances keep the exact fingerprint they had before
    release dates existed — warm service caches stay valid for every
    offline client.
    """
    times = np.ascontiguousarray(times_matrix, dtype="<f8")
    digest = hashlib.sha256()
    digest.update(b"repro-instance-v1")
    digest.update(f"{int(num_procs)}:{times.shape[0]}:{times.shape[1]}".encode())
    digest.update(times.tobytes())
    if release_times is not None:
        releases = np.ascontiguousarray(release_times, dtype="<f8")
        if releases.size and np.any(releases != 0.0):
            digest.update(b"releases-v1")
            digest.update(releases.tobytes())
    return digest.hexdigest()


class ParsedProfiles(NamedTuple):
    """A payload's tasks as checked by :func:`parse_profiles`."""

    num_procs: int
    names: list[str]
    #: read-only ``(n, num_procs)`` execution times, truncated like
    #: :class:`Instance` truncates each profile.
    times: np.ndarray
    releases: list[float]


def parse_profiles(payload: dict) -> ParsedProfiles | None:
    """Check an :meth:`Instance.as_dict` payload's tasks in one numpy pass.

    Stacks every ``times`` list into one ``(n, L)`` matrix and checks the
    full rows at once, as :class:`MalleableTask` checks each profile: finite
    and positive times (past column ``num_procs`` too) and a finite,
    non-negative release.  Returns ``None`` for anything it cannot take
    whole (a missing key, ragged rows, a bad value in any task, a
    ``num_procs`` that is not a plain int in ``1..L``), so the caller falls
    back to the per-task path, which raises the error for the first bad
    task.  Shared by :meth:`Instance.from_dict` and the service's payload
    fingerprint, so both accept exactly the same payloads.
    """
    try:
        entries = payload["tasks"]
        num_procs = payload["num_procs"]
        if type(entries) is not list or type(num_procs) is not int:
            return None
        names = [str(task["name"]) for task in entries]
        releases = [float(task.get("release", 0.0)) for task in entries]
        full = np.array([task["times"] for task in entries], dtype=float)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
        return None  # not an as_dict payload: the per-task path words the error
    if (
        full.ndim != 2
        or num_procs < 1
        or full.shape[1] < num_procs
        or not np.isfinite(full).all()
        or not (full > 0.0).all()
        or not all(0.0 <= release < math.inf for release in releases)
    ):
        return None
    times = np.ascontiguousarray(full[:, :num_procs])
    times.setflags(write=False)
    return ParsedProfiles(num_procs, names, times, releases)


class Instance:
    """An instance of the malleable-task scheduling problem.

    Parameters
    ----------
    tasks:
        The malleable tasks.  Each task must define its profile for at least
        ``num_procs`` processors (larger profiles are truncated).
    num_procs:
        The number ``m`` of identical processors.
    name:
        Optional label used in experiment reports.
    """

    __slots__ = ("_tasks", "_m", "_name", "_engine", "_fingerprint", "_time_rows")

    def __init__(
        self,
        tasks: Sequence[MalleableTask] | Iterable[MalleableTask],
        num_procs: int,
        *,
        name: str = "instance",
    ) -> None:
        task_list = list(tasks)
        if num_procs < 1:
            raise ModelError("num_procs must be >= 1")
        if not task_list:
            raise ModelError("an instance needs at least one task")
        prepared: list[MalleableTask] = []
        for task in task_list:
            if not isinstance(task, MalleableTask):
                raise ModelError(
                    f"expected MalleableTask, got {type(task).__name__}"
                )
            if task.max_procs < num_procs:
                raise ModelError(
                    f"task {task.name!r} defines only {task.max_procs} processor "
                    f"counts but the machine has {num_procs} processors"
                )
            prepared.append(
                task if task.max_procs == num_procs else task.restricted(num_procs)
            )
        self._tasks: tuple[MalleableTask, ...] = tuple(prepared)
        self._m = int(num_procs)
        self._name = str(name)
        self._engine = None
        self._fingerprint: str | None = None
        self._time_rows: list[list[float]] | None = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Label of the instance."""
        return self._name

    @property
    def tasks(self) -> tuple[MalleableTask, ...]:
        """The tasks of the instance (immutable tuple)."""
        return self._tasks

    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n``."""
        return len(self._tasks)

    @property
    def num_procs(self) -> int:
        """Number of processors ``m``."""
        return self._m

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[MalleableTask]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> MalleableTask:
        return self._tasks[index]

    def task_index(self, name: str) -> int:
        """Index of the task called ``name`` (first match)."""
        for i, task in enumerate(self._tasks):
            if task.name == name:
                return i
        raise KeyError(name)

    # ------------------------------------------------------------------ #
    # vectorized allotment engine
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The per-instance :class:`~repro.core.allotment_engine.AllotmentEngine`.

        Built lazily from the stacked profile matrices on first use and then
        shared by every canonical-allotment consumer (schedulers, lower
        bounds, partition), so repeated dual-search guesses hit its piece
        table.  The engine is dropped on pickling (worker processes rebuild
        their own).
        """
        if self._engine is None:
            # Local import: the engine lives in the core layer, which imports
            # the model layer at module scope.
            from ..core.allotment_engine import AllotmentEngine

            self._engine = AllotmentEngine(self.times_matrix, self.works_matrix)
        return self._engine

    @property
    def times_matrix(self) -> np.ndarray:
        """Stacked execution-time profiles, ``times[i, p-1] = t_i(p)``.

        Rectangular ``(n, m)`` because the constructor truncates every
        profile to exactly ``m`` columns.
        """
        return np.vstack([t.times for t in self._tasks])

    @property
    def works_matrix(self) -> np.ndarray:
        """Stacked work profiles, ``works[i, p-1] = p · t_i(p)``."""
        return np.vstack([t.works for t in self._tasks])

    def time_rows(self) -> list[list[float]]:
        """:attr:`times_matrix` as nested Python floats, built once.

        :meth:`Schedule.validate <repro.model.schedule.Schedule.validate>`
        reads its expected durations here: a list lookup is cheaper than a
        numpy scalar for the ~10 entries of a schedule.  Shared, so callers
        must not mutate it; dropped on pickling like the engine.
        """
        if self._time_rows is None:
            self._time_rows = self.times_matrix.tolist()
        return self._time_rows

    # ------------------------------------------------------------------ #
    # release dates (online traces)
    # ------------------------------------------------------------------ #
    @property
    def release_times(self) -> np.ndarray:
        """Per-task release times, ``release_times[i] = r_i`` (0.0 offline)."""
        return np.array([t.release_time for t in self._tasks], dtype=float)

    @property
    def has_releases(self) -> bool:
        """Whether any task carries a non-zero release time."""
        return any(t.release_time > 0.0 for t in self._tasks)

    def with_releases(
        self, releases: Sequence[float] | np.ndarray, *, name: str | None = None
    ) -> "Instance":
        """Same tasks and machine, with ``releases[i]`` as task ``i``'s release."""
        arr = np.asarray(releases, dtype=float)
        if arr.shape != (len(self._tasks),):
            raise ModelError(
                f"expected {len(self._tasks)} release times, got shape {arr.shape}"
            )
        return Instance(
            [t.released(float(r)) for t, r in zip(self._tasks, arr)],
            self._m,
            name=name or self._name,
        )

    # ------------------------------------------------------------------ #
    # pickling (the engine cache is per-process state, not instance data)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {"tasks": self._tasks, "m": self._m, "name": self._name}

    def __setstate__(self, state: dict) -> None:
        self._tasks = state["tasks"]
        self._m = state["m"]
        self._name = state["name"]
        self._engine = None
        self._fingerprint = None
        self._time_rows = None

    # ------------------------------------------------------------------ #
    # aggregate quantities
    # ------------------------------------------------------------------ #
    def total_sequential_work(self) -> float:
        """Sum of the single-processor works ``Σ t_i(1)``.

        Because work is non-decreasing in the number of processors this is
        the minimal total work of any allotment, and ``Σ t_i(1) / m`` is the
        classical area lower bound on the optimal makespan.
        """
        return float(sum(t.sequential_time() for t in self._tasks))

    def max_min_time(self) -> float:
        """``max_i t_i(m)``: the longest unavoidable task duration."""
        return float(max(t.min_time() for t in self._tasks))

    def max_sequential_time(self) -> float:
        """``max_i t_i(1)``."""
        return float(max(t.sequential_time() for t in self._tasks))

    def lower_bound(self) -> float:
        """Simple makespan lower bound ``max(area bound, longest minimal task)``.

        See :func:`repro.lower_bounds.canonical_area_lower_bound` for the
        tighter bound derived from Property 2 that the experiment harness
        uses as the denominator of approximation ratios.
        """
        return max(self.total_sequential_work() / self._m, self.max_min_time())

    def upper_bound(self) -> float:
        """A trivially feasible makespan: run every task alone on one processor.

        Running the tasks one after the other on a single processor (or
        greedily with LPT) is always feasible, so ``Σ t_i(1)`` upper-bounds
        the optimum.  Used to seed the dichotomic search.
        """
        return self.total_sequential_work()

    # ------------------------------------------------------------------ #
    # canonical quantities (Section 2.1, Definition 1)
    # ------------------------------------------------------------------ #
    def canonical_procs(self, deadline: float) -> list[int | None]:
        """γ_i(deadline) for every task (``None`` when unreachable)."""
        return self.engine.canonical_procs(deadline)

    def canonical_work(self, deadline: float) -> float | None:
        """Total work of the canonical allotment, ``Σ W_i(γ_i(d))``.

        Returns ``None`` when some task cannot meet the deadline at all, in
        which case no schedule of length ``<= deadline`` exists.
        """
        return self.engine.total_work(deadline)

    def mu_area(self, deadline: float) -> float | None:
        """Canonical μ-area ``W_m`` of Definition 1.

        Sort the tasks by non-increasing canonical execution time
        ``t_i(γ_i(d))`` and imagine stacking them side by side on an
        unbounded machine (each task occupying γ_i processors).  ``W_m`` is
        the (fractional) area computed by the first ``m`` processors:

        ``W_m = Σ_{i<k} W_i(γ_i) + (m − Σ_{i<k} γ_i) · t_k(γ_k)``

        where ``k`` is the minimal index such that the cumulative processor
        count reaches ``m``.  When the canonical allotment uses fewer than
        ``m`` processors in total, ``W_m`` is simply the total canonical
        work.  Returns ``None`` when some γ_i does not exist.
        """
        return self.engine.mu_area(deadline)

    # ------------------------------------------------------------------ #
    # transformations & serialisation
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "Instance":
        """Instance with every execution time multiplied by ``factor``."""
        return Instance(
            [t.scaled(factor) for t in self._tasks],
            self._m,
            name=f"{self._name}*{factor:g}",
        )

    def subset(self, indices: Sequence[int], *, name: str | None = None) -> "Instance":
        """Instance restricted to the tasks at ``indices``."""
        return Instance(
            [self._tasks[i] for i in indices],
            self._m,
            name=name or f"{self._name}[subset]",
        )

    def with_machine(self, num_procs: int) -> "Instance":
        """Same tasks on a machine with ``num_procs`` processors.

        Tasks must define their profile for at least ``num_procs``
        processors.
        """
        return Instance(self._tasks, num_procs, name=self._name)

    def fingerprint(self) -> str:
        """Stable content hash of the instance (hex SHA-256, cached).

        The hash covers exactly what the scheduling algorithms see — the
        machine size ``m`` and the stacked execution-time profiles at full
        ``float64`` precision (serialised little-endian, so the digest is
        identical across architectures), plus the release-time vector when
        any task has a non-zero release (release-free instances hash to the
        exact pre-release-date digest, so warm service caches survive this
        extension).  Labels (instance name, task names) are deliberately
        *excluded*: two instances with the same profiles produce the same
        schedules, so they must share a fingerprint for the service result
        cache to recognise replayed workloads.  Task order matters
        (schedules refer to tasks by index).

        Serialisation round-trips are fingerprint-preserving:
        ``Instance.from_json(inst.to_json()).fingerprint() ==
        inst.fingerprint()`` because :meth:`to_json` stores every float with
        its shortest round-trip ``repr`` (bit-exact under Python's JSON).
        """
        if self._fingerprint is None:
            self._fingerprint = profile_fingerprint(
                self._m,
                self.times_matrix,
                self.release_times if self.has_releases else None,
            )
        return self._fingerprint

    def as_dict(self) -> dict:
        """JSON-serialisable representation.

        Float profiles are emitted as native Python floats (``ndarray.tolist``),
        which serialise through ``json`` with their shortest round-trip
        ``repr`` — so ``from_dict(as_dict())`` reconstructs bit-exact
        ``float64`` profiles and preserves :meth:`fingerprint`.
        """
        return {
            "name": self._name,
            "num_procs": self._m,
            "tasks": [t.as_dict() for t in self._tasks],
        }

    def to_json(self) -> str:
        """Serialise to a canonical JSON string (sorted keys, no whitespace).

        The canonical form makes equal instances serialise to equal bytes,
        which the service layer relies on when comparing responses.
        """
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "Instance":
        """Inverse of :meth:`as_dict`.

        A payload :func:`parse_profiles` takes whole is built from its
        checked matrix: one ``np.diff`` per matrix gives every task's
        monotonic flag, and each task holds read-only row views.  Anything
        else goes task by task through :meth:`MalleableTask.from_dict`,
        which raises the error for the first bad task.  Both paths build
        equal tasks.
        """
        parsed = parse_profiles(payload)
        if parsed is None:
            tasks = [MalleableTask.from_dict(t) for t in payload["tasks"]]
            return cls(tasks, payload["num_procs"], name=payload.get("name", "instance"))
        times = parsed.times
        works = times * np.arange(1, parsed.num_procs + 1, dtype=float)
        works.setflags(write=False)
        monotonic = (
            (np.diff(times, axis=1) <= EPS).all(axis=1)
            & (np.diff(works, axis=1) >= -EPS).all(axis=1)
        ).tolist()
        tasks = [
            MalleableTask._from_checked(*task)
            for task in zip(parsed.names, times, works, monotonic, parsed.releases)
        ]
        return cls(tasks, parsed.num_procs, name=payload.get("name", "instance"))

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_profiles(
        cls,
        profiles: Sequence[Sequence[float]] | np.ndarray,
        *,
        name: str = "instance",
        require_monotonic: bool = True,
    ) -> "Instance":
        """Build an instance from a matrix ``profiles[i][p-1] = t_i(p)``."""
        arr = np.asarray(profiles, dtype=float)
        if arr.ndim != 2:
            raise ModelError("profiles must be a 2-D array (tasks x processors)")
        tasks = [
            MalleableTask(f"T{i}", arr[i], require_monotonic=require_monotonic)
            for i in range(arr.shape[0])
        ]
        return cls(tasks, arr.shape[1], name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self._name!r}, n={self.num_tasks}, m={self._m})"
