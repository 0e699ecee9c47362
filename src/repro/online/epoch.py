"""Epoch rescheduling: the paper's offline kernel driving an online timeline.

Tasks arrive over time (``MalleableTask.release_time``); whenever the machine
drains, the :class:`EpochRescheduler` gathers every *pending* task (released,
not yet started), schedules that batch with a registry algorithm (the MRT
dual approximation by default) as a fresh offline instance, and appends the
resulting schedule — shifted to the epoch start — to a global timeline.

Epoch semantics
---------------
``quantum=None`` (event-driven)
    A new epoch starts as soon as the previous batch has finished *and* at
    least one task is pending; if the machine drains with nothing pending,
    the clock jumps to the next release.
``quantum=q``
    Epoch starts are additionally spaced at least ``q`` apart: arrivals are
    batched for up to ``q`` time units before the next rescheduling, which
    trades response time for larger (better-packed) batches.

Epochs never overlap: a batch owns the machine until its offline schedule
completes, so the stitched timeline is valid by construction (and is still
re-validated end to end, including release dates).  Work completed in
earlier epochs is carried over — the pending set only ever contains tasks
that have not been started, so no work is re-run.  Because the offline
kernel is non-preemptive and contiguous, every per-epoch guarantee of the
paper (√3 for MRT) applies batch-wise to the stitched timeline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from ..core.mrt import MRTResult
from ..exceptions import ModelError, SchedulingError
from ..model.instance import Instance
from ..model.schedule import Schedule
from ..model.task import EPS
from ..registry import make_scheduler
from ..scheduler import Scheduler
from .plancache import PLAN_MISS, CachedPlan, PlanCache, plan_key

__all__ = [
    "EpochReport",
    "EpochRescheduler",
    "ReplayResult",
    "certificate",
    "plan_batch",
]


def plan_batch(
    scheduler: Scheduler,
    batch: Instance,
    plan_cache: PlanCache | None,
    algorithm: str,
    params_json: str,
) -> tuple[Schedule, float, dict | None]:
    """Schedule one epoch batch, memoised through the plan cache.

    Returns ``(schedule, compute_ms, certificate)``.  On a cache hit the
    stored plan is materialised against ``batch`` and the *recorded*
    certificate is returned, so a warm replay reports byte-identical epochs
    (``compute_ms`` is the only field a hit may change).  A failed epoch
    caches nothing — the scheduler's exception propagates before ``store``.
    """
    if plan_cache is None:
        compute_start = time.perf_counter()
        schedule = scheduler.schedule(batch)
        return (
            schedule,
            (time.perf_counter() - compute_start) * 1e3,
            certificate(scheduler),
        )
    key = plan_key(batch, algorithm, params_json)
    compute_start = time.perf_counter()
    plan = plan_cache.fetch(key)
    if plan is not PLAN_MISS:
        schedule = plan.build_schedule(batch)
        return (
            schedule,
            (time.perf_counter() - compute_start) * 1e3,
            plan.certificate,
        )
    schedule = scheduler.schedule(batch)
    compute_ms = (time.perf_counter() - compute_start) * 1e3
    found = certificate(scheduler)
    plan_cache.store(key, CachedPlan.from_schedule(schedule, found))
    return schedule, compute_ms, found


def certificate(scheduler: Scheduler) -> dict | None:
    """The paper's search facts behind the batch ``scheduler`` just planned.

    For MRT: the dual guesses tried, the branch that built the returned
    schedule, the lower bound and the makespan's ratio to it (all from
    :class:`~repro.core.mrt.MRTResult`).  ``None`` for kernels that run no
    dual search.
    """
    result = getattr(scheduler, "last_result", None)
    if not isinstance(result, MRTResult):
        return None
    return {
        "guesses": len(result.search.trace),
        "branch": result.branch,
        "lower_bound": result.lower_bound,
        "ratio_to_lower_bound": result.ratio_to_lower_bound,
    }


@dataclass(frozen=True)
class EpochReport:
    """Metrics of one rescheduling epoch.

    Attributes
    ----------
    index:
        Epoch number (0-based).
    start:
        Time at which the batch was rescheduled.
    end:
        Completion time of the batch (``start`` + batch makespan).
    num_tasks:
        Number of pending tasks scheduled in this epoch.
    makespan:
        The batch's offline makespan (the kernel commits whole batches).
    waiting:
        Mean time the batch's tasks spent between release and epoch start.
    compute_ms:
        Wall-clock milliseconds the offline kernel spent scheduling this
        epoch's batch (the dichotomic search, not the replay bookkeeping).
    certificate:
        The batch's dual-search facts (see :func:`certificate`):
        ``guesses`` (dual guesses tried), ``branch``, ``lower_bound`` and
        ``ratio_to_lower_bound``; ``None`` for kernels other than MRT.
    """

    index: int
    start: float
    end: float
    num_tasks: int
    makespan: float
    waiting: float
    compute_ms: float = 0.0
    certificate: dict | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "num_tasks": self.num_tasks,
            "makespan": self.makespan,
            "waiting": self.waiting,
            "compute_ms": self.compute_ms,
            "certificate": None if self.certificate is None else dict(self.certificate),
        }


@dataclass
class ReplayResult:
    """Outcome of replaying an arrival trace through epoch rescheduling.

    ``schedule`` is the stitched timeline over the *full* instance; it is
    validated (including release dates) before being returned.  Flow time of
    a task is ``completion − release``; its stretch divides the flow by the
    shortest execution time the task could ever achieve (``t(m)``), so a
    stretch of 1 means the task ran immediately at full parallelism.
    Utilisation is measured over the active horizon ``[first epoch start,
    makespan]``.
    """

    schedule: Schedule
    epochs: list[EpochReport] = field(default_factory=list)
    quantum: float | None = None
    algorithm: str = "mrt"
    #: The online kernel that produced the timeline, echoed as the
    #: ``"kernel"`` metric of ``POST /replay``.
    kernel: str = "barrier"

    @property
    def makespan(self) -> float:
        return self.schedule.makespan()

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def flow_times(self) -> np.ndarray:
        """Per-task flow times ``completion_i − release_i`` (task order)."""
        instance = self.schedule.instance
        flows = np.zeros(instance.num_tasks)
        for entry in self.schedule.entries:
            release = instance.tasks[entry.task_index].release_time
            flows[entry.task_index] = entry.end - release
        return flows

    def stretches(self) -> np.ndarray:
        """Per-task stretches ``flow_i / t_i(m)`` (≥ 1 up to rounding)."""
        instance = self.schedule.instance
        min_times = np.array([t.min_time() for t in instance.tasks])
        return self.flow_times() / min_times

    def utilization(self) -> float:
        """Busy fraction of the machine over the active horizon."""
        if not self.epochs:
            return 0.0
        horizon = self.makespan - self.epochs[0].start
        if horizon <= 0:
            return 0.0
        return self.schedule.total_work() / (
            self.schedule.instance.num_procs * horizon
        )

    def compute_ms(self) -> float:
        """Total kernel compute time across epochs (milliseconds)."""
        return float(sum(epoch.compute_ms for epoch in self.epochs))

    def metrics(self) -> dict:
        """Summary metrics in the shape streamed by the CLI and the service."""
        flows = self.flow_times()
        stretches = self.stretches()
        return {
            "kernel": self.kernel,
            "algorithm": self.algorithm,
            "quantum": self.quantum,
            "num_epochs": self.num_epochs,
            "num_tasks": self.schedule.instance.num_tasks,
            "makespan": self.makespan,
            "mean_flow": float(flows.mean()),
            "max_flow": float(flows.max()),
            "mean_stretch": float(stretches.mean()),
            "max_stretch": float(stretches.max()),
            "utilization": self.utilization(),
            "compute_ms": self.compute_ms(),
            "guesses": sum(
                epoch.certificate["guesses"]
                for epoch in self.epochs
                if epoch.certificate is not None
            ),
        }


class EpochRescheduler:
    """Replay an arrival trace with an offline scheduler as the epoch kernel.

    Parameters
    ----------
    algorithm:
        Registry name of the offline kernel (default ``"mrt"``); resolved
        through :func:`repro.registry.make_scheduler` so the CLI and the
        service accept exactly the same names.
    params:
        Keyword arguments for the kernel's factory.
    quantum:
        Minimum spacing between epoch starts (``None`` = event-driven; see
        the module docstring for the exact semantics).
    scheduler:
        Explicit :class:`~repro.scheduler.Scheduler` instance overriding
        ``algorithm``/``params`` (tests, custom kernels).
    plan_cache:
        Optional :class:`~repro.online.plancache.PlanCache`: epoch batches
        are then content-addressed and repeated batches skip the offline
        kernel entirely (the streaming ``/replay`` shards share one per
        service).  ``None`` (the default) schedules every batch fresh.
    """

    kernel = "barrier"

    def __init__(
        self,
        algorithm: str = "mrt",
        params: dict | None = None,
        *,
        quantum: float | None = None,
        scheduler: Scheduler | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if quantum is not None:
            if not math.isfinite(quantum):
                raise ModelError(f"quantum must be finite (or None), got {quantum}")
            if quantum < 0:
                raise ModelError("quantum must be non-negative (or None)")
        self.algorithm = algorithm
        self.params = dict(params or {})
        self.quantum = None if not quantum else float(quantum)
        self._scheduler = scheduler or make_scheduler(algorithm, self.params)
        self.plan_cache = plan_cache
        self._params_json = PlanCache.params_json(self.params)

    # ------------------------------------------------------------------ #
    def replay(
        self,
        instance: Instance,
        *,
        on_epoch: Callable[[EpochReport], None] | None = None,
    ) -> ReplayResult:
        """Replay ``instance``'s arrival trace; returns the stitched timeline.

        ``on_epoch`` is invoked with each :class:`EpochReport` as soon as its
        batch has been scheduled (the CLI streams per-epoch metrics through
        it).  Works on offline instances too (all releases 0): the replay
        then degenerates to a single epoch whose schedule *is* the kernel's
        offline schedule.
        """
        epochs = self.iter_epochs(instance)
        while True:
            try:
                report = next(epochs)
            except StopIteration as done:
                return done.value
            if on_epoch is not None:
                on_epoch(report)

    def iter_epochs(
        self, instance: Instance
    ) -> Generator[EpochReport, None, ReplayResult]:
        """The epoch loop: yield each :class:`EpochReport` as soon as its
        batch is scheduled, then return the :class:`ReplayResult`.

        Nothing runs ahead of the consumer: batch k+1 is planned only when
        the caller asks for the next report, and closing the generator
        schedules nothing more.
        """
        releases = instance.release_times
        timeline = Schedule(instance, algorithm=f"epoch-{self.algorithm}")
        unscheduled = sorted(range(instance.num_tasks), key=lambda i: releases[i])
        epochs: list[EpochReport] = []
        clock = float(releases[unscheduled[0]]) if unscheduled else 0.0
        guard = 0
        while unscheduled:
            guard += 1
            if guard > 2 * instance.num_tasks + 2:
                raise SchedulingError(
                    "epoch replay failed to make progress"
                )  # pragma: no cover - defensive
            pending = [i for i in unscheduled if releases[i] <= clock + EPS]
            if not pending:
                # Empty epoch slot (quantum boundaries can land between
                # arrivals, and the EPS release test keeps boundary arrivals
                # in the *following* slot): skip it entirely — epochs always
                # carry at least one task, pinned by the quantum-boundary
                # regression test.  The jump is forward: every unscheduled
                # release is > clock + EPS here.
                clock = float(min(releases[i] for i in unscheduled))
                continue
            batch = instance.subset(
                pending, name=f"{instance.name}@epoch{len(epochs)}"
            )
            batch_schedule, compute_ms, batch_certificate = plan_batch(
                self._scheduler, batch, self.plan_cache,
                self.algorithm, self._params_json,
            )
            # The epoch end is the max finish of the *stitched* entries (not
            # ``clock + batch makespan``): the two differ by float rounding,
            # and the next epoch must start bit-exactly when the machine
            # drains or the simulator sees a one-ulp overlap.
            end = clock
            for entry in batch_schedule.entries:
                placed = timeline.add(
                    pending[entry.task_index],
                    entry.start + clock,
                    entry.first_proc,
                    entry.num_procs,
                )
                end = max(end, placed.end)
            report = EpochReport(
                index=len(epochs),
                start=clock,
                end=end,
                num_tasks=len(pending),
                makespan=batch_schedule.makespan(),
                waiting=float(np.mean([clock - releases[i] for i in pending])),
                compute_ms=compute_ms,
                certificate=batch_certificate,
            )
            epochs.append(report)
            yield report
            scheduled = set(pending)
            unscheduled = [i for i in unscheduled if i not in scheduled]
            clock = end if self.quantum is None else max(end, clock + self.quantum)
        timeline.validate(respect_release=True)
        return ReplayResult(
            schedule=timeline,
            epochs=epochs,
            quantum=self.quantum,
            algorithm=self.algorithm,
            kernel=self.kernel,
        )
