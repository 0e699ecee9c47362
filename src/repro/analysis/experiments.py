"""Experiment harness: algorithm comparisons over workload sweeps.

This is the machinery behind the EXP-A/EXP-B/EXP-C benchmarks
(``benchmarks/bench_exp*.py``) and behind ``python -m repro compare``.  It runs a set of schedulers over a
grid of workloads (family × machine size × repetitions), measures every run
against the strongest lower bound and aggregates the approximation ratios.

Heavy-traffic mode
------------------
Both :func:`run_comparison` and :func:`sweep_workloads` accept ``workers=N``
to fan the independent *(instance, scheduler)* pairs out over a process pool
(``concurrent.futures``; threads as an automatic fallback when the platform
forbids subprocesses).  Every run is deterministic, each worker carries its
own pickled copy of the scheduler and rebuilds the instance's allotment
engine locally, and the records are re-assembled in the exact submission
order — so the parallel result is identical to the serial one, up to the
measured per-run wall times.
"""

from __future__ import annotations

import copy
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..baselines.gang import GangScheduler
from ..baselines.ludwig import LudwigScheduler
from ..baselines.sequential import SequentialLPTScheduler
from ..baselines.turek import TurekScheduler
from ..core.mrt import MRTScheduler
from ..lower_bounds import best_lower_bound
from ..model.instance import Instance
from ..scheduler import Scheduler
from ..workloads.generators import make_workload
from .metrics import ScheduleMetrics, evaluate_schedule
from .tables import format_table

__all__ = [
    "RunRecord",
    "ComparisonResult",
    "default_schedulers",
    "make_pool",
    "run_comparison",
    "sweep_workloads",
]


@dataclass(frozen=True)
class RunRecord:
    """One (instance, scheduler) measurement."""

    instance_name: str
    family: str
    num_tasks: int
    num_procs: int
    algorithm: str
    makespan: float
    lower_bound: float
    ratio: float
    runtime_seconds: float


@dataclass
class ComparisonResult:
    """All measurements of a comparison, with aggregation helpers."""

    records: list[RunRecord] = field(default_factory=list)

    def algorithms(self) -> list[str]:
        """Distinct algorithm names, in first-seen order."""
        seen: list[str] = []
        for record in self.records:
            if record.algorithm not in seen:
                seen.append(record.algorithm)
        return seen

    def ratios(self, algorithm: str) -> np.ndarray:
        """All measured ratios of one algorithm."""
        return np.array(
            [r.ratio for r in self.records if r.algorithm == algorithm]
        )

    def summary_rows(self) -> list[list]:
        """Aggregate rows: mean/max ratio and mean runtime per algorithm."""
        rows = []
        for algo in self.algorithms():
            ratios = self.ratios(algo)
            runtimes = np.array(
                [r.runtime_seconds for r in self.records if r.algorithm == algo]
            )
            rows.append(
                [
                    algo,
                    float(ratios.mean()),
                    float(ratios.max()),
                    float(np.percentile(ratios, 95)),
                    float(runtimes.mean()),
                    len(ratios),
                ]
            )
        return rows

    def summary_table(self) -> str:
        """Human-readable aggregate table."""
        return format_table(
            ["algorithm", "mean ratio", "max ratio", "p95 ratio", "mean s", "runs"],
            self.summary_rows(),
        )

    def grouped_by_procs(self, algorithm: str) -> dict[int, float]:
        """Mean ratio of one algorithm per machine size."""
        out: dict[int, list[float]] = {}
        for record in self.records:
            if record.algorithm == algorithm:
                out.setdefault(record.num_procs, []).append(record.ratio)
        return {m: float(np.mean(v)) for m, v in sorted(out.items())}


def default_schedulers() -> list[Scheduler]:
    """The scheduler line-up of experiment EXP-A."""
    return [
        MRTScheduler(),
        LudwigScheduler(),
        TurekScheduler(max_candidates=128),
        SequentialLPTScheduler(),
        GangScheduler(),
    ]


def _run_single(
    instance: Instance,
    scheduler: Scheduler,
    family: str,
    lb: float | None = None,
) -> RunRecord:
    """Measure one (instance, scheduler) pair — the unit of parallel fan-out.

    When ``lb`` is omitted (the parallel path) the lower bound is computed
    here so the pair is self-contained; it is a deterministic function of
    the instance, hence identical across serial and parallel runs, and its
    dichotomic-search guesses prime the instance's allotment-engine cache
    for the scheduler run that follows.  The serial path computes it once
    per instance and passes it in.
    """
    if lb is None:
        lb = best_lower_bound(instance)
    start = time.perf_counter()
    schedule = scheduler.schedule(instance)
    elapsed = time.perf_counter() - start
    schedule.validate()
    return RunRecord(
        instance_name=instance.name,
        family=family,
        num_tasks=instance.num_tasks,
        num_procs=instance.num_procs,
        algorithm=scheduler.name,
        makespan=schedule.makespan(),
        lower_bound=lb,
        ratio=schedule.makespan() / lb if lb > 0 else float("inf"),
        runtime_seconds=elapsed,
    )


def _pool_probe() -> int:
    """Picklable no-op used to verify that a process pool can actually run."""
    return os.getpid()


def make_pool(workers: int) -> tuple[Executor, str]:
    """Build an executor with the process→thread fallback, return ``(pool, kind)``.

    This is the dispatch backend of the experiment harness (``compare
    --workers``).  A :class:`ProcessPoolExecutor` is created and probed with
    a trivial task (worker processes start lazily on some platforms, so
    constructing the pool alone proves nothing); when the platform forbids
    subprocesses (restricted sandboxes) the probe fails and a
    :class:`ThreadPoolExecutor` is returned instead.  ``kind`` is
    ``"process"`` or ``"thread"`` so callers can adapt (e.g. deep-copy
    shared mutable state before submitting to threads).
    """
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        pool.submit(_pool_probe).result()
        return pool, "process"
    except (OSError, PermissionError, BrokenProcessPool):
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return ThreadPoolExecutor(max_workers=workers), "thread"


def _run_parallel(
    pairs: list[tuple[Instance, Scheduler, str]], workers: int
) -> list[RunRecord]:
    """Fan ``pairs`` out over a pool; records come back in submission order.

    A process pool gives real parallelism (the schedulers are CPU-bound
    Python); when the platform cannot spawn subprocesses (restricted
    sandboxes) :func:`make_pool` falls back to a thread pool, and each task
    then gets a deep copy of its scheduler so no scheduler state is shared
    across concurrent runs (instances *are* shared there; their engine cache
    is thread-safe).  Exceptions raised by the measured code itself surface
    through ``Future.result`` and propagate unchanged.
    """
    pool, kind = make_pool(workers)
    with pool:
        if kind == "process":
            futures = [pool.submit(_run_single, *pair) for pair in pairs]
        else:
            futures = [
                pool.submit(_run_single, inst, copy.deepcopy(sched), family)
                for inst, sched, family in pairs
            ]
        return [f.result() for f in futures]


def run_comparison(
    instances: Sequence[Instance],
    schedulers: Sequence[Scheduler] | None = None,
    *,
    family: str = "custom",
    workers: int | None = None,
) -> ComparisonResult:
    """Run every scheduler on every instance and collect the measurements.

    ``workers=N`` distributes the (instance, scheduler) pairs over a pool of
    ``N`` processes.  Record order and record contents are identical to the
    serial run (every run is deterministic); only the measured
    ``runtime_seconds`` reflect the machine's actual timings.
    """
    chosen = list(schedulers) if schedulers is not None else default_schedulers()
    pairs = [
        (instance, scheduler, family)
        for instance in instances
        for scheduler in chosen
    ]
    result = ComparisonResult()
    if workers is not None and workers > 1 and len(pairs) > 1:
        result.records.extend(_run_parallel(pairs, workers))
    else:
        lbs: dict[int, float] = {}
        for instance, scheduler, fam in pairs:
            lb = lbs.get(id(instance))
            if lb is None:
                lb = lbs[id(instance)] = best_lower_bound(instance)
            result.records.append(_run_single(instance, scheduler, fam, lb))
    return result


def sweep_workloads(
    *,
    families: Sequence[str] = ("uniform", "mixed", "heavy-tailed", "rigid-heavy"),
    num_tasks: int = 40,
    machine_sizes: Sequence[int] = (8, 16, 32),
    repetitions: int = 3,
    seed: int = 0,
    schedulers: Sequence[Scheduler] | None = None,
    workers: int | None = None,
) -> ComparisonResult:
    """The EXP-A sweep: families × machine sizes × repetitions.

    Instance generation stays serial (it consumes one shared RNG stream, so
    the workloads are independent of ``workers``); with ``workers=N`` the
    whole grid of (instance, scheduler) pairs is then fanned out at once.
    """
    rng = np.random.default_rng(seed)
    chosen = list(schedulers) if schedulers is not None else default_schedulers()
    grid: list[tuple[str, list[Instance]]] = []
    for family in families:
        for m in machine_sizes:
            instances = [
                make_workload(family, num_tasks, m, seed=rng)
                for _ in range(repetitions)
            ]
            grid.append((family, instances))
    result = ComparisonResult()
    if workers is not None and workers > 1:
        pairs = [
            (instance, scheduler, family)
            for family, instances in grid
            for instance in instances
            for scheduler in chosen
        ]
        result.records.extend(_run_parallel(pairs, workers))
    else:
        for family, instances in grid:
            partial = run_comparison(instances, chosen, family=family)
            result.records.extend(partial.records)
    return result
