"""Online-arrival scheduling: the epoch replay kernel over arrival traces.

The paper's dual-approximation scheduler is defined for a fixed offline task
set.  This subsystem opens the *online* workload class real clusters face:
tasks are released over time (``MalleableTask.release_time``) and the replay
kernel reschedules the pending set with any registry algorithm, stitching
the per-epoch schedules into one validated timeline.

* :mod:`repro.online.epoch` — the ``"barrier"`` kernel: a batch owns the
  whole machine until it drains (the paper's guarantee applies batch-wise);
* :mod:`repro.online.plancache` — content-addressed per-epoch batch plans;
* :mod:`repro.online.replay` — the service/CLI integration layer
  (``POST /replay`` payloads, response shaping);
* :mod:`repro.workloads.arrivals` — Poisson / burst / diurnal / Pareto
  arrival-trace generators over the existing workload families.
"""

from .epoch import EpochReport, EpochRescheduler, ReplayResult
from .plancache import CachedPlan, PlanCache
from .replay import (
    compute_replay_response,
    iter_replay_frames,
    replay_from_payload,
)

__all__ = [
    "CachedPlan",
    "EpochReport",
    "EpochRescheduler",
    "PlanCache",
    "ReplayResult",
    "compute_replay_response",
    "iter_replay_frames",
    "replay_from_payload",
]
