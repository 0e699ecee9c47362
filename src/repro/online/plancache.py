"""Content-addressed cache of per-epoch batch plans.

Every epoch of a replay schedules one *batch* (the pending subset) with an
offline kernel; for overlapping traces and re-runs those batches repeat
exactly, and the kernel's dichotomic search is the dominant cost.  This
module caches the *outcome* of that search — the placed entries plus the
allotment-engine counters — keyed by a content address in the style of
:meth:`repro.model.instance.Instance.fingerprint`:

``plan_key = blake2b-128( b"repro-plan-v1" || batch.fingerprint()
                          || algorithm || canonical-params-JSON )``

The batch fingerprint already covers processor count, release dates and the
full execution-time profiles in *task order*, and the offline schedulers
tie-break by task index — so the key is deliberately order-sensitive: two
batches with the same tasks in a different order are different plans.  The
kernel (``barrier``/``availability``) is **not** part of the key: both
kernels call the same offline scheduler per batch, so sharing plans across
kernels is safe and is exactly what makes a shard warm for both.  The
``(trace-prefix, kernel)`` pair is the cluster's *routing* key (see
:func:`repro.service.cluster.router.replay_routing_key`), not the plan key.

Engine counters are stored *inside* the cached plan so a warm replay
reports the identical deterministic ``engine`` block as a cold one —
``compute_ms`` is the only field a cache hit may change.  A golden
digest in ``tests/test_contracts.py`` pins the key, so silent drift is a
test failure, not a stale-cache incident.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable

from ..model.instance import Instance
from ..model.schedule import Schedule
from ..service.cache import MISS, LRUTTLCache

__all__ = ["CachedPlan", "PLAN_MISS", "PlanCache", "plan_key"]

#: The miss sentinel, re-exported so kernel call sites need one import only.
PLAN_MISS = MISS

def plan_key(batch: Instance, algorithm: str, params_json: str) -> str:
    """Content address of one epoch batch's offline plan (hex, 128-bit).

    A golden digest in ``tests/test_contracts.py`` pins the key: bump the
    domain tag's version suffix whenever the cached-plan layout changes
    so old processes never replay a plan they cannot rebuild.
    """
    digest = blake2b(digest_size=16)
    digest.update(b"repro-plan-v1")
    digest.update(batch.fingerprint().encode())
    digest.update(algorithm.encode())
    digest.update(params_json.encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CachedPlan:
    """One memoised batch plan: placed entries + deterministic engine stats.

    Entries are stored batch-relative ``(task_index, start, first_proc,
    num_procs)`` tuples in placement order — rebuilding preserves entry
    order, which is what keeps a warm replay byte-identical to a cold one.
    """

    algorithm: str
    entries: tuple[tuple[int, float, int, int], ...]
    engine: tuple[tuple[str, int], ...]

    @classmethod
    def from_schedule(cls, schedule: Schedule, engine: dict) -> "CachedPlan":
        return cls(
            algorithm=schedule.algorithm,
            entries=tuple(
                (entry.task_index, entry.start, entry.first_proc, entry.num_procs)
                for entry in schedule.entries
            ),
            engine=tuple(sorted(engine.items())),
        )

    def build_schedule(self, batch: Instance) -> Schedule:
        """Materialise the plan against ``batch`` (same content, fresh object)."""
        schedule = Schedule(batch, algorithm=self.algorithm)
        for task_index, start, first_proc, num_procs in self.entries:
            schedule.add(task_index, start, first_proc, num_procs)
        return schedule

    def engine_stats(self) -> dict:
        """The batch's γ(d) memo counters as recorded when the plan was built."""
        return dict(self.engine)


class PlanCache:
    """Thread-safe LRU of :class:`CachedPlan` with its own hit/miss metrics.

    A thin wrapper over :class:`~repro.service.cache.LRUTTLCache` (no TTL —
    plans are content-addressed, they cannot go stale) that lives beside
    the shard's result LRU in :class:`~repro.service.core.SchedulerService`
    and surfaces through ``/metrics`` as the ``plan_cache`` block.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._cache = LRUTTLCache(capacity, clock=clock)

    @staticmethod
    def params_json(params: dict | None) -> str:
        """Canonical JSON of kernel params, the third plan-key component."""
        return json.dumps(params or {}, sort_keys=True, separators=(",", ":"))

    def fetch(self, key: str):
        """Cached plan under ``key`` or :data:`~repro.service.cache.MISS`."""
        return self._cache.get(key)

    def store(self, key: str, plan: CachedPlan) -> None:
        self._cache.put(key, plan)

    def clear(self) -> int:
        """Drop every plan; returns how many were dropped (``/purge``)."""
        dropped = len(self._cache)
        self._cache.clear()
        return dropped

    @property
    def stats(self):
        return self._cache.stats

    def metrics(self) -> dict:
        return {**self._cache.stats.as_dict(), "size": len(self._cache)}

    def __len__(self) -> int:
        return len(self._cache)
