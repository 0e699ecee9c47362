"""Correctness checks, run after the timed window on every response.

* A ``/schedule`` result must be byte-identical under ``canonical_json``
  to an in-process ``MRTScheduler`` call on the instance sent.
* A streamed replay's epoch frames must equal the final document's
  ``epochs`` list, and the document must equal an in-process
  ``compute_replay_response`` once the wall-clock fields are zeroed.
* Every makespan is at most ``(2 - 2/(m+1))(1 + eps)`` times the lower
  bound ``max(trivial_lower_bound, canonical_area_lower_bound)``.  MRT
  guarantees this factor against the optimum, not against this bound,
  which may sit below the optimum; so this is a sanity heuristic rather
  than the theorem, and its failure message gives the ratio so that a
  loose bound can be told from a wrong answer.  For a replay each epoch is
  checked against the bound of its own batch.
"""

from __future__ import annotations

import copy
import json
import time

from repro.core.mrt import MRTScheduler
from repro.lower_bounds import canonical_area_lower_bound, trivial_lower_bound
from repro.model.instance import Instance
from repro.online import compute_replay_response
import repro.online.epoch as epoch_module
from repro.registry import make_rescheduler
from repro.service.core import canonical_json

#: Relative slack on the makespan bound for float rounding.
BOUND_SLACK = 1e-9
#: The dual search's tolerance, part of the scheduler's guarantee.
SEARCH_EPS = MRTScheduler().eps


def scrub(document: dict) -> dict:
    """Zero the wall-clock fields of a replay document; the rest is byte-stable."""
    doc = copy.deepcopy(document)
    doc.pop("elapsed_ms", None)
    doc["result"]["compute_ms"] = 0.0
    for epoch in doc["result"]["epochs"]:
        epoch["compute_ms"] = 0.0
    return doc


def lower_bound(instance: Instance) -> float:
    return max(trivial_lower_bound(instance), canonical_area_lower_bound(instance))


def release_lower_bound(trace: Instance) -> float:
    """Offline lower bound of a trace: the release-free bound, or the latest
    ``release + t(m)`` (no task can finish earlier)."""
    m = trace.num_procs
    releases = trace.release_times
    latest = max(
        float(releases[i]) + float(task.time(m)) for i, task in enumerate(trace.tasks)
    )
    return max(lower_bound(trace), latest)


def guarantee_factor(m: int) -> float:
    return (2.0 - 2.0 / (m + 1)) * (1.0 + SEARCH_EPS) * (1.0 + BOUND_SLACK)


def over_guarantee(makespan: float, bound: float, m: int) -> str | None:
    """``None`` when ``makespan`` is within the guarantee factor of ``bound``,
    else a message giving the ratio."""
    if makespan <= guarantee_factor(m) * bound:
        return None
    return (
        f"makespan / lower bound = {makespan / bound:.6f} above "
        f"(2 - 2/(m+1))(1 + eps) = {guarantee_factor(m):.6f}"
    )


class Expected:
    """The in-process answer for one ``/schedule`` instance, timed by step."""

    __slots__ = ("result_json", "fingerprint", "makespan", "bound", "m", "timings")

    def __init__(self, payload: dict) -> None:
        t0 = time.perf_counter()
        instance = Instance.from_dict(payload)
        t1 = time.perf_counter()
        self.fingerprint = instance.fingerprint()
        t2 = time.perf_counter()
        scheduler = MRTScheduler()
        schedule = scheduler.schedule(instance)
        t3 = time.perf_counter()
        schedule.validate()
        t4 = time.perf_counter()
        result = {
            "algorithm": schedule.algorithm or scheduler.name,
            "makespan": schedule.makespan(),
            "num_tasks": instance.num_tasks,
            "num_procs": instance.num_procs,
            "schedule": schedule.as_dict(),
        }
        self.result_json = canonical_json(result)
        t5 = time.perf_counter()
        self.makespan = result["makespan"]
        self.bound = lower_bound(instance)
        self.m = instance.num_procs
        self.timings = {
            "model.from_dict_ms": (t1 - t0) * 1e3,
            "model.fingerprint_ms": (t2 - t1) * 1e3,
            "model.validate_ms": (t4 - t3) * 1e3,
            "model.to_json_ms": (t5 - t4) * 1e3,
        }

    @property
    def ratio(self) -> float:
        return self.makespan / self.bound


def schedule_ok(body: bytes, expected: Expected, cache_hit: bool) -> str | None:
    """``None`` when a ``/schedule`` response passes, else the reason."""
    try:
        doc = json.loads(body)
    except ValueError:
        return "response is not JSON"
    if doc.get("cache_hit") is not cache_hit:
        return f"cache_hit is {doc.get('cache_hit')!r}, expected {cache_hit}"
    if doc.get("fingerprint") != expected.fingerprint:
        return "fingerprint differs from the in-process instance"
    if canonical_json(doc.get("result")) != expected.result_json:
        return "result differs from the in-process MRTScheduler"
    return over_guarantee(doc["result"]["makespan"], expected.bound, expected.m)


class ExpectedReplay:
    """The in-process replay of one trace, with each epoch's batch bound."""

    __slots__ = ("doc_json", "epoch_bounds", "m", "ratio", "first_epoch_ms", "timings")

    def __init__(self, payload: dict) -> None:
        t0 = time.perf_counter()
        trace = Instance.from_dict(payload)
        t1 = time.perf_counter()
        trace.fingerprint()
        t2 = time.perf_counter()
        batches: list[Instance] = []
        original = epoch_module.plan_batch

        def recording_plan_batch(scheduler, batch, *args):
            batches.append(batch)
            return original(scheduler, batch, *args)

        first: list[float] = []
        start = time.perf_counter()
        epoch_module.plan_batch = recording_plan_batch
        try:
            doc = compute_replay_response(
                trace,
                make_rescheduler("barrier", "mrt"),
                False,
                on_epoch=lambda report: first or first.append(time.perf_counter()),
            )
        finally:
            epoch_module.plan_batch = original
        t3 = time.perf_counter()
        self.doc_json = canonical_json(scrub(doc))
        t4 = time.perf_counter()
        self.first_epoch_ms = (first[0] - start) * 1e3
        self.epoch_bounds = [lower_bound(batch) for batch in batches]
        self.m = trace.num_procs
        self.ratio = doc["result"]["makespan"] / release_lower_bound(trace)
        self.timings = {
            "model.from_dict_ms": (t1 - t0) * 1e3,
            "model.fingerprint_ms": (t2 - t1) * 1e3,
            "model.to_json_ms": (t4 - t3) * 1e3,
        }


def replay_ok(frames: list[bytes], expected: ExpectedReplay) -> str | None:
    """``None`` when a streamed replay passes, else the reason."""
    try:
        docs = [json.loads(frame) for frame in frames]
    except ValueError:
        return "a frame is not JSON"
    if not docs:
        return "empty stream"
    final = docs[-1]
    epochs = [doc.get("epoch") for doc in docs[:-1]]
    if any(epoch is None for epoch in epochs):
        return "a non-final frame is not an epoch frame"
    if epochs != final["result"]["epochs"]:
        return "epoch frames differ from the final document"
    if final["result"].get("kernel") != "barrier":
        return "replay did not run the barrier kernel"
    if canonical_json(scrub(final)) != expected.doc_json:
        return "replay differs from the in-process compute_replay_response"
    if len(epochs) != len(expected.epoch_bounds):
        return "epoch count differs from the in-process replay"
    for epoch, bound in zip(epochs, expected.epoch_bounds):
        over = over_guarantee(epoch["makespan"], bound, expected.m)
        if over is not None:
            return f"epoch {epoch['index']}: {over}"
    return None
