"""Service and CLI integration for online replays (``POST /replay``).

Translates a decoded JSON payload into an :class:`~repro.online.epoch.
EpochRescheduler` run and shapes the response the HTTP frontend and the CLI
stream back:

``replay_from_payload``
    Parse ``{"trace" | "generate", "kernel", "algorithm", "params",
    "quantum", "validate"}`` into ``(Instance, rescheduler, validate)``.  A
    ``"trace"`` is an :meth:`Instance.as_dict` payload (tasks may carry
    ``"release"``); a ``"generate"`` spec draws a synthetic trace from
    :mod:`repro.workloads.arrivals` (``{"pattern", "family", "tasks",
    "procs", "seed", ...}``); ``"kernel"`` may only name ``"barrier"``,
    the default.
``compute_replay_response``
    Run the replay and build the JSON-serialisable response: the summary
    metrics, the per-epoch reports, the stitched schedule, the trace
    fingerprint and (optionally) an independent simulate-and-check
    validation with release dates enforced.
``iter_replay_frames``
    The body of the chunked ``POST /replay``: a generator of NDJSON frames,
    driven by the request thread that writes them — one ``{"epoch": ...}``
    line per :class:`~repro.online.epoch.EpochReport` as soon as its batch
    is scheduled, then the full ``compute_replay_response`` document as the
    final line, so a client that concatenates the final frame sees exactly
    the legacy synchronous response.
"""

from __future__ import annotations

import json
import time
from typing import Iterator

from ..exceptions import ModelError
from ..model.instance import Instance
from ..registry import make_rescheduler, typed_field
from ..sim.validate import simulate_and_check
from ..workloads.arrivals import ARRIVAL_PATTERNS, make_trace
from .epoch import EpochRescheduler, ReplayResult

__all__ = [
    "compute_replay_response",
    "iter_replay_frames",
    "replay_from_payload",
]

#: ``generate`` keys forwarded to the arrival-pattern generators verbatim.
_GENERATE_OPTIONS = (
    "rate",
    "horizon",
    "bursts",
    "jitter",
    "periods",
    "peak_to_trough",
    "alpha",
)


def replay_from_payload(
    payload: dict,
    *,
    plan_cache=None,
) -> tuple[Instance, EpochRescheduler, bool]:
    """Parse a ``POST /replay`` body; raises :class:`ModelError` on bad input.

    ``plan_cache`` (an optional :class:`~repro.online.plancache.PlanCache`)
    is handed to the kernel so the serving daemon memoises per-epoch batch
    plans across requests.
    """
    if not isinstance(payload, dict):
        raise ModelError("request body must be a JSON object")
    if ("trace" in payload) == ("generate" in payload):
        raise ModelError("request must carry exactly one of 'trace' or 'generate'")
    try:
        if "trace" in payload:
            trace = Instance.from_dict(payload["trace"])
        else:
            spec = payload["generate"]
            if not isinstance(spec, dict):
                raise ModelError("'generate' must be an object")
            pattern = spec.get("pattern", "poisson")
            if pattern not in ARRIVAL_PATTERNS:
                raise ModelError(
                    f"unknown arrival pattern {pattern!r}; choose from "
                    f"{sorted(ARRIVAL_PATTERNS)}"
                )
            options = {
                key: spec[key] for key in _GENERATE_OPTIONS if key in spec
            }
            trace = make_trace(
                pattern,
                spec.get("family", "mixed"),
                typed_field(spec, "tasks", 32, int, where="generate."),
                typed_field(spec, "procs", 16, int, where="generate."),
                seed=typed_field(spec, "seed", 0, int, where="generate."),
                **options,
            )
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed replay request: {exc}") from exc
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ModelError("'params' must be an object")
    algorithm = payload.get("algorithm", "mrt")
    if not isinstance(algorithm, str):
        raise ModelError("'algorithm' must be a string")
    quantum = typed_field(payload, "quantum", None, (int, float), nullable=True)
    kernel = payload.get("kernel", "barrier")
    if not isinstance(kernel, str):
        raise ModelError("'kernel' must be a string")
    validate = typed_field(payload, "validate", False, bool)
    rescheduler = make_rescheduler(
        kernel, algorithm, params, quantum=quantum, plan_cache=plan_cache
    )
    return trace, rescheduler, validate


def compute_replay_response(
    trace: Instance,
    rescheduler: EpochRescheduler,
    validate: bool,
    *,
    on_epoch=None,
) -> dict:
    """Run the replay and shape the ``POST /replay`` response payload.

    ``on_epoch`` is forwarded to :meth:`replay`, which calls it with each
    :class:`~repro.online.epoch.EpochReport` as soon as its batch is
    scheduled.
    """
    return _response(trace, rescheduler.replay(trace, on_epoch=on_epoch), validate)


def _response(trace: Instance, result: ReplayResult, validate: bool) -> dict:
    payload: dict = {
        "result": {
            **result.metrics(),
            "epochs": [epoch.as_dict() for epoch in result.epochs],
            "schedule": result.schedule.as_dict(),
        },
        "fingerprint": trace.fingerprint(),
        "validation": None,
    }
    if validate:
        sim = simulate_and_check(result.schedule, respect_release=True)
        payload["validation"] = {
            "simulated_makespan": sim.makespan,
            "utilization": sim.utilization,
            "events": len(sim.events),
        }
    return payload


def iter_replay_frames(
    trace: Instance,
    rescheduler: EpochRescheduler,
    validate: bool,
) -> Iterator[bytes]:
    """NDJSON frames of one streamed replay, each written as it is computed.

    Walks :meth:`~repro.online.epoch.EpochRescheduler.iter_epochs` on the
    caller's thread: each yielded frame is one
    ``{"epoch": <EpochReport.as_dict()>}\\n`` line, and the final frame is
    the complete :func:`compute_replay_response` document (plus
    ``elapsed_ms``, the wall time of the whole stream, frame writes
    included) — concatenating nothing but the last line reproduces the
    legacy synchronous response byte-for-byte.

    Error contract: a kernel exception propagates *here*, mid-iteration —
    the transport then aborts the chunked stream without the terminating
    zero chunk, so truncation is the client's error signal.  Backpressure is
    the consumer itself: no epoch is scheduled before the previous frame
    was taken, and closing the generator (client went away) schedules
    nothing more.
    """
    start = time.perf_counter()
    epochs = rescheduler.iter_epochs(trace)
    while True:
        try:
            report = next(epochs)
        except StopIteration as done:
            result = done.value
            break
        yield json.dumps({"epoch": report.as_dict()}).encode() + b"\n"
    payload = _response(trace, result, validate)
    payload["elapsed_ms"] = (time.perf_counter() - start) * 1e3
    yield json.dumps(payload).encode() + b"\n"
