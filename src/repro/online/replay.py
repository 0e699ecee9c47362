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
    The streaming producer behind the chunked ``POST /replay``: a generator
    of NDJSON frames — one ``{"epoch": ...}`` line per
    :class:`~repro.online.epoch.EpochReport` as it is scheduled, then the
    full ``compute_replay_response`` document as the final line, so a
    client that concatenates the final frame sees exactly the legacy
    synchronous response.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from typing import Iterator

from ..exceptions import ModelError
from ..model.instance import Instance
from ..registry import make_rescheduler
from ..sim.validate import simulate_and_check
from ..workloads.arrivals import ARRIVAL_PATTERNS, make_trace
from .epoch import EpochRescheduler

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
                int(spec.get("tasks", 32)),
                int(spec.get("procs", 16)),
                seed=int(spec.get("seed", 0)),
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
    quantum = payload.get("quantum")
    if quantum is not None:
        try:
            quantum = float(quantum)
        except (TypeError, ValueError) as exc:
            raise ModelError("'quantum' must be a number or null") from exc
    kernel = payload.get("kernel", "barrier")
    if not isinstance(kernel, str):
        raise ModelError("'kernel' must be a string")
    rescheduler = make_rescheduler(
        kernel, algorithm, params, quantum=quantum, plan_cache=plan_cache
    )
    return trace, rescheduler, bool(payload.get("validate", False))


def compute_replay_response(
    trace: Instance,
    rescheduler: EpochRescheduler,
    validate: bool,
    *,
    on_epoch=None,
) -> dict:
    """Run the replay and shape the ``POST /replay`` response payload.

    ``on_epoch`` is forwarded to :meth:`replay` — the streaming frontend
    hooks it to emit one frame per :class:`~repro.online.epoch.EpochReport`.
    """
    result = rescheduler.replay(trace, on_epoch=on_epoch)
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


class _StreamClosed(Exception):
    """Raised inside the producer when the consumer abandoned the stream."""


#: Queue sentinel: the producer is done, every frame has been enqueued.
_DONE = object()


def iter_replay_frames(
    trace: Instance,
    rescheduler: EpochRescheduler,
    validate: bool,
    *,
    queue_size: int = 32,
) -> Iterator[bytes]:
    """NDJSON frames of one streamed replay, produced as epochs complete.

    Bridges the kernel's push-style ``on_epoch`` callback into the
    pull-style iterable the transports consume: the replay runs on a
    producer thread feeding a bounded queue; each yielded frame is one
    ``{"epoch": <EpochReport.as_dict()>}\\n`` line, and the final frame is
    the complete :func:`compute_replay_response` document (plus
    ``elapsed_ms``) — concatenating nothing but the last line reproduces
    the legacy synchronous response byte-for-byte.

    Error contract: a kernel exception is re-raised *here*, mid-iteration —
    the transport then aborts the chunked stream without the terminating
    zero chunk, so truncation is the client's error signal.  Closing the
    generator early (client went away) sets a cancel flag that the
    producer's next ``put`` turns into a clean thread exit: no thread leak,
    no unbounded buffering of an abandoned replay.
    """
    frames: queue.Queue = queue.Queue(maxsize=queue_size)
    cancelled = threading.Event()

    def put(item) -> None:
        while True:
            if cancelled.is_set():
                raise _StreamClosed
            try:
                frames.put(item, timeout=0.1)
                return
            except queue.Full:
                continue

    def produce() -> None:
        start = time.perf_counter()
        try:
            payload = compute_replay_response(
                trace,
                rescheduler,
                validate,
                on_epoch=lambda report: put({"epoch": report.as_dict()}),
            )
            payload["elapsed_ms"] = (time.perf_counter() - start) * 1e3
            put(payload)
            put(_DONE)
        except _StreamClosed:
            pass
        except BaseException as exc:  # noqa: BLE001 — relayed to the consumer
            try:
                put(exc)
            except _StreamClosed:
                pass

    producer = threading.Thread(
        target=produce, name="repro-replay-stream", daemon=True
    )
    producer.start()
    try:
        while True:
            item = frames.get()
            if item is _DONE:
                return
            if isinstance(item, BaseException):
                raise item
            yield json.dumps(item).encode() + b"\n"
    finally:
        cancelled.set()
