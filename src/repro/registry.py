"""Central algorithm registry shared by the CLI and the service layer.

Maps the public algorithm names to their :class:`~repro.scheduler.Scheduler`
factories.  The CLI (``python -m repro schedule --algorithm NAME``) and the
scheduling service (``POST /schedule`` with ``{"algorithm": NAME}``) resolve
names through this module so the two entry points can never drift apart.

Registering an additional scheduler (e.g. a test double) is just a dict
insert: ``ALGORITHMS["mine"] = MyScheduler``.  :func:`typed_field` is the
one type check the request parsers apply to scalar JSON fields.
"""

from __future__ import annotations

from .baselines.gang import GangScheduler
from .baselines.ludwig import LudwigScheduler
from .baselines.sequential import SequentialLPTScheduler
from .baselines.turek import TurekScheduler
from .core.mrt import MRTScheduler
from .exceptions import ModelError
from .scheduler import Scheduler

__all__ = ["ALGORITHMS", "make_rescheduler", "make_scheduler", "typed_field"]

#: Algorithm name -> scheduler factory (callable returning a Scheduler).
ALGORITHMS: dict[str, type | object] = {
    "mrt": MRTScheduler,
    "ludwig": LudwigScheduler,
    "turek": TurekScheduler,
    "sequential": SequentialLPTScheduler,
    "gang": GangScheduler,
}


#: Readable name of each JSON type :func:`typed_field` accepts.
_KIND_NAMES = {bool: "a boolean", int: "an integer", (int, float): "a number"}


def typed_field(
    payload: dict, key: str, default, kind, *, nullable: bool = False, where: str = ""
):
    """``payload[key]`` (or ``default``) if it is a JSON value of type ``kind``.

    ``kind`` is ``bool``, ``int`` or ``(int, float)``.  A JSON boolean
    matches ``bool`` only — Python's ``True`` is also an ``int``, but
    ``"tasks": true`` is not a task count — and ``None`` passes only when
    ``nullable``.  Anything else raises :class:`~repro.exceptions.ModelError`
    naming the field (prefixed with ``where``), so a loosely typed request
    is a 400 instead of being coerced.
    """
    value = payload.get(key, default)
    if (value is None and nullable) or (
        isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
    ):
        return value
    null = " or null" if nullable else ""
    raise ModelError(f"'{where}{key}' must be {_KIND_NAMES[kind]}{null}")


def make_scheduler(name: str, params: dict | None = None) -> Scheduler:
    """Instantiate the scheduler registered under ``name``.

    ``params`` are passed to the factory as keyword arguments (e.g.
    ``{"eps": 1e-2}`` for ``mrt``).  Raises
    :class:`~repro.exceptions.ModelError` on an unknown name or on keyword
    arguments or values the factory rejects, so service callers get a clean
    400 instead of a stack trace.
    """
    factory = ALGORITHMS.get(name)
    if factory is None:
        raise ModelError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    try:
        return factory(**(params or {}))  # type: ignore[operator]
    except (TypeError, ValueError) as exc:
        raise ModelError(f"invalid parameters for algorithm {name!r}: {exc}") from exc


def make_rescheduler(
    kernel: str = "barrier",
    algorithm: str = "mrt",
    params: dict | None = None,
    *,
    quantum: float | None = None,
    plan_cache=None,
):
    """Instantiate the online replay kernel named ``kernel``.

    ``"barrier"`` (the ``"kernel"`` key of ``POST /replay``) is the one
    kernel: the epoch rescheduler of :mod:`repro.online.epoch`, where a
    batch owns the whole machine until it drains.  ``algorithm``/``params``/
    ``quantum``/``plan_cache`` are forwarded to its constructor
    (``plan_cache`` is an optional
    :class:`~repro.online.plancache.PlanCache` memoising per-epoch batch
    plans).  Raises :class:`~repro.exceptions.ModelError` on any other
    kernel name, listing the valid choice — the service maps that to a
    clean 400.
    """
    # Lazy import: repro.online imports this module for its batch kernels.
    from .online.epoch import EpochRescheduler

    if kernel != EpochRescheduler.kernel:
        raise ModelError(
            f"unknown online kernel {kernel!r}; "
            f"choose from {[EpochRescheduler.kernel]}"
        )
    return EpochRescheduler(
        algorithm, params, quantum=quantum, plan_cache=plan_cache
    )
