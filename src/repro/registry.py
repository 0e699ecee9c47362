"""Central algorithm registry shared by the CLI and the service layer.

Maps the public algorithm names to their :class:`~repro.scheduler.Scheduler`
factories.  The CLI (``python -m repro schedule --algorithm NAME``) and the
scheduling service (``POST /schedule`` with ``{"algorithm": NAME}``) resolve
names through this module so the two entry points can never drift apart.

Registering an additional scheduler (e.g. a test double) is just a dict
insert: ``ALGORITHMS["mine"] = MyScheduler``.
"""

from __future__ import annotations

from .baselines.gang import GangScheduler
from .baselines.ludwig import LudwigScheduler
from .baselines.sequential import SequentialLPTScheduler
from .baselines.turek import TurekScheduler
from .core.mrt import MRTScheduler
from .exceptions import ModelError
from .scheduler import Scheduler

__all__ = ["ALGORITHMS", "ONLINE_KERNELS", "make_rescheduler", "make_scheduler"]

#: Algorithm name -> scheduler factory (callable returning a Scheduler).
ALGORITHMS: dict[str, type | object] = {
    "mrt": MRTScheduler,
    "ludwig": LudwigScheduler,
    "turek": TurekScheduler,
    "sequential": SequentialLPTScheduler,
    "gang": GangScheduler,
}

#: Online replay kernels (``python -m repro replay --kernel`` and the
#: ``"kernel"`` key of ``POST /replay``).  ``"barrier"`` is the epoch
#: rescheduler of :mod:`repro.online.epoch` (a batch owns the whole machine
#: until it drains); ``"availability"`` schedules into the remaining
#: capacity (:mod:`repro.online.availability`).  Factories are resolved
#: lazily by :func:`make_rescheduler` because the online layer imports this
#: module for its batch kernels.
ONLINE_KERNELS: tuple[str, ...] = ("availability", "barrier")


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
    """Instantiate the online replay kernel registered under ``kernel``.

    ``algorithm``/``params``/``quantum``/``plan_cache`` are forwarded to the
    kernel's constructor (both kernels share the signature; ``plan_cache``
    is an optional :class:`~repro.online.plancache.PlanCache` memoising
    per-epoch batch plans).  Raises
    :class:`~repro.exceptions.ModelError` on an unknown kernel name, listing
    the valid choices — the service maps that to a clean 400.
    """
    # Lazy import: repro.online imports this module for its batch kernels.
    from .online.availability import AvailabilityRescheduler
    from .online.epoch import EpochRescheduler

    # Keyed by each class's own ``kernel`` attribute so the mapping cannot
    # drift from the classes; a conformance test pins it against
    # ONLINE_KERNELS (the import-time name list the CLI builds choices from).
    factories = {
        cls.kernel: cls for cls in (AvailabilityRescheduler, EpochRescheduler)
    }
    factory = factories.get(kernel)
    if factory is None:
        raise ModelError(
            f"unknown online kernel {kernel!r}; choose from {sorted(factories)}"
        )
    return factory(algorithm, params, quantum=quantum, plan_cache=plan_cache)
