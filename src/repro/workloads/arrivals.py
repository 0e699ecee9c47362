"""Arrival-trace generators: release dates over the existing workload families.

An online *trace* is just an :class:`~repro.model.instance.Instance` whose
tasks carry release times, so traces reuse the whole serving stack (JSON
round-trip, fingerprints, validation) unchanged.  Each generator draws a base
instance from a named workload family (:data:`WORKLOAD_FAMILIES`) and then
assigns release times following a classical arrival pattern:

``poisson_trace``
    Homogeneous Poisson process: i.i.d. exponential inter-arrival times.
``burst_trace``
    Arrivals clustered into a few bursts spread over the horizon — the
    "thundering herd" pattern that stresses epoch batching.
``diurnal_trace``
    Inhomogeneous arrivals with a sinusoidal intensity (a day/night load
    curve), sampled by inverse-transform over the cumulative intensity.
``pareto_trace``
    Heavy-tailed (Pareto/Lomax) inter-arrival times: most arrivals land in
    dense clumps separated by rare, very long gaps, so epochs alternate
    between large batches and a drained, idle machine.

Unless given explicitly, the arrival horizon defaults to the instance's
offline makespan lower bound: the trace then injects work at roughly the
rate the machine can drain it, which is the regime where epoch rescheduling
is interesting (an almost-empty machine makes every policy look the same,
an overloaded one measures only the backlog).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..model.instance import Instance
from .generators import as_rng, make_workload

__all__ = [
    "ARRIVAL_PATTERNS",
    "burst_trace",
    "diurnal_trace",
    "make_trace",
    "pareto_trace",
    "poisson_trace",
]


def _horizon(instance: Instance, horizon: float | None) -> float:
    if horizon is not None:
        if horizon < 0:
            raise ModelError("horizon must be non-negative")
        return float(horizon)
    return instance.lower_bound()


def poisson_trace(
    family: str = "mixed",
    num_tasks: int = 32,
    num_procs: int = 16,
    *,
    seed: int | np.random.Generator | None = None,
    rate: float | None = None,
    horizon: float | None = None,
    name: str = "poisson-trace",
) -> Instance:
    """Poisson arrivals: exponential inter-arrival times at ``rate`` per unit.

    ``rate=None`` derives the rate from the horizon (``num_tasks /
    horizon``), so the default trace spreads its arrivals over roughly the
    offline lower bound.
    """
    rng = as_rng(seed)
    instance = make_workload(family, num_tasks, num_procs, seed=rng)
    if rate is None:
        span = _horizon(instance, horizon)
        rate = num_tasks / span if span > 0 else None
    if rate is None or rate <= 0:
        releases = np.zeros(num_tasks)
    else:
        releases = np.cumsum(rng.exponential(1.0 / rate, size=num_tasks))
        releases -= releases[0]  # the first task opens the trace at time 0
    return instance.with_releases(releases, name=name)


def burst_trace(
    family: str = "mixed",
    num_tasks: int = 32,
    num_procs: int = 16,
    *,
    seed: int | np.random.Generator | None = None,
    bursts: int = 3,
    jitter: float = 0.02,
    horizon: float | None = None,
    name: str = "burst-trace",
) -> Instance:
    """Arrivals clustered into ``bursts`` groups spread evenly over the horizon.

    Each task joins a uniformly random burst; within a burst, releases are
    jittered by a centred normal with standard deviation ``jitter · horizon``
    (clipped at 0), so a burst is a near-simultaneous stampede rather than a
    single instant.
    """
    if bursts < 1:
        raise ModelError("bursts must be >= 1")
    rng = as_rng(seed)
    instance = make_workload(family, num_tasks, num_procs, seed=rng)
    span = _horizon(instance, horizon)
    centers = np.linspace(0.0, span, num=bursts, endpoint=False)
    assignment = rng.integers(0, bursts, size=num_tasks)
    releases = centers[assignment] + rng.normal(
        0.0, jitter * max(span, 1e-12), size=num_tasks
    )
    releases = np.clip(releases, 0.0, None)
    return instance.with_releases(releases, name=name)


def diurnal_trace(
    family: str = "mixed",
    num_tasks: int = 32,
    num_procs: int = 16,
    *,
    seed: int | np.random.Generator | None = None,
    periods: float = 2.0,
    peak_to_trough: float = 4.0,
    horizon: float | None = None,
    name: str = "diurnal-trace",
) -> Instance:
    """Sinusoidal arrival intensity over ``periods`` day/night cycles.

    The intensity is ``1 + a·sin`` scaled so the peak rate is
    ``peak_to_trough`` times the trough rate; releases are drawn by
    inverse-transform sampling of the cumulative intensity, so task density
    follows the load curve exactly in expectation.
    """
    if peak_to_trough < 1.0:
        raise ModelError("peak_to_trough must be >= 1")
    rng = as_rng(seed)
    instance = make_workload(family, num_tasks, num_procs, seed=rng)
    span = _horizon(instance, horizon)
    if span <= 0:
        return instance.with_releases(np.zeros(num_tasks), name=name)
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    grid = np.linspace(0.0, span, num=2048)
    intensity = 1.0 + amplitude * np.sin(2.0 * np.pi * periods * grid / span)
    cumulative = np.concatenate([[0.0], np.cumsum(intensity[:-1] * np.diff(grid))])
    cumulative /= cumulative[-1]
    quantiles = rng.uniform(0.0, 1.0, size=num_tasks)
    releases = np.sort(np.interp(quantiles, cumulative, grid))
    releases -= releases[0]  # the first task opens the trace at time 0
    return instance.with_releases(releases, name=name)


def pareto_trace(
    family: str = "mixed",
    num_tasks: int = 32,
    num_procs: int = 16,
    *,
    seed: int | np.random.Generator | None = None,
    alpha: float = 1.5,
    horizon: float | None = None,
    name: str = "pareto-trace",
) -> Instance:
    """Heavy-tailed arrivals: Lomax(``alpha``) inter-arrival times.

    Inter-arrivals are drawn from a Pareto-II (Lomax) distribution with
    shape ``alpha`` and scaled so their *mean* spreads the trace over the
    horizon — the same average load as the Poisson trace, but concentrated
    into clumps separated by rare long gaps (the smaller ``alpha``, the
    heavier the tail; ``alpha`` must exceed 1 so the mean exists).
    """
    if alpha <= 1.0:
        raise ModelError("alpha must be > 1 (the inter-arrival mean must exist)")
    rng = as_rng(seed)
    instance = make_workload(family, num_tasks, num_procs, seed=rng)
    span = _horizon(instance, horizon)
    if span <= 0:
        return instance.with_releases(np.zeros(num_tasks), name=name)
    # E[Lomax(alpha)] = 1 / (alpha - 1); rescale to a mean gap of span / n.
    gaps = rng.pareto(alpha, size=num_tasks) * (alpha - 1.0) * (span / num_tasks)
    releases = np.cumsum(gaps)
    releases -= releases[0]  # the first task opens the trace at time 0
    return instance.with_releases(releases, name=name)


#: Named arrival patterns used by the replay CLI, service and benchmark.
ARRIVAL_PATTERNS = {
    "poisson": poisson_trace,
    "burst": burst_trace,
    "diurnal": diurnal_trace,
    "pareto": pareto_trace,
}


def make_trace(
    pattern: str,
    family: str = "mixed",
    num_tasks: int = 32,
    num_procs: int = 16,
    *,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> Instance:
    """Instantiate a named arrival pattern (see :data:`ARRIVAL_PATTERNS`)."""
    if pattern not in ARRIVAL_PATTERNS:
        raise ModelError(
            f"unknown arrival pattern {pattern!r}; choose from "
            f"{sorted(ARRIVAL_PATTERNS)}"
        )
    return ARRIVAL_PATTERNS[pattern](
        family, num_tasks, num_procs, seed=seed, **kwargs
    )
