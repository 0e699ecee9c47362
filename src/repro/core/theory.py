"""Analytical quantities of the paper: guarantees, k*, k̂*, m*(μ), bounds.

This module gathers the closed-form quantities the paper states or uses:

* the overall guarantee ``√3`` obtained with ``λ = √3 − 1`` and ``μ = √3/2``
  (``1 + λ = 2μ = √3``);
* the malleable-list guarantee ``2 − 2/(m+1)`` of Theorem 1 and the largest
  machine for which it is already below √3;
* ``k*(μ)`` — the largest integer with ``k/(k+1) < μ``: by Property 1 a task
  whose canonical execution time is at most ``μ·d`` uses at most ``k*+1``
  processors (appendix A.1);
* ``k̂*(μ) = ⌈(k*+1)/2⌉`` — halving the allotment of such a task at most
  doubles its execution time, keeping it below ``2μ·d`` (the re-allocation
  trick of the appendix);
* ``m*(μ)`` — the minimal machine size for which Property 3 holds (every task
  of the first two levels of the canonical list schedule finishes before
  ``2μ·d``), plotted in Figure 8;
* the bound on the inefficiency factor of the optimal schedule derived in
  Section 4.2.

**Reconstruction note (Figure 8).**  The closed-form expression of ``m*(μ)``
in the appendix is largely illegible in the only available OCR of the paper.
:func:`m_star` therefore implements a *calibrated reconstruction*:
``m*(μ) = max(k*(μ) + 1, ⌊(2 − μ)/(1 − μ)⌋)``, which (a) grows like the
number of processors a sub-μ task may occupy, as the appendix argument does,
(b) reproduces the figure's range (≈5 at μ = 0.75 up to ≈21 at μ = 0.95) and
(c) matches exactly the refined anchor the paper states in clear text:
``m*(√3/2) = 8``.  The FIG8 benchmark (``benchmarks/bench_fig8_mstar.py``)
regenerates the curve from this reconstruction, and :func:`m_star_empirical`
provides an independent instance-based estimate it uses as a cross-check.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..model.instance import Instance
from .canonical_list import canonical_list_schedule, first_two_level_completion
from .list_scheduling import compute_levels

__all__ = [
    "SQRT3",
    "LAMBDA_STAR",
    "MU_STAR",
    "overall_guarantee",
    "malleable_list_guarantee",
    "largest_machine_below_sqrt3",
    "k_star",
    "k_hat",
    "m_star",
    "m_star_empirical",
    "inefficiency_bound",
]

SQRT3: float = math.sqrt(3.0)
LAMBDA_STAR: float = SQRT3 - 1.0
MU_STAR: float = SQRT3 / 2.0


def overall_guarantee() -> float:
    """The paper's headline worst-case performance guarantee, √3 ≈ 1.732."""
    return SQRT3


def malleable_list_guarantee(num_procs: int) -> float:
    """Theorem 1 guarantee ``2 − 2/(m+1)`` (re-exported for convenience)."""
    if num_procs < 1:
        raise ValueError("num_procs must be >= 1")
    return 2.0 - 2.0 / (num_procs + 1)


def largest_machine_below_sqrt3() -> int:
    """Largest ``m`` with ``2 − 2/(m+1) ≤ √3``.

    ``2 − 2/(m+1) ≤ √3 ⇔ m ≤ 2/(2−√3) − 1 ≈ 6.46``, hence 6: for machines of
    at most six processors the simple malleable list algorithm already
    achieves the √3 guarantee and the knapsack machinery is unnecessary.
    """
    m = 1
    while malleable_list_guarantee(m + 1) <= SQRT3:
        m += 1
    return m


def k_star(mu: float) -> int:
    """Largest integer ``k ≥ 0`` with ``k/(k+1) < μ``.

    By Property 1, a task whose canonical execution time is at most ``μ·d``
    cannot be canonically allotted more than ``k*(μ) + 1`` processors.
    """
    if not 0.5 < mu <= 1.0:
        raise ValueError("mu must lie in (1/2, 1]")
    if mu >= 1.0:
        # k/(k+1) < 1 for every k; the quantity is unbounded — cap it at the
        # largest value meaningful for the bound (never hit in practice since
        # the paper uses μ = √3/2 < 1).
        return 10**9
    limit = mu / (1.0 - mu)
    k = int(math.floor(limit))
    if abs(k - limit) < 1e-12:
        k -= 1
    return max(0, k)


def k_hat(mu: float) -> int:
    """``⌈(k*(μ)+1)/2⌉`` — the re-allocation width of the appendix."""
    return int(math.ceil((k_star(mu) + 1) / 2.0))


def m_star(mu: float) -> int:
    """Minimal machine size for Property 3 (Figure 8) — calibrated reconstruction.

    See the module docstring for the reconstruction caveat.  Exactly matches
    the paper's refined value ``m*(√3/2) = 8``.
    """
    if not 0.5 < mu < 1.0:
        raise ValueError("mu must lie in (1/2, 1)")
    size_bound = int(math.floor((2.0 - mu) / (1.0 - mu) + 1e-12))
    return max(k_star(mu) + 1, size_bound)


def m_star_empirical(
    mu: float,
    *,
    max_m: int = 64,
    trials_per_m: int = 40,
    seed: int = 0,
) -> int:
    """Empirical estimate of ``m*(μ)`` by adversarial search.

    For each machine size ``m`` (increasing), a battery of adversarial
    instances is generated that (i) provably admit a schedule of length 1
    (their canonical allotments fit side by side within the machine after a
    small re-allotment) and (ii) have canonical μ-area at most ``μ·m``.  The
    canonical list algorithm is run with guess 1 and Property 3 is checked:
    every task of the first two levels must finish by ``2μ``.  The returned
    value is the smallest ``m`` such that no violation was found for any
    ``m' ≥ m`` up to ``max_m`` — a *lower* bound on the true threshold (a
    finite search cannot prove the property), used as a cross-check of
    :func:`m_star` in the FIG8 benchmark.
    """
    from ..workloads.adversarial import property3_stress_instances

    if not 0.5 < mu < 1.0:
        raise ValueError("mu must lie in (1/2, 1)")
    rng = np.random.default_rng(seed)
    violating: list[int] = []
    for m in range(2, max_m + 1):
        violated = False
        for instance in property3_stress_instances(
            m, mu, trials=trials_per_m, rng=rng
        ):
            area = instance.mu_area(1.0)
            if area is None or area > mu * m + 1e-9:
                continue
            schedule = canonical_list_schedule(instance, 1.0)
            if schedule is None:
                continue
            if first_two_level_completion(schedule) > 2.0 * mu + 1e-9:
                violated = True
                break
        if violated:
            violating.append(m)
    if not violating:
        return 2
    return max(violating) + 1


def inefficiency_bound(
    lam: float, area_t1: float, area_t2: float, area_t3: float, num_procs: int
) -> float:
    """Upper bound on the inefficiency factor of the optimal schedule (§4.2).

    The paper bounds the expansion factor ρ of the set of T1 tasks executed
    in time at most ``d/2`` by the optimal schedule, in terms of the
    canonical areas ``V1, V2, V3`` of T1, T2, T3 and the machine size, under
    the standing assumption ``W_m ≥ (1+λ)·m/3`` of the knapsack branch:

        ρ ≤ ((3 − (1+λ))·m·d − 2·V2 − 2·V3) / (2·V1)

    (reconstructed from the partially legible derivation; only used for
    reporting, never for correctness).  The guess is normalised to ``d = 1``.
    """
    if area_t1 <= 0:
        return float("inf")
    numerator = (3.0 - (1.0 + lam)) * num_procs - 2.0 * area_t2 - 2.0 * area_t3
    return max(1.0, numerator / (2.0 * area_t1))
