"""Dual approximation framework (Section 2.2, Hochbaum & Shmoys).

A *dual ρ-approximation* is an algorithm that, given a guess ``d`` on the
optimal makespan, either

* returns a schedule of length at most ``ρ·d``, or
* rejects, certifying that no schedule of length at most ``d`` exists.

A dichotomic search over ``d`` converts a dual ρ-approximation into a
``ρ(1+ε)``-approximation: the search interval is initialised with a lower
bound and a feasible upper bound on the optimum and halved until its relative
width drops below ε.  :func:`dual_search` implements that conversion for any
object following the :class:`DualApproximation` protocol and records the full
trace of guesses for the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Protocol, runtime_checkable

from ..exceptions import SearchError
from ..lower_bounds import canonical_area_lower_bound, trivial_lower_bound
from ..model.instance import Instance
from ..model.schedule import Schedule

__all__ = ["DualApproximation", "GuessOutcome", "DualSearchResult", "dual_search"]


@runtime_checkable
class DualApproximation(Protocol):
    """Protocol of a dual approximation algorithm."""

    #: Guarantee factor ρ: an accepted guess ``d`` yields a schedule ``<= ρ·d``.
    rho: float

    def run(self, instance: Instance, guess: float) -> Schedule | None:
        """Return a schedule of length at most ``rho * guess`` or ``None`` (reject)."""


@dataclass(frozen=True)
class GuessOutcome:
    """One step of the dichotomic search."""

    guess: float
    accepted: bool
    makespan: float | None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "accept" if self.accepted else "reject"
        extra = f", makespan={self.makespan:.4g}" if self.makespan is not None else ""
        return f"GuessOutcome(d={self.guess:.4g}, {state}{extra})"


@dataclass
class DualSearchResult:
    """Outcome of :func:`dual_search`.

    Attributes
    ----------
    schedule:
        Best (shortest) schedule produced over all accepted guesses.
    best_guess:
        The smallest accepted guess.
    lower_bound:
        The lower bound used to initialise the search; the final guarantee of
        the calling scheduler is ``schedule.makespan() / optimum`` which is at
        most ``rho * (1 + eps)`` whenever rejections are sound.
    trace:
        The sequence of guesses explored, in order.
    """

    schedule: Schedule
    best_guess: float
    lower_bound: float
    trace: list[GuessOutcome] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of guesses explored."""
        return len(self.trace)


def check_eps(eps: float) -> float:
    """Return ``eps`` if it is a finite positive number, else raise ``ValueError``."""
    if not isinstance(eps, Real) or isinstance(eps, bool) or not 0 < eps < math.inf:
        raise ValueError(f"eps must be a finite positive number, got {eps!r}")
    return eps


def dual_search(
    dual: DualApproximation,
    instance: Instance,
    *,
    eps: float = 1e-3,
    lower_bound: float | None = None,
    upper_bound: float | None = None,
    max_iter: int = 200,
) -> DualSearchResult:
    """Convert a dual approximation into an approximation by dichotomic search.

    Parameters
    ----------
    dual:
        The dual algorithm (must expose ``rho`` and ``run``).
    instance:
        The instance to schedule.
    eps:
        Relative precision of the search; the returned schedule has length at
        most ``rho * (1 + eps) * OPT`` provided the dual's rejections are
        sound.
    lower_bound, upper_bound:
        Optional overrides of the search interval.  By default the lower
        bound is the Property-2 lower bound and the upper bound is
        ``Σ t_i(1)`` (always accepted: at that guess every task is sequential
        and a trivial LPT schedule fits, so any sensible dual accepts).
    max_iter:
        Safety cap on the number of dichotomic iterations.

    Raises
    ------
    SearchError
        If no guess in the interval is accepted (which indicates a broken
        dual algorithm, since the upper bound is always feasible).
    """
    check_eps(eps)
    lb = lower_bound if lower_bound is not None else max(
        trivial_lower_bound(instance), canonical_area_lower_bound(instance)
    )
    ub = upper_bound if upper_bound is not None else instance.upper_bound()
    ub = max(ub, lb)
    trace: list[GuessOutcome] = []
    best_schedule: Schedule | None = None
    best_guess = ub

    def attempt(guess: float) -> bool:
        nonlocal best_schedule, best_guess
        schedule = dual.run(instance, guess)
        if schedule is None:
            trace.append(GuessOutcome(guess, False, None))
            return False
        cmax = schedule.makespan()
        trace.append(GuessOutcome(guess, True, cmax))
        if best_schedule is None or cmax < best_schedule.makespan():
            best_schedule = schedule
        best_guess = min(best_guess, guess)
        return True

    # Make sure the upper end is accepted before bisecting.
    hi = ub
    if not attempt(hi):
        grown = hi
        accepted = False
        for _ in range(20):
            grown *= 2.0
            if attempt(grown):
                hi = grown
                accepted = True
                break
        if not accepted:
            raise SearchError(
                f"dual algorithm {type(dual).__name__} rejected every guess up to "
                f"{grown:.4g}; the instance upper bound {ub:.4g} should be feasible"
            )
    lo = lb
    if attempt(lo):
        hi = lo
    iterations = 0
    while hi - lo > eps * max(lo, 1e-12) and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if attempt(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    assert best_schedule is not None  # guaranteed by the accepted upper end
    return DualSearchResult(
        schedule=best_schedule,
        best_guess=best_guess,
        lower_bound=lb,
        trace=trace,
    )
