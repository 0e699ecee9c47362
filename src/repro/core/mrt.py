"""The complete √3-approximation scheduler (Mounié–Rapine–Trystram, SPAA'99).

``MRT`` combines every ingredient of the paper into the dual approximation of
Theorem 3 and Section 5:

* sound rejection certificates (non-existence of a canonical allotment,
  Property 2);
* the **malleable list** branch of Section 3.1, whose guarantee
  ``2 − 2/(m+1)`` is already below √3 on machines with at most six
  processors;
* the **canonical list** branch of Section 3.2, used when the canonical
  μ-area is small (``W_m ≤ μ·m·d``);
* the **knapsack two-shelf** branch of Section 4 (trivial solutions first,
  then the exact or approximate knapsack), used when the μ-area is large.

A guess ``d`` is *accepted* when one of the branches produces a schedule of
length at most ``√3·d``; a dichotomic search over ``d`` then yields the final
schedule.

Soundness of rejection
----------------------
The paper's Theorems 2 and 3 prove that under their hypotheses (in particular
``m ≥ m*(μ)``) at least one branch must succeed whenever a schedule of length
``d`` exists, which makes rejection sound and the overall algorithm a
``√3(1+ε)``-approximation.  Because a few appendix constants are illegible in
the available text (see the reconstruction note in :mod:`repro.core.theory`),
this implementation does not rely on that implication for its
*correctness*: a rejection that follows a failed branch cascade is only
used to steer the dichotomic search, and the scheduler additionally
evaluates the unconditional ``(2 − 2/(m+1))``-guarantee
malleable-list schedule, returning whichever schedule is shortest.  The
result is therefore always a valid schedule with ratio at most
``2 − 2/(m+1)`` and, on every workload exercised by the EXP-A and THM3
benchmarks (``benchmarks/bench_expA_comparison.py``,
``benchmarks/bench_thm3_guarantee.py``), within √3 of the lower bound —
matching the paper's claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import InfeasibleError
from ..lower_bounds import canonical_area_lower_bound, trivial_lower_bound
from ..model.instance import Instance
from ..model.schedule import Schedule
from ..model.task import EPS
from ..scheduler import Scheduler
from .canonical_list import MU_STAR, canonical_list_schedule
from .dual import DualSearchResult, check_eps, dual_search
from .malleable_list import MalleableListDual, malleable_list_guarantee
from .partition import LAMBDA_STAR, build_partition
from .two_shelves import (
    build_lambda_schedule,
    build_trivial_schedule,
    find_trivial_solution,
    select_shelf2_subset,
)

__all__ = ["MRTDual", "MRTResult", "MRTScheduler"]


class MRTDual:
    """Dual √3-approximation of Theorem 3 (branch dispatch per Section 5).

    Parameters
    ----------
    lam:
        Second-shelf parameter λ (default √3 − 1).
    mu:
        List-branch parameter μ (default √3/2; the target factor is
        ``max(1+λ, 2μ)`` which equals √3 for the defaults).
    knapsack_method:
        ``"exact"``, ``"dual"`` or ``"fptas"`` — passed to
        :func:`repro.core.two_shelves.select_shelf2_subset`.
    fptas_eps:
        Accuracy of the FPTAS when ``knapsack_method="fptas"``.
    """

    def __init__(
        self,
        lam: float = LAMBDA_STAR,
        mu: float = MU_STAR,
        *,
        knapsack_method: str = "exact",
        fptas_eps: float = 0.1,
    ) -> None:
        if not 0.5 < lam <= 1.0:
            raise ValueError("lambda must lie in (1/2, 1]")
        if not 0.5 < mu <= 1.0:
            raise ValueError("mu must lie in (1/2, 1]")
        self.lam = lam
        self.mu = mu
        self.knapsack_method = knapsack_method
        self.fptas_eps = fptas_eps
        self.rho = max(1.0 + lam, 2.0 * mu)
        #: branch that produced the accepted schedule at the last ``run`` call
        #: ("malleable-list", "canonical-list", "two-shelves-trivial",
        #: "two-shelves", or ``None`` after a rejection).
        self.last_branch: str | None = None
        #: μ-area of the last accepted/attempted guess (for experiment EXP-C).
        self.last_mu_area: float | None = None

    # ------------------------------------------------------------------ #
    def _within_target(self, schedule: Schedule | None, guess: float) -> bool:
        if schedule is None:
            return False
        target = self.rho * guess
        return schedule.makespan() <= target + EPS * max(1.0, target)

    def run(self, instance: Instance, guess: float) -> Schedule | None:
        """Return a schedule of length at most ``√3·guess`` or ``None``."""
        self.last_branch = None
        self.last_mu_area = None
        if guess <= 0:
            return None
        m = instance.num_procs
        # ---- sound rejection certificates -------------------------------- #
        canonical_work = instance.canonical_work(guess)
        if canonical_work is None:
            return None
        if canonical_work > m * guess + EPS * max(1.0, guess):
            return None
        mu_area = instance.mu_area(guess)
        self.last_mu_area = mu_area
        small_area = mu_area is not None and mu_area <= self.mu * m * guess + EPS
        # ---- branch order per Section 5 ---------------------------------- #
        malleable = MalleableListDual.for_instance(instance)
        ml_first = malleable_list_guarantee(m) <= self.rho + EPS
        attempts: list[str] = []
        if ml_first:
            attempts.append("malleable-list")
        if small_area:
            attempts.append("canonical-list")
            attempts.append("two-shelves")
        else:
            attempts.append("two-shelves")
            attempts.append("canonical-list")
        if not ml_first:
            attempts.append("malleable-list")
        for branch in attempts:
            schedule = self._run_branch(branch, instance, guess, malleable)
            if self._within_target(schedule, guess):
                assert schedule is not None
                self.last_branch = schedule.algorithm
                return schedule
        return None

    def _run_branch(
        self,
        branch: str,
        instance: Instance,
        guess: float,
        malleable: MalleableListDual,
    ) -> Schedule | None:
        if branch == "malleable-list":
            return malleable.run(instance, guess)
        if branch == "canonical-list":
            return canonical_list_schedule(instance, guess)
        if branch == "two-shelves":
            part = build_partition(instance, guess, self.lam)
            if part is None:
                return None
            tau = find_trivial_solution(part)
            if tau is not None:
                try:
                    return build_trivial_schedule(part, tau)
                except InfeasibleError:
                    pass
            subset = select_shelf2_subset(
                part, method=self.knapsack_method, eps=self.fptas_eps
            )
            if subset is None:
                return None
            try:
                return build_lambda_schedule(part, subset)
            except InfeasibleError:
                return None
        raise ValueError(f"unknown branch {branch!r}")  # pragma: no cover


@dataclass
class MRTResult:
    """Detailed outcome of :class:`MRTScheduler`."""

    schedule: Schedule
    branch: str
    best_guess: float
    lower_bound: float
    search: DualSearchResult
    #: makespan divided by the lower bound (an upper bound on the true ratio).
    ratio_to_lower_bound: float = field(init=False)

    def __post_init__(self) -> None:
        self.ratio_to_lower_bound = (
            self.schedule.makespan() / self.lower_bound if self.lower_bound > 0 else 1.0
        )


class MRTScheduler(Scheduler):
    """The paper's complete algorithm: dual √3-approximation + dichotomic search.

    The returned schedule is the shortest among (a) the schedules of the
    accepted guesses of the dichotomic search and (b) the unconditional
    malleable-list schedule, so the worst-case guarantee is never worse than
    ``2 − 2/(m+1)`` and is ``√3(1+ε)`` whenever the paper's branch-coverage
    theorems apply (see the module docstring).
    """

    name = "mrt-sqrt3"

    def __init__(
        self,
        *,
        lam: float = LAMBDA_STAR,
        mu: float = MU_STAR,
        eps: float = 1e-3,
        knapsack_method: str = "exact",
        fptas_eps: float = 0.1,
    ) -> None:
        self.lam = lam
        self.mu = mu
        self.eps = check_eps(eps)
        self.knapsack_method = knapsack_method
        self.fptas_eps = fptas_eps
        self.last_result: MRTResult | None = None

    def schedule(self, instance: Instance) -> Schedule:
        dual = MRTDual(
            self.lam,
            self.mu,
            knapsack_method=self.knapsack_method,
            fptas_eps=self.fptas_eps,
        )
        result = dual_search(dual, instance, eps=self.eps)
        best = result.schedule
        branch = best.algorithm or "unknown"
        # Unconditional fallback guarantee: the malleable list scheduler.
        from .malleable_list import MalleableListScheduler

        fallback = MalleableListScheduler(eps=self.eps).schedule(instance)
        if fallback.makespan() < best.makespan():
            best = fallback
            branch = "malleable-list-fallback"
        best.validate()
        lower = max(
            trivial_lower_bound(instance), canonical_area_lower_bound(instance)
        )
        self.last_result = MRTResult(
            schedule=best,
            branch=branch,
            best_guess=result.best_guess,
            lower_bound=lower,
            search=result,
        )
        return best
