"""Vectorized, memoized canonical-allotment engine.

Every algorithm of the paper evaluates the canonical allotment γ(d) — the
component-wise minimal processor counts meeting a deadline ``d`` — over and
over: the dichotomic searches probe dozens of guesses, each branch of the
√3 scheduler re-derives γ at a scaled deadline (θ·d for the malleable list,
λ·d for the second shelf), and the Property-2 lower bound runs its own
search.  Doing this task-by-task in Python is the dominant cost of the
package.

The :class:`AllotmentEngine` replaces the scalar loops with two ideas:

* **Vectorization** — the instance's execution-time profiles are stacked
  into one ``(n, m)`` float64 matrix, so γ(d) for *all* tasks is a single
  boolean comparison plus a row-wise ``argmax`` (the first processor count
  meeting the deadline).  Canonical times, works, the Property-2 total, the
  μ-area of Definition 1 and the T1/T2/T3 thresholds of the two-shelf
  partition all derive from the same pass.
* **Memoization** — results are cached per engine in a small LRU keyed on
  the *quantized* deadline (:func:`quantize_deadline`, 12 significant
  digits).  The dichotomic searches of the schedulers and of the lower
  bound revisit exactly the same guesses (the lower bound is recomputed by
  ``dual_search``, ``MRTScheduler`` and ``best_lower_bound`` alike), so
  repeated evaluations become dictionary hits.
* **The piece table** — γ(d) is piecewise constant in ``d``: it changes
  only where ``d + EPS`` crosses the prefix minimum ``min_{q<=p} t_i(q)``
  of some row, so an instance has at most ``n·m + 1`` pieces.  The engine
  sorts those prefix minima once (lazily, on the first miss) and files
  every computed profile under its piece number, ``bisect_right(breaks,
  d + EPS)``.  An LRU miss whose piece is already known costs one bisect:
  the new profile shares the piece's read-only arrays, feasibility, total
  work and μ-area, and only its ``deadline`` is the caller's.  The LRU,
  its hit/miss counters and the probe sequence are unchanged, so a miss
  still counts one distinct deadline looked up for the first time.

The engine is deliberately model-agnostic: it only sees the stacked
matrices, so it can be unit-tested against the scalar reference
implementation in :mod:`repro.model.task` without circular imports.
:class:`repro.model.instance.Instance` owns one lazily created engine per
instance (dropped on pickling, rebuilt on demand in worker processes).

Semantics match the scalar path exactly, including for *non-monotonic*
profiles: γ_i(d) is the first ``p`` with ``t_i(p) <= d + EPS`` (a linear
scan in the scalar code, a masked ``argmax`` here), and ``d <= 0`` is
uniformly infeasible.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..exceptions import ModelError
from ..model.task import EPS

__all__ = [
    "CanonicalAllotment",
    "GammaProfile",
    "PartitionSplit",
    "AllotmentEngine",
    "quantize_deadline",
]

#: Number of significant digits of the cache key.  Guesses produced by the
#: dichotomic searches differ by far more than 1e-12 relatively (the finest
#: search tolerance is 1e-9), so quantization merges only genuinely repeated
#: deadlines and never conflates two distinct probes of the same search.
_SIG_DIGITS = 12

#: Default number of distinct deadlines remembered per engine.  A full
#: ``MRTScheduler.schedule`` call probes well under 100 distinct guesses
#: (lower-bound search + dichotomic search + the λ·d / θ·d satellites).
#: The piece table behind it needs no such bound: it holds at most one
#: profile per piece of γ, ``n·m + 1`` for an ``(n, m)`` instance.
_DEFAULT_CACHE_SIZE = 512


def quantize_deadline(deadline: float) -> float:
    """Quantize ``deadline`` to 12 significant digits (the cache key).

    The quantized value is only used as a dictionary key; computations use
    the caller's exact float, so a cache miss always reproduces the scalar
    reference bit-for-bit.
    """
    d = float(deadline)
    # Every γ(d) probe, hit or miss, pays for this call: ``math.isfinite``
    # avoids numpy's per-scalar ufunc overhead.
    if d == 0.0 or not math.isfinite(d):
        return d
    return float("%.*e" % (_SIG_DIGITS, d))


@dataclass(frozen=True)
class CanonicalAllotment:
    """Canonical allotment γ(d) of an instance for a deadline ``d``.

    Attributes
    ----------
    deadline:
        The guess ``d`` the allotment refers to.
    procs:
        ``procs[i] = γ_i(d)``.
    times:
        ``times[i] = t_i(γ_i(d))`` — the canonical execution times.
    works:
        ``works[i] = γ_i(d) · t_i(γ_i(d))`` — the canonical works/areas.
    """

    deadline: float
    procs: np.ndarray
    times: np.ndarray
    works: np.ndarray

    @property
    def total_work(self) -> float:
        """``Σ_i W_i(γ_i(d))``."""
        return float(self.works.sum())

    @property
    def total_procs(self) -> int:
        """``Σ_i γ_i(d)``."""
        return int(self.procs.sum())

    def __len__(self) -> int:
        return int(self.procs.size)


class GammaProfile:
    """Per-deadline vectorized view of γ(d), including infeasible tasks.

    Unlike :class:`CanonicalAllotment` (which only exists when *every* task
    meets the deadline), a profile is always defined: tasks that cannot meet
    the deadline carry ``procs = 0`` and ``times = works = +inf``.  The
    two-shelf partition needs this per-task view at the second-shelf
    deadline λ·d, where individual tasks may legitimately be unreachable
    (they are then pinned to the first shelf).
    """

    __slots__ = (
        "deadline",
        "procs",
        "times",
        "works",
        "mask",
        "feasible",
        "total_work",
        "_allotment",
        "_mu_area",
        "_piece",
    )

    def __init__(
        self,
        deadline: float,
        procs: np.ndarray,
        times: np.ndarray,
        works: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        self.deadline = float(deadline)
        self.procs = procs
        self.times = times
        self.works = works
        self.mask = mask
        self.feasible = bool(mask.all())
        self.total_work = float(works.sum()) if self.feasible else float("inf")
        self._allotment: CanonicalAllotment | None = None
        self._mu_area: float | None = None
        #: the profile this one was derived from by :meth:`at` (``None``
        #: when it was computed), which holds the shared μ-area.
        self._piece: GammaProfile | None = None

    def at(self, deadline: float) -> GammaProfile:
        """The same piece of γ seen from another ``deadline``.

        Only valid for a deadline in the same piece: the arrays, the
        feasibility, the total work and the μ-area are shared, not rebuilt.
        """
        twin = GammaProfile.__new__(GammaProfile)
        twin.deadline = deadline
        twin.procs = self.procs
        twin.times = self.times
        twin.works = self.works
        twin.mask = self.mask
        twin.feasible = self.feasible
        twin.total_work = self.total_work
        twin._allotment = None
        twin._mu_area = None
        twin._piece = self._piece or self
        return twin

    def allotment(self) -> CanonicalAllotment | None:
        """The :class:`CanonicalAllotment`, or ``None`` when some γ_i is missing."""
        if not self.feasible:
            return None
        if self._allotment is None:
            self._allotment = CanonicalAllotment(
                deadline=self.deadline,
                procs=self.procs,
                times=self.times,
                works=self.works,
            )
        return self._allotment

    def procs_list(self) -> list[int | None]:
        """γ per task with ``None`` for unreachable tasks (scalar-API shape)."""
        return [int(p) if ok else None for p, ok in zip(self.procs, self.mask)]


@dataclass(frozen=True)
class PartitionSplit:
    """Vectorized T1/T2/T3 threshold split for a guess ``d`` and parameter λ.

    ``t1``/``t2``/``t3`` are sorted task-index arrays: canonical time
    greater than λ·d, in (d/2, λ·d], and at most d/2 respectively.
    ``shelf2_procs[i] = γ_i(λ·d)`` with 0 where the second shelf is
    unreachable (only meaningful for tasks of T1).
    """

    guess: float
    lam: float
    alloc: CanonicalAllotment
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    shelf2_procs: np.ndarray


class AllotmentEngine:
    """Vectorized γ(d) evaluation over an instance's stacked profile matrix.

    Parameters
    ----------
    times_matrix:
        ``times_matrix[i, p-1] = t_i(p)`` for every task ``i`` and processor
        count ``p`` in ``1..m`` — rectangular because instances truncate all
        profiles to exactly ``m`` columns.
    works_matrix:
        ``works_matrix[i, p-1] = p · t_i(p)``; derived from ``times_matrix``
        when omitted.
    cache_size:
        Number of distinct (quantized) deadlines remembered.
    """

    __slots__ = (
        "_times",
        "_works",
        "_m",
        "_n",
        "_cache",
        "_cache_size",
        "_breaks",
        "_pieces",
        "_lock",
        "hits",
        "misses",
    )

    def __init__(
        self,
        times_matrix: np.ndarray,
        works_matrix: np.ndarray | None = None,
        *,
        cache_size: int = _DEFAULT_CACHE_SIZE,
    ) -> None:
        times = np.ascontiguousarray(times_matrix, dtype=np.float64)
        if times.ndim != 2 or times.size == 0:
            raise ModelError("times_matrix must be a non-empty (n, m) matrix")
        if works_matrix is None:
            works = times * np.arange(1, times.shape[1] + 1, dtype=np.float64)
        else:
            works = np.ascontiguousarray(works_matrix, dtype=np.float64)
            if works.shape != times.shape:
                raise ModelError("works_matrix must have the same shape as times_matrix")
        self._times = times
        self._works = works
        self._n, self._m = times.shape
        self._cache: OrderedDict[float, GammaProfile] = OrderedDict()
        self._cache_size = int(cache_size)
        #: the sorted row-wise prefix minima of ``times`` (built on the first
        #: miss) and the profile computed for each piece number.
        self._breaks: list[float] | None = None
        self._pieces: dict[int, GammaProfile] = {}
        # The LRU bookkeeping (get + move_to_end + popitem) is not atomic;
        # the experiment runner's thread-pool fallback shares one engine per
        # instance across concurrent runs, so guard it with a lock.
        self._lock = threading.Lock()
        #: cache statistics (exposed for the speedup benchmark and tests)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_tasks(self) -> int:
        """Number of tasks ``n`` (rows of the profile matrix)."""
        return self._n

    @property
    def num_procs(self) -> int:
        """Number of processors ``m`` (columns of the profile matrix)."""
        return self._m

    @property
    def times_matrix(self) -> np.ndarray:
        """The stacked execution-time matrix ``times[i, p-1] = t_i(p)``."""
        return self._times

    @property
    def works_matrix(self) -> np.ndarray:
        """The stacked work matrix ``works[i, p-1] = p · t_i(p)``."""
        return self._works

    def cache_info(self) -> dict[str, int]:
        """Cache statistics: hits, misses, current size and capacity.

        Read under the lock, so the three counts are taken at one moment.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._cache),
                "maxsize": self._cache_size,
            }

    def clear_cache(self) -> None:
        """Drop every memoized profile, the piece table with its sorted
        breakpoints, and reset the statistics."""
        with self._lock:
            self._cache.clear()
            self._breaks = None
            self._pieces.clear()
            self.hits = 0
            self.misses = 0

    # ------------------------------------------------------------------ #
    # the vectorized pass
    # ------------------------------------------------------------------ #
    def _compute(self, deadline: float) -> GammaProfile:
        if deadline <= 0:
            # Matches the scalar path: non-positive guesses are uniformly
            # infeasible regardless of the profiles.
            mask = np.zeros(self._n, dtype=bool)
            procs = np.zeros(self._n, dtype=np.int64)
            times = np.full(self._n, np.inf)
            works = np.full(self._n, np.inf)
            for arr in (procs, times, works):
                arr.setflags(write=False)
            return GammaProfile(deadline, procs, times, works, mask)
        fits = self._times <= deadline + EPS
        mask = fits.any(axis=1)
        # ``argmax`` on a boolean row returns the first True — exactly the
        # minimal p with t(p) <= d + EPS, for monotonic and non-monotonic
        # profiles alike (the scalar code linear-scans the latter).
        first = fits.argmax(axis=1)
        rows = np.arange(self._n)
        procs = np.where(mask, first + 1, 0).astype(np.int64)
        times = np.where(mask, self._times[rows, first], np.inf)
        works = np.where(mask, self._works[rows, first], np.inf)
        for arr in (procs, times, works):
            arr.setflags(write=False)
        return GammaProfile(deadline, procs, times, works, mask)

    def _piece_number(self, deadline: float) -> int | None:
        """The piece of γ holding ``deadline``; call with the lock held.

        ``bisect_right`` counts the prefix minima ``<= d + EPS``.  Per row
        that count fixes the first ``p`` with ``t_i(p) <= d + EPS`` (the
        first ``p`` whose prefix minimum is ``<= d + EPS``, monotonic
        profile or not), and each row's count only grows with ``d``, so
        equal totals mean equal γ.  ``d <= 0`` and NaN have no piece: they
        are uniformly infeasible, and NaN would bisect into the last piece.
        """
        if not deadline > 0:
            return None
        if self._breaks is None:
            self._breaks = sorted(
                np.minimum.accumulate(self._times, axis=1).ravel().tolist()
            )
        return bisect_right(self._breaks, deadline + EPS)

    def gamma(self, deadline: float) -> GammaProfile:
        """The (memoized) vectorized γ profile for ``deadline``.

        A deadline seen before (up to quantization) is an LRU hit.  A miss
        in a piece of γ already computed is answered from the piece table;
        only a miss in a new piece runs the vectorized pass.

        Thread-safe: concurrent callers may redundantly compute the same
        profile (the vectorized pass is cheap and side-effect free) but the
        cache structures themselves are never corrupted.
        """
        key = quantize_deadline(deadline)
        deadline = float(deadline)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                self._cache.move_to_end(key)
                return cached
            self.misses += 1
            piece_number = self._piece_number(deadline)
            piece = self._pieces.get(piece_number)
        if piece is not None:
            profile = piece.at(deadline)
        else:
            profile = self._compute(deadline)
        with self._lock:
            if piece_number is not None:
                self._pieces.setdefault(piece_number, profile)
            self._cache[key] = profile
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return profile

    # ------------------------------------------------------------------ #
    # derived quantities (each a thin view over the memoized pass)
    # ------------------------------------------------------------------ #
    def allotment(self, deadline: float) -> CanonicalAllotment | None:
        """γ(d) for every task, or ``None`` when some task cannot meet ``d``."""
        return self.gamma(deadline).allotment()

    def canonical_procs(self, deadline: float) -> list[int | None]:
        """γ_i(d) per task (``None`` when unreachable)."""
        return self.gamma(deadline).procs_list()

    def total_work(self, deadline: float) -> float | None:
        """Property-2 total ``Σ_i W_i(γ_i(d))``, or ``None`` when infeasible."""
        profile = self.gamma(deadline)
        return profile.total_work if profile.feasible else None

    def property2_holds(self, deadline: float, *, tol: float = EPS) -> bool:
        """Whether the guess survives the Property-2 test ``Σ W ≤ m·d``."""
        profile = self.gamma(deadline)
        if not profile.feasible:
            return False
        return profile.total_work <= self._m * deadline + tol * max(1.0, deadline)

    def mu_area(self, deadline: float) -> float | None:
        """Canonical μ-area ``W_m`` of Definition 1 (memoized per piece of γ).

        The canonical tasks are laid out on an unbounded machine in order of
        non-increasing canonical time (stable on ties, like the scalar sort)
        and the area seen by the first ``m`` processors is accumulated.
        """
        profile = self.gamma(deadline)
        if not profile.feasible:
            return None
        # The μ-area depends on γ alone, so it is kept once per piece.
        profile = profile._piece or profile
        if profile._mu_area is None:
            order = np.argsort(-profile.times, kind="stable")
            p_sorted = profile.procs[order]
            cum = np.cumsum(p_sorted)
            k = int(np.searchsorted(cum, self._m, side="left"))
            w_sorted = profile.works[order]
            if k >= self._n:
                area = float(w_sorted.sum())
            else:
                used = int(cum[k - 1]) if k > 0 else 0
                area = float(w_sorted[:k].sum()) + (self._m - used) * float(
                    profile.times[order[k]]
                )
            profile._mu_area = area
        return profile._mu_area

    def partition_split(
        self, guess: float, lam: float
    ) -> PartitionSplit | None:
        """T1/T2/T3 threshold split of Section 4.1, fully vectorized.

        Returns ``None`` when γ(d) does not exist.  The second-shelf
        allotments γ_i(λ·d) come from the memoized profile at λ·d, so the
        λ-branch of the √3 scheduler shares them across its own dichotomic
        probes.
        """
        alloc = self.allotment(guess)
        if alloc is None:
            return None
        shelf2_deadline = lam * guess
        shelf2 = self.gamma(shelf2_deadline)
        t1_mask = alloc.times > shelf2_deadline + EPS
        t2_mask = ~t1_mask & (alloc.times > guess / 2.0 + EPS)
        t3_mask = ~t1_mask & ~t2_mask
        return PartitionSplit(
            guess=float(guess),
            lam=float(lam),
            alloc=alloc,
            t1=np.flatnonzero(t1_mask),
            t2=np.flatnonzero(t2_mask),
            t3=np.flatnonzero(t3_mask),
            shelf2_procs=shelf2.procs,
        )
