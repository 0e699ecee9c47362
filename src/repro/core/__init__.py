"""Core algorithms of the paper: dual approximation, list algorithms, knapsack two-shelf."""

from .allotment_engine import AllotmentEngine, GammaProfile, PartitionSplit
from .dual import DualApproximation, DualSearchResult, GuessOutcome, dual_search
from .properties import (
    CanonicalAllotment,
    canonical_allotment,
    is_small_sequential,
    mu_area,
    property1_holds,
    property2_bound_holds,
)
from .list_scheduling import compute_levels, contiguous_list_schedule, sliding_window_max
from .malleable_list import (
    MalleableListDual,
    MalleableListScheduler,
    malleable_list_guarantee,
)
from .canonical_list import (
    MU_STAR,
    CanonicalListDual,
    CanonicalListScheduler,
    canonical_list_schedule,
    first_two_level_completion,
    outside_levels_are_small_sequential,
)
from .partition import LAMBDA_STAR, CanonicalPartition, build_partition, inefficiency_factor
from .knapsack import (
    KnapsackItem,
    KnapsackSolution,
    knapsack_fptas,
    knapsack_max_profit,
    knapsack_min_weight,
)
from .two_shelves import (
    SeriesStep,
    TwoShelfDual,
    build_lambda_schedule,
    build_trivial_schedule,
    candidate_series,
    find_trivial_solution,
    is_feasible_subset,
    select_shelf2_subset,
)
from .mrt import MRTDual, MRTResult, MRTScheduler
from . import theory

__all__ = [
    "AllotmentEngine",
    "GammaProfile",
    "PartitionSplit",
    "DualApproximation",
    "DualSearchResult",
    "GuessOutcome",
    "dual_search",
    "CanonicalAllotment",
    "canonical_allotment",
    "property1_holds",
    "property2_bound_holds",
    "is_small_sequential",
    "mu_area",
    "compute_levels",
    "contiguous_list_schedule",
    "sliding_window_max",
    "MalleableListDual",
    "MalleableListScheduler",
    "malleable_list_guarantee",
    "MU_STAR",
    "CanonicalListDual",
    "CanonicalListScheduler",
    "canonical_list_schedule",
    "first_two_level_completion",
    "outside_levels_are_small_sequential",
    "LAMBDA_STAR",
    "CanonicalPartition",
    "build_partition",
    "inefficiency_factor",
    "KnapsackItem",
    "KnapsackSolution",
    "knapsack_max_profit",
    "knapsack_min_weight",
    "knapsack_fptas",
    "SeriesStep",
    "TwoShelfDual",
    "build_lambda_schedule",
    "build_trivial_schedule",
    "candidate_series",
    "find_trivial_solution",
    "is_feasible_subset",
    "select_shelf2_subset",
    "MRTDual",
    "MRTResult",
    "MRTScheduler",
    "theory",
]
