#!/usr/bin/env python
"""Reproduce the paper's average-case comparison (experiment EXP-A) from the API.

Runs the √3 scheduler against the two-phase baselines and the naive anchors
over several workload families and machine sizes, printing the aggregate
comparison table and the per-machine-size breakdown.  Smaller and
faster than the full benchmark (``benchmarks/bench_expA_comparison.py``) so
it can be used interactively; pass ``--full`` for the benchmark-sized sweep.

Run with::

    python examples/algorithm_comparison.py [--full]
"""

from __future__ import annotations

import argparse

from repro.analysis.experiments import sweep_workloads
from repro.analysis.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run the benchmark-sized sweep")
    args = parser.parse_args()

    if args.full:
        families = ("uniform", "mixed", "heavy-tailed", "rigid-heavy")
        machines = (8, 16, 32, 64)
        tasks, reps = 40, 3
    else:
        families = ("uniform", "mixed", "heavy-tailed")
        machines = (8, 16)
        tasks, reps = 20, 2

    print(
        f"EXP-A sweep: families={families}, machines={machines}, "
        f"{tasks} tasks, {reps} repetitions"
    )
    result = sweep_workloads(
        families=families,
        num_tasks=tasks,
        machine_sizes=machines,
        repetitions=reps,
        seed=1,
    )
    print()
    print(result.summary_table())

    print("\nMean ratio per machine size:")
    rows = []
    for algo in result.algorithms():
        grouped = result.grouped_by_procs(algo)
        rows.append([algo] + [f"{grouped[m]:.3f}" for m in machines])
    print(format_table(["algorithm"] + [f"m={m}" for m in machines], rows))

    mrt_worst = result.ratios("mrt-sqrt3").max()
    print(
        f"\nWorst ratio of the sqrt(3) scheduler over the whole sweep: "
        f"{mrt_worst:.4f} (paper guarantee: 1.7321)"
    )


if __name__ == "__main__":
    main()
