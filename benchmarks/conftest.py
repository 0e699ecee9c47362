"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artefact of the paper (a figure's structure,
a theorem's bound, or one of the announced experiments) and asserts the
*shape* the paper claims; the timing numbers reported by pytest-benchmark
document the practical cost of each component (experiment EXP-B).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py --benchmark-disable -q

The explicit ``bench_*.py`` paths matter: pytest's default ``python_files``
pattern does not match them, so ``pytest benchmarks/`` collects nothing.
Drop ``--benchmark-disable`` to also time each artefact, and add ``-s`` to
see the regenerated tables and ASCII figures.
"""

from __future__ import annotations

import pytest


def report(title: str, body: str) -> None:
    """Print a regenerated artefact under a visible header (shown with -s)."""
    bar = "=" * max(20, len(title) + 8)
    print(f"\n{bar}\n>>> {title}\n{bar}\n{body}\n")


@pytest.fixture
def reporter():
    """Fixture handing the :func:`report` helper to benchmarks."""
    return report
