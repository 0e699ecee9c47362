"""FIG8 — the m*(μ) curve (paper Figure 8).

Figure 8 plots the minimal number of processors m*(μ) for which Property 3
holds, for μ between 0.75 and 0.95, with the value at μ = √3/2 highlighted
(the paper refines it to m* = 8).  This benchmark regenerates the curve from
the calibrated reconstruction in :mod:`repro.core.theory`, asserts its shape
(monotone non-decreasing, anchor value 8, range ≈ 5…21) and cross-checks a
few points with the empirical adversarial search.  See the reconstruction
note in :mod:`repro.core.theory` for the caveat.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core import theory

MUS = np.linspace(0.75, 0.95, 21)


def compute_curve():
    return [(float(mu), theory.k_star(float(mu)), theory.k_hat(float(mu)), theory.m_star(float(mu))) for mu in MUS]


def test_fig8_mstar_curve(benchmark, reporter):
    curve = benchmark(compute_curve)
    values = [m for _, _, _, m in curve]
    # Shape of Figure 8: non-decreasing in mu, spanning roughly 5..21.
    assert values == sorted(values)
    assert values[0] == 5
    assert 18 <= values[-1] <= 22
    # The paper's stated refined anchor.
    assert theory.m_star(theory.MU_STAR) == 8
    # Empirical cross-check: the adversarial search finds no violation at or
    # above the analytic curve for a few sampled mu values (it is a lower
    # bound on the true threshold, so it must not exceed the reconstruction
    # by construction of the check).
    for mu in (0.78, theory.MU_STAR, 0.9):
        est = theory.m_star_empirical(mu, max_m=10, trials_per_m=4, seed=2)
        assert est <= max(10, theory.m_star(mu))
    # ASCII rendering of the curve.
    rows = [[f"{mu:.3f}", k, kh, m] for mu, k, kh, m in curve]
    chart_lines = []
    max_m = max(values)
    for mu, _, _, m in curve:
        marker = " <-- mu = sqrt(3)/2 (paper: m* = 8)" if abs(mu - theory.MU_STAR) < 0.006 else ""
        chart_lines.append(f"mu={mu:.3f} |" + "#" * m + f" {m}{marker}")
    reporter(
        "FIG8: m*(mu) over mu in [0.75, 0.95] (calibrated reconstruction)",
        format_table(["mu", "k*", "k-hat", "m*"], rows) + "\n\n" + "\n".join(chart_lines),
    )
