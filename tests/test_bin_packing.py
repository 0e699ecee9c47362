"""Tests for 1-D bin packing under a deadline (repro.packing.bin_packing)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleError
from repro.packing import first_fit

ALGOS = [first_fit]


@pytest.mark.parametrize("algo", ALGOS, ids=lambda f: f.__name__)
class TestCommonPackingBehaviour:
    def test_all_items_packed(self, algo):
        sizes = [0.4, 0.3, 0.6, 0.2, 0.5]
        result = algo(sizes, 1.0)
        packed = sorted(i for b in result.bins for i in b)
        assert packed == list(range(len(sizes)))
        result.validate(sizes)

    def test_capacity_respected(self, algo, rng):
        sizes = rng.uniform(0.05, 0.9, size=50).tolist()
        result = algo(sizes, 1.0)
        assert all(load <= 1.0 + 1e-9 for load in result.loads)

    def test_oversized_item_raises(self, algo):
        with pytest.raises(InfeasibleError):
            algo([0.5, 1.5], 1.0)

    def test_empty_input(self, algo):
        result = algo([], 1.0)
        assert result.num_bins == 0

    def test_not_worse_than_twice_optimal_area(self, algo, rng):
        """Any-fit algorithms never use more than 2·⌈total⌉ + 1 bins."""
        sizes = rng.uniform(0.05, 1.0, size=80).tolist()
        result = algo(sizes, 1.0)
        assert result.num_bins <= 2 * int(np.ceil(sum(sizes))) + 1

    def test_assignment_consistent_with_bins(self, algo):
        sizes = [0.5, 0.5, 0.5]
        result = algo(sizes, 1.0)
        for i, b in result.assignment.items():
            assert i in result.bins[b]


#: Random item lists for the First-Fit guarantee property tests.
ff_sizes = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestFirstFitSpecific:
    def test_first_fit_keeps_input_order_greedy(self):
        result = first_fit([0.6, 0.6, 0.3], 1.0)
        assert result.bins[0] == [0, 2]
        assert result.bins[1] == [1]

    def test_half_full_property(self, rng):
        """The property used by the paper: all bins but at most one are > capacity/2.

        Holds for First Fit because two bins at most half full would have been
        merged by the greedy rule.
        """
        sizes = rng.uniform(0.05, 0.95, size=60).tolist()
        result = first_fit(sizes, 1.0)
        light_bins = [load for load in result.loads if load <= 0.5]
        assert len(light_bins) <= 1

    def test_light_bin_need_not_be_last(self):
        """Counterexample to the previously documented justification.

        The docstring used to argue "every bin except possibly the *last* is
        more than half full".  Here the *middle* bin stays light: 0.3 opens
        bin 2 (bin 1 holds 0.9), then 0.8 fits neither bin 1 (1.7) nor bin 2
        (1.1) and opens bin 3.  The guarantee that actually holds — and that
        Section 4.1 needs — is ``Σ sizes > (num_bins − 1) · capacity/2``.
        """
        result = first_fit([0.9, 0.3, 0.8], 1.0)
        assert result.loads == [0.9, 0.3, 0.8]
        assert result.loads[1] <= 0.5  # a non-last bin at most half full
        assert sum(result.loads) > (result.num_bins - 1) * 0.5

    @given(sizes=ff_sizes)
    @settings(max_examples=200, deadline=None)
    def test_at_most_one_light_bin(self, sizes):
        """At most one First-Fit bin has load ≤ capacity/2 (any position)."""
        result = first_fit(sizes, 1.0)
        light = [load for load in result.loads if load <= 0.5]
        assert len(light) <= 1

    @given(sizes=ff_sizes)
    @settings(max_examples=200, deadline=None)
    def test_documented_area_guarantee(self, sizes):
        """The stated guarantee: ``Σ sizes > (num_bins − 1)·capacity/2``.

        This is the inequality the two-shelf analysis relies on; the
        partition layer (``q3``) and the lower bounds only ever consume
        ``num_bins`` itself, never the previously overstated
        ``Σ > num_bins·capacity/2`` form (audited in PR 4).
        """
        result = first_fit(sizes, 1.0)
        if result.num_bins >= 2:
            assert sum(sizes) > (result.num_bins - 1) * 0.5

    def test_validate_catches_corruption(self):
        result = first_fit([0.4, 0.4], 1.0)
        result.loads[0] = 99.0
        with pytest.raises(InfeasibleError):
            result.validate([0.4, 0.4])
