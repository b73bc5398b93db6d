"""Cutoffs and dyadic multipliers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnls_lab.errors import InvalidDyadicIndexError
from dnls_lab.fields import Domain
from dnls_lab.frequency import (bracket, cutoff_annulus, cutoff_low,
                                dyadic_multiplier, dyadic_range, smooth_cutoff)


def chi_ref(xi: float) -> float:
    """Independent scalar re-implementation of the master bump."""
    t = abs(xi)
    if t <= 1.0:
        return 1.0
    if t >= 2.0:
        return 0.0
    g = lambda x: math.exp(-1.0 / x) if x > 0 else 0.0
    return g(2.0 - t) / (g(2.0 - t) + g(t - 1.0))


class TestBracket:
    def test_values(self):
        assert bracket(0.0) == 1.0
        assert bracket(1.0) == pytest.approx(1.4142135623730951, abs=1e-15)

    @given(st.floats(-1e6, 1e6))
    def test_even_and_bounded(self, a):
        assert bracket(-a) == bracket(a)
        assert bracket(a) >= max(1.0, abs(a))
        assert bracket(a) <= 1.0 + abs(a)

    def test_monotone_on_positive_axis(self):
        a = np.linspace(0, 50, 1001)
        assert np.all(np.diff(bracket(a)) >= 0)


class TestSmoothCutoff:
    def test_plateau_and_support(self):
        assert smooth_cutoff(0.5) == 1.0
        assert smooth_cutoff(-1.0) == 1.0
        assert smooth_cutoff(2.5) == 0.0
        assert smooth_cutoff(2.0) == 0.0

    @given(st.floats(-10, 10))
    @settings(max_examples=200)
    def test_matches_reference(self, xi):
        assert smooth_cutoff(xi) == pytest.approx(chi_ref(xi), abs=1e-15)

    def test_radially_non_increasing(self):
        t = np.linspace(0, 3, 2000)
        vals = smooth_cutoff(t)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((0 <= vals) & (vals <= 1))

    def test_annulus_at_own_scale(self):
        for scale in (1, 2, 8, 64):
            # chi(1) = 1 and chi(2) = 0, so chi_N(N) = 1
            assert cutoff_annulus(float(scale), scale) == pytest.approx(1.0)

    def test_partition_of_unity_on_lattice(self):
        dom = Domain("torus", 256)
        ns = dyadic_range(dom.xi_max)
        total = cutoff_low(dom.xi, 1.0)
        for n in ns[1:]:
            total = total + cutoff_annulus(dom.xi, float(n))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_at_most_two_active_blocks(self):
        # all dyadics (including N < 1) at off-lattice points
        for xi in np.linspace(0.05, 200.0, 997):
            active = sum(
                1 for e in range(-8, 10) if cutoff_annulus(xi, 2.0 ** e) != 0.0)
            assert active <= 2


class TestDyadicMultiplier:
    def setup_method(self):
        self.dom = Domain("torus", 64)
        self.xi = self.dom.xi

    def test_block_containing_its_scale(self):
        assert dyadic_multiplier(np.array([2.0]), 2)[0] == 1.0

    def test_far_block_annihilates(self):
        # chi_8(2) = chi(1/4) - chi(1/2) = 0
        assert dyadic_multiplier(np.array([2.0]), 8)[0] == 0.0

    def test_blocks_sum_to_identity(self):
        total = sum(dyadic_multiplier(self.xi, n) for n in dyadic_range(self.dom.xi_max))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_values_in_unit_interval(self):
        for n in (1, 2, 4, 16):
            m = dyadic_multiplier(self.xi, n)
            assert np.all((0.0 <= m) & (m <= 1.0))

    @pytest.mark.parametrize("bad", [0, 3, -2, 2.5, 12])
    def test_invalid_index_rejected(self, bad):
        with pytest.raises(InvalidDyadicIndexError):
            dyadic_multiplier(self.xi, bad)
