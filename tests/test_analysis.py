"""Tests for the decay-report harness and theorem-level verifications."""

import math
import sys

import pytest

from latticeheat.analysis import (
    DecayReport,
    dyadic_grid,
    fit_loglog,
    fourier_symbol_check,
    higher_difference_decay,
    kernel_decay,
    l2_optimality,
    large_time_profile,
)
from latticeheat.kernel import LatticeSequence, add_sequences, heat_kernel, lp_norm
from latticeheat.solver import ForcingSpec, convolve

GRID = dyadic_grid(16.0, 1024.0)


def exponent(p: float) -> float:
    return 0.5 * (1.0 - (0.0 if p == math.inf else 1.0 / p))


class TestFitter:
    def test_recovers_synthetic_power_law(self):
        pairs = [(t, 3.7 * t**-1.25) for t in GRID]
        report = fit_loglog(pairs, "synthetic")
        assert report.slope == pytest.approx(-1.25, abs=1e-12)
        assert report.intercept == pytest.approx(math.log(3.7), abs=1e-12)
        assert report.max_residual <= 1e-12

    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([(2.0, 1.0), (1.0, 1.0)], "bad")
        with pytest.raises(ValueError):
            fit_loglog([(1.0, 1.0), (2.0, -1.0)], "bad")
        with pytest.raises(ValueError):
            fit_loglog([(1.0, 1.0)], "bad")

    def test_dyadic_grid(self):
        assert dyadic_grid(16.0, 1024.0) == [16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]

    @pytest.mark.parametrize(
        "t_min,t_max",
        [(16.0, math.inf), (0.0, 64.0), (-1.0, 64.0), (math.inf, math.inf), (math.nan, 64.0), (16.0, math.nan),
         (64.0, 16.0), (16.0, sys.float_info.max)],
    )
    def test_dyadic_grid_rejects_unbounded_or_empty_ranges(self, t_min, t_max):
        # Each of these used to append to the grid forever, or return no grid at all.
        with pytest.raises(ValueError, match="grid bounds"):
            dyadic_grid(t_min, t_max)

    def test_dyadic_grid_ends_at_large_finite_bounds(self):
        assert len(dyadic_grid(1.0, 1e300)) == 997


class TestKernelDecay:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("quantity,extra", [("G", 0.0), ("grad", 0.5), ("laplacian", 1.0)])
    def test_proven_exponents(self, p, quantity, extra):
        report = kernel_decay(p, quantity, GRID)
        assert report.slope == pytest.approx(-(exponent(p) + extra), abs=0.03)

    def test_l1_norm_of_kernel_is_constant(self):
        report = kernel_decay(1.0, "G", GRID)
        assert abs(report.slope) <= 1e-10
        for _, v in report.pairs:
            assert v == pytest.approx(1.0, abs=1e-11)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            kernel_decay(2.0, "G", [16.0, 32.0])

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            kernel_decay(2.0, "hessian", GRID)


class TestL2Optimality:
    def test_slope_for_delta(self):
        report = l2_optimality(LatticeSequence.delta(0), GRID)
        assert report.slope == pytest.approx(-0.25, abs=0.02)

    def test_slope_for_spread_data(self):
        f = LatticeSequence.from_pairs({0: 1.0, 5: 1.0})
        report = l2_optimality(f, GRID)
        assert report.slope == pytest.approx(-0.25, abs=0.02)

    def test_sandwich_ratios_bounded(self):
        report = l2_optimality(LatticeSequence.delta(0), GRID)
        assert min(report.extras["ratio_lower"]) >= 0.2
        assert max(report.extras["ratio_upper"]) <= 0.8

    def test_rejects_zero_mass(self):
        f = LatticeSequence.from_pairs({0: 1.0, 1: -1.0})
        with pytest.raises(ValueError):
            l2_optimality(f, GRID)


class TestLargeTimeProfile:
    def test_fundamental_data_profile_vanishes(self):
        # u_f equals M_f G exactly when f is the unit impulse.
        kernel = heat_kernel(64.0, 1e-12)
        u = convolve(kernel.to_sequence(), LatticeSequence.delta(0))
        diff = add_sequences(u, kernel.to_sequence(), 1.0, -1.0)
        assert lp_norm(diff, math.inf) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_shifted_delta_rate(self, p):
        report = large_time_profile(LatticeSequence.delta(3), None, p, GRID)
        assert report.slope == pytest.approx(-0.5, abs=0.05)
        values = [v for _, v in report.pairs]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_forced_profile_decreases(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        report = large_time_profile(None, g, 2.0, dyadic_grid(16.0, 256.0))
        assert report.extras["monotone_from_second"]
        assert report.extras["last_value"] < report.extras["first_value"]

    def test_rejects_bad_usage(self):
        with pytest.raises(ValueError):
            large_time_profile(None, None, 2.0, GRID)
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        with pytest.raises(ValueError):
            large_time_profile(LatticeSequence.delta(0), g, 2.0, GRID)
        zero_mass = LatticeSequence.from_pairs({0: 1.0, 1: -1.0})
        with pytest.raises(ValueError):
            large_time_profile(zero_mass, None, 2.0, GRID)
        shallow = ForcingSpec.separable(LatticeSequence.delta(0), gamma=0.5, amplitude=1.0)
        with pytest.raises(ValueError):
            large_time_profile(None, shallow, 2.0, GRID)


class TestFourierSymbol:
    @pytest.mark.parametrize("t", [1.0, 5.0])
    def test_symbol_matches(self, t):
        kernel = heat_kernel(t, 1e-12)
        assert fourier_symbol_check(t, 64) <= 10.0 * kernel.tail_mass

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            fourier_symbol_check(1.0, 8)
        with pytest.raises(ValueError):
            fourier_symbol_check(0.0, 64)


class TestHigherDifferences:
    def test_order_one_matches_gradient_rate(self):
        report = higher_difference_decay(1, 1.0, GRID)
        assert report.slope == pytest.approx(-0.5, abs=0.03)
        assert not report.extras["experimental"]

    def test_order_two_matches_laplacian_rate(self):
        report = higher_difference_decay(2, math.inf, GRID)
        assert report.slope == pytest.approx(-1.5, abs=0.03)

    def test_order_three_is_experimental(self):
        report = higher_difference_decay(3, 1.0, GRID)
        assert report.extras["experimental"]
        assert math.isfinite(report.slope)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            higher_difference_decay(0, 1.0, GRID)
        with pytest.raises(ValueError):
            higher_difference_decay(7, 1.0, GRID)
