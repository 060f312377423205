"""Tests for the scaled Bessel row and its two independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat.bessel import (
    NonConvergenceError,
    scaled_bessel_kummer,
    scaled_bessel_row,
    scaled_bessel_series,
)

# Frozen from the power-series oracle; cross-checked against the Kummer
# expansion below.
B0_AT_2 = 0.30850832255367104  # e^{-2} I_0(2)
B1_AT_2 = 0.21526928924893766  # e^{-2} I_1(2)
B1_AT_1 = 0.20791041534970845  # e^{-1} I_1(1)
I1_AT_2 = 1.5906368546373291


def _row_value(tau: float, n: int) -> float:
    return scaled_bessel_row(tau, 1e-14, min_half_width=abs(n)).value(n)


def scaled_derivative_residual(tau: float, n: int, h: float) -> float:
    """Residual of d b_n/d tau = (b_{n-1} + b_{n+1}) / 2 - b_n by central difference."""
    if not (0.0 < h < tau):
        raise ValueError(f"need 0 < h < tau, got h={h!r}, tau={tau!r}")
    derivative = (_row_value(tau + h, n) - _row_value(tau - h, n)) / (2.0 * h)
    rhs = 0.5 * (_row_value(tau, n - 1) + _row_value(tau, n + 1)) - _row_value(tau, n)
    return abs(derivative - rhs)


class TestSeriesOracle:
    def test_delta_at_origin(self):
        assert scaled_bessel_series(0.0, 0) == 1.0
        assert scaled_bessel_series(0.0, 3) == 0.0

    def test_frozen_values(self):
        assert scaled_bessel_series(2.0, 0) == pytest.approx(B0_AT_2, abs=1e-15)
        assert scaled_bessel_series(1.0, 1) == pytest.approx(B1_AT_1, abs=1e-15)
        assert scaled_bessel_series(2.0, 1) * math.exp(2.0) == pytest.approx(I1_AT_2, rel=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            scaled_bessel_series(31.0, 0)
        with pytest.raises(ValueError):
            scaled_bessel_series(1.0, -1)
        with pytest.raises(ValueError):
            scaled_bessel_series(-0.5, 0)


class TestKummerOracle:
    def test_delta_at_origin(self):
        assert scaled_bessel_kummer(0.0, 0, 10) == 1.0
        assert scaled_bessel_kummer(0.0, 2, 10) == 0.0

    def test_matches_series(self):
        assert scaled_bessel_kummer(2.0, 0, 200) == pytest.approx(B0_AT_2, abs=1e-12)
        assert scaled_bessel_kummer(2.0, 1, 200) == pytest.approx(B1_AT_2, abs=1e-12)

    def test_cross_oracle_agreement(self):
        for tau in (0.5, 1.0, 2.0, 5.0, 10.0):
            for n in range(11):
                a = scaled_bessel_series(tau, n)
                b = scaled_bessel_kummer(tau, n, 400)
                assert a == pytest.approx(b, abs=1e-10)

    def test_signals_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            scaled_bessel_kummer(10.0, 0, 5)


class TestRow:
    def test_delta_row(self):
        row = scaled_bessel_row(0.0, 1e-12)
        assert row.value(0) == 1.0
        assert row.value(1) == 0.0
        assert row.tail_bound == 0.0

    def test_center_value(self):
        row = scaled_bessel_row(2.0, 1e-12)
        assert row.value(0) == pytest.approx(B0_AT_2, abs=1e-13)

    def test_normalization_within_tail(self):
        for tau in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 2048.0):
            row = scaled_bessel_row(tau, 1e-12)
            assert row.tail_bound <= 1e-12
            assert 1.0 - row.tail_bound <= row.window_sum() <= 1.0 + 1e-15

    def test_symmetry(self):
        row = scaled_bessel_row(3.0, 1e-12)
        for n in range(row.half_width + 1):
            assert row.value(-n) == row.value(n)

    def test_monotone_decay(self):
        for tau in (0.5, 2.0, 50.0):
            row = scaled_bessel_row(tau, 1e-12)
            for n in range(row.half_width):
                assert row.values[n] >= row.values[n + 1]

    def test_agrees_with_series_oracle(self):
        for tau in (0.5, 1.0, 2.0, 5.0, 10.0):
            row = scaled_bessel_row(tau, 1e-12, min_half_width=10)
            for n in range(11):
                assert row.value(n) == pytest.approx(scaled_bessel_series(tau, n), abs=1e-12)

    def test_neumann_identity(self):
        for tau, sigma in ((0.5, 0.5), (1.0, 2.0), (2.0, 2.0)):
            row_t = scaled_bessel_row(tau, 1e-14)
            row_s = scaled_bessel_row(sigma, 1e-14)
            row_ts = scaled_bessel_row(tau + sigma, 1e-14)
            w = row_t.half_width + row_s.half_width
            for n in range(-10, 11):
                conv = math.fsum(
                    row_t.value(m) * row_s.value(n - m) for m in range(-w, w + 1)
                )
                assert abs(row_ts.value(n) - conv) <= 1e-10

    def test_large_tau_asymptotic(self):
        for tau in (50.0, 100.0, 500.0, 1000.0):
            row = scaled_bessel_row(tau, 1e-12)
            lhs = row.value(0) * math.sqrt(2.0 * math.pi * tau)
            assert abs(lhs - (1.0 + 1.0 / (8.0 * tau))) <= 1.0 / tau**2

    @pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e-100, 1e-60])
    def test_tiny_tau_row_is_finite(self, tau):
        # One recurrence step 2n/tau overflows here; the row comes from the series.
        row = scaled_bessel_row(tau, 1e-12)
        assert all(math.isfinite(v) for v in row.values)
        assert 1.0 - row.tail_bound <= row.window_sum() <= 1.0
        for n in range(row.half_width + 1):
            assert row.value(n) == pytest.approx(scaled_bessel_series(tau, n), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e-162])
    def test_tiny_tau_tail_bound_is_positive(self, tau):
        # The geometric estimate underflows to 0 here; the true tail is positive.
        row = scaled_bessel_row(tau, 1e-12)
        assert row.tail_bound > 0.0
        assert 1.0 - row.tail_bound <= row.window_sum() <= 1.0

    def test_min_half_width_extends_window(self):
        row = scaled_bessel_row(1.0, 1e-6, min_half_width=40)
        assert row.half_width >= 40
        assert row.value(40) >= 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            scaled_bessel_row(-1.0, 1e-12)
        with pytest.raises(ValueError):
            scaled_bessel_row(math.nan, 1e-12)
        with pytest.raises(ValueError):
            scaled_bessel_row(math.inf, 1e-12)
        with pytest.raises(ValueError):
            scaled_bessel_row(1.0, 0.0)
        with pytest.raises(ValueError):
            scaled_bessel_row(1.0, 1.5)

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(min_value=1e-3, max_value=200.0, allow_nan=False))
    def test_row_invariants_hold_everywhere(self, tau):
        row = scaled_bessel_row(tau, 1e-10)
        assert all(v >= 0.0 for v in row.values)
        assert row.tail_bound <= 1e-10
        assert 1.0 - row.tail_bound <= row.window_sum() <= 1.0 + 1e-14
        diffs = row.values[:-1] - row.values[1:]
        assert (diffs >= -1e-18).all()


class TestScipyOracle:
    @pytest.mark.parametrize("tau", [1e-300, 1e-60, 1e-3, 1.0, 30.0, 350.0, 1e3, 2e4, 2e5])
    def test_row_matches_ive(self, tau):
        # Independent of both library oracles, which stop at tau of about 30
        # (series) and 350 (Kummer).
        special = pytest.importorskip("scipy.special")
        row = scaled_bessel_row(tau, 1e-12)
        expected = special.ive(np.arange(row.half_width + 1), tau)
        np.testing.assert_allclose(row.values, expected, rtol=5e-12, atol=0.0)


class TestDerivativeResidual:
    def test_residual_small(self):
        assert scaled_derivative_residual(2.0, 0, 1e-4) < 1e-7
        assert scaled_derivative_residual(5.0, 3, 1e-4) < 1e-7

    def test_symmetry_at_center(self):
        # With b_{-1} = b_1 the relation at n = 0 reads db_0 = b_1 - b_0.
        row = scaled_bessel_row(2.0, 1e-14)
        rhs_sym = row.value(1) - row.value(0)
        rhs_raw = 0.5 * (row.value(-1) + row.value(1)) - row.value(0)
        assert rhs_sym == rhs_raw

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            scaled_derivative_residual(2.0, 0, 0.0)
        with pytest.raises(ValueError):
            scaled_derivative_residual(2.0, 0, 3.0)
