"""Tests for the scaled Bessel row and its two independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import bessel
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

U = 2.0**-53
# The whole range of tau the library accepts, from the series fallback to the widest rows.
ALL_TAUS = [1e-300, 1e-200, 1e-60, 1e-3, 0.5, 1.0, 30.0, 350.0, 2e4, 2e5, 1e6]


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
        assert row.tail_mass == 0.0

    def test_center_value(self):
        row = scaled_bessel_row(2.0, 1e-12)
        assert row.value(0) == pytest.approx(B0_AT_2, abs=1e-13)

    def test_normalization_within_tail(self):
        for tau in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 2048.0):
            row = scaled_bessel_row(tau, 1e-12)
            assert row.tail_mass <= 1e-12
            assert 1.0 - row.tail_mass <= row.mass() <= 1.0 + 1e-15

    def test_symmetry(self):
        row = scaled_bessel_row(3.0, 1e-12)
        for n in range(row.window + 1):
            assert row.value(-n) == row.value(n)

    def test_monotone_decay(self):
        for tau in (0.5, 2.0, 50.0):
            row = scaled_bessel_row(tau, 1e-12)
            for n in range(row.window):
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
            w = row_t.window + row_s.window
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
        assert 1.0 - row.tail_mass <= row.mass() <= 1.0
        for n in range(row.window + 1):
            assert row.value(n) == pytest.approx(scaled_bessel_series(tau, n), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e-162])
    def test_tiny_tau_tail_bound_is_positive(self, tau):
        # The geometric estimate underflows to 0 here; the true tail is positive.
        row = scaled_bessel_row(tau, 1e-12)
        assert row.tail_mass > 0.0
        assert 1.0 - row.tail_mass <= row.mass() <= 1.0

    def test_tiny_eps_gets_a_true_certificate(self):
        # A window search that ran out of candidates used to return its last
        # index with tail_mass 0.0 (window 43 here, true tail about 1e-68).
        for tau, eps in ((1.0, 1e-100), (1.0, 1e-250), (5.0, 1e-150)):
            row = scaled_bessel_row(tau, eps)
            outside = range(row.window + 1, 171)  # the series oracle's factorial stays a float
            tail = 2.0 * math.fsum(scaled_bessel_series(tau, n) for n in outside)
            assert 0.0 < tail <= eps and tail <= row.tail_mass

    def test_floor_past_underflow_keeps_a_positive_certificate(self):
        # b_n(1) underflows near n = 150; a wider forced window used to come back at m with tail_mass 0.0.
        row = scaled_bessel_row(1.0, 1e-12, min_half_width=200)
        assert row.window == 200 and row.values[-1] == 0.0 and row.tail_mass > 0.0

    def test_failed_window_search_raises(self, monkeypatch):
        # Past the proved index the search has no candidates left; no zero certificate comes back.
        monkeypatch.setattr(bessel, "_start_index", lambda tau, eps, floor: (max(floor, 5), max(floor, 5) + 1))
        with pytest.raises(ArithmeticError, match="certifies"):
            scaled_bessel_row(1000.0, 1e-12)

    def test_unallocatable_recurrence_raises(self):
        # About 1.8e21 recurrence values, past numpy's largest array dimension: a typed error, not a numpy one.
        with pytest.raises(ArithmeticError, match=r"tau=2e\+40"):
            scaled_bessel_row(2e40, 1e-12)

    def test_failed_allocation_raises(self, monkeypatch):
        # tau = 2e20 needs about 1.8e11 values (1.3 TiB); the allocation is refused here, never attempted.
        real_zeros = np.zeros

        def zeros(shape, *args, **kwargs):
            if shape > 10**8:
                raise MemoryError(f"refused {shape} values")
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(bessel.np, "zeros", zeros)
        with pytest.raises(ArithmeticError, match=r"tau=2e\+20"):
            scaled_bessel_row(2e20, 1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-16])
    def test_start_index_grows_like_sqrt_tau_log(self, eps):
        # Pins the recurrence's cost: O(sqrt(tau log 1/eps) + log 1/eps) steps above the floor, not O(tau).
        log = math.log(1.0 / eps)
        for tau in np.logspace(-3, 6, 37).tolist():
            for floor in (0, 100, 10_000):
                last, m = bessel._start_index(tau, eps, floor)
                assert floor <= last < m <= 3.0 * (math.sqrt(tau * log) + log) + floor

    def test_min_half_width_extends_window(self):
        row = scaled_bessel_row(1.0, 1e-6, min_half_width=40)
        assert row.window >= 40
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
        assert row.tail_mass <= 1e-10
        assert 1.0 - row.tail_mass <= row.mass() <= 1.0 + 1e-14
        diffs = row.values[:-1] - row.values[1:]
        assert (diffs >= -1e-18).all()


class TestScipyOracle:
    @pytest.mark.parametrize("tau", [1e-300, 1e-60, 1e-3, 1.0, 30.0, 350.0, 1e3, 2e4, 2e5, 1e6])
    def test_row_matches_ive(self, tau):
        # Independent of both library oracles, which stop at tau of about 30
        # (series) and 350 (Kummer).
        special = pytest.importorskip("scipy.special")
        row = scaled_bessel_row(tau, 1e-12)
        expected = special.ive(np.arange(2 * row.window + 64), tau)
        np.testing.assert_allclose(row.values, expected[: row.window + 1], rtol=5e-12, atol=0.0)
        # l1 distance over all of Z, the mass outside the window included.
        gap = expected.copy()
        gap[: row.window + 1] -= row.values
        gap = np.abs(gap)
        assert gap[0] + 2.0 * math.fsum(gap[1:].tolist()) <= row.tail_mass


class TestMpmathOracle:
    @pytest.mark.parametrize("n", [0, 1000])
    def test_row_matches_mpmath_at_1e6(self, n):
        # mpmath returns in milliseconds at these n; near the window edge (n of about 7,200) it does not.
        mpmath = pytest.importorskip("mpmath")
        row = scaled_bessel_row(1e6, 1e-12)
        with mpmath.workdps(30):
            exact = float(mpmath.besseli(n, 1e6) * mpmath.exp(-1e6))
        assert abs(row.value(n) - exact) <= min(row.tail_mass, 1e-14 * exact)


class TestAliasingOracle:
    @pytest.mark.parametrize("eps", [1e-12, 1e-16])
    @pytest.mark.parametrize("tau", ALL_TAUS)
    def test_row_matches_the_periodic_sum(self, tau, eps):
        # With theta_k = 2 pi k / N, (1/N) sum_k e^{-tau (1 - cos theta_k)} cos(n theta_k) = sum_j b_{n + jN}
        # exactly (Trefethen & Weideman, SIAM Rev. 56, 2014).  For N > 2 (window + 1) the aliases of the
        # carried n are distinct indices outside the window, so each entry is within tail_mass; the FFT adds
        # at most about 7 u log2(N) rms(f) (Higham, Accuracy and Stability of Numerical Algorithms, 24.1).
        row = scaled_bessel_row(tau, eps)
        size = 1 << (2 * row.window + 3).bit_length()
        theta = 2.0 * np.pi * np.arange(size) / size
        f = np.exp(-2.0 * tau * np.sin(0.5 * theta) ** 2)  # 1 - cos = 2 sin^2(theta / 2), without cancellation
        periodic = np.fft.rfft(f).real[: row.window + 1] / size
        rounding = 16.0 * U * math.log2(size) * math.sqrt(float(np.mean(f * f)))
        assert float(np.max(np.abs(row.values - periodic))) <= row.tail_mass + rounding


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
