"""Tests for the scaled Bessel row and its two independent oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import bessel, kernel, solver
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
        # At 1e-300, 1e-200 and 1e-100 a step of the rescaling loop overflows and the row comes from the
        # series; at 1e-60 no step does, and the row is the recurrence's, rescaled on the way down.
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

    def test_series_fallback_row_is_the_series_row(self):
        # At tau = 1e-70 (eps 1e-12, m = 23) a step of the rescaling loop overflows, so the recurrence gives up
        # and every value is the series oracle's own.
        tau = 1e-70
        m = bessel._start_index(tau, 1e-12, 0)[1]
        assert m == 23 and bessel._recurrence_row(tau, m) is None
        row = scaled_bessel_row(tau, 1e-12)
        assert row.values.tolist() == [scaled_bessel_series(tau, n) for n in range(row.window + 1)]

    def test_tiny_eps_gets_a_true_certificate(self):
        # A window search that ran out of candidates used to return its last
        # index with tail_mass 0.0 (window 43 here, true tail about 1e-68).
        for tau, eps in ((1.0, 1e-100), (1.0, 1e-250), (5.0, 1e-150)):
            row = scaled_bessel_row(tau, eps)
            outside = range(row.window + 1, 171)  # the series oracle's factorial stays a float
            tail = 2.0 * math.fsum(scaled_bessel_series(tau, n) for n in outside)
            assert 0.0 < tail <= eps and tail <= row.tail_mass

    def test_eps_below_the_window_floor_is_refused(self):
        # log(16 / eps) is infinite below about 8.9e-308, and taking its ceiling raised a bare OverflowError.
        for eps in (8e-308, 1e-320, 5e-324):
            with pytest.raises(ValueError, match=f"eps must be at least about 8.9e-308, got {eps!r}"):
                scaled_bessel_row(2.0, eps)
        # Just above the floor the row is still computed, with the window and certificate it had before the floor.
        row = scaled_bessel_row(2.0, 1e-307)
        assert (row.window, row.tail_mass.hex()) == (169, "0x1.8020c49ba5e36p-52")

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
        # tau = 2e10 needs about 1.7e6 values, below the step cap; the allocation is refused here, never attempted.
        real_arange = np.arange

        def arange(start, stop, step=1):  # the recurrence's row holds 2(n + 1) at index n
            if (stop - start) / step > 10**6:
                raise MemoryError(f"refused {(stop - start) / step:.0f} values")
            return real_arange(start, stop, step)

        monkeypatch.setattr(bessel.np, "arange", arange)
        with pytest.raises(ArithmeticError, match=r"tau=20000000000\.0 needs \d+ recurrence values"):
            scaled_bessel_row(2e10, 1e-12)

    def test_over_long_recurrence_is_refused_before_allocation(self, monkeypatch):
        def unreachable(tau, m):
            raise AssertionError("the recurrence ran")

        # t = 1e12 (tau = 2e12) stays under the cap; t = 1e13 needs 54,796,881 steps and is refused at once.
        assert bessel._start_index(2e12, 1e-12, 0)[1] == 17_194_910 <= bessel.MAX_RECURRENCE_STEPS
        monkeypatch.setattr(bessel, "_recurrence_row", unreachable)
        with pytest.raises(ArithmeticError, match=r"tau=20000000000000\.0 needs 54796881 recurrence steps"):
            scaled_bessel_row(2e13, 1e-12)

    def test_peak_memory_per_recurrence_value(self):
        # The recurrence array, normalised in place, and the returned window: no copy of the head.
        # The row at tau = 2e4, eps = 1e-300 (m = 6,831) takes the checked loop and rescales twice.
        for tau, eps in ((2e5, 1e-12), (2e4, 1e-300)):
            m = bessel._start_index(tau, eps, 0)[1]
            tracemalloc.start()
            try:
                scaled_bessel_row(tau, eps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * (m + 1)

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

    @pytest.mark.parametrize("floor, ceiling", [(2.5, 3), (3.0, 3), (20.5, 21)])
    def test_fractional_floor_counts_as_its_ceiling(self, floor, ceiling):
        # A floor is a least window; 2.5 used to reach the window search as a float index and raise TypeError.
        row = scaled_bessel_row(2.0, 1e-12, min_half_width=floor)
        want = scaled_bessel_row(2.0, 1e-12, min_half_width=ceiling)
        assert (row.window, row.tail_mass.hex()) == (want.window, want.tail_mass.hex())
        assert row.values.tobytes() == want.values.tobytes()
        assert row.window >= ceiling

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
        with pytest.raises(ValueError):
            scaled_bessel_row(2.0, 1e-12, min_half_width=math.nan)
        for floor in (math.inf, -math.inf):  # math.ceil raised OverflowError, which the CLI reads as a failed computation
            with pytest.raises(ValueError, match=f"min_half_width must be finite, got {floor!r}"):
                scaled_bessel_row(2.0, 1e-12, min_half_width=floor)

    @pytest.mark.parametrize("tau", [0.0, 2.0])
    def test_negative_floor_counts_as_0(self, tau):
        # At tau = 0 a floor of -5 used to size the row by it and raise NumPy's "negative dimensions".
        row, want = scaled_bessel_row(tau, 1e-12, min_half_width=-5), scaled_bessel_row(tau, 1e-12)
        assert (row.window, row.tail_mass.hex(), row.values.tobytes()) == (want.window, want.tail_mass.hex(), want.values.tobytes())

    def test_rows_and_sequences_copy_the_callers_array(self):
        # Both froze the caller's own float64 array, so a later write to it raised.
        for make in (lambda a: bessel.LatticeSequence(0, a), lambda a: bessel.KernelSlice(window=1, values=a, tail_mass=0.0)):
            a = np.array([1.0, 2.0])
            held = make(a)
            assert a.flags.writeable and not held.values.flags.writeable
            a[0] = 3.0
            assert held.values.tolist() == [1.0, 2.0]

    def test_library_results_are_not_copied_again(self, monkeypatch):
        # Arrays the library has just made are frozen in place: no result below goes through the copying constructor.
        a = np.array([1.0, 2.0])
        own = bessel._owned(bessel.LatticeSequence, a, offset=3)
        assert own.values is a and not a.flags.writeable and (own.offset, own.hi) == (3, 4)
        row, f = scaled_bessel_row(2.0, 1e-12), bessel.LatticeSequence(-1, np.array([0.5, -1.0, 2.0]))
        g = solver.ForcingSpec(f, 2.0, 1.0)
        copies = []
        post_init = bessel.LatticeSequence.__post_init__
        monkeypatch.setattr(bessel.LatticeSequence, "__post_init__", lambda s: copies.append(s) or post_init(s))
        results = [row.to_sequence(), solver.convolve(f, f), kernel.forward_difference(f), kernel.discrete_laplacian(f)]
        results += [kernel.add_sequences(f, f, 1.0, -2.0), solver.evolve(f, 1.0).u, solver.duhamel(g, 1.0).u]
        assert copies == []
        assert not any(s.values.flags.writeable for s in results)
        # Rows too: each holds one read-only copy of its window, made by the row and not by the constructor.
        monkeypatch.setattr(bessel.KernelSlice, "__post_init__", lambda s: copies.append(s))
        rows = [scaled_bessel_row(2.0, 1e-12), scaled_bessel_row(0.0, 1e-12, 3), scaled_bessel_row(1e-300, 1e-12)]
        assert copies == [] and [r.window for r in rows] == [row.window, 3, 1]
        assert not any(r.values.flags.writeable or r.values.base is not None for r in rows)

    def test_window_l1_norm_is_at_most_the_row_bound(self, exact_l1):
        # Seeded rows, with a quarter at floor 0, then rows that rescale (tau 2 at eps 1e-307, 0.002 at 1e-300,
        # 1e-60 at floor 2,000), rows from the series (1e-70, 1e-300, 5e-324), rows at tau = 0, and the
        # widest rows of the tests.
        rng = np.random.default_rng(30)
        cases = [(10.0 ** rng.uniform(-6.0, 5.0), 10.0 ** rng.uniform(-16.0, -3.0), int(rng.integers(0, 2000)) * (i % 4 > 0))
                 for i in range(150)]
        cases += [(2.0, 1e-307, 0), (0.002, 1e-300, 0), (1e-60, 1e-12, 2000)]
        cases += [(1e-70, 1e-12, 0), (1e-300, 1e-12, 40), (5e-324, 1e-12, 0), (0.0, 1e-12, 0), (0.0, 1e-12, 50)]
        cases += [(2e5, 1e-12, 0), (2e6, 1e-16, 0), (5e4, 2.5e-302, 0)]
        assert bessel._recurrence_row(1e-70, bessel._start_index(1e-70, 1e-12, 0)[1]) is None
        worst = 0
        for tau, eps, floor in cases:
            row = scaled_bessel_row(tau, eps, min_half_width=floor)
            total = exact_l1(row.values[1:]) * 2 + Fraction(row.values[0])
            assert total <= Fraction(bessel.ROW_L1_BOUND), (tau, eps, floor)
            worst = max(worst, total)
        assert 1 < worst  # the rounding of the normalisation does reach past 1

    def test_subnormal_window_edge_is_bounded_not_refused(self):
        # At tau = 5e4 and eps 2.5e-302 the proved window's last two values are the same subnormal, which the
        # ratio test refused ("no window up to 8598 certifies the tail").  The mass outside is charged instead.
        tau, eps = 5e4, 2.5e-302
        last, m = bessel._start_index(tau, eps, 0)
        full = bessel._recurrence_row(tau, m)
        assert 0.0 < full[last - 1] == full[last] < 2.0**-1022
        for floor, window in ((0, 8324), (last, last)):  # the search from the proved window down, and that window alone
            row = scaled_bessel_row(tau, eps, min_half_width=floor)
            assert row.window == window and row.values.tobytes() == full[: window + 1].tobytes()
            assert row.tail_mass == math.nextafter(bessel._NORM_ROUNDING, math.inf)
        # The charge applies at every probe, so the windows that certify are those from the first one on: this row's
        # bisection meets two values of 5e-324 at a probe near 2657, which the ratio test alone refused, sending the
        # search up to 2658; it now finds 2590, the first window the ratio test certifies.
        assert scaled_bessel_row(4654.627034500423, 1.179412002121211e-307, min_half_width=2168).window == 2590

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(min_value=1e-3, max_value=200.0, allow_nan=False))
    def test_row_invariants_hold_everywhere(self, tau):
        row = scaled_bessel_row(tau, 1e-10)
        assert all(v >= 0.0 for v in row.values)
        assert row.tail_mass <= 1e-10
        assert 1.0 - row.tail_mass <= row.mass() <= 1.0 + 1e-14
        diffs = row.values[:-1] - row.values[1:]
        assert (diffs >= -1e-18).all()


def _per_step_recurrence_row(tau: float, m: int, rescales: list[int]) -> np.ndarray | None:
    """The recurrence as it stored one NumPy scalar per step, kept as a reference for the bits."""
    y = np.zeros(m + 1)
    y_next = 0.0
    y_cur = 1.0
    y[m] = y_cur
    for n in range(m, 0, -1):
        y_prev = y_next + (2.0 * n / tau) * y_cur
        if y_prev > bessel._RESCALE_THRESHOLD:
            if y_prev == math.inf:
                return None
            y_prev *= bessel._RESCALE_FACTOR
            y_cur *= bessel._RESCALE_FACTOR
            y[n:] *= bessel._RESCALE_FACTOR
            rescales.append(n)
        y[n - 1] = y_prev
        y_next, y_cur = y_cur, y_prev
    y /= y[0] + 2.0 * math.fsum(y[1:])
    return y


class TestRecurrenceBits:
    def test_rows_match_the_per_step_recurrence(self, monkeypatch):
        # Seeded log-uniform tau over the whole accepted range, with the series fallback at the bottom,
        # rows that rescale and rows of thousands of steps at the top.
        rng = np.random.default_rng(20)
        taus = [1e-300, 2e6] + (10.0 ** rng.uniform(-300.0, math.log10(2e6), 22)).tolist()
        taus += (10.0 ** rng.uniform(2.0, math.log10(2e6), 6)).tolist()
        cases, rescales, lengths = [], [], []
        for tau in taus:
            for eps, floor in ((1e-3, None), (1e-12, None), (1e-16, 300)):
                m = bessel._start_index(tau, eps, floor or 0)[1]
                row, reference = bessel._recurrence_row(tau, m), _per_step_recurrence_row(tau, m, rescales)
                assert (row is None) == (reference is None)
                if row is not None:
                    assert row.tobytes() == reference.tobytes()
                    lengths.append(m)
                cases.append((tau, eps, floor))
        assert rescales and max(lengths) > 10_000 and min(lengths) < 50

        def digest(tau, eps, floor):
            row = scaled_bessel_row(tau, eps, floor)
            return row.window, row.tail_mass, row.values.tobytes()

        rows = [digest(*case) for case in cases]
        monkeypatch.setattr(bessel, "_recurrence_row", lambda tau, m: _per_step_recurrence_row(tau, m, []))
        assert rows == [digest(*case) for case in cases]


def _checked_recurrence_row(tau: float, m: int, rescales: list[int]) -> np.ndarray | None:
    """The recurrence with a threshold test at every step and 2n from the int n, kept as a reference for the bits."""
    y = np.zeros(m + 1)
    row = memoryview(y)
    y_next = 0.0
    y_cur = 1.0
    row[m] = y_cur
    for n in range(m, 0, -1):
        y_prev = y_next + (2.0 * n / tau) * y_cur
        if y_prev > bessel._RESCALE_THRESHOLD:
            if y_prev == math.inf:
                return None
            y_prev *= bessel._RESCALE_FACTOR
            y_cur *= bessel._RESCALE_FACTOR
            y[n:] *= bessel._RESCALE_FACTOR
            rescales.append(n)
        row[n - 1] = y_prev
        y_next, y_cur = y_cur, y_prev
    y /= row[0] + 2.0 * bessel.exact_sum(y[1:])
    return y


class TestRecurrenceBranches:
    def test_both_loops_keep_the_checked_loops_bits(self, monkeypatch):
        # Every row runs once without a threshold test.  Only where its largest value, row[0] or row[1], passes
        # the threshold is it run again with the test; either way each returned row makes one exact_sum call,
        # and the values, the window and tail_mass are those of the loop that tests every step.
        sums, exact_sum = [], bessel.exact_sum

        def counting_sum(values):
            sums.append(math.inf)  # stays inf where fsum's running sum overflows
            sums[-1] = exact_sum(values)
            return sums[-1]

        monkeypatch.setattr(bessel, "exact_sum", counting_sum)
        rng = np.random.default_rng(26)
        taus = (10.0 ** rng.uniform(-3.0, math.log10(2e7), 15)).tolist()
        epss, floors = (1e-6, 1e-12, 1e-16, 1e-100, 1e-300), (0, 150, 300)
        cases = [(tau, epss[i % 5], floors[i % 3]) for i, tau in enumerate(taus)]
        # The rows that rescale in the CLI corpus, and tau = 1e-60, a recurrence row that rescales as it goes down.
        cases += [(1.0, 1e-100, 0), (3.0, 1e-100, 0), (2.0, 1e-307, 0), (1e-60, 1e-12, 0)]
        # A row whose sum passes the threshold while its values stay below it, and rows with 10 and 2 rescales.
        cases += [(1e5, 1e-150, 0), (0.002, 1e-300, 0), (4.0, 1e-200, 0)]
        # A row whose last step alone passes the threshold: row[0] is above it, row[1] below.
        cases += [(5e-10, 1e-12, 0)]
        # A wide floor: hundreds of rescales, where each multiplies only the values since the third-last before it.
        cases += [(2.0, 1e-16, 25_000)]
        direct = [(tau, bessel._start_index(tau, eps, floor)[1]) for tau, eps, floor in cases]
        # The a-priori boundary m(m + 1) = 570 tau that chose the loop before rows learnt it from their sum:
        # the smallest floor whose row crossed it and the one below, and the last m below it and the first above.
        c = 570.0
        for tau in (40.0, 5e3, 3e5):
            lo, hi = 0, math.isqrt(int(c * tau)) + 1
            while lo < hi:
                mid = (lo + hi) // 2
                m = bessel._start_index(tau, 1e-12, mid)[1]
                lo, hi = (lo, mid) if m * (m + 1) >= c * tau else (mid + 1, hi)
            cases += [(tau, 1e-12, lo - 1), (tau, 1e-12, lo)]
            edge = math.isqrt(int(c * tau))
            while edge * (edge + 1) >= c * tau:
                edge -= 1
            direct += [(tau, edge), (tau, edge + 1)]

        rescaled, counts = [], {}
        for tau, m in direct:
            del sums[:]
            row = bessel._recurrence_row(tau, m)
            assert len(sums) == (row is not None)  # one normalising sum per returned row
            rescales = []
            reference = _checked_recurrence_row(tau, m, rescales)
            counts[tau] = len(rescales)
            rescaled.append(bool(rescales))
            assert (row is None) == (reference is None)
            if row is not None:
                assert row.tobytes() == reference.tobytes()
            if tau == 1e5:  # at eps 1e-150 the sum alone passes the threshold
                assert 2.0 * sums[0] > bessel._RESCALE_THRESHOLD
        assert [counts[tau] for tau in (1e5, 0.002, 4.0)] == [0, 10, 2]
        assert 5 < rescaled.count(False) < len(rescaled) - 5  # rows that rescale, and more that do not

        def digest(tau, eps, floor):
            row = scaled_bessel_row(tau, eps, floor)
            return row.window, row.tail_mass, row.values.tobytes()

        rows = [digest(*case) for case in cases]
        monkeypatch.setattr(bessel, "_recurrence_row", lambda tau, m: _checked_recurrence_row(tau, m, []))
        assert rows == [digest(*case) for case in cases]

    def test_first_pass_is_skipped_where_its_first_step_passes_the_threshold(self, monkeypatch):
        # The first pass stores 2m / tau first.  For each (eps, floor), the adjacent floats tau on either side of
        # 2m / tau = 1e250, with m the row's own: above it the pass is skipped, so the row is not divided by tau,
        # and at or below it the pass runs.  Either way the row is the checked loop's: here None, as a later step
        # overflows and the row comes from the series.  Further past the threshold, at tau = 1.03e-250 (m = 23),
        # the pass is skipped and the checked loop rescales to the end.
        divisions, real_arange = [], np.arange

        class Recording(np.ndarray):
            def __itruediv__(self, other):
                divisions.append(other)
                return super().__itruediv__(other)

        monkeypatch.setattr(bessel.np, "arange", lambda *args: real_arange(*args).view(Recording))
        threshold, cases = bessel._RESCALE_THRESHOLD, [(1.0346932049082891e-250, 1e-12, 0, True)]
        for eps, floor in ((1e-3, 0), (1e-12, 0), (1e-300, 0), (1e-12, 3000)):
            lo, hi = 1e-260, 1e-230  # 2m / tau is above the threshold at lo and below it at hi
            while math.nextafter(lo, 1.0) < hi:
                mid = max(math.nextafter(lo, 1.0), min(math.sqrt(lo) * math.sqrt(hi), math.nextafter(hi, 0.0)))
                m = bessel._start_index(mid, eps, floor)[1]
                lo, hi = (mid, hi) if 2.0 * m / mid > threshold else (lo, mid)
            cases += [(lo, eps, floor, True), (hi, eps, floor, False)]
        returned = []
        for tau, eps, floor, skipped in cases:
            m = bessel._start_index(tau, eps, floor)[1]
            assert (2.0 * m / tau > threshold) == skipped
            del divisions[:]
            row = bessel._recurrence_row(tau, m)
            assert (divisions[:1] == [tau]) != skipped, (tau, eps, floor)  # then the normalisation's, if it returns
            reference = _checked_recurrence_row(tau, m, [])
            assert (row is None) == (reference is None)
            if row is not None:
                assert row.tobytes() == reference.tobytes()
                returned.append(tau)
        assert returned == [1.0346932049082891e-250]
        rows = [case[:3] for case in cases]

        def digest(tau, eps, floor):
            row = scaled_bessel_row(tau, eps, floor)
            return row.window, row.tail_mass, row.values.tobytes()

        found = [digest(*case) for case in rows]
        monkeypatch.setattr(bessel, "_recurrence_row", lambda tau, m: _checked_recurrence_row(tau, m, []))
        assert found == [digest(*case) for case in rows]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [5e-324, 2e-200, 1e-60, 5e-10])
    def test_no_row_warns(self, tau):
        # No coefficient 2(n + 1) / tau is formed where the first step passes the threshold (5e-324, where it would
        # overflow, and 2e-200), and none overflows where it does not (1e-60 rescales on the way down, 5e-10 only
        # at its last step).
        scaled_bessel_row(tau, 1e-12)


def _unchecked_recurrence_row(tau: float, m: int) -> np.ndarray:
    """The first loop of ``_recurrence_row``, which tests no threshold, unnormalised."""
    y = np.zeros(m + 1)
    row = memoryview(y)
    row[m] = 1.0
    y_next, y_cur, two_n = 0.0, 1.0, 2.0 * m
    for n in range(m - 1, -1, -1):
        y_next, y_cur = y_cur, y_next + two_n / tau * y_cur
        row[n] = y_cur
        two_n -= 2.0
    return y


class TestRecurrenceMaximum:
    def test_largest_value_is_in_the_last_two_steps(self):
        # y_{k-1} = y_{k+1} + (2k / tau) y_k adds a nonnegative term to the value two places up, and rounding is
        # monotone, so y_{k-1} >= y_{k+1} in binary64, inf included: the largest value is y[0] or y[1], and the
        # loop that tests every step rescales (or returns None) exactly where that value passes the threshold.
        # Seeded tau, half below 1e-3 and half above, m from random eps and floors, and tau = 1e-323, whose first
        # step is inf, with two rows that rescale in the CLI corpus.
        rng = np.random.default_rng(29)
        taus = (10.0 ** np.concatenate([rng.uniform(-322.0, -3.0, 100), rng.uniform(-3.0, math.log10(2e7), 100)])).tolist()
        epss, floors = 10.0 ** rng.uniform(-307.0, -3.0, 200), rng.integers(0, 2000, 200) * (rng.random(200) < 0.25)
        ms = [bessel._start_index(tau, eps, floor)[1] for tau, eps, floor in zip(taus, epss.tolist(), floors.tolist())]
        taus, ms = taus + [1e-323, 1e-323, 0.002, 2.0], ms + [1, 23, 492, bessel._start_index(2.0, 1e-307, 0)[1]]
        crossed = []
        for tau, m in zip(taus, ms):
            y = _unchecked_recurrence_row(tau, m)
            assert (y[:-2] >= y[2:]).all(), (tau, m)
            top = max(y[0], y[1])
            assert y.max() == top, (tau, m)
            rescales = []
            reference = _checked_recurrence_row(tau, m, rescales)
            crossed.append(bool(top > bessel._RESCALE_THRESHOLD))
            assert (reference is None or bool(rescales)) == crossed[-1], (tau, m)
        assert _unchecked_recurrence_row(1e-323, 23)[22] == math.inf  # the first step overflows
        assert 20 < crossed.count(False) < len(crossed) - 20  # rows on both sides of the threshold


def _longdouble_row(tau: float, m: int) -> np.ndarray:
    """b_0 .. b_m by the same backward recurrence, run and normalised in numpy longdouble."""
    t = np.longdouble(tau)
    y = np.zeros(m + 1, dtype=np.longdouble)
    y_next, y_cur = np.longdouble(0.0), np.longdouble(1.0)
    y[m] = y_cur
    for n in range(m, 0, -1):
        y_next, y_cur = y_cur, y_next + (2 * n / t) * y_cur
        y[n - 1] = y_cur
    return y / (y[0] + 2 * y[1:].sum())


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="longdouble is no wider than binary64 here")
class TestLongdoubleOracle:
    @pytest.mark.parametrize(
        "tau, eps", [(2e3, 1e-16), (2e4, 1e-16), (2e5, 1e-16), (2e5, 1e-12), (4e6, 1e-12), (1.6e7, 1e-12)]
    )
    def test_l1_error_is_within_tail_mass(self, tau, eps):
        # The oracle starts 400 steps above the row's own start, so its seed error is far below the row's;
        # the l1 distance over Z counts each n > 0 twice (b_{-n} = b_n) and adds the oracle's mass outside the window.
        # At (2e5, 1e-16) the error is 0.94 of tail_mass; at 4e6 and 1.6e7 and eps 1e-16 it exceeds it.
        row = scaled_bessel_row(tau, eps)
        exact = _longdouble_row(tau, bessel._start_index(tau, eps, 0)[1] + 400)
        gap = np.abs(exact[: row.window + 1] - row.values.astype(np.longdouble))
        error = gap[0] + 2 * gap[1:].sum() + 2 * exact[row.window + 1 :].sum()
        assert error <= row.tail_mass


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
