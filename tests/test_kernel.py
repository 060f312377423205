"""Tests for the kernel slice and lattice sequences."""

import math

import numpy as np
import pytest

import latticeheat
from latticeheat import bessel
from latticeheat.bessel import scaled_bessel_row
from latticeheat.kernel import (
    KernelSlice,
    LatticeSequence,
    add_sequences,
    csv_lines,
    discrete_laplacian,
    forward_difference,
    heat_kernel,
    lp_norm,
    read_sequence_csv,
)

B0_AT_2 = 0.30850832255367104
B1_AT_2 = 0.21526928924893766


class TestHeatKernel:
    def test_delta_slice_at_time_zero(self):
        k = heat_kernel(0.0, 1e-12)
        assert k.value(0) == 1.0
        assert k.value(1) == 0.0
        assert k.tail_mass == 0.0

    def test_values_at_t_one(self):
        k = heat_kernel(1.0, 1e-12)
        assert k.value(0) == pytest.approx(B0_AT_2, abs=1e-13)
        assert k.value(1) == pytest.approx(B1_AT_2, abs=1e-13)
        assert k.value(-1) == k.value(1)

    def test_mass_within_tail(self):
        for t in (0.1, 1.0, 10.0, 100.0, 1000.0):
            k = heat_kernel(t, 1e-12)
            assert abs(k.mass() - 1.0) <= k.tail_mass
            assert k.tail_mass <= 1e-12

    def test_monotone_symmetric(self):
        for t in (0.5, 3.0, 40.0):
            k = heat_kernel(t, 1e-12)
            seq = k.to_sequence()
            for n in range(k.window):
                assert k.value(n) >= k.value(n + 1)
            for n in range(-k.window, k.window + 1):
                assert seq.value(n) == k.value(n)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            heat_kernel(-0.5, 1e-12)

    @pytest.mark.parametrize("t", [1e308, -1.0, math.nan])
    def test_rejects_bad_times_naming_t(self, t):
        # 2t overflows at t = 1e308; the message names t, not the row's tau.
        with pytest.raises(ValueError, match=r"^t must"):
            heat_kernel(t, 1e-12)


class TestOneRowType:
    @pytest.mark.parametrize("tau", [0.0, 1e-200, 1.0, 2e5])
    @pytest.mark.parametrize("floor", [None, 2000])
    def test_slice_is_the_bessel_row_at_twice_t(self, tau, floor):
        k = heat_kernel(tau / 2.0, 1e-12, floor)
        row = scaled_bessel_row(tau, 1e-12, floor)
        assert type(k) is type(row) is KernelSlice
        assert k.window == row.window and (floor is None or k.window >= floor)
        assert k.tail_mass.hex() == row.tail_mass.hex()
        assert k.values.tobytes() == row.values.tobytes()

    def test_one_row_class_is_exported(self):
        assert "ScaledBesselRow" not in latticeheat.__all__
        assert not hasattr(bessel, "ScaledBesselRow")
        assert latticeheat.KernelSlice is bessel.KernelSlice is KernelSlice
        assert latticeheat.LatticeSequence is bessel.LatticeSequence is LatticeSequence


class TestDifferences:
    def test_forward_difference_of_delta(self):
        d = forward_difference(LatticeSequence.delta(0))
        assert d.value(-1) == 1.0
        assert d.value(0) == -1.0
        assert d.offset == -1

    def test_forward_difference_of_constant_window(self):
        s = LatticeSequence(0, np.ones(5))
        d = forward_difference(s)
        # interior of the window: difference of equal values
        for n in range(0, 4):
            assert d.value(n) == 0.0

    def test_forward_difference_telescopes(self):
        k = heat_kernel(1.0, 1e-12)
        d = forward_difference(k.to_sequence())
        assert abs(d.mass()) <= 2.0 * k.tail_mass + 1e-15

    def test_laplacian_of_delta(self):
        l = discrete_laplacian(LatticeSequence.delta(0))
        assert (l.value(-1), l.value(0), l.value(1)) == (1.0, -2.0, 1.0)

    def test_laplacian_of_linear_sequence(self):
        s = LatticeSequence(-3, np.arange(-3.0, 4.0))
        l = discrete_laplacian(s)
        for n in range(-2, 3):
            assert l.value(n) == 0.0

    def test_laplacian_telescopes(self):
        k = heat_kernel(2.0, 1e-12)
        l = discrete_laplacian(k.to_sequence())
        assert abs(l.mass()) <= 4.0 * k.tail_mass + 1e-15


class TestLpNorm:
    def test_delta_norms(self):
        d = LatticeSequence.delta(0)
        assert lp_norm(d, 1.0) == 1.0
        assert lp_norm(d, 2.0) == 1.0
        assert lp_norm(d, math.inf) == 1.0

    def test_kernel_l1_is_mass(self):
        for t in (0.5, 7.0, 300.0):
            k = heat_kernel(t, 1e-12)
            assert lp_norm(k.to_sequence(), 1.0) == pytest.approx(1.0, abs=2e-12)

    def test_kernel_sup_is_center(self):
        k = heat_kernel(1.0, 1e-12)
        assert lp_norm(k.to_sequence(), math.inf) == k.value(0)

    def test_fractional_p(self):
        s = LatticeSequence(0, np.array([3.0, 4.0]))
        assert lp_norm(s, 3.0) == pytest.approx((27.0 + 64.0) ** (1.0 / 3.0))

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(LatticeSequence.delta(0), 0.5)

    def test_rejects_nan_p(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(LatticeSequence.delta(0), math.nan)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_infinite_l2_norm_of_finite_values_raises(self, p):
        # Finite values whose norm is past binary64, as the running sum, a square or a cube overflows;
        # the squares of [1.2e154, 1.2e154] are finite, and only their sum overflows.
        overflowing = [[1e308, 1e308]] + ([[1e300, 2e300, 1e300], [1.2e154, 1.2e154]] if p > 1.0 else [])
        for values in overflowing:
            with pytest.raises(OverflowError, match=f"l{p:g} norm of a sequence on {len(values)} sites exceeds binary64"):
                lp_norm(LatticeSequence(0, np.array(values)), p)
        assert lp_norm(LatticeSequence(0, np.array([1e150, 1.0])), 2.0) == 1e150
        # An infinite value has an infinite norm and a NaN gives NaN, whatever the finite values do.
        for values in ([1e300, math.inf], [1e308, 1e308, math.inf]):
            assert lp_norm(LatticeSequence(0, np.array(values)), p) == math.inf
        assert math.isnan(lp_norm(LatticeSequence(0, np.array([1e300, math.nan])), p))

    def test_matches_per_element_fsum(self):
        rng = np.random.default_rng(20251)
        for size in (1, 7, 1000):
            values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-150.0, 150.0, size)
            s = LatticeSequence(-3, values)
            assert lp_norm(s, 1.0) == math.fsum(abs(v) for v in s.values)
            assert lp_norm(s, 2.0) == math.sqrt(math.fsum(v * v for v in s.values))


class TestSemigroup:
    def test_kernel_convolution_semigroup(self):
        from latticeheat.solver import convolve

        for t, s in ((0.5, 0.5), (1.0, 2.0), (3.0, 5.0)):
            kt = heat_kernel(t, 1e-13)
            ks = heat_kernel(s, 1e-13)
            kts = heat_kernel(t + s, 1e-13)
            conv = convolve(kt.to_sequence(), ks.to_sequence())
            diff = add_sequences(conv, kts.to_sequence(), 1.0, -1.0)
            budget = 10.0 * (kt.tail_mass + ks.tail_mass + kts.tail_mass)
            assert lp_norm(diff, 1.0) <= budget


class TestSequencePlumbing:
    def test_from_pairs_and_value(self):
        s = LatticeSequence.from_pairs({3: 1.5, -2: 2.0})
        assert s.offset == -2
        assert s.value(-2) == 2.0
        assert s.value(3) == 1.5
        assert s.value(0) == 0.0
        assert s.value(100) == 0.0

    def test_add_sequences_aligns_windows(self):
        a = LatticeSequence.delta(0)
        b = LatticeSequence.delta(5)
        c = add_sequences(a, b, 2.0, -1.0)
        assert c.value(0) == 2.0
        assert c.value(5) == -1.0

    def test_csv_round_trip_exact(self, tmp_path, write_sequence_csv):
        k = heat_kernel(1.0, 1e-12)
        seq = k.to_sequence()
        path = tmp_path / "k.csv"
        write_sequence_csv(path, seq)
        back = read_sequence_csv(path)
        assert back.offset == seq.offset
        assert np.array_equal(back.values, seq.values)

    def test_csv_text_writes_every_float_as_its_repr(self):
        # Random bit patterns: normal, subnormal, signed zero, inf and nan, as Python floats and NumPy float64.
        floats = np.random.default_rng(20262).integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64)
        floats[:6] = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324)
        rows = [(i, float(x), x) for i, x in enumerate(floats)]
        assert "".join(csv_lines(["i", "float", "float64"], rows)) == "i,float,float64\n" + "".join(
            f"{i},{float(x)!r},{float(x)!r}\n" for i, x in enumerate(floats)
        )

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_sequence_csv(path)

    def test_csv_rejects_a_repeated_index(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("n,value\n-1,0.5\n0,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match=r"dup\.csv, line 4: index 0 appears twice"):
            read_sequence_csv(path)
