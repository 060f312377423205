"""Tests for the moment polynomial family, its zeros, and kernel moments."""

import math

import pytest

from latticeheat.moments import (
    IntPolynomial,
    RootIsolationError,
    heat_kernel_for_moment,
    kernel_moment,
    moment_polynomials,
    poly_eval,
    poly_real_roots,
    weighted_tail_bound,
)

# p_0 .. p_6.  Note: the published table of these polynomials carries a
# typo in the t^2 coefficient of p_5 (225); the recurrence, the identity
# a_{k,2} = 4^{k-1} - 1 and the direct Bessel moment sum all give 255.
EXPECTED_COEFFS = [
    (1,),
    (0, 1),
    (0, 1, 3),
    (0, 1, 15, 15),
    (0, 1, 63, 210, 105),
    (0, 1, 255, 2205, 3150, 945),
    (0, 1, 1023, 21120, 65835, 51975, 10395),
]

# Negative zeros per polynomial, ascending.  p_2 .. p_4 and p_6 match the
# published table; p_5 is recomputed from the corrected coefficients
# (frozen from exact rational isolation, cross-checked by high-precision
# polynomial root refinement).
EXPECTED_ROOTS = {
    2: [-0.333333333333],
    3: [-0.928174419289, -0.0718255807112],
    4: [-1.63703823077, -0.346155120682, -0.016806648552],
    5: [-2.41240022657, -0.778144161637, -0.138725422217, -0.00406352290691],
    6: [-3.23203543281, -1.31451113164, -0.395020230204, -0.0574351888241, -0.000998016528623],
}


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestPolynomials:
    def test_exact_coefficients(self):
        polys = moment_polynomials(6)
        assert [p.coeffs for p in polys] == EXPECTED_COEFFS

    def test_coefficient_identities(self):
        polys = moment_polynomials(10)
        for k in range(2, 11):
            c = polys[k].coeffs
            assert c[1] == 1
            assert c[2] == 4 ** (k - 1) - 1
            assert c[k] == double_factorial(2 * k - 1)

    def test_positive_integer_coefficients(self):
        for k, p in enumerate(moment_polynomials(12)):
            if k == 0:
                continue
            assert p.coeffs[0] == 0
            assert p.degree == k
            assert all(c > 0 for c in p.coeffs[1:])

    def test_high_order_runs_with_big_integers(self):
        polys = moment_polynomials(30)
        assert polys[30].degree == 30
        assert polys[30].coeffs[30] == double_factorial(59)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            moment_polynomials(-1)
        with pytest.raises(ValueError):
            moment_polynomials(65)


class TestEvaluation:
    def test_point_values(self):
        polys = moment_polynomials(2)
        assert poly_eval(polys[1], 2.0) == 2.0
        assert poly_eval(polys[2], 2.0) == 14.0
        assert poly_eval(polys[0], 123.456) == 1.0


class TestRoots:
    def test_tabulated_roots(self):
        polys = moment_polynomials(6)
        for k, expected in EXPECTED_ROOTS.items():
            roots = poly_real_roots(polys[k], 1e-12)
            assert roots[-1] == 0.0
            negatives = roots[:-1]
            assert len(negatives) == len(expected)
            for got, want in zip(negatives, expected):
                assert got == pytest.approx(want, abs=1e-7)

    def test_p3_against_quadratic_formula(self):
        polys = moment_polynomials(3)
        roots = poly_real_roots(polys[3], 1e-12)
        disc = math.sqrt(165.0)
        assert roots[0] == pytest.approx((-15.0 - disc) / 30.0, abs=1e-12)
        assert roots[1] == pytest.approx((-15.0 + disc) / 30.0, abs=1e-12)

    def test_interlacing(self):
        polys = moment_polynomials(6)
        all_roots = {k: poly_real_roots(polys[k], 1e-12) for k in range(2, 7)}
        for k in range(2, 7):
            for j in range(k + 1, 7):
                rk = all_roots[k]
                rj = all_roots[j]
                for a, b in zip(rk, rk[1:]):
                    assert any(a < r < b for r in rj), (k, j, a, b)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            poly_real_roots(IntPolynomial(tuple([0] + [1] * 13)), 1e-12)

    def test_tol_floor(self):
        polys = moment_polynomials(2)
        with pytest.raises(ValueError):
            poly_real_roots(polys[2], 1e-14)

    def test_signals_on_complex_roots(self):
        # t^2 + t + 1 has no real roots at all.
        with pytest.raises(RootIsolationError):
            poly_real_roots(IntPolynomial((1, 1, 1)), 1e-12)


class TestKernelMoments:
    def test_mass_and_second_moment(self):
        k = heat_kernel_for_moment(1.0, 2, 1e-10)
        assert kernel_moment(k, 0) == pytest.approx(1.0, abs=1e-11)
        assert kernel_moment(k, 2) == pytest.approx(2.0, abs=1e-9)

    def test_odd_moments_vanish(self):
        k = heat_kernel_for_moment(1.0, 13, 1e-10)
        for order in (1, 3, 5, 13):
            assert kernel_moment(k, order) == 0.0

    def test_moment_identity(self):
        polys = moment_polynomials(6)
        for k in range(7):
            for t in (0.5, 1.0, 2.0, 5.0):
                expected = poly_eval(polys[k], 2.0 * t)
                kernel = heat_kernel_for_moment(t, 2 * k, max(1e-12, 1e-10 * expected))
                got = kernel_moment(kernel, 2 * k)
                assert got == pytest.approx(expected, rel=1e-8)

    def test_matches_per_point_sum(self):
        for t in (0.01, 3.0, 1e3):
            kernel = heat_kernel_for_moment(t, 12, 1e-10)
            n_max = kernel.window
            for order in range(13):
                terms = [float(n) ** order * kernel.value(n) for n in range(-n_max, n_max + 1)]
                assert kernel_moment(kernel, order) == math.fsum(terms)

    def test_weighted_tail_certificate(self):
        kernel = heat_kernel_for_moment(2.0, 8, 1e-10)
        assert weighted_tail_bound(kernel, 8) <= 1e-10

    def test_overflow_guard(self):
        kernel = heat_kernel_for_moment(2.0, 2, 1e-8)
        with pytest.raises(OverflowError):
            kernel_moment(kernel, 10**6)

    def test_continuum_ratio(self):
        polys = moment_polynomials(4)
        t = 1e4
        for k in range(5):
            ratio = poly_eval(polys[k], 2.0 * t) * math.factorial(k) / (
                math.factorial(2 * k) * t**k
            )
            assert 0.99 <= ratio <= 1.01
