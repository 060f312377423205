"""Tests for the moment polynomial family, its zeros, and kernel moments."""

import functools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from latticeheat import bessel, moments
from latticeheat.bessel import MAX_RECURRENCE_STEPS, _start_index, check_order
from latticeheat.kernel import KernelSlice, LatticeSequence, heat_kernel
from latticeheat.moments import (
    ROOTS_K_MAX,
    IntPolynomial,
    RootIsolationError,
    _dyadic_sign,
    heat_kernel_for_moment,
    kernel_moment,
    moment_polynomials,
    moment_table,
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
        for tol in (1e-14, math.nan):
            with pytest.raises(ValueError, match="tol must be at least 1e-12"):
                poly_real_roots(polys[2], tol)

    def test_signals_on_complex_roots(self):
        # t^2 + t + 1 has no real roots at all.
        with pytest.raises(RootIsolationError):
            poly_real_roots(IntPolynomial((1, 1, 1)), 1e-12)

    def test_against_mpmath_polyroots(self):
        mpmath = pytest.importorskip("mpmath")
        polys = moment_polynomials(ROOTS_K_MAX)
        for k in range(2, ROOTS_K_MAX + 1):
            with mpmath.workdps(50):
                # p_k(0) = 0; the other k - 1 roots are real and negative.
                exact = mpmath.polyroots(polys[k].coeffs[:0:-1], maxsteps=200, extraprec=200)
            want = sorted([float(mpmath.re(r)) for r in exact] + [0.0])
            for tol in (1e-3, 1e-6, 1e-12):
                got = poly_real_roots(polys[k], tol)
                assert len(got) == polys[k].degree
                for g, w in zip(got, want):
                    assert abs(g - w) <= tol, (k, tol, g, w)

    def test_root_on_a_bisection_midpoint_is_exact(self):
        # t (4t + 3): bisection of (-4, 0] visits -2, -1, -0.5 and then hits -0.75 exactly, so the reference
        # returns it; -0.75 is a point of the fine grid, so its cells do not verify and poly_real_roots refuses.
        p = IntPolynomial((0, 3, 4))
        assert sturm_path(p, 1e-12) == [-0.75, 0.0]
        with pytest.raises(RootIsolationError, match="degree-1 polynomial do not verify at fine level 44"):
            poly_real_roots(p, 1e-12)

    @pytest.mark.parametrize("coeffs, exact", [((1, 4, 3), (-1, Fraction(-1, 3))), ((2, 3, 1), (-2, -1))])
    def test_root_at_the_left_end_of_an_isolating_interval_is_kept(self, coeffs, exact):
        # -1 is a point of every grid: it closes the reference's isolating interval of -2 and opens that of
        # -1/3, and the reference keeps both roots.  On a grid point, it is refused by the verified cells.
        roots = sturm_path(IntPolynomial(coeffs), 1e-12)
        assert len(roots) == 2
        assert all(abs(Fraction(r) - x) <= 1e-12 for r, x in zip(roots, exact))
        with pytest.raises(RootIsolationError):
            poly_real_roots(IntPolynomial(coeffs), 1e-12)

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_seeded_roots_on_grid_points_are_all_found(self, tol):
        # The reference finds every root within tol.  poly_real_roots refuses wherever a root is on a point of the
        # fine grid (deg + 2) j / 2^F, F >= 44: the dyadic roots below, and integers that (deg + 2) / 2^e divides;
        # elsewhere it returns the reference's floats at 1e-12 or refuses, and at tol the same.
        rng = random.Random(15)
        on_grid = []
        for _ in range(60):
            deg = rng.randint(2, 8)
            exact = set()
            while len(exact) < deg:  # mostly grid points -(deg + 2) j / 2^e, some thirds, fifths and zero
                if rng.random() < 0.75:
                    e = rng.randint(1, 4)
                    exact.add(Fraction(-(deg + 2) * rng.randint(1, 2**e - 1), 2**e))
                else:
                    b = rng.choice((3, 5))
                    exact.add(Fraction(-rng.randint(0, b * (deg + 2) - 1), b))
            p = with_roots(rng.choice((1, -2)), [(x.numerator, x.denominator) for x in exact])
            roots = sturm_path(p, tol)
            assert len(roots) == deg, (p, roots)
            assert all(abs(Fraction(r) - x) <= tol for r, x in zip(roots, sorted(exact))), (p, roots)
            # x is a point of the grid of some level, here at most 4 and so below F, iff x / (deg + 2) is dyadic.
            on_grid.append(any(x and (x / (deg + 2)).denominator.bit_count() == 1 for x in exact))
            outcome = checked_outcome(p, tol)
            assert not on_grid[-1] or outcome is None, (p, outcome)
        assert 0 < on_grid.count(True) < len(on_grid)

    def test_dyadic_sign_matches_rational_evaluation(self):
        mixed = [IntPolynomial((3, -7, 0, 5, -2)), IntPolynomial((-1, 0, 0, 0, 0, 0, 1 << 40))]
        for poly in moment_polynomials(ROOTS_K_MAX)[1:] + mixed:
            for a in (-9, -5, -1, 0, 1, 3, 1 << 20):
                for e in (0, 1, 7, 40):
                    x = Fraction(a, 2**e)
                    value = sum(c * x**i for i, c in enumerate(poly.coeffs))
                    assert _dyadic_sign(poly, a, e) == (value > 0) - (value < 0)


def _sturm_chain(coeffs: list[int]) -> list[IntPolynomial]:
    """Sturm sequence of the polynomial by integer pseudo-division (Knuth, TAOCP 2, 4.6.1).

    A step replaces a with |lc(b)| a - sign(lc(b)) lc(a) x^shift b, a positive
    multiple of the rational step, and each remainder is divided by the
    negated gcd of its coefficients.  So every member is a positive multiple
    of the rational chain's, and every sign count is the same.
    """
    chain = [coeffs, [i * coeffs[i] for i in range(1, len(coeffs))]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b) and any(a):
            factor, shift = sign * a[-1], len(a) - len(b)
            a = [scale * c for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            while a and a[-1] == 0:
                a.pop()
        if not any(a):
            break
        g = -math.gcd(*a)
        chain.append([c // g for c in a])
    return [IntPolynomial(tuple(c)) for c in chain]


def _sign_changes(chain: list[IntPolynomial], a: int, e: int) -> int:
    signs = [s for s in (_dyadic_sign(poly, a, e) for poly in chain) if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _sturm_roots(q: IntPolynomial, bound: int, level: int) -> list[float]:
    """The roots of q (q(0) != 0) in [-bound, 0] by Sturm isolation and exact bisection to the
    given level: the reference that ``poly_real_roots``' verified cells reproduce."""
    chain = _sturm_chain(list(q.coeffs))
    # Every point visited is a dyadic a / 2^e, held as the integers (a, e).
    lo, hi = -bound, 0
    v_lo, v_hi = _sign_changes(chain, lo, 0), _sign_changes(chain, hi, 0)
    if v_lo - v_hi != q.degree:
        raise RootIsolationError(f"isolated {v_lo - v_hi} real roots in [{float(lo)}, 0], expected {q.degree}")

    # Each interval carries the sign changes at both ends, so a split counts only its midpoint.
    isolated: list[tuple[int, int, int]] = []
    stack = [(lo, hi, 0, v_lo, v_hi)]
    while stack:
        a, b, e, v_a, v_b = stack.pop()
        if v_a - v_b == 1:
            isolated.append((a, b, e))
        elif v_a - v_b > 1:
            mid = a + b
            v_mid = _sign_changes(chain, mid, e + 1)
            stack += [(2 * a, mid, e + 1, v_a, v_mid), (mid, 2 * b, e + 1, v_mid, v_b)]

    roots: list[float] = []
    for a, b, e in isolated:
        # Sturm counts roots in (a, b], so a may be another root; bisect on the sign at b, where 0 marks the root.
        sb = _dyadic_sign(q, b, e)
        if sb == 0:
            a = b
        while a < b and e < level:
            a, b, e, mid = 2 * a, 2 * b, e + 1, a + b
            sm = _dyadic_sign(q, mid, e)
            if sm == 0:
                a = b = mid
            elif sm == sb:
                b = mid
            else:
                a = mid
        roots.append((a + b) / (1 << (e + 1)))
    return sorted(roots)


def _rational_sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """Reference Sturm chain by division over the rationals: p, p', then -rem(p_{i-1}, p_i)."""

    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            factor, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [coeffs, [i * coeffs[i] for i in range(1, len(coeffs))]]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


class TestSturmChain:
    POLYS = [p.coeffs for p in moment_polynomials(ROOTS_K_MAX)[2:]] + [(0, 3, 4), (-6, 1, 1), (0, 0, 1, 5, 6)]

    @pytest.mark.parametrize("coeffs", POLYS)
    def test_integer_chain_is_a_positive_multiple_of_the_rational_one(self, coeffs):
        q = list(coeffs)
        while q[0] == 0:
            q.pop(0)
        chain = _sturm_chain(q)
        reference = _rational_sturm_chain([Fraction(c) for c in q])
        assert len(chain) == len(reference)
        for i, (member, ref) in enumerate(zip(chain, reference)):
            assert len(member.coeffs) == len(ref)
            ratio = member.coeffs[-1] / ref[-1]
            assert ratio > 0 and list(member.coeffs) == [ratio * c for c in ref], i
            if i >= 2:  # every remainder is divided by its content; p and p' are taken as they are
                assert math.gcd(*member.coeffs) == 1, i

    def test_subdivision_evaluates_the_chain_once_per_point(self, monkeypatch):
        seen = []
        sign_changes = _sign_changes

        def recording(chain, a, e):
            seen.append(Fraction(a, 2**e))
            return sign_changes(chain, a, e)

        monkeypatch.setitem(globals(), "_sign_changes", recording)
        sturm_path(moment_polynomials(ROOTS_K_MAX)[ROOTS_K_MAX], 1e-12)
        assert len(seen) > 2 and len(seen) == len(set(seen))


def sturm_path(p, tol):
    """The reference: ``poly_real_roots`` as it was with Sturm isolation and bisection (``_sturm_roots``),
    the path that the verified cells now reproduce or refuse."""
    zeros = next((i for i, c in enumerate(p.coeffs) if c), len(p.coeffs))
    q = IntPolynomial(p.coeffs[zeros:])
    if q.degree < 1:
        return [0.0] if zeros else []
    bound, level = p.degree + 2, 0
    while math.ldexp(bound, -level) > tol / 4:
        level += 1
    roots = _sturm_roots(q, bound, level)
    return roots + [0.0] if zeros else roots


def roots_outcome(find, p, tol):
    """The roots as hex strings, or the error's type and message."""
    try:
        return [r.hex() for r in find(p, tol)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def with_roots(scale, roots):
    """scale * prod (b x - a) for each rational root a / b, constant term first."""
    coeffs = [scale]
    for a, b in roots:
        coeffs = [x * b - y * a for x, y in zip([0, *coeffs], [*coeffs, 0])]
    return IntPolynomial(tuple(coeffs))


TOLS = (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 10.0)
_rng = random.Random(14)


def seeded_poly(deg: int) -> IntPolynomial:
    """Rational roots a / b in [-(deg + 2) - 1 / b, 1 / b]: some repeat, some are dyadic and so on a grid
    point at a fine enough grid, some are positive or past -(deg + 2), and most are none of these."""
    roots = []
    for _ in range(deg):
        b = _rng.choice((1, 2, 3, 5, 7, 11, 13, 16, 64, 97))
        roots.append((-_rng.randint(-1, b * (deg + 2) + 1), b))
    return with_roots(_rng.choice((1, -1, 3)), roots)


RANDOM_POLYS = [seeded_poly(_rng.randint(1, 12)) for _ in range(150)]
EDGE_POLYS = [
    IntPolynomial((0, 3, 4)),  # -0.75, on a bisection midpoint
    with_roots(1, [(-1, 1), (-1, 3)]),  # -1 is a point of every grid
    with_roots(1, [(-1, 3), (-(10**14 + 1), 3 * 10**14)]),  # two roots 3.3e-15 apart, in one cell
    with_roots(1, [(-10, 1), (-1, 2)]),  # -10 is below -(deg + 2) = -4
    with_roots(1, [(1, 2), (-1, 2)]),  # a positive root
    IntPolynomial((1, 1, 1)),  # no real roots
    with_roots(1, [(-1, 3), (-1, 3)]),  # a double root
    with_roots(10**309, [(-1, 3), (-2, 1)]),  # coefficients past binary64
    with_roots(1, [(-1, 10**309)]),  # a root at -1e-309 with a coefficient past binary64
    IntPolynomial((0, 0, 5)),
    IntPolynomial((7,)),
    IntPolynomial((0,)),
    IntPolynomial((3, 0)),  # a zero leading coefficient
]


@functools.cache
def reference_outcome(p):
    """The reference's outcome at tol = 1e-12, computed once per polynomial."""
    return roots_outcome(sturm_path, p, 1e-12)


def checked_outcome(p, tol):
    """``poly_real_roots``' roots as hex strings, or None where it raises ``RootIsolationError``.  Either is
    asserted equal to the outcome at tol = 1e-12, and roots are asserted equal to the reference's at 1e-12."""
    try:
        roots = [r.hex() for r in poly_real_roots(p, tol)]
    except RootIsolationError as exc:
        assert roots_outcome(poly_real_roots, p, 1e-12) == (RootIsolationError, str(exc)), (p, tol)
        return None
    assert roots == roots_outcome(poly_real_roots, p, 1e-12) == reference_outcome(p), (p, tol)
    return roots


# tol = 10^(-e/4), e = 0 .. 48: every one gives the roots at 1e-12, the reference's floats there.
GRID_TOLS = [10 ** (-e / 4) for e in range(49)]


class TestVerifiedCells:
    """``poly_real_roots`` at tol = 1e-12 against the reference Sturm isolation and bisection (the same floats, or
    a refusal), and at every other accepted tol against its own outcome at 1e-12."""

    @pytest.mark.parametrize("tol", GRID_TOLS)
    @pytest.mark.parametrize("k", range(1, ROOTS_K_MAX + 1))
    def test_moment_polynomial_roots_are_the_sturm_paths_floats(self, k, tol):
        assert checked_outcome(moment_polynomials(k)[k], tol) is not None

    @pytest.mark.parametrize("tol", TOLS)
    def test_moment_polynomials_match_the_sturm_path(self, tol):
        for p in moment_polynomials(ROOTS_K_MAX):
            assert checked_outcome(p, tol) is not None

    @pytest.mark.parametrize("tol", TOLS)
    def test_edge_cases_match_the_sturm_path(self, tol):
        outcomes = [checked_outcome(p, tol) for p in EDGE_POLYS]
        assert None in outcomes and outcomes.count(None) < len(outcomes)

    def test_seeded_polynomials_match_the_sturm_path(self):
        # Each polynomial gets the reference's floats at 1e-12 or a refusal, and the same at every tol.
        outcomes = [checked_outcome(p, tol) for p in RANDOM_POLYS for tol in TOLS]
        refused = outcomes.count(None)
        assert 30 < refused < len(outcomes) - 30

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((0,), [0.0]),
            ((0, 0, 5), [0.0]),
            ((7,), []),
            ((0, 0, 3, 4), [-0.7499999999999574, 0.0]),
            (
                (3, 0),
                (
                    RootIsolationError,
                    "the roots of a degree-1 polynomial do not verify at fine level 44: "
                    "no 1 cells of [-3, 0] with opposite, nonzero exact signs at their ends",
                ),
            ),
        ],
    )
    def test_zero_roots_and_constants(self, coeffs, expected):
        # Both paths strip the zero roots alike, so its outputs are pinned; a zero leading coefficient is refused.
        p = IntPolynomial(coeffs)
        want = [r.hex() for r in expected] if isinstance(expected, list) else expected
        assert roots_outcome(poly_real_roots, p, 1e-12) == want
        refusal = (RootIsolationError, "isolated 0 real roots in [-3.0, 0], expected 1")
        assert roots_outcome(sturm_path, p, 1e-12) == (want if isinstance(expected, list) else refusal)

    def test_moment_polynomials_never_reach_the_sturm_path(self, monkeypatch):
        # Two exact signs per root of q at every tol: the cells are taken once, at the fine level.
        signs = []
        dyadic_sign = moments._dyadic_sign

        def counting(poly, a, e):
            signs.append(a)
            return dyadic_sign(poly, a, e)

        monkeypatch.setattr(moments, "_dyadic_sign", counting)
        for p in moment_polynomials(ROOTS_K_MAX)[2:]:
            for tol in GRID_TOLS:
                signs.clear()
                assert len(poly_real_roots(p, tol)) == p.degree
                assert len(signs) <= 2 * (p.degree - 1), (p.degree, tol)


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
        for t in (0.01, 3.0, 1e3, 1e5):
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

    def test_odd_order_returns_before_the_overflow_guard(self):
        # 20,047^71 passes binary64, but the odd order 71 returns 0.0 without a weight.
        kernel = KernelSlice(window=20_047, values=np.full(20_048, 1e-5), tail_mass=0.0)
        assert kernel_moment(kernel, 71) == 0.0
        with pytest.raises(OverflowError):
            kernel_moment(kernel, 10**6)

    def test_weighted_tail_overflow_guard_names_order_and_window(self):
        # 824^106 would overflow, and 824^104 does not.
        kernel = KernelSlice(window=824, values=np.geomspace(0.5, 1e-300, 825), tail_mass=0.0)
        assert math.isfinite(weighted_tail_bound(kernel, 104))
        with pytest.raises(OverflowError, match=r"n\^106 exceeds binary64 range on window 824"):
            weighted_tail_bound(kernel, 106)

    @pytest.mark.filterwarnings("error")
    def test_weights_inside_binary64_are_summed_however_near_its_edge(self):
        # 262^126 is about 1.5e304, and 262^128 overflows.
        kernel = KernelSlice(window=262, values=np.geomspace(0.5, 1e-300, 263), tail_mass=0.0)
        assert math.isfinite(kernel_moment(kernel, 126))
        assert math.isfinite(weighted_tail_bound(kernel, 126))
        for call in (kernel_moment, weighted_tail_bound):
            with pytest.raises(OverflowError, match=r"^n\^128 exceeds binary64 range on window 262$"):
                call(kernel, 128)

    def test_moment_table_reaches_the_last_order_whose_weights_are_finite(self):
        k, even, expected, odd = moment_table(100.0, 63)[-1]
        assert k == 63 and odd == 0.0
        assert abs(even - expected) <= 1e-12 * expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "offset, values, order, name",
        [(0, [1e308] * 3, 1, "order-1 moment"), (5, [1e307], 2, "order-2 moment"),
         (-5, [1e307] * 11, 2, "order-2 moment"), (0, [1e308] * 3, 0, "mass")],
    )
    def test_sequence_moment_of_finite_values_past_binary64_raises(self, offset, values, order, name):
        # A product, as at n^2 1e307, or fsum's running sum overflows; either way the error names the sum.
        s = LatticeSequence(offset, np.array(values))
        with pytest.raises(OverflowError, match=f"^the {name} of a sequence on {len(values)} sites exceeds binary64 range$"):
            s.moment(order)
        # An infinite value with no overflow gives what it gave before.
        assert LatticeSequence(offset, np.array([1.0, math.inf])).moment(order) == math.inf

    @pytest.mark.parametrize("order, message", [
        *(pytest.param(order, f"order must be a nonnegative integer, got {order!r}", id=repr(order))
          for order in (-1, 0.5, 1.5, 2.5, math.nan, math.inf)),
        pytest.param(10**400, "order must be a nonnegative integer within binary64 range", id="10**400"),  # no float holds it
    ])
    def test_one_order_rule_for_every_moment_function(self, monkeypatch, order, message):
        row = heat_kernel_for_moment(1.0, 2, 1e-10)
        monkeypatch.setattr(moments, "heat_kernel", None)  # a refused order builds no row
        calls = [lambda: LatticeSequence(-3, np.ones(7)).moment(order), lambda: kernel_moment(row, order),
                 lambda: weighted_tail_bound(row, order), lambda: heat_kernel_for_moment(1.0, order, 1e-10),
                 lambda: heat_kernel_for_moment(1.0, order, math.nan)]  # the order is checked before tol
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert len(message) < 100

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -0.0, -1e-10, -math.inf], ids=repr)
    def test_a_tol_that_is_nan_or_not_positive_builds_no_row(self, monkeypatch, tol):
        # A NaN tol once widened rows without end: no weighted tail is at most NaN.
        monkeypatch.setattr(moments, "heat_kernel", None)
        for order in (0, 2, 13):
            with pytest.raises(ValueError, match=f"^{re.escape(f'tol must be positive, got {tol!r}')}$"):
                heat_kernel_for_moment(1.0, order, tol)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0], ids=repr)
    def test_refused_input_raises_as_it_did(self, t):
        # Each call raises what the walk without a predicted floor raised: the order's error, else the tol's (new),
        # else the first row's; and no floor search runs long on any of them.
        for order in (-1, 0.5, 10**6, 1e300):
            for tol in (-1.0, 0.0, math.nan, math.inf):
                try:
                    check_order(order)
                    if not tol > 0.0:
                        raise ValueError(f"tol must be positive, got {tol!r}")
                    heat_kernel(t, 1e-16)
                except ValueError as exc:
                    expected = str(exc)
                start = time.perf_counter()
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    heat_kernel_for_moment(t, order, tol)
                assert time.perf_counter() - start < 1.0

    def test_a_floor_past_the_recurrence_cap_is_refused_before_any_row(self, monkeypatch):
        # At t = 3e12 the eps-1e-16 row fits MAX_RECURRENCE_STEPS (32.6 million steps), but the row floored where
        # the order-2 tail meets 1e-10 does not: heat_kernel refuses it before the recurrence runs.
        assert _start_index(6e12, 1e-16, 0)[1] <= MAX_RECURRENCE_STEPS
        floor = moments._predicted_floor(3e12, 2, 1e-10)
        steps = _start_index(6e12, 1e-16, floor)[1]
        assert steps > MAX_RECURRENCE_STEPS
        monkeypatch.setattr(bessel, "_recurrence_row", None)
        message = f"the row at tau=6000000000000.0 needs {steps} recurrence steps, more than {MAX_RECURRENCE_STEPS}"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            heat_kernel_for_moment(3e12, 2, 1e-10)
        floor = moments._predicted_floor(2.5e12, 2, 1e-10)
        assert _start_index(5e12, 1e-16, 0)[0] < floor and _start_index(5e12, 1e-16, floor)[1] <= MAX_RECURRENCE_STEPS

    @pytest.mark.parametrize("order", [10**6, 1e300, 1000], ids=repr)
    def test_a_floor_past_the_weights_refuses_on_the_eps_row(self, order):
        # N^order leaves binary64 at every window past 2, so the floor is 2, the row is the eps-1e-16 row, and its
        # weight overflows there.
        assert moments._predicted_floor(1.0, order, 1e-10) == 2
        first = heat_kernel(1.0, 1e-16)
        with pytest.raises(OverflowError) as expected:
            weighted_tail_bound(first, order)
        start = time.perf_counter()
        with pytest.raises(OverflowError, match=f"^{re.escape(str(expected.value))}$"):
            heat_kernel_for_moment(1.0, order, 1e-10)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("order, tol, window, certified", [
        (108, 7.271790852365888e+254, 709, True),  # the limit meets tol though Bernstein's bound does not
        (110, 1.5994306810969627e+260, 629, False),
    ])
    def test_where_no_window_meets_the_bound_the_floor_is_the_widest_with_finite_weights(self, order, tol, window,
                                                                                         certified):
        # At t = 1e3, exp(709 / order) caps the window, and the Bernstein target is not met below it.
        assert moments._predicted_floor(1e3, order, tol) == window == int(math.exp(709.0 / order))
        if certified:
            assert heat_kernel_for_moment(1e3, order, tol).window == window
        else:
            message = f"could not certify weighted tail <= {tol} at t=1000.0, order={order}"
            with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
                heat_kernel_for_moment(1e3, order, tol)

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-3])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_the_floor_leaves_two_values_past_the_origin(self, t, order):
        # weighted_tail_bound is infinite on windows 0 and 1; the eps row at t = 0 is window 0.
        assert moments._predicted_floor(t, order, 1.0) == 2
        assert heat_kernel_for_moment(t, order, 1.0).window >= 2

    def test_continuum_ratio(self):
        polys = moment_polynomials(4)
        t = 1e4
        for k in range(5):
            ratio = poly_eval(polys[k], 2.0 * t) * math.factorial(k) / (
                math.factorial(2 * k) * t**k
            )
            assert 0.99 <= ratio <= 1.01
