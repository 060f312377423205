"""Certificates against independent references.

Each case prints the ratio of the measured error to its certificate
(``pytest -s`` shows them), so a loose or nearly violated bound is visible
and not only a failed one.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from latticeheat import moments, solver
from latticeheat.analysis import kernel_decay, l2_optimality, large_time_profile
from latticeheat.bessel import ROW_L1_BOUND
from latticeheat.kernel import LatticeSequence, add_sequences, heat_kernel, lp_norm
from latticeheat.moments import heat_kernel_for_moment, moment_polynomials, poly_eval, weighted_tail_bound
from latticeheat.solver import ForcingSpec, duhamel, evolve

PHI = LatticeSequence.from_pairs({-1: 0.5, 0: 1.0, 1: 0.25, 2: -0.5, 3: 0.125})


def duhamel_reference(gamma: float, t: float) -> LatticeSequence:
    """int_0^t (1+s)^-gamma (G(t-s) * phi) ds by ``quad_vec``, with G from scipy's ``ive``.

    The window leaves out less than 1e-17 of every G(t-s) mass, and the
    requested 1e-12 sup-norm accuracy is far below every certificate checked.
    """
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    half = heat_kernel(t, 1e-17).window + 10
    n = np.arange(-half, half + 1)

    def integrand(s: float) -> np.ndarray:
        return (1.0 + s) ** -gamma * np.convolve(special.ive(n, 2.0 * (t - s)), PHI.values)

    values, _ = integrate.quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=0.0, norm="max")
    return LatticeSequence(PHI.offset - half, values)


# t = 1000 at gamma 0.5, the largest rounding term, also checks the panels that the kernel's decay widens.  The
# coarse cases take gamma from 0.1 to 10 and eps up to 0.5, where the mesh has few wide panels and the rule is far
# from exact.
@pytest.mark.parametrize(
    "gamma, t, epsilons",
    [pytest.param(g, t, (1e-3, 1e-5, 1e-7), id=f"{g}-{t}") for g in (0.5, 2.0, 6.0) for t in (0.5, 10.0, 100.0)]
    + [pytest.param(0.5, 1000.0, (1e-3, 1e-5, 1e-7), id="0.5-1000.0")]
    + [pytest.param(g, t, (1e-3, 0.05, 0.5), id=f"{g}-{t}-coarse") for g in (0.1, 1.0, 10.0) for t in (0.5, 1000.0)],
)
def test_duhamel_certificate_covers_quad_vec(gamma, t, epsilons):
    reference = duhamel_reference(gamma, t)
    for eps in epsilons:
        snap = duhamel(ForcingSpec(PHI, gamma, 1.0), t, eps)
        distance = lp_norm(add_sequences(snap.u, reference, 1.0, -1.0), 1.0)
        certificate = snap.quad_error + snap.trunc_error
        print(f"duhamel gamma={gamma} t={t} eps={eps:g}: error/certificate = {distance / certificate:.3g}")
        assert snap.quad_error <= 0.5 * eps
        assert distance <= certificate


def test_weighted_tail_bound_covers_the_ive_tail(monkeypatch):
    special = pytest.importorskip("scipy.special")
    # At the rows heat_kernel_for_moment gives order 2k at the moment table's tol max(1e-12, 1e-10 p_k(2t)) and
    # order 12 at the benchmark's tol 1e-10 max(1, (2t)^6), against 2 sum_{n > N} n^order ive(n, 2t) summed
    # directly.  A call builds one row wherever its first row, floored where the Bernstein tail predicts, certifies.
    # The bound is tight: the ratio reaches 0.989.
    built = []
    monkeypatch.setattr(moments, "heat_kernel", lambda *args, **kw: built.append(heat_kernel(*args, **kw)) or built[-1])
    polys = moment_polynomials(12)
    widened = calls = 0
    for t in (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        cases = [(2 * k, max(1e-12, 1e-10 * poly_eval(polys[k], 2.0 * t))) for k in range(1, 13)]
        ratios = []
        for order, tol in cases + [(12, 1e-10 * max(1.0, (2.0 * t) ** 6))]:
            built.clear()
            row = heat_kernel_for_moment(t, order, tol)
            calls += 1
            if weighted_tail_bound(built[0], order) <= tol:
                assert len(built) == 1 and built[0] is row
            else:
                widened += 1
            bound = weighted_tail_bound(row, order)
            assert bound <= tol
            n = np.arange(row.window + 1, row.window + 65 + 8 * math.ceil(math.sqrt(2.0 * t)))
            terms = n.astype(float) ** order * special.ive(n, 2.0 * t)
            tail = 2.0 * math.fsum(terms.tolist())
            assert terms[-1] <= 1e-20 * tail  # the sum reaches far enough past the window
            assert tail <= bound
            ratios.append(tail / bound)
        print(f"weighted tail t={t:g}, orders 2..24 and 12: tail/bound = " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"first row widened in {widened} of {calls} calls")


# One signed 50-site sequence, each value exact in binary.
SIGNED_50 = LatticeSequence(-20, np.array([(n * 37 % 41 - 20) / 16 for n in range(50)]))


@pytest.mark.parametrize("f", [None, SIGNED_50], ids=["delta", "signed50"])
def test_l2_norm_meets_the_semigroup_identity(semigroup_l2, f):
    # ||G(t)||_2^2 = G(2t, 0) and ||G(t) * f||_2^2 = sum_k R_f(k) G(2t, k), from t = 16 (87 values, summed by
    # fsum) to 1e6 (20,445, by the extraction).  The library's l1 error E (the row's tail_mass, or evolve's
    # trunc_error) moves the squared norm by at most E (2 max|u| + E); the squares, the correctly rounded sum and
    # the square root take a relative 4u and 2^-1075 per subnormal square.  The oracle's own bound is added.
    # The p = 2 reports on these times, kernel_decay for G and l2_optimality for G * f, give the same floats.
    eps, times, norms, snaps = 1e-12, (16.0, 300.0, 2500.0, 10000.0, 65536.0, 1e6), {}, {}
    for t in times:
        if f is None:
            row = heat_kernel(t, eps)
            u, error = row.to_sequence(), row.tail_mass
        else:
            snap = snaps[t] = evolve(f, t, eps)
            u, error = snap.u, snap.trunc_error
        norm = lp_norm(u, 2.0)
        exact, oracle_error = semigroup_l2(f or LatticeSequence.delta(), t, eps)
        top = float(np.max(np.abs(u.values)))
        rounding = 4.01 * 2.0**-53 * norm * norm + len(u.values) * 2.0**-1074
        bound = (error * (2.0 * top + error) + rounding + oracle_error) * (1.0 + 2.0**-50)
        distance = abs(Fraction(norm) ** 2 - exact)
        print(f"l2 semigroup t={t:g} {len(u.values)} values: error/bound = {float(distance) / bound:.3g}")
        assert distance <= bound
        norms[t] = norm
    report = kernel_decay(2.0, "G", times, eps) if f is None else l2_optimality(f, times, eps)
    assert dict(report.pairs + report.dropped) == norms
    if f is None:
        return
    # converge --p 2: large_time_profile's point is t^(1/4) ||u - M G(t)||_2, and u - M G(t) is G(t) * (f - M delta).
    # Besides evolve's trunc_error, E takes |M| times the row's tail_mass and the difference's two roundings (the
    # product M b_n and the sum, u each, and 2^-1075 per subnormal product); the point's product with t^(1/4) and
    # the division by it add a relative 4u to the squared norm.
    mass = f.mass()
    h = add_sequences(f, LatticeSequence.delta(), 1.0, -mass)
    assert Fraction(h.value(0)) == Fraction(f.value(0)) - Fraction(mass)  # f - M delta, exactly
    profile = large_time_profile(f, None, 2.0, times, eps)
    for t, value in profile.pairs + profile.dropped:
        row = heat_kernel(t, eps)
        diff = add_sequences(snaps[t].u, row.to_sequence(), 1.0, -mass)
        rounded = 2.0**-53 * (abs(mass) * ROW_L1_BOUND + lp_norm(diff, 1.0)) + len(diff.values) * 2.0**-1074
        error = snaps[t].trunc_error + abs(mass) * row.tail_mass + rounded
        norm = value / t**0.25
        exact, oracle_error = semigroup_l2(h, t, eps)
        top = float(np.max(np.abs(diff.values)))
        rounding = 8.02 * 2.0**-53 * norm * norm + len(diff.values) * 2.0**-1074
        bound = (error * (2.0 * top + error) + rounding + oracle_error) * (1.0 + 2.0**-50)
        distance = abs(Fraction(norm) ** 2 - exact)
        print(f"l2 semigroup profile t={t:g} {len(diff.values)} values: error/bound = {float(distance) / bound:.3g}")
        assert distance <= bound


LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def ulps(values: np.ndarray, exact) -> float:
    """The largest distance of values from the mpmath numbers exact, in ulps of the exact numbers."""
    import mpmath

    return max(float(abs(mpmath.mpf(float(v)) - e)) / math.ulp(float(e)) for v, e in zip(values.tolist(), exact))


def symbol_call(monkeypatch, gamma: float, t: float, eps: float = 1e-10):
    """duhamel's snapshot, and the arguments and result of its one symbol evaluation."""
    calls, symbol = [], solver._symbol

    def recording(c, r, size):
        calls.append((c, r, size, symbol(c, r, size)))
        return calls[-1][-1]

    monkeypatch.setattr(solver, "_symbol", recording)
    snap = duhamel(ForcingSpec(PHI, gamma, 1.0), t, eps)
    (call,) = calls
    return snap, call


def test_numpy_exp_and_sin_stay_within_the_assumed_ulps(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    # The symbol's term assumes NumPy's sin on every grid pi k / M and its exp on every argument within
    # _LIBM_ULPS ulps; a looser NumPy build fails here.  Each grid is evaluated whole, as duhamel does, and
    # checked at every point up to M = 2^12, at 512 seeded points above.
    rng = np.random.default_rng(23)
    worst = 0.0
    with mpmath.workprec(80):
        for j in range(5, 17):
            size = 2**j
            grid = np.sin(np.pi * (np.arange(size // 2 + 1) / size))
            k = np.arange(1, len(grid)) if size <= 2**12 else rng.integers(1, len(grid), 512)
            worst = max(worst, ulps(grid[k], [mpmath.sin(mpmath.mpf(x)) for x in (np.pi * (k / size)).tolist()]))
        print(f"NumPy sin on the grids: {worst:.3f} ulp")
        assert worst <= solver._LIBM_ULPS
        worst = 0.0
        for gamma, t in ((2.0, 0.5), (0.5, 2000.0)):
            _, (c, r, size, _) = symbol_call(monkeypatch, gamma, t)
            half = np.sin(np.pi * (np.arange(size // 2 + 1) / size))
            x = np.multiply.outer(-4.0 * r, np.square(half))
            values = np.exp(x)
            pick = rng.integers(0, x.size, 1024)
            exact = [mpmath.exp(mpmath.mpf(v)) for v in x.ravel()[pick].tolist()]
            worst = max(worst, ulps(values.ravel()[pick], exact))
        x = -rng.uniform(700.0, 746.0, 256)  # down to the subnormal results
        worst = max(worst, ulps(np.exp(x), [mpmath.exp(mpmath.mpf(v)) for v in x.tolist()]))
        print(f"NumPy exp on the symbol's arguments: {worst:.3f} ulp")
        assert worst <= solver._LIBM_ULPS


def test_pocketfft_twiddles_stay_within_mu():
    # The transform of a unit impulse at n = 1 is exp(-2 pi i k / M) itself, which pocketfft forms from its
    # twiddle factors; Higham's Thm 24.2 assumes each within mu = _TWIDDLE of the exact root of unity.
    worst = 0.0
    for j in range(5, 17):
        size = 2**j
        impulse = np.zeros(size)
        impulse[1] = 1.0
        roots = np.fft.rfft(impulse).astype(np.clongdouble)
        angle = 2 * LONG_PI * np.arange(size // 2 + 1).astype(np.longdouble) / size
        worst = max(worst, float(np.max(np.abs(roots - (np.cos(angle) - 1j * np.sin(angle))))))
    print(f"pocketfft roots of unity: {worst / 2.0**-53:.2f} u against mu = {solver._TWIDDLE / 2.0**-53:g} u")
    assert worst <= solver._TWIDDLE


@pytest.mark.parametrize("gamma, t", [(2.0, 0.1), (0.5, 30.0), (0.5, 2000.0)])
def test_symbol_and_transform_meet_their_terms(monkeypatch, gamma, t):
    # Against long double: the symbol at each theta_k from the same c_i and r_i, and the inverse transform of the
    # computed symbol as a cosine sum over a table of cos(2 pi j / M).  The symbol's l2 error (over sqrt(M)) is
    # compared with its term of duhamel's certificate, and the transform's l1 error on the frame with its term.
    snap, (c, r, size, symbol) = symbol_call(monkeypatch, gamma, t)
    width = PHI.offset - snap.u.offset
    ld = np.longdouble
    half = np.sin(LONG_PI * np.arange(size // 2 + 1).astype(ld) / size)
    exact = (c.astype(ld)[:, None] * np.exp(np.multiply.outer(-4 * r.astype(ld), half * half))).sum(axis=0)
    mirror = lambda v: np.concatenate((v, v[-2:0:-1]))  # the M points of an even sequence from its half
    error = float(np.sqrt(np.sum(mirror(symbol - exact) ** 2) / size))
    spread = math.fsum(c * solver._symbol_l2(r, size, 4.0))
    term = solver._gamma((len(c) - 1).bit_length() + 7 + 6 * solver._LIBM_ULPS) * spread
    print(f"symbol gamma={gamma} t={t} M={size}: error/term = {error / term:.3g}")
    assert error <= term

    values = np.fft.irfft(symbol, size)
    table = np.cos(2 * LONG_PI * np.arange(size).astype(ld) / size)
    n = np.arange(width + 1)
    weights = np.where((np.arange(size // 2 + 1) % (size // 2)) == 0, 1, 2).astype(ld) / size
    inverse = (table[np.multiply.outer(n, np.arange(size // 2 + 1)) % size] * (weights * symbol)).sum(axis=1)
    frame = np.concatenate((values[size - width :], values[: width + 1])) - np.concatenate((inverse[:0:-1], inverse))
    error = float(np.sum(np.abs(frame)))
    levels, mu = size.bit_length() - 1, solver._TWIDDLE
    eta = mu + solver._gamma(4) * (math.sqrt(2.0) + mu)
    term = math.sqrt(2 * width + 1) * levels * eta / (1.0 - levels * eta) * math.sqrt(np.sum(mirror(symbol) ** 2) / size)
    print(f"inverse FFT gamma={gamma} t={t} M={size}: error/term = {error / term:.3g}")
    assert error <= term
