"""``evolve``, ``l2_optimality``, the homogeneous ``large_time_profile``, ``LatticeSequence.moment`` and ``lp_norm``
at general p match, bit for bit, references that form G(t)·f, the moment sums and the norms apart.

Each reference forms the certificate for itself, from ||f||_1 <= (its NumPy sum of |f|) (1 + gamma_2n) rounded
up and ||G(t)||_1 <= 1 + 2^-51, and sums every norm over a ``tolist()`` list, so the library's one ``_evolve``
core, its ``rounding_bound`` and its ``exact_sum`` norms are all checked against forms that share none of them.
Each certificate is also held between the one summed exactly, as it was formed before, and 1 + 1e-9 times that.
"""

import math
import random

import numpy as np
import pytest

from latticeheat import bessel, moments
from latticeheat.analysis import _gate, dyadic_grid, l2_optimality, large_time_profile
from latticeheat.bessel import check_order, libm_pow
from latticeheat.kernel import (
    KernelSlice,
    LatticeSequence,
    add_sequences,
    discrete_laplacian,
    forward_difference,
    heat_kernel,
    lp_norm,
)
from latticeheat.moments import kernel_moment, weighted_tail_bound
from latticeheat.solver import _gamma, evolve


def l1(s: LatticeSequence) -> float:
    return math.fsum(np.abs(s.values).tolist())


def generator_norm(values: np.ndarray, p: float) -> float:
    """The l^p norm at p other than 1, 2 and inf as a generator of ``abs(v) ** p`` over a list, summed by fsum."""
    return math.fsum(abs(v) ** p for v in values.tolist()) ** (1 / p)


def norm(s: LatticeSequence, p: float) -> float:
    """``lp_norm`` as summed over a list at every finite p."""
    if p == 1.0:
        return l1(s)
    if p == 2.0:
        return math.sqrt(math.fsum((s.values * s.values).tolist()))
    return lp_norm(s, p) if p == math.inf else generator_norm(s.values, p)


def rounding_bound(la: int, a_l1: float, lb: int, b_l1: float) -> float:
    return math.nextafter(_gamma(min(la, lb) + 1) * a_l1 * b_l1 + la * lb * math.ulp(0.0), math.inf)


def certificate(f: LatticeSequence, seq: LatticeSequence, tail_mass: float) -> float:
    """tail_mass ||f||_1 + the convolution's rounding bound, from upper bounds on both norms; checked against
    the same form from exact sums of both."""
    n = len(f.values)
    f_l1 = math.nextafter(float(np.sum(np.abs(f.values))) * (1.0 + 2 * n * 2.0**-53 / (1.0 - 2 * n * 2.0**-53)), math.inf)
    bound = tail_mass * f_l1 + rounding_bound(len(seq.values), 1.0 + 2.0**-51, n, f_l1)
    exact = tail_mass * l1(f) + rounding_bound(len(seq.values), l1(seq), n, l1(f))
    assert exact <= bound <= exact * (1.0 + 1e-9)
    return bound


def reference_evolve(f: LatticeSequence, t: float, eps: float) -> tuple[int, bytes, float]:
    if t == 0.0:
        return f.offset, f.values.tobytes(), 0.0
    kernel = heat_kernel(t, eps)
    seq = kernel.to_sequence()
    u = np.convolve(seq.values, f.values)
    return seq.offset + f.offset, u.tobytes(), certificate(f, seq, kernel.tail_mass)


def reference_profile_points(f: LatticeSequence, p: float, t_grid, eps: float):
    weight = lambda t: t ** (0.5 * (1.0 - (0.0 if p == math.inf else 1.0 / p)))
    m = f.mass()
    points = []
    for t in sorted(t_grid):
        kernel = heat_kernel(t, eps)
        seq = kernel.to_sequence()
        u = LatticeSequence(seq.offset + f.offset, np.convolve(seq.values, f.values))
        u_err = certificate(f, seq, kernel.tail_mass)
        diff = add_sequences(u, seq, 1.0, -m)
        points.append((t, weight(t) * norm(diff, p), weight(t) * (u_err + kernel.tail_mass * abs(m))))
    return points


def seeded_data(rng: random.Random, kind: int) -> LatticeSequence:
    """Dense nonnegative, signed over ten decades either side of 1, or subnormal data."""
    n = rng.randint(1, 300)
    if kind == 0:
        values = [rng.uniform(0.0, 1.0) for _ in range(n)]
    elif kind == 1:
        values = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0) for _ in range(n)]
    else:
        values = [rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 1.0) * 2.0**-1060 for _ in range(n)]
    return LatticeSequence(rng.randint(-40, 40), np.array(values))


def test_evolve_keeps_its_bits():
    rng = random.Random(20261)
    for i in range(90):
        t = 0.0 if i % 15 == 0 else 10.0 ** rng.uniform(-3.0, 4.0)
        eps = 10.0 ** rng.uniform(-16.0, -3.0)
        f = seeded_data(rng, i % 3)
        snap = evolve(f, t, eps)
        offset, values, trunc_error = reference_evolve(f, t, eps)
        assert (snap.u.offset, snap.u.values.tobytes(), snap.trunc_error.hex()) == (offset, values, trunc_error.hex())
        assert snap.quad_error == 0.0


def test_sequence_moment_keeps_its_bits():
    rng = random.Random(1415)
    for i in range(60):
        f = seeded_data(rng, i % 3)
        for order in range(7):
            listed = math.fsum(float(n) ** order * v for n, v in zip(f.indices(), f.values.tolist()))
            assert f.moment(order).hex() == listed.hex(), (i, order)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("eps", [1e-12, 1e-6])
def test_homogeneous_profile_keeps_its_bits(p, eps):
    grid = dyadic_grid(16.0, 1024.0)
    # The first profile drops its last point at p = inf and eps 1e-6.
    for f in (LatticeSequence.from_pairs({-2: 0.5, 0: 1.0, 3: -0.25}), LatticeSequence(-5, np.linspace(0.1, 1.0, 11))):
        report = large_time_profile(f, None, p, grid, eps)
        expected = _gate(reference_profile_points(f, p, grid, eps), report.label)
        assert [(t.hex(), v.hex()) for t, v in report.pairs] == [(t.hex(), v.hex()) for t, v in expected.pairs]
        assert report.dropped == expected.dropped


@pytest.mark.parametrize("eps", [1e-12, 1e-6])
def test_l2_optimality_keeps_its_bits(eps):
    # The report's only same-bits gate: no CLI subcommand reaches it.  The reference takes every point from
    # ``evolve`` and each ratio from its own loop.  The third profile, of mass 0.001 and no first moment, drops
    # its last two points at eps 1e-6.
    grid = dyadic_grid(16.0, 1024.0)
    profiles = [LatticeSequence.from_pairs({-2: 0.5, 0: 1.0, 3: -0.25}), LatticeSequence(-5, np.linspace(0.1, 1.0, 11))]
    profiles.append(LatticeSequence.from_pairs({-1: -0.5, 0: 1.001, 1: -0.5}))
    for f in profiles:
        report = l2_optimality(f, grid, eps)
        mass, f_l1 = f.mass(), lp_norm(f, 1.0)
        points, lower, upper = [], [], []
        for t in grid:
            snap = evolve(f, t, eps)
            value = lp_norm(snap.u, 2.0)
            points.append((t, value, snap.trunc_error))
            lower.append(value * t**0.25 / abs(mass))
            upper.append(value * t**0.25 / f_l1)
        expected = _gate(points, report.label)
        assert [(t.hex(), v.hex()) for t, v in report.pairs] == [(t.hex(), v.hex()) for t, v in expected.pairs]
        assert [(t.hex(), v.hex()) for t, v in report.dropped] == [(t.hex(), v.hex()) for t, v in expected.dropped]
        assert [r.hex() for r in report.extras["ratio_lower"]] == [r.hex() for r in lower]
        assert [r.hex() for r in report.extras["ratio_upper"]] == [r.hex() for r in upper]
    assert len(report.dropped) == (2 if eps == 1e-6 else 0)


def general_p_data():
    """Seeded kernel rows, their differences and signed arrays scaled by 1e-100, 1 and 1e100, with lengths
    of 319 and 320 around exact_sum's cutoff, and 1,023, 1,024 and 5,000 around its earlier one, among them."""
    rng = np.random.default_rng(20266)
    for t in (1e-2, 1.0, 1e2, 1e4):
        seq = heat_kernel(t, 1e-12).to_sequence()
        yield seq.values
        yield forward_difference(seq).values
    row = heat_kernel(1e5, 1e-12).to_sequence().values  # 6,465 points
    for size in (1023, 1024, 5000, 319, 320):
        start = int(rng.integers(0, len(row) - size))
        yield row[start : start + size]
        yield np.diff(row[start : start + size + 1])
        for scale in (1e-100, 1.0, 1e100):
            yield rng.choice([-1.0, 1.0], size) * rng.uniform(0.0, 1.0, size) * scale


def scaled_norm(values: np.ndarray, p: float) -> float:
    """``generator_norm`` of values / max|v|, times max|v|."""
    top = max(abs(v) for v in values.tolist())
    return top * math.fsum((abs(v) / top) ** p for v in values.tolist()) ** (1 / p)


def norm_outcome(find, values, p):
    """The norm's hex string, or OverflowError where a power or the sum overflows."""
    try:
        return find(values, p).hex()
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("p", [1.5, 3.0, 7.25])
def test_general_p_norm_keeps_its_bits(p):
    outcomes, rescaled = [], 0
    for values in general_p_data():
        want = norm_outcome(generator_norm, values, p)
        if want is not OverflowError and math.fsum(abs(v) ** p for v in values.tolist()) < 2.0**-1022:
            want, rescaled = norm_outcome(scaled_norm, values, p), rescaled + 1  # powers that sum below 2^-1022
        assert norm_outcome(lambda x, q: lp_norm(LatticeSequence(0, x), q), values, p) == want, (p, len(values))
        outcomes.append(want)
    assert (OverflowError in outcomes) == (p == 7.25)  # (1e100)^7.25 overflows
    assert (rescaled > 0) == (p == 7.25)  # and (1e-100)^7.25 underflows


@pytest.mark.parametrize("p", [1.5, 3.0, 7.25])
def test_general_p_norm_raises_where_a_power_overflows(p):
    with pytest.raises(OverflowError):
        lp_norm(LatticeSequence(0, np.array([1.0, 1e300, 1.0])), p)


# The kernel layer's small-row paths, against the forms they had before their fixed costs were cut: the sup norm
# through ``np.max``, the differences through concatenation and slice assignment, the moment weights as direct libm
# powers with the doubling assigned back, the tail bound through ``KernelSlice.value``, the moment floor through its
# two closures and the window search as it stood.  Outcomes are compared as bytes or ``.hex()``, or as the exception
# type and message.


def reference_lp_norm(s: LatticeSequence, p: float) -> float:
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    if p == math.inf:
        return float(np.max(np.abs(s.values))) if len(s.values) else 0.0
    try:
        if p == 1.0:
            return math.fsum(np.abs(s.values).tolist())
        with np.errstate(over="raise"):
            total = math.fsum((s.values * s.values if p == 2.0 else libm_pow(np.abs(s.values), p)).tolist())
    except (OverflowError, FloatingPointError):
        if not np.isfinite(s.values).all():
            return float(np.max(np.abs(s.values)))
        raise OverflowError(f"the l{p:g} norm of a sequence on {len(s.values)} sites exceeds binary64 range") from None
    if total < 2.0**-1022 and (top := float(np.max(np.abs(s.values), initial=0.0))) > 0.0:
        return top * reference_lp_norm(LatticeSequence(s.offset, s.values / top), p)
    return math.sqrt(total) if p == 2.0 else total ** (1.0 / p)


def reference_forward_difference(s: LatticeSequence) -> LatticeSequence:
    return LatticeSequence(s.offset - 1, np.concatenate([s.values, [0.0]]) - np.concatenate([[0.0], s.values]))


def reference_discrete_laplacian(s: LatticeSequence) -> LatticeSequence:
    out = np.zeros(len(s.values) + 2)
    out[:-2] += s.values
    out[1:-1] -= 2.0 * s.values
    out[2:] += s.values
    return LatticeSequence(s.offset - 1, out)


def reference_power_weighted(values: np.ndarray, first: int, order) -> np.ndarray:
    end = first + len(values)
    try:
        return libm_pow(np.arange(float(first), end), float(order)) * values
    except OverflowError:
        raise OverflowError(f"n^{order} exceeds binary64 range on window {end - 1}") from None


def reference_kernel_moment(row: KernelSlice, order) -> float:
    check_order(order)
    if order % 2:
        return 0.0
    terms = reference_power_weighted(row.values, 0, order)
    terms[1:] *= 2.0
    return math.fsum(terms.tolist())


def reference_weighted_tail_bound(row: KernelSlice, order) -> float:
    check_order(order)
    n = row.window
    if n < 2:
        return math.inf
    v_prev, v_edge = row.value(n - 1), row.value(n)
    if v_edge == 0.0:
        return 0.0
    edge = float(reference_power_weighted(2.0 * row.values[n:], n, order)[0])
    grow = v_edge / v_prev * (1.0 + 1.0 / n) ** order
    return math.inf if grow >= 1.0 else edge * grow / (1.0 - grow)


def reference_predicted_floor(t: float, order, tol: float):
    tau = 2.0 * t
    if not 0.0 <= tau < math.inf:
        return None
    tau, log_target = float(tau), math.log(tol) - math.log(2.0)

    def logs(n):
        s = n / (3.0 * tau + n)
        x = order / n - 1.5 * s * (2.0 - s)
        big_l = math.log(2.0) + order * math.log(n) - math.log(-math.expm1(x)) - log_target if x < 0.0 else math.inf
        return big_l, 1.5 * n * s

    def meets(window):
        big_l, g = logs(window + 1)
        return big_l <= g

    n = order + 2.0 * math.sqrt(order) * math.sqrt(tau) + 1.0
    for _ in range(4):
        big_l = logs(n)[0]
        if not 0.0 < big_l < math.inf:
            break
        n = big_l / 3.0 + math.sqrt(big_l * big_l / 9.0 + 2.0 * tau * big_l)
    weight_limit = math.exp(709.0 / order) if order else math.inf
    lo, hi = 2, max(2, int(min(bessel.MAX_RECURRENCE_STEPS, weight_limit)))
    guess = math.ceil(min(n, hi)) - 1
    probes = iter((guess, guess - 1, guess + 1))
    while lo < hi:
        mid = next((p for p in probes if lo <= p < hi), (lo + hi) // 2)
        lo, hi = (lo, mid) if meets(mid) else (mid + 1, hi)
    return lo


def reference_window(tau: float, eps: float, floor: int):
    """(window, tail_mass): the first window up from max(1, floor) that Amos's ratio bound certifies on the
    recurrence row, found by a scan, so the library's bisection is checked by a search that shares none of it."""
    last, m = bessel._start_index(tau, eps, floor)
    b = bessel._recurrence_row(tau, m)
    if b is None:  # the series rows of the smallest tau, zero from the first value that underflows
        b = np.zeros(m + 1)
        for n in range(m + 1):
            b[n] = bessel.scaled_bessel_series(tau, n)
            if b[n] == 0.0:
                break
    target, cap = bessel._budget(eps)
    delta = bessel._SEED_SHARE * target
    for n in range(max(1, floor), last + 1):
        estimate = 4.0 * (float(b[n]) + 2.0**-1074) * tau / (n + n * n / (math.hypot(n, tau) + tau))
        denominator = 1.0 - 2.0 * (estimate + delta)
        core = (estimate + 3.0 * delta) / denominator if denominator > 0.0 else math.inf
        bound = math.nextafter(core + bessel._NORM_ROUNDING, math.inf)
        if core <= target and bound <= cap:
            return n, bound
    raise ArithmeticError(f"no window up to {last} certifies")


def outcome(fn):
    """A float's ``.hex()``, a sequence's offset and bytes, or the exception's type and message."""
    try:
        result = fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(result, LatticeSequence):
        return result.offset, result.values.tobytes()
    return result if result is None or isinstance(result, int) else result.hex()


def edge_data():
    """Seeded signed data around 1, at 1e-160 (squares below 2^-1022) and 1e155 (squares past binary64), subnormal
    and signed-zero data, and short arrays holding NaN, infinities, -0.0 and overflowing squares."""
    rng = np.random.default_rng(3939)
    for n in (1, 2, 7, 121, 319, 320, 700):
        yield rng.uniform(-1.0, 1.0, n)
        yield rng.uniform(0.0, 1.0, n) * 1e-160
        yield rng.uniform(-1.0, 1.0, n) * 1e155
        yield rng.uniform(-1.0, 1.0, n) * 2.0**-1070
        yield rng.choice([-0.0, 0.0, 1.0, -1.0, 5e-324], n)
    for values in ([math.nan], [1.0, math.nan, -2.0], [math.inf], [-math.inf, 1.0], [math.inf, -math.inf],
                   [1e308, 1e308, math.inf], [1e300, 2e300, 1e300], [1.3e156, -1.2999999999999902e156],
                   [-0.0], [0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0, -0.0], [5e-324], [math.nan, math.inf]):
        yield np.array(values)


def test_norms_and_differences_keep_their_bits():
    cases = 0
    for values in edge_data():
        s = LatticeSequence(-2, values)
        for p in (1.0, 2.0, math.inf, 3.0):
            assert outcome(lambda: lp_norm(s, p)) == outcome(lambda: reference_lp_norm(s, p)), (p, values[:4])
        with np.errstate(over="ignore", invalid="ignore"):  # 2 f(n) past binary64, inf - inf
            assert outcome(lambda: forward_difference(s)) == outcome(lambda: reference_forward_difference(s))
            assert outcome(lambda: discrete_laplacian(s)) == outcome(lambda: reference_discrete_laplacian(s))
        cases += 1
    empty = LatticeSequence(0, np.array([]))
    assert [lp_norm(empty, p) for p in (1.0, 2.0, math.inf)] == [0.0, 0.0, 0.0]
    assert cases == 49


def moment_rows():
    """Seeded kernel rows from t = 1e-3 to 1e5 at eps 1e-12 and 1e-16, floored at 0, 3 and 40, and rows at
    tau = 1e-300 and tau = 0."""
    rng = np.random.default_rng(3940)
    for t in [5e-301, 0.0, *np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 12)).tolist()]:
        for eps, floor in ((1e-12, 0), (1e-16, 3), (1e-12, 40)):
            yield heat_kernel(t, eps, floor)


ORDERS = (0, 1, 2, 11, 12, 24, 68, 200, 2.0, 3.0, np.int64(12), -1, 1.5, math.nan, math.inf, 10**400)


def test_kernel_moments_and_tail_bounds_keep_their_bits():
    overflows = 0
    for row in moment_rows():
        for order in ORDERS:
            got = outcome(lambda: kernel_moment(row, order))
            assert got == outcome(lambda: reference_kernel_moment(row, order)), (row.window, order)
            got = outcome(lambda: weighted_tail_bound(row, order))
            assert got == outcome(lambda: reference_weighted_tail_bound(row, order)), (row.window, order)
            overflows += got[0] is OverflowError
    assert overflows > 0  # n^200 past binary64 on the wider windows


def test_predicted_floors_and_windows_keep_their_values():
    rng = np.random.default_rng(3941)
    for t in [5e-301, 0.0, -1.0, math.inf, math.nan, *np.exp(rng.uniform(math.log(1e-3), math.log(1e5), 20)).tolist()]:
        for order in (0, 2, 12, 24, 68):
            for tol in (1e-12, 1e-10 * max(1.0, (2.0 * t) ** 6) if t == t else 1.0, 1e300):
                assert moments._predicted_floor(t, order, tol) == reference_predicted_floor(t, order, tol), (t, order, tol)
    for tau in [1e-300, 1e-60, *np.exp(rng.uniform(math.log(1e-3), math.log(2e5), 30)).tolist()]:
        for eps, floor in ((1e-3, 0), (1e-12, 0), (1e-16, 0), (1e-300, 0), (1e-12, 50)):
            row = bessel.scaled_bessel_row(tau, eps, floor)
            window, tail_mass = reference_window(tau, eps, floor)
            assert (row.window, row.tail_mass.hex()) == (window, tail_mass.hex()), (tau, eps, floor)
