"""``evolve``, the homogeneous ``large_time_profile``, ``LatticeSequence.moment`` and ``lp_norm`` at general p
match, bit for bit, references that form G(t)·f, the moment sums and the norms apart.

Each reference sums ||f||_1 for itself, takes the rounding bound from the two sequences, and sums every norm
over a ``tolist()`` list, so the library's one ``_evolve`` core, its norm-based ``rounding_bound`` and its
``exact_sum`` norms are all checked against forms that share none of them.
"""

import math
import random

import numpy as np
import pytest

from latticeheat.analysis import _gate, dyadic_grid, large_time_profile
from latticeheat.kernel import LatticeSequence, add_sequences, forward_difference, heat_kernel, lp_norm
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


def two_sequence_rounding_bound(a: LatticeSequence, b: LatticeSequence) -> float:
    la, lb = len(a.values), len(b.values)
    return math.nextafter(_gamma(min(la, lb) + 1) * l1(a) * l1(b) + la * lb * math.ulp(0.0), math.inf)


def reference_evolve(f: LatticeSequence, t: float, eps: float) -> tuple[int, bytes, float]:
    if t == 0.0:
        return f.offset, f.values.tobytes(), 0.0
    kernel = heat_kernel(t, eps)
    seq = kernel.to_sequence()
    u = np.convolve(seq.values, f.values)
    return seq.offset + f.offset, u.tobytes(), kernel.tail_mass * l1(f) + two_sequence_rounding_bound(seq, f)


def reference_profile_points(f: LatticeSequence, p: float, t_grid, eps: float):
    weight = lambda t: t ** (0.5 * (1.0 - (0.0 if p == math.inf else 1.0 / p)))
    m, f_l1 = f.mass(), l1(f)
    points = []
    for t in sorted(t_grid):
        kernel = heat_kernel(t, eps)
        seq = kernel.to_sequence()
        u = LatticeSequence(seq.offset + f.offset, np.convolve(seq.values, f.values))
        u_err = kernel.tail_mass * f_l1 + two_sequence_rounding_bound(seq, f)
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


def general_p_data():
    """Seeded kernel rows, their differences and signed arrays scaled by 1e-100, 1 and 1e100, with lengths
    of 1,023, 1,024 and 5,000 around exact_sum's cutoff among them."""
    rng = np.random.default_rng(20266)
    for t in (1e-2, 1.0, 1e2, 1e4):
        seq = heat_kernel(t, 1e-12).to_sequence()
        yield seq.values
        yield forward_difference(seq).values
    row = heat_kernel(1e5, 1e-12).to_sequence().values  # 6,465 points
    for size in (1023, 1024, 5000):
        start = int(rng.integers(0, len(row) - size))
        yield row[start : start + size]
        yield np.diff(row[start : start + size + 1])
        for scale in (1e-100, 1.0, 1e100):
            yield rng.choice([-1.0, 1.0], size) * rng.uniform(0.0, 1.0, size) * scale


def norm_outcome(find, values, p):
    """The norm's hex string, or OverflowError where a power or the sum overflows."""
    try:
        return find(values, p).hex()
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("p", [1.5, 3.0, 7.25])
def test_general_p_norm_keeps_its_bits(p):
    outcomes = []
    for values in general_p_data():
        want = norm_outcome(generator_norm, values, p)
        assert norm_outcome(lambda x, q: lp_norm(LatticeSequence(0, x), q), values, p) == want, (p, len(values))
        outcomes.append(want)
    assert (OverflowError in outcomes) == (p == 7.25)  # (1e100)^7.25 overflows


@pytest.mark.parametrize("p", [1.5, 3.0, 7.25])
def test_general_p_norm_raises_where_a_power_overflows(p):
    with pytest.raises(OverflowError):
        lp_norm(LatticeSequence(0, np.array([1.0, 1e300, 1.0])), p)
