"""``evolve``, the homogeneous ``large_time_profile`` and ``LatticeSequence.moment`` match, bit for bit, references
that form G(t)·f and the moment sums apart.

Each reference sums ||f||_1 for itself, takes the rounding bound from the two sequences, and sums every l1
norm over a ``tolist()`` list, so the library's one ``_evolve`` core, its norm-based ``rounding_bound`` and
its ``memoryview`` norms are all checked against forms that share none of them.
"""

import math
import random

import numpy as np
import pytest

from latticeheat.analysis import _gate, dyadic_grid, large_time_profile
from latticeheat.kernel import LatticeSequence, add_sequences, heat_kernel, lp_norm
from latticeheat.solver import _gamma, evolve


def l1(s: LatticeSequence) -> float:
    return math.fsum(np.abs(s.values).tolist())


def norm(s: LatticeSequence, p: float) -> float:
    """``lp_norm`` as summed over a list at p = 1 and 2."""
    if p == 1.0:
        return l1(s)
    if p == 2.0:
        return math.sqrt(math.fsum((s.values * s.values).tolist()))
    return lp_norm(s, p)


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
