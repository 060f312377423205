"""Tests for convolution, evolution, the Duhamel integral, and conservation."""

import gc
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import solver as solver_module
from latticeheat.analysis import l2_optimality, large_time_profile
from latticeheat.kernel import LatticeSequence, add_sequences, discrete_laplacian, heat_kernel, lp_norm
from latticeheat.solver import (
    _C8,
    _NODES,
    _WEIGHTS,
    ForcingSpec,
    QuadratureBudgetError,
    convolve,
    duhamel,
    evolve,
    rounding_bound,
    solve,
)


def random_sequence(rng: random.Random, support: int, nonnegative: bool = False) -> LatticeSequence:
    pairs = {}
    for _ in range(support):
        n = rng.randint(-10, 10)
        v = rng.uniform(0.0, 1.0) if nonnegative else rng.uniform(-1.0, 1.0)
        pairs[n] = pairs.get(n, 0.0) + v
    return LatticeSequence.from_pairs(pairs)


class TestConvolve:
    def test_delta_is_identity(self):
        f = LatticeSequence.from_pairs({-1: 2.0, 0: -1.0, 4: 0.5})
        out = convolve(LatticeSequence.delta(0), f)
        for n in range(-3, 7):
            assert out.value(n) == f.value(n)

    def test_index_addition(self):
        out = convolve(LatticeSequence.delta(1), LatticeSequence.delta(2))
        assert out.value(3) == 1.0
        assert lp_norm(out, 1.0) == 1.0

    def test_kernel_semigroup(self):
        k1 = heat_kernel(1.0, 1e-13)
        k2 = heat_kernel(2.0, 1e-13)
        k3 = heat_kernel(3.0, 1e-13)
        conv = convolve(k1.to_sequence(), k2.to_sequence())
        diff = add_sequences(conv, k3.to_sequence(), 1.0, -1.0)
        assert lp_norm(diff, 1.0) <= 10.0 * (k1.tail_mass + k2.tail_mass + k3.tail_mass)


def signed_data(rng: random.Random) -> LatticeSequence:
    """1 to 300 values of random sign with magnitudes log-uniform in [1e-5, 1e5]."""
    values = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, 300))]
    return LatticeSequence(rng.randint(-20, 20), np.array(values))


def integer_numerators(values: list[float]) -> tuple[list[int], int]:
    """Integers n_i and one power of two d with values[i] == n_i / d exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    return [p * (d // q) for p, q in ratios], d


def exact_convolution(a: LatticeSequence, b: LatticeSequence) -> tuple[list[int], int]:
    """a * b exactly, as integer numerators over one power-of-two denominator.

    Binary64 values share a power-of-two denominator, so the numerators are
    convolved as Python integers (object arrays), which never round.
    """
    (ia, da), (ib, db) = (integer_numerators(s.values.tolist()) for s in (a, b))
    return [int(n) for n in np.convolve(np.array(ia, dtype=object), np.array(ib, dtype=object))], da * db


def l1_distance(s: LatticeSequence, exact: tuple[list[int], int]) -> Fraction:
    """Exact ||s - exact||_1; every denominator is a power of two, so the largest is common."""
    numerators, den = exact
    assert len(s.values) == len(numerators)
    got, d = integer_numerators(s.values.tolist())
    common = max(d, den)
    total = sum(abs(g * (common // d) - n * (common // den)) for g, n in zip(got, numerators))
    return Fraction(total, common)


class TestRoundingBound:
    def test_bounds_exact_error(self):
        rng = random.Random(20241)
        kernel_row = lambda: heat_kernel(10.0 ** rng.uniform(-1.0, 3.0), 1e-12).to_sequence()
        for i in range(40):
            # Signed data and kernel rows, each paired with both kinds.
            a = signed_data(rng) if i % 4 < 2 else kernel_row()
            b = signed_data(rng) if i % 2 == 0 else kernel_row()
            out = convolve(a, b)
            assert out.offset == a.offset + b.offset
            bound = rounding_bound(len(a.values), lp_norm(a, 1.0), len(b.values), lp_norm(b, 1.0))
            assert l1_distance(out, exact_convolution(a, b)) <= Fraction(bound)

    def test_evolve_certificate_covers_rounding(self):
        rng = random.Random(20242)
        for t, eps in ((0.3, 1e-16), (40.0, 1e-16), (900.0, 1e-12)):
            f = signed_data(rng)
            snap = evolve(f, t, eps)
            exact = exact_convolution(heat_kernel(t, eps).to_sequence(), f)
            assert l1_distance(snap.u, exact) <= Fraction(snap.trunc_error)


class TestDataL1Bound:
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 1000, 1024, 5000, 100_000])
    def test_bounds_the_exact_sum(self, size, exact_l1):
        # Signed values log-uniform over 600 decades, uniform in [0, 1), subnormal, and summing near the top of binary64.
        rng = np.random.default_rng(size)
        signs = rng.choice([-1.0, 1.0], size)
        cases = [signs * 10.0 ** rng.uniform(-300.0, 300.0, size), rng.uniform(0.0, 1.0, size)]
        cases += [signs * np.ldexp(rng.uniform(0.0, 1.0, size), -1060), signs * np.ldexp(rng.integers(0, 4, size), -1074)]
        cases += [rng.uniform(0.5, 1.0, size) * (1.7e308 / size)]
        for values in cases:
            bound, exact = solver_module._l1_bound(LatticeSequence(0, values)), exact_l1(values)
            assert math.isfinite(bound)
            assert exact <= Fraction(bound) <= exact * (1 + Fraction(1, 10**9)) + Fraction(2, 2**1074)

    def test_a_bound_past_binary64_is_lp_norms(self):
        top = np.finfo(float).max
        # The NumPy sum is finite, its bound is not: lp_norm's value, here exact.
        assert solver_module._l1_bound(LatticeSequence(0, np.array([top / 2, -top / 2]))) == top
        with pytest.raises(OverflowError, match="the l1 norm of a sequence on 3 sites exceeds binary64 range"):
            solver_module._l1_bound(LatticeSequence(0, np.full(3, 1e308)))
        with pytest.raises(ValueError, match="^the data on 3 sites hold a NaN or an infinity$"):
            solver_module._l1_bound(LatticeSequence(0, np.array([1.0, math.nan, math.inf])))
        with pytest.raises(ValueError, match="^the data on 2 sites hold a NaN or an infinity$"):
            solver_module._l1_bound(LatticeSequence(0, np.array([1.0, -math.inf])))

    def test_a_rounded_down_fallback_is_rounded_up(self, exact_l1):
        # lp_norm rounds top + 2^969 down to top: the bound's next float is inf, so the norm is refused, not
        # certified 2^969 short.  A fallback that is not exact is rounded up one ulp.
        top = np.finfo(float).max
        f = LatticeSequence(0, np.array([top, 2.0**969]))
        for call in (lambda: solver_module._l1_bound(f), lambda: evolve(f, 1.0)):
            with pytest.raises(OverflowError, match="^the l1 norm of a sequence on 2 sites exceeds binary64 range$"):
                call()
        values = np.array([math.nextafter(top, 0.0), -(2.0**969)])  # the NumPy bound passes binary64, the norm does not
        assert solver_module._l1_bound(LatticeSequence(0, values)) == top
        assert Fraction(float(values[0])) < exact_l1(values) < Fraction(top)


class TestEvolve:
    def test_sums_each_l1_norm_once(self, monkeypatch):
        # ||f||_1 is bounded from one NumPy sum and ||G(t)||_1 by the row's normalisation, so finite data take no
        # compensated sum; data whose bound passes binary64 take lp_norm's, once, and keep its error.
        calls = []
        monkeypatch.setattr(solver_module, "lp_norm", lambda s, p: calls.append(p) or lp_norm(s, p))
        evolve(LatticeSequence.from_pairs({-1: 0.5, 0: 1.0, 4: -2.0}), 3.0)
        assert calls == []
        with pytest.raises(OverflowError, match="the l1 norm of a sequence on 3 sites exceeds binary64 range"):
            evolve(LatticeSequence(0, np.full(3, 1e308)), 1.0)
        assert calls == [1.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_data_with_a_nan_or_an_infinity_get_no_certificate(self, bad):
        # Every caller of _evolve raises ValueError, and so do evolve and solve at t = 0, where u would be f itself.
        # The reports refuse infinite data first, since an infinite mass fails their nonzero-mass check; NaN data
        # reach the refusal in _l1_bound.
        f, grid, refused = LatticeSequence(-1, np.array([0.5, bad, 1.0])), [16.0, 32.0], "^the data on 3 sites hold a NaN"
        forcing = ForcingSpec(LatticeSequence.delta(), 2.0, 1.0)
        calls = [(lambda t=t: evolve(f, t), refused) for t in (0.0, 1.0)]
        calls += [(lambda t=t, g=g: solve(f, g, t), refused) for t in (0.0, 1.0) for g in (None, forcing)]
        calls += [
            (lambda: l2_optimality(f, grid), None),
            (lambda: large_time_profile(f, None, 2.0, grid), None),
        ]
        for call, match in calls:
            with pytest.raises(ValueError, match=match):
                call()

    def test_time_zero_is_identity(self):
        f = LatticeSequence.from_pairs({0: 1.0, 3: -2.0})
        snap = evolve(f, 0.0)
        assert snap.u is f
        assert snap.trunc_error == 0.0

    def test_delta_reproduces_kernel(self):
        snap = evolve(LatticeSequence.delta(0), 1.0)
        k = heat_kernel(1.0, 1e-12)
        for n in range(-k.window, k.window + 1):
            assert snap.u.value(n) == k.value(n)

    def test_mass_conservation(self):
        f = LatticeSequence.from_pairs({0: 1.0, 1: 1.0})
        snap = evolve(f, 1.0)
        assert snap.u.mass() == pytest.approx(2.0, abs=2.0 * snap.trunc_error + 1e-15)

    def test_conserved_quantities_for_delta(self):
        u = evolve(LatticeSequence.delta(0), 1.0).u
        mass, first, second = u.mass(), u.moment(1), u.moment(2)
        assert mass == pytest.approx(1.0, abs=1e-11)
        assert first == pytest.approx(0.0, abs=1e-11)
        assert second == pytest.approx(2.0, abs=1e-9)

    def test_conserved_quantities_for_shifted_delta(self):
        u = evolve(LatticeSequence.delta(2), 3.0).u
        mass, first, second = u.mass(), u.moment(1), u.moment(2)
        assert mass == pytest.approx(1.0, abs=1e-11)
        assert first == pytest.approx(2.0, abs=1e-10)
        assert second == pytest.approx(10.0, abs=1e-8)

    def test_mass_and_first_moment_of_difference_data(self):
        f = LatticeSequence.from_pairs({0: 1.0, 1: -1.0})
        u = evolve(f, 1.0).u
        mass, first = u.mass(), u.moment(1)
        assert mass == pytest.approx(0.0, abs=1e-11)
        assert first == pytest.approx(-1.0, abs=1e-10)


class TestDuhamel:
    def test_mass_matches_closed_form(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        for t in (1.0, 10.0):
            snap = duhamel(g, t, eps=1e-10)
            expected = t / (1.0 + t)
            budget = snap.quad_error + snap.trunc_error + 1e-13
            assert abs(snap.u.mass() - expected) <= budget

    def test_zero_amplitude_gives_zero(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=0.0)
        snap = duhamel(g, 5.0)
        assert lp_norm(snap.u, 1.0) == 0.0

    def test_mass_tends_to_mg(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        snap = duhamel(g, 400.0, eps=1e-8)
        assert snap.u.mass() == pytest.approx(1.0, abs=0.01)

    def test_none_forcing_is_zero(self):
        snap = duhamel(None, 2.0)
        assert lp_norm(snap.u, 1.0) == 0.0
        assert snap.quad_error == 0.0

    def test_rejects_nonpositive_time(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        with pytest.raises(ValueError):
            duhamel(g, 0.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            ForcingSpec.separable(LatticeSequence.delta(0), gamma=0.0, amplitude=1.0)
        for gamma, amplitude in ((0.0, 1.0), (math.inf, 1.0), (2.0, math.nan)):
            with pytest.raises(ValueError):
                ForcingSpec(LatticeSequence.delta(0), gamma, amplitude)

    def test_budget_exhaustion_signals(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        with pytest.raises(QuadratureBudgetError):
            duhamel(g, 100.0, eps=1e-15)

    def test_budget_is_checked_before_any_node_row(self, monkeypatch):
        times = []

        def counting(t, eps, min_half_width=None):
            times.append(t)
            return heat_kernel(t, eps, min_half_width)

        monkeypatch.setattr(solver_module, "heat_kernel", counting)
        delta = LatticeSequence.delta(0)
        with pytest.raises(QuadratureBudgetError, match="rounding"):
            duhamel(ForcingSpec(delta, 2.0, 1.0), 100.0, eps=1e-15)
        assert times == [100.0]  # the frame row alone
        times.clear()
        with pytest.raises(QuadratureBudgetError, match="40000 nodes"):
            duhamel(ForcingSpec(delta, 2.0, 1e290), 1.0)
        assert times == []

    @pytest.mark.parametrize("r", [0.5, 3.0, 20.0, 100.0])
    def test_laplacian_powers_of_the_kernel_decay(self, r):
        # ||Delta^j G(r)||_1 <= (pi j / (2r))^j widens the mesh's panels away from s = t.  The rows are
        # binary64, so j stops where their rounding, amplified 4^j times, could reach 1% of the bound.
        v, j = heat_kernel(r, 1e-17).to_sequence(), 0
        while 4.0 ** (j + 1) * 1e-14 < (math.pi * (j + 1) / (2.0 * r)) ** (j + 1) and j < 16:
            v, j = discrete_laplacian(v), j + 1
            assert lp_norm(v, 1.0) <= (math.pi * j / (2.0 * r)) ** j
        assert j >= 4

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
    def test_large_t_needs_few_nodes_and_meets_the_budget(self, gamma, monkeypatch):
        # Away from s = t the kernel's decay widens the panels, so t = 2e4 needs under 1,000 nodes, and the
        # symbol's terms are summed over the nodes pairwise, so the rounding terms stay within eps.
        g = ForcingSpec(LatticeSequence.from_pairs({-1: 0.5, 0: 1.0, 1: 0.25, 2: -0.5, 3: 0.125}), gamma, 1.0)
        nodes, _, quad_error, shift = solver_module._mesh(g, 2e4, 0.5e-10)
        assert len(nodes) <= 1000 and quad_error <= 0.5e-10 and shift <= 1e-11

        class Transform(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Transform

        monkeypatch.setattr(np.fft, "irfft", refuse)
        with pytest.raises(Transform):  # every budget check passed before the symbol's transform
            duhamel(g, 2e4, 1e-10)

    @pytest.mark.parametrize("gamma, t", [(0.5, 1000.0), (2.0, 1000.0), (2.0, 1e4), (6.0, 100.0)])
    def test_every_panel_meets_its_share_under_the_stated_bound(self, gamma, t):
        # Recomputes each panel's Leibniz bound M apart from _mesh, with the decay constant
        # ||Delta G(r)||_1 <= pi / (2r): a panel wider than the true M allows breaks C8 h^17 M <= tol h / t.
        eight_phi = [4, 8, 2, -4, 1]  # 8 phi on -1..3, integers so Delta^j phi is exact
        phi = LatticeSequence(-1, np.array(eight_phi) / 8.0)
        tol = 0.5e-10
        _, weights, _, _ = solver_module._mesh(ForcingSpec(phi, gamma, 1.0), t, tol)
        norms, v = [], eight_phi
        for _ in range(17):
            norms.append(sum(abs(x) for x in v) / 8.0)
            v = [a - 2 * b + c for a, b, c in zip([0, 0] + v, [0] + v + [0], v + [0, 0])]
        poch = [math.comb(16, i) * math.prod(gamma + k for k in range(i)) for i in range(17)]
        ends = np.concatenate([[0.0], np.cumsum(weights.reshape(-1, 8).sum(axis=1))])
        decay_panels = 0
        for s0, s1 in zip(ends[:-1].tolist(), ends[1:].tolist()):
            c = 0.5 * (t + s0)  # the decay bound holds on a panel that ends by c
            d = math.pi / (2.0 * (t - c))
            decay = s1 <= c * (1.0 + 1e-12)
            bounds = [min(n, norms[0] * (j * d) ** j) if decay else n for j, n in enumerate(norms)]
            y = 1.0 / (1.0 + s0)
            m = (1.0 + s0) ** -gamma * sum(p * bounds[16 - i] * y**i for i, p in enumerate(poch))
            h = s1 - s0
            assert _C8 * h**17 * m <= tol * h / t * (1.0 + 1e-6)
            decay_panels += decay and s1 < c * (1.0 - 1e-9)
        assert decay_panels >= 1  # some panel's width comes from the decay bound, not from its end

    def test_norm_table_brackets_the_exact_norms(self):
        # Each ||Delta^j phi||_1 exactly, from integer numerators, against the table: never below, and above by
        # at most twice the rounding term _laplacian_norms states.  The shapes of bench/workloads.py's
        # PROFILE_BASES, a point mass, long signed data, and values near the bottom and top of binary64.
        rng = random.Random(20251)
        cases = [[1.0], [1.0, 2.0, 2.0, 1.0], [2.0, -1.0, 3.0, 1.0, -2.0, 1.0], [0.1], [0.3, -0.7, 0.11, 0.9]]
        cases += [[rng.uniform(-1.0, 1.0) for _ in range(2000)], [2.0**-1070, -3 * 2.0**-1070, 2.0**-1074]]
        cases += [[1e200, -3e200, 2.5e200]]
        gamma = lambda k: Fraction(k, 2**53 - k)  # Higham's gamma_k, exactly
        for values in cases:
            table = solver_module._laplacian_norms(np.array(values))
            numerators, d = integer_numerators(values)
            n, rows = len(values), len(values) + 32
            l1 = Fraction(sum(map(abs, numerators)), d)
            for j, bound in enumerate(table):
                exact = Fraction(sum(map(abs, numerators)), d)
                term = 2 * gamma(rows - 1) * exact + gamma(min(n, 2 * j + 1)) * 4**j * l1
                term += Fraction(n * (2 * j + 1), 2**1074)  # underflow, one per nonzero product
                assert exact <= Fraction(bound) <= exact + 2 * term, (values[:3], j)
                padded = [0, 0] + numerators + [0, 0]
                numerators = [a - 2 * b + c for a, b, c in zip(padded, padded[1:], padded[2:])]

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_node_counts_match_the_laplacian_chain(self, gamma, monkeypatch):
        # The 16-step Laplacian chain the table replaced, each norm rounded up with its error carried along
        # (a step of three operations multiplies the error by 4 and adds 4 gamma_3 of the new norm): a looser
        # table would add nodes here.
        def chain(values):
            norms, err, v = [], 0.0, LatticeSequence(0, values)
            for j in range(17):
                v = discrete_laplacian(v) if j else v
                l1 = lp_norm(v, 1.0)
                norms.append(math.nextafter(l1 + err, math.inf))
                err = 4.0 * err + 4.0 * solver_module._gamma(3) * l1
            return norms

        rng = np.random.default_rng(20252)
        gauss = lambda n: np.exp(-0.5 * ((np.arange(n) - n / 2) / (n / 10)) ** 2)
        profiles = [gauss(2000), gauss(60), rng.uniform(-1.0, 1.0, 500), np.array([1.0]), np.array([4, 8, 2, -4, 1]) / 8.0]
        for values in profiles:
            g = ForcingSpec(LatticeSequence(0, values / np.abs(values).sum()), gamma, 1.0)
            for t in (1.0, 10.0, 1e3, 1e4):
                nodes = solver_module._mesh(g, t, 0.5e-10)[0]
                with monkeypatch.context() as m:
                    m.setattr(solver_module, "_laplacian_norms", chain)
                    assert len(nodes) == len(solver_module._mesh(g, t, 0.5e-10)[0]), (len(values), t)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 30.0, 300.0])
    def test_matches_the_node_loop_through_convolve(self, t):
        # The straightforward loop: each node's kernel slice unfolded to a sequence and convolved with
        # phi through the public wrapper, on the same mesh, frame and kernel tolerance as duhamel.  Both
        # approximate the rule's sum on that mesh, so they are within duhamel's certificate of each other.
        g = ForcingSpec(LatticeSequence.from_pairs({-1: 0.5, 0: 1.0, 2: -0.25}), 2.0, 1.0)
        eps = 1e-10
        nodes, weights, _, _ = solver_module._mesh(g, t, 0.5 * eps * (1.0 - 2.0**-30))
        profile = math.expm1((1.0 - g.gamma) * math.log1p(t)) / (1.0 - g.gamma)  # int_0^t (1 + s)^-gamma ds
        g_l1 = abs(g.amplitude) * lp_norm(g.spatial, 1.0) * profile
        kernel_eps = max(1e-16, min(1e-12, 0.5 * eps / max(g_l1, 1e-300)))
        width = heat_kernel(t, kernel_eps).window + 2
        acc, panel = np.zeros((2, len(g.spatial.values) + 2 * width))
        for i, (s, w) in enumerate(zip(nodes.tolist(), weights.tolist())):
            ks = heat_kernel(t - s, kernel_eps)
            j = width - ks.window
            panel[j : len(acc) - j] += (w * g.temporal(s)) * convolve(ks.to_sequence(), g.spatial).values
            if i % 8 == 7:
                acc, panel = acc + panel, np.zeros_like(acc)
        snap = duhamel(g, t, eps)
        assert snap.u.offset == g.spatial.offset - width and len(snap.u.values) == len(acc)
        distance = lp_norm(add_sequences(snap.u, LatticeSequence(snap.u.offset, acc), 1.0, -1.0), 1.0)
        print(f"node loop t={t:g}: distance / certificate = {distance / (snap.quad_error + snap.trunc_error):.3g}")
        assert distance <= snap.quad_error + snap.trunc_error

    def test_certificate_covers_underflow(self):
        # One problem twice, scaled by exact powers of two, so both have the same exact solution: phi 2^-1070 with
        # amplitude 2^1000 makes every node product subnormal, phi with amplitude 2^-70 keeps them all normal.
        phi = np.array([1.0, 0.5, 0.25])
        tiny = duhamel(ForcingSpec(LatticeSequence(0, phi * 2.0**-1070), 2.0, 2.0**1000), 1.0, 1e-10)
        plain = duhamel(ForcingSpec(LatticeSequence(0, phi), 2.0, 2.0**-70), 1.0, 1e-10)
        gap = lp_norm(add_sequences(tiny.u, plain.u, 1.0, -1.0), 1.0)
        assert gap > 0.0
        assert gap <= tiny.quad_error + tiny.trunc_error + plain.quad_error + plain.trunc_error

    def test_leaves_no_cyclic_garbage(self):
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        gc.collect()
        gc.disable()
        try:
            duhamel(g, 2.0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGaussLegendreRule:
    def test_nodes_match_leggauss(self):
        # numpy's nodes agree to 1 ulp; its weights are up to 58 ulp off, so they are checked against mpmath.
        guesses, _ = np.polynomial.legendre.leggauss(8)
        assert np.all(np.abs(_NODES - guesses) <= np.spacing(np.abs(guesses)))

    def test_literals_are_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        legendre = lambda x: mpmath.legendre(8, x)
        guesses, _ = np.polynomial.legendre.leggauss(8)
        with mpmath.workdps(40):
            for node, weight, guess in zip(_NODES, _WEIGHTS, guesses):
                root = mpmath.findroot(legendre, mpmath.mpf(float(guess)))
                assert node == float(root)
                assert weight == float(2 / ((1 - root**2) * mpmath.diff(legendre, root) ** 2))


class TestSolve:
    def test_reduces_to_evolve_without_forcing(self):
        f = LatticeSequence.from_pairs({0: 1.0, 2: 1.0})
        a = solve(f, None, 3.0, eps=1e-12)
        b = evolve(f, 3.0)
        assert np.array_equal(a.u.values, b.u.values)

    def test_time_zero_with_forcing_is_f(self):
        f = LatticeSequence.from_pairs({0: 1.0, 2: -0.5})
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        snap = solve(f, g, 0.0)
        assert snap.u is f and snap.quad_error == snap.trunc_error == 0.0
        with pytest.raises(ValueError, match="eps must lie in"):
            solve(f, g, 0.0, eps=2.0)  # as at t > 0, where the homogeneous part gets eps / 2

    def test_combined_mass(self):
        f = LatticeSequence.delta(0)
        g = ForcingSpec.separable(LatticeSequence.delta(0), gamma=2.0, amplitude=1.0)
        snap = solve(f, g, 10.0, eps=1e-9)
        expected = 1.0 + 10.0 / 11.0
        assert abs(snap.u.mass() - expected) <= snap.quad_error + snap.trunc_error + 1e-12

    def test_forcing_spec_json_round_trip(self, tmp_path, write_sequence_csv):
        write_sequence_csv(tmp_path / "spatial.csv", LatticeSequence.delta(0))
        spec_path = tmp_path / "g.json"
        spec_path.write_text(
            json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0})
        )
        g = ForcingSpec.from_json(spec_path)
        assert g.gamma == 2.0
        assert g.amplitude == 1.0
        assert g.spatial.value(0) == 1.0

    def test_forcing_spec_json_none(self, tmp_path):
        spec_path = tmp_path / "none.json"
        spec_path.write_text(json.dumps({"kind": "none"}))
        assert ForcingSpec.from_json(spec_path) is None


class TestSemigroupProperties:
    def test_contractivity(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_sequence(rng, 21)
            for t in (0.5, 5.0, 50.0):
                snap = evolve(f, t)
                for p in (1.0, 2.0, math.inf):
                    assert lp_norm(snap.u, p) <= lp_norm(f, p) + snap.trunc_error + 1e-14

    def test_positivity(self):
        rng = random.Random(8)
        for _ in range(10):
            f = random_sequence(rng, 11, nonnegative=True)
            snap = evolve(f, 2.0)
            assert (snap.u.values >= -snap.trunc_error).all()

    def test_composition(self):
        rng = random.Random(9)
        for _ in range(5):
            f = random_sequence(rng, 9)
            one = evolve(f, 1.5)
            two = evolve(one.u, 2.5)
            direct = evolve(f, 4.0)
            diff = add_sequences(two.u, direct.u, 1.0, -1.0)
            budget = 10.0 * (one.trunc_error + two.trunc_error + direct.trunc_error + 1e-14)
            assert lp_norm(diff, 1.0) <= budget

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(-8, 8), st.floats(-2.0, 2.0, allow_nan=False)),
            min_size=1,
            max_size=8,
        ),
        alpha=st.floats(-3.0, 3.0, allow_nan=False),
        beta=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_linearity(self, data, alpha, beta):
        f = LatticeSequence.from_pairs({n: v for n, v in data})
        h = LatticeSequence.from_pairs({n + 1: v / 2.0 for n, v in data})
        combined = evolve(add_sequences(f, h, alpha, beta), 1.0)
        separate = add_sequences(evolve(f, 1.0).u, evolve(h, 1.0).u, alpha, beta)
        diff = add_sequences(combined.u, separate, 1.0, -1.0)
        scale = 1.0 + abs(alpha) + abs(beta)
        assert lp_norm(diff, 1.0) <= 1e-10 * scale
