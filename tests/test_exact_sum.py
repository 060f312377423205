"""``bessel.exact_sum`` against ``math.fsum``: the same float, bit for bit, or the same error."""

import math

import numpy as np
import pytest

from latticeheat import bessel, moments
from latticeheat.bessel import _EXACT_SUM_MIN, _SUM_BLOCK, exact_sum
from latticeheat.kernel import heat_kernel, lp_norm

FSUM = math.fsum


def outcome(find, x):
    """The sum's hex string, or the error's type and message."""
    try:
        return find(x).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def same_as_fsum(x):
    """As the library calls it, on a memoryview, and on the bare array."""
    expected = outcome(FSUM, x.tolist())
    return outcome(exact_sum, memoryview(x)) == expected == outcome(exact_sum, x)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls that reach fsum."""
    calls = []

    def counting(values):
        calls.append(1)
        return FSUM(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


SIZES = (_EXACT_SUM_MIN - 1, _EXACT_SUM_MIN, _EXACT_SUM_MIN + 1, _SUM_BLOCK + 1, 100_000)


@pytest.mark.parametrize("n", SIZES)
def test_seeded_arrays_across_300_binades(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        scale = 2.0 ** rng.integers(-300, 301, n).astype(float)
        assert same_as_fsum(rng.random(n) * scale)
        assert same_as_fsum(rng.standard_normal(n) * scale)


@pytest.mark.parametrize("n", SIZES)
def test_subnormals(n):
    rng = np.random.default_rng(n + 1)
    assert same_as_fsum(rng.standard_normal(n) * 2.0**-1060)  # mostly subnormal
    assert same_as_fsum(rng.integers(-3, 4, n) * math.ulp(0.0))  # multiples of the smallest one
    mixed = rng.random(n) * 2.0**-1000
    mixed[::7] = 2.0**-1074
    assert same_as_fsum(mixed)


def test_the_fast_path_starts_at_the_cutoff(fallbacks):
    rng = np.random.default_rng(3)
    for n in SIZES:
        x = rng.random(n)
        fallbacks.clear()
        assert exact_sum(x).hex() == FSUM(x.tolist()).hex()
        assert len(fallbacks) == (n < _EXACT_SUM_MIN), n


@pytest.mark.parametrize("n", SIZES)
def test_zeros_and_signed_zeros(n):
    assert same_as_fsum(np.zeros(n))
    assert same_as_fsum(-np.zeros(n))
    signed = np.zeros(n)
    signed[::2] = -0.0
    assert same_as_fsum(signed)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("bad", [(math.inf,), (-math.inf,), (math.nan,), (math.inf, -math.inf), (math.nan, math.inf)])
def test_infinities_and_nans(n, bad):
    x = np.random.default_rng(5).random(n)
    x[1 : 1 + len(bad)] = bad
    assert same_as_fsum(x)


@pytest.mark.parametrize("n", SIZES)
def test_values_near_the_top_of_the_range(n):
    x = np.zeros(n)
    x[:3] = (1e308, 1e308, -1e308)  # fsum raises OverflowError
    assert same_as_fsum(x)
    x[:3] = (1.7e308, 1.7e308, 0.0)  # the sum itself overflows
    assert same_as_fsum(x)
    # Just inside the extraction's range: the largest value below 2^(999 - bit_length(n)).
    x = np.random.default_rng(7).random(n) * math.ldexp(1.0, 999 - n.bit_length())
    x[0] = math.nextafter(math.ldexp(1.0, 999 - n.bit_length()), 0.0)
    assert same_as_fsum(x)
    assert same_as_fsum(-x)


@pytest.mark.parametrize("extra, rounded", [(0.0, 1.0), (2.0**-80, 1.0 + 2.0**-52), (-(2.0**-80), 1.0)])
def test_near_ties_go_to_fsum(fallbacks, extra, rounded):
    # 1 + 2^-53 is halfway between 1 and its successor: the two bounds round apart and fsum decides.
    x = np.zeros(_SUM_BLOCK + 1)
    x[:3] = (1.0, 2.0**-53, extra)
    assert exact_sum(x) == rounded == FSUM(x.tolist())
    assert len(fallbacks) == 1


def test_strided_views():
    x = np.random.default_rng(9).standard_normal(3 * _SUM_BLOCK)
    for view in (x[::2], x[::-3], x[1::7]):
        assert same_as_fsum(view)


def test_kernel_sums_take_the_fast_path(fallbacks):
    # At t = 300 and 2,500 the unfolded rows hold 357 and 1,023 values; at t = 300 the folded row's sums (the
    # moments and the mass, 179 and 178 values) stay below the cutoff and go to fsum, as every shorter sum does.
    for t in (300.0, 2500.0, 5e4, 1e5):
        row = heat_kernel(t, 1e-12)
        seq = row.to_sequence()
        assert len(seq.values) >= _EXACT_SUM_MIN

        def check(find, reference, length):
            fallbacks.clear()
            assert find() == reference, (t, length)
            assert len(fallbacks) == (length < _EXACT_SUM_MIN), (t, length)  # the references are not counted

        for order in range(0, 13, 2):
            terms = bessel.power_weighted(row.values, 0, order)
            terms[1:] *= 2.0
            check(lambda: moments.kernel_moment(row, order), FSUM(terms.tolist()), len(terms))
        check(lambda: lp_norm(seq, 1.0), FSUM(np.abs(seq.values).tolist()), len(seq.values))
        check(lambda: lp_norm(seq, 2.0), math.sqrt(FSUM((seq.values * seq.values).tolist())), len(seq.values))
        check(row.mass, row.values[0] + 2.0 * FSUM(row.values[1:].tolist()), row.window)
        check(seq.mass, FSUM(seq.values.tolist()), len(seq.values))
        moment = FSUM([float(n) ** 2 * v for n, v in zip(seq.indices(), seq.values.tolist())])
        check(lambda: seq.moment(2), moment, len(seq.values))


def kernel_shaped(length):
    """Arrays of the given length shaped as the library's sums: the centre of an unfolded row, its squares, its first
    difference, signed and absolute, the doubled moment terms at orders 2..12, and an unnormalised
    ``_recurrence_row`` as its normalisation sums it."""
    row = heat_kernel(2500.0, 1e-12)  # window 511, so every array below has at least 512 values
    unfolded = row.to_sequence().values
    centre = unfolded[row.window - length // 2 :][:length]
    yield centre
    yield centre * centre
    step = np.diff(unfolded[: length + 1])  # from the left end, so the sum does not telescope to zero
    yield step
    yield np.abs(step)
    for order in range(2, 13):
        terms = bessel.power_weighted(row.values, 0, order)
        terms[1:] *= 2.0
        yield terms[:length]
    summed = []
    with pytest.MonkeyPatch.context() as patch:  # the recurrence at tau = 300 from index length, summed from index 1
        patch.setattr(bessel, "exact_sum", lambda y: summed.append(y.copy()) or 1.0)
        bessel._recurrence_row(300.0, length)
    yield summed[0]


@pytest.mark.parametrize("length", [_EXACT_SUM_MIN - 1, _EXACT_SUM_MIN, _EXACT_SUM_MIN + 1])
def test_kernel_shaped_sums_at_the_cutoff(fallbacks, length):
    for x in kernel_shaped(length):
        assert len(x) == length
        fallbacks.clear()
        assert exact_sum(x).hex() == FSUM(x.tolist()).hex()
        assert len(fallbacks) == (length < _EXACT_SUM_MIN)


def test_kernel_sums_over_the_parameter_range():
    # |G|, G^2 and the doubled moment terms at orders 0..24 from t = 1e-2 to 1e6.
    for t in np.logspace(-2, 6, 25).tolist():
        row = heat_kernel(t, 1e-16)
        seq = row.to_sequence().values
        assert same_as_fsum(np.abs(seq)) and same_as_fsum(seq * seq)
        for order in range(0, 25, 4):
            terms = bessel.power_weighted(row.values, 0, order)
            terms[1:] *= 2.0
            assert same_as_fsum(terms), (t, order)
