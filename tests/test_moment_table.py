"""``moments.moment_table`` against the per-order table loop, bit for bit.

The reference below takes the one row ``heat_kernel_for_moment`` gives the top
order, then goes through the orders one at a time, checking each order's
weighted tail on that row and summing each moment over a per-term list.
``moment_table`` forms the terms in NumPy, so every cell, and every error with
its message, must be the same.  The weights come from ``bessel.power_weighted``'s
table of libm powers, so the moments must keep those bits whatever the table
already holds.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from latticeheat import bessel, kernel, moments
from latticeheat.bessel import LatticeSequence
from latticeheat.moments import kernel_moment, moment_polynomials, moment_table, poly_eval


def listed_moment(slice, order):
    """``kernel_moment`` with one Python float ** int and one multiply per term, summed over a list."""
    if order % 2:
        return 0.0
    v = slice.values.tolist()
    terms = [2.0 * (float(n) ** order * v[n]) for n in range(1, len(v))]
    return math.fsum([0.0**order * v[0], *terms])


def per_order_rows(t, k_max):
    """The table one order at a time over the top order's row."""
    polys = moment_polynomials(k_max)
    expected = [poly_eval(poly, 2.0 * t) for poly in polys]
    tols = [max(1e-12, 1e-10 * value) for value in expected]
    row = moments.heat_kernel_for_moment(t, 2 * k_max, tols[-1])
    table = []
    for k, (value, tol) in enumerate(zip(expected, tols)):
        if not moments.weighted_tail_bound(row, 2 * k) <= tol:
            raise ArithmeticError(f"could not certify weighted tail <= {tol} at t={t}, order={2 * k}")
        table.append([k, listed_moment(row, 2 * k), value, listed_moment(row, 2 * k + 1)])
    return table


def outcome(call):
    """(the rows with every float as its hex, or None; the error's type and message, or None)."""
    try:
        rows = call()
    except (ValueError, ArithmeticError) as exc:
        return None, (type(exc), str(exc))
    return [[k, *(v.hex() for v in values)] for k, *values in rows], None


_rng = random.Random(13)
# t = 0, overflow limits (54 and 55 at t = 1e3, 34 and 35 at 1e6), refusals before any row, and seeded
# (t, k_max) with t log-uniform in 1e-3..1e5 and k_max up to the polynomials' cap and past it.
CASES = [(0.0, 3), (0.0, 64), (-1.0, 65), (-1.0, 3), (1.0, 65), (1.0, -1), (0.5, 50), (1e3, 53), (1e6, 35)]
CASES += [(10.0 ** _rng.uniform(-3.0, 5.0), _rng.randint(0, 65)) for _ in range(16)]


@pytest.mark.parametrize("t, k_max", CASES)
def test_table_keeps_the_bits_of_the_per_order_loop(t, k_max):
    assert outcome(lambda: moment_table(t, k_max)) == outcome(lambda: per_order_rows(t, k_max))


def test_kernel_moment_keeps_the_bits_of_the_listed_sum():
    rng = random.Random(1414)
    for _ in range(12):
        t = 10.0 ** rng.uniform(-2.0, 6.0)
        for row in (moments.heat_kernel(t, 1e-16), moments.heat_kernel(t, 10.0 ** rng.uniform(-12.0, -3.0))):
            for order in range(25):
                assert kernel_moment(row, order).hex() == listed_moment(row, order).hex(), (t, row.window, order)


def test_builds_each_row_once(monkeypatch):
    calls = []
    row = kernel.scaled_bessel_row

    def counting(*args, **kwargs):
        calls.append(args[0])
        return row(*args, **kwargs)

    monkeypatch.setattr(kernel, "scaled_bessel_row", counting)
    for t, k_max in [(0.5, 50), (0.0, 0), (1e-300, 5), (1e5, 34)]:
        calls.clear()
        moment_table(t, k_max)
        assert calls == [2.0 * t]


def test_a_row_that_certifies_nothing_fails_at_the_top_order(monkeypatch):
    # With no tail ever small enough, the table stops at its one row, floored for the top order; the stub costs nothing.
    floors = []

    def stub(t, eps, min_half_width=None):
        floors.append(min_half_width)
        return SimpleNamespace(window=min_half_width)

    monkeypatch.setattr(moments, "weighted_tail_bound", lambda slice, order: math.inf)
    monkeypatch.setattr(moments, "heat_kernel", stub)
    tol = 1e-10 * poly_eval(moment_polynomials(4)[4], 1.0)
    message = f"could not certify weighted tail <= {tol} at t=0.5, order=8"
    assert outcome(lambda: moment_table(0.5, 4)) == (None, (ArithmeticError, message))
    assert floors == [moments._predicted_floor(0.5, 8, tol)]


def test_every_order_is_certified_on_the_row(monkeypatch):
    # The top order's row certifies, a lower order's tail does not: the table names that order.
    bound = moments.weighted_tail_bound
    monkeypatch.setattr(moments, "weighted_tail_bound", lambda row, order: bound(row, order) if order != 4 else math.inf)
    message = f"could not certify weighted tail <= {1e-10 * poly_eval(moment_polynomials(2)[2], 1.0)} at t=0.5, order=4"
    assert outcome(lambda: moment_table(0.5, 4)) == (None, (ArithmeticError, message))


# ``bessel.power_weighted`` keeps one table of libm powers per order; each test below starts
# from an empty one, since the module's tables outlive a test.
@pytest.fixture
def tables(monkeypatch):
    fresh = {}
    monkeypatch.setattr(bessel, "_power_tables", fresh)
    return fresh


@pytest.mark.parametrize("state", ["cold", "grown", "already-longer"])
def test_kernel_moment_keeps_the_bits_in_every_state_of_the_power_table(tables, state):
    short, long = moments.heat_kernel(10.0, 1e-16), moments.heat_kernel(1e5, 1e-16)
    rows = {"cold": [long], "grown": [short, long], "already-longer": [long, short]}[state]
    for order in range(0, 25, 2):
        tables.clear()
        longest = 0
        for row in rows:
            assert kernel_moment(row, order).hex() == listed_moment(row, order).hex(), (state, row.window, order)
            longest = max(longest, row.window + 1)
            assert len(tables[order]) == longest


@pytest.mark.parametrize("t, stored", [(1e5, True), (1e6, False)])  # windows 6,309 and 20,016
def test_moment_table_keeps_its_bits_cold_and_warm(tables, monkeypatch, t, stored):
    with monkeypatch.context() as m:
        m.setattr(bessel, "_POWER_TABLE_CAP", 0)  # every window past the cap: the direct powers
        direct = outcome(lambda: moment_table(t, 34))
    assert not tables
    cold = outcome(lambda: moment_table(t, 34))
    assert bool(tables) == stored and outcome(lambda: moment_table(t, 34)) == cold == direct


def test_lattice_moment_across_the_origin_keeps_its_bits(tables):
    rng = random.Random(7)
    for offset in (-40, -1, 0, 3):
        seq = LatticeSequence(offset, [rng.uniform(-1.0, 1.0) for _ in range(80)])
        for order in (1, 2):
            listed = math.fsum(float(n) ** order * v for n, v in zip(seq.indices(), seq.values.tolist()))
            assert seq.moment(order).hex() == listed.hex(), (offset, order)
        assert (order in tables) == (offset >= 0)


@pytest.mark.parametrize("first, length, order", [
    (0, bessel._POWER_TABLE_CAP + 1, 2),  # one past the cap
    (bessel._POWER_TABLE_CAP, 1, 4),
    (-3, 10, 2),
    (0, 2, 1024),  # 2.0 ** 1024 overflows, so no table at this order
    (0, 10, 2.0),
])
def test_windows_outside_the_table_keep_their_bits_and_store_nothing(tables, first, length, order):
    values = np.random.default_rng(3).uniform(0.5, 1.0, length)
    listed = [float(n) ** order * v for n, v in zip(range(first, first + length), values.tolist())]
    assert bessel.power_weighted(values, first, order).tolist() == listed
    assert not tables


def test_stored_power_tables_are_read_only(tables):
    bessel.power_weighted(np.ones(bessel._POWER_TABLE_CAP), 0, 6)
    bessel.power_weighted(np.ones(5), 2, 3)
    assert sorted(tables) == [3, 6] and len(tables[6]) == bessel._POWER_TABLE_CAP
    for table in tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0.0
