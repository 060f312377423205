"""Fixtures shared by the test modules."""

from fractions import Fraction

import numpy as np
import pytest

from latticeheat.kernel import LatticeSequence, csv_lines, heat_kernel
from latticeheat.moments import K_MAX, moment_polynomials


@pytest.fixture
def write_sequence_csv():
    """Write a ``LatticeSequence`` to a path as a sequence CSV, header ``n,value``."""

    def write(path, s):
        path.write_text("".join(csv_lines(["n", "value"], zip(s.indices(), s.values.tolist()))))

    return write


@pytest.fixture
def exact_l1():
    """The exact l1 norm of a float array, as a Fraction."""

    def exact(values: np.ndarray) -> Fraction:
        total = 0
        for v in np.abs(values).tolist():  # each float is an integer multiple of 2^-1074
            num, den = v.as_integer_ratio()
            total += num << (1075 - den.bit_length())
        return Fraction(total, 2**1074)

    return exact


@pytest.fixture
def exact_moment():
    """p_k(2t) as a Fraction, the exact even moment sum_n n^{2k} G(t, n) of the kernel.

    2t = a / b with b a power of two, so p_k(2t) = (sum_i c_i a^i b^(k - i)) / b^k, an integer Horner sum.
    """
    polys = moment_polynomials(K_MAX)

    def exact(k: int, t: float) -> Fraction:
        a, b = (2.0 * t).as_integer_ratio()
        acc = 0
        for shift, c in enumerate(reversed(polys[k].coeffs)):
            acc = acc * a + c * b**shift
        return Fraction(acc, b**k)

    return exact


@pytest.fixture
def semigroup_l2():
    """||G(t) * f||_2^2 through the semigroup, with no special-function library, and a bound on its error.

    G(t) * G(t) = G(2t) and G is even, so ||G(t) * f||_2^2 = sum_k R_f(k) G(2t, k), R_f(k) = sum_j f(j) f(j + k)
    the autocorrelation of f; for f = delta it is G(2t, 0) = e^{-4t} I_0(4t).  The sum is formed exactly, as a
    Fraction, over the row at 2t.  That row is within its ``tail_mass`` of G(2t) in l1 and |R_f(k)| <= R_f(0), so
    the result is within R_f(0) tail_mass of the exact norm, which is the bound returned.
    """

    def oracle(f: LatticeSequence, t: float, eps: float) -> tuple[Fraction, float]:
        row = heat_kernel(2.0 * t, eps)
        values = [Fraction(v) for v in f.values.tolist()]
        autocorrelation = [sum(a * b for a, b in zip(values, values[k:])) for k in range(len(values))]
        total = sum(r * Fraction(row.value(k)) * (2 if k else 1) for k, r in enumerate(autocorrelation))
        return total, float(autocorrelation[0]) * row.tail_mass * (1.0 + 2.0**-50)

    return oracle
