"""Fixtures shared by the test modules."""

from fractions import Fraction

import numpy as np
import pytest

from latticeheat.kernel import csv_lines


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
