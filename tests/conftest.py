"""Fixtures shared by the test modules."""

import pytest

from latticeheat.kernel import csv_lines


@pytest.fixture
def write_sequence_csv():
    """Write a ``LatticeSequence`` to a path as a sequence CSV, header ``n,value``."""

    def write(path, s):
        path.write_text("".join(csv_lines(["n", "value"], zip(s.indices(), s.values.tolist()))))

    return write
