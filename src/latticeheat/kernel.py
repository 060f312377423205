"""The lattice heat kernel G(t, n) = exp(-2t) I_n(2t) and operations on sequences.

A kernel slice at t is the scaled Bessel row at tau = 2t, so ``KernelSlice``
and ``LatticeSequence`` are defined in ``bessel`` and re-exported here.
Operations on two sequences align windows by absolute index and read zeros
outside the carried range.
"""

from __future__ import annotations

import csv
import math
import reprlib

import numpy as np

from .bessel import KernelSlice, LatticeSequence, _owned, exact_sum, libm_pow, scaled_bessel_row

__all__ = [
    "KernelSlice",
    "LatticeSequence",
    "heat_kernel",
    "forward_difference",
    "discrete_laplacian",
    "lp_norm",
    "add_sequences",
    "csv_lines",
    "read_sequence_csv",
]


def heat_kernel(t: float, eps: float, min_half_width: int | None = None) -> KernelSlice:
    """The row b_n(2t) as a kernel slice of G(t, .), with certified tail mass at most eps."""
    return scaled_bessel_row(_tau(t), eps, min_half_width=min_half_width)


def _tau(t: float) -> float:
    """2t for a t that ``heat_kernel`` takes."""
    if not (0.0 <= t and math.isfinite(2.0 * t)):
        raise ValueError(f"t must be nonnegative with 2t finite, got {t!r}")
    return 2.0 * t


def forward_difference(s: LatticeSequence) -> LatticeSequence:
    """First forward difference (grad f)(n) = f(n+1) - f(n); grows the window one step left."""
    out = np.zeros(len(s.values) + 1)
    out[:-1] = s.values  # f(n) - 0.0 at the left end is f(n) itself
    right = out[1:]  # a bound view: no slice assignment copies the difference back
    right -= s.values
    return _owned(LatticeSequence, out, offset=s.offset - 1)


def discrete_laplacian(s: LatticeSequence) -> LatticeSequence:
    """Second central difference f(n+1) - 2 f(n) + f(n-1); grows one step each side."""
    out = np.zeros(len(s.values) + 2)
    left, middle, right = out[:-2], out[1:-1], out[2:]  # bound views, as in forward_difference
    left += s.values  # onto +0.0, so -0.0 comes out +0.0
    middle -= 2.0 * s.values
    right += s.values
    return _owned(LatticeSequence, out, offset=s.offset - 1)


def lp_norm(s: LatticeSequence, p: float) -> float:
    """l^p norm over the carried window; p = math.inf selects the sup norm.

    NaN in gives NaN, inf in gives inf, and any other norm past binary64 raises OverflowError.
    Powers that sum below 2^-1022 are summed again for x / max|x| (Blue, ACM TOMS 4, 1978): x != 0 has a norm above 0.0.
    """
    if not p >= 1.0:  # a NaN p is refused too
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    if p == math.inf:  # the ufunc's own reduction, without np.max's wrapper
        return float(np.maximum.reduce(np.abs(s.values))) if len(s.values) else 0.0
    try:
        if p == 1.0:
            return exact_sum(np.abs(s.values))
        with np.errstate(over="raise"):
            total = exact_sum(s.values * s.values if p == 2.0 else libm_pow(np.abs(s.values), p))
    except (OverflowError, FloatingPointError):  # a power, a square, or fsum's running sum, past binary64
        if not np.isfinite(s.values).all():  # NaN if one is NaN, else inf
            return float(np.max(np.abs(s.values)))
        raise OverflowError(f"the l{p:g} norm of a sequence on {len(s.values)} sites exceeds binary64 range") from None
    if total < 2.0**-1022 and (top := float(np.max(np.abs(s.values), initial=0.0))) > 0.0:
        return top * lp_norm(LatticeSequence(s.offset, s.values / top), p)  # rescaled, the largest power is 1.0
    return math.sqrt(total) if p == 2.0 else total ** (1.0 / p)


def add_sequences(a: LatticeSequence, b: LatticeSequence, alpha: float = 1.0, beta: float = 1.0) -> LatticeSequence:
    """alpha * a + beta * b with windows aligned by index and zero-extended."""
    lo = min(a.offset, b.offset)
    hi = max(a.hi, b.hi)
    out = np.zeros(hi - lo + 1)
    out[a.offset - lo : a.offset - lo + len(a.values)] += alpha * a.values
    out[b.offset - lo : b.offset - lo + len(b.values)] += beta * b.values
    return _owned(LatticeSequence, out, offset=lo)


def csv_lines(header: list[str], rows):
    """CSV lines, LF-ended and unquoted (cells are ints, names and floats); ``str`` of a float or float64 is its repr."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def read_sequence_csv(path) -> LatticeSequence:
    """Read a sequence CSV; a malformed row or a non-finite value raises ValueError."""
    pairs = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header] != ["n", "value"]:
            raise ValueError(f"expected header 'n,value' in {path}, got {reprlib.repr(header)}")
        for row in reader:
            if not row:
                continue
            try:
                n, v = int(row[0]), float(row[1])
                if not math.isfinite(v):
                    raise ValueError
            except (IndexError, ValueError):
                message = f"expected an integer and a finite value, got {reprlib.repr(row)}"
                raise ValueError(f"{path}, line {reader.line_num}: {message}") from None
            if n in pairs:
                raise ValueError(f"{path}, line {reader.line_num}: index {reprlib.repr(n)} appears twice")
            pairs[n] = v
    try:
        return LatticeSequence.from_pairs(pairs)
    except ValueError as exc:  # an index span no array can hold; one that only runs out of memory raises MemoryError
        span = f"{reprlib.repr(min(pairs))}..{reprlib.repr(max(pairs))}"
        raise ValueError(f"{path}: index span {span} cannot be allocated: {exc}") from None
