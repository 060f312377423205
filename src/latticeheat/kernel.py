"""The lattice heat kernel G(t, n) = exp(-2t) I_n(2t) and operations on sequences.

A kernel slice at t is the scaled Bessel row at tau = 2t, so ``KernelSlice``
and ``LatticeSequence`` are defined in ``bessel`` and re-exported here.
Operations on two sequences align windows by absolute index and read zeros
outside the carried range.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .bessel import KernelSlice, LatticeSequence, exact_sum, libm_pow, scaled_bessel_row

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
    if not (0.0 <= t and math.isfinite(2.0 * t)):
        raise ValueError(f"t must be nonnegative with 2t finite, got {t!r}")
    return scaled_bessel_row(2.0 * t, eps, min_half_width=min_half_width)


def forward_difference(s: LatticeSequence) -> LatticeSequence:
    """First forward difference (grad f)(n) = f(n+1) - f(n); grows the window one step left."""
    padded = np.concatenate([s.values, [0.0]])
    shifted = np.concatenate([[0.0], s.values])
    return LatticeSequence(s.offset - 1, padded - shifted)


def discrete_laplacian(s: LatticeSequence) -> LatticeSequence:
    """Second central difference f(n+1) - 2 f(n) + f(n-1); grows one step each side."""
    return LatticeSequence(s.offset - 1, _laplacian(s.values))


def _laplacian(values: np.ndarray) -> np.ndarray:
    """``discrete_laplacian`` on bare values: two longer, starting one index lower."""
    n = len(values)
    out = np.zeros(n + 2)
    out[0:n] += values
    out[1 : n + 1] -= 2.0 * values
    out[2 : n + 2] += values
    return out


def lp_norm(s: LatticeSequence, p: float) -> float:
    """l^p norm over the carried window; p = math.inf selects the sup norm.

    NaN in gives NaN, inf in gives inf, and any other norm past binary64 raises OverflowError.
    """
    if not p >= 1.0:  # a NaN p is refused too
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    if p == math.inf:
        return float(np.max(np.abs(s.values))) if len(s.values) else 0.0
    try:
        if p == 2.0:
            with np.errstate(over="raise"):
                return math.sqrt(exact_sum(s.values * s.values))
        return _l1(s.values) if p == 1.0 else exact_sum(libm_pow(np.abs(s.values), p)) ** (1.0 / p)
    except (OverflowError, FloatingPointError):  # a power, a square, or fsum's running sum, past binary64
        if not np.isfinite(s.values).all():  # NaN if one is NaN, else inf
            return float(np.max(np.abs(s.values)))
        raise OverflowError(f"the l{p:g} norm of a sequence on {len(s.values)} sites exceeds binary64 range") from None


def _l1(values: np.ndarray) -> float:
    """``lp_norm`` at p = 1 on bare values."""
    return exact_sum(np.abs(values))


def add_sequences(a: LatticeSequence, b: LatticeSequence, alpha: float = 1.0, beta: float = 1.0) -> LatticeSequence:
    """alpha * a + beta * b with windows aligned by index and zero-extended."""
    lo = min(a.offset, b.offset)
    hi = max(a.hi, b.hi)
    out = np.zeros(hi - lo + 1)
    out[a.offset - lo : a.offset - lo + len(a.values)] += alpha * a.values
    out[b.offset - lo : b.offset - lo + len(b.values)] += beta * b.values
    return LatticeSequence(lo, out)


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
            raise ValueError(f"expected header 'n,value' in {path}, got {header!r}")
        for row in reader:
            if not row:
                continue
            try:
                n, v = int(row[0]), float(row[1])
                if not math.isfinite(v):
                    raise ValueError
            except (IndexError, ValueError):
                message = f"expected an integer and a finite value, got {row!r}"
                raise ValueError(f"{path}, line {reader.line_num}: {message}") from None
            if n in pairs:
                raise ValueError(f"{path}, line {reader.line_num}: index {n} appears twice")
            pairs[n] = v
    try:
        return LatticeSequence.from_pairs(pairs)
    except ValueError as exc:  # an index span no array can hold; one that only runs out of memory raises MemoryError
        raise ValueError(f"{path}: index span {min(pairs)}..{max(pairs)} cannot be allocated: {exc}") from None
