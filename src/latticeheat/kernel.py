"""The lattice heat kernel G(t, n) = exp(-2t) I_n(2t) and operations on sequences.

A kernel slice at t is the scaled Bessel row at tau = 2t, so ``KernelSlice``
and ``LatticeSequence`` are defined in ``bessel`` and re-exported here.
Operations on two sequences align windows by absolute index and read zeros
outside the carried range.
"""

from __future__ import annotations

import csv
import io
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
    "pointwise_bound_report",
    "add_sequences",
    "csv_text",
    "read_sequence_csv",
    "sequence_csv_text",
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
    """l^p norm over the carried window; p = math.inf selects the sup norm."""
    if not p >= 1.0:  # a NaN p is refused too
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    if p == math.inf:
        return float(np.max(np.abs(s.values))) if len(s.values) else 0.0
    if p == 1.0:
        return _l1(s.values)
    if p == 2.0:
        with np.errstate(over="ignore"):  # a square past binary64 is refused below
            total = exact_sum(s.values * s.values)
        if total == math.inf and np.isfinite(s.values).all():
            raise OverflowError(f"the l2 norm of a sequence on {len(s.values)} sites exceeds binary64 range")
        return math.sqrt(total)
    return exact_sum(libm_pow(np.abs(s.values), p)) ** (1.0 / p)


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


def pointwise_bound_report(t: float, c_budget: float) -> list[tuple[int, str, float, float]]:
    """Ratios quantity/bound for the pointwise kernel estimates at time t.

    Quantities are |G|, |grad G|, |laplacian G| with the large-time bounds
    switching at R = n^2 / t.  The far-field kernel bound is checked in the
    form C t / n^3 established in the proof; the stated C / n^3 form is
    reported separately under ``kernel_statement`` rather than silently
    merged, since the two differ by a factor of t.
    """
    if t < 1.0:
        raise ValueError("pointwise bounds are asymptotic; require t >= 1")
    if c_budget <= 0.0:
        raise ValueError("c_budget must be positive")

    kernel = heat_kernel(t, 1e-12)
    seq = kernel.to_sequence()
    grad = forward_difference(seq)
    lap = discrete_laplacian(seq)

    report: list[tuple[int, str, float, float]] = []
    for n in range(1, kernel.window + 1):
        big_r = n * n / t
        g = abs(kernel.value(n))
        dg = abs(grad.value(n))
        lg = abs(lap.value(n))
        if big_r <= 1.0:
            report.append((n, "kernel", c_budget / math.sqrt(t), g * math.sqrt(t) / c_budget))
            report.append((n, "grad", c_budget * n / t**1.5, dg * t**1.5 / (c_budget * n)))
            report.append((n, "laplacian", c_budget / t**1.5, lg * t**1.5 / c_budget))
        else:
            report.append((n, "kernel", c_budget * t / n**3, g * n**3 / (c_budget * t)))
            report.append((n, "kernel_statement", c_budget / n**3, g * n**3 / c_budget))
            report.append((n, "grad", c_budget * t / n**4, dg * n**4 / (c_budget * t)))
            report.append((n, "laplacian", c_budget / n**3, lg * n**3 / c_budget))
    return report


def csv_text(header: list[str], rows) -> str:
    """CSV text with LF endings and every float as its shortest round-trip repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # csv writes a float, NumPy's float64 included, as its repr
    return buf.getvalue()


def sequence_csv_text(s: LatticeSequence) -> str:
    """Sequence CSV: header ``n,value``, one row per carried index."""
    return csv_text(["n", "value"], zip(s.indices(), s.values.tolist()))


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
    return LatticeSequence.from_pairs(pairs)
