"""The lattice heat kernel G(t, n) = exp(-2t) I_n(2t) and windowed sequences.

``LatticeSequence`` is the carrier for all finitely supported data: initial
values, solutions, and differences.  Operations on two sequences align
windows by absolute index and read zeros outside the carried range.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import scaled_bessel_row

__all__ = [
    "KernelSlice",
    "LatticeSequence",
    "heat_kernel",
    "forward_difference",
    "discrete_laplacian",
    "lp_norm",
    "pointwise_bound_report",
    "add_sequences",
    "read_sequence_csv",
    "sequence_csv_text",
]


@dataclass(frozen=True)
class LatticeSequence:
    """A real sequence on Z carried on the window [offset, offset + len - 1]."""

    offset: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)

    @property
    def hi(self) -> int:
        return self.offset + len(self.values) - 1

    def value(self, n: int) -> float:
        i = n - self.offset
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0

    def indices(self) -> range:
        return range(self.offset, self.hi + 1)

    def mass(self) -> float:
        return math.fsum(self.values)

    def moment(self, order: int) -> float:
        # Python's float ** int: NumPy's power differs in the last bit for some n.
        return math.fsum(float(n) ** order * v for n, v in zip(self.indices(), self.values.tolist()))

    def scaled(self, alpha: float) -> "LatticeSequence":
        return LatticeSequence(self.offset, alpha * self.values)

    @staticmethod
    def delta(n: int = 0) -> "LatticeSequence":
        return LatticeSequence(n, np.array([1.0]))

    @staticmethod
    def from_pairs(pairs: dict[int, float] | list[tuple[int, float]]) -> "LatticeSequence":
        items = sorted(dict(pairs).items())
        if not items:
            return LatticeSequence(0, np.array([0.0]))
        lo = items[0][0]
        hi = items[-1][0]
        values = np.zeros(hi - lo + 1)
        for n, v in items:
            values[n - lo] = v
        return LatticeSequence(lo, values)


@dataclass(frozen=True)
class KernelSlice:
    """Symmetric window of G(t, .) for |n| <= window, one side stored.

    ``tail_mass`` certifies the mass left outside the window, so the stored
    values sum to 1 within tail_mass.
    """

    t: float
    window: int
    values: np.ndarray = field(repr=False)
    tail_mass: float

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def value(self, n: int) -> float:
        n = abs(n)
        if n > self.window:
            return 0.0
        return float(self.values[n])

    def to_sequence(self) -> LatticeSequence:
        full = np.concatenate([self.values[:0:-1], self.values])
        return LatticeSequence(-self.window, full)

    def mass(self) -> float:
        return float(self.values[0] + 2.0 * math.fsum(self.values[1:]))


def heat_kernel(t: float, eps: float, min_half_width: int | None = None) -> KernelSlice:
    """Windowed kernel slice with certified tail mass at most eps."""
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    row = scaled_bessel_row(2.0 * t, eps, min_half_width=min_half_width)
    return KernelSlice(t=t, window=row.half_width, values=np.array(row.values), tail_mass=row.tail_bound)


def forward_difference(s: LatticeSequence) -> LatticeSequence:
    """First forward difference (grad f)(n) = f(n+1) - f(n); grows the window one step left."""
    padded = np.concatenate([s.values, [0.0]])
    shifted = np.concatenate([[0.0], s.values])
    return LatticeSequence(s.offset - 1, padded - shifted)


def discrete_laplacian(s: LatticeSequence) -> LatticeSequence:
    """Second central difference f(n+1) - 2 f(n) + f(n-1); grows one step each side."""
    n = len(s.values)
    out = np.zeros(n + 2)
    out[0:n] += s.values
    out[1 : n + 1] -= 2.0 * s.values
    out[2 : n + 2] += s.values
    return LatticeSequence(s.offset - 1, out)


def lp_norm(s: LatticeSequence, p: float) -> float:
    """l^p norm over the carried window; p = math.inf selects the sup norm."""
    if p == math.inf:
        return float(np.max(np.abs(s.values))) if len(s.values) else 0.0
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    if p == 1.0:
        return math.fsum(np.abs(s.values).tolist())
    if p == 2.0:
        return math.sqrt(math.fsum((s.values * s.values).tolist()))
    # Per element in Python: NumPy's power differs from ** in the last bit.
    return math.fsum(abs(v) ** p for v in s.values.tolist()) ** (1.0 / p)


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


def sequence_csv_text(s: LatticeSequence) -> str:
    """Sequence CSV: header ``n,value``, one row per carried index, shortest round-trip floats, LF endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "value"])
    writer.writerows([n, repr(v)] for n, v in zip(s.indices(), s.values.tolist()))
    return buf.getvalue()


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
            pairs[n] = v
    return LatticeSequence.from_pairs(pairs)
