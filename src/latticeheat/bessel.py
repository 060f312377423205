"""Exponentially scaled modified Bessel functions b_n(tau) = exp(-tau) * I_n(tau).

The scaled form is the stable carrier for the lattice heat kernel: every
value lies in [0, 1] and the whole row sums to 1, so no overflow handling
is needed anywhere downstream.  The production evaluator is a Miller-type
backward recurrence normalized through the generating-function identity

    b_0(tau) + 2 * sum_{n >= 1} b_n(tau) = 1,

so mass conservation holds by construction.  Two independent oracles (the
defining power series and a confluent-hypergeometric expansion) are kept
alongside for cross-validation; they never feed the recurrence.  Only
where tau is so small that a single recurrence step overflows (tau below
about 1e-58) is the row taken from the power series instead, which is
exact to rounding there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScaledBesselRow",
    "scaled_bessel_row",
    "scaled_bessel_series",
    "scaled_bessel_kummer",
    "NonConvergenceError",
]

# Unscaled backward recurrence grows roughly like exp(tau); rescale well
# before the binary64 ceiling.
_RESCALE_THRESHOLD = 1e250
_RESCALE_FACTOR = 1e-250

_SERIES_TAU_MAX = 30.0


class NonConvergenceError(ArithmeticError):
    """A series oracle failed to reach its convergence criterion."""


@dataclass(frozen=True)
class ScaledBesselRow:
    """Values b_n(tau) for 0 <= n <= half_width, with b_{-n} = b_n implied.

    ``tail_bound`` is a certified upper bound on 2 * sum_{n > half_width} b_n.
    """

    tau: float
    half_width: int
    values: np.ndarray = field(repr=False)
    tail_bound: float

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    def value(self, n: int) -> float:
        """b_n(tau), using symmetry in n; zero outside the window."""
        n = abs(n)
        if n > self.half_width:
            return 0.0
        return float(self.values[n])

    def window_sum(self) -> float:
        """b_0 + 2 * sum_{1 <= n <= N} b_n over the carried window."""
        return float(self.values[0] + 2.0 * math.fsum(self.values[1:]))


def _start_index(tau: float) -> int:
    return max(20, math.ceil(tau + 12.0 * math.sqrt(tau) + 30.0))


def _validate_tau(tau: float) -> None:
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau!r}")


def scaled_bessel_row(tau: float, eps: float, min_half_width: int | None = None) -> ScaledBesselRow:
    """Evaluate the whole row b_n(tau) by normalized backward recurrence.

    The window half-width is chosen automatically as the smallest N whose
    a-posteriori geometric tail estimate certifies tail_bound <= eps; pass
    ``min_half_width`` to force a wider window (used by moment sums, whose
    tails carry polynomial weights).
    """
    _validate_tau(tau)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")

    if tau == 0.0:
        n = min_half_width or 0
        values = np.zeros(n + 1)
        values[0] = 1.0
        return ScaledBesselRow(tau=0.0, half_width=n, values=values, tail_bound=0.0)

    m = _start_index(tau)
    if min_half_width is not None:
        m = max(m, min_half_width + 10)
    b = _recurrence_row(tau, m)
    if b is None:
        b = np.zeros(m + 1)
        for n in range(m + 1):
            b[n] = scaled_bessel_series(tau, n)
            if b[n] == 0.0:
                break

    half_width = m
    tail_bound = 0.0
    floor = min_half_width or 0
    for n in range(max(1, floor), m + 1):
        ratio = b[n] / b[n - 1] if b[n - 1] > 0.0 else 1.0
        if ratio >= 1.0:
            continue
        # Ratios b_{n+1}/b_n are decreasing in n, so the geometric sum
        # certifies the tail; the extra factor 2 is a safety margin.
        estimate = 4.0 * b[n] * ratio / (1.0 - ratio)
        if estimate < eps:
            half_width = n
            # The estimate underflows to 0 for tau below about 1e-161, where the
            # true tail is still positive: round it up to the smallest subnormal.
            tail_bound = max(estimate, math.ulp(0.0))
            break

    values = np.array(b[: half_width + 1])
    return ScaledBesselRow(tau=tau, half_width=half_width, values=values, tail_bound=tail_bound)


def _recurrence_row(tau: float, m: int) -> np.ndarray | None:
    """Normalized b_0 .. b_m by backward recurrence; None if a step overflows."""
    # Backward three-term recurrence y_{n-1} = y_{n+1} + (2n/tau) y_n seeded
    # with (1, 0) at the top; the seed error decays geometrically downward.
    y = np.zeros(m + 1)
    y_next = 0.0
    y_cur = 1.0
    y[m] = y_cur
    for n in range(m, 0, -1):
        y_prev = y_next + (2.0 * n / tau) * y_cur
        if y_prev > _RESCALE_THRESHOLD:
            if y_prev == math.inf:
                return None
            y_prev *= _RESCALE_FACTOR
            y_cur *= _RESCALE_FACTOR
            y[n:] *= _RESCALE_FACTOR
        y[n - 1] = y_prev
        y_next, y_cur = y_cur, y_prev

    norm = y[0] + 2.0 * math.fsum(y[1:])
    return y / norm


def scaled_bessel_series(tau: float, n: int) -> float:
    """Power-series oracle for b_n(tau); independent of the recurrence.

    Restricted to tau <= 30 where the unscaled series stays comfortably
    inside binary64 before the final exp(-tau) scaling.
    """
    _validate_tau(tau)
    if tau > _SERIES_TAU_MAX:
        raise ValueError(f"series oracle limited to tau <= {_SERIES_TAU_MAX}, got {tau!r}")
    if n < 0:
        raise ValueError("n must be nonnegative; callers use the symmetry b_{-n} = b_n")

    if tau == 0.0:
        return 1.0 if n == 0 else 0.0

    half = tau / 2.0
    term = half**n / math.factorial(n)
    total = term
    m = 1
    while True:
        term *= half * half / (m * (m + n))
        total += term
        if term <= 1e-18 * total:
            break
        m += 1
    return math.exp(-tau) * total


def scaled_bessel_kummer(tau: float, n: int, terms: int) -> float:
    """Second oracle for b_n(tau) from the confluent-hypergeometric expansion.

    Summing the expansion and folding in both exponential factors gives

        b_n(tau) = exp(-2 tau) * sum_k c_k,
        c_0 = (tau/2)^n / n!,
        c_{k+1} = c_k * (n + k + 1/2) * 2 tau / ((2n + k + 1)(k + 1)).

    Raises ``NonConvergenceError`` if the term ratio has not fallen below
    1/2 within ``terms`` terms.
    """
    _validate_tau(tau)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if terms < 1:
        raise ValueError("terms must be positive")

    if tau == 0.0:
        return 1.0 if n == 0 else 0.0

    c = (tau / 2.0) ** n / math.factorial(n)
    total = c
    ratio = math.inf
    for k in range(terms):
        ratio = (n + k + 0.5) * 2.0 * tau / ((2 * n + k + 1) * (k + 1))
        c *= ratio
        total += c
        if ratio < 0.5 and c <= 1e-18 * total:
            return math.exp(-2.0 * tau) * total
    if ratio >= 0.5:
        raise NonConvergenceError(
            f"term ratio {ratio:.3g} still >= 1/2 after {terms} terms (tau={tau}, n={n})"
        )
    return math.exp(-2.0 * tau) * total
