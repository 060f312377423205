"""Exponentially scaled modified Bessel functions b_n(tau) = exp(-tau) * I_n(tau).

The scaled form is the stable carrier for the lattice heat kernel: every
value lies in [0, 1] and the whole row sums to 1, so no overflow handling
is needed anywhere downstream.  The production evaluator is a Miller-type
backward recurrence normalized through the generating-function identity

    b_0(tau) + 2 * sum_{n >= 1} b_n(tau) = 1,

so mass conservation holds by construction.  The recurrence starts at an
index proved from tau and eps alone, O(sqrt(tau log 1/eps) + log 1/eps)
steps above the centre, not O(tau).  Two independent oracles (the
defining power series and a confluent-hypergeometric expansion) are kept
alongside for cross-validation; they never feed the recurrence.  Only
where a step of the rescaling pass overflows (2n/tau above about 1.8e58,
and then only as the rescaled values fall) is the row taken from the
power series instead, which is exact to rounding there.

A row is a ``KernelSlice``: G(t, n) = b_n(2t), so the kernel slice at t is
the row at tau = 2t.  ``LatticeSequence``, the carrier of all finitely
supported data (initial values, solutions, differences), lives here too.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = [
    "KernelSlice",
    "LatticeSequence",
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
# Longest recurrence a row may run (at eps 1e-12, t = 1e12 needs 17.2 million steps and
# t = 1e13 54.8 million); a longer one is refused before its array is allocated.
MAX_RECURRENCE_STEPS = 2**25

# The normalisation rounds each value three times (the sum, the add of b_0
# and the division), each by at most u = 2^-53, on a window of mass below 1.0001.
_NORM_ROUNDING = 3.001 * 2.0**-53
# An upper bound on the l1 norm of any window of a row, unfolded (mass conservation, rounded up).
# The normalisation divides by row[0] + 2 exact_sum(y[1:]), at least (1 - u)^2 times the sum of
# the whole row, and each quotient rounds up by at most a factor 1 + u or, where subnormal, by
# 2^-1075; so a window sums to at most (1 + u) / (1 - u)^2 < 1 + 3.001 u plus at most 2^26 + 1
# times 2^-1075, below 1 + 4u.  A series row (only at tau below 4e-51, where a step of the rescaling
# loop overflows) has b_0 = exp(-tau) <= 1 and b_n within a few u of (tau / 2)^n / n!, or of 0 by
# 2^-1074, for n >= 1, so its window sums to about 1 + tau at most; the tau = 0 row sums to 1.
ROW_L1_BOUND = 1.0 + 4.0 * 2.0**-53
# Miller's relative seed error is held below this share of the target.
_SEED_SHARE = 2.0**-40
# ``exact_sum`` leaves arrays shorter than _EXACT_SUM_MIN to fsum.  The extraction's seven
# NumPy calls take 7-18 us at any length up to 1,023 (its max |x| as one direct ufunc
# reduction of |x|, whose array then holds q: 0.7-1.1 us less than a max and a min); fsum's cost per
# value depends on the data: 38-64 ns on an unfolded row, 61-95 ns on its squares, 76-114 ns
# on order-12 moment terms, and 17-30 ns on uniform data or on the unnormalised row that
# ``_recurrence_row`` sums (2-core Intel Xeon, two phases of the host).  So 320 is about where the library's
# norms and moments cross over.  An earlier cutoff of 1,024 rested on ``evolve`` readings
# no wider than that benchmark's spread between two copies of one tree.
# It extracts _SUM_BLOCK values per pass, so its one temporary is at most 32 KiB.
_EXACT_SUM_MIN = 320
_SUM_BLOCK = 4096
# The longest table of libm powers that ``power_weighted`` keeps for one order (see there).
_POWER_TABLE_CAP = 2**13
_power_tables: dict[int, np.ndarray] = {}
_NO_POWERS = np.empty(0)


class NonConvergenceError(ArithmeticError):
    """A series oracle failed to reach its convergence criterion."""


def libm_pow(x: np.ndarray, y: float) -> np.ndarray:
    """x[i] ** y for each i by libm ``pow``, as float ``**`` takes it (NumPy's ``power`` differs in the last bit for some)."""
    return np.fromiter(map(pow, memoryview(x), repeat(y)), float, len(x))


def check_order(order: int) -> None:
    """Refuse a moment order that is not a nonnegative integer or that no float holds; other ints and floats pass as they are."""
    if not (order >= 0 and order % 1 == 0):  # NaN fails both, and inf % 1 is NaN
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    try:
        float(order)
    except OverflowError:  # an int past binary64, whose digits the message leaves out
        raise ValueError("order must be a nonnegative integer within binary64 range") from None


def check_eps(eps: float, parts: int = 1) -> None:
    """Refuse an eps whose share eps / parts no row takes; the message quotes eps itself."""
    if not (0.0 < eps / parts < 1.0):
        raise ValueError(f"eps must lie in (0, {parts}), got {eps!r}")
    if 16.0 / (eps / parts) == math.inf:  # the window bound takes log(16 / eps)
        raise ValueError(f"eps must be at least about {8.9e-308 * parts:.2g}, got {eps!r}")


def power_weighted(values: np.ndarray, first: int, order: int) -> np.ndarray:
    """values[i] * n^order for n = first + i, each n^order as ``float(n) ** order`` takes it, each product one rounding.

    For each integer order 0 <= order < 1024 (the orders at which 2.0 ** order is finite) the
    process keeps one read-only table of float(n) ** order for n = 0 .. L - 1, with L at most
    ``_POWER_TABLE_CAP`` = 2^13.  A window with 0 <= first and first + len(values) <= 2^13 takes
    a slice of its order's table, and a longer one grows the table by the libm powers of the
    new n alone.  Every weight is the same ``pow`` on the same n, so the products keep their
    bits.  A table holds only finite powers, so all the tables together retain at most 5.7 MiB,
    and those of the 65 even orders of ``moments.moment_table`` at most 2.8 MiB.  Any other window
    or order (a window that starts below 0, as a ``LatticeSequence`` across the origin does, one
    that ends past the cap, a float order) takes its powers directly and stores nothing.  A weight
    past binary64 raises OverflowError, naming the order and the window's last n, on either path.
    """
    end = first + len(values)
    try:
        if not (0 <= first and end <= _POWER_TABLE_CAP and isinstance(order, int) and 0 <= order < 1024):
            return libm_pow(np.arange(float(first), end), float(order)) * values
        table = _power_tables.get(order, _NO_POWERS)
        if len(table) < end:
            table = np.concatenate([table, libm_pow(np.arange(float(len(table)), end), float(order))])
            table.setflags(write=False)
            _power_tables[order] = table
    except OverflowError:  # a libm pow past binary64
        raise OverflowError(f"n^{order} exceeds binary64 range on window {end - 1}") from None
    return table[first:end] * values


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values)``, bit for bit, for a 1-D float64 array, from a fixed number of NumPy passes.

    fsum reads the array through a ``memoryview``, as Python floats.
    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008, Lemma 3.3):
    with M = max |x_i| and sigma = 2^k >= 2^(bit_length(n) + 1) M, q = (sigma + x) - sigma and
    r = x - q are exact, each q_i is a multiple of 2^(k - 53) of size at most sigma 2^-(bit_length(n) + 1),
    and |r_i| <= 2^(k - 53).  So every partial sum of the q_i is exact, in any order, and
    the sum of the r_i in any order is off by at most gamma_{n-1} n 2^(k - 53) <= n^2 2^(k - 105).
    If the exact sum's two bounds, rounded outward, round to one nonzero float, monotone rounding
    makes it fsum's correctly rounded value.  Otherwise, and for short, zero, non-finite or huge
    arrays, fsum decides.  One sigma serves every block of ``_SUM_BLOCK`` values, so the
    argument holds block by block and the only temporary is one block.
    """
    n = len(values)
    if n >= _EXACT_SUM_MIN:
        # M from |x|, whose array then holds q, up to one block; past it from a max and a min, so no temporary outgrows
        # a block.  M below 2^(999 - bit_length(n)), so sigma <= 2^1000; NaN, inf and all zeros fail too.
        q = np.abs(values) if n <= _SUM_BLOCK else None
        top = np.maximum.reduce(q) if q is not None else max(np.maximum.reduce(values), -np.minimum.reduce(values))
        if 0.0 < top < math.ldexp(1.0, 999 - n.bit_length()):
            k = math.frexp(top)[1] + n.bit_length() + 1
            sigma = math.ldexp(1.0, k)
            head = tail = 0.0
            for i in range(0, n, _SUM_BLOCK):
                part = values[i : i + _SUM_BLOCK]
                q = np.add(part, sigma, out=q)
                q -= sigma
                head += float(np.add.reduce(q))
                tail += float(np.add.reduce(np.subtract(part, q, out=q)))  # the r_i, in q's place
                q = None  # the next block's is made afresh, after this one is freed
            # n 2^-1074 absorbs the rounding of the first term where it is subnormal.
            err = math.ldexp(n * n, k - 105) + math.ldexp(n, -1074)
            lo = head + math.nextafter(tail - err, -math.inf)
            hi = head + math.nextafter(tail + err, math.inf)
            if lo == hi != 0.0:
                return lo
    return math.fsum(memoryview(values))


def _owned(cls: type, values: np.ndarray, **fields):
    """A ``LatticeSequence`` or ``KernelSlice`` on a float64 array that the library has just made and holds nowhere
    else: read-only, not copied."""
    obj = object.__new__(cls)
    values.setflags(write=False)
    obj.__dict__.update(fields, values=values)  # the frozen fields, as __init__ would set them
    return obj


@dataclass(frozen=True)
class LatticeSequence:
    """A real sequence on Z carried on the window [offset, offset + len - 1]."""

    offset: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:  # a read-only copy: the caller's array stays the caller's
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
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
        return self.moment(0)

    def moment(self, order: int) -> float:
        """sum_n n^order f(n) over the window; a weight, product or sum of finite values past binary64 raises OverflowError."""
        check_order(order)
        try:
            with np.errstate(over="raise"):
                return exact_sum(power_weighted(self.values, self.offset, order) if order else self.values)
        except (OverflowError, FloatingPointError):  # a weight, a product, or fsum's running sum, past binary64
            name = f"order-{int(order)} moment" if order else "mass"
            raise OverflowError(f"the {name} of a sequence on {len(self.values)} sites exceeds binary64 range") from None

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
    """Values b_n(tau) for 0 <= n <= window, with b_{-n} = b_n implied.

    At tau = 2t this is the kernel slice G(t, n) for |n| <= window.
    ``tail_mass`` bounds the l1 distance over all of Z from the carried row
    to the exact one: the mass 2 * sum_{n > window} b_n left outside, the
    error that Miller's seed and the missing mass put inside through the
    normalisation, and the normalisation's rounding.  The rounding of the
    recurrence steps themselves is not in it.
    """

    window: int
    values: np.ndarray = field(repr=False)
    tail_mass: float

    __post_init__ = LatticeSequence.__post_init__  # a read-only copy of the values, as there

    # The benchmark's tracer (bench/tracing.py) counts a row's work as
    # ``half_width + 1``; this alias keeps it working until it reads ``window``.
    @property
    def half_width(self) -> int:
        return self.window

    def value(self, n: int) -> float:
        """b_n(tau), using symmetry in n; zero outside the window."""
        n = abs(n)
        if n > self.window:
            return 0.0
        return float(self.values[n])

    def to_sequence(self) -> LatticeSequence:
        return _owned(LatticeSequence, np.concatenate([self.values[:0:-1], self.values]), offset=-self.window)

    def mass(self) -> float:
        """b_0 + 2 * sum_{1 <= n <= window} b_n over the carried window."""
        return float(self.values[0] + 2.0 * exact_sum(self.values[1:]))


def _budget(eps: float) -> tuple[float, float]:
    """(target, cap): the window's truncation and seed terms meet target, and tail_mass <= cap.

    No binary64 row certifies less than its normalisation's rounding: where
    eps is below twice that (about 6.7e-16), the other terms meet eps and the
    rounding comes on top.
    """
    if eps > 2.0 * _NORM_ROUNDING:
        return eps - _NORM_ROUNDING, eps
    return eps, math.inf


def _bernstein_reach(tau: float, big_l: float) -> float:
    """The n with n^2 = 2 big_l (tau + n/3): from there on, Bernstein's bound exp(-n^2 / (2 (tau + n/3))) is at
    most exp(-big_l)."""
    return big_l / 3.0 + math.sqrt(big_l * big_l / 9.0 + 2.0 * tau * big_l)


def _start_index(tau: float, eps: float, floor: int) -> tuple[int, int]:
    """(N, m): the window search succeeds by N >= floor, and the recurrence starts at m > N.

    For X the Skellam law of variance tau, b_n <= P(X >= n) <= exp(-n^2 / (2 (tau + n/3)))
    (Bernstein), and r_n = b_n / b_{n-1} < tau / (n - 1 + sqrt((n-1)^2 + tau^2)) (Amos, Math.
    Comp. 28, 1974) gives r_n / (1 - r_n) <= tau / (n - 1); so from N on, the estimate
    4 b_n r_n / (1 - r_n) of ``scaled_bessel_row`` is at most a quarter of the target.
    Seeded (1, 0) at (m, m + 1), the recurrence is off from I_n by the relative amount
    K_n I_{m+1} / (I_n K_{m+1}) = prod_{k=n}^{m} (I_{k+1} / I_k) (K_k / K_{k+1}), and both
    ratios are below tau / (k + sqrt(k^2 + tau^2)) = exp(-asinh(k / tau)) (Amos; Gautschi,
    SIAM Rev. 9, 1967).  So at every n <= N it is below exp(-2 sum_{k=N}^{m} asinh(k / tau)),
    which m holds below _SEED_SHARE times the target.
    """
    target = _budget(eps)[0]
    big_l = math.log(16.0 / target)
    n1 = max(2, math.ceil(_bernstein_reach(tau, big_l)))
    n = max(floor, math.ceil(_bernstein_reach(tau, big_l + math.log(max(1.0, tau / (n1 - 1))))) + 1)
    # Every factor k >= n is below exp(-2 asinh(n / tau)); where k <= tau, below
    # exp(-2 asinh(1) k / tau), as asinh(x) / x decreases, and sum_{k=n}^{m} k >= (m^2 - n^2) / 2.
    big_d = -math.log(_SEED_SHARE * target)
    m = n + max(1, math.ceil(big_d / (2.0 * math.asinh(n / tau))))
    m_sq = math.ceil(math.sqrt(n * n + big_d * tau / math.asinh(1.0)))
    return n, (min(m, m_sq) if m_sq <= tau else m)


def _validate_tau(tau: float) -> None:
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau!r}")


def _plan(tau: float, eps: float, min_half_width: int | None = None) -> tuple[int, int, int]:
    """(floor, N, m) of ``scaled_bessel_row``'s row (N = m = 0 at tau = 0), refused as there, building nothing."""
    _validate_tau(tau)
    check_eps(eps)
    if not -math.inf < (floor := min_half_width or 0) < math.inf:  # NaN fails too
        raise ValueError(f"min_half_width must be finite, got {floor!r}")
    floor = max(0, math.ceil(floor))
    last, m = _start_index(tau, eps, floor) if tau else (0, 0)
    if m > MAX_RECURRENCE_STEPS:
        raise ArithmeticError(f"the row at tau={tau!r} needs {reprlib.repr(m)} recurrence steps, more than {MAX_RECURRENCE_STEPS}")
    return floor, last, m


def scaled_bessel_row(tau: float, eps: float, min_half_width: int | None = None) -> KernelSlice:
    """Evaluate the whole row b_n(tau) by normalized backward recurrence.

    The window half-width is chosen automatically as the smallest N whose
    a-posteriori certificate gives tail_mass <= eps (eps plus the
    normalisation's rounding for eps below about 6.7e-16); pass
    ``min_half_width`` to force a wider window (used by moment sums, whose
    tails carry polynomial weights); a floor is a least window, so a fractional one counts as
    its ceiling and a negative one as 0, and NaN or inf raises ValueError.  Raises ArithmeticError
    if no window up to the proved one meets it, if the recurrence needs more than
    ``MAX_RECURRENCE_STEPS`` steps, or if it is too long to allocate.
    """
    floor, last, m = _plan(tau, eps, min_half_width)
    if tau == 0.0:
        values = np.zeros(floor + 1)
        values[0] = 1.0
        return _owned(KernelSlice, values, window=floor, tail_mass=0.0)
    b = _recurrence_row(tau, m)
    if b is None:
        b = np.zeros(m + 1)
        for n in range(m + 1):
            b[n] = scaled_bessel_series(tau, n)
            if b[n] == 0.0:
                break

    # Ratios b_{n+1}/b_n decrease in n, so T = 2 sum_{k>n} b_k <= 2 b_n r / (1 - r),
    # and the estimate is twice that.  With the seed error below delta at every
    # n <= last, the normalisation is off by at most T + delta, and the l1
    # distance is at most (2 T + 2 delta) / (1 - T - delta); the third delta
    # covers the relative rounding of the estimate itself.
    target, cap = _budget(eps)
    delta = _SEED_SHARE * target
    head = memoryview(b)  # reads Python floats without copying the row

    def certified(n: int) -> float | None:
        """tail_mass with the window at n, or None where it misses the budget."""
        below, edge = head[n - 1], head[n]
        if below == 0.0:  # b_{n-1} < 2.5e-324: the mass outside, below 2 b_{n-1} tau / (n - 2), is nil
            estimate = 0.0
        elif edge < below:
            ratio = edge / below
            estimate = 4.0 * edge * ratio / (1.0 - ratio)
        elif below < 2.0**-1022:
            # Subnormal values need not fall from one index to the next.  Amos's r_{n+1} gives
            # 2 sum_{k>n} b_k <= 2 b_n tau / n, and b_n is within 2^-1075 and a relative 4u of edge
            # (the quotient's rounding and the normalisation's), so the mass outside is at most
            # 2 (edge + 2^-1074) tau / (n - 1) for n <= 2^51; the estimate is twice that, as above.
            # It is charged at every probe where the ratio test cannot be taken, so a pair of equal
            # subnormals does not refuse a window whose neighbours certify.
            estimate = 4.0 * (edge + 2.0**-1074) * tau / (n - 1)
        else:
            return None
        denominator = 1.0 - 2.0 * (estimate + delta)
        if denominator <= 0.0:
            return None
        core = (estimate + 3.0 * delta) / denominator
        bound = math.nextafter(core + _NORM_ROUNDING, math.inf)
        return bound if core <= target and bound <= cap else None

    # The estimate falls as n grows, so the windows that meet the budget are
    # those from the first one on, and bisection finds it.
    lo, hi = max(1, floor), last
    tail_mass = certified(hi)
    if tail_mass is None:
        raise ArithmeticError(f"no window up to {last} certifies the tail of the row at tau={tau!r}, eps={eps!r}")
    while lo < hi:
        mid = (lo + hi) // 2
        bound = certified(mid)
        if bound is None:
            lo = mid + 1
        else:
            hi, tail_mass = mid, bound
    return _owned(KernelSlice, b[: lo + 1].copy(), window=lo, tail_mass=tail_mass)


def _recurrence_row(tau: float, m: int) -> np.ndarray | None:
    """Normalized b_0 .. b_m by backward recurrence; None if a step overflows, ArithmeticError if too long."""
    # Backward three-term recurrence y_{n-1} = y_{n+1} + (2n/tau) y_n seeded
    # with (1, 0) at the top; the seed error decays geometrically downward.
    try:  # 2(n + 1) at index n, exact for n <= 2^25: the coefficient of the step that stores y_n, times tau
        y = np.arange(2.0, 2.0 * m + 3.0, 2.0)
    except MemoryError:  # m <= MAX_RECURRENCE_STEPS, far below the largest array dimension
        raise ArithmeticError(f"the row at tau={tau!r} needs {m + 1} recurrence values, more than can be allocated") from None
    # Steps are stored and summed through a memoryview, which moves Python
    # floats in and out of the row without making a NumPy scalar for each.
    row = memoryview(y)
    # The first step stores 2m / tau; past the threshold, the checked loop below runs anyway, so this one is skipped.
    if (top := 2.0 * m / tau) <= _RESCALE_THRESHOLD:
        y /= tau  # each coefficient rounds as 2(n + 1) / tau in the step; none is above 2(m + 1) / tau, so none overflows
        row[m] = 1.0
        y_next, y_cur, n = 0.0, 1.0, m
        for c in row[m - 1 :: -1]:  # each step reads its coefficient from the slot it then overwrites with y_n
            y_next, y_cur = y_cur, y_next + c * y_cur
            n -= 1
            row[n] = y_cur
        # Each step adds a nonnegative term two places up and rounding is monotone, so no value tops row[0] or row[1].
        top = max(row[0], row[1])
    if top > _RESCALE_THRESHOLD:
        # Tiny tau, eps near 1e-300 or a wide floor: run from the top with a test at every step, rescaling as it goes.
        # A stored value is at most 1e250, so three factors take it below 2^-1075, to +0.0: each rescale
        # multiplies the values up to the third-last rescale before it, and the rest are +0.0 already.
        row[m] = 1.0
        y_next, y_cur, two_n, rescales = 0.0, 1.0, 2.0 * m, [m + 1] * 3
        for n in range(m, 0, -1):
            y_prev = y_next + (two_n / tau) * y_cur
            if y_prev > _RESCALE_THRESHOLD:
                if y_prev == math.inf:
                    return None
                y_prev *= _RESCALE_FACTOR
                y_cur *= _RESCALE_FACTOR
                y[n : rescales[-3]] *= _RESCALE_FACTOR
                rescales.append(n)
            row[n - 1] = y_prev
            y_next, y_cur = y_cur, y_prev
            two_n -= 2.0
    y /= row[0] + 2.0 * exact_sum(y[1:])
    return y


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
