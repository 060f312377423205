"""Even-moment polynomials of the lattice heat kernel and their real zeros.

The polynomial family satisfies p_0 = 1 and, for k >= 1,

    p_k'(t) = sum_{j=0}^{k-1} C(2k, 2j) p_j(t),   p_k(0) = 0,

integrated term by term in exact integer arithmetic.  The even moment of
the kernel obeys sum_n n^{2k} G(t, n) = p_k(2t) while odd moments vanish
by symmetry.  Root finding takes exact integer signs at dyadic points
a / 2^e: the smallest negative zeros sit within 1e-3 of the zero at the
origin, where floating point sign tests are unreliable.  Float estimates
of the roots pick cells of one fine grid, two exact signs per cell verify
them, and each root is its cell's midpoint; a polynomial whose cells do not
verify is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import MAX_RECURRENCE_STEPS, _bernstein_reach, check_order, exact_sum, power_weighted
from .kernel import KernelSlice, heat_kernel

__all__ = [
    "IntPolynomial",
    "moment_polynomials",
    "poly_eval",
    "poly_real_roots",
    "kernel_moment",
    "weighted_tail_bound",
    "heat_kernel_for_moment",
    "moment_table",
    "RootIsolationError",
]

K_MAX = 64
ROOTS_K_MAX = 12
# A predicted floor N keeps N^order below exp(709), inside binary64 (whose largest log is 709.78).
_LOG_WEIGHT_MAX = 709.0


class RootIsolationError(ArithmeticError):
    """The roots of a polynomial do not verify in cells of the fine grid, so ``poly_real_roots`` refuses it.

    Every polynomial with a root off (-(deg + 2), 0), a complex or repeated root, or a root on a fine grid point
    is refused, and so is one with two roots in one cell, a root its binary64 estimate misses by a cell, or a
    coefficient past binary64.  No moment polynomial p_1 .. p_12 is.
    """


@dataclass(frozen=True)
class IntPolynomial:
    """Exact integer-coefficient polynomial, constant term first."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def moment_polynomials(k_max: int) -> list[IntPolynomial]:
    """The polynomials p_0 .. p_{k_max} with exact integer coefficients.

    Coefficient recurrence: a_{k,n} = (1/n) sum_{j=n-1}^{k-1} C(2k, 2j) a_{j,n-1};
    every division is exact and asserted so.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if k_max > K_MAX:
        raise ValueError(f"k_max capped at {K_MAX}; coefficients grow factorially")

    polys: list[list[int]] = [[1]]
    for k in range(1, k_max + 1):
        coeffs = [0] * (k + 1)
        for n in range(1, k + 1):
            total = 0
            for j in range(n - 1, k):
                total += math.comb(2 * k, 2 * j) * polys[j][n - 1]
            q, r = divmod(total, n)
            if r != 0:
                raise ArithmeticError(f"inexact division at k={k}, n={n}: {total} / {n}")
            coeffs[n] = q
        polys.append(coeffs)
    return [IntPolynomial(tuple(c)) for c in polys]


def poly_eval(p: IntPolynomial, x: float) -> float:
    """Horner evaluation in binary64."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _dyadic_sign(poly: IntPolynomial, a: int, e: int) -> int:
    """Sign of poly(a / 2^e), from the integer sum of c_i a^i 2^(e (deg - i))."""
    acc = 0
    for shift, c in enumerate(reversed(poly.coeffs)):
        acc = acc * a + (c << (e * shift))
    return (acc > 0) - (acc < 0)


def poly_real_roots(p: IntPolynomial, tol: float) -> list[float]:
    """All real roots of a moment polynomial, sorted ascending, each within 1e-12 and so within any accepted tol.

    The root at the origin is returned exactly.  Each of the d roots of q, p without its zero roots, is the
    midpoint of its cell j_1 < ... < j_d of the fine grid bound (j, j + 1] / 2^F in [-bound, 0], bound = deg + 2
    and F the first level with bound 2^-F <= 1e-12 / 4 (``_cell_roots``): the float that Sturm isolation and
    exact bisection to level F give.  Raises RootIsolationError where the fine cells do not verify.
    """
    if p.degree > ROOTS_K_MAX:
        raise ValueError(f"root finding capped at degree {ROOTS_K_MAX}")
    if not tol >= 1e-12:
        raise ValueError("tol must be at least 1e-12")
    zeros = next((i for i, c in enumerate(p.coeffs) if c), len(p.coeffs))
    q = IntPolynomial(p.coeffs[zeros:])
    if q.degree < 1:
        return [0.0] if zeros else []
    bound, fine = p.degree + 2, 0
    while math.ldexp(bound, -fine) > 1e-12 / 4:
        fine += 1
    roots = [bound * (2 * j + 1) / (1 << (fine + 1)) for j in _cell_roots(q, bound, fine)]
    return roots + [0.0] if zeros else roots


def _cell_roots(q: IntPolynomial, bound: int, level: int) -> list[int]:
    """The cells j_1 < ... < j_d, bound (j, j + 1] / 2^level, that hold the d roots of q (q(0) != 0), verified.

    The roots are estimated in binary64 (``np.roots`` and two Newton steps) and
    snapped to cells.  The cells are accepted only if they strictly increase, lie
    in [-bound, 0] and q has nonzero, opposite exact signs at both ends of each.
    Then each of the d cells holds an odd number of roots of a degree-d
    polynomial, so exactly one, simple, and no root is on a grid point.  Raises
    RootIsolationError otherwise.
    """
    try:
        c = np.array([float(x) for x in reversed(q.coeffs)])
        with np.errstate(all="ignore"):
            x, dc = np.roots(c).real, np.polyder(c)
            for _ in range(2):
                powers = np.vander(x, len(c))
                x = x - (powers @ c) / (powers[:, 1:] @ dc)
    except (OverflowError, np.linalg.LinAlgError):  # a coefficient past binary64, or no eigenvalues
        x = np.array([])
    # Estimates in [-bound, 0) give cells in [-bound, 0]; NaN fails both tests.  A wrong estimate fails the signs.
    if len(x) == q.degree and np.all((-bound <= x) & (x < 0)):
        cells = [math.floor(math.ldexp(v, level) / bound) for v in sorted(x.tolist())]
        if all(i < j for i, j in zip(cells, cells[1:])) and all(
            _dyadic_sign(q, bound * j, level) * _dyadic_sign(q, bound * (j + 1), level) == -1 for j in cells
        ):
            return cells
    raise RootIsolationError(
        f"the roots of a degree-{q.degree} polynomial do not verify at fine level {level}: "
        f"no {q.degree} cells of [-{bound}, 0] with opposite, nonzero exact signs at their ends"
    )


def kernel_moment(slice: KernelSlice, order: int) -> float:
    """sum_{|n| <= N} n^order G(t, n) over the carried window, compensated."""
    check_order(order)
    # (-n)^order = +-n^order exactly and doubling is exact, so these are the full sum's bits.
    if order % 2:
        return 0.0
    terms = power_weighted(slice.values, 0, order)
    doubled = terms[1:]  # a bound view: no slice assignment copies the product back
    doubled *= 2.0
    return exact_sum(terms)


def weighted_tail_bound(slice: KernelSlice, order: int) -> float:
    """Certified bound on 2 * sum_{n > N} n^order G(t, n) from edge decay.

    Uses the geometric ratio at the window edge, inflated by the polynomial
    growth factor (1 + 1/N)^order per step; infinite if the inflated ratio
    is not below 1.  Raises OverflowError where ``power_weighted``'s N^order leaves binary64.
    """
    check_order(order)
    n, values = slice.window, slice.values
    if n < 2:
        return math.inf
    v_prev, v_edge = float(values[n - 1]), float(values[n])
    if v_edge == 0.0:
        return 0.0
    try:  # N^order (2 G(t, N)), formed first since it bounds (1 + 1/N)^order: power_weighted's weight and product
        edge = 2.0 * v_edge * float(n) ** float(order)
    except OverflowError:  # that pow overflows in power_weighted too, whose error names the order and the window
        power_weighted(values[n:], n, order)
        raise
    grow = v_edge / v_prev * (1.0 + 1.0 / n) ** order
    return math.inf if grow >= 1.0 else edge * grow / (1.0 - grow)


def _predicted_floor(t: float, order: int, tol: float) -> int | None:
    """The least window N >= 2 whose order-weighted Bernstein tail is at most tol / 2, or None where t is refused.

    b_n(tau) <= exp(-g(n)), g(n) = n^2 / (2 (tau + n/3)) at tau = 2t (Bernstein, as in ``bessel._start_index``).
    With s = n / (3 tau + n), g(n) = 3 n s / 2 and g'(n) = 3 s (2 - s) / 2 grows with n, so g is convex and the
    term n^order exp(-g(n)) falls from n to n + 1 by at least exp(order / n - g'(n)); from n = N + 1 on, by at
    least r = exp(order / (N + 1) - g'(N + 1)).  Where r < 1, 2 sum_{n > N} n^order exp(-g(n)) is at most twice
    the term at N + 1 over 1 - r, which is exp(L(N + 1) - g(N + 1)) tol / 2 for
    L(n) = log 2 + order log n - log(1 - r) - log(tol / 2); so N meets the target where L(N + 1) <= g(N + 1).
    That bound falls as N grows, so bisection finds the least such N.  Its first probes are ceil(n) - 1 and its
    neighbours, for n after four steps of n <- g^-1(L(n)) from order + 2 sqrt(order tau) + 1 (where r < 1
    already); they usually settle it, and the result is the same without them.  The search stops at the widest
    window whose N^order stays within binary64 (it is ``weighted_tail_bound``'s edge weight) and at
    ``MAX_RECURRENCE_STEPS``, and returns that limit where no window meets the target; it starts at 2, the
    least window ``weighted_tail_bound`` takes.
    """
    tau = 2.0 * t
    if not 0.0 <= tau < math.inf:  # heat_kernel refuses t, as it does without a floor
        return None
    tau, log_target = float(tau), math.log(tol) - math.log(2.0)  # Python floats run to inf without a warning
    n = order + 2.0 * math.sqrt(order) * math.sqrt(tau) + 1.0
    for _ in range(4):
        big_l = _floor_logs(n, tau, order, log_target)[0]
        if not 0.0 < big_l < math.inf:
            break
        n = _bernstein_reach(tau, big_l)  # g(n) = big_l
    weight_limit = math.exp(_LOG_WEIGHT_MAX / order) if order else math.inf
    lo, hi = 2, max(2, int(min(MAX_RECURRENCE_STEPS, weight_limit)))
    guess = math.ceil(min(n, hi)) - 1
    probes = iter((guess, guess - 1, guess + 1))
    while lo < hi:  # the least N in [lo, hi] that meets the bound, L(N + 1) <= g(N + 1), else hi
        mid = next((p for p in probes if lo <= p < hi), (lo + hi) // 2)
        big_l, g = _floor_logs(mid + 1, tau, order, log_target)
        lo, hi = (lo, mid) if big_l <= g else (mid + 1, hi)
    return lo


def _floor_logs(n: float, tau: float, order: int, log_target: float) -> tuple[float, float]:
    """(L(n), g(n)) of ``_predicted_floor``, with L(n) = inf where r >= 1 at n."""
    s = n / (3.0 * tau + n)
    x = order / n - 1.5 * s * (2.0 - s)
    big_l = math.log(2.0) + order * math.log(n) - math.log(-math.expm1(x)) - log_target if x < 0.0 else math.inf
    return big_l, 1.5 * n * s


def heat_kernel_for_moment(t: float, order: int, tol: float) -> KernelSlice:
    """The row of G(t, .) at eps 1e-16 floored at ``_predicted_floor``, whose order-weighted tail is at most tol.

    One row is built.  A tol that is NaN or not positive raises ValueError before any row is built, and a row
    whose ``weighted_tail_bound`` is not at most tol raises ArithmeticError.
    """
    check_order(order)
    if not tol > 0.0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol!r}")
    row = heat_kernel(t, 1e-16, min_half_width=_predicted_floor(t, order, tol))
    _check_tail(row, t, order, tol)
    return row


def _check_tail(row: KernelSlice, t: float, order: int, tol: float) -> None:
    """Refuse a row whose order-weighted tail bound is not at most tol."""
    if not weighted_tail_bound(row, order) <= tol:
        raise ArithmeticError(f"could not certify weighted tail <= {tol} at t={t}, order={order}")


def moment_table(t: float, k_max: int) -> list[list]:
    """Rows [k, even_moment, poly_value, odd_moment] for k <= k_max, order 2k at tol max(1e-12, 1e-10 p_k(2t)).

    Every order is summed over one row, ``heat_kernel_for_moment``'s for order 2 k_max, and each order's tail is
    certified on it.  So a table is not the start of a longer one: its top row fixes the window of every order.
    """
    polys = moment_polynomials(k_max)
    expected = [poly_eval(poly, 2.0 * t) for poly in polys]
    tols = [max(1e-12, 1e-10 * value) for value in expected]
    row = heat_kernel_for_moment(t, 2 * k_max, tols[-1])
    table = []
    for k, (value, tol) in enumerate(zip(expected, tols)):
        _check_tail(row, t, 2 * k, tol)
        table.append([k, kernel_moment(row, 2 * k), value, kernel_moment(row, 2 * k + 1)])
    return table
