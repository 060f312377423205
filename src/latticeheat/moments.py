"""Even-moment polynomials of the lattice heat kernel and their real zeros.

The polynomial family satisfies p_0 = 1 and, for k >= 1,

    p_k'(t) = sum_{j=0}^{k-1} C(2k, 2j) p_j(t),   p_k(0) = 0,

integrated term by term in exact integer arithmetic.  The even moment of
the kernel obeys sum_n n^{2k} G(t, n) = p_k(2t) while odd moments vanish
by symmetry.  Root finding takes exact integer signs at dyadic points
a / 2^e: the smallest negative zeros sit within 1e-3 of the zero at the
origin, where floating point sign tests are unreliable.  Float estimates
of the roots only pick the grid cells that bisection would end in; two
exact signs per cell verify them, and where they do not, Sturm isolation
and bisection run.  The Sturm chain is built by integer pseudo-division,
so no rational arithmetic is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import exact_sum, power_weighted
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


class RootIsolationError(ArithmeticError):
    """Root isolation found a number of real roots different from the degree."""


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


def _sturm_chain(coeffs: list[int]) -> list[IntPolynomial]:
    """Sturm sequence of the polynomial by integer pseudo-division (Knuth, TAOCP 2, 4.6.1).

    A step replaces a with |lc(b)| a - sign(lc(b)) lc(a) x^shift b, a positive
    multiple of the rational step, and each remainder is divided by the
    negated gcd of its coefficients.  So every member is a positive multiple
    of the rational chain's, and every sign count is the same.
    """
    chain = [coeffs, [i * coeffs[i] for i in range(1, len(coeffs))]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b) and any(a):
            factor, shift = sign * a[-1], len(a) - len(b)
            a = [scale * c for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            while a and a[-1] == 0:
                a.pop()
        if not any(a):
            break
        g = -math.gcd(*a)
        chain.append([c // g for c in a])
    return [IntPolynomial(tuple(c)) for c in chain]


def _dyadic_sign(poly: IntPolynomial, a: int, e: int) -> int:
    """Sign of poly(a / 2^e), from the integer sum of c_i a^i 2^(e (deg - i))."""
    acc = 0
    for shift, c in enumerate(reversed(poly.coeffs)):
        acc = acc * a + (c << (e * shift))
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: list[IntPolynomial], a: int, e: int) -> int:
    signs = [s for s in (_dyadic_sign(poly, a, e) for poly in chain) if s != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def poly_real_roots(p: IntPolynomial, tol: float) -> list[float]:
    """All real roots of a moment polynomial, sorted ascending.

    Sturm-count subdivision isolates the roots in [-(deg + 2), 0]; bisection
    with exact signs at dyadic points then refines each to within ``tol``.
    The root at the origin is returned exactly.  Every interval the two visit
    has width (deg + 2) 2^-e, and bisection stops at the first level E with
    (deg + 2) 2^-E <= tol / 4, so a root is the midpoint of a cell of the grid
    (deg + 2) j / 2^E.  ``_cell_roots`` first takes those cells from float
    estimates and checks each by two exact signs, which gives the same floats;
    where a check fails, Sturm isolation and bisection (``_sturm_roots``) run.
    """
    if p.degree > ROOTS_K_MAX:
        raise ValueError(f"root finding capped at degree {ROOTS_K_MAX}")
    if not tol >= 1e-12:
        raise ValueError("tol must be at least 1e-12")
    roots = _cell_roots(p, tol)
    return _sturm_roots(p, tol) if roots is None else roots


def _cell_roots(p: IntPolynomial, tol: float) -> list[float] | None:
    """The roots ``_sturm_roots`` returns, from verified cells of its last grid, or None.

    The d nonzero roots of q, p without its zero roots, are estimated in
    binary64 (``np.roots`` and two Newton steps) and snapped to cells
    (deg + 2) (j, j + 1] / 2^E.  The cells are accepted only if they strictly
    increase, lie in [-(deg + 2), 0] and q has nonzero, opposite exact signs
    at both ends of each.  Then each of the d cells holds an odd number of
    roots of a degree-d polynomial, so exactly one, simple, and no root is on
    a grid point: the Sturm count is d, isolation ends by level E, bisection
    never meets a zero sign, and it ends in the same cell, whose midpoint
    (2j + 1)(deg + 2) / 2^(E + 1) is its float bit for bit.
    """
    zeros = next((i for i, c in enumerate(p.coeffs) if c), len(p.coeffs))
    q = IntPolynomial(p.coeffs[zeros:])
    if q.degree < 1:
        return None
    try:
        c = np.array([float(x) for x in reversed(q.coeffs)])
        with np.errstate(all="ignore"):
            x, dc = np.roots(c).real, np.polyder(c)
            for _ in range(2):
                powers = np.vander(x, len(c))
                x = x - (powers @ c) / (powers[:, 1:] @ dc)
    except (OverflowError, np.linalg.LinAlgError):  # a coefficient past binary64, or no eigenvalues
        return None
    bound, level = p.degree + 2, 0
    while math.ldexp(bound, -level) > tol / 4:
        level += 1
    # Estimates in [-(deg + 2), 0) give cells in [-(deg + 2), 0]; NaN fails both tests.  A wrong estimate fails the signs.
    if len(x) != q.degree or not np.all((-bound <= x) & (x < 0)):
        return None
    cells = [math.floor(math.ldexp(v, level) / bound) for v in sorted(x.tolist())]
    if any(i >= j for i, j in zip(cells, cells[1:])):
        return None
    for j in cells:
        if _dyadic_sign(q, bound * j, level) * _dyadic_sign(q, bound * (j + 1), level) != -1:
            return None
    roots = [bound * (2 * j + 1) / (1 << (level + 1)) for j in cells]
    return roots + [0.0] if zeros else roots


def _sturm_roots(p: IntPolynomial, tol: float) -> list[float]:
    """The roots by Sturm isolation and exact bisection: the path ``_cell_roots`` falls back to."""
    coeffs = list(p.coeffs)
    mult_zero = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        mult_zero += 1
    if not coeffs or len(coeffs) == 1:
        return [0.0] if mult_zero else []

    chain = _sturm_chain(coeffs)
    q = chain[0]
    # Every point visited is a dyadic a / 2^e, held as the integers (a, e).
    lo, hi = -(p.degree + 2), 0
    v_lo, v_hi = _sign_changes(chain, lo, 0), _sign_changes(chain, hi, 0)
    if v_lo - v_hi != q.degree:
        raise RootIsolationError(f"isolated {v_lo - v_hi} real roots in [{float(lo)}, 0], expected {q.degree}")

    # Each interval carries the sign changes at both ends, so a split counts only its midpoint.
    isolated: list[tuple[int, int, int]] = []
    stack = [(lo, hi, 0, v_lo, v_hi)]
    while stack:
        a, b, e, v_a, v_b = stack.pop()
        if v_a - v_b == 1:
            isolated.append((a, b, e))
        elif v_a - v_b > 1:
            mid = a + b
            v_mid = _sign_changes(chain, mid, e + 1)
            stack += [(2 * a, mid, e + 1, v_a, v_mid), (mid, 2 * b, e + 1, v_mid, v_b)]

    roots: list[float] = []
    for a, b, e in isolated:
        # Sturm counts roots in (a, b], so a may be another root; bisect on the sign at b, where 0 marks the root.
        sb = _dyadic_sign(q, b, e)
        if sb == 0:
            a = b
        while a < b and math.ldexp(b - a, -e) > tol / 4:
            a, b, e, mid = 2 * a, 2 * b, e + 1, a + b
            sm = _dyadic_sign(q, mid, e)
            if sm == 0:
                a = b = mid
            elif sm == sb:
                b = mid
            else:
                a = mid
        roots.append((a + b) / (1 << (e + 1)))

    if mult_zero:
        roots.append(0.0)
    roots.sort()
    return roots


def _guard_power(window: int, order: int) -> None:
    """Raise OverflowError where window^order could leave binary64."""
    if window > 1 and order * math.log(window) > 700.0:
        raise OverflowError(f"n^{order} exceeds binary64 range on window {window}")


def kernel_moment(slice: KernelSlice, order: int) -> float:
    """sum_{|n| <= N} n^order G(t, n) over the carried window, compensated."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    # (-n)^order = +-n^order exactly and doubling is exact, so these are the full sum's bits.
    if order % 2:
        return 0.0
    _guard_power(slice.window, order)
    terms = power_weighted(slice.values, 0, order)
    terms[1:] *= 2.0
    return exact_sum(memoryview(terms))


def weighted_tail_bound(slice: KernelSlice, order: int) -> float:
    """Certified bound on 2 * sum_{n > N} n^order G(t, n) from edge decay.

    Uses the geometric ratio at the window edge, inflated by the polynomial
    growth factor (1 + 1/N)^order per step; infinite if the inflated ratio
    is not below 1.  Raises OverflowError where N^order could leave binary64.
    """
    n = slice.window
    if n < 2:
        return math.inf
    v_edge = slice.value(n)
    v_prev = slice.value(n - 1)
    if v_edge == 0.0:
        return 0.0
    _guard_power(n, order)  # which also keeps (1 + 1/N)^order in range
    ratio = v_edge / v_prev
    grow = ratio * (1.0 + 1.0 / n) ** order
    if grow >= 1.0:
        return math.inf
    return 2.0 * float(n) ** order * v_edge * grow / (1.0 - grow)


def _moment_row(t: float, order: int, tol: float, rows: list[KernelSlice]) -> KernelSlice:
    """The first row of G(t, .) whose order-weighted tail is at most tol, in one chain for every order:
    the row at eps 1e-16, then each next window floored at max(N + 8, int(1.3 N)), at most 60 rows.
    ``rows`` holds the rows built so far, takes each new one and is scanned from the first.
    """
    for i in range(60):
        if i == len(rows):
            floor = max(rows[-1].window + 8, int(rows[-1].window * 1.3)) if rows else None
            rows.append(heat_kernel(t, 1e-16, min_half_width=floor))
        if weighted_tail_bound(rows[i], order) <= tol:
            return rows[i]
    raise ArithmeticError(f"could not certify weighted tail <= {tol} at t={t}, order={order}")


def heat_kernel_for_moment(t: float, order: int, tol: float) -> KernelSlice:
    """Kernel slice wide enough that the order-weighted tail is below tol."""
    return _moment_row(t, order, tol, [])


def moment_table(t: float, k_max: int) -> list[list]:
    """Rows [k, even_moment, poly_value, odd_moment] for k <= k_max, order 2k at tol max(1e-12, 1e-10 p_k(2t));
    the orders share one chain of rows, so each row is built once and each order gets the row it would alone."""
    rows, table = [], []
    for k, poly in enumerate(moment_polynomials(k_max)):
        expected = poly_eval(poly, 2.0 * t)
        kernel = _moment_row(t, 2 * k, max(1e-12, 1e-10 * expected), rows)
        table.append([k, kernel_moment(kernel, 2 * k), expected, kernel_moment(kernel, 2 * k + 1)])
    return table
