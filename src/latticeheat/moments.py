"""Even-moment polynomials of the lattice heat kernel and their real zeros.

The polynomial family satisfies p_0 = 1 and, for k >= 1,

    p_k'(t) = sum_{j=0}^{k-1} C(2k, 2j) p_j(t),   p_k(0) = 0,

integrated term by term in exact integer arithmetic.  The even moment of
the kernel obeys sum_n n^{2k} G(t, n) = p_k(2t) while odd moments vanish
by symmetry.  Root isolation works over exact rationals: the smallest
negative zeros sit within 1e-3 of the zero at the origin, where floating
point sign tests are unreliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .kernel import KernelSlice, heat_kernel

__all__ = [
    "IntPolynomial",
    "moment_polynomials",
    "poly_eval",
    "poly_real_roots",
    "kernel_moment",
    "weighted_tail_bound",
    "heat_kernel_for_moment",
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

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


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
                prev = polys[j]
                if n - 1 < len(prev):
                    total += math.comb(2 * k, 2 * j) * prev[n - 1]
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


def _sturm_chain(coeffs: list[Fraction]) -> list[IntPolynomial]:
    """Sturm sequence of the polynomial, each member scaled to integer coefficients."""

    def rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        a = a[:]
        while len(a) >= len(b) and any(a):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] -= factor * b[i]
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [coeffs, [i * coeffs[i] for i in range(1, len(coeffs))]]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return [_clear_denominators(c) for c in chain]


def _clear_denominators(coeffs: list[Fraction]) -> IntPolynomial:
    """The least positive integer multiple; a positive multiple keeps every sign."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial(tuple(int(c * scale) for c in coeffs))


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_changes(chain: list[IntPolynomial], x: Fraction) -> int:
    signs = [s for s in (_sign(poly.eval_exact(x)) for poly in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def poly_real_roots(p: IntPolynomial, tol: float) -> list[float]:
    """All real roots of a moment polynomial, sorted ascending.

    Sturm-count subdivision over exact rationals isolates the roots in
    [-(deg + 2), 0]; bisection with exact sign evaluation then refines each
    to within ``tol``.  The root at the origin is returned exactly.
    """
    if p.degree > ROOTS_K_MAX:
        raise ValueError(f"root finding capped at degree {ROOTS_K_MAX}")
    if tol < 1e-12:
        raise ValueError("tol must be at least 1e-12")

    coeffs = list(p.coeffs)
    mult_zero = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        mult_zero += 1
    if not coeffs or len(coeffs) == 1:
        return [0.0] * min(mult_zero, 1) if mult_zero else []

    chain = _sturm_chain([Fraction(c) for c in coeffs])
    q = chain[0]
    lo = Fraction(-(p.degree + 2))
    hi = Fraction(0)
    total = _sign_changes(chain, lo) - _sign_changes(chain, hi)
    if total != q.degree:
        raise RootIsolationError(
            f"isolated {total} real roots in [{float(lo)}, 0], expected {q.degree}"
        )

    isolated: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            isolated.append((a, b))
            continue
        mid = (a + b) / 2
        left = _sign_changes(chain, a) - _sign_changes(chain, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))

    roots: list[float] = []
    for a, b in isolated:
        # Sturm counts roots in (a, b]; bisect on the sign at a.
        sa = _sign(q.eval_exact(a))
        while float(b - a) > tol / 4:
            mid = (a + b) / 2
            sm = _sign(q.eval_exact(mid))
            if sm == 0:
                a = b = mid
                break
            if sm == sa:
                a = mid
            else:
                b = mid
        roots.append(float((a + b) / 2))

    if mult_zero:
        roots.append(0.0)
    roots.sort()
    return roots


def kernel_moment(slice: KernelSlice, order: int) -> float:
    """sum_{|n| <= N} n^order G(t, n) over the carried window, compensated."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    n_max = slice.window
    if n_max > 1 and order * math.log(n_max) > 700.0:
        raise OverflowError(f"n^{order} exceeds binary64 range on window {n_max}")
    return slice.to_sequence().moment(order)


def weighted_tail_bound(slice: KernelSlice, order: int) -> float:
    """Certified bound on 2 * sum_{n > N} n^order G(t, n) from edge decay.

    Uses the geometric ratio at the window edge, inflated by the polynomial
    growth factor (1 + 1/N)^order per step; infinite if the inflated ratio
    is not below 1.
    """
    n = slice.window
    if n < 2:
        return math.inf
    v_edge = slice.value(n)
    v_prev = slice.value(n - 1)
    if v_edge == 0.0:
        return 0.0
    ratio = v_edge / v_prev
    grow = ratio * (1.0 + 1.0 / n) ** order
    if grow >= 1.0:
        return math.inf
    return 2.0 * float(n) ** order * v_edge * grow / (1.0 - grow)


def heat_kernel_for_moment(t: float, order: int, tol: float) -> KernelSlice:
    """Kernel slice wide enough that the order-weighted tail is below tol."""
    slice = heat_kernel(t, 1e-16)
    for _ in range(60):
        if weighted_tail_bound(slice, order) <= tol:
            return slice
        wider = max(slice.window + 8, int(slice.window * 1.3))
        slice = heat_kernel(t, 1e-16, min_half_width=wider)
    raise ArithmeticError(f"could not certify weighted tail <= {tol} at t={t}, order={order}")
