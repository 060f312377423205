"""Mild solutions of the forced lattice heat equation.

u(t, n) = (G(t, .) * f)(n) + int_0^t (G(t - s, .) * g(s, .))(n) ds.

The homogeneous part is one windowed convolution with the kernel slice.  Its
certificate takes no compensated sum: ||G(t)||_1 is bounded by the row's
normalisation (``bessel.ROW_L1_BOUND``) and ||f||_1 by one NumPy sum of |f|
rounded up past its own error.
The Duhamel part is a composite 8-point Gauss-Legendre rule on a mesh fixed
before any kernel row, from a bound on the integrand's 16th derivative that
the heat equation and the kernel's decay give; the error budget is split
evenly between quadrature and kernel truncation.  The bound takes the 17
norms ||Delta^j phi||_1 from one product of a Toeplitz view of phi with the
stencils (-1)^k C(2j, k), each rounded up by three terms: its sum's rounding,
the stencil's (Higham, 3.1), and underflow.  For separable forcing the
rule's sum is A (K * phi) with K = sum_i c_i G(t - s_i), and K is formed
from its symbol sum_i c_i exp(-4 (t - s_i) sin^2(theta / 2)): one symbol
sum over the nodes, one inverse FFT and one convolution with phi per call,
with no kernel row per node.  Its certificate adds four terms to the mass
of K outside the frame: the aliasing of the transform, the symbol's
rounding (NumPy's exp and sin taken within one ulp), the FFT's rounding
and the convolution's.  The FFT term is heuristic: it applies Higham's
Thm 24.2, proved for a complex radix-2 transform, to pocketfft's real
radix-4 irfft, with a twiddle accuracy of 11 u that is a margin over the
2.2 u measured, not a derived constant.  Each certificate that covers a
convolution adds its a-priori rounding bound.
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bessel import ROW_L1_BOUND, check_eps, exact_sum
from .kernel import LatticeSequence, add_sequences, heat_kernel, lp_norm, read_sequence_csv

__all__ = [
    "ForcingSpec",
    "SolutionSnapshot",
    "convolve",
    "rounding_bound",
    "evolve",
    "duhamel",
    "solve",
    "QuadratureBudgetError",
]

_MAX_INTEGRAND_EVALS = 40000
# The 8-point Gauss-Legendre rule on [-1, 1], correctly rounded; on a panel
# of width h it is off by _C8 h^17 F^(16)(xi) (Atkinson, 5.3).
_GL_X = (0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363)
_GL_W = (0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626)
_NODES = np.array([-x for x in _GL_X[::-1]] + list(_GL_X))
_WEIGHTS = np.array(_GL_W[::-1] + _GL_W)
_C8 = math.factorial(8) ** 4 / (17 * math.factorial(16) ** 3)
_UNBOUNDED = "the bound on the forcing's 16th time derivative is not finite"
# NumPy's exp and sin are taken to be within _LIBM_ULPS ulps (measured: 0.65 and 0.51), and the twiddle
# factors of NumPy's pocketfft within _TWIDDLE of the roots of unity (Higham's mu).  _TWIDDLE is a margin of
# five over the 2.2 u that the roots ``rfft`` returns for M up to 2^16 measure, not a derived constant, and
# Higham's theorem covers a complex radix-2 transform, not the real radix-4 ``irfft``: the FFT term is
# heuristic until a bound for the real transform exists.  tests/test_certificates.py checks the measurements.
_LIBM_ULPS = 1
_TWIDDLE = 11.0 * 2.0**-53
# The most entries an outer product of nodes and frequencies holds in ``duhamel``.
_BLOCK = 2**16


class QuadratureBudgetError(ArithmeticError):
    """The quadrature cannot meet the requested tolerance within its node budget."""


def _json_number(value) -> float:
    """A JSON number (int or float, not bool) as a float; ``float`` alone would take "2" and true."""
    if type(value) not in (int, float):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class ForcingSpec:
    """Separable forcing g(t, n) = amplitude * (1 + t)^(-gamma) * spatial(n).

    Construction checks gamma in (0, inf) and a finite amplitude.  No
    forcing is ``None`` wherever a ``ForcingSpec`` is accepted.
    """

    spatial: LatticeSequence
    gamma: float
    amplitude: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")

    @staticmethod
    def separable(spatial: LatticeSequence, gamma: float, amplitude: float) -> "ForcingSpec":
        return ForcingSpec(spatial, gamma, amplitude)

    @staticmethod
    def from_json(path) -> "ForcingSpec | None":
        """Load ``{"kind":"separable","spatial":"<csv>","gamma":...,"amplitude":...}``; ``{"kind":"none"}`` is None."""
        path = Path(path)
        try:
            spec = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # malformed JSON or UTF-8, or an integer past Python's digit limit
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(spec, dict):
            raise ValueError(f"{path}: forcing spec must be a JSON object, got {type(spec).__name__}")
        kind = spec.get("kind")
        if kind == "none":
            return None
        if kind != "separable":
            raise ValueError(f"unsupported forcing kind in {path}: {reprlib.repr(kind)}")
        missing = [key for key in ("spatial", "gamma", "amplitude") if key not in spec]
        if missing:
            raise ValueError(f"{path}: separable forcing needs key(s) {', '.join(missing)}")
        for key, convert in (("spatial", path.parent.joinpath), ("gamma", _json_number), ("amplitude", _json_number)):
            try:  # an absolute spatial path replaces the parent
                spec[key] = convert(spec[key])
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{path}: key {key} has invalid value {reprlib.repr(spec[key])}") from None
        return ForcingSpec(read_sequence_csv(spec["spatial"]), spec["gamma"], spec["amplitude"])

    def temporal(self, s: float) -> float:
        return self.amplitude * (1.0 + s) ** (-self.gamma)


@dataclass(frozen=True)
class SolutionSnapshot:
    """Windowed solution at time t with certified l^1 error bounds."""

    t: float
    u: LatticeSequence
    quad_error: float
    trunc_error: float


def convolve(a: LatticeSequence, b: LatticeSequence) -> LatticeSequence:
    """Direct discrete convolution over the joint support; see ``rounding_bound``."""
    return LatticeSequence._own(a.offset + b.offset, np.convolve(a.values, b.values))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the binary64 unit roundoff."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53) if k * 2.0**-53 < 1.0 else math.inf


def rounding_bound(la: int, a_l1: float, lb: int, b_l1: float) -> float:
    """A-priori bound on ||convolve(a, b) - a * b||_1 from binary64 rounding, for a and b of lengths
    la, lb and l1 norms a_l1, b_l1.

    An output is a dot product of n <= min(la, lb) terms, off by at most
    gamma_n sum |a_j| |b_{i-j}| in any order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1); gamma_{n+1} and rounding up absorb the error of
    this formula, and one smallest subnormal per product covers underflow.
    """
    bound = _gamma(min(la, lb) + 1) * a_l1 * b_l1
    return math.nextafter(bound + la * lb * math.ulp(0.0), math.inf)


# Column j holds (-1)^k C(2j, k), k = 0..2j, at row 32 - k; _ROUNDING[n] holds gamma_K 4^j, K = min(n, 2j + 1).
_STENCILS = np.array([[(-1) ** k * math.comb(2 * j, k) for j in range(17)] for k in range(32, -1, -1)], dtype=float)
_ROUNDING = np.array([[_gamma(min(n, 2 * j + 1)) * 4.0**j for j in range(17)] for n in range(34)])
_PAD, _ODD_ULPS = np.zeros(32), np.ldexp(2.0 * np.arange(17) + 1.0, -1074)  # (2j + 1) 2^-1074


def _laplacian_norms(phi: np.ndarray) -> list[float]:
    """Upper bounds on ||Delta^j phi||_1, j = 0..16, from one product of a Toeplitz view of phi with _STENCILS.

    Row i of the view times column j is a value of Delta^j phi, K = min(len phi, 2j + 1) nonzero products
    with integers below 2^30 summed, off by gamma_K sum_k C(2j, k) |phi_(i-k)| (Higham, Accuracy and Stability
    of Numerical Algorithms, 3.1), so gamma_K 4^j ||phi||_1 over the rows.  A bound is the column's sum of |.|
    over its r rows times 1 + 2 gamma_(r-1) >= 1 / (1 - gamma_(r-1)), plus that term (column 0 is exact, so its
    sum bounds ||phi||_1), plus 2^-1074 per nonzero product for underflow, as in ``rounding_bound``; 1 + 2^-49
    absorbs the formula's roundings.  A bound past binary64 raises ValueError.
    """
    rows, step = len(phi) + 32, _BLOCK // 128  # blocks whose copy and product stay in cache
    view = np.ndarray((rows, 33), buffer=np.concatenate((_PAD, phi, _PAD)), strides=(8, 8))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound is refused below
        sums = sum(np.abs(np.ascontiguousarray(view[i : i + step]) @ _STENCILS).sum(axis=0) for i in range(0, rows, step))
        up, ulps = (1.0 + 2.0 * _gamma(rows - 1)) * (1.0 + 2.0**-49), len(phi) * _ODD_ULPS
        norms = np.nextafter((sums + float(sums[0]) * _ROUNDING[min(len(phi), 33)]) * up + ulps, math.inf)
    if not np.isfinite(norms).all():
        raise ValueError(_UNBOUNDED)
    return norms.tolist()


def evolve(f: LatticeSequence, t: float, eps: float = 1e-12) -> SolutionSnapshot:
    """Homogeneous evolution u_f(t, .) = G(t, .) * f with certified truncation; u is f itself at t = 0.

    Data holding a NaN or an infinity raise ValueError at every t, t = 0 included.
    """
    kernel = heat_kernel(t, eps)  # which checks t and eps at t = 0 too
    if t == 0.0:
        _check_finite(f)
        return SolutionSnapshot(t=0.0, u=f, quad_error=0.0, trunc_error=0.0)
    return _evolve(f, t, kernel.to_sequence(), kernel.tail_mass)


def _evolve(f: LatticeSequence, t: float, seq: LatticeSequence, tail_mass: float) -> SolutionSnapshot:
    """``evolve`` with G(t, .) given as an unfolded row, and its tail mass.

    The certificate takes ||G(t)||_1 <= ``ROW_L1_BOUND`` from the row's normalisation and ||f||_1 from
    ``_l1_bound``; ``rounding_bound`` grows with both norms, so upper bounds keep it a bound.
    """
    f_l1 = _l1_bound(f)
    trunc_error = tail_mass * f_l1 + rounding_bound(len(seq.values), ROW_L1_BOUND, len(f.values), f_l1)
    return SolutionSnapshot(t, convolve(seq, f), 0.0, trunc_error)


def _l1_bound(f: LatticeSequence) -> float:
    """An upper bound on ||f||_1 from one NumPy sum of |f|; where that bound is not finite, ``lp_norm(f, 1.0)``.

    A sum of n nonnegative floats in any order is at least (1 - gamma_(n-1)) times the exact one (Higham,
    Accuracy and Stability of Numerical Algorithms, 4.2), and 1 / (1 - gamma_(n-1)) <= 1 + gamma_(2n) - (n + 1) u,
    which leaves room for the roundings of gamma and of 1 + gamma; rounding the product up covers its own.
    Data holding a NaN or an infinity raise ValueError, so no certificate is formed from them.  ``lp_norm``'s value
    is correctly rounded and may lie below the exact norm, so it is rounded up one ulp unless fsum finds it exact;
    where that passes binary64, as where ``lp_norm`` does, OverflowError names the norm.
    """
    with np.errstate(over="ignore"):  # a sum past binary64 is inf, and lp_norm names it
        bound = math.nextafter(float(np.abs(f.values).sum()) * (1.0 + _gamma(2 * len(f.values))), math.inf)
    if bound < math.inf:
        return bound
    _check_finite(f)
    norm = lp_norm(f, 1.0)
    if math.fsum(memoryview(np.append(np.abs(f.values), -norm))) != 0.0:
        norm = math.nextafter(norm, math.inf)
        if norm == math.inf:
            raise OverflowError(f"the l1 norm of a sequence on {len(f.values)} sites exceeds binary64 range")
    return norm


def _check_finite(f: LatticeSequence) -> None:
    """Refuse data holding a NaN or an infinity, so that no certificate is formed from them."""
    if not np.isfinite(f.values).all():
        raise ValueError(f"the data on {len(f.values)} sites hold a NaN or an infinity")


def _mesh(g: ForcingSpec, t: float, tol: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Nodes, weights, quadrature bound and node-displacement bound of the a-priori mesh.

    F(s) = a(s) (G(r) * phi), r = t - s, with |a^(i)(s)| = |A| (gamma)_i (1+s)^(-gamma-i)
    decreasing, and d^j/ds^j G(r) * phi = (-1)^j Delta^j G(r) * phi (heat equation) of l1 norm
    at most ||Delta^j phi||_1 and, as Delta^j G(r) = (Delta G(r/j))^{*j} and ||Delta G(r)||_1 <=
    ||grad G(r/2)||_1^2 = 4 G(r/2, 0)^2 <= pi / (2r) (e^-x I_0(x) <= sqrt(pi / (8x))), at most
    (pi j / (2r))^j ||phi||_1.  Leibniz bounds ||F^(16)||_1 on [s0, s1] by M, and the panel's error
    by _C8 h^17 M (the rule's Peano kernel has one sign).  A panel is the wider of two with _C8 h^17 M
    <= tol h / t: the widest for M from the first bound, the widest to end by (t + s0) / 2 for both.
    Rounded nodes stay in [s0, s1] within 4u s1 of the Gauss nodes, their kernel times within
    5u s1 + u (t - s0), which moves a panel's sum by its term in moves.
    """
    norms = _laplacian_norms(g.spatial.values)
    rising = itertools.accumulate(range(16), lambda r, i: r * (g.gamma + i), initial=1)  # (gamma)_i, as math.prod
    leibniz = [(math.comb(16, i) * r, norms[16 - i], 16 - i) for i, r in enumerate(rising)]  # C(16, i) (gamma)_i
    at_t = [p * n for p, n, _ in leibniz]  # the first bound's terms, before y^i
    scale = abs(g.amplitude) * (1.0 + _gamma(math.ceil(g.gamma) + 192))  # |A|, past rounding in each bound
    ends, quad, moves, u = [0.0], [], [], 2.0**-53
    while ends[-1] < t:
        if 8 * len(ends) > _MAX_INTEGRAND_EVALS:
            raise QuadratureBudgetError(f"the mesh needs more than {_MAX_INTEGRAND_EVALS} nodes")
        s0, y, c = ends[-1], 1.0 / (1.0 + ends[-1]), 0.5 * (t + ends[-1])  # t - c is exact
        d = math.pi / (2.0 * (t - c)) if c < t else 4.0  # ||Delta^j phi||_1 <= 4^j ||phi||_1 caps j d
        powers, weight, best = [y**i for i in range(17)], scale * (1.0 + s0) ** -g.gamma, (s0, 0.0)
        decay = [p * min(n, norms[0] * min(j * d, 4.0) ** j) for p, n, j in leibniz]
        for end, terms in ((t, at_t), (c, decay)):
            m = weight * sum(map(float.__mul__, terms, powers))
            if not math.isfinite(m):
                raise ValueError(_UNBOUNDED)
            h = (tol / t / _C8 / m) ** 0.0625 if m else math.inf
            best = max(best, (s0 + h if s0 + h < end else end, m))
        (s1, m), r = best, t - best[0] - 6.0 * u * t  # r is below every kernel time in the panel
        ends.append(s1)
        try:
            quad.append(_C8 * (s1 - s0) ** 17 * m)
        except OverflowError:  # h^17 past binary64
            panel = f"[{s0!r}, {s1!r}] at t={t!r}"
            raise OverflowError(f"the quadrature bound of the panel {panel} exceeds binary64 range") from None
        rate = min(norms[1], math.pi * norms[0] / (2.0 * r)) if r > 0.0 else norms[1]  # ||G(r) * Delta phi||_1
        move = 4.0 * u * s1 * g.gamma * y * norms[0] + (5.0 * u * s1 + u * (t - s0)) * rate
        moves.append((s1 - s0) * (1.0 + s0) ** -g.gamma * move)
    e = np.array(ends)
    half, mid = 0.5 * (e[1:] - e[:-1]), 0.5 * (e[1:] + e[:-1])
    nodes = np.clip(mid[:, None] + half[:, None] * _NODES, e[:-1, None], e[1:, None]).ravel()
    weights = (half[:, None] * _WEIGHTS).ravel()
    return nodes, weights, math.nextafter(math.fsum(quad), math.inf), math.nextafter(scale * math.fsum(moves), math.inf)


def duhamel(g: ForcingSpec | None, t: float, eps: float = 1e-10) -> SolutionSnapshot:
    """Forced part int_0^t (W_{t-s} g(s, .)) ds of the mild solution; zero for g None.

    The rule's sum is A (K * phi), K = sum_i c_i G(r_i) with c_i = w_i (1 + s_i)^-gamma and r_i = t - s_i.
    K on the frame |n| <= width is one inverse FFT of its symbol sum_i c_i exp(-4 r_i sin^2(theta / 2)),
    sampled at theta_k = 2 pi k / M; then one convolution with phi, and one scaling by A.
    """
    if not (0.0 < t < math.inf and eps > 0.0):
        raise ValueError(f"t must be positive and finite and eps positive, got t={t!r}, eps={eps!r}")
    if g is None or g.amplitude == 0.0:
        return SolutionSnapshot(t=t, u=LatticeSequence(0, np.array([0.0])), quad_error=0.0, trunc_error=0.0)

    l1 = lp_norm(g.spatial, 1.0)  # ||phi||_1, so int_0^t ||g(s, .)||_1 ds = |A| ||phi||_1 int_0^t (1 + s)^-gamma ds
    profile = math.log1p(t) if g.gamma == 1.0 else math.expm1((1.0 - g.gamma) * math.log1p(t)) / (1.0 - g.gamma)
    g_l1 = abs(g.amplitude) * l1 * profile
    if not math.isfinite(g_l1):
        raise ValueError(f"int_0^t ||g(s, .)||_1 ds is not finite at t={t!r}")
    # The margin absorbs rounding in the panel widths, so quad_error <= eps / 2.
    nodes, weights, quad_error, shift = _mesh(g, t, 0.5 * eps * (1.0 - 2.0**-30))
    kernel_eps = max(1e-16, min(1e-12, 0.5 * eps / max(g_l1, 1e-300)))
    width = heat_kernel(t, kernel_eps).window + 2
    phi, n, amp = g.spatial.values, len(nodes), abs(g.amplitude)
    # K is formed from the profile (1 + s)^-gamma alone, whose rule sums to at most t; A scales the result once.
    c = np.array([w * g.temporal(s) for s, w in zip(nodes.tolist(), weights.tolist())]) / g.amplitude
    r = t - nodes  # the kernel times, whose rounding ``shift`` covers
    # M = 2^j >= 2 width + 2, doubled until the aliased mass is below u: the transform returns
    # sum_j K(n + jM), and for |n| <= width the terms j != 0 lie beyond L = M - width, where G(r) for r <= t
    # holds at most 2 exp(-L^2 / (2 (2t + L/3))) (Bernstein, as in ``bessel._start_index``).
    size = 1 << (2 * width + 1).bit_length()
    while True:
        reach = size - width
        alias = 2.0 * math.exp(-reach * reach / (4.0 * t + reach / 1.5) * (1.0 - 2.0**-40))  # rounded up
        if alias <= 2.0**-53:
            break
        size *= 2
    # Each symbol term c_i exp(x), x = -4 r_i sin^2(theta_k / 2), is off by at most rate |c_i| exp(x / 2), with
    # rate = gamma_(ceil(log2 n) + 7 + 6 _LIBM_ULPS): exp and sin within _LIBM_ULPS, the argument within
    # eta = (5 + 4 _LIBM_ULPS) u (|x| e^x eta <= e^(x/2) eta), the product, and the pairwise sum over the nodes.
    # So by Minkowski the symbol's error, in l2 over the M points and over sqrt(M), is at most
    # rate * sum_i |c_i| ||exp(-2 r_i sin^2)||, and the symbol itself at most sum_i |c_i| ||exp(-4 r_i sin^2)||
    # (``_symbol_l2``).  Inverting, the FFT adds at most log2(M) eta' / (1 - log2(M) eta') of the exact
    # inverse's l2 norm (Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2, with
    # eta' = mu + gamma_4 (sqrt(2) + mu) and mu = _TWIDDLE), and l1 on the frame is at most sqrt(2 width + 1)
    # l2.  Underflow, which no relative term covers, in units of 2^-1073 per theta_k: exp, the argument and
    # the product of each term, and every operation of the FFT, generously.
    a = math.nextafter(exact_sum(np.abs(c)), math.inf)  # sum |c_i|
    spread, height = (exact_sum(np.abs(c * _symbol_l2(r, size, lam))) * (1.0 + 2.0**-40) for lam in (4.0, 8.0))
    symbol = _gamma((n - 1).bit_length() + 7 + 6 * _LIBM_ULPS) * spread + math.ldexp(4.0 * a + n, -1073)
    levels = size.bit_length() - 1
    eta = _TWIDDLE + _gamma(4) * (math.sqrt(2.0) + _TWIDDLE)
    fft = levels * eta / (1.0 - levels * eta) * (height + symbol) + math.ldexp(4.0 * size, -1073)
    frame = alias * a + math.sqrt(2 * width + 1) * (symbol + fft)
    # Then, all times |A|: the mass of K outside the frame (at most that of G(t), as G(t) = G(t - r) * G(r)
    # for r <= t, and b_n is symmetric and decreasing in |n|); the relative rounding of c_i (w_i, 1 + s_i, pow,
    # the products with A and w_i, and the division by A; gamma's count absorbs the rounding of this formula);
    # the convolution with phi; and the scaling by A, of a sequence of l1 norm at most ``scaled``.  Then the
    # nodes' shift, and underflow: the power, A and w_i put (|A| w_i + w_i + 1) ulp(0.0) into A c_i, the
    # division one more, scaled by |A|, and the scaling one per output.
    phi_l1 = math.nextafter(l1, math.inf)
    conv = rounding_bound(2 * width + 1, a + frame, len(phi), phi_l1)
    scaled = (a + frame) * phi_l1 + conv
    core = (kernel_eps + _gamma(math.ceil(g.gamma) + 10)) * a * phi_l1 + frame * phi_l1 + conv + 2.0**-53 * scaled
    ulps = (amp + 1.0) * (t + n) * phi_l1 + 2 * width + len(phi)
    trunc_error = math.nextafter(amp * core + shift + math.ldexp(ulps, -1073), math.inf)
    if trunc_error > eps:
        raise QuadratureBudgetError(f"truncation and rounding alone bound the error by {trunc_error:.3g} > eps")
    values = np.fft.irfft(_symbol(c, r, size), size)  # sum_j K(n + jM) at n mod M
    u = g.amplitude * np.convolve(np.concatenate((values[size - width :], values[: width + 1])), phi)
    return SolutionSnapshot(t, LatticeSequence._own(g.spatial.offset - width, u), quad_error, trunc_error)


def _symbol_l2(r: np.ndarray, size: int, lam: float) -> np.ndarray:
    """Upper bounds on sqrt((1/M) sum_{k mod M} exp(-lam r sin^2(pi k / M))), M = size, one per r.

    For |k| <= M/8, sin^2(pi k / M) >= 0.9496 (pi k / M)^2, as sin(x) / x decreases, and by Poisson
    summation sum_{k in Z} exp(-alpha k^2) <= sqrt(pi / alpha) (1 + 2 / expm1(pi^2 / alpha)); each other k,
    fewer than M of them, gives at most exp(-0.1464 lam r), as sin^2(pi / 8) > 0.1464.  The roundings of
    this formula are the caller's.
    """
    r = np.maximum(r, 1e-280)  # below it the bound is 1 anyway, and nothing overflows
    lc = lam * 0.9496
    gauss = (1.0 + 2.0 / np.expm1(np.minimum(700.0, size * size / (lc * r)))) / np.sqrt(lc * math.pi * r)
    return np.sqrt(np.minimum(1.0, gauss + np.exp(-0.1464 * lam * r)))


def _symbol(c: np.ndarray, r: np.ndarray, size: int) -> np.ndarray:
    """sum_i c_i exp(-4 r_i sin^2(pi k / size)) for k = 0 .. size / 2, the symbol of sum_i c_i G(r_i).

    It is formed in blocks of frequencies whose outer product with the nodes holds at most _BLOCK
    entries, and each block's terms are summed over the nodes in a pairwise tree of depth ceil(log2 n).
    """
    half = np.sin(np.pi * (np.arange(size // 2 + 1) / size))
    x = -4.0 * r
    symbol = np.empty(len(half))
    step = max(1, _BLOCK // len(c))
    for k in range(0, len(half), step):
        terms = np.multiply.outer(x, np.square(half[k : k + step]))
        np.exp(terms, out=terms)
        terms *= c[:, None]
        while len(terms) > 1:  # the upper half of the rows onto the lower
            rows = (len(terms) + 1) // 2
            terms[: len(terms) - rows] += terms[rows:]
            terms = terms[:rows]
        symbol[k : k + step] = terms[0]
    return symbol


def solve(f: LatticeSequence, g: ForcingSpec | None, t: float, eps: float = 1e-10) -> SolutionSnapshot:
    """Full mild solution u = u_f + u_g; certified error fields add.  At t = 0 it is u_f = f."""
    if g is None:
        return evolve(f, t, eps)
    check_eps(eps, parts=2)  # each part gets eps / 2, and a refusal quotes the eps given
    hom = evolve(f, t, eps / 2.0)
    if t == 0.0:
        return hom
    forced = duhamel(g, t, eps / 2.0)
    u = add_sequences(hom.u, forced.u)
    return SolutionSnapshot(t, u, hom.quad_error + forced.quad_error, hom.trunc_error + forced.trunc_error)

