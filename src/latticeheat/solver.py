"""Mild solutions of the forced lattice heat equation.

u(t, n) = (G(t, .) * f)(n) + int_0^t (G(t - s, .) * g(s, .))(n) ds.

The homogeneous part is one windowed convolution with the kernel slice.
The Duhamel part is a composite 8-point Gauss-Legendre rule on a mesh fixed
before any kernel row, from a bound on the integrand's 16th derivative that
the heat equation and the kernel's decay give; the error budget is split
evenly between quadrature and kernel truncation.  Each certificate that
covers a convolution adds its a-priori rounding bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import LatticeSequence, _l1, _laplacian, add_sequences, heat_kernel, lp_norm, read_sequence_csv

__all__ = [
    "ForcingSpec",
    "SolutionSnapshot",
    "convolve",
    "rounding_bound",
    "evolve",
    "duhamel",
    "solve",
    "QuadratureBudgetError",
    "KernelFrameError",
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


class QuadratureBudgetError(ArithmeticError):
    """The quadrature cannot meet the requested tolerance within its node budget."""


class KernelFrameError(ArithmeticError):
    """A node's kernel row is wider than the frame fixed from G(t, .)."""


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
            raise ValueError(f"unsupported forcing kind in {path}: {kind!r}")
        missing = [key for key in ("spatial", "gamma", "amplitude") if key not in spec]
        if missing:
            raise ValueError(f"{path}: separable forcing needs key(s) {', '.join(missing)}")
        for key, convert in (("spatial", path.parent.joinpath), ("gamma", _json_number), ("amplitude", _json_number)):
            try:  # an absolute spatial path replaces the parent
                spec[key] = convert(spec[key])
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{path}: key {key} has invalid value {spec[key]!r}") from None
        return ForcingSpec(read_sequence_csv(spec["spatial"]), spec["gamma"], spec["amplitude"])

    def temporal(self, s: float) -> float:
        return self.amplitude * (1.0 + s) ** (-self.gamma)

    def l1_time_integral(self, t: float) -> float:
        """int_0^t ||g(s, .)||_1 ds in closed form."""
        profile = math.log1p(t) if self.gamma == 1.0 else math.expm1((1.0 - self.gamma) * math.log1p(t)) / (1.0 - self.gamma)
        return abs(self.amplitude) * lp_norm(self.spatial, 1.0) * profile


@dataclass(frozen=True)
class SolutionSnapshot:
    """Windowed solution at time t with certified l^1 error bounds."""

    t: float
    u: LatticeSequence
    quad_error: float
    trunc_error: float


def convolve(a: LatticeSequence, b: LatticeSequence) -> LatticeSequence:
    """Direct discrete convolution over the joint support; see ``rounding_bound``."""
    return LatticeSequence(a.offset + b.offset, np.convolve(a.values, b.values))


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


def evolve(f: LatticeSequence, t: float, eps: float = 1e-12) -> SolutionSnapshot:
    """Homogeneous evolution u_f(t, .) = G(t, .) * f with certified truncation."""
    kernel = heat_kernel(t, eps)  # which checks t and eps at t = 0 too
    if t == 0.0:
        return SolutionSnapshot(t=0.0, u=f, quad_error=0.0, trunc_error=0.0)
    return _evolve(f, t, kernel.to_sequence(), kernel.tail_mass)


def _evolve(f: LatticeSequence, t: float, seq: LatticeSequence, tail_mass: float) -> SolutionSnapshot:
    """``evolve`` with G(t, .) given unfolded, and its tail mass; ||f||_1 is summed once for both terms."""
    f_l1 = lp_norm(f, 1.0)
    trunc_error = tail_mass * f_l1 + rounding_bound(len(seq.values), lp_norm(seq, 1.0), len(f.values), f_l1)
    return SolutionSnapshot(t, convolve(seq, f), 0.0, trunc_error)


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
    norms, err, v = [], 0.0, g.spatial.values  # ||Delta^j phi||_1 rounded up; a step rounds twice
    try:
        with np.errstate(over="raise"):  # as in lp_norm: a Laplacian, or fsum's running sum, past binary64
            for j in range(17):
                v = _laplacian(v) if j else v
                l1 = _l1(v)
                norms.append(math.nextafter(l1 + err, math.inf))
                err = 4.0 * err + 4.0 * _gamma(3) * l1
    except (OverflowError, FloatingPointError):
        raise ValueError(_UNBOUNDED) from None
    poch = [math.comb(16, i) * math.prod(g.gamma + j for j in range(i)) for i in range(17)]
    scale = abs(g.amplitude) * (1.0 + _gamma(math.ceil(g.gamma) + 192))  # |A|, past rounding in each bound
    ends, quad, moves, u = [0.0], [], [], 2.0**-53
    while ends[-1] < t:
        if 8 * len(ends) > _MAX_INTEGRAND_EVALS:
            raise QuadratureBudgetError(f"the mesh needs more than {_MAX_INTEGRAND_EVALS} nodes")
        s0, y, c = ends[-1], 1.0 / (1.0 + ends[-1]), 0.5 * (t + ends[-1])  # t - c is exact
        d = math.pi / (2.0 * (t - c)) if c < t else 4.0  # ||Delta^j phi||_1 <= 4^j ||phi||_1 caps j d
        best = (s0, 0.0)
        for end, bounds in ((t, norms), (c, [min(n, norms[0] * min(j * d, 4.0) ** j) for j, n in enumerate(norms)])):
            m = scale * (1.0 + s0) ** -g.gamma * sum(p * bounds[16 - i] * y**i for i, p in enumerate(poch))
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
    """Forced part int_0^t (W_{t-s} g(s, .)) ds of the mild solution; zero for g None."""
    if not (0.0 < t < math.inf and eps > 0.0):
        raise ValueError(f"t must be positive and finite and eps positive, got t={t!r}, eps={eps!r}")
    if g is None or g.amplitude == 0.0:
        return SolutionSnapshot(t=t, u=LatticeSequence(0, np.array([0.0])), quad_error=0.0, trunc_error=0.0)

    g_l1 = g.l1_time_integral(t)
    if not math.isfinite(g_l1):
        raise ValueError(f"int_0^t ||g(s, .)||_1 ds is not finite at t={t!r}")
    # The margin absorbs rounding in the panel widths, so quad_error <= eps / 2.
    nodes, weights, quad_error, shift = _mesh(g, t, 0.5 * eps * (1.0 - 2.0**-30))
    kernel_eps = max(1e-16, min(1e-12, 0.5 * eps / max(g_l1, 1e-300)))
    width = heat_kernel(t, kernel_eps).window + 2
    # Truncation, then rounding (Higham, 3.1) in each node's convolution (rows of at most 2 width + 1 points and
    # unit mass), temporal factor, weight, two products and the sums over a panel's 8 nodes and over the panels.
    # The rule underestimates int_0^t |a| = g_l1 / ||phi||_1, as every even derivative of a is positive.
    k = min(2 * width + 1, len(g.spatial.values)) + math.ceil(g.gamma) + 17 + len(nodes) // 8
    # Underflow, which no relative term covers: a result below 2^-1022 is off by up to one ulp(0.0), charged twice
    # (2^-1073) to absorb the rounding of the weights' sum and of this count.  Node i adds c_i (row * phi) with c_i =
    # w_i A (1 + s_i)^-gamma, and sum |c_i| <= |A| t = a_t.  Its (2 width + 1) len(phi) row products are scaled by |c_i|,
    # each frame entry's scaling product underflows once, and the power, A and w_i put (|A| w_i + w_i + 1) ulp(0.0)
    # into c_i, which scales a convolution of l1 norm at most ||phi||_1.
    phi, a_t, n = g.spatial.values, abs(g.amplitude) * t, len(nodes)
    ulps = (2 * width + 1) * len(phi) * a_t + (len(phi) + 2 * width) * n + (a_t + t + n) * _l1(phi)
    trunc_error = math.nextafter((kernel_eps + _gamma(k)) * g_l1 + shift + math.ldexp(ulps, -1073), math.inf)
    if trunc_error > eps:
        raise QuadratureBudgetError(f"truncation and rounding alone bound the error by {trunc_error:.3g} > eps")
    acc, panel = np.zeros((2, len(phi) + 2 * width))
    for i, (s, w) in enumerate(zip(nodes.tolist(), weights.tolist())):
        ks = heat_kernel(t - s, kernel_eps)
        if ks.window > width:
            raise KernelFrameError(f"kernel window {ks.window} at s={s!r} exceeds the frame half-width {width}")
        j = width - ks.window  # where this node's convolution starts in the frame
        v = ks.values  # convolve(ks.to_sequence(), g.spatial) on the bare arrays
        panel[j : len(acc) - j] += (w * g.temporal(s)) * np.convolve(np.concatenate((v[:0:-1], v)), phi)
        if i % 8 == 7:  # a panel's sum joins the frame
            acc, panel = acc + panel, np.zeros_like(acc)
    return SolutionSnapshot(t, LatticeSequence(g.spatial.offset - width, acc), quad_error, trunc_error)


def solve(f: LatticeSequence, g: ForcingSpec | None, t: float, eps: float = 1e-10) -> SolutionSnapshot:
    """Full mild solution u = u_f + u_g; certified error fields add.  At t = 0 it is u_f = f."""
    if g is None:
        return evolve(f, t, eps)
    hom = evolve(f, t, eps / 2.0)
    if t == 0.0:
        return hom
    forced = duhamel(g, t, eps / 2.0)
    u = add_sequences(hom.u, forced.u)
    return SolutionSnapshot(t, u, hom.quad_error + forced.quad_error, hom.trunc_error + forced.trunc_error)

