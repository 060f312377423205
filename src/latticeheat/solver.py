"""Mild solutions of the forced lattice heat equation.

u(t, n) = (G(t, .) * f)(n) + int_0^t (G(t - s, .) * g(s, .))(n) ds.

The homogeneous part is one windowed convolution with the kernel slice;
the Duhamel part is adaptive composite Simpson over [0, t] on the
vector-valued integrand, with the error budget split evenly between
quadrature and kernel truncation.  Each certificate that covers a
convolution adds its a-priori rounding bound.  Near s = t the integrand
stays bounded by ||g(s, .)||_1 and W_0 = id is used exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import LatticeSequence, add_sequences, heat_kernel, lp_norm, read_sequence_csv

__all__ = [
    "ForcingSpec",
    "SolutionSnapshot",
    "convolve",
    "rounding_bound",
    "evolve",
    "duhamel",
    "solve",
    "conserved_quantities",
    "QuadratureBudgetError",
]

_MAX_INTEGRAND_EVALS = 40000
_MAX_DEPTH = 30


class QuadratureBudgetError(ArithmeticError):
    """Adaptive quadrature could not meet the requested tolerance."""


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
        spec = json.loads(path.read_text(encoding="utf-8"))
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
        for key, convert in (("spatial", path.parent.joinpath), ("gamma", float), ("amplitude", float)):
            try:  # an absolute spatial path replaces the parent
                spec[key] = convert(spec[key])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: key {key} has invalid value {spec[key]!r}") from None
        return ForcingSpec(read_sequence_csv(spec["spatial"]), spec["gamma"], spec["amplitude"])

    def temporal(self, s: float) -> float:
        return self.amplitude * (1.0 + s) ** (-self.gamma)

    def l1_time_integral(self, t: float) -> float:
        """int_0^t ||g(s, .)||_1 ds in closed form."""
        profile = math.log1p(t) if self.gamma == 1.0 else ((1.0 + t) ** (1.0 - self.gamma) - 1.0) / (1.0 - self.gamma)
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
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def rounding_bound(a: LatticeSequence, b: LatticeSequence) -> float:
    """A-priori bound on ||convolve(a, b) - a * b||_1 from binary64 rounding.

    An output is a dot product of n <= min(len a, len b) terms, off by at most
    gamma_n sum |a_j| |b_{i-j}| in any order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1); gamma_{n+1} and rounding up absorb the error of
    this formula, and one smallest subnormal per product covers underflow.
    """
    la, lb = len(a.values), len(b.values)
    bound = _gamma(min(la, lb) + 1) * lp_norm(a, 1.0) * lp_norm(b, 1.0)
    return math.nextafter(bound + la * lb * math.ulp(0.0), math.inf)


def evolve(f: LatticeSequence, t: float, eps: float = 1e-12) -> SolutionSnapshot:
    """Homogeneous evolution u_f(t, .) = G(t, .) * f with certified truncation."""
    if t == 0.0:
        return SolutionSnapshot(t=0.0, u=f, quad_error=0.0, trunc_error=0.0)
    kernel = heat_kernel(t, eps)
    seq = kernel.to_sequence()
    return SolutionSnapshot(t, convolve(seq, f), 0.0, kernel.tail_mass * lp_norm(f, 1.0) + rounding_bound(seq, f))


def _simpson(a: float, b: float, fa: np.ndarray, fm: np.ndarray, fb: np.ndarray) -> np.ndarray:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _refine(ev, lo, hi, flo, fmid, fhi, whole, local_tol, depth):
    """One adaptive Simpson step on [lo, hi], recursing into halves as needed."""
    mid = 0.5 * (lo + hi)
    fl = ev(0.5 * (lo + mid))
    fr = ev(0.5 * (mid + hi))
    left = _simpson(lo, mid, flo, fl, fmid)
    right = _simpson(mid, hi, fmid, fr, fhi)
    delta = left + right - whole
    err = float(np.sum(np.abs(delta))) / 15.0
    if err <= local_tol:
        return left + right + delta / 15.0, err
    if depth >= _MAX_DEPTH:
        msg = f"subdivision depth {_MAX_DEPTH} reached with local error {err:.3g} > {local_tol:.3g}"
        raise QuadratureBudgetError(msg)
    li, le = _refine(ev, lo, mid, flo, fl, fmid, left, local_tol / 2.0, depth + 1)
    ri, re = _refine(ev, mid, hi, fmid, fr, fhi, right, local_tol / 2.0, depth + 1)
    return li + ri, le + re


def _adaptive_simpson(fun, a: float, b: float, tol: float):
    evals = 0

    def ev(s: float) -> np.ndarray:
        nonlocal evals
        evals += 1
        if evals > _MAX_INTEGRAND_EVALS:
            raise QuadratureBudgetError(f"quadrature budget of {_MAX_INTEGRAND_EVALS} integrand evaluations exhausted")
        return fun(s)

    fa, fm, fb = ev(a), ev(0.5 * (a + b)), ev(b)
    whole = _simpson(a, b, fa, fm, fb)
    return _refine(ev, a, b, fa, fm, fb, whole, tol, 0)


def duhamel(g: ForcingSpec | None, t: float, eps: float = 1e-10) -> SolutionSnapshot:
    """Forced part int_0^t (W_{t-s} g(s, .)) ds of the mild solution; zero for g None."""
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    if g is None or g.amplitude == 0.0:
        return SolutionSnapshot(t=t, u=LatticeSequence(0, np.array([0.0])), quad_error=0.0, trunc_error=0.0)

    g_l1 = g.l1_time_integral(t)
    if not math.isfinite(g_l1):
        raise ValueError(f"int_0^t ||g(s, .)||_1 ds is not finite at t={t!r}")
    kernel_eps = max(1e-16, min(1e-12, 0.5 * eps / max(g_l1, 1e-300)))
    width = heat_kernel(t, kernel_eps).window + 2
    # Truncation, plus rounding in each node's convolution (unit-mass kernel
    # rows of at most 2 width + 1 points) and in its temporal factor.
    k = min(2 * width + 1, len(g.spatial.values)) + 2
    trunc_error = kernel_eps * g_l1 + math.nextafter(_gamma(k) * g_l1, math.inf)
    lo = g.spatial.offset - width
    length = len(g.spatial.values) + 2 * width

    def integrand(s: float) -> np.ndarray:
        out = np.zeros(length)
        if s >= t:
            conv = g.spatial
        else:
            ks = heat_kernel(t - s, kernel_eps)
            if ks.window > width:
                raise AssertionError("kernel window exceeded the precomputed frame")
            conv = convolve(ks.to_sequence(), g.spatial)
        out[conv.offset - lo : conv.offset - lo + len(conv.values)] = conv.values
        return g.temporal(s) * out

    integral, quad_error = _adaptive_simpson(integrand, 0.0, t, 0.5 * eps)
    return SolutionSnapshot(t=t, u=LatticeSequence(lo, integral), quad_error=quad_error, trunc_error=trunc_error)


def solve(f: LatticeSequence, g: ForcingSpec | None, t: float, eps: float = 1e-10) -> SolutionSnapshot:
    """Full mild solution u = u_f + u_g; certified error fields add."""
    if g is None:
        return evolve(f, t, eps)
    hom, forced = evolve(f, t, eps / 2.0), duhamel(g, t, eps / 2.0)
    u = add_sequences(hom.u, forced.u)
    return SolutionSnapshot(t, u, hom.quad_error + forced.quad_error, hom.trunc_error + forced.trunc_error)


def conserved_quantities(s: SolutionSnapshot) -> tuple[float, float, float]:
    """(mass, first moment, second moment) of the snapshot window."""
    return (s.u.mass(), s.u.moment(1), s.u.moment(2))
