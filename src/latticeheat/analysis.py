"""Empirical verification harness for the decay and large-time theorems.

Every check reduces to a ``DecayReport``: a (t, value) series with a
least-squares slope on log-log axes.  Proven rates are asserted by the
test suite at the slope level only, since the theorems leave their
constants unspecified.  A point enters a fit only if its certified
numerical error is below value / 100, so truncation noise cannot
contaminate slopes near vanishing profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    LatticeSequence,
    add_sequences,
    discrete_laplacian,
    forward_difference,
    heat_kernel,
    lp_norm,
)
from .solver import ForcingSpec, convolve, duhamel, evolve, rounding_bound

__all__ = [
    "DecayReport",
    "fit_loglog",
    "kernel_decay",
    "l2_optimality",
    "large_time_profile",
    "fourier_symbol_rows",
    "fourier_symbol_check",
    "higher_difference_decay",
    "dyadic_grid",
]

# Difference operators applied to G per quantity, and the factor that
# carries the kernel's tail mass through them.
_QUANTITY_OPERATORS = {
    "G": ((), 1.0),
    "grad": ((forward_difference,), 2.0),
    "laplacian": ((discrete_laplacian,), 4.0),
}
KERNEL_QUANTITIES = tuple(_QUANTITY_OPERATORS)


@dataclass(frozen=True)
class DecayReport:
    """A (t, value) series with its fitted log-log slope."""

    label: str
    pairs: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    max_residual: float
    t_range: tuple[float, float]
    dropped: tuple[tuple[float, float], ...] = ()
    extras: dict = field(default_factory=dict)


def dyadic_grid(t_min: float = 16.0, t_max: float = 1024.0) -> list[float]:
    """Times t_min, 2 t_min, ... up to t_max inclusive; needs 0 < t_min <= t_max < inf."""
    top = t_max * (1.0 + 1e-12)  # inf also for t_max within 1e-12 of the largest float, so refused too
    if not (0.0 < t_min <= t_max and top < math.inf):
        raise ValueError(f"grid bounds must satisfy 0 < t_min <= t_max < inf, got {t_min!r}, {t_max!r}")
    grid = []
    t = t_min
    while t <= top:
        grid.append(t)
        t *= 2.0
    return grid


def fit_loglog(pairs, label: str, dropped=(), extras=None) -> DecayReport:
    """Unweighted least squares of log(value) on log(t)."""
    pairs = tuple((float(t), float(v)) for t, v in pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(t2 <= t1 for (t1, _), (t2, _) in zip(pairs, pairs[1:])):
        raise ValueError("pairs must be sorted by strictly increasing t")
    if any(v <= 0.0 for _, v in pairs):
        raise ValueError("all values must be positive for a log-log fit")
    log_t = np.log([t for t, _ in pairs])
    log_v = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    residuals = log_v - (slope * log_t + intercept)
    return DecayReport(
        label=label,
        pairs=pairs,
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.max(np.abs(residuals))),
        t_range=(pairs[0][0], pairs[-1][0]),
        dropped=tuple(dropped),
        extras=extras or {},
    )


def _gate(points, label: str, extras=None) -> DecayReport:
    kept = [(t, v) for t, v, err in points if v > 0.0 and err < v / 100.0]
    dropped = [(t, v) for t, v, err in points if not (v > 0.0 and err < v / 100.0)]
    if len(kept) < 2:
        raise ArithmeticError(f"{label}: fewer than two points survived error gating")
    return fit_loglog(kept, label, dropped=dropped, extras=extras)


def _difference_points(operators, tail_factor: float, p: float, t_grid, eps: float):
    """(t, ||D G(t, .)||_p, certified error) with D the composed operators."""
    points = []
    for t in sorted(t_grid):
        kernel = heat_kernel(t, eps)
        seq = kernel.to_sequence()
        for op in operators:
            seq = op(seq)
        points.append((t, lp_norm(seq, p), tail_factor * kernel.tail_mass))
    return points


def kernel_decay(p: float, quantity: str, t_grid, eps: float = 1e-12) -> DecayReport:
    """Decay of ||quantity of G(t, .)||_p on the time grid.

    Proven exponents: -(1/2)(1 - 1/p) for the kernel, an extra -1/2 per
    difference order up to the Laplacian.
    """
    if quantity not in _QUANTITY_OPERATORS:
        raise ValueError(f"quantity must be one of {KERNEL_QUANTITIES}, got {quantity!r}")
    t_grid = sorted(t_grid)
    if len(t_grid) < 6:
        raise ValueError("need at least six grid points for a stable slope")
    points = _difference_points(*_QUANTITY_OPERATORS[quantity], p, t_grid, eps)
    for t, value, _ in points:
        if value == 0.0:
            raise ArithmeticError(f"norm underflowed to zero at t={t}")
    return _gate(points, label=f"kernel-decay[{quantity}, p={p}]")


def l2_optimality(f: LatticeSequence, t_grid, eps: float = 1e-12) -> DecayReport:
    """Slope of ||u_f(t)||_2 for data with nonzero mass; rate -1/4 is sharp.

    ``extras`` carries the sandwich ratios: ``ratio_lower`` is
    t^{1/4} ||u_f||_2 / |sum f| (stays above a fixed c > 0) and
    ``ratio_upper`` is t^{1/4} ||u_f||_2 / ||f||_1 (stays bounded).
    """
    mass = f.mass()
    if abs(mass) <= 1e-14:
        raise ValueError("l2 optimality requires nonzero total mass")
    f_l1 = lp_norm(f, 1.0)
    t_grid = sorted(t_grid)
    points = []
    lower, upper = [], []
    for t in t_grid:
        snap = evolve(f, t, eps)
        value = lp_norm(snap.u, 2.0)
        points.append((t, value, snap.trunc_error))
        lower.append(value * t**0.25 / abs(mass))
        upper.append(value * t**0.25 / f_l1)
    extras = {"ratio_lower": tuple(lower), "ratio_upper": tuple(upper)}
    return _gate(points, label="l2-optimality", extras=extras)


def large_time_profile(
    f: LatticeSequence | None,
    g: ForcingSpec | None,
    p: float,
    t_grid,
    eps: float = 1e-12,
) -> DecayReport:
    """Scaled distance t^{(1/2)(1 - 1/p)} ||u - M G(t, .)||_p over the grid.

    Exactly one of ``f`` (homogeneous profile, needs nonzero mass) or ``g``
    (forced profile, needs gamma > 1) must be given.  The reference M G
    shares the window of u so the difference is index-aligned.
    """
    if (f is None) == (g is None):
        raise ValueError("give exactly one of f or g; a zero forcing counts as no g")
    weight = lambda t: t ** (0.5 * (1.0 - (0.0 if p == math.inf else 1.0 / p)))
    if f is not None:
        m = f.mass()
        if abs(m) <= 1e-14:
            raise ValueError("homogeneous profile requires nonzero mass")
        f_l1 = lp_norm(f, 1.0)
    elif g.gamma <= 1.0:
        raise ValueError("forced profile requires gamma > 1")
    else:
        m = g.amplitude * g.spatial.mass() / (g.gamma - 1.0)
    points = []
    for t in sorted(t_grid):
        kernel = heat_kernel(t, eps)
        seq = kernel.to_sequence()
        if f is not None:
            u, u_err = convolve(seq, f), kernel.tail_mass * f_l1 + rounding_bound(seq, f)
        else:
            snap = duhamel(g, t, eps=max(1e-8, eps))
            u, u_err = snap.u, snap.quad_error + snap.trunc_error
        diff = add_sequences(u, seq, 1.0, -m)
        points.append((t, weight(t) * lp_norm(diff, p), weight(t) * (u_err + kernel.tail_mass * abs(m))))
    report = _gate(points, label=f"large-time[{'u_f' if f is not None else 'u_g'}, p={p}]")
    values = [v for _, v in report.pairs]
    monotone = all(b <= a for a, b in zip(values[1:], values[2:]))
    report.extras["monotone_from_second"] = monotone
    report.extras["first_value"] = values[0]
    report.extras["last_value"] = values[-1]
    return report


def fourier_symbol_rows(t: float, grid_size: int = 64, eps: float = 1e-12) -> list[tuple[float, float, float]]:
    """(theta, transform of G(t, .), exp(-4 t sin^2(theta/2))) on the theta grid.

    The transform is the direct cosine sum over the window; the imaginary
    part vanishes by symmetry.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    kernel = heat_kernel(t, eps)
    n = np.arange(1, kernel.window + 1)
    rows = []
    for j in range(grid_size):
        theta = -math.pi + 2.0 * math.pi * (j + 1) / grid_size
        transform = float(kernel.values[0] + 2.0 * math.fsum(kernel.values[1:] * np.cos(n * theta)))
        rows.append((theta, transform, math.exp(-4.0 * t * math.sin(theta / 2.0) ** 2)))
    return rows


def fourier_symbol_check(t: float, grid_size: int = 64, eps: float = 1e-12) -> float:
    """Max grid error of the transform of G(t, .) against its symbol."""
    return max(abs(transform - symbol) for _, transform, symbol in fourier_symbol_rows(t, grid_size, eps))


def higher_difference_decay(order: int, p: float, t_grid, eps: float = 1e-12) -> DecayReport:
    """Decay of the order-times iterated forward difference of the kernel.

    Orders 1 and 2 reproduce proven rates; for order >= 3 the rate
    -(1/2)(1 - 1/p) - order/2 is an open conjecture and the report is
    flagged experimental.
    """
    if not (1 <= order <= 6):
        raise ValueError("order must lie in 1..6")
    points = _difference_points((forward_difference,) * order, 2.0**order, p, t_grid, eps)
    extras = {"experimental": order >= 3, "order": order}
    return _gate(points, label=f"difference-decay[order={order}, p={p}]", extras=extras)
