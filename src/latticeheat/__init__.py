"""Discrete heat semigroup on the integer lattice Z.

Evaluates the kernel G(t, n) = exp(-2t) * I_n(2t) through exponentially
scaled modified Bessel functions, the even-moment polynomial family, mild
solutions with separable forcing, and empirical decay-rate reports.
"""

from .bessel import scaled_bessel_row, scaled_bessel_series, scaled_bessel_kummer
from .kernel import (
    KernelSlice,
    LatticeSequence,
    heat_kernel,
    forward_difference,
    discrete_laplacian,
    lp_norm,
)
from .moments import IntPolynomial, moment_polynomials, poly_eval, poly_real_roots, kernel_moment
from .solver import ForcingSpec, SolutionSnapshot, convolve, evolve, duhamel, solve
from .analysis import DecayReport, kernel_decay, l2_optimality, large_time_profile

__all__ = [
    "scaled_bessel_row",
    "scaled_bessel_series",
    "scaled_bessel_kummer",
    "KernelSlice",
    "LatticeSequence",
    "heat_kernel",
    "forward_difference",
    "discrete_laplacian",
    "lp_norm",
    "IntPolynomial",
    "moment_polynomials",
    "poly_eval",
    "poly_real_roots",
    "kernel_moment",
    "ForcingSpec",
    "SolutionSnapshot",
    "convolve",
    "evolve",
    "duhamel",
    "solve",
    "DecayReport",
    "kernel_decay",
    "l2_optimality",
    "large_time_profile",
]

__version__ = "0.1.0"
