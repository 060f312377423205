"""Certificates against independent references.

Each case prints the ratio of the measured error to its certificate
(``pytest -s`` shows them), so a loose or nearly violated bound is visible
and not only a failed one.
"""

import math

import numpy as np
import pytest

from latticeheat.kernel import LatticeSequence, add_sequences, heat_kernel, lp_norm
from latticeheat.moments import heat_kernel_for_moment, moment_polynomials, poly_eval, weighted_tail_bound
from latticeheat.solver import ForcingSpec, duhamel

integrate = pytest.importorskip("scipy.integrate")
special = pytest.importorskip("scipy.special")

PHI = LatticeSequence.from_pairs({-1: 0.5, 0: 1.0, 1: 0.25, 2: -0.5, 3: 0.125})


def duhamel_reference(gamma: float, t: float) -> LatticeSequence:
    """int_0^t (1+s)^-gamma (G(t-s) * phi) ds by ``quad_vec``, with G from scipy's ``ive``.

    The window leaves out less than 1e-17 of every G(t-s) mass, and the
    requested 1e-12 sup-norm accuracy is far below every certificate checked.
    """
    half = heat_kernel(t, 1e-17).window + 10
    n = np.arange(-half, half + 1)

    def integrand(s: float) -> np.ndarray:
        return (1.0 + s) ** -gamma * np.convolve(special.ive(n, 2.0 * (t - s)), PHI.values)

    values, _ = integrate.quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=0.0, norm="max")
    return LatticeSequence(PHI.offset - half, values)


# t = 1000 at gamma 0.5, the largest rounding term, also checks the panels that the kernel's decay widens.
@pytest.mark.parametrize("gamma, t", [(g, t) for g in (0.5, 2.0, 6.0) for t in (0.5, 10.0, 100.0)] + [(0.5, 1000.0)])
def test_duhamel_certificate_covers_quad_vec(gamma, t):
    reference = duhamel_reference(gamma, t)
    for eps in (1e-3, 1e-5, 1e-7):
        snap = duhamel(ForcingSpec(PHI, gamma, 1.0), t, eps)
        distance = lp_norm(add_sequences(snap.u, reference, 1.0, -1.0), 1.0)
        certificate = snap.quad_error + snap.trunc_error
        print(f"duhamel gamma={gamma} t={t} eps={eps:g}: error/certificate = {distance / certificate:.3g}")
        assert snap.quad_error <= 0.5 * eps
        assert distance <= certificate


def test_weighted_tail_bound_covers_the_ive_tail():
    # At the rows the moment table picks (tol max(1e-12, 1e-10 p_k(2t)) for order 2k), against
    # 2 sum_{n > N} n^order ive(n, 2t) summed directly.  The bound is tight: the ratio reaches 0.989.
    polys = moment_polynomials(12)
    for t in (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        ratios = []
        for k in range(1, 13):
            row = heat_kernel_for_moment(t, 2 * k, max(1e-12, 1e-10 * poly_eval(polys[k], 2.0 * t)))
            bound = weighted_tail_bound(row, 2 * k)
            n = np.arange(row.window + 1, row.window + 65 + 8 * math.ceil(math.sqrt(2.0 * t)))
            terms = n.astype(float) ** (2 * k) * special.ive(n, 2.0 * t)
            tail = 2.0 * math.fsum(terms.tolist())
            assert terms[-1] <= 1e-20 * tail  # the sum reaches far enough past the window
            assert tail <= bound
            ratios.append(tail / bound)
        print(f"weighted tail t={t:g}, orders 2..24: tail/bound = " + " ".join(f"{r:.3f}" for r in ratios))
