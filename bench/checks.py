"""Checks of each workload's outputs, computed apart from the library.

Every check reads a digest (plain numbers, see ``workloads.py``) and returns
``None`` when the output passes or a one-line reason when it does not.  The
references are ``scipy.special.ive`` rows, ``numpy.convolve``, closed forms
and exact integer recursions; none of them calls into ``latticeheat`` and
none compares with a stored copy of earlier output.

Each check carries a corruption that the self-test (``selftest.py``)
applies to a clean digest to see the check reject it.

Tolerances are fixed here, before any run: rounding allowances are a
multiple of the binary64 unit roundoff times the number of terms summed.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
from scipy.special import ive

from workloads import KERNEL_EPS, MOMENT_ORDER, POLY_KMAX, QUANTITIES

QUANTITY_ORDER = {q: i for i, q in enumerate(QUANTITIES)}

U = 2.0**-53
# A computed slope must lie this close to the proven exponent; the same
# tolerance as acceptance criterion 6.
SLOPE_TOL = 0.03
# Relative agreement asked of recomputed norms and report values.  Forward
# differences of a row lose about sqrt(t) and t ulps to cancellation.
NORM_RTOL = 1e-8
ROOT_TOL = 1e-12


def _norm(x: np.ndarray, p: float) -> float:
    x = np.abs(x)
    if p == math.inf:
        return float(np.max(x)) if len(x) else 0.0
    if p == 1.0:
        return math.fsum(x)
    return math.fsum(x**p) ** (1.0 / p)


def _rounding(n: int, scale: float) -> float:
    return 8.0 * max(n, 1) * U * scale


def _full_row(t: float, half_width: int) -> np.ndarray:
    """G(t, n) for -half_width <= n <= half_width from scipy."""
    half = ive(np.arange(half_width + 1), 2.0 * t)
    return np.concatenate([half[:0:-1], half])


def _weighted_tail(t: float, half_width: int, order: int) -> float:
    """2 * sum_{n > half_width} n^order G(t, n), summed until negligible."""
    n = np.arange(half_width + 1, half_width + 64 + int(40.0 * math.sqrt(t + 1.0)))
    return 2.0 * math.fsum(n.astype(float) ** order * ive(n, 2.0 * t))


def _forward_difference(x: np.ndarray) -> np.ndarray:
    return np.diff(np.concatenate([[0.0], x, [0.0]]))


def _laplacian(x: np.ndarray) -> np.ndarray:
    return np.convolve(x, [1.0, -2.0, 1.0])


def _theory_slope(p: float, order: int) -> float:
    inv_p = 0.0 if p == math.inf else 1.0 / p
    return -0.5 * (1.0 - inv_p) - 0.5 * order


def _ls_slope(pairs) -> float:
    x = [math.log(t) for t, _ in pairs]
    y = [math.log(v) for _, v in pairs]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


# --------------------------------------------------------------------------
# Exact moment polynomials from the Skellam moment-cumulant recursion.


def skellam_moment_polys(k_max: int) -> list[list[int]]:
    """Integer coefficients of p_k(x) = E[X^{2k}], X ~ Skellam(t, t), x = 2t.

    Even cumulants of X are x and odd ones 0, so the raw moments obey
    m_n = sum_{j even} C(n-1, j-1) x m_{n-j}.
    """
    m: list[list[int]] = [[1]]
    for n in range(1, 2 * k_max + 1):
        coeffs = [0] * (n // 2 + 1)
        for j in range(2, n + 1, 2):
            c = math.comb(n - 1, j - 1)
            for i, a in enumerate(m[n - j]):
                coeffs[i + 1] += c * a
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        m.append(coeffs)
    return [m[2 * k] for k in range(k_max + 1)]


SKELLAM = skellam_moment_polys(POLY_KMAX)


def _poly_value(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# --------------------------------------------------------------------------
# kernel_rows


def kr_row(kind, t, d):
    ref = ive(np.arange(len(d["row"])), 2.0 * t)
    err = float(np.max(np.abs(d["row"] - ref)))
    if err > _rounding(len(ref), 1.0):
        return f"row differs from ive by {err:.3g} at t={t:g}"
    if "moment_row" in d:
        ref = ive(np.arange(len(d["moment_row"])), 2.0 * t)
        err = float(np.max(np.abs(d["moment_row"] - ref)))
        if err > _rounding(len(ref), 1.0):
            return f"moment slice differs from ive by {err:.3g} at t={t:g}"
    return None


def kr_mass(kind, t, d):
    row = d["row"]
    mass = row[0] + 2.0 * math.fsum(row[1:])
    allowed = d["tail_mass"] + _rounding(len(row), 1.0)
    if not abs(mass - 1.0) <= allowed:
        return f"|mass - 1| = {abs(mass - 1.0):.3g} > tail_mass + rounding {allowed:.3g} at t={t:g}"
    return None


def kr_norms(kind, t, d):
    g = _full_row(t, len(d["row"]) - 1)
    i = 0
    for seq in (g, _forward_difference(g), _laplacian(g)):
        for p in (1.0, 2.0, math.inf):
            ref, got = _norm(seq, p), d["norms"][i]
            if not abs(got - ref) <= NORM_RTOL * ref + 1e-300:
                return f"norm {i} is {got!r}, numpy on ive gives {ref!r} at t={t:g}"
            i += 1
    return None


def _moment_allowance(d, ref: float, order: int) -> float:
    # The slice was asked for an order-12 weighted tail below moment_tol.
    # Beyond the window n > W, so n^order <= n^12 / (W + 1)^(12 - order).
    shrink = float(d["moment_window"] + 1) ** (MOMENT_ORDER - order)
    return d["moment_tol"] / shrink + 1e-12 * abs(ref)


def kr_even_moments(kind, t, d):
    """Even moments against p_k(2t); k = 1 is the identity sum n^2 G = 2t."""
    if "moments" not in d:
        return None
    for k in range(0, MOMENT_ORDER // 2 + 1):
        ref = float(_poly_value(SKELLAM[k], Fraction(2.0 * t)))
        got = d["moments"][2 * k]
        if not abs(got - ref) <= _moment_allowance(d, ref, 2 * k):
            return f"moment of order {2 * k} is {got!r}, Skellam gives {ref!r} at t={t:g}"
    return None


def kr_odd_moments(kind, t, d):
    if "moments" not in d:
        return None
    n = np.arange(-d["moment_window"], d["moment_window"] + 1).astype(float)
    row = np.concatenate([d["moment_row"][:0:-1], d["moment_row"]])
    for order in range(1, MOMENT_ORDER + 1, 2):
        scale = math.fsum(np.abs(n) ** order * row)
        if not abs(d["moments"][order]) <= _rounding(len(n), scale):
            return f"odd moment of order {order} is {d['moments'][order]!r} at t={t:g}"
    return None


# --------------------------------------------------------------------------
# evolve_wide


def _evolve_reference(d):
    f = d["f"]
    half_width = (len(d["u"]) - len(f)) // 2
    return half_width, np.convolve(_full_row(d["t"], half_width), f)


def ev_points(kind, params, d):
    half_width, ref = _evolve_reference(d)
    if d["u_offset"] != d["f_offset"] - half_width or len(ref) != len(d["u"]):
        return "solution window does not match the kernel window"
    err = float(np.max(np.abs(d["u"] - ref)))
    allowed = _rounding(2 * half_width + 1, float(np.sum(np.abs(d["f"]))))
    if err > allowed:
        return f"points differ from numpy.convolve of ive by {err:.3g} > {allowed:.3g}"
    return None


def _moments_of(offset, values, order):
    n = np.arange(offset, offset + len(values)).astype(float)
    return math.fsum(n**order * values), math.fsum(np.abs(n) ** order * np.abs(values))


def ev_conservation(kind, params, d):
    f, u, t = d["f"], d["u"], d["t"]
    tail = d["trunc_error"] / max(math.fsum(np.abs(f)), 1e-300)
    half_width = (len(u) - len(f)) // 2
    terms = len(u) + 2 * half_width + 1
    for order in (0, 1, 2):
        mf, af = _moments_of(d["f_offset"], f, order)
        mu, au = _moments_of(d["u_offset"], u, order)
        expected = mf
        allowed = tail * af + _rounding(terms, au + af)
        if order == 2:
            m0 = math.fsum(f)
            expected += 2.0 * t * m0
            allowed += _weighted_tail(t, half_width, 2) * abs(m0)
        if not abs(mu - expected) <= allowed:
            return f"moment {order} of u is {mu!r}, expected {expected!r} within {allowed:.3g}"
    return None


# --------------------------------------------------------------------------
# forced_duhamel


def forcing_time_integral(amplitude: float, gamma: float, t: float) -> float:
    """int_0^t A (1+s)^(-gamma) ds in closed form (gamma != 1)."""
    return amplitude * ((1.0 + t) ** (1.0 - gamma) - 1.0) / (1.0 - gamma)


def fd_conservation(kind, params, d):
    integral = forcing_time_integral(d["amplitude"], d["gamma"], d["t"])
    certified = d["quad_error"] + d["trunc_error"]
    reach = max(1, abs(d["phi_offset"]), abs(d["phi_offset"] + len(d["phi"]) - 1))
    for order, weight in ((0, 1.0), (1, float(reach))):
        mphi, aphi = _moments_of(d["phi_offset"], d["phi"], order)
        mu, au = _moments_of(d["u_offset"], d["u"], order)
        expected = integral * mphi
        allowed = certified * weight + _rounding(len(d["u"]), au + abs(integral) * aphi)
        if not abs(mu - expected) <= allowed:
            return (f"moment {order} of u_g is {mu!r}, closed form {expected!r}; "
                    f"off by {abs(mu - expected):.3g} > quad_error + trunc_error {allowed:.3g}")
    return None


# --------------------------------------------------------------------------
# cli_reports


def _csv(d, name):
    return list(csv.reader(io.StringIO(d["files"][name].decode("utf-8"))))


def _json(d, name):
    return json.loads(d["files"][name].decode("utf-8"))


def _out(params):
    return params["argv"][params["argv"].index("--out") + 1].rsplit("/", 1)[-1]


def _kinds(*kinds):
    """Restrict a check to operations of the given kinds."""

    def wrap(fn):
        def check(kind, params, d):
            return fn(kind, params, d) if kind in kinds else None

        check.__name__ = fn.__name__
        check.kinds = kinds
        return check

    return wrap


def cli_files(kind, params, d):
    if d["exit_code"] != 0:
        return f"lattice-heat {params['argv'][0]} exited {d['exit_code']}"
    missing = [name for name in d["promised"] if name not in d["files"]]
    if missing:
        return f"lattice-heat {params['argv'][0]} did not write {missing}"
    return None


def _wide_row(t: float) -> np.ndarray:
    """A scipy kernel row wider than any window the library picks at eps >= 1e-16."""
    return _full_row(t, 40 + int(12.0 * math.sqrt(t)))


def _report_reference(kind, params, t):
    """(value, certified truncation allowance) of one report point."""
    p = params["p"]
    g = _wide_row(t)
    if kind == "converge":  # t^{(1/2)(1 - 1/p)} ||G * f - M G||_p
        f = np.array(params["f"])
        mass = math.fsum(f)
        u = np.convolve(g, f)
        mg = np.zeros_like(u)
        start = -params["f_offset"]  # u[start] sits at n = -half_width
        mg[start : start + len(g)] = mass * g
        weight = t ** (0.5 * (1.0 - (0.0 if p == math.inf else 1.0 / p)))
        return weight * _norm(u - mg, p), weight * KERNEL_EPS * (math.fsum(np.abs(f)) + abs(mass))
    order = params["order"] if kind == "diffdecay" else QUANTITY_ORDER[params["quantity"]]
    if kind == "decay" and order == 2:
        seq = _laplacian(g)
    else:
        seq = g
        for _ in range(order):
            seq = _forward_difference(seq)
    return _norm(seq, p), 2.0**order * KERNEL_EPS


@_kinds("decay", "diffdecay", "converge")
def cli_report_values(kind, params, d):
    rows = _csv(d, _out(params))
    if rows[0] != ["t", "value"]:
        return f"unexpected report header {rows[0]}"
    pairs = [(float(a), float(b)) for a, b in rows[1:]]
    grid = [params["grid_start"] * 2.0**i for i in range(7)]
    if len(pairs) < 2 or any(t not in grid for t, _ in pairs):
        return "report times are not points of the requested grid"
    for t, value in pairs:
        ref, certified = _report_reference(kind, params, t)
        if not abs(value - ref) <= NORM_RTOL * ref + certified:
            return f"{kind} value {value!r} at t={t:g}, recomputed {ref!r}"
    meta = _json(d, _out(params) + ".json")
    slope = _ls_slope(pairs)
    if not abs(meta["slope"] - slope) <= 1e-9 * abs(slope) + 1e-12:
        return f"sidecar slope {meta['slope']!r} is not the least-squares slope {slope!r} of the table"
    return None


@_kinds("decay", "diffdecay")
def cli_decay_slope(kind, params, d):
    order = params["order"] if kind == "diffdecay" else QUANTITY_ORDER[params["quantity"]]
    expected = _theory_slope(params["p"], order)
    slope = _json(d, _out(params) + ".json")["slope"]
    if not abs(slope - expected) <= SLOPE_TOL:
        return f"slope {slope!r} is not within {SLOPE_TOL} of {expected!r}"
    return None


@_kinds("poly")
def cli_poly_coeffs(kind, params, d):
    rows = _csv(d, _out(params))
    if rows[0] != ["k", "degree"] + [f"c{i}" for i in range(params["kmax"] + 1)]:
        return f"unexpected poly header {rows[0]}"
    table = {int(r[0]): [int(c) for c in r[2:]] for r in rows[1:]}
    for k in range(params["kmax"] + 1):
        if table.get(k) != SKELLAM[k]:
            return f"p_{k} coefficients {table.get(k)} differ from the Skellam recursion {SKELLAM[k]}"
    return None


@_kinds("poly_roots")
def cli_poly_roots(kind, params, d):
    roots: dict[int, list[float]] = {}
    for k, _, r in _csv(d, _out(params))[1:]:
        roots.setdefault(int(k), []).append(float(r))
    delta = Fraction(ROOT_TOL)
    for k in range(2, params["kmax"] + 1):
        found = roots.get(k, [])
        if len(found) != k:
            return f"p_{k} has {len(found)} roots listed, its degree is {k}"
        for r in found:
            x = Fraction(r)
            lo, mid, hi = (_poly_value(SKELLAM[k], v) for v in (x - delta, x, x + delta))
            if mid != 0 and (lo > 0) == (hi > 0):
                return f"p_{k} does not change sign across {r!r} +- {ROOT_TOL}"
    return None


@_kinds("fourier")
def cli_fourier(kind, params, d):
    rows = [[float(c) for c in r] for r in _csv(d, _out(params))[1:]]
    t = params["t"]
    g = _wide_row(t)
    half_width = len(g) // 2
    n = np.arange(-half_width, half_width + 1)
    # The transform of the window misses the symbol by at most its tail mass.
    bound = params["eps"] + _rounding(len(g), 1.0)
    worst = 0.0
    for theta, transform, symbol in rows:
        exact = math.exp(-4.0 * t * math.sin(theta / 2.0) ** 2)
        if not abs(symbol - exact) <= 4.0 * U * exact:
            return f"symbol {symbol!r} at theta={theta!r} is not exp(-4t sin^2(theta/2)) = {exact!r}"
        ref = math.fsum(g * np.cos(n * theta))
        if not abs(transform - ref) <= bound:
            return f"transform {transform!r} at theta={theta!r} differs from the ive sum {ref!r}"
        worst = max(worst, abs(transform - symbol))
    meta = _json(d, _out(params) + ".json")
    if len(rows) != 64 or worst > bound or meta["max_abs_error"] != worst:
        return f"fourier error {meta['max_abs_error']!r} is not the row maximum {worst!r} within {bound:.3g}"
    return None


@_kinds("kernel")
def cli_kernel(kind, params, d):
    rows = _csv(d, _out(params))[1:]
    n = np.array([int(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    if not np.array_equal(n, np.arange(-(len(n) // 2), len(n) // 2 + 1)):
        return "kernel CSV is not a symmetric window"
    err = float(np.max(np.abs(values - ive(np.abs(n), 2.0 * params["t"]))))
    if err > _rounding(len(n), 1.0):
        return f"kernel CSV differs from ive by {err:.3g}"
    if not abs(math.fsum(values) - 1.0) <= params["eps"] + _rounding(len(n), 1.0):
        return f"kernel CSV mass {math.fsum(values)!r} misses 1 by more than eps"
    return None


@_kinds("moments")
def cli_moments(kind, params, d):
    rows = [[float(c) for c in r] for r in _csv(d, _out(params))[1:]]
    if len(rows) != params["kmax"] + 1:
        return f"moments CSV has {len(rows)} rows"
    x = Fraction(2.0 * params["t"])
    for k, even, poly, odd in rows:
        ref = float(_poly_value(SKELLAM[int(k)], x))
        if not abs(poly - ref) <= 1e-12 * ref:
            return f"poly_value of p_{int(k)} is {poly!r}, Skellam gives {ref!r}"
        # The CLI asks for a weighted tail below max(1e-12, 1e-10 p_k(2t)).
        if not abs(even - ref) <= max(1e-12, 1e-10 * ref) + 1e-12 * ref:
            return f"even moment {2 * int(k)} is {even!r}, Skellam gives {ref!r}"
        if not abs(odd) <= 1e-12 * ref:
            return f"odd moment {2 * int(k) + 1} is {odd!r}"
    return None


# --------------------------------------------------------------------------
# Corruptions: each returns a copy of the digest that its check must reject.


def _bump(key, index, delta):
    """Add delta(d) to d[key][index]."""

    def corrupt(kind, params, d):
        d = copy.deepcopy(d)
        d[key][index] += delta(d)
        return d

    return corrupt


def _scale(key, factor):
    def corrupt(kind, params, d):
        return dict(d, **{key: d[key] * factor})

    return corrupt


def _edit_file(edit, sidecar=False):
    """Rewrite the operation's CSV (or JSON sidecar) through ``edit``."""

    def corrupt(kind, params, d):
        d = copy.deepcopy(d)
        name = _out(params) + (".json" if sidecar else "")
        if sidecar:
            meta = _json(d, name)
            edit(meta)
            d["files"][name] = json.dumps(meta).encode("utf-8")
        else:
            rows = _csv(d, name)
            edit(rows)
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            d["files"][name] = buf.getvalue().encode("utf-8")
        return d

    return corrupt


def _drop_file(kind, params, d):
    d = copy.deepcopy(d)
    d["files"].pop(d["promised"][-1])
    return d


def _scale_cell(row, col, factor):
    """Scale one cell; ``row=None`` picks the middle data row."""

    def edit(rows):
        r = len(rows) // 2 if row is None else row
        rows[r][col] = repr(float(rows[r][col]) * factor)

    return edit


def _cli_value_corruption(kind, params, d):
    edit = {
        "poly": lambda rows: rows[-1].__setitem__(-1, str(int(rows[-1][-1]) + 1)),
        "poly_roots": _scale_cell(-12, 2, 1.0 + 1e-6),  # the largest root of p_12
        "moments": _scale_cell(-1, 1, 1.0 + 1e-6),
        "fourier": lambda rows: rows[33].__setitem__(1, repr(float(rows[33][1]) + 1e-9)),
        "kernel": _scale_cell(None, 1, 1.0 + 1e-6),
    # Report points pass the library's gate only with certified error below
    # 1% of the value, so a 5% change must be caught.
    }.get(kind, _scale_cell(None, 1, 1.05))
    return _edit_file(edit)(kind, params, d)


def _slope_corruption(kind, params, d):
    return _edit_file(lambda meta: meta.__setitem__("slope", meta["slope"] + 0.1), sidecar=True)(kind, params, d)


# workload -> check name -> (check(kind, params, digest), corrupt(kind, params, digest))
CHECKS = {
    "kernel_rows": {
        "row_vs_ive": (kr_row, _bump("row", 0, lambda d: 1e-9)),
        "mass": (kr_mass, _scale("row", 1.0 + 1e-9)),
        "norms": (kr_norms, _bump("norms", 4, lambda d: 1e-6 * d["norms"][4])),
        "even_moments": (kr_even_moments, _bump("moments", 12, lambda d: 1e-6 * d["moments"][12])),
        "odd_moments": (kr_odd_moments, _bump("moments", 3, lambda d: 1e-6 * d["moments"][4] + 1e-9)),
    },
    "evolve_wide": {
        "points_vs_numpy": (ev_points, _bump("u", 0, lambda d: 1e-6 * np.max(np.abs(d["u"])))),
        "conservation": (ev_conservation, _scale("u", 1.0 + 1e-9)),
    },
    "forced_duhamel": {
        "conservation": (fd_conservation, _scale("u", 1.0 + 1e-6)),
    },
    "cli_reports": {
        "files": (cli_files, _drop_file),
        "report_values": (cli_report_values, _cli_value_corruption),
        "decay_slope": (cli_decay_slope, _slope_corruption),
        "poly_coeffs": (cli_poly_coeffs, _cli_value_corruption),
        "poly_roots": (cli_poly_roots, _cli_value_corruption),
        "fourier": (cli_fourier, _cli_value_corruption),
        "kernel": (cli_kernel, _cli_value_corruption),
        "moments": (cli_moments, _cli_value_corruption),
    },
}


def check_operation(workload: str, kind: str, params, digest) -> list[str]:
    """Reasons the operation's output is wrong; empty when it passes."""
    problems = []
    for name, (check, _) in CHECKS[workload].items():
        try:
            reason = check(kind, params, digest)
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            problems.append(f"{name}: {reason}")
    return problems
