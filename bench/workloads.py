"""Seeded inputs and the timed operations of each workload.

A workload is a fixed list of at least 40 operations (one round) made from
the seed.  Every run repeats whole rounds, so the share of failed operations
is the same in every run whatever the seed or the run length.

Operations look library functions up through their module attributes at
call time (``kernel.heat_kernel``, not a name bound at import), so the
traced run sees the outermost call too.  Each operation returns the raw
library result; ``digest`` turns it into plain numbers outside the timed
region, and the checks in ``checks.py`` read only digests.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

P_VALUES = (1.0, 2.0, math.inf)
QUANTITIES = ("G", "grad", "laplacian")

KERNEL_EPS = 1e-12
MOMENT_ORDER = 12
TINY_T = 1e-200
DUHAMEL_EPS = 1e-10
DUHAMEL_T = (0.1, 10.0)
GAMMAS = (1.5, 2.0, 3.0)
# Base shapes of the forcing profiles of forced_duhamel: a point, a
# positive bump and a signed profile.
PROFILE_BASES = ((1.0,), (1.0, 2.0, 2.0, 1.0), (2.0, -1.0, 3.0, 1.0, -2.0, 1.0))
POLY_KMAX = 12


@dataclass
class Workload:
    """One round of operations plus what the harness needs to run them."""

    name: str
    ops: list[tuple[str, Any]]
    run_op: Callable[[str, Any], Any]
    digest: Callable[[str, Any, Any], dict]
    warmups: list[tuple[str, Any]]
    # Removes what an operation left on disk, after it is digested.
    cleanup: Callable[[str, Any], None] = field(default=lambda kind, params: None)


def _stratified(rng: np.random.Generator, count: int, lo: float, hi: float, log: bool) -> list[float]:
    """One seeded point near the middle of each equal stratum of [lo, hi], ascending.

    The point sits within a tenth of the stratum width of its middle.
    Operation cost grows like t, so a point free to roam its whole top
    stratum would move a round's total work by a factor of two from seed to
    seed; this keeps it within a few percent, so run-to-run spread comes
    from the machine, not from the draw.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    u = (np.arange(count) + 0.5 + 0.2 * (rng.random(count) - 0.5)) / count
    x = a + (b - a) * u
    return [float(math.exp(v) if log else v) for v in x]


def _shuffled(rng: np.random.Generator, ops: list) -> list:
    """The round's operations in seeded order."""
    return [ops[i] for i in rng.permutation(len(ops))]


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# --------------------------------------------------------------------------
# kernel_rows: kernel slices, their norms and a moment slice per time.


def kernel_rows(lib, rng: np.random.Generator, workdir: str) -> Workload:
    kernel, moments = lib.kernel, lib.moments
    slice_count = 50
    times = _stratified(rng, slice_count, 1e-2, 1e5, log=True)
    # The slice at t = 1e-200 fails at every seed (all-NaN Bessel row).
    ops = _shuffled(rng, [("slice", t) for t in times] + [("tiny", TINY_T)])

    def run_op(kind, t):
        k = kernel.heat_kernel(t, KERNEL_EPS)
        seq = k.to_sequence()
        seqs = (seq, kernel.forward_difference(seq), kernel.discrete_laplacian(seq))
        norms = [kernel.lp_norm(s, p) for s in seqs for p in P_VALUES]
        if kind == "tiny":
            return k, norms, None, None
        tol = moment_tolerance(t)
        ms = moments.heat_kernel_for_moment(t, MOMENT_ORDER, tol)
        moms = [moments.kernel_moment(ms, order) for order in range(MOMENT_ORDER + 1)]
        return k, norms, ms, moms

    def digest(kind, t, out):
        k, norms, ms, moms = out
        d = {
            "row": np.array(k.values, dtype=float),
            "tail_mass": float(k.tail_mass),
            "norms": np.array(norms, dtype=float),
        }
        if ms is not None:
            d["moment_window"] = int(ms.window)
            d["moment_row"] = np.array(ms.values, dtype=float)
            d["moments"] = np.array(moms, dtype=float)
            d["moment_tol"] = moment_tolerance(t)
        d["finite"] = _finite(d["row"], d["norms"], d.get("moments", ()), [d["tail_mass"]])
        return d

    return Workload(
        name="kernel_rows",
        ops=ops,
        run_op=run_op,
        digest=digest,
        warmups=[("slice", 1.0)],
    )


def moment_tolerance(t: float) -> float:
    """Weighted-tail tolerance asked of the moment slice at time t."""
    return 1e-10 * max(1.0, (2.0 * t) ** (MOMENT_ORDER // 2))


# --------------------------------------------------------------------------
# evolve_wide: homogeneous evolution of wide data.


def evolve_wide(lib, rng: np.random.Generator, workdir: str) -> Workload:
    kernel, solver = lib.kernel, lib.solver
    count = 40
    sizes = [int(round(n)) for n in _stratified(rng, count, 200, 1000, log=False)]
    times = _stratified(rng, count, 1.0, 1e3, log=True)
    ops = []
    for j, size in enumerate(sizes):
        # A fixed pairing of size and time strata, so the round's work
        # (sum of size x kernel width) is the same for every seed.
        t = times[(17 * j) % count]
        # Alternate positive and signed data.
        values = rng.random(size) + 0.05 if j % 2 == 0 else rng.standard_normal(size)
        offset = int(rng.integers(-size, 1))
        ops.append(("evolve", (kernel.LatticeSequence(offset, values), t)))
    ops = _shuffled(rng, ops)

    def run_op(kind, params):
        f, t = params
        return solver.evolve(f, t)

    def digest(kind, params, snap):
        f, t = params
        d = {
            "t": t,
            "f_offset": int(f.offset),
            "f": np.array(f.values, dtype=float),
            "u_offset": int(snap.u.offset),
            "u": np.array(snap.u.values, dtype=float),
            "trunc_error": float(snap.trunc_error),
        }
        d["finite"] = _finite(d["u"], [d["trunc_error"]])
        return d

    warm = kernel.LatticeSequence(0, np.ones(8))
    return Workload(
        name="evolve_wide",
        ops=ops,
        run_op=run_op,
        digest=digest,
        warmups=[("evolve", (warm, 1.0))],
    )


# --------------------------------------------------------------------------
# forced_duhamel: the Duhamel integral for separable forcing.


def forced_duhamel(lib, rng: np.random.Generator, workdir: str) -> Workload:
    kernel, solver = lib.kernel, lib.solver
    count = 42
    times = _stratified(rng, count, DUHAMEL_T[0], DUHAMEL_T[1], log=True)
    ops = []
    for j, t in enumerate(times):
        # Every seed pairs each time stratum with the same gamma and base
        # profile.  Each operation draws a profile of its own: the base
        # shape, each value scaled by a seeded factor in [0.9, 1.1], at a
        # seeded offset, with unit l1 norm (the quadrature tolerance is
        # absolute).  How many nodes an integral needs depends on the shape;
        # with free random shapes one operation's node count moved by up to 40%
        # between seeds, which moved the latency percentiles with it.
        base = np.array(PROFILE_BASES[(j // len(GAMMAS)) % len(PROFILE_BASES)])
        values = base * rng.uniform(0.9, 1.1, len(base))
        profile = kernel.LatticeSequence(int(rng.integers(-3, 4)), values / np.sum(np.abs(values)))
        ops.append(("duhamel", (solver.ForcingSpec.separable(profile, GAMMAS[j % len(GAMMAS)], 1.0), t)))
    ops = _shuffled(rng, ops)

    def run_op(kind, params):
        g, t = params
        return solver.duhamel(g, t, eps=DUHAMEL_EPS)

    def digest(kind, params, snap):
        g, t = params
        d = {
            "t": t,
            "gamma": float(g.gamma),
            "amplitude": float(g.amplitude),
            "phi_offset": int(g.spatial.offset),
            "phi": np.array(g.spatial.values, dtype=float),
            "u_offset": int(snap.u.offset),
            "u": np.array(snap.u.values, dtype=float),
            "quad_error": float(snap.quad_error),
            "trunc_error": float(snap.trunc_error),
        }
        d["finite"] = _finite(d["u"], [d["quad_error"], d["trunc_error"]])
        return d

    warm = solver.ForcingSpec.separable(kernel.LatticeSequence(0, np.ones(1)), 2.0, 1.0)
    return Workload(
        name="forced_duhamel",
        ops=ops,
        run_op=run_op,
        digest=digest,
        warmups=[("duhamel", (warm, 0.25))],
    )


# --------------------------------------------------------------------------
# cli_reports: lattice-heat subcommands run in-process.


def _pname(p: float) -> str:
    return "inf" if p == math.inf else str(int(p))


def cli_reports(lib, rng: np.random.Generator, workdir: str) -> Workload:
    cli = lib.cli
    ops = []

    def add(kind, name, argv, **params):
        out = os.path.join(workdir, f"{name}.csv")
        ops.append((kind, dict(params, argv=argv + ["--out", out])))

    for grid_start in (16, 32):
        grid = f"dyadic:{grid_start}:{64 * grid_start}"
        for q in QUANTITIES:
            for p in P_VALUES:
                add("decay", f"decay-{grid_start}-{q}-{_pname(p)}",
                    ["decay", "--quantity", q, "--p", _pname(p), "--grid", grid],
                    quantity=q, p=p, grid_start=grid_start)
    for order in (1, 2, 3, 4):
        p = P_VALUES[int(rng.integers(0, 3))]
        add("diffdecay", f"diffdecay-{order}",
            ["diffdecay", "--order", str(order), "--p", _pname(p), "--grid", "dyadic:16:1024"],
            order=order, p=p, grid_start=16)
    for i, t in enumerate(_stratified(rng, 4, 0.5, 50.0, log=True)):
        add("moments", f"moments-{i}", ["moments", "--t", repr(t), "--kmax", "6"], t=t, kmax=6)
    add("poly", "poly", ["poly", "--kmax", str(POLY_KMAX)], kmax=POLY_KMAX)
    for kmax in (8, 10, POLY_KMAX):
        add("poly_roots", f"roots-{kmax}", ["poly", "--kmax", str(kmax), "--roots"], kmax=kmax)
    for i, t in enumerate(_stratified(rng, 4, 0.5, 50.0, log=True)):
        add("fourier", f"fourier-{i}", ["fourier", "--t", repr(t)], t=t, eps=KERNEL_EPS)
    for i, t in enumerate(_stratified(rng, 4, 1.0, 1e3, log=True)):
        add("kernel", f"kernel-{i}", ["kernel", "--t", repr(t)], t=t, eps=KERNEL_EPS)
    for i in range(4):
        # Positive data with n = 0 inside the support, so the mass is nonzero
        # as `converge --f` requires.
        size = 12
        f_offset = int(rng.integers(-(size - 1), 1))
        f_values = [float(v) for v in rng.uniform(0.1, 1.0, size)]
        f_path = os.path.join(workdir, f"converge-f-{i}.csv")
        with open(f_path, "w", encoding="utf-8") as fh:
            fh.write("n,value\n")
            fh.writelines(f"{f_offset + j},{v!r}\n" for j, v in enumerate(f_values))
        p = P_VALUES[int(rng.integers(0, 3))]
        add("converge", f"converge-{i}", ["converge", "--f", f_path, "--p", _pname(p), "--grid", "dyadic:16:1024"],
            p=p, grid_start=16, f_offset=f_offset, f=f_values)

    promised = {"decay": 2, "diffdecay": 2, "converge": 2, "fourier": 2,
                "moments": 1, "poly": 1, "poly_roots": 1, "kernel": 1}

    def files_of(kind, params) -> list[str]:
        main = params["argv"][params["argv"].index("--out") + 1]
        return [main, main + ".json"][: promised[kind]]

    def run_op(kind, params):
        return cli.run(params["argv"])

    def digest(kind, params, code):
        files = {}
        for path in files_of(kind, params):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[os.path.basename(path)] = fh.read()
        return {"exit_code": code, "files": files, "promised": [os.path.basename(p) for p in files_of(kind, params)],
                "finite": code == 0}

    def cleanup(kind, params):
        for path in files_of(kind, params):
            if os.path.exists(path):
                os.remove(path)

    warm_out = ["--out", os.path.join(workdir, "warmup.csv")]
    warmups = [
        ("decay", {"argv": ["decay", "--grid", "dyadic:16:512"] + warm_out}),
        ("diffdecay", {"argv": ["diffdecay", "--grid", "dyadic:16:512"] + warm_out}),
        ("moments", {"argv": ["moments", "--t", "1.0", "--kmax", "2"] + warm_out}),
        ("poly_roots", {"argv": ["poly", "--kmax", "4", "--roots"] + warm_out}),
        ("fourier", {"argv": ["fourier", "--t", "1.0"] + warm_out}),
        ("kernel", {"argv": ["kernel", "--t", "1.0"] + warm_out}),
        ("converge", {"argv": ["converge", "--f", f_path, "--grid", "dyadic:16:512"] + warm_out}),
    ]
    return Workload(
        name="cli_reports",
        ops=_shuffled(rng, ops),
        run_op=run_op,
        digest=digest,
        warmups=warmups,
        cleanup=cleanup,
    )


BUILDERS = {
    "kernel_rows": kernel_rows,
    "evolve_wide": evolve_wide,
    "forced_duhamel": forced_duhamel,
    "cli_reports": cli_reports,
}
