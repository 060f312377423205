"""Spans around the library's public functions, and the per-layer table.

The tracer replaces each public function of the six modules at every
module attribute that holds it (``latticeheat.solver.heat_kernel`` and
``latticeheat.kernel.heat_kernel`` get the same wrapper), in this process
only, and puts the originals back on ``uninstall``.  A span is a name, a
start and end time, its parent span, the operation it belongs to and a
``work`` count taken at the boundary from the arguments and the result.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import os
import statistics
import time
from array import array
from collections import defaultdict

MODULES = ("bessel", "kernel", "moments", "solver", "analysis", "cli")
# The reports the CLI reaches, plus the fit they share.
REPORTS = ("kernel_decay", "higher_difference_decay", "large_time_profile", "fit_loglog")


def _cli_output(args, kwargs, code):
    """(files, bytes) that one ``cli.run`` left at its ``--out`` path."""
    argv = args[0] if args else kwargs["argv"]
    if "--out" not in argv:
        return (0, 0)
    out = str(argv[argv.index("--out") + 1])
    paths = [p for p in (out, out + ".json", out + ".svg") if os.path.exists(p)]
    return (len(paths), sum(os.path.getsize(p) for p in paths))


# Work counted at the boundary, per traced function.
WORK = {
    "bessel.scaled_bessel_row": lambda a, k, r: r.half_width + 1,
    "solver.convolve": lambda a, k, r: len(a[0].values) * len(a[1].values),
    "cli.run": _cli_output,
    **{f"analysis.{name}": lambda a, k, r: len(r.dropped) for name in REPORTS if name != "fit_loglog"},
}


class Tracer:
    """Spans of traced calls, one column per field so a run can hold millions."""

    def __init__(self, lib):
        self.names: list[str] = []
        self.starts, self.ends = array("d"), array("d")
        self.parents, self.ops = array("q"), array("q")
        self.works: list = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        namespaces = [lib] + [getattr(lib, m) for m in MODULES]
        for module_name in MODULES:
            module = getattr(lib, module_name)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(f"{module_name}.{attr}", fn)
                for ns in namespaces:
                    for key, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, key, fn, wrapper))
        spec = lib.solver.ForcingSpec
        self._patches.append((spec, "temporal", spec.temporal, self._wrap("solver.ForcingSpec.temporal", spec.temporal)))

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name, fn):
        names, starts, ends, parents, ops, works = self.names, self.starts, self.ends, self.parents, self.ops, self.works
        stack, clock, work = self._stack, time.perf_counter, WORK.get(name)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            works.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if work is not None:
                works[index] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\toperation\twork\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops, self.works):
                fh.write("%s\t%r\t%r\t%d\t%d\t%s\n" % row)


def _ancestor_flags(tracer: Tracer, name: str) -> list[bool]:
    """flags[i] is True when span i runs inside a span called ``name``."""
    names, flags = tracer.names, [False] * len(tracer)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            flags[i] = flags[parent] or names[parent] == name
    return flags


def per_round(tracer: Tracer, ops_per_round: int) -> dict[int, dict[str, float]]:
    """Per-layer figures of each traced round, keyed by round index."""
    child_time = [0.0] * len(tracer)
    for start, end, parent in zip(tracer.starts, tracer.ends, tracer.parents):
        if parent >= 0:
            child_time[parent] += end - start
    in_duhamel = _ancestor_flags(tracer, "solver.duhamel")
    in_moment_slice = _ancestor_flags(tracer, "moments.heat_kernel_for_moment")

    rounds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    spans = zip(tracer.names, tracer.starts, tracer.ends, tracer.ops, tracer.works)
    for i, (name, start, end, op, work) in enumerate(spans):
        r = rounds[op // ops_per_round]
        busy = end - start
        r[f"{name}.calls"] += 1
        r[f"{name}.busy_s"] += busy
        r[f"{name}.self_s"] += busy - child_time[i]
        r["spans"] += 1
        if name == "cli.run":
            r["cli.files_written"] += work[0]
            r["cli.bytes_written"] += work[1]
        elif name.startswith("analysis."):
            r["analysis.dropped_points"] += work
        else:
            r[f"{name}.work"] += work
        if name == "solver.ForcingSpec.temporal" and in_duhamel[i]:
            r["duhamel.integrand_evals"] += 1
        if name == "kernel.heat_kernel" and in_duhamel[i]:
            r["duhamel.kernel_calls"] += 1
        if name == "kernel.heat_kernel" and in_moment_slice[i]:
            r["moment_slice.slices"] += 1
    return rounds


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# BENCHMARK.json per-layer name -> (unit, figure from one round's table)
LAYER_METRICS = {
    "bessel.scaled_bessel_row.calls": ("count", lambda r: r["bessel.scaled_bessel_row.calls"]),
    "bessel.scaled_bessel_row.busy_s": ("s", lambda r: r["bessel.scaled_bessel_row.busy_s"]),
    "bessel.scaled_bessel_row.values": ("count", lambda r: r["bessel.scaled_bessel_row.work"]),
    "kernel.heat_kernel.calls": ("count", lambda r: r["kernel.heat_kernel.calls"]),
    "kernel.heat_kernel.self_s": ("s", lambda r: r["kernel.heat_kernel.self_s"]),
    "kernel.lp_norm.busy_s": ("s", lambda r: r["kernel.lp_norm.busy_s"]),
    "kernel.difference.busy_s": (
        "s", lambda r: r["kernel.forward_difference.busy_s"] + r["kernel.discrete_laplacian.busy_s"]),
    "moments.kernel_moment.busy_s": ("s", lambda r: r["moments.kernel_moment.busy_s"]),
    "moments.heat_kernel_for_moment.busy_s": ("s", lambda r: r["moments.heat_kernel_for_moment.busy_s"]),
    "moments.heat_kernel_for_moment.widenings": (
        "slices/call", lambda r: _ratio(r["moment_slice.slices"], r["moments.heat_kernel_for_moment.calls"])),
    "moments.poly_real_roots.busy_s": ("s", lambda r: r["moments.poly_real_roots.busy_s"]),
    "moments.moment_polynomials.busy_s": ("s", lambda r: r["moments.moment_polynomials.busy_s"]),
    "solver.convolve.calls": ("count", lambda r: r["solver.convolve.calls"]),
    "solver.convolve.busy_s": ("s", lambda r: r["solver.convolve.busy_s"]),
    "solver.convolve.madds": ("count", lambda r: r["solver.convolve.work"]),
    "solver.evolve.self_s": ("s", lambda r: r["solver.evolve.self_s"]),
    "solver.duhamel.self_s": ("s", lambda r: r["solver.duhamel.self_s"]),
    "solver.duhamel.integrand_evals": ("count", lambda r: r["duhamel.integrand_evals"]),
    "solver.duhamel.kernel_calls": ("count", lambda r: r["duhamel.kernel_calls"]),
    "solver.duhamel.kernel_reuse": (
        "share", lambda r: 1.0 - _ratio(r["duhamel.kernel_calls"], r["duhamel.integrand_evals"])
        if r["duhamel.integrand_evals"] else 0.0),
    **{f"analysis.{name}.busy_s": ("s", lambda r, name=name: r[f"analysis.{name}.busy_s"]) for name in REPORTS},
    "analysis.dropped_points": ("count", lambda r: r["analysis.dropped_points"]),
    "cli.run.self_s": ("s", lambda r: r["cli.run.self_s"]),
    "cli.bytes_written": ("count", lambda r: r["cli.bytes_written"]),
    "cli.files_written": ("count", lambda r: r["cli.files_written"]),
    "trace.spans": ("count", lambda r: r["spans"]),
}


def layer_metrics(tracer: Tracer, ops_per_round: int) -> dict[str, dict]:
    """Per-layer metrics per round of operations: the median over traced rounds.

    Counts are the same in every traced round, since every round repeats
    the same operations on the same inputs.
    """
    rounds = list(per_round(tracer, ops_per_round).values())
    out = {}
    for name, (unit, figure) in LAYER_METRICS.items():
        values = [figure(r) for r in rounds] or [0.0]
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out
