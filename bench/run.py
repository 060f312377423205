"""Benchmark of latticeheat: one workload per process, end to end or traced.

    python3 bench/run.py --workload kernel_rows --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  The run repeats the workload's fixed
operation list (see ``workloads.py``) a fixed number of rounds, set by the
workload and ``--seconds`` alone, so every run of one ``--seconds`` does
the same work whatever the speed of the host or the program.  One caller
runs the operations (in a new seeded order every round) with a pass of
fixed reference work between each two, on one thread; BLAS threads are
pinned to 1.  An operation's latency is the median over the rounds of its
time divided by the reference passes around it.  Outputs are checked
against computations made apart from the library (``checks.py``) after
timing ends.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including
the tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 8
MIN_ROUNDS = 5
# Rounds of a run at --seconds 15, scaled in proportion to --seconds: about
# the rounds that a middling phase of the 2-core sandbox named at
# REFERENCE_S runs in 15 s, or 20 s for forced_duhamel, which runs 6 so
# that each median has more than the minimum of 5 timings.  A fast phase
# needs about two thirds of that time, a slow one half as much again.
# Fixed, so every run of one --seconds does the same work whatever the
# speed of the host or the program.
ROUNDS_AT_15_S = {"kernel_rows": 11, "evolve_wide": 8, "forced_duhamel": 6, "cli_reports": 20}
# A reference pass (``_reference_pass``) is timed at the start of every
# round and after every operation.  REFERENCE_S is a typical pass on the
# 2-core Intel Xeon sandbox where the bounds were set, in a fast phase of
# that host.  Times are reported in seconds at that speed: each operation
# time is divided by the geometric mean of the passes just before and just
# after it and multiplied by REFERENCE_S, which takes the host's speed
# drift out of the figures.
REFERENCE_S = 0.00265
# Set-up is mostly interpreter start and the numpy import, which swing with
# the host's file and process costs more than with its CPU speed.  So each
# set-up probe is paired with a reference probe that only imports numpy,
# spawned just before it, and setup_s is the median over the probes of
# (set-up probe / its reference probe) times SPAWN_REFERENCE_S: about the
# time of a numpy-import probe on the same sandbox.
SPAWN_REFERENCE_S = 0.13

WORKLOADS = ("kernel_rows", "evolve_wide", "forced_duhamel", "cli_reports")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _require_sources() -> None:
    if not (SRC / "latticeheat" / "__init__.py").is_file():
        sys.exit(f"bench: no latticeheat sources under {SRC}; run from a checkout of the repository")


def _import_library():
    _require_sources()
    sys.path.insert(0, str(SRC))
    import latticeheat
    from latticeheat import analysis, bessel, cli, kernel, moments, solver  # noqa: F401

    if Path(latticeheat.__file__).resolve().parent != (SRC / "latticeheat").resolve():
        sys.exit(f"bench: latticeheat was imported from {latticeheat.__file__}, not from {SRC}")
    return latticeheat


def setup(args, workdir):
    """Import, input generation and one warm-up call per operation kind."""
    import numpy as np

    import workloads

    lib = _import_library()
    workload = workloads.BUILDERS[args.workload](lib, np.random.default_rng(args.seed), workdir)
    for kind, params in workload.warmups:
        workload.run_op(kind, params)
    return lib, workload


def rounds_for(args) -> int:
    """The fixed number of rounds of a run; even when traced, so that the two kinds alternate evenly."""
    rounds = max(MIN_ROUNDS, round(args.seconds * ROUNDS_AT_15_S[args.workload] / 15))
    return max(2 * MIN_ROUNDS, rounds + rounds % 2) if args.trace else rounds


def _spawn_seconds(cmd) -> float:
    """Time from spawning ``cmd`` to its first line, which must read ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"bench: probe {cmd[1:3]} failed with exit code {proc.returncode}")
    return elapsed


def _probe_setup_seconds(args) -> tuple[float, float]:
    """One set-up probe and its reference probe, in seconds.

    A set-up probe is a fresh interpreter that runs ``setup`` and reports
    ready; the reference probe is a fresh interpreter that imports numpy.
    """
    reference = _spawn_seconds([sys.executable, "-c", "import numpy; print('ready', flush=True)"])
    return _spawn_seconds([sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
                           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]), reference


def _reference_pass() -> float:
    """Seconds taken by one pass of fixed reference work.

    The work copies the patterns of the library's hot paths: a backward
    recurrence storing into a numpy array element by element, compensated
    sums over generators of array elements, a per-point convolution sum,
    exact rational arithmetic, and numpy calls on short arrays as in the
    norms and moments of short kernel rows.  It never changes from commit
    to commit, so its time measures the host, not the program.
    """
    import numpy as np

    start = time.perf_counter()
    y = np.zeros(301)
    y_next, y_cur = 0.0, 1.0
    for n in range(300, 0, -1):
        y_prev = y_next + (2.0 * n / 80.0) * y_cur
        if y_prev > 1e250:
            y_prev, y_cur = y_prev * 1e-250, y_cur * 1e-250
        y[n - 1] = y_prev
        y_next, y_cur = y_cur, y_prev
    y /= math.fsum(abs(v) for v in y)
    a, b = y[:20], y[:120]
    [math.fsum(a[j] * b[i - j] for j in range(max(0, i - 119), min(19, i) + 1)) for i in range(139)]
    q = Fraction(0)
    for k in range(12):
        q = q * Fraction(2, 3) + k
    acc = 0.0
    for k in range(150):
        a = np.arange(k % 40 + 10, dtype=float)
        b = np.abs(np.diff(a * a))
        acc += float(np.sum(b)) + float(np.max(np.abs(a)))
        c = np.concatenate((a[:5], b))
        acc += float(np.dot(c, c) ** 0.5)
    return time.perf_counter() - start


def _fingerprint(digest: dict) -> bytes:
    import numpy as np

    parts = []
    for key in sorted(digest):
        value = digest[key]
        if isinstance(value, dict):
            parts.extend(k.encode() + v for k, v in sorted(value.items()))
        else:
            parts.append(key.encode() + np.asarray(value).tobytes())
    return b"\0".join(parts)


@dataclass
class Measurement:
    """What one run observed."""

    ratios: dict  # traced? -> per-operation lists of (time / reference passes around it)
    raw: list  # per-operation lists of untraced times, unscaled
    references: list[float]
    setup_probes: list[tuple[float, float]]  # (set-up, reference) seconds
    rounds: int
    attempted: int
    failed: int
    mismatched: int
    peak_rss_mb: float
    first: list  # (kind, params, digest or None) of round 0
    tracer: object


def measure(args, lib, workload) -> Measurement:
    """Run the fixed number of rounds; untraced and traced rounds alternate when tracing.

    Untraced runs also time SETUP_PROBES set-up probes, spread over the
    rounds so that they meet the same phases of the host as the operations.
    """
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(lib)
    ops = workload.ops
    rounds = rounds_for(args)
    probe_before = [] if tracer else [j * rounds // SETUP_PROBES for j in range(SETUP_PROBES)]
    raw = [[] for _ in ops]
    first, fingerprints = [None] * len(ops), [None] * len(ops)
    order, shuffler = list(range(len(ops))), random.Random(args.seed)
    mismatched = failed = attempted = 0
    peak_rss_mb = 0.0
    clock = time.perf_counter
    ratios = {False: [[] for _ in ops], True: [[] for _ in ops]}  # traced? -> per-operation scaled times
    references, setup_probes = [], []
    for round_index in range(rounds):
        setup_probes.extend(_probe_setup_seconds(args) for _ in range(probe_before.count(round_index)))
        references.append(_reference_pass())
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        # A new seeded order every round, so that no operation always
        # follows the same one and inherits its cache state.
        shuffler.shuffle(order)
        for i in order:
            kind, params = ops[i]
            if traced:
                tracer.op = round_index * len(ops) + i
            t0 = clock()
            try:
                out = workload.run_op(kind, params)
            except Exception as exc:  # a library failure counts against the operation
                out = None
                if round_index == 0:
                    print(f"bench: {kind} operation {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            seconds = clock() - t0
            # Divided by the reference passes just before and just after it.
            references.append(_reference_pass())
            ratios[traced][i].append(seconds / math.sqrt(references[-2] * references[-1]))
            if not traced:
                raw[i].append(seconds)
            attempted += 1
            digest = None if out is None else workload.digest(kind, params, out)
            workload.cleanup(kind, params)
            if digest is None or not digest["finite"]:
                failed += 1
            fingerprint = None if digest is None else _fingerprint(digest)
            if round_index == 0:
                first[i], fingerprints[i] = (kind, params, digest), fingerprint
            elif fingerprint != fingerprints[i]:
                mismatched += 1
        if traced:
            tracer.uninstall()
        if round_index == MIN_ROUNDS - 1:
            # Read after a fixed round: every round repeats the same work, so
            # the reading repeats, and memory kept from round to round shows.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measurement(ratios, raw, references, setup_probes, rounds, attempted, failed, mismatched,
                       peak_rss_mb, first, tracer)


def check(workload_name, first, mismatched):
    import checks

    problems = [f"{mismatched} operation(s) gave a different output in a later round"] if mismatched else []
    for kind, params, digest in first:
        if digest is not None and digest["finite"]:
            problems.extend(checks.check_operation(workload_name, kind, params, digest))
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_sources()
    sys.path.insert(0, str(BENCH_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as workdir:
            setup(args, workdir)
            print("ready", flush=True)
        return 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as workdir:
        lib, workload = setup(args, workdir)
        m = measure(args, lib, workload)
        problems = check(args.workload, m.first, m.mismatched)

    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    ops = len(workload.ops)
    latencies = sorted(REFERENCE_S * statistics.median(r) for r in m.ratios[False])
    ops_per_s = ops / math.fsum(latencies)
    print(f"bench: {args.workload} seed={args.seed}: {m.rounds} rounds of {ops} operations, {m.failed} failed; "
          f"latency of an operation = the median of its {len(m.ratios[False][0])} timings, each over the reference "
          f"passes around it; tail = p{100.0 * (ops - 10) / ops:.1f} over the {ops} operations")
    print(f"bench: {len(m.references)} reference passes, median {1e3 * statistics.median(m.references):.3f} ms; "
          f"unscaled: {ops / math.fsum(statistics.median(t) for t in m.raw):.4f} operations/s")
    if m.tracer is None:
        setup_best, spawn_best = (min(column) for column in zip(*m.setup_probes))
        setup_ratio = statistics.median(setup / spawn for setup, spawn in m.setup_probes)
        print(f"bench: fastest set-up probe {setup_best:.4f} s, fastest numpy-import probe {spawn_best:.4f} s, "
              f"median ratio of a set-up probe to its numpy-import probe {setup_ratio:.4f}")
        metrics = {
            "setup_s": {"value": SPAWN_REFERENCE_S * setup_ratio, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            # The highest percentile with at least ten operations beyond it.
            "latency_tail_ms": {"value": 1e3 * latencies[-11], "unit": "ms"},
            "peak_rss_mb": {"value": m.peak_rss_mb, "unit": "MB"},
        }
    else:
        import tracing

        metrics = tracing.layer_metrics(m.tracer, ops)
        untraced, traced = (math.fsum(statistics.median(r) for r in m.ratios[k]) for k in (False, True))
        metrics["trace.ops_per_s_ratio"] = {"value": untraced / traced, "unit": "ratio"}
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        m.tracer.write(str(path))
        print(f"bench: {len(m.tracer)} spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
