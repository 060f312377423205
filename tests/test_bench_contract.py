"""The benchmark's contract with the library, run as one round per workload.

``bench/workloads.py`` reads attributes of the library's results,
``bench/tracing.py`` wraps its public functions and reads its rows, and
``bench/checks.py`` checks what the operations return against references
computed apart from the library.  A library change that breaks any of
them shows here, not only when the benchmark is run.  ``bench/run.py`` is
not imported: it pins BLAS threads through the environment on import.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

import latticeheat
from latticeheat import analysis, bessel, cli, kernel, moments, solver  # noqa: F401  (the tracer wraps these)

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("kernel_rows", "evolve_wide", "forced_duhamel", "cli_reports")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads, checks, tracing


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_traced_round_passes_the_checks(bench, name, tmp_path):
    workloads, checks, tracing = bench
    workload = workloads.BUILDERS[name](latticeheat, np.random.default_rng(1), str(tmp_path))
    tracer = tracing.Tracer(latticeheat)
    digests = []
    tracer.install()
    try:
        for i, (kind, params) in enumerate(workload.ops):
            tracer.op = i
            digests.append((kind, params, workload.digest(kind, params, workload.run_op(kind, params))))
            workload.cleanup(kind, params)
    finally:
        tracer.uninstall()

    assert [kind for kind, _, digest in digests if not digest["finite"]] == []
    problems = [p for kind, params, digest in digests for p in checks.check_operation(name, kind, params, digest)]
    assert problems == []

    metrics = tracing.layer_metrics(tracer, len(workload.ops))
    # trace.ops_per_s_ratio compares untraced with traced rounds, which run.py times itself.
    declared = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - {"trace.ops_per_s_ratio"} <= set(metrics)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["trace.spans"]["value"] == len(tracer) > 0
    if name == "kernel_rows":
        # The tracer counts a row's work through ``half_width``; seed 1 pins every window of the round.
        counts = (metrics["bessel.scaled_bessel_row.values"]["value"], metrics["kernel.heat_kernel.calls"]["value"])
        assert counts == (74_261, 151)
