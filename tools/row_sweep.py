"""Run a seeded set of ``scaled_bessel_row`` calls and write a manifest of what each returned.

    python3 tools/row_sweep.py OUT [SRC_DIR]

The library is imported from SRC_DIR (default: the ``src`` next to this file).  OUT gets one line per
call: ``tau.hex()``, eps, the floor (``min_half_width``), then the window, ``tail_mass.hex()`` and the
sha256 of the values' bytes, or the exception's type and message where the call raises.  The calls are
seeded log-uniform tau from 1e-300 to 2e7 at every eps in ``EPSS`` and floor in ``FLOORS``; the rows
that the tests name for rescaling, the series fallback and the edges of the recurrence's passes; and
the rows of one seed-1 round of the benchmark's ``kernel_rows`` workload (``bench/workloads.py``).
Two checkouts compare by a ``diff`` of their manifests; the hashes depend on the host's libm, so
compare manifests made on one host.
"""

import hashlib
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED, TAUS = 35, 660
EPSS = (1e-3, 1e-12, 1e-16, 1e-100, 1e-300)
FLOORS = (0, 300, 3000)
# (tau, eps, floor): rows that rescale, rows from the series, the subnormal window edges, and the adjacent
# floats of tau on either side of 2m / tau = 1e250, where the recurrence's first pass is skipped or runs.
NAMED = [
    (1.0, 1e-100, 0), (3.0, 1e-100, 0), (2.0, 1e-307, 0), (1e-60, 1e-12, 0), (1e5, 1e-150, 0), (0.002, 1e-300, 0),
    (4.0, 1e-200, 0), (5e-10, 1e-12, 0), (2.0, 1e-16, 25_000), (1e-60, 1e-12, 2000), (2e4, 1e-300, 0),
    (1e-70, 1e-12, 0), (1e-300, 1e-12, 0), (1e-300, 1e-12, 40), (1e-200, 1e-12, 0), (2e-200, 1e-12, 0),
    (1e-162, 1e-12, 0), (1e-100, 1e-12, 0), (5e-324, 1e-12, 0), (0.0, 1e-12, 0), (0.0, 1e-12, 50),
    (1.0, 1e-250, 0), (5.0, 1e-150, 0), (5e4, 2.5e-302, 0), (4654.627034500423, 1.179412002121211e-307, 2168),
    (1.8e-249, 1e-3, 0), (1.8000000000000002e-249, 1e-3, 0), (4.6e-249, 1e-12, 0), (4.600000000000001e-249, 1e-12, 0),
    (9.299999999999999e-248, 1e-300, 0), (9.3e-248, 1e-300, 0), (6.001999999999999e-247, 1e-12, 3000),
    (6.002e-247, 1e-12, 3000),
]


def kernel_rows_calls(latticeheat) -> list[tuple[float, float, object]]:
    """The (tau, eps, floor) of every row that one seed-1 round of ``kernel_rows`` asks for, in order."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    kernel, calls = latticeheat.kernel, []
    row = kernel.scaled_bessel_row

    def recording(tau, eps, min_half_width=None):
        calls.append((tau, eps, min_half_width))
        return row(tau, eps, min_half_width)

    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.BUILDERS["kernel_rows"](latticeheat, np.random.default_rng(1), workdir)
        kernel.scaled_bessel_row = recording
        try:
            for kind, params in workload.ops:
                workload.run_op(kind, params)
        finally:
            kernel.scaled_bessel_row = row
    return calls


def main(out: str, src_dir: str = str(ROOT / "src")) -> None:
    sys.path.insert(0, str(Path(src_dir).resolve()))
    import latticeheat
    from latticeheat.bessel import scaled_bessel_row

    rng = np.random.default_rng(SEED)
    taus = (10.0 ** rng.uniform(-300.0, math.log10(2e7), TAUS)).tolist()
    calls = [(tau, eps, floor) for tau in taus for eps in EPSS for floor in FLOORS]
    calls += NAMED + kernel_rows_calls(latticeheat)
    start = time.perf_counter()
    with open(out, "w", encoding="utf-8") as fh:
        for tau, eps, floor in calls:
            head = f"{tau.hex()} {eps!r} {floor!r}"
            try:
                row = scaled_bessel_row(tau, eps, floor)
            except (ArithmeticError, ValueError) as exc:
                fh.write(f"{head} {type(exc).__name__}: {exc}\n")
            else:
                digest = hashlib.sha256(row.values.tobytes()).hexdigest()
                fh.write(f"{head} {row.window} {row.tail_mass.hex()} {digest}\n")
    print(f"{len(calls)} rows in {time.perf_counter() - start:.1f} s -> {out}", file=sys.stderr)


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
