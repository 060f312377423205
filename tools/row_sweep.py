"""Run a seeded set of ``scaled_bessel_row`` calls and write a manifest of what each returned.

    python3 tools/row_sweep.py OUT [SRC_DIR]
    python3 tools/row_sweep.py --compare OLD NEW

The library is imported from SRC_DIR (default: the ``src`` next to this file).  OUT gets one line per
call: ``tau.hex()``, eps, the floor (``min_half_width``), then the window, ``tail_mass.hex()`` and the
sha256 of the values' bytes, or the exception's type and message where the call raises.  The calls are
seeded log-uniform tau from 1e-300 to 2e7 at every eps in ``EPSS`` and floor in ``FLOORS``; the rows
that the tests name for rescaling, the series fallback and the edges of the recurrence's passes; and
the rows of one seed-1 round of the benchmark's ``kernel_rows`` workload (``bench/workloads.py``).
Two checkouts compare by their manifests: ``--compare`` prints each row whose outcome, window,
``tail_mass`` or values moved, with the old and new values and the ratio new / old, then how many rows
moved in each way.  The hashes depend on the host's libm, so compare manifests made on one host.
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


def parse(line: str) -> tuple[str, tuple]:
    """(the call, its outcome): (window, tail_mass, hash) for a row, (the exception,) for a refusal."""
    tau, eps, floor, rest = line.rstrip("\n").split(" ", 3)
    call, parts = f"{float.fromhex(tau)!r} {eps} {floor}", rest.split(" ")
    if len(parts) == 3 and parts[0].isdigit():
        return call, (int(parts[0]), float.fromhex(parts[1]), parts[2])
    return call, (rest,)


def compare(old_path: str, new_path: str) -> None:
    with open(old_path, encoding="utf-8") as fh:
        old_rows = [parse(line) for line in fh]
    with open(new_path, encoding="utf-8") as fh:
        new_rows = [parse(line) for line in fh]
    if [call for call, _ in old_rows] != [call for call, _ in new_rows]:
        sys.exit("the manifests list different calls")
    counts = dict.fromkeys(["outcome", "window grew", "window shrank", "tail_mass grew", "tail_mass fell", "values"], 0)
    for (call, old), (_, new) in zip(old_rows, new_rows):
        if old == new:
            continue
        if len(old) == 1 or len(new) == 1:
            counts["outcome"] += 1
            print(f"{call}: {' '.join(map(str, old))} -> {' '.join(map(str, new))}")
            continue
        moved = []
        for i, name, fell in ((0, "window", "shrank"), (1, "tail_mass", "fell")):
            if old[i] != new[i]:
                counts[f"{name} {'grew' if new[i] > old[i] else fell}"] += 1
                ratio = f" ({new[i] / old[i]:.9f}x)" if old[i] else ""
                moved.append(f"{name} {old[i]!r} -> {new[i]!r}{ratio}")
        if old[2] != new[2]:
            counts["values"] += 1
            moved.append("values")
        print(f"{call}: {', '.join(moved)}")
    print(f"{len(old_rows)} rows; moved: " + ", ".join(f"{name} {n}" for name, n in counts.items()))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(*sys.argv[2:])
    elif 2 <= len(sys.argv) <= 3 and not sys.argv[1].startswith("-"):
        main(*sys.argv[1:])
    else:
        sys.exit(__doc__)
