"""Run the ``lattice-heat`` byte corpus and write a manifest of what each run left behind.

    python3 tools/cli_corpus.py OUT_DIR [SRC_DIR]

Each run is a fresh ``python3 -c 'from latticeheat.cli import main; main()' ARGS`` process with
``PYTHONPATH=SRC_DIR`` (default: the ``src`` next to this file) and its working directory at
``OUT_DIR``, which must not exist yet.  Every path in an argument or a message is relative to it,
so it reads the same from any checkout.  ``OUT_DIR/manifest.jsonl`` holds one line per run: its
index, arguments, exit code, stderr and the sha256 of each file at its ``--out`` path.  Two checkouts compare by a ``diff`` of their manifests;
the hashes depend on the host's libm, so compare manifests made on one host.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

INPUTS = {
    "f.csv": "n,value\n-1,0.25\n0,1.0\n2,-0.5\n",
    "phi.csv": "n,value\n-1,0.5\n0,1.0\n2,-0.25\n",
    "g.json": '{"kind": "separable", "spatial": "phi.csv", "gamma": 2.0, "amplitude": 1.0}',
    "none.json": '{"kind": "none"}',
    # One forcing twice, scaled by exact powers of two: every Duhamel node product of the first is subnormal.
    "tiny_phi.csv": "n,value\n" + "".join(f"{i},{v * 2.0**-1070!r}\n" for i, v in enumerate((1.0, 0.5, 0.25))),
    "tiny.json": '{"kind": "separable", "spatial": "tiny_phi.csv", "gamma": 2.0, "amplitude": %r}' % 2.0**1000,
    "unit_phi.csv": "n,value\n0,1.0\n1,0.5\n2,0.25\n",
    "unit.json": '{"kind": "separable", "spatial": "unit_phi.csv", "gamma": 2.0, "amplitude": %r}' % 2.0**-70,
    "big.csv": "n,value\n0,1e300\n1,2e300\n2,1e300\n",  # finite values whose squares overflow
    "dup.csv": "n,value\n0,1.0\n0,2.0\n",  # index 0 twice
    "huge.csv": "n,value\n0,1e308\n1,1e308\n2,1e308\n",  # finite values whose sum overflows
    "huge.json": '{"kind": "separable", "spatial": "huge.csv", "gamma": 2.0, "amplitude": 1.0}',
    "wide.csv": "n,value\n0,1.0\n100000000000000000000,1.0\n",  # an index span no array can hold
    "str.json": '{"kind": "separable", "spatial": "phi.csv", "gamma": "2", "amplitude": true}',  # not JSON numbers
    "brace.json": "{",  # not JSON
    "utf16.json": b'\xff\xfe{"kind": "none"}',  # a UTF-16 byte-order mark: not UTF-8
    "dip.csv": "n,value\n0,1.3e156\n1,-1.2999999999999902e+156\n",  # finite squares whose sum overflows
    "one300.csv": "n,value\n0,1e300\n",
    "one300.json": '{"kind": "separable", "spatial": "one300.csv", "gamma": 2.0, "amplitude": 1.0}',
    "one308.csv": "n,value\n0,1e308\n",
    "one308.json": '{"kind": "separable", "spatial": "one308.csv", "gamma": 2.0, "amplitude": 1.0}',
    "e170.csv": "n,value\n-1,2.5e-170\n0,1e-170\n2,-5e-171\n",  # nonzero values whose squares underflow
    "digits.csv": "n,value\n" + "9" * 5000 + ",1.0\n",  # an index past Python's int digit limit
    # A smooth bump on 2,000 sites, (1 - (n / 1000)^2)^4 correctly rounded: long enough that the forcing's
    # Laplacian norms are formed in several blocks.
    "bump.csv": "n,value\n" + "".join(f"{n},{(10**6 - n * n) ** 4 / 10**24!r}\n" for n in range(-1000, 1000)),
    "bump.json": '{"kind": "separable", "spatial": "bump.csv", "gamma": 2.0, "amplitude": 0.0009765625}',  # l1 norm near 0.8
    # Signed data on 1,000 sites, each value exact in binary: the widest input of the benchmark's evolve ops.
    "sites1000.csv": "n,value\n" + "".join(f"{n},{(n * 37 % 101 - 50) / 64!r}\n" for n in range(-500, 500)),
    "subnormal.csv": "n,value\n" + "".join(f"{n},{v * 2.0**-1074!r}\n" for n, v in enumerate((3, -1, 0, 7, 2, -5))),
}


def corpus() -> list[list[str]]:
    """Each run's arguments, without ``--out``."""
    runs = [["kernel", "--t", t] for t in ("0", "1e-200", "1e-3", "0.5", "1.5", "1e3", "1e5")]
    runs += [["kernel", "--t", t, "--eps", e] for t in ("0.5", "1.5", "1e3") for e in ("1e-10", "1e-100")]
    runs += [["kernel", "--t", "1.5", "--plot"], ["kernel", "--t", "1e3", "--plot"], ["kernel", "--t", "1e40"]]
    f, g = ["--f", "inputs/f.csv"], ["--g", "inputs/g.json"]
    runs += [["evolve", "--t", "2", *f], ["evolve", "--t", "2", *f, *g, "--eps", "1e-9"]]
    runs += [["evolve", "--t", "2", *f, "--g", "inputs/none.json"], ["evolve", "--t", "300", *f]]
    runs += [["evolve", "--t", "2", *f, "--plot"]]
    runs += [["duhamel", "--t", "5", *g, "--eps", "1e-9"], ["duhamel", "--t", "10", *g], ["duhamel", "--t", "0.5", *g]]
    runs += [["duhamel", "--t", "2", "--g", "inputs/none.json"]]
    runs += [["duhamel", "--t", "1", "--g", f"inputs/{name}.json", "--eps", "1e-10"] for name in ("tiny", "unit")]
    for t in ("0.5", "1", "3", "10", "30", "100", "300"):
        runs += [["moments", "--t", t, "--kmax", k] for k in ("6", "12")]
    runs += [["moments", "--t", "1.3", "--kmax", "12"], ["moments", "--t", "1", "--kmax", "65"]]
    runs += [["moments", "--t", "1e3", "--kmax", k] for k in ("51", "52", "53")]
    runs += [["moments", "--t", "1e6", "--kmax", k] for k in ("34", "35")]
    for k in range(2, 13):
        runs += [["poly", "--kmax", str(k)], ["poly", "--kmax", str(k), "--roots"]]
    runs += [["poly", "--kmax", "13", "--roots"]]
    grid = ["--grid", "dyadic:16:512"]
    runs += [["decay", "--quantity", q, "--p", p, *grid] for q in ("G", "grad", "laplacian") for p in ("1", "2", "inf", "3")]
    runs += [["decay", "--quantity", q, "--p", "2", *grid, "--plot"] for q in ("G", "laplacian")]
    runs += [["decay"], ["decay", "--eps", "0.5"]]
    runs += [["converge", *f, "--p", p, *grid] for p in ("1", "2", "inf", "3")]
    runs += [["converge", *f, "--p", "2", *grid, "--plot"]]
    runs += [["converge", *g, "--p", p, "--grid", "dyadic:16:128"] for p in ("1", "2", "inf")]
    runs += [["fourier", "--t", t] for t in ("1", "7.5", "0")]
    runs += [["diffdecay", "--order", str(o), "--p", p, *grid] for o in range(1, 5) for p in ("1", "2", "inf")]
    runs += [["diffdecay", "--order", "2", "--p", "2", *grid, "--plot"]]
    runs += [["decay", "--p", "nan"], ["diffdecay", "--p", "nan"], ["converge", *f, "--p", "nan"]]
    runs += [["moments", "--t", "0.5", "--kmax", "50"], ["moments", "--t", "0", "--kmax", "3"]]
    runs += [["moments", "--t", "-1", "--kmax", "65"]]
    runs += [["evolve", "--t", "0", *f, "--eps", "7"], ["evolve", "--t", "0", *f, "--eps", "nan"], ["evolve", "--t", "0", *f, *g]]
    # Long rows, whose norms and sums cross exact_sum's cutoff.
    wide = ["--grid", "dyadic:1024:65536"]
    runs += [["decay", "--p", p, *wide] for p in ("1", "2")] + [["diffdecay", "--order", "2", "--p", "1", *wide]]
    runs += [["converge", *f, "--p", p, "--grid", "dyadic:1024:32768"] for p in ("1", "2")] + [["evolve", "--t", "1e5", *f]]
    runs += [["decay", "--p", "3", *wide], ["converge", *f, "--p", "3", "--grid", "dyadic:1024:32768"]]
    # Inputs the CLI refuses: an l2 norm past binary64, and an index given twice.
    runs += [["converge", "--f", "inputs/big.csv", "--p", "2", *grid], ["evolve", "--t", "1", "--f", "inputs/dup.csv"]]
    # Long files (646,477 rows at t = 1e9), and a p = 3 norm whose powers overflow.
    runs += [["kernel", "--t", "1e9"], ["evolve", "--t", "1e7", *f], ["converge", "--f", "inputs/big.csv", "--p", "3", *grid]]
    # An l1 norm, a mass and a Duhamel panel bound past binary64, an index span too wide, strings for numbers.
    huge = ["--f", "inputs/huge.csv"]
    runs += [["evolve", "--t", "1", *huge]] + [["converge", *huge, "--p", p, *grid] for p in ("1", "inf")]
    runs += [["duhamel", "--t", "1", "--g", "inputs/huge.json"], ["duhamel", "--t", "1e20", *g]]
    runs += [["evolve", "--t", "1", "--f", "inputs/wide.csv"], ["duhamel", "--t", "1", "--g", "inputs/str.json"]]
    runs += [["duhamel", "--t", "1", "--g", f"inputs/{name}.json"] for name in ("brace", "utf16")]
    # An l2 norm whose finite squares sum past binary64, forcings whose Laplacians overflow, eps at the window's floor.
    runs += [["converge", "--f", "inputs/dip.csv", "--p", "2", "--grid", "dyadic:16:64"]]
    runs += [["duhamel", "--t", "1", "--g", f"inputs/{name}.json"] for name in ("one300", "one308")]
    runs += [["kernel", "--t", "1", "--eps", e] for e in ("8e-308", "1e-307")]
    # The last order whose weights stay inside binary64 on window 262 (262^126 is about 1.5e304), and the next.
    runs += [["moments", "--t", "100", "--kmax", k] for k in ("63", "64")]
    # Forced solutions at large t: one Duhamel integral, and one per point of a long grid.
    runs += [["duhamel", "--t", "1e4", *g], ["converge", *g, "--p", "2", "--grid", "dyadic:16:4096"]]
    # Norms whose powers underflow: p = 1000 on kernel rows; data near 1e-170, whose mass is far above u ||f||_1.
    runs += [["decay", "--p", "1000", *grid], ["diffdecay", "--order", "2", "--p", "1000", *grid]]
    runs += [["converge", *f, "--p", "1000", *grid], ["converge", "--f", "inputs/e170.csv", "--p", "2", *grid]]
    # Refusals that quote a long number: a 152-digit step count, and a 5,000-digit index.
    runs += [["kernel", "--t", "1e300"], ["evolve", "--t", "1", "--f", "inputs/digits.csv"]]
    # A long smooth forcing: one Duhamel integral, and one per grid point.
    bump = ["--g", "inputs/bump.json"]
    runs += [["duhamel", "--t", "100", *bump], ["converge", *bump, "--p", "2", "--grid", "dyadic:16:128"]]
    # A row that rescales ten times, and one whose normalising sum alone passes the rescaling threshold.
    runs += [["kernel", "--t", "0.001", "--eps", "1e-300"], ["kernel", "--t", "5e4", "--eps", "1e-150"]]
    # One-point grids, which leave no slope to fit.
    runs += [["converge", *f, "--grid", "dyadic:16:16"], ["converge", *g, "--grid", "dyadic:16:16"]]
    runs += [["diffdecay", "--grid", "dyadic:16:16"]]
    # A Fourier grid past the cap, refused at once, and the cap itself.
    runs += [["fourier", "--t", "1", "--grid-size", n] for n in ("100000000000", "65536")]
    # A row whose first recurrence step is inf (2t = 1e-323), taken from the series; eps refusals with a forcing.
    runs += [["kernel", "--t", "5e-324"]]
    runs += [["evolve", "--t", "1", *f, *g, "--eps", e] for e in ("-1", "3", "1e-320")]
    # Evolve certificates from bounded norms: the benchmark's widest shape and subnormal data.  A row whose proved
    # window ends on two equal subnormal values.
    runs += [["evolve", "--t", "1000", "--f", "inputs/sites1000.csv"], ["evolve", "--t", "3", "--f", "inputs/subnormal.csv"]]
    runs += [["kernel", "--t", "25000", "--eps", "2.5e-302"]]
    # Sums of 233 to 1,309 values, around exact_sum's cutoff of 320: norms of rows and differences, and moments.
    band = ["--grid", "dyadic:128:4096"]
    runs += [["decay", "--p", "2", *band], ["diffdecay", "--order", "2", "--p", "1", *band]]
    runs += [["moments", "--t", "2500", "--kmax", "12"]]
    # Moment tables whose row ends at the origin's neighbours (t = 0 and 1e-300), and the last order whose weights
    # stay inside binary64 at t = 1e3, and the next.
    runs += [["moments", "--t", t, "--kmax", k] for t in ("0", "1e-300") for k in ("0", "5")]
    runs += [["moments", "--t", "1e3", "--kmax", k] for k in ("54", "55")]
    return runs


def main(out_dir: str, src_dir: str = str(Path(__file__).resolve().parent.parent / "src")) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True)  # a fresh directory, so no earlier run's file is hashed
    (out / "inputs").mkdir()
    (out / "runs").mkdir()
    for name, text in INPUTS.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (out / "inputs" / name).write_bytes(data if data.endswith(b"\n") else data + b"\n")
    env = dict(os.environ, PYTHONPATH=str(Path(src_dir).resolve()))
    code = "from latticeheat.cli import main; main()"
    with open(out / "manifest.jsonl", "w", encoding="utf-8") as manifest:
        for i, args in enumerate(corpus()):
            target = f"runs/{i:03d}-{args[0]}.csv"
            proc = subprocess.run([sys.executable, "-c", code, *args, "--out", target], cwd=out, env=env,
                                  capture_output=True, text=True)
            files = {p: hashlib.sha256((out / p).read_bytes()).hexdigest()
                     for p in (target, target + ".json", target + ".svg") if (out / p).exists()}
            record = {"run": i, "args": args, "exit": proc.returncode, "stderr": proc.stderr, "files": files}
            manifest.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
