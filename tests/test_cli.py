"""End-to-end tests of the lattice-heat command line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticeheat import bessel, cli, kernel, solver
from latticeheat.cli import run
from latticeheat.kernel import LatticeSequence, read_sequence_csv, sequence_csv_text

B0_AT_2 = 0.30850832255367104


def test_kernel_subcommand(tmp_path):
    out = tmp_path / "k.csv"
    assert run(["kernel", "--t", "1", "--eps", "1e-12", "--out", str(out)]) == 0
    seq = read_sequence_csv(out)
    assert seq.value(0) == pytest.approx(B0_AT_2, abs=1e-12)
    assert seq.value(1) == seq.value(-1)


def test_kernel_round_trip_through_evolve(tmp_path):
    k_csv = tmp_path / "k.csv"
    assert run(["kernel", "--t", "1", "--out", str(k_csv)]) == 0
    out = tmp_path / "u.csv"
    assert run(["evolve", "--t", "2", "--f", str(k_csv), "--out", str(out)]) == 0
    u = read_sequence_csv(out)
    direct = tmp_path / "k3.csv"
    assert run(["kernel", "--t", "3", "--out", str(direct)]) == 0
    k3 = read_sequence_csv(direct)
    assert u.mass() == pytest.approx(1.0, abs=1e-10)
    assert u.value(0) == pytest.approx(k3.value(0), abs=1e-10)
    meta = json.loads((tmp_path / "u.csv.json").read_text())
    assert meta["t"] == 2.0


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["decay", "--quantity", "G", "--p", "inf", "--grid", "dyadic:16:512", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def test_poly_roots_table(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["poly", "--kmax", "6", "--roots", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "k,root_index,root"
    got = {}
    for line in rows[1:]:
        k, idx, root = line.split(",")
        got.setdefault(int(k), []).append(float(root))
    assert got[2][0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
    assert got[4][0] == pytest.approx(-1.63703823077, abs=1e-4)


def test_poly_coefficients_table(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["poly", "--kmax", "3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1].startswith("0,0,1")
    assert rows[4].split(",")[:6] == ["3", "3", "0", "1", "15", "15"]


def test_decay_sidecar_slope(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["decay", "--quantity", "G", "--p", "inf", "--grid", "dyadic:16:1024", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "d.csv.json").read_text())
    assert meta["slope"] == pytest.approx(-0.5, abs=0.03)


def test_fourier_subcommand(tmp_path):
    out = tmp_path / "f.csv"
    assert run(["fourier", "--t", "1", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "f.csv.json").read_text())
    assert meta["max_abs_error"] <= 1e-10


def test_duhamel_subcommand(tmp_path):
    spatial = tmp_path / "spatial.csv"
    spatial.write_text(sequence_csv_text(LatticeSequence.delta(0)))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0}))
    out = tmp_path / "ug.csv"
    assert run(["duhamel", "--t", "10", "--g", str(g_path), "--eps", "1e-9", "--out", str(out)]) == 0
    u = read_sequence_csv(out)
    assert u.mass() == pytest.approx(10.0 / 11.0, abs=1e-8)


def test_converge_subcommand(tmp_path):
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.delta(3)))
    out = tmp_path / "c.csv"
    assert run(["converge", "--f", str(f_csv), "--p", "1", "--grid", "dyadic:16:1024", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "c.csv.json").read_text())
    assert meta["slope"] == pytest.approx(-0.5, abs=0.05)


def test_diffdecay_subcommand(tmp_path):
    out = tmp_path / "dd.csv"
    assert run(["diffdecay", "--order", "3", "--p", "1", "--grid", "dyadic:16:1024", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "dd.csv.json").read_text())
    assert meta["experimental"] is True
    assert math.isfinite(meta["slope"])


def test_plot_writes_svg(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["decay", "--quantity", "G", "--p", "2", "--grid", "dyadic:16:512", "--plot", "--out", str(out)]) == 0
    svg = (tmp_path / "d.csv.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_usage_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["kernel", "--t", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["nonsense"]) == 2
    assert run(["converge", "--p", "1", "--out", str(out)]) == 2
    assert not out.exists()
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.delta(0)))
    assert run(["converge", "--f", str(f_csv), "--g", str(f_csv), "--out", str(out)]) == 2
    assert not out.exists()
    g_json = tmp_path / "g.json"
    g_json.write_text(json.dumps({"kind": "none"}))
    capsys.readouterr()
    # Flags the subcommand would ignore are not accepted.
    for argv in (
        ["evolve", "--t", "1", "--f", str(f_csv), "--plot"],
        ["duhamel", "--t", "1", "--g", str(g_json), "--plot"],
        ["fourier", "--t", "1", "--plot"],
        ["moments", "--t", "1", "--eps", "1e-9"],
        ["moments", "--t", "1", "--plot"],
        ["poly", "--eps", "1e-9"],
        ["poly", "--plot"],
    ):
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "usage: lattice-heat" in err and "unrecognized arguments" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "g.json"]


def test_none_forcing_json(tmp_path):
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.from_pairs({0: 1.0, 2: -0.5})))
    g_json = tmp_path / "none.json"
    g_json.write_text(json.dumps({"kind": "none"}))
    assert run(["evolve", "--t", "2", "--f", str(f_csv), "--g", str(g_json), "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["evolve", "--t", "2", "--f", str(f_csv), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()
    assert run(["duhamel", "--t", "2", "--g", str(g_json), "--out", str(tmp_path / "u.csv")]) == 0
    assert (tmp_path / "u.csv").read_text() == "n,value\n0,0.0\n"


def test_computation_failure_exits_1(tmp_path):
    spatial = tmp_path / "spatial.csv"
    spatial.write_text(sequence_csv_text(LatticeSequence.delta(0)))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0}))
    out = tmp_path / "ug.csv"
    assert run(["duhamel", "--t", "100", "--g", str(g_path), "--eps", "1e-15", "--out", str(out)]) == 1
    assert not out.exists()


def _assert_rejected(capsys, out, argv, code=2):
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()
    assert not (out.parent / (out.name + ".json")).exists()
    return err


def test_short_csv_row_exits_2(tmp_path, capsys):
    f_csv = tmp_path / "short.csv"
    f_csv.write_text("n,value\n0,1.0\n1\n")
    err = _assert_rejected(capsys, tmp_path / "u.csv", ["evolve", "--t", "1", "--f", str(f_csv)])
    assert "short.csv, line 3" in err


def test_non_finite_csv_value_exits_2(tmp_path, capsys):
    f_csv = tmp_path / "nan.csv"
    f_csv.write_text("n,value\n0,nan\n1,1.0\n")
    err = _assert_rejected(capsys, tmp_path / "u.csv", ["evolve", "--t", "1", "--f", str(f_csv)])
    assert "nan.csv, line 2" in err


@pytest.mark.parametrize("key", ["spatial", "gamma", "amplitude"])
def test_forcing_json_missing_key_exits_2(tmp_path, capsys, key):
    spec = {"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0}
    del spec[key]
    (tmp_path / "spatial.csv").write_text(sequence_csv_text(LatticeSequence.delta(0)))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(spec))
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", "1", "--g", str(g_path)])
    assert "g.json" in err and err.rstrip().endswith(f"key(s) {key}")


def test_repeated_csv_index_exits_2(tmp_path, capsys):
    f_csv = tmp_path / "dup.csv"
    f_csv.write_text("n,value\n0,1.0\n0,2.0\n")
    err = _assert_rejected(capsys, tmp_path / "u.csv", ["evolve", "--t", "1", "--f", str(f_csv)])
    assert "dup.csv, line 3: index 0 appears twice" in err


@pytest.mark.filterwarnings("error")
def test_infinite_l2_norm_exits_1(tmp_path, capsys):
    # Finite data whose squares overflow: the l2 norms of u(t) are infinite, and no inf may leave with exit 0.
    f_csv = tmp_path / "big.csv"
    f_csv.write_text("n,value\n0,1e300\n1,2e300\n2,1e300\n")
    argv = ["converge", "--f", str(f_csv), "--p", "2", "--grid", "dyadic:16:512"]
    err = _assert_rejected(capsys, tmp_path / "c.csv", argv, code=1)
    assert "computation failed" in err and "l2 norm" in err


def test_gating_failure_exits_1(tmp_path, capsys):
    err = _assert_rejected(capsys, tmp_path / "d.csv", ["decay", "--eps", "0.5"], code=1)
    assert "computation failed" in err


@pytest.mark.filterwarnings("error")
def test_infinite_forcing_integral_exits_2(tmp_path, capsys):
    (tmp_path / "spatial.csv").write_text(sequence_csv_text(LatticeSequence.from_pairs({0: 1.0, 1: 1.0})))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 0.5, "amplitude": 1e308}))
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", "100", "--g", str(g_path)])
    assert "not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["1", "100"])
def test_overflowing_derivative_bound_exits_2(tmp_path, capsys, t):
    (tmp_path / "spatial.csv").write_text(sequence_csv_text(LatticeSequence.delta(0)))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1e308}))
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", t, "--g", str(g_path)])
    assert "16th time derivative is not finite" in err


def test_kernel_frame_error_exits_1(tmp_path, capsys, monkeypatch):
    frame = []

    def widening(t, eps, min_half_width=None):
        # The first call fixes the frame half-width; every node row is wider.
        row = kernel.heat_kernel(t, eps, frame[0] + 1 if frame else min_half_width)
        frame.append(row.window + 2)
        return row

    monkeypatch.setattr(solver, "heat_kernel", widening)
    (tmp_path / "spatial.csv").write_text(sequence_csv_text(LatticeSequence.delta(0)))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0}))
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", "2", "--g", str(g_path)], code=1)
    assert "computation failed" in err and "exceeds the frame" in err


def test_uncertified_kernel_window_exits_1(tmp_path, capsys, monkeypatch):
    # A window search that finds no certified window raises; it used to return a zero tail bound.
    monkeypatch.setattr(bessel, "_start_index", lambda tau, eps, floor: (max(floor, 5), max(floor, 5) + 1))
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "500", "--eps", "1e-12"], code=1)
    assert "computation failed" in err and "certifies" in err


def test_memory_exhaustion_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted(tau, m):
        raise MemoryError

    monkeypatch.setattr(bessel, "_recurrence_row", exhausted)
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e3"], code=1)
    assert "computation failed: MemoryError" in err


def test_moments_past_the_odd_order_overflow_guard(tmp_path):
    # n^105 overflows on the t = 1e3 window, but odd moments are 0.0 without any power.
    out, shorter = tmp_path / "m.csv", tmp_path / "m51.csv"
    assert run(["moments", "--t", "1e3", "--kmax", "52", "--out", str(out)]) == 0
    assert run(["moments", "--t", "1e3", "--kmax", "51", "--out", str(shorter)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 54 and all(row.endswith(",0.0") for row in rows[1:])
    assert rows[:53] == shorter.read_text().splitlines()


def test_moments_past_the_weighted_tail_overflow_guard_exits_1(tmp_path, capsys):
    # The weighted tail of order 106 on the t = 1e3 window used to fail as "(34, 'Numerical result out of range')".
    err = _assert_rejected(capsys, tmp_path / "m.csv", ["moments", "--t", "1e3", "--kmax", "53"], code=1)
    assert "computation failed: n^106 exceeds binary64 range on window 824" in err


def test_over_long_recurrence_exits_1_at_once(tmp_path, capsys, monkeypatch):
    def unreachable(tau, m):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(bessel, "_recurrence_row", unreachable)
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e13"], code=1)
    assert "computation failed" in err and "54796881 recurrence steps" in err


def test_tiny_eps_kernel_gets_a_wider_window(tmp_path):
    # At eps 1e-100 the window used to stop at 43 with a zero certificate; the proved start reaches the edge.
    out = tmp_path / "k.csv"
    assert run(["kernel", "--t", "0.5", "--eps", "1e-100", "--out", str(out)]) == 0
    assert read_sequence_csv(out).hi == kernel.heat_kernel(0.5, 1e-100).window == 60


@pytest.mark.parametrize(
    "grid", ["dyadic:16:inf", "dyadic:0:64", "dyadic:-1:64", "dyadic:inf:inf", "dyadic:nan:64", "dyadic:64:16"]
)
def test_unbounded_or_empty_grid_exits_2(tmp_path, capsys, grid):
    # dyadic:16:inf used to build its grid until the process ran out of memory.
    err = _assert_rejected(capsys, tmp_path / "d.csv", ["decay", "--grid", grid])
    assert "grid bounds" in err


def test_unallocatable_kernel_exits_1(tmp_path, capsys):
    # The row at t = 1e40 needs more recurrence values than numpy can index, far past the step cap.
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e40"], code=1)
    assert "computation failed" in err and "tau=2e+40" in err


def test_overflowing_kernel_time_exits_2_naming_t(tmp_path, capsys):
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e308"])
    assert "invalid arguments: t must" in err and "tau" not in err


@pytest.mark.parametrize("argv", [["--t", "0"], ["--t", "1", "--grid-size", "-3"], ["--t", "1", "--grid-size", "15"]])
def test_fourier_out_of_range_exits_2(tmp_path, capsys, argv):
    _assert_rejected(capsys, tmp_path / "f.csv", ["fourier"] + argv)


def test_unwritable_output_exits_1(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.delta(0)))
    err = _assert_rejected(capsys, tmp_path / "nodir" / "u.csv", ["evolve", "--t", "1", "--f", str(f_csv)], code=1)
    assert "cannot write output" in err


def test_failed_sidecar_write_removes_written_files(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.delta(0)))
    (tmp_path / "u.csv.json").mkdir()  # the sidecar path cannot be opened for writing
    out = tmp_path / "u.csv"
    assert run(["evolve", "--t", "1", "--f", str(f_csv), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "u.csv.json"]


@pytest.mark.parametrize(
    "text, fragment",
    [("[]", "must be a JSON object"), ('{"kind": "separable", "spatial": 5, "gamma": 2, "amplitude": 1}', "key spatial")],
)
def test_malformed_forcing_json_exits_2(tmp_path, capsys, text, fragment):
    g_path = tmp_path / "g.json"
    g_path.write_text(text)
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", "1", "--g", str(g_path)])
    assert "g.json" in err and fragment in err


def test_parser_reuse_keeps_outputs_byte_identical(tmp_path, capsys):
    argvs = [
        ["decay", "--p", "inf", "--grid", "dyadic:16:512"],
        ["decay", "--p", "inf"],
        ["decay", "--p", "inf", "--grid", "dyadic:16:1024"],
        ["poly", "--kmax", "8", "--roots"],
        ["poly", "--kmax", "8", "--roots"],
    ]
    texts = []
    for rep in range(2):
        capsys.readouterr()
        assert run(["decay", "--grid", "dyadic:0:1", "--out", str(tmp_path / "bad.csv")]) == 2
        outputs = [capsys.readouterr().err]
        for i, argv in enumerate(argvs):
            out = tmp_path / f"{rep}_{i}.csv"
            assert run(argv + ["--out", str(out)]) == 0
            outputs += [p.read_bytes() for p in sorted(tmp_path.glob(f"{rep}_{i}.csv*"))]
        texts.append(outputs)
    assert "usage: lattice-heat" in texts[0][0]
    assert texts[1] == texts[0]
    # The default grid is dyadic:16:1024, and the repeated poly run matches its first.
    assert texts[0][3:5] == texts[0][5:7] and texts[0][7] == texts[0][8]
    # argparse converts the string default on every call, so no call shares a grid list.
    parser = cli._build_parser()
    assert parser.parse_args(["decay", "--out", "a"]).grid is not parser.parse_args(["decay", "--out", "a"]).grid


def test_import_builds_no_parser():
    code = "import latticeheat.cli as c; assert c._build_parser.cache_info().currsize == 0"
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("subcommand", ["decay", "diffdecay", "converge"])
@pytest.mark.parametrize("p", ["nan", "NaN"])
def test_nan_p_exits_2(tmp_path, capsys, subcommand, p):
    # NaN fails every comparison: a p < 1 test lets it through, every norm is NaN and the error gate exits 1.
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.from_pairs({0: 1.0, 2: -0.5})))
    data = ["--f", str(f_csv)] if subcommand == "converge" else []
    err = _assert_rejected(capsys, tmp_path / "d.csv", [subcommand, "--p", p, *data])
    assert "usage: lattice-heat" in err and f"p must be >= 1 or 'inf', got '{p}'" in err


@pytest.mark.parametrize("eps", ["7", "nan", "0"])
def test_evolve_checks_eps_at_t_0(tmp_path, capsys, eps):
    # t = 0 used to return f before eps was looked at, so these exited 0 while every t > 0 exits 2.
    f_csv = tmp_path / "f.csv"
    f_csv.write_text(sequence_csv_text(LatticeSequence.from_pairs({-1: 0.25, 0: 1.0, 2: -0.5})))
    err = _assert_rejected(capsys, tmp_path / "u.csv", ["evolve", "--t", "0", "--f", str(f_csv), "--eps", eps])
    assert f"eps must lie in (0, 1), got {float(eps)!r}" in err


def test_evolve_with_forcing_at_t_0_is_f(tmp_path):
    # u(0) = f: the forced part is not evaluated, as duhamel refuses t = 0.
    f_csv, g_json, none_json = tmp_path / "f.csv", tmp_path / "g.json", tmp_path / "none.json"
    f_csv.write_text(sequence_csv_text(LatticeSequence.from_pairs({-1: 0.25, 0: 1.0, 2: -0.5})))
    (tmp_path / "phi.csv").write_text(sequence_csv_text(LatticeSequence.delta(0)))
    g_json.write_text(json.dumps({"kind": "separable", "spatial": "phi.csv", "gamma": 2.0, "amplitude": 1.0}))
    none_json.write_text(json.dumps({"kind": "none"}))
    for name, g in (("g.csv", g_json), ("none.csv", none_json)):
        assert run(["evolve", "--t", "0", "--f", str(f_csv), "--g", str(g), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "none.csv").read_bytes() == f_csv.read_bytes()
    assert (tmp_path / "g.csv.json").read_bytes() == (tmp_path / "none.csv.json").read_bytes()
    assert json.loads((tmp_path / "g.csv.json").read_text()) == {"t": 0.0, "quad_error": 0.0, "trunc_error": 0.0}
