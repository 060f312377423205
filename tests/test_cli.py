"""End-to-end tests of the lattice-heat command line."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latticeheat import bessel, cli, kernel
from latticeheat.cli import run
from latticeheat.kernel import LatticeSequence, csv_lines, read_sequence_csv

B0_AT_2 = 0.30850832255367104


@pytest.mark.parametrize("t", [1.0, 1e3])
def test_kernel_subcommand(tmp_path, t):
    # The file is written from the half row; it must match the unfolded row, cell for cell.
    out = tmp_path / "k.csv"
    assert run(["kernel", "--t", repr(t), "--eps", "1e-12", "--out", str(out)]) == 0
    seq = kernel.heat_kernel(t, 1e-12).to_sequence()
    assert out.read_text() == "".join(csv_lines(["n", "value"], zip(seq.indices(), seq.values.tolist())))
    back = read_sequence_csv(out)
    assert back.offset == seq.offset and back.values.tobytes() == seq.values.tobytes()
    assert back.value(1) == back.value(-1)
    if t == 1.0:
        assert back.value(0) == pytest.approx(B0_AT_2, abs=1e-12)


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


def test_duhamel_subcommand(tmp_path, write_sequence_csv):
    spatial = tmp_path / "spatial.csv"
    write_sequence_csv(spatial, LatticeSequence.delta(0))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0}))
    out = tmp_path / "ug.csv"
    assert run(["duhamel", "--t", "10", "--g", str(g_path), "--eps", "1e-9", "--out", str(out)]) == 0
    u = read_sequence_csv(out)
    assert u.mass() == pytest.approx(10.0 / 11.0, abs=1e-8)


def test_converge_subcommand(tmp_path, write_sequence_csv):
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.delta(3))
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


@pytest.mark.parametrize(
    "argv",
    [["decay"], ["diffdecay", "--order", "3"], ["converge", "--f", "f.csv"]],
    ids=lambda argv: argv[0],
)
def test_norms_at_p_1000_exit_0(tmp_path, monkeypatch, argv):
    # Their p-th powers underflow on every row, so each of these used to exit 1.
    monkeypatch.chdir(tmp_path)
    Path("f.csv").write_text("n,value\n-1,0.25\n0,1.0\n2,-0.5\n")
    assert run(argv + ["--p", "1000", "--grid", "dyadic:16:1024", "--out", "r.csv"]) == 0
    assert math.isfinite(json.loads(Path("r.csv.json").read_text())["slope"])


def test_plot_writes_svg(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["decay", "--quantity", "G", "--p", "2", "--grid", "dyadic:16:512", "--plot", "--out", str(out)]) == 0
    svg = (tmp_path / "d.csv.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_usage_errors_exit_2(tmp_path, capsys, write_sequence_csv):
    out = tmp_path / "x.csv"
    assert run(["kernel", "--t", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["nonsense"]) == 2
    assert run(["converge", "--p", "1", "--out", str(out)]) == 2
    assert not out.exists()
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.delta(0))
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


def test_none_forcing_json(tmp_path, write_sequence_csv):
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.from_pairs({0: 1.0, 2: -0.5}))
    g_json = tmp_path / "none.json"
    g_json.write_text(json.dumps({"kind": "none"}))
    assert run(["evolve", "--t", "2", "--f", str(f_csv), "--g", str(g_json), "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["evolve", "--t", "2", "--f", str(f_csv), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()
    assert run(["duhamel", "--t", "2", "--g", str(g_json), "--out", str(tmp_path / "u.csv")]) == 0
    assert (tmp_path / "u.csv").read_text() == "n,value\n0,0.0\n"


def test_computation_failure_exits_1(tmp_path, write_sequence_csv):
    spatial = tmp_path / "spatial.csv"
    write_sequence_csv(spatial, LatticeSequence.delta(0))
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
def test_forcing_json_missing_key_exits_2(tmp_path, capsys, key, write_sequence_csv):
    spec = {"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": 1.0}
    del spec[key]
    write_sequence_csv(tmp_path / "spatial.csv", LatticeSequence.delta(0))
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
@pytest.mark.parametrize("p", ["2", "3"])
def test_infinite_l2_norm_exits_1(tmp_path, capsys, p):
    # Finite data whose squares (cubes) overflow: the norms of u(t) are infinite, and no inf may leave with exit 0.
    f_csv = tmp_path / "big.csv"
    f_csv.write_text("n,value\n0,1e300\n1,2e300\n2,1e300\n")
    argv = ["converge", "--f", str(f_csv), "--p", p, "--grid", "dyadic:16:512"]
    err = _assert_rejected(capsys, tmp_path / "c.csv", argv, code=1)
    assert "computation failed" in err and f"l{p} norm" in err


def test_gating_failure_exits_1(tmp_path, capsys):
    err = _assert_rejected(capsys, tmp_path / "d.csv", ["decay", "--eps", "0.5"], code=1)
    assert "computation failed" in err


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (["converge", "--f", "f.csv", "--grid", "dyadic:16:16"], 2, "invalid arguments: large-time[u_f"),
        (["converge", "--g", "g.json", "--grid", "dyadic:16:16"], 2, "invalid arguments: large-time[u_g"),
        (["diffdecay", "--grid", "dyadic:16:16"], 2, "invalid arguments: difference-decay"),
        (["decay", "--eps", "0.5"], 1, "computation failed: kernel-decay"),
    ],
    ids=["converge-f", "converge-g", "diffdecay", "decay-gated"],
)
def test_one_point_grid_exits_2_and_gated_points_exit_1(tmp_path, capsys, monkeypatch, argv, code, fragment):
    # A one-point grid leaves no slope whatever the gating does; at eps 0.5 the decay points are gated out.
    monkeypatch.chdir(tmp_path)
    Path("f.csv").write_text("n,value\n-1,0.25\n0,1.0\n2,-0.5\n")
    Path("g.json").write_text(json.dumps({"kind": "separable", "spatial": "f.csv", "gamma": 2.0, "amplitude": 1.0}))
    err = _assert_rejected(capsys, tmp_path / "r.csv", argv, code=code)
    assert fragment in err and ("survived error gating" in err) == (code == 1)


@pytest.mark.filterwarnings("error")
def test_infinite_forcing_integral_exits_2(tmp_path, capsys, write_sequence_csv):
    write_sequence_csv(tmp_path / "spatial.csv", LatticeSequence.from_pairs({0: 1.0, 1: 1.0}))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 0.5, "amplitude": 1e308}))
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", "100", "--g", str(g_path)])
    assert "not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "t, value, amplitude",
    [
        pytest.param("1", 1.0, 1e308, id="1"),
        pytest.param("100", 1.0, 1e308, id="100"),
        # ||Delta^j phi||_1 past binary64: 1e300 failed as "intermediate overflow in fsum", 1e308 warned from NumPy first.
        pytest.param("1", 1e300, 1.0, id="laplacians-1e300"),
        pytest.param("1", 1e308, 1.0, id="laplacians-1e308"),
    ],
)
def test_overflowing_derivative_bound_exits_2(tmp_path, capsys, t, value, amplitude, write_sequence_csv):
    write_sequence_csv(tmp_path / "spatial.csv", LatticeSequence.from_pairs({0: value}))
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps({"kind": "separable", "spatial": "spatial.csv", "gamma": 2.0, "amplitude": amplitude}))
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", t, "--g", str(g_path)])
    assert "invalid arguments: the bound on the forcing's 16th time derivative is not finite" in err


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
    # n^107 overflows on the t = 1e3 window of kmax 53 (779), but odd moments are 0.0 without any power.
    out, shorter = tmp_path / "m.csv", tmp_path / "m52.csv"
    assert run(["moments", "--t", "1e3", "--kmax", "53", "--out", str(out)]) == 0
    assert run(["moments", "--t", "1e3", "--kmax", "52", "--out", str(shorter)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()]
    assert len(rows) == 55 and all(row[3] == "0.0" for row in rows[1:])
    # Each table sums over the row of its own top order, so the shorter one is not its start: the k, poly_value and
    # odd_moment columns agree, and each even moment lies within its tol, max(1e-12, 1e-10 poly_value), of the other.
    short = [row.split(",") for row in shorter.read_text().splitlines()]
    assert [[k, p, o] for k, _, p, o in rows[:54]] == [[k, p, o] for k, _, p, o in short]
    assert any(a[1] != b[1] for a, b in zip(rows[1:], short[1:]))
    for (_, a, p, _), (_, b, _, _) in zip(rows[1:], short[1:]):
        assert abs(float(a) - float(b)) <= 2.0 * max(1e-12, 1e-10 * float(p))


def test_moments_past_the_weighted_tail_overflow_guard_exits_1(tmp_path, capsys):
    # The weighted tail of order 106 on the t = 1e3 window used to fail as "(34, 'Numerical result out of range')".
    for argv, message in [
        # The eps row at t = 1e6 (window 11,863) is already past the widest window whose n^76 is finite (11,270).
        (["moments", "--t", "1e6", "--kmax", "38"], "n^76 exceeds binary64 range on window 11863"),
        # The widest window whose n^110 is finite, 629, does not certify order 110's tail.
        (["moments", "--t", "1e3", "--kmax", "55"],
         "could not certify weighted tail <= 1.5994306810969627e+260 at t=1000.0, order=110"),
    ]:
        err = _assert_rejected(capsys, tmp_path / "m.csv", argv, code=1)
        assert f"computation failed: {message}" in err


def test_over_long_recurrence_exits_1_at_once(tmp_path, capsys, monkeypatch):
    def unreachable(tau, m):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(bessel, "_recurrence_row", unreachable)
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e13"], code=1)
    assert "computation failed" in err and "54796881 recurrence steps" in err


@pytest.mark.parametrize("argv", [["decay"], ["diffdecay", "--order", "2"], ["converge", "--f", "F"], ["converge", "--g", "G"]])
def test_grid_reports_refuse_an_over_long_row_before_building_any(tmp_path, capsys, monkeypatch, argv):
    # dyadic:1:1e308 ends at t = 2^1023, whose 2t is inf; the first time refused, ascending, is t = 2^42, past the
    # step cap.  Building the rows up to it took 16 s and peaked at 0.6-1.1 GB; now the refusal builds no row.
    def unreachable(*args, **kwargs):
        raise AssertionError("a row was built")

    (tmp_path / "f.csv").write_text("n,value\n0,1.0\n1,0.5\n")
    (tmp_path / "g.json").write_text('{"kind": "separable", "spatial": "f.csv", "gamma": 2.0, "amplitude": 1.0}')
    argv = [str(tmp_path / "f.csv") if a == "F" else str(tmp_path / "g.json") if a == "G" else a for a in argv]
    monkeypatch.setattr(kernel, "scaled_bessel_row", unreachable)
    err = _assert_rejected(capsys, tmp_path / "r.csv", [*argv, "--grid", "dyadic:1:1e308"], code=1)
    assert err == (
        "lattice-heat: computation failed: the row at tau=8796093022208.0 needs 36240524 recurrence steps, more than 33554432\n"
    )


def test_grid_refusals_keep_their_order(tmp_path, capsys, monkeypatch):
    # An eps that no row takes is refused as heat_kernel refuses it, before the step cap of a later time.
    err = _assert_rejected(capsys, tmp_path / "r.csv", ["decay", "--eps", "1.5", "--grid", "dyadic:1:1e308"])
    assert err == "lattice-heat: invalid arguments: eps must lie in (0, 1), got 1.5\n"


def test_tiny_eps_kernel_gets_a_wider_window(tmp_path):
    # At eps 1e-100 the window used to stop at 43 with a zero certificate; the proved start reaches the edge.
    out = tmp_path / "k.csv"
    assert run(["kernel", "--t", "0.5", "--eps", "1e-100", "--out", str(out)]) == 0
    assert read_sequence_csv(out).hi == kernel.heat_kernel(0.5, 1e-100).window == 60


def test_subnormal_window_edge_kernel_exits_0(tmp_path):
    # The proved window's last two values are one subnormal; this run used to exit 1, "no window up to 8598 certifies".
    out = tmp_path / "k.csv"
    assert run(["kernel", "--t", "25000", "--eps", "2.5e-302", "--out", str(out)]) == 0
    assert read_sequence_csv(out).hi == kernel.heat_kernel(25000.0, 2.5e-302).window < 8598


@pytest.mark.parametrize(
    "grid", ["dyadic:16:inf", "dyadic:0:64", "dyadic:-1:64", "dyadic:inf:inf", "dyadic:nan:64", "dyadic:64:16"]
)
def test_unbounded_or_empty_grid_exits_2(tmp_path, capsys, grid):
    # dyadic:16:inf used to build its grid until the process ran out of memory.
    err = _assert_rejected(capsys, tmp_path / "d.csv", ["decay", "--grid", grid])
    assert "grid bounds" in err


@pytest.mark.parametrize("grid", ["foo:1:2", "dyadic:16", "dyadic:16:64:4"])
def test_malformed_grid_exits_2(tmp_path, capsys, grid):
    err = _assert_rejected(capsys, tmp_path / "d.csv", ["decay", "--grid", grid])
    assert f"argument --grid: grid must look like dyadic:A:B, got {grid!r}" in err


def test_header_only_csv_is_the_zero_sequence(tmp_path, capsys):
    # No data rows leave the zero sequence at 0: its evolution is zero, and a profile needs a nonzero mass.
    f_csv = tmp_path / "h.csv"
    f_csv.write_text("n,value\n")
    f = read_sequence_csv(f_csv)
    assert (f.offset, f.values.tolist()) == (0, [0.0])
    out = tmp_path / "u.csv"
    assert run(["evolve", "--t", "1", "--f", str(f_csv), "--out", str(out)]) == 0
    assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"0.0"}
    err = _assert_rejected(capsys, tmp_path / "c.csv", ["converge", "--f", str(f_csv)])
    assert "invalid arguments: homogeneous profile requires nonzero mass" in err


def test_blank_lines_in_a_csv_are_skipped(tmp_path):
    spaced, plain = tmp_path / "b.csv", tmp_path / "p.csv"
    spaced.write_text("n,value\n\n0,1.0\n\n\n2,-0.5\n\n")
    plain.write_text("n,value\n0,1.0\n2,-0.5\n")
    for name, f_csv in (("b", spaced), ("p", plain)):
        assert run(["evolve", "--t", "1", "--f", str(f_csv), "--out", str(tmp_path / f"{name}.out.csv")]) == 0
    for suffix in ("out.csv", "out.csv.json"):
        assert (tmp_path / f"b.{suffix}").read_bytes() == (tmp_path / f"p.{suffix}").read_bytes()


def test_unallocatable_kernel_exits_1(tmp_path, capsys):
    # The row at t = 1e40 needs more recurrence values than numpy can index, far past the step cap.
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e40"], code=1)
    assert "computation failed" in err and "tau=2e+40" in err


def test_overflowing_kernel_time_exits_2_naming_t(tmp_path, capsys):
    err = _assert_rejected(capsys, tmp_path / "k.csv", ["kernel", "--t", "1e308"])
    assert "invalid arguments: t must" in err and "tau" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--t", "0"],
        ["--t", "1", "--grid-size", "-3"],
        ["--t", "1", "--grid-size", "15"],
        ["--t", "1", "--grid-size", "100000000000"],  # used to build rows until memory ran out
    ],
)
def test_fourier_out_of_range_exits_2(tmp_path, capsys, argv):
    _assert_rejected(capsys, tmp_path / "f.csv", ["fourier"] + argv)


def test_unwritable_output_exits_1(tmp_path, capsys, write_sequence_csv):
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.delta(0))
    err = _assert_rejected(capsys, tmp_path / "nodir" / "u.csv", ["evolve", "--t", "1", "--f", str(f_csv)], code=1)
    assert "cannot write output" in err


@pytest.mark.parametrize("error", [OSError("disk full"), MemoryError()])
def test_write_failing_mid_stream_removes_the_file(tmp_path, capsys, monkeypatch, error):
    # The file is open and its first line written when formatting the next one fails.
    def lines():
        yield "n,value\n"
        raise error

    out = tmp_path / "k.csv"
    monkeypatch.setattr(cli, "_execute", lambda args: [(args.out, lines())])
    err = _assert_rejected(capsys, out, ["kernel", "--t", "1"], code=1)
    assert f"cannot write output: {str(error) or type(error).__name__}" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_sidecar_write_removes_written_files(tmp_path, capsys, write_sequence_csv):
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.delta(0))
    (tmp_path / "u.csv.json").mkdir()  # the sidecar path cannot be opened for writing
    out = tmp_path / "u.csv"
    assert run(["evolve", "--t", "1", "--f", str(f_csv), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "u.csv.json"]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[]", "must be a JSON object"),
        ('{"kind": "separable", "spatial": 5, "gamma": 2, "amplitude": 1}', "key spatial"),
        # float() takes a numeric string and a boolean, but neither is a JSON number.
        ('{"kind": "separable", "spatial": "phi.csv", "gamma": "2", "amplitude": 1}', "gamma has invalid value '2'"),
        ('{"kind": "separable", "spatial": "phi.csv", "gamma": 2, "amplitude": true}', "amplitude has invalid value True"),
        # A JSON integer that no float holds.
        pytest.param('{"kind": "separable", "spatial": "phi.csv", "gamma": 2, "amplitude": 1%s}' % ("0" * 400),
                     "key amplitude", id="integer-past-binary64"),
        # Errors of the decoder itself, which name the file too.
        ("{", "g.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        pytest.param(b'\xff\xfe{"kind": "none"}', "g.json: 'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
        pytest.param('{"kind": "separable", "spatial": "phi.csv", "gamma": 2, "amplitude": 1%s}' % ("0" * 4300),
                     "g.json: Exceeds the limit (4300 digits) for integer string conversion", id="integer-past-digit-limit"),
    ],
)
def test_malformed_forcing_json_exits_2(tmp_path, capsys, text, fragment):
    g_path = tmp_path / "g.json"
    g_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    err = _assert_rejected(capsys, tmp_path / "ug.csv", ["duhamel", "--t", "1", "--g", str(g_path)])
    assert "g.json" in err and fragment in err


@pytest.mark.parametrize(
    "argv, pattern",
    [
        (["evolve", "--t", "1", "--f", "huge.csv"], "the l1 norm of a sequence on 3 sites"),
        (["converge", "--f", "huge.csv", "--p", "inf", "--grid", "dyadic:16:512"], "the mass of a sequence on 3 sites"),
        (["duhamel", "--t", "1", "--g", "huge.json"], "the l1 norm of a sequence on 3 sites"),
        (["duhamel", "--t", "1e20", "--g", "g.json"], r"the quadrature bound of the panel \[\S+, \S+\] at t=1e\+20"),
        # u(t) of this dipole has finite squares whose sum overflows.
        (["converge", "--f", "dip.csv", "--p", "2", "--grid", "dyadic:16:64"], r"the l2 norm of a sequence on \d+ sites"),
    ],
)
def test_overflowing_l1_norm_mass_or_panel_bound_exits_1(tmp_path, capsys, monkeypatch, argv, pattern):
    # These used to fail as "intermediate overflow in fsum" and "(34, 'Numerical result out of range')".
    monkeypatch.chdir(tmp_path)
    Path("huge.csv").write_text("n,value\n0,1e308\n1,1e308\n2,1e308\n")
    Path("dip.csv").write_text("n,value\n0,1.3e156\n1,-1.2999999999999902e+156\n")
    Path("phi.csv").write_text("n,value\n-1,0.5\n0,1.0\n2,-0.25\n")
    for name, spatial in (("huge.json", "huge.csv"), ("g.json", "phi.csv")):
        Path(name).write_text(json.dumps({"kind": "separable", "spatial": spatial, "gamma": 2.0, "amplitude": 1.0}))
    err = _assert_rejected(capsys, tmp_path / "u.csv", argv, code=1)
    assert re.search(f"computation failed: {pattern} exceeds binary64 range", err)


def test_unallocatable_csv_index_span_exits_2_naming_the_file(tmp_path, capsys):
    f_csv = tmp_path / "wide.csv"
    f_csv.write_text("n,value\n0,1.0\n100000000000000000000,1.0\n")
    err = _assert_rejected(capsys, tmp_path / "u.csv", ["evolve", "--t", "1", "--f", str(f_csv)])
    assert "wide.csv: index span 0..100000000000000000000 cannot be allocated" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        # A 152-digit recurrence step count, from each subcommand that takes a row at t.
        (["kernel", "--t", "1e300"], 1),
        (["fourier", "--t", "1e300"], 1),
        (["moments", "--t", "1e300"], 1),
        # A 4,001-digit index (the index span), a 5,001-digit one (past int's digit limit: the row), one
        # given twice, a 3,000-digit value, and a 3,000-character header.
        (["evolve", "--t", "1", "--f", "span.csv"], 2),
        (["evolve", "--t", "1", "--f", "digits.csv"], 2),
        (["evolve", "--t", "1", "--f", "twice.csv"], 2),
        (["evolve", "--t", "1", "--f", "value.csv"], 2),
        (["evolve", "--t", "1", "--f", "header.csv"], 2),
        # A 3,000-character forcing kind, and key values of 3,000 characters and of 1,000 items.
        (["duhamel", "--t", "1", "--g", "kind.json"], 2),
        (["duhamel", "--t", "1", "--g", "gamma.json"], 2),
        (["duhamel", "--t", "1", "--g", "list.json"], 2),
    ],
)
def test_refusals_quote_long_values_on_one_short_line(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    Path("span.csv").write_text(f"n,value\n0,1.0\n{'1' * 4001},1.0\n")
    Path("digits.csv").write_text(f"n,value\n{'1' * 5001},1.0\n")
    Path("twice.csv").write_text(f"n,value\n{'1' * 4000},1.0\n{'1' * 4000},2.0\n")
    Path("value.csv").write_text(f"n,value\n0,{'1' * 3000}\n")
    Path("header.csv").write_text(f"n,{'v' * 3000}\n0,1.0\n")
    Path("phi.csv").write_text("n,value\n0,1.0\n")
    spec = {"kind": "separable", "spatial": "phi.csv", "gamma": 2.0, "amplitude": 1.0}
    for name, change in (("kind", {"kind": "x" * 3000}), ("gamma", {"gamma": "2" * 3000}), ("list", {"gamma": [2.0] * 1000})):
        Path(f"{name}.json").write_text(json.dumps(spec | change))
    err = _assert_rejected(capsys, tmp_path / "u.csv", argv, code=code)
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) <= 201, err[:300]


_FILE_RUNS = [
    (["kernel", "--t", "1"], True),
    (["evolve", "--t", "1", "--f", "f.csv"], False),
    (["duhamel", "--t", "1", "--g", "g.json"], False),
    (["moments", "--t", "1", "--kmax", "3"], False),
    (["poly", "--kmax", "3"], False),
    (["decay", "--grid", "dyadic:16:512"], True),
    (["converge", "--f", "f.csv", "--grid", "dyadic:16:512"], True),
    (["fourier", "--t", "1"], False),
    (["diffdecay", "--grid", "dyadic:16:512"], True),
]


@pytest.mark.parametrize(
    "argv", [a for a, _ in _FILE_RUNS] + [a + ["--plot"] for a, plots in _FILE_RUNS if plots], ids=" ".join
)
def test_files_each_subcommand_writes(tmp_path, monkeypatch, argv, write_sequence_csv):
    # kernel, moments and poly write only the CSV, the other six a sidecar too, and --plot adds the SVG.
    monkeypatch.chdir(tmp_path)
    write_sequence_csv(tmp_path / "f.csv", LatticeSequence.from_pairs({-1: 0.25, 0: 1.0, 2: -0.5}))
    write_sequence_csv(tmp_path / "phi.csv", LatticeSequence.delta(0))
    spec = {"kind": "separable", "spatial": "phi.csv", "gamma": 2.0, "amplitude": 1.0}
    (tmp_path / "g.json").write_text(json.dumps(spec))
    outputs = tmp_path / "out"
    outputs.mkdir()
    assert run(argv + ["--out", str(outputs / "r.csv")]) == 0
    expected = {"r.csv"} | ({"r.csv.json"} if argv[0] not in ("kernel", "moments", "poly") else set())
    assert {p.name for p in outputs.iterdir()} == expected | ({"r.csv.svg"} if "--plot" in argv else set())


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
def test_nan_p_exits_2(tmp_path, capsys, subcommand, p, write_sequence_csv):
    # NaN fails every comparison: a p < 1 test lets it through, every norm is NaN and the error gate exits 1.
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.from_pairs({0: 1.0, 2: -0.5}))
    data = ["--f", str(f_csv)] if subcommand == "converge" else []
    err = _assert_rejected(capsys, tmp_path / "d.csv", [subcommand, "--p", p, *data])
    assert "usage: lattice-heat" in err and f"p must be >= 1 or 'inf', got '{p}'" in err


@pytest.mark.parametrize("eps", ["7", "nan", "0"])
def test_evolve_checks_eps_at_t_0(tmp_path, capsys, eps, write_sequence_csv):
    # t = 0 used to return f before eps was looked at, so these exited 0 while every t > 0 exits 2.
    f_csv = tmp_path / "f.csv"
    write_sequence_csv(f_csv, LatticeSequence.from_pairs({-1: 0.25, 0: 1.0, 2: -0.5}))
    err = _assert_rejected(capsys, tmp_path / "u.csv", ["evolve", "--t", "0", "--f", str(f_csv), "--eps", eps])
    assert f"eps must lie in (0, 1), got {float(eps)!r}" in err


@pytest.mark.parametrize("argv", [["kernel", "--t", "1", "--eps", "8e-308"], ["evolve", "--t", "1", "--f", "f.csv", "--eps", "1e-320"]])
def test_eps_below_the_window_floor_exits_2(tmp_path, capsys, monkeypatch, argv, write_sequence_csv):
    # log(16 / eps) is infinite there: these failed as "cannot convert float infinity to integer" with exit 1.
    monkeypatch.chdir(tmp_path)
    write_sequence_csv(tmp_path / "f.csv", LatticeSequence.delta(0))
    err = _assert_rejected(capsys, tmp_path / "u.csv", argv)
    assert f"invalid arguments: eps must be at least about 8.9e-308, got {float(argv[-1])!r}" in err


@pytest.mark.parametrize(
    "eps, message",
    [("-1", "eps must lie in (0, 2), got -1.0"), ("3", "eps must lie in (0, 2), got 3.0"),
     ("1e-320", "eps must be at least about 1.8e-307, got 1e-320")],
)
def test_evolve_with_forcing_quotes_the_eps_given(tmp_path, capsys, monkeypatch, eps, message, write_sequence_csv):
    # The homogeneous part gets eps / 2, and these quoted the halved value: -0.5, 1.5 and 5e-321.
    monkeypatch.chdir(tmp_path)
    write_sequence_csv(tmp_path / "f.csv", LatticeSequence.from_pairs({-1: 0.25, 0: 1.0, 2: -0.5}))
    write_sequence_csv(tmp_path / "phi.csv", LatticeSequence.delta(0))
    (tmp_path / "g.json").write_text(json.dumps({"kind": "separable", "spatial": "phi.csv", "gamma": 2.0, "amplitude": 1.0}))
    argv = ["evolve", "--t", "1", "--f", "f.csv", "--g", "g.json", "--eps", eps]
    err = _assert_rejected(capsys, tmp_path / "u.csv", argv)
    assert f"invalid arguments: {message}" in err


def test_evolve_with_forcing_at_t_0_is_f(tmp_path, write_sequence_csv):
    # u(0) = f: the forced part is not evaluated, as duhamel refuses t = 0.
    f_csv, g_json, none_json = tmp_path / "f.csv", tmp_path / "g.json", tmp_path / "none.json"
    write_sequence_csv(f_csv, LatticeSequence.from_pairs({-1: 0.25, 0: 1.0, 2: -0.5}))
    write_sequence_csv(tmp_path / "phi.csv", LatticeSequence.delta(0))
    g_json.write_text(json.dumps({"kind": "separable", "spatial": "phi.csv", "gamma": 2.0, "amplitude": 1.0}))
    none_json.write_text(json.dumps({"kind": "none"}))
    for name, g in (("g.csv", g_json), ("none.csv", none_json)):
        assert run(["evolve", "--t", "0", "--f", str(f_csv), "--g", str(g), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "none.csv").read_bytes() == f_csv.read_bytes()
    assert (tmp_path / "g.csv.json").read_bytes() == (tmp_path / "none.csv.json").read_bytes()
    assert json.loads((tmp_path / "g.csv.json").read_text()) == {"t": 0.0, "quad_error": 0.0, "trunc_error": 0.0}
