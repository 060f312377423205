"""Command-line surface: lattice-heat <subcommand> ... --out PATH.

CSV-first outputs with deterministic float formatting (shortest
round-trip repr), optional SVG plots, and sidecar JSON metadata next to
report files.  All computation happens before any file is written, and the
files of a run whose writing fails are removed, so a failing run never
leaves partial output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

from . import analysis, moments, solver
from .kernel import heat_kernel, read_sequence_csv, sequence_csv_text
from .solver import ForcingSpec

__all__ = ["run", "main"]


def _parse_p(text: str) -> float:
    if text == "inf":
        return math.inf
    value = float(text)
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"p must be >= 1 or 'inf', got {text!r}")
    return value


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "dyadic":
        raise argparse.ArgumentTypeError(f"grid must look like dyadic:A:B, got {text!r}")
    a, b = float(parts[1]), float(parts[2])
    try:
        return analysis.dyadic_grid(a, b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(c)) if isinstance(c, float) else c for c in row])
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _svg_text(xs, ys, title: str, loglog: bool) -> str:
    width, height, pad = 640, 480, 50
    if loglog:
        xs = [math.log10(x) for x in xs]
        ys = [math.log10(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = lambda x: pad + (width - 2 * pad) * ((x - x0) / (x1 - x0) if x1 > x0 else 0.5)
    sy = lambda y: height - pad - (height - 2 * pad) * ((y - y0) / (y1 - y0) if y1 > y0 else 0.5)
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black" stroke-width="1"/>\n'
        f'<text x="{width // 2}" y="30" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def _with_suffix(path: Path, suffix: str) -> Path:
    return path.with_name(path.name + suffix)


def _report_outputs(report: analysis.DecayReport, out: Path, plot: bool) -> list[tuple[Path, str]]:
    meta = {
        "label": report.label,
        "slope": report.slope,
        "intercept": report.intercept,
        "max_residual": report.max_residual,
        "t_range": list(report.t_range),
        "dropped": [list(p) for p in report.dropped],
    }
    meta.update({k: v for k, v in report.extras.items() if not isinstance(v, tuple)})
    outputs = [
        (out, _csv_text(["t", "value"], report.pairs)),
        (_with_suffix(out, ".json"), _json_text(meta)),
    ]
    if plot:
        xs, ys = zip(*report.pairs)
        outputs.append((_with_suffix(out, ".svg"), _svg_text(xs, ys, report.label, True)))
    return outputs


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lattice-heat", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, eps=True, plot=False, grid=False, t=False, pnorm=False):
        if eps:
            p.add_argument("--eps", type=float, default=1e-12)
        if plot:
            p.add_argument("--plot", action="store_true")
        p.add_argument("--out", type=Path, required=True)
        if grid:
            p.add_argument("--grid", type=_parse_grid, default="dyadic:16:1024")
        if t:
            p.add_argument("--t", type=float, required=True)
        if pnorm:
            p.add_argument("--p", type=_parse_p, default=2.0)

    p = sub.add_parser("kernel", help="evaluate G(t, .) to a sequence CSV")
    common(p, plot=True, t=True)

    p = sub.add_parser("evolve", help="mild solution from initial data (optional forcing)")
    common(p, t=True)
    p.add_argument("--f", type=Path, required=True)
    p.add_argument("--g", type=Path)

    p = sub.add_parser("duhamel", help="forced part of the mild solution")
    common(p, t=True)
    p.add_argument("--g", type=Path, required=True)

    p = sub.add_parser("moments", help="kernel moments against the moment polynomials")
    common(p, eps=False, t=True)
    p.add_argument("--kmax", type=int, default=6)

    p = sub.add_parser("poly", help="moment polynomial coefficient or root tables")
    common(p, eps=False)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--roots", action="store_true")

    p = sub.add_parser("decay", help="kernel decay slope report")
    common(p, plot=True, grid=True, pnorm=True)
    p.add_argument("--quantity", choices=analysis.KERNEL_QUANTITIES, default="G")

    p = sub.add_parser("converge", help="large-time convergence profile")
    common(p, plot=True, grid=True, pnorm=True)
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--f", type=Path)
    data.add_argument("--g", type=Path)

    p = sub.add_parser("fourier", help="Fourier symbol verification")
    common(p, t=True)
    p.add_argument("--grid-size", type=int, default=64)

    p = sub.add_parser("diffdecay", help="iterated-difference decay experiment")
    common(p, plot=True, grid=True, pnorm=True)
    p.add_argument("--order", type=int, default=1)

    return parser


def _snapshot_outputs(snap: solver.SolutionSnapshot, out: Path) -> list[tuple[Path, str]]:
    meta = {"t": snap.t, "quad_error": snap.quad_error, "trunc_error": snap.trunc_error}
    return [(out, sequence_csv_text(snap.u)), (_with_suffix(out, ".json"), _json_text(meta))]


def _execute(args: argparse.Namespace) -> list[tuple[Path, str]]:
    """Run the subcommand and render its outputs as (path, text) pairs."""
    cmd = args.subcommand
    if cmd == "kernel":
        seq = heat_kernel(args.t, args.eps).to_sequence()
        outputs = [(args.out, sequence_csv_text(seq))]
        if args.plot:
            svg = _svg_text(seq.indices(), seq.values, f"G(t={args.t})", False)
            outputs.append((_with_suffix(args.out, ".svg"), svg))
        return outputs

    if cmd == "evolve":
        f = read_sequence_csv(args.f)
        g = ForcingSpec.from_json(args.g) if args.g else None
        snap = solver.solve(f, g, args.t, eps=args.eps)
        return _snapshot_outputs(snap, args.out)

    if cmd == "duhamel":
        g = ForcingSpec.from_json(args.g)
        snap = solver.duhamel(g, args.t, eps=args.eps)
        return _snapshot_outputs(snap, args.out)

    if cmd == "moments":
        polys = moments.moment_polynomials(args.kmax)
        rows = []
        for k, poly in enumerate(polys):
            expected = moments.poly_eval(poly, 2.0 * args.t)
            kernel = moments.heat_kernel_for_moment(args.t, 2 * k, max(1e-12, 1e-10 * expected))
            rows.append([k, moments.kernel_moment(kernel, 2 * k), expected, moments.kernel_moment(kernel, 2 * k + 1)])
        return [(args.out, _csv_text(["k", "even_moment", "poly_value", "odd_moment"], rows))]

    if cmd == "poly":
        polys = moments.moment_polynomials(args.kmax)
        if args.roots:
            rows = [
                [k, i, root]
                for k, poly in enumerate(polys)
                if k >= 2
                for i, root in enumerate(moments.poly_real_roots(poly, 1e-12))
            ]
            return [(args.out, _csv_text(["k", "root_index", "root"], rows))]
        rows = [[k, poly.degree, *poly.coeffs] for k, poly in enumerate(polys)]
        header = ["k", "degree"] + [f"c{i}" for i in range(args.kmax + 1)]
        return [(args.out, _csv_text(header, rows))]

    if cmd == "decay":
        report = analysis.kernel_decay(args.p, args.quantity, args.grid, eps=args.eps)
        return _report_outputs(report, args.out, args.plot)

    if cmd == "converge":
        f = read_sequence_csv(args.f) if args.f else None
        g = ForcingSpec.from_json(args.g) if args.g else None
        report = analysis.large_time_profile(f, g, args.p, args.grid, eps=args.eps)
        return _report_outputs(report, args.out, args.plot)

    if cmd == "fourier":
        rows = analysis.fourier_symbol_rows(args.t, args.grid_size, args.eps)
        worst = max(abs(transform - symbol) for _, transform, symbol in rows)
        return [
            (args.out, _csv_text(["theta", "transform", "symbol"], rows)),
            (_with_suffix(args.out, ".json"), _json_text({"t": args.t, "max_abs_error": worst})),
        ]

    if cmd == "diffdecay":
        report = analysis.higher_difference_decay(args.order, args.p, args.grid, eps=args.eps)
        return _report_outputs(report, args.out, args.plot)

    raise AssertionError(f"unhandled subcommand {cmd!r}")


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outputs = _execute(args)
    except ValueError as exc:
        print(f"lattice-heat: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OSError) as exc:
        print(f"lattice-heat: computation failed: {exc}", file=sys.stderr)
        return 1
    written = []
    try:
        for path, text in outputs:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        print(f"lattice-heat: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
