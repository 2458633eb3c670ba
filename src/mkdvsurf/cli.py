"""Command-line front end: mesh generation, verification, preset listing.

The CLI is a thin orchestrator over the library: every number it prints is
produced by a library operation.  Exit codes: 0 success / all checks pass,
1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import mesh as mesh_mod
from . import verify as verify_mod
from .immersion import FAMILIES, PRESETS
from .soliton import SolitonParams

__all__ = ["main", "build_parser", "presets_table"]


def _add_surface_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(p.value for p in PRESETS),
                     help="bundled parameter set with its default window")
    sub.add_argument("--family", choices=sorted(FAMILIES),
                     help="surface family for parametric runs")
    sub.add_argument("--k1", type=float, help="soliton amplitude parameter")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="spectral parameter")
    sub.add_argument("--mu", type=float, default=None,
                     help="spectral deformation weight")
    sub.add_argument("--nu", type=float, default=None,
                     help="gauge deformation weight (spectralgauge4 only)")
    sub.add_argument("--x-min", type=float, default=None)
    sub.add_argument("--x-max", type=float, default=None)
    sub.add_argument("--t-min", type=float, default=None)
    sub.add_argument("--t-max", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkdvsurf",
        description="Soliton surface construction, export, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a surface and export a mesh")
    _add_surface_args(gen)
    gen.add_argument("--nx", type=int, default=101, help="grid points in x")
    gen.add_argument("--nt", type=int, default=101, help="grid points in t")
    gen.add_argument("--format", choices=("obj", "csv", "json"), default="obj")
    gen.add_argument("--out", required=True, help="output file path")

    ver = sub.add_parser("verify", help="run verification checks")
    _add_surface_args(ver)
    ver.add_argument("--nx", type=int, default=41)
    ver.add_argument("--nt", type=int, default=41)
    ver.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or 'all' (default); available: "
        + ", ".join(verify_mod.CHECK_NAMES + verify_mod.OPT_IN_CHECKS),
    )
    for name in verify_mod.CHECK_NAMES + verify_mod.OPT_IN_CHECKS:
        ver.add_argument(
            f"--tol-{name}",
            type=float,
            default=None,
            help=f"override tolerance for the {name} check "
            f"(default {verify_mod.DEFAULT_TOLERANCES[name]:g})",
        )
    ver.add_argument("--fd-step", type=float, default=None,
                     help="override the finite-difference step of FD-based checks")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("presets", help="list bundled presets")
    return parser


def _window(args, parser) -> tuple:
    pairs = ((args.x_min, args.x_max, "x"), (args.t_min, args.t_max, "t"))
    out = []
    for lo, hi, axis in pairs:
        if (lo is None) != (hi is None):
            parser.error(f"--{axis}-min and --{axis}-max must be given together")
        out.append(None if lo is None else (lo, hi))
    return tuple(out)


def _selection(args, parser) -> dict:
    """Resolve --preset or parametric flags into generate/run_checks kwargs."""
    x_range, t_range = _window(args, parser)
    if args.preset is not None:
        if args.family is not None or any(
            v is not None for v in (args.k1, args.lam, args.mu, args.nu)
        ):
            parser.error("--preset and parametric flags are mutually exclusive")
        return {"preset_id": args.preset, "x_range": x_range, "t_range": t_range}
    if args.family is None or args.k1 is None:
        parser.error("parametric runs require --family and --k1 (or use --preset)")
    params = SolitonParams(
        k1=args.k1,
        lam=0.0 if args.lam is None else args.lam,
        mu=0.0 if args.mu is None else args.mu,
        nu=0.0 if args.nu is None else args.nu,
    )
    return {
        "family": args.family,
        "params": params,
        "x_range": x_range or (-3.0, 3.0),
        "t_range": t_range or (-3.0, 3.0),
    }


def _cmd_generate(args, parser) -> int:
    sel = _selection(args, parser)
    m = mesh_mod.generate(nx=args.nx, nt=args.nt, **sel)
    path = mesh_mod.export(m, args.format, args.out)
    n_sing = int(m.singular.sum())
    print(
        f"wrote {path} ({args.format}): {m.n_vertices} vertices, "
        f"{(m.nx - 1) * (m.nt - 1)} quads, {n_sing} flagged singular"
    )
    return 0


def _cmd_verify(args, parser) -> int:
    sel = _selection(args, parser)
    tolerances = {}
    for name in verify_mod.CHECK_NAMES + verify_mod.OPT_IN_CHECKS:
        val = getattr(args, "tol_" + name.replace("-", "_"))
        if val is not None:
            tolerances[name] = val
    report = verify_mod.run_checks(
        checks=args.checks,
        nx=args.nx,
        nt=args.nt,
        tolerances=tolerances,
        fd_step=args.fd_step,
        **sel,
    )
    text = report.to_json() if args.format == "json" else "\n".join(
        report.summary_lines()
    ) + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def presets_table() -> str:
    """Stable text table of the bundled presets."""
    header = ("id", "family", "k1", "lambda", "mu", "nu", "window")
    rows = [header]
    for pid in sorted(PRESETS, key=lambda q: q.value):
        pre = PRESETS[pid]
        (x0, x1), (t0, t1) = pre.window
        rows.append(
            (
                pre.id.value,
                pre.family.name,
                str(pre.k1),
                str(pre.lam),
                str(pre.mu),
                "-" if pre.nu is None else str(pre.nu),
                f"[{x0:g},{x1:g}]x[{t0:g},{t1:g}]",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


# A negative decimal number, exponent form included.
_NEGATIVE_NUMBER = re.compile(r"-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--flag -1e6' as '--flag=-1e6'.

    argparse reads '-1e6' as an option, since it knows negative numbers only
    without an exponent.  Every long flag here that can precede a number takes
    one value, so a negative number after a bare flag is that flag's value.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.fullmatch(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        if args.command == "generate":
            return _cmd_generate(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        sys.stdout.write(presets_table())
        return 0
    except (verify_mod.CheckConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
