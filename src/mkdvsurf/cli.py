"""Command-line front end: mesh generation, verification, preset listing.

The CLI is a thin orchestrator over the library: every number it prints is
produced by a library operation.  Exit codes: 0 success / all checks pass,
1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys
from pathlib import Path

from . import mesh as mesh_mod
from . import verify as verify_mod
from .immersion import FAMILIES, PRESETS, Surface, resolve
from .soliton import SolitonParams

__all__ = ["main", "build_parser", "presets_table"]


def _add_surface_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS),
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
    gen.add_argument("--format", choices=mesh_mod.FORMATS, default="obj")
    gen.add_argument("--out", required=True, help="output file path")

    ver = sub.add_parser("verify", help="run verification checks")
    _add_surface_args(ver)
    ver.add_argument("--nx", type=int, default=41)
    ver.add_argument("--nt", type=int, default=41)
    ver.add_argument(
        "--checks",
        default="all",
        help="comma-separated check names, or 'all' (default); available: "
        + ", ".join(verify_mod.CHECK_NAMES),
    )
    for name, tol in verify_mod.DEFAULT_TOLERANCES.items():
        ver.add_argument(f"--tol-{name}", type=float, default=None,
                         help=f"override tolerance for the {name} check (default {tol:g})")
    ver.add_argument("--fd-step", type=float, default=None,
                     help="override the finite-difference step of FD-based checks")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("presets", help="list bundled presets")
    return parser


def _selection(args, parser) -> Surface:
    """Resolve --preset or the parametric flags, and the window, to a Surface."""
    window = []
    for lo, hi, axis in ((args.x_min, args.x_max, "x"), (args.t_min, args.t_max, "t")):
        if (lo is None) != (hi is None):
            parser.error(f"--{axis}-min and --{axis}-max must be given together")
        window.append(None if lo is None else (lo, hi))
    if args.preset is not None:
        if args.family is not None or any(
            v is not None for v in (args.k1, args.lam, args.mu, args.nu)
        ):
            parser.error("--preset and parametric flags are mutually exclusive")
        return resolve(args.preset, x_range=window[0], t_range=window[1])
    if args.family is None or args.k1 is None:
        parser.error("parametric runs require --family and --k1 (or use --preset)")
    params = SolitonParams(
        k1=args.k1,
        lam=0.0 if args.lam is None else args.lam,
        mu=0.0 if args.mu is None else args.mu,
        nu=0.0 if args.nu is None else args.nu,
    )
    return resolve(family=args.family, params=params, x_range=window[0],
                   t_range=window[1])


def _cmd_generate(args, parser) -> int:
    m = mesh_mod.generate(_selection(args, parser), nx=args.nx, nt=args.nt)
    path = mesh_mod.export(m, args.format, args.out)
    n_sing = int(m.singular.sum())
    print(
        f"wrote {path} ({args.format}): {m.n_vertices} vertices, "
        f"{(m.nx - 1) * (m.nt - 1)} quads, {n_sing} flagged singular"
    )
    return 0


def _cmd_verify(args, parser) -> int:
    surface = _selection(args, parser)
    tolerances = {}
    for name in verify_mod.DEFAULT_TOLERANCES:
        val = getattr(args, "tol_" + name.replace("-", "_"))
        if val is not None:
            tolerances[name] = val
    report = verify_mod.run_checks(
        args.checks,
        surface,
        nx=args.nx,
        nt=args.nt,
        tolerances=tolerances,
        fd_step=args.fd_step,
    )
    text = report.to_json() if args.format == "json" else "\n".join(
        report.summary_lines()
    ) + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def presets_table() -> str:
    """Stable text table of the bundled presets."""
    header = ("id", "family", "k1", "lambda", "mu", "nu", "window")
    rows = [header]
    for pid in sorted(PRESETS):
        surf = resolve(pid)
        (x0, x1), (t0, t1) = surf.x_range, surf.t_range
        exact = ("-" if v is None else str(v) for v in PRESETS[pid][1])
        rows.append((pid, surf.family.name, *exact, f"[{x0:g},{x1:g}]x[{t0:g},{t1:g}]"))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call: building one
    takes about a millisecond, and parsing leaves it as it was."""
    return build_parser()


# glibc's malloc thresholds for a CLI process: blocks of up to 2 MiB come
# from the heap, so a tile's temporaries (at most 512 KiB) and an export's
# block buffers (1.6 MB for a CSV block) are reused rather than mapped and
# page-faulted per call, while grid-sized arrays at 1001^2 (8 MB and more)
# stay mapped and return to the system when freed; the heap's top is given
# back only past 32 MiB free.  Fixed thresholds also stop glibc from raising
# its mmap threshold after whichever large free comes first, so a check's
# speed does not depend on the checks that ran before it.
_MMAP_THRESHOLD = 2 << 20
_TRIM_THRESHOLD = 32 << 20
# mallopt's parameter numbers in glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# Settings by which the user already tunes glibc's malloc: then it is left alone.
_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@functools.cache
def _pin_malloc() -> bool:
    """Set ``_MMAP_THRESHOLD`` and ``_TRIM_THRESHOLD`` by glibc's ``mallopt``,
    once per process; True if both were set.

    Nothing is set where the C library has no ``mallopt`` or where the
    environment already tunes malloc (``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_`` or a ``glibc.malloc.`` entry of
    ``GLIBC_TUNABLES``).  Only ``main`` calls it: importing the package
    leaves a library caller's allocator as it was.
    """
    if any(v in os.environ for v in _MALLOC_VARIABLES) or \
            "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    import ctypes   # here, so that importing the CLI does not load it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and \
        bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def main(argv=None) -> int:
    _pin_malloc()
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        # before any work, the error that opening --out would raise at the end
        out = getattr(args, "out", None)
        if args.command == "generate":
            out = os.fspath(Path(out))  # the path mesh.export opens
        parent = os.path.dirname(out or ".") or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), out)
        if out is not None and os.path.isdir(out):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        if args.command == "generate":
            return _cmd_generate(args, parser)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        sys.stdout.write(presets_table())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
