"""Every `mkdvsurf verify` and `generate` output on a fixed list of inputs,
one run a line.

Runs ``mkdvsurf.cli.main`` in this process, with RuntimeWarnings raised as
errors, on

- ``verify --checks all`` on every preset at 21^2, 41^2 and 101^2, in json
  and in text;
- each surface of ``SURFACES`` (parametric surfaces, windows off the square
  [-2,2]^2, and scales that some checks cannot take or that no surface
  admits) with each check list of ``CHECK_LISTS``, at the default 41^2;
- the configuration errors of ``ERRORS``;
- ``generate`` on every preset at 21^2 in obj, csv and json, on each
  parametric surface of ``SURFACES`` at 21^2 in json, and on the surfaces of
  ``OVERFLOWS``, whose position overflows;

and prints for each run one JSON line ``[argv, exit code, stdout, stderr]``,
to which a ``generate`` run adds the sha256 of the file it wrote, or null.
``generate`` writes ``mesh.<format>`` in a temporary working directory.  A
run that raises is printed with ``"raised <Type>: <message>"`` in place of
its exit code.  ``mkdvsurf`` is imported from ``PYTHONPATH``, so two
checkouts are compared by running the script under each one's ``src`` and
comparing the outputs:

    PYTHONPATH=src python3 scripts/verify_snapshot.py > new.jsonl
    PYTHONPATH=../parent/src python3 scripts/verify_snapshot.py > old.jsonl
    cmp old.jsonl new.jsonl
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from mkdvsurf import cli
from mkdvsurf.immersion import PRESETS

SIZES = ("21", "41", "101")
SURFACES = [
    ("--family", "spectral3", "--k1", "1.7", "--lambda", "0.3137", "--mu", "-2.2"),
    ("--family", "spectralgauge4", "--k1", "1.3", "--lambda", "0.2", "--mu", "0.7",
     "--nu", "-0.4"),
    ("--preset", "ex2", "--x-min", "-3", "--x-max", "1.5"),
    ("--preset", "ex2", "--x-min", "5", "--x-max", "10"),
    ("--preset", "ex7", "--t-min", "2", "--t-max", "3"),
    ("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e60"),
    ("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e-60"),
    ("--family", "spectral3", "--k1", "0.01", "--lambda", "-3", "--mu", "1"),
    ("--family", "spectralgauge4", "--k1", "1", "--lambda", "-225", "--nu", "1"),
    ("--family", "spectral3", "--k1", "0.1288852974447968", "--lambda", "30.533654924811838",
     "--mu", "0.013539625534976793", "--x-min", "-1.8463196141031273",
     "--x-max", "2.343150778041539"),
    ("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "0"),
    ("--family", "spectralgauge4", "--k1", "2", "--lambda", "1", "--mu", "0", "--nu", "0"),
    ("--family", "spectralgauge4", "--k1", "2", "--lambda", "1", "--mu", "0", "--nu", "1"),
    ("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1", "--nu", "1"),
    ("--family", "spectral3", "--k1", "1", "--lambda", "1e77", "--mu", "1"),
    ("--family", "spectral3", "--k1", "1", "--lambda", "1e100", "--mu", "1"),
]
CHECK_LISTS = ("all", "zerocurv,lax,compat", "forms,weingarten,sphere", "willmore,shape",
               "consistency")
ERRORS = [
    ("--preset", "ex2", "--checks", "bogus"),
    ("--preset", "ex2", "--checks", "lax,zerocurv,lax"),
    ("--preset", "ex2", "--checks", " , "),
    ("--preset", "ex3", "--checks", "willmore"),
    ("--preset", "ex2", "--nx", "1"),
    ("--preset", "ex2", "--tol-lax", "-1"),
    ("--preset", "ex2", "--fd-step", "1"),
    ("--preset", "ex2", "--checks", "consistency", "--fd-step", "1e-2"),
    ("--family", "spectral3", "--k1", "2", "--lambda", "1"),
]

OVERFLOWS = [
    ("--family", "spectral3", "--k1", "1", "--lambda", "6e153", "--mu", "1", "--nx", "5",
     "--nt", "5"),
    ("--family", "spectral3", "--k1", "1", "--lambda", "1e140", "--mu", "1", "--nx", "5",
     "--nt", "5"),
    ("--family", "spectralgauge4", "--k1", "1", "--lambda", "1e153", "--mu", "1", "--nu", "1",
     "--t-min", "1", "--t-max", "300", "--nx", "5", "--nt", "5"),
]


def runs():
    for pid in PRESETS:
        for n in SIZES:
            for fmt in ("json", "text"):
                yield ["verify", "--preset", pid, "--nx", n, "--nt", n, "--checks", "all",
                       "--format", fmt]
    for surface in SURFACES:
        yield ["verify", *surface, "--checks", "all", "--format", "json"]
        for checks in CHECK_LISTS:
            yield ["verify", *surface, "--checks", checks]
    for argv in ERRORS:
        yield ["verify", *argv]
    for pid in PRESETS:
        for fmt in ("obj", "csv", "json"):
            yield ["generate", "--preset", pid, "--nx", "21", "--nt", "21", "--format", fmt,
                   "--out", f"mesh.{fmt}"]
    for surface in SURFACES:
        if surface[0] == "--family":
            yield ["generate", *surface, "--nx", "21", "--nt", "21", "--format", "json",
                   "--out", "mesh.json"]
    for surface in OVERFLOWS:
        yield ["generate", *surface, "--out", "mesh.obj"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
        except Exception as exc:    # recorded, and the runs after it still run
            code = f"raised {type(exc).__name__}: {exc}"
    line = [argv, code, out.getvalue(), err.getvalue()]
    if argv[0] == "generate":
        path = Path(argv[-1])
        line.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
        path.unlink(missing_ok=True)
    return line


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in runs():
                sys.stdout.write(json.dumps(run(argv)) + "\n")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
