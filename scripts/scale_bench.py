"""Wall time and peak RSS of the two user paths at large grids.

Runs, each in a fresh interpreter with one BLAS/OpenMP thread,

    mkdvsurf verify --preset ex2 --checks all
    mkdvsurf verify --preset ex2 --checks shape
    mkdvsurf verify --preset ex2 --checks willmore
    mkdvsurf verify --preset ex7 --checks lax
    mkdvsurf verify --preset ex7 --checks consistency
    mkdvsurf verify --preset ex2 --checks consistency
    mkdvsurf verify --preset ex4 --checks compat
    mkdvsurf verify --preset ex4 --checks zerocurv
    mkdvsurf generate --preset ex7 --format json
    mkdvsurf generate --preset ex7 --format obj
    mkdvsurf generate --preset ex4 --format obj
    mkdvsurf generate --preset ex4 --format csv
    mkdvsurf generate --preset ex4 --format json
    mkdvsurf generate --family spectral3 --k1 1.7 --lambda 0.3137 --mu -2.2 --format csv
    mkdvsurf generate --family spectral3 --k1 1.7 --lambda 0.3137 --mu -2.2 --format json

at nx = nt = 101, 401 and 1001, the grid sizes the ROADMAP's north star
names (the perfbench workloads stop at 201^2); ``shape``, the
finite-difference oracle's largest check, is also timed alone, and so is
``willmore``, its other divergence-form check, as are
``lax`` and ``consistency``, the two checks that evaluate the Lax-pair
solution Phi, ``consistency`` also on ex2, where it evaluates the spectral
frame at every point, and ``compat`` on ex4, the largest of the checks that run
once per distinct xi, on the preset whose xi repeat least (4.4 points per
distinct xi on the clipped 201^2 grid), with ``zerocurv`` there too, whose
whole 201^2 window has 9,701 distinct xi of 40,401 points and whose kernel
is the cheapest of those checks; ex4 is also the preset with the
most distinct K, H and xi values to format, and the one whose positions
are hardest to write: 31% of them print as d.ddde-XX and 0.7% fall outside
the numpy formatter's range, 1e-11 <= |v| < 1e16.  The spectral3 surface at
k1 1.7, lambda 0.3137, mu -2.2 is one whose K, H and xi barely repeat (1.3
to 1.4 rows per distinct K and H value up to 401^2, and more than 2^16
distinct values at 1001^2), so at every size the CSV and JSON writers
format them directly, block by block, rather than from a table.  Each
run's wall time covers the whole process, interpreter start included; its
peak RSS, minor page faults and CPU time are the child's own ``ru_maxrss``,
``ru_minflt`` and ``ru_utime + ru_stime``, since the ``lax``, ``consistency``
and CSV timings follow the allocator's page faults.  Each child runs in the
checkout with the fixed environment ``CHILD_ENV``, which imports ``src/`` by
a relative path, so its peak RSS does not move with the size of the
caller's environment or the length of the checkout's path.  Prints one JSON object; ``--out`` also
writes it to a file.

    python3 scripts/scale_bench.py
    python3 scripts/scale_bench.py --root ../other-checkout --out scale.json

``--root`` names the checkout whose ``src/`` is imported (default: this one),
so two checkouts are measured by the same script; to compare them, run it
on each in turn, alternating which goes first, a few times.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIZES = (101, 401, 1001)
COMMANDS = {
    "verify ex2 all": ("verify", "--preset", "ex2", "--checks", "all"),
    "verify ex2 shape": ("verify", "--preset", "ex2", "--checks", "shape"),
    "verify ex2 willmore": ("verify", "--preset", "ex2", "--checks", "willmore"),
    "verify ex7 lax": ("verify", "--preset", "ex7", "--checks", "lax"),
    "verify ex7 consistency": ("verify", "--preset", "ex7", "--checks", "consistency"),
    "verify ex2 consistency": ("verify", "--preset", "ex2", "--checks", "consistency"),
    "verify ex4 compat": ("verify", "--preset", "ex4", "--checks", "compat"),
    "verify ex4 zerocurv": ("verify", "--preset", "ex4", "--checks", "zerocurv"),
    "generate ex7 json": ("generate", "--preset", "ex7", "--format", "json"),
    "generate ex7 obj": ("generate", "--preset", "ex7", "--format", "obj"),
    "generate ex4 obj": ("generate", "--preset", "ex4", "--format", "obj"),
    "generate ex4 csv": ("generate", "--preset", "ex4", "--format", "csv"),
    "generate ex4 json": ("generate", "--preset", "ex4", "--format", "json"),
    "generate spectral3 k1 1.7 csv": ("generate", "--family", "spectral3", "--k1", "1.7",
                                      "--lambda", "0.3137", "--mu", "-2.2", "--format", "csv"),
    "generate spectral3 k1 1.7 json": ("generate", "--family", "spectral3", "--k1", "1.7",
                                       "--lambda", "0.3137", "--mu", "-2.2", "--format", "json"),
}


# The child's whole environment.  The environment is copied onto the
# child's stack, and its size moved the peak RSS of `verify ex2 all` at
# 1001^2 between 127.6 and 141.2 MB with the code unchanged.
CHILD_ENV = {"PYTHONPATH": "src", **{v: "1" for v in THREAD_VARS}}


def run_once(root: Path, argv: list[str]) -> dict:
    """One fresh process in ``root``: exit code, wall seconds, peak RSS in
    MB, minor page faults and CPU seconds (user + system)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mkdvsurf.cli", *argv], env=CHILD_ENV,
                            cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode()   # to EOF, so the child never blocks on it
    # wait4, not Popen.wait: it returns the child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()}")
    return {"exit": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt, "cpu_s": usage.ru_utime + usage.ru_stime}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "mkdvsurf" / "cli.py").is_file():
        print(f"error: no mkdvsurf source under {root / 'src'}", file=sys.stderr)
        return 2

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            for name, command in COMMANDS.items():
                argv = [*command, "--nx", str(n), "--nt", str(n)]
                if command[0] == "generate":
                    argv += ["--out", str(Path(tmp) / f"mesh.{command[-1]}")]
                runs.append({"command": name, "n": n, **run_once(root, argv)})
                print(runs[-1], file=sys.stderr)
    result = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "runs": runs}
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
