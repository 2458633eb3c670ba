"""Workload definitions, set-up, one operation, and the correctness gate.

Every operation is one ``mkdvsurf.cli.main(argv)`` call.  The reference in
``reference.json`` holds, for each operation, what the program produced when
the benchmark was defined: the sha256 of each exported file, and each
check's verdict and max residual.  A later run that differs counts the
operation as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ".perfbench_work"

PRESETS = ("ex2", "ex3", "ex4", "ex5", "ex6", "ex7", "ex8")
EXPORT_PRESETS = ("ex4", "ex7")   # one per family; ex4 flags 1764 vertices
EXPORT_FORMATS = ("obj", "csv", "json")
EXPORT_N = 201
VERIFY_N = 41
FRAME_N = 201
# Checks built on the frame and Lax layers.  sphere needs lambda != 0 (not
# ex3, ex6); weingarten belongs to the spectral3 family (ex2..ex5 only).
FRAME_CHECKS = ("zerocurv", "lax", "compat", "forms", "weingarten", "sphere", "consistency")
FRAME_SKIP = {("ex3", "sphere"), ("ex6", "sphere"), ("ex6", "weingarten"),
              ("ex7", "weingarten"), ("ex8", "weingarten")}

WORKLOADS = ("export", "verify", "frame")

# Seconds one untraced pass took, host-speed chunks included, when the
# benchmark was defined (2-core Xeon VM).  A run makes
# round(seconds / PASS_SECONDS) whole passes, so that both sides of a
# comparison do the same work and report their tail latency at the same
# percentile, however fast either side is.
PASS_SECONDS = {"export": 3.2, "verify": 2.6, "frame": 9.3}

# Residuals agree "to rounding" when they differ by no more than a change in
# the order of the arithmetic can make them differ.  Most residuals are
# round-off themselves: cancellation at 1e-16..1e-13 (zerocurv, compat,
# forms, sphere, weingarten) or the h = 1e-6 difference quotient of lax at
# ~1e-9, which any reordering moves by its own size.  They may differ by
# 1e-6 of their value or 1e-4 of the check's tolerance, whichever is larger.
# The residuals of shape, willmore and consistency are finite-difference
# truncation error, which reordering moves only by its round-off part:
# regrouping the sums and the Richardson step of the fourth-order stencils
# moved them by at most 2.8e-4 of their value (willmore; shape 8e-5,
# consistency 4e-5).  They may differ by 1e-3 of their value, and nothing
# more, so that a coarser or lower-order stencil fails.
RESIDUAL_RTOL = 1e-6
RESIDUAL_TOL_SHARE = 1e-4
TRUNCATION_CHECKS = ("shape", "willmore", "consistency")
TRUNCATION_RTOL = 1e-3


@dataclass(frozen=True)
class Op:
    key: str                  # stable id into the reference
    argv: tuple[str, ...]
    grid: int                 # nx * nt
    out: Path | None = None   # file an export writes


def operations(workload: str, root: Path) -> list[Op]:
    """The operations of one pass, in a fixed canonical order."""
    if workload == "export":
        work = root / WORK_DIR
        n = str(EXPORT_N)
        return [
            Op(f"{p}/{fmt}",
               ("generate", "--preset", p, "--nx", n, "--nt", n, "--format", fmt,
                "--out", str(work / f"{p}.{fmt}")),
               EXPORT_N ** 2, work / f"{p}.{fmt}")
            for p in EXPORT_PRESETS for fmt in EXPORT_FORMATS
        ]
    if workload == "verify":
        n = str(VERIFY_N)
        return [Op(p, ("verify", "--preset", p, "--nx", n, "--nt", n,
                       "--checks", "all", "--format", "json"), VERIFY_N ** 2)
                for p in PRESETS]
    if workload == "frame":
        n = str(FRAME_N)
        return [Op(f"{p}/{c}", ("verify", "--preset", p, "--nx", n, "--nt", n,
                                "--checks", c, "--format", "json"), FRAME_N ** 2)
                for p in PRESETS for c in FRAME_CHECKS if (p, c) not in FRAME_SKIP]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


class SetupError(RuntimeError):
    """The checkout lacks the program or the reference."""


def import_cli(root: Path):
    """``mkdvsurf.cli`` imported from the checkout's own source tree."""
    src = root / "src"
    if not (src / "mkdvsurf" / "cli.py").is_file():
        raise SetupError(f"no program source at {src / 'mkdvsurf'}")
    sys.path.insert(0, str(src))
    from mkdvsurf import cli

    if Path(cli.__file__).resolve().parent != (src / "mkdvsurf").resolve():
        raise SetupError(f"imported mkdvsurf from {cli.__file__}, not from {src}")
    (root / WORK_DIR).mkdir(exist_ok=True)
    return cli


def setup(root: Path, workload: str):
    """Import the CLI and build a workload's inputs; ``setup_s`` times this.

    Returns (cli module, operations, reference entries).
    """
    cli = import_cli(root)
    ops = operations(workload, root)
    reference = json.loads(REFERENCE.read_text())[workload]
    missing = [op.key for op in ops if op.key not in reference]
    if missing:
        raise SetupError(f"no reference for {', '.join(missing)}")
    return cli, ops, reference


def passes(workload: str, seconds: float) -> int:
    """Number of passes in a run of about ``seconds`` seconds."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def schedule(ops: list[Op], seed: int, n: int) -> list[list[Op]]:
    """``n`` passes over ``ops``; the seed fixes the order inside each pass."""
    rng = random.Random(seed)
    return [rng.sample(ops, len(ops)) for _ in range(n)]


@dataclass
class Outcome:
    latency: float
    exit_code: int | None
    stdout: str
    stderr: str
    error: str = ""
    cpu: float = 0.0   # process CPU time of the call


def execute(cli, op: Op) -> Outcome:
    """Run one operation in-process; time only the ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = perf_counter(), process_time()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation that raises is a failed operation
            code, error = None, f"raised {exc!r}"
        latency, cpu = perf_counter() - t0, process_time() - c0
    return Outcome(latency, code, out.getvalue(), err.getvalue(), error, cpu)


def observe(op: Op, outcome: Outcome) -> dict:
    """What the reference records about an operation's output."""
    obs = {"exit": outcome.exit_code}
    if op.out is not None:
        if op.out.is_file():
            obs["sha256"] = hashlib.sha256(op.out.read_bytes()).hexdigest()
            op.out.unlink()
        return obs
    try:
        obs["checks"] = {
            c["name"]: {"status": c["status"], "max_residual": c["max_residual"],
                        "tolerance": c["tolerance"]}
            for c in json.loads(outcome.stdout)["checks"]
        }
    except (ValueError, KeyError, TypeError):
        pass   # no report: the reference's checks are then reported missing
    return obs


def _residuals_agree(name, got, ref, tol) -> bool:
    if got is None or ref is None:
        return got is ref
    if name in TRUNCATION_CHECKS:
        return abs(got - ref) <= TRUNCATION_RTOL * abs(ref)
    return abs(got - ref) <= max(RESIDUAL_RTOL * abs(ref), RESIDUAL_TOL_SHARE * tol)


def mismatches(obs: dict, ref: dict) -> list[str]:
    """Ways an observed output differs from the reference (empty if none)."""
    bad = []
    if obs["exit"] != ref["exit"]:
        bad.append(f"exit {obs['exit']} (reference {ref['exit']})")
    if "sha256" in ref and obs.get("sha256") != ref["sha256"]:
        bad.append(f"sha256 {obs.get('sha256')} (reference {ref['sha256']})")
    if "checks" in ref:
        got = obs.get("checks", {})
        if set(got) != set(ref["checks"]):
            bad.append(f"checks {sorted(got)} (reference {sorted(ref['checks'])})")
        for name, r in ref["checks"].items():
            g = got.get(name)
            if g is None:
                continue
            if g["status"] != r["status"]:
                bad.append(f"{name} {g['status']} (reference {r['status']})")
            elif not _residuals_agree(name, g["max_residual"], r["max_residual"], r["tolerance"]):
                bad.append(f"{name} max residual {g['max_residual']!r} "
                           f"(reference {r['max_residual']!r})")
    return bad
