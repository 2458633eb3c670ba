"""Command-line interface: flags, exit codes, output formats."""

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mkdvsurf import cli, immersion, mesh, verify as verify_mod
from mkdvsurf.cli import build_parser, main, presets_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PRESETS_TABLE = """\
id   family          k1  lambda  mu       nu  window
ex2  spectral3       2   1       -8       -   [-3,3]x[-3,3]
ex3  spectral3       2   0       -4       -   [-6,6]x[-6,6]
ex4  spectral3       3   1/10    -452/75  -   [-6,6]x[-6,6]
ex5  spectral3       1   -1/10   -52/25   -   [-20,20]x[-20,20]
ex6  spectralgauge4  2   0       -4       1   [-4,4]x[-4,4]
ex7  spectralgauge4  2   1       1/10     1   [-6,6]x[-6,6]
ex8  spectralgauge4  1   -1/10   -52/25   -1  [-20,20]x[-20,20]
"""


def test_presets_listing(capsys):
    # byte for byte: the exact rationals and windows are source data
    code, out, err = run(capsys, "presets")
    assert code == 0
    assert err == ""
    assert out == PRESETS_TABLE
    assert presets_table() == PRESETS_TABLE


def test_generate_obj(tmp_path, capsys):
    out_file = tmp_path / "m.obj"
    code, out, _ = run(
        capsys, "generate", "--preset", "ex2", "--nx", "11", "--nt", "9",
        "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("v ") == 99
    assert text.count("f ") == 80
    assert "wrote" in out


def test_generate_parametric_csv(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "generate", "--family", "spectral3", "--k1", "2", "--lambda", "1",
        "--mu", "-8", "--x-min", "-1", "--x-max", "1", "--t-min", "-1",
        "--t-max", "1", "--nx", "5", "--nt", "5", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "x,t,y1,y2,y3,K,H,singular"
    assert len(lines) == 26


def test_generate_flags_an_overflowed_h_without_a_warning(tmp_path, capsys):
    # near soliton.XI_MAX sech xi is subnormal and H overflows to inf, for
    # spectral3 and for spectralgauge4 at nu = 0 (denominator mu^2 u): a
    # singular vertex, not a leaked RuntimeWarning
    for family in (("spectral3",), ("spectralgauge4", "--nu", "0")):
        out_file = tmp_path / f"{family[0]}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(
                capsys, "generate", "--family", *family, "--k1", "2", "--lambda", "2",
                "--mu", "0.01", "--x-min", "700", "--x-max", "709", "--t-min", "0",
                "--t-max", "1", "--nx", "5", "--nt", "5", "--format", "csv",
                "--out", str(out_file),
            )
        assert code == 0 and "RuntimeWarning" not in err, (family, err)
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        flagged = [r for r in rows if r[7] == "1"]
        assert len(flagged) == 11 and f"{len(flagged)} flagged singular" in out, family
        assert [r for r in rows if r[6] == "inf"] == flagged, family


# surfaces whose position overflows on their window at 5 x 5: at the largest
# |lambda|, and where spectralgauge4's phase overflows and cos and sin give NaN
OVERFLOWED_POSITIONS = [
    ("--family", "spectral3", "--k1", "1", "--lambda", "6e153", "--mu", "1"),
    ("--family", "spectral3", "--k1", "1", "--lambda", "1e140", "--mu", "1"),
    ("--family", "spectralgauge4", "--k1", "1", "--lambda", "1e153", "--mu", "1", "--nu", "1",
     "--t-min", "1", "--t-max", "300"),
]


@pytest.mark.parametrize("surface", OVERFLOWED_POSITIONS)
def test_generate_refuses_an_overflowed_position_without_a_warning(tmp_path, capsys, surface):
    out_file = tmp_path / "x.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "generate", *surface, "--nx", "5", "--nt", "5",
                             "--out", str(out_file))
    assert (code, out) == (2, "") and not out_file.exists(), err
    window = "[-3,3]x[1,300]" if "--t-min" in surface else "[-3,3]x[-3,3]"
    lam = float(surface[surface.index("--lambda") + 1])
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"lambda = {lam:g}" in err and f" on {window}: the position overflows" in err, err


def _signed_power(lo, hi):
    """+-10^U(lo, hi)."""
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                     st.floats(lo, hi))


# t windows t-min = -U(0, 5) 10^U(0, 6), of width U(0.5, 5) 10^U(0, 6)
_T_WINDOWS = st.builds(
    lambda a, b, c, d: (-a * 10.0 ** b, -a * 10.0 ** b + c * 10.0 ** d),
    st.floats(0, 5), st.floats(0, 6), st.floats(0.5, 5), st.floats(0, 6))


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["spectral3", "spectralgauge4"]),
    _signed_power(-4, 4),
    st.just(0.0) | _signed_power(-4, 155),
    st.just(0.0) | _signed_power(-60, 60),
    st.just(0.0) | _signed_power(-60, 60),
    st.none() | _T_WINDOWS,
)
@example("spectral3", 1.0, 6e153, 1.0, 0.0, None)
@example("spectral3", 1.0, 1e140, 1.0, 0.0, None)
@example("spectralgauge4", 1.0, 1e153, 1.0, 1.0, (1.0, 300.0))
def test_generate_writes_finite_vertices_or_exits_2(family, k1, lam, mu, nu, window):
    # a mesh whose every vertex is a number, or one error line and no file;
    # never a placeholder, a traceback or a leaked RuntimeWarning
    argv = ["generate", "--family", family, f"--k1={k1!r}", f"--lambda={lam!r}",
            f"--mu={mu!r}", "--nx", "5", "--nt", "5", "--format", "json"]
    if family == "spectralgauge4":
        argv.append(f"--nu={nu!r}")
    if window is not None:
        argv += [f"--t-min={window[0]!r}", f"--t-max={window[1]!r}"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.json"
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--out", str(path)])
        err = err.getvalue()
        if code == 0:
            vertices = json.loads(path.read_text())["vertices"]
            assert len(vertices) == 25 and err == "", err
            assert all(isinstance(v, float) for row in vertices for v in row), argv
        else:
            assert code == 2 and not path.exists(), (argv, code)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_negative_exponent_values_parse(tmp_path, capsys):
    # "-8e0" after a flag is its value, as "--mu=-8" is
    common = ("generate", "--family", "spectral3", "--k1", "2", "--lambda", "1",
              "--x-max", "1", "--t-max", "1", "--nx", "5", "--nt", "5")
    spaced, joined = tmp_path / "spaced.obj", tmp_path / "joined.obj"
    code, _, _ = run(capsys, *common, "--mu", "-8e0", "--x-min", "-1e0",
                     "--t-min", "-1e0", "--out", str(spaced))
    assert code == 0
    code, _, _ = run(capsys, *common, "--mu=-8", "--x-min=-1", "--t-min=-1",
                     "--out", str(joined))
    assert code == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_generate_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--preset", "ex2", "--k1", "3", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "spectral3", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--preset", "ex2", "--x-min", "-1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    capsys.readouterr()


# Parameter and window flags that both subcommands must reject with exit 2
# and the same message, naming the field, before any work is done.
BAD_SURFACES = [
    # mu defaults to zero, which the spectral family rejects
    (("--family", "spectral3", "--k1", "2"), "mu"),
    (("--family", "spectral3", "--k1", "2", "--lambda", "1"), "mu"),
    # non-finite parameters are rejected before anything is sampled
    (("--family", "spectral3", "--k1", "nan", "--mu", "1"), "k1"),
    (("--family", "spectral3", "--k1", "inf", "--mu", "1"), "k1"),
    (("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "nan"), "mu"),
    # a k1 whose powers overflow or underflow to zero: k1^4 (the jet's
    # u_xxx), or k1^2 + 4 lambda^2, which the radii divide by
    (("--family", "spectral3", "--k1", "1e200", "--mu", "1"), "k1"),
    (("--family", "spectral3", "--k1", "1e-200", "--mu", "1"), "k1"),
    (("--family", "spectralgauge4", "--k1", "1e120", "--nu", "1"), "k1"),
    (("--family", "spectral3", "--k1", "1e-120", "--lambda", "1", "--mu", "1"), "k1"),
    (("--family", "spectral3", "--k1", "1e-100", "--mu", "1"), "k1"),
    # mu^2 and nu^2, which the curvatures and the frame scale by
    (("--family", "spectral3", "--k1", "2", "--mu", "1e300"), "mu"),
    (("--family", "spectral3", "--k1", "2", "--mu", "1e-300"), "mu"),
    (("--family", "spectralgauge4", "--k1", "2", "--mu", "1", "--nu", "1e200"), "nu"),
    # mu^4 and nu^4, which the norm of [A, B] and the Weingarten relation's
    # K^2 scale by: each passes the mu^2 or nu^2 rule
    (("--family", "spectral3", "--k1", "2", "--mu", "1e150"), "mu"),
    (("--family", "spectralgauge4", "--k1", "2", "--lambda", "0.5", "--mu", "1",
      "--nu", "1e100"), "nu"),
    (("--family", "spectral3", "--k1", "1e-70", "--mu", "1e-160"), "mu"),
    # spectral3's (k1/mu)^4, the scale of the Weingarten relation's K^2,
    # overflows though mu^4 does not
    (("--family", "spectral3", "--k1", "2", "--mu", "1e-80"), "mu"),
    # radii that overflow
    (("--family", "spectralgauge4", "--k1", "2", "--nu", "1e308"), "nu"),
    # spectral3 does not depend on nu: a nonzero nu would only be written
    # into the JSON export
    (("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "-8", "--nu", "5"),
     "nu = 5: the spectral3 family does not depend on nu"),
    # a window must be finite, in order and of nonzero width
    (("--preset", "ex2", "--x-min", "2", "--x-max", "-2"), "x_range"),
    (("--preset", "ex6", "--t-min", "1", "--t-max", "1"), "t_range"),
    (("--preset", "ex7", "--t-min", "nan", "--t-max", "1"), "t_range"),
    (("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "-8",
      "--x-min=-inf", "--x-max", "1"), "x_range"),
    # a window whose width overflows, or whose corners reach |xi| where
    # cosh overflows (about 710.5): ex4 has xi = 3 (9 t + 4 x) / 8
    (("--preset", "ex2", "--x-min", "-1e308", "--x-max", "1e308"), "x_range"),
    (("--preset", "ex2", "--x-min", "-1e200", "--x-max", "1e200"), "x_range"),
    (("--preset", "ex4", "--x-min", "-700", "--x-max", "700"), "x_range"),
    (("--preset", "ex4", "--t-min", "-300", "--t-max", "300"), "t_range"),
]


def test_generate_config_error_exit_2(tmp_path, capsys):
    out_file = tmp_path / "x.obj"
    grid = ("--nx", "5", "--nt", "5", "--out", str(out_file))
    cases = [
        *((("generate", *flags, *grid), field) for flags, field in BAD_SURFACES),
        *((("verify", *flags, "--checks", checks, *grid), field)
          for flags, field in BAD_SURFACES for checks in ("zerocurv,lax,compat", "all")),
        # the one finite-difference step is validated before any check runs
        (("verify", "--preset", "ex2", "--checks", "lax", "--fd-step", "nan", *grid),
         "fd_step"),
        (("verify", "--preset", "ex2", "--checks", "consistency", "--fd-step", "0", *grid),
         "fd_step"),
        (("verify", "--preset", "ex2", "--checks", "consistency", "--fd-step", "-1e-3",
          *grid), "fd_step"),
        (("verify", "--preset", "ex2", "--checks", "all", "--fd-step", "0.5", *grid),
         "fd_step"),
        # a step outside the range a check admits would measure the step:
        # willmore and shape FAIL at 1e-8 on a surface that passes at 1e-3
        (("verify", "--preset", "ex2", "--checks", "willmore,shape", "--fd-step", "1e-8",
          *grid), "fd_step", "willmore"),
        (("verify", "--preset", "ex2", "--checks", "consistency", "--fd-step", "1e-2",
          *grid), "fd_step", "consistency"),
        # a tolerance must be finite and >= 0: nan or -1 would FAIL a passing
        # check, and inf or nan would make the JSON report invalid
        (("verify", "--preset", "ex2", "--checks", "shape", "--tol-shape", "nan", *grid),
         "tolerance", "shape"),
        (("verify", "--preset", "ex2", "--checks", "shape", "--tol-shape", "-1", *grid),
         "tolerance", "shape"),
        (("verify", "--preset", "ex2", "--checks", "zerocurv", "--tol-zerocurv", "inf",
          "--format", "json", *grid), "tolerance", "zerocurv"),
        (("verify", "--preset", "ex2", "--checks", "zerocurv", "--tol-zerocurv", "nan",
          "--format", "json", *grid), "tolerance", "zerocurv"),
        # a mu whose sixth power, used by the shape check's constrained
        # energies, overflows or underflows to 0
        (("verify", "--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e60",
          "--checks", "shape", *grid), "mu^6"),
        (("verify", "--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e-60",
          "--checks", "shape", *grid), "mu^6"),
        # a grid too large for memory is rejected before anything is allocated
        (("generate", "--preset", "ex2", "--nx", "1000000", "--nt", "1000000",
          "--out", str(out_file)), "nx*nt"),
        (("verify", "--preset", "ex2", "--nx", "1000000", "--nt", "1000000",
          "--out", str(out_file)), "nx*nt"),
    ]
    for argv, *fields in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert all(field in err for field in fields), (argv, err)
        assert not out_file.exists()
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# e^(-pi lambda/k1) = 5e-324: B1 and det Phi are subnormal, and the frame
# checks used to overflow in Phi^-1 and leak numpy's RuntimeWarnings
SUBNORMAL_PHI = ("--family", "spectral3", "--k1", "0.1288852974447968",
                 "--lambda", "30.533654924811838", "--mu", "0.013539625534976793",
                 "--x-min", "-1.8463196141031273", "--x-max", "2.343150778041539",
                 "--nx", "5", "--nt", "5")

# Surfaces whose scale one group of checks cannot take, that group and the
# start of its skip note. Phi's constants, which only lax and consistency
# evaluate: e^(-pi lambda/k1) = e^942 overflows B1, det Phi overflows where
# B1 does not, and SUBNORMAL_PHI's B1 is subnormal. And a mu whose sixth
# power, used by the shape check's constrained energies, overflows or
# underflows to 0.
UNSCALED_SURFACES = [
    (("--family", "spectral3", "--k1", "0.01", "--lambda", "-3", "--mu", "1"),
     ("lax", "consistency"),
     "k1 = 0.01, lambda = -3: |B1| = e^(-pi lambda/k1)/|k1| = inf, need it finite"),
    (("--family", "spectralgauge4", "--k1", "1", "--lambda", "-225", "--nu", "1"),
     ("lax", "consistency"), "k1 = 1, lambda = -225: det Phi = inf, need it finite"),
    (SUBNORMAL_PHI, ("lax", "consistency"),
     "k1 = 0.128885, lambda = 30.5337: |B1| = e^(-pi lambda/k1)/|k1| = 3.95253e-323 "
     "is subnormal"),
    (("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e60"), ("shape",),
     "mu = 1e+60: mu^6 = inf, need it finite"),
    (("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e-60"), ("shape",),
     "mu = 1e-60: mu^6 = 0, need it finite"),
]


@pytest.mark.parametrize("command", ["verify", "generate"])
def test_subnormal_phi_constants_stop_only_the_checks_of_phi(tmp_path, capsys, command):
    # generate never reads Phi, so it writes the mesh; verify runs every
    # other check and skips the two that evaluate Phi, naming k1 and lambda
    out_file = tmp_path / "x.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, *SUBNORMAL_PHI, "--out", str(out_file))
    assert (code, err) == (0, ""), err
    if command == "generate":
        assert out.startswith(f"wrote {out_file} (obj): 25 vertices")
        assert out_file.read_text().count("v ") == 25
        return
    skipped = {ln.split()[0]: ln for ln in out_file.read_text().splitlines() if " skip " in ln}
    assert sorted(skipped) == ["consistency", "lax", "willmore"]
    for name in ("lax", "consistency"):
        assert "(skipped: k1 = 0.128885, lambda = 30.5337: |B1|" in skipped[name]
        assert "subnormal" in skipped[name]


@pytest.mark.parametrize("surface, checks, note", UNSCALED_SURFACES,
                         ids=["B1-inf", "det-inf", "B1-subnormal", "mu-1e60", "mu-1e-60"])
def test_an_unusable_scale_skips_its_checks_or_exits_2_before_any_runs(
        tmp_path, capsys, monkeypatch, surface, checks, note):
    ran = []
    for name, runner in verify_mod._RUNNERS.items():
        def spy(*args, _run=runner, _name=name):
            ran.append(_name)
            return _run(*args)

        monkeypatch.setitem(verify_mod._RUNNERS, name, spy)
    grid = ("--nx", "5", "--nt", "5")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "generate", *surface, *grid, "--out",
                             str(tmp_path / "x.obj"))
        assert (code, err) == (0, ""), err
        code, out, err = run(capsys, "verify", *surface, *grid, "--format", "json")
        assert code in (0, 1) and err == "", err
        report = {c["name"]: c for c in json.loads(out)["checks"]}
        # the named checks skip with the note, and every check that does not skip ran
        assert [n for n, c in report.items()
                if c["note"].startswith(f"skipped: {note}")] == list(checks)
        assert ran == [n for n, c in report.items() if c["status"] != "skip"]
        for name in checks:
            ran.clear()
            code, out, err = run(capsys, "verify", *surface, *grid, "--checks",
                                 f"zerocurv,{name}")
            assert (code, out, ran) == (2, "", []), err
            assert err.startswith(f"error: check {name!r} incompatible: {note}"), err


def test_generate_and_verify_reject_a_surface_alike(tmp_path, capsys):
    # both subcommands build their surface on one path, so one message
    for flags, field in BAD_SURFACES:
        errors = []
        for argv in (("generate", *flags, "--out", str(tmp_path / "x.obj")),
                     ("verify", *flags)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, err)
            errors.append([ln for ln in err.splitlines() if ln.startswith("error:")])
        assert errors[0] == errors[1] and len(errors[0]) == 1, (flags, errors)
        assert field in errors[0][0]


def test_fd_step_inside_a_checks_range_runs(capsys):
    # lax passes over the whole stencil range, so its smallest step is admitted
    code, out, _ = run(capsys, "verify", "--preset", "ex2", "--nx", "5", "--nt", "5",
                       "--checks", "lax", "--fd-step", "1e-8")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("surface", [
    ("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e6"),
    ("--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e8"),
    ("--family", "spectralgauge4", "--k1", "2", "--lambda", "1", "--mu", "1", "--nu", "1e6"),
])
def test_consistency_reports_on_large_frames(capsys, surface):
    # frame tangents of size mu or nu carry rounding of that size: the su(2)
    # membership test scales with them, so the check reports a verdict
    code, out, err = run(capsys, "verify", *surface, "--checks", "consistency")
    assert code in (0, 1), err
    assert "not su(2)" not in out + err
    assert out.startswith("consistency ")


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "ex2", "--checks", "zerocurv,forms",
        "--nx", "11", "--nt", "11",
    )
    assert code == 0
    assert "overall: pass" in out
    code, out, _ = run(
        capsys, "verify", "--preset", "ex2", "--checks", "zerocurv",
        "--tol-zerocurv", "1e-30", "--nx", "5", "--nt", "5",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_incompatible_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--preset", "ex3", "--checks", "willmore")
    assert code == 2
    assert "incompatible" in err


@pytest.mark.parametrize("checks", [" all", "all ", " all ,"])
def test_verify_all_is_read_stripped_like_any_check_name(capsys, checks):
    # every name in --checks is stripped, "all" too
    grid = ("--preset", "ex2", "--nx", "5", "--nt", "5", "--format", "json")
    want = run(capsys, "verify", *grid, "--checks", "all")
    assert want[0] == 0, want[2]
    assert run(capsys, "verify", *grid, "--checks", checks) == want


@pytest.mark.parametrize("checks", ["all,forms", "zerocurv, all", "all,all"])
def test_verify_rejects_all_among_check_names_before_running_any(capsys, monkeypatch, checks):
    ran = []
    for name in verify_mod._RUNNERS:
        monkeypatch.setitem(verify_mod._RUNNERS, name, lambda *args, _name=name: ran.append(_name))
    code, out, err = run(capsys, "verify", "--preset", "ex2", "--checks", checks)
    assert (code, out, ran) == (2, "", [])
    assert err == "error: 'all' cannot be combined with check names\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("checks", [",", "", " , "])
def test_verify_with_no_checks_named_exit_2(capsys, checks, fmt):
    # an empty list is a configuration error, not a report of no checks
    code, out, err = run(capsys, "verify", "--preset", "ex2", "--checks", checks,
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: no checks named; name one or more, or use 'all'\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_rejects_a_check_named_twice_before_running_any(capsys, monkeypatch, fmt):
    ran = []
    for name, runner in verify_mod._RUNNERS.items():
        def spy(*args, _run=runner, _name=name):
            ran.append(_name)
            return _run(*args)

        monkeypatch.setitem(verify_mod._RUNNERS, name, spy)
    code, out, err = run(capsys, "verify", "--preset", "ex2", "--checks",
                         "zerocurv,lax,compat,lax,zerocurv", "--format", fmt)
    assert (code, out, ran) == (2, "", [])
    assert err == "error: checks named more than once: lax, zerocurv\n"


@pytest.mark.parametrize("parent, message", [
    ("missing", "[Errno 2] No such file or directory"),
    ("a-file", "[Errno 20] Not a directory"),
])
@pytest.mark.parametrize("command", ["verify", "generate"])
def test_out_into_no_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                      parent, message):
    # the error opening the file would give at the end, before any check or
    # mesh is computed
    (tmp_path / "a-file").write_text("")
    out_file = tmp_path / parent / "r.json"
    ran = []
    for name in verify_mod._RUNNERS:
        monkeypatch.setitem(verify_mod._RUNNERS, name, lambda *args, _name=name: ran.append(_name))
    monkeypatch.setattr(cli.mesh_mod, "generate", lambda *args, **kw: ran.append("generate"))
    code, out, err = run(capsys, command, "--preset", "ex2", "--nx", "5", "--nt", "5",
                         "--out", str(out_file))
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: {message}: {str(out_file)!r}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["verify", "generate"])
def test_out_naming_a_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    # open() would fail with EISDIR only after the whole mesh or every check
    ran = []
    monkeypatch.setattr(cli.mesh_mod, "generate", lambda *args, **kw: ran.append("generate"))
    monkeypatch.setattr(cli.verify_mod, "run_checks", lambda *args, **kw: ran.append("verify"))
    for out_dir in (str(tmp_path), str(tmp_path) + os.sep):
        code, out, err = run(capsys, command, "--preset", "ex2", "--nx", "5", "--nt", "5",
                             "--out", out_dir)
        assert (code, out, ran) == (2, "", [])
        # generate names the path as mesh.export opens it, verify as given
        named = str(Path(out_dir)) if command == "generate" else out_dir
        assert err == f"error: [Errno 21] Is a directory: {named!r}\n"


def test_sphere_skips_the_unit_sphere_of_mu_0(capsys):
    # at mu = 0 the symmetry frame, mu times a fixed field, is degenerate
    # everywhere: --checks all skips sphere, naming it aborts with the reason
    surface = ("--family", "spectralgauge4", "--k1", "2", "--lambda", "0.5", "--mu", "0",
               "--nu", "1", "--nx", "9", "--nt", "9")
    code, out, err = run(capsys, "verify", *surface, "--checks", "all")
    assert code == 0, err
    [sphere] = [line for line in out.splitlines() if line.startswith("sphere")]
    assert "skip" in sphere and "requires mu != 0" in sphere
    assert out.endswith("overall: pass\n")
    code, out, err = run(capsys, "verify", *surface, "--checks", "sphere")
    assert code == 2
    assert out == ""
    assert err == "error: check 'sphere' incompatible: requires mu != 0\n"


def test_all_skips_a_sphere_whose_normal_is_degenerate_everywhere(capsys):
    # at |lambda/k1| = 1e30 the symmetry frame's |[A, B]|/(|A| |B|), of order
    # |k1/lambda|, is below the degeneracy bound at every point, whatever the
    # grid: under all the sphere row is skipped with the reason and every
    # other row prints; named, sphere exits 2 with it
    surface = ("--family", "spectral3", "--k1", "1", "--lambda", "1e30", "--mu", "1",
               "--nx", "5", "--nt", "5")
    reason = ("sphere: the symmetry frame's normal is degenerate at every grid point, "
              "|[A, B]| <= 1e-12 |A| |B|; the ratio falls as |k1/lambda|, and "
              "|lambda/k1| = 1e+30")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify", *surface, "--checks", "all")
        assert code in (0, 1) and err == ""
        lines = {line.split()[0]: line for line in out.splitlines()}
        assert list(lines) == [*verify_mod.CHECK_NAMES, "overall:"]
        assert "  skip  " in lines["sphere"] and lines["sphere"].endswith(f"(skipped: {reason})")
        code, out, err = run(capsys, "verify", *surface, "--checks", "sphere")
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"


def test_all_skips_forms_without_a_point_off_the_poles(capsys, monkeypatch):
    # the runner's SingularPointError, which exits 2 for the named check,
    # is a skipped row under all
    at_poles = dataclasses.replace(
        immersion.SPECTRAL3, denominator=lambda j: np.zeros_like(j.u))
    monkeypatch.setitem(immersion.FAMILIES, "spectral3", at_poles)
    code, out, err = run(capsys, "verify", "--family", "spectral3", "--k1", "2",
                         "--mu", "1", "--nx", "5", "--nt", "5", "--checks", "all")
    assert code in (0, 1) and err == ""
    [forms] = [line for line in out.splitlines() if line.startswith("forms")]
    assert "  skip  " in forms and "(skipped: forms: no grid point clears" in forms


@pytest.mark.parametrize("window, axis", [
    # clipped to [-2,2], x would run over [2,5], outside the window
    (("--x-min", "5", "--x-max", "10"), "x"),
    # and t over the single row t = 2
    (("--t-min", "2", "--t-max", "5"), "t"),
])
def test_clipped_checks_skip_a_window_off_the_clip_square(capsys, window, axis):
    # --checks all skips the four checks of the clipped grid with the reason,
    # and naming one aborts with it
    surface = ("--preset", "ex2", *window, "--nx", "9", "--nt", "9")
    clipped = ("lax", "compat", "sphere", "consistency")
    reason = f"requires the {axis} window to overlap (-2,2)"
    code, out, err = run(capsys, "verify", *surface, "--checks", "all")
    assert code == 0, err
    lines = {line.split()[0]: line for line in out.splitlines()}
    assert all("skip" in lines[name] and reason in lines[name] for name in clipped)
    assert out.endswith("overall: pass\n")
    for name in clipped:
        code, out, err = run(capsys, "verify", *surface, "--checks", name)
        assert (code, out) == (2, "")
        assert err == f"error: check {name!r} incompatible: {reason}\n"


def test_grid_labels_tell_close_bounds_apart(capsys):
    # clipped to [-2,2], x runs over [1.9999999,2]: %g of both bounds is "2",
    # so the lower one is written as its repr; a bound %g writes exactly
    # keeps its %g text
    code, out, err = run(capsys, "verify", "--preset", "ex2", "--x-min", "1.9999999",
                         "--x-max", "2.5", "--checks", "compat")
    assert code == 0, err
    assert "  41x41 on [1.9999999,2]x[-2,2]  " in out
    code, out, err = run(capsys, "verify", "--preset", "ex2", "--x-min", "-1.5",
                         "--x-max", "2.5", "--checks", "compat", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["checks"][0]["grid"] == "41x41 on [-1.5,2]x[-2,2]"


def test_forms_without_a_point_off_the_poles_exit_2(capsys, monkeypatch):
    # a family whose denominator is 0 on the whole grid puts every point at a
    # pole; no parameters that pass validation do that to spectral3
    at_poles = dataclasses.replace(
        immersion.SPECTRAL3, denominator=lambda j: np.zeros_like(j.u))
    monkeypatch.setitem(immersion.FAMILIES, "spectral3", at_poles)
    code, out, err = run(capsys, "verify", "--family", "spectral3", "--k1", "2",
                         "--mu", "1", "--nx", "5", "--nt", "5", "--checks", "forms")
    assert code == 2
    assert out == ""
    assert err.startswith("error: forms: no grid point") and err.count("\n") == 1


def test_verify_json_output(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--preset", "ex2", "--checks", "lax", "--format", "json",
        "--out", str(report), "--nx", "9", "--nt", "9",
    )
    assert code == 0
    assert out == ""
    doc = json.loads(report.read_text())
    assert doc["report_version"] == 1
    assert doc["checks"][0]["name"] == "lax"


def test_verify_json_stdout(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "ex2", "--checks", "zerocurv",
        "--format", "json", "--nx", "5", "--nt", "5",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_the_uncorrected_weingarten_check_is_unknown(capsys):
    # the paper's uncorrected cubic is pinned by tests, not run as a check
    code, out, err = run(
        capsys, "verify", "--preset", "ex2", "--checks", "weingarten-paper-literal",
        "--nx", "9", "--nt", "9",
    )
    assert code == 2 and out == ""
    assert err == ("error: unknown checks: weingarten-paper-literal; valid: "
                   + ", ".join(verify_mod.CHECK_NAMES) + "\n")


def test_the_uncorrected_weingarten_tolerance_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--preset", "ex2", "--tol-weingarten-paper-literal", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-weingarten-paper-literal" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["1e77", "1e100"])
def test_an_overflowed_weingarten_constant_skips_the_check_or_exits_2(capsys, lam):
    # 4 (k1^2 + 2 lambda^2)^2 overflows, though k1^2 + 4 lambda^2 does not:
    # named, weingarten exits 2 before any check runs; under all it skips,
    # and the run raises nothing
    surface = ("--family", "spectral3", "--k1", "1", "--lambda", lam, "--mu", "1",
               "--nx", "5", "--nt", "5")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify", *surface, "--checks", "weingarten")
        assert (code, out) == (2, ""), err
        assert err == (f"error: check 'weingarten' incompatible: k1 = 1, lambda = "
                       f"{float(lam):g}: 4 (k1^2 + 2 lambda^2)^2 = inf, need it finite "
                       "and nonzero\n")
        code, out, err = run(capsys, "verify", *surface)
    assert code in (0, 1, 2) and err.count("\n") <= 1 and "weingarten" not in err, err


def test_weingarten_leaves_out_the_points_whose_terms_overflow(capsys):
    # at lambda 1e76 the closed-form |H|, about lambda^2/(|mu| sech xi), passes
    # 1.3e154, where H^2 overflows though 4 (k1^2 + 2 lambda^2)^2 does not:
    # at mu = 1e-3 on every point of the profile, so the named check exits 2
    # and names the overflow; at mu = 0.02 beyond |xi| of about 1.95, where
    # the points are left out and counted.  The runs raise nothing
    surface = ("--family", "spectral3", "--k1", "1", "--lambda", "1e76", "--checks",
               "weingarten")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "verify", *surface, "--mu", "1e-3", "--nx", "5",
                             "--nt", "5")
        assert (code, out) == (2, "")
        assert err == ("error: weingarten: k1 = 1, lambda = 1e+76, mu = 0.001: the terms "
                       "of the K-H relations overflow at every grid point\n")
        code, out, err = run(capsys, "verify", *surface, "--mu", "0.02", "--nx", "9",
                             "--nt", "9", "--format", "json")
    assert code == 0 and err == ""
    [check] = json.loads(out)["checks"]
    assert (check["status"], check["excluded"]) == ("pass", 36)


def test_weingarten_note_names_the_sign_of_k1_over_lambda(capsys):
    # the quadratic is added at k1 = 2 lambda (ex2) and at k1 = -2 lambda
    for k1, note in (("2", "k1 = 2 lambda"), ("-2", "k1 = -2 lambda")):
        code, out, err = run(capsys, "verify", "--family", "spectral3", f"--k1={k1}",
                             "--lambda", "1", "--mu", "-8", "--checks", "weingarten")
        assert code == 0 and err == ""
        assert f"(cubic K-H relation and quadratic at {note})\n" in out


def test_missing_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    # main reuses one parser per process: a call that exits 2 through
    # parser.error, after setting flags of its own, changes nothing that the
    # next call sees
    valid = ("verify", "--preset", "ex2", "--checks", "zerocurv,lax", "--nt", "9",
             "--format", "json")
    alone = run(capsys, *valid)
    assert alone[0] == 0
    failing = (
        # rejected by argparse itself
        ("verify", "--preset", "ex2", "--nx", "5", "--format", "yaml"),
        # parsed, then rejected through parser.error by the surface selection
        ("verify", "--preset", "ex2", "--nx", "5", "--tol-lax", "1e-30", "--k1", "3"),
        ("verify", "--preset", "ex2", "--nx", "5", "--x-min", "-1"),
    )
    for argv in failing:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert run(capsys, *valid) == alone
    assert build_parser() is not build_parser()


def test_generate_offers_the_export_formats():
    # one owner: the --format choices are mesh.FORMATS, in --help's order
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (fmt,) = [a for a in sub.choices["generate"]._actions if a.dest == "format"]
    assert fmt.choices == mesh.FORMATS == ("obj", "csv", "json")


# glibc's malloc settings that _pin_malloc leaves to the user
MALLOC_SETTINGS = [("MALLOC_MMAP_THRESHOLD_", "131072"), ("MALLOC_TRIM_THRESHOLD_", "0"),
                   ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class _Libc:
    """A C library whose mallopt records its calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def libc(monkeypatch):
    """A fresh process's pin, over a recording C library and an environment
    that tunes nothing; the pin is reset again afterwards."""
    fake = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
    for name, _ in MALLOC_SETTINGS:
        monkeypatch.delenv(name, raising=False)
    cli._pin_malloc.cache_clear()
    yield fake
    cli._pin_malloc.cache_clear()


def test_malloc_is_pinned_once_per_process(libc, capsys):
    assert main(["presets"]) == 0
    assert main(["presets"]) == 0
    capsys.readouterr()
    # M_MMAP_THRESHOLD (-3) at 2 MiB and M_TRIM_THRESHOLD (-1) at 32 MiB
    assert libc.calls == [(-3, 2 << 20), (-1, 32 << 20)]


@pytest.mark.parametrize("name, value", MALLOC_SETTINGS)
def test_malloc_tuned_by_the_environment_is_left_alone(libc, monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert main(["presets"]) == 0
    capsys.readouterr()
    assert libc.calls == [] and cli._pin_malloc() is False


def test_no_mallopt_pins_nothing(libc, monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert main(["presets"]) == 0
    assert capsys.readouterr().out == PRESETS_TABLE
    assert cli._pin_malloc() is False


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_a_second_cli_run_reuses_the_heap():
    # With glibc's default, dynamic thresholds, each 8192-point lax tile maps
    # and page-faults its 128-512 KiB temporaries afresh until some large
    # free raises the thresholds: about 14,000 minor faults per run at 201^2
    # in one process.  Pinned, the second run reuses the first run's heap.
    # Importing the package pins nothing.
    script = """
import contextlib, io, resource
from mkdvsurf import cli
assert cli._pin_malloc.cache_info().currsize == 0
argv = ["verify", "--preset", "ex7", "--checks", "lax", "--nx", "201", "--nt", "201"]
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""
    tuned = {name for name, _ in MALLOC_SETTINGS}
    env = {k: v for k, v in os.environ.items() if k not in tuned}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000
