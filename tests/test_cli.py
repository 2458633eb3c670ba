"""Command-line interface: flags, exit codes, output formats."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from mkdvsurf import immersion, verify as verify_mod
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
    # the constants of Phi overflow: e^(-pi lambda/k1) = e^942, and the det
    # overflows where B1 does not
    (("--family", "spectral3", "--k1", "0.01", "--lambda", "-3", "--mu", "1"),
     "k1 = 0.01, lambda = -3"),
    (("--family", "spectralgauge4", "--k1", "1", "--lambda", "-225", "--nu", "1"),
     "det Phi"),
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
          "--checks", "all", *grid), "mu^6"),
        (("verify", "--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "1e-60",
          "--checks", "all", *grid), "mu^6"),
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


@pytest.mark.parametrize("command", ["verify", "generate"])
def test_subnormal_phi_constants_exit_2_naming_k1_and_lambda(tmp_path, capsys, command):
    out_file = tmp_path / "x.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, *SUBNORMAL_PHI, "--out", str(out_file))
    assert (code, out) == (2, ""), err
    (line,) = err.splitlines()
    assert line.startswith("error: k1 = 0.128885, lambda = 30.5337: ")
    assert "subnormal" in line
    assert not out_file.exists()


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
        def spy(*args, _run=runner):
            ran.append(args[1])
            return _run(*args)

        monkeypatch.setitem(verify_mod._RUNNERS, name, spy)
    code, out, err = run(capsys, "verify", "--preset", "ex2", "--checks",
                         "zerocurv,lax,compat,lax,zerocurv", "--format", fmt)
    assert (code, out, ran) == (2, "", [])
    assert err == "error: checks named more than once: lax, zerocurv\n"


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


def test_paper_literal_regression_via_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "ex2", "--checks", "weingarten-paper-literal",
        "--nx", "9", "--nt", "9",
    )
    assert code == 1
    assert "expected" in out


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
