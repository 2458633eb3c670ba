"""Command-line interface: flags, exit codes, output formats."""

import json
import warnings

import pytest

from mkdvsurf.cli import main, presets_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 8  # header + 7 presets
    assert "1/10" in out
    assert "spectralgauge4" in out
    assert presets_table() == presets_table()  # byte-stable


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


def test_generate_config_error_exit_2(tmp_path, capsys):
    out_file = tmp_path / "x.obj"
    grid = ("--nx", "5", "--nt", "5", "--out", str(out_file))
    cases = [
        # mu defaults to zero, which the spectral family rejects
        (("generate", "--family", "spectral3", "--k1", "2", "--out", str(out_file)), "mu"),
        # non-finite parameters are rejected before anything is sampled
        (("generate", "--family", "spectral3", "--k1", "nan", "--mu", "1", *grid), "k1"),
        (("generate", "--family", "spectral3", "--k1", "inf", "--mu", "1", *grid), "k1"),
        (("verify", "--family", "spectral3", "--k1", "2", "--lambda", "1", "--mu", "nan",
          "--checks", "forms", "--out", str(out_file)), "mu"),
    ]
    for argv, field in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert code == 2
        assert field in err
        assert not out_file.exists()
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


def test_missing_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
