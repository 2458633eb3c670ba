"""Verification report plumbing: check selection, tolerances, serialization."""

import ast
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mkdvsurf import immersion, lagrangian, lax, verify as vf
from mkdvsurf.cli import main
from mkdvsurf.diffgeo import CurvaturePair
from mkdvsurf.immersion import resolve
from mkdvsurf.soliton import SolitonParams, jet, tiled, xi_grid

from helpers import fields, shape_residuals


def test_all_checks_pass_on_reference_preset():
    rep = vf.run_checks("all", resolve("ex2"))
    assert rep.passed
    assert [c.name for c in rep.checks] == list(vf.CHECK_NAMES)
    assert all(c.passed is True for c in rep.checks)


def test_incompatible_checks_skipped_with_reason():
    rep = vf.run_checks("all", resolve("ex6"))
    by_name = {c.name: c for c in rep.checks}
    assert rep.passed  # skips do not fail the run
    for name in ("weingarten", "willmore", "shape", "sphere"):
        assert by_name[name].passed is None
        assert by_name[name].note.startswith("skipped:")
    assert by_name["forms"].passed is True


def test_explicit_incompatible_check_raises():
    with pytest.raises(vf.CheckConfigError):
        vf.run_checks(["willmore"], resolve("ex3"))
    with pytest.raises(vf.CheckConfigError):
        vf.run_checks(["shape"], resolve("ex8"))
    with pytest.raises(vf.CheckConfigError):
        vf.run_checks(["nosuch"], resolve("ex2"))


def test_an_empty_check_list_raises():
    # the CLI passes a string; a library caller may pass a list
    with pytest.raises(vf.CheckConfigError, match="no checks named"):
        vf.run_checks([], resolve("ex2"))


def test_grid_sizes_must_be_integers():
    # 11.5 used to run on 11 points and report "11x11"; numpy integers pass
    for nx, nt in ((11.5, 11), (11, 11.0)):
        with pytest.raises(vf.CheckConfigError, match=rf"nx = {nx!r}, nt = {nt!r}"):
            vf.run_checks(["zerocurv"], resolve("ex2"), nx, nt)
    rep = vf.run_checks(["zerocurv"], resolve("ex2"), np.int64(11), np.int32(5))
    assert rep.grid.startswith("11x5 ")


def test_tolerance_override_flips_outcome():
    rep = vf.run_checks(["zerocurv"], resolve("ex2"), tolerances={"zerocurv": 1e-30})
    assert not rep.passed
    with pytest.raises(vf.CheckConfigError):
        vf.run_checks(["zerocurv"], resolve("ex2"), tolerances={"bogus": 1.0})


def test_parametric_configuration():
    rep = vf.run_checks(
        ["zerocurv", "consistency"],
        resolve(family="spectral3", params=SolitonParams(1.5, 0.2, mu=2.0)),
        nx=11,
        nt=11,
    )
    assert rep.passed
    assert rep.surface.preset_id is None
    with pytest.raises(ValueError):
        resolve(family="spectral3")  # params missing


def test_report_json_schema():
    rep = vf.run_checks(["lax", "sphere"], resolve("ex2"), nx=11, nt=11)
    doc = json.loads(rep.to_json())
    assert doc["report_version"] == 1
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} == {"lax", "sphere"}
    for c in doc["checks"]:
        assert c["status"] == "pass"
        assert c["max_residual"] <= c["tolerance"]
        assert "grid" in c and "excluded" in c


def test_summary_lines_shape():
    rep = vf.run_checks(["zerocurv"], resolve("ex2"), nx=5, nt=5)
    lines = rep.summary_lines()
    assert len(lines) == 2
    assert lines[0].startswith("zerocurv")
    assert lines[-1] == "overall: pass"


def test_pass_iff_max_below_tolerance():
    rep = vf.run_checks(["forms"], resolve("ex5"), nx=15, nt=15)
    c = rep.checks[0]
    assert c.passed == (c.max_residual <= c.tolerance)
    assert np.isfinite(c.median_residual)
    assert c.median_residual <= c.max_residual


def test_fd_step_override_respected():
    a = vf.run_checks(["consistency"], resolve("ex2"), nx=7, nt=7, fd_step=1e-3)
    b = vf.run_checks(["consistency"], resolve("ex2"), nx=7, nt=7, fd_step=3e-3)
    assert a.checks[0].max_residual != b.checks[0].max_residual
    assert a.passed and b.passed


def test_shape_check_curvature_budget(monkeypatch):
    # the FD oracle evaluates each stencil point once, for all four energies
    # at a time, in one curvature call per stencil offset of a stack of flux
    # points (stacks of 4 + 2 at 41^2), and the Laplacian and the K-weighted
    # operator share one pass with one forms call per sign and stack; the
    # forms at the grid points serve both the pass and the near-singular
    # mask; a re-expanded stencil, a second pass, a call per point or a
    # second forms call shows here before it shows as time
    calls = {"three_param_curvatures_closed": 0, "three_param_forms_closed": 0}
    for name in calls:
        closed = getattr(immersion, name)

        def counted(*args, _name=name, _closed=closed):
            calls[_name] += 1
            return _closed(*args)

        monkeypatch.setattr(immersion, name, counted)
    rep = vf.run_checks(["shape"], resolve("ex2"), nx=41, nt=41)
    assert rep.passed
    assert 0 < calls["three_param_curvatures_closed"] <= 49
    assert 0 < calls["three_param_forms_closed"] <= 26


def test_shape_check_evaluates_one_curvature_field_for_both_signs(monkeypatch):
    # the surfaces at lam = +-k1/2 share their K and H, so the check makes
    # the curvature calls of one single-surface pass, half those of one
    # pass per sign: 18 for the stencil offsets of the one stack of six
    # flux points per pass at 41^2 (one tile), two for the flux geometry's
    # weight K, one per stack, and one on the grid
    calls = []
    closed = immersion.three_param_curvatures_closed

    def counted(j):
        calls.append(j.p.lam)
        return closed(j)

    monkeypatch.setattr(immersion, "three_param_curvatures_closed", counted)
    surface = resolve("ex2")
    assert vf.run_checks(["shape"], surface, nx=41, nt=41).passed
    in_check = len(calls)
    calls.clear()
    p = surface.params
    energy = lagrangian.constrained_family(3, None, 1.0, p.k1, p.mu)
    for sign in (1.0, -1.0):
        sp = SolitonParams(k1=p.k1, lam=sign * p.k1 / 2.0, mu=p.mu)
        shape_residuals(fields(immersion.SPECTRAL3, sp), (energy,),
                        *xi_grid(sp, 2.0, 41, 41))
    assert 2 * in_check == len(calls) == 42


def test_shape_check_energy_budget(monkeypatch):
    # at free = 0 the constrained families N = 3..6 are one energy on ex2,
    # so the check evaluates it, its dH and its dK once per point, not four
    # times over
    calls = 0
    evaluate = lagrangian.PolyLagrangian.eval

    def counted(self, h, k):
        nonlocal calls
        calls += 1
        return evaluate(self, h, k)

    monkeypatch.setattr(lagrangian.PolyLagrangian, "eval", counted)
    rep = vf.run_checks(["shape"], resolve("ex2"), nx=41, nt=41)
    assert rep.passed
    assert 0 < calls <= 582


def test_lax_check_time_factor_budget(monkeypatch):
    # Phi's t factors are formed once per row of equal t: on the 41^2 grid
    # (one tile of 41 rows) once for the grid and its x stencil, once for
    # each of the four shifted t stencils; a per-point evaluation would
    # see 5 x 1681 points
    seen = []
    time_factor = lax._time_factor

    def counted(t, p):
        seen.append(np.size(t))
        return time_factor(t, p)

    monkeypatch.setattr(lax, "_time_factor", counted)
    rep = vf.run_checks(["lax"], resolve("ex2"), nx=41, nt=41)
    assert rep.passed
    assert 0 < sum(seen) <= 5 * 41


def _scale_h(closed):
    def scaled(*args):
        cur = closed(*args)
        return CurvaturePair(K=cur.K, H=cur.H * (1.0 + 1e-6))

    return scaled


@pytest.mark.parametrize("preset, closed, checks", [
    ("ex2", "three_param_curvatures_closed", ("forms", "weingarten")),
    ("ex7", "four_param_curvatures_closed", ("forms",)),
])
def test_checks_read_the_exported_curvatures(monkeypatch, preset, closed, checks):
    # verify checks the closed forms that generate exports: a relative error
    # of 1e-6 in H fails every check that reads it
    surface = resolve(preset)
    assert vf.run_checks(list(checks), surface).passed
    monkeypatch.setattr(immersion, closed, _scale_h(getattr(immersion, closed)))
    rep = vf.run_checks(list(checks), surface)
    assert [c.status for c in rep.checks] == ["FAIL"] * len(checks)


def test_lax_check_evaluates_phi_once_per_stencil_point(monkeypatch):
    # eight for the Richardson stencils of Phi_x and Phi_t and one on the
    # grid, which serves both U Phi, V Phi and the det drift
    calls = []
    closed = lax.phi

    def counted(*args):
        calls.append(1)
        return closed(*args)

    monkeypatch.setattr(lax, "phi", counted)
    # and where verify would reach it directly, by its own import
    monkeypatch.setattr(vf, "phi", counted, raising=False)
    rep = vf.run_checks(["lax"], resolve("ex2"), nx=21, nt=21)
    assert rep.passed
    assert len(calls) == 9


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_willmore_runs_at_negative_k1(lam):
    # |lambda| = |k1|/2 holds with either sign of k1, and the Weingarten
    # check adds the quadratic there
    surface = resolve(family="spectral3", params=SolitonParams(-2.0, lam, mu=-8.0))
    assert vf.run_checks(["willmore"], surface).passed
    rep = vf.run_checks("all", surface, nx=21, nt=21)
    by_name = {c.name: c for c in rep.checks}
    assert rep.passed and by_name["willmore"].passed is True
    assert "quadratic" in by_name["weingarten"].note


def test_clipped_checks_label_the_window_sampled():
    clipped = ("lax", "compat", "sphere", "consistency")
    rep = vf.run_checks(clipped, resolve("ex2"), nx=5, nt=5)
    assert [c.grid for c in rep.checks] == ["5x5 on [-2,2]^2"] * 4
    narrow = resolve("ex2", x_range=(-1.0, 1.0), t_range=(-0.5, 0.5))
    rep = vf.run_checks(clipped, narrow, nx=5, nt=5)
    assert [c.grid for c in rep.checks] == ["5x5 on [-1,1]x[-0.5,0.5]"] * 4
    one_axis = resolve("ex2", x_range=(-1.0, 3.0))
    rep = vf.run_checks(["lax"], one_axis, nx=5, nt=5)
    assert rep.checks[0].grid == "5x5 on [-1,2]x[-2,2]"
    # a window that touches the square only at t = 2 skips the four checks
    # of the clipped sample, and its skips carry the window's label
    touching = resolve("ex2", t_range=(2.0, 4.0))
    rep = vf.run_checks("all", touching, nx=5, nt=5)
    skipped = [c for c in rep.checks if c.passed is None]
    assert [c.name for c in skipped] == list(clipped)
    assert {(c.grid, c.note) for c in skipped} == {
        ("5x5 on [-3,3]x[2,4]", "skipped: requires the t window to overlap (-2,2)")}


@pytest.mark.parametrize("argv, skipped", [
    # mu^6 overflows the shape energies: shape would sample the xi profile
    (["--k1", "2", "--lambda", "1", "--mu", "1e60"], {"shape": "5x5 with |xi|<2"}),
    # Phi's constants overflow: lax and consistency would sample the square
    (["--k1", "0.01", "--lambda", "-3", "--mu", "1"],
     {"lax": "5x5 on [-2,2]^2", "consistency": "5x5 on [-2,2]^2"}),
])
def test_a_check_skipped_by_the_surface_labels_its_own_sample(capsys, argv, skipped):
    code = main(["verify", "--family", "spectral3", *argv, "--nx", "5", "--nt", "5",
                 "--checks", "all", "--format", "json"])
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["name"]: c["grid"] for c in checks if c["status"] == "skip"
            and c["name"] in skipped} == skipped


def test_every_check_labels_its_sample():
    rep = vf.run_checks(vf.CHECK_NAMES, resolve("ex2"), nx=41, nt=41)
    window, clipped = "41x41 on [-3,3]x[-3,3]", "41x41 on [-2,2]^2"
    forms, operator = "41x41 with |xi|<2.95", "41x41 with |xi|<2"
    assert {c.name: c.grid for c in rep.checks} == {
        "zerocurv": window, "lax": clipped, "compat": clipped, "forms": forms,
        "weingarten": forms, "willmore": operator, "shape": operator, "sphere": clipped,
        "consistency": clipped}
    assert rep.grid == window


def test_xi_profile_label_says_when_the_window_does_not_contain_it():
    # ex2's xi is x + t, so on x in [5, 10], t in [-3, 3] it runs over [2, 13],
    # which contains neither profile; the label says so, and the samples and
    # their results are those of the default window
    profiles = ("forms", "weingarten", "willmore", "shape")
    far = vf.run_checks(profiles, resolve("ex2", x_range=(5.0, 10.0)), nx=5, nt=5)
    outside = ", not inside the window's xi range [2,13]"
    assert [c.grid for c in far.checks] == (["5x5 with |xi|<2.95" + outside] * 2
                                            + ["5x5 with |xi|<2" + outside] * 2)
    default = vf.run_checks(profiles, resolve("ex2"), nx=5, nt=5)
    assert [replace(c, grid="") for c in far.checks] == [
        replace(c, grid="") for c in default.checks]


def test_only_the_samples_build_grids():
    # each _CHECKS entry names its sample, and only the sample functions
    # call Surface.grid, xi_grid or np.meshgrid; a runner takes its (x, t)
    # from the sample's grid()
    samples = {"_window", "_clipped_window", "_xi_profile"}
    tree = ast.parse(open(vf.__file__).read())
    builders = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in samples:
            continue
        for n in ast.walk(fn):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            # grid() is the runner's sample, Surface.grid(nx, nt) a grid
            if name in ("xi_grid", "meshgrid", "clipped_grid") or (name == "grid" and n.args):
                builders.append((name, n.lineno))
    assert not builders, f"grids built outside the samples: {builders}"
    (table,) = [n for n in tree.body if isinstance(n, ast.AnnAssign)
                and getattr(n.target, "id", None) == "_CHECKS"]
    for entry in table.value.values:
        sample = entry.args[2]
        named = sample.func if isinstance(sample, ast.Call) else sample
        assert named.id in samples, ast.unparse(entry)
    assert all(c.sample.__qualname__.split(".")[0] in samples for c in vf._CHECKS.values())
    # the runners spell no label: the sample writes it
    runners = [fn for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_check_")]
    assert runners
    for fn in runners:
        body = fn.body[1:] if ast.get_docstring(fn) else fn.body
        texts = [n.value for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        assert not [v for v in texts if "|xi|" in v or "on [" in v], fn.name


def test_every_check_has_a_runner_looked_up_at_call_time(monkeypatch):
    # per-check timing wraps the entries of _RUNNERS, so each check has one
    # and run_checks calls whatever the entry holds when it runs
    assert set(vf._RUNNERS) == set(vf.CHECK_NAMES)
    assert vf._RUNNERS["weingarten"] is vf._check_weingarten
    calls = []
    for name in ("zerocurv", "weingarten"):
        runner = vf._RUNNERS[name]

        def counted(*args, _runner=runner, _name=name):
            calls.append(_name)
            return _runner(*args)

        monkeypatch.setitem(vf._RUNNERS, name, counted)
    rep = vf.run_checks(["zerocurv", "weingarten"], resolve("ex2"), nx=5, nt=5)
    assert calls == ["zerocurv", "weingarten"]
    assert [c.name for c in rep.checks] == calls


def test_only_run_checks_builds_a_report_row():
    # a runner returns what it measured; run_checks alone turns a run or a
    # skip into a CheckResult, and a sample says itself when it is empty
    tree = ast.parse(open(vf.__file__).read())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    builders = [fn.name for fn in functions.values() for n in ast.walk(fn)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "CheckResult"]
    assert builders == ["run_checks"]
    runners = [fn for name, fn in functions.items() if name.startswith("_check_")]
    assert len(runners) == len(vf.CHECK_NAMES)
    for fn in runners:
        params = [a.arg for a in fn.args.args]
        assert not {"cfg", "name", "tol"} & set(params), (fn.name, params)
    samples = {"_window", "_clipped_window", "_xi_profile", "sample"}
    compared = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
                and any(getattr(v, "id", getattr(v, "attr", None)) in samples
                        for v in (n.left, *n.comparators))]
    assert not compared, f"samples compared by identity at lines {compared}"


def test_check_names_are_written_only_in_the_table():
    # a check is declared by its one _CHECKS entry: no other line of the
    # module spells a check's name
    names = set(vf.CHECK_NAMES)
    tree = ast.parse(open(vf.__file__).read())
    (table,) = [n for n in tree.body if isinstance(n, ast.AnnAssign)
                and getattr(n.target, "id", None) == "_CHECKS"]
    in_table = [n.value for n in ast.walk(table) if isinstance(n, ast.Constant)]
    assert sorted(v for v in in_table if v in names) == sorted(names)
    elsewhere = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and n.value in names
                 and not table.lineno <= n.lineno <= table.end_lineno]
    assert not elsewhere, f"check names spelled at lines {elsewhere}"


def test_compat_tests_the_symmetry_frame_at_mu_zero(monkeypatch):
    # the spectral and symmetry frames are mu times a fixed frame, so at
    # mu = 0 both are tested at mu = 1: a symmetry frame with a 1% wrong
    # b_x fails the check there, not only at mu != 0
    from mkdvsurf import deformation

    surface = resolve(family="spectralgauge4", params=SolitonParams(2.0, 1.0, 0.0, nu=1.0))
    (check,) = vf.run_checks(["compat"], surface).checks
    assert check.passed and check.max_residual < 1e-12
    symmetry = deformation.symmetry_frame

    def wrong(j):
        frame = symmetry(j)
        return frame._replace(b_x=1.01 * frame.b_x)

    monkeypatch.setattr(deformation, "symmetry_frame", wrong)
    (check,) = vf.run_checks(["compat"], surface).checks
    assert check.passed is False


def test_every_residual_reduced_is_a_magnitude(monkeypatch):
    # _stats takes the max and median as given, and orders weighted values
    # by their bits, so every runner must pass entries >= 0 and never -0.0,
    # with a count >= 1 per value where it passes counts
    reduced = []
    stats = vf._stats

    def spy(res, counts=None):
        reduced.append(np.asarray(res))
        assert counts is None or (counts.size and np.min(counts) >= 1)
        return stats(res, counts)

    monkeypatch.setattr(vf, "_stats", spy)
    reports = [vf.run_checks("all", resolve(preset)) for preset in immersion.PRESETS]
    # every check that ran reduced through _stats, except shape, which
    # keeps the points away from near-singular forms
    ran = [c for rep in reports for c in rep.checks if c.passed is not None]
    assert len(reduced) == len([c for c in ran if c.name != "shape"]) > 40
    for res in reduced:
        assert not np.any(np.signbit(res))


def test_consistency_memory_grows_by_the_values_it_reports():
    # Per added grid point the check keeps the 48 B of its six residual
    # magnitudes, the grid's coordinates and one tile's work, which does not
    # grow: the traced peak may grow by at most 150 B per point from 101^2 to
    # 201^2.  Assembling the frame and FD tangents of the whole grid before
    # reducing costs about 290 B per point.
    surface = resolve("ex2")
    vf.run_checks(["consistency"], surface, 11, 11)
    peaks = {}
    for n in (101, 201):
        tracemalloc.start()
        try:
            vf.run_checks(["consistency"], surface, n, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_point = (peaks[201] - peaks[101]) / (201 ** 2 - 101 ** 2)
    assert per_point <= 150, f"{per_point:.0f} B per grid point"


# Surfaces on which the checks that run once per distinct xi must report
# what an evaluation at every point reports: every preset, spectral3 and
# spectralgauge4 surfaces whose xi repeat little, and a window off [-2,2]^2.
XI_INPUTS = [("--preset", pid, "--nx", n, "--nt", n)
             for pid in immersion.PRESETS for n in ("41", "101")]
XI_INPUTS += [
    ("--family", "spectral3", "--k1", "1.7", "--lambda", "0.3137", "--mu", "-2.2"),
    ("--family", "spectralgauge4", "--k1", "1.3", "--lambda", "0.2", "--mu", "0.7",
     "--nu", "-0.4"),
    ("--preset", "ex2", "--x-min", "-3", "--x-max", "1.5"),
]


def test_checks_run_once_per_distinct_xi_report_what_every_point_reports(
        monkeypatch, capsys):
    # the reports, and the bits of every multiset of residuals reduced (each
    # value taken as often as its count says, sorted): a max and a median
    # can agree where the multisets do not
    reduced = []
    stats = vf._stats

    def spy(res, counts=None):
        every = res if counts is None else np.repeat(res, counts, axis=0)
        bits = np.sort(np.ascontiguousarray(every).reshape(-1).view(np.uint64))
        reduced.append(hashlib.sha256(bits.tobytes()).hexdigest())
        return stats(res, counts)

    monkeypatch.setattr(vf, "_stats", spy)

    def reports():
        out = []
        for argv in XI_INPUTS:
            reduced.clear()
            code = main(["verify", *argv, "--checks", "all", "--format", "json"])
            out.append((argv, code, capsys.readouterr().out, list(reduced)))
        return out

    once = reports()
    # every point of the sample evaluated at (x, t), and gathered as it is
    def every_point(f, surface, grid, per_point=False):
        return tiled(lambda xx, tt: f(jet(xx, tt, surface.params)), *grid()), None

    monkeypatch.setattr(vf, "_by_xi", every_point)
    for got, want in zip(reports(), once):
        assert got == want, got[0]


@pytest.mark.parametrize("argv, check, points", [
    # ex2 has k1 = 2, so xi = x + t: its clipped 201^2 grid (40,401 points)
    # has 982 distinct xi, and its xi grid of |xi| < 2.95 has 420
    (("--preset", "ex2", "--nx", "201", "--nt", "201"), "compat", 982),
    (("--preset", "ex2", "--nx", "201", "--nt", "201"), "forms", 420),
    (("--preset", "ex4", "--nx", "101", "--nt", "101"), "compat", 3861),
    # fewer than two points per distinct xi: every point is evaluated, on
    # ex4's clipped 41^2 grid (1058 distinct xi of 1681) and on a spectral3
    # window where no xi repeats
    (("--preset", "ex4", "--nx", "41", "--nt", "41"), "compat", 1681),
    (("--family", "spectral3", "--k1", "1.7", "--lambda", "0.3137", "--mu", "-2.2"),
     "sphere", 1681),
    # zerocurv samples the whole window: ex2's [-3,3]^2 at 201^2 has 1260
    (("--preset", "ex2", "--nx", "201", "--nt", "201"), "zerocurv", 1260),
])
def test_checks_evaluate_the_soliton_once_per_distinct_xi(monkeypatch, capsys, argv, check,
                                                          points):
    # points of both jet constructors: at (x, t), and at distinct xi
    evaluated = []
    at_x_t, at_xi = vf.jet, vf.xi_jet

    def counted(x, t, p):
        evaluated.append(np.size(x))
        return at_x_t(x, t, p)

    def counted_xi(z, p):
        evaluated.append(np.size(z))
        return at_xi(z, p)

    monkeypatch.setattr(vf, "jet", counted)
    monkeypatch.setattr(vf, "xi_jet", counted_xi)
    assert main(["verify", *argv, "--checks", check]) == 0
    capsys.readouterr()
    assert sum(evaluated) == points


# Residual magnitudes as the runners pass them: +0.0 (74% of the compat and
# 79% of the zerocurv entries on the seven presets at 201^2), ties,
# subnormal to huge finite values, inf and NaN.
_MAGNITUDES = st.one_of(st.sampled_from([0.0, 1e-16, 2.5e-10, 1.0, math.inf, math.nan]),
                        st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_MAGNITUDES, st.integers(1, 5)), min_size=1, max_size=40),
       st.integers(1, 4))
@example([(0.0, 1)], 1)
@example([(0.0, 3), (1.0, 1)], 1)
@example([(0.0, 2), (1.0, 2), (2.0, 1)], 2)
@example([(math.nan, 1), (0.0, 4)], 1)
@example([(math.inf, 2), (1e300, 1), (1e300, 1)], 1)
def test_weighted_stats_are_the_stats_of_the_expanded_values(pairs, width):
    # each row of width entries taken counts times, as _by_xi hands them
    # over; rows of one entry are the plain 1-D case
    values = np.array([v for v, _ in pairs for _ in range(width)]).reshape(-1, width)
    counts = np.array([c for _, c in pairs])
    expanded = np.repeat(values, counts, axis=0)
    want = (float(np.max(expanded)), float(np.median(expanded)))
    for got in (vf._stats(values.copy(), counts), vf._stats(expanded.copy())):
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


# odd and even sizes, one and two entries, ties, and zeros of either sign
_MEDIAN_CASES = [
    [0.5], [0.25, 0.5], [0.5, 0.25, 0.5], [1.0, 3.0, 2.0, 0.5], [2.0, 2.0, 2.0, 2.0],
    [1.0, 0.0, 1.0, 0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [-0.0], [-0.0, -0.0],
    [0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, -0.0, 2.0],
] + [np.random.default_rng(n).choice([-0.0, 0.0, 0.5, 1.0, 3.0], n).tolist()
     for n in (7, 8, 64, 65)]


@pytest.mark.parametrize("values", _MEDIAN_CASES)
def test_unweighted_stats_are_numpy_max_and_median_bitwise(values):
    # one partition at the upper middle rank, and the lower middle as the
    # largest value below it, give np.median's bits, through _stats and
    # through _median, which the shape check calls alone
    v = np.array(values)
    want = np.array([np.max(v), np.median(v)]).view(np.uint64).tolist()
    for got in (vf._stats(v.copy()), (np.max(v), vf._median(v.copy()))):
        assert np.array(got).view(np.uint64).tolist() == want


def _traced_growth_per_point(check: str, preset: str = "ex2") -> float:
    """The growth of a check's traced peak per grid point from 101^2 to
    201^2 on a preset, ex2 by default."""
    surface = resolve(preset)
    vf.run_checks([check], surface, 11, 11)
    peaks = {}
    for n in (101, 201):
        tracemalloc.start()
        try:
            vf.run_checks([check], surface, n, n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peaks[201] - peaks[101]) / (201 ** 2 - 101 ** 2)


def test_forms_memory_keeps_only_what_it_reports_per_point():
    # The pole mask, the two normalisers and the statistics are taken over
    # the distinct xi with their counts, so per grid point the check keeps
    # only its sample while it takes the sample's xi: x, t and xi (24 B),
    # about 29 B per point in all.  Holding x and t through the search for
    # repeats, as well as xi, costs about 32 B, and gathering |dK|, |dH| and
    # the mask back per point, with each point's xi index and the kept
    # relative differences, about 51 B.
    per_point = _traced_growth_per_point("forms")
    assert per_point <= 30, f"{per_point:.0f} B per grid point"


@pytest.mark.parametrize("check, preset, bound", [
    pytest.param("compat", "ex2", 30, id="compat"),
    pytest.param("zerocurv", "ex2", 30, id="zerocurv"),
    pytest.param("weingarten", "ex2", 30, id="weingarten"),
    # ex4's window has 9,701 distinct xi of 40,401 at 201^2, against 1,260
    # on ex2, so its search for repeats holds more
    pytest.param("zerocurv", "ex4", 40, id="zerocurv-ex4"),
])
def test_checks_reduced_with_counts_keep_nothing_per_point(check, preset, bound):
    # As for forms: about 29 B per point on ex2, the sample and its xi, and
    # 31 B on ex4.  Holding x and t through the search for repeats costs
    # about 32 B on ex2 and 47 B on ex4; gathering the nine compat
    # magnitudes per point costs about 75 B, and zerocurv's three at every
    # point about 55 B.
    per_point = _traced_growth_per_point(check, preset)
    assert per_point <= bound, f"{per_point:.0f} B per grid point"
