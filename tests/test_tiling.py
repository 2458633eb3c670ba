"""Tiled evaluation (``soliton.tiled``): the same bytes at every tile size."""

import dataclasses
import hashlib

import numpy as np
import pytest

from mkdvsurf import immersion, soliton, su2, verify
from mkdvsurf.cli import main

PRESETS = list(immersion.PRESETS)
FRAME_CHECKS = ("zerocurv", "lax", "compat", "forms", "weingarten", "sphere", "consistency")
# The frame checks run on ex2 and ex7, and on a spectral3 surface whose xi
# seldom repeat: at 61x47 its xi grid has 146 distinct xi of 2867 points, so
# ``forms``, which evaluates once per distinct xi, evaluates the soliton in
# two small tiles.
SURFACES = {"ex2": ("--preset", "ex2"), "ex7": ("--preset", "ex7"),
            "spectral3": ("--family", "spectral3", "--k1", "1.7", "--lambda", "0.3137",
                          "--mu", "-2.2")}
# Odd, so that 41^2 = 1681 points are 14 tiles and 61*47 = 2867 points 23,
# each ending in a ragged tile.  Smaller tiles multiply the per-tile work of
# the shape check past the time this test may take.
SMALL_TILE = 127
WHOLE_GRID = 61 * 47
# The xi grid of ex2 and ex7 has 125 distinct xi at 61x47, one small tile:
# there only the search for the distinct xi runs in several (ex7 is no
# spectral3 surface, so its weingarten check does not run).
ONE_TILE_OF_XI = {("verify", "ex2", "forms"), ("verify", "ex7", "forms"),
                  ("verify", "ex2", "weingarten")}


def _outputs(capsys, monkeypatch, out_dir):
    """{operation: (exit code, stdout, stderr, file sha256, soliton
    evaluations, evaluations of xi in the search for the distinct xi)}."""
    evaluations = {"soliton": 0, "search": 0}
    xi, xi_jet = soliton.xi, soliton.xi_jet

    def counted(f, key):
        def counted_f(*args):
            evaluations[key] += 1
            return f(*args)
        return counted_f

    # soliton.jet evaluates through soliton.xi_jet, and verify holds its own name
    monkeypatch.setattr(soliton, "xi_jet", counted(xi_jet, "soliton"))
    monkeypatch.setattr(verify, "xi_jet", counted(xi_jet, "soliton"))
    monkeypatch.setattr(verify, "xi", counted(xi, "search"))
    runs = [("verify", p, "all", "41", "41") for p in PRESETS]
    runs += [("verify", s, c, "61", "47") for s in SURFACES for c in FRAME_CHECKS]
    runs += [("generate", p, fmt, "61", "47") for p in ("ex2", "ex4", "ex7")
             for fmt in ("obj", "csv", "json")]
    outputs = {}
    for command, pid, what, nx, nt in runs:
        argv = [command, *SURFACES.get(pid, ("--preset", pid)), "--nx", nx, "--nt", nt]
        out_file = out_dir / f"{pid}.{what}"
        if command == "verify":
            argv += ["--checks", what, "--format", "json"]
        else:
            argv += ["--format", what, "--out", str(out_file)]
        evaluations.update(soliton=0, search=0)
        code = main(argv)
        captured = capsys.readouterr()
        digest = (hashlib.sha256(out_file.read_bytes()).hexdigest()
                  if command == "generate" else None)
        outputs[(command, pid, what)] = (code, captured.out, captured.err, digest,
                                         evaluations["soliton"], evaluations["search"])
    monkeypatch.setattr(soliton, "xi_jet", xi_jet)
    monkeypatch.setattr(verify, "xi_jet", xi_jet)
    monkeypatch.setattr(verify, "xi", xi)
    return outputs


def test_every_tile_size_gives_the_same_reports_and_exports(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(soliton, "TILE_POINTS", WHOLE_GRID)
    whole = _outputs(capsys, monkeypatch, tmp_path)
    monkeypatch.setattr(soliton, "TILE_POINTS", SMALL_TILE)
    tiled = _outputs(capsys, monkeypatch, tmp_path)
    assert tiled.keys() == whole.keys()
    for key, (code, out, err, digest, n_soliton, n_search) in whole.items():
        assert tiled[key][:4] == (code, out, err, digest), key
        if code != 2:
            # the operation really ran in tiles: each evaluates the soliton
            # at least once more than the whole grid does, or, where its
            # distinct xi fit in one small tile, searches for them more often
            soliton_evals, search_evals = tiled[key][4:]
            if key in ONE_TILE_OF_XI:
                assert search_evals > n_search > 0, key
            else:
                assert soliton_evals > n_soliton, key
    # every preset and check ran, and every export was written
    assert all(o[0] in (0, 1) for k, o in whole.items() if k != ("verify", "ex7", "weingarten"))


def _consistency_frame(monkeypatch, surface, yx_entry, yt_entry, yx_defect, yt_defect):
    """Replace the frame tangents of the consistency check on the 8x8 grid of
    ``surface``: in the first row y_x has the entries ``yx_entry`` and y_t
    ``yt_entry``, 0.5 elsewhere, and in the last row y_x carries the trace
    defect ``yx_defect`` and y_t ``yt_defect``.  Returns the frame's last row."""
    x, t = surface.grid(8, 8)
    first, last = t.min(), t.max()

    def frame_tangents(j, frame):
        in_first = (j.t == first)[:, None]
        yx, yt = (su2.vec_to_su2(np.where(in_first, entry, 0.5) * np.ones(j.t.shape + (3,)))
                  for entry in (yx_entry, yt_entry))
        yx[j.t == last, 0, 0] += yx_defect * 1j
        yt[j.t == last, 0, 0] += yt_defect * 1j
        return yx, yt

    monkeypatch.setattr(immersion, "frame_tangents", frame_tangents)
    return frame_tangents(soliton.jet(x[-1], t[-1], surface.params), None)


def _consistency(monkeypatch, surface, tile):
    monkeypatch.setattr(soliton, "TILE_POINTS", tile)
    return verify.run_checks(["consistency"], surface, 8, 8, fd_step=1e-3)


WINDOW = {"x_range": (-2.0, 2.0), "t_range": (-2.0, 2.0)}


def test_the_su2_bound_of_the_frame_spans_all_tiles(monkeypatch):
    # Both tangents have entries of 1e6 in the first row of an 8x8 grid and a
    # trace defect of 1e-8 in the last.  The defect lies between
    # su2.SU2_ATOL = 1e-10 and SU2_ATOL * max|f| = 1.4e-4 over the grid, so the
    # frame is su(2); taken over the last tile alone the bound would be 1e-10
    # and reject it.
    surface = immersion.resolve("ex2", **WINDOW)
    defect_rows = _consistency_frame(monkeypatch, surface, 1e6, 1e6, 1e-8, 1e-8)
    for defect_row in defect_rows:
        with pytest.raises(ValueError, match="not su\\(2\\)"):
            su2.check_su2(*su2.su2_defects(defect_row))

    # the (trace defect, anti-Hermiticity defect, max|f|) that each su(2)
    # test of the consistency check decides on
    check_su2 = su2.check_su2
    tested = []

    def spy(*defects):
        tested.append(defects)
        return check_su2(*defects)

    monkeypatch.setattr(su2, "check_su2", spy)

    def consistency(tile):
        tested.clear()
        return _consistency(monkeypatch, surface, tile).checks, list(tested)

    whole = consistency(64)
    # once for y_x and once for y_t, each on the grid maxima
    f_max = np.max(np.abs(su2.vec_to_su2(np.full(3, 1e6))))
    assert [d[2] for d in whole[1]] == [f_max, f_max]
    assert [d[0] for d in whole[1]] == pytest.approx([1e-8, 1e-8])
    for tile in (5, 8):
        assert consistency(tile) == whole


@pytest.mark.parametrize("yx_entry, yt_entry, yx_defect, yt_defect", [
    (1e6, 1e6, 0.0, 1e-3),   # y_t above the grid-wide bound of 1.4e-4
    (1e6, 1e6, 1e-3, 0.0),   # y_x above the grid-wide bound of 1.4e-4
    (1e6, 1.0, 0.0, 1e-8),   # y_t above its own bound of 1e-10, below y_x's
    (1.0, 1e6, 1e-8, 0.0),   # y_x above its own bound of 1e-10, below y_t's
])
def test_a_defect_above_its_tangents_bound_is_rejected_at_every_tile_size(
        monkeypatch, capsys, yx_entry, yt_entry, yx_defect, yt_defect):
    # The bound of each tangent scales with that tangent's own largest entry
    # on the grid: where one tangent's entries are at most 1, its trace
    # defect is held to 1e-10 however large the other's entries are.
    surface = immersion.resolve("ex2", **WINDOW)
    _consistency_frame(monkeypatch, surface, yx_entry, yt_entry, yx_defect, yt_defect)
    defect = max(yx_defect, yt_defect)
    for tile in (5, 8, 64):
        with pytest.raises(ValueError, match=f"not su\\(2\\).*trace defect {defect:.3e}"):
            _consistency(monkeypatch, surface, tile)
        argv = ["verify", "--preset", "ex2", "--checks", "consistency", "--nx", "8",
                "--nt", "8", "--fd-step", "1e-3", "--x-min", "-2", "--x-max", "2",
                "--t-min", "-2", "--t-max", "2"]
        assert main(argv) == 2
        assert "not su(2)" in capsys.readouterr().err


def test_no_closed_form_call_of_the_operator_checks_holds_more_than_two_tiles(monkeypatch):
    # The divergence-form pass of ``shape`` and ``willmore`` evaluates the
    # curvatures and forms at all six flux offsets of its tile's points at
    # once, so the two runners take tiles of a third of TILE_POINTS: on
    # 201^2 points, more than one such tile, no call holds more than two
    # tiles' points, where whole tiles would give calls of six.
    sizes = []

    def spied(f):
        def counted(j):
            sizes.append(j.xi.size)
            return f(j)
        return counted

    family = dataclasses.replace(immersion.SPECTRAL3, forms=spied(immersion.SPECTRAL3.forms),
                                 curvatures=spied(immersion.SPECTRAL3.curvatures))
    monkeypatch.setattr(verify, "SPECTRAL3", family)
    surface = dataclasses.replace(immersion.resolve("ex2"), family=family)
    for check in ("shape", "willmore"):
        sizes.clear()
        report = verify.run_checks([check], surface, 201, 201)
        assert report.checks[0].passed is not None, check
        assert soliton.TILE_POINTS < max(sizes) <= 2 * soliton.TILE_POINTS, check
