"""Tiled evaluation (``soliton.tiled``): the same bytes at every tile size."""

import hashlib

import numpy as np
import pytest

from mkdvsurf import immersion, soliton, su2, verify
from mkdvsurf.cli import main

PRESETS = list(immersion.PRESETS)
FRAME_CHECKS = ("zerocurv", "lax", "compat", "forms", "weingarten", "sphere", "consistency")
# Odd, so that 41^2 = 1681 points are 14 tiles and 61*47 = 2867 points 23,
# each ending in a ragged tile.  Smaller tiles multiply the per-tile work of
# the shape check past the time this test may take.
SMALL_TILE = 127
WHOLE_GRID = 61 * 47


def _outputs(capsys, monkeypatch, out_dir):
    """{operation: (exit code, stdout, stderr, file sha256, soliton evaluations)}."""
    evaluations = []
    xi = soliton.xi

    def counted_xi(*args):
        evaluations.append(1)
        return xi(*args)

    monkeypatch.setattr(soliton, "xi", counted_xi)
    runs = [("verify", p, "all", "41", "41") for p in PRESETS]
    runs += [("verify", p, c, "61", "47") for p in ("ex2", "ex7") for c in FRAME_CHECKS]
    runs += [("generate", p, fmt, "61", "47") for p in ("ex2", "ex4", "ex7")
             for fmt in ("obj", "csv", "json")]
    outputs = {}
    for command, pid, what, nx, nt in runs:
        argv = [command, "--preset", pid, "--nx", nx, "--nt", nt]
        out_file = out_dir / f"{pid}.{what}"
        if command == "verify":
            argv += ["--checks", what, "--format", "json"]
        else:
            argv += ["--format", what, "--out", str(out_file)]
        evaluations.clear()
        code = main(argv)
        captured = capsys.readouterr()
        digest = (hashlib.sha256(out_file.read_bytes()).hexdigest()
                  if command == "generate" else None)
        outputs[(command, pid, what)] = (code, captured.out, captured.err, digest,
                                         len(evaluations))
    monkeypatch.setattr(soliton, "xi", xi)
    return outputs


def test_every_tile_size_gives_the_same_reports_and_exports(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(soliton, "TILE_POINTS", WHOLE_GRID)
    whole = _outputs(capsys, monkeypatch, tmp_path)
    monkeypatch.setattr(soliton, "TILE_POINTS", SMALL_TILE)
    tiled = _outputs(capsys, monkeypatch, tmp_path)
    assert tiled.keys() == whole.keys()
    for key, (code, out, err, digest, n_whole) in whole.items():
        assert tiled[key][:4] == (code, out, err, digest), key
        if code != 2:
            # the operation really ran in tiles: each evaluates the soliton
            # at least once more than the whole grid does
            assert tiled[key][4] > n_whole, key
    # every preset and check ran, and every export was written
    assert all(o[0] in (0, 1) for k, o in whole.items() if k != ("verify", "ex7", "weingarten"))


def test_the_su2_bound_of_the_frame_spans_all_tiles(monkeypatch):
    # The frame's entries of 1e6 sit in the first row of an 8x8 grid and a
    # trace defect of 1e-8 in the last.  The defect lies between
    # su2.SU2_ATOL = 1e-10 and SU2_ATOL * max|f| = 1e-4 over the grid, so the
    # frame is su(2); taken over the last tile alone the bound would be 1e-10
    # and reject it.
    surface = immersion.resolve("ex2", x_range=(-2.0, 2.0), t_range=(-2.0, 2.0))
    x, t = surface.grid(8, 8)
    first, last = t.min(), t.max()

    def frame_tangents(j, kind):
        tt = j.t
        v = np.where((tt == first)[:, None], 1e6, 0.5) * np.ones(tt.shape + (3,))
        f = su2.vec_to_su2(v)
        f[tt == last, 0, 0] += 1e-8j
        return f, f.copy()

    monkeypatch.setattr(immersion, "frame_tangents", frame_tangents)
    defect_row = frame_tangents(soliton.jet(x[-1], t[-1], surface.params), None)[0]
    with pytest.raises(ValueError, match="not su\\(2\\)"):
        su2.su2_to_vec(defect_row)

    # each su2_to_vec call of the consistency check: (input, output) bytes
    to_vec = su2.su2_to_vec
    calls = []

    def spy(f):
        v = to_vec(f)
        calls.append((f.shape, f.tobytes(), v.shape, v.tobytes()))
        return v

    monkeypatch.setattr(su2, "su2_to_vec", spy)

    def consistency(tile):
        monkeypatch.setattr(soliton, "TILE_POINTS", tile)
        calls.clear()
        report = verify.run_checks(["consistency"], surface, 8, 8, fd_step=1e-3)
        return report.checks, list(calls)

    whole = consistency(x.size)
    # once for y_x and once for y_t, each on the whole 8x8 grid
    assert [c[0] for c in whole[1]] == [(8, 8, 2, 2)] * 2
    for tile in (5, 8):
        assert consistency(tile) == whole
