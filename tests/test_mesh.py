"""Mesh sampling and the OBJ / CSV / JSON exporters."""

import dataclasses
import json

import numpy as np
import pytest

from mkdvsurf import mesh as ms
from mkdvsurf.immersion import DEFAULT_WINDOW, resolve
from mkdvsurf.soliton import SolitonParams


def test_two_by_two_mesh():
    m = ms.generate(resolve("ex2"), nx=2, nt=2)
    assert m.n_vertices == 4
    assert list(m.quads()) == [(1, 2, 4, 3)]
    obj = ms.export_text(m, "obj")
    lines = obj.strip().split("\n")
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert lines[-1] == "f 1 2 4 3"


def test_grid_ordering_row_major_in_t():
    m = ms.generate(resolve("ex2"), nx=3, nt=2)
    # vertex = it * nx + ix: first row has constant t, varying x
    assert m.t[0] == m.t[1] == m.t[2]
    assert m.x[0] < m.x[1] < m.x[2]
    assert m.t[3] > m.t[0]


def test_generate_validation():
    with pytest.raises(ValueError):
        resolve("ex99")
    with pytest.raises(ValueError):
        ms.generate(resolve("ex2"), nx=1)
    # a parametric run without a window samples DEFAULT_WINDOW
    surf = resolve(family="spectral3", params=SolitonParams(2.0, mu=1.0))
    m = ms.generate(surf, nx=3, nt=3)
    assert (m.surface.x_range, m.surface.t_range) == (DEFAULT_WINDOW, DEFAULT_WINDOW)
    with pytest.raises(ValueError):
        resolve(
            family="spectral3",
            params=SolitonParams(2.0, mu=1.0),
            x_range=(1.0, -1.0),
            t_range=(-1.0, 1.0),
        )
    with pytest.raises(ValueError):
        resolve(
            family="nosuch",
            params=SolitonParams(2.0, mu=1.0),
            x_range=(-1, 1),
            t_range=(-1, 1),
        )


def test_window_override():
    m = ms.generate(resolve("ex2", x_range=(-1.0, 1.0)), nx=11, nt=5)
    assert m.surface.x_range == (-1.0, 1.0)
    assert m.surface.t_range == (-3.0, 3.0)
    assert m.x.min() == -1.0 and m.x.max() == 1.0


def test_csv_roundtrip():
    m = ms.generate(resolve("ex6"), nx=7, nt=5)
    text = ms.export_text(m, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "x,t,y1,y2,y3,K,H,singular"
    assert len(lines) == 1 + m.n_vertices
    for i in (0, 17, m.n_vertices - 1):
        cells = lines[1 + i].split(",")
        assert float(cells[0]) == pytest.approx(m.x[i], abs=1e-12)
        assert float(cells[2]) == pytest.approx(m.vertices[i, 0], rel=1e-15)
        assert float(cells[5]) == pytest.approx(m.K[i], rel=1e-15)
        assert int(cells[7]) == int(m.singular[i])


def test_csv_precision_fifteen_digits():
    m = ms.generate(resolve("ex4"), nx=3, nt=3)
    row = ms.export_text(m, "csv").strip().split("\n")[1].split(",")
    # 17 significant digits reproduce the double exactly
    assert float(row[2]) == m.vertices[0, 0]


def test_export_determinism():
    a = ms.generate(resolve("ex7"), nx=21, nt=21)
    b = ms.generate(resolve("ex7"), nx=21, nt=21)
    for fmt in ("obj", "csv", "json"):
        assert ms.export_text(a, fmt) == ms.export_text(b, fmt)


def test_json_schema():
    m = ms.generate(resolve("ex3"), nx=4, nt=3)
    doc = json.loads(ms.export_text(m, "json"))
    assert doc["mesh_version"] == 1
    assert doc["family"] == "spectral3"
    assert doc["preset"] == "ex3"
    assert doc["nx"] == 4 and doc["nt"] == 3
    assert len(doc["vertices"]) == 12
    assert len(doc["singular"]) == 12
    assert doc["params"]["mu"] == -4.0


def test_obj_skips_faces_touching_nonfinite_vertices():
    m = ms.generate(resolve("ex2"), nx=3, nt=3)
    vertices = m.vertices.copy()
    vertices[4] = np.nan  # center vertex of the 3x3 grid
    broken = dataclasses.replace(m, vertices=vertices)
    obj = ms.export_text(broken, "obj")
    assert "nan" not in obj.lower()
    assert obj.count("\nf ") == 0  # every quad touches the center vertex
    assert "v 0 0 0" in obj


def test_export_unknown_format():
    m = ms.generate(resolve("ex2"), nx=2, nt=2)
    with pytest.raises(ValueError):
        ms.export_text(m, "stl")


def test_export_writes_file(tmp_path):
    m = ms.generate(resolve("ex2"), nx=4, nt=4)
    out = ms.export(m, "obj", tmp_path / "mesh.obj")
    assert out.read_text() == ms.export_text(m, "obj")


def test_parametric_generate():
    m = ms.generate(
        resolve(
            family="spectralgauge4",
            params=SolitonParams(2.0, 0.0, mu=-4.0, nu=1.0),
            x_range=(-4.0, 4.0),
            t_range=(-4.0, 4.0),
        ),
        nx=9,
        nt=9,
    )
    ref = ms.generate(resolve("ex6"), nx=9, nt=9)
    assert np.allclose(m.vertices, ref.vertices)
    assert m.surface.preset_id is None


def test_singular_flagging_far_tail():
    # very wide window: the H pole u -> 0 is approached and flagged
    m = ms.generate(
        resolve(
            family="spectral3",
            params=SolitonParams(3.0, 0.1, mu=1.0),
            x_range=(-40.0, 40.0),
            t_range=(-1.0, 1.0),
        ),
        nx=41,
        nt=3,
    )
    assert m.singular.any()
    assert np.isfinite(m.vertices).all()
