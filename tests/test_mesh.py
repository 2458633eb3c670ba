"""Mesh sampling and the OBJ / CSV / JSON exporters."""

import dataclasses
import json
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mkdvsurf import mesh as ms
from mkdvsurf.immersion import DEFAULT_WINDOW, resolve
from mkdvsurf.soliton import XI_MAX, SolitonParams


def _exported(mesh, fmt) -> str:
    """The text ``ms.export`` writes, read back byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        return ms.export(mesh, fmt, Path(tmp) / f"mesh.{fmt}").read_bytes().decode()


def test_two_by_two_mesh():
    m = ms.generate(resolve("ex2"), nx=2, nt=2)
    assert m.n_vertices == 4
    assert m.quads().tolist() == [[1, 2, 4, 3]]
    obj = _exported(m, "obj")
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
    # a grid size that is not an integer is a ValueError naming it, whole
    # valued or not, not numpy's TypeError; a numpy integer is one
    for nx, nt in ((11.0, 11), (11, 11.5)):
        with pytest.raises(ValueError, match=rf"nx = {nx!r}, nt = {nt!r}: need integers"):
            ms.generate(resolve("ex2"), nx, nt)
    assert ms.generate(resolve("ex2"), np.int64(3), np.int32(3)).vertices.shape == (9, 3)
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
    text = _exported(m, "csv")
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
    row = _exported(m, "csv").strip().split("\n")[1].split(",")
    # 17 significant digits reproduce the double exactly
    assert float(row[2]) == m.vertices[0, 0]


def test_export_determinism():
    a = ms.generate(resolve("ex7"), nx=21, nt=21)
    b = ms.generate(resolve("ex7"), nx=21, nt=21)
    for fmt in ("obj", "csv", "json"):
        assert _exported(a, fmt) == _exported(b, fmt)


def test_json_schema():
    m = ms.generate(resolve("ex3"), nx=4, nt=3)
    doc = json.loads(_exported(m, "json"))
    assert doc["mesh_version"] == 1
    assert doc["family"] == "spectral3"
    assert doc["preset"] == "ex3"
    assert doc["nx"] == 4 and doc["nt"] == 3
    assert len(doc["vertices"]) == 12
    assert len(doc["singular"]) == 12
    assert doc["params"]["mu"] == -4.0


def _center_nan_mesh():
    m = ms.generate(resolve("ex2"), nx=3, nt=3)
    vertices = m.vertices.copy()
    vertices[4] = np.nan  # center vertex of the 3x3 grid
    return dataclasses.replace(m, vertices=vertices)


def test_obj_writes_every_vertex_and_face_as_given():
    # generate refuses a position that is not finite; export writes what it
    # is handed, a vertex as its text and every face
    lines = _exported(_center_nan_mesh(), "obj").splitlines()
    vertices = [line for line in lines if line.startswith("v ")]
    assert len(vertices) == 9 and vertices[4] == "v nan nan nan"
    assert [line for line in lines if line.startswith("f ")] == [
        "f 1 2 5 4", "f 2 3 6 5", "f 4 5 8 7", "f 5 6 9 8"]


def test_export_unknown_format(tmp_path):
    # rejected before the file is opened: a file already there keeps its bytes
    m = ms.generate(resolve("ex2"), nx=2, nt=2)
    path = tmp_path / "mesh.stl"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="unknown format"):
        ms.export(m, "stl", path)
    assert path.read_bytes() == b"kept"


def test_export_empty_mesh(tmp_path):
    m = dataclasses.replace(ms.generate(resolve("ex2"), nx=2, nt=2), nt=0)
    path = tmp_path / "mesh.obj"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="empty mesh"):
        ms.export(m, "obj", path)
    assert path.read_bytes() == b"kept"


def test_export_writes_file(tmp_path):
    # ex4 at 70 x 61 has 4270 vertices, more than one block; the bytes are
    # those of the scalar reference writers below, UTF-8 with "\n" line ends
    for m in (ms.generate(resolve("ex4"), nx=70, nt=61), _center_nan_mesh()):
        for fmt in ("obj", "csv", "json"):
            out = ms.export(m, fmt, tmp_path / f"mesh.{fmt}")
            assert out.read_bytes() == REFERENCE[fmt](m).encode(), fmt


def test_export_memory_does_not_grow_with_the_text(tmp_path):
    # An export holds one block's text at a time, beside the tables of texts
    # of its repeating columns (one distinct value per 2.6 to 201 rows here),
    # so its peak grows with the grid only by those tables and the sorted
    # copy of one column's bits that finds its distinct values, not by the
    # 88-146 B per vertex of the text; one whole-document copy would add at
    # least that much, and np.unique's int64 inverse indices some 33 B per
    # vertex while they are made.  The OBJ writer computes each block's
    # faces from its cell indices: a whole face table would add 32 B.
    for pid in ("ex4", "ex7"):
        meshes = {n: ms.generate(resolve(pid), nx=n, nt=n) for n in (101, 201)}
        for fmt in ("obj", "csv", "json"):
            peak = {}
            for n, m in meshes.items():
                tracemalloc.start()
                try:
                    ms.export(m, fmt, tmp_path / f"mesh.{fmt}")
                    peak[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            slope = (peak[201] - peak[101]) / (201 ** 2 - 101 ** 2)
            cap = 24 if fmt == "csv" else 8
            assert slope <= cap, f"{pid} {fmt}: {slope:.0f} B per vertex"


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


def test_window_up_to_xi_max_samples_without_overflow():
    # xi = x + t here: the corner (x_max, 3) sits just below XI_MAX, the
    # largest |xi| resolve admits, and the jet must not overflow there
    surf = resolve(family="spectral3", params=SolitonParams(2.0, 1.0, mu=-8.0),
                   x_range=(XI_MAX - 4.0, XI_MAX - 3.0 - 1e-9))
    m = ms.generate(surf, nx=5, nt=5)
    assert np.max(np.abs(m.xi)) > XI_MAX - 1e-6
    assert np.isfinite(m.vertices).all()


# Scalar reference writers: the per-value exporters the block writers
# replaced, kept as the oracle the block writers must match byte for byte.
def _ref_fmt(v) -> str:
    return format(float(v), ".17g")


def _ref_obj(mesh) -> str:
    lines = [f"v {_ref_fmt(vx)} {_ref_fmt(vy)} {_ref_fmt(vz)}" for vx, vy, vz in mesh.vertices]
    nx = mesh.nx
    for it in range(mesh.nt - 1):
        for ix in range(nx - 1):
            a = it * nx + ix + 1
            lines.append(f"f {a} {a + 1} {a + nx + 1} {a + nx}")
    return "\n".join(lines) + "\n"


def _ref_csv(mesh) -> str:
    lines = ["x,t,y1,y2,y3,K,H,singular"]
    for i in range(mesh.n_vertices):
        vals = (
            mesh.x[i], mesh.t[i],
            mesh.vertices[i, 0], mesh.vertices[i, 1], mesh.vertices[i, 2],
            mesh.K[i], mesh.H[i],
        )
        lines.append(",".join(_ref_fmt(v) for v in vals) + f",{int(mesh.singular[i])}")
    return "\n".join(lines) + "\n"


def _ref_jsonable(arr) -> list:
    return [float(v) if np.isfinite(v) else None
            for v in np.asarray(arr, dtype=float).reshape(-1)]


def _ref_json(mesh) -> str:
    surf = mesh.surface
    p = surf.params
    doc = {
        "mesh_version": 1,
        "family": surf.family.name,
        "preset": surf.preset_id,
        "params": {"k1": p.k1, "lambda": p.lam, "mu": p.mu, "nu": p.nu},
        "nx": mesh.nx,
        "nt": mesh.nt,
        "x_range": list(surf.x_range),
        "t_range": list(surf.t_range),
        "order": "row-major in t then x; vertex = it*nx + ix",
        "x": _ref_jsonable(mesh.x),
        "t": _ref_jsonable(mesh.t),
        "vertices": [_ref_jsonable(v) for v in mesh.vertices],
        "K": _ref_jsonable(mesh.K),
        "H": _ref_jsonable(mesh.H),
        "xi": _ref_jsonable(mesh.xi),
        "singular": [int(s) for s in mesh.singular],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


REFERENCE = {"obj": _ref_obj, "csv": _ref_csv, "json": _ref_json}

# values whose text the writers must get right: non-finite ones, NaNs with
# other payloads (one with the sign bit set), signed zero, the subnormal and
# overflow edges
NAN_PAYLOADS = list(np.array([0x7FF8000000000001, 0xFFF8000000000000],
                             dtype=np.uint64).view(np.float64))
SPECIALS = [np.nan, *NAN_PAYLOADS, np.inf, -np.inf, -0.0, 0.0, 5e-324,
            -1.7976931348623157e308, 1e16]
SPECIAL = st.sampled_from(SPECIALS)
FIELDS = st.sampled_from(["x", "t", "vertices", "K", "H", "xi", "singular"])


def _inject(mesh, edits):
    """Copy of ``mesh`` with ``edits`` [(field, row, value)] written in; a
    vertices edit sets the whole row when the value is not finite, one
    coordinate otherwise, and a singular edit flips the flag."""
    arrays = {f: getattr(mesh, f).copy()
              for f in ("x", "t", "vertices", "K", "H", "xi", "singular")}
    for field, row, value in edits:
        row %= mesh.n_vertices
        if field == "singular":
            arrays[field][row] = not arrays[field][row]
        elif field == "vertices":
            arrays[field][row, row % 3 if np.isfinite(value) else slice(None)] = value
        else:
            arrays[field][row] = value
    return dataclasses.replace(mesh, **arrays)


def _assert_matches_reference(mesh):
    for fmt, ref in REFERENCE.items():
        got, want = _exported(mesh, fmt), ref(mesh)
        if got != want:
            # pytest's own diff of two texts this long takes minutes
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                      min(len(got), len(want)))
            near = slice(max(at - 40, 0), at + 40)
            pytest.fail(f"{fmt} differs at char {at}: {got[near]!r} != {want[near]!r}")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["ex4", "ex7"]),
    st.integers(2, 13),
    st.integers(2, 13),
    st.lists(st.tuples(FIELDS, st.integers(0, 10**6), SPECIAL), max_size=12),
)
def test_writers_match_scalar_reference(pid, nx, nt, edits):
    _assert_matches_reference(_inject(ms.generate(resolve(pid), nx=nx, nt=nt), edits))


MULTI_BLOCK = {pid: ms.generate(resolve(pid), nx=101, nt=97) for pid in ("ex4", "ex7")}

# x, t, K, H and xi are formatted once per distinct bit pattern: 0.0 and
# -0.0 compare equal but print "0" and "-0", so a dedupe by value would
# write one of them wrongly.  Each special value sits at many rows of each
# field on both sides of both block boundaries.
_EDGE_ROWS = [r for edge in (ms._BLOCK_ROWS, 2 * ms._BLOCK_ROWS)
              for r in range(edge - 40, edge + 40)]
REPEATED_SPECIALS = [
    (field, row, SPECIALS[(row + shift) % len(SPECIALS)])
    for shift, field in enumerate(("x", "t", "K", "H", "xi")) for row in _EDGE_ROWS
]


@settings(max_examples=4, deadline=None)
@given(
    st.sampled_from(sorted(MULTI_BLOCK)),
    st.sampled_from(["x", "vertices", "K", "H", "xi"]),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
    st.lists(st.tuples(FIELDS, st.integers(0, 10**6), SPECIAL), max_size=6),
)
@example("ex4", "x", -0.0, REPEATED_SPECIALS)
def test_multi_block_writers_match_scalar_reference(pid, field, value, edits):
    # 101 x 97 = 9797 rows: two full blocks and a partial one; special values
    # sit on both sides of each block boundary
    mesh = MULTI_BLOCK[pid]
    block = ms._BLOCK_ROWS
    assert mesh.n_vertices > 2 * block and mesh.n_vertices % block
    # with the table bound lowered to a block's rows: on ex4, x, t and K have
    # no more distinct values than that and H and xi have more, so both the
    # table path and the direct path run
    ex4 = MULTI_BLOCK["ex4"]
    assert np.unique(ex4.K).size <= block < np.unique(ex4.H).size
    edge = [(field, row, value) for row in (block - 1, block, 2 * block - 1, 2 * block)]
    with mock.patch.object(ms, "_TABLE_MAX", block):
        _assert_matches_reference(_inject(mesh, edge + edits))


@pytest.mark.parametrize("pid", ["ex2", "ex4", "ex7"])
def test_table_bound_leaves_the_bytes_unchanged(pid):
    # every column of these exports repeats, with at most one distinct value
    # per two rows, and takes the table path; a bound of 0 puts every column
    # on the direct path, and the bytes are the same
    for n in (101, 201):
        mesh = ms.generate(resolve(pid), nx=n, nt=n)
        for key in ("x", "t", "K", "H", "xi"):
            count = np.unique(getattr(mesh, key).view(np.uint64)).size
            assert count <= min(ms._TABLE_MAX, mesh.n_vertices // 2), (n, key)
        for fmt in ("csv", "json"):
            want = _exported(mesh, fmt)
            with mock.patch.object(ms, "_TABLE_MAX", 0):
                # a bool, as pytest's diff of two texts this long takes minutes
                same = _exported(mesh, fmt) == want
            assert same, (n, fmt)


def test_each_distinct_value_is_formatted_once_per_export(monkeypatch):
    # ex4 at 201^2: x and t take 201 values each, and K, H and xi 2,157,
    # 6,423 and 9,701, all below the table bound, so each is formatted once
    # for the whole export and not once per block that holds it.  Both
    # writers format them with _float_text, which also formats the position
    # block by block (three values per row)
    mesh = ms.generate(resolve("ex4"), nx=201, nt=201)
    formatted = []
    float_text = ms._float_text

    def counted(values, *mode, **kw):
        formatted.append(values.size)
        return float_text(values, *mode, **kw)

    monkeypatch.setattr(ms, "_float_text", counted)
    positions = [3 * len(b) for b in ms._blocks(mesh.vertices)]
    _exported(mesh, "json")
    assert sorted(formatted) == sorted([201, 201, 2157, 6423, 9701, *positions])
    formatted.clear()
    _exported(mesh, "csv")
    assert sorted(formatted) == sorted([201, 201, 2157, 6423, *positions])


def test_a_column_that_does_not_repeat_is_formatted_per_block(monkeypatch):
    # spectral3 at k1 1.7, lambda 0.3137, mu -2.2 on 101^2: K, H and xi have
    # 7,342, 7,941 and 10,201 distinct values of 10,201, more than one per
    # two rows, so each is formatted directly: the values of each of its
    # three blocks as they stand, with no table.  x and t repeat, and each
    # gets one table of its distinct values in the order of their bits
    surface = resolve(family="spectral3", params=SolitonParams(1.7, 0.3137, mu=-2.2))
    mesh = ms.generate(surface, nx=101, nt=101)
    bits = lambda a: a.view(np.uint64).reshape(-1).tolist()
    table = lambda a: sorted(set(bits(a)))
    direct = lambda a: [bits(b) for b in ms._blocks(a)]
    formatted = []
    float_text = ms._float_text

    def counted(values, *mode, **kw):
        formatted.append(bits(values))
        return float_text(values, *mode, **kw)

    monkeypatch.setattr(ms, "_float_text", counted)
    _exported(mesh, "json")
    # the keys in sorted order: H, K, t, vertices, x, xi; the position is
    # formatted directly too
    assert formatted == [*direct(mesh.H), *direct(mesh.K), table(mesh.t),
                         *direct(mesh.vertices), table(mesh.x), *direct(mesh.xi)]
    formatted.clear()
    _exported(mesh, "csv")
    # x's and t's tables, then each block's position, K and H in turn
    want = [table(mesh.x), table(mesh.t)]
    for y, k, h in zip(*map(direct, (mesh.vertices, mesh.K, mesh.H))):
        want += [y, k, h]
    assert formatted == want


def _assert_g17_is_format(values):
    """``ms._float_text`` of each value is the text of format(v, ".17g")."""
    values = np.asarray(values, dtype=np.float64)
    got = [row.tobytes().replace(b"\0", b"").decode() for row in ms._float_text(values)]
    want = [format(v, ".17g") for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


# any float64 by its bits: NaN payloads, +-inf, +-0, subnormals, normals;
# and bit patterns whose exponent lies in or near the fast path's range
BITS = st.integers(0, 2 ** 64 - 1)
NEAR_FAST = st.builds(lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
                      st.integers(0, 1), st.integers(1023 - 40, 1023 + 56),
                      st.integers(0, 2 ** 52 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(BITS, NEAR_FAST), min_size=1, max_size=64))
def test_g17_is_format_17g_of_any_bit_pattern(patterns):
    _assert_g17_is_format(np.array(patterns, dtype=np.uint64).view(np.float64))


def _powers_of_ten():
    """10^e (0.0 below the subnormals) and its two neighbours, for e in
    -330 ... 308; the double nearest 10^e may lie on either side of it, and
    a few print as the next power of ten (1e-14, 1e+98)."""
    out = []
    for e in range(-330, 309):
        p = float(Fraction(10) ** e)
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    return out


def _ties():
    """Exact ties of the 17-digit rounding: M / 2^j = M 5^j / 10^j with M
    odd and M 5^j of 18 digits, ending in 5; from 1e-8 to 1e16."""
    out = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        mid = (lo + hi) // 2
        out += [m / 2 ** j for m in (lo, lo + 1, mid, mid + 1, hi - 2, hi - 1)
                if lo <= m < hi and m % 2]
    return out


# the edges of the fast path, 1e-11 <= |v| < 1e16, and the values where
# |v| 10^(16 - E) stops needing a division (2^52, 2^53)
FAST_EDGES = [v for x in (1e-11, 1e16, 2.0 ** 52, 2.0 ** 53, 9999999999999998.0)
              for v in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))]


@pytest.mark.parametrize("edges", [_powers_of_ten(), _ties(), FAST_EDGES])
def test_g17_is_format_17g_at_the_edges(edges):
    _assert_g17_is_format(edges + [-v for v in edges])


def test_g17_known_texts():
    text = [row.tobytes().replace(b"\0", b"").decode()
            for row in ms._float_text(np.array([1e-7, 1e-6, 1235 / 2 ** 20, 1e-14, 1e16, -0.0]))]
    assert text == ["9.9999999999999995e-08", "9.9999999999999995e-07",
                    "0.0011777877807617188", "1e-14", "10000000000000000", "-0"]
    assert len(_ties()) > 50


def test_g17_fast_path_formats_nearly_every_position(monkeypatch):
    # ex4 has the most position values outside the fast path of the presets:
    # 861 of 121,203 at 201^2, values below 1e-11 and one -0.0; the budget
    # fails a fast path that stops taking values it covers
    mesh = ms.generate(resolve("ex4"), nx=201, nt=201)
    slow = []

    def counted(value, spec):
        slow.append(value)
        return format(value, spec)

    monkeypatch.setattr(ms, "format", counted, raising=False)
    ms._float_text(mesh.vertices)
    assert 0 < len(slow) <= 0.01 * mesh.vertices.size


def _assert_repr_mode_is_json(values):
    """``ms._float_text`` in its repr mode gives repr(v) for each finite
    value and null for inf and NaN: json.dumps' text of a float."""
    values = np.asarray(values, dtype=np.float64)
    got = [row.tobytes().replace(b"\0", b"").decode()
           for row in ms._float_text(values, shortest=True)]
    want = [repr(v) if np.isfinite(v) else "null" for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(BITS, NEAR_FAST), min_size=1, max_size=64))
def test_repr_mode_is_repr_of_any_bit_pattern(patterns):
    _assert_repr_mode_is_json(np.array(patterns, dtype=np.uint64).view(np.float64))


def _powers_of_two():
    """2^e for every double exponent, and its two neighbours: an exact power
    of two has a lopsided rounding interval and goes to Python."""
    out = []
    for e in range(-1074, 1024):
        p = 2.0 ** e
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    return out


def _integers():
    """Integer-valued doubles, which repr writes with ".0": small ones, the
    powers of ten and their neighbours, and the largest below 1e16."""
    out = list(range(1, 1001))
    for j in range(1, 17):
        out += [10 ** j - 1, 10 ** j, 10 ** j + 1, 5 * 10 ** (j - 1)]
    out += [2 ** 53 + i for i in range(-64, 64)]
    out += [9999999999999998 - 2 * i for i in range(64)]
    return [float(v) for v in out]


@pytest.mark.parametrize("values", [_powers_of_ten(), _powers_of_two(), _integers(),
                                    _ties(), FAST_EDGES])
def test_repr_mode_is_repr_at_the_edges(values):
    _assert_repr_mode_is_json(values + [-v for v in values])


def test_repr_mode_known_texts():
    values = [1e-4, 1e-5, 1.2e-4, 1.2e-5, 9.9999e-5, 1e-6, 1e-7, 3.0, 0.1 + 0.2,
              9999999999999998.0, 1e16, -0.0, 0.0, np.inf, -np.inf, np.nan]
    text = [row.tobytes().replace(b"\0", b"").decode()
            for row in ms._float_text(np.array(values), shortest=True)]
    # the switch to the exponent at 1e-5, a rounding carry that moves the
    # exponent (1e-6 is 9.9999999999999995e-07 to 17 digits), ".0" on an
    # integer value, and null for inf and NaN
    assert text == ["0.0001", "1e-05", "0.00012", "1.2e-05", "9.9999e-05", "1e-06",
                    "1e-07", "3.0", "0.30000000000000004", "9999999999999998.0", "1e+16",
                    "-0.0", "0.0", "null", "null", "null"]


def test_repr_mode_formats_nearly_every_json_value(monkeypatch):
    # Python formats only the values outside the fast range and the exact
    # powers of two: at most 1% of each JSON export's floats
    slow = []

    def counted(value):
        slow.append(value)
        return repr(value)

    monkeypatch.setattr(ms, "repr", counted, raising=False)
    for pid in ("ex4", "ex7"):
        mesh = ms.generate(resolve(pid), nx=201, nt=201)
        slow.clear()
        _exported(mesh, "json")
        floats = 5 * mesh.n_vertices + mesh.vertices.size
        assert len(slow) <= 0.01 * floats, (pid, len(slow))
        for v in slow:
            assert not 1e-11 <= abs(v) < 1e16 or abs(np.frexp(v)[0]) == 0.5, v


def test_int_text_writes_every_digit_count():
    values = np.array([[1, 9, 10, 99], [100, 4270, 1002001, 9999999]])
    text = ms._int_text(values, 7)
    assert text.shape == (2, 4, 7)
    got = [row.tobytes().replace(b"\0", b"").decode() for row in text.reshape(-1, 7)]
    assert got == [str(v) for v in values.reshape(-1).tolist()]
