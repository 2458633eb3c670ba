"""Grid meshes of the soliton surfaces and deterministic file export.

A mesh samples one immersion family on a rectangular (x, t) window, stores
positions with closed-form K and H per vertex, and flags vertices where the
curvature formulas genuinely blow up.  Exports are byte-deterministic: the
same mesh always serializes to the same OBJ, CSV, or JSON file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .immersion import Surface
from .soliton import check_grid, jet as soliton_jet, tiled

__all__ = [
    "SurfaceMesh",
    "generate",
    "export",
    "SINGULAR_RTOL",
]


# Vertices whose curvature denominator is below this fraction of its grid
# maximum are flagged singular (poles of H for spectral3, of K and H for
# spectralgauge4), as are any non-finite values.
SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class SurfaceMesh:
    """Sampled surface with per-vertex geometry, row-major in t then x.

    Vertex index v = it * nx + ix; all arrays share that flat ordering.
    """

    surface: Surface
    nx: int
    nt: int
    x: np.ndarray
    t: np.ndarray
    vertices: np.ndarray
    K: np.ndarray
    H: np.ndarray
    xi: np.ndarray
    singular: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.nx * self.nt

    def quads(self, cells: np.ndarray | None = None) -> np.ndarray:
        """1-based vertex quadruples (a, b, d, c), one row per grid cell.

        a-b is the +x edge of the lower t row, c-d the row above; the
        winding (a, b, d, c) keeps consecutive vertices edge-adjacent.
        ``cells`` picks the cells by their row-major index c = it * (nx - 1)
        + ix (default: all, in order); cell c's first corner is
        a = c + c // (nx - 1) + 1.
        """
        nx = self.nx
        if cells is None:
            cells = np.arange((nx - 1) * (self.nt - 1))
        a = cells + cells // (nx - 1) + 1
        return a[:, None] + np.array([0, 1, nx + 1, nx])


def generate(surface: Surface, nx: int = 101, nt: int = 101) -> SurfaceMesh:
    """Sample a surface (see :func:`immersion.resolve`) on an nx by nt grid
    over its window.

    Position, curvatures and denominator are evaluated in tiles
    (``soliton.tiled``); the singular threshold is taken over the whole grid.
    """
    check_grid(nx, nt)
    fam, params = surface.family, surface.params
    x, t = surface.grid(nx, nt)

    def pointwise(xx, tt):
        j = soliton_jet(xx, tt, params)
        cur = fam.curvatures(j)
        return fam.position(j), cur.K, cur.H, np.abs(fam.denominator(j)), j.xi

    y, k, h, den, xi = tiled(pointwise, x, t)
    with np.errstate(invalid="ignore"):
        bad = den <= SINGULAR_RTOL * np.max(den)
        bad |= ~np.isfinite(k) | ~np.isfinite(h)
        bad |= ~np.all(np.isfinite(y), axis=-1)

    flat = lambda a: np.asarray(a, dtype=float).reshape(-1)
    return SurfaceMesh(
        surface=surface,
        nx=nx,
        nt=nt,
        x=flat(x),
        t=flat(t),
        vertices=np.asarray(y, dtype=float).reshape(-1, 3),
        K=flat(k),
        H=flat(h),
        xi=flat(xi),
        singular=bad.reshape(-1),
    )


# Rows per %-format or join call, and per chunk of text an
# export writes.  A block's Python objects and its text are all that exists
# at once beside the mesh and the column tables of ``_column_texts``, and
# the per-call overhead is amortised over the block.
_BLOCK_ROWS = 4096

# The most distinct values a float column may have and still get one table
# of texts for the whole export: 2^16, so the table holds at most about
# 5 MB of str.  Every x, t, K, H and xi column of the presets up to 1001^2
# fits (the largest is ex4's xi at 1001^2, with 61,008 distinct values of
# 1,002,001); a column with more is deduped within each block instead.
_TABLE_MAX = 1 << 16

# text of a singular flag, indexed by the flag's byte
_FLAGS = np.array(["0", "1"], dtype=object)


def _blocks(arr: np.ndarray):
    """Consecutive slices of ``_BLOCK_ROWS`` rows of ``arr``."""
    return (arr[i:i + _BLOCK_ROWS] for i in range(0, len(arr), _BLOCK_ROWS))


def _rows(row_fmt: str, blocks):
    """The text of ``row_fmt`` applied to each row of a 2-D block, one
    chunk per block.  %.17g gives the digits of format(v, ".17g"): an exact
    float round trip."""
    for block in blocks:
        yield (row_fmt * len(block)) % tuple(block.reshape(-1).tolist())


def _format(fmt: str, values: np.ndarray, null: str | None) -> np.ndarray:
    """``fmt % v`` for each value, in one %-call, as an object array;
    non-finite values are written as ``null`` when it is given."""
    text = ((fmt + "\0") * len(values)) % tuple(values.tolist())
    text = np.array(text.split("\0")[:-1], dtype=object)
    if null is not None:
        text[~np.isfinite(values)] = null
    return text


def _column_texts(fmt: str, column: np.ndarray, null: str | None = None):
    """The texts of each block of a float column, ``fmt % v`` per value,
    with each distinct value formatted once.

    x and t take only nx and nt values on the grid, and K, H and xi are
    functions of xi alone, so most of their values repeat, and they repeat
    in every block.  Values are told apart by their bits: deduping by value
    would merge 0.0 with -0.0, which print differently.  A column whose
    values repeat, with at most ``_TABLE_MAX`` (2^16) distinct values and
    at most one per two rows, gets one table of texts for the whole column,
    at most about 5 MB, so each distinct value is formatted once per
    export.  Any other is deduped within each block, so that no more than a
    block's texts exist at once.  A column of nearly all distinct values,
    such as K, H and xi of spectral3 at k1 1.7, lambda 0.3137, mu -2.2
    (1.3 to 1.4 rows per distinct value at 201^2, against at least 2.6 in
    every column of the presets from 101^2 to 1001^2), formats each value
    at most 1.4 times in blocks: a table would save a quarter of that and
    hold seven to ten times a block's texts.  Each block finds its values'
    texts by binary search in the sorted distinct bits, so beyond a block
    the column costs only the one sorted copy of its bits that
    ``np.unique`` makes, and no index is held per row.  Nothing is computed
    before the first block is asked for.
    """
    bits = column.view(np.uint64)
    distinct = np.unique(bits)
    if len(distinct) <= min(_TABLE_MAX, len(column) // 2):
        text = _format(fmt, distinct.view(np.float64), null)
        for b in _blocks(bits):
            yield text[np.searchsorted(distinct, b)]
    else:
        for b in _blocks(bits):
            ids, at = np.unique(b, return_inverse=True)
            yield _format(fmt, ids.view(np.float64), null)[at]


def _obj_chunks(mesh: SurfaceMesh):
    ok = np.isfinite(mesh.vertices).all(axis=1)
    finite = ok.all()
    vertices = _blocks(mesh.vertices)
    if not finite:
        # a non-finite vertex is written as the placeholder "v 0 0 0", which
        # keeps indices stable; faces touching it are left out
        vertices = (np.where(np.isfinite(b).all(axis=1)[:, None], b, 0.0)
                    for b in vertices)
    yield from _rows("v %.17g %.17g %.17g\n", vertices)
    # each block's faces from its cell indices, so no face table is held
    cells = (mesh.nx - 1) * (mesh.nt - 1)
    faces = (mesh.quads(np.arange(i, min(i + _BLOCK_ROWS, cells)))
             for i in range(0, cells, _BLOCK_ROWS))
    if not finite:
        faces = (b[ok[b - 1].all(axis=1)] for b in faces)
    yield from _rows("f %d %d %d %d\n", faces)


def _csv_chunks(mesh: SurfaceMesh):
    # the position is nearly all distinct values, and is formatted per value
    x, t, k, h = (_column_texts("%.17g", a) for a in (mesh.x, mesh.t, mesh.K, mesh.H))
    blocks = (
        np.column_stack(cols)
        for cols in zip(x, t, _blocks(mesh.vertices), k, h,
                        (_FLAGS[f] for f in _blocks(mesh.singular.view(np.uint8))))
    )
    yield "x,t,y1,y2,y3,K,H,singular\n"
    yield from _rows("%s,%s,%.17g,%.17g,%.17g,%s,%s,%s\n", blocks)


_JSON_SEP = (",", ":")


def _json_list(parts):
    """JSON list of entries given as comma-separated texts, one chunk per
    part."""
    sep = "["
    for part in parts:
        yield sep + part
        sep = ","
    yield "]"


def _joined(texts):
    """The comma-separated text of each of an iterable of object arrays."""
    return (",".join(t.tolist()) for t in texts)


def _json_chunks(mesh: SurfaceMesh):
    # Key by key in sorted order, the bytes of json.dumps(doc, sort_keys=True,
    # separators=(",", ":")) without holding the arrays as Python floats.
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
    }
    # each value's chunks; the array generators compute nothing (no
    # np.unique of a column) until their key is written
    items = {key: [json.dumps(v, sort_keys=True, separators=_JSON_SEP)]
             for key, v in doc.items()}
    # %r is json.dumps' float text
    for key in ("x", "t", "K", "H", "xi"):
        items[key] = _json_list(_joined(_column_texts("%r", getattr(mesh, key), "null")))
    # each block's [y1,y2,y3] lists, without the trailing comma; %s of a
    # float is its repr, and a block holding a non-finite value is written
    # from its texts, with null for those values
    vertices = (b if np.isfinite(b).all()
                else _format("%r", b.reshape(-1), "null").reshape(b.shape)
                for b in _blocks(mesh.vertices))
    items["vertices"] = _json_list(
        rows[:-1] for rows in _rows("[%s,%s,%s],", vertices))
    items["singular"] = _json_list(
        _joined(_FLAGS[b] for b in _blocks(mesh.singular.view(np.uint8))))
    sep = "{"
    for key in sorted(items):
        yield sep + json.dumps(key) + ":"
        yield from items[key]
        sep = ","
    yield "}\n"


_WRITERS = {"obj": _obj_chunks, "csv": _csv_chunks, "json": _json_chunks}


def export(mesh: SurfaceMesh, fmt: str, out: str | Path) -> Path:
    """Write the mesh to ``out`` in one of the supported formats, one block
    of rows at a time, so that the whole text is never held; returns the
    path written.  A bad format or an empty mesh raises before ``out`` is
    opened."""
    if mesh.n_vertices == 0:
        raise ValueError("empty mesh")
    try:
        writer = _WRITERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; valid formats: {', '.join(sorted(_WRITERS))}"
        ) from None
    path = Path(out)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.writelines(writer(mesh))
    return path
