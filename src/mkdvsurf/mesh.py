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
from .soliton import check_grid, jet as soliton_jet

__all__ = [
    "SurfaceMesh",
    "generate",
    "export",
    "export_text",
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

    def quads(self):
        """1-based vertex quadruples (a, b, d, c) per grid cell.

        a-b is the +x edge of the lower t row, c-d the row above; the
        winding (a, b, d, c) keeps consecutive vertices edge-adjacent.
        """
        nx = self.nx
        for it in range(self.nt - 1):
            for ix in range(nx - 1):
                a = it * nx + ix + 1
                yield a, a + 1, a + nx + 1, a + nx


def generate(surface: Surface, nx: int = 101, nt: int = 101) -> SurfaceMesh:
    """Sample a surface (see :func:`immersion.resolve`) on an nx by nt grid
    over its window."""
    check_grid(nx, nt)
    fam, params = surface.family, surface.params
    x, t = surface.grid(nx, nt)

    y = fam.position(x, t, params)
    cur = fam.curvatures(x, t, params)
    sol = soliton_jet(x, t, params)
    den = np.abs(fam.denominator(sol.u, params))
    with np.errstate(invalid="ignore"):
        bad = den <= SINGULAR_RTOL * np.max(den)
        bad |= ~np.isfinite(cur.K) | ~np.isfinite(cur.H)
        bad |= ~np.all(np.isfinite(y), axis=-1)

    flat = lambda a: np.asarray(a, dtype=float).reshape(-1)
    return SurfaceMesh(
        surface=surface,
        nx=nx,
        nt=nt,
        x=flat(x),
        t=flat(t),
        vertices=np.asarray(y, dtype=float).reshape(-1, 3),
        K=flat(cur.K),
        H=flat(cur.H),
        xi=flat(sol.xi),
        singular=bad.reshape(-1),
    )


def _fmt(v: float) -> str:
    # 17 significant digits: exact float round trip
    return format(float(v), ".17g")


def _obj_text(mesh: SurfaceMesh) -> str:
    lines = []
    ok = np.ones(mesh.n_vertices, dtype=bool)
    for i in range(mesh.n_vertices):
        vx, vy, vz = mesh.vertices[i]
        if not (np.isfinite(vx) and np.isfinite(vy) and np.isfinite(vz)):
            # placeholder keeps indices stable; faces below skip this vertex
            lines.append("v 0 0 0")
            ok[i] = False
        else:
            lines.append(f"v {_fmt(vx)} {_fmt(vy)} {_fmt(vz)}")
    for a, b, d, c in mesh.quads():
        if ok[a - 1] and ok[b - 1] and ok[c - 1] and ok[d - 1]:
            lines.append(f"f {a} {b} {d} {c}")
    return "\n".join(lines) + "\n"


def _csv_text(mesh: SurfaceMesh) -> str:
    lines = ["x,t,y1,y2,y3,K,H,singular"]
    for i in range(mesh.n_vertices):
        vals = (
            mesh.x[i], mesh.t[i],
            mesh.vertices[i, 0], mesh.vertices[i, 1], mesh.vertices[i, 2],
            mesh.K[i], mesh.H[i],
        )
        lines.append(",".join(_fmt(v) for v in vals) + f",{int(mesh.singular[i])}")
    return "\n".join(lines) + "\n"


def _jsonable(arr) -> list:
    out = []
    for v in np.asarray(arr, dtype=float).reshape(-1):
        out.append(float(v) if np.isfinite(v) else None)
    return out


def _json_text(mesh: SurfaceMesh) -> str:
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
        "x": _jsonable(mesh.x),
        "t": _jsonable(mesh.t),
        "vertices": [
            _jsonable(mesh.vertices[i]) for i in range(mesh.n_vertices)
        ],
        "K": _jsonable(mesh.K),
        "H": _jsonable(mesh.H),
        "xi": _jsonable(mesh.xi),
        "singular": [int(s) for s in mesh.singular],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_WRITERS = {"obj": _obj_text, "csv": _csv_text, "json": _json_text}


def export_text(mesh: SurfaceMesh, fmt: str) -> str:
    """Serialize a mesh to one of the supported formats."""
    if mesh.n_vertices == 0:
        raise ValueError("empty mesh")
    try:
        writer = _WRITERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r}; valid formats: {', '.join(sorted(_WRITERS))}"
        ) from None
    return writer(mesh)


def export(mesh: SurfaceMesh, fmt: str, out: str | Path) -> Path:
    """Write the mesh to ``out``; returns the path written."""
    text = export_text(mesh, fmt)
    path = Path(out)
    path.write_text(text)
    return path
