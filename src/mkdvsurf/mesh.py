"""Grid meshes of the soliton surfaces and deterministic file export.

A mesh samples one immersion family on a rectangular (x, t) window, stores
finite positions with closed-form K and H per vertex, and flags vertices
where the curvature formulas genuinely blow up.  Exports are
byte-deterministic: the same mesh always serializes to the same OBJ, CSV,
or JSON file.  Their float text comes from ``_float_text``, an exact numpy
formatter for 1e-11 <= |v| < 1e16 that leaves every other value to Python:
%.17g for OBJ and CSV, and Python's shortest repr for JSON.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .immersion import Surface
from .soliton import check_grid, jet as soliton_jet, repeats, tiled

__all__ = [
    "SurfaceMesh",
    "generate",
    "export",
    "FORMATS",
    "SINGULAR_RTOL",
]


# Vertices whose curvature denominator is below this fraction of its grid
# maximum are flagged singular (poles of H for spectral3, of K and H for
# spectralgauge4), as are vertices whose K or H is not finite.
SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class SurfaceMesh:
    """Sampled surface with per-vertex geometry, row-major in t then x.

    Vertex index v = it * nx + ix; all arrays share that flat ordering.
    ``generate``'s vertices are finite.
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
    A position that is not finite raises ValueError.
    """
    check_grid(nx, nt)
    fam, params = surface.family, surface.params
    x, t = surface.grid(nx, nt)

    def pointwise(xx, tt):
        j = soliton_jet(xx, tt, params)
        cur = fam.curvatures(j)
        return fam.position(j), cur.K, cur.H, np.abs(fam.denominator(j)), j.xi

    with np.errstate(over="ignore", invalid="ignore"):
        y, k, h, den, xi = tiled(pointwise, x, t)
        bad = den <= SINGULAR_RTOL * np.max(den)
        bad |= ~np.isfinite(k) | ~np.isfinite(h)
    # the closed-form position has no poles, so a position that is not
    # finite has overflowed, and no vertex of it could be written
    lost = np.count_nonzero(~np.isfinite(y).all(axis=-1))
    if lost:
        p, (x0, x1), (t0, t1) = params, surface.x_range, surface.t_range
        raise ValueError(f"{fam.name} k1 = {p.k1:g}, lambda = {p.lam:g}, mu = {p.mu:g}, "
                         f"nu = {p.nu:g} on [{x0:g},{x1:g}]x[{t0:g},{t1:g}]: the position "
                         f"overflows at {lost} of {nx * nt} vertices")

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


# Rows per block: each block is one chunk of text an export writes.  A
# block's arrays, Python objects and text are all that exists at once beside
# the mesh and the column tables of ``_column_texts``, and the per-call
# overhead is amortised over the block.
_BLOCK_ROWS = 4096

# The most distinct values a float column may have and still get one table
# of texts for the whole export: 2^16, so the table holds at most 2.8 MB of
# ``_float_text`` rows.  Every x, t, K, H and xi column of the presets up to
# 1001^2 fits (the largest is ex4's xi at 1001^2, with 61,008 distinct
# values of 1,002,001); a column with more is formatted directly, block by
# block.
_TABLE_MAX = 1 << 16


def _blocks(arr: np.ndarray):
    """Consecutive slices of ``_BLOCK_ROWS`` rows of ``arr``."""
    return (arr[i:i + _BLOCK_ROWS] for i in range(0, len(arr), _BLOCK_ROWS))


# Float text with numpy (``_float_text``), in two modes: format(v, ".17g")
# for OBJ and CSV, and repr(v), the shortest text that reads back as v, for
# JSON.  A value v with 1e-11 <= |v| < 1e16 is v = m 2^q with a 53-bit m;
# with E = floor(log10 |v|) and k = 16 - E in [1, 27], X = |v| 10^k =
# m 5^k / 2^s is exact in two 64-bit words (m 5^k < 2^116), and its 17
# significant digits are D17 = round(X), rounded half to even.
#
# repr writes the fewest digits that read back as v (Steele and White 1990;
# Python's repr is Gay's correctly rounded conversion): the nearest decimal
# with the fewest digits that lies in v's rounding interval, of half-width
# h = 2^(q - 1) 10^k in units of X.  No decimal of 16 or fewer digits lies
# on an end, a midpoint between v and a neighbour: such a midpoint is
# (2m + 1) 2^(q - 1), with 17 or more significant digits when q <= 0, and an
# odd integer when q >= 1, where the candidates are v itself and multiples
# of 10.
# One ulp of v is 1.1 to 22.2 units of X, so at most one 15-digit decimal
# lies in the interval and a 17-digit one always does: testing
# D15 = round(X / 100) and then D16 = round(X / 10) is enough, and a shorter
# text is D15 with its trailing zeros stripped.
#
# Every other value is formatted by Python, one value at a time: zeros,
# smaller or larger magnitudes, subnormals, inf and NaN, and for repr the
# exact powers of two, whose interval is lopsided (h / 2 below v).
def _ceil_pow10(e: int) -> float:
    """The least double >= 10^e."""
    f = float(f"1e{e}")                 # correctly rounded
    num, den = f.as_integer_ratio()
    below = num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)
    return float(np.nextafter(f, np.inf)) if below else f


# _TENS[i] is the least double >= 10^(i - 11), for E = i - 11 in [-11, 16]:
# |v| >= 10^E exactly when |v| >= _TENS[E + 11], so a binary search in it
# gives E with no rounding.
_TENS = np.array([_ceil_pow10(e) for e in range(-11, 17)])
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_U = np.uint64
# the bits of 1.5, which stands in for each value Python formats: it is in
# the fast range and not a power of two
_STANDIN = np.float64(1.5).view(_U)

# The slots of a value's text, 43 bytes: a sign, the "0." and up to three
# zeros of 1e-4 <= |v| < 0.1, the digits d0 ... d16 at 6, 8, ..., 38 with a
# "." slot after each of d0 ... d15, and the "e-XX" exponent of the
# exponential form (in this range only 1e-11 <= |v| < 1e-4 takes it).
_SLOTS = np.frombuffer(b"-0.000" + b"0." * 16 + b"0" + b"e-00", np.uint8)
_WIDTH = len(_SLOTS)


@functools.cache
def _templates(shortest: bool) -> np.ndarray:
    """One row of slots per (sign, E + 11, significant digits - 1) for E in
    [-11, 15]: the text of a value of that class whose digits are all 0,
    with NUL in each slot the class leaves out.  Both modes write
    positionally for -4 <= E < 16 and as d.ddde-XX below, with trailing
    zeros of the fraction and a bare point stripped; repr writes an
    integer-valued v with ".0"."""
    out = np.zeros((2, len(_TENS) - 1, 17, _WIDTH), np.uint8)
    for neg, e, n in np.ndindex(out.shape[:3]):
        exp, sig = e - 11, n + 1
        # the digits written, with the "0" of repr's ".0"
        written = max(sig, exp + 1) + (shortest and sig <= exp + 1)
        keep = np.zeros(_WIDTH, bool)
        keep[0] = neg
        if -4 <= exp < 0:
            keep[1:3 - exp - 1] = True       # "0." and -E - 1 zeros
        keep[6:6 + 2 * written:2] = True
        point = max(exp, 0)                   # the digit the point follows
        if written > point + 1 and not -4 <= exp < 0:
            keep[7 + 2 * point] = True
        row = np.where(keep, _SLOTS, 0)
        if exp < -4:
            row[39:] = np.frombuffer(b"e-%02d" % -exp, np.uint8)
        out[neg, e, n] = row
    return out.reshape(-1, _WIDTH)


def _product(m: np.ndarray, f: np.ndarray):
    """m f = hi 2^64 + lo for m < 2^55 and f < 2^63, from products of
    32-bit limbs; m and f are overwritten."""
    low = _U(0xFFFFFFFF)
    m1, f1 = m >> _U(32), f >> _U(32)
    m &= low
    f &= low
    mid = m * f1
    m *= f                                              # the low limbs
    f *= m1
    mid += f                                            # m0 f1 + m1 f0 < 2^64
    m1 *= f1                                            # the high limbs
    del f1
    lo = mid << _U(32)
    lo += m
    m1 += mid >> _U(32)
    m1 += lo < m                                        # carry
    return m1, lo


def _significand(bits: np.ndarray, e: np.ndarray, shortest: bool) -> np.ndarray:
    """The 17 significant digits, as one integer, of each |v| of the fast
    range given by its ``bits``, with E + 11 = ``e``: D17, or with
    ``shortest`` repr's digits followed by zeros.  A repr that rounds up to
    10^(E + 1) moves its ``e`` in place."""
    # s = 1075 - (biased exponent of v) - k
    s = (1048 + e.astype(np.int16)) - (bits >> _U(52)).astype(np.int16)
    shift = np.maximum(-s, 0).astype(np.uint8)          # s < 0 only for |v| >= 2^52
    s = np.maximum(s, 0).astype(np.uint8)               # X = m 5^k / 2^s, s <= 62
    five = _POW5[27 - e]                                # 5^k, k = 16 - E
    if shortest:
        half = five << shift    # the interval's half-width h, in units of 2^-(s + 1) of X
    m = bits & _U((1 << 52) - 1)
    m |= _U(1 << 52)
    m <<= shift
    del shift
    hi, lo = _product(m, five)
    del m, five
    # X = d + r / 2^s
    one = _U(1) << s
    d = hi << (64 - s)
    d |= lo >> s
    r = lo
    r &= one - _U(1)
    del hi, lo
    # D17, rounded half to even on the remainder.  10^16 <= D17 < 10^17: in
    # the fast range no value rounds up to the next power of ten, which would
    # take one within 5e-18 of it below; the nearest there is 1e-7, 4.5e-17
    # below 10^-7 (outside it, 1e-14 lies 1.2e-18 below 10^-14 and prints as
    # 1e-14)
    rem2 = r << _U(1)
    out = d + ((rem2 > one) | ((rem2 == one) & ((d & _U(1)) == 1)))
    del rem2
    if not shortest:
        return out
    # A decimal at n + b / 2^s from X (whole n, b < 2^s) lies in the
    # interval when n 2^(s + 1) + 2b <= half.  That needs n <= h, so n is
    # clipped to h's whole part before the shift, and no sum overflows.
    mask = one
    mask -= _U(1)                                       # 2^s - 1
    s += 1
    whole = (half >> s).astype(np.uint8)
    for p in (10, 100):                                 # D16, then D15
        q = d // _U(p)
        n = d - q * _U(p)                               # X / p = q + (n + r / 2^s) / p
        up = (n > p // 2) | ((n == p // 2) & ((r > 0) | ((q & _U(1)) == 1)))
        q += up
        q *= _U(p)                                      # round(X / p) p
        # |round(X / p) p - X| = n + b / 2^s
        np.subtract(_U(p), n, out=n, where=up)
        n -= up & (r > 0)
        b = np.where(up, np.negative(r) & mask, r)
        fits = n <= whole
        np.minimum(n, whole, out=n)
        n <<= s
        b <<= _U(1)
        b += n
        fits &= b <= half
        np.copyto(out, q, where=fits)
    carry = out == _U(10 ** 17)
    out[carry] = 10 ** 16
    e += carry
    return out


def _float_text(values: np.ndarray, shortest: bool = False) -> np.ndarray:
    """The bytes of ``format(v, ".17g")`` for each value, or with
    ``shortest`` of its JSON text, ``repr(v)`` or null when v is not finite;
    one row of a (n, 43) uint8 matrix per value, whose NUL bytes are not part
    of the text.  Values of the fast range are formatted with integer
    arithmetic in numpy, every other value by Python, one value at a time.
    Temporaries are dropped or overwritten once used, so that a block's
    peak stays about twice its text.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    bits = v.view(_U) & _U((1 << 63) - 1)               # of |v|
    a = bits.view(np.float64)
    fast = (a >= _TENS[0]) & (a < _TENS[-1])
    if shortest:
        fast &= (bits << _U(12)) != 0                   # not a power of two
    slow = np.flatnonzero(~fast)
    del fast
    bits[slow] = _STANDIN
    e = np.searchsorted(_TENS, a, side="right").astype(np.int8)
    e -= 1                                              # E + 11
    d = _significand(bits, e, shortest)
    del bits, a
    # the 17 digits, and the count of trailing zeros that are stripped
    digits = np.empty((len(v), 17), np.uint8)
    zeros = np.zeros(len(v), np.uint8)
    trailing = np.ones(len(v), bool)
    top = (d // _U(10 ** 8)).astype(np.uint32)
    d -= top * _U(10 ** 8)
    x = d.astype(np.uint32)
    del d
    for j in range(16, 0, -1):
        if j == 8:
            x = top
        quot = x // np.uint32(10)
        x -= quot * np.uint32(10)
        digits[:, j] = x
        trailing &= x == 0
        zeros += trailing
        x = quot
    digits[:, 0] = x
    cls = (v < 0).astype(np.int16)
    cls *= len(_TENS) - 1
    cls += e
    cls *= 17
    cls += 16
    cls -= zeros
    text = np.take(_templates(shortest), cls, axis=0)
    # a digit slot the class leaves out holds a trailing zero: it stays NUL
    text[:, 6:39:2] += digits
    if len(slow):
        # at most 24 bytes: -2.2250738585072014e-308
        w = v[slow]
        if shortest:
            own = np.array([repr(x) for x in w.tolist()], dtype="S24")
            own[~np.isfinite(w)] = b"null"
        else:
            own = np.array([format(x, ".17g") for x in w.tolist()], dtype="S24")
        text[slow] = 0
        text[slow, :24] = own.view(np.uint8).reshape(-1, 24)
    return text


def _int_text(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal text of each positive integer below 10^width and 2^32:
    its digits, right-aligned in the last axis of a (..., width) uint8
    matrix, with NUL before the first."""
    out = np.empty(values.shape + (width,), np.uint8)
    x = values.astype(np.uint32)
    for j in range(width - 1, -1, -1):
        quot = x // np.uint32(10)
        out[..., j] = np.where(x > 0, x - quot * np.uint32(10) + ord("0"), 0)
        x = quot
    return out


def _text_rows(pieces) -> str:
    """Rows of text laid out by ``pieces``, one row per row of their
    matrices: a piece is either bytes, written in every row, or a
    (rows, width) uint8 matrix such as ``_float_text``'s, whose NUL bytes
    are left out.  The pieces are laid side by side in one (rows, width)
    matrix, which is read as ASCII once its NUL bytes are dropped."""
    rows = next(len(p) for p in pieces if isinstance(p, np.ndarray))
    pieces = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p for p in pieces]
    ends = np.cumsum([p.shape[-1] for p in pieces])
    out = np.empty((rows, ends[-1]), np.uint8)
    for p, end in zip(pieces, ends):
        out[:, end - p.shape[-1]:end] = p
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _column_texts(column: np.ndarray, shortest: bool = False):
    """The texts of each block of a float column, ``_float_text(values,
    shortest)`` taken row by row.

    x and t take only nx and nt values on the grid, and K, H and xi are
    functions of xi alone, so their values repeat in every block.  A column
    whose values repeat (``soliton.repeats``) with at most ``_TABLE_MAX``
    distinct values gets one table of texts for the whole column, so each
    distinct value is formatted once per export, and each block finds its
    values' texts by binary search, so that no index is held per row.  Any
    other column is formatted directly, block by block.  Nothing is
    computed before the first block is asked for.
    """
    found = repeats(column)
    if found is None or found[0].size > _TABLE_MAX:
        yield from (_float_text(b, shortest) for b in _blocks(column))
        return
    distinct, _, index = found
    table = _float_text(distinct, shortest)
    for b in _blocks(column):
        yield np.take(table, index(b), axis=0)


def _positions(blocks, shortest: bool = False):
    """The rows of ``_float_text`` of each block of positions, as (rows, 3, 43)."""
    return (_float_text(b, shortest).reshape(len(b), 3, -1) for b in blocks)


def _obj_chunks(mesh: SurfaceMesh):
    for y in _positions(_blocks(mesh.vertices)):
        yield _text_rows([b"v ", y[:, 0], b" ", y[:, 1], b" ", y[:, 2], b"\n"])
    # each block's faces from its cell indices, so no face table is held
    cells = (mesh.nx - 1) * (mesh.nt - 1)
    width = len(str(mesh.n_vertices))
    for i in range(0, cells, _BLOCK_ROWS):
        f = _int_text(mesh.quads(np.arange(i, min(i + _BLOCK_ROWS, cells))), width)
        yield _text_rows([b"f ", f[:, 0], b" ", f[:, 1], b" ", f[:, 2], b" ", f[:, 3], b"\n"])


def _csv_chunks(mesh: SurfaceMesh):
    # x, t, K and H repeat and come from one table of %.17g rows per column;
    # the position is nearly all distinct values, formatted block by block
    x, t, k, h = (_column_texts(a) for a in (mesh.x, mesh.t, mesh.K, mesh.H))
    yield "x,t,y1,y2,y3,K,H,singular\n"
    for xs, ts, y, ks, hs, flags in zip(x, t, _positions(_blocks(mesh.vertices)), k, h,
                                        _blocks(mesh.singular.view(np.uint8))):
        yield _text_rows([xs, b",", ts, b",", y[:, 0], b",", y[:, 1], b",", y[:, 2],
                          b",", ks, b",", hs, b",", (flags + ord("0"))[:, None], b"\n"])


_JSON_SEP = (",", ":")


def _json_list(blocks):
    """The JSON list whose entries are the rows that ``_text_rows`` lays
    out from each block's pieces, one chunk per block."""
    sep = "["
    for pieces in blocks:
        yield sep + _text_rows([*pieces, b","])[:-1]
        sep = ","
    yield "]"


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
    # search for a column's repeats) until their key is written
    items = {key: [json.dumps(v, sort_keys=True, separators=_JSON_SEP)]
             for key, v in doc.items()}
    for key in ("x", "t", "K", "H", "xi"):
        items[key] = _json_list(
            [texts] for texts in _column_texts(getattr(mesh, key), shortest=True))
    items["vertices"] = _json_list(
        [b"[", y[:, 0], b",", y[:, 1], b",", y[:, 2], b"]"]
        for y in _positions(_blocks(mesh.vertices), shortest=True))
    items["singular"] = _json_list(
        [(flags + ord("0"))[:, None]] for flags in _blocks(mesh.singular.view(np.uint8)))
    sep = "{"
    for key in sorted(items):
        yield sep + json.dumps(key) + ":"
        yield from items[key]
        sep = ","
    yield "}\n"


_WRITERS = {"obj": _obj_chunks, "csv": _csv_chunks, "json": _json_chunks}
# The export formats, in the order the CLI lists them.
FORMATS = tuple(_WRITERS)


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
            f"unknown format {fmt!r}; valid formats: {', '.join(FORMATS)}"
        ) from None
    path = Path(out)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.writelines(writer(mesh))
    return path
