"""The traveling-wave one-soliton u = k1 sech(xi) and its closed derivatives.

The wave coordinate is xi = k1 (k1^2 t + 4 x) / 8, so that
d(xi)/dx = k1/2 and d(xi)/dt = k1^3/8, and the wave speed constant is
alpha = k1^2 / 4.  :func:`xi_jet` evaluates sech(xi) once at a set of xi,
and the returned :class:`Jet` evaluates tanh(xi) on the first read of its
``tau``, so a jet whose readers take sech alone (the spectral3 forms and
curvatures) never evaluates it.  The jet gives u and its x and t
derivatives as exact chain-rule expressions in sech(xi) and tanh(xi);
:func:`jet` is it at the xi of (x, t), which it reads as float64 and
keeps.  Every pointwise kernel (``lax``, ``deformation``, ``immersion``) is
handed its caller's jet and computes in the jet's type (long double, or
sympy symbols in the tests' proofs).  What reads only xi repeats with it:
:func:`repeats` finds the distinct values, with counts, that ``mesh``
formats once and ``verify`` evaluates once, on jets of xi alone, where the
position and Phi raise.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SolitonParams:
    """Parameter tuple (k1, lambda, mu, nu) of every surface family.

    ``alpha`` is derived, always k1^2/4; it is exposed as a field for
    convenience but cannot be set independently.
    """

    k1: float
    lam: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("k1", "lam", "mu", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k1 == 0:
            raise ValueError("k1 must be nonzero")
        try:
            alpha = self.k1 ** 2 / 4.0
        except OverflowError:
            raise ValueError(f"k1 = {self.k1:g}: alpha = k1^2/4 overflows") from None
        object.__setattr__(self, "alpha", alpha)


def xi(x, t, p: SolitonParams):
    """Wave coordinate xi = k1 (k1^2 t + 4 x) / 8."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return p.k1 * (p.k1 ** 2 * t + 4.0 * x) / 8.0


def xi_grid(p: SolitonParams, xi_half: float, nx: int, nt: int):
    """(x, t) grid with nx points across |xi| <= xi_half on each of nt rows
    spanning |t| <= 1, so the grid follows the soliton as it travels."""
    tv = np.linspace(-1.0, 1.0, nt)
    xiv = np.linspace(-xi_half, xi_half, nx)
    x = (8.0 * xiv[None, :] / p.k1 - p.k1 ** 2 * tv[:, None]) / 4.0
    return x, np.repeat(tv[:, None], nx, axis=1)


# Peak memory per grid point: twice the largest measured peak-RSS slope,
# rounded up to a power of two.  The slopes, over every command of
# scripts/scale_bench.py in fresh processes from 401^2 to 1001^2 (2-core
# x86-64 VM, numpy 2.4.6), are 76-77 B per point for `generate` of ex4 and
# ex7 in every format but ex4's CSV (71 B), 85 and 88 B for `generate` of
# spectral3 k1 1.7, lambda 0.3137, mu -2.2 to CSV and JSON, 64-65 B for
# `verify --checks all` on ex2 and `consistency` on ex2 and ex7, and
# 20-32 B for each other check alone; `verify --checks all` on that
# spectral3 surface reads 77 B.
GRID_BYTES_PER_POINT = 256


def check_grid(nx: int, nt: int) -> None:
    """Reject an nx by nt grid whose sizes are not integers (numpy integers
    are), or that is below 2x2 or larger than physical memory.

    Runs before anything is allocated, so an oversized grid is a ValueError
    naming nx*nt and the estimate rather than a MemoryError mid-run.
    """
    try:
        nx, nt = operator.index(nx), operator.index(nt)
    except TypeError:
        raise ValueError(f"grid nx = {nx!r}, nt = {nt!r}: need integers") from None
    if nx < 2 or nt < 2:
        raise ValueError("grid must be at least 2x2")
    need = nx * nt * GRID_BYTES_PER_POINT
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, e.g. on Windows
        return
    if need > have:
        raise ValueError(
            f"grid nx*nt = {nx * nt} points needs about {need / 2**30:.3g} GiB "
            f"({GRID_BYTES_PER_POINT} B per point), more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )


# Grid points per tile of `tiled`.  At 8192 points one complex array is
# 128 kB and one stacked 2x2 complex array 512 kB, so most temporaries of a
# check stay in a 2 MB per-core L2 cache.  The frame checks at 201^2 ran in
# 0.77 of their untiled time at 8192 points, 0.76 at 4096, 0.79 at 12288,
# 0.85 at 16384 and 0.89 at 2048; the shape check at 401^2, whose per-tile
# overhead is the largest, took 1.7 s at 8192 and 2.5 s at 4096 (2-core
# Xeon VM, 2 MB L2 per core).
TILE_POINTS = 8192


def tiled(f, *coords, points=None):
    """``f(*coords)`` evaluated on consecutive tiles of ``points`` points,
    ``TILE_POINTS`` by default.

    ``f`` is pointwise: given 1-D coordinates, (x, t) or xi alone, it returns
    an array, or a tuple of arrays, whose leading axis runs over those
    points.  The coordinates are broadcast and flattened, and each result is
    assembled back to their shape followed by its own trailing axes.  A
    stencil shifts only a point's own coordinates, so this is bitwise ``f``
    on the whole grid; a reduction over the grid (a max, a median, a
    grid-max threshold) belongs after the call, on the assembled arrays.
    The one exception is a maximum: ``f`` may keep its tile's exact maxima
    on the side for the caller to fold after the call, which gives the
    grid's maxima bit for bit without assembling what they are taken over.
    """
    points = TILE_POINTS if points is None else points
    coords = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape, flat = coords[0].shape, [c.reshape(-1) for c in coords]
    outs = None
    for i in range(0, flat[0].size, points):
        part = f(*(c[i:i + points] for c in flat))
        single = not isinstance(part, tuple)
        parts = (part,) if single else part
        if outs is None:
            outs = [np.empty((flat[0].size,) + a.shape[1:], a.dtype) for a in parts]
        for out, a in zip(outs, parts):
            out[i:i + points] = a
    outs = [out.reshape(shape + out.shape[1:]) for out in outs]
    return outs[0] if single else tuple(outs)


def run_starts(bits: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in the 1-D array ``bits`` starts:
    the scan of :func:`repeats` (on sorted bits) and of ``lax._time_terms``
    (on the bits of t).  Each caller forms the run lengths,
    ``np.diff(starts, append=bits.size)``, itself: :func:`repeats` needs
    none where its values barely repeat, and lengths the size of ``bits``
    beside its sorted copy and the starts would raise its peak."""
    # where each run starts, in one mask the size of bits
    starts = np.empty(bits.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def repeats(values: np.ndarray):
    """``(distinct, counts, index)`` of a 1-D float64 array with at most one
    distinct value per two entries, else None: then a caller works on every
    entry.

    ``distinct`` holds the values in the order of their bits and ``counts``
    how many entries hold each, the run lengths of the sorted bits;
    ``index(v)`` is the position in ``distinct`` of each of the array's
    values ``v`` (1-D), as the smallest unsigned type that holds them all.
    Values are equal only when their bits are, so 0.0 and -0.0, or two NaN
    payloads, stay apart.  The bits are sorted in a copy: ``np.unique``
    hashes them first, which took five times as long on 1001^2 points.
    """
    bits = np.sort(values.view(np.uint64))
    starts = run_starts(bits)
    if 2 * starts.size > values.size:
        return None
    counts, bits = np.diff(starts, append=bits.size), bits[starts]
    small = np.min_scalar_type(max(bits.size - 1, 0))
    return (bits.view(np.float64), counts,
            lambda v: np.searchsorted(bits, v.view(np.uint64)).astype(small))


class _Tanh:
    """The default of :attr:`Jet.tau`: tanh(xi), evaluated on the jet's first
    read of it and then held in the jet's ``__dict__``.  The descriptor has
    no ``__set__``, so every later read finds the held value first, as it
    finds every other field, and no read of a jet runs a hook."""

    def __get__(self, j, owner=None):
        if j is None:
            return None  # the field's default, as dataclasses reads it
        tau = j.__dict__["tau"] = np.tanh(j.xi)
        return tau


@dataclass(frozen=True)
class Jet:
    """The soliton and its derivatives at a set of points.

    ``xi`` and ``s`` = sech(xi) are evaluated once by :func:`xi_jet`, and
    ``tau`` = tanh(xi) once, on its first read, unless the jet was built
    with it (the tests' symbolic model passes a symbol); ``x`` and ``t`` are
    the float arrays :func:`jet` read xi from, or None on a jet of xi
    alone.  ``dataclasses.replace`` reads ``tau`` like every field, so the
    copy holds the value and evaluates nothing more.  Each derivative is a
    property, an exact chain-rule expression in s and tau built on access,
    so a caller holds only the derivatives it uses.  The soliton is a
    traveling wave, so every t derivative is alpha times the x derivative
    of the same order.
    """

    p: SolitonParams
    x: np.ndarray | None
    t: np.ndarray | None
    xi: np.ndarray
    s: np.ndarray
    tau: np.ndarray | None = _Tanh()

    def __post_init__(self):
        if self.__dict__["tau"] is None:  # evaluated on first read
            del self.__dict__["tau"]

    @property
    def u(self):
        return self.p.k1 * self.s

    @property
    def u_x(self):
        return -(self.p.k1 ** 2 / 2.0) * self.s * self.tau

    @property
    def u_xx(self):
        return -(self.p.k1 ** 3 / 4.0) * self.s * (2.0 * self.s ** 2 - 1.0)

    @property
    def u_xxx(self):
        return (self.p.k1 ** 4 / 8.0) * self.s * self.tau * (6.0 * self.s ** 2 - 1.0)

    @property
    def u_t(self):
        return self.p.alpha * self.u_x

    @property
    def u_xt(self):
        return self.p.alpha * self.u_xx

    @property
    def u_xxt(self):
        return self.p.alpha * self.u_xxx


# |xi| from which cosh, and with it the jet, overflows in float64: the
# rounded arccosh of the largest double (np.cosh of it is inf).
XI_MAX = float(np.arccosh(np.finfo(float).max))


def xi_jet(z, p: SolitonParams, x=None, t=None) -> Jet:
    """The soliton's jet at xi = z, holding the x and t it was read from
    (None on a jet of xi alone): the package's one evaluation of sech, with
    tanh evaluated by the jet on the first read of its ``tau``."""
    z = np.asarray(z, dtype=float)
    return Jet(p, x, t, z, 1.0 / np.cosh(z))


def jet(x, t, p: SolitonParams) -> Jet:
    """The soliton's jet at (x, t): :func:`xi_jet` at their xi, holding x and t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return xi_jet(xi(x, t, p), p, x, t)
