"""Named verification checks and machine-readable reports.

Each check wraps library operations that are tested independently; this
module only samples grids, aggregates residuals, and compares against
tolerances.  Each check is one entry of the table ``_CHECKS``, which names
its sample: the surface's window (``_window``), the window clipped to
[-2,2]^2 (``_clipped_window``, skipped where the window does not overlap the
square) or nx values of xi on each of nt rows (``_xi_profile``).  A runner
evaluates its pointwise part on its sample in tiles (``soliton.tiled``) and
reduces over the whole sample once, here: the modules it calls (``lax``,
``deformation``, ``immersion``, ``diffgeo``) are pointwise and reduce
nothing, and ``lagrangian`` only builds the energies that the ``shape``
check tests.  The frame runners (``consistency``, ``compat``, ``forms``,
``lax``) keep across tiles one float64 per residual value they report and
nothing else; where only a maximum is reported (the su(2) test of the
``consistency`` frame, the ``lax`` determinant drift) they fold each tile's
exact maxima instead.  ``zerocurv``, ``compat``, ``forms``, ``weingarten``
and ``sphere``, whose kernels read (x, t) only through the soliton's xi,
hand a function of the jet to ``_by_xi``, which takes the sample's xi,
drops x and t, and evaluates the function on jets of xi alone: at the
distinct xi where they repeat by the rule of ``soliton.repeats``, and at
every point's xi otherwise.  The first four reduce over the distinct
values, each taken as many times as its xi occurs in the sample
(``_stats`` with the counts of ``soliton.repeats``), and keep nothing per
point; ``sphere`` gathers its values back per point through each point's
xi, because the summation order of its mean K is that of the grid.  So
each reports what an evaluation at every (x, t) reports, bit for bit.  The
other four take (x, t) from the sample's ``grid()`` and build jets there:
``lax`` and ``consistency`` read t through Phi's e^{i omega t} and (x, t)
through the position's phase, and the stencils of ``willmore`` and
``shape`` shift x and t apart, so two points of equal xi have stencils of
unequal xi.  A check is compatible with a (family, parameter) combination
or it is reported as skipped with the reason; requesting an incompatible
check explicitly is a configuration error.  A runner returns only what it
measured (``_Outcome``); ``run_checks`` builds every row of the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import deformation, diffgeo, immersion, lagrangian, soliton, su2
from .deformation import ab_compatibility_residual, curvatures_from_forms, forms_from_ab
from .immersion import SPECTRAL3, SPECTRAL_GAUGE4, Surface, _half_k1
from .lax import det_phi_expected, lax_residuals, phi_scale_problem, zero_curvature_residual
from .soliton import Jet, SolitonParams, check_grid, jet, repeats, tiled, xi, xi_grid, xi_jet

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_TOLERANCES",
    "CheckResult",
    "VerificationReport",
    "CheckConfigError",
    "run_checks",
]


# Fixed sub-tolerance: determinant drift of the closed-form frame solution.
DET_DRIFT_RTOL = 1e-10


class CheckConfigError(ValueError):
    """A requested check cannot run for the given family or parameters."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``passed`` is None when the check was skipped as incompatible;
    ``excluded`` counts grid points left out of the statistics.
    """

    name: str
    passed: bool | None
    max_residual: float
    median_residual: float
    tolerance: float
    grid: str
    excluded: int = 0
    note: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skip"
        return "pass" if self.passed else "FAIL"


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated check results for one surface configuration."""

    surface: Surface
    grid: str
    checks: tuple[CheckResult, ...]
    report_version: int = 1

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_dict(self) -> dict:
        p = self.surface.params
        return {
            "report_version": self.report_version,
            "family": self.surface.family.name,
            "preset": self.surface.preset_id,
            "params": {"k1": p.k1, "lambda": p.lam, "mu": p.mu, "nu": p.nu},
            "grid": self.grid,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "passed": c.passed,
                    "max_residual": _jsonable(c.max_residual),
                    "median_residual": _jsonable(c.median_residual),
                    "tolerance": c.tolerance,
                    "grid": c.grid,
                    "excluded": c.excluded,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def summary_lines(self) -> list[str]:
        width = max(len(c.name) for c in self.checks)
        lines = []
        for c in self.checks:
            line = (
                f"{c.name:<{width}}  {c.status:>4}  "
                f"max {c.max_residual:.3e}  med {c.median_residual:.3e}  "
                f"tol {c.tolerance:.1e}  {c.grid}"
            )
            if c.excluded:
                line += f"  excluded {c.excluded}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return lines


def _jsonable(v: float):
    return float(v) if np.isfinite(v) else None


# Samples: (surface, nx, nt) -> (label, grid, empty), the text in the report
# of the nx by nt grid a check evaluates, a function that builds (x, t), so
# that a skipped check's row names its sample without building it, and the
# reason the sample is empty on this surface, or None.  Each check names its
# sample in _CHECKS, and only the samples build grids.

def _label(nx: int, nt: int, xr, tr) -> str:
    """The grid on the window's bounds, each as %g when that reads back as
    the bound and as its repr otherwise, so unequal bounds never print alike."""
    text = lambda v: f"{v:g}" if float(f"{v:g}") == v else repr(v)
    return f"{nx}x{nt} on [{text(xr[0])},{text(xr[1])}]x[{text(tr[0])},{text(tr[1])}]"


def _window(surface: Surface, nx: int, nt: int):
    """The surface's own window."""
    return _label(nx, nt, surface.x_range, surface.t_range), lambda: surface.grid(nx, nt), None


# Half-width of the square [-2,2]^2 that _clipped_window clips the window to.
CLIP_HALF = 2.0


def _clipped_window(surface: Surface, nx: int, nt: int):
    """The window clipped to [-2,2]^2; empty where the clip leaves an axis no
    width, and then labelled as the window."""
    xr, tr = ((max(lo, -CLIP_HALF), min(hi, CLIP_HALF))
              for lo, hi in (surface.x_range, surface.t_range))
    for axis, (lo, hi) in zip("xt", (xr, tr)):
        if not lo < hi:
            label, grid, _ = _window(surface, nx, nt)
            return label, grid, f"requires the {axis} window to overlap (-2,2)"
    label, grid, _ = _window(replace(surface, x_range=xr, t_range=tr), nx, nt)
    return f"{nx}x{nt} on [-2,2]^2" if xr == tr == (-CLIP_HALF, CLIP_HALF) else label, grid, None


def _xi_profile(half: float):
    """nx values of xi across |xi| <= half on each of nt rows (``soliton.xi_grid``).

    The rows span t in [-1, 1] whatever the surface's window: the profile
    follows the soliton, not the window, so a check on it samples the same
    points for any window (``--x-min`` ... ``--t-max``), is never skipped for
    it, and only its label says what it sampled.  Where [-half, half] is not
    inside the xi range of the window's corners, the label says so.
    """
    def sample(surface: Surface, nx: int, nt: int):
        label = f"{nx}x{nt} with |xi|<{half:g}"
        corners = xi(*np.meshgrid(surface.x_range, surface.t_range), surface.params)
        lo, hi = np.min(corners), np.max(corners)
        if lo > -half or hi < half:
            label += f", not inside the window's xi range [{lo:g},{hi:g}]"
        return label, lambda: xi_grid(surface.params, half, nx, nt), None
    return sample


class _Outcome(NamedTuple):
    """What a runner measured: the max and median of its residual, the
    sample points it left out, a note for the report, and whether its own
    sub-checks hold (only ``lax`` has one)."""

    max: float
    median: float
    excluded: int = 0
    note: str = ""
    holds: bool = True


def _stats(res: np.ndarray, counts: np.ndarray | None = None) -> tuple[float, float]:
    """Max and median of a residual of magnitudes (every runner passes
    entries >= +0.0), each ``res[i]`` taken ``counts[i]`` times where
    ``counts`` are given (``_by_xi``): ``np.max`` and ``np.median`` of
    ``np.repeat(res, counts, axis=0)``, bit for bit, without forming it
    where the values repeat.

    NaN is read from the max.  Otherwise the median of n values is the
    value of rank n // 2, or the mean of ranks n // 2 - 1 and n // 2 for
    even n, as ``np.median`` takes it.  Unweighted, :func:`_median` finds
    them in place, so a caller passes an array it owns and does not read
    afterwards.  Weighted, ``soliton.repeats`` orders the distinct values
    by their bits, which is their order, since no entry has its sign bit
    set, and the counts give each value's ranks; values that barely repeat
    are expanded instead.
    """
    values = res.reshape(-1)
    mx = np.max(values)
    if np.isnan(mx):
        return float(mx), float(mx)
    if counts is not None:
        counts = np.repeat(counts, values.size // counts.size)
        found = repeats(values)
        if found is None:
            values = np.repeat(values, counts)
        else:
            distinct, _, index_of = found
            ends = np.cumsum(np.bincount(index_of(values), weights=counts,
                                         minlength=distinct.size))
            ranks = [ends[-1] // 2] if ends[-1] % 2 else [ends[-1] // 2 - 1, ends[-1] // 2]
            return float(mx), float(np.mean(distinct[np.searchsorted(ends, ranks, "right")]))
    return float(mx), _median(values)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array without NaN, bit for bit, reordering
    ``values`` in place.

    One partition at rank k = n // 2 places the upper middle; for even n
    the lower middle, rank k - 1, is the largest value below it.  Then
    ``np.mean`` takes the same one or two values in the same order as
    ``np.median``.  The partition at the two ranks k - 1 and k that
    ``np.median`` makes took 3.7 ms on 242,406 values, and this one with
    the max 0.4 ms (numpy 2.4.6).
    """
    k = values.size // 2
    values.partition(k)
    lower = k - 1 + values.size % 2  # the lower middle rank, k for odd n
    if lower < k:
        values[lower] = np.max(values[:k])
    return float(np.mean(values[lower:k + 1]))


def _by_xi(f, surface: Surface, grid, per_point: bool = False):
    """``f`` of the soliton's jet on the check's sample, for an ``f`` that
    reads the jet only through xi, as the frames and closed forms do.

    Takes the xi of the sample's ``grid()`` in tiles and drops x and t,
    then evaluates ``f`` on jets of xi alone (``soliton.xi_jet``).  Returns
    ``(values, counts)``: where the xi repeat (``soliton.repeats``), ``f`` at the
    distinct xi and the number of sample points of each, for a runner to
    reduce with (``_stats``); else ``f`` at every point's xi and None.  With
    ``per_point``, for an ``f`` that returns a tuple, the values at every
    point in any case, gathered from the distinct values through each
    point's xi.
    """
    x, t = grid()
    p = surface.params
    z = tiled(lambda xx, tt: xi(xx, tt, p), x, t)
    del x, t
    found = repeats(z.reshape(-1))
    if found is None:
        return tiled(lambda zz: f(xi_jet(zz, p)), z), None
    distinct, counts, index_of = found
    z = z if per_point else None   # only the gather reads it: not held through f
    values = tiled(lambda zz: f(xi_jet(zz, p)), distinct)
    if not per_point:
        return values, counts
    outs = tuple(np.empty(z.shape + a.shape[1:], a.dtype) for a in values)
    for i in range(0, z.size, soliton.TILE_POINTS):
        # a tile's index, the only one widened to intp; "clip" writes to
        # out unbuffered, and every index is in range
        at = index_of(z.reshape(-1)[i:i + soliton.TILE_POINTS])
        for a, out in zip(values, outs):
            np.take(a, at, axis=0, mode="clip",
                    out=out.reshape((-1,) + a.shape[1:])[i:i + soliton.TILE_POINTS])
    return outs, None


# Requirements: a Surface's reason to skip a check, or None if it applies.

def _anywhere(surface: Surface) -> str | None:
    return None


def _spectral3(surface: Surface) -> str | None:
    return None if surface.family is SPECTRAL3 else "spectral3-family check"


def _spectral3_half_k1(surface: Surface) -> str | None:
    return _spectral3(surface) or (
        None if _half_k1(surface.params) else "requires lambda = k1/2")


def _spectral3_energies(surface: Surface) -> str | None:
    try:
        lagrangian.coefficient_powers(surface.params.k1, surface.params.mu)
    except ValueError as exc:
        return _spectral3(surface) or str(exc)
    return _spectral3(surface)


def _spectral3_weingarten(surface: Surface) -> str | None:
    try:
        immersion.weingarten_constant(surface.params)
    except ValueError as exc:
        return _spectral3(surface) or str(exc)
    return _spectral3(surface)


def _round_sphere(surface: Surface) -> str | None:
    p = surface.params
    if p.lam == 0.0:
        return "requires lambda != 0"
    return "requires mu != 0" if p.mu == 0.0 else None


# Runners: (surface, grid, h) -> _Outcome, with grid the check's sample's
# () -> (x, t) and h its resolved finite-difference step, None for a check
# that does not difference.

def _check_zerocurv(surface: Surface, grid, h: None) -> _Outcome:
    return _Outcome(*_stats(*_by_xi(lambda j: np.abs(zero_curvature_residual(j)), surface, grid)))


def _entry_max(m: np.ndarray) -> np.ndarray:
    """The largest of the four entries of stacked 2x2 matrices, by elementwise
    maxima: a reduction over the trailing 2x2 axes costs many times the
    comparisons it makes."""
    return np.maximum(np.maximum(m[..., 0, 0], m[..., 0, 1]),
                      np.maximum(m[..., 1, 0], m[..., 1, 1]))


def _check_lax(surface: Surface, grid, h: float) -> _Outcome:
    p = surface.params
    x, t = grid()
    expected = det_phi_expected(p)
    # per tile, the largest |det Phi - expected|: only the grid's is reported
    det_dev = []

    def pointwise(xx, tt):
        rx, rt, ph = lax_residuals(jet(xx, tt, p), h=h)
        det_dev.append(np.max(np.abs(su2.det(ph) - expected)))
        return np.maximum(_entry_max(np.abs(rx)), _entry_max(np.abs(rt)))

    res = tiled(pointwise, x, t)
    det_rel = float(np.max(det_dev) / abs(expected))
    return _Outcome(*_stats(res), note=f"det drift rel {det_rel:.2e} (<= {DET_DRIFT_RTOL:.0e})",
                    holds=det_rel <= DET_DRIFT_RTOL)


def _check_compat(surface: Surface, grid, h: None) -> _Outcome:
    p = surface.params
    # the spectral and symmetry frames are mu times a fixed frame,
    # identically zero at mu = 0, so they are tested at mu = 1; the jet
    # depends on k1 alone, so one jet serves every frame's parameters
    unit = SolitonParams(p.k1, p.lam, mu=1.0, nu=p.nu) if p.mu == 0.0 else p
    pairs = ((SPECTRAL3.frame, unit), (SPECTRAL_GAUGE4.frame, p),
             (deformation.symmetry_frame, unit))

    def pointwise(j):
        res = np.empty((j.xi.size, len(pairs), 3))
        for i, (frame, fp) in enumerate(pairs):
            jp = replace(j, p=fp)
            np.abs(ab_compatibility_residual(jp, frame(jp)), out=res[:, i])
        return res

    return _Outcome(*_stats(*_by_xi(pointwise, surface, grid)),
                    note="all three deformation families")


# Points of the forms check whose closed-form denominator is at most this
# share of its largest magnitude on the grid sit at or beside a pole.
POLE_MARGIN = 0.05


def _check_forms(surface: Surface, grid, h: None) -> _Outcome:
    fam = surface.family

    def pointwise(j):
        cur = curvatures_from_forms(forms_from_ab(j, fam.frame(j)))
        closed = fam.curvatures(j)
        den = fam.denominator(j)
        return (np.abs(cur.K - closed.K), np.abs(cur.H - np.sign(den) * closed.H),
                np.abs(closed.K), np.abs(closed.H), np.abs(den))

    (diff_k, diff_h, closed_k, closed_h, den), counts = _by_xi(pointwise, surface, grid)
    # The values at the distinct xi are the grid's set of values, so the pole
    # threshold and the largest kept closed forms are the grid's, bit for bit.
    keep = den > POLE_MARGIN * np.max(den)
    if not keep.any():
        raise diffgeo.SingularPointError(
            "forms: no grid point clears the closed forms' poles "
            f"(|denominator| <= {POLE_MARGIN:g} max |denominator| everywhere)"
        )
    norms = [np.max(closed, where=keep, initial=0.0) for closed in (closed_k, closed_h)]
    # each kept difference relative to the largest kept closed form
    rel = np.concatenate([diff[keep] / norm for diff, norm in zip((diff_k, diff_h), norms)])
    if counts is None:
        excluded = int(keep.size - np.count_nonzero(keep))
    else:
        excluded = int(np.sum(counts[~keep]))
        counts = np.tile(counts[keep], 2)
    return _Outcome(*_stats(rel, counts), excluded, "frame curvatures vs closed forms")


def _check_weingarten(surface: Surface, grid, h: None) -> _Outcome:
    p = surface.params

    def pointwise(j):
        cur = surface.family.curvatures(j)
        return immersion.weingarten_residuals(cur.K, cur.H, p)

    res, counts = _by_xi(pointwise, surface, grid)
    note = "cubic K-H relation"
    if res.shape[-1] == 2:
        note += f" and quadratic at k1 = {'' if p.k1 * p.lam > 0 else '-'}2 lambda"
    return _Outcome(*_stats(res, counts), note=note)


# The divergence-form pass of `willmore` and `shape` makes each field and
# geometry call at the six flux offsets of all of a tile's points, so these
# two runners take tiles of a third of TILE_POINTS: no call holds more than
# 6 x 2730 points, two tiles' worth.  Against calls of at most one tile's
# points, two tiles' took the `shape` check on ex2 from 0.61-0.62 to
# 0.57-0.63 s of CPU at 401^2 and from 3.99-4.27 to 3.63-3.99 s at 1001^2;
# three tiles' read 0.56-0.59 s at 401^2 and six 0.58-0.64 s, each for a
# larger traced peak (two processes per budget, each the min of three runs
# at 401^2 and one run at 1001^2, malloc pinned as `cli.main` pins it;
# 2-core x86-64 VM, numpy 2.4.6).  On tiles of a third, the traced peak of
# `shape` on ex2 at 401^2 is 10.6 MiB, against 15.0 for the same calls in
# stacks of two offsets on whole tiles.
def _check_willmore(surface: Surface, grid, h: float) -> _Outcome:
    p, fam = surface.params, surface.family
    x, t = grid()
    s = replace(diffgeo.OPERATOR_STENCIL, h=h)
    curvatures = lambda xx, tt: fam.curvatures(jet(xx, tt, p))
    forms = lambda xx, tt: fam.forms(jet(xx, tt, p))

    def pointwise(xx, tt):
        j = jet(xx, tt, p)
        res, scale = diffgeo.willmore_like_residual(
            curvatures, forms, 4.0 / 9.0, 1.0, xx, tt, (fam.forms(j), fam.curvatures(j)), s)
        return np.abs(res) / scale

    return _Outcome(*_stats(tiled(pointwise, x, t, points=soliton.TILE_POINTS // 3)),
                    note="a=4/9, b=1")


def _check_shape(surface: Surface, grid, h: float) -> _Outcome:
    """The constrained families N = 3..6 (p = 1, free zero) on the spectral3
    surfaces at lam = +k1/2 and lam = -k1/2, on one xi grid of |xi| < 2.

    The two surfaces share the grid (``xi_grid`` reads k1 alone) and their K
    and H bit for bit (the spectral3 curvatures read lam only as lam^2), so
    one curvature field, that of lam = +k1/2, serves both and only the
    metrics differ.  Each tile, a third of ``soliton.TILE_POINTS`` as for
    ``willmore``, makes one ``diffgeo.shape_equation_residual`` pass for
    both signs and all distinct energies: at ``OPERATOR_STENCIL`` 18
    curvature calls and 2 geometry calls at the six flux offsets of the
    tile's points, and one geometry call at its points, half what one pass
    per sign makes.  A geometry call evaluates one soliton jet and hands it
    to both signs' forms and to the curvatures, which give the weight K at
    the flux points and, at the grid points, the algebraic terms; there the
    forms also serve the near-singular mask.  None of them reads tanh xi,
    so the check never evaluates it.  It returns the (points, surfaces,
    energies) normalized residuals, NaN where the surface is near-singular;
    each (surface, energy) pair keeps its finite entries and excludes the
    others, and its median, like the median over degrees, is
    :func:`_median`'s.
    """
    p = surface.params
    s = replace(diffgeo.OPERATOR_STENCIL, h=h)
    energies = [lagrangian.constrained_family(n, None, 1.0, p.k1, p.mu) for n in (3, 4, 5, 6)]
    # Degrees whose energies have equal terms are one energy and share one
    # residual: the families coincide on ex2, ex3 and ex5, and on ex4 the
    # N = 5, 6 coefficients round apart from N = 3, 4.  Only exactly equal
    # terms are merged, and the energy evaluated is built from the terms
    # alone, so Horner skips the explicit zero coefficients.
    distinct = {}
    for e in energies:
        if e.terms not in distinct:
            pressure, nonzero = e.terms
            distinct[e.terms] = lagrangian.PolyLagrangian(e.N, dict(nonzero), pressure)
    plus, minus = (SolitonParams(k1=p.k1, lam=sign * p.k1 / 2.0, mu=p.mu)
                   for sign in (1.0, -1.0))
    curvatures = lambda xx, tt: SPECTRAL3.curvatures(jet(xx, tt, plus))

    def geometry(xx, tt):
        # the signs' jets differ only in p; neither reads tanh xi, so the
        # second is built without it rather than replaced, which reads it
        j = jet(xx, tt, plus)
        return ((SPECTRAL3.forms(j), SPECTRAL3.forms(Jet(minus, j.x, j.t, j.xi, j.s))),
                SPECTRAL3.curvatures(j))

    x, t = grid()

    def pointwise(xx, tt):
        at = geometry(xx, tt)
        res, scale = diffgeo.shape_equation_residual(
            curvatures, geometry, distinct.values(), xx, tt, at, s)
        singular = np.stack([diffgeo.near_singular_mask(fm) for fm in at[0]])
        normalized = np.where(singular[:, None], np.nan, np.abs(res) / scale)
        return np.moveaxis(normalized, -1, 0)

    by_pair = tiled(pointwise, x, t, points=soliton.TILE_POINTS // 3)
    del x, t
    # (surfaces, energies, points), and (max, median, excluded) of each pair
    by_pair = by_pair.reshape(-1, 2, len(distinct)).transpose(1, 2, 0)
    stats = np.empty(by_pair.shape[:2] + (3,))
    for pair in np.ndindex(by_pair.shape[:2]):
        values = by_pair[pair]
        kept = values[np.isfinite(values)]
        if kept.size == 0:
            raise diffgeo.SingularPointError("all grid points near-singular")
        stats[pair] = np.max(kept), _median(kept), values.size - kept.size
    # per degree its energy's column: the largest max, the median over degrees
    # of each degree's larger median, and every degree's excluded points
    columns = [list(distinct).index(e.terms) for e in energies]
    mx, med, excluded = np.moveaxis(stats[:, columns], -1, 0)
    return _Outcome(float(np.max(mx)), _median(np.max(med, axis=0)), int(np.sum(excluded)),
                    "constrained families N=3..6, p=1, free params zero")


def _check_sphere(surface: Surface, grid, h: None) -> _Outcome:
    p = surface.params

    def pointwise(j):
        cur = curvatures_from_forms(forms_from_ab(j, deformation.symmetry_frame(j)))
        return cur.K, cur.H

    (cur_k, cur_h), _ = _by_xi(pointwise, surface, grid, per_point=True)
    # K and H are NaN where the normal degenerates (the crest u_x = 0)
    good = np.isfinite(cur_k) & np.isfinite(cur_h)
    kg, hg = cur_k[good], cur_h[good]
    if kg.size == 0:
        raise diffgeo.SingularPointError("all grid points degenerate; enlarge the grid")
    k_mean = float(np.mean(kg))
    radius = float(1.0 / np.sqrt(abs(k_mean)))
    expected = abs(p.alpha * p.mu / (2.0 * p.lam))
    res = np.array([float(np.max(np.abs(kg - k_mean)) / abs(k_mean)),
                    float(np.max(np.abs(hg ** 2 - kg)) / abs(k_mean)),
                    abs(radius - expected) / expected])
    return _Outcome(*_stats(res), int(cur_k.size - np.count_nonzero(good)),
                    f"radius {radius:.6g} vs |alpha mu/(2 lambda)| = {expected:.6g}")


def _check_consistency(surface: Surface, grid, h: float) -> _Outcome:
    p, fam = surface.params, surface.family
    x, t = grid()
    position = lambda xx, tt: fam.position(jet(xx, tt, p))
    s = diffgeo.Stencil(h, order=4)

    # per tile, the su(2) defects of y_x and of y_t
    defects = []

    def pointwise(xx, tt):
        res = np.empty((xx.size, 2, 3))
        for axis, frame in enumerate(immersion.frame_tangents(jet(xx, tt, p), fam.frame)):
            fd = diffgeo.derivative(position, xx, tt, s, axis=axis)
            np.abs(fd - su2.su2_components(frame), out=res[:, axis])
            defects.append(su2.su2_defects(frame))
        return res

    res = tiled(pointwise, x, t)
    # the su(2) test of each tangent on the whole grid, so that its bound
    # scales with that tangent's largest entry on the grid
    for grid_max in np.max(np.reshape(defects, (-1, 2, 3)), axis=0):
        su2.check_su2(*grid_max)
    return _Outcome(*_stats(res), note="frame tangents vs position derivatives")


@dataclass(frozen=True)
class _Check:
    """One named check.

    ``run`` is its runner; ``tol`` its default tolerance; ``sample`` its
    grid; ``steps`` the (min, default, max) of its finite-difference step,
    None if it does not difference; ``requires`` maps a Surface to the
    reason the check cannot run on it, or None.
    """

    run: Callable[[Surface, Callable, float | None], _Outcome]
    tol: float
    sample: Callable
    steps: tuple[float, float, float] | None = None
    requires: Callable[[Surface], str | None] = _anywhere


# The checks, in report order.  Step ranges: outside them a check measures
# its step, not the surface.  At 1e-5 and below rounding swamps the nested
# divergence operators of willmore and shape (FAIL on ex2..ex5), and from
# 7e-3 up truncation fails consistency on ex4.  Measured on all seven presets
# at 5^2, 21^2, 41^2 and 101^2; the willmore/shape floor keeps a factor 3
# above the smallest passing step, 3e-5.
_OPERATOR_STEPS = (1e-4, diffgeo.OPERATOR_STENCIL.h, 1e-2)
_phi_scale = lambda surface: phi_scale_problem(surface.params)  # of the checks reading Phi
_CHECKS: dict[str, _Check] = {
    "zerocurv": _Check(_check_zerocurv, 1e-10, _window),
    "lax": _Check(_check_lax, 1e-6, _clipped_window, steps=(1e-8, 1e-6, 1e-2),
                  requires=_phi_scale),
    "compat": _Check(_check_compat, 1e-9, _clipped_window),
    "forms": _Check(_check_forms, 1e-8, _xi_profile(2.95)),
    "weingarten": _Check(_check_weingarten, 1e-9, _xi_profile(2.95),
                         requires=_spectral3_weingarten),
    "willmore": _Check(_check_willmore, 1e-4, _xi_profile(2.0), steps=_OPERATOR_STEPS,
                       requires=_spectral3_half_k1),
    "shape": _Check(_check_shape, 1e-3, _xi_profile(2.0), steps=_OPERATOR_STEPS,
                    requires=_spectral3_energies),
    "sphere": _Check(_check_sphere, 1e-6, _clipped_window, requires=_round_sphere),
    "consistency": _Check(_check_consistency, 1e-6, _clipped_window,
                          steps=(1e-8, 1e-3, 5e-3), requires=_phi_scale),
}

CHECK_NAMES = tuple(_CHECKS)
DEFAULT_TOLERANCES: dict[str, float] = {n: c.tol for n, c in _CHECKS.items()}
# Looked up by name at call time, so that an entry replaced here (to time or
# instrument a check) is the one that runs.
_RUNNERS = {n: c.run for n, c in _CHECKS.items()}


def run_checks(
    checks: Sequence[str] | str,
    surface: Surface,
    nx: int = 41,
    nt: int = 41,
    tolerances: Mapping[str, float] | None = None,
    fd_step: float | None = None,
) -> VerificationReport:
    """Run named checks on a surface (see :func:`immersion.resolve`) and
    aggregate a report.

    ``checks`` is "all" (every check; incompatible ones appear as skipped
    with the reason) or an explicit list of at least one check, each named
    once and not with "all", which raises ``CheckConfigError`` when a listed
    check cannot run for this configuration.  A string is a comma-separated
    list, its names stripped.  A tolerance must be finite and >= 0.  ``fd_step``, when
    given, is the one finite-difference step of the lax, consistency,
    willmore and shape checks; it must lie in
    [diffgeo.STEP_MIN, diffgeo.STEP_MAX] and in the step range of each of
    those checks that will run.  It, the tolerances, the grid size and the
    explicit checks' requirements are validated before any check runs.
    """
    try:
        check_grid(nx, nt)
    except ValueError as exc:
        raise CheckConfigError(str(exc)) from None
    if fd_step is not None and not (diffgeo.STEP_MIN <= fd_step <= diffgeo.STEP_MAX):
        raise CheckConfigError(
            f"fd_step = {fd_step} outside [{diffgeo.STEP_MIN}, {diffgeo.STEP_MAX}]"
        )

    if isinstance(checks, str):
        names = [c.strip() for c in checks.split(",") if c.strip()]
    else:
        names = list(checks)
    if "all" in names and names != ["all"]:
        raise CheckConfigError("'all' cannot be combined with check names")
    explicit = names != ["all"]
    if explicit:
        if not names:
            raise CheckConfigError("no checks named; name one or more, or use 'all'")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise CheckConfigError(f"checks named more than once: {', '.join(repeated)}")
        unknown = [n for n in names if n not in _CHECKS]
        if unknown:
            raise CheckConfigError(
                f"unknown checks: {', '.join(unknown)}; valid: " + ", ".join(_CHECKS)
            )
    else:
        names = list(CHECK_NAMES)

    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        for key, val in tolerances.items():
            if key not in tols:
                raise CheckConfigError(f"no tolerance named {key!r}")
            tols[key] = float(val)
            if not (math.isfinite(tols[key]) and tols[key] >= 0.0):
                raise CheckConfigError(
                    f"tolerance of check {key!r} = {val}: need finite and >= 0"
                )

    # one pass decides each check: skipped with a reason, or run at a step
    nx, nt = int(nx), int(nt)
    plan = []
    for name in names:
        check = _CHECKS[name]
        label, grid, empty = check.sample(surface, nx, nt)
        reason, h = check.requires(surface) or empty, None
        if reason is not None and explicit:
            raise CheckConfigError(f"check {name!r} incompatible: {reason}")
        if reason is None and check.steps is not None:
            lo, h, hi = check.steps
            if fd_step is not None:
                if not lo <= fd_step <= hi:
                    raise CheckConfigError(
                        f"fd_step = {fd_step} outside [{lo:g}, {hi:g}], "
                        f"the admissible steps of check {name!r}"
                    )
                h = fd_step
        plan.append((name, label, grid, reason, h))

    results = []
    for name, label, grid, reason, h in plan:
        out = (_RUNNERS[name](surface, grid, h) if reason is None
               else _Outcome(math.nan, math.nan, note=f"skipped: {reason}"))
        results.append(CheckResult(
            name=name, passed=None if reason else bool(out.max <= tols[name] and out.holds),
            max_residual=out.max, median_residual=out.median, tolerance=tols[name],
            grid=label, excluded=out.excluded, note=out.note))
    window = _label(nx, nt, surface.x_range, surface.t_range)
    return VerificationReport(surface=surface, grid=window, checks=tuple(results))
