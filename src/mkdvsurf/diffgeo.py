"""Finite-difference differential-geometry oracle.

Everything here works on plain fields, callables of (x, t) arrays: an
immersion into R^3, scalars, :class:`Forms` and :class:`CurvaturePair`,
with no knowledge of closed forms: first and second fundamental forms by
central differences, the surface Laplacian and the curvature-weighted
divergence operator in nested flux form, and the residuals of the
Willmore-like and generalized shape equations, stacked with one leading
axis per surface and per energy.

:func:`_quotient`, a central first difference, is the package's only
difference-quotient arithmetic: :func:`derivative` and the divergence-form
pass both read their stencil points through it, and a second derivative is
a first difference of one.  Fields are pointwise.  A divergence-form
operator runs two flux passes (x, then t), each on all six flux offsets of
the stencil at once, with the flux points stacked on a new leading axis: it
calls the field it differentiates once per stencil offset, 18 times, and
the geometry of the flux (every surface's forms and the weights) once per
pass, each call at 6 N points for the N points its caller passes.  So a
direct caller bounds each call by the N it passes; the package's callers,
the ``willmore`` and ``shape`` checks, pass tiles of ``soliton.tiled``
sized for that.  The oracle's quotients, and ``lax``'s complex ones, divide
by a real scalar through :func:`div_real`.  The module imports no other
package module, so the oracle cannot reach the closed forms it checks; the
geometry types it returns live here for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularPointError(ValueError):
    """Raised when a pointwise geometric quantity degenerates."""


@dataclass(frozen=True)
class Forms:
    """First (g) and second (h) fundamental form coefficients at a point.

    Fields may be scalars or numpy arrays of a common shape.
    """

    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray

    def det_g(self):
        return self.g11 * self.g22 - self.g12 ** 2

    def det_h(self):
        return self.h11 * self.h22 - self.h12 ** 2


@dataclass(frozen=True)
class CurvaturePair:
    K: np.ndarray
    H: np.ndarray


STEP_MIN = 1e-8
STEP_MAX = 1e-2


@dataclass(frozen=True)
class Stencil:
    """Central-difference configuration: one step ``h`` in [STEP_MIN, STEP_MAX]
    for both axes, order 2 (3-point) or 4 (5-point), and whether to add one
    Richardson level from a second pass at h/2."""

    h: float = 1e-4
    order: int = 4
    richardson: bool = False

    def __post_init__(self):
        if not (STEP_MIN <= self.h <= STEP_MAX):
            raise ValueError(f"h = {self.h} outside [{STEP_MIN}, {STEP_MAX}]")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")


# derivatives of smooth fields: small step, order 4
DERIVATIVE_STENCIL = Stencil(h=1e-4, order=4, richardson=False)
# nested divergence-form operators: larger step plus one Richardson level
OPERATOR_STENCIL = Stencil(h=1e-3, order=4, richardson=True)

def div_real(a, d):
    """a / d for a real scalar d, where the caller owns the temporary ``a``.

    numpy has no complex-by-real division loop: a complex a / d divides each
    element by d + 0j in full.  A complex array ``a`` is instead multiplied
    in place by 1/d, the reciprocal that the division forms itself, in a's
    precision: the result equals a / d under ==, with NaN in the same places,
    and only the sign of an exact zero may differ.  The multiply would also
    overflow where a part is inf or NaN and the quotient is NaN, so overflow
    is not reported: an overflowed quotient shows as inf.  Any other ``a``
    keeps numpy's true division, bit for bit.
    """
    if isinstance(a, np.ndarray) and a.dtype.kind == "c":
        with np.errstate(over="ignore"):
            a *= a.real.dtype.type(1.0) / d
        return a
    return a / d


def _d1_once(at, h, order):
    if order == 2:
        return div_real(at(h) - at(-h), 2.0 * h)
    return div_real(8.0 * (at(h) - at(-h)) - (at(2 * h) - at(-2 * h)), 12.0 * h)


def _richardson(coarse, fine, order):
    fac = 2.0 ** order
    return div_real(fac * fine - coarse, fac - 1.0)


def _quotient(read, s: Stencil):
    """The central first-difference quotient of ``read(offset)``.

    ``read`` is called once per distinct offset.  With ``s.richardson`` at
    order 4 the fine pass at h/2 reuses the values at +-h that the coarse
    pass read, which are its outer pair at 2 (h/2).  A shared value is held
    only until its second use, every other one is freed as soon as its
    quotient term is formed, and the quotients are the textbook ones
    (Fornberg 1988), so the result is bitwise that of reading every point
    afresh.
    """
    shared = {s.h, -s.h} if s.richardson and s.order == 4 else set()
    held = {}

    def at(d):
        if d in held:
            return held.pop(d)
        value = read(d)
        if d in shared:
            held[d] = value
        return value

    d = _d1_once(at, s.h, s.order)
    if not s.richardson:
        return d
    return _richardson(d, _d1_once(at, s.h / 2.0, s.order), s.order)


def _reads(s: Stencil):
    """The distinct offsets :func:`_quotient` reads, in the order it reads
    them."""
    order = []
    _quotient(lambda d: order.append(d) or 0.0, s)
    return order


def derivative(f, x, t, s: Stencil, axis: int):
    """Central first derivative of f along axis (0 = x, 1 = t).

    The quotient is :func:`_quotient`'s, so each distinct stencil point is
    evaluated once: order 4 with Richardson costs 6 calls of f instead of 8;
    order 2 shares no offset.  Second derivatives nest it, as
    :func:`fd_forms` does.
    """
    if axis == 0:
        return _quotient(lambda d: f(x + d, t), s)
    return _quotient(lambda d: f(x, t + d), s)


DEGENERATE_CROSS_TOL = 1e-12


def fd_forms(immersion, x, t, s: Stencil | None = None) -> Forms:
    """Fundamental forms of an immersion callable by central differences.

    The unit normal is cross(y_t, y_x)/|cross(y_t, y_x)|, matching the
    orientation of the frame construction used throughout the package.
    y_xx, y_tt and y_xt nest :func:`derivative` in itself with the stencil
    ``s``, so the immersion is called 4 + 4 + 3 x 16 times at order 4
    (6 + 6 + 3 x 36 with Richardson).  Scalar input at a degenerate point
    raises; array input yields NaN there.
    """
    if s is None:
        s = DERIVATIVE_STENCIL
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    d_x = lambda a, b: derivative(immersion, a, b, s, axis=0)
    d_t = lambda a, b: derivative(immersion, a, b, s, axis=1)
    yx, yt = d_x(x, t), d_t(x, t)
    yxx = derivative(d_x, x, t, s, axis=0)
    ytt = derivative(d_t, x, t, s, axis=1)
    yxt = derivative(d_t, x, t, s, axis=0)
    g11 = np.einsum("...k,...k->...", yx, yx)
    g12 = np.einsum("...k,...k->...", yx, yt)
    g22 = np.einsum("...k,...k->...", yt, yt)
    n = np.cross(yt, yx)
    norm = np.sqrt(n[..., 0] * n[..., 0] + n[..., 1] * n[..., 1] + n[..., 2] * n[..., 2])
    degenerate = norm < DEGENERATE_CROSS_TOL
    if np.ndim(degenerate) == 0:
        if degenerate:
            raise SingularPointError(
                f"degenerate parametrization: |y_x x y_t| = {float(norm)}"
            )
    else:
        norm = np.where(degenerate, np.nan, norm)
    n = n / norm[..., None]
    return Forms(
        g11=g11,
        g12=g12,
        g22=g22,
        h11=np.einsum("...k,...k->...", yxx, n),
        h12=np.einsum("...k,...k->...", yxt, n),
        h22=np.einsum("...k,...k->...", ytt, n),
    )


def _sqrt_det_g(fm: Forms, scalar_ok: bool):
    """sqrt(det g), NaN where g is not positive definite; with ``scalar_ok``
    a scalar point where it is not raises instead."""
    det = fm.det_g()
    if scalar_ok and np.ndim(det) == 0 and not det > 0.0:
        raise SingularPointError(f"metric not positive definite: det g = {det}")
    with np.errstate(invalid="ignore"):
        return np.sqrt(np.where(det > 0.0, det, np.nan))


# One block of a divergence-form pass: the rows of the field it acts on
# (``...`` for the whole field) and the form whose inverse it applies ("g" or
# "h"); its scalar weight is the pass's geometry's.
_WHOLE_FIELD = ((..., "g"),)


def _divergence_form(f, geometry, x, t, forms_at, s, blocks=_WHOLE_FIELD):
    """(1/sqrt(det g)) d_i(sqrt(det g) w a^{ij} d_j f) in nested flux form,
    once for each surface of ``geometry``.

    ``geometry(xx, tt)`` returns ``(forms, weights)`` at the points: each
    surface's :class:`Forms` and each block's scalar weight w (None for 1).
    ``forms_at`` is each surface's :class:`Forms` at (x, t), as the caller
    evaluated them; the result is divided by their sqrt(det g).  The
    surfaces share the field f and the weights, and the result is one array
    of shape (surfaces,) + the shape of f's value.  Each block
    ``(rows, tensor)`` applies the operator to the rows ``rows`` of f's
    value, with a^{ij} the inverse of the metric g (``tensor`` "g") or of
    the second form h ("h").  The bracketed flux is itself a field whose
    divergence is taken by the same central stencils.  ``f`` may return
    leading axes (one field per energy).  Every block of every surface
    fills its own rows of one flux array with the arithmetic it would have
    alone, and the central quotients act on all of them at once, element by
    element.  So each surface's divergence is bitwise what a pass with that
    surface alone gives.

    The x-flux at (x + a, t) differentiates f along t at the points
    (x + a, t + b), and the t-flux at (x, t + b) along x at the same
    points, where a and b run over the stencil's offsets.  f is evaluated
    once at each of these mixed points: the x-pass keeps the value and the
    t-pass reads and frees it.  The coordinates are computed as ``x + a``
    and ``t + b`` in both passes, so the shared values are those each pass
    would evaluate, and every quotient is :func:`_quotient`'s; the result
    is bitwise that of differentiating f afresh at each flux point.

    Each pass (x, then t) evaluates all its flux points at once, the N
    points of x and t at each of its flux offsets (six at
    ``OPERATOR_STENCIL``) stacked on a new leading axis: f, ``geometry``
    and the weights are pointwise and accept that axis, and f returns it
    just before the point axes (after any leading axes of its own).  For
    each stencil offset the x-pass calls f once at its x-axis points
    ((x + a) + c, t) and once at its mixed points (x + a, t + b); the
    t-pass reads the mixed values the x-pass kept, stacked anew, and calls
    f once at its t-axis points (x, (t + b) + c).  ``geometry`` is called
    and the flux arithmetic runs once per pass, and the outer quotients
    read the stacked fluxes one offset at a time.  So every call takes
    6 N points at ``OPERATOR_STENCIL``, which the caller bounds by the N
    it passes, and every element goes through the arithmetic it would
    have alone.  At ``OPERATOR_STENCIL`` the two passes read f at 108
    points (6 x 6 mixed points and 36 on each axis) instead of 144,
    whatever the number of surfaces, in 18 calls, and call ``geometry``
    twice.
    """
    if s is None:
        s = OPERATOR_STENCIL
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape, t.shape)
    offsets = _reads(s)
    axis = -1 - len(shape)  # a value's offset axis, just before the point axes
    mixed = {}  # (a, b) -> f(x + a, t + b), from the x-pass to the t-pass

    def stacked(point):
        xs, ts = np.empty((2, len(offsets)) + shape)
        for j, d in enumerate(offsets):
            xs[j], ts[j] = point(d)
        return xs, ts

    def flux(xx, tt, fx, ft, row):
        forms, weights = geometry(xx, tt)
        out = None
        for surface, fm in enumerate(forms):
            sq = _sqrt_det_g(fm, scalar_ok=False)
            if out is None:
                out = np.empty((len(forms),) + np.broadcast_shapes(fx.shape, np.shape(sq)))
            for (rows, tensor), wv in zip(blocks, weights):
                if tensor == "g":
                    a11, a12, a22, det_a = fm.g11, fm.g12, fm.g22, fm.det_g()
                else:
                    a11, a12, a22, det_a = fm.h11, fm.h12, fm.h22, fm.det_h()
                w = sq if wv is None else sq * wv
                with np.errstate(invalid="ignore", divide="ignore"):
                    if row == 0:
                        value = w * (a22 * fx[rows] - a12 * ft[rows])
                    else:
                        value = w * (-a12 * fx[rows] + a11 * ft[rows])
                    np.divide(value, det_a, out=out[surface, rows])
        return out

    def x_flux():
        xa, t0 = stacked(lambda a: (x + a, t))

        def on_mixed(b):
            value = f(xa, t0 + b)
            mixed.update(((a, b), v) for a, v in zip(offsets, np.moveaxis(value, axis, 0)))
            return value

        fx = _quotient(lambda c: f(xa + c, t0), s)
        ft = _quotient(on_mixed, s)
        return flux(xa, t0, fx, ft, 0)

    def t_flux():
        x0, tb = stacked(lambda b: (x, t + b))
        fx = _quotient(lambda a: np.stack([mixed.pop((a, b)) for b in offsets], axis), s)
        ft = _quotient(lambda c: f(x0, tb + c), s)
        return flux(x0, tb, fx, ft, 1)

    def by_offset(fluxes):  # a reader of each offset's flux, once
        return dict(zip(offsets, np.moveaxis(fluxes, axis, 0))).pop

    div = _quotient(by_offset(x_flux()), s)
    div = div + _quotient(by_offset(t_flux()), s)
    for surface, fm in enumerate(forms_at):
        div[surface] /= _sqrt_det_g(fm, scalar_ok=True)
    return div


def laplace_beltrami(f, forms, x, t, forms_at, s: Stencil | None = None):
    """Surface Laplacian: (1/sqrt(det g)) d_i(sqrt(det g) g^{ij} d_j f).

    ``forms`` is the surface's :class:`Forms` field and ``forms_at`` its
    value at (x, t), the caller's.  f and ``forms`` are pointwise and take
    stacked points as :func:`_divergence_form` describes: at
    ``OPERATOR_STENCIL`` f is read at 108 points in 18 calls, and ``forms``
    twice, once per pass of flux points.
    """
    geometry = lambda xx, tt: ((forms(xx, tt),), (None,))
    return _divergence_form(f, geometry, x, t, (forms_at,), s)[0]


NEAR_SINGULAR_RTOL = 1e-10


def near_singular_mask(fm: Forms):
    """Points where the second fundamental form is numerically singular."""
    return np.abs(fm.det_h()) < NEAR_SINGULAR_RTOL * (fm.h11 + fm.h22) ** 2


def willmore_like_residual(curvatures, forms, a, b, x, t, at, s: Stencil | None = None):
    """Residual of the surface equation Lap(H) + a H^3 + b H K on the
    surface of the :class:`CurvaturePair` and :class:`Forms` fields.

    ``at`` is the surface's ``(Forms, CurvaturePair)`` at (x, t), which the
    caller evaluates, so that one evaluation of the surface there can serve
    both.  Lap(H) is :func:`laplace_beltrami`'s.  Returns (residual, scale),
    arrays of the shape of x and t, where scale is the pointwise magnitude
    of the largest algebraic term.
    """
    forms_at, cur = at
    lap_h = laplace_beltrami(lambda xx, tt: curvatures(xx, tt).H, forms, x, t, forms_at, s)
    t_a = a * cur.H ** 3
    t_b = b * cur.H * cur.K
    scale = np.maximum(np.maximum(np.abs(t_a), np.abs(t_b)), 1e-30)
    return lap_h + t_a + t_b, scale


def shape_equation_residual(curvatures, geometry, energies, x, t, at,
                            s: Stencil | None = None):
    """Residuals of the generalized shape equation for polynomial energies
    on several surfaces that share one :class:`CurvaturePair` field.

    ``geometry(xx, tt)`` returns ``(forms, cur)``: a sequence of
    :class:`Forms`, one per surface, and the shared :class:`CurvaturePair`,
    so that one evaluation of the surfaces at a set of points serves both;
    ``at`` is its value at (x, t), which a caller that also reads the forms
    there, as the ``shape`` check does for its near-singular mask,
    evaluates once for both.  For each energy E in the sequence
    ``energies``,
    (Lap + 4H^2 - 2K) dE/dH + 2 (div-bar + 2KH) dE/dK - 4 H E + 2p,
    where div-bar is the curvature-weighted operator.  Returns
    (residual, scale), arrays of shape (surfaces, energies) + the shape of
    x and t, scale the largest of the four term magnitudes.  The dE/dH
    fields of all energies, and the dE/dK fields of those that depend on K,
    are rows of one field from one ``curvatures`` call per stencil offset
    of a pass of flux points, and one divergence-form pass for all
    surfaces applies the Laplacian to the dE/dH rows and div-bar to the
    dE/dK rows.  ``curvatures`` and ``geometry`` are pointwise and take the
    pass's stacked points (see :func:`_divergence_form`).  At
    ``OPERATOR_STENCIL`` that is 18 curvature calls for the 108 stencil
    points and 2 geometry calls, one per pass of flux points, which give
    every surface's forms and the weight K, whatever the number of
    surfaces.  The terms are formed element by
    element, so every entry is bitwise what the energy gives alone on that
    surface alone, and the div-bar term of an energy free of K is exactly
    zero.  x and t may be a single point.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    energies = tuple(energies)
    if not energies:
        raise ValueError("shape_equation_residual needs at least one energy")
    # energies with no K-dependence contribute nothing through h^{ij}
    on_k = [e.depends_on_k() for e in energies]
    with_k = [e for e, dep in zip(energies, on_k) if dep]
    n_h = len(energies)

    def field(xx, tt):
        c = curvatures(xx, tt)
        out = np.empty((n_h + len(with_k),) + np.shape(c.H))
        for i, e in enumerate(energies):
            out[i] = e.dH(c.H, c.K)
        for i, e in enumerate(with_k):
            out[n_h + i] = e.dK(c.H, c.K)
        return out

    blocks = [(slice(0, n_h), "g")]
    if with_k:
        blocks.append((slice(n_h, None), "h"))

    def flux_geometry(xx, tt):
        forms, cur = geometry(xx, tt)
        return forms, (None, cur.K)[:len(blocks)]

    forms_at, cur = at
    ops = _divergence_form(field, flux_geometry, x, t, forms_at, s, blocks)
    h_, k_ = cur.H, cur.K
    # the terms read at (x, t) alone, one row per energy
    curv_h, curv_k, term3, term4 = np.empty((4, n_h) + np.shape(h_))
    for i, e in enumerate(energies):
        curv_h[i] = (4.0 * h_ ** 2 - 2.0 * k_) * e.dH(h_, k_)
        curv_k[i] = 2.0 * k_ * h_ * e.dK(h_, k_)
        term3[i] = -4.0 * h_ * e.eval(h_, k_)
        term4[i] = 2.0 * e.p + np.zeros_like(term3[i])
    # div-bar of each energy, zero for those free of K
    nabla = np.zeros_like(ops[:, :n_h])
    nabla[:, on_k] = ops[:, n_h:]
    term1 = ops[:, :n_h] + curv_h
    term2 = 2.0 * (nabla + curv_k)
    scale = np.maximum.reduce(np.broadcast_arrays(
        np.abs(term1), np.abs(term2), np.abs(term3), np.abs(term4), 1e-30))
    return term1 + term2 + term3 + term4, scale
