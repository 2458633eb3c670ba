"""Readings of package results that more than one test file takes."""

from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import sympy as sp

from mkdvsurf import su2
from mkdvsurf.deformation import Frame, symmetry_frame
from mkdvsurf.diffgeo import shape_equation_residual
from mkdvsurf.immersion import SPECTRAL3, SPECTRAL_GAUGE4
from mkdvsurf.lagrangian import FLAT_MONOMIALS
from mkdvsurf.soliton import Jet, jet

# The frames of the three deformation families by name: spectral3's (the
# spectral pair), spectralgauge4's (spectral plus gauge) and the u_x symmetry's.
FRAMES = {"spectral": SPECTRAL3.frame, "spectral-gauge": SPECTRAL_GAUGE4.frame,
          "symmetry-ux": symmetry_frame}


def far_field_distance(family, j, y=None):
    """Distance of (y2, y3) of the position ``y`` (by default the family's
    position on the jet ``j``) from its far-field limit: the position at
    sech xi = 0 and tanh xi = +1 or -1 by the sign of xi.

    The distance is C sech(xi), C = 2|mu| k1 / (k1^2 + 4 lam^2): exactly for
    spectral3 (C = 4|R1|); for spectralgauge4 C = |R4|/2 and the terms in
    R5, R6 and R7 add O(sech^2 xi), a relative correction of O(sech xi).
    """
    if y is None:
        y = family.position(j)
    lim = family.position(replace(j, s=0.0, tau=np.where(j.xi >= 0.0, 1.0, -1.0)))
    return np.hypot(y[..., 1] - lim[..., 1], y[..., 2] - lim[..., 2])


def typed_spectral_frame(j):
    """The spectral frame A = mu dU/dlam, B = mu dV/dlam with its derivatives,
    each entry typed out on its own: the reference that the spectral-gauge
    frame at nu = 0 reproduces bit for bit."""
    p, u = j.p, j.u
    zero = su2.vec(np.zeros_like(u), 0.0, 0.0)
    return Frame(
        a=su2.vec(np.zeros_like(u), 0.0, 0.5 * p.mu),
        b=su2.vec(-0.5 * p.mu * u, 0.0, 0.5 * p.mu * (p.alpha + 2.0 * p.lam)),
        a_x=zero,
        a_t=zero,
        b_x=su2.vec(-0.5 * p.mu * j.u_x, 0.0, 0.0),
        b_t=su2.vec(-0.5 * p.mu * j.u_t, 0.0, 0.0),
    )


def flat_coefficients(poly):
    """Coefficients of ``poly`` in the flat ordering of its degree."""
    return tuple(poly.coeffs.get(nl, 0.0) for nl in FLAT_MONOMIALS[poly.N])


def printed_cubic(K, H, p):
    """The cubic K-H relation as the paper prints it: its constant term is
    (k1^2 + 2 lam^2)^2, a quarter of the 4 (k1^2 + 2 lam^2)^2 that
    ``immersion.weingarten_residuals`` corrects it to."""
    m2, c = p.mu ** 2, p.k1 ** 2 + 2.0 * p.lam ** 2
    return (8.0 * m2 * H ** 2 * (m2 * K + p.k1 ** 2) - 9.0 * m2 ** 2 * K ** 2
            - 12.0 * m2 * c * K - c ** 2)


def su2_to_vec(f):
    """The components of the su(2) matrices ``f``, after the membership test
    that raises ValueError on a matrix that is not su(2)."""
    su2.check_su2(*su2.su2_defects(f))
    return su2.su2_components(f)


class Fields(NamedTuple):
    """One surface's (x, t) position, forms and curvature fields."""

    position: Callable
    forms: Callable
    curvatures: Callable


def fields(family, p):
    """The :class:`Fields` of ``family`` at the parameters ``p``: each closed
    form on the soliton's jet at the points, as ``verify``'s runners build
    them."""
    return Fields(*(lambda x, t, closed=closed: closed(jet(x, t, p))
                    for closed in (family.position, family.forms, family.curvatures)))


def shape_geometry(*surfaces):
    """The geometry field of ``diffgeo.shape_equation_residual`` for the
    :class:`Fields` ``surfaces``, which share the first one's curvatures:
    every surface's forms and those curvatures at the points."""
    return lambda x, t: (tuple(f.forms(x, t) for f in surfaces), surfaces[0].curvatures(x, t))


def shape_residuals(surface, energies, x, t, s=None):
    """``diffgeo.shape_equation_residual`` on the one surface of the
    :class:`Fields` ``surface``: its (residual, scale) pair per energy."""
    geometry = shape_geometry(surface)
    res, scale = shape_equation_residual(surface.curvatures, geometry, energies,
                                         x, t, geometry(x, t), s)
    return list(zip(res[0], scale[0]))


class Symbolic(NamedTuple):
    """The symbolic model of the soliton (:func:`symbolic_model`)."""

    jet: Jet
    S: sp.Symbol
    T: sp.Symbol

    def reduce(self, expr):
        """``expr`` with its float constants as exact rationals, expanded and
        reduced by T^2 = 1 - S^2: 0 exactly when ``expr`` vanishes on the
        soliton."""
        expr = sp.expand(sp.nsimplify(sp.sympify(expr), rational=True))
        return sp.expand(sp.rem(expr, self.T ** 2 + self.S ** 2 - 1, self.T))

    def d_xi(self, expr):
        """d/d(xi) by the chain rule, with dS/dxi = -S T and dT/dxi = S^2."""
        expr = sp.sympify(expr)
        return sp.diff(expr, self.S) * (-self.S * self.T) + sp.diff(expr, self.T) * self.S ** 2


def symbolic_model() -> Symbolic:
    """A soliton jet in symbols, for exact proofs of the pointwise kernels.

    The parameter record is duck-typed: k1, lam, mu and nu are symbols and
    alpha is k1^2/4 exactly.  The jet's s = sech(xi) and tau = tanh(xi) are
    the symbols S and T, tied by T^2 = 1 - S^2 (:meth:`Symbolic.reduce`), so
    the kernels, which compute in their jet's type, return sympy
    expressions, held in object arrays.
    """
    k1, lam, mu, nu = sp.symbols("k1 lambda mu nu", real=True)
    x, t, xi, S, T = sp.symbols("x t xi S T", real=True)
    p = SimpleNamespace(k1=k1, lam=lam, mu=mu, nu=nu, alpha=k1 ** 2 / 4)
    return Symbolic(Jet(p, x, t, xi, S, T), S, T)
