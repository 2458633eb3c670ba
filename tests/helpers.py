"""Readings of package results that more than one test file takes."""

from dataclasses import replace

import numpy as np

from mkdvsurf.lagrangian import FLAT_MONOMIALS


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


def flat_coefficients(poly):
    """Coefficients of ``poly`` in the flat ordering of its degree."""
    return tuple(poly.coeffs.get(nl, 0.0) for nl in FLAT_MONOMIALS[poly.N])
