"""Deformation families (A, B), fundamental forms, and closed-form curvatures.

Three families of su(2) deformations are supported, each satisfying
the deformation consistency condition A_t - B_x + [A, V] + [U, B] = 0 on the
one-soliton background:

* spectral:        A = mu dU/dlam,  B = mu dV/dlam
* spectral-gauge:  the spectral pair plus the gauge pair ([M, U], [M, V])
                   generated by the constant traceless matrix M = i nu sigma2
* symmetry (u_x):  A, B obtained by differentiating U, V along the symmetry
                   direction u -> u + eps*phi with phi = u_x, scaled by mu

The spectral pair is the spectral-gauge pair at nu = 0, so two functions,
:func:`spectral_gauge_frame` and :func:`symmetry_frame`, map the soliton jet
(``soliton.Jet``) to a whole :class:`Frame`, (A, B) with their closed-form
x and t derivatives; each surface family (``immersion.Family``) holds its
frame as a function of the jet.  From a caller's frame and the frame normal
C = [A, B]/||[A, B]|| the first and second fundamental forms follow, and
from those the Gaussian and mean curvatures; the closed forms they are
checked against live in ``immersion``.
Everything here is pointwise on the caller's jet, which carries p, x and t;
grid statistics such as the sphere check's mean K are in ``verify``.

Every su(2) element here, A, B, their derivatives and U, V, is a Pauli-
component vector built by su2.vec: (x1, x2, x3) encodes the matrix
i(x1 sigma1 + x2 sigma2 + x3 sigma3).  So A = (0, 0, mu/2) of the spectral
family is (i mu/2) sigma3, and [., .] and <., .> are -2 x × y and x · y.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import su2
from .diffgeo import CurvaturePair, Forms, SingularPointError
from .lax import lax_U, lax_V
from .soliton import Jet


class Frame(NamedTuple):
    """A family's (A, B) and their closed-form x and t derivatives."""

    a: np.ndarray
    b: np.ndarray
    a_x: np.ndarray
    a_t: np.ndarray
    b_x: np.ndarray
    b_t: np.ndarray


def spectral_gauge_frame(j: Jet, nu: float) -> Frame:
    """The spectral pair mu d(U, V)/dlam plus the gauge pair ([M, U], [M, V])
    with M = i nu sigma2; at nu = 0, the spectral pair alone."""
    p, u = j.p, j.u
    ux, ut = j.u_x, j.u_t
    # Each nu term whose spectral part is zero is subtracted from +0.0: at
    # nu = 0 the entry is then +0.0, as mu d(U, V)/dlam has it, where the
    # product -nu * x would leave -0.0 for x > 0.
    omega = p.alpha + p.alpha * p.lam + p.lam ** 2
    c = p.alpha + p.lam
    b1 = -0.5 * p.mu * u + nu * (0.5 * u ** 2 - omega)
    b3 = 0.5 * p.mu * (p.alpha + 2.0 * p.lam) - nu * c * u
    return Frame(
        a=su2.vec(0.0 - nu * p.lam, 0.0, 0.5 * p.mu - nu * u),
        b=su2.vec(b1, 0.0, b3),
        a_x=su2.vec(0.0, 0.0, 0.0 - nu * ux),
        a_t=su2.vec(0.0, 0.0, 0.0 - nu * ut),
        b_x=su2.vec(-0.5 * p.mu * ux + nu * u * ux, 0.0, 0.0 - nu * c * ux),
        b_t=su2.vec(-0.5 * p.mu * ut + nu * u * ut, 0.0, 0.0 - nu * c * ut),
    )


def symmetry_frame(j: Jet) -> Frame:
    """A = mu dU[u_x], B = mu dV[u_x]: the linearization along phi = u_x."""
    p, u = j.p, j.u
    ux, ut, uxx, uxt = j.u_x, j.u_t, j.u_xx, j.u_xt
    m = -0.5 * p.mu
    c = p.alpha + p.lam
    return Frame(
        a=su2.vec(m * ux, 0.0, 0.0),
        b=su2.vec(m * c * ux, m * uxx, m * u * ux),
        a_x=su2.vec(m * uxx, 0.0, 0.0),
        a_t=su2.vec(m * uxt, 0.0, 0.0),
        b_x=su2.vec(m * c * uxx, m * j.u_xxx, m * (ux ** 2 + u * uxx)),
        b_t=su2.vec(m * c * uxt, m * j.u_xxt, m * (ut * ux + u * uxt)),
    )


def ab_compatibility_residual(j: Jet, f: Frame):
    """A_t - B_x + [A, V] + [U, B] with closed-form derivatives."""
    a, b, _, a_t, b_x, _ = f
    U = lax_U(j.u, j.p.lam)
    V = lax_V(j.u, j.u_x, j.p.lam, j.p.alpha)
    return a_t - b_x + su2.commutator(a, V) + su2.commutator(U, b)


# Degeneracy threshold for the frame normal, relative to ||A|| ||B||.
NORMAL_DEGENERACY_RTOL = 1e-12


def forms_from_ab(j: Jet, f: Frame) -> Forms:
    """Fundamental forms from the frame f on the jet j, (A, B) with U, V.

    g = (<A,A>, <A,B>, <B,B>) and
    h = (<A_x+[A,U], C>, <A_t+[A,V], C>, <B_t+[B,V], C>)
    with C = [A,B]/||[A,B]||.  The normal is degenerate where
    ||[A,B]|| <= NORMAL_DEGENERACY_RTOL ||A|| ||B||; such points yield NaN in
    the h coefficients for array input and raise SingularPointError for
    scalar input.
    """
    a, b, a_x, a_t, _, b_t = f
    U = lax_U(j.u, j.p.lam)
    V = lax_V(j.u, j.u_x, j.p.lam, j.p.alpha)

    comm = su2.commutator(a, b)
    norm = su2.su2_norm(comm)
    degenerate = norm <= NORMAL_DEGENERACY_RTOL * su2.su2_norm(a) * su2.su2_norm(b)
    if degenerate.ndim == 0:
        if degenerate:
            raise SingularPointError("degenerate normal: [A, B] vanishes at this point")
        c = comm / norm
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            c = comm / np.where(degenerate, np.nan, norm)[..., None]

    g11 = su2.su2_inner(a, a)
    g12 = su2.su2_inner(a, b)
    g22 = su2.su2_inner(b, b)
    h11 = su2.su2_inner(a_x + su2.commutator(a, U), c)
    h12 = su2.su2_inner(a_t + su2.commutator(a, V), c)
    h22 = su2.su2_inner(b_t + su2.commutator(b, V), c)
    return Forms(g11=g11, g12=g12, g22=g22, h11=h11, h12=h12, h22=h22)


def curvatures_from_forms(f: Forms) -> CurvaturePair:
    """K = det(h)/det(g), H = (g22 h11 - 2 g12 h12 + g11 h22) / (2 det g)."""
    det_g = f.det_g()
    scalar = np.ndim(det_g) == 0
    if scalar and det_g <= 0:
        raise SingularPointError(f"metric is not positive definite: det g = {det_g}")
    with np.errstate(invalid="ignore", divide="ignore"):
        k = f.det_h() / det_g
        h = (f.g22 * f.h11 - 2.0 * f.g12 * f.h12 + f.g11 * f.h22) / (2.0 * det_g)
    return CurvaturePair(K=k, H=h)
