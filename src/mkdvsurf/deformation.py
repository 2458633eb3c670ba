"""Deformation families (A, B), fundamental forms, and closed-form curvatures.

Three families of su(2) deformations are supported, each satisfying
the deformation consistency condition A_t - B_x + [A, V] + [U, B] = 0 on the
one-soliton background:

* spectral:        A = mu dU/dlam,  B = mu dV/dlam
* spectral-gauge:  the spectral pair plus the gauge pair ([M, U], [M, V])
                   generated by the constant traceless matrix M = i nu sigma2
* symmetry (u_x):  A, B obtained by differentiating U, V along the symmetry
                   direction u -> u + eps*phi with phi = u_x, scaled by mu

From (A, B) and the frame normal C = [A, B]/||[A, B]|| the first and second
fundamental forms follow, and from those the Gaussian and mean curvatures.
Closed-form curvature expressions for the spectral and spectral-gauge
families are provided for cross-checking.

Every su(2) element here, A, B, their derivatives and U, V, is a Pauli-
component vector built by su2.vec: (x1, x2, x3) encodes the matrix
i(x1 sigma1 + x2 sigma2 + x3 sigma3).  So A = (0, 0, mu/2) of the spectral
family is (i mu/2) sigma3, and [., .] and <., .> are -2 x × y and x · y.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import soliton, su2
from .lax import lax_U, lax_V
from .soliton import SolitonParams


class SingularPointError(ValueError):
    """Raised when a pointwise geometric quantity degenerates."""


class DeformationKind(str, Enum):
    SPECTRAL = "spectral"
    SPECTRAL_GAUGE = "spectral-gauge"
    SYMMETRY_UX = "symmetry-ux"


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


def validate_kind(kind: DeformationKind, p: SolitonParams) -> None:
    if kind is DeformationKind.SPECTRAL and p.mu == 0:
        raise ValueError("spectral family requires mu != 0")
    if kind is DeformationKind.SPECTRAL_GAUGE and p.mu == 0 and p.nu == 0:
        raise ValueError("spectral-gauge family requires (mu, nu) != (0, 0)")


def ab_spectral(u, p: SolitonParams):
    """A = mu dU/dlam (constant diagonal), B = mu dV/dlam."""
    if p.mu == 0:
        raise ValueError("spectral family requires mu != 0")
    u = np.asarray(u, dtype=float)
    a = su2.vec(np.zeros_like(u), 0.0, 0.5 * p.mu)
    b = su2.vec(-0.5 * p.mu * u, 0.0, 0.5 * p.mu * (p.alpha + 2.0 * p.lam))
    return a, b


def ab_spectral_gauge(u, p: SolitonParams):
    """The spectral pair plus the gauge pair with M = i nu sigma2."""
    if p.mu == 0 and p.nu == 0:
        raise ValueError("spectral-gauge family requires (mu, nu) != (0, 0)")
    u = np.asarray(u, dtype=float)
    omega = p.alpha + p.alpha * p.lam + p.lam ** 2
    a = su2.vec(-p.nu * p.lam, 0.0, 0.5 * p.mu - p.nu * u)
    b1 = -0.5 * p.mu * u + p.nu * (0.5 * u ** 2 - omega)
    b3 = 0.5 * p.mu * (p.alpha + 2.0 * p.lam) - p.nu * (p.alpha + p.lam) * u
    b = su2.vec(b1, 0.0, b3)
    return a, b


def ab_symmetry(u, u_x, u_xx, p: SolitonParams):
    """A = mu dU[u_x], B = mu dV[u_x]: the linearization along phi = u_x."""
    u = np.asarray(u, dtype=float)
    a = su2.vec(-0.5 * p.mu * u_x, 0.0, 0.0)
    b = su2.vec(
        -0.5 * p.mu * (p.alpha + p.lam) * u_x,
        -0.5 * p.mu * np.asarray(u_xx, dtype=float),
        -0.5 * p.mu * u * u_x,
    )
    return a, b


def ab_at(x, t, p: SolitonParams, kind: DeformationKind):
    """Evaluate the family's (A, B) on the soliton at (x, t)."""
    uu = soliton.u(x, t, p)
    if kind is DeformationKind.SPECTRAL:
        return ab_spectral(uu, p)
    if kind is DeformationKind.SPECTRAL_GAUGE:
        return ab_spectral_gauge(uu, p)
    return ab_symmetry(uu, soliton.u_x(x, t, p), soliton.u_xx(x, t, p), p)


def ab_derivs_at(x, t, p: SolitonParams, kind: DeformationKind):
    """Closed-form (A_x, A_t, B_x, B_t) for the family on the soliton."""
    uu = np.asarray(soliton.u(x, t, p), dtype=float)
    ux = soliton.u_x(x, t, p)
    ut = soliton.u_t(x, t, p)

    if kind is DeformationKind.SPECTRAL:
        a_x = su2.vec(np.zeros_like(uu), 0.0, 0.0)
        a_t = a_x
        b_x = su2.vec(-0.5 * p.mu * ux, 0.0, 0.0)
        b_t = su2.vec(-0.5 * p.mu * ut, 0.0, 0.0)
        return a_x, a_t, b_x, b_t

    if kind is DeformationKind.SPECTRAL_GAUGE:
        a_x = su2.vec(0.0, 0.0, -p.nu * ux)
        a_t = su2.vec(0.0, 0.0, -p.nu * ut)
        b_x = su2.vec(-0.5 * p.mu * ux + p.nu * uu * ux, 0.0, -p.nu * (p.alpha + p.lam) * ux)
        b_t = su2.vec(-0.5 * p.mu * ut + p.nu * uu * ut, 0.0, -p.nu * (p.alpha + p.lam) * ut)
        return a_x, a_t, b_x, b_t

    uxx = soliton.u_xx(x, t, p)
    uxt = soliton.u_xt(x, t, p)
    uxxx = soliton.u_xxx(x, t, p)
    uxxt = soliton.u_xxt(x, t, p)
    c = p.alpha + p.lam
    a_x = su2.vec(-0.5 * p.mu * uxx, 0.0, 0.0)
    a_t = su2.vec(-0.5 * p.mu * uxt, 0.0, 0.0)
    b_x = su2.vec(
        -0.5 * p.mu * c * uxx,
        -0.5 * p.mu * uxxx,
        -0.5 * p.mu * (ux ** 2 + uu * uxx),
    )
    b_t = su2.vec(
        -0.5 * p.mu * c * uxt,
        -0.5 * p.mu * uxxt,
        -0.5 * p.mu * (ut * ux + uu * uxt),
    )
    return a_x, a_t, b_x, b_t


def ab_compatibility_residual(x, t, p: SolitonParams, kind: DeformationKind):
    """A_t - B_x + [A, V] + [U, B] with closed-form derivatives."""
    a, b = ab_at(x, t, p, kind)
    _, a_t, b_x, _ = ab_derivs_at(x, t, p, kind)
    uu = soliton.u(x, t, p)
    U = lax_U(uu, p.lam)
    V = lax_V(uu, soliton.u_x(x, t, p), p.lam, p.alpha)
    return a_t - b_x + su2.commutator(a, V) + su2.commutator(U, b)


# Degeneracy threshold for the frame normal, relative to ||A|| ||B||.
NORMAL_DEGENERACY_RTOL = 1e-12


def forms_from_ab(x, t, p: SolitonParams, kind: DeformationKind) -> Forms:
    """Fundamental forms from the frame (A, B, U, V).

    g = (<A,A>, <A,B>, <B,B>) and
    h = (<A_x+[A,U], C>, <A_t+[A,V], C>, <B_t+[B,V], C>)
    with C = [A,B]/||[A,B]||.  The normal is degenerate where
    ||[A,B]|| <= NORMAL_DEGENERACY_RTOL ||A|| ||B||; such points yield NaN in
    the h coefficients for array input and raise SingularPointError for
    scalar input.
    """
    a, b = ab_at(x, t, p, kind)
    a_x, a_t, _, b_t = ab_derivs_at(x, t, p, kind)
    uu = soliton.u(x, t, p)
    U = lax_U(uu, p.lam)
    V = lax_V(uu, soliton.u_x(x, t, p), p.lam, p.alpha)

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


def curvatures_spectral_closed(u, p: SolitonParams) -> CurvaturePair:
    """K = (2/mu^2)(u^2 - 2 alpha), H = (3u^2 + 2(lam^2 - alpha)) / (2 mu u)."""
    u = np.asarray(u, dtype=float)
    k = (2.0 / p.mu ** 2) * (u ** 2 - 2.0 * p.alpha)
    with np.errstate(invalid="ignore", divide="ignore"):
        h = (3.0 * u ** 2 + 2.0 * (p.lam ** 2 - p.alpha)) / (2.0 * p.mu * u)
    return CurvaturePair(K=k, H=h)


def spectral_gauge_curvature_denominator(u, p: SolitonParams):
    """The shared denominator of the spectral-gauge K and (halved) H."""
    u = np.asarray(u, dtype=float)
    return (
        p.nu
        * (
            2.0 * p.nu * u * (u ** 2 - 2.0 * p.alpha)
            - 3.0 * p.mu * u ** 2
            - 2.0 * p.mu * (p.lam ** 2 - p.alpha)
        )
        + p.mu ** 2 * u
    )


def curvatures_spectral_gauge_closed(u, p: SolitonParams) -> CurvaturePair:
    """Closed-form K, H of the spectral-gauge family; poles where the shared
    denominator vanishes are genuine singular points of the family."""
    u = np.asarray(u, dtype=float)
    den = spectral_gauge_curvature_denominator(u, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        k = 2.0 * u * (u ** 2 - 2.0 * p.alpha) / den
        h = (
            p.mu * (3.0 * u ** 2 + 2.0 * (p.lam ** 2 - p.alpha))
            - 4.0 * u * p.nu * (u ** 2 - 2.0 * p.alpha)
        ) / (2.0 * den)
    return CurvaturePair(K=k, H=h)


@dataclass(frozen=True)
class SphereCheckReport:
    K: np.ndarray
    H: np.ndarray
    radius_estimate: float
    expected_radius: float
    k_rel_spread: float
    h2_minus_k_rel: float
    excluded: int


def symmetry_sphere_check(p: SolitonParams, x, t) -> SphereCheckReport:
    """Evaluate the symmetry(u_x) family over a grid and summarize sphericity.

    Requires lam != 0.  Points with a degenerate normal (the crest u_x = 0)
    are excluded and counted.  The expected radius is |alpha mu / (2 lam)|.
    """
    if p.lam == 0:
        raise ValueError("sphere check requires lam != 0")
    f = forms_from_ab(x, t, p, DeformationKind.SYMMETRY_UX)
    cur = curvatures_from_forms(f)
    k = np.asarray(cur.K, dtype=float)
    h = np.asarray(cur.H, dtype=float)
    good = np.isfinite(k) & np.isfinite(h)
    excluded = int(k.size - np.count_nonzero(good))
    kg, hg = k[good], h[good]
    if kg.size == 0:
        raise SingularPointError("all grid points degenerate; enlarge the grid")
    k_mean = float(np.mean(kg))
    report = SphereCheckReport(
        K=k,
        H=h,
        radius_estimate=float(1.0 / np.sqrt(abs(k_mean))),
        expected_radius=abs(p.alpha * p.mu / (2.0 * p.lam)),
        k_rel_spread=float(np.max(np.abs(kg - k_mean)) / abs(k_mean)),
        h2_minus_k_rel=float(np.max(np.abs(hg ** 2 - kg)) / abs(k_mean)),
        excluded=excluded,
    )
    return report
