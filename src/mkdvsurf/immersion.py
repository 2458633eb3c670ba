"""Closed-form soliton-surface immersions in R^3.

Position vectors for the three-parameter (spectral) and four-parameter
(spectral-gauge) families and their closed-form fundamental forms and
curvatures, bundled per family in a :class:`Family` record; the bundled
example presets and :func:`resolve`, which turns a preset or a family with
parameters into a configuration; curvature-relation residuals; and the
end-to-end consistency check tying position derivatives back to the frame
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from . import su2
from .deformation import (
    CurvaturePair,
    DeformationKind,
    Forms,
    ab_at,
    curvatures_spectral_gauge_closed,
    spectral_gauge_curvature_denominator,
    validate_kind,
)
from .diffgeo import SurfaceProviders
from .lax import PhiConstants, canonical_constants, phi
from .soliton import SolitonParams, _sech_tanh
from .soliton import xi as soliton_xi


@dataclass(frozen=True)
class ThreeParamAux:
    """Scalar radius and the phase/drift fields of the three-parameter family."""

    R1: float
    G: np.ndarray
    E: np.ndarray


@dataclass(frozen=True)
class FourParamAux:
    """Radii and phase/drift fields of the four-parameter family."""

    R2: float
    R3: float
    R4: float
    R5: float
    R6: float
    R7: float
    G: np.ndarray
    E_tilde: np.ndarray


def _phase(x, t, p: SolitonParams):
    # shared rotation phase of both families
    return t * (p.lam ** 2 + 0.25 * p.k1 ** 2 * (1.0 + p.lam)) + x * p.lam


def three_param_aux(x, t, p: SolitonParams) -> ThreeParamAux:
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    d = p.k1 ** 2 + 4.0 * p.lam ** 2
    return ThreeParamAux(
        R1=-p.mu * p.k1 / (2.0 * d),
        G=_phase(x, t, p),
        E=(t * (8.0 * p.lam + p.k1 ** 2) + 4.0 * x) * d,
    )


def four_param_aux(x, t, p: SolitonParams) -> FourParamAux:
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    d = p.k1 ** 2 + 4.0 * p.lam ** 2
    return FourParamAux(
        R2=2.0 * p.k1 ** 2 * p.nu / d,
        R3=p.mu / 8.0,
        R4=4.0 * p.mu * p.k1 / d,
        R5=p.nu * (p.k1 ** 2 - 4.0 * p.lam ** 2) / d,
        R6=p.nu * (4.0 * p.lam ** 2 + 3.0 * p.k1 ** 2) / (2.0 * d),
        R7=4.0 * p.lam * p.k1 * p.nu / d,
        G=_phase(x, t, p),
        E_tilde=t * (8.0 * p.lam + p.k1 ** 2) + 4.0 * x,
    )


def three_param_position(x, t, p: SolitonParams) -> np.ndarray:
    """Position vector (..., 3) of the three-parameter surface family.

    Overflow-free evaluation: 1/(e^{2 xi} + 1) is written as (1 - tanh xi)/2.
    """
    a = three_param_aux(x, t, p)
    s, tau = _sech_tanh(x, t, p)
    y1 = -a.R1 * a.E / (4.0 * p.k1) - 4.0 * a.R1 * (1.0 - tau)
    y2 = -4.0 * a.R1 * np.cos(a.G) * s
    y3 = -4.0 * a.R1 * np.sin(a.G) * s
    return np.stack(np.broadcast_arrays(y1, y2, y3), axis=-1)


def four_param_position(x, t, p: SolitonParams) -> np.ndarray:
    """Position vector (..., 3) of the four-parameter surface family.

    Stable rewrites: 1/(e^{2 xi}+1) = (1 - tanh xi)/2 and
    (e^{4 xi}+1)/(e^{2 xi}+1)^2 = 1 - sech^2(xi)/2.
    """
    a = four_param_aux(x, t, p)
    s, tau = _sech_tanh(x, t, p)
    cg, sg = np.cos(a.G), np.sin(a.G)
    y1 = a.R2 * tau * s + a.R3 * a.E_tilde + 0.5 * a.R4 * (1.0 - tau)
    radial = 0.5 * a.R4 * s + a.R5 * (1.0 - 0.5 * s ** 2) - a.R6 * s ** 2
    y2 = radial * cg + a.R7 * tau * sg
    y3 = radial * sg - a.R7 * tau * cg
    return np.stack(np.broadcast_arrays(y1, y2, y3), axis=-1)


def three_param_forms_closed(x, t, p: SolitonParams) -> Forms:
    """First and second fundamental forms of the three-parameter family."""
    s, _ = _sech_tanh(x, t, p)
    al = p.alpha + p.lam
    a2l = p.alpha + 2.0 * p.lam
    quarter_mu2 = 0.25 * p.mu ** 2
    h_base = 0.5 * p.mu * p.k1 * s
    zeros = np.zeros_like(s)
    return Forms(
        g11=quarter_mu2 + zeros,
        g12=quarter_mu2 * a2l + zeros,
        g22=quarter_mu2 * (a2l ** 2 + (p.k1 * s) ** 2),
        h11=h_base,
        h12=h_base * al,
        h22=h_base * al ** 2 + 0.125 * p.mu * p.k1 ** 3 * s * (2.0 * s ** 2 - 1.0),
    )


def three_param_curvatures_closed(x, t, p: SolitonParams) -> CurvaturePair:
    """Gaussian and mean curvature of the three-parameter family."""
    s, _ = _sech_tanh(x, t, p)
    k = (p.k1 ** 2 / p.mu ** 2) * (2.0 * s ** 2 - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        h = (6.0 * p.k1 ** 2 * s ** 2 + 4.0 * p.lam ** 2 - p.k1 ** 2) / (
            4.0 * p.mu * p.k1 * s
        )
    return CurvaturePair(K=k, H=h)


def four_param_forms_closed(x, t, p: SolitonParams) -> Forms:
    """First and second fundamental forms of the four-parameter family.

    Polynomials in u = k1 sech(xi); the orientation of h matches the
    rational closed forms, i.e. the frame convention times the sign of the
    curvature denominator (see Family.orientation).
    """
    s, _ = _sech_tanh(x, t, p)
    u = p.k1 * s
    al, lam, mu, nu = p.alpha, p.lam, p.mu, p.nu
    c2 = al ** 2 + (2.0 * lam - 1.0) * al + lam ** 2
    c4 = ((1.0 + lam) * al + lam ** 2) ** 2
    g11 = 0.25 * mu ** 2 + nu * (nu * (u ** 2 + lam ** 2) - mu * u)
    g12 = 0.25 * (al + 2.0 * lam) * mu ** 2 + 0.25 * nu * (
        nu * (2.0 * (lam + 2.0 * al) * u ** 2 + 4.0 * (lam ** 3 + al * lam + lam ** 2 * al))
        - 4.0 * mu * (al + lam) * u
    )
    g22 = 0.25 * (u ** 2 + (2.0 * lam + al) ** 2) * mu ** 2 + nu * (
        nu * (0.25 * u ** 4 + al * (al - 1.0 + lam) * u ** 2 + c4)
        - 0.5 * mu * u ** 3
        - mu * c2 * u
    )
    h11 = 0.5 * mu * u - nu * (u ** 2 + lam ** 2)
    h12 = 0.5 * mu * (al + lam) * u - nu * (
        lam * (lam ** 2 + al * lam + al) + 0.5 * (lam + 2.0 * al) * u ** 2
    )
    h22 = 0.25 * mu * (u ** 3 + 2.0 * c2 * u) - nu * (
        0.25 * u ** 4 + al * (al - 1.0 + lam) * u ** 2 + c4
    )
    return Forms(g11=g11, g12=g12, g22=g22, h11=h11, h12=h12, h22=h22)


def four_param_curvatures_closed(x, t, p: SolitonParams) -> CurvaturePair:
    """Gaussian and mean curvature of the four-parameter family."""
    s, _ = _sech_tanh(x, t, p)
    return curvatures_spectral_gauge_closed(p.k1 * s, p)


def _three_param_asymptote(x, t, p: SolitonParams, branch: int):
    # y2 and y3 carry a factor sech(xi): the surface closes onto its axis
    z = np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)
    return z, z.copy()


def _four_param_asymptote(x, t, p: SolitonParams, branch: int):
    a = four_param_aux(x, t, p)
    cg, sg = np.cos(a.G), np.sin(a.G)
    return (a.R5 * cg + branch * a.R7 * sg,
            a.R5 * sg - branch * a.R7 * cg)


@dataclass(frozen=True)
class Family:
    """One surface family: its public name, frame kind and closed forms.

    ``position``, ``forms`` and ``curvatures`` take (x, t, p).
    ``denominator`` takes (u, p): the shared denominator of the closed-form
    K and H, whose zeros are the family's singular points and whose sign
    orients the closed forms against the frame.  ``asymptotic_profile``
    takes (x, t, p, branch) and gives the (y2, y3) limit as xi -> +inf
    (branch +1) or -inf (branch -1); (y2, y3) approaches it at the distance
    C sech(xi), C = 2|mu| k1 / (k1^2 + 4 lam^2) (see
    :func:`asymptotic_deviation`).  ``FAMILIES`` holds one per family.
    """

    name: str
    kind: DeformationKind
    position: Callable[..., np.ndarray]
    forms: Callable[..., Forms]
    curvatures: Callable[..., CurvaturePair]
    denominator: Callable[..., np.ndarray]
    asymptotic_profile: Callable[..., tuple[np.ndarray, np.ndarray]]

    def validate(self, p: SolitonParams) -> None:
        validate_kind(self.kind, p)

    def orientation(self, u, p: SolitonParams):
        """Sign relating the closed-form H to the frame-computed H.

        The closed forms normalize the normal by a signed rational factor;
        the frame pipeline always divides by ||[A, B]|| > 0.  The two agree
        up to the sign of the shared denominator, returned here (+1, -1, or
        0 at a pole).  K is a ratio of determinants and needs no adjustment.
        """
        self.validate(p)
        return np.sign(self.denominator(u, p))

    def providers(self, p: SolitonParams) -> SurfaceProviders:
        """Closed-form provider bundle for the finite-difference oracle."""

        def metric(x, t):
            f = self.forms(x, t, p)
            return f.g11, f.g12, f.g22

        def second_form(x, t):
            f = self.forms(x, t, p)
            return f.h11, f.h12, f.h22

        return SurfaceProviders(
            position=lambda x, t: self.position(x, t, p),
            metric=metric,
            second_form=second_form,
            curvatures=lambda x, t: self.curvatures(x, t, p),
        )


# The closed forms are called through their module-level names, not stored
# as function objects, so that replacing one of them in this module (to
# profile or instrument it) reaches every caller of the record as well.
SPECTRAL3 = Family(
    name="spectral3",
    kind=DeformationKind.SPECTRAL,
    position=lambda x, t, p: three_param_position(x, t, p),
    forms=lambda x, t, p: three_param_forms_closed(x, t, p),
    curvatures=lambda x, t, p: three_param_curvatures_closed(x, t, p),
    # the spectral-gauge denominator at nu = 0
    denominator=lambda u, p: p.mu ** 2 * np.asarray(u, dtype=float),
    asymptotic_profile=_three_param_asymptote,
)

SPECTRAL_GAUGE4 = Family(
    name="spectralgauge4",
    kind=DeformationKind.SPECTRAL_GAUGE,
    position=lambda x, t, p: four_param_position(x, t, p),
    forms=lambda x, t, p: four_param_forms_closed(x, t, p),
    curvatures=lambda x, t, p: four_param_curvatures_closed(x, t, p),
    denominator=spectral_gauge_curvature_denominator,
    asymptotic_profile=_four_param_asymptote,
)

FAMILIES: dict[str, Family] = {f.name: f for f in (SPECTRAL3, SPECTRAL_GAUGE4)}


class PresetId(str, Enum):
    EX2 = "ex2"
    EX3 = "ex3"
    EX4 = "ex4"
    EX5 = "ex5"
    EX6 = "ex6"
    EX7 = "ex7"
    EX8 = "ex8"


@dataclass(frozen=True)
class Preset:
    """A bundled parameter set with its plotting window.

    Parameter values are exact rationals; nu is None for the three-parameter
    family.
    """

    id: PresetId
    k1: Fraction
    lam: Fraction
    mu: Fraction
    nu: Fraction | None
    window: tuple[tuple[float, float], tuple[float, float]]

    @property
    def family(self) -> Family:
        return SPECTRAL3 if self.nu is None else SPECTRAL_GAUGE4

    @property
    def params(self) -> SolitonParams:
        return SolitonParams(
            k1=float(self.k1),
            lam=float(self.lam),
            mu=float(self.mu),
            nu=0.0 if self.nu is None else float(self.nu),
        )

    def position(self, x, t) -> np.ndarray:
        return self.family.position(x, t, self.params)

    def curvatures(self, x, t) -> CurvaturePair:
        return self.family.curvatures(x, t, self.params)


def _pr(pid, k1, lam, mu, nu, half_width) -> Preset:
    w = (-float(half_width), float(half_width))
    return Preset(id=pid, k1=Fraction(k1), lam=Fraction(lam), mu=Fraction(mu),
                  nu=None if nu is None else Fraction(nu), window=(w, w))


PRESETS: dict[PresetId, Preset] = {
    PresetId.EX2: _pr(PresetId.EX2, 2, 1, -8, None, 3),
    PresetId.EX3: _pr(PresetId.EX3, 2, 0, -4, None, 6),
    PresetId.EX4: _pr(PresetId.EX4, 3, "1/10", "-452/75", None, 6),
    PresetId.EX5: _pr(PresetId.EX5, 1, "-1/10", "-52/25", None, 20),
    PresetId.EX6: _pr(PresetId.EX6, 2, 0, -4, 1, 4),
    PresetId.EX7: _pr(PresetId.EX7, 2, 1, "1/10", 1, 6),
    PresetId.EX8: _pr(PresetId.EX8, 1, "-1/10", "-52/25", -1, 20),
}


def preset(pid: PresetId | str) -> Preset:
    """Look up a bundled preset by id ("ex2" .. "ex8")."""
    if isinstance(pid, str):
        try:
            pid = PresetId(pid.lower())
        except ValueError:
            valid = ", ".join(sorted(p.value for p in PresetId))
            raise ValueError(f"unknown preset {pid!r}; valid ids: {valid}") from None
    return PRESETS[pid]


Window = tuple[float, float]


def resolve(
    preset_id: PresetId | str | None = None,
    family: str | None = None,
    params: SolitonParams | None = None,
    x_range: Window | None = None,
    t_range: Window | None = None,
) -> tuple[Family, SolitonParams, str | None, tuple[Window | None, Window | None]]:
    """Turn a preset id, or a family name with parameters, into
    (family, params, preset id, (x_range, t_range)).

    A preset supplies family, parameters and window, and explicit ranges
    override its window.  Without a preset the ranges are returned as given,
    None included, for the caller to default or reject.
    """
    if preset_id is not None:
        pre = preset(preset_id)
        window = (pre.window[0] if x_range is None else x_range,
                  pre.window[1] if t_range is None else t_range)
        return pre.family, pre.params, pre.id.value, window
    if family not in FAMILIES:
        valid = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r}; valid families: {valid}")
    if params is None:
        raise ValueError("params required when no preset is given")
    return FAMILIES[family], params, None, (x_range, t_range)


def _inv2(m: np.ndarray) -> np.ndarray:
    # adjugate inverse of stacked 2x2 matrices
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 1, 1] = m[..., 0, 0]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    return out / det[..., None, None]


def frame_tangents(x, t, p: SolitonParams, kind: DeformationKind,
                   c: PhiConstants | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Tangent vectors (y_x, y_t) = (Phi^-1 A Phi, Phi^-1 B Phi), as (..., 3)."""
    if c is None:
        c = canonical_constants(p)
    f = phi(x, t, p, c)
    finv = _inv2(f)
    a, b = ab_at(x, t, p, kind)
    yx = su2.su2_to_vec(finv @ su2.vec_to_su2(a) @ f)
    yt = su2.su2_to_vec(finv @ su2.vec_to_su2(b) @ f)
    return yx, yt


def position_consistency_residual(
    x,
    t,
    p: SolitonParams,
    family: Family,
    c: PhiConstants | None = None,
    h: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual between FD position derivatives and the frame tangents.

    Central fourth-order differences of the closed-form position are compared
    componentwise against the conjugated deformation frame; both residual
    arrays have shape (..., 3).
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)

    def pos(xx, tt):
        return family.position(xx, tt, p)

    yx_fd = (
        8.0 * (pos(x + h, t) - pos(x - h, t)) - (pos(x + 2 * h, t) - pos(x - 2 * h, t))
    ) / (12.0 * h)
    yt_fd = (
        8.0 * (pos(x, t + h) - pos(x, t - h)) - (pos(x, t + 2 * h) - pos(x, t - 2 * h))
    ) / (12.0 * h)
    yx_fr, yt_fr = frame_tangents(x, t, p, family.kind, c)
    return yx_fd - yx_fr, yt_fd - yt_fr


@dataclass(frozen=True)
class WeingartenResiduals:
    """Residuals of the curvature relations, with normalization scales."""

    cubic: np.ndarray
    cubic_scale: np.ndarray
    quadratic: np.ndarray | None
    quadratic_scale: np.ndarray | None


def weingarten_residuals(K, H, p: SolitonParams,
                         paper_literal: bool = False) -> WeingartenResiduals:
    """Evaluate the cubic (and, when k1 = 2 lam, quadratic) K-H relations.

    The cubic's constant term is 4 (k1^2 + 2 lam^2)^2; with paper_literal the
    coefficient 4 is dropped, reproducing a documented nonzero defect.
    """
    K = np.asarray(K, dtype=float)
    H = np.asarray(H, dtype=float)
    m2 = p.mu ** 2
    c = p.k1 ** 2 + 2.0 * p.lam ** 2
    t1 = 8.0 * m2 * H ** 2 * (m2 * K + p.k1 ** 2)
    t2 = 9.0 * m2 ** 2 * K ** 2
    t3 = 12.0 * m2 * c * K
    t4 = (1.0 if paper_literal else 4.0) * c ** 2
    cubic = t1 - t2 - t3 - t4
    cubic_scale = np.maximum.reduce(
        [np.abs(t1), np.abs(t2), np.abs(t3), np.full_like(t1, abs(t4))]
    )
    quadratic = quadratic_scale = None
    if abs(p.k1 - 2.0 * p.lam) <= 1e-12 * max(1.0, abs(p.k1)):
        q1 = 8.0 * m2 * H ** 2
        q2 = 9.0 * m2 * K
        q3 = 36.0 * p.lam ** 2
        quadratic = q1 - q2 - q3
        quadratic_scale = np.maximum.reduce(
            [np.abs(q1), np.abs(q2), np.full_like(q1, abs(q3))]
        )
    return WeingartenResiduals(
        cubic=cubic,
        cubic_scale=cubic_scale,
        quadratic=quadratic,
        quadratic_scale=quadratic_scale,
    )


def asymptotic_deviation(x, t, p: SolitonParams, family: Family) -> np.ndarray:
    """Distance of (y2, y3) from its asymptotic profile on the xi-sign branch.

    The distance is C sech(xi) with C = 2|mu| k1 / (k1^2 + 4 lam^2).  For
    spectral3 this is exact (C = 4|R1|).  For spectralgauge4 C = |R4|/2 and
    the terms in R5, R6 and R7 add O(sech^2 xi), a relative correction of
    O(sech xi).
    """
    y = family.position(x, t, p)
    branch_sign = np.where(soliton_xi(x, t, p) >= 0.0, 1, -1)
    y2p, y3p = family.asymptotic_profile(x, t, p, 1)
    y2m, y3m = family.asymptotic_profile(x, t, p, -1)
    y2_inf = np.where(branch_sign > 0, y2p, y2m)
    y3_inf = np.where(branch_sign > 0, y3p, y3m)
    return np.hypot(y[..., 1] - y2_inf, y[..., 2] - y3_inf)
