"""Closed-form soliton-surface immersions in R^3.

Position vectors for the three-parameter (spectral) and four-parameter
(spectral-gauge) families and their closed-form fundamental forms and
curvatures, bundled per family in a :class:`Family` record; the example
presets and :func:`resolve`, which turns a preset or a family with
parameters into one validated :class:`Surface`; curvature-relation
residuals; and the frame tangents Phi^-1 A Phi and Phi^-1 B Phi that the
position's derivatives are checked against.  Everything here is closed form
and pointwise and is handed the caller's ``soliton.Jet``; only
``Family.providers``, which takes (x, t), evaluates one.  ``verify``
differences the position and reduces over grids.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import su2
from .deformation import DeformationKind, frame, validate_kind
from .diffgeo import CurvaturePair, Forms, SurfaceProviders
from .lax import det_phi_expected, phi
from .soliton import XI_MAX, Jet, SolitonParams, jet
from .soliton import xi as soliton_xi


def _phase(x, t, p: SolitonParams):
    # shared rotation phase of both families
    return t * (p.lam ** 2 + 0.25 * p.k1 ** 2 * (1.0 + p.lam)) + x * p.lam


def _three_param_radii(p: SolitonParams) -> tuple[float]:
    d = p.k1 ** 2 + 4.0 * p.lam ** 2
    return (-p.mu * p.k1 / (2.0 * d),)


def _four_param_radii(p: SolitonParams) -> tuple[float, ...]:
    d = p.k1 ** 2 + 4.0 * p.lam ** 2
    return (
        2.0 * p.k1 ** 2 * p.nu / d,
        p.mu / 8.0,
        4.0 * p.mu * p.k1 / d,
        p.nu * (p.k1 ** 2 - 4.0 * p.lam ** 2) / d,
        p.nu * (4.0 * p.lam ** 2 + 3.0 * p.k1 ** 2) / (2.0 * d),
        4.0 * p.lam * p.k1 * p.nu / d,
    )


def three_param_position(j: Jet) -> np.ndarray:
    """Position vector (..., 3) of the three-parameter surface family.

    Overflow-free evaluation: 1/(e^{2 xi} + 1) is written as (1 - tanh xi)/2.
    """
    p, x, t, s, tau = j.p, j.x, j.t, j.s, j.tau
    (r1,) = _three_param_radii(p)
    g = _phase(x, t, p)
    e = (t * (8.0 * p.lam + p.k1 ** 2) + 4.0 * x) * (p.k1 ** 2 + 4.0 * p.lam ** 2)
    y1 = -r1 * e / (4.0 * p.k1) - 4.0 * r1 * (1.0 - tau)
    y2 = -4.0 * r1 * np.cos(g) * s
    y3 = -4.0 * r1 * np.sin(g) * s
    return np.stack(np.broadcast_arrays(y1, y2, y3), axis=-1)


def four_param_position(j: Jet) -> np.ndarray:
    """Position vector (..., 3) of the four-parameter surface family.

    Stable rewrites: 1/(e^{2 xi}+1) = (1 - tanh xi)/2 and
    (e^{4 xi}+1)/(e^{2 xi}+1)^2 = 1 - sech^2(xi)/2.
    """
    p, x, t, s, tau = j.p, j.x, j.t, j.s, j.tau
    r2, r3, r4, r5, r6, r7 = _four_param_radii(p)
    e_tilde = t * (8.0 * p.lam + p.k1 ** 2) + 4.0 * x
    g = _phase(x, t, p)
    cg, sg = np.cos(g), np.sin(g)
    y1 = r2 * tau * s + r3 * e_tilde + 0.5 * r4 * (1.0 - tau)
    radial = 0.5 * r4 * s + r5 * (1.0 - 0.5 * s ** 2) - r6 * s ** 2
    y2 = radial * cg + r7 * tau * sg
    y3 = radial * sg - r7 * tau * cg
    return np.stack(np.broadcast_arrays(y1, y2, y3), axis=-1)


def three_param_forms_closed(j: Jet) -> Forms:
    """First and second fundamental forms of the three-parameter family."""
    p, s = j.p, j.s
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


def three_param_curvatures_closed(j: Jet) -> CurvaturePair:
    """Gaussian and mean curvature of the three-parameter family."""
    p, s = j.p, j.s
    k = (p.k1 ** 2 / p.mu ** 2) * (2.0 * s ** 2 - 1.0)
    # near XI_MAX sech xi is subnormal and H overflows to inf, a singular point
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        h = (6.0 * p.k1 ** 2 * s ** 2 + 4.0 * p.lam ** 2 - p.k1 ** 2) / (
            4.0 * p.mu * p.k1 * s
        )
    return CurvaturePair(K=k, H=h)


def four_param_forms_closed(j: Jet) -> Forms:
    """First and second fundamental forms of the four-parameter family.

    Polynomials in u = k1 sech(xi); the orientation of h matches the
    rational closed forms, i.e. the frame convention times the sign of the
    curvature denominator (see Family.denominator).
    """
    p, u = j.p, j.u
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


def spectral_gauge_curvature_denominator(j: Jet):
    """The shared denominator of the spectral-gauge K and (halved) H."""
    p, u = j.p, j.u
    return (
        p.nu
        * (
            2.0 * p.nu * u * (u ** 2 - 2.0 * p.alpha)
            - 3.0 * p.mu * u ** 2
            - 2.0 * p.mu * (p.lam ** 2 - p.alpha)
        )
        + p.mu ** 2 * u
    )


def four_param_curvatures_closed(j: Jet) -> CurvaturePair:
    """Gaussian and mean curvature of the four-parameter family; poles where
    the shared denominator vanishes are genuine singular points of the
    family."""
    p, u = j.p, j.u
    den = spectral_gauge_curvature_denominator(j)
    # at nu = 0 den is mu^2 u, subnormal near XI_MAX, and H overflows to inf
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k = 2.0 * u * (u ** 2 - 2.0 * p.alpha) / den
        h = (
            p.mu * (3.0 * u ** 2 + 2.0 * (p.lam ** 2 - p.alpha))
            - 4.0 * u * p.nu * (u ** 2 - 2.0 * p.alpha)
        ) / (2.0 * den)
    return CurvaturePair(K=k, H=h)


def _finite_nonzero(shown: str, name: str, scale: Callable[[], float],
                    may_vanish: bool = False, normal: bool = False) -> float:
    """Return ``scale()``, an overflow counting as inf.  Unless it is finite
    and nonzero (or exactly 0 where ``may_vanish``), and with ``normal`` a
    normal double (|value| >= ``sys.float_info.min``: a subnormal keeps only
    a few bits), raise a ValueError "<shown>: <name> = <value>, need it ..."."""
    try:
        value = scale()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or (value == 0.0 and not may_vanish):
        raise ValueError(f"{shown}: {name} = {value:g}, need it finite and nonzero")
    if normal and abs(value) < sys.float_info.min:
        raise ValueError(f"{shown}: {name} = {value:g} is subnormal, "
                         f"need it at least {sys.float_info.min:g} in magnitude")
    return value


@dataclass(frozen=True)
class Family:
    """One surface family: its public name, frame kind and closed forms.

    ``position``, ``forms``, ``curvatures`` and ``denominator`` take the
    soliton's jet at the points (``soliton.jet``), which carries p, x and
    t.  ``denominator`` is the shared denominator of the closed-form K and
    H, whose zeros are the family's singular points.  Its sign orients the
    closed forms against the frame: the closed forms normalize the normal
    by a signed rational factor and the frame by ||[A, B]|| > 0, so the
    closed-form H is the frame's H times sign(denominator) (0 at a pole);
    K, a ratio of determinants, needs no sign.  ``radii`` takes p and gives
    the constant radii of the position (R1, or R2 .. R7).  ``FAMILIES``
    holds one per family.
    """

    name: str
    kind: DeformationKind
    position: Callable[[Jet], np.ndarray]
    forms: Callable[[Jet], Forms]
    curvatures: Callable[[Jet], CurvaturePair]
    denominator: Callable[[Jet], np.ndarray]
    radii: Callable[[SolitonParams], tuple[float, ...]]

    def validate(self, p: SolitonParams) -> None:
        """Reject parameters the family's closed forms cannot evaluate.

        Besides the deformation kind's own rule, the closed forms and the
        frame scale by powers of k1 up to k1^4 (``soliton.Jet.u_xxx``) and by
        mu^2, nu^2, mu^4 and nu^4 (the norm of [A, B] and the Weingarten
        relation's K^2), and divide by k1^2 + 4 lambda^2 and by mu^2, so
        each must be finite and nonzero (not overflowed, not underflowed
        to 0).  A mu or nu of exactly 0 drops out and is left to the kind's
        rule; beside a nonzero mu, nu's powers only add to mu's terms and
        may underflow.  So must Phi's weight |B1| = e^(-pi lambda/k1)/|k1|
        (``lax``) and det Phi = 2 e^(-pi lambda/k1) (k1^2 + 4 lambda^2)/k1^2
        of ``lax.det_phi_expected``, and each must be a normal double: with a
        subnormal B1, Phi^H Phi is no multiple of the identity and the frame
        checks overflow.  spectral3 does not depend on nu, so it takes only
        nu = 0; its K is (k1/mu)^2 times a number in [-1, 1], so (k1/mu)^4
        must be finite.  The position's radii must be finite too.
        """
        validate_kind(self.kind, p)
        if self.kind is DeformationKind.SPECTRAL and p.nu != 0.0:
            raise ValueError(f"nu = {p.nu:g}: the {self.name} family does not depend on nu, "
                             "need nu = 0")
        mu_may_vanish = p.mu == 0.0
        nu_may_vanish = p.nu == 0.0 or p.mu != 0.0
        damping = lambda: math.exp(-math.pi * p.lam / p.k1)
        # (parameter shown, name, scale, may it be 0, must it be normal)
        scales = (("k1", "k1^4", lambda: p.k1 ** 4, False, False),
                  ("k1", "k1^2 + 4 lambda^2", lambda: p.k1 ** 2 + 4.0 * p.lam ** 2, False,
                   False),
                  ("mu", "mu^2", lambda: p.mu ** 2, mu_may_vanish, False),
                  ("nu", "nu^2", lambda: p.nu ** 2, nu_may_vanish, False),
                  ("mu", "mu^4", lambda: p.mu ** 4, mu_may_vanish, False),
                  ("nu", "nu^4", lambda: p.nu ** 4, nu_may_vanish, False),
                  ("k1", "|B1| = e^(-pi lambda/k1)/|k1|", lambda: damping() / abs(p.k1), False,
                   True),
                  ("k1", "det Phi", lambda: 2.0 * damping() * (p.k1 ** 2 + 4.0 * p.lam ** 2)
                   / p.k1 ** 2, False, True))
        if self.kind is DeformationKind.SPECTRAL:
            scales += (("mu", "(k1/mu)^4", lambda: (p.k1 / p.mu) ** 4, True, False),)
        for param, name, scale, may_vanish, normal in scales:
            shown = (f"k1 = {p.k1:g}, lambda = {p.lam:g}" if param == "k1"
                     else f"{param} = {getattr(p, param):g}")
            _finite_nonzero(shown, name, scale, may_vanish, normal)
        radii = self.radii(p)
        if not all(math.isfinite(r) for r in radii):
            raise ValueError(
                f"k1 = {p.k1:g}, lambda = {p.lam:g}, mu = {p.mu:g}, nu = {p.nu:g}: "
                f"the {self.name} radii {radii} are not all finite"
            )

    def providers(self, p: SolitonParams) -> SurfaceProviders:
        """Closed-form provider bundle, in (x, t), for the finite-difference
        oracle."""
        return SurfaceProviders(
            position=lambda x, t: self.position(jet(x, t, p)),
            forms=lambda x, t: self.forms(jet(x, t, p)),
            curvatures=lambda x, t: self.curvatures(jet(x, t, p)),
        )


# The closed forms are called through their module-level names, not stored
# as function objects, so that replacing one of them in this module (to
# profile or instrument it) reaches every caller of the record as well.
SPECTRAL3 = Family(
    name="spectral3",
    kind=DeformationKind.SPECTRAL,
    position=lambda j: three_param_position(j),
    forms=lambda j: three_param_forms_closed(j),
    curvatures=lambda j: three_param_curvatures_closed(j),
    # the spectral-gauge denominator at nu = 0
    denominator=lambda j: j.p.mu ** 2 * j.u,
    radii=_three_param_radii,
)

SPECTRAL_GAUGE4 = Family(
    name="spectralgauge4",
    kind=DeformationKind.SPECTRAL_GAUGE,
    position=lambda j: four_param_position(j),
    forms=lambda j: four_param_forms_closed(j),
    curvatures=lambda j: four_param_curvatures_closed(j),
    denominator=lambda j: spectral_gauge_curvature_denominator(j),
    radii=_four_param_radii,
)

FAMILIES: dict[str, Family] = {f.name: f for f in (SPECTRAL3, SPECTRAL_GAUGE4)}


Window = tuple[float, float]

# The window of a parametric run that names none, on both axes.
DEFAULT_WINDOW: Window = (-3.0, 3.0)

# The bundled presets: id -> (family, exact (k1, lambda, mu, nu), window
# half-width).  nu is None for the three-parameter family.
PRESETS: dict[str, tuple[Family, tuple[Fraction | None, ...], int]] = {
    "ex2": (SPECTRAL3, (Fraction(2), Fraction(1), Fraction(-8), None), 3),
    "ex3": (SPECTRAL3, (Fraction(2), Fraction(0), Fraction(-4), None), 6),
    "ex4": (SPECTRAL3, (Fraction(3), Fraction(1, 10), Fraction(-452, 75), None), 6),
    "ex5": (SPECTRAL3, (Fraction(1), Fraction(-1, 10), Fraction(-52, 25), None), 20),
    "ex6": (SPECTRAL_GAUGE4, (Fraction(2), Fraction(0), Fraction(-4), Fraction(1)), 4),
    "ex7": (SPECTRAL_GAUGE4,
            (Fraction(2), Fraction(1), Fraction(1, 10), Fraction(1)), 6),
    "ex8": (SPECTRAL_GAUGE4,
            (Fraction(1), Fraction(-1, 10), Fraction(-52, 25), Fraction(-1)), 20),
}


@dataclass(frozen=True)
class Surface:
    """One surface configuration: a family, its parameters and an (x, t)
    window, with the preset id it came from (None for a parametric run).

    Built by :func:`resolve`, which validates it.
    """

    family: Family
    params: SolitonParams
    x_range: Window
    t_range: Window
    preset_id: str | None

    def grid(self, nx: int, nt: int, half: float | None = None):
        """Meshgrid (x, t) over the window, clipped to [-half, half]^2 if given."""
        xr, tr = self.x_range, self.t_range
        if half is not None:
            xr = (max(xr[0], -half), min(xr[1], half))
            tr = (max(tr[0], -half), min(tr[1], half))
        xv = np.linspace(xr[0], xr[1], nx)
        tv = np.linspace(tr[0], tr[1], nt)
        return np.meshgrid(xv, tv)


def _window(axis: str, given: Window | None, default: Window) -> Window:
    lo, hi = default if given is None else (float(given[0]), float(given[1]))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi and np.isfinite(hi - lo)):
        raise ValueError(
            f"{axis}_range = ({lo:g}, {hi:g}): need finite {axis}-min < {axis}-max "
            "a finite width apart"
        )
    return lo, hi


def _check_xi_reach(params: SolitonParams, x_range: Window, t_range: Window) -> None:
    """Reject a window with a corner at |xi| >= XI_MAX, where the soliton
    overflows, naming the axis whose part of xi is the larger there."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, t = np.meshgrid(x_range, t_range)
        reach = np.max(np.abs(soliton_xi(x, t, params)))
        if reach < XI_MAX:
            return
        by_x = np.max(np.abs(soliton_xi(x, 0.0, params)))
        by_t = np.max(np.abs(soliton_xi(0.0, t, params)))
    axis, (lo, hi) = ("x", x_range) if by_x >= by_t else ("t", t_range)
    raise ValueError(
        f"{axis}_range = ({lo:g}, {hi:g}): |xi| reaches {reach:.4g} at a window "
        f"corner; cosh overflows from {XI_MAX:.1f}"
    )


def resolve(
    preset_id: str | None = None,
    family: str | None = None,
    params: SolitonParams | None = None,
    x_range: Window | None = None,
    t_range: Window | None = None,
) -> Surface:
    """Turn a preset id ("ex2" .. "ex8"), or a family name with parameters,
    into a validated :class:`Surface`.

    A preset supplies family, parameters and window; a parametric run's
    window is ``DEFAULT_WINDOW`` on each axis.  Explicit ranges override
    either.  Raises ValueError for an unknown preset or family, missing
    parameters, parameters the family rejects, a window that is not finite
    with min < max and a finite width, or a window whose corners reach
    |xi| >= ``soliton.XI_MAX``, where the soliton overflows.
    """
    if preset_id is not None:
        if family is not None or params is not None:
            raise ValueError("give a preset or a family with params, not both")
        pid = preset_id.lower()
        if pid not in PRESETS:
            valid = ", ".join(PRESETS)
            raise ValueError(f"unknown preset {preset_id!r}; valid ids: {valid}")
        fam, (k1, lam, mu, nu), half = PRESETS[pid]
        params = SolitonParams(k1=float(k1), lam=float(lam), mu=float(mu),
                               nu=0.0 if nu is None else float(nu))
        default = (-float(half), float(half))
    else:
        if family not in FAMILIES:
            valid = ", ".join(sorted(FAMILIES))
            raise ValueError(f"unknown family {family!r}; valid families: {valid}")
        if params is None:
            raise ValueError("params required when no preset is given")
        fam, pid, default = FAMILIES[family], None, DEFAULT_WINDOW
    fam.validate(params)
    xr, tr = _window("x", x_range, default), _window("t", t_range, default)
    _check_xi_reach(params, xr, tr)
    return Surface(fam, params, xr, tr, pid)


def frame_tangents(j: Jet, kind: DeformationKind) -> tuple[np.ndarray, np.ndarray]:
    """Tangent vectors (y_x, y_t) = (Phi^-1 A Phi, Phi^-1 B Phi), (A, B) and
    Phi both on the jet j, as su(2) matrices (..., 2, 2); ``su2.su2_to_vec``
    gives their vectors.

    Phi is sqrt(c) times an SU(2) matrix, c = det Phi, so its inverse is
    Phi^H / c with the constant c of ``lax.det_phi_expected``."""
    a, b = frame(j, kind)[:2]
    f = phi(j)
    finv = np.conj(np.swapaxes(f, -1, -2)) / det_phi_expected(j.p)
    return (su2.mul(su2.mul(finv, su2.vec_to_su2(a)), f),
            su2.mul(su2.mul(finv, su2.vec_to_su2(b)), f))


@dataclass(frozen=True)
class WeingartenResiduals:
    """Residuals of the curvature relations, with normalization scales."""

    cubic: np.ndarray
    cubic_scale: np.ndarray
    quadratic: np.ndarray | None
    quadratic_scale: np.ndarray | None


def _half_k1(p: SolitonParams) -> bool:
    """Whether |lambda| = |k1|/2, where the Weingarten relation gains its
    quadratic and spectral3 solves the Willmore-like equation."""
    return abs(abs(p.k1) - 2.0 * abs(p.lam)) <= 1e-12 * max(1.0, abs(p.k1))


def weingarten_residuals(K, H, p: SolitonParams,
                         paper_literal: bool = False) -> WeingartenResiduals:
    """Evaluate the cubic (and, when |k1| = 2 |lam|, quadratic) K-H relations.

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
    if _half_k1(p):
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
