"""Deformation pairs (A, B): compatibility, induced forms, closed curvatures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvsurf import su2
from mkdvsurf.deformation import (
    DeformationKind,
    ab_compatibility_residual,
    curvatures_from_forms,
    forms_from_ab,
    frame,
    validate_kind,
)
from mkdvsurf.immersion import SPECTRAL3, SPECTRAL_GAUGE4, resolve
from mkdvsurf.diffgeo import Stencil, derivative
from mkdvsurf.lax import lax_U, lax_V, zero_curvature_residual
from mkdvsurf.soliton import SolitonParams, jet
from mkdvsurf.verify import CheckConfigError, run_checks

GRID = np.meshgrid(np.linspace(-2, 2, 15), np.linspace(-2, 2, 15))

spectral_params = st.builds(
    SolitonParams,
    k1=st.floats(0.5, 3.0),
    lam=st.floats(-1.5, 1.5),
    mu=st.floats(0.2, 4.0),
)
gauge_params = st.builds(
    SolitonParams,
    k1=st.floats(0.5, 3.0),
    lam=st.floats(-1.5, 1.5),
    mu=st.floats(0.2, 4.0),
    nu=st.floats(-2.0, 2.0),
)


@pytest.mark.parametrize("kind", list(DeformationKind))
def test_ab_are_su2_valued(kind):
    p = SolitonParams(2.0, 0.5, mu=1.5, nu=-0.7)
    f = frame(jet(*GRID, p), kind)
    a, b = f.a, f.b
    # su2_to_vec raises on a matrix that is not su(2); a real component
    # vector is su(2) exactly, so the round trip is bitwise
    for v in (a, b):
        assert v.dtype == np.float64
        assert np.array_equal(su2.su2_to_vec(su2.vec_to_su2(v)), v)


@pytest.mark.parametrize("kind", list(DeformationKind))
def test_algebra_returns_real_component_vectors(kind):
    # the deformation and Lax algebra runs on Pauli components, not matrices
    p = SolitonParams(2.0, 0.5, mu=1.5, nu=-0.7)
    x, t = GRID
    j = jet(x, t, p)
    outputs = (
        *frame(j, kind),
        ab_compatibility_residual(j, kind),
        zero_curvature_residual(j),
        lax_U(j.u, p.lam),
        lax_V(j.u, j.u_x, p.lam, p.alpha),
    )
    for out in outputs:
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert out.shape == x.shape + (3,)


@pytest.mark.parametrize("kind", list(DeformationKind))
def test_frame_derivatives_match_fd(kind):
    # each closed-form derivative against a difference quotient of (A, B);
    # k1 != 2 keeps alpha != 1, so a swapped x and t derivative shows
    p = SolitonParams(3.0, 0.5, mu=1.5, nu=-0.7)
    x, t = GRID
    f = frame(jet(x, t, p), kind)
    stencil = Stencil(1e-3, order=4, richardson=True)
    for field, axis, exact in (("a", 0, f.a_x), ("a", 1, f.a_t),
                               ("b", 0, f.b_x), ("b", 1, f.b_t)):
        fd = derivative(lambda xx, tt: getattr(frame(jet(xx, tt, p), kind), field),
                        x, t, stencil, axis=axis)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact)) <= 1e-9 * scale, (field, "xt"[axis])


@pytest.mark.parametrize("kind", list(DeformationKind))
def test_compatibility_residual_vanishes(kind):
    p = SolitonParams(2.0, 1.0, mu=-8.0, nu=0.3)
    x, t = GRID
    assert np.max(np.abs(ab_compatibility_residual(jet(x, t, p), kind))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(gauge_params)
def test_compatibility_random_params(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 7))
    j = jet(x, t, p)
    for kind in DeformationKind:
        assert np.max(np.abs(ab_compatibility_residual(j, kind))) < 1e-9


def test_validate_kind_rejects_degenerate_weights():
    with pytest.raises(ValueError):
        validate_kind(DeformationKind.SPECTRAL, SolitonParams(2.0, 0.0, mu=0.0))
    with pytest.raises(ValueError):
        validate_kind(
            DeformationKind.SPECTRAL_GAUGE, SolitonParams(2.0, 0.0, mu=0.0, nu=0.0)
        )


@settings(max_examples=20, deadline=None)
@given(spectral_params)
def test_spectral_curvatures_match_closed_form(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 9), np.linspace(-1.5, 1.5, 9))
    j = jet(x, t, p)
    f = forms_from_ab(j, DeformationKind.SPECTRAL)
    cur = curvatures_from_forms(f)
    closed = SPECTRAL3.curvatures(j)
    sign = np.sign(SPECTRAL3.denominator(j))
    assert np.max(np.abs(cur.K - closed.K)) < 1e-8 * np.max(np.abs(closed.K))
    assert np.max(np.abs(cur.H - sign * closed.H)) < 1e-8 * np.max(np.abs(closed.H))


@settings(max_examples=20, deadline=None)
@given(gauge_params)
def test_gauge_curvatures_match_closed_form(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 9), np.linspace(-1.5, 1.5, 9))
    j = jet(x, t, p)
    den = SPECTRAL_GAUGE4.denominator(j)
    keep = np.abs(den) > 0.1 * np.max(np.abs(den))
    f = forms_from_ab(j, DeformationKind.SPECTRAL_GAUGE)
    cur = curvatures_from_forms(f)
    closed = SPECTRAL_GAUGE4.curvatures(j)
    sign = np.sign(den)
    dk = np.abs(cur.K[keep] - closed.K[keep])
    dh = np.abs(cur.H[keep] - sign[keep] * closed.H[keep])
    assert np.max(dk) < 1e-8 * np.max(np.abs(closed.K[keep]))
    assert np.max(dh) < 1e-8 * np.max(np.abs(closed.H[keep]))


def test_spectral_closed_forms_values():
    p = SolitonParams(2.0, 1.0, mu=1.0)
    cur = SPECTRAL3.curvatures(jet(0.0, 0.0, p))  # crest: xi = 0
    assert cur.K == pytest.approx(4.0)
    assert cur.H == pytest.approx(3.0)
    # the same closed forms written in u = k1 sech(xi):
    # K = (2/mu^2)(u^2 - 2 alpha), H = (3u^2 + 2(lam^2 - alpha))/(2 mu u)
    p = SolitonParams(1.5, -0.4, mu=-2.5)
    j = jet(*GRID, p)
    uu = j.u
    cur = SPECTRAL3.curvatures(j)
    assert np.allclose(cur.K, (2.0 / p.mu ** 2) * (uu ** 2 - 2.0 * p.alpha), rtol=1e-12)
    assert np.allclose(cur.H, (3.0 * uu ** 2 + 2.0 * (p.lam ** 2 - p.alpha)) / (2.0 * p.mu * uu),
                       rtol=1e-12)


def test_metric_of_spectral_family_is_constant_g11():
    p = SolitonParams(2.0, 1.0, mu=-8.0)
    x, t = GRID
    f = forms_from_ab(jet(x, t, p), DeformationKind.SPECTRAL)
    assert np.allclose(f.g11, p.mu ** 2 / 4.0, rtol=1e-12)
    assert np.allclose(f.g12, (p.mu ** 2 / 4.0) * (p.alpha + 2 * p.lam), rtol=1e-12)


def test_orientation_sign_is_denominator_sign():
    # at k1 = 2 and t = 0, xi = x, so u = 2 sech(x) runs from 2 down to 0.05,
    # across both poles of the denominator: on either side of each, the
    # frame's H is the closed-form H times the sign of the denominator
    x = np.linspace(0.0, 4.4, 101)
    j = jet(x, 0.0, SolitonParams(2.0, 0.5, mu=1.0, nu=2.0))
    sign = np.sign(SPECTRAL_GAUGE4.denominator(j))
    frame_h = curvatures_from_forms(forms_from_ab(j, SPECTRAL_GAUGE4.kind)).H
    assert set(sign) == {-1.0, 1.0}
    assert np.array_equal(np.sign(frame_h * SPECTRAL_GAUGE4.curvatures(j).H), sign)
    j3 = jet(x, 0.0, SolitonParams(2.0, 0.5, mu=-3.0))
    assert np.array_equal(np.sign(SPECTRAL3.denominator(j3)), np.sign(j3.u))


def _sphere_check(p, half, n):
    """The sphere check's one result on the [-half, half]^2 grid of n x n points."""
    surface = resolve(family="spectral3", params=p, x_range=(-half, half),
                      t_range=(-half, half))
    (check,) = run_checks(["sphere"], surface, n, n).checks
    return check


def _radius_estimate(p, half, n):
    """1/sqrt|mean K| of the symmetry frame on the same grid, from the
    pointwise kernels: the number the check compares, to full precision."""
    x, t = np.meshgrid(np.linspace(-half, half, n), np.linspace(-half, half, n))
    cur = curvatures_from_forms(forms_from_ab(jet(x, t, p), DeformationKind.SYMMETRY_UX))
    good = np.isfinite(cur.K) & np.isfinite(cur.H)
    return 1.0 / np.sqrt(abs(np.mean(cur.K[good])))


def test_sphere_check_radius():
    # the check's residual is the largest of the relative K spread,
    # |H^2 - K| and radius error; the note gives |alpha mu/(2 lambda)|
    p = SolitonParams(2.0, 1.0, mu=2.0)
    check = _sphere_check(p, 2.0, 15)
    assert check.max_residual < 1e-10
    assert check.note.endswith("|alpha mu/(2 lambda)| = 1")
    assert _radius_estimate(p, 2.0, 15) == pytest.approx(1.0, rel=1e-10)


def test_sphere_check_requires_spectral_parameter():
    with pytest.raises(CheckConfigError, match="requires lambda != 0"):
        _sphere_check(SolitonParams(2.0, 0.0, mu=1.0), 2.0, 15)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.5, 3.0),
    st.floats(0.1, 2.0),
    st.floats(0.2, 3.0),
)
def test_sphere_radius_formula(k1, lam, mu):
    p = SolitonParams(k1, lam, mu=mu)
    assert _sphere_check(p, 1.0, 9).max_residual <= 1e-8
    assert _radius_estimate(p, 1.0, 9) == pytest.approx(
        abs(p.alpha * mu / (2 * lam)), rel=1e-8
    )
