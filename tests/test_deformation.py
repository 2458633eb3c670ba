"""Deformation pairs (A, B): compatibility, induced forms, closed curvatures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvsurf import su2
from mkdvsurf.deformation import (
    DeformationKind,
    ab_at,
    ab_compatibility_residual,
    ab_derivs_at,
    curvatures_from_forms,
    curvatures_spectral_closed,
    curvatures_spectral_gauge_closed,
    forms_from_ab,
    spectral_gauge_curvature_denominator,
    symmetry_sphere_check,
    validate_kind,
)
from mkdvsurf.immersion import SPECTRAL3, SPECTRAL_GAUGE4
from mkdvsurf.lax import lax_U_at, lax_V_at, zero_curvature_residual
from mkdvsurf.soliton import SolitonParams, u as soliton_u

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
    x, t = GRID
    a, b = ab_at(x, t, p, kind)
    assert su2.is_su2(su2.vec_to_su2(a), atol=1e-12)
    assert su2.is_su2(su2.vec_to_su2(b), atol=1e-12)


@pytest.mark.parametrize("kind", list(DeformationKind))
def test_algebra_returns_real_component_vectors(kind):
    # the deformation and Lax algebra runs on Pauli components, not matrices
    p = SolitonParams(2.0, 0.5, mu=1.5, nu=-0.7)
    x, t = GRID
    outputs = (
        *ab_at(x, t, p, kind),
        *ab_derivs_at(x, t, p, kind),
        ab_compatibility_residual(x, t, p, kind),
        zero_curvature_residual(x, t, p),
        lax_U_at(x, t, p),
        lax_V_at(x, t, p),
    )
    for out in outputs:
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert out.shape == x.shape + (3,)


@pytest.mark.parametrize("kind", list(DeformationKind))
def test_compatibility_residual_vanishes(kind):
    p = SolitonParams(2.0, 1.0, mu=-8.0, nu=0.3)
    x, t = GRID
    assert np.max(np.abs(ab_compatibility_residual(x, t, p, kind))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(gauge_params)
def test_compatibility_random_params(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 7))
    for kind in DeformationKind:
        assert np.max(np.abs(ab_compatibility_residual(x, t, p, kind))) < 1e-9


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
    f = forms_from_ab(x, t, p, DeformationKind.SPECTRAL)
    cur = curvatures_from_forms(f)
    uu = soliton_u(x, t, p)
    closed = curvatures_spectral_closed(uu, p)
    sign = SPECTRAL3.orientation(uu, p)
    assert np.max(np.abs(cur.K - closed.K)) < 1e-8 * np.max(np.abs(closed.K))
    assert np.max(np.abs(cur.H - sign * closed.H)) < 1e-8 * np.max(np.abs(closed.H))


@settings(max_examples=20, deadline=None)
@given(gauge_params)
def test_gauge_curvatures_match_closed_form(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 9), np.linspace(-1.5, 1.5, 9))
    uu = soliton_u(x, t, p)
    den = spectral_gauge_curvature_denominator(uu, p)
    keep = np.abs(den) > 0.1 * np.max(np.abs(den))
    f = forms_from_ab(x, t, p, DeformationKind.SPECTRAL_GAUGE)
    cur = curvatures_from_forms(f)
    closed = curvatures_spectral_gauge_closed(uu, p)
    sign = SPECTRAL_GAUGE4.orientation(uu, p)
    dk = np.abs(cur.K[keep] - closed.K[keep])
    dh = np.abs(cur.H[keep] - sign[keep] * closed.H[keep])
    assert np.max(dk) < 1e-8 * np.max(np.abs(closed.K[keep]))
    assert np.max(dh) < 1e-8 * np.max(np.abs(closed.H[keep]))


def test_spectral_closed_forms_values():
    # K = (2/mu^2)(u^2 - 2 alpha), H = (3u^2 + 2(lam^2 - alpha))/(2 mu u)
    p = SolitonParams(2.0, 1.0, mu=1.0)
    cur = curvatures_spectral_closed(np.array(2.0), p)  # crest: u = k1
    assert cur.K == pytest.approx(4.0)
    assert cur.H == pytest.approx(3.0)


def test_metric_of_spectral_family_is_constant_g11():
    p = SolitonParams(2.0, 1.0, mu=-8.0)
    x, t = GRID
    f = forms_from_ab(x, t, p, DeformationKind.SPECTRAL)
    assert np.allclose(f.g11, p.mu ** 2 / 4.0, rtol=1e-12)
    assert np.allclose(f.g12, (p.mu ** 2 / 4.0) * (p.alpha + 2 * p.lam), rtol=1e-12)


def test_orientation_sign_is_denominator_sign():
    p = SolitonParams(2.0, 0.5, mu=1.0, nu=2.0)
    uu = np.linspace(0.05, 2.0, 101)
    sign = SPECTRAL_GAUGE4.orientation(uu, p)
    den = spectral_gauge_curvature_denominator(uu, p)
    assert np.array_equal(sign, np.sign(den))
    p3 = SolitonParams(2.0, 0.5, mu=-3.0)
    assert np.array_equal(SPECTRAL3.orientation(uu, p3), np.sign(uu))


def test_sphere_check_radius():
    p = SolitonParams(2.0, 1.0, mu=2.0)
    x, t = GRID
    rep = symmetry_sphere_check(p, x, t)
    assert rep.expected_radius == pytest.approx(1.0)
    assert rep.radius_estimate == pytest.approx(1.0, rel=1e-10)
    assert rep.k_rel_spread < 1e-10
    assert rep.h2_minus_k_rel < 1e-10


def test_sphere_check_requires_spectral_parameter():
    with pytest.raises(ValueError):
        symmetry_sphere_check(SolitonParams(2.0, 0.0, mu=1.0), *GRID)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.5, 3.0),
    st.floats(0.1, 2.0),
    st.floats(0.2, 3.0),
)
def test_sphere_radius_formula(k1, lam, mu):
    p = SolitonParams(k1, lam, mu=mu)
    x, t = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    rep = symmetry_sphere_check(p, x, t)
    assert rep.radius_estimate == pytest.approx(
        abs(p.alpha * mu / (2 * lam)), rel=1e-8
    )
