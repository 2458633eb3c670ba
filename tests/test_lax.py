"""Frame system: U, V matrices, closed-form solution, determinant invariant."""

import numpy as np
import pytest

from mkdvsurf import su2
from mkdvsurf.lax import (
    PhiConstants,
    canonical_constants,
    det_phi_expected,
    lax_residuals,
    lax_U,
    lax_U_at,
    lax_V_at,
    phi,
    second_order_check,
    zero_curvature_residual,
)
from mkdvsurf.soliton import SolitonParams, u as soliton_u, u_x as soliton_ux

GRID = np.meshgrid(np.linspace(-2, 2, 17), np.linspace(-2, 2, 17))

SAMPLE_PARAMS = [
    SolitonParams(1.0, 0.0),
    SolitonParams(2.0, 1.0),
    SolitonParams(2.0, -0.5),
    SolitonParams(3.0, 0.25),
]


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_u_v_are_su2_valued(p):
    x, t = GRID
    assert su2.is_su2(su2.vec_to_su2(lax_U_at(x, t, p)), atol=1e-12)
    assert su2.is_su2(su2.vec_to_su2(lax_V_at(x, t, p)), atol=1e-12)


def test_u_matrix_entries():
    m = su2.vec_to_su2(lax_U(np.array(0.7), 0.3))
    assert m[0, 0] == pytest.approx(0.15j)
    assert m[0, 1] == pytest.approx(-0.35j)
    assert m[1, 0] == pytest.approx(-0.35j)
    assert m[1, 1] == pytest.approx(-0.15j)


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_zero_curvature(p):
    x, t = GRID
    assert np.max(np.abs(zero_curvature_residual(x, t, p))) < 1e-12


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_phi_solves_both_equations(p):
    x, t = GRID
    c = canonical_constants(p)
    rx, rt = lax_residuals(x, t, p, c)
    assert np.max(np.abs(rx)) < 1e-8
    assert np.max(np.abs(rt)) < 1e-8


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_second_order_consistency(p):
    x, t = GRID
    c = canonical_constants(p)
    assert np.max(np.abs(second_order_check(x, t, p, c))) < 1e-6


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_det_constant_and_matches_formula(p):
    x, t = GRID
    c = canonical_constants(p)
    dets = np.linalg.det(phi(x, t, p, c))
    expected = det_phi_expected(p, c)
    assert np.max(np.abs(dets - expected)) < 1e-10 * abs(expected)


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_phi_proportional_to_unitary(p):
    # Phi^H Phi must be a constant multiple of the identity for the
    # conjugated tangent frame to stay su(2)-valued
    x, t = GRID
    c = canonical_constants(p)
    f = phi(x, t, p, c)
    gram = np.conj(np.swapaxes(f, -1, -2)) @ f
    ratio = gram / gram[..., :1, :1]
    assert np.max(np.abs(ratio - np.eye(2))) < 1e-10


def test_scale_invariance_of_conjugation():
    p = SolitonParams(2.0, 0.5)
    x, t = GRID
    a = su2.vec_to_su2(lax_U_at(x, t, p))
    base = phi(x, t, p, canonical_constants(p))
    scaled = phi(x, t, p, canonical_constants(p, scale=3.7 - 0.2j))
    conj_base = np.linalg.solve(base, a @ base)
    conj_scaled = np.linalg.solve(scaled, a @ scaled)
    assert np.allclose(conj_base, conj_scaled, atol=1e-11)


def test_custom_constants_change_det():
    p = SolitonParams(2.0, 1.0)
    c = PhiConstants(A1=1.0, A2=2.0, B1=0.5, B2=-0.25)
    expected = (p.k1 ** 2 + 4 * p.lam ** 2) / p.k1 * (c.A1 * c.B2 - c.A2 * c.B1)
    assert det_phi_expected(p, c) == pytest.approx(expected)


def test_lax_matrices_encode_soliton():
    p = SolitonParams(2.0, 0.7)
    x, t = 0.3, -0.4
    m = su2.vec_to_su2(lax_U_at(x, t, p))
    # off-diagonal entry is -i u / 2
    assert m[0, 1] == pytest.approx(-0.5j * soliton_u(x, t, p))
    v = su2.vec_to_su2(lax_V_at(x, t, p))
    uu, ux = soliton_u(x, t, p), soliton_ux(x, t, p)
    omega = p.alpha + p.alpha * p.lam + p.lam ** 2
    assert v[0, 0] == pytest.approx(-0.5j * (uu ** 2 / 2.0 - omega))
    assert v[0, 1] == pytest.approx(-0.5j * ((p.alpha + p.lam) * uu - 1j * ux))
    assert v[1, 0] == pytest.approx(-0.5j * ((p.alpha + p.lam) * uu + 1j * ux))
    assert v[1, 1] == pytest.approx(0.5j * (uu ** 2 / 2.0 - omega))
