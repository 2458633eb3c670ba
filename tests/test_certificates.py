"""Exact proofs of the frame, Lax and closed-form identities on a symbolic jet,
and the long-double boundary: the pointwise kernels compute in their jet's type.

The symbolic model (``helpers.symbolic_model``) carries k1, lambda, mu and nu
as symbols and sech xi, tanh xi as S, T with T^2 = 1 - S^2, so each identity
below holds for every parameter and every point, where the numeric tests
sample some of them.
"""

import functools

import numpy as np
import pytest
import sympy as sp

from mkdvsurf import su2
from mkdvsurf.deformation import ab_compatibility_residual
from mkdvsurf.immersion import four_param_forms_closed, three_param_forms_closed
from mkdvsurf.lax import lax_U, lax_V, zero_curvature_residual
from mkdvsurf.soliton import Jet, SolitonParams

from helpers import FRAMES, symbolic_model


@functools.cache
def model():
    return symbolic_model()


@functools.cache
def symbolic_frame(name):
    return FRAMES[name](model().jet)


def assert_zero(*exprs):
    for e in exprs:
        assert model().reduce(e) == 0, e


@pytest.mark.parametrize("name", FRAMES)
def test_frame_derivatives_are_the_xi_derivatives(name):
    # on the traveling wave d/dx = (k1/2) d/dxi and d/dt = (k1^3/8) d/dxi
    m = model()
    k1 = m.jet.p.k1
    f = symbolic_frame(name)
    for v, v_x, v_t in ((f.a, f.a_x, f.a_t), (f.b, f.b_x, f.b_t)):
        for c, c_x, c_t in zip(v, v_x, v_t):
            dc = m.d_xi(c)
            assert_zero(c_x - k1 / 2 * dc, c_t - k1 ** 3 / 8 * dc)


def _diff(v, var):
    return np.array([sp.diff(c, var) for c in v], dtype=object)


def _defining_pair(name):
    """(A, B) by the definition of the frame ``name``, from the Lax pair
    (U, V) themselves."""
    j = model().jet
    p = j.p
    U, V = lax_U(j.u, p.lam), lax_V(j.u, j.u_x, p.lam, p.alpha)
    spectral = (p.mu * _diff(U, p.lam), p.mu * _diff(V, p.lam))
    if name == "spectral":
        return spectral
    if name == "spectral-gauge":
        m = su2.vec(0, p.nu, 0)
        return spectral[0] + su2.commutator(m, U), spectral[1] + su2.commutator(m, V)
    # the symmetry u -> u + eps u_x moves u_x to u_x + eps u_xx
    eps = sp.Symbol("epsilon")
    moved = (lax_U(j.u + eps * j.u_x, p.lam),
             lax_V(j.u + eps * j.u_x, j.u_x + eps * j.u_xx, p.lam, p.alpha))
    return tuple(p.mu * np.array([c.subs(eps, 0) for c in _diff(v, eps)]) for v in moved)


@pytest.mark.parametrize("name", FRAMES)
def test_frame_is_its_definition(name):
    # spectral: mu d(U, V)/dlam; spectral-gauge: that plus ([M, U], [M, V])
    # with M = i nu sigma2; symmetry: mu d/deps (U, V) along u -> u + eps u_x.
    # The derivative and compatibility identities hold for any multiple of a
    # frame; this one also fixes its scale
    f = symbolic_frame(name)
    for got, want in zip(f[:2], _defining_pair(name)):
        assert_zero(*(got - want))


@pytest.mark.parametrize("name", FRAMES)
def test_compatibility_residual_vanishes(name):
    assert_zero(*ab_compatibility_residual(model().jet, symbolic_frame(name)))


def test_zero_curvature_residual_vanishes():
    assert_zero(*zero_curvature_residual(model().jet))


@pytest.mark.parametrize("closed, name", [
    (three_param_forms_closed, "spectral"),
    (four_param_forms_closed, "spectral-gauge"),
])
def test_closed_first_form_is_the_frames(closed, name):
    # g = (<A,A>, <A,B>, <B,B>) of the family's frame, for every parameter
    a, b = symbolic_frame(name)[:2]
    g = closed(model().jet)
    assert_zero(g.g11 - su2.su2_inner(a, a), g.g12 - su2.su2_inner(a, b),
                g.g22 - su2.su2_inner(b, b))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_long_double_jet_gives_long_double_residuals():
    # a jet evaluated in long double keeps its type through the frames and
    # the Lax pair, so the residuals reach long double's rounding (float64
    # reads about 3.6e-15 and 2.5e-16 here)
    p = SolitonParams(2.0, 1.0, mu=-8.0, nu=0.5)
    axis = np.linspace(-2, 2, 41, dtype=np.longdouble)
    x, t = np.meshgrid(axis, axis)
    z = p.k1 * (p.k1 ** 2 * t + 4 * x) / 8
    j = Jet(p, x, t, z, 1 / np.cosh(z), np.tanh(z))
    residuals = [ab_compatibility_residual(j, frame(j)) for frame in FRAMES.values()]
    for res in residuals + [zero_curvature_residual(j)]:
        assert res.dtype == np.longdouble
        assert np.max(np.abs(res)) <= 1e-17
