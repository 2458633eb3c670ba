"""Deformation pairs (A, B): compatibility, induced forms, closed curvatures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvsurf import su2
from mkdvsurf.deformation import (
    ab_compatibility_residual,
    curvatures_from_forms,
    forms_from_ab,
    symmetry_frame,
)
from mkdvsurf.immersion import PRESETS, SPECTRAL3, SPECTRAL_GAUGE4, resolve
from mkdvsurf.diffgeo import Stencil, derivative
from mkdvsurf.lax import lax_U, lax_V, zero_curvature_residual
from mkdvsurf.soliton import SolitonParams, jet
from mkdvsurf.verify import CheckConfigError, run_checks

from helpers import FRAMES, su2_to_vec, typed_spectral_frame

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


@pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES)
def test_ab_are_su2_valued(frame):
    p = SolitonParams(2.0, 0.5, mu=1.5, nu=-0.7)
    f = frame(jet(*GRID, p))
    a, b = f.a, f.b
    # su2_to_vec raises on a matrix that is not su(2); a real component
    # vector is su(2) exactly, so the round trip is bitwise
    for v in (a, b):
        assert v.dtype == np.float64
        assert np.array_equal(su2_to_vec(su2.vec_to_su2(v)), v)


@pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES)
def test_algebra_returns_real_component_vectors(frame):
    # the deformation and Lax algebra runs on Pauli components, not matrices
    p = SolitonParams(2.0, 0.5, mu=1.5, nu=-0.7)
    x, t = GRID
    j = jet(x, t, p)
    outputs = (
        *frame(j),
        ab_compatibility_residual(j, frame(j)),
        zero_curvature_residual(j),
        lax_U(j.u, p.lam),
        lax_V(j.u, j.u_x, p.lam, p.alpha),
    )
    for out in outputs:
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert out.shape == x.shape + (3,)


@pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES)
def test_frame_derivatives_match_fd(frame):
    # each closed-form derivative against a difference quotient of (A, B);
    # k1 != 2 keeps alpha != 1, so a swapped x and t derivative shows
    p = SolitonParams(3.0, 0.5, mu=1.5, nu=-0.7)
    x, t = GRID
    f = frame(jet(x, t, p))
    stencil = Stencil(1e-3, order=4, richardson=True)
    for field, axis, exact in (("a", 0, f.a_x), ("a", 1, f.a_t),
                               ("b", 0, f.b_x), ("b", 1, f.b_t)):
        fd = derivative(lambda xx, tt: getattr(frame(jet(xx, tt, p)), field),
                        x, t, stencil, axis=axis)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(fd - exact)) <= 1e-9 * scale, (field, "xt"[axis])


def _spectral_frame_and_reference(surface):
    j = jet(*surface.grid(41, 41), surface.params)
    return SPECTRAL3.frame(j), typed_spectral_frame(j)


@pytest.mark.parametrize("surface", [
    *(pytest.param(resolve(pid), id=pid)
      for pid in sorted(PRESETS) if PRESETS[pid][0] is SPECTRAL3),
    *(pytest.param(resolve(family="spectral3", params=SolitonParams(k1, lam, mu)),
                   id=f"k1={k1:g},lam={lam:g},mu={mu:g}") for k1, lam, mu in (
        (1.2, 0.0, -3.0), (1.0, -0.7, 2.0),
        (2.0, -0.5, 1.3),  # alpha + 2 lam = 0: B's third component is 0.0
    )),
])
def test_spectral_frame_is_bitwise_the_typed_spectral_frame(surface):
    # the spectral-gauge frame at nu = 0 is mu d(U, V)/dlam entry by entry,
    # signed zeros included
    got, want = _spectral_frame_and_reference(surface)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_spectral_frame_equals_the_typed_one_where_a_zero_changes_sign():
    # alpha + 2 lam = 0 with mu < 0 types B's third component as -0.0; the
    # spectral part -0.0 minus the gauge part 0 * c * u (c > 0 > u), -0.0,
    # gives +0.0, so the two agree as numbers only
    surface = resolve(family="spectral3", params=SolitonParams(-2.0, -0.5, mu=-1.3))
    for g, w in zip(*_spectral_frame_and_reference(surface)):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("frame", FRAMES.values(), ids=FRAMES)
def test_compatibility_residual_vanishes(frame):
    p = SolitonParams(2.0, 1.0, mu=-8.0, nu=0.3)
    j = jet(*GRID, p)
    assert np.max(np.abs(ab_compatibility_residual(j, frame(j)))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(gauge_params)
def test_compatibility_random_params(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 7))
    j = jet(x, t, p)
    for frame in FRAMES.values():
        assert np.max(np.abs(ab_compatibility_residual(j, frame(j)))) < 1e-9


def test_families_reject_degenerate_weights():
    # a family whose deformation vanishes identically has no surface
    with pytest.raises(ValueError, match=r"^spectral family requires mu != 0$"):
        resolve(family="spectral3", params=SolitonParams(2.0, 0.0, mu=0.0))
    with pytest.raises(ValueError,
                       match=r"^spectral-gauge family requires \(mu, nu\) != \(0, 0\)$"):
        resolve(family="spectralgauge4", params=SolitonParams(2.0, 0.0, mu=0.0, nu=0.0))


@settings(max_examples=20, deadline=None)
@given(spectral_params)
def test_spectral_curvatures_match_closed_form(p):
    x, t = np.meshgrid(np.linspace(-1.5, 1.5, 9), np.linspace(-1.5, 1.5, 9))
    j = jet(x, t, p)
    f = forms_from_ab(j, SPECTRAL3.frame(j))
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
    f = forms_from_ab(j, SPECTRAL_GAUGE4.frame(j))
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
    j = jet(*GRID, p)
    f = forms_from_ab(j, SPECTRAL3.frame(j))
    assert np.allclose(f.g11, p.mu ** 2 / 4.0, rtol=1e-12)
    assert np.allclose(f.g12, (p.mu ** 2 / 4.0) * (p.alpha + 2 * p.lam), rtol=1e-12)


def test_orientation_sign_is_denominator_sign():
    # at k1 = 2 and t = 0, xi = x, so u = 2 sech(x) runs from 2 down to 0.05,
    # across both poles of the denominator: on either side of each, the
    # frame's H is the closed-form H times the sign of the denominator
    x = np.linspace(0.0, 4.4, 101)
    j = jet(x, 0.0, SolitonParams(2.0, 0.5, mu=1.0, nu=2.0))
    sign = np.sign(SPECTRAL_GAUGE4.denominator(j))
    frame_h = curvatures_from_forms(forms_from_ab(j, SPECTRAL_GAUGE4.frame(j))).H
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
    j = jet(x, t, p)
    cur = curvatures_from_forms(forms_from_ab(j, symmetry_frame(j)))
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
