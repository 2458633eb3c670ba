"""Frame system: U, V matrices, closed-form solution, determinant invariant."""

import warnings

import numpy as np
import pytest

from mkdvsurf import lax, su2
from mkdvsurf.immersion import PRESETS, resolve
from mkdvsurf.lax import (
    det_phi_expected,
    lax_residuals,
    lax_U,
    lax_V,
    phi,
    zero_curvature_residual,
)
from mkdvsurf.soliton import SolitonParams, jet

from helpers import su2_to_vec

GRID = np.meshgrid(np.linspace(-2, 2, 17), np.linspace(-2, 2, 17))

SAMPLE_PARAMS = [
    SolitonParams(1.0, 0.0),
    SolitonParams(2.0, 1.0),
    SolitonParams(2.0, -0.5),
    SolitonParams(3.0, 0.25),
]


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_u_v_are_su2_valued(p):
    j = jet(*GRID, p)
    # su2_to_vec raises on a matrix that is not su(2); a real component
    # vector is su(2) exactly, so the round trip is bitwise
    for v in (lax_U(j.u, p.lam), lax_V(j.u, j.u_x, p.lam, p.alpha)):
        assert v.dtype == np.float64
        assert np.array_equal(su2_to_vec(su2.vec_to_su2(v)), v)


def test_u_matrix_entries():
    m = su2.vec_to_su2(lax_U(np.array(0.7), 0.3))
    assert m[0, 0] == pytest.approx(0.15j)
    assert m[0, 1] == pytest.approx(-0.35j)
    assert m[1, 0] == pytest.approx(-0.35j)
    assert m[1, 1] == pytest.approx(-0.15j)


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_zero_curvature(p):
    x, t = GRID
    assert np.max(np.abs(zero_curvature_residual(jet(x, t, p)))) < 1e-12


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_phi_solves_both_equations(p):
    x, t = GRID
    rx, rt, _ = lax_residuals(jet(x, t, p), h=1e-6)
    assert np.max(np.abs(rx)) < 1e-8
    assert np.max(np.abs(rt)) < 1e-8


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_det_constant_and_matches_formula(p):
    x, t = GRID
    dets = np.linalg.det(phi(jet(x, t, p)))
    expected = det_phi_expected(p)
    assert np.max(np.abs(dets - expected)) < 1e-10 * abs(expected)


def _assert_phi_proportional_to_unitary(p, x, t):
    # Phi^H Phi = det(Phi) I: the frame tangents take Phi^-1 = Phi^H / det Phi,
    # which keeps the conjugated tangent frame su(2)-valued
    f = phi(jet(x, t, p))
    c = det_phi_expected(p)
    gram = np.conj(np.swapaxes(f, -1, -2)) @ f
    assert np.max(np.abs(gram - c * np.eye(2))) <= 1e-14 * c


# Phi's weight |B1| = e^(-pi lambda/k1)/|k1| and det Phi where they are no
# normal double: B1 overflows, underflows to 0 or is subnormal, and det Phi
# overflows or is subnormal where B1 is a normal double
PHI_SCALE_PROBLEMS = [
    (SolitonParams(0.01, -3.0), "k1 = 0.01, lambda = -3: |B1| = e^(-pi lambda/k1)/|k1| = inf, "
     "need it finite and nonzero"),
    (SolitonParams(0.01, 3.0), "k1 = 0.01, lambda = 3: |B1| = e^(-pi lambda/k1)/|k1| = 0, "
     "need it finite and nonzero"),
    (SolitonParams(0.1288852974447968, 30.533654924811838),
     "k1 = 0.128885, lambda = 30.5337: |B1| = e^(-pi lambda/k1)/|k1| = 3.95253e-323 is "
     "subnormal, need it at least 2.22507e-308 in magnitude"),
    (SolitonParams(1.0, -225.0), "k1 = 1, lambda = -225: det Phi = inf, "
     "need it finite and nonzero"),
    (SolitonParams(1e-8, 2.3e-6), "k1 = 1e-08, lambda = 2.3e-06: det Phi = 6.60673e-309 is "
     "subnormal, need it at least 2.22507e-308 in magnitude"),
]


@pytest.mark.parametrize("p, problem", PHI_SCALE_PROBLEMS,
                         ids=["B1-inf", "B1-zero", "B1-subnormal", "det-inf", "det-subnormal"])
def test_phi_scale_problem_names_the_constant(p, problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lax.phi_scale_problem(p) == problem


@pytest.mark.parametrize("p", SAMPLE_PARAMS + [resolve(pid).params for pid in sorted(PRESETS)])
def test_phi_scale_problem_passes_a_normal_phi(p):
    assert lax.phi_scale_problem(p) is None


@pytest.mark.parametrize("p", SAMPLE_PARAMS)
def test_phi_proportional_to_unitary(p):
    _assert_phi_proportional_to_unitary(p, *GRID)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_phi_proportional_to_unitary_on_the_clipped_grid(preset):
    # as the lax and consistency checks sample each preset
    surface = resolve(preset, x_range=(-2.0, 2.0), t_range=(-2.0, 2.0))
    _assert_phi_proportional_to_unitary(surface.params, *surface.grid(41, 41))


def _phi_eight_chains(x, t, p):
    # Phi as written before its columns shared their terms: eight product
    # chains over the general constants, here (A1, A2, B1, B2) = (1, 1, B, -B)
    # with B = -e^(-pi lam/k1)/k1; the A's are 1 and drop out of the chains
    B1 = -np.exp(-np.pi * p.lam / p.k1) / p.k1
    B2 = -B1
    j = jet(x, t, p)
    z, s, tau = j.xi, j.s, j.tau
    phase = np.exp(1j * p.lam * z / p.k1)
    damp = np.exp(-np.pi * p.lam / (2.0 * p.k1))
    p_plus, p_minus = phase * damp, np.conj(phase) / damp
    omega = (p.k1 ** 2 + 4.0 * p.lam ** 2) / 8.0
    ea = np.exp(1j * omega * np.asarray(t, dtype=float))
    eb = np.conj(ea)
    ea = np.broadcast_to(ea, z.shape)
    eb = np.broadcast_to(eb, z.shape)
    top = (2.0 * p.lam + 1j * p.k1 * tau) * p_plus
    bot = (p.k1 * tau + 2.0j * p.lam) * p_minus
    out = np.zeros(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -(1j / p.k1) * ea * top + 1j * p.k1 * B1 * eb * p_minus * s
    out[..., 0, 1] = -(1j / p.k1) * ea * top + 1j * p.k1 * B2 * eb * p_minus * s
    out[..., 1, 0] = 1j * ea * p_plus * s + B1 * eb * bot
    out[..., 1, 1] = 1j * ea * p_plus * s + B2 * eb * bot
    return out


def _bits(a):
    # the stacks are stored entry-first, so their bytes are read through a copy
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_phi_is_bitwise_the_eight_chain_formula(preset):
    # on every preset's lax grid and at every offset of the lax stencil;
    # along x also with the grid's t factors passed in, as the stencil does.
    # The oracle writes each entry of Phi as its own two product chains at
    # A = 1, B = -e^(-pi lam/k1)/k1, so it pins the shared-term arithmetic
    # of ``phi``: the second column as the first column's terms with -B,
    # and the t factors formed once per row
    surface = resolve(preset, x_range=(-2.0, 2.0), t_range=(-2.0, 2.0))
    p = surface.params
    x, t = surface.grid(23, 19)
    h = 1e-6
    for d in (0.0, h, -h, h / 2, -h / 2):
        for xx, tt, terms in ((x + d, t, None), (x + d, t, lax._time_terms(t, p)),
                              (x, t + d, None)):
            want = _phi_eight_chains(xx, tt, p)
            got = phi(jet(xx, tt, p), terms)
            assert np.array_equal(_bits(got), _bits(want))


def _time_term_chains(t, p):
    # the left-hand factors of the four chains of ``_phi_eight_chains``, at
    # every point
    b = -np.exp(-np.pi * p.lam / p.k1) / p.k1
    omega = (p.k1 ** 2 + 4.0 * p.lam ** 2) / 8.0
    ea = np.exp(1j * omega * np.asarray(t, dtype=float))
    eb = np.conj(ea)
    return -(1j / p.k1) * ea, 1j * p.k1 * b * eb, 1j * ea, b * eb


_RNG = np.random.default_rng(32)


@pytest.mark.parametrize("t", [
    # a tile's rows
    resolve("ex2", x_range=(-2.0, 2.0), t_range=(-2.0, 2.0)).grid(41, 41)[1].reshape(-1)[:1000],
    resolve("ex7").grid(201, 201)[1],                             # a 2-D grid
    _RNG.uniform(-3.0, 3.0, 777),                                 # no runs
    np.array([0.0, -0.0, -0.0, 0.0, 0.0, 1.5, -0.0]),            # signed zeros
    np.array([np.nan, np.nan, 1.0, np.nan, 1.0, 1.0]),
    np.array(-0.75),                                              # 0-d
    np.array([]),
], ids=["tile", "grid-2d", "random", "signed-zeros", "nan", "0-d", "empty"])
@pytest.mark.parametrize("p", SAMPLE_PARAMS[1:])
def test_time_terms_are_bitwise_the_per_point_chains(t, p):
    with np.errstate(invalid="ignore"):
        got = lax._time_terms(t, p)
        want = _time_term_chains(t, p)
    for g, w in zip(got, want, strict=True):
        assert g.shape == np.shape(t)
        assert np.array_equal(_bits(g), _bits(w))


def test_phi_and_stacks_have_contiguous_entries():
    p = SAMPLE_PARAMS[1]
    j = jet(*GRID, p)
    v = lax_U(j.u, p.lam)
    stacks = (phi(j), su2.vec_to_su2(v), su2.mul(su2.vec_to_su2(v), phi(j)))
    for m in stacks:
        assert m.shape == GRID[0].shape + (2, 2)
        for i in (0, 1):
            for k in (0, 1):
                assert m[..., i, k].flags.c_contiguous


def test_lax_matrices_encode_soliton():
    p = SolitonParams(2.0, 0.7)
    x, t = 0.3, -0.4
    j = jet(x, t, p)
    uu, ux = j.u, j.u_x
    m = su2.vec_to_su2(lax_U(uu, p.lam))
    # off-diagonal entry is -i u / 2
    assert m[0, 1] == pytest.approx(-0.5j * uu)
    v = su2.vec_to_su2(lax_V(uu, ux, p.lam, p.alpha))
    omega = p.alpha + p.alpha * p.lam + p.lam ** 2
    assert v[0, 0] == pytest.approx(-0.5j * (uu ** 2 / 2.0 - omega))
    assert v[0, 1] == pytest.approx(-0.5j * ((p.alpha + p.lam) * uu - 1j * ux))
    assert v[1, 0] == pytest.approx(-0.5j * ((p.alpha + p.lam) * uu + 1j * ux))
    assert v[1, 1] == pytest.approx(0.5j * (uu ** 2 / 2.0 - omega))
