"""Pauli-basis algebra and the su(2) <-> R^3 identification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvsurf import su2

component = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(component, component, component).map(np.array)


def test_pauli_identities():
    s1, s2, s3 = su2.pauli(1), su2.pauli(2), su2.pauli(3)
    for s in (s1, s2, s3):
        assert np.allclose(s @ s, np.eye(2))
    assert np.allclose(s1 @ s2, 1j * s3)
    assert np.allclose(s2 @ s3, 1j * s1)
    assert np.allclose(s3 @ s1, 1j * s2)


def test_pauli_rejects_bad_index():
    with pytest.raises(ValueError):
        su2.pauli(0)
    with pytest.raises(ValueError):
        su2.pauli(4)


def test_pauli_returns_copy():
    s = su2.pauli(1)
    s[0, 0] = 99.0
    assert su2.pauli(1)[0, 0] == 0.0


def test_trace_on_grid():
    m = np.zeros((4, 5, 2, 2), dtype=complex)
    m[..., 0, 0] = 2.0
    m[..., 1, 1] = 3.0j
    assert np.allclose(su2.trace(m), 2.0 + 3.0j)


@settings(max_examples=50, deadline=None)
@given(vec3)
def test_vec_roundtrip(v):
    assert np.allclose(su2.su2_to_vec(su2.vec_to_su2(v), atol=1e-6 * (1 + np.abs(v).max())), v)


def _inner_by_trace(fa, fb):
    return -0.5 * su2.trace(fa @ fb).real


@settings(max_examples=50, deadline=None)
@given(vec3, vec3)
def test_inner_is_dot(a, b):
    fa, fb = su2.vec_to_su2(a), su2.vec_to_su2(b)
    inner = su2.su2_inner(a, b)
    assert inner == pytest.approx(float(a @ b), rel=1e-12, abs=1e-9)
    assert inner == pytest.approx(_inner_by_trace(fa, fb), rel=1e-12, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(vec3, vec3)
def test_commutator_is_minus_two_cross(a, b):
    c = su2.commutator(a, b)
    expected = -2.0 * np.cross(a, b)
    atol = 1e-9 * (1.0 + np.abs(expected).max())
    assert np.allclose(c, expected, atol=atol)
    fa, fb = su2.vec_to_su2(a), su2.vec_to_su2(b)
    assert np.allclose(su2.vec_to_su2(c), fa @ fb - fb @ fa, atol=atol)


@settings(max_examples=50, deadline=None)
@given(vec3)
def test_norm_is_euclidean(v):
    n = su2.su2_norm(v)
    f = su2.vec_to_su2(v)
    assert n == pytest.approx(np.linalg.norm(v), rel=1e-12, abs=1e-12)
    assert n == pytest.approx(np.sqrt(abs(_inner_by_trace(f, f))), rel=1e-12, abs=1e-12)


def test_vec_broadcasts_components():
    u = np.linspace(-1.0, 1.0, 5)
    v = su2.vec(-0.5 * u, 0.0, 2)
    assert v.dtype == np.float64
    assert v.shape == (5, 3)
    assert np.array_equal(v[:, 0], -0.5 * u)
    assert np.array_equal(v[:, 1:], np.tile([0.0, 2.0], (5, 1)))


def test_vector_algebra_certificate():
    # exact in symbolic x, y: vec_to_su2(-2 x×y) = XY - YX and x·y = -1/2 tr(XY)
    import sympy as sp

    x = sp.Matrix(sp.symbols("x1:4", real=True))
    y = sp.Matrix(sp.symbols("y1:4", real=True))
    sigmas = [sp.Matrix(su2.pauli(k).tolist()).applyfunc(sp.nsimplify) for k in (1, 2, 3)]

    def to_su2(v):
        return sp.I * sum((v[k] * sigmas[k] for k in range(3)), sp.zeros(2, 2))

    X, Y = to_su2(x), to_su2(y)
    assert sp.simplify(to_su2(-2 * x.cross(y)) - (X * Y - Y * X)) == sp.zeros(2, 2)
    assert sp.expand(x.dot(y) + sp.Rational(1, 2) * (X * Y).trace()) == 0
    # the numeric maps are (bi)linear, so agreeing exactly on the basis
    # carries the symbolic identities over to them
    def exact(a):
        return sp.Matrix(np.asarray(a).tolist()).applyfunc(sp.nsimplify)

    basis = np.eye(3)
    for j in range(3):
        e_j = exact(basis[j])
        assert exact(su2.vec_to_su2(basis[j])) == to_su2(e_j)
        for k in range(3):
            e_k = exact(basis[k])
            assert sp.nsimplify(float(su2.su2_inner(basis[j], basis[k]))) == e_j.dot(e_k)
            assert exact(su2.commutator(basis[j], basis[k])) == -2 * e_j.cross(e_k)


def test_su2_membership():
    f = su2.vec_to_su2(np.array([1.0, -2.0, 0.5]))
    assert su2.is_su2(f)
    assert not su2.is_su2(np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        su2.su2_to_vec(np.eye(2, dtype=complex))


def test_hermitian_sigma1_is_not_su2():
    # sigma1 is traceless but Hermitian: only the anti-Hermiticity test rejects it
    s1 = su2.pauli(1)
    assert su2.trace(s1) == 0
    assert not su2.is_su2(s1)
    with pytest.raises(ValueError):
        su2.su2_to_vec(s1)


def test_vectorized_shapes():
    v = np.random.default_rng(0).normal(size=(3, 4, 3))
    f = su2.vec_to_su2(v)
    assert f.shape == (3, 4, 2, 2)
    assert su2.su2_to_vec(f).shape == (3, 4, 3)
    assert su2.su2_inner(v, v).shape == (3, 4)
    assert su2.su2_norm(v).shape == (3, 4)
    assert su2.commutator(v, v).shape == (3, 4, 3)
