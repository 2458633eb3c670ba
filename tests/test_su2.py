"""Pauli-basis algebra, the su(2) <-> R^3 identification, and 2x2 arithmetic."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mkdvsurf import su2

from helpers import su2_to_vec

component = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(component, component, component).map(np.array)


def _sigma(k):
    # the Pauli matrix sigma_k, k in {1, 2, 3}
    from sympy.physics.matrices import msigma

    return np.array(msigma(k).tolist(), dtype=complex)


def test_pauli_identities():
    s1, s2, s3 = (_sigma(k) for k in (1, 2, 3))
    for s in (s1, s2, s3):
        assert np.allclose(s @ s, np.eye(2))
    assert np.allclose(s1 @ s2, 1j * s3)
    assert np.allclose(s2 @ s3, 1j * s1)
    assert np.allclose(s3 @ s1, 1j * s2)
    # vec_to_su2 maps the basis vector e_k to i sigma_k
    for k, e in enumerate(np.eye(3), start=1):
        assert np.array_equal(su2.vec_to_su2(e), 1j * _sigma(k))


def test_trace_on_grid():
    m = np.zeros((4, 5, 2, 2), dtype=complex)
    m[..., 0, 0] = 2.0
    m[..., 1, 1] = 3.0j
    assert np.allclose(su2.trace(m), 2.0 + 3.0j)


@settings(max_examples=50, deadline=None)
@given(vec3)
def test_vec_roundtrip(v):
    assert np.allclose(su2_to_vec(su2.vec_to_su2(v)), v)


def _inner_by_trace(fa, fb):
    return -0.5 * su2.trace(fa @ fb).real


def _rounding_bound(terms, n, products):
    # the forward error of a float64 sum of the products ``terms``, n
    # roundings on any path: Higham's gamma_n = n u / (1 - n u), u = 2^-53,
    # times sum |term|; and where a product underflows it loses up to half
    # the smallest subnormal, eta = 2^-1075, counted twice for the roundings
    # it passes through later
    u, eta = Fraction(1, 2 ** 53), Fraction(1, 2 ** 1075)
    return n * u / (1 - n * u) * sum(map(abs, terms)) + 2 * products * eta


@settings(max_examples=50, deadline=None)
@given(vec3, vec3)
@example(np.array([998535.0, 0.0, -998473.9921875]),
         np.array([-998464.0, 0.0, -998473.9921875]))
@example(np.array([4.448541068583704e-233, 0.0, 0.0]),
         np.array([4.448541068583704e-233, 0.0, 0.0]))
def test_inner_is_dot(a, b):
    # against the exact dot product: cancellation can leave it far below the
    # rounding of its terms (the first example's is -50937165.156188965, off
    # by 6.1e-5 in su2_inner), so the bound is absolute, and the second
    # example's product underflows to 0.  su2_inner is a left-to-right sum
    # of three products, three roundings on any path; the trace form rounds
    # once more where trace adds its two diagonal entries, each such a sum,
    # from nine products in all, the halving included
    terms = [Fraction(float(ai)) * Fraction(float(bi)) for ai, bi in zip(a, b)]
    exact = sum(terms)
    inner = su2.su2_inner(a, b)
    assert abs(Fraction(float(inner)) - exact) <= _rounding_bound(terms, 3, 3)
    by_trace = _inner_by_trace(su2.vec_to_su2(a), su2.vec_to_su2(b))
    assert abs(Fraction(float(by_trace)) - exact) <= _rounding_bound(terms, 4, 9)


@settings(max_examples=50, deadline=None)
@given(vec3, vec3)
@example(np.array([23643.249, 900927.393, -711680.775]),
         np.array([23643.24907092975, 900927.3957027822, -711680.7761350423]))
def test_commutator_is_minus_two_cross(a, b):
    c = su2.commutator(a, b)
    expected = -2.0 * np.cross(a, b)
    atol = 1e-9 * (1.0 + np.abs(expected).max())
    assert np.allclose(c, expected, atol=atol)
    # fa fb - fb fa cancels products of size |a| |b|, whose rounding stays
    # when a and b are nearly parallel and a x b is small
    fa, fb = su2.vec_to_su2(a), su2.vec_to_su2(b)
    atol = 1e-9 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b))
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
    from sympy.physics.matrices import msigma

    sigmas = [msigma(k) for k in (1, 2, 3)]

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
    su2_to_vec(f)  # raises unless f is su(2)
    with pytest.raises(ValueError):
        su2_to_vec(np.eye(2, dtype=complex))


def test_hermitian_sigma1_is_not_su2():
    # sigma1 is traceless but Hermitian: only the anti-Hermiticity test rejects it
    s1 = _sigma(1)
    assert su2.trace(s1) == 0
    with pytest.raises(ValueError):
        su2_to_vec(s1)


def test_membership_bound_scales_with_large_entries():
    # atol applies as is to entries of size 1 or less, and times max|f| above
    # that, where rounding grows with the entries
    def with_trace_defect(v, d):
        # i d/2 on both diagonal entries: still anti-Hermitian, trace i d
        f = su2.vec_to_su2(np.asarray(v, dtype=float))
        f[0, 0] += 0.5j * d
        f[1, 1] += 0.5j * d
        return f

    small, large = [0.5, -0.25, 0.125], [1e6, -2e6, 5e5]
    with pytest.raises(ValueError, match="trace defect 2.000e-10"):
        su2_to_vec(with_trace_defect(small, 2e-10))
    assert np.allclose(su2_to_vec(with_trace_defect(large, 2e-10)), large)
    assert np.allclose(su2_to_vec(with_trace_defect(large, 2e-4)), large)
    with pytest.raises(ValueError, match="trace defect 1.000e-03"):
        su2_to_vec(with_trace_defect(large, 1e-3))


def _to_vec_textbook(f):
    # the division form: v1 = (f01 + f10)/2i, v2 = (f01 - f10)/2, v3 = -i f00
    v1 = ((f[..., 0, 1] + f[..., 1, 0]) / 2j).real
    v2 = ((f[..., 0, 1] - f[..., 1, 0]) / 2).real
    v3 = (-1j * f[..., 0, 0]).real
    return np.stack([v1, v2, v3], axis=-1)


def _defects_whole_matrix(f):
    # trace and anti-Hermitian defects over all four entries of F + F^H
    return (np.max(np.abs(su2.trace(f))),
            np.max(np.abs(f + np.conj(np.swapaxes(f, -1, -2)))))


def _conjugated_frames(rng, shape, scale):
    # g^-1 X g for random X in su(2) and random g = [[a, -conj b], [b, conj a]],
    # a multiple of an SU(2) matrix: su(2) up to rounding, so every entry
    # carries a defect of a few ulps
    v = scale * rng.normal(size=shape + (3,))
    a, b = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
    g = np.stack([np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2)
    return su2.mul(su2.mul(np.linalg.inv(g), su2.vec_to_su2(v)), g)


@pytest.mark.parametrize("seed, shape, scale", [
    (0, (40, 50), 1.0), (1, (8192,), 1e-3), (2, (7, 9), 1e6), (3, (), 2.5),
])
def test_su2_to_vec_is_bitwise_the_textbook_formula(seed, shape, scale):
    rng = np.random.default_rng(seed)
    for f in (su2.vec_to_su2(scale * rng.normal(size=shape + (3,))),
              _conjugated_frames(rng, shape, scale)):
        got = su2.su2_components(f)
        want = _to_vec_textbook(f)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", range(4))
def test_su2_to_vec_reports_the_whole_matrix_defects(seed):
    # a Hermitian or a trace perturbation is rejected, and the message gives
    # the defects measured over all four entries of F + F^H
    rng = np.random.default_rng(seed)
    f = _conjugated_frames(rng, (30, 20), 10.0 ** rng.uniform(-2, 2))
    bump = 1e-6 * (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
    for bad in (f + bump + np.conj(np.swapaxes(bump, -1, -2)), f + bump):
        tr, ah = _defects_whole_matrix(bad)
        with pytest.raises(ValueError) as err:
            su2_to_vec(bad)
        assert f"trace defect {tr:.3e}, anti-Hermiticity defect {ah:.3e}" in str(err.value)


@pytest.mark.parametrize("seed", range(3))
def test_su2_defects_of_the_parts_fold_to_those_of_the_whole(seed):
    # the defects are maxima: those of a stack are the elementwise maxima of
    # the defects of its parts, bit for bit, whatever the parts' sizes
    rng = np.random.default_rng(seed)
    f = _conjugated_frames(rng, (101,), 10.0 ** rng.uniform(-3, 6))
    f += 1e-9 * (rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape))
    whole = su2.su2_defects(f)
    assert whole.shape == (3,)
    assert whole[2] == np.max(np.abs(f))
    for size in (1, 7, 50, 101):
        parts = [su2.su2_defects(f[i:i + size]) for i in range(0, f.shape[0], size)]
        assert np.array_equal(np.max(parts, axis=0), whole)


def test_vectorized_shapes():
    v = np.random.default_rng(0).normal(size=(3, 4, 3))
    f = su2.vec_to_su2(v)
    assert f.shape == (3, 4, 2, 2)
    assert su2_to_vec(f).shape == (3, 4, 3)
    assert su2.su2_inner(v, v).shape == (3, 4)
    assert su2.su2_norm(v).shape == (3, 4)
    assert su2.commutator(v, v).shape == (3, 4, 3)


# Stacked shapes for the 2x2 helpers: (left, right) pairs that broadcast,
# including one 2x2 matrix against a grid and a row against a column.
stack_shapes = st.sampled_from([
    ((), ()), ((5,), ()), ((), (4, 3)), ((6,), (6,)), ((3, 4), (4,)),
    ((3, 1), (1, 5)), ((2, 3, 4), (3, 4)), ((7, 7), (7, 7)),
])


def _matrices(rng, shape):
    # complex 2x2 matrices whose entries span 1e-150..1e150: each matrix has
    # its own scale, and its entries a further spread of up to 1e3 about it
    scale = 10.0 ** rng.uniform(-150, 150, size=shape + (1, 1))
    spread = 10.0 ** rng.uniform(-3, 0, size=shape + (2, 2))
    z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return scale * spread * z


def _norm(m):
    # the largest entry: a norm whose square cannot overflow for these entries
    return np.max(np.abs(m), axis=(-2, -1))


@settings(max_examples=60, deadline=None)
@given(stack_shapes, st.integers(0, 2 ** 32 - 1))
def test_stacked_2x2_helpers_match_numpy(shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = _matrices(rng, shapes[0]), _matrices(rng, shapes[1])
    got = su2.mul(a, b)
    want = a @ b
    assert got.shape == want.shape and got.dtype == want.dtype
    bound = 1e-13 * _norm(a) * _norm(b)
    assert np.all(_norm(got - want) <= bound)
    for m in (a, b):
        d = su2.det(m)
        assert d.shape == m.shape[:-2]
        # np.linalg.det goes through log |det|, so its own error grows with
        # |log det|; scaling m by a power of two near its norm (exact) keeps
        # the reference at rounding
        two = 2.0 ** np.frexp(_norm(m))[1]
        ref = np.linalg.det(m / two[..., None, None]) * two ** 2
        assert np.all(np.abs(d - ref) <= 1e-13 * _norm(m) ** 2)


def test_no_matrix_products_or_linalg_solves_in_the_package():
    # stacked 2x2 arithmetic goes through su2.mul and det, and Phi's inverse
    # is Phi^H / det Phi: numpy's @ and np.linalg call BLAS or LAPACK once per
    # matrix of a grid, so inv and solve stay banned too; and a norm over
    # a trailing 3-vector axis is the sqrt of three squares, since a numpy
    # reduction over so short an axis costs several times its arithmetic
    banned = {"det", "inv", "solve", "norm"}
    for path in sorted(Path(su2.__file__).parent.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append((node.lineno, f"linalg.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [(node.lineno, f"linalg.{a.name}") for a in node.names if a.name in banned]
        assert not found, f"{path.name}: {found}"
