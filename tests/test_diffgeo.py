"""Finite-difference oracle: forms from positions, surface operators."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvsurf import diffgeo as dg, lagrangian, su2, verify
from mkdvsurf.immersion import PRESETS, SPECTRAL3, resolve
from mkdvsurf.lax import det_phi_expected, phi
from mkdvsurf.soliton import SolitonParams, jet, xi_grid

from helpers import Fields, fields, shape_geometry, shape_residuals

X1, T1 = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))


def plane(x, t):
    return np.stack([x, t, 0.3 * x + 0.1 * t], axis=-1)


def sphere(x, t):
    # unit sphere, x = polar angle offset from equator, t = azimuth
    return np.stack(
        [np.cos(x) * np.cos(t), np.cos(x) * np.sin(t), np.sin(x)], axis=-1
    )


def sphere_forms(x, t):
    # unit sphere: h = g, so K = 1
    g = (np.ones_like(x), np.zeros_like(x), np.cos(x) ** 2)
    return dg.Forms(*g, *g)


def flat_forms(g11=1.0):
    # a constant metric diag(g11, 1); the Laplacian reads no h
    def forms(x, t):
        zero = np.zeros_like(x)
        return dg.Forms(g11 + zero, zero, 1.0 + zero, zero, zero, zero)

    return forms


def test_stencil_validation():
    with pytest.raises(ValueError):
        dg.Stencil(h=1e-9)
    with pytest.raises(ValueError):
        dg.Stencil(h=0.1)
    with pytest.raises(ValueError):
        dg.Stencil(order=3)
    s = dg.Stencil(h=1e-3, order=2, richardson=True)
    assert s.order == 2


def test_derivative_on_polynomial():
    f = lambda x, t: x ** 3 + 2 * t ** 2 * x
    s = dg.Stencil(order=4)
    got = dg.derivative(f, X1, T1, s, axis=0)
    assert np.allclose(got, 3 * X1 ** 2 + 2 * T1 ** 2, atol=1e-9)
    f_t = lambda x, t: dg.derivative(f, x, t, s, axis=1)
    got2 = dg.derivative(f_t, X1, T1, s, axis=1)
    assert np.allclose(got2, 4 * X1, atol=1e-5)


def test_order2_richardson_is_the_old_lax_quotient_bitwise():
    # the Lax check's former (4 d(h/2) - d(h))/3 with d the 3-point quotient
    p = resolve("ex2").params
    f = lambda x, t: phi(jet(x, t, p))
    h = 1e-6
    d_x = lambda step: (f(X1 + step, T1) - f(X1 - step, T1)) / (2.0 * step)
    d_t = lambda step: (f(X1, T1 + step) - f(X1, T1 - step)) / (2.0 * step)
    s = dg.Stencil(h, order=2, richardson=True)
    for axis, d in ((0, d_x), (1, d_t)):
        old = (4.0 * d(h / 2.0) - d(h)) / 3.0
        assert np.array_equal(dg.derivative(f, X1, T1, s, axis=axis), old)


def test_order4_is_the_old_five_point_quotient_bitwise():
    # the consistency check's former inline 5-point quotient of the position
    pre = resolve("ex6")
    f = fields(pre.family, pre.params).position
    h = 1e-3
    old_x = (8.0 * (f(X1 + h, T1) - f(X1 - h, T1))
             - (f(X1 + 2 * h, T1) - f(X1 - 2 * h, T1))) / (12.0 * h)
    old_t = (8.0 * (f(X1, T1 + h) - f(X1, T1 - h))
             - (f(X1, T1 + 2 * h) - f(X1, T1 - 2 * h))) / (12.0 * h)
    s = dg.Stencil(h, order=4)
    assert np.array_equal(dg.derivative(f, X1, T1, s, axis=0), old_x)
    assert np.array_equal(dg.derivative(f, X1, T1, s, axis=1), old_t)


def test_richardson_reuses_shared_offsets():
    # each distinct stencil point is evaluated once, and the result is the
    # textbook coarse/fine combination bitwise
    calls = []

    def f(x, t):
        calls.append((x, t))
        return np.sin(x) * np.exp(0.5 * t) + x ** 3 * t

    h, h2 = 1e-3, 1e-3 / 2.0
    for axis in (0, 1):
        at = (lambda d: f(X1 + d, T1)) if axis == 0 else (lambda d: f(X1, T1 + d))

        def d1_4(step):
            return (8.0 * (at(step) - at(-step)) - (at(2 * step) - at(-2 * step))) / (12.0 * step)

        def d1_2(step):
            return (at(step) - at(-step)) / (2.0 * step)

        cases = (
            (dg.Stencil(h, 4, True), 6, (16.0 * d1_4(h2) - d1_4(h)) / 15.0),
            (dg.Stencil(h, 2, True), 4, (4.0 * d1_2(h2) - d1_2(h)) / 3.0),
            (dg.Stencil(h, 4, False), 4, d1_4(h)),
        )
        for s, n_calls, textbook in cases:
            calls.clear()
            got = dg.derivative(f, X1, T1, s, axis=axis)
            assert len(calls) == n_calls, s
            assert np.array_equal(got, textbook), s


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("s", [dg.Stencil(1e-3, 4, True), dg.Stencil(1e-3, 4, False),
                               dg.Stencil(1e-3, 2, True), dg.Stencil(1e-3, 2, False)],
                         ids=["o4-rich", "o4", "o2-rich", "o2"])
def test_quotient_never_writes_into_a_value_read_returned(s, dtype):
    # the quotients are formed in arrays of their own: read hands out views
    # of one stacked array, as the divergence-form pass's by_offset does, and
    # the stack is left as it was
    offsets = dg._reads(s)
    rng = np.random.default_rng(54)
    stack = rng.standard_normal((3, len(offsets), 4, 5)).astype(dtype)
    if dtype is complex:
        stack.imag = rng.standard_normal(stack.shape)
    before = stack.copy()
    got = dg._quotient(dict(zip(offsets, np.moveaxis(stack, 1, 0))).pop, s)
    assert np.array_equal(stack.view(np.int64), before.view(np.int64))
    assert not np.shares_memory(got, stack)
    fresh = dg._quotient(lambda d: before[:, offsets.index(d)].copy(), s)
    assert np.array_equal(got.view(np.int64), fresh.view(np.int64))


def test_the_oracle_has_one_difference_kernel_of_first_order():
    # a second derivative nests ``derivative``: the one kernel, a function
    # of a reader, a step and an order, is the first difference, and no
    # signature takes the order of the derivative
    kernels = {name for name, fn in vars(dg).items() if inspect.isfunction(fn)
               and list(inspect.signature(fn).parameters) == ["at", "h", "order"]}
    assert kernels == {"_d1_once"}
    for fn, params in ((dg.derivative, ["f", "x", "t", "s", "axis"]),
                       (dg._quotient, ["read", "s"]), (dg._reads, ["s"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__


def test_oracle_imports_no_package_module():
    # the oracle must not reach the closed forms it checks
    tree = ast.parse(open(dg.__file__).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import from {node.module!r}"
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not [n for n in names if n.split(".")[0] == "mkdvsurf"], names


def _real_divisors():
    # the steps' denominators 2h and 12h at the lax and consistency bounds,
    # the Richardson denominators 3 and 15, and each preset's Phi constants:
    # lax._power_factors' damp = e^(-pi lam/(2 k1)) and det Phi; and their negatives
    steps = [h for name in ("lax", "consistency") for h in verify._CHECKS[name].steps]
    ds = [2.0 * h for h in steps] + [12.0 * h for h in steps] + [3.0, 15.0]
    for preset in sorted(PRESETS):
        p = resolve(preset).params
        ds += [np.exp(-np.pi * p.lam / (2.0 * p.k1)), det_phi_expected(p)]
    return ds + [-d for d in ds]


# zeros, subnormals, normal, huge and non-finite parts
_PARTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5, 0.7, 3e300, -1.7e308,
                   np.finfo(float).max, np.inf, -np.inf, np.nan])


def _complex_layouts():
    rng = np.random.default_rng(39)
    n = 4096
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
              + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n))
    pairs = np.empty(_PARTS.size ** 2, complex)
    pairs.real = np.repeat(_PARTS, _PARTS.size)
    pairs.imag = np.tile(_PARTS, _PARTS.size)
    flat = np.concatenate([pairs, values])
    stack = su2.empty_2x2((flat.size // 4,))
    stack[...] = flat[: stack.size].reshape(-1, 2, 2)
    return [flat, stack] + [np.array(v) for v in pairs]


def _fp_errors(divide):
    # the floating-point errors numpy reports for one call (underflow is
    # ignored by default, so it is not compared)
    seen = set()
    with np.errstate(all="call", under="ignore", call=lambda kind, flag: seen.add(kind)):
        out = divide()
    return out, seen


def test_div_real_of_a_complex_array_is_numpy_division():
    # equal to a / d under ==, NaN in the same parts, in place, and no
    # floating-point error that a / d does not report
    for d in _real_divisors():
        for a in _complex_layouts():
            want, want_errors = _fp_errors(lambda: a / d)
            work = a.copy()
            got, got_errors = _fp_errors(lambda: dg.div_real(work, d))
            assert got is work
            assert np.array_equal(got.real, want.real, equal_nan=True), d
            assert np.array_equal(got.imag, want.imag, equal_nan=True), d
            assert got_errors <= want_errors, (d, got_errors, want_errors)


def test_div_real_of_a_real_array_is_bitwise_numpy_division():
    rng = np.random.default_rng(39)
    values = np.concatenate([_PARTS, rng.standard_normal(4096)
                             * 10.0 ** rng.integers(-320, 300, 4096)])
    for d in _real_divisors():
        for a in (values, values.reshape(-1, 1, 1), np.array(values[5])):
            with np.errstate(all="ignore"):
                got, want = dg.div_real(a.copy(), d), a / d
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64)), d


def test_mixed_derivative():
    f = lambda x, t: np.sin(x) * np.cos(2 * t)
    s = dg.Stencil(order=4)
    f_t = lambda x, t: dg.derivative(f, x, t, s, axis=1)
    got = dg.derivative(f_t, X1, T1, s, axis=0)
    assert np.allclose(got, -2 * np.cos(X1) * np.sin(2 * T1), atol=1e-8)


def test_fd_forms_plane():
    f = dg.fd_forms(plane, X1, T1)
    assert np.allclose(f.g11, 1.09, atol=1e-9)
    assert np.allclose(f.g12, 0.03, atol=1e-9)
    assert np.allclose(f.g22, 1.01, atol=1e-9)
    for name in ("h11", "h12", "h22"):
        assert np.max(np.abs(getattr(f, name))) < 1e-7


def test_fd_forms_sphere_curvatures():
    from mkdvsurf.deformation import curvatures_from_forms

    f = dg.fd_forms(sphere, X1, T1)
    cur = curvatures_from_forms(f)
    assert np.allclose(cur.K, 1.0, atol=1e-7)
    assert np.allclose(np.abs(cur.H), 1.0, atol=1e-7)


def test_fd_forms_degenerate_point_raises():
    collapsed = lambda x, t: np.stack([x, x, np.zeros_like(x)], axis=-1)
    with pytest.raises(dg.SingularPointError):
        dg.fd_forms(collapsed, 0.0, 0.0)
    out = dg.fd_forms(collapsed, np.array([0.0, 0.1]), np.array([0.0, 0.0]))
    assert np.isnan(out.h11).all()


def test_laplace_beltrami_flat():
    f = lambda x, t: x ** 2 + t ** 2
    got = dg.laplace_beltrami(f, flat_forms(), X1, T1, flat_forms()(X1, T1))
    assert np.allclose(got, 4.0, atol=1e-8)


def test_laplace_beltrami_sphere_eigenfunction():
    # f = sin(polar) has eigenvalue -2 on the unit sphere
    f = lambda x, t: np.sin(x)
    got = dg.laplace_beltrami(f, sphere_forms, X1, T1, sphere_forms(X1, T1))
    assert np.allclose(got, -2.0 * np.sin(X1), atol=1e-8)


def test_laplace_convergence_order():
    f = lambda x, t: np.sin(x) * np.cos(t)
    exact = -2.0 * np.sin(X1) * np.cos(T1)
    errs = []
    for h in (4e-3, 2e-3):
        s = dg.Stencil(h=h, order=2, richardson=False)
        lap = dg.laplace_beltrami(f, flat_forms(), X1, T1, flat_forms()(X1, T1), s)
        errs.append(np.max(np.abs(lap - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0  # second order: halving h -> ~4x


@settings(max_examples=10, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_operator_linearity(a, b):
    forms = flat_forms(2.0)
    f = lambda x, t: np.sin(x) + t ** 2
    g = lambda x, t: np.cos(t) * x
    combo = lambda x, t: a * f(x, t) + b * g(x, t)
    at = forms(X1, T1)
    lhs = dg.laplace_beltrami(combo, forms, X1, T1, at)
    rhs = a * dg.laplace_beltrami(f, forms, X1, T1, at) + b * dg.laplace_beltrami(
        g, forms, X1, T1, at
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * (1 + abs(a) + abs(b))


def _divergence_form(f, forms, x, t, s, blocks):
    # the pass over the surfaces of the Forms fields ``forms``, with blocks
    # (rows, tensor, weight field or None) as the nested pass takes them:
    # one geometry call gives every surface's forms and every block's weight
    def geometry(a, b):
        return ([fm(a, b) for fm in forms],
                [None if weight is None else weight(a, b) for _, _, weight in blocks])

    return dg._divergence_form(f, geometry, x, t, [fm(x, t) for fm in forms], s,
                               [(rows, tensor) for rows, tensor, _ in blocks])


def _nabla_dot_bar(f, forms, k_of, x, t):
    # the curvature-weighted operator (1/sqrt(det g)) d_i(sqrt(det g) K h^ij d_j f)
    # as the shape equation runs it: one "h" block weighted by K
    [div] = _divergence_form(f, (forms,), x, t, None, ((..., "h", k_of),))
    return div


def _nabla_dot_bar_written_out(f, forms, k_of, x, t):
    # the same operator written out: sqrt(det g) * K * (adjugate of h) . grad f / det h
    s = dg.OPERATOR_STENCIL

    def flux(xx, tt, row):
        fm = forms(xx, tt)
        sq = np.sqrt(fm.g11 * fm.g22 - fm.g12 ** 2)
        h11, h12, h22 = fm.h11, fm.h12, fm.h22
        deth = h11 * h22 - h12 ** 2
        fx = dg.derivative(f, xx, tt, s, axis=0)
        ft = dg.derivative(f, xx, tt, s, axis=1)
        if row == 0:
            return sq * k_of(xx, tt) * (h22 * fx - h12 * ft) / deth
        return sq * k_of(xx, tt) * (-h12 * fx + h11 * ft) / deth

    div = dg.derivative(lambda a, b: flux(a, b, 0), x, t, s, axis=0)
    div = div + dg.derivative(lambda a, b: flux(a, b, 1), x, t, s, axis=1)
    fm = forms(x, t)
    return div / np.sqrt(fm.g11 * fm.g22 - fm.g12 ** 2)


def test_nabla_dot_bar_reduces_to_laplacian_on_unit_sphere():
    # K = 1 and h = g on the unit sphere, so the operator equals the Laplacian
    f = lambda x, t: np.sin(x)
    k_of = lambda x, t: np.ones_like(x)
    got = _nabla_dot_bar(f, sphere_forms, k_of, X1, T1)
    lap = dg.laplace_beltrami(f, sphere_forms, X1, T1, sphere_forms(X1, T1))
    assert np.allclose(got, lap, atol=1e-7)


def test_nabla_dot_bar_keeps_the_weighted_flux_arithmetic_bitwise():
    prov = fields(SPECTRAL3, resolve("ex2").params)
    x, t = np.meshgrid(np.linspace(-0.4, 0.4, 5), np.linspace(-0.4, 0.4, 5))
    f = lambda xx, tt: prov.curvatures(xx, tt).H
    k_of = lambda xx, tt: prov.curvatures(xx, tt).K
    got = _nabla_dot_bar(f, prov.forms, k_of, x, t)
    assert np.array_equal(got, _nabla_dot_bar_written_out(f, prov.forms, k_of, x, t))


def _nested_divergence_form(f, forms, x, t, s, blocks):
    # the divergence-form pass as it was before the two flux passes shared
    # their mixed points: each flux point differentiates f afresh along both
    # axes, so f is evaluated at every point (x + a, t + b) twice
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)

    def flux(xx, tt, row):
        fm = forms(xx, tt)
        sq = dg._sqrt_det_g(fm, scalar_ok=False)
        fx = np.asarray(dg.derivative(f, xx, tt, s, axis=0))
        ft = np.asarray(dg.derivative(f, xx, tt, s, axis=1))
        out = None
        if len(blocks) > 1:
            out = np.empty(np.broadcast_shapes(fx.shape, np.shape(sq)))
        for rows, tensor, weight in blocks:
            if tensor == "g":
                a11, a12, a22, det_a = fm.g11, fm.g12, fm.g22, fm.det_g()
            else:
                a11, a12, a22, det_a = fm.h11, fm.h12, fm.h22, fm.det_h()
            w = sq if weight is None else sq * weight(xx, tt)
            with np.errstate(invalid="ignore", divide="ignore"):
                if row == 0:
                    value = w * (a22 * fx[rows] - a12 * ft[rows]) / det_a
                else:
                    value = w * (-a12 * fx[rows] + a11 * ft[rows]) / det_a
            if out is None:
                return value
            out[rows] = value
        return out

    div = dg.derivative(lambda a, b: flux(a, b, 0), x, t, s, axis=0)
    div = div + dg.derivative(lambda a, b: flux(a, b, 1), x, t, s, axis=1)
    return div / dg._sqrt_det_g(forms(x, t), scalar_ok=True)


def _shape_surface(case):
    # the shape check's spectral3 surfaces at lam = +-k1/2, and ex7
    if case == "ex7":
        pre = resolve("ex7")
        return fields(pre.family, pre.params), *np.meshgrid(
            np.linspace(-0.4, 0.4, 7), np.linspace(-0.3, 0.3, 5))
    p = resolve("ex2").params
    sp = SolitonParams(k1=p.k1, lam=(1.0 if case == "lam+" else -1.0) * p.k1 / 2.0, mu=p.mu)
    return fields(SPECTRAL3, sp), *xi_grid(sp, 2.0, 7, 5)


def _operator_cases(prov):
    # (field, blocks): the Laplacian, the K-weighted block alone, and the
    # fused multi-row field of the shape equation (Laplacian rows, then
    # K-weighted rows)
    k_of = lambda a, b: prov.curvatures(a, b).K

    def rows(a, b):
        c = prov.curvatures(a, b)
        return np.stack([c.H, c.H ** 2 - c.K, 2.0 * c.H, c.K * c.H])

    return {
        "laplacian": (lambda a, b: prov.curvatures(a, b).H, ((..., "g", None),)),
        "k-weighted": (lambda a, b: prov.curvatures(a, b).H, ((..., "h", k_of),)),
        "fused": (rows, ((slice(0, 2), "g", None), (slice(2, None), "h", k_of))),
    }


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s", [dg.OPERATOR_STENCIL, dg.Stencil(1e-3, 4, False),
                               dg.Stencil(2e-3, 2, True), dg.Stencil(1e-3, 2, False)],
                         ids=lambda s: f"order{s.order}-{'rich' if s.richardson else 'plain'}")
@pytest.mark.parametrize("case", ["lam+", "lam-", "ex7"])
def test_divergence_form_is_the_nested_pass_bitwise(case, s):
    # each pass takes all its flux offsets in one stack, on a grid and at a
    # single point
    prov, x, t = _shape_surface(case)
    for xx, tt in ((x, t), (x[1, 2], t[1, 2])):
        for name, (field, blocks) in _operator_cases(prov).items():
            [got] = _divergence_form(field, (prov.forms,), xx, tt, s, blocks)
            want = _nested_divergence_form(field, prov.forms, xx, tt, s, blocks)
            assert _same_bits(got, want), (name, np.shape(xx))


@pytest.mark.parametrize("s", [dg.OPERATOR_STENCIL, dg.Stencil(1e-3, 2, False)],
                         ids=lambda s: f"order{s.order}-{'rich' if s.richardson else 'plain'}")
def test_divergence_form_of_several_surfaces_is_each_alone_bitwise(s):
    # the shape check's pass: one field, the metrics of lam = +-k1/2 (and
    # ex7's, unrelated to the field), each divergence bitwise what a pass
    # with that surface alone gives, with the Laplacian block alone, the
    # K-weighted h-block alone and both; on a grid and at a single point
    plus, x, t = _shape_surface("lam+")
    minus, _, _ = _shape_surface("lam-")
    other = _shape_surface("ex7")[0]
    forms = (plus.forms, minus.forms, other.forms)
    for xx, tt in ((x, t), (x[1, 2], t[1, 2])):
        for name, (field, blocks) in _operator_cases(plus).items():
            together = _divergence_form(field, forms, xx, tt, s, blocks)
            assert together.shape == (len(forms),) + np.shape(field(xx, tt))
            for got, provider in zip(together, forms):
                [alone] = _divergence_form(field, (provider,), xx, tt, s, blocks)
                assert _same_bits(got, alone), name


def test_divergence_form_evaluates_each_field_point_once():
    # the x-flux's t-derivative and the t-flux's x-derivative read the same
    # 36 mixed points (x + a, t + b): the pass evaluates the 108 distinct
    # points of the nested pass's 144, each once, in one stacked call per
    # stencil offset of all six flux offsets: the x-pass reads the axis and
    # the mixed points (12 calls), the t-pass the axis points alone (6), and
    # each pass calls the geometry once, at its 6 N flux points.  The points
    # are random and many: on a small or round grid, nominally equal points
    # such as (x + h) - h and x can agree bit for bit in every entry
    prov, _, _ = _shape_surface("lam+")
    x, t = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 41, 41))
    field, blocks = _operator_cases(prov)["fused"]
    calls = {"shared": [], "nested": []}  # the points of each call
    geometry_points = []

    def spy(name, stacked):
        def f(xx, tt):
            points = zip(xx, tt) if stacked else [(xx, tt)]
            calls[name].append([(a.tobytes(), b.tobytes()) for a, b in points])
            return field(xx, tt)
        return f

    def geometry(a, b):
        geometry_points.append(a.size)
        return (prov.forms(a, b),), (None, prov.curvatures(a, b).K)

    s = dg.OPERATOR_STENCIL
    dg._divergence_form(spy("shared", True), geometry, x, t, (prov.forms(x, t),), s,
                        [(rows, tensor) for rows, tensor, _ in blocks])
    _nested_divergence_form(spy("nested", False), prov.forms, x, t, s, blocks)
    shared, nested = ([p for call in calls[name] for p in call] for name in calls)
    assert [len(call) for call in calls["shared"]] == [6] * 18
    assert geometry_points == [6 * x.size] * 2
    assert len(shared) == len(set(shared)) == 108
    assert len(calls["nested"]) == len(nested) == 144
    assert set(shared) == set(nested)


@pytest.mark.parametrize("quarter_tiles", [1, 2, 3, 4, 5, 6, 7])
def test_divergence_form_calls_its_geometry_once_per_stack(quarter_tiles):
    # each pass takes its six flux offsets in one stack at every size: one
    # geometry call per pass, with every surface's forms and every block's
    # weight at all 6 N of its flux points.  The grids of 2048 to 14336
    # points cross every size at which a pass once split its offsets into
    # smaller stacks (3 + 3 past 52^2, 2 + 2 + 2 past 73^2, stacks of one
    # past a tile)
    prov, _, _ = _shape_surface("lam+")
    p = resolve("ex2").params
    sp = SolitonParams(k1=p.k1, lam=p.k1 / 2.0, mu=p.mu)
    x, t = xi_grid(sp, 2.0, 64 * quarter_tiles, 32)
    field, blocks = _operator_cases(prov)["fused"]
    sizes = []
    field_sizes = []

    def geometry(a, b):
        sizes.append(a.size)
        return (prov.forms(a, b),), (None, prov.curvatures(a, b).K)

    def spy(a, b):
        field_sizes.append(np.broadcast(a, b).size)
        return field(a, b)

    dg._divergence_form(spy, geometry, x, t, (prov.forms(x, t),), dg.OPERATOR_STENCIL,
                        [(rows, tensor) for rows, tensor, _ in blocks])
    assert x.size == 2048 * quarter_tiles
    assert sizes == [6 * x.size] * 2
    assert field_sizes == [6 * x.size] * 18


def test_near_singular_mask():
    h11 = np.array([1.0, 1.0, 1e-7])
    h12 = np.array([0.0, 1.0, 0.0])
    h22 = np.array([1.0, 1.0, 1e-7])
    g = (np.ones(3), np.zeros(3), np.ones(3))
    mask = dg.near_singular_mask(dg.Forms(*g, h11, h12, h22))
    assert mask.tolist() == [False, True, False]


def test_willmore_residual_shapes_and_scale():
    pre = resolve("ex2")
    prov = fields(SPECTRAL3, pre.params)
    x, t = np.meshgrid(np.linspace(-0.5, 0.5, 5), np.linspace(-0.5, 0.5, 5))
    at = (prov.forms(x, t), prov.curvatures(x, t))
    res, scale = dg.willmore_like_residual(prov.curvatures, prov.forms, 4.0 / 9.0, 1.0, x, t, at)
    assert res.shape == x.shape
    assert np.all(scale > 0)
    assert np.max(np.abs(res) / scale) < 1e-4


class _ConstLagrangian:
    p = 0.0

    def eval(self, h, k):
        return np.ones_like(np.asarray(h, dtype=float))

    def dH(self, h, k):
        return np.zeros_like(np.asarray(h, dtype=float))

    dK = dH

    def depends_on_k(self):
        return False


class _H2Lagrangian(_ConstLagrangian):
    def eval(self, h, k):
        return np.asarray(h, dtype=float) ** 2

    def dH(self, h, k):
        return 2.0 * np.asarray(h, dtype=float)

    def dK(self, h, k):
        return np.zeros_like(np.asarray(h, dtype=float))


def test_shape_residual_constant_energy_is_minus_4h():
    prov = fields(SPECTRAL3, resolve("ex2").params)
    x, t = np.meshgrid(np.linspace(-0.4, 0.4, 5), np.linspace(-0.4, 0.4, 5))
    [(res, _)] = shape_residuals(prov, (_ConstLagrangian(),), x, t)
    h = prov.curvatures(x, t).H
    assert np.allclose(res, -4.0 * h, atol=1e-10)


def test_shape_residual_h2_is_willmore_operator():
    prov = fields(SPECTRAL3, resolve("ex2").params)
    x, t = np.meshgrid(np.linspace(-0.4, 0.4, 5), np.linspace(-0.4, 0.4, 5))
    [(res, _)] = shape_residuals(prov, (_H2Lagrangian(),), x, t)
    h = prov.curvatures(x, t).H
    k = prov.curvatures(x, t).K
    lap = dg.laplace_beltrami(lambda a, b: prov.curvatures(a, b).H, prov.forms, x, t,
                              prov.forms(x, t))
    assert np.allclose(res, 2 * lap + 4 * h ** 3 - 4 * k * h, atol=1e-7)


def test_shape_residual_cmc_balance():
    # on a constant-H surface with E = 1 the residual is -4H + 2p, zero at p = 2H
    class Pressurized(_ConstLagrangian):
        def __init__(self, p):
            self.p = p

    def sphere_fields():
        def curvatures(x, t):
            one = np.ones_like(np.asarray(x, dtype=float))
            return dg.CurvaturePair(K=one, H=one)

        return Fields(position=sphere, forms=sphere_forms, curvatures=curvatures)

    prov = sphere_fields()
    [(res, _)] = shape_residuals(prov, (Pressurized(2.0),), X1, T1)
    assert np.max(np.abs(res)) < 1e-12


def test_multi_energy_shape_residuals_equal_single_calls():
    # one pass for several energies gives each energy's own residual bitwise;
    # and one pass for several surfaces (here the metrics of lam = +-k1/2,
    # which share K and H) stacks each surface's (energy, ...) residuals
    pre = resolve("ex2")
    prov = fields(SPECTRAL3, pre.params)
    x, t = np.meshgrid(np.linspace(-0.4, 0.4, 7), np.linspace(-0.3, 0.3, 5))
    rng = np.random.default_rng(7)
    energies = [
        lagrangian.constrained_family(
            n, {i: rng.uniform(-1, 1) for i in lagrangian.FREE_INDICES[n]}, 0.5,
            pre.params.k1, pre.params.mu,
        )
        for n in (3, 4, 5, 6)
    ]
    energies.insert(2, _H2Lagrangian())
    together = shape_residuals(prov, energies, x, t)
    assert len(together) == len(energies)
    for energy, (res, scale) in zip(energies, together):
        [(res1, scale1)] = shape_residuals(prov, (energy,), x, t)
        assert np.array_equal(res, res1)
        assert np.array_equal(scale, scale1)
    with pytest.raises(ValueError):
        shape_residuals(prov, (), x, t)
    minus = fields(SPECTRAL3, SolitonParams(k1=2.0, lam=-1.0, mu=-8.0))
    # each surface's forms is called once per stack of flux points, one
    # stack of six per pass on this grid; its forms at (x, t) are the caller's
    calls = []

    def counted(forms):
        def call(a, b):
            calls.append(forms)
            return forms(a, b)
        return call

    geometry = shape_geometry(Fields(None, counted(prov.forms), prov.curvatures),
                              Fields(None, counted(minus.forms), None))
    at = shape_geometry(prov, minus)(x, t)
    res, scale = dg.shape_equation_residual(prov.curvatures, geometry, energies, x, t, at)
    assert calls.count(prov.forms) == calls.count(minus.forms) == 2
    assert res.shape == scale.shape == (2, len(energies)) + x.shape
    for row, forms in enumerate((prov.forms, minus.forms)):
        alone = Fields(None, forms, prov.curvatures)
        for col, energy in enumerate(energies):
            [(res1, scale1)] = shape_residuals(alone, (energy,), x, t)
            assert _same_bits(res[row, col], res1)
            assert _same_bits(scale[row, col], scale1)
    # and at a single point, the grid's entry there
    x1, t1 = x[1, 2], t[1, 2]
    res1, scale1 = dg.shape_equation_residual(prov.curvatures, shape_geometry(prov, minus),
                                              energies, x1, t1,
                                              shape_geometry(prov, minus)(x1, t1))
    assert _same_bits(res1, res[..., 1, 2])
    assert _same_bits(scale1, scale[..., 1, 2])


def test_shape_residual_of_k_free_energy_skips_the_k_operator():
    # a vanishing second form makes the K-weighted operator 0/0 = NaN, so an
    # energy free of K must not pass through it even beside one that does
    def curvatures(x, t):
        one = np.ones_like(np.asarray(x, dtype=float))
        return dg.CurvaturePair(K=0.5 * one, H=np.cos(x) + 0.1 * t)

    def flat_second_form(x, t):
        g = sphere_forms(x, t)
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return dg.Forms(g.g11, g.g12, g.g22, zero, zero, zero)

    prov = Fields(position=sphere, forms=flat_second_form, curvatures=curvatures)
    gauss = lagrangian.PolyLagrangian(2, {(0, 1): 1.0})
    (res_k, _), (res_h2, scale_h2) = shape_residuals(prov, (gauss, _H2Lagrangian()), X1, T1)
    assert np.all(np.isnan(res_k))
    assert np.all(np.isfinite(res_h2))
    [(alone, scale_alone)] = shape_residuals(prov, (_H2Lagrangian(),), X1, T1)
    assert np.array_equal(res_h2, alone)
    assert np.array_equal(scale_h2, scale_alone)


def _hk(prov, x, t):
    c = prov.curvatures(x, t)
    return c.H, c.K


def _two_operator_residuals(prov, energies, x, t):
    # the shape equation from separate operator calls, one energy and one
    # operator at a time: Lap on dE/dH, div-bar (written out) on dE/dK
    cur = prov.curvatures(x, t)
    h, k = cur.H, cur.K
    out = []
    for e in energies:
        lap = dg.laplace_beltrami(
            lambda a, b: e.dH(*_hk(prov, a, b)), prov.forms, x, t, prov.forms(x, t))
        term1 = lap + (4.0 * h ** 2 - 2.0 * k) * e.dH(h, k)
        if e.depends_on_k():
            nabla = _nabla_dot_bar_written_out(
                lambda a, b: e.dK(*_hk(prov, a, b)), prov.forms,
                lambda a, b: prov.curvatures(a, b).K, x, t)
        else:
            nabla = np.zeros_like(h)
        term2 = 2.0 * (nabla + 2.0 * k * h * e.dK(h, k))
        term3 = -4.0 * h * e.eval(h, k)
        term4 = 2.0 * e.p + np.zeros_like(term3)
        scale = np.maximum.reduce([np.abs(term1), np.abs(term2), np.abs(term3),
                                   np.abs(term4), np.full_like(term3, 1e-30)])
        out.append((term1 + term2 + term3 + term4, scale))
    return out


@pytest.mark.parametrize("preset", ["ex2", "ex7"])
def test_fused_shape_pass_is_the_two_operator_composition_bitwise(preset):
    pre = resolve(preset)
    prov = fields(pre.family, pre.params)
    x, t = np.meshgrid(np.linspace(-0.4, 0.4, 7), np.linspace(-0.3, 0.3, 5))
    rng = np.random.default_rng(11)
    energies = [
        lagrangian.constrained_family(
            n, {i: rng.uniform(-1, 1) for i in lagrangian.FREE_INDICES[n]}, 0.5,
            pre.params.k1, pre.params.mu,
        )
        for n in (3, 4, 5, 6)
    ]
    energies.insert(1, _H2Lagrangian())
    fused = shape_residuals(prov, energies, x, t)
    apart = _two_operator_residuals(prov, energies, x, t)
    assert len(fused) == len(apart)
    for (res, scale), (res1, scale1) in zip(fused, apart):
        assert res.dtype == res1.dtype and res.shape == res1.shape == x.shape
        assert np.array_equal(res, res1)
        assert np.array_equal(scale, scale1)
