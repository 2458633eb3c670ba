"""The soliton jet against the defining equations, FD and exact sympy derivatives."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvsurf import immersion, lax, soliton

params = st.builds(
    soliton.SolitonParams,
    k1=st.floats(0.3, 3.0),
    lam=st.floats(-2.0, 2.0),
)
coords = st.floats(-3.0, 3.0, allow_nan=False)


def _fd(f, x, t, axis, h=1e-5):
    if axis == 0:
        return (8 * (f(x + h, t) - f(x - h, t)) - (f(x + 2 * h, t) - f(x - 2 * h, t))) / (12 * h)
    return (8 * (f(x, t + h) - f(x, t - h)) - (f(x, t + 2 * h) - f(x, t - 2 * h))) / (12 * h)


def test_params_alpha_derived():
    p = soliton.SolitonParams(2.0)
    assert p.alpha == 1.0
    with pytest.raises(ValueError):
        soliton.SolitonParams(0.0)


def test_amplitude_at_crest():
    p = soliton.SolitonParams(k1=1.7)
    x0 = 0.0
    j = soliton.jet(x0, 0.0, p)
    assert j.u == pytest.approx(1.7, rel=1e-15)
    assert abs(j.u_x) < 1e-15


@settings(max_examples=40, deadline=None)
@given(params, coords, coords)
def test_defining_equations_vanish(p, x, t):
    j = soliton.jet(x, t, p)
    u, u_x = j.u, j.u_x
    # mKdV, its traveling-wave reduction, and the reduction's first integral
    assert abs(j.u_t - j.u_xxx - 1.5 * u ** 2 * u_x) < 1e-11 * p.k1 ** 4
    assert abs(j.u_xx - p.alpha * u + 0.5 * u ** 3) < 1e-11 * p.k1 ** 3
    assert abs(u_x ** 2 - p.alpha * u ** 2 + 0.25 * u ** 4) < 1e-11 * p.k1 ** 4


@settings(max_examples=25, deadline=None)
@given(params, coords, coords)
def test_derivatives_match_fd(p, x, t):
    scale = max(1.0, p.k1 ** 4)
    j = soliton.jet(x, t, p)

    def field(name):
        return lambda a, b: getattr(soliton.jet(a, b, p), name)

    for derived, base, axis in (("u_x", "u", 0), ("u_t", "u", 1), ("u_xx", "u_x", 0),
                                ("u_xt", "u_x", 1), ("u_xxx", "u_xx", 0),
                                ("u_xxt", "u_xx", 1)):
        assert getattr(j, derived) == pytest.approx(
            _fd(field(base), x, t, axis), abs=1e-7 * scale), derived


def test_travelling_wave_relations():
    # time derivatives are alpha times the space derivatives, to all orders used
    p = soliton.SolitonParams(k1=2.5, lam=0.3)
    x = np.linspace(-2, 2, 7)[:, None]
    t = np.linspace(-1, 1, 5)[None, :]
    j = soliton.jet(x, t, p)
    assert np.allclose(j.u_t, p.alpha * j.u_x, rtol=0, atol=1e-14)
    assert np.allclose(j.u_xt, p.alpha * j.u_xx, rtol=0, atol=1e-14)
    assert np.allclose(j.u_xxt, p.alpha * j.u_xxx, rtol=0, atol=1e-14)


def test_xi_linearity_and_broadcast():
    p = soliton.SolitonParams(k1=2.0)
    x = np.linspace(-1, 1, 3)
    t = np.zeros((4, 1))
    z = soliton.xi(x, t, p)
    assert z.shape == (4, 3)
    assert np.allclose(z[0], p.k1 * 4.0 * x / 8.0)


def test_jet_is_the_exact_derivative_chain():
    # each Jet property, fed symbols for xi, sech xi and tanh xi, is the exact
    # x/t derivative of k1 sech(xi) once sech' = -sech tanh, tanh' = sech^2
    import sympy as sp

    x, t, k1 = sp.symbols("x t k1", positive=True)
    S, Tau, Xi = sp.symbols("S Tau Xi")
    z = k1 * (k1 ** 2 * t + 4 * x) / 8
    u = k1 * sp.sech(z)
    params = SimpleNamespace(k1=k1, alpha=k1 ** 2 / 4)
    j = soliton.Jet(params, x, t, Xi, S, Tau)
    expected = {
        "u": u,
        "u_x": sp.diff(u, x),
        "u_xx": sp.diff(u, x, 2),
        "u_xxx": sp.diff(u, x, 3),
        "u_t": sp.diff(u, t),
        "u_xt": sp.diff(u, x, t),
        "u_xxt": sp.diff(u, x, 2, t),
    }
    for name, exact in expected.items():
        exact = exact.subs({sp.sech(z): S, sp.tanh(z): Tau})
        got = sp.nsimplify(getattr(j, name), rational=True)
        diff = sp.expand(got - exact)
        # tanh^2 = 1 - sech^2 closes the ring the derivatives live in
        assert sp.rem(diff, Tau ** 2 + S ** 2 - 1, Tau) == 0, name


def test_sech_and_tanh_are_evaluated_only_in_the_jet():
    # every other module reads sech xi and tanh xi from a soliton.Jet: its
    # one np.cosh is in soliton.xi_jet, and its one np.tanh in the default
    # of the jet's tau, which evaluates it on first read; soliton.jet is
    # xi_jet at the xi of (x, t)
    def lines(tree, names):
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
                and {getattr(node, a, None) for a in ("attr", "id", "name")} & names]

    lazy = type(vars(soliton.Jet)["tau"]).__name__
    for path in sorted(Path(soliton.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = lines(tree, {"cosh", "tanh"})
        if path.name == "soliton.py":
            defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            cosh, tanh = lines(defs["xi_jet"], {"cosh"}), lines(defs[lazy], {"tanh"})
            assert len(cosh) == 1, "soliton.xi_jet no longer evaluates cosh, once"
            assert len(tanh) == 1, "Jet.tau no longer evaluates tanh, once"
            assert not lines(defs["jet"], {"cosh", "tanh"})
            assert "xi_jet" in {getattr(n.func, "id", None) for n in ast.walk(defs["jet"])
                                if isinstance(n, ast.Call)}, "soliton.jet bypasses xi_jet"
            found = [line for line in found if line not in cosh + tanh]
        assert not found, f"{path.name} evaluates cosh/tanh at lines {found}"


_JET_FIELDS = ("xi", "s", "tau", "u", "u_x", "u_xx", "u_xxx", "u_t", "u_xt", "u_xxt")


@pytest.mark.parametrize("pid", sorted(immersion.PRESETS))
def test_a_jet_of_xi_is_bitwise_the_jet_at_x_t(pid):
    # every value a xi-only kernel reads, at the xi of each point of the
    # preset's 41^2 window; x and t are None, so what reads them raises
    surface = immersion.resolve(pid)
    x, t = surface.grid(41, 41)
    want = soliton.jet(x, t, surface.params)
    got = soliton.xi_jet(soliton.xi(x, t, surface.params), surface.params)
    assert (got.p, got.x, got.t) == (surface.params, None, None)
    for name in _JET_FIELDS:
        assert _bit_list(getattr(got, name)) == _bit_list(getattr(want, name)), name
    with pytest.raises(TypeError):
        surface.family.position(got)
    with pytest.raises(TypeError):
        lax.phi(got)


def _bit_list(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _assert_counts(values, distinct, counts, index):
    # the run lengths of the sort are the multiplicities of the index
    assert counts.sum() == values.size
    assert counts.tolist() == np.bincount(index(values), minlength=distinct.size).tolist()


def test_repeats_tells_values_apart_by_their_bits():
    # 0.0 == -0.0, and a NaN equals nothing, but each bit pattern is one
    # value: the four patterns below are four values, each held twice
    patterns = [0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001]
    values = np.array(patterns * 2, dtype=np.uint64).view(np.float64)
    distinct, counts, index = soliton.repeats(values)
    assert _bit_list(distinct) == sorted(patterns)
    assert _bit_list(distinct[index(values)]) == _bit_list(values)
    assert counts.tolist() == [2, 2, 2, 2]
    _assert_counts(values, distinct, counts, index)


@pytest.mark.parametrize("count, dtype", [(256, np.uint8), (257, np.uint16),
                                          (65536, np.uint16), (65537, np.uint32)])
def test_repeats_index_type_is_the_smallest_that_holds_every_position(count, dtype):
    values = np.repeat(np.arange(count, dtype=float), 2)
    distinct, counts, index = soliton.repeats(values)
    assert distinct.size == count
    at = index(values)
    assert at.dtype == dtype and at[-1] == count - 1
    _assert_counts(values, distinct, counts, index)


@pytest.mark.parametrize("n", [2, 7, 10, 4096])
def test_repeats_keeps_at_most_one_distinct_value_per_two_entries(n):
    half = (np.arange(n) % (n // 2)).astype(float)
    assert soliton.repeats(half)[0].size == n // 2
    one_more = np.minimum(np.arange(n), n // 2).astype(float)
    assert np.unique(one_more).size == n // 2 + 1
    assert soliton.repeats(one_more) is None


def test_repeats_of_no_values():
    distinct, counts, index = soliton.repeats(np.empty(0))
    assert distinct.size == counts.size == 0
    at = index(np.empty(0))
    assert at.size == 0 and at.dtype == np.uint8
    _assert_counts(np.empty(0), distinct, counts, index)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=50),
       st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_repeats_gathers_each_entry_back_bit_for_bit(patterns, copies, seed):
    # any bit patterns, each at least twice, shuffled; the input is left as it was
    values = np.array(patterns * copies, dtype=np.uint64).view(np.float64)
    np.random.default_rng(seed).shuffle(values)
    before = _bit_list(values)
    distinct, counts, index = soliton.repeats(values)
    bits = distinct.view(np.uint64)
    assert np.all(bits[1:] > bits[:-1]) and set(bits.tolist()) == set(patterns)
    assert _bit_list(distinct[index(values)]) == before == _bit_list(values)
    _assert_counts(values, distinct, counts, index)


def test_check_grid_accepts_a_grid_that_fits_in_memory(monkeypatch):
    # on 1 GiB of physical memory a 1500^2 grid fits (the measured peak-RSS
    # slopes are at most 88 B per point); a 10^6 x 10^6 one does not
    pages = {"SC_PHYS_PAGES": 2 ** 18, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(soliton.os, "sysconf", pages.__getitem__)
    soliton.check_grid(1500, 1500)
    with pytest.raises(ValueError, match="nx\\*nt = 1000000000000 points .* than the 1 GiB"):
        soliton.check_grid(10 ** 6, 10 ** 6)
