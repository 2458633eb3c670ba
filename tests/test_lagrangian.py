"""Polynomial energies: evaluation, flat index maps, constrained families."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from mkdvsurf import lagrangian as lg

from helpers import flat_coefficients

coeff = st.floats(-3.0, 3.0, allow_nan=False)


def test_monomial_budget_enforced():
    with pytest.raises(ValueError):
        lg.PolyLagrangian(3, {(2, 1): 1.0})  # 2 + 2*1 > 3
    with pytest.raises(ValueError):
        lg.PolyLagrangian(2, {(-1, 0): 1.0})
    lg.PolyLagrangian(4, {(2, 1): 1.0})  # 2 + 2 <= 4 is fine


def test_coefficient_whose_partials_overflow_is_rejected():
    # dK of 9e307 K^2 would be 1.8e308 K: the constructor names the monomial
    with pytest.raises(ValueError, match=r"H\^0 K\^2"):
        lg.PolyLagrangian(6, {(0, 2): 9e307})
    with pytest.raises(ValueError, match=r"H\^6 K\^0"):
        lg.PolyLagrangian(6, {(6, 0): 1e306})  # 6! a overflows
    e = lg.PolyLagrangian(6, {(0, 2): 8e307, (6, 0): 2e305})
    assert e.dK(0.0, 0.0) == 0.0 and e.dK(0.0, 1.0) == 1.6e308
    assert e.dH(1.0, 0.0) == 6 * 2e305


def test_eval_and_partials_simple():
    l2 = lg.PolyLagrangian(2, {(2, 0): 1.0})
    assert l2.eval(3.0, 7.0) == 9.0
    assert l2.dH(3.0, 7.0) == 6.0
    assert l2.dK(3.0, 7.0) == 0.0
    assert not l2.depends_on_k()
    lkh = lg.PolyLagrangian(3, {(1, 1): 1.0})
    assert lkh.dH(2.0, 5.0) == 5.0
    assert lkh.dK(2.0, 5.0) == 2.0
    assert lkh.depends_on_k()


def test_eval_vectorized():
    poly = lg.PolyLagrangian(4, {(0, 2): 2.0, (2, 1): -1.0, (1, 0): 0.5})
    h = np.linspace(-1, 1, 5)[:, None]
    k = np.linspace(0, 2, 3)[None, :]
    expected = 2.0 * k ** 2 - h ** 2 * k + 0.5 * h
    assert np.allclose(poly.eval(h, k), expected, rtol=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 2)).filter(
            lambda nl: nl[0] + 2 * nl[1] <= 6
        ),
        coeff,
        max_size=8,
    ),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
def test_partials_match_finite_differences(coeffs, h, k):
    poly = lg.PolyLagrangian(6, coeffs)
    eps = 1e-6
    fd_h = (poly.eval(h + eps, k) - poly.eval(h - eps, k)) / (2 * eps)
    fd_k = (poly.eval(h, k + eps) - poly.eval(h, k - eps)) / (2 * eps)
    tol = 1e-8 * (1 + sum(abs(v) for v in coeffs.values()))
    assert abs(poly.dH(h, k) - fd_h) < tol * 60
    assert abs(poly.dK(h, k) - fd_k) < tol * 60


# independent transcriptions of the flat polynomials, written as explicit
# expressions; the module's index maps must reconstruct them exactly
def _reference_polynomials():
    H, K = sp.symbols("H K")
    a = {i: sp.Symbol(f"a{i}") for i in range(1, 17)}
    return {
        3: (H, K, a,
            a[1] * H ** 3 + a[2] * H ** 2 + a[3] * H + a[4] + a[5] * K + a[6] * K * H),
        4: (H, K, a,
            a[1] * H ** 4 + a[2] * H ** 3 + a[3] * H ** 2 + a[4] * H + a[5]
            + a[6] * K + a[7] * K * H + a[8] * K ** 2 + a[9] * K * H ** 2),
        5: (H, K, a,
            a[1] * H ** 5 + a[2] * H ** 4 + a[3] * H ** 3 + a[4] * H ** 2
            + a[5] * H + a[6] + a[7] * K + a[8] * K * H + a[9] * K ** 2
            + a[10] * K * H ** 2 + a[11] * K ** 2 * H + a[12] * K * H ** 3),
        6: (H, K, a,
            a[1] * H ** 6 + a[2] * H ** 5 + a[3] * H ** 4 + a[4] * H ** 3
            + a[5] * H ** 2 + a[6] * H + a[7] + a[8] * K + a[9] * K * H
            + a[10] * K ** 2 + a[11] * K * H ** 2 + a[12] * K ** 2 * H
            + a[13] * K * H ** 3 + a[14] * K ** 3 + a[15] * K ** 2 * H ** 2
            + a[16] * K * H ** 4),
    }


@pytest.mark.parametrize("n_deg", [3, 4, 5, 6])
def test_flat_index_map_symbolic_reconstruction(n_deg):
    H, K, a, reference = _reference_polynomials()[n_deg]
    rebuilt = sum(
        a[i + 1] * H ** n * K ** l
        for i, (n, l) in enumerate(lg.FLAT_MONOMIALS[n_deg])
    )
    assert sp.expand(rebuilt - reference) == 0


@pytest.mark.parametrize("n_deg", [3, 4, 5, 6])
def test_flat_roundtrip(n_deg):
    rng = np.random.default_rng(n_deg)
    vals = rng.normal(size=len(lg.FLAT_MONOMIALS[n_deg]))
    poly = lg.from_flat(n_deg, vals, p=0.5)
    assert flat_coefficients(poly) == pytest.approx(tuple(vals))
    assert poly.p == 0.5


def test_degree3_instance():
    # p = 72, mu = 1, k1 = 2: leading H^3 coefficient -1, K H coefficient 9/4
    poly = lg.constrained_family(3, None, 72.0, 2.0, 1.0)
    flat = flat_coefficients(poly)
    assert flat[0] == pytest.approx(-1.0)
    assert flat[5] == pytest.approx(2.25)
    assert flat[1] == flat[2] == flat[3] == 0.0
    free = lg.constrained_family(3, {5: 1.5}, 72.0, 2.0, 1.0)
    assert flat_coefficients(free)[4] == 1.5


def test_constrained_family_validation():
    with pytest.raises(ValueError):
        lg.constrained_family(7, None, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError, match=r"mu = 0: mu\^2 = 0"):
        lg.constrained_family(3, None, 0.0, 2.0, 0.0)
    with pytest.raises(ValueError, match=r"lambda = 0: lambda\^2 = 0"):
        lg.constrained_family(3, None, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="a1 is not free for N=3; free indices: a5"):
        lg.constrained_family(3, {1: 1.0}, 0.0, 2.0, 1.0)


def test_nesting_4_to_3():
    p, k1, mu = 5.0, 2.0, 3.0
    f4 = flat_coefficients(lg.constrained_family(4, None, p, k1, mu))
    f3 = flat_coefficients(lg.constrained_family(3, None, p, k1, mu))
    # with its free params zero, the degree-4 family collapses one step down:
    # monomial-level equality against the degree-3 family
    assert f4[0] == 0.0  # H^4
    assert f4[1] == f3[0]  # H^3
    assert f4[2] == pytest.approx(-f3[1], abs=0.0) == 0.0
    assert f4[6] == f3[5]  # K H
    assert f4[7] == 0.0  # K^2
    assert f4[8] == 0.0  # K H^2


def test_nesting_5_to_4():
    k1, mu = 2.0, 3.0
    free5 = {1: 0.0, 2: 0.4, 9: -0.3, 11: 0.0}
    f5 = flat_coefficients(lg.constrained_family(5, free5, 0.0, k1, mu))
    f4 = flat_coefficients(lg.constrained_family(4, {1: 0.4, 8: -0.3}, 0.0, k1, mu))
    # H^4..1 and K..K H^2 blocks line up monomial by monomial
    assert f5[1] == f4[0] and f5[2] == pytest.approx(f4[1]) and f5[3] == pytest.approx(f4[2])
    assert f5[5] == pytest.approx(f4[4])
    assert f5[8] == f4[7] and f5[9] == pytest.approx(f4[8])
    assert f5[0] == 0.0 and f5[10] == 0.0 and abs(f5[11]) == 0.0


def test_nesting_6_to_5():
    k1, mu = 2.0, 1.5
    free6 = {1: 0.0, 2: 0.7, 3: -0.2, 8: 0.0, 10: 0.9, 12: 0.5, 14: 0.0, 16: 0.0}
    f6 = flat_coefficients(lg.constrained_family(6, free6, 1.0, k1, mu))
    f5 = flat_coefficients(
        lg.constrained_family(5, {1: 0.7, 2: -0.2, 9: 0.9, 11: 0.5}, 1.0, k1, mu)
    )
    assert f6[0] == 0.0
    assert f6[1] == f5[0] and f6[2] == f5[1]
    assert f6[3] == pytest.approx(f5[2]) and f6[4] == pytest.approx(f5[3])
    assert f6[5] == pytest.approx(f5[4]) and f6[6] == pytest.approx(f5[5])
    assert f6[8] == pytest.approx(f5[7]) and f6[10] == pytest.approx(f5[9])
    assert f6[11] == pytest.approx(f5[10]) and f6[12] == pytest.approx(f5[11])
    assert f6[13] == 0.0 and f6[14] == pytest.approx(0.0) and f6[15] == 0.0


def test_homogeneity_budget_of_families():
    for n_deg in (3, 4, 5, 6):
        poly = lg.constrained_family(n_deg, None, 1.0, 2.0, 1.5)
        assert all(n + 2 * l <= n_deg for (n, l) in poly.coeffs)


def test_family_lam_sign_symmetric():
    # lam enters the coefficient formulas through even powers only
    a = flat_coefficients(lg.constrained_family(5, {1: 0.3}, 1.0, 2.0, 1.5))
    b = flat_coefficients(lg.constrained_family(5, {1: 0.3}, 1.0, -2.0, 1.5))
    assert a == pytest.approx(b)


def test_verify_family_report(monkeypatch):
    # the shape check tests the constrained families N = 3..6 on ex2, on a
    # 41^2 grid of |xi| < 2 at each sign of lam = +-k1/2
    from mkdvsurf import verify
    from mkdvsurf.immersion import resolve

    sampled = []
    xi_grid = verify.xi_grid

    def spy(sp_, half, nx, nt):
        sampled.append((sp_.lam, half, nx, nt))
        return xi_grid(sp_, half, nx, nt)

    monkeypatch.setattr(verify, "xi_grid", spy)
    (check,) = verify.run_checks(["shape"], resolve("ex2")).checks
    assert check.passed and check.max_residual < 1e-3
    assert check.median_residual <= check.max_residual
    assert sorted(sampled) == [(-1.0, 2.0, 41, 41), (1.0, 2.0, 41, 41)]


@pytest.mark.parametrize("k1, mu, power", [
    (2.0, 1e60, r"mu = 1e\+60: mu\^6"),  # overflows
    (2.0, 1e-60, r"mu = 1e-60: mu\^6"),  # underflows to 0
    (2.0, 1e-100, r"mu\^4"),
    (2.0, 1e160, r"mu\^2"),
    (1e-60, 1.0, r"lambda = 5e-61: lambda\^6"),
    (1e60, 1.0, r"lambda\^6"),
    (1e-160, 1.0, r"lambda\^4"),
])
def test_constrained_family_rejects_powers_out_of_range(k1, mu, power):
    # the coefficients divide by and scale with lam and mu up to the sixth
    # power: a ValueError naming the power, not an OverflowError or a
    # ZeroDivisionError from the arithmetic
    for n_deg in (3, 4, 5, 6):
        with pytest.raises(ValueError, match=power):
            lg.constrained_family(n_deg, None, 1.0, k1, mu)


@pytest.mark.parametrize("preset, passes", [("ex2", 1), ("ex3", 1), ("ex4", 2), ("ex5", 1)])
def test_verify_family_groups_equal_energies_exactly(monkeypatch, preset, passes):
    # with free zero the families N = 3..6 are one energy padded with
    # zeros, except on ex4, whose N = 5, 6 coefficients round apart from
    # N = 3, 4; the shape check evaluates each distinct energy once and
    # still reports what each degree gives alone
    from mkdvsurf import diffgeo, verify
    from mkdvsurf.immersion import SPECTRAL3, resolve
    from mkdvsurf.soliton import SolitonParams, xi_grid

    surface = resolve(preset)
    sp_ = surface.params
    families = [lg.constrained_family(n, None, 1.0, sp_.k1, sp_.mu) for n in (3, 4, 5, 6)]
    assert len({e.terms for e in families}) == passes

    residual = diffgeo.shape_equation_residual
    energies_per_call = []

    def spy(providers, energies, *args):
        energies = list(energies)
        energies_per_call.append(len(energies))
        return residual(providers, energies, *args)

    monkeypatch.setattr(diffgeo, "shape_equation_residual", spy)
    (check,) = verify.run_checks(["shape"], surface, 21, 21).checks
    assert energies_per_call and set(energies_per_call) == {passes}

    # the reference: each degree's energy alone, reduced per sign of lam;
    # the report takes the largest max, the median over degrees of each
    # degree's larger median, and the excluded points summed
    maxima, medians, excluded = [], [], 0
    for energy in families:
        per_sign = []
        for sign in (1.0, -1.0):
            sp = SolitonParams(k1=sp_.k1, lam=sign * sp_.k1 / 2.0, mu=sp_.mu)
            providers = SPECTRAL3.providers(sp)
            x, t = xi_grid(sp, 2.0, 21, 21)
            [(res, scale)] = residual(providers, (energy,), x, t, diffgeo.OPERATOR_STENCIL)
            normalized = np.abs(res) / scale
            bad = diffgeo.near_singular_mask(providers.forms(x, t)) | ~np.isfinite(normalized)
            kept = normalized[~bad]
            per_sign.append((float(np.max(kept)), float(np.median(kept))))
            excluded += int(np.count_nonzero(bad))
        maxima.append(max(mx for mx, _ in per_sign))
        medians.append(max(med for _, med in per_sign))
    assert check.max_residual == max(maxima)
    assert check.median_residual == float(np.median(medians))
    assert check.excluded == excluded


@pytest.mark.parametrize("preset", ["ex2", "ex3", "ex4", "ex5"])
def test_shape_check_evaluates_one_energy_of_nonzero_terms_per_distinct_terms(
        monkeypatch, preset):
    # the energy evaluated for a group is built from its terms alone, so
    # Horner skips the explicit zero coefficients of the constrained families
    from mkdvsurf import diffgeo, verify
    from mkdvsurf.immersion import resolve

    surface = resolve(preset)
    sp_ = surface.params
    terms = {lg.constrained_family(n, None, 1.0, sp_.k1, sp_.mu).terms for n in (3, 4, 5, 6)}
    residual = diffgeo.shape_equation_residual
    seen = []

    def spy(providers, energies, *args):
        energies = list(energies)
        seen.append(energies)
        return residual(providers, energies, *args)

    monkeypatch.setattr(diffgeo, "shape_equation_residual", spy)
    verify.run_checks(["shape"], surface, 9, 9)
    energies = {id(e): e for call in seen for e in call}.values()
    assert all(len(call) == len(terms) for call in seen)
    assert sorted(map(id, seen[0])) == sorted(map(id, energies))
    assert {e.terms for e in energies} == terms
    assert all(a != 0.0 for e in energies for a in e.coeffs.values())


def test_shape_residual_scaling_invariance():
    # scaling (E, p) together leaves the normalized residual unchanged; use a
    # detuned energy so a genuine residual (not FD noise) dominates
    from mkdvsurf import diffgeo
    from mkdvsurf.immersion import SPECTRAL3
    from mkdvsurf.soliton import SolitonParams, xi_grid

    vals = list(flat_coefficients(lg.constrained_family(4, {1: 0.25}, 1.0, 2.0, -8.0)))
    vals[6] *= 1.05
    sp_ = SolitonParams(k1=2.0, lam=1.0, mu=-8.0)
    prov = SPECTRAL3.providers(sp_)
    x, t = xi_grid(sp_, 2.0, 21, 21)
    norms = []
    for scale in (1.0, 10.0):
        poly = lg.from_flat(4, [scale * v for v in vals], p=scale * 1.0)
        [(res, ref)] = diffgeo.shape_equation_residual(prov, (poly,), x, t)
        norms.append(np.max(np.abs(res) / ref))
    assert norms[0] == pytest.approx(norms[1], rel=1e-6)


# The textbook Horner evaluation that PolyLagrangian.eval replaced, kept as
# its oracle: a fresh zero accumulator per K row and out = out * h + row, with
# a zero row for each power of H that has no coefficient.
def _textbook_eval(coeffs, h, k):
    rows = {}
    for (n, l), a in coeffs.items():
        row = rows.setdefault(n, [])
        if len(row) <= l:
            row.extend([0.0] * (l + 1 - len(row)))
        row[l] = a

    def row_eval(n):
        row = rows.get(n)
        if row is None:
            return np.zeros(np.shape(k))
        acc = np.zeros(np.shape(k))
        for a in reversed(row):
            acc = acc * k + a
        return acc

    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    out = np.zeros(np.broadcast(h, k).shape)
    for n in range(max(rows, default=0), -1, -1):
        out = out * h + row_eval(n)
    return float(out) if out.ndim == 0 else out


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 1e300]
# bounded so that the partials' coefficients (up to 7 a) stay finite
finite_coeff = st.one_of(st.floats(-1e300, 1e300),
                         st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0]))
point = st.one_of(st.floats(), st.sampled_from(SPECIAL))


def _same_bytes(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@settings(max_examples=400, deadline=None)
# two NaNs meeting in one-element and 0-d arithmetic, where NumPy's in-place
# and scalar paths keep different operands' NaN
@example({(0, 0): 0.0}, [np.nan], [np.inf], "scalar-h")
@example({(0, 0): 0.0}, [np.nan], [np.inf], "flat")
@example({(0, 0): 0.0}, [np.inf], [np.nan], "scalar")
@example({(1, 0): 1.0, (0, 1): -0.0}, [-np.inf, 5e-324], [np.nan, -0.0], "outer")
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 3)).filter(
            lambda nl: nl[0] + 2 * nl[1] <= 8
        ),
        finite_coeff,
        max_size=10,
    ),
    st.lists(point, min_size=1, max_size=4),
    st.lists(point, min_size=1, max_size=3),
    st.sampled_from(["scalar", "scalar-h", "scalar-k", "flat", "outer"]),
)
def test_eval_and_partials_are_the_textbook_horner_bitwise(coeffs, hs, ks, layout):
    # explicit zero coefficients and missing H powers both occur; NaN, inf,
    # -0.0 and subnormals pass through; so do broadcast and scalar shapes
    n = min(len(hs), len(ks))
    h, k = {
        "scalar": (hs[0], ks[0]),
        "scalar-h": (hs[0], np.array(ks)),
        "scalar-k": (np.array(hs), ks[0]),
        "flat": (np.array(hs[:n]), np.array(ks[:n])),
        "outer": (np.array(hs)[:, None], np.array(ks)[None, :]),
    }[layout]
    poly = lg.PolyLagrangian(8, coeffs)
    partial_h = {(n - 1, l): n * a for (n, l), a in poly.coeffs.items() if n > 0}
    partial_k = {(n, l - 1): l * a for (n, l), a in poly.coeffs.items() if l > 0}
    with np.errstate(all="ignore"):
        pairs = [
            (poly.eval(h, k), _textbook_eval(poly.coeffs, h, k)),
            (poly.dH(h, k), _textbook_eval(partial_h, h, k)),
            (poly.dK(h, k), _textbook_eval(partial_k, h, k)),
        ]
    for got, want in pairs:
        assert _same_bytes(got, want), (got, want)
