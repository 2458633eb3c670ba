"""Closed-form immersions: positions, forms, presets, curvature relations."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from mkdvsurf import immersion, mesh, soliton, su2, verify
from mkdvsurf.deformation import DeformationKind, curvatures_from_forms, forms_from_ab, frame
from mkdvsurf.immersion import (
    DEFAULT_WINDOW,
    FAMILIES,
    PRESETS,
    SPECTRAL3,
    SPECTRAL_GAUGE4,
    four_param_curvatures_closed,
    four_param_forms_closed,
    four_param_position,
    frame_tangents,
    resolve,
    three_param_curvatures_closed,
    three_param_forms_closed,
    three_param_position,
    weingarten_residuals,
)
from mkdvsurf.lax import phi
from mkdvsurf.soliton import XI_MAX, SolitonParams, jet

from helpers import far_field_distance

GRID = np.meshgrid(np.linspace(-2, 2, 13), np.linspace(-2, 2, 13))


def test_preset_lookup():
    pre = resolve("ex2")
    assert pre.preset_id == "ex2"
    assert pre.family.kind is DeformationKind.SPECTRAL
    assert pre.params.mu == -8.0
    assert (pre.x_range, pre.t_range) == ((-3.0, 3.0), (-3.0, 3.0))
    assert resolve("EX7").family.kind is DeformationKind.SPECTRAL_GAUGE
    with pytest.raises(ValueError):
        resolve("ex1")


def test_preset_exact_rationals():
    # PRESETS[id] = (family, (k1, lambda, mu, nu), window half-width)
    assert str(PRESETS["ex7"][1][2]) == "1/10"
    assert str(PRESETS["ex4"][1][2]) == "-452/75"
    assert str(PRESETS["ex8"][1][3]) == "-1"
    assert len(PRESETS) == 7


def test_resolve_window():
    p = SolitonParams(2.0, 1.0, mu=-8.0)
    surf = resolve(family="spectral3", params=p, t_range=(-1, 2))
    assert (surf.x_range, surf.t_range) == (DEFAULT_WINDOW, (-1.0, 2.0))
    assert resolve("ex3", x_range=(0, 1)).t_range == (-6.0, 6.0)
    for bad in ((1.0, 1.0), (1.0, -1.0), (0.0, float("inf")), (float("nan"), 1.0),
                (-1e308, 1e308), (-1e200, 1e200), (1e308, 1.7e308)):
        with pytest.raises(ValueError, match="x_range"):
            resolve(family="spectral3", params=p, x_range=bad)
    # here xi = x + t, and t spans DEFAULT_WINDOW = (-3, 3): the corner
    # (x_max, 3) decides, against the |xi| at which cosh overflows
    resolve(family="spectral3", params=p, x_range=(0.0, XI_MAX - 3.5))
    with pytest.raises(ValueError, match="x_range.*cosh overflows"):
        resolve(family="spectral3", params=p, x_range=(0.0, XI_MAX - 2.5))
    with pytest.raises(ValueError, match="t_range.*cosh overflows"):
        resolve(family="spectral3", params=p, t_range=(-1e3, 0.0))
    with pytest.raises(ValueError, match="not both"):
        resolve("ex2", family="spectral3", params=p)


def test_three_param_radius_and_phase():
    # Ex2 parameters: R1 = -mu k1 / (2 (k1^2 + 4 lam^2)) = 1
    p = resolve("ex2").params
    (r1,) = SPECTRAL3.radii(p)
    assert r1 == pytest.approx(1.0)
    # at x = t = 0 (xi = 0) the drift E and the phase G vanish:
    # y = (-4 R1 (1 - tanh xi), -4 R1 cos(G) sech xi, -4 R1 sin(G) sech xi)
    y = three_param_position(jet(0.0, 0.0, p))
    assert y == pytest.approx([-4.0, -4.0, 0.0])


def test_three_param_crest_circle():
    # at xi = 0 the cross-section radius |(y2, y3)| equals |4 R1|
    p = resolve("ex2").params
    t = np.linspace(-3, 3, 11)
    x = -p.k1 ** 2 * t / 4.0  # xi = 0 line
    y = three_param_position(jet(x, t, p))
    r = np.hypot(y[..., 1], y[..., 2])
    assert np.allclose(r, 4.0, rtol=1e-12)


def test_four_param_radii_ex6():
    p = resolve("ex6").params
    r2, r3, r4, r5, r6, r7 = SPECTRAL_GAUGE4.radii(p)
    assert r2 == pytest.approx(2 * p.k1 ** 2 * p.nu / (p.k1 ** 2 + 4 * p.lam ** 2))
    assert r4 == pytest.approx(-8.0)
    assert r5 == pytest.approx(1.0)
    assert r6 == pytest.approx(1.5)
    assert r7 == pytest.approx(0.0)
    # at x = t = 0 (xi = 0) the drift and the phase vanish:
    # y = (R3 E~ + R4/2, R4/2 + R5/2 - R6, 0) with E~ = 0, since tanh xi = 0
    y = four_param_position(jet(0.0, 0.0, p))
    assert y == pytest.approx([0.5 * r4, 0.5 * r4 + 0.5 * r5 - r6, 0.0], abs=1e-12)


@pytest.mark.parametrize("pid", list(PRESETS))
def test_position_matches_frame_tangents(pid):
    # the consistency check on GRID: FD y_x and y_t at step 1e-3 against the
    # frame tangents, the largest difference of either
    pre = resolve(pid, x_range=(-2.0, 2.0), t_range=(-2.0, 2.0))
    (check,) = verify.run_checks(["consistency"], pre, 13, 13, fd_step=1e-3).checks
    assert check.max_residual < 1e-6


def test_frame_tangent_lengths_match_metric():
    pre = resolve("ex2")
    p = pre.params
    x, t = GRID
    j = jet(x, t, p)
    yx, yt = map(su2.su2_to_vec, frame_tangents(j, pre.family.kind))
    f = three_param_forms_closed(j)
    assert np.allclose(np.sum(yx * yx, axis=-1), f.g11, rtol=1e-10)
    assert np.allclose(np.sum(yx * yt, axis=-1), f.g12, rtol=1e-10)
    assert np.allclose(np.sum(yt * yt, axis=-1), f.g22, rtol=1e-10)


@pytest.mark.parametrize("pid", sorted(PRESETS))
def test_frame_tangents_match_the_general_inverse(pid):
    # Phi^H / det Phi against numpy's inverse of Phi, on the clipped grid of
    # the consistency check: the two agree to rounding
    surface = resolve(pid)
    p, kind = surface.params, surface.family.kind
    x, t = surface.grid(41, 41, half=2.0)
    j = jet(x, t, p)
    f = phi(j)
    finv = np.linalg.inv(f)
    for got, v in zip(frame_tangents(j, kind), frame(j, kind)[:2]):
        want = finv @ su2.vec_to_su2(v) @ f
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("pid", ["ex2", "ex3", "ex4", "ex5"])
def test_three_param_forms_match_frame(pid):
    pre = resolve(pid)
    p = pre.params
    x, t = GRID
    j = jet(x, t, p)
    closed = three_param_forms_closed(j)
    frame = forms_from_ab(j, DeformationKind.SPECTRAL)
    sign = np.sign(j.u)
    for name in ("g11", "g12", "g22"):
        a, b = getattr(closed, name), getattr(frame, name)
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))
    for name in ("h11", "h12", "h22"):
        a, b = getattr(closed, name), getattr(frame, name)
        assert np.max(np.abs(sign * a - b)) < 1e-10 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("pid", ["ex6", "ex7", "ex8"])
def test_four_param_curvatures_match_frame(pid):
    pre = resolve(pid)
    p = pre.params
    x, t = GRID
    j = jet(x, t, p)
    closed = four_param_curvatures_closed(j)
    frame = curvatures_from_forms(forms_from_ab(j, pre.family.kind))
    f4 = four_param_forms_closed(j)
    den = pre.family.denominator(j)
    keep = np.abs(den) > 0.1 * np.max(np.abs(den))
    sign = np.sign(den)
    assert np.max(np.abs(closed.K - frame.K)[keep]) < 1e-8 * np.max(np.abs(closed.K[keep]))
    assert np.max(np.abs(sign * closed.H - frame.H)[keep]) < 1e-8 * np.max(np.abs(closed.H[keep]))
    # closed-form four-param forms agree with the frame forms up to orientation
    for name in ("g11", "g12", "g22"):
        a, b = getattr(f4, name), getattr(forms_from_ab(j, pre.family.kind), name)
        assert np.max(np.abs(a - b)[keep]) < 1e-8 * max(1.0, np.max(np.abs(a[keep])))


def test_weingarten_cubic_and_quadratic():
    # |k1| = 2 |lam|: the quadratic case is present with either sign of each
    x, t = GRID
    for k1, lam in ((2.0, 1.0), (2.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)):
        p = SolitonParams(k1, lam, mu=1.0)
        cur = three_param_curvatures_closed(jet(x, t, p))
        wr = weingarten_residuals(cur.K, cur.H, p)
        assert np.max(np.abs(wr.cubic) / wr.cubic_scale) < 1e-12, (k1, lam)
        assert wr.quadratic is not None, (k1, lam)
        assert np.max(np.abs(wr.quadratic) / wr.quadratic_scale) < 1e-12, (k1, lam)


def test_weingarten_no_quadratic_off_ridge():
    p = SolitonParams(2.0, 0.3, mu=1.0)
    cur = three_param_curvatures_closed(jet(*GRID, p))
    wr = weingarten_residuals(cur.K, cur.H, p)
    assert np.max(np.abs(wr.cubic) / wr.cubic_scale) < 1e-12
    assert wr.quadratic is None


def test_weingarten_uncorrected_defect():
    # at the crest of k1=2, lam=1, mu=1 (K=4, H=3) the uncorrected constant
    # term leaves residual 3 (k1^2 + 2 lam^2)^2 = 108
    p = SolitonParams(2.0, 1.0, mu=1.0)
    cur = three_param_curvatures_closed(jet(0.0, 0.0, p))
    wr = weingarten_residuals(cur.K, cur.H, p, paper_literal=True)
    assert float(wr.cubic) == pytest.approx(108.0, abs=1e-9)


@pytest.mark.parametrize("pid", list(PRESETS))
def test_asymptotic_deviation_decays(pid):
    pre = resolve(pid)
    p = pre.params
    # the distance from the far-field limit shrinks as |xi| grows;
    # |xi| = 9 is where 4 sech(xi) (ex2, ex3, ex6) first drops below 1e-3
    t0 = 0.0
    x_near = (8.0 * 2.0 / p.k1 - p.k1 ** 2 * t0) / 4.0
    x_far = (8.0 * 9.0 / p.k1 - p.k1 ** 2 * t0) / 4.0
    d_near = np.max(far_field_distance(pre.family, jet(x_near, t0, p)))
    d_far = np.max(far_field_distance(pre.family, jet(x_far, t0, p)))
    assert d_far < d_near * 1e-2
    assert d_far < 1e-3


def test_family_position_dispatch():
    p = resolve("ex2").params
    assert np.array_equal(
        FAMILIES["spectral3"].position(jet(*GRID, p)),
        three_param_position(jet(*GRID, p)),
    )
    p6 = resolve("ex6").params
    assert np.array_equal(
        FAMILIES["spectralgauge4"].position(jet(*GRID, p6)),
        four_param_position(jet(*GRID, p6)),
    )
    # symmetry-ux has a frame but no closed-form position
    for name in (DeformationKind.SYMMETRY_UX.value, "nosuch"):
        with pytest.raises(ValueError):
            resolve(family=name, params=p)


def test_a_zero_mu_or_nu_is_left_to_the_kind():
    # spectralgauge4 at mu = 0 is the unit sphere, and spectral3 has nu = 0
    sphere = resolve(family="spectralgauge4", params=SolitonParams(2.0, 0.5, mu=0.0, nu=1.0))
    assert np.allclose(sphere.family.curvatures(jet(*GRID, sphere.params)).K, 1.0)
    resolve(family="spectral3", params=SolitonParams(2.0, 1.0, mu=-8.0))
    # beside mu, an underflowing nu^2 only drops out of mu's terms
    resolve(family="spectralgauge4", params=SolitonParams(1.0, 0.0, mu=1.0, nu=1.7e-192))
    # mu^2 and nu^2 that overflow, or underflow where they set the scale
    for mu, nu, name in ((1e-300, 1.0, "mu"), (0.0, 1e-170, "nu"), (1e155, 1.0, "mu"),
                         (1.0, 1e155, "nu")):
        with pytest.raises(ValueError, match=name):
            resolve(family="spectralgauge4", params=SolitonParams(2.0, 0.5, mu=mu, nu=nu))


def _count_jets(monkeypatch):
    """Calls of soliton.jet from here on, by whatever name a module holds it."""
    calls = []
    original = soliton.jet

    def counted(*args):
        calls.append(1)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name == "mkdvsurf" or name.startswith("mkdvsurf."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("pid", ["ex2", "ex7"])
def test_generate_evaluates_the_soliton_once(monkeypatch, pid):
    # position, K, H, the singular mask and the xi column share one jet
    surface = resolve(pid)
    calls = _count_jets(monkeypatch)
    mesh.generate(surface, nx=11, nt=11)
    assert len(calls) == 1


# Soliton evaluations of each check on one tile: one jet at the tile's points,
# which the runner hands to every kernel, and for lax and consistency eight
# more at the points of the x and t stencils of Phi and of the position.
JETS_PER_TILE = {"zerocurv": 1, "compat": 1, "forms": 1, "weingarten": 1, "sphere": 1,
                 "lax": 9, "consistency": 9}


@pytest.mark.parametrize("pid, check", [
    (pid, check) for pid in ("ex2", "ex7") for check in JETS_PER_TILE
    if verify._CHECKS[check].requires(resolve(pid)) is None])
def test_jets_per_tile_of_each_check(monkeypatch, pid, check):
    surface = resolve(pid)
    calls = _count_jets(monkeypatch)
    assert verify.run_checks([check], surface, nx=11, nt=11).passed
    assert len(calls) == JETS_PER_TILE[check]


def test_only_the_x_t_boundaries_evaluate_a_jet():
    # every pointwise kernel reads the jet it is given; only the functions
    # that take (x, t) build one: the pointwise verify runners, generate,
    # the closed-form providers and the Lax stencils
    boundaries = {f"verify._check_{c}" for c in JETS_PER_TILE} | {
        "mesh.generate", "immersion.Family.providers", "lax.lax_residuals"}
    callers = set()
    for path in Path(immersion.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        # the names the module binds soliton.jet to
        names = {"jet"} | {a.asname for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                           for a in n.names if a.name == "jet" and a.asname}
        # each module-level statement, with the methods of a class one by one
        units = [(f"{n.name}.", m) for n in tree.body if isinstance(n, ast.ClassDef)
                 for m in n.body]
        units += [("", n) for n in tree.body if not isinstance(n, ast.ClassDef)]
        callers |= {f"{path.stem}.{prefix}{getattr(unit, 'name', f'line {unit.lineno}')}"
                    for prefix, unit in units for node in ast.walk(unit)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) in names}
    assert callers == boundaries
