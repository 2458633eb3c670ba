"""Lax pair U, V, the closed-form fundamental solution Phi, and residual checks.

The linear system is Phi_x = U Phi, Phi_t = V Phi with

    U = (i/2) [[lam, -u], [-u, -lam]],
    V = -(i/2) [[u^2/2 - (alpha + alpha*lam + lam^2),  (alpha+lam) u - i u_x],
                [(alpha+lam) u + i u_x,  -u^2/2 + (alpha + alpha*lam + lam^2)]].

Its integrability condition U_t - V_x + [U, V] = 0 is equivalent to the
traveling-wave equation the soliton satisfies.  ``lax_U`` and ``lax_V`` take
the values u and u_x; ``phi`` and the residuals take the caller's
``soliton.Jet`` and read u, u_x, xi, sech xi and tanh xi from it.  U and V
are su(2)-valued and are held as Pauli-component vectors (see ``su2``); Phi
is a complex 2x2 matrix, so they meet as matrices only in ``lax_residuals``,
through ``su2.mul``.

For u = k1 sech(xi), each entry of Phi combines the two independent
solutions through the complex power

    P+ = (tanh xi + 1)^{i lam/2k1} (tanh xi - 1)^{-i lam/2k1}
       = exp(i lam xi / k1 - pi lam / (2 k1)),

evaluated on the principal branch log(-e^{2 xi}) = 2 xi + i pi, and its
reciprocal P-.  Phi's columns weight the two solutions by (A, B) and
(A, -B), with the one choice A = 1, B = -e^{-pi lam/k1}/k1 (``_weight_b``):
under this branch that exponent makes Phi proportional to a unitary matrix,
Phi^H Phi = det(Phi) I, so that Phi^{-1} X Phi is su(2)-valued for X in
su(2) and the position vector is real.  The sign of B selects the
orientation that reproduces the bundled closed-form positions componentwise.
So Phi is a function of (x, t) and the soliton's parameters alone.  Beyond
xi, it depends on t only through e^{i omega t}, omega = (k1^2 + 4 lam^2)/8,
and its conjugate: each entry is a sum of two products of a t-only factor
and a part in xi.  ``_time_terms`` forms the four t-only factors once per
run of equal t (a row of a grid), and ``phi`` evaluates the xi parts per
point.  The residual checks differentiate the closed form numerically, so
the formulas are tested rather than trusted.
"""
from __future__ import annotations

import numpy as np

from . import soliton, su2
from .diffgeo import Stencil, derivative, div_real
from .soliton import Jet, SolitonParams


def lax_U(u, lam: float) -> np.ndarray:
    """U as the vector (-u/2, 0, lam/2), i.e. U = (i/2) [[lam, -u], [-u, -lam]]."""
    return su2.vec(-0.5 * u, 0.0, 0.5 * lam)


def lax_V(u, u_x, lam: float, alpha: float) -> np.ndarray:
    """V as the vector (-(alpha+lam) u/2, -u_x/2, -w/2).

    With w = u^2/2 - (alpha + alpha lam + lam^2) that is the printed matrix
    V = -(i/2) [[w, (alpha+lam) u - i u_x], [(alpha+lam) u + i u_x, -w]].
    """
    w = 0.5 * u ** 2 - (alpha + alpha * lam + lam ** 2)
    return su2.vec(-0.5 * (alpha + lam) * u, -0.5 * u_x, -0.5 * w)


def zero_curvature_residual(j: Jet) -> np.ndarray:
    """U_t - V_x + [U, V] as a vector, with all derivatives in closed form."""
    p, u = j.p, j.u
    ux = j.u_x
    U = lax_U(u, p.lam)
    V = lax_V(u, ux, p.lam, p.alpha)
    U_t = su2.vec(-0.5 * j.u_t, 0.0, 0.0)
    V_x = su2.vec(-0.5 * (p.alpha + p.lam) * ux, -0.5 * j.u_xx, -0.5 * u * ux)
    return U_t - V_x + su2.commutator(U, V)


def _power_factors(z, p: SolitonParams):
    """P+ = e^{i lam xi/k1 - pi lam/(2 k1)} and its reciprocal P-."""
    phase = np.exp(div_real(1j * p.lam * z, p.k1))
    damp = np.exp(-np.pi * p.lam / (2.0 * p.k1))
    return phase * damp, div_real(np.conj(phase), damp)


def _time_factor(t, p: SolitonParams) -> np.ndarray:
    """e^{i omega t} with omega = (k1^2 + 4 lam^2)/8, Phi's dependence on t."""
    omega = (p.k1 ** 2 + 4.0 * p.lam ** 2) / 8.0
    return np.exp(1j * omega * np.asarray(t, dtype=float))


def _weight_b(p: SolitonParams) -> float:
    """B = -e^{-pi lam/k1}/k1, the weight of Phi's second solution (A = 1)."""
    return -np.exp(-np.pi * p.lam / p.k1) / p.k1


def _time_terms(t, p: SolitonParams):
    """Phi's four t-only factors at t, each of t's shape:
    -(i/k1) ea, i k1 B eb, i ea and B eb, with ea = e^{i omega t} and eb its
    conjugate, the left-hand factors of the four product chains of ``phi``.

    They are evaluated once per run of equal t in t's flat order, such as a
    row of a grid, and repeated over the run.  Runs are told apart by their
    bits, not by ==, which would merge -0.0 with 0.0; each factor is a
    function of its t alone, so this is bitwise the evaluation at every
    point.
    """
    if t is None:   # a jet of xi alone, whose None asarray would read as NaN
        raise TypeError("Phi reads t, which a jet of xi alone does not hold")
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    starts = soliton.run_starts(flat.view(np.uint64))
    runs = np.diff(starts, append=flat.size)
    ea = _time_factor(flat[starts], p)
    eb = np.conj(ea)
    b = _weight_b(p)
    terms = (-(1j / p.k1) * ea, 1j * p.k1 * b * eb, 1j * ea, b * eb)
    return tuple(np.repeat(f, runs).reshape(t.shape) for f in terms)


def phi(j: Jet, time_terms=None) -> np.ndarray:
    """Closed-form fundamental solution Phi at the jet's (x, t), shape (..., 2, 2),
    stored entry-first (``su2.empty_2x2``).

    Each entry is a sum of two products, a t-only factor of ``_time_terms``
    times a part in xi: the xi parts are evaluated per point, the t factors
    once per run of equal t.  ``time_terms`` is ``_time_terms(j.t, j.p)``,
    for a caller that already holds it for this t, as a stencil along x
    does.  The second column is the first column's A-term minus its B-term;
    IEEE products and negation are sign-symmetric, so that is bitwise the
    sum with -B.
    """
    p, z, s, tau = j.p, j.xi, j.s, j.tau
    p_plus, p_minus = _power_factors(z, p)
    ta0, tb0, ta1, tb1 = _time_terms(j.t, p) if time_terms is None else time_terms

    top = (2.0 * p.lam + 1j * p.k1 * tau) * p_plus
    bot = (p.k1 * tau + 2.0j * p.lam) * p_minus
    a0 = ta0 * top
    b0 = tb0 * p_minus * s
    a1 = ta1 * p_plus * s
    b1 = tb1 * bot

    out = su2.empty_2x2(z.shape)
    np.add(a0, b0, out=out[..., 0, 0])
    np.subtract(a0, b0, out=out[..., 0, 1])
    np.add(a1, b1, out=out[..., 1, 0])
    np.subtract(a1, b1, out=out[..., 1, 1])
    return out


def det_phi_expected(p: SolitonParams) -> float:
    """The constant det(Phi) = ((k1^2 + 4 lam^2)/k1) (A (-B) - A B) with A = 1,
    which is 2 e^{-pi lam/k1} (k1^2 + 4 lam^2)/k1^2 > 0."""
    return (p.k1 ** 2 + 4.0 * p.lam ** 2) / p.k1 * (-2.0 * _weight_b(p))


def phi_scale_problem(p: SolitonParams) -> str | None:
    """Why Phi^-1 fails on p's soliton, |B1| or det Phi not a normal double; or None."""
    shown, tiny = f"k1 = {p.k1:g}, lambda = {p.lam:g}", np.finfo(float).tiny
    with np.errstate(over="ignore", under="ignore"):
        for name, scale in (("|B1| = e^(-pi lambda/k1)/|k1|", lambda: abs(_weight_b(p))),
                            ("det Phi", lambda: det_phi_expected(p))):
            value = scale()
            if not np.isfinite(value) or value == 0.0:
                return f"{shown}: {name} = {value:g}, need it finite and nonzero"
            if value < tiny:
                return (f"{shown}: {name} = {value:g} is subnormal, "
                        f"need it at least {tiny:g} in magnitude")
    return None


def phi_inverse(f, p: SolitonParams) -> np.ndarray:
    """Phi^-1 for Phi = ``phi`` on p's soliton: Phi is sqrt(c) times an SU(2)
    matrix, c = det Phi, so its inverse is Phi^H / c with the constant c of
    ``det_phi_expected``."""
    return div_real(np.conj(np.swapaxes(f, -1, -2)), det_phi_expected(p))


def lax_residuals(j: Jet, h: float):
    """(Phi_x - U Phi, Phi_t - V Phi, Phi) on j, Phi differenced by ``diffgeo.derivative``:
    order 2 at step h with one Richardson level, (4 d(h/2) - d(h))/3.

    The third entry is Phi on the grid itself, returned so that a caller can
    test det Phi without evaluating it again."""
    p = j.p
    # the stencil's points are off j's, so they evaluate jets of their own; the x
    # stencil shifts x alone, so its points share the grid's t factors
    terms = _time_terms(j.t, p)

    def f(xx, tt):
        return phi(soliton.jet(xx, tt, p))

    def f_x(xx, tt):
        return phi(soliton.jet(xx, tt, p), terms)

    s = Stencil(h, order=2, richardson=True)
    phi_x = derivative(f_x, j.x, j.t, s, axis=0)
    phi_t = derivative(f, j.x, j.t, s, axis=1)
    ph = phi(j, terms)
    res_x = phi_x - su2.mul(su2.vec_to_su2(lax_U(j.u, p.lam)), ph)
    res_t = phi_t - su2.mul(su2.vec_to_su2(lax_V(j.u, j.u_x, p.lam, p.alpha)), ph)
    return res_x, res_t, ph
