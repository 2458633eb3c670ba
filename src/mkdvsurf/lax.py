"""Lax pair U, V, the closed-form fundamental solution Phi, and residual checks.

The linear system is Phi_x = U Phi, Phi_t = V Phi with

    U = (i/2) [[lam, -u], [-u, -lam]],
    V = -(i/2) [[u^2/2 - (alpha + alpha*lam + lam^2),  (alpha+lam) u - i u_x],
                [(alpha+lam) u + i u_x,  -u^2/2 + (alpha + alpha*lam + lam^2)]].

Its integrability condition U_t - V_x + [U, V] = 0 is equivalent to the
traveling-wave equation the soliton satisfies.  U and V are su(2)-valued and
are held as Pauli-component vectors (see ``su2``); Phi is a complex 2x2
matrix, so they meet as matrices only in ``lax_residuals``.

For u = k1 sech(xi), each entry of Phi combines the two independent
solutions through the complex power

    P+ = (tanh xi + 1)^{i lam/2k1} (tanh xi - 1)^{-i lam/2k1}
       = exp(i lam xi / k1 - pi lam / (2 k1)),

evaluated on the principal branch log(-e^{2 xi}) = 2 xi + i pi, and its
reciprocal P-.  The residual checks differentiate the closed form
numerically, so the formulas are tested rather than trusted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import soliton, su2
from .soliton import SolitonParams


@dataclass(frozen=True)
class PhiConstants:
    """Integration constants (A1, A2, B1, B2) of the fundamental solution."""

    A1: complex
    A2: complex
    B1: complex
    B2: complex

    def __post_init__(self) -> None:
        if self.A1 * self.B2 - self.A2 * self.B1 == 0:
            raise ValueError("degenerate constants: A1*B2 - A2*B1 must be nonzero")


def canonical_constants(p: SolitonParams, scale: complex = 1.0) -> PhiConstants:
    """The choice A1 = A2, B1 = -A1 e^{-pi lam/k1}/k1, B2 = -B1.

    Under this module's fixed log-branch the exponent must be -pi lam/k1 to
    make Phi proportional to a unitary matrix (constant Phi^H Phi = c I);
    only then is Phi^{-1} A Phi su(2)-valued and the position vector real.
    The same ray of solutions written under the opposite branch carries the
    opposite exponent.  The phase of B1 rotates the surface about its first
    axis; the sign here selects the orientation that reproduces the bundled
    closed-form positions componentwise.  The overall ``scale`` drops out of
    all conjugations.
    """
    a = complex(scale)
    b = -a * np.exp(-np.pi * p.lam / p.k1) / p.k1
    return PhiConstants(A1=a, A2=a, B1=b, B2=-b)


def lax_U(u, lam: float) -> np.ndarray:
    """U as the vector (-u/2, 0, lam/2), i.e. U = (i/2) [[lam, -u], [-u, -lam]]."""
    return su2.vec(-0.5 * np.asarray(u, dtype=float), 0.0, 0.5 * lam)


def lax_V(u, u_x, lam: float, alpha: float) -> np.ndarray:
    """V as the vector (-(alpha+lam) u/2, -u_x/2, -w/2).

    With w = u^2/2 - (alpha + alpha lam + lam^2) that is the printed matrix
    V = -(i/2) [[w, (alpha+lam) u - i u_x], [(alpha+lam) u + i u_x, -w]].
    """
    u = np.asarray(u, dtype=float)
    w = 0.5 * u ** 2 - (alpha + alpha * lam + lam ** 2)
    return su2.vec(-0.5 * (alpha + lam) * u, -0.5 * np.asarray(u_x, dtype=float), -0.5 * w)


def lax_U_at(x, t, p: SolitonParams) -> np.ndarray:
    return lax_U(soliton.u(x, t, p), p.lam)


def lax_V_at(x, t, p: SolitonParams) -> np.ndarray:
    return lax_V(soliton.u(x, t, p), soliton.u_x(x, t, p), p.lam, p.alpha)


def zero_curvature_residual(x, t, p: SolitonParams) -> np.ndarray:
    """U_t - V_x + [U, V] as a vector, with all derivatives in closed form."""
    u = np.asarray(soliton.u(x, t, p), dtype=float)
    ux = soliton.u_x(x, t, p)
    ut = soliton.u_t(x, t, p)
    uxx = soliton.u_xx(x, t, p)

    U = lax_U(u, p.lam)
    V = lax_V(u, ux, p.lam, p.alpha)
    U_t = su2.vec(-0.5 * ut, 0.0, 0.0)
    V_x = su2.vec(-0.5 * (p.alpha + p.lam) * ux, -0.5 * uxx, -0.5 * u * ux)
    return U_t - V_x + su2.commutator(U, V)


def _power_factors(z, p: SolitonParams):
    """P+ = e^{i lam xi/k1 - pi lam/(2 k1)} and its reciprocal P-."""
    phase = np.exp(1j * p.lam * z / p.k1)
    damp = np.exp(-np.pi * p.lam / (2.0 * p.k1))
    return phase * damp, np.conj(phase) / damp


def phi(x, t, p: SolitonParams, c: PhiConstants) -> np.ndarray:
    """Closed-form fundamental solution Phi(x, t), shape (..., 2, 2)."""
    z = soliton.xi(x, t, p)
    z = np.asarray(z, dtype=float)
    s = 1.0 / np.cosh(z)
    tau = np.tanh(z)
    p_plus, p_minus = _power_factors(z, p)

    omega = (p.k1 ** 2 + 4.0 * p.lam ** 2) / 8.0
    ea = np.exp(1j * omega * np.asarray(t, dtype=float))
    eb = np.conj(ea)
    ea = np.broadcast_to(ea, z.shape)
    eb = np.broadcast_to(eb, z.shape)

    top = (2.0 * p.lam + 1j * p.k1 * tau) * p_plus
    bot = (p.k1 * tau + 2.0j * p.lam) * p_minus

    out = np.zeros(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -(1j / p.k1) * c.A1 * ea * top + 1j * p.k1 * c.B1 * eb * p_minus * s
    out[..., 0, 1] = -(1j / p.k1) * c.A2 * ea * top + 1j * p.k1 * c.B2 * eb * p_minus * s
    out[..., 1, 0] = 1j * c.A1 * ea * p_plus * s + c.B1 * eb * bot
    out[..., 1, 1] = 1j * c.A2 * ea * p_plus * s + c.B2 * eb * bot
    return out


def det_phi_expected(p: SolitonParams, c: PhiConstants) -> complex:
    """The constant det(Phi) = ((k1^2 + 4 lam^2)/k1) (A1 B2 - A2 B1)."""
    return (p.k1 ** 2 + 4.0 * p.lam ** 2) / p.k1 * (c.A1 * c.B2 - c.A2 * c.B1)


def _central_diff(f, x, t, which: str, h: float, richardson: bool = True):
    """Order-2 central difference in x or t, optionally Richardson-extrapolated."""
    if h < 1e-12:
        raise ValueError(f"step underflow: h = {h}")

    def d(step):
        if which == "x":
            return (f(x + step, t) - f(x - step, t)) / (2.0 * step)
        return (f(x, t + step) - f(x, t - step)) / (2.0 * step)

    if not richardson:
        return d(h)
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def lax_residuals(
    x, t, p: SolitonParams, c: PhiConstants, h: float = 1e-6, richardson: bool = True
):
    """(Phi_x - U Phi, Phi_t - V Phi) with Phi differentiated numerically."""
    def f(xx, tt):
        return phi(xx, tt, p, c)

    phi_x = _central_diff(f, x, t, "x", h, richardson)
    phi_t = _central_diff(f, x, t, "t", h, richardson)
    ph = phi(x, t, p, c)
    res_x = phi_x - su2.vec_to_su2(lax_U_at(x, t, p)) @ ph
    res_t = phi_t - su2.vec_to_su2(lax_V_at(x, t, p)) @ ph
    return res_x, res_t


def second_order_check(
    x, t, p: SolitonParams, c: PhiConstants, h: float = 1e-4
) -> np.ndarray:
    """Residual of the scalar second-order equation satisfied by Phi_21.

    (Phi21)_xx - (u_x/u)(Phi21)_x + [ (u (lam^2 + u^2) - 2 i lam u_x) / (4u) ] Phi21,
    with derivatives of the closed-form Phi21 by central differences.
    Rejects points where u is numerically zero (|xi| too large).
    """
    uu = np.asarray(soliton.u(x, t, p), dtype=float)
    if np.min(np.abs(uu)) < 1e-12:
        raise ValueError("second_order_check requires u != 0 at every point")

    def f21(xx, tt):
        return phi(xx, tt, p, c)[..., 1, 0]

    p21 = f21(x, t)
    p21_x = _central_diff(f21, x, t, "x", h)
    p21_xx = (f21(x + h, t) - 2.0 * p21 + f21(x - h, t)) / h ** 2
    ux = soliton.u_x(x, t, p)
    coeff = (uu * (p.lam ** 2 + uu ** 2) - 2.0j * p.lam * ux) / (4.0 * uu)
    return p21_xx - (ux / uu) * p21_x + coeff * p21
