"""Lax pair U, V, the closed-form fundamental solution Phi, and residual checks.

The linear system is Phi_x = U Phi, Phi_t = V Phi with

    U = (i/2) [[lam, -u], [-u, -lam]],
    V = -(i/2) [[u^2/2 - (alpha + alpha*lam + lam^2),  (alpha+lam) u - i u_x],
                [(alpha+lam) u + i u_x,  -u^2/2 + (alpha + alpha*lam + lam^2)]].

Its integrability condition U_t - V_x + [U, V] = 0 is equivalent to the
traveling-wave equation the soliton satisfies.  ``lax_U`` and ``lax_V`` take
the values u and u_x, which the residuals here read from one
``soliton.jet``; Phi reads xi, sech xi and tanh xi from its own jet.  U and
V are su(2)-valued and are held
as Pauli-component vectors (see ``su2``); Phi is a complex 2x2 matrix, so
they meet as matrices only in ``lax_residuals``, through ``su2.mul``.

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
from .diffgeo import Stencil, derivative
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


def zero_curvature_residual(x, t, p: SolitonParams) -> np.ndarray:
    """U_t - V_x + [U, V] as a vector, with all derivatives in closed form."""
    j = soliton.jet(x, t, p)
    u = np.asarray(j.u, dtype=float)
    ux = j.u_x
    U = lax_U(u, p.lam)
    V = lax_V(u, ux, p.lam, p.alpha)
    U_t = su2.vec(-0.5 * j.u_t, 0.0, 0.0)
    V_x = su2.vec(-0.5 * (p.alpha + p.lam) * ux, -0.5 * j.u_xx, -0.5 * u * ux)
    return U_t - V_x + su2.commutator(U, V)


def _power_factors(z, p: SolitonParams):
    """P+ = e^{i lam xi/k1 - pi lam/(2 k1)} and its reciprocal P-."""
    phase = np.exp(1j * p.lam * z / p.k1)
    damp = np.exp(-np.pi * p.lam / (2.0 * p.k1))
    return phase * damp, np.conj(phase) / damp


def phi(x, t, p: SolitonParams, c: PhiConstants) -> np.ndarray:
    """Closed-form fundamental solution Phi(x, t), shape (..., 2, 2)."""
    j = soliton.jet(x, t, p)
    z, s, tau = j.xi, j.s, j.tau
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


def lax_residuals(x, t, p: SolitonParams, c: PhiConstants, h: float):
    """(Phi_x - U Phi, Phi_t - V Phi, Phi), Phi differenced by ``diffgeo.derivative``:
    order 2 at step h with one Richardson level, (4 d(h/2) - d(h))/3.

    The third entry is Phi on the grid itself, returned so that a caller can
    test det Phi without evaluating it again."""
    j = soliton.jet(x, t, p)

    def f(xx, tt):
        return phi(xx, tt, p, c)

    s = Stencil(h, order=2, richardson=True)
    phi_x = derivative(f, x, t, s, axis=0)
    phi_t = derivative(f, x, t, s, axis=1)
    ph = phi(x, t, p, c)
    res_x = phi_x - su2.mul(su2.vec_to_su2(lax_U(j.u, p.lam)), ph)
    res_t = phi_t - su2.mul(su2.vec_to_su2(lax_V(j.u, j.u_x, p.lam, p.alpha)), ph)
    return res_x, res_t, ph
