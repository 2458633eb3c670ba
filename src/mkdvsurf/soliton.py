"""The traveling-wave one-soliton u = k1 sech(xi) and its closed derivatives.

The wave coordinate is xi = k1 (k1^2 t + 4 x) / 8, so that
d(xi)/dx = k1/2 and d(xi)/dt = k1^3/8, and the wave speed constant is
alpha = k1^2 / 4.  Every derivative below is an exact chain-rule expression
in sech(xi) and tanh(xi); residual helpers check the defining equations.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SolitonParams:
    """Parameter tuple (k1, lambda, mu, nu) of every surface family.

    ``alpha`` is derived, always k1^2/4; it is exposed as a field for
    convenience but cannot be set independently.
    """

    k1: float
    lam: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("k1", "lam", "mu", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.k1 == 0:
            raise ValueError("k1 must be nonzero")
        object.__setattr__(self, "alpha", self.k1 ** 2 / 4.0)


def xi(x, t, p: SolitonParams):
    """Wave coordinate xi = k1 (k1^2 t + 4 x) / 8."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return p.k1 * (p.k1 ** 2 * t + 4.0 * x) / 8.0


def xi_grid(p: SolitonParams, xi_half: float, nx: int, nt: int, t_half: float = 1.0):
    """(x, t) grid with nx points across |xi| <= xi_half on each of nt rows
    spanning |t| <= t_half, so the grid follows the soliton as it travels."""
    tv = np.linspace(-t_half, t_half, nt)
    xiv = np.linspace(-xi_half, xi_half, nx)
    x = (8.0 * xiv[None, :] / p.k1 - p.k1 ** 2 * tv[:, None]) / 4.0
    return x, np.repeat(tv[:, None], nx, axis=1)


# Peak memory per grid point, rounded up from the measured peak-RSS slopes:
# about 0.8 kB for `generate` with JSON export (301^2 to 601^2) and 0.4 kB
# for `verify --checks all` (101^2 to 201^2).
GRID_BYTES_PER_POINT = 1024


def check_grid(nx: int, nt: int) -> None:
    """Reject an nx by nt grid below 2x2 or larger than physical memory.

    Runs before anything is allocated, so an oversized grid is a ValueError
    naming nx*nt and the estimate rather than a MemoryError mid-run.
    """
    if nx < 2 or nt < 2:
        raise ValueError("grid must be at least 2x2")
    need = nx * nt * GRID_BYTES_PER_POINT
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, e.g. on Windows
        return
    if need > have:
        raise ValueError(
            f"grid nx*nt = {nx * nt} points needs about {need / 2**30:.3g} GiB "
            f"({GRID_BYTES_PER_POINT} B per point), more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )


def _sech_tanh(x, t, p: SolitonParams):
    # (sech xi, tanh xi) at (x, t); shared with the immersion closed forms
    z = xi(x, t, p)
    return 1.0 / np.cosh(z), np.tanh(z)


def u(x, t, p: SolitonParams):
    """One-soliton u = k1 sech(xi)."""
    s, _ = _sech_tanh(x, t, p)
    return p.k1 * s


def u_x(x, t, p: SolitonParams):
    s, tau = _sech_tanh(x, t, p)
    return -(p.k1 ** 2 / 2.0) * s * tau


def u_t(x, t, p: SolitonParams):
    return p.alpha * u_x(x, t, p)


def u_xx(x, t, p: SolitonParams):
    s, _ = _sech_tanh(x, t, p)
    return -(p.k1 ** 3 / 4.0) * s * (2.0 * s ** 2 - 1.0)


def u_xt(x, t, p: SolitonParams):
    return p.alpha * u_xx(x, t, p)


def u_xxx(x, t, p: SolitonParams):
    s, tau = _sech_tanh(x, t, p)
    return (p.k1 ** 4 / 8.0) * s * tau * (6.0 * s ** 2 - 1.0)


def u_xxt(x, t, p: SolitonParams):
    return p.alpha * u_xxx(x, t, p)


def mkdv_residual(x, t, p: SolitonParams):
    """u_t - u_xxx - (3/2) u^2 u_x, identically zero on the soliton."""
    return u_t(x, t, p) - u_xxx(x, t, p) - 1.5 * u(x, t, p) ** 2 * u_x(x, t, p)


def traveling_residual(x, t, p: SolitonParams):
    """u_xx - alpha u + u^3/2, the traveling-wave reduction residual."""
    return u_xx(x, t, p) - p.alpha * u(x, t, p) + 0.5 * u(x, t, p) ** 3


def willmore_condition_residual(x, t, p: SolitonParams):
    """u_x^2 - alpha u^2 + u^4/4, the first integral of the reduction."""
    return u_x(x, t, p) ** 2 - p.alpha * u(x, t, p) ** 2 + 0.25 * u(x, t, p) ** 4
