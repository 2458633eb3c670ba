"""Polynomial curvature energies and their constrained coefficient families.

A :class:`PolyLagrangian` is a surface energy density

    E(H, K) = sum_{n=0}^{N} H^n sum_{l=0}^{floor((N-n)/2)} a_{nl} K^l,

a polynomial in the mean and Gauss curvatures where K counts as degree two
(it scales like H^2 under dilation).  For N = 3..6 the module also builds
the constrained coefficient sets under which the spectral-deformation
soliton surfaces with lam = k1/2 solve the generalized shape equation.  The
residual of that equation is ``diffgeo.shape_equation_residual``; the
``shape`` check of ``verify`` tests these families with it on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .immersion import _finite_nonzero

__all__ = [
    "PolyLagrangian",
    "FLAT_MONOMIALS",
    "FREE_INDICES",
    "from_flat",
    "constrained_family",
]


# Fixed flat orderings of the monomials H^n K^l for each total degree N.
# Index i (1-based) of the flat coefficient vector corresponds to the pair
# FLAT_MONOMIALS[N][i-1] = (n, l).  The orderings are part of the public
# contract for the constrained families below and must not be re-sorted.
FLAT_MONOMIALS: dict[int, tuple[tuple[int, int], ...]] = {
    3: ((3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (1, 1)),
    4: ((4, 0), (3, 0), (2, 0), (1, 0), (0, 0), (0, 1), (1, 1), (0, 2), (2, 1)),
    5: (
        (5, 0), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0),
        (0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (3, 1),
    ),
    6: (
        (6, 0), (5, 0), (4, 0), (3, 0), (2, 0), (1, 0), (0, 0),
        (0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (3, 1), (0, 3), (2, 2), (4, 1),
    ),
}

# Flat indices left free (not fixed by the shape-equation constraints).
FREE_INDICES: dict[int, tuple[int, ...]] = {
    3: (5,),
    4: (1, 6, 8),
    5: (1, 2, 7, 9, 11),
    6: (1, 2, 3, 8, 10, 12, 14, 16),
}


@dataclass(frozen=True)
class PolyLagrangian:
    """Polynomial energy density E(H, K) with total degree bound N.

    ``coeffs`` maps (n, l) to the real coefficient of H^n K^l; only pairs
    with n + 2l <= N may appear.  ``p`` is the pressure constant entering
    the shape equation as +2p.  Evaluation uses Horner's scheme in H with
    inner Horner rows in K, so values and partials are exact polynomial
    arithmetic up to rounding.
    """

    N: int
    coeffs: Mapping[tuple[int, int], float]
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError("degree bound N must be nonnegative")
        clean: dict[tuple[int, int], float] = {}
        for key, val in dict(self.coeffs).items():
            n, l = key
            if n < 0 or l < 0 or n + 2 * l > self.N:
                raise ValueError(f"monomial H^{n} K^{l} violates n + 2l <= {self.N}")
            v = float(val)
            if not np.isfinite(v):
                raise ValueError(f"coefficient for H^{n} K^{l} is not finite")
            # the partials of every order carry at most n! l! |a|, and this
            # bound holds for them in turn, so dH and dK never overflow
            if not np.isfinite(math.factorial(n) * math.factorial(l) * v):
                raise ValueError(f"coefficient {v:g} for H^{n} K^{l} overflows in its "
                                 f"partials ({n}! {l}! a is not finite)")
            clean[(int(n), int(l))] = v
        object.__setattr__(self, "coeffs", clean)

    @cached_property
    def _rows(self) -> tuple[tuple[float, ...], ...]:
        """K-coefficient rows from the top power of H down to H^0, each dense
        from its top l down to l = 0; a power with no coefficient is empty."""
        rows: dict[int, list[float]] = {}
        for (n, l), a in self.coeffs.items():
            row = rows.setdefault(n, [])
            if len(row) <= l:
                row.extend([0.0] * (l + 1 - len(row)))
            row[l] = a
        top = max(rows, default=0)
        return tuple(tuple(reversed(rows.get(n, ()))) for n in range(top, -1, -1))

    def eval(self, h, k):
        """E(H, K), elementwise over broadcastable arrays.

        Horner in H over Horner rows in K, updated in place: each step is
        the textbook acc * k + a (out * h + row), so the result is bitwise
        that of the plain scheme started from zero accumulators, NaN
        payloads included, and a power of H with no coefficient adds +0.0.
        """
        h = np.asarray(h, dtype=float)
        k = np.asarray(k, dtype=float)
        # a NumPy scalar for 0-d input, so that its arithmetic, NaN payloads
        # included, is the scalar arithmetic of the plain scheme
        out = np.zeros(np.broadcast(h, k).shape)[()]
        # out + row goes into the row's buffer when that has the result's
        # shape; not out += row, which NumPy runs as a reduction on a
        # one-element array and which then keeps the row's NaN, not out's
        into_row = k.ndim > 0 and k.shape == out.shape
        for row in self._rows:
            out *= h
            if not row:
                out += 0.0
                continue
            acc = k * 0.0
            acc += row[0]
            for a in row[1:]:
                acc *= k
                acc += a
            out = np.add(out, acc, acc) if into_row else out + acc
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _partial_h(self) -> "PolyLagrangian":
        d = {(n - 1, l): n * a for (n, l), a in self.coeffs.items() if n > 0}
        return PolyLagrangian(max(self.N - 1, 0), d)

    @cached_property
    def _partial_k(self) -> "PolyLagrangian":
        d = {(n, l - 1): l * a for (n, l), a in self.coeffs.items() if l > 0}
        return PolyLagrangian(max(self.N - 2, 0), d)

    def dH(self, h, k):
        """Exact partial dE/dH."""
        return self._partial_h.eval(h, k)

    def dK(self, h, k):
        """Exact partial dE/dK."""
        return self._partial_k.eval(h, k)

    def depends_on_k(self) -> bool:
        return any(l > 0 and a != 0.0 for (n, l), a in self.coeffs.items())

    @cached_property
    def terms(self) -> tuple[float, frozenset[tuple[tuple[int, int], float]]]:
        """``p`` and the nonzero coefficients: the energy as the shape
        equation sees it.  Energies with equal terms differ only in N and in
        explicit zero (+0.0 or -0.0) coefficients, so at every finite
        (H, K) their values and partials agree up to the sign of a zero.
        The ``shape`` check of ``verify`` evaluates one energy per distinct
        terms, ``PolyLagrangian(N, dict(nonzero), p)``, built from the terms
        alone, so Horner skips each power of H that has no nonzero
        coefficient."""
        return self.p, frozenset((nl, a) for nl, a in self.coeffs.items() if a != 0.0)


def _monomials(n_deg: int) -> tuple[tuple[int, int], ...]:
    try:
        return FLAT_MONOMIALS[n_deg]
    except KeyError:
        raise ValueError(
            f"no flat monomial ordering for N={n_deg}; supported: 3..6"
        ) from None


def from_flat(n_deg: int, values, p: float = 0.0) -> PolyLagrangian:
    """Build a PolyLagrangian from the fixed flat coefficient ordering."""
    mono = _monomials(n_deg)
    vals = [float(v) for v in values]
    if len(vals) != len(mono):
        raise ValueError(f"N={n_deg} expects {len(mono)} coefficients, got {len(vals)}")
    return PolyLagrangian(n_deg, dict(zip(mono, vals)), p=p)


def _normalize_free(n_deg: int, free: Mapping | None) -> dict[int, float]:
    allowed = FREE_INDICES[n_deg]
    out = {i: 0.0 for i in allowed}
    if free is None:
        return out
    for key, val in dict(free).items():
        idx = int(key)
        if idx not in allowed:
            raise ValueError(
                f"a{idx} is not free for N={n_deg}; free indices: "
                + ", ".join(f"a{i}" for i in allowed)
            )
        out[idx] = float(val)
    return out


def constrained_family(
    n_deg: int, free: Mapping | None, p: float, k1: float, mu: float
) -> PolyLagrangian:
    """Coefficient family of degree ``n_deg`` solved by the lam = k1/2 surfaces.

    ``free`` maps the free flat indices (1-based ints) to values; omitted
    entries default to zero.  All remaining coefficients are fixed
    rational functions of (p, lam, mu) with lam = k1/2; lam enters
    through even powers only, so both signs of lam give the same energy.
    Raises ValueError, naming lambda or mu, when a power of them that the
    coefficients use (up to the sixth) is 0, overflows or underflows to 0.
    """
    if n_deg not in FLAT_MONOMIALS:
        raise ValueError(f"N={n_deg} outside the supported range 3..6")
    lam = k1 / 2.0
    # the coefficients divide by and scale by these powers
    l2, l4, l6 = (_finite_nonzero(f"lambda = {lam:g}", f"lambda^{n}", lambda: lam ** n)
                  for n in (2, 4, 6))
    m2, m4, m6 = (_finite_nonzero(f"mu = {mu:g}", f"mu^{n}", lambda: mu ** n)
                  for n in (2, 4, 6))

    a = {i: 0.0 for i in range(1, len(FLAT_MONOMIALS[n_deg]) + 1)}
    a.update(_normalize_free(n_deg, free))

    if n_deg == 3:
        a[1] = -p * m4 / (72.0 * l4)
        a[6] = p * m4 / (32.0 * l4)
    elif n_deg == 4:
        a[2] = -p * m4 / (72.0 * l4)
        a[3] = -(8.0 * l2 / (15.0 * m2)) * (27.0 * a[1] - 8.0 * a[8])
        a[5] = (l4 / (5.0 * m4)) * (81.0 * a[1] + 16.0 * a[8])
        a[7] = p * m4 / (32.0 * l4)
        a[9] = -(189.0 * a[1] + 64.0 * a[8]) / 120.0
    elif n_deg == 5:
        a[3] = -(l6 * (4212.0 * a[1] + 256.0 * a[11]) + 7.0 * p * m6) / (504.0 * m2 * l4)
        a[4] = -(8.0 * l2 / (15.0 * m2)) * (27.0 * a[2] - 8.0 * a[9])
        a[5] = (6.0 * l4 / (7.0 * m4)) * (135.0 * a[1] - 88.0 * a[11])
        a[6] = (l4 / (5.0 * m4)) * (81.0 * a[2] + 16.0 * a[9])
        a[8] = (l6 * (-324.0 * a[1] + 512.0 * a[11]) + p * m6) / (32.0 * m2 * l4)
        a[10] = -(189.0 * a[2] + 64.0 * a[9]) / 120.0
        a[12] = -(1053.0 * a[1] + 512.0 * a[11]) / 756.0
    else:
        a[4] = -(l6 * (4212.0 * a[2] + 256.0 * a[12]) + 7.0 * p * m6) / (504.0 * m2 * l4)
        a[5] = -(l4 / (900.0 * m4)) * (
            -359397.0 * a[1] + 191488.0 * a[14] - 203472.0 * a[16]
        ) - (8.0 * l2 / (15.0 * m2)) * (27.0 * a[3] - 8.0 * a[10])
        a[6] = (6.0 * l4 / (7.0 * m4)) * (135.0 * a[2] - 88.0 * a[12])
        a[7] = (l6 / (25.0 * m6)) * (
            29889.0 * a[1] - 9856.0 * a[14] + 11664.0 * a[16]
        ) + (l4 / (5.0 * m4)) * (81.0 * a[3] + 16.0 * a[10])
        a[9] = (l6 * (-324.0 * a[2] + 512.0 * a[12]) + p * m6) / (32.0 * m2 * l4)
        a[11] = -(l2 / (1800.0 * m2)) * (
            59778.0 * a[1] - 13312.0 * a[14] + 23328.0 * a[16]
        ) - (189.0 * a[3] + 64.0 * a[10]) / 120.0
        a[13] = -(1053.0 * a[2] + 512.0 * a[12]) / 756.0
        a[15] = -(5103.0 * a[1] + 2048.0 * a[14] + 3888.0 * a[16]) / 2880.0

    values = [a[i] for i in range(1, len(FLAT_MONOMIALS[n_deg]) + 1)]
    return from_flat(n_deg, values, p=p)
