"""su(2) as Pauli-component vectors, and the map to complex 2x2 matrices.

An element of su(2) is held as the real vector x of shape (..., 3) with

    X = i * (x1*sigma1 + x2*sigma2 + x3*sigma3),

so grids of elements are handled by the same code path as single ones.  In
these components the algebra is real vector algebra:

    [X, Y]                     <->  -2 x × y,
    <X, Y> = -1/2 Re trace(XY)  =   x · y,
    ||X||  = sqrt(|<X, X>|)     =   |x|.

Complex 2x2 matrices (``vec_to_su2``, ``su2_to_vec``, ``is_su2``) are needed
only where an SL(2, C) matrix such as the fundamental solution Phi acts.
"""
from __future__ import annotations

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SIGMAS = (SIGMA1, SIGMA2, SIGMA3)


def pauli(k: int) -> np.ndarray:
    """Return the Pauli matrix sigma_k for k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2, or 3, got {k}")
    return _SIGMAS[k - 1].copy()


def trace(x: np.ndarray) -> np.ndarray:
    """Trace over the trailing 2x2 axes."""
    return x[..., 0, 0] + x[..., 1, 1]


def vec(v1, v2, v3) -> np.ndarray:
    """The vector (..., 3) of i(v1 sigma1 + v2 sigma2 + v3 sigma3).

    The components broadcast against each other, so constants may be given
    as scalars next to grid-valued components.
    """
    return np.stack(np.broadcast_arrays(v1, v2, v3), axis=-1).astype(float, copy=False)


def su2_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<X, Y> = -1/2 Re trace(XY), which is x · y."""
    return np.sum(np.multiply(x, y), axis=-1)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX, which is -2 x × y."""
    return -2.0 * np.cross(x, y)


def su2_norm(x: np.ndarray) -> np.ndarray:
    """||X|| = sqrt(|<X, X>|), which is the Euclidean norm |x|."""
    return np.linalg.norm(x, axis=-1)


def vec_to_su2(v: np.ndarray) -> np.ndarray:
    """Map a vector (..., 3) to F = i * sum_k v_k sigma_k, shape (..., 2, 2)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 0] = 1j * v3
    out[..., 1, 1] = -1j * v3
    out[..., 0, 1] = 1j * v1 + v2
    out[..., 1, 0] = 1j * v1 - v2
    return out


def su2_to_vec(f: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Invert vec_to_su2, rejecting inputs that are not su(2) within atol.

    Membership means traceless and anti-Hermitian; both defects are measured
    entrywise against ``atol`` (absolute, since inputs come from closed-form
    evaluation rather than iteration).
    """
    f = np.asarray(f, dtype=complex)
    tr_defect = np.max(np.abs(trace(f)))
    ah_defect = np.max(np.abs(f + np.conj(np.swapaxes(f, -1, -2))))
    if tr_defect > atol or ah_defect > atol:
        raise ValueError(
            f"matrix is not su(2) within {atol}: "
            f"trace defect {tr_defect:.3e}, anti-Hermiticity defect {ah_defect:.3e}"
        )
    v1 = ((f[..., 0, 1] + f[..., 1, 0]) / 2j).real
    v2 = ((f[..., 0, 1] - f[..., 1, 0]) / 2).real
    v3 = (-1j * f[..., 0, 0]).real
    return np.stack([v1, v2, v3], axis=-1)


def is_su2(f: np.ndarray, atol: float = 1e-10) -> bool:
    """True when the matrix f is traceless and anti-Hermitian within atol."""
    f = np.asarray(f, dtype=complex)
    if np.max(np.abs(trace(f))) > atol:
        return False
    return bool(np.max(np.abs(f + np.conj(np.swapaxes(f, -1, -2)))) <= atol)
