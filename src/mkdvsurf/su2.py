"""su(2) as Pauli-component vectors, and the map to complex 2x2 matrices.

An element of su(2) is held as the real vector x of shape (..., 3) with

    X = i * (x1*sigma1 + x2*sigma2 + x3*sigma3),

so grids of elements are handled by the same code path as single ones.  In
these components the algebra is real vector algebra:

    [X, Y]                     <->  -2 x × y,
    <X, Y> = -1/2 Re trace(XY)  =   x · y,
    ||X||  = sqrt(|<X, X>|)     =   |x|.

Complex 2x2 matrices (``vec_to_su2``, and ``su2_components`` back) are
needed only where a matrix such as the fundamental solution Phi acts.  A
matrix read back is tested for membership in su(2) in two steps,
``su2_defects`` and ``check_su2``, so that a caller can fold the defects of
the parts of a grid and test the grid once.  Stacked 2x2 arithmetic
(``mul``, ``det``) is written out entry by entry: numpy's ``@`` and
``np.linalg`` call BLAS or LAPACK once per 2x2 matrix of a grid, which costs
several times the arithmetic itself.  No inverse is needed: Phi is a
multiple of a unitary matrix, so Phi^-1 = Phi^H / det Phi.  For the same
reason the sums over the three components (``su2_inner``, ``su2_norm``) are
written out; summed left to right, they are bitwise the numpy reductions.

A stack of 2x2 complex matrices has the shape (..., 2, 2), but the stacks
this module and ``lax.phi`` make are stored entry-first: ``empty_2x2``
allocates a (2, 2, ...) buffer and returns its transposed view, so each
entry ``m[..., i, j]`` is one contiguous array, and the entry-by-entry
arithmetic, ``np.abs`` and the maxima run on contiguous memory.  Such a
stack is not C-contiguous: a caller that reinterprets its bytes with
``.view`` takes ``np.ascontiguousarray`` of it first.
"""
from __future__ import annotations

import numpy as np


def trace(x: np.ndarray) -> np.ndarray:
    """Trace over the trailing 2x2 axes."""
    return x[..., 0, 0] + x[..., 1, 1]


def empty_2x2(shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """An uninitialised stack of 2x2 matrices of shape ``shape + (2, 2)``,
    stored entry-first (see the module docstring)."""
    return np.empty((2, 2) + shape, dtype).transpose(*range(2, len(shape) + 2), 0, 1)


def vec(v1, v2, v3) -> np.ndarray:
    """The vector (..., 3) of i(v1 sigma1 + v2 sigma2 + v3 sigma3).

    The components broadcast against each other, so constants may be given
    as scalars next to grid-valued components.  The vector has the
    components' result type, at least float64: long double stays long
    double, and sympy expressions give an object array.
    """
    parts = np.asarray(v1), np.asarray(v2), np.asarray(v3)
    out = np.empty(np.broadcast(*parts).shape + (3,), np.result_type(*parts, float))
    out[..., 0], out[..., 1], out[..., 2] = parts
    return out


def su2_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<X, Y> = -1/2 Re trace(XY), which is x · y."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX, which is -2 x × y."""
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2]
    return -2.0 * vec(x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)


def su2_norm(x: np.ndarray) -> np.ndarray:
    """||X|| = sqrt(|<X, X>|), which is the Euclidean norm |x|."""
    return np.sqrt(su2_inner(x, x))


def vec_to_su2(v: np.ndarray) -> np.ndarray:
    """Map a vector (..., 3) to F = i * sum_k v_k sigma_k, shape (..., 2, 2),
    in the components' complex result type, at least complex128."""
    v = np.asarray(v)
    out = empty_2x2(v.shape[:-1], np.result_type(v, complex))
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    out[..., 0, 0] = 1j * v3
    out[..., 1, 1] = -1j * v3
    out[..., 0, 1] = 1j * v1 + v2
    out[..., 1, 0] = 1j * v1 - v2
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product ab of stacked 2x2 matrices (..., 2, 2); the stacks broadcast."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = empty_2x2(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def det(m: np.ndarray) -> np.ndarray:
    """The determinant of stacked 2x2 matrices, shape (...)."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


# Tolerance of the su(2) membership test (``check_su2``).
SU2_ATOL = 1e-10


def su2_defects(f: np.ndarray) -> np.ndarray:
    """(trace defect, anti-Hermiticity defect, max|f|) of 2x2 matrices
    (..., 2, 2), each the largest over the stack.

    The three are maxima, so those of a stack split into parts are the
    elementwise maxima of the parts' (``np.max(..., axis=0)``), bit for bit.
    """
    f = np.asarray(f)
    f00, f01, f10, f11 = f[..., 0, 0], f[..., 0, 1], f[..., 1, 0], f[..., 1, 1]
    # F + F^H has the entries 2 Re f00, 2 Re f11 and f01 + conj(f10), the
    # last twice over (once conjugated)
    ah_defect = np.max([np.max(np.abs(2.0 * f00.real)), np.max(np.abs(2.0 * f11.real)),
                        np.max(np.abs(f01 + np.conj(f10)))])
    return np.array([np.max(np.abs(trace(f))), ah_defect, np.max(np.abs(f))])


def check_su2(tr_defect: float, ah_defect: float, f_max: float) -> None:
    """Reject matrices whose ``su2_defects`` show they are not su(2) within
    SU2_ATOL.

    Membership means traceless and anti-Hermitian; both defects are measured
    entrywise against ``SU2_ATOL`` times max(1, max|f|): absolute for entries
    of size 1 or less, relative to the largest entry above that, where
    rounding scales with the entries.
    """
    bound = SU2_ATOL * max(1.0, float(f_max))
    if tr_defect > bound or ah_defect > bound:
        raise ValueError(
            f"matrix is not su(2) within {bound:.3e}: "
            f"trace defect {tr_defect:.3e}, anti-Hermiticity defect {ah_defect:.3e}"
        )


def su2_components(f: np.ndarray) -> np.ndarray:
    """The vector (..., 3) that vec_to_su2 maps to f, for f in su(2): read
    from the entries without testing membership (see ``check_su2``)."""
    f = np.asarray(f)
    f00, f01, f10 = f[..., 0, 0], f[..., 0, 1], f[..., 1, 0]
    return vec((f01.imag + f10.imag) * 0.5, (f01.real - f10.real) * 0.5, f00.imag)
