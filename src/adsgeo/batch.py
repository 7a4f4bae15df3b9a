"""Leading batch axes: component access and closed-form 2x2 algebra.

Points and vectors have shape (..., k) and 2x2 matrices (..., 2, 2), with
any leading batch shape, including none.  Every formula here is a fixed
sequence of elementwise operations, so each member of a batch gets the bits
of the same call on that member alone.  Without batch axes the components
are scalars, which keeps a single point at a handful of scalar operations
instead of small-array or LAPACK calls.

The functions whose names end in 2 take and return 2x2 matrices as entry
tuples (m11, m12, m21, m22) (``entries``): a chain of them makes no stacked
matmul and no (..., 2, 2) temporaries.
"""
from __future__ import annotations

import numpy as np


def components(v):
    """The entries of v along its last axis, each of the batch shape.

    A single vector gives Python floats: the same IEEE operations as numpy
    arrays, at a fraction of the cost of numpy scalars.  Callers divide
    only by quantities that cannot vanish.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return v.tolist()
    return tuple(v.transpose((v.ndim - 1,) + tuple(range(v.ndim - 1))))


def vector(*values):
    """Inverse of ``components``: stack values of one batch shape."""
    v = np.array(values)
    return v if v.ndim == 1 else v.transpose(tuple(range(1, v.ndim)) + (0,))


def entries(m):
    """(m11, m12, m21, m22), each of the batch shape.

    A single matrix gives numpy scalars, so that dividing by a vanishing
    determinant gives inf or nan, as it does for arrays.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 2:
        return tuple(m.flat)
    (a, b), (c, d) = m.transpose((m.ndim - 2, m.ndim - 1) + tuple(range(m.ndim - 2)))
    return a, b, c, d


def matrix(a, b, c, d):
    """[[a, b], [c, d]] from entries of one batch shape."""
    m = np.array([[a, b], [c, d]])
    return m if m.ndim == 2 else m.transpose(tuple(range(2, m.ndim)) + (0, 1))


def any_of(mask) -> bool:
    """Whether any member of a boolean batch is set (np.any costs
    microseconds on a numpy bool)."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def det(m):
    return det2(entries(m))


def inv(m):
    """Adjugate over determinant (no pivoting; callers check conditioning)."""
    return matrix(*inv2(entries(m)))


def det2(m):
    a, b, c, d = m
    return a * d - b * c


def inv2(m):
    """Adjugate over determinant, as ``inv``."""
    a, b, c, d = m
    q = det2(m)
    return d / q, -b / q, -c / q, a / q


def mul2(m, n):
    """The product m n."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def trace2(m):
    return m[0] + m[3]


def cholesky2(m):
    """Lower triangular L with L L^T = m, for a symmetric positive definite
    m; reads the lower triangle of m, as LAPACK does."""
    a, _, c, d = m
    l11 = np.sqrt(a)
    l21 = c / l11
    return l11, 0.0, l21, np.sqrt(d - l21 * l21)


def eigvalsh(a, m):
    """Eigenvalues (low, high) of the symmetric-definite pencil a x = lam m x.

    The pencil is reduced to the symmetric C = L^{-1} a L^{-T} by the
    Cholesky factor L of m, whose eigenvalues are mid -+ rad.  Only the
    lower triangles of a and m are read.
    """
    a11, _, a21, a22 = entries(a)
    l11, _, l21, l22 = cholesky2(entries(m))
    # y = L^{-1} a, then C = y L^{-T}, row by row
    y11, y12 = a11 / l11, a21 / l11
    y22 = (a22 - l21 * y12) / l22
    c11 = y11 / l11
    c21 = (a21 - l21 * y11) / (l11 * l22)
    c22 = (y22 - l21 * c21) / l22
    mid = 0.5 * (c11 + c22)
    half = 0.5 * (c11 - c22)
    rad = np.sqrt(half * half + c21 * c21)
    return mid - rad, mid + rad


def singular_values(m):
    """(largest, smallest) singular value, from |m|_F^2 and |det m|."""
    a, b, c, d = entries(m)
    f = a * a + b * b + c * c + d * d
    q = np.abs(a * d - b * c)
    big = np.sqrt(0.5 * (f + np.sqrt(np.maximum(f * f - 4.0 * q * q, 0.0))))
    return big, q / big


def quadratic_form(v, m):
    """v^T m v for vectors (..., 2)."""
    v1, v2 = components(v)
    a, b, c, d = entries(m)
    return v1 * (a * v1 + b * v2) + v2 * (c * v1 + d * v2)
