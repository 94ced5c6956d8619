"""Linear algebra of C^2 viewed as the quaternions.

Points and tangent vectors of C^2 are stored as real 4-vectors
(x1, y1, x2, y2) for (z1, z2) = (x1 + i*y1, x2 + i*y2).  All operations
accept arrays of shape (..., 4) and broadcast.

Conventions (verified against the closed-form disc families in
:mod:`lagdisc.families` by the test suite):

* ``I`` is componentwise multiplication by i.
* ``J(z1, z2) = (conj(z2), -conj(z1))``.  This is the unique sign choice
  for which the polar frame identity ``d_theta u / r = -gbar * J(d_r u)``
  holds together with the angle returned by :func:`lagrangian_angle`.
* The symplectic form is ``omega = dx1^dy1 + dx2^dy2``, so
  ``omega(a, b) = <I a, b>``.
* For a weakly conformal Lagrangian frame,
  ``dz1^dz2(e_x, e_y) = e2lam * gbar`` with
  ``e2lam = |e_x|^2 = |e_y|^2``; :func:`lagrangian_angle` returns the
  unit complex number ``gbar`` (the Lagrangian angle) and never its
  conjugate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Frame",
    "angle_defined",
    "apply_I",
    "apply_J",
    "complex_parts",
    "complex_scale",
    "from_complex",
    "holomorphic_area",
    "inner",
    "lagrangian_angle",
    "norm",
    "symplectic",
    "wedge_norm",
]

EPS = np.finfo(float).eps
# |e_x|^2 + |e_y|^2 or |dz1^dz2| at or below it marks a degenerate frame
DEGENERATE_FRAME = 1e-14


class Frame(NamedTuple):
    """Pair of Cartesian partial derivatives (d_x u, d_y u) at one or many points."""

    e_x: np.ndarray
    e_y: np.ndarray


def complex_parts(v):
    """Return (z1, z2) as complex arrays from a (..., 4) real array."""
    v = np.asarray(v)
    return v[..., 0] + 1j * v[..., 1], v[..., 2] + 1j * v[..., 3]


def from_complex(z1, z2):
    """Inverse of :func:`complex_parts`."""
    z1 = np.asarray(z1, complex)
    z2 = np.asarray(z2, complex)
    z1, z2 = np.broadcast_arrays(z1, z2)
    return np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1)


def apply_I(v):
    """Componentwise multiplication by i: (z1, z2) -> (i z1, i z2)."""
    v = np.asarray(v)
    return np.stack([-v[..., 1], v[..., 0], -v[..., 3], v[..., 2]], axis=-1)


def apply_J(v):
    """Quaternionic J: (z1, z2) -> (conj z2, -conj z1)."""
    v = np.asarray(v)
    return np.stack([v[..., 2], -v[..., 3], -v[..., 0], v[..., 1]], axis=-1)


def complex_scale(g, v):
    """Act on (z1, z2) by the complex scalar g componentwise."""
    z1, z2 = complex_parts(v)
    g = np.asarray(g, complex)
    return from_complex(g * z1, g * z2)


def inner(a, b):
    """Euclidean inner product of R^4, batched over leading axes.

    ``a`` and ``b`` are real with a last axis of length 4.  The sum runs in
    the fixed order ``((a0 b0 + a1 b1) + a2 b2) + a3 b3``, the order in which
    ``np.sum(a * b, axis=-1)`` adds a real length-4 axis, so the two agree
    bitwise (up to the sign of a zero: four products of -0.0 sum to -0.0
    here and to +0.0 in ``np.sum``, which starts from +0.0); the explicit
    sum avoids the reduction's per-row overhead.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return ((a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
            + a[..., 2] * b[..., 2]) + a[..., 3] * b[..., 3]


def norm(v):
    return np.sqrt(inner(v, v))


def symplectic(a, b):
    """Standard symplectic form dx1^dy1 + dx2^dy2 evaluated on (a, b)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
            + a[..., 2] * b[..., 3] - a[..., 3] * b[..., 2])


def holomorphic_area(a, b):
    """Evaluate dz1^dz2 on the pair (a, b): a_{z1} b_{z2} - a_{z2} b_{z1}."""
    a1, a2 = complex_parts(a)
    b1, b2 = complex_parts(b)
    return a1 * b2 - a2 * b1


def wedge_norm(a, b):
    """Area |a ^ b| of the parallelogram spanned by a and b in R^4.

    Computed from the six 2-form components a_i b_j - a_j b_i (equal to
    sqrt(|a|^2 |b|^2 - <a,b>^2) by the Lagrange identity, but without
    the catastrophic cancellation of that expression for near-parallel
    vectors).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    total = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            c = a[..., i] * b[..., j] - a[..., j] * b[..., i]
            total = total + c * c
    return np.sqrt(total)


def lagrangian_angle(e_x, e_y):
    """Conformal factor and Lagrangian angle of a tangent frame.

    Returns ``(e2lam, gbar)`` where ``e2lam = (|e_x|^2 + |e_y|^2)/2`` (the
    average makes it well defined for slightly non-conformal discrete
    frames) and ``gbar`` is the unit complex number with
    ``dz1^dz2(e_x, e_y) = e2lam * gbar`` for exactly conformal Lagrangian
    frames.

    Raises ``ValueError`` on a frame outside :func:`angle_defined`: one
    with ``|e_x|^2 + |e_y|^2 <= DEGENERATE_FRAME``, which signals a branch
    or singular point sample, or whose holomorphic area vanishes.
    """
    e_x = np.asarray(e_x)
    e_y = np.asarray(e_y)
    energy = inner(e_x, e_x) + inner(e_y, e_y)
    hol = holomorphic_area(e_x, e_y)
    if not np.all(angle_defined(e_x, e_y)):
        raise ValueError("tangent frame is numerically degenerate"
                         if np.any(energy <= DEGENERATE_FRAME)
                         else "holomorphic area vanishes; angle undefined")
    return energy / 2.0, hol / np.abs(hol)


def angle_defined(e_x, e_y):
    """The mask of the frames on which :func:`lagrangian_angle` does not
    raise: neither |e_x|^2 + |e_y|^2 nor |dz1^dz2| is <= ``DEGENERATE_FRAME``."""
    return ~((inner(e_x, e_x) + inner(e_y, e_y) <= DEGENERATE_FRAME)
             | (np.abs(holomorphic_area(e_x, e_y)) <= DEGENERATE_FRAME))
