"""Constraint domains Omega in C^2.

Two representations:

* ``LevelSetDomain``: Omega = {<A z, z> < 1} for a positive diagonal A,
  with outward normal gradF/|gradF|, Newton projection onto the boundary
  and a globally defined normal extension (used by the descent's
  boundary-tangential projection).
* ``CurveNormalDomain``: only the boundary data that actually enters the
  free-boundary checks -- a closed curve in C^2 and a unit normal field
  X/|X| along it, evaluated in closed form from the curve parameter, which
  the curve's closed-form inverse reads off a point.  This realizes
  constraint domains known only through a normal field along the image of
  the disc boundary; no hypersurface is reconstructed, nothing is searched.

Both answer ``contains_ball``, the admissibility test of a support ball (a
bound on F over it, exact on the ball; a grid distance past the grid gap).
"""

from __future__ import annotations

import numpy as np

from . import algebra

__all__ = [
    "CurveNormalDomain",
    "LevelSetDomain",
    "curve_domain_from_map",
    "unit_ball",
]


class LevelSetDomain:
    """Omega = {F < 0} for F(z) = <A z, z> - 1, ``A`` a diagonal of 4
    positive finite numbers (1 for the unit ball, 1/a^2 for an ellipsoid)."""

    kind = "levelset"

    def __init__(self, A):
        self.A = np.array(A, float)
        if self.A.shape != (4,) or not np.all((self.A > 0) & np.isfinite(self.A)):
            raise ValueError("A must be 4 positive finite numbers")

    def F(self, z):
        z = np.asarray(z, float)
        return algebra.inner(self.A * z, z) - 1.0

    def gradF(self, z):
        return 2.0 * self.A * np.asarray(z, float)

    def peak_bound(self, center, radius):
        """F(c) + 2 r |A c| + max(A) r^2, which bounds F on the ball |z - c|
        <= r by Cauchy-Schwarz and is its maximum when all of A are equal."""
        c = np.asarray(center, float)
        return float(self.F(c) + 2.0 * radius * algebra.norm(self.A * c)
                     + np.max(self.A) * radius ** 2)

    def contains_ball(self, center, radius):
        """Whether ``peak_bound`` < -1e-9, so the ball lies in {F < -1e-9}."""
        return self.peak_bound(center, radius) < -1e-9

    def normal_extension(self, z):
        """gradF/|gradF| wherever the gradient is nonzero (off-boundary too)."""
        g = np.asarray(self.gradF(z), float)
        n = algebra.norm(g)
        if not np.all(n >= 1e-8):
            raise RuntimeError("level-set gradient vanishes at query point")
        return g / n[..., None]

    def normal_at(self, z):
        """Unit outward normal; requires |F(z)| <= 1e-6 (point on boundary)."""
        val = np.asarray(self.F(z), float)
        if not np.all(np.abs(val) <= 1e-6):
            raise ValueError("point is not on the domain boundary")
        return self.normal_extension(z)

    def project_to_boundary(self, z):
        """Newton projection along gradF onto {F = 0}: at most 60 steps, until
        every |F| <= 1e-12."""
        z = np.asarray(z, float).copy()
        single = z.ndim == 1
        pts = np.atleast_2d(z)
        for _ in range(60):
            val = np.asarray(self.F(pts), float)
            if np.all(np.abs(val) <= 1e-12):
                break
            g = np.asarray(self.gradF(pts), float)
            gn2 = np.sum(g * g, axis=-1)
            if not np.all(gn2 >= 1e-16):
                raise RuntimeError("gradient vanished during projection")
            pts = pts - (val / gn2)[..., None] * g
        else:
            raise RuntimeError("Newton projection did not converge")
        return pts[0] if single else pts


class CurveNormalDomain:
    """Boundary curve with a prescribed unit normal field, periodic in theta.

    ``curve``, ``X`` and ``tangent`` are closed-form callables of theta and
    ``theta_of`` is the closed-form inverse of ``curve`` on its image; the
    normal X/|X| is evaluated exactly and checked against ``tangent`` at
    build time.  ``normal_at`` reads the parameter of each query from
    ``theta_of`` and requires it within ``CURVE_TOL`` of the curve.  The
    curve passes at most ``grid_gap`` (pi / N_GRID times the largest
    |tangent| on the grid) closer to a point than its ``grid_distance``.
    """

    kind = "curve"
    N_GRID = 512
    CURVE_TOL = 1e-6

    def __init__(self, curve, X, tangent, theta_of):
        self._curve = curve
        self._X = X
        self._theta_of = theta_of
        self.theta_grid = 2 * np.pi * np.arange(self.N_GRID) / self.N_GRID
        self.curve_points = self.curve_at(self.theta_grid)
        tangents = np.asarray(tangent(self.theta_grid), float)
        self.grid_gap = np.pi / self.N_GRID * np.max(algebra.norm(tangents))
        normals = self.normal_at_theta(self.theta_grid)
        resid = np.abs(np.sum(tangents * normals, axis=-1)) / algebra.norm(tangents)
        self.tangency_residual = float(np.max(resid))
        if self.tangency_residual > 1e-8:
            raise ValueError(
                f"normals not orthogonal to curve tangent (residual "
                f"{self.tangency_residual:.2e})")

    def grid_distance(self, z):
        """The distance from the point ``z`` to the nearest grid point."""
        return np.min(algebra.norm(self.curve_points - z))

    def contains_ball(self, center, radius):
        """Whether the ball |z - center| <= radius stays clear of the curve,
        by a margin of 1e-9 beyond ``grid_gap``."""
        return bool(self.grid_distance(center) > radius + self.grid_gap + 1e-9)

    def curve_at(self, theta):
        return np.asarray(self._curve(theta), float)

    def normal_at_theta(self, theta):
        """X/|X| at the curve parameters ``theta``; raises ``ValueError``
        unless |X| >= 1e-6 everywhere."""
        X = np.asarray(self._X(theta), float)
        mag = algebra.norm(X)
        if not np.all(mag >= 1e-6):
            raise ValueError("constraint field X degenerates on the boundary")
        return X / mag[..., None]

    def normal_at(self, z):
        """Unit normal at points of the curve, one per row of ``z`` (..., 4).

        Raises ``ValueError`` unless every point lies within ``CURVE_TOL``
        of the curve.
        """
        z = np.asarray(z, float)
        pts = z.reshape(-1, 4)
        t = self._theta_of(pts)
        if not np.all(algebra.norm(self.curve_at(t) - pts) <= self.CURVE_TOL):
            raise ValueError("point is not on the stored boundary curve")
        return self.normal_at_theta(t).reshape(z.shape)

    def project_to_boundary(self, z):
        raise TypeError("projection is not defined for curve-based domains")


def unit_ball():
    """The unit ball: F(z) = |z|^2 - 1, normal z/|z| on the 3-sphere."""
    return LevelSetDomain(np.ones(4))


def curve_domain_from_map(example):
    """Curve domain along u(dD^2) with normals X/|X| from the example's
    ``boundary_X``, the curve parameter read by its ``boundary_theta``.

    Raises ``ValueError`` when |X| dips below 1e-6 on the grid; the
    orthogonality of X to ``boundary_tangent`` is validated at build time.
    """
    def curve(theta):
        return example.value(np.ones_like(theta), theta)

    return CurveNormalDomain(curve, example.boundary_X,
                             example.boundary_tangent, example.boundary_theta)
