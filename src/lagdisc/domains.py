"""Constraint domains Omega in C^2.

Two representations:

* ``LevelSetDomain``: Omega = {F < 0} with outward normal gradF/|gradF|,
  Newton projection onto the boundary and a globally defined normal
  extension (used by the descent's boundary-tangential projection).
* ``CurveNormalDomain``: only the boundary data that actually enters the
  free-boundary checks -- a closed curve in C^2 together with a unit
  normal field X/|X| along it, both evaluated in closed form from the
  curve parameter.  This realizes constraint domains that are known only
  through a normal field along the image of the disc boundary; no global
  hypersurface is reconstructed.
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
    """Omega = {F < 0} for a scalar level-set function with gradient."""

    kind = "levelset"

    def __init__(self, F, gradF):
        self.F = F
        self.gradF = gradF

    def normal_extension(self, z):
        """gradF/|gradF| wherever the gradient is nonzero (off-boundary too)."""
        g = np.asarray(self.gradF(z), float)
        n = algebra.norm(g)
        if np.any(n < 1e-8):
            raise RuntimeError("level-set gradient vanishes at query point")
        return g / n[..., None]

    def normal_at(self, z):
        """Unit outward normal; requires |F(z)| <= 1e-6 (point on boundary)."""
        val = np.asarray(self.F(z), float)
        if np.any(np.abs(val) > 1e-6):
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
            if np.any(gn2 < 1e-16):
                raise RuntimeError("gradient vanished during projection")
            pts = pts - (val / gn2)[..., None] * g
        else:
            raise RuntimeError("Newton projection did not converge")
        return pts[0] if single else pts


class CurveNormalDomain:
    """Boundary curve with a prescribed unit normal field, periodic in theta.

    ``curve``, ``X`` and ``tangent`` are closed-form callables of theta; the
    normal X/|X| is evaluated exactly and checked against ``tangent`` at
    build time.  Queries must lie within ``CURVE_TOL`` of the curve.
    ``normal_at`` finds the curve parameter of a whole batch of query
    points with one vectorized golden-section search (per point it does
    the same arithmetic as a scalar search).  The point-by-grid distance
    behind its starting brackets is taken ``GRID_BLOCK`` rows at a time.
    """

    kind = "curve"
    GRID_BLOCK = 1024
    N_GRID = 512
    CURVE_TOL = 1e-6

    def __init__(self, curve, X, tangent):
        self._curve = curve
        self._X = X
        self.theta_grid = 2 * np.pi * np.arange(self.N_GRID) / self.N_GRID
        self.curve_points = self.curve_at(self.theta_grid)
        tangents = np.asarray(tangent(self.theta_grid), float)
        normals = self.normal_at_theta(self.theta_grid)
        resid = np.abs(np.sum(tangents * normals, axis=-1)) / algebra.norm(tangents)
        self.tangency_residual = float(np.max(resid))
        if self.tangency_residual > 1e-8:
            raise ValueError(
                f"normals not orthogonal to curve tangent (residual "
                f"{self.tangency_residual:.2e})")

    def curve_at(self, theta):
        return np.asarray(self._curve(theta), float)

    def normal_at_theta(self, theta):
        """X/|X| at the curve parameters ``theta``; raises ``ValueError``
        where |X| dips below 1e-6."""
        X = np.asarray(self._X(theta), float)
        mag = algebra.norm(X)
        if np.any(mag < 1e-6):
            raise ValueError("constraint field X degenerates on the boundary")
        return X / mag[..., None]

    def _closest_theta(self, z):
        """Curve parameter nearest to each row of the (n, 4) array ``z``.

        Starts from the nearest grid angle and runs 60 golden-section steps
        on the squared distance to the curve, all rows at once: each step
        evaluates the curve once on the whole batch and keeps, per row, the
        bracket half its comparison selects.
        """
        k = np.empty(len(z), dtype=np.intp)
        for s in range(0, len(z), self.GRID_BLOCK):
            blk = z[s:s + self.GRID_BLOCK]
            d = algebra.norm(self.curve_points - blk[:, None, :])
            k[s:s + self.GRID_BLOCK] = np.argmin(d, axis=1)

        def f(t):
            return np.sum((self.curve_at(t) - z) ** 2, axis=-1)

        span = 2 * np.pi / self.N_GRID
        a, b = self.theta_grid[k] - span, self.theta_grid[k] + span
        phi = (np.sqrt(5) - 1) / 2
        c1, c2 = b - phi * (b - a), a + phi * (b - a)
        f1, f2 = f(c1), f(c2)
        for _ in range(60):
            left = f1 < f2                 # keep [a, c2], else [c1, b]
            a, b = np.where(left, a, c1), np.where(left, c2, b)
            t = np.where(left, b - phi * (b - a), a + phi * (b - a))
            ft = f(t)
            c1, c2 = np.where(left, t, c2), np.where(left, c1, t)
            f1, f2 = np.where(left, ft, f2), np.where(left, f1, ft)
        return 0.5 * (a + b)

    def normal_at(self, z):
        """Unit normal at points of the curve, one per row of ``z`` (..., 4).

        Raises ``ValueError`` when any point lies farther than ``CURVE_TOL``
        from the curve.
        """
        z = np.asarray(z, float)
        pts = z.reshape(-1, 4)
        t = self._closest_theta(pts)
        if np.any(algebra.norm(self.curve_at(t) - pts) > self.CURVE_TOL):
            raise ValueError("point is not on the stored boundary curve")
        return self.normal_at_theta(t).reshape(z.shape)

    def project_to_boundary(self, z):
        raise TypeError("projection is not defined for curve-based domains")


def unit_ball():
    """The unit ball: F(z) = |z|^2 - 1, normal z/|z| on the 3-sphere."""
    def F(z):
        z = np.asarray(z, float)
        return algebra.inner(z, z) - 1.0

    def gradF(z):
        return 2.0 * np.asarray(z, float)

    return LevelSetDomain(F, gradF)


def curve_domain_from_map(example, X=None):
    """Curve domain along u(dD^2) with normals from the field X/|X|.

    ``X`` defaults to the example's ``boundary_X``.  Raises ``ValueError``
    when |X| dips below 1e-6 on the grid; the orthogonality of X to the
    boundary tangent is validated at build time.
    """
    def curve(theta):
        return example.value(np.ones_like(theta), theta)

    def tangent(theta):
        frame = example.frame(np.ones_like(theta), theta)
        return (-np.sin(theta)[:, None] * frame.e_x
                + np.cos(theta)[:, None] * frame.e_y)

    return CurveNormalDomain(curve, example.boundary_X if X is None else X,
                             tangent)
