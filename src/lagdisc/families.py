"""Closed-form weakly conformal Lagrangian disc maps with exact derivatives.

Three families:

* flat equatorial discs ``u = U . (x, y)`` for a unitary U, the rigid
  limit objects;
* Schoen-Wolfson cones ``Phi_{p,q}``, singular at the origin for
  ``p != q``, with Lagrangian angle ``exp(i (p - q) theta)``;
* a smooth non-minimal map ``u = (gbar, i G)`` with ``g = exp(i x)`` and
  ``G = y`` whose boundary is constrained by the tangent-normal field X
  rather than by the unit sphere.

Every family exposes exact values, exact Cartesian first derivatives and
the exact Lagrangian angle, so downstream residual checks never need
symbolic differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra
from .algebra import Frame
from .mesh import DiscMesh

__all__ = [
    "DiscreteMap",
    "ExampleMap",
    "FlatDisc",
    "NonMinimalMap",
    "SWCone",
    "flat_disc",
    "nonminimal_map",
    "sample",
    "sw_cone",
]


class ExampleMap:
    """Base class; subclasses implement polar value/frame/angle callables."""

    kind = "example"
    singular_points: list

    # polar interface ---------------------------------------------------
    def value(self, r, theta):
        raise NotImplementedError

    def frame(self, r, theta) -> Frame:
        raise NotImplementedError

    def angle(self, r, theta):
        raise NotImplementedError

    # Cartesian convenience wrappers ------------------------------------
    def value_xy(self, x, y):
        return self.value(np.hypot(x, y), np.arctan2(y, x))

    def frame_xy(self, x, y) -> Frame:
        return self.frame(np.hypot(x, y), np.arctan2(y, x))

    def angle_xy(self, x, y):
        return self.angle(np.hypot(x, y), np.arctan2(y, x))

    def angle_flux_field(self, pts):
        """Exact field i * gbar * grad(g) evaluated at (k, 2) disc points."""
        raise NotImplementedError

    def boundary_tangent(self, theta):
        """d_tau u = -sin(theta) e_x + cos(theta) e_y on the circle r = 1."""
        theta = np.asarray(theta, float)
        e = self.frame(np.ones_like(theta), theta)
        return -np.sin(theta)[..., None] * e.e_x + np.cos(theta)[..., None] * e.e_y


class FlatDisc(ExampleMap):
    """u = U . (x, y) for U in U(2); angle identically det(U)."""

    kind = "flat"

    def __init__(self, U):
        U = np.asarray(U, complex)
        if U.shape != (2, 2) or np.linalg.norm(U.conj().T @ U - np.eye(2)) > 1e-12:
            raise ValueError("matrix is not unitary to 1e-12")
        self.U = U
        self.det = complex(np.linalg.det(U))
        self.singular_points = []

    def value(self, r, theta):
        x = np.asarray(r) * np.cos(theta)
        y = np.asarray(r) * np.sin(theta)
        z1 = self.U[0, 0] * x + self.U[0, 1] * y
        z2 = self.U[1, 0] * x + self.U[1, 1] * y
        return algebra.from_complex(z1, z2)

    def frame(self, r, theta):
        shape = np.broadcast(np.asarray(r), np.asarray(theta)).shape
        e_x = np.broadcast_to(algebra.from_complex(self.U[0, 0], self.U[1, 0]),
                              shape + (4,)).copy()
        e_y = np.broadcast_to(algebra.from_complex(self.U[0, 1], self.U[1, 1]),
                              shape + (4,)).copy()
        return Frame(e_x, e_y)

    def angle(self, r, theta):
        shape = np.broadcast(np.asarray(r), np.asarray(theta)).shape
        # single shared constant: nodal samples are bitwise equal
        return np.full(shape, self.det)

    def angle_flux_field(self, pts):
        return np.zeros((len(np.atleast_2d(pts)), 2))


class SWCone(ExampleMap):
    """Schoen-Wolfson cone Phi_{p,q} for coprime positive integers p, q.

    value(r, theta) = r^s / sqrt(p+q) * (sqrt(q) e^{i p theta},
    i sqrt(p) e^{-i q theta}) with s = sqrt(pq); the angle is
    e^{i (p-q) theta} and the origin is singular unless p = q = 1.
    """

    kind = "sw"

    def __init__(self, p, q):
        if not (isinstance(p, (int, np.integer)) and isinstance(q, (int, np.integer))):
            raise ValueError("p and q must be integers")
        if p < 1 or q < 1:
            raise ValueError("p and q must be positive")
        if math.gcd(int(p), int(q)) != 1:
            raise ValueError("p and q must be coprime")
        self.p, self.q = int(p), int(q)
        self.s = math.sqrt(p * q)
        self.singular_points = [] if p == q else [np.zeros(2)]

    def value(self, r, theta):
        r = np.asarray(r, float)
        theta = np.asarray(theta, float)
        c = r ** self.s / math.sqrt(self.p + self.q)
        z1 = c * math.sqrt(self.q) * np.exp(1j * self.p * theta)
        z2 = 1j * c * math.sqrt(self.p) * np.exp(-1j * self.q * theta)
        return algebra.from_complex(z1, z2)

    def _polar_frame(self, r, theta):
        """(d_r u, d_theta u / r) as complex pairs; zero at the origin."""
        r = np.asarray(r, float)
        theta = np.asarray(theta, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            amp = np.where(r > 0, r ** (self.s - 1.0), 0.0 if self.s > 1 else 1.0)
        amp = amp * (self.s / math.sqrt(self.p + self.q))
        # e^{ip theta} and e^{-iq theta} once each, one after the other
        e = np.exp(1j * self.p * theta)
        er1, et1 = amp * math.sqrt(self.q) * e, amp * 1j * math.sqrt(self.p) * e
        e = np.exp(-1j * self.q * theta)
        er2, et2 = amp * 1j * math.sqrt(self.p) * e, amp * math.sqrt(self.q) * e
        return (er1, er2), (et1, et2)

    def frame(self, r, theta):
        (er1, er2), (et1, et2) = self._polar_frame(r, theta)
        c, s = np.cos(theta), np.sin(theta)
        # chain rule: e_x = cos * d_r - sin * d_theta/r, e_y = sin * d_r + cos * d_theta/r
        e_x = algebra.from_complex(c * er1 - s * et1, c * er2 - s * et2)
        e_y = algebra.from_complex(s * er1 + c * et1, s * er2 + c * et2)
        return Frame(e_x, e_y)

    def angle(self, r, theta):
        theta = np.asarray(theta, float)
        gbar = np.exp(1j * (self.p - self.q) * theta)
        # undefined at the singular origin; pinned to 1 for array hygiene
        r = np.asarray(r, float)
        return np.where(r > 0, gbar, 1.0 + 0j)

    def angle_flux_field(self, pts):
        """i gbar grad g = (p - q) * (-y, x) / r^2, the exact angular field."""
        pts = np.atleast_2d(np.asarray(pts, float))
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        out = np.empty_like(pts)
        m = self.p - self.q
        out[:, 0] = -m * pts[:, 1] / r2
        out[:, 1] = m * pts[:, 0] / r2
        return out


class NonMinimalMap(ExampleMap):
    """Smooth conformal Lagrangian embedding u(x, y) = (e^{-ix}, i y).

    The Lagrangian angle e^{-ix} is non-constant, so the map is not
    minimal, yet it is stationary for the curve-constrained boundary
    problem built from the field ``X = gbar J d_tau u + G I d_tau u``
    with G = -y along the image of the boundary circle.

    Why G = -y: along the Hamiltonian field I grad f the Dirichlet
    energy varies by

        dE = -int_D <I grad f(u), Lap u> + oint <I grad f(u), d_nu u>.

    Here Lap u = -(z1, 0), so for f of z1 (R = |z1|, phi = arg z1, and
    R = 1 on the image) the interior term is int_D d_x(f o u) =
    oint cos(theta) f(u) = -oint y^2 f_phi.  On the boundary
    gbar J d_tau u = d_nu u, so <I grad f, X> = 0 reads x f_R = G y f_phi
    and the boundary term is -oint x f_R = -oint G y f_phi.  The two
    cancel for every admissible f exactly when G = -y; with G = +y they
    add.

    Its boundary curve (e^{-i cos theta}, i sin theta) is inverted in
    closed form by ``boundary_theta``; no curve domain searches for theta.
    """

    kind = "nonminimal"

    def __init__(self):
        self.singular_points = []

    def value(self, r, theta):
        x = np.asarray(r) * np.cos(theta)
        y = np.asarray(r) * np.sin(theta)
        return algebra.from_complex(np.exp(-1j * x), 1j * y)

    def frame(self, r, theta):
        x = np.asarray(r) * np.cos(theta)
        y = np.asarray(r) * np.sin(theta)
        zeros = np.zeros_like(np.asarray(x, float))
        e_x = algebra.from_complex(-1j * np.exp(-1j * x), zeros)
        e_y = algebra.from_complex(zeros + 0j, 1j * np.ones_like(np.asarray(y, float)))
        return Frame(e_x, e_y)

    def angle(self, r, theta):
        x = np.asarray(r) * np.cos(theta)
        return np.exp(-1j * x)

    def angle_flux_field(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        out = np.zeros_like(pts)
        out[:, 0] = -1.0
        return out

    def boundary_X(self, theta):
        """Constraint-normal field X = gbar J d_tau u + G I d_tau u on u(dD^2),
        G = -y (see the class docstring)."""
        theta = np.asarray(theta, float)
        x, y = np.cos(theta), np.sin(theta)
        d_tau = self.boundary_tangent(theta)
        gbar = np.exp(-1j * x)
        return (algebra.complex_scale(gbar, algebra.apply_J(d_tau))
                - y[..., None] * algebra.apply_I(d_tau))

    def boundary_theta(self, z):
        """Curve parameter in (-pi, pi] of points z (..., 4) of u(dD^2), exact
        since there arg z1 = -cos(theta) in [-1, 1] and Im z2 = sin(theta)."""
        z = np.asarray(z, float)
        return np.arctan2(z[..., 3], -np.arctan2(z[..., 1], z[..., 0]))


def flat_disc(U):
    return FlatDisc(U)


def sw_cone(p, q):
    return SWCone(p, q)


def nonminimal_map():
    return NonMinimalMap()


@dataclass
class DiscreteMap:
    """Nodal map from a disc mesh into C^2.

    ``source`` is the :class:`ExampleMap` the values were sampled from, or
    None for a flowed or relaxed map.
    """

    mesh: DiscMesh
    values: np.ndarray                      # (N, 4)
    source: ExampleMap | None = None

    def __post_init__(self):
        if self.values.shape != (len(self.mesh.nodes), 4):
            raise ValueError("values must be one ambient vector per node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite nodal values")

    @cached_property
    def exact_frames(self) -> Frame | None:
        """The source's exact nodal frames, each (N, 4), or None without a
        source; frames at singular points are the zero frame."""
        if self.source is None:
            return None
        frame = self.source.frame(self.mesh.node_r, self.mesh.node_theta)
        return Frame(np.asarray(frame.e_x, float), np.asarray(frame.e_y, float))


def sample(example, mesh):
    """Sample an example map on a mesh: exact values and the source link."""
    return DiscreteMap(mesh=mesh, values=example.value(mesh.node_r, mesh.node_theta),
                       source=example)
