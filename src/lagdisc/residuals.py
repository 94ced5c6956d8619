"""Verification functionals for discrete Lagrangian disc maps.

Every check is normalized by a natural local energy scale so the
reported numbers are mesh- and amplitude-portable:

* pointwise Lagrangian / conformality defects of tangent frames;
* the weak residual of div(g grad u) (structural equation);
* weak residuals of div(gbar grad g) and div(i gbar grad_perp g)
  (harmonicity of the unit-circle-valued angle);
* loop-integral degree and flux mass of the angle field around interior
  singular points;
* the three boundary conditions: Legendrian contact of the boundary
  curve, conormal alignment with the constraint normal, and the
  distributional Neumann trace of the angle;
* the weak stationarity functional against batches of admissible
  Hamiltonian test functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hamiltonians as hams
from .algebra import (EPS, apply_I, complex_scale, inner, lagrangian_angle,
                      norm, symplectic, wedge_norm)
from .families import DiscreteMap, ExampleMap, sample
from .mesh import (boundary_trace_pairing, element_gradient, exclusion_masks,
                   interpolate_at_centroids, loop_integrals,
                   weak_divergence_residual)

__all__ = [
    "FullDisc",
    "HalfPlane",
    "ResidualReport",
    "SingularMassRecord",
    "angle_harmonicity",
    "ball_mixed_batch",
    "ball_report_batch",
    "boundary_conditions_report",
    "curve_report_batch",
    "fit_order",
    "full_report",
    "pointwise_geometry_report",
    "singular_masses",
    "stationarity_integral",
    "stationarity_test",
    "structural_residual",
]


# --------------------------------------------------------------------------
# subdomain specifications for the stationarity functional
# --------------------------------------------------------------------------
class FullDisc:
    """omega = the whole disc; its boundary meets the open disc nowhere."""

    def contains(self, pts):
        return np.ones(len(np.atleast_2d(pts)), dtype=bool)

    def interior_boundary_samples(self, n=64):
        return np.empty((0, 2))


class HalfPlane:
    """omega = {x > c} intersected with the disc."""

    def __init__(self, c=0.0):
        if abs(c) >= 1:
            raise ValueError("cut must intersect the open disc")
        self.c = float(c)

    def contains(self, pts):
        return np.atleast_2d(pts)[:, 0] > self.c

    def interior_boundary_samples(self, n=64):
        half = np.sqrt(1.0 - self.c ** 2) * (1.0 - 1e-9)
        y = np.linspace(-half, half, n)
        return np.column_stack([np.full(n, self.c), y])


# --------------------------------------------------------------------------
# report containers
# --------------------------------------------------------------------------
@dataclass
class ResidualReport:
    lagrangian: float
    conformality: float
    structural: float
    angle_div: float
    angle_perp_div: float
    legendrian: float
    conormal: float
    neumann_trace: float
    stationarity: float
    h: float

    CHECKS = ("lagrangian", "conformality", "structural", "angle_div",
              "angle_perp_div", "legendrian", "conormal", "neumann_trace",
              "stationarity")

    def __post_init__(self):
        for name in self.CHECKS:
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"residual {name} is not a finite nonnegative number")

    def to_dict(self):
        d = {name: float(getattr(self, name)) for name in self.CHECKS}
        d["h"] = float(self.h)
        return d


@dataclass
class SingularMassRecord:
    point: np.ndarray
    degree: float
    flux_mass: float
    radii_used: list
    degree_spread: float
    flux_spread: float

    @property
    def near_integer(self):
        return abs(self.degree - round(self.degree)) <= 1e-3


# --------------------------------------------------------------------------
# pointwise frame geometry
# --------------------------------------------------------------------------
def _element_frames(u: DiscreteMap):
    grad = element_gradient(u.mesh, u.values)     # (T, 2, 4)
    return grad[:, 0, :], grad[:, 1, :]


def _singular_balls(u: DiscreteMap):
    """Exclusion balls of radius 1e-12 around the declared singular points."""
    return [(pt, 1e-12) for pt in u.singular_points]


def pointwise_geometry_report(u: DiscreteMap):
    """(lagrangian, conformality) defects, maximized over evaluation points.

    Uses the exact per-node frames when the map was sampled from a
    closed-form family, otherwise the per-element P1 frames.  Triangles
    or nodes incident to declared singular points are excluded.
    """
    node_ok, tri_ok = exclusion_masks(u.mesh, _singular_balls(u))
    if u.exact_frames is not None:
        e_x, e_y = u.exact_frames
        e_x, e_y = e_x[node_ok], e_y[node_ok]
    else:
        e_x, e_y = _element_frames(u)
        e_x, e_y = e_x[tri_ok], e_y[tri_ok]
    e2lam = 0.5 * (inner(e_x, e_x) + inner(e_y, e_y))
    den = e2lam + EPS
    lag = float(np.max(np.abs(symplectic(e_x, e_y)) / den))
    conf = float(np.max((np.abs(inner(e_x, e_y))
                         + np.abs(inner(e_x, e_x) - inner(e_y, e_y))) / den))
    return lag, conf


# --------------------------------------------------------------------------
# weak residuals of the structural and angle equations
# --------------------------------------------------------------------------
def structural_residual(u: DiscreteMap, gbar, exclude=()):
    """Weak residual of div(g grad u) from nodal data.

    ``gbar`` is the nodal Lagrangian angle (unit complex per node); the
    scalar g = conj(gbar) acts on ambient vectors as componentwise
    complex multiplication.  Consistency of ``gbar`` with the map's own
    angle is verified at non-degenerate nodes away from exclusions.
    """
    gbar = np.asarray(gbar, complex)
    mesh = u.mesh
    if u.exact_frames is not None:
        mask, _ = exclusion_masks(mesh, _singular_balls(u) + list(exclude))
        e_x, e_y = u.exact_frames
        energy = inner(e_x, e_x) + inner(e_y, e_y)
        mask &= energy > 1e-12
        if np.any(mask):
            _, ang = lagrangian_angle(e_x[mask], e_y[mask])
            if np.max(np.abs(ang - gbar[mask])) > 1e-6:
                raise ValueError("nodal angle disagrees with the map's frames")

    if u.source is not None:
        # closed-form route: g and the frame evaluated exactly at centroids,
        # so the residual is pure quadrature error on a divergence-free field
        cen = mesh.centroids
        r, th = np.hypot(cen[:, 0], cen[:, 1]), np.arctan2(cen[:, 1], cen[:, 0])
        g_c = np.conj(np.asarray(u.source.angle(r, th), complex))
        fr = u.source.frame(r, th)
        gu = np.stack([complex_scale(g_c, fr.e_x),
                       complex_scale(g_c, fr.e_y)], axis=1)
    else:
        g_c = interpolate_at_centroids(mesh, np.conj(gbar))
        grad = element_gradient(mesh, u.values)   # (T, 2, 4)
        gu = np.stack([complex_scale(g_c, grad[:, 0, :]),
                       complex_scale(g_c, grad[:, 1, :])], axis=1)
    # the 4 components share one test set
    return weak_divergence_residual(mesh, gu, exclude)


def angle_harmonicity(gbar, mesh, exclude=()):
    """Weak residuals (angle_div, angle_perp_div) of the angle equations.

    ``angle_div`` bounds div(gbar grad g) and ``angle_perp_div`` bounds
    div(i gbar grad_perp g); both complex fields are handled jointly so
    the normalization carries the full field magnitude.  ``gbar`` is
    either a nodal array (unit modulus to 1e-6 away from exclusions) or
    an :class:`ExampleMap`, in which case the exact fields are used:
    gbar grad g = -i * (i gbar grad g) and the rotated field is the
    rotation of the same real field.
    """
    if isinstance(gbar, ExampleMap):
        F = gbar.angle_flux_field(mesh.centroids)           # real i*gbar*grad g
        w_tan = -1j * (F[:, 0] + 0j), -1j * (F[:, 1] + 0j)
        w_tan = np.stack(w_tan, axis=1)
        w_perp = np.stack([-F[:, 1], F[:, 0]], axis=1)
        return (weak_divergence_residual(mesh, w_tan, exclude),
                weak_divergence_residual(mesh, w_perp, exclude))

    gbar = np.asarray(gbar, complex)
    mask, _ = exclusion_masks(mesh, exclude)
    if np.any(np.abs(np.abs(gbar[mask]) - 1.0) > 1e-6):
        raise ValueError("angle field is not unit modulus")

    g = np.conj(gbar)
    grad_g = element_gradient(mesh, g)            # (T, 2) complex
    gbar_c = interpolate_at_centroids(mesh, gbar)
    w_tan = gbar_c[:, None] * grad_g
    grad_perp = np.stack([-grad_g[:, 1], grad_g[:, 0]], axis=1)
    w_perp = 1j * gbar_c[:, None] * grad_perp
    return (weak_divergence_residual(mesh, w_tan, exclude),
            weak_divergence_residual(mesh, w_perp, exclude))


def singular_masses(angle_flux, point, radii, n_quad=512):
    """Degree and flux mass of the field i gbar grad g around a point.

    ``degree = mean over radii of circulation / 2 pi`` and ``flux_mass``
    is the radius-averaged flux; the spread across radii is recorded.
    The sign convention is fixed by direct quadrature of the given field
    (for the conical families the degree equals p - q).
    """
    point = np.asarray(point, float)
    fluxes, circs = zip(*(loop_integrals(angle_flux, point, r, n_quad)
                          for r in radii))
    degs = np.asarray(circs) / (2 * np.pi)
    rec = SingularMassRecord(point=point,
                             degree=float(np.mean(degs)),
                             flux_mass=float(np.mean(fluxes)),
                             radii_used=list(radii),
                             degree_spread=float(np.max(degs) - np.min(degs)),
                             flux_spread=float(np.max(fluxes) - np.min(fluxes)))
    if not rec.near_integer:
        warnings.warn(f"degree {rec.degree} is not close to an integer")
    return rec


# --------------------------------------------------------------------------
# boundary conditions
# --------------------------------------------------------------------------
def _boundary_frames(u: DiscreteMap):
    if u.exact_frames is None:
        raise ValueError("boundary report needs exact frames (sampled example)")
    b = u.mesh.is_boundary
    th = u.mesh.node_theta[b]
    e_x = u.exact_frames.e_x[b]
    e_y = u.exact_frames.e_y[b]
    d_tau = -np.sin(th)[:, None] * e_x + np.cos(th)[:, None] * e_y
    d_nu = np.cos(th)[:, None] * e_x + np.sin(th)[:, None] * e_y
    return u.values[b], d_tau, d_nu


# the inner radius of the collar of the Neumann trace pairing, and the top
# frequency k of its boundary test functions
COLLAR_R0 = 0.7
MAX_K = 4


def boundary_conditions_report(u: DiscreteMap, domain):
    """(legendrian, conormal, neumann_trace) for a sampled example map.

    * legendrian: max over boundary nodes of
      |<d_tau u, I(N o u)>| / |d_tau u|^2;
    * conormal: max of |(N o u) ^ d_nu u| / |d_nu u| (parallelogram
      area with the unit constraint normal);
    * neumann_trace: max over phi in {1, cos k t, sin k t : k <= MAX_K}
      of the pairing over the collar r > COLLAR_R0 of the exact angle-flux
      field i gbar grad g.
    """
    vals, d_tau, d_nu = _boundary_frames(u)
    N = domain.normal_at(vals)
    leg = float(np.max(np.abs(inner(d_tau, apply_I(N)))
                       / (inner(d_tau, d_tau) + EPS)))
    con = float(np.max(wedge_norm(N, d_nu) / (norm(d_nu) + EPS)))

    if u.source is not None:
        w = u.source.angle_flux_field(u.mesh.centroids)
    else:
        raise ValueError("neumann trace needs the exact angle-flux field")
    tests = [lambda t: np.ones_like(t)]
    for k in range(1, MAX_K + 1):
        tests.append(lambda t, k=k: np.cos(k * t))
        tests.append(lambda t, k=k: np.sin(k * t))
    neu = max(abs(boundary_trace_pairing(u.mesh, w, phi, COLLAR_R0))
              for phi in tests)
    return leg, con, float(neu)


# --------------------------------------------------------------------------
# stationarity functional
# --------------------------------------------------------------------------
# elements per Hessian block in the stationarity quadrature
HESSIAN_BLOCK = 4096


def _frame_block(grad):
    """sum_k sym((-I e_k) (x) e_k) for (b, 2, 4) frames e_k = grad[:, k],
    packed as a Hessian is (see :func:`hamiltonians.unpack_hessian`) with
    the off-diagonal entries doubled."""
    i, j = hams.UPPER_I, hams.UPPER_J
    acc = 0.0
    for k in range(2):
        e = grad[:, k]
        a = -apply_I(e)
        acc = acc + (a[:, i] * e[:, j] + a[:, j] * e[:, i])
    # a_i e_j + a_j e_i counts a diagonal entry twice
    return (0.5 * hams.UPPER_WEIGHTS) * acc


def _frame_tensor(u: DiscreteMap, m):
    """Centroid values, frame tensors and ||grad u||^2_{L2} of the elements
    in mask ``m``.

    The frame tensor of element t is S_t = area_t sum_k sym((-I e_k) (x) e_k)
    for the frames e_k = d_k u, stored (T, 10) in the packed order of the
    Hessians with the off-diagonal entries doubled, so that <H, S_t>_F is
    the plain dot product of the packed Hessian with S_t.  It is built in
    blocks of ``HESSIAN_BLOCK`` elements.
    """
    mesh = u.mesh
    grad = element_gradient(mesh, u.values)[m]
    areas = mesh.areas[m]
    grad_sq = float(np.sum(areas * (inner(grad[:, 0], grad[:, 0])
                                    + inner(grad[:, 1], grad[:, 1]))))
    S = np.empty((len(areas), len(hams.UPPER_I)))
    for s in range(0, len(areas), HESSIAN_BLOCK):
        blk = slice(s, s + HESSIAN_BLOCK)
        S[blk] = areas[blk, None] * _frame_block(grad[blk])
    # free the (T, 2, 4) frames before the centroid values are built
    del grad
    return interpolate_at_centroids(mesh, u.values)[m], S, grad_sq


class _Moments:
    """Sums of a frame tensor ``S`` against the centroid values ``u_c``, each
    built when first asked for and then kept: ``total`` is sum_t S_t, and
    ``quadratic`` the (10, 10) matrix whose row k is sum_t u_i u_j S_t for
    the monomial (i, j) = (UPPER_I[k], UPPER_J[k]) of u_c's row t."""

    def __init__(self, u_c, S):
        self.u_c, self.S = u_c, S

    @cached_property
    def total(self):
        return np.sum(self.S, axis=0)

    @cached_property
    def quadratic(self):
        # one monomial column at a time: no (T, 10) monomial array is made
        return np.stack([(self.u_c[:, i] * self.u_c[:, j]) @ self.S
                         for i, j in zip(hams.UPPER_I, hams.UPPER_J)])


def _polynomial_terms(coeffs, moments):
    """:func:`_stationarity_terms` of the Hessian A + _outer(z, z) @ C, with
    ``coeffs`` = (A, C), from the :class:`_Moments` of the frame tensor."""
    A, C = coeffs
    total = A @ moments.total
    if not np.any(C):
        return float(total), float(np.sqrt((A * A) @ hams.UPPER_WEIGHTS))
    total = total + np.sum(C * moments.quadratic)
    h_sq = 0.0
    u_c = moments.u_c
    for s in range(0, len(u_c), HESSIAN_BLOCK):
        zb = u_c[s:s + HESSIAN_BLOCK]
        Hu = hams._outer(zb, zb) @ C + A
        h_sq = np.maximum(h_sq, np.max((Hu * Hu) @ hams.UPPER_WEIGHTS))
    return float(total), float(np.sqrt(h_sq))


def _stationarity_terms(u_c, S, f, moments=None):
    """Midpoint quadrature of sum_k <d_k(I grad f o u), d_k u> and the max
    Frobenius norm of Hess f over the elements with centroid values ``u_c``
    and frame tensors ``S`` (see :func:`_frame_tensor`).

    For symmetric H, <I(H e), e> = <H, sym((-I e) (x) e)>_F, so each
    element's integrand, area included, is the dot product of the packed
    (10,) Hessian ``f.hessian(u_c)`` with its row of S, and ||H||_F^2 is
    the packed squares weighted by ``hamiltonians.UPPER_WEIGHTS``.  The
    Hessian is evaluated in blocks of ``HESSIAN_BLOCK`` rows.  When
    ``f.support_hint = (c, r)`` is set, only the rows with |u_c - c|^2 <=
    (1 + 1e-9) r^2, a superset of the support, are evaluated.  The
    integrands go into a zero-filled full-length array that is summed once,
    so the result is that of evaluating every row and does not depend on
    the blocking.

    A function with ``hessian_coeffs`` never calls ``f.hessian``: its terms
    come from the :class:`_Moments` ``moments`` of (u_c, S), which a caller
    shares across functions (see :func:`_polynomial_terms`).
    """
    if f.hessian_coeffs is not None:
        if moments is None:
            moments = _Moments(u_c, S)
        return _polynomial_terms(f.hessian_coeffs, moments)
    n = len(u_c)
    if f.support_hint is None:
        rows = [slice(s, s + HESSIAN_BLOCK) for s in range(0, n, HESSIAN_BLOCK)]
    else:
        center, radius = f.support_hint
        # column by column, so no (T, 4) temporary is made per function
        dist2 = 0.0
        for i, c in enumerate(np.asarray(center, float)):
            dist2 = dist2 + (u_c[:, i] - c) ** 2
        inside = np.flatnonzero(dist2 <= (1.0 + 1e-9) * radius ** 2)
        rows = [inside[s:s + HESSIAN_BLOCK]
                for s in range(0, len(inside), HESSIAN_BLOCK)]
    integrand = np.zeros(n)
    h_sq = 0.0
    for r in rows:
        Hu = f.hessian(u_c[r])
        integrand[r] = np.einsum("ti,ti->t", Hu, S[r])
        h_sq = np.maximum(h_sq, np.max((Hu * Hu) @ hams.UPPER_WEIGHTS))
    # sqrt is monotone, so the max norm is the root of the max square (and
    # np.maximum, unlike max, keeps a NaN)
    return float(np.sum(integrand)), float(np.sqrt(h_sq))


def stationarity_integral(u: DiscreteMap, f, subdomain=None):
    """Raw midpoint quadrature of sum_k <d_k(I grad f o u), d_k u> over omega."""
    sub = subdomain or FullDisc()
    u_c, S, _ = _frame_tensor(u, sub.contains(u.mesh.centroids))
    return _stationarity_terms(u_c, S, f)[0]


def _check_support_clear(f, pts4, what):
    """Require f's support ball to avoid the given ambient points."""
    if len(pts4) == 0:
        return
    if f.support_hint is None:
        raise ValueError(
            f"{f!r} has unbounded support but must vanish near {what}")
    center, radius = f.support_hint
    d = norm(np.atleast_2d(pts4) - np.asarray(center, float))
    if np.any(d <= radius):
        raise ValueError(f"{f!r} support meets {what}")


def _check_admissible(f, domain, wall_pts, wall_normals):
    tag = f.admissibility_tag
    if tag == "interior":
        # supported away from the constraint boundary
        center, radius = (f.support_hint if f.support_hint is not None
                          else (None, None))
        if center is None:
            raise ValueError(f"{f!r} lacks a support ball")
        center = np.asarray(center, float)
        if domain.kind == "levelset":
            rng = np.random.default_rng(0)
            dirs = rng.normal(size=(128, 4))
            dirs /= norm(dirs)[:, None]
            shell = center + radius * dirs
            if np.any(np.asarray(domain.F(shell)) >= -1e-9):
                raise ValueError(f"{f!r} support reaches the boundary")
        else:
            d = norm(domain.curve_points - center)
            if np.min(d) <= radius + 1e-9:
                raise ValueError(f"{f!r} support reaches the curve")
        return
    kind, dom = tag
    if kind != "boundary_tangent":
        raise ValueError(f"unknown admissibility tag {tag!r}")
    if dom is not None and dom is not domain:
        raise ValueError(f"{f!r} is tangent to a different domain")
    resid = hams.admissibility_residual(f, wall_pts, wall_normals)
    if resid > 1e-6:
        raise ValueError(
            f"{f!r} admissibility residual {resid:.2e} exceeds 1e-6")


def stationarity_test(u: DiscreteMap, domain, fs, subdomain=None):
    """Normalized weak stationarity residual over a batch of Hamiltonians.

    Checks every test function for admissibility (tag plus residual at
    boundary samples) and for support clear of the image of the interior
    part of the subdomain boundary, then returns

        max_f |integral| / (||Hess f||_inf ||grad u||^2_{L2(omega)} + eps)

    with midpoint quadrature per triangle and the Frobenius matrix norm.
    An empty batch raises ``ValueError`` instead of reading as a perfect 0.

    The frames enter only through one (T, 10) frame tensor per call,
    area_t sum_k sym((-I d_k u) (x) d_k u) packed like the Hessians,
    because <I(H e), e> = <H, sym((-I e) (x) e)>_F for symmetric H; each
    f then costs its packed (10,) Hessians in blocks of ``HESSIAN_BLOCK``
    elements and two 10-term dot products per element, one for the
    integrand and one for ||H||_F^2.  A test function with a support ball
    is evaluated only on the elements whose centroid image lies in it,
    which gives exactly the value of evaluating every element.  No result
    depends on ``HESSIAN_BLOCK``.

    A function whose packed Hessian is a quadratic polynomial in z,
    A + mono(z) C with mono(z) the 10 monomials z_i z_j
    (``f.hessian_coeffs``), takes no per-element Hessian pass: its
    integral is A . sum_t S_t + <C, M> over the frame tensor rows S_t,
    with the (10, 10) moment matrix M = mono(u_c)^T S built at most once
    per call and only when some function has C != 0; its max norm is
    ||A||_F when C = 0 and otherwise one polynomial evaluation per block.
    """
    if len(fs) == 0:
        raise ValueError("stationarity_test: empty test set")
    mesh = u.mesh
    sub = subdomain or FullDisc()
    m = sub.contains(mesh.centroids)
    if not np.any(m):
        raise ValueError("subdomain contains no triangles")
    boundary_pts = sub.interior_boundary_samples()
    if len(boundary_pts):
        u_at = u.mesh.interpolate(u.values, boundary_pts)
    else:
        u_at = np.empty((0, 4))

    # admissibility sample set: image of the disc-boundary nodes inside omega
    wall = mesh.is_boundary & sub.contains(mesh.nodes)
    wall_pts = u.values[wall]
    wall_normals = domain.normal_at(wall_pts)

    u_c, S, grad_sq = _frame_tensor(u, m)
    moments = _Moments(u_c, S)
    worst = 0.0
    for f in fs:
        _check_admissible(f, domain, wall_pts, wall_normals)
        _check_support_clear(f, u_at, "u(boundary of omega in the open disc)")
        total, h_inf = _stationarity_terms(u_c, S, f, moments)
        worst = max(worst, abs(total) / (h_inf * grad_sq + EPS))
    return float(worst)


# --------------------------------------------------------------------------
# standard Hamiltonian batches
# --------------------------------------------------------------------------
def ball_report_batch(domain, size=20):
    """Admissible family whose stationarity integrand vanishes pointwise on
    flat equatorial discs and on cones through the origin (position vector
    tangent to the surface): an origin-centered bump, radial invariants and
    phase-invariant quadratics.  Used for null tests."""
    out = [hams.interior_bump(np.zeros(4), 0.45, 1.0)]
    profiles = [None, hams.poly_profile([0.0, 1.0]),
                hams.smooth_cutoff_profile(0.4, 0.95)]
    for P in profiles[1:]:
        out.append(hams.radial_invariant(P, domain=domain,
                                         name=f"radial#{len(out)}"))
    out.append(hams.radial_invariant(hams.poly_profile([0.0, 0.0, 0.5]),
                                     domain=domain, name="radial-s2"))
    coeffs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (1, -1, 0, 0), (0, 0, 1, 1), (0.3, 0.1, -0.7, 0.2)]
    k = 0
    while len(out) < size:
        c = coeffs[k % len(coeffs)]
        P = profiles[(k // len(coeffs)) % len(profiles)]
        out.append(hams.hopf_invariant_quadratic(c, profile=P, domain=domain,
                                                 name=f"hopf#{k}"))
        k += 1
    return out


def ball_mixed_batch(domain, seed=0, size=24, n_bumps=8):
    """Report batch plus seeded generic interior bumps (supported inside the
    ball, centers off the origin), which probe honest O(h) behaviour."""
    rng = np.random.default_rng(seed)
    out = ball_report_batch(domain, size=size - n_bumps)
    for _ in range(n_bumps):
        center = rng.normal(size=4)
        center *= rng.uniform(0.15, 0.5) / np.linalg.norm(center)
        radius = rng.uniform(0.15, 0.35)
        if np.linalg.norm(center) + radius > 0.92:
            radius = 0.9 - np.linalg.norm(center)
        out.append(hams.interior_bump(center, radius, rng.uniform(0.5, 2.0)
                                      * rng.choice([-1.0, 1.0])))
    return out


def curve_report_batch(domain, example, size=12, seed=0):
    """Admissible family for the curve-constrained problem: test functions of
    z1 alone whose Hamiltonian field is tangent to the constraint curve, plus
    interior bumps supported away from the curve."""
    rng = np.random.default_rng(seed)
    out = []
    for center, width in [(0.45, 0.35), (-0.45, 0.35), (0.6, 0.25),
                          (-0.6, 0.25), (0.35, 0.25), (-0.35, 0.25)]:
        out.append(hams.z1_arc_hamiltonian(center, width, domain=domain))
    while len(out) < size:
        # interior image points are order-1 away from the constraint curve
        x, y = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        center = example.value_xy(x, y)
        d = np.min(norm(domain.curve_points - center))
        radius = min(0.3, 0.8 * d)
        out.append(hams.interior_bump(center, radius, rng.uniform(0.5, 1.5)))
    return out


# --------------------------------------------------------------------------
# aggregate report
# --------------------------------------------------------------------------
def full_report(example, mesh, domain):
    """Evaluate every residual for a closed-form example sampled on a mesh,
    excluding a ball of radius 0.1 around each singular point."""
    u = sample(example, mesh)
    exclude = [(np.asarray(p, float), 0.1) for p in example.singular_points]
    gbar = u.nodal_angle()
    lag, conf = pointwise_geometry_report(u)
    struct = structural_residual(u, gbar, exclude)
    adiv, apdiv = angle_harmonicity(example, mesh, exclude)
    leg, con, neu = boundary_conditions_report(u, domain)
    if domain.kind == "levelset":
        fs = ball_report_batch(domain)
    else:
        fs = curve_report_batch(domain, example)
    stat = stationarity_test(u, domain, fs)
    return ResidualReport(lagrangian=lag, conformality=conf, structural=struct,
                          angle_div=adiv, angle_perp_div=apdiv, legendrian=leg,
                          conormal=con, neumann_trace=neu, stationarity=stat,
                          h=mesh.h_max)


def fit_order(hs, values):
    """Least-squares slope of log(value) against log(h).

    Values at or below 1e-13 mean the quantity has hit rounding level; if
    all are floored the order is reported as infinity.  Fewer than two
    distinct h have no slope and raise ``ValueError``.
    """
    floor = 1e-13
    hs = np.asarray(hs, float)
    values = np.asarray(values, float)
    if len(np.unique(hs)) < 2:
        raise ValueError("fit_order: needs at least two distinct h")
    if np.all(values <= floor):
        return np.inf
    values = np.maximum(values, floor)
    slope = np.polyfit(np.log(hs), np.log(values), 1)[0]
    return float(slope)
