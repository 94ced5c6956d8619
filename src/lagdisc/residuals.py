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
  Hamiltonian test functions;
* the rigidity verdict: how far a map is from a flat equatorial
  Lagrangian disc, with a stationarity certificate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import hamiltonians as hams
from .algebra import (EPS, angle_defined, apply_I, inner,
                      lagrangian_angle, norm, symplectic, wedge_norm)
from .domains import unit_ball
from .families import DiscreteMap, sample
from .mesh import (_test_set, boundary_trace_pairing, element_gradient,
                   interpolate_at_centroids, loop_integrals,
                   weak_divergence_residual)

__all__ = [
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
    "lagrangian_defect",
    "pointwise_geometry_report",
    "rigidity_verdict",
    "singular_masses",
    "stationarity_test",
    "structural_residual",
]


# --------------------------------------------------------------------------
# subdomain specifications for the stationarity functional
# --------------------------------------------------------------------------
class HalfPlane:
    """omega = {x > c} intersected with the disc."""

    def __init__(self, c=0.0):
        if not abs(c) < 1:             # a NaN fails it
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


def _exact_frames(u: DiscreteMap):
    """The exact nodal frames of a map sampled from a closed form; a flowed
    or relaxed map has none and raises ``ValueError``."""
    if u.source is None:
        raise ValueError("this residual check needs the map's closed form "
                         "(a sampled example)")
    return u.exact_frames


def _angle_flux(u: DiscreteMap):
    """The exact angle-flux field F = i gbar grad g at the centroids, (T, 2)."""
    _exact_frames(u)                       # raises without a closed form
    return u.source.angle_flux_field(u.mesh.centroids)


def lagrangian_defect(q, grad_sq):
    """The largest Lagrangian defect |u*omega| / (|grad u|^2/2 + EPS)."""
    return float(np.max(np.abs(q) / (0.5 * grad_sq + EPS)))


def pointwise_geometry_report(u: DiscreteMap):
    """(lagrangian, conformality) defects, maximized over evaluation points.

    Uses the exact per-node frames when the map was sampled from a
    closed-form family, otherwise the per-element P1 frames.  The exact
    frame at a singular point is the zero frame, which scores 0 in both.
    """
    if u.exact_frames is not None:
        e_x, e_y = u.exact_frames
    else:
        e_x, e_y = _element_frames(u)
    grad_sq = inner(e_x, e_x) + inner(e_y, e_y)
    lag = lagrangian_defect(symplectic(e_x, e_y), grad_sq)
    den = 0.5 * grad_sq + EPS
    conf = float(np.max((np.abs(inner(e_x, e_y))
                         + np.abs(inner(e_x, e_x) - inner(e_y, e_y))) / den))
    return lag, conf


# --------------------------------------------------------------------------
# weak residuals of the structural and angle equations
# --------------------------------------------------------------------------
def structural_residual(u: DiscreteMap, exclude=()):
    """Weak residual of div(g grad u) for a map sampled from a closed form.

    g = conj(gbar), the source's angle, acts on ambient vectors as
    componentwise complex multiplication.  g and the frame are exact at the
    centroids, so the residual is pure quadrature error on a divergence-free
    field.  The angle is first checked against that of the exact frames at
    the non-degenerate nodes away from the exclusions.
    """
    e_x, e_y = _exact_frames(u)
    mesh, src = u.mesh, u.source
    node_ok, _ = _test_set(mesh, exclude)
    mask = node_ok & angle_defined(e_x, e_y)
    if np.any(mask):
        _, ang = lagrangian_angle(e_x[mask], e_y[mask])
        gbar = src.angle(mesh.node_r[mask], mesh.node_theta[mask])
        if np.max(np.abs(ang - gbar)) > 1e-6:
            raise ValueError("nodal angle disagrees with the map's frames")

    # the 4 components share one test set
    return weak_divergence_residual(mesh, _structural_field(src, mesh.centroids),
                                    exclude)


def _structural_field(src, pts):
    """g grad u of the closed form ``src`` at the (T, 2) points ``pts``:
    the products of :func:`algebra.complex_scale`, one complex column at a
    time, written into (4, 2, T) storage behind the (T, 2, 4) view returned."""
    x, y = pts[:, 0], pts[:, 1]
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    g_c = np.conj(np.asarray(src.angle(r, theta), complex))
    frame = src.frame(r, theta)
    del r, theta
    gu = np.empty((4, 2, len(x)))
    for k, e in enumerate(frame):
        for i in (0, 2):
            # z1 or z2 as algebra.complex_parts forms it; named, because
            # numpy multiplies into an unnamed temporary in place, by a
            # loop that rounds g_c * z differently
            z = e[:, i] + 1j * e[:, i + 1]
            gz = g_c * z
            gu[i, k], gu[i + 1, k] = gz.real, gz.imag
    return gu.transpose(2, 1, 0)


def angle_harmonicity(u: DiscreteMap, exclude=()):
    """Weak residuals (angle_div, angle_perp_div) of the angle equations.

    ``angle_div`` bounds div(gbar grad g) and ``angle_perp_div`` bounds
    div(i gbar grad_perp g).  Both fields come from the angle flux
    F = i gbar grad g (see :func:`_angle_flux`): gbar grad g = -i F has
    the residual of the real field F, and i gbar grad_perp g is its rotation.
    """
    F = _angle_flux(u)
    w_perp = np.stack([-F[:, 1], F[:, 0]]).T        # component-major, as F
    return (weak_divergence_residual(u.mesh, F, exclude),
            weak_divergence_residual(u.mesh, w_perp, exclude))


def singular_masses(angle_flux, point, radii):
    """Degree and flux mass of the field i gbar grad g around a point.

    ``degree = mean over radii of circulation / 2 pi`` and ``flux_mass``
    is the radius-averaged flux; the spread across radii is recorded.
    The sign convention is fixed by direct quadrature of the given field
    (for the conical families the degree equals p - q).
    """
    point = np.asarray(point, float)
    fluxes, circs = zip(*(loop_integrals(angle_flux, point, r) for r in radii))
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
    e_x, e_y = _exact_frames(u)
    b = u.mesh.is_boundary
    th = u.mesh.node_theta[b]
    e_x, e_y = e_x[b], e_y[b]
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

    w = _angle_flux(u)
    tests = [lambda t: np.ones_like(t)]
    for k in range(1, MAX_K + 1):
        tests.append(lambda t, k=k: np.cos(k * t))
        tests.append(lambda t, k=k: np.sin(k * t))
    # np.max, unlike max, keeps a NaN
    neu = np.max(np.abs(boundary_trace_pairing(u.mesh, w, tests, COLLAR_R0)))
    return leg, con, float(neu)


# --------------------------------------------------------------------------
# stationarity functional
# --------------------------------------------------------------------------
# elements per Hessian block in the stationarity quadrature; it sets only
# the rounding of the moment matrix M, summed block by block
HESSIAN_BLOCK = 4096


def _frame_block(grad):
    """sum_k sym((-I e_k) (x) e_k) for (b, 2, 4) frames e_k = grad[:, k],
    packed as a Hessian is (see :func:`hamiltonians.unpack_hessian`) with
    the off-diagonal entries doubled; slot by slot, from the frame columns
    e_k = (x1, y1, x2, y2) and a = -I e_k = (y1, -x1, y2, -x2), contiguous
    rows of the component-major frames."""
    e = [[grad[:, k, i] for i in range(4)] for k in range(2)]
    a = [[x[1], -x[0], x[3], -x[2]] for x in e]
    out = np.empty((len(grad), len(hams.UPPER_I)))
    for slot, (i, j) in enumerate(zip(hams.UPPER_I, hams.UPPER_J)):
        acc = 0.0
        for k in range(2):
            acc = acc + (a[k][i] * e[k][j] + a[k][j] * e[k][i])
        # a_i e_j + a_j e_i counts a diagonal entry twice
        out[:, slot] = (0.5 * hams.UPPER_WEIGHTS[slot]) * acc
    return out


def _frame_tensor(u: DiscreteMap, m):
    """Centroid values, frame tensors and ||grad u||^2_{L2} of the elements
    in mask ``m`` (every element when ``m`` is None).

    The frame tensor of element t is S_t = area_t sum_k sym((-I e_k) (x) e_k)
    for the frames e_k = d_k u, stored (T, 10) in the packed order of the
    Hessians with the off-diagonal entries doubled, so that <H, S_t>_F is
    the plain dot product of the packed Hessian with S_t.  It is built in
    blocks of ``HESSIAN_BLOCK`` elements, on views when ``m`` keeps all.
    """
    mesh = u.mesh
    m = slice(None) if m is None or np.all(m) else m
    # select along the element axis of the component-major storage, so
    # that each kept frame component stays a contiguous row
    grad = np.moveaxis(np.moveaxis(element_gradient(mesh, u.values), 0, -1)[..., m],
                       -1, 0)
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


def _polynomial_terms(u_c, S, coeffs):
    """The terms of the Hessians A + _outer(z, z) @ C, for (A, C) in ``coeffs``.

    The integral is A . sum_t S_t + <C, M>, with row k of the (10, 10)
    moment matrix M = sum_t u_i u_j S_t for (i, j) = (UPPER_I[k], UPPER_J[k]).
    The max norm is ||A||_F when C = 0; the functions with C != 0 share one
    _outer(z, z) monomial block per ``HESSIAN_BLOCK`` rows, and M is summed
    from zero in block order, one (10, b) @ (b, 10) product per block.  No
    length-T reduction goes through BLAS, whose threads would split it and
    make its bits follow the thread count; the block size sets only the
    rounding of M.
    """
    total = np.sum(S, axis=0) if coeffs else None
    live = [(k, A, C) for k, (A, C) in enumerate(coeffs) if np.any(C)]
    h_sq = [0.0 if np.any(C) else (A * A) @ hams.UPPER_WEIGHTS for A, C in coeffs]
    if live:
        M = np.zeros((len(hams.UPPER_I), len(hams.UPPER_I)))
        for s in range(0, len(u_c), HESSIAN_BLOCK):
            zb = u_c[s:s + HESSIAN_BLOCK]
            mono = hams._outer(zb, zb)
            M += mono.T @ S[s:s + HESSIAN_BLOCK]
            for k, A, C in live:
                Hu = mono @ C + A
                h_sq[k] = np.maximum(h_sq[k], np.max((Hu * Hu) @ hams.UPPER_WEIGHTS))
    return [(float(A @ total + np.sum(C * M) if np.any(C) else A @ total),
             float(np.sqrt(h))) for (A, C), h in zip(coeffs, h_sq)]


def _per_row_terms(u_c, S, f):
    """:func:`_stationarity_terms` of one f without ``hessian_coeffs``."""
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
        # one layout, so that einsum's order of summation does not follow f's
        Hu = np.asfortranarray(f.hessian(u_c[r]))
        integrand[r] = np.einsum("ti,ti->t", Hu, S[r])
        h_sq = np.maximum(h_sq, np.max((Hu * Hu) @ hams.UPPER_WEIGHTS))
    # sqrt is monotone, so the max norm is the root of the max square (and
    # np.maximum, unlike max, keeps a NaN)
    return float(np.sum(integrand)), float(np.sqrt(h_sq))


def _stationarity_terms(u_c, S, fs):
    """[(integral, max norm)] for each f in ``fs``: the midpoint quadrature
    of sum_k <d_k(I grad f o u), d_k u> and the max Frobenius norm of
    Hess f over the elements with centroid values ``u_c`` and frame tensors
    ``S`` (see :func:`_frame_tensor`).

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

    The functions with ``hessian_coeffs`` never call ``f.hessian``: their
    terms come together from :func:`_polynomial_terms`.
    """
    poly = iter(_polynomial_terms(
        u_c, S, [f.hessian_coeffs for f in fs if f.hessian_coeffs is not None]))
    return [next(poly) if f.hessian_coeffs is not None
            else _per_row_terms(u_c, S, f) for f in fs]


def _check_admissible(f, domain, wall_pts, wall_normals, cut):
    """Raise unless f is admissible on omega: a support ball in the domain
    or, without one, I grad f tangent to the wall at ``wall_pts``; and f
    vanishing near ``cut``, the image of omega's boundary in the open disc."""
    what = "u(boundary of omega in the open disc)"
    if f.support_hint is None:
        resid = hams.admissibility_residual(f, wall_pts, wall_normals)
        if resid > 1e-6:
            raise ValueError(f"{f!r} admissibility residual {resid:.2e} exceeds 1e-6")
        if len(cut):
            raise ValueError(f"{f!r} has unbounded support but must vanish near {what}")
        return
    center, radius = f.support_hint
    if not domain.contains_ball(center, radius):
        raise ValueError(f"{f!r} support reaches the boundary")
    if len(cut) and np.any(norm(cut - center) <= radius):
        raise ValueError(f"{f!r} support meets {what}")


def stationarity_test(u: DiscreteMap, domain, fs, subdomain=None):
    """Normalized weak stationarity residual over a batch of Hamiltonians.

    omega is the whole disc when ``subdomain`` is None.  Checks every test
    function with :func:`_check_admissible`, then returns

        max_f |integral| / (||Hess f||_inf ||grad u||^2_{L2(omega)} + eps)

    with midpoint quadrature per triangle and the Frobenius matrix norm.
    An empty batch, or one whose every ||Hess f||_inf is 0 (no function
    meets the image, so it tests nothing), raises ``ValueError`` instead of
    reading as a perfect 0; some functions missing the image is normal.

    The frames enter only through one (T, 10) frame tensor per call,
    area_t sum_k sym((-I d_k u) (x) d_k u) packed like the Hessians,
    because <I(H e), e> = <H, sym((-I e) (x) e)>_F for symmetric H; each
    f then costs its packed (10,) Hessians in blocks of ``HESSIAN_BLOCK``
    elements and two 10-term dot products per element, one for the
    integrand and one for ||H||_F^2.  A test function with a support ball
    is evaluated only on the elements whose centroid image lies in it, and
    a cutoff-profiled one runs its product rule only where the cutoff
    varies (see :func:`hamiltonians._profiled`); both give exactly the
    value of evaluating every element.  Only M (below) depends on
    ``HESSIAN_BLOCK``, and only in its rounding.

    A function whose packed Hessian is a quadratic polynomial in z,
    A + mono(z) C with mono(z) the 10 monomials z_i z_j
    (``f.hessian_coeffs``), takes no per-element Hessian pass: its
    integral is A . sum_t S_t + <C, M> over the frame tensor rows S_t,
    with the (10, 10) moment matrix M = mono(u_c)^T S built at most once
    per call and only when some function has C != 0; its max norm is
    ||A||_F when C = 0, and otherwise one (b, 10) @ (10, 10) product per
    block of b rows, on a monomial block mono(u_c) that all such functions
    share.  M is summed block by block from that shared block, so no
    length-T reduction goes through BLAS and no bit follows its thread
    count.
    """
    if len(fs) == 0:
        raise ValueError("stationarity_test: empty test set")
    mesh = u.mesh
    # omega's elements (None: all), its disc-boundary nodes, whose images
    # are the admissibility samples, and the image of its inner boundary
    m, wall, u_at = None, mesh.is_boundary, np.empty((0, 4))
    if subdomain is not None:
        m = subdomain.contains(mesh.centroids)
        if not np.any(m):
            raise ValueError("subdomain contains no triangles")
        wall = wall & subdomain.contains(mesh.nodes)
        u_at = mesh.interpolate(u.values, subdomain.interior_boundary_samples())
    wall_pts = u.values[wall]
    wall_normals = domain.normal_at(wall_pts)

    for f in fs:
        _check_admissible(f, domain, wall_pts, wall_normals, u_at)
    u_c, S, grad_sq = _frame_tensor(u, m)
    terms = _stationarity_terms(u_c, S, fs)
    if all(h_inf == 0 for _, h_inf in terms):
        raise ValueError("stationarity_test: every test function's Hessian "
                         "vanishes on the map's image; the batch tests nothing")
    worst = 0.0
    for total, h_inf in terms:
        worst = np.maximum(worst, abs(total) / (h_inf * grad_sq + EPS))
    return float(worst)


# --------------------------------------------------------------------------
# standard Hamiltonian batches
# --------------------------------------------------------------------------
def _is_count(n):
    """Whether ``n`` is an int (numpy's too) and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def ball_report_batch(size=20):
    """Admissible family whose stationarity integrand vanishes pointwise on
    flat equatorial discs and on cones through the origin (position vector
    tangent to the surface): an origin-centered bump, radial invariants and
    phase-invariant quadratics.  Used for null tests.  ``size`` counts
    the four fixed functions; one that is not an int >= 4 raises ValueError."""
    if not (_is_count(size) and size >= 4):
        raise ValueError("ball_report_batch: size must be an int >= 4 fixed functions")
    out = [hams.interior_bump(np.zeros(4), 0.45, 1.0)]
    profiles = [None, hams.poly_profile([0.0, 1.0]),
                hams.smooth_cutoff_profile(0.4, 0.95)]
    for P in profiles[1:]:
        out.append(hams.radial_invariant(P, name=f"radial#{len(out)}"))
    out.append(hams.radial_invariant(hams.poly_profile([0.0, 0.0, 0.5]),
                                     name="radial-s2"))
    coeffs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (1, -1, 0, 0), (0, 0, 1, 1), (0.3, 0.1, -0.7, 0.2)]
    k = 0
    while len(out) < size:
        c = coeffs[k % len(coeffs)]
        P = profiles[(k // len(coeffs)) % len(profiles)]
        out.append(hams.hopf_invariant_quadratic(c, profile=P,
                                                 name=f"hopf#{k}"))
        k += 1
    return out


def ball_mixed_batch(seed=0, size=24, n_bumps=8):
    """Report batch plus seeded generic interior bumps (supported inside the
    ball, centers off the origin), which probe honest O(h) behaviour.
    ``size`` and ``n_bumps`` that are not ints, ``n_bumps < 0`` and
    ``size - n_bumps < 4`` raise ``ValueError``."""
    if not (_is_count(size) and _is_count(n_bumps) and n_bumps >= 0):
        raise ValueError("ball_mixed_batch: size and n_bumps must be ints, n_bumps >= 0")
    rng = np.random.default_rng(seed)
    out = ball_report_batch(size=size - n_bumps)
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
    interior bumps supported away from the curve.  A ``size`` that is not
    an int raises ``ValueError``."""
    if not _is_count(size):
        raise ValueError("curve_report_batch: size must be an int")
    rng = np.random.default_rng(seed)
    out = []
    for center, width in [(0.45, 0.35), (-0.45, 0.35), (0.6, 0.25),
                          (-0.6, 0.25), (0.35, 0.25), (-0.35, 0.25)]:
        out.append(hams.z1_arc_hamiltonian(center, width))
    while len(out) < size:
        # interior image points are order-1 away from the constraint curve
        x, y = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        center = example.value_xy(x, y)
        radius = min(0.3, 0.8 * domain.grid_distance(center))
        out.append(hams.interior_bump(center, radius, rng.uniform(0.5, 1.5)))
    return out


# --------------------------------------------------------------------------
# aggregate report
# --------------------------------------------------------------------------
def _report_exclusions(example):
    """The 0.1 balls around the singular points that full_report excludes."""
    return [(np.asarray(p, float), 0.1) for p in example.singular_points]


def full_report(example, mesh, domain):
    """Evaluate every residual for a closed-form example sampled on a mesh,
    excluding the balls of :func:`_report_exclusions`."""
    u = sample(example, mesh)
    exclude = _report_exclusions(example)
    lag, conf = pointwise_geometry_report(u)
    struct = structural_residual(u, exclude)
    adiv, apdiv = angle_harmonicity(u, exclude)
    leg, con, neu = boundary_conditions_report(u, domain)
    if domain.kind == "levelset":
        fs = ball_report_batch()
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
    distinct h, an h outside (0, inf) or a non-finite value raise ``ValueError``.
    """
    floor = 1e-13
    hs = np.asarray(hs, float)
    values = np.asarray(values, float)
    if len(np.unique(hs)) < 2:
        raise ValueError("fit_order: needs at least two distinct h")
    if not np.all((hs > 0) & (hs < np.inf)):       # a NaN fails it
        raise ValueError("fit_order: an h is not a finite positive number")
    if not np.all(np.isfinite(values)):
        raise ValueError("fit_order: a value is not finite")
    if np.all(values <= floor):
        return np.inf
    values = np.maximum(values, floor)
    slope = np.polyfit(np.log(hs), np.log(values), 1)[0]
    return float(slope)


# --------------------------------------------------------------------------
# rigidity verdict
# --------------------------------------------------------------------------
def rigidity_verdict(u: DiscreteMap, seed):
    """Whether a map into the unit ball is a flat equatorial Lagrangian disc:
    a dict of the five verdict numbers below and ``passed``.

    P is the best-fit 2-plane through 0 (top right-singular vectors of the
    nodal values).  ``flat_disc_distance`` is the larger of the maximal node
    distance to P and |mapped area - mesh area| / mesh area, and
    ``circle_defect`` the largest distance of a boundary node from the unit
    circle of P: one projection onto P serves both.  ``plane_is_lagrangian``
    is |omega| on P, and ``angle_variance`` that of the Lagrangian angle over
    the elements that define one (inf if none does); the area takes the same
    ``element_gradient`` pass.  ``passed`` bounds the distance, the variance
    and the defect by 1e-3, 1e-6 and 1e-3.  ``stationarity_certificate``,
    which it does not read, is :func:`stationarity_test` over
    ``ball_mixed_batch(seed=seed)``, whose interior bumps do not
    vanish pointwise on flat discs.
    """
    vals = u.values
    if len(vals) < 10:
        raise ValueError("need at least 10 nodes")
    _, s, vt = np.linalg.svd(vals, full_matrices=False)
    if s[1] < 1e-9 * max(s[0], 1.0):
        raise ValueError("nodal image collapses below two dimensions")
    plane = vt[:2]
    proj = vals @ plane.T @ plane
    off_plane = np.linalg.norm(vals - proj, axis=1)
    b = u.mesh.is_boundary
    circle = float(np.max(np.hypot(
        off_plane[b], np.abs(np.linalg.norm(proj[b], axis=1) - 1.0))))

    a = u.mesh.areas
    e_x, e_y = _element_frames(u)
    area = float(np.sum(a))
    dist = max(float(np.max(off_plane)),
               abs(float(np.sum(a * wedge_norm(e_x, e_y))) - area) / area)
    ok = angle_defined(e_x, e_y)
    var = float("inf")          # fully degenerate image: certainly not flat
    if np.any(ok):
        _, ang = lagrangian_angle(e_x[ok], e_y[ok])
        var = float(np.mean(np.abs(ang - np.mean(ang)) ** 2))
    return dict(
        flat_disc_distance=dist, angle_variance=var, circle_defect=circle,
        plane_is_lagrangian=float(abs(symplectic(plane[0], plane[1]))),
        stationarity_certificate=stationarity_test(
            u, unit_ball(), ball_mixed_batch(seed=seed)),
        passed=dist <= 1e-3 and var <= 1e-6 and circle <= 1e-3)
