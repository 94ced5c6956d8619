"""Admissible Hamiltonian test functions on C^2.

A Hamiltonian carries value/gradient/Hessian callables (all batched over
(..., 4) arrays), an optional support ball, and an admissibility tag.
The value is (...,), the gradient (..., 4), and the Hessian, being
symmetric, comes packed: its upper triangle as (..., 10) in
``np.triu_indices(4)`` order (:data:`UPPER_I`, :data:`UPPER_J`), which
:func:`unpack_hessian` turns back into the (..., 4, 4) matrix.  The
admissibility tag is one of:

* ``"interior"`` -- compactly supported away from the constraint
  boundary, so the generated field I grad(f) is trivially tangent there;
* ``("boundary_tangent", domain)`` -- satisfies <I grad f, N> = 0 along
  the relevant boundary set of the domain.

Families:

* smooth interior bumps;
* functions of |z|^2 (radially invariant);
* quadratics invariant under z -> e^{it} z (phase-invariant), optionally
  multiplied by a radial profile -- these generate flows tangent to
  every sphere around the origin;
* windowed waves: oscillatory interior probes;
* functions of z1 adapted to the z1-unit-circle constraint curve.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .algebra import EPS, apply_I, inner

__all__ = [
    "Hamiltonian",
    "Profile",
    "UPPER_I",
    "UPPER_J",
    "UPPER_WEIGHTS",
    "admissibility_residual",
    "bump_kernel",
    "hopf_invariant_quadratic",
    "interior_bump",
    "poly_profile",
    "radial_invariant",
    "smooth_cutoff_profile",
    "unpack_hessian",
    "windowed_wave",
    "z1_arc_hamiltonian",
]

# the packed Hessian: entry k is H[UPPER_I[k], UPPER_J[k]], the upper
# triangle (i <= j) row-major
UPPER_I, UPPER_J = np.triu_indices(4)
# the 4 diagonal slots, H[i, i] = Hu[_DIAG[i]]
_DIAG = np.flatnonzero(UPPER_I == UPPER_J)
# how often each entry occurs in the matrix, so that
# ||H||_F^2 = (Hu * Hu) @ UPPER_WEIGHTS
UPPER_WEIGHTS = np.where(UPPER_I == UPPER_J, 1.0, 2.0)


def unpack_hessian(Hu):
    """The symmetric (..., 4, 4) matrix of a packed (..., 10) Hessian."""
    Hu = np.asarray(Hu)
    H = np.empty(Hu.shape[:-1] + (4, 4), Hu.dtype)
    H[..., UPPER_I, UPPER_J] = Hu
    H[..., UPPER_J, UPPER_I] = Hu
    return H


def _outer(a, b):
    """The packed a (x) b, a_i b_j for i <= j, of (..., 4) arrays."""
    return a[..., UPPER_I] * b[..., UPPER_J]


class Hamiltonian:
    """Scalar function on C^2 with gradient and Hessian callables.

    ``value(z)`` is (...,), ``gradient(z)`` (..., 4) and ``hessian(z)`` the
    packed (..., 10) upper triangle of the symmetric Hessian (see
    :func:`unpack_hessian`), for points z of shape (..., 4).

    ``hessian_coeffs``, when set, is a pair (A, C) of shapes (10,) and
    (10, 10) with ``hessian(z) = A + _outer(z, z) @ C`` up to rounding: the
    packed Hessian is a quadratic polynomial in z (see
    :func:`_polarized_coeffs`).
    """

    def __init__(self, value, gradient, hessian, support_hint=None,
                 admissibility_tag="interior", name="", hessian_coeffs=None):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.support_hint = support_hint          # (center (4,), radius) or None
        self.admissibility_tag = admissibility_tag
        self.name = name
        self.hessian_coeffs = hessian_coeffs

    def __repr__(self):
        return f"Hamiltonian({self.name or 'anonymous'})"


# --------------------------------------------------------------------------
# scalar profiles P(s) with two derivatives
# --------------------------------------------------------------------------
class Profile:
    """P(s) with its first two derivatives.  ``support``, when set, is an s1
    with P = P' = P'' = 0 for every s >= s1.  ``coeffs``, when set, are the
    coefficients of a polynomial P, trailing zeros trimmed."""

    def __init__(self, f, d1, d2, support=None, coeffs=None):
        self.f, self.d1, self.d2 = f, d1, d2
        self.support = support
        self.coeffs = coeffs


def _degree(P):
    """The degree of a polynomial profile, inf for any other."""
    return np.inf if P.coeffs is None else len(P.coeffs) - 1


def poly_profile(coeffs):
    """Polynomial sum_k coeffs[k] * s**k of finite 1-D coefficients."""
    coeffs = np.asarray(coeffs, float)
    if coeffs.ndim != 1 or len(coeffs) == 0 or not np.all(np.isfinite(coeffs)):
        raise ValueError("poly_profile needs a nonempty 1-D list of "
                         "finite coefficients")
    d1 = np.polynomial.polynomial.polyder(coeffs)
    d2 = np.polynomial.polynomial.polyder(coeffs, 2)
    P = np.polynomial.polynomial
    return Profile(lambda s: P.polyval(np.asarray(s, float), coeffs),
                   lambda s: P.polyval(np.asarray(s, float), d1),
                   lambda s: P.polyval(np.asarray(s, float), d2),
                   coeffs=P.polytrim(coeffs))


def smooth_cutoff_profile(s0, s1):
    """C^2 quintic cutoff: 1 on s <= s0, 0 on s >= s1."""
    if not s0 < s1:
        raise ValueError("need s0 < s1")
    w = s1 - s0

    def t_of(s):
        return np.clip((np.asarray(s, float) - s0) / w, 0.0, 1.0)

    def f(s):
        t = t_of(s)
        return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)

    def d1(s):
        t = t_of(s)
        inside = (t > 0) & (t < 1)
        return np.where(inside, -30.0 * t ** 2 * (1.0 - t) ** 2 / w, 0.0)

    def d2(s):
        t = t_of(s)
        inside = (t > 0) & (t < 1)
        return np.where(inside, -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / w ** 2, 0.0)

    return Profile(f, d1, d2, support=float(s1))


def _polarized_coeffs(hessian):
    """(A, C) with hessian(z) = A + _outer(z, z) @ C, for a packed Hessian
    that is a quadratic polynomial in z, read off by polarization from its
    values at 0, e_i and e_i + e_j (i < j): A = H(0), the row of C for the
    monomial z_i^2 is H(e_i) - A, and the row for z_i z_j is
    H(e_i + e_j) - H(e_i) - H(e_j) + A."""
    e = np.eye(4)
    off = UPPER_I != UPPER_J
    pts = np.vstack([np.zeros(4), e, e[UPPER_I[off]] + e[UPPER_J[off]]])
    H = hessian(pts)
    A, H_e = H[0], H[1:5]
    C = np.empty((10, 10))
    C[_DIAG] = H_e - A
    C[off] = H[5:] - H_e[UPPER_I[off]] - H_e[UPPER_J[off]] + A
    return A.copy(), C


def _add_identity(H, b):
    """H + b I for a packed (..., 10) H, in place and on the diagonal only
    (bitwise the sum with b * np.eye(4), up to the sign of zeros)."""
    H[..., _DIAG] += np.asarray(b)[..., None]
    return H


# --------------------------------------------------------------------------
# interior bumps
# --------------------------------------------------------------------------
def bump_kernel(s, third=False):
    """phi(s) = exp(-1/(1 - s)) for s < 1 and 0 otherwise, with phi' and phi''
    (and the third derivative after them when ``third``).

    The one smooth compactly supported kernel behind every bump: interior
    bumps take s = |z - c|^2/R^2, the z1-arc bump s = u^2, the
    normal-wave envelope s = |x|^2/R^2.
    """
    s = np.asarray(s, float)
    out = tuple(np.zeros_like(s) for _ in range(4 if third else 3))
    m = s < 1.0
    w = 1.0 / (1.0 - s[m])
    p = np.exp(-w)
    out[0][m] = p
    out[1][m] = -p * w * w
    out[2][m] = p * (w ** 4) - 2.0 * p * (w ** 3)
    if third:
        out[3][m] = p * (6.0 * w ** 5 - 6.0 * w ** 4 - w ** 6)
    return out


def interior_bump(center, radius, amplitude=1.0):
    """amplitude * exp(-1/(1 - |z-c|^2/R^2)) inside the ball, 0 outside."""
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    center = np.asarray(center, float)
    R2 = float(radius) ** 2
    A = float(amplitude)

    def _s(z):
        d = np.asarray(z, float) - center
        return inner(d, d) / R2, d

    def value(z):
        s, _ = _s(z)
        return A * bump_kernel(s)[0]

    def gradient(z):
        s, d = _s(z)
        out = np.zeros_like(d)
        m = s < 1.0
        if np.any(m):
            _, dphi, _ = bump_kernel(s[m])
            out[m] = (A * dphi * 2.0 / R2)[..., None] * d[m]
        return out

    def hessian(z):
        s, d = _s(z)
        out = np.zeros(s.shape + (10,))
        m = s < 1.0
        if np.any(m):
            _, dphi, d2phi = bump_kernel(s[m])
            dm = d[m]
            out[m] = _add_identity(
                (A * d2phi * (2.0 / R2) ** 2)[..., None] * _outer(dm, dm),
                A * dphi * 2.0 / R2)
        return out

    return Hamiltonian(value, gradient, hessian,
                       support_hint=(center, float(radius)),
                       admissibility_tag="interior",
                       name=f"bump(r={radius:g})")


# --------------------------------------------------------------------------
# phase-invariant families (tangent to all spheres |z| = const)
# --------------------------------------------------------------------------
def _profiled(P, c=None):
    """value, gradient, hessian of P(|z|^2) * Q(z) by the product rule, with
    Q the quadratic form of coefficients c (Q = 1 when c is None)."""
    HQ = None if c is None else _quad_hessian(c)

    def value(z):
        z = np.asarray(z, float)
        v = P.f(inner(z, z))
        return v if c is None else v * _quad_eval(z, c)[0]

    def gradient(z):
        z = np.asarray(z, float)
        s = inner(z, z)
        g = P.d1(s)[..., None] * 2.0 * z
        if c is None:
            return g
        Q, gQ = _quad_eval(z, c)
        return g * Q[..., None] + P.f(s)[..., None] * gQ

    def hessian(z):
        z = np.asarray(z, float)
        s = inner(z, z)
        Q, gQ = (1.0, None) if c is None else _quad_eval(z, c)
        d1 = 2.0 * P.d1(s)
        H = _add_identity((4.0 * P.d2(s) * Q)[..., None] * _outer(z, z), d1 * Q)
        if c is not None:
            H += d1[..., None] * (_outer(z, gQ) + _outer(gQ, z))
            H += P.f(s)[..., None] * HQ
        return H

    return value, gradient, hessian


def radial_invariant(profile, domain=None, name="radial"):
    """f(z) = profile(|z|^2); I grad f is tangent to every centered sphere.

    A polynomial profile of degree <= 2 makes the Hessian quadratic in z,
    and f then carries its ``hessian_coeffs``."""
    value, gradient, hessian = _profiled(profile)
    coeffs = _polarized_coeffs(hessian) if _degree(profile) <= 2 else None
    return Hamiltonian(value, gradient, hessian,
                       admissibility_tag=("boundary_tangent", domain),
                       name=name, hessian_coeffs=coeffs)


def _quad_hessian(c):
    """The constant packed Hess Q of Q = sum c_k f_k, for the quadratics
    f_k = |z1|^2, |z2|^2, Re(conj z1 z2), Im(conj z1 z2)."""
    H = np.zeros((4, 4))
    H[0, 0] = H[1, 1] = 2.0 * c[0]
    H[2, 2] = H[3, 3] = 2.0 * c[1]
    H[0, 2] = H[1, 3] = c[2]
    H[0, 3] = c[3]
    H[1, 2] = -c[3]
    return H[UPPER_I, UPPER_J]


def _quad_eval(z, c):
    """Q and grad Q for Q = sum c_k f_k (see :func:`_quad_hessian`)."""
    z = np.asarray(z, float)
    x1, y1, x2, y2 = (z[..., i] for i in range(4))
    Q = (c[0] * (x1 * x1 + y1 * y1) + c[1] * (x2 * x2 + y2 * y2)
         + c[2] * (x1 * x2 + y1 * y2) + c[3] * (x1 * y2 - y1 * x2))
    g = np.empty_like(z)
    g[..., 0] = 2 * c[0] * x1 + c[2] * x2 + c[3] * y2
    g[..., 1] = 2 * c[0] * y1 + c[2] * y2 - c[3] * x2
    g[..., 2] = 2 * c[1] * x2 + c[2] * x1 - c[3] * y1
    g[..., 3] = 2 * c[1] * y2 + c[2] * y1 + c[3] * x1
    return Q, g


def hopf_invariant_quadratic(c, profile=None, domain=None, name=None):
    """profile(|z|^2) * (c0 |z1|^2 + c1 |z2|^2 + c2 Re(conj z1 z2) + c3 Im(conj z1 z2)).

    Each factor is invariant under z -> e^{it} z, hence so is f; its
    Hamiltonian field is tangent to every sphere |z| = const, which makes
    it admissible for ball free-boundary variations.  No profile means the
    constant profile 1.  With a polynomial profile of degree <= 1 the
    Hessian is quadratic in z and f carries its ``hessian_coeffs``.
    """
    c = np.asarray(c, float)
    if c.shape != (4,) or not np.all(np.isfinite(c)):
        raise ValueError("need 4 finite real coefficients")
    if profile is None:
        profile = poly_profile([1.0])
    value, gradient, hessian = _profiled(profile, c)
    coeffs = _polarized_coeffs(hessian) if _degree(profile) <= 1 else None
    return Hamiltonian(value, gradient, hessian,
                       admissibility_tag=("boundary_tangent", domain),
                       name=name or f"hopf({c.tolist()})",
                       hessian_coeffs=coeffs)


def windowed_wave(k, profile, axis=0, name=None):
    """f = sin(k z_axis)/k * profile(|z|^2): an oscillatory interior probe.

    The radial window makes the function compactly supported inside the
    unit ball (hence trivially admissible there); the oscillation makes
    it sensitive to short-scale non-Hamiltonian perturbations that the
    smooth families cannot see against their Hessian normalization.  The
    profile must declare a ``support`` s1 in (0, 1) (as
    :func:`smooth_cutoff_profile` does), and the support ball has radius
    sqrt(s1).
    """
    P = profile
    if P.support is None or not 0.0 < P.support < 1.0:
        raise ValueError("windowed_wave needs a profile supported in "
                         "0 < s < 1")
    e_axis = np.zeros(4)
    e_axis[axis] = 1.0
    axis_slot = _DIAG[axis]

    def value(z):
        z = np.asarray(z, float)
        s = inner(z, z)
        return np.sin(k * z[..., axis]) / k * P.f(s)

    def gradient(z):
        z = np.asarray(z, float)
        s = inner(z, z)
        g = 2.0 * P.d1(s)[..., None] * z * (np.sin(k * z[..., axis]) / k)[..., None]
        g[..., axis] += np.cos(k * z[..., axis]) * P.f(s)
        return g

    def hessian(z):
        z = np.asarray(z, float)
        s = inner(z, z)
        sin_ = np.sin(k * z[..., axis]) / k
        cos_ = np.cos(k * z[..., axis])
        d1 = 2.0 * P.d1(s)
        H = _add_identity((4.0 * P.d2(s) * sin_)[..., None] * _outer(z, z),
                          d1 * sin_)
        H += (d1 * cos_)[..., None] * (_outer(z, e_axis) + _outer(e_axis, z))
        H[..., axis_slot] += -k * np.sin(k * z[..., axis]) * P.f(s)
        return H

    return Hamiltonian(value, gradient, hessian,
                       support_hint=(np.zeros(4), float(np.sqrt(P.support))),
                       admissibility_tag="interior",
                       name=name or f"wave(k={k:g},axis={axis})")


def admissibility_residual(f, pts, normals):
    """max over the boundary points ``pts`` of |<I grad f, N>| / (|grad f| +
    eps), with N the unit normals there (e.g. ``domain.normal_at(pts)``)."""
    grad = np.atleast_2d(f.gradient(np.atleast_2d(np.asarray(pts, float))))
    num = np.abs(inner(apply_I(grad), normals))
    den = algebra.norm(grad) + EPS
    return float(np.max(num / den))


# --------------------------------------------------------------------------
# test functions adapted to the z1-unit-circle constraint curve
# --------------------------------------------------------------------------
def _plateau(rho2, r_in, r_out, derivatives=False):
    """Smooth cutoff of a squared distance: 1 for rho2 <= r_in^2, 0 for
    rho2 >= r_out^2, the C^infinity blend P(x) = h(x)/(h(x) + h(1-x)) with
    h(x) = exp(-1/x) in between, x = (r_out^2 - rho2)/(r_out^2 - r_in^2).

    With ``derivatives`` it returns P and its first two derivatives in
    rho2, from P' = P Q L and P'' = P Q ((Q - P) L^2 + L'), where
    Q = 1 - P and L = 1/x^2 + 1/(1-x)^2.
    """
    span = r_out ** 2 - r_in ** 2
    x = np.clip((r_out ** 2 - rho2) / span, 0.0, 1.0)
    xm = 1.0 - x
    hx = np.where(x > 0, np.exp(-1.0 / np.maximum(x, EPS)), 0.0)
    hm = np.where(xm > 0, np.exp(-1.0 / np.maximum(xm, EPS)), 0.0)
    P = hx / (hx + hm)
    if not derivatives:
        return P
    Q = hm / (hx + hm)
    x, xm = np.maximum(x, EPS), np.maximum(xm, EPS)
    L = 1.0 / x ** 2 + 1.0 / xm ** 2
    dL = 2.0 / xm ** 3 - 2.0 / x ** 3
    return P, -P * Q * L / span, P * Q * ((Q - P) * L * L + dL) / span ** 2


def _arc_bump(x, center, width):
    """exp(-1/(1-u^2)) with u = (x - center)/width, and its first three
    derivatives in x."""
    u = (np.asarray(x, float) - center) / width
    b, d1, d2, d3 = bump_kernel(u * u, third=True)
    return (b, 2.0 * u * d1 / width, (4.0 * u * u * d2 + 2.0 * d1) / width ** 2,
            (8.0 * u ** 3 * d3 + 12.0 * u * d2) / width ** 3)


# the inner and outer radius of the z1-arc functions' plateau cutoff in |R - 1|
R_WINDOW = (0.15, 0.4)


def z1_arc_hamiltonian(center, width, domain=None, name=None):
    """Test function of z1 alone, tangent to the curve {(e^{-ia}, ib)}.

    With R = |z1| and phi = arg z1, set f = eta(R) * (A(phi)(R - 1) +
    B(phi)) where eta is the plateau cutoff of (R - 1)^2 with radii
    ``R_WINDOW``, B is a smooth bump supported in the phi-arc
    [center - width, center + width] (which must avoid phi = 0 and stay
    inside (-1, 1)), and A = (1 - phi^2) B'/phi.  On the curve R = 1 and
    phi = -x, so this A solves x f_R = G y f_phi with G = -y, which is
    <I grad f, X> = 0 (see :class:`lagdisc.families.NonMinimalMap`).

    Gradient and Hessian are closed forms: the partials of f in (R, phi)
    pushed to Cartesian coordinates by the polar chain rule.
    """
    lo, hi = center - width, center + width
    if not (-1.0 < lo < hi < 1.0) or lo * hi <= 0:
        raise ValueError("phi-arc must avoid 0 and stay inside (-1, 1)")
    w_in, w_out = R_WINDOW

    def _terms(phi):
        """A, A', A'' and B, B', B'' at phi; A vanishes off the arc."""
        b, b1, b2, b3 = _arc_bump(phi, center, width)
        A = np.zeros((3,) + phi.shape)
        m = (phi > lo) & (phi < hi)
        pm, b1m, b2m = phi[m], b1[m], b2[m]
        # A = g B' with g = (1 - phi^2)/phi, g' = -(1 + phi^2)/phi^2 and
        # g'' = 2/phi^3
        g = (1.0 - pm ** 2) / pm
        g1 = -(1.0 + pm ** 2) / pm ** 2
        A[0][m] = g * b1m
        A[1][m] = g1 * b1m + g * b2m
        A[2][m] = 2.0 / pm ** 3 * b1m + 2.0 * g1 * b2m + g * b3[m]
        return A, (b, b1, b2)

    def value(z):
        z = np.asarray(z, float)
        R = np.hypot(z[..., 0], z[..., 1])
        (A, _, _), (b, _, _) = _terms(np.arctan2(z[..., 1], z[..., 0]))
        return _plateau((R - 1.0) ** 2, w_in, w_out) * (A * (R - 1.0) + b)

    def _polar_partials(z, second):
        """Support mask of the window, then cos, sin, R and the partials
        f_R, f_phi (and f_RR, f_Rphi, f_phiphi when ``second``) on it."""
        R = np.hypot(z[..., 0], z[..., 1])
        m = (R - 1.0) ** 2 < w_out ** 2
        Rm, pm = R[m], np.arctan2(z[..., 1][m], z[..., 0][m])
        d = Rm - 1.0
        eta, e1, e2 = _plateau(d * d, w_in, w_out, derivatives=True)
        eta_R, eta_RR = 2.0 * d * e1, 4.0 * d * d * e2 + 2.0 * e1
        (A, A1, A2), (b, b1, b2) = _terms(pm)
        g, g_phi = A * d + b, A1 * d + b1
        partials = [eta_R * g + eta * A, eta * g_phi]
        if second:
            partials += [eta_RR * g + 2.0 * eta_R * A,
                         eta_R * g_phi + eta * A1,
                         eta * (A2 * d + b2)]
        return m, np.cos(pm), np.sin(pm), Rm, partials

    def gradient(z):
        z = np.asarray(z, float)
        out = np.zeros(z.shape)
        m, c, s, R, (fR, fphi) = _polar_partials(z, second=False)
        out[..., 0][m] = c * fR - s * fphi / R
        out[..., 1][m] = s * fR + c * fphi / R
        return out

    def hessian(z):
        z = np.asarray(z, float)
        out = np.zeros(z.shape[:-1] + (10,))
        m, c, s, R, (fR, fphi, fRR, fRphi, fpp) = _polar_partials(z, second=True)
        # second derivatives in (x1, y1) from the polar partials; packed
        # slots 0, 1 and 4 are H[0, 0], H[0, 1] and H[1, 1]
        radial = fR / R + fpp / R ** 2
        twist = fRphi / R - fphi / R ** 2
        cs, c2, s2 = c * s, c * c, s * s
        out[..., 0][m] = c2 * fRR + s2 * radial - 2.0 * cs * twist
        out[..., 4][m] = s2 * fRR + c2 * radial + 2.0 * cs * twist
        out[..., 1][m] = cs * (fRR - radial) + (c2 - s2) * twist
        return out

    return Hamiltonian(value, gradient, hessian,
                       admissibility_tag=("boundary_tangent", domain),
                       name=name or f"z1arc({center:g},{width:g})")
