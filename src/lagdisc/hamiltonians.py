"""Admissible Hamiltonian test functions on C^2.

A Hamiltonian carries value/gradient/Hessian callables (all batched over
(..., 4) arrays) and an optional support ball.  The value is (...,), the
gradient (..., 4), and the Hessian, being symmetric, comes packed: its
upper triangle as (..., 10) in ``np.triu_indices(4)`` order
(:data:`UPPER_I`, :data:`UPPER_J`), which :func:`unpack_hessian` turns
back into the (..., 4, 4) matrix.  The support ball decides which rule
makes f admissible: a function with one must keep that ball inside the
domain, so that I grad(f) vanishes near the constraint boundary; a
function without one must satisfy <I grad f, N> = 0 along that boundary
(see :func:`admissibility_residual`).

Families:

* smooth interior bumps;
* functions of |z|^2 (radially invariant);
* quadratics invariant under z -> e^{it} z (phase-invariant), optionally
  multiplied by a radial profile -- these generate flows tangent to
  every sphere around the origin;
* windowed waves: oscillatory interior probes;
* functions of z1 adapted to the z1-unit-circle constraint curve,
  windowed around |z1| = 1 by the quintic :func:`smooth_cutoff_profile`.
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

    ``support_hint``, (center (4,), radius) or None, is a ball outside
    which f vanishes.  f is admissible when that ball lies inside the
    domain or, without a ball, when I grad f is tangent to its boundary.
    """

    def __init__(self, value, gradient, hessian, support_hint=None,
                 name="", hessian_coeffs=None):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian
        self.support_hint = support_hint
        self.name = name
        self.hessian_coeffs = hessian_coeffs

    def __repr__(self):
        return f"Hamiltonian({self.name or 'anonymous'})"


# --------------------------------------------------------------------------
# scalar profiles P(s) with two derivatives
# --------------------------------------------------------------------------
class Profile:
    """A scalar profile: ``P(s)`` returns (P, P', P'') at s.  ``support``,
    when set, is an s1 with P = P' = P'' = 0 for every s >= s1, and
    ``plateau`` an s0 < s1 with P = 1 and P' = P'' = 0 for every s <= s0.
    ``coeffs``, when set, are the coefficients of a polynomial P, trailing
    zeros trimmed."""

    def __init__(self, fn, support=None, coeffs=None, plateau=None):
        self._fn = fn
        self.support, self.plateau = support, plateau
        self.coeffs = coeffs

    def __call__(self, s):
        return self._fn(s)


def _degree(P):
    """The degree of a polynomial profile, inf for any other."""
    return np.inf if P.coeffs is None else len(P.coeffs) - 1


def poly_profile(coeffs):
    """Polynomial sum_k coeffs[k] * s**k of finite 1-D coefficients."""
    coeffs = np.asarray(coeffs, float)
    if coeffs.ndim != 1 or len(coeffs) == 0 or not np.all(np.isfinite(coeffs)):
        raise ValueError("poly_profile needs a nonempty 1-D list of "
                         "finite coefficients")
    P = np.polynomial.polynomial
    derivatives = (coeffs, P.polyder(coeffs), P.polyder(coeffs, 2))

    def profile(s):
        s = np.asarray(s, float)
        return tuple(P.polyval(s, c) for c in derivatives)

    return Profile(profile, coeffs=P.polytrim(coeffs))


def smooth_cutoff_profile(s0, s1):
    """C^2 quintic cutoff: exactly 1 on its ``plateau`` s <= s0, exactly 0 on
    s >= s1, its ``support``, and P' = P'' = 0 on both."""
    if not s0 < s1:
        raise ValueError("need s0 < s1")
    w = s1 - s0

    def profile(s):
        t = np.clip((np.asarray(s, float) - s0) / w, 0.0, 1.0)
        inside = (t > 0) & (t < 1)
        return (1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t),
                np.where(inside, -30.0 * t ** 2 * (1.0 - t) ** 2 / w, 0.0),
                np.where(inside, -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / w ** 2,
                         0.0))

    return Profile(profile, support=float(s1), plateau=float(s0))


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


def _profiled(P, factor=None, center=None, scale=1.0):
    """value, gradient, hessian of f(z) = P(s) Q(z), s = |z - c|^2/scale, by
    the product rule: with d = z - c, P1 = 2 P'/scale and P2 = 4 P''/scale^2,

        grad f = P1 Q d + P grad Q,
        Hess f = P2 Q d (x) d + P1 Q I + P1 (d (x) grad Q + grad Q (x) d)
                 + P Hess Q,

    the identity term added on the diagonal slots only.  ``factor`` is the
    triple (Q, grad Q, packed Hess Q) of callables of z, Q = 1 when it is
    None, and ``center`` c is 0 when None.

    With a ``support`` s1 the Hessian runs the rule only on the rows with
    s < s1 and, with a ``plateau`` s0, s > s0 (and on NaN rows); rows past
    s1 are 0 and rows on the plateau Hess Q (0 for Q = 1), which is what the
    rule gives there up to the sign of a zero.
    """
    def _at(z):
        z = np.asarray(z, float)
        d = z if center is None else z - center
        return z, d, inner(d, d) / scale

    def value(z):
        z, _, s = _at(z)
        v = P(s)[0]
        return v if factor is None else v * factor[0](z)

    def gradient(z):
        z, d, s = _at(z)
        p, p1, _ = P(s)
        g = (p1 * 2.0 / scale)[..., None] * d
        if factor is None:
            return g
        return g * factor[0](z)[..., None] + p[..., None] * factor[1](z)

    def rule(z, d, s):
        p, p1, p2 = P(s)
        p1 = p1 * 2.0 / scale
        Q = 1.0 if factor is None else factor[0](z)
        H = (p2 * (2.0 / scale) ** 2 * Q)[..., None] * _outer(d, d)
        H[..., _DIAG] += (p1 * Q)[..., None]
        if factor is not None:
            gQ = factor[1](z)
            H += p1[..., None] * (_outer(d, gQ) + _outer(gQ, d))
            H += p[..., None] * factor[2](z)
        return H

    def hessian(z):
        z, d, s = _at(z)
        if P.support is None:
            return rule(z, d, s)
        flat = s <= P.plateau if P.plateau is not None else False
        band = ~(flat | (s >= P.support))
        if np.all(band):
            return rule(z, d, s)
        # Fortran order, as the rule's output, so that the stationarity
        # kernel contracts it without a copy
        H = np.zeros(s.shape + (10,), order="F")
        if factor is not None and np.any(flat):
            H[flat] = factor[2](z[flat])
        H[band] = rule(z[band], d[band], s[band])
        return H

    return value, gradient, hessian


# --------------------------------------------------------------------------
# interior bumps
# --------------------------------------------------------------------------
def bump_kernel(s, third=False):
    """phi(s) = exp(-1/(1 - s)) for s < 1, 0 for s >= 1 and NaN for NaN, with
    phi' and phi'' (and the third derivative after them when ``third``).

    The one smooth compactly supported kernel behind every bump: interior
    bumps take s = |z - c|^2/R^2, the z1-arc bump s = u^2, the
    normal-wave envelope s = |x|^2/R^2.
    """
    s = np.asarray(s, float)
    out = tuple(np.zeros_like(s) for _ in range(4 if third else 3))
    m = ~(s >= 1.0)             # NaN rows too, which the outputs keep
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
    if not radius > 0:
        raise ValueError("bump radius must be positive")
    center = np.asarray(center, float)
    A = float(amplitude)
    bump = Profile(lambda s: tuple(A * k for k in bump_kernel(s)), support=1.0)
    value, gradient, hessian = _profiled(bump, center=center,
                                         scale=float(radius) ** 2)
    return Hamiltonian(value, gradient, hessian,
                       support_hint=(center, float(radius)),
                       name=f"bump(r={radius:g})")


# --------------------------------------------------------------------------
# phase-invariant families (tangent to all spheres |z| = const)
# --------------------------------------------------------------------------
def radial_invariant(profile, name="radial"):
    """f(z) = profile(|z|^2); I grad f is tangent to every centered sphere.

    A polynomial profile of degree <= 2 makes the Hessian quadratic in z,
    and f then carries its ``hessian_coeffs``."""
    value, gradient, hessian = _profiled(profile)
    coeffs = _polarized_coeffs(hessian) if _degree(profile) <= 2 else None
    return Hamiltonian(value, gradient, hessian,
                       name=name, hessian_coeffs=coeffs)


def _quadratic_form(c):
    """The factor (Q, grad Q, packed Hess Q) of Q = sum c_k f_k, for the
    quadratics f_k = |z1|^2, |z2|^2, Re(conj z1 z2), Im(conj z1 z2); Hess Q
    is the constant (10,) array."""
    H = np.zeros((4, 4))
    H[0, 0] = H[1, 1] = 2.0 * c[0]
    H[2, 2] = H[3, 3] = 2.0 * c[1]
    H[0, 2] = H[1, 3] = c[2]
    H[0, 3] = c[3]
    H[1, 2] = -c[3]
    HQ = H[UPPER_I, UPPER_J]

    def value(z):
        x1, y1, x2, y2 = (z[..., i] for i in range(4))
        return (c[0] * (x1 * x1 + y1 * y1) + c[1] * (x2 * x2 + y2 * y2)
                + c[2] * (x1 * x2 + y1 * y2) + c[3] * (x1 * y2 - y1 * x2))

    def gradient(z):
        x1, y1, x2, y2 = (z[..., i] for i in range(4))
        g = np.empty_like(z)
        g[..., 0] = 2 * c[0] * x1 + c[2] * x2 + c[3] * y2
        g[..., 1] = 2 * c[0] * y1 + c[2] * y2 - c[3] * x2
        g[..., 2] = 2 * c[1] * x2 + c[2] * x1 - c[3] * y1
        g[..., 3] = 2 * c[1] * y2 + c[2] * y1 + c[3] * x1
        return g

    return value, gradient, lambda z: HQ


def hopf_invariant_quadratic(c, profile=None, name=None):
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
    value, gradient, hessian = _profiled(profile, _quadratic_form(c))
    coeffs = _polarized_coeffs(hessian) if _degree(profile) <= 1 else None
    return Hamiltonian(value, gradient, hessian,
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
    if profile.support is None or not 0.0 < profile.support < 1.0:
        raise ValueError("windowed_wave needs a profile supported in "
                         "0 < s < 1")
    if not (np.isfinite(k) and k != 0):
        raise ValueError("windowed_wave needs a finite nonzero k")
    if not (isinstance(axis, (int, np.integer)) and 0 <= axis <= 3):
        raise ValueError("windowed_wave needs an int axis in 0..3")
    e = np.eye(4)[axis]
    sine = (lambda z: np.sin(k * z[..., axis]) / k,
            lambda z: np.cos(k * z[..., axis])[..., None] * e,
            lambda z: -k * np.sin(k * z[..., axis])[..., None] * _outer(e, e))
    value, gradient, hessian = _profiled(profile, sine)
    return Hamiltonian(value, gradient, hessian,
                       support_hint=(np.zeros(4), float(np.sqrt(profile.support))),
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
def _arc_bump(x, center, width):
    """exp(-1/(1-u^2)) with u = (x - center)/width, and its first three
    derivatives in x."""
    u = (np.asarray(x, float) - center) / width
    b, d1, d2, d3 = bump_kernel(u * u, third=True)
    return (b, 2.0 * u * d1 / width, (4.0 * u * u * d2 + 2.0 * d1) / width ** 2,
            (8.0 * u * u * u * d3 + 12.0 * u * d2) / width ** 3)


# z1-arc window: 1 for |R - 1| <= R_WINDOW[0], 0 for |R - 1| >= R_WINDOW[1]
R_WINDOW = (0.15, 0.4)


def z1_arc_hamiltonian(center, width, name=None):
    """Test function of z1 alone, tangent to the curve {(e^{-ia}, ib)}.

    With R = |z1| and phi = arg z1, set f = eta(R) * (A(phi)(R - 1) +
    B(phi)) where eta is the quintic :func:`smooth_cutoff_profile` of
    (R - 1)^2 between the squared radii ``R_WINDOW``, B is a smooth bump
    supported in the phi-arc [center - width, center + width] (which must
    avoid phi = 0 and stay inside (-1, 1)), and A = (1 - phi^2) B'/phi.
    On the curve R = 1 and phi = -x, so this A solves x f_R = G y f_phi
    with G = -y, which is <I grad f, X> = 0 (see
    :class:`lagdisc.families.NonMinimalMap`).

    Gradient and Hessian are closed forms: the partials of f in (R, phi)
    pushed to Cartesian coordinates by the polar chain rule.
    """
    lo, hi = center - width, center + width
    if not (-1.0 < lo < hi < 1.0) or lo * hi <= 0:
        raise ValueError("phi-arc must avoid 0 and stay inside (-1, 1)")
    window = smooth_cutoff_profile(R_WINDOW[0] ** 2, R_WINDOW[1] ** 2)

    def _terms(phi):
        """A, A', A'' and B, B', B'' at phi on the open arc."""
        b, b1, b2, b3 = _arc_bump(phi, center, width)
        # A = g B' with g = (1 - phi^2)/phi, g' = -(1 + phi^2)/phi^2 and
        # g'' = 2/phi^3
        g = (1.0 - phi ** 2) / phi
        g1 = -(1.0 + phi ** 2) / phi ** 2
        A = (g * b1, g1 * b1 + g * b2,
             2.0 / phi ** 3 * b1 + 2.0 * g1 * b2 + g * b3)
        return A, (b, b1, b2)

    def _support(z):
        """The mask of the rows in the window's support (R - 1)^2 < s1 and on
        the open arc lo < phi < hi, with R and phi on them.  Off it A, B
        and all their derivatives vanish, so f and its partials are 0 there
        and the callers' zero rows stand for them (up to the sign of a
        zero)."""
        R = np.hypot(z[..., 0], z[..., 1])
        # an array even for a single point, so that it takes item assignment
        m = np.asarray((R - 1.0) ** 2 < window.support)
        phi = np.arctan2(z[..., 1][m], z[..., 0][m])
        arc = (phi > lo) & (phi < hi)
        m[m] = arc
        return m, R[m], phi[arc]

    def value(z):
        z = np.asarray(z, float)
        out = np.zeros(z.shape[:-1])
        m, R, phi = _support(z)
        (A, _, _), (b, _, _) = _terms(phi)
        out[m] = window((R - 1.0) ** 2)[0] * (A * (R - 1.0) + b)
        return out

    def _polar_partials(z, second):
        """The window mask narrowed to the arc (see :func:`_support`), then
        cos, sin, R and the partials f_R, f_phi (and f_RR, f_Rphi,
        f_phiphi when ``second``) on it."""
        m, Rm, pm = _support(z)
        d = Rm - 1.0
        eta, e1, e2 = window(d * d)
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
                       name=name or f"z1arc({center:g},{width:g})")
