import numpy as np
import pytest

from lagdisc import algebra as alg
from lagdisc import domains as dom
from lagdisc import hamiltonians as hams
from lagdisc import mesh as msh
from lagdisc.families import nonminimal_map, sample
from conftest import (centred_differences, unbanded_profiled_hessian,
                      z1_arc_reference_gradient)

BALL = dom.unit_ball()


def fd_gradient_error(f, pts, step=1e-4):
    """Richardson-extrapolated centered differences at steps (h, h/2).

    The extrapolation removes the h^2 truncation term (dominant near the
    steep walls of exponential bumps), so the returned number measures
    implementation error, not step-size error.
    """
    g = np.atleast_2d(f.gradient(pts))
    worst = 0.0
    for k in range(4):
        e = np.zeros(4)
        e[k] = step
        fd1 = (f.value(pts + e) - f.value(pts - e)) / (2 * step)
        fd2 = (f.value(pts + e / 2) - f.value(pts - e / 2)) / step
        fd = (4.0 * fd2 - fd1) / 3.0
        worst = max(worst, float(np.max(np.abs(fd - g[:, k]))))
    return worst


def fd_hessian_error(f, pts, step=1e-4):
    """Richardson-extrapolated differences of the gradient (see above)."""
    H = hams.unpack_hessian(f.hessian(pts))
    worst = 0.0
    for k in range(4):
        e = np.zeros(4)
        e[k] = step
        fd1 = (np.atleast_2d(f.gradient(pts + e))
               - np.atleast_2d(f.gradient(pts - e))) / (2 * step)
        fd2 = (np.atleast_2d(f.gradient(pts + e / 2))
               - np.atleast_2d(f.gradient(pts - e / 2))) / step
        fd = (4.0 * fd2 - fd1) / 3.0
        err = np.abs(fd - H[:, :, k]) / (1.0 + np.abs(H[:, :, k]))
        worst = max(worst, float(np.max(err)))
    return worst


def sphere_points(rng, n=100):
    z = rng.normal(size=(n, 4))
    return z / alg.norm(z)[:, None]


# ---------------------------------------------------------------------------
# interior bumps
# ---------------------------------------------------------------------------
def test_bump_center_value_and_support(rng):
    c = np.array([0.2, 0.0, -0.1, 0.0])
    f = hams.interior_bump(c, 0.5, amplitude=1.3)
    assert f.value(c[None])[0] == pytest.approx(1.3 / np.e, rel=1e-14)
    far = c + np.array([0.6, 0, 0, 0])
    assert f.value(far[None])[0] == 0.0
    assert np.all(f.gradient(far[None]) == 0.0)


def test_bump_fd_checks(rng):
    f = hams.interior_bump(np.array([0.2, 0.1, -0.1, 0.0]), 0.5, 1.3)
    pts = rng.normal(size=(100, 4)) * 0.4
    assert fd_gradient_error(f, pts) <= 1e-6
    assert fd_hessian_error(f, pts) <= 1e-6


def test_bump_invalid_radius():
    for bad in (-0.1, 0.0, float("nan")):
        with pytest.raises(ValueError, match="bump radius must be positive"):
            hams.interior_bump(np.zeros(4), bad)


def test_bump_kernel_derivatives():
    s = np.linspace(-2.0, 0.95, 2001)
    phi, d1, d2 = hams.bump_kernel(s)
    h = 1e-6
    p_plus, d1_plus, _ = hams.bump_kernel(s + h)
    p_minus, d1_minus, _ = hams.bump_kernel(s - h)
    assert np.max(np.abs((p_plus - p_minus) / (2 * h) - d1)) <= 1e-8 * np.max(np.abs(d1))
    assert np.max(np.abs((d1_plus - d1_minus) / (2 * h) - d2)) <= 1e-7 * np.max(np.abs(d2))
    out = hams.bump_kernel(np.array([1.0, 1.5, 7.0]))
    assert all(np.all(k == 0.0) for k in out)
    assert hams.bump_kernel(0.0)[0] == np.exp(-1.0)


def _old_interior_bump(center, radius, amplitude):
    """Reference: interior_bump with its own copy of the kernel."""
    center = np.asarray(center, float)
    R2, A = float(radius) ** 2, float(amplitude)

    def _s(z):
        d = np.asarray(z, float) - center
        return np.sum(d * d, axis=-1) / R2, d

    def value(z):
        s, _ = _s(z)
        out = np.zeros_like(s)
        m = s < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m]))
        return A * out

    def gradient(z):
        s, d = _s(z)
        out = np.zeros_like(d)
        m = s < 1.0
        w = 1.0 / (1.0 - s[m])
        out[m] = (A * (-np.exp(-w) * w * w) * 2.0 / R2)[..., None] * d[m]
        return out

    def hessian(z):
        s, d = _s(z)
        out = np.zeros(s.shape + (4, 4))
        m = s < 1.0
        w = 1.0 / (1.0 - s[m])
        phi = np.exp(-w)
        dphi = -phi * w * w
        d2phi = phi * (w ** 4) - 2.0 * phi * (w ** 3)
        dm = d[m]
        outer = dm[..., :, None] * dm[..., None, :]
        out[m] = (A * d2phi * (2.0 / R2) ** 2)[..., None, None] * outer \
            + (A * dphi * 2.0 / R2)[..., None, None] * np.eye(4)
        return out

    return value, gradient, hessian


def test_interior_bump_bitwise_matches_own_kernel(rng):
    """Values, gradients and Hessians are bitwise the closed form on rows
    inside, exactly on and past the support sphere; a NaN row gives a NaN
    value, gradient and Hessian."""
    # dyadic centers and radii, so that the rows on the sphere are exact
    for center, radius, amp in [(np.zeros(4), 0.5, 1.0),
                                (np.array([0.125, -0.25, 0.375, 0.0]), 0.875,
                                 -1.3)]:
        z = rng.uniform(-1.0, 1.0, size=(2000, 4))
        z[:4] = center + radius * np.eye(4)          # |z - c|^2/R^2 = 1
        f = hams.interior_bump(center, radius, amp)
        hessian = lambda x: hams.unpack_hessian(f.hessian(x))  # noqa: E731
        for got, want in zip((f.value, f.gradient, hessian),
                             _old_interior_bump(center, radius, amp)):
            assert np.array_equal(got(z), want(z))
            assert np.array_equal(got(z[0]), want(z[0]))
            assert np.array_equal(got(z[5]), want(z[5]))
        s = alg.inner(z - center, z - center) / radius ** 2
        assert np.all(s[:4] == 1.0) and np.any(s < 1.0) and np.any(s > 1.0)
        z[7] = np.nan
        for fn in (f.value, f.gradient, f.hessian):
            out = fn(z)
            assert np.all(np.isnan(out[7])) and np.all(np.isfinite(out[8:]))


def _old_bump_1d(x, c, w):
    """Reference: the z1-arc bump exp(-1/(1-u^2)) with hand-derived derivatives."""
    u = (np.asarray(x, float) - c) / w
    f, d1, d2 = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    m = np.abs(u) < 1.0
    um = u[m]
    q = 1.0 - um ** 2
    b = np.exp(-1.0 / q)
    f[m] = np.exp(-1.0 / (1.0 - um ** 2))
    d1[m] = b * (-2.0 * um / (q * q)) / w
    d2[m] = b * (4.0 * um * um / q ** 4 - 2.0 / (q * q) - 8.0 * um * um / q ** 3) / w ** 2
    return f, d1, d2


@pytest.mark.parametrize("center,width", [(0.45, 0.35), (-0.6, 0.25), (0.35, 0.25)])
def test_arc_bump_matches_hand_derivatives(center, width):
    x = np.linspace(-1.0, 1.0, 4001)
    got = hams._arc_bump(x, center, width)
    want = _old_bump_1d(x, center, width)
    assert np.array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def test_plateau_cutoff():
    # the z1-arc functions' window, a quintic cutoff in rho^2 = (R - 1)^2
    rho = np.linspace(0.0, 1.0, 1001)
    window = hams.smooth_cutoff_profile(0.15 ** 2, 0.4 ** 2)
    eta = window(rho ** 2)[0]
    assert np.all(eta[rho <= 0.15] == 1.0) and np.all(eta[rho >= 0.4] == 0.0)
    assert np.all((eta >= 0.0) & (eta <= 1.0)) and np.all(np.diff(eta) <= 0.0)
    assert 0.0 < window(0.275 ** 2)[0] < 1.0
    assert (window.plateau, window.support) == (0.15 ** 2, 0.4 ** 2)


def test_centred_differences_exact_on_quadratics(rng):
    f = hams.hopf_invariant_quadratic([0.3, -1.0, 0.5, 0.2])
    z = rng.normal(size=(30, 4))
    g = centred_differences(f.value, z, 1e-3)
    assert np.max(np.abs(g - f.gradient(z))) <= 1e-10
    H = centred_differences(f.gradient, z, 1e-3, symmetrize=True)
    assert np.max(np.abs(H - hams.unpack_hessian(f.hessian(z)))) <= 1e-10
    assert centred_differences(f.gradient, z[0], 1e-3).shape == (4, 4)


# ---------------------------------------------------------------------------
# radially invariant functions
# ---------------------------------------------------------------------------
def test_radial_gradient_and_admissibility(rng):
    f = hams.radial_invariant(hams.poly_profile([0.0, 1.0]))
    z = rng.normal(size=(50, 4))
    assert np.max(np.abs(f.gradient(z) - 2 * z)) <= 1e-13
    s3 = sphere_points(rng)
    assert hams.admissibility_residual(f, s3, BALL.normal_at(s3)) <= 1e-14


def test_radial_constant_profile():
    f = hams.radial_invariant(hams.poly_profile([2.5]))
    z = np.random.default_rng(0).normal(size=(20, 4))
    assert np.all(f.gradient(z) == 0.0)


def test_radial_s2_fd(rng):
    f = hams.radial_invariant(hams.poly_profile([0.0, 0.0, 1.0]))
    pts = rng.normal(size=(100, 4)) * 0.7
    assert fd_gradient_error(f, pts) <= 1e-6
    assert fd_hessian_error(f, pts) <= 1e-6


# ---------------------------------------------------------------------------
# phase-invariant quadratics
# ---------------------------------------------------------------------------
def test_hopf_admissibility(rng):
    f = hams.hopf_invariant_quadratic([1, 0, 0, 0])
    s3 = sphere_points(rng)
    assert hams.admissibility_residual(f, s3, BALL.normal_at(s3)) <= 1e-14


def test_hopf_values():
    f = hams.hopf_invariant_quadratic([0, 0, 1, 0])
    assert f.value(np.array([[1.0, 0, 0, 0]]))[0] == 0.0
    v = np.array([[1.0, 0, 1.0, 0]]) / np.sqrt(2)
    assert f.value(v)[0] == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("c", [[1.0, 0.0, 0.0, 0.0], [0.3, 0.1, -0.7, 0.2],
                               [-2.5, 1.25, 0.6, -0.9]])
def test_unprofiled_hopf_is_the_constant_profile_one(rng, c):
    """No profile is P = 1: value, gradient, Hessian and hessian_coeffs are
    bitwise those of ``_profiled(poly_profile([1.0]), Q)`` and of the plain
    quadratic form Q, grad Q and Hess Q."""
    f = hams.hopf_invariant_quadratic(c)
    factor = hams._quadratic_form(np.asarray(c))
    value, gradient, hessian = hams._profiled(hams.poly_profile([1.0]), factor)
    z = rng.normal(size=(1000, 4))
    Q, gQ = factor[0](z), factor[1](z)
    HQ = np.broadcast_to(factor[2](z), (1000, 10))
    for got, want, plain in ((f.value(z), value(z), Q),
                             (f.gradient(z), gradient(z), gQ),
                             (f.hessian(z), hessian(z), HQ)):
        assert np.array_equal(got, want) and np.array_equal(got, plain)
    A, C = f.hessian_coeffs
    A_want, C_want = hams._polarized_coeffs(hessian)
    assert np.array_equal(A, A_want) and np.array_equal(C, C_want)
    assert np.array_equal(A, HQ[0]) and not np.any(C)


def test_hopf_phase_invariance(rng):
    f = hams.hopf_invariant_quadratic(
        [0.5, -1.0, 0.25, 0.7],
        profile=hams.smooth_cutoff_profile(0.4, 0.95))
    z = rng.normal(size=(100, 4)) * 0.6
    t = rng.uniform(0, 2 * np.pi, 100)
    z_rot = alg.complex_scale(np.exp(1j * t), z)
    assert np.max(np.abs(f.value(z_rot) - f.value(z))) <= 1e-14


def test_hopf_profile_fd(rng):
    f = hams.hopf_invariant_quadratic(
        [1.0, 0.2, -0.4, 0.6], profile=hams.smooth_cutoff_profile(0.3, 0.9))
    pts = rng.normal(size=(100, 4)) * 0.5
    assert fd_gradient_error(f, pts) <= 1e-6
    assert fd_hessian_error(f, pts) <= 1e-6


def test_hopf_bad_coefficients():
    with pytest.raises(ValueError, match="need 4 finite real coefficients"):
        hams.hopf_invariant_quadratic([1, 2, 3])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hopf_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="need 4 finite real coefficients"):
        hams.hopf_invariant_quadratic([1.0, 0.0, bad, 0.0])


# ---------------------------------------------------------------------------
# windowed wave probe
# ---------------------------------------------------------------------------
def test_windowed_wave_fd(rng):
    f = hams.windowed_wave(26.0, hams.smooth_cutoff_profile(0.75, 0.92))
    pts = rng.normal(size=(100, 4)) * 0.5
    assert fd_gradient_error(f, pts, step=1e-5) <= 1e-5
    assert fd_hessian_error(f, pts, step=1e-5) <= 1e-4


def test_windowed_wave_support_from_profile():
    f = hams.windowed_wave(10.0, hams.smooth_cutoff_profile(0.75, 0.92))
    assert f.support_hint[1] == np.sqrt(0.92)
    # a profile without a declared support, or one reaching the sphere, would
    # make the interior tag false: 1 at |z| = 0.99 gives a nonzero value there
    for P in (hams.poly_profile([1.0]), hams.smooth_cutoff_profile(0.5, 1.2),
              hams.smooth_cutoff_profile(-0.5, 0.0)):
        with pytest.raises(ValueError, match="windowed_wave needs a profile"):
            hams.windowed_wave(10.0, P)


@pytest.mark.parametrize("k", [0.0, np.inf, np.nan])
def test_windowed_wave_rejects_a_degenerate_k(k):
    # sin(k z)/k is 0/0 at k = 0
    with pytest.raises(ValueError, match="finite nonzero k"):
        hams.windowed_wave(k, hams.smooth_cutoff_profile(0.75, 0.92))


@pytest.mark.parametrize("axis", [-1, 4, 1.0])
def test_windowed_wave_rejects_an_axis_outside_0_to_3(axis):
    # axis=-1 once built the axis-3 wave silently, and axis=4 an IndexError
    with pytest.raises(ValueError, match="int axis in 0..3"):
        hams.windowed_wave(10.0, hams.smooth_cutoff_profile(0.75, 0.92), axis=axis)


# ---------------------------------------------------------------------------
# packed Hessians with the identity term on the diagonal only, against the
# full-matrix expressions they replace
# ---------------------------------------------------------------------------
def _quad_basis():
    """Hessians of |z1|^2, |z2|^2, Re(conj z1 z2), Im(conj z1 z2)."""
    H = np.zeros((4, 4, 4))
    H[0, 0, 0] = H[0, 1, 1] = 2.0
    H[1, 2, 2] = H[1, 3, 3] = 2.0
    H[2, 0, 2] = H[2, 2, 0] = 1.0
    H[2, 1, 3] = H[2, 3, 1] = 1.0
    H[3, 0, 3] = H[3, 3, 0] = 1.0
    H[3, 1, 2] = H[3, 2, 1] = -1.0
    return H


def _old_radial_hessian(P, z):
    p, p1, p2 = P(np.sum(z * z, axis=-1))
    outer = z[..., :, None] * z[..., None, :]
    return 4.0 * p2[..., None, None] * outer \
        + 2.0 * p1[..., None, None] * np.eye(4)


def _quad_form(c, z):
    """Q and grad Q of the quadratic form of coefficients c (see
    :func:`_quad_basis`)."""
    x1, y1, x2, y2 = (z[..., i] for i in range(4))
    Q = (c[0] * (x1 * x1 + y1 * y1) + c[1] * (x2 * x2 + y2 * y2)
         + c[2] * (x1 * x2 + y1 * y2) + c[3] * (x1 * y2 - y1 * x2))
    gQ = np.stack([2 * c[0] * x1 + c[2] * x2 + c[3] * y2,
                   2 * c[0] * y1 + c[2] * y2 - c[3] * x2,
                   2 * c[1] * x2 + c[2] * x1 - c[3] * y1,
                   2 * c[1] * y2 + c[2] * y1 + c[3] * x1], axis=-1)
    return Q, gQ


def _product_rule_hessian(P, Q, gQ, HQ, z):
    """The full-matrix product rule Hess(P(|z|^2) Q) of a factor Q with
    gradient gQ and (..., 4, 4) Hessian HQ."""
    p, p1, p2 = P(np.sum(z * z, axis=-1))
    outer_zz = z[..., :, None] * z[..., None, :]
    cross = z[..., :, None] * gQ[..., None, :] + gQ[..., :, None] * z[..., None, :]
    return (4.0 * p2 * Q)[..., None, None] * outer_zz \
        + (2.0 * p1 * Q)[..., None, None] * np.eye(4) \
        + (2.0 * p1)[..., None, None] * cross \
        + p[..., None, None] * HQ


def _old_hopf_hessian(c, P, z):
    Q, gQ = _quad_form(c, z)
    HQ = np.tensordot(c, _quad_basis(), axes=1)
    if P is None:
        return np.broadcast_to(HQ, Q.shape + (4, 4)).copy()
    return _product_rule_hessian(P, Q, gQ, HQ, z)


def _wave_hessian(k, P, axis, z):
    # the factor sin(k z_axis)/k, its gradient and Hessian
    e_axis = np.eye(4)[axis]
    gQ = np.cos(k * z[..., axis])[..., None] * e_axis
    HQ = (-k * np.sin(k * z[..., axis]))[..., None, None] * np.outer(e_axis, e_axis)
    return _product_rule_hessian(P, np.sin(k * z[..., axis]) / k, gQ, HQ, z)


@pytest.mark.parametrize("profile", ["none", "poly", "cutoff"])
def test_hessians_bitwise_match_full_identity_expressions(rng, profile):
    P = {"none": None, "poly": hams.poly_profile([0.3, -1.0, 0.5, 2.0]),
         "cutoff": hams.smooth_cutoff_profile(0.4, 0.95)}[profile]
    z = rng.uniform(-0.8, 0.8, size=(4096, 4))   # one stationarity block
    c = [0.3, 0.1, -0.7, 0.2]
    pairs = [(hams.hopf_invariant_quadratic(c, profile=P),
              lambda x: _old_hopf_hessian(np.asarray(c), P, x))]
    if P is not None:
        pairs.append((hams.radial_invariant(P),
                      lambda x: _old_radial_hessian(P, x)))
    if profile == "cutoff":
        pairs.append((hams.windowed_wave(26.0, P, axis=2),
                      lambda x: _wave_hessian(26.0, P, 2, x)))
    for f, old in pairs:
        assert np.array_equal(hams.unpack_hessian(f.hessian(z)), old(z))
        assert np.array_equal(hams.unpack_hessian(f.hessian(z[0])), old(z[0]))


@pytest.mark.parametrize("c", [None, [0.3, 0.1, -0.7, 0.2]], ids=["radial", "hopf"])
def test_cutoff_hessian_bands_match_the_unbanded_formula(rng, c):
    # the product rule runs only on the band s0 < |z|^2 < s1; the plateau
    # rows take Hess Q (0 for a radial invariant) and the outer rows 0, which
    # must be the formula's values there
    P = hams.smooth_cutoff_profile(0.25, 0.5625)     # 0.5^2 and 0.75^2
    assert (P.plateau, P.support) == (0.25, 0.5625)
    f = (hams.radial_invariant(P) if c is None
         else hams.hopf_invariant_quadratic(c, profile=P))
    factor = None if c is None else hams._quadratic_form(np.asarray(c))
    ref = unbanded_profiled_hessian(P, factor)
    d = rng.normal(size=(4, 4))
    d /= alg.norm(d)[:, None]
    e = np.eye(4)
    # below s0, exactly at s0, in the band, exactly at s1, beyond s1, and
    # a band row again
    pick = np.array([0.3 * d[0], 0.5 * e[0], 0.6 * d[1], -0.75 * e[3],
                     0.9 * d[2], 0.7 * d[3]])
    s = alg.inner(pick, pick)
    assert s[1] == P.plateau and s[3] == P.support
    assert s[0] < P.plateau < s[2] < P.support < s[4]
    rows = np.vstack([pick, rng.normal(size=(1000, 4)) * 0.45])
    for z in [rows, pick.reshape(2, 3, 4)] + list(pick):
        got, want = f.hessian(z), ref(z)
        assert got.shape == want.shape and np.array_equal(got, want)
    flat = f.hessian(pick[:2])
    HQ = 0.0 if c is None else factor[2](pick[:2])
    assert np.array_equal(flat, np.broadcast_to(HQ, (2, 10)))
    assert not np.any(f.hessian(pick[3:5]))


# ---------------------------------------------------------------------------
# symplectic structure of the generated fields
# ---------------------------------------------------------------------------
def test_hamiltonian_field_symplectically_exact(rng):
    # omega(I grad f, w) = -df(w): I grad f is the Hamiltonian field of f
    f = hams.interior_bump(np.array([0.1, -0.2, 0.3, 0.0]), 0.6, 0.8)
    z = rng.normal(size=(100, 4)) * 0.4
    w = rng.normal(size=(100, 4))
    g = f.gradient(z)
    resid = alg.symplectic(alg.apply_I(g), w) + alg.inner(g, w)
    assert np.max(np.abs(resid)) <= 1e-12


# ---------------------------------------------------------------------------
# support hints and interior admissibility
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["bump", "wave"])
def test_hessian_vanishes_just_outside_support_hint(rng, kind):
    # the contract the stationarity quadrature's support restriction needs
    f = {"bump": hams.interior_bump(np.array([0.1, -0.2, 0.3, 0.0]), 0.4, 1.7),
         "wave": hams.windowed_wave(26.0, hams.smooth_cutoff_profile(0.75, 0.92))}[kind]
    center, radius = f.support_hint
    dirs = rng.normal(size=(200, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = np.repeat([1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.3], 50)
    pts = center + (radius * scale)[:, None] * dirs
    assert np.all(f.hessian(pts) == 0.0)
    inside = center + 0.9 * radius * dirs
    assert np.any(f.hessian(inside) != 0.0)


def test_interior_bump_admissibility_zero(rng):
    # a bump supported in |z| <= 0.5 has vanishing gradient on the sphere
    f = hams.interior_bump(np.zeros(4), 0.5, 1.0)
    s3 = sphere_points(rng)
    assert hams.admissibility_residual(f, s3, BALL.normal_at(s3)) == 0.0


# ---------------------------------------------------------------------------
# curve-adapted family
# ---------------------------------------------------------------------------
def test_z1_arc_admissible_on_curve():
    nm = nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    f = hams.z1_arc_hamiltonian(0.45, 0.35)
    th = np.linspace(0, 2 * np.pi, 257)
    pts = nm.value(np.ones_like(th), th)
    assert hams.admissibility_residual(f, pts, d.normal_at(pts)) <= 1e-10
    assert np.max(np.abs(f.value(pts))) > 0.1  # not the zero function


def test_z1_arc_fd_gradient(rng):
    f = hams.z1_arc_hamiltonian(0.45, 0.35)
    pts = rng.normal(size=(200, 4)) * 0.25 + np.array([0.9, 0.35, 0, 0])
    # scale-aware: the arc profile has large third derivatives
    g = np.atleast_2d(f.gradient(pts))
    worst = 0.0
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1e-5
        fd = (f.value(pts + e) - f.value(pts - e)) / 2e-5
        worst = max(worst, float(np.max(np.abs(fd - g[:, k])
                                        / (1.0 + np.abs(g[:, k])))))
    assert worst <= 1e-5


def test_plateau_derivatives_match_centred_differences():
    rho2 = np.linspace(0.0, 0.2, 4001)
    s0, s1 = 0.15 ** 2, 0.4 ** 2
    window = hams.smooth_cutoff_profile(s0, s1)
    eta, d1, d2 = window(rho2)
    h = 1e-7
    up, dn = window(rho2 + h), window(rho2 - h)
    assert np.max(np.abs((up[0] - dn[0]) / (2 * h) - d1)) <= 1e-7 * np.max(np.abs(d1))
    # the quintic is C^2: its third derivative jumps by 60/(s1 - s0)^3 at s0
    # and at s1, where a centred difference of P' is off by h/4 of the jump
    err = np.abs((up[1] - dn[1]) / (2 * h) - d2)
    corner = (np.abs(rho2 - s0) < h) | (np.abs(rho2 - s1) < h)
    assert np.count_nonzero(corner) == 2
    assert np.max(err[~corner]) <= 1e-7 * np.max(np.abs(d2))
    assert np.max(err[corner]) <= 1.01 * h / 4 * 60.0 / (s1 - s0) ** 3
    # flat (all derivatives zero) on the plateau and outside the window
    flat = (rho2 <= 0.15 ** 2) | (rho2 >= 0.4 ** 2)
    assert np.all(d1[flat] == 0.0) and np.all(d2[flat] == 0.0)
    assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))


def test_bump_kernel_third_derivative():
    s = np.linspace(-2.0, 0.995, 6001)
    k = hams.bump_kernel(s, third=True)
    for got, want in zip(k, hams.bump_kernel(s)):
        assert np.array_equal(got, want)
    h = 1e-7
    fd = (hams.bump_kernel(s + h)[2] - hams.bump_kernel(s - h)[2]) / (2 * h)
    assert np.max(np.abs(fd - k[3])) <= 1e-7 * np.max(np.abs(k[3]))


def _z1_arc_points(rng):
    # off the curve, and on the image of the non-minimal map (R = 1)
    off = rng.normal(size=(400, 4)) * 0.25 + np.array([0.9, 0.35, 0.0, 0.0])
    x, y = rng.uniform(-1, 1, size=(2, 400))
    return np.vstack([off, nonminimal_map().value_xy(x, y)])


@pytest.mark.parametrize("center,width", [(0.45, 0.35), (-0.6, 0.25), (0.35, 0.25)])
def test_z1_arc_gradient_matches_fd_plateau_reference(rng, center, width):
    pts = _z1_arc_points(rng)
    f = hams.z1_arc_hamiltonian(center, width)
    want = z1_arc_reference_gradient(center, width, a_sign=1.0)(pts)
    got = f.gradient(pts)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    assert np.array_equal(f.gradient(pts[3]), got[3])


@pytest.mark.parametrize("center,width", [(0.45, 0.35), (-0.6, 0.25), (0.35, 0.25)])
def test_z1_arc_hessian_matches_differences_of_gradient(rng, center, width):
    pts = _z1_arc_points(rng)
    f = hams.z1_arc_hamiltonian(center, width)
    Hu = f.hessian(pts)
    H = hams.unpack_hessian(Hu)
    fd = centred_differences(f.gradient, pts, 1e-6)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))
    # only the z1 block is nonzero; a single point stays single
    assert np.all(H[:, 2:, :] == 0.0) and np.all(H[:, :, 2:] == 0.0)
    assert np.array_equal(f.hessian(pts[5]), Hu[5])


@pytest.mark.parametrize("center,width", [(0.45, 0.35), (-0.6, 0.25)])
def test_z1_arc_rows_off_the_arc_are_zero(rng, center, width):
    """One batch of rows on the arc, off the arc inside the R-window and
    outside the window: off the arc value, gradient and Hessian are exactly
    0, and on it they are those of the arc rows evaluated alone."""
    lo, hi = center - width, center + width
    n = 200
    R_window = 1.0 + rng.uniform(-0.38, 0.38, size=3 * n)
    R = np.concatenate([R_window, rng.uniform(0.05, 0.55, size=n),
                        rng.uniform(1.45, 2.0, size=n)])
    off = np.concatenate([rng.uniform(-np.pi, lo - 0.02, size=n),
                          rng.uniform(hi + 0.02, np.pi, size=n)])
    phi = np.concatenate([rng.uniform(lo + 1e-3, hi - 1e-3, size=n), off,
                          rng.uniform(-np.pi, np.pi, size=2 * n)])
    on = np.arange(len(R)) < n
    order = rng.permutation(len(R))
    R, phi, on = R[order], phi[order], on[order]
    z2 = rng.normal(size=(len(R), 2))
    pts = np.column_stack([R * np.cos(phi), R * np.sin(phi), z2])
    f = hams.z1_arc_hamiltonian(center, width)
    for fn in (f.value, f.gradient, f.hessian):
        got = fn(pts)
        assert np.all(got[~on] == 0.0)
        assert got[on].tobytes() == fn(pts[on]).tobytes()
        assert np.all(np.any(got[on].reshape(n, -1) != 0.0, axis=1))


@pytest.mark.parametrize("size", [(2, 8, 1.0), (2, 8, 0.2), (24, 96, 1.0)])
def test_nonminimal_image_lies_on_the_z1_window_plateau(mesh_cache, size):
    """The residuals evaluate z1-arc functions only at the centroid and
    boundary-node images of the nonminimal map.  All of them lie on the
    window's plateau, where it reads exactly (1, 0, 0), so the window's
    shape between its radii moves no output; (2, 8, 0.2) is the coarsest,
    most graded mesh the CLI accepts."""
    m = mesh_cache(*size)
    u = sample(nonminimal_map(), m)
    pts = np.vstack([msh.interpolate_at_centroids(m, u.values),
                     u.values[m.is_boundary]])
    rho2 = (np.hypot(pts[:, 0], pts[:, 1]) - 1.0) ** 2
    assert np.max(rho2) <= hams.R_WINDOW[0] ** 2
    window = hams.smooth_cutoff_profile(*np.square(hams.R_WINDOW))
    eta, d1, d2 = window(rho2)
    assert np.all(eta == 1.0) and np.all(d1 == 0.0) and np.all(d2 == 0.0)


def test_z1_arc_invalid_arc():
    with pytest.raises(ValueError, match="phi-arc must avoid 0"):
        hams.z1_arc_hamiltonian(0.0, 0.3)   # crosses phi = 0
    with pytest.raises(ValueError, match="phi-arc must avoid 0"):
        hams.z1_arc_hamiltonian(0.9, 0.3)   # leaves (-1, 1)


# ---------------------------------------------------------------------------
# every family
# ---------------------------------------------------------------------------
def _every_family():
    cut = hams.smooth_cutoff_profile(0.3, 0.9)
    radial = hams.radial_invariant(hams.poly_profile([0.0, 0.5, 1.0]))
    hopf = hams.hopf_invariant_quadratic([1.0, 0.2, -0.4, 0.6], profile=cut)
    return {
        "bump": hams.interior_bump(np.array([0.2, 0.1, -0.1, 0.0]), 0.5, 1.3),
        "radial": radial,
        "hopf": hopf,
        "hopf-constant": hams.hopf_invariant_quadratic([0.3, -1.0, 0.5, 0.2]),
        "wave": hams.windowed_wave(26.0, hams.smooth_cutoff_profile(0.75, 0.92)),
        "z1-arc": hams.z1_arc_hamiltonian(0.45, 0.35),
    }


@pytest.mark.parametrize("kind", ["bump", "radial", "hopf", "hopf-constant",
                                  "wave", "z1-arc"])
def test_packed_hessian_matches_differences_of_gradient(rng, kind):
    f = _every_family()[kind]
    pts = (_z1_arc_points(rng) if kind == "z1-arc"
           else rng.normal(size=(200, 4)) * 0.4)
    Hu = f.hessian(pts)
    assert Hu.shape == (len(pts), 10)
    H = hams.unpack_hessian(Hu)
    fd = centred_differences(f.gradient, pts, 1e-6)
    assert np.max(np.abs(H - fd)) <= 1e-6 * np.max(np.abs(H))
    # a single point stays single
    assert np.array_equal(f.hessian(pts[7]), Hu[7])
    # the packed Frobenius norm counts each off-diagonal entry twice
    assert np.allclose(np.sqrt((Hu * Hu) @ hams.UPPER_WEIGHTS),
                       np.linalg.norm(H, axis=(-2, -1)), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["bump", "radial", "hopf", "hopf-constant",
                                  "wave", "z1-arc"])
def test_squared_norms_bitwise_match_axis_sum(rng, monkeypatch, kind):
    """Every |z|^2 and |z - c|^2 is ``inner(z, z)``, which adds in the order
    of ``np.sum(z * z, axis=-1)``: values, gradients and packed Hessians are
    bitwise those of the axis sum."""
    f = _every_family()[kind]
    pts = (_z1_arc_points(rng) if kind == "z1-arc"
           else rng.normal(size=(4096, 4)) * 0.4)
    got = [fn(pts) for fn in (f.value, f.gradient, f.hessian)]
    monkeypatch.setattr(hams, "inner", lambda a, b: np.sum(a * b, axis=-1))
    want = [fn(pts) for fn in (f.value, f.gradient, f.hessian)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_unpack_hessian_is_symmetric_and_inverts_packing(rng):
    A = rng.normal(size=(3, 5, 4, 4))
    sym = A + np.swapaxes(A, -1, -2)
    packed = sym[..., hams.UPPER_I, hams.UPPER_J]
    assert packed.shape == (3, 5, 10)
    assert np.array_equal(hams.unpack_hessian(packed), sym)
    assert np.array_equal(hams.unpack_hessian(packed[0, 0]), sym[0, 0])


def test_profiles():
    P = hams.smooth_cutoff_profile(0.4, 0.95)
    assert P(0.2) == (1.0, 0.0, 0.0) and P(1.0) == (0.0, 0.0, 0.0)
    assert P(1.1)[1] == 0.0
    s = np.linspace(0.41, 0.94, 100)
    p, p1, p2 = P(s)
    up, dn = P(s + 1e-6), P(s - 1e-6)
    assert np.max(np.abs((up[0] - dn[0]) / 2e-6 - p1)) <= 1e-6
    assert np.max(np.abs((up[1] - dn[1]) / 2e-6 - p2)) <= 1e-4
    with pytest.raises(ValueError, match="need s0 < s1"):
        hams.smooth_cutoff_profile(0.9, 0.4)
    assert (P.plateau, P.support) == (0.4, 0.95)
    assert hams.poly_profile([1.0]).support is None
    assert hams.poly_profile([1.0]).plateau is None


@pytest.mark.parametrize("coeffs", [[], [[0.0, 1.0], [1.0, 0.0]],
                                    [0.0, np.nan], [1.0, -np.inf, 0.5]],
                         ids=["empty", "2-D", "nan", "inf"])
def test_poly_profile_rejects_bad_coefficients(coeffs):
    with pytest.raises(ValueError, match="poly_profile needs a nonempty 1-D list"):
        hams.poly_profile(coeffs)


# ---------------------------------------------------------------------------
# polynomial Hessians: the coefficients read off by polarization
# ---------------------------------------------------------------------------
def _polynomial_families():
    P0, P1, P2 = (hams.poly_profile(c) for c in
                  ([1.5], [0.3, -1.2], [0.2, 0.7, -0.9]))
    c = [0.3, 0.1, -0.7, 0.2]
    return {
        "hopf": hams.hopf_invariant_quadratic(c),
        "hopf-constant-profile": hams.hopf_invariant_quadratic(c, profile=P0),
        "hopf-linear-profile": hams.hopf_invariant_quadratic(c, profile=P1),
        "hopf-trimmed-profile": hams.hopf_invariant_quadratic(
            c, profile=hams.poly_profile([0.3, -1.2, 0.0])),
        "radial-constant": hams.radial_invariant(P0),
        "radial-linear": hams.radial_invariant(P1),
        "radial-quadratic": hams.radial_invariant(P2),
    }


@pytest.mark.parametrize("kind", list(_polynomial_families()))
def test_hessian_coeffs_reproduce_the_hessian(rng, kind):
    f = _polynomial_families()[kind]
    A, C = f.hessian_coeffs
    assert A.shape == (10,) and C.shape == (10, 10)
    z = rng.uniform(-1.0, 1.0, size=(4096, 4))
    H = f.hessian(z)
    assert np.max(np.abs(A + hams._outer(z, z) @ C - H)) <= \
        1e-15 * np.max(np.abs(H))


def test_families_that_are_not_polynomial_carry_no_coeffs():
    cut = hams.smooth_cutoff_profile(0.3, 0.9)
    cubic = hams.poly_profile([0.0, 0.5, 0.0, 1.0])
    fs = [hams.interior_bump(np.array([0.2, 0.1, -0.1, 0.0]), 0.5, 1.3),
          hams.windowed_wave(26.0, hams.smooth_cutoff_profile(0.75, 0.92)),
          hams.z1_arc_hamiltonian(0.45, 0.35),
          hams.radial_invariant(cut),
          hams.hopf_invariant_quadratic([1.0, 0.2, -0.4, 0.6], profile=cut),
          hams.radial_invariant(cubic),
          hams.hopf_invariant_quadratic([1.0, 0.0, 0.0, 0.0],
                                        profile=hams.poly_profile([0, 0, 1.0]))]
    for f in fs:
        assert f.hessian_coeffs is None, f.name
