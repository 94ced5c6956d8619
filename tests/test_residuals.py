import numpy as np
import pytest

from lagdisc import algebra as alg
from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import residuals as res
from lagdisc.mesh import (build_polar_mesh, element_gradient,
                          interpolate_at_centroids)
from conftest import traced, unbanded_profiled_hessian

BALL = dom.unit_ball()


# ---------------------------------------------------------------------------
# pointwise geometry
# ---------------------------------------------------------------------------
def test_pointwise_flat(mesh_cache):
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(8, 32))
    lag, conf = res.pointwise_geometry_report(u)
    assert lag <= 1e-14 and conf <= 1e-14


def test_pointwise_sw_exact_frames(mesh_cache):
    u = fam.sample(fam.sw_cone(2, 3), mesh_cache(8, 32))
    lag, conf = res.pointwise_geometry_report(u)
    assert lag <= 1e-12 and conf <= 1e-12


class _ShearedFrames(fam.FlatDisc):
    """The identity flat disc with the sheared exact frame (e_x, e_y + 0.1 e_x)."""

    def frame(self, r, theta):
        e_x, e_y = super().frame(r, theta)
        return fam.Frame(e_x, e_y + 0.1 * e_x)


def test_pointwise_sheared_map(mesh_cache):
    m = mesh_cache(8, 32)
    sheared = fam.sample(_ShearedFrames(np.eye(2)), m)
    assert np.array_equal(sheared.values,
                          fam.sample(fam.flat_disc(np.eye(2)), m).values)
    _, conf = res.pointwise_geometry_report(sheared)
    assert conf >= 0.05


def test_pointwise_element_frames_route(mesh_cache):
    m = mesh_cache(8, 32)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    raw = fam.DiscreteMap(mesh=m, values=u.values)   # no exact frames
    lag, conf = res.pointwise_geometry_report(raw)
    assert lag <= 1e-13 and conf <= 1e-13


# ---------------------------------------------------------------------------
# structural residual
# ---------------------------------------------------------------------------
def test_structural_flat(mesh_cache):
    m = mesh_cache(12, 48)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    assert res.structural_residual(u) <= 1e-12


def test_structural_sw_order(mesh_cache):
    vals, hs = [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        u = fam.sample(fam.sw_cone(1, 2), m)
        vals.append(res.structural_residual(u, exclude=[((0.0, 0.0), 0.1)]))
        hs.append(m.h_max)
    assert res.fit_order(hs, vals) >= 1.0


def test_structural_nonminimal_order(mesh_cache):
    # first-order consistency: each halving shrinks the residual by ~2
    vals, hs = [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        u = fam.sample(fam.nonminimal_map(), m)
        vals.append(res.structural_residual(u))
        hs.append(m.h_max)
    assert res.fit_order(hs, vals) >= 0.8
    assert vals[0] / vals[1] >= 1.7


class _RotatedAngle(fam.FlatDisc):
    """The identity flat disc whose angle is rotated by e^{0.3i}, so that it
    disagrees with the angle of its own frames."""

    def angle(self, r, theta):
        return super().angle(r, theta) * np.exp(0.3j)


def test_structural_inconsistent_angle(mesh_cache):
    u = fam.sample(_RotatedAngle(np.eye(2)), mesh_cache(8, 32))
    with pytest.raises(ValueError, match="nodal angle disagrees"):
        res.structural_residual(u)


# ---------------------------------------------------------------------------
# angle harmonicity
# ---------------------------------------------------------------------------
def test_angle_harmonicity_constant(mesh_cache):
    # a flat disc has a constant angle: its exact flux F = 0 scores exactly 0
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(8, 32))
    adiv, apdiv = res.angle_harmonicity(u)
    assert adiv == 0.0 and apdiv == 0.0


def test_angle_harmonicity_sw_exact_order(mesh_cache):
    sw = fam.sw_cone(1, 2)
    a_vals, p_vals, hs = [], [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        adiv, apdiv = res.angle_harmonicity(fam.sample(sw, m),
                                            exclude=[((0.0, 0.0), 0.1)])
        a_vals.append(adiv)
        p_vals.append(apdiv)
        hs.append(m.h_max)
    assert res.fit_order(hs, a_vals) >= 1.0
    assert res.fit_order(hs, p_vals) >= 1.0


def test_angle_harmonicity_nonminimal_no_exclusion(mesh_cache):
    nm = fam.nonminimal_map()
    vals, hs = [], []
    for n in (8, 16):
        m = mesh_cache(n, 4 * n)
        adiv, apdiv = res.angle_harmonicity(fam.sample(nm, m))
        vals.append(max(adiv, apdiv))
        hs.append(m.h_max)
    assert res.fit_order(hs, vals) >= 1.0


@pytest.mark.parametrize("check", [
    res.structural_residual,
    res.angle_harmonicity,
    lambda u: res.boundary_conditions_report(u, BALL),
], ids=["structural", "angle_harmonicity", "boundary_conditions"])
def test_checks_need_a_closed_form(mesh_cache, check):
    # a relaxed map has no source: the check raises instead of reading a number
    m = mesh_cache(8, 32)
    raw = fam.DiscreteMap(m, fam.sample(fam.flat_disc(np.eye(2)), m).values)
    with pytest.raises(ValueError, match="needs the map's closed form"):
        check(raw)


# ---------------------------------------------------------------------------
# singular masses: brute-force sign-freezing oracle, then the frozen values
# ---------------------------------------------------------------------------
def fd_angle_flux(example, pts, h=1e-6):
    """i gbar grad g computed with nothing but finite differences of the
    parametrization: the oracle that froze the degree sign convention."""
    def g_at(x, y):
        fr = example.frame_xy(x, y)
        _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
        return np.conj(gbar)

    x, y = pts[:, 0], pts[:, 1]
    g0 = g_at(x, y)
    gx = (g_at(x + h, y) - g_at(x - h, y)) / (2 * h)
    gy = (g_at(x, y + h) - g_at(x, y - h)) / (2 * h)
    w = 1j * np.conj(g0)[:, None] * np.stack([gx, gy], axis=1)
    assert np.max(np.abs(np.imag(w))) <= 1e-6   # the field is real
    return np.real(w)


@pytest.mark.parametrize("pq", [(1, 2), (2, 3)])
def test_degree_sign_oracle(pq):
    sw = fam.sw_cone(*pq)
    rec = res.singular_masses(lambda pts: fd_angle_flux(sw, pts),
                              (0.0, 0.0), radii=(0.3, 0.5))
    assert abs(rec.degree - (pq[0] - pq[1])) <= 1e-4
    # and the closed-form field agrees with the oracle pointwise
    pts = np.array([[0.3, 0.2], [-0.4, 0.1], [0.0, -0.5]])
    assert np.max(np.abs(sw.angle_flux_field(pts) - fd_angle_flux(sw, pts))) <= 1e-5


@pytest.mark.parametrize("pq", [(1, 2), (2, 3)])
def test_singular_masses_frozen(pq):
    sw = fam.sw_cone(*pq)
    rec = res.singular_masses(sw.angle_flux_field, (0.0, 0.0),
                              radii=(0.2, 0.35, 0.5))
    assert abs(rec.degree - (-1.0)) <= 1e-8
    assert abs(rec.flux_mass) <= 1e-8
    assert rec.degree_spread <= 1e-8
    assert rec.near_integer


def test_singular_masses_trivial_field():
    rec = res.singular_masses(lambda pts: np.zeros((len(pts), 2)),
                              (0.1, 0.0), radii=(0.2, 0.3))
    assert rec.degree == 0.0 and rec.flux_mass == 0.0


def test_singular_masses_warns_non_integer():
    def w(pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return 0.4 * np.stack([-pts[:, 1], pts[:, 0]], axis=1) / r2[:, None]

    with pytest.warns(UserWarning):
        res.singular_masses(w, (0.0, 0.0), radii=(0.3,))


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------
def test_boundary_sw_ball(mesh_cache):
    u = fam.sample(fam.sw_cone(1, 2), mesh_cache(16, 64))
    leg, con, neu = res.boundary_conditions_report(u, BALL)
    assert leg <= 1e-12 and con <= 1e-12 and neu <= 1e-8


def test_boundary_flat_ball(mesh_cache):
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(16, 64))
    leg, con, neu = res.boundary_conditions_report(u, BALL)
    assert leg <= 1e-12 and con <= 1e-12 and neu <= 1e-12


def test_boundary_neumann_keeps_a_nan(mesh_cache, monkeypatch):
    # a NaN pairing against any test function makes the trace NaN, not the
    # largest of the others; one call pairs all 1 + 2 MAX_K test functions
    pairing, calls = res.boundary_trace_pairing, []

    def nan_last(mesh, w, phis, collar_r0):
        calls.append(phis)
        out = pairing(mesh, w, phis, collar_r0)
        out[-1] = np.nan
        return out

    monkeypatch.setattr(res, "boundary_trace_pairing", nan_last)
    u = fam.sample(fam.sw_cone(1, 2), mesh_cache(8, 32))
    _, _, neu = res.boundary_conditions_report(u, BALL)
    assert [len(phis) for phis in calls] == [1 + 2 * res.MAX_K]
    assert np.isnan(neu)


def test_boundary_nonminimal_fails_legendrian_and_neumann(mesh_cache):
    nm = fam.nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    u = fam.sample(nm, mesh_cache(16, 64))
    leg, con, neu = res.boundary_conditions_report(u, d)
    assert leg >= 0.5
    assert neu >= 1.0


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------
def _in_omega(u, subdomain):
    """(T,) mask of the elements of omega: every element when ``subdomain``
    is None."""
    c = u.mesh.centroids
    return np.ones(len(c), bool) if subdomain is None else subdomain.contains(c)


def _cut_image(u, subdomain):
    """The image of the part of omega's boundary inside the open disc:
    none when ``subdomain`` is None."""
    if subdomain is None:
        return np.empty((0, 4))
    return u.mesh.interpolate(u.values, subdomain.interior_boundary_samples())


def _stationarity_integral(u, f, subdomain=None):
    """The raw midpoint quadrature of sum_k <d_k(I grad f o u), d_k u> over
    omega, the unnormalized term of ``stationarity_test``, from the same
    frame-tensor and term calls."""
    u_c, S, _ = res._frame_tensor(u, _in_omega(u, subdomain))
    return res._stationarity_terms(u_c, S, [f])[0][0]


def test_stationarity_linear_in_f(mesh_cache):
    m = mesh_cache(8, 32)
    u = fam.sample(fam.sw_cone(1, 2), m)
    f1 = hams.hopf_invariant_quadratic([1, 0, 0, 0])
    f2 = hams.radial_invariant(hams.poly_profile([0, 0, 1.0]))
    c1, c2 = 1.7, -0.4
    combo = hams.Hamiltonian(
        lambda z: c1 * f1.value(z) + c2 * f2.value(z),
        lambda z: c1 * f1.gradient(z) + c2 * f2.gradient(z),
        lambda z: c1 * f1.hessian(z) + c2 * f2.hessian(z))
    lhs = _stationarity_integral(u, combo)
    rhs = c1 * _stationarity_integral(u, f1) + c2 * _stationarity_integral(u, f2)
    assert abs(lhs - rhs) <= 1e-12


def test_stationarity_flat_mixed_batch_order(mesh_cache):
    batch = res.ball_mixed_batch(seed=3, size=22, n_bumps=8)
    assert len(batch) >= 20
    vals, hs = [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        u = fam.sample(fam.flat_disc(np.eye(2)), m)
        vals.append(res.stationarity_test(u, BALL, batch))
        hs.append(m.h_max)
    assert res.fit_order(hs, vals) >= 1.0


def test_stationarity_keeps_a_nan_hessian(mesh_cache):
    # a test function whose Hessian is NaN must not read as a perfect 0
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(8, 32))
    bump = hams.interior_bump(np.zeros(4), 0.45, 1.0)
    nan_f = hams.Hamiltonian(
        bump.value, bump.gradient,
        lambda z: np.full(np.shape(z)[:-1] + (10,), np.nan),
        support_hint=bump.support_hint, name="nan-hessian")
    assert np.isnan(res.stationarity_test(u, BALL, [nan_f]))


def test_stationarity_support_violation(mesh_cache):
    m = mesh_cache(8, 32)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    # a global (radial) test function cannot be used on a half disc: it does
    # not vanish near the image of the interior boundary
    f = hams.radial_invariant(hams.poly_profile([0, 1.0]))
    with pytest.raises(ValueError, match="has unbounded support but must vanish"):
        res.stationarity_test(u, BALL, [f], subdomain=res.HalfPlane(0.0))
    # a bump supported away from the cut is fine
    g = hams.interior_bump(np.array([0.6, 0, 0, 0]), 0.25)
    res.stationarity_test(u, BALL, [g], subdomain=res.HalfPlane(0.0))
    # a bump sitting on the cut is rejected
    bad = hams.interior_bump(np.array([0.0, 0, 0, 0]), 0.3)
    with pytest.raises(ValueError, match="support meets"):
        res.stationarity_test(u, BALL, [bad], subdomain=res.HalfPlane(0.0))


def test_stationarity_inadmissible(mesh_cache, rng):
    m = mesh_cache(8, 32)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    # f = y1 is not tangent to the sphere: <I grad f, z> = -x1, which the
    # image of the boundary circle, (cos t, 0, sin t, 0), exposes, as do
    # generic sphere samples
    sphere = rng.normal(size=(100, 4))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    lin = hams.Hamiltonian(
        value=lambda z: np.asarray(z)[..., 1],
        gradient=lambda z: np.broadcast_to(
            np.array([0.0, 1.0, 0, 0]), np.asarray(z).shape).copy(),
        hessian=lambda z: np.zeros(np.asarray(z).shape[:-1] + (10,)),
        name="y1")
    assert hams.admissibility_residual(lin, sphere, BALL.normal_at(sphere)) > 0.1
    with pytest.raises(ValueError, match=r"admissibility residual .* exceeds 1e-6"):
        res.stationarity_test(u, BALL, [lin])
    # an interior bump reaching the sphere is rejected
    big = hams.interior_bump(np.array([0.8, 0, 0, 0]), 0.4)
    with pytest.raises(ValueError, match="support reaches the boundary"):
        res.stationarity_test(u, BALL, [big])
    # also when no sampled direction of the support sphere reaches it
    for radius in (0.501, 0.51):
        with pytest.raises(ValueError, match="support reaches the boundary"):
            res.stationarity_test(
                u, BALL, [hams.interior_bump([0.5, 0, 0, 0], radius)])
    res.stationarity_test(u, BALL, [hams.interior_bump([0.5, 0, 0, 0], 0.499)])


def test_admissibility_follows_the_support_ball(mesh_cache):
    # without a support ball a function is judged by its tangency residual
    # alone: a bare copy of a radial invariant passes on the ball
    u = fam.sample(fam.sw_cone(1, 2), mesh_cache(8, 32))
    f = hams.radial_invariant(hams.poly_profile([0, 1.0]))
    bare = hams.Hamiltonian(f.value, f.gradient, f.hessian)
    assert bare.support_hint is None and bare.hessian_coeffs is None
    assert abs(res.stationarity_test(u, BALL, [bare])
               - res.stationarity_test(u, BALL, [f])) <= 1e-14


def test_curve_domain_rejects_a_bump_on_the_curve(mesh_cache):
    # with a support ball, the ball must stay clear of the constraint curve
    nm = fam.nonminimal_map()
    domain = dom.curve_domain_from_map(nm)
    u = fam.sample(nm, mesh_cache(8, 32))
    on_curve = hams.interior_bump(domain.curve_points[17], 0.1)
    with pytest.raises(ValueError, match="support reaches the boundary"):
        res.stationarity_test(u, domain, [on_curve])
    # midway between grid points 100 and 101 the curve passes 5.000e-2 from
    # the first two centres while the nearest grid point is 5.04e-2 away;
    # a NaN centre is never clear of the curve
    th = np.array([2 * np.pi * 100.5 / domain.N_GRID])
    p, n = domain.curve_at(th)[0], domain.normal_at_theta(th)[0]
    for centre in (p + 0.05 * n, p - 0.05 * n, np.full(4, np.nan)):
        with pytest.raises(ValueError, match="support reaches the boundary"):
            res.stationarity_test(u, domain,
                                  [hams.interior_bump(centre, 0.05000005)])
    bumps = [f for f in res.curve_report_batch(domain, nm)
             if f.support_hint is not None]
    assert len(bumps) == 6
    assert np.isfinite(res.stationarity_test(u, domain, bumps))


def test_stationarity_cross_validation_with_angle_pairing(mesh_cache):
    # for interior-supported f the localization integral matches the pairing
    # -int i gbar dg . d(f o u); discretely the two quadratures agree up to
    # the structural-equation consistency error, which vanishes with order
    # >= 1 under refinement
    nm = fam.nonminimal_map()
    f = hams.interior_bump(np.array([0.9, 0.25, 0.0, 0.2]), 0.25, 1.0)
    diffs, hs = [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        u = fam.sample(nm, m)
        lhs = _stationarity_integral(u, f)
        w = nm.angle_flux_field(m.centroids)                 # i gbar grad g
        fu = f.value(u.values)
        grad_fu = element_gradient(m, fu)
        rhs = -float(np.sum(m.areas * np.sum(w * grad_fu, axis=1)))
        diffs.append(abs(lhs - rhs))
        hs.append(m.h_max)
    assert res.fit_order(hs, diffs) >= 1.0
    assert diffs[-1] <= 1e-2


def _unblocked_stationarity_integral(u, f, subdomain=None):
    """Reference: the one-shot (T, 4, 4) Hessian quadrature before blocking."""
    mesh = u.mesh
    m = _in_omega(u, subdomain)
    grad = element_gradient(mesh, u.values)
    u_c = interpolate_at_centroids(mesh, u.values)
    H = hams.unpack_hessian(f.hessian(u_c[m]))
    total = 0.0
    for k in range(2):
        e = grad[m, k, :]
        He = np.einsum("tij,tj->ti", H, e)
        total += np.sum(mesh.areas[m] * alg.inner(alg.apply_I(He), e))
    return float(total)


def _wall(u, domain, subdomain):
    """The images of the disc-boundary nodes in omega and their normals."""
    mesh = u.mesh
    wall = mesh.is_boundary & (True if subdomain is None
                               else subdomain.contains(mesh.nodes))
    wall_pts = u.values[wall]
    return wall_pts, domain.normal_at(wall_pts) if len(wall_pts) else wall_pts


def _unblocked_stationarity_test(u, domain, fs, subdomain=None):
    """Reference: ``stationarity_test`` with one (T, 4, 4) Hessian per f."""
    mesh = u.mesh
    m = _in_omega(u, subdomain)
    if not np.any(m):
        raise ValueError("subdomain contains no triangles")
    u_at = _cut_image(u, subdomain)
    wall_pts, wall_normals = _wall(u, domain, subdomain)
    grad = element_gradient(mesh, u.values)
    u_c = interpolate_at_centroids(mesh, u.values)
    grad_sq = float(np.sum(mesh.areas[m]
                           * (alg.inner(grad[m, 0], grad[m, 0])
                              + alg.inner(grad[m, 1], grad[m, 1]))))
    worst = 0.0
    for f in fs:
        res._check_admissible(f, domain, wall_pts, wall_normals, u_at)
        H = hams.unpack_hessian(f.hessian(u_c[m]))
        total = 0.0
        for k in range(2):
            e = grad[m, k, :]
            He = np.einsum("tij,tj->ti", H, e)
            total += np.sum(mesh.areas[m] * alg.inner(alg.apply_I(He), e))
        h_inf = float(np.max(np.sqrt(np.sum(H * H, axis=(-2, -1)))))
        worst = max(worst, abs(total) / (h_inf * grad_sq + alg.EPS))
    return worst


def _integral_rounding_scale(u, f, subdomain):
    """sum_t area_t ||Hess f||_F (|e_x|^2 + |e_y|^2) over omega: the size of
    the terms whose summation order the frame-tensor contraction changes."""
    mesh = u.mesh
    m = _in_omega(u, subdomain)
    grad = element_gradient(mesh, u.values)[m]
    H = hams.unpack_hessian(
        f.hessian(interpolate_at_centroids(mesh, u.values)[m]))
    h_norm = np.sqrt(np.sum(H * H, axis=(-2, -1)))
    energy = alg.inner(grad[:, 0], grad[:, 0]) + alg.inner(grad[:, 1], grad[:, 1])
    return float(np.sum(mesh.areas[m] * h_norm * energy))


def _meets_image(u, fs, subdomain):
    """Whether some f in fs can be nonzero at a centroid image of omega: it
    has no support ball, or the ball holds one of those images."""
    m = u.mesh
    u_c = interpolate_at_centroids(m, u.values)[_in_omega(u, subdomain)]
    return any(f.support_hint is None
               or np.min(alg.norm(u_c - f.support_hint[0])) < f.support_hint[1]
               for f in fs)


def _stationarity_case(mesh_cache, batch):
    m = mesh_cache(48, 192)
    if batch == "ball_mixed":
        u = fam.sample(fam.sw_cone(1, 2), m)
        return u, BALL, res.ball_mixed_batch(seed=5)
    nm = fam.nonminimal_map()
    domain = dom.curve_domain_from_map(nm)
    return fam.sample(nm, m), domain, res.curve_report_batch(domain, nm, seed=5)


@pytest.mark.parametrize("batch", ["ball_mixed", "curve_report"])
def test_stationarity_bitwise_matches_unblocked(mesh_cache, batch):
    # The frame-tensor contraction sums each element's integrand in another
    # order than the reference's einsum, inner product and per-k area sums;
    # every term is bounded by area_t ||H_t||_F (|e_x|^2 + |e_y|^2), so the two
    # agree to 1e-12 of that sum, and the normalized test (whose denominator
    # h_inf * grad_sq bounds the sum) to 1e-12 absolute.
    u, domain, fs = _stationarity_case(mesh_cache, batch)
    m = u.mesh
    assert len(m.triangles) % res.HESSIAN_BLOCK != 0
    assert len(m.triangles) > res.HESSIAN_BLOCK
    for sub in (None, res.HalfPlane(0.0)):
        for f in fs:
            ref = _unblocked_stationarity_integral(u, f, sub)
            assert abs(_stationarity_integral(u, f, sub) - ref) <= \
                1e-12 * _integral_rounding_scale(u, f, sub)
        # the test functions admissible on omega: here, those whose
        # support avoids the image of the cut
        cut, wall = _cut_image(u, sub), _wall(u, domain, sub)
        clear = []
        for f in fs:
            try:
                res._check_admissible(f, domain, *wall, cut)
            except ValueError as exc:
                assert "support" in str(exc)
                continue
            clear.append(f)
        assert clear
        ref = _unblocked_stationarity_test(u, domain, clear, sub)
        if _meets_image(u, clear, sub):
            assert abs(res.stationarity_test(u, domain, clear, sub) - ref) <= 1e-12
        else:
            # every clear function misses the image of omega (the seed-5
            # ball bumps on the half disc): the reference reads a perfect 0
            # for a batch that tests nothing, the production test raises
            assert ref == 0.0
            with pytest.raises(ValueError, match="tests nothing"):
                res.stationarity_test(u, domain, clear, sub)


def _full_matrix_terms(u_c, S, f):
    """Reference: ``_stationarity_terms`` with the (T, 4, 4) Hessian and the
    frame tensor as a full symmetric matrix (its doubled off-diagonal
    entries halved), contracted over all 16 entries."""
    H = hams.unpack_hessian(f.hessian(u_c))
    S_full = hams.unpack_hessian(S / hams.UPPER_WEIGHTS)
    integrand = np.einsum("tij,tij->t", H, S_full)
    h_norm = np.sqrt(np.sum(H * H, axis=(-2, -1)))
    return integrand, float(np.max(h_norm))


@pytest.mark.parametrize("batch", ["ball_mixed", "curve_report"])
def test_stationarity_terms_match_full_matrix_contraction(mesh_cache, batch):
    u, domain, fs = _stationarity_case(mesh_cache, batch)
    for sub in (None, res.HalfPlane(0.0)):
        u_c, S, grad_sq = res._frame_tensor(u, _in_omega(u, sub))
        for f in fs:
            ((total, h_inf),) = res._stationarity_terms(u_c, S, [f])
            integrand, ref_h_inf = _full_matrix_terms(u_c, S, f)
            assert abs(h_inf - ref_h_inf) <= 1e-15 * ref_h_inf
            # normalized as stationarity_test normalizes the integral
            assert abs(total - float(np.sum(integrand))) <= \
                1e-14 * (ref_h_inf * grad_sq + alg.EPS)


@pytest.mark.parametrize("batch", ["ball_mixed", "curve_report"])
def test_stationarity_independent_of_block_size(mesh_cache, monkeypatch, batch):
    u, domain, fs = _stationarity_case(mesh_cache, batch)
    sub = res.HalfPlane(0.0)
    cut = u.mesh.interpolate(u.values, sub.interior_boundary_samples())
    clear = [f for f in fs if f.support_hint is not None
             and np.min(alg.norm(cut - f.support_hint[0])) > f.support_hint[1]]
    assert clear
    # a half-disc batch that misses the image of omega raises (see
    # test_stationarity_raises_when_no_function_meets_the_image) and is
    # left out of the comparison
    half = _meets_image(u, clear, sub)

    def run():
        return (res.stationarity_test(u, domain, fs),
                res.stationarity_test(u, domain, clear, sub) if half else None)

    runs = [run()]
    monkeypatch.setattr(res, "HESSIAN_BLOCK", 1000)
    runs.append(run())
    assert runs[0] == runs[1]


def _per_row(f):
    """f without its ``hessian_coeffs``, so the quadrature evaluates its
    Hessian element by element."""
    return hams.Hamiltonian(f.value, f.gradient, f.hessian,
                            support_hint=f.support_hint, name=f.name)


def test_polynomial_hessians_match_the_per_row_path(mesh_cache):
    # the moment-matrix shortcut against the element-by-element Hessians of
    # the same functions, with the bounds of the full-matrix test above
    u, domain, fs = _stationarity_case(mesh_cache, "ball_mixed")
    poly = [f for f in fs if f.hessian_coeffs is not None]
    assert any(np.any(f.hessian_coeffs[1]) for f in poly)
    assert any(not np.any(f.hessian_coeffs[1]) for f in poly)
    for sub in (None, res.HalfPlane(0.0)):
        u_c, S, grad_sq = res._frame_tensor(u, _in_omega(u, sub))
        for f in poly:
            ((total, h_inf),) = res._stationarity_terms(u_c, S, [f])
            ((ref_total, ref_h_inf),) = res._stationarity_terms(u_c, S, [_per_row(f)])
            assert abs(h_inf - ref_h_inf) <= 1e-15 * ref_h_inf
            bound = 1e-14 * (ref_h_inf * grad_sq + alg.EPS)
            assert abs(total - ref_total) <= bound
            assert abs(_stationarity_integral(u, f, sub) - ref_total) <= bound
    # functions without a support ball cannot be tested on a half disc, so
    # the normalized test is compared on the whole disc
    for f in poly:
        assert abs(res.stationarity_test(u, domain, [f])
                   - res.stationarity_test(u, domain, [_per_row(f)])) <= 1e-14


def test_cutoff_functions_integrate_as_the_unbanded_formula(mesh_cache):
    # the banded Hessians of the report batch's cutoff-profiled functions
    # give bitwise the integral of the formula on every row
    u = fam.sample(fam.sw_cone(2, 3), mesh_cache(48, 192))
    cut = [f for f in res.ball_report_batch() if f.hessian_coeffs is None
           and f.support_hint is None]
    assert [f.name for f in cut] == ["radial#2", "hopf#14", "hopf#15"]
    P = hams.smooth_cutoff_profile(0.4, 0.95)
    factors = [None, hams._quadratic_form(np.array([1.0, 0, 0, 0])),
               hams._quadratic_form(np.array([0.0, 1, 0, 0]))]
    for f, factor in zip(cut, factors):
        unbanded = hams.Hamiltonian(f.value, f.gradient,
                                    unbanded_profiled_hessian(P, factor))
        for sub in (None, res.HalfPlane(0.0)):
            value = _stationarity_integral(u, f, sub)
            assert value != 0.0
            assert value == _stationarity_integral(u, unbanded, sub)


def test_stationarity_terms_do_not_read_the_hessian_layout(mesh_cache):
    # a C-ordered and an F-ordered copy of the same Hessians give bitwise
    # the same integral and max norm
    u = fam.sample(fam.sw_cone(2, 3), mesh_cache(48, 192))
    u_c, S, _ = res._frame_tensor(u, np.ones(len(u.mesh.triangles), bool))
    fs = [f for f in res.ball_report_batch() if f.hessian_coeffs is None]
    fs.append(hams.z1_arc_hamiltonian(0.45, 0.35))
    for f in fs:
        copies = [hams.Hamiltonian(f.value, f.gradient,
                                   lambda z, order=order: np.array(
                                       f.hessian(z), order=order))
                  for order in "CF"]
        (c_terms,), (f_terms,) = (res._stationarity_terms(u_c, S, [g])
                                  for g in copies)
        assert c_terms == f_terms


def test_shared_monomial_terms_match_the_per_function_loop(mesh_cache,
                                                          monkeypatch):
    # the functions with C != 0 share one monomial block per HESSIAN_BLOCK
    # rows; their max norms and integrals are bitwise those of one
    # polynomial evaluation per function and block, with the moment matrix
    # summed block by block in block order
    u = fam.sample(fam.sw_cone(2, 3), mesh_cache(48, 192))
    u_c, S, grad_sq = res._frame_tensor(u, np.ones(len(u.mesh.triangles), bool))
    assert len(u_c) > res.HESSIAN_BLOCK
    total = np.sum(S, axis=0)
    M = np.zeros((10, 10))
    for s in range(0, len(u_c), res.HESSIAN_BLOCK):
        zb = u_c[s:s + res.HESSIAN_BLOCK]
        M += hams._outer(zb, zb).T @ S[s:s + res.HESSIAN_BLOCK]
    W = hams.UPPER_WEIGHTS
    for fs, n_live in ((res.ball_report_batch(), 8),
                       (res.ball_mixed_batch(seed=5), 6)):
        poly = [f for f in fs if f.hessian_coeffs is not None]
        assert sum(bool(np.any(f.hessian_coeffs[1])) for f in poly) == n_live
        got = res._stationarity_terms(u_c, S, fs)
        for f, (integral, h_inf) in zip(fs, got):
            if f.hessian_coeffs is None:
                continue
            A, C = f.hessian_coeffs
            want = A @ total
            if not np.any(C):
                h_sq = (A * A) @ W
            else:
                want = want + np.sum(C * M)
                h_sq = 0.0
                for s in range(0, len(u_c), res.HESSIAN_BLOCK):
                    zb = u_c[s:s + res.HESSIAN_BLOCK]
                    Hu = hams._outer(zb, zb) @ C + A
                    h_sq = np.maximum(h_sq, np.max((Hu * Hu) @ W))
            assert (integral, h_inf) == (float(want), float(np.sqrt(h_sq)))
        # the block size sets only the rounding of M, within the bound of
        # test_polynomial_hessians_match_the_per_row_path
        monkeypatch.setattr(res, "HESSIAN_BLOCK", 1000)
        small = res._stationarity_terms(u_c, S, fs)
        monkeypatch.undo()
        for f, (integral, h_inf), (other, _) in zip(fs, got, small):
            if f.hessian_coeffs is not None:
                assert abs(integral - other) <= 1e-14 * (h_inf * grad_sq + alg.EPS)


def test_frame_block_bitwise_matches_the_fancy_index_formula(rng):
    grad = rng.normal(size=(1000, 2, 4))
    grad[::7, 1] = 0.0
    acc = 0.0
    for k in range(2):
        e = grad[:, k]
        a = -alg.apply_I(e)
        acc = acc + (a[:, hams.UPPER_I] * e[:, hams.UPPER_J]
                     + a[:, hams.UPPER_J] * e[:, hams.UPPER_I])
    want = (0.5 * hams.UPPER_WEIGHTS) * acc
    assert res._frame_block(grad).tobytes() == want.tobytes()


def test_frame_consumers_do_not_read_the_frame_layout(mesh_cache, monkeypatch):
    """The element-frame residuals give the same bits on row-major (T, 2, 4)
    frames as on the component-major views ``element_gradient`` returns."""
    m = mesh_cache(12, 48)
    u = fam.sample(fam.sw_cone(1, 2), m)
    raw = fam.DiscreteMap(m, u.values)               # no exact frames
    mask = np.hypot(*m.centroids.T) > 0.3

    def outputs():
        lag, conf = res.pointwise_geometry_report(raw)
        tensors = [res._frame_tensor(u, keep) for keep in (None, mask)]
        return repr((lag, conf)), [(u_c.tobytes(), S.tobytes(), repr(grad_sq))
                                   for u_c, S, grad_sq in tensors]

    want = outputs()
    monkeypatch.setattr(res, "element_gradient", lambda mesh, values:
                        np.ascontiguousarray(element_gradient(mesh, values)))
    assert outputs() == want


@pytest.mark.parametrize("example", [fam.sw_cone(1, 2), fam.sw_cone(2, 3),
                                     fam.nonminimal_map()],
                         ids=["sw:1,2", "sw:2,3", "nonminimal"])
def test_structural_field_bitwise_matches_complex_scale(mesh_cache, example):
    # 18240 elements: numpy's vector loops run with remainders, and an
    # in-place product of an unnamed temporary would round differently
    pts = mesh_cache(48, 192).centroids
    x, y = pts.T
    g = np.conj(np.asarray(example.angle_xy(x, y), complex))
    fr = example.frame_xy(x, y)
    want = np.stack([alg.complex_scale(g, fr.e_x), alg.complex_scale(g, fr.e_y)],
                    axis=1)
    got = res._structural_field(example, pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("example", [fam.sw_cone(1, 2), fam.sw_cone(2, 3),
                                     fam.nonminimal_map()],
                         ids=["sw:1,2", "sw:2,3", "nonminimal"])
def test_structural_field_independent_of_block_size(mesh_cache, monkeypatch,
                                                    example):
    # 18240 points: blocks of 4096 and of 1000 both end in a remainder
    pts = mesh_cache(48, 192).centroids
    want = res._structural_field(example, pts)
    monkeypatch.setattr(res, "HESSIAN_BLOCK", 1000)
    assert res._structural_field(example, pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("sub", [None, res.HalfPlane(0.0)], ids=["all", "half"])
def test_frame_tensor_matches_the_one_shot_pass(mesh_cache, monkeypatch, sub):
    """The blocked frame tensor gives the bytes of the pass over all the
    (T, 2, 4) frames at once, whatever the block size."""
    m = mesh_cache(48, 192)
    u = fam.sample(fam.sw_cone(1, 2), m)
    keep = _in_omega(u, sub)
    grad, a = element_gradient(m, u.values)[keep], m.areas[keep]
    want = (interpolate_at_centroids(m, u.values)[keep].tobytes(),
            (a[:, None] * res._frame_block(grad)).tobytes(),
            repr(float(np.sum(a * (alg.inner(grad[:, 0], grad[:, 0])
                                   + alg.inner(grad[:, 1], grad[:, 1]))))))
    for block in (res.HESSIAN_BLOCK, 1000):
        monkeypatch.setattr(res, "HESSIAN_BLOCK", block)
        u_c, S, grad_sq = res._frame_tensor(u, None if sub is None else keep)
        assert (u_c.tobytes(), S.tobytes(), repr(grad_sq)) == want


def _peak_over_mesh(call):
    """The tracemalloc peak of ``call(u)`` for sw:1,2 on a fresh 96x384
    mesh, over the bytes that the mesh keeps."""
    mesh, kept, _ = traced(lambda: build_polar_mesh(96, 384))
    u = fam.sample(fam.sw_cone(1, 2), mesh)
    return traced(lambda: call(u))[2] / kept


def test_structural_residual_peak_stays_near_what_the_mesh_keeps():
    # the structural field is formed block by block: 1.62x what the mesh
    # keeps, against 2.30x with the (T, 4) frames of one src.frame call
    exclude = res._report_exclusions(fam.sw_cone(1, 2))
    assert _peak_over_mesh(lambda u: res.structural_residual(u, exclude)) <= 2.0


def test_stationarity_peak_stays_near_what_the_mesh_keeps():
    # the frame tensor is formed block by block: 1.42x what the mesh keeps,
    # against 1.71x with the (T, 2, 4) frames; 20% headroom, because the
    # per-row Hessian blocks set the rest of the peak
    batch = res.ball_report_batch()
    assert _peak_over_mesh(lambda u: res.stationarity_test(u, BALL, batch)) <= 1.7


@pytest.mark.parametrize("example", ["sw:1,2", "nonminimal"])
def test_residuals_do_not_read_the_mesh_layout(example):
    """``full_report`` gives the same bits on a mesh whose triangles, hat
    gradients and centroids are row-major as on the component-major views
    ``DiscMesh`` stores."""
    if example == "nonminimal":
        ex = fam.nonminimal_map()
        domain = dom.curve_domain_from_map(ex)
    else:
        ex, domain = fam.sw_cone(1, 2), BALL
    reports = []
    for row_major in (False, True):
        m = build_polar_mesh(12, 48)       # fresh: nothing derived is cached
        if row_major:
            for name in ("triangles", "hat_gradients", "centroids"):
                setattr(m, name, np.ascontiguousarray(getattr(m, name)))
        reports.append(repr(res.full_report(ex, m, domain)))
    assert reports[0] == reports[1]


# a point 0.41 from every nodal image of sw:1,2 on the 12 x 48 mesh
MISS = np.array([0.5, 0.5, 0.0, 0.0])


def test_stationarity_raises_when_no_function_meets_the_image(mesh_cache):
    # every ||Hess f||_inf is 0, so the batch tested nothing; that must not
    # read as a perfect 0
    u = fam.sample(fam.sw_cone(1, 2), mesh_cache(12, 48))
    assert np.min(alg.norm(u.values - MISS)) > 0.4
    with pytest.raises(ValueError, match="tests nothing"):
        res.stationarity_test(u, BALL, [hams.interior_bump(MISS, 0.15)])


def test_stationarity_with_some_functions_missing_keeps_its_value(mesh_cache):
    # a function that misses the image scores 0 and leaves the maximum of
    # the others as it is
    u = fam.sample(fam.sw_cone(1, 2), mesh_cache(12, 48))
    miss = hams.interior_bump(MISS, 0.15)
    hit = hams.interior_bump(u.values[100], 0.25, 1.3)
    value = res.stationarity_test(u, BALL, [hit])
    assert value > 0.0
    assert res.stationarity_test(u, BALL, [miss, hit]) == value
    assert res.stationarity_test(u, BALL, [hit, miss]) == value


def test_polynomial_coverage_of_the_ball_batches():
    # the shortcut's gain rests on these counts
    def count(fs):
        return sum(f.hessian_coeffs is not None for f in fs)

    report = res.ball_report_batch()
    mixed = res.ball_mixed_batch()
    assert (count(report), len(report)) == (16, 20)
    assert (count(mixed), len(mixed)) == (14, 24)


@pytest.mark.parametrize("kind", ["bump", "wave"])
def test_support_restriction_is_exact(mesh_cache, kind):
    # the quadrature evaluates a function with a support ball only on the
    # elements whose centroid image lies in it; the zero-filled rest must give
    # exactly the value of evaluating every element
    m = mesh_cache(24, 96)
    u = fam.sample(fam.sw_cone(1, 2), m)
    if kind == "bump":
        f = hams.interior_bump(np.array([0.2, 0.1, -0.15, 0.1]), 0.3, 1.4)
    else:
        f = hams.windowed_wave(26.0, hams.smooth_cutoff_profile(0.3, 0.5))
    center, radius = f.support_hint
    u_c = interpolate_at_centroids(m, u.values)
    inside = alg.norm(u_c - center) <= radius
    assert 0 < np.count_nonzero(inside) < len(u_c)
    unhinted = hams.Hamiltonian(f.value, f.gradient, f.hessian)
    for sub in (None, res.HalfPlane(0.0)):
        value = _stationarity_integral(u, f, sub)
        assert value != 0.0
        assert value == _stationarity_integral(u, unhinted, sub)


def test_stationarity_empty_batch_raises(mesh_cache):
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(8, 32))
    with pytest.raises(ValueError, match="empty test set"):
        res.stationarity_test(u, BALL, [])


def test_localized_stationarity_cut_between_boundary_nodes(mesh_cache):
    # x = 0.3 meets the circle between two boundary nodes of a 96-sector
    # mesh, so both end samples of the cut lie outside the polygonal mesh
    m = mesh_cache(24, 96)
    k = np.arccos(0.3) * 96 / (2 * np.pi)
    assert abs(k - round(k)) > 0.1
    cone = fam.sw_cone(1, 2)
    u = fam.sample(cone, m)
    sub = res.HalfPlane(0.3)
    cut = m.interpolate(u.values, sub.interior_boundary_samples())
    assert len(cut) == 64
    fs = []
    for x, y in [(0.7, 0.0), (0.55, 0.35), (0.55, -0.35)]:
        center = cone.value_xy(np.array([x]), np.array([y]))[0]
        gap = float(np.min(np.linalg.norm(cut - center, axis=1)))
        fs.append(hams.interior_bump(center, min(0.2, 0.8 * gap), 1.0))
    v = res.stationarity_test(u, BALL, fs, subdomain=sub)
    assert np.isfinite(v) and 0.0 <= v <= 1e-3


def test_subdomain_specs():
    half = res.HalfPlane(0.2)
    assert half.contains(np.array([[0.5, 0.0]]))[0]
    assert not half.contains(np.array([[0.0, 0.0]]))[0]
    pts = half.interior_boundary_samples(32)
    assert np.allclose(pts[:, 0], 0.2)
    with pytest.raises(ValueError, match="cut must intersect the open disc"):
        res.HalfPlane(1.5)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------
def test_full_report_flat_null(mesh_cache):
    rep = res.full_report(fam.flat_disc(np.eye(2)), mesh_cache(16, 64), BALL)
    for check in res.ResidualReport.CHECKS:
        assert getattr(rep, check) <= 1e-10, check


def test_full_report_refinement_decrease(mesh_cache):
    reports = [res.full_report(fam.sw_cone(1, 2), mesh_cache(n, 4 * n), BALL)
               for n in (8, 16)]
    for check in res.ResidualReport.CHECKS:
        a, b = (getattr(r, check) for r in reports)
        assert b <= a or b <= 1e-12, check


def test_report_serialization(mesh_cache):
    rep = res.full_report(fam.sw_cone(1, 2), mesh_cache(8, 32), BALL)
    d = rep.to_dict()
    assert set(d) == set(res.ResidualReport.CHECKS) | {"h"}


def test_fit_order_floor():
    assert np.isinf(res.fit_order([0.1, 0.05], [1e-15, 1e-14]))
    assert res.fit_order([0.1, 0.05], [1e-2, 5e-3]) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_order_rejects_a_non_finite_value(bad):
    # a NaN value once gave a NaN order
    with pytest.raises(ValueError, match="not finite"):
        res.fit_order([0.2, 0.1, 0.05], [1e-2, bad, 2e-3])


@pytest.mark.parametrize("hs,vals", [([0.1], [1e-2]), ([0.1, 0.1], [1e-2, 5e-3]),
                                     ([0.1], [1e-15])])
def test_fit_order_needs_two_distinct_h(hs, vals):
    with pytest.raises(ValueError, match="needs at least two distinct h"):
        res.fit_order(hs, vals)


@pytest.mark.parametrize("h", [0.0, -0.05, float("nan"), float("inf")])
def test_fit_order_rejects_an_h_that_is_not_finite_positive(h):
    # log(h) of these once reached LAPACK, which failed to converge
    with pytest.raises(ValueError, match="h is not a finite positive number"):
        res.fit_order([0.1, h], [1e-3, 1e-4])


def test_ball_batches_reject_sizes_below_their_fixed_functions():
    # the report batch always holds its 4 fixed functions, so a smaller size
    # once returned 4, and ball_mixed_batch(size=10, n_bumps=8) returned 12
    assert len(res.ball_report_batch(4)) == 4
    assert len(res.ball_mixed_batch(size=12, n_bumps=8)) == 12
    for make in (lambda: res.ball_report_batch(2),
                 lambda: res.ball_mixed_batch(size=10, n_bumps=8),
                 lambda: res.ball_mixed_batch(size=24, n_bumps=-1)):
        with pytest.raises(ValueError, match="4 fixed functions|n_bumps"):
            make()


@pytest.mark.parametrize("size", [4.5, 12.0, True])
def test_ball_report_batch_rejects_a_size_that_is_not_an_int(size):
    # size=4.5 returned 5 functions
    assert len(res.ball_report_batch(np.int64(5))) == 5
    with pytest.raises(ValueError, match="size must be an int"):
        res.ball_report_batch(size)


@pytest.mark.parametrize("counts", [(12.5, 4), (12, 2.5), (12, True), (12.0, 4)])
def test_ball_mixed_batch_rejects_counts_that_are_not_ints(counts):
    # n_bumps=2.5 raised TypeError from range
    size, n_bumps = counts
    assert len(res.ball_mixed_batch(size=np.int64(12), n_bumps=np.int32(4))) == 12
    with pytest.raises(ValueError, match="size and n_bumps must be ints"):
        res.ball_mixed_batch(size=size, n_bumps=n_bumps)


@pytest.mark.parametrize("size", [12.5, 12.0, True])
def test_curve_report_batch_rejects_a_size_that_is_not_an_int(size):
    # size=12.5 returned 13 functions
    nm = fam.nonminimal_map()
    domain = dom.curve_domain_from_map(nm)
    assert len(res.curve_report_batch(domain, nm, size=np.int64(8))) == 8
    with pytest.raises(ValueError, match="size must be an int"):
        res.curve_report_batch(domain, nm, size=size)


@pytest.mark.parametrize("size", [2, 5, -5])
def test_curve_report_batch_rejects_a_size_below_its_fixed_functions(size):
    # size=2 and size=-5 returned the six z1-arc functions
    nm = fam.nonminimal_map()
    with pytest.raises(ValueError, match="size must be an int >= 6"):
        res.curve_report_batch(dom.curve_domain_from_map(nm), nm, size=size)


def test_curve_report_batch_counts_its_fixed_functions():
    nm = fam.nonminimal_map()
    domain = dom.curve_domain_from_map(nm)
    fixed = [f"z1arc({c})" for c in ("0.45,0.35", "-0.45,0.35", "0.6,0.25",
                                      "-0.6,0.25", "0.35,0.25", "-0.35,0.25")]
    assert [f.name for f in res.curve_report_batch(domain, nm, size=6)] == fixed
    full = res.curve_report_batch(domain, nm, size=12)
    assert [f.name for f in full[:6]] == fixed
    # and six interior bumps
    assert all(f.support_hint is not None for f in full[6:]) and len(full) == 12


@pytest.mark.parametrize("c", [float("nan"), 1.0, -1.5])
def test_half_plane_rejects_a_cut_missing_the_open_disc(c):
    # a NaN cut once passed, to fail later as an empty subdomain
    with pytest.raises(ValueError, match="cut must intersect the open disc"):
        res.HalfPlane(c)
