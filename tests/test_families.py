import numpy as np
import pytest

from lagdisc import algebra as alg
from lagdisc import families as fam
from conftest import random_unitary

ALL_EXAMPLES = [fam.flat_disc(np.eye(2)), fam.sw_cone(1, 2), fam.sw_cone(2, 3),
                fam.nonminimal_map()]


# ---------------------------------------------------------------------------
# flat discs
# ---------------------------------------------------------------------------
def test_flat_identity_values():
    fd = fam.flat_disc(np.eye(2))
    v = fd.value_xy(np.array([0.3]), np.array([-0.2]))[0]
    assert np.allclose(v, [0.3, 0.0, -0.2, 0.0])
    assert np.allclose(fd.angle(0.5, 1.0), 1.0)


def test_flat_angle_is_determinant():
    # oracle: pull back dz1^dz2 through U . (x, y); for U = diag(i, 1) the
    # form picks up exactly det U = i
    U = np.diag([1j, 1.0])
    fd = fam.flat_disc(U)
    fr = fd.frame(0.7, 0.3)
    _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
    assert abs(gbar - np.linalg.det(U)) <= 1e-12
    assert abs(complex(fd.angle(0.7, 0.3)) - 1j) <= 1e-12


def test_flat_angle_matches_frames_random_unitary(rng):
    for _ in range(5):
        U = random_unitary(rng)
        fd = fam.flat_disc(U)
        fr = fd.frame(0.4, -1.1)
        _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
        assert abs(gbar - complex(fd.angle(0.4, -1.1))) <= 1e-12


def test_flat_boundary_great_circle():
    fd = fam.flat_disc(np.eye(2))
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    v = fd.value(np.ones_like(th), th)
    assert np.max(np.abs(alg.norm(v) - 1.0)) <= 1e-14
    assert np.allclose(v[:, [1, 3]], 0.0)


def test_flat_not_unitary():
    with pytest.raises(ValueError, match="matrix is not unitary"):
        fam.flat_disc(np.array([[1.0, 0.1], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------
def test_sw_value_example():
    v = fam.sw_cone(1, 2).value(1.0, 0.0)
    assert np.allclose(v, [np.sqrt(2 / 3), 0.0, 0.0, np.sqrt(1 / 3)],
                       atol=1e-12)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_sw_angle_paper_value():
    ang = complex(fam.sw_cone(1, 2).angle(1.0, np.pi / 2))
    assert abs(ang - np.exp(-1j * np.pi / 2)) <= 1e-14


def test_sw_conformal_factor():
    # oracle: |d_r Phi|^2 = pq * r^(2(sqrt(pq)-1)) = 1.1262857... at r = 1/2
    fr = fam.sw_cone(1, 2).frame(0.5, 0.0)
    e2lam, _ = alg.lagrangian_angle(fr.e_x, fr.e_y)
    assert abs(e2lam - 2.0 * 0.5 ** (2 * (np.sqrt(2) - 1))) <= 1e-12
    assert abs(e2lam - 1.1262857) <= 1e-6


def test_sw_parameter_errors():
    with pytest.raises(ValueError, match="p and q must be coprime"):
        fam.sw_cone(2, 4)
    with pytest.raises(ValueError):
        fam.sw_cone(0, 3)
    with pytest.raises(ValueError):
        fam.sw_cone(1.5, 2)


def test_sw_one_one_is_flat():
    cone = fam.sw_cone(1, 1)
    assert cone.singular_points == []
    th = np.linspace(0, 2 * np.pi, 32)
    assert np.max(np.abs(cone.angle(np.full_like(th, 0.7), th) - 1.0)) <= 1e-14


def test_sw_boundary_radiality():
    # d_r Phi(1, theta) = sqrt(pq) * Phi(1, theta) componentwise
    for (p, q) in ((1, 2), (2, 3), (3, 4)):
        cone = fam.sw_cone(p, q)
        th = np.linspace(0, 2 * np.pi, 257)
        fr = cone.frame(np.ones_like(th), th)
        d_r = np.cos(th)[:, None] * fr.e_x + np.sin(th)[:, None] * fr.e_y
        v = cone.value(np.ones_like(th), th)
        assert np.max(np.abs(d_r - np.sqrt(p * q) * v)) <= 1e-12


def test_sw_legendrian_boundary():
    # <d_theta Phi, I Phi> = 0 on r = 1: the boundary is Legendrian
    for (p, q) in ((1, 2), (2, 3), (3, 4)):
        cone = fam.sw_cone(p, q)
        th = np.linspace(0, 2 * np.pi, 257)
        fr = cone.frame(np.ones_like(th), th)
        d_t = -np.sin(th)[:, None] * fr.e_x + np.cos(th)[:, None] * fr.e_y
        v = cone.value(np.ones_like(th), th)
        assert np.max(np.abs(alg.inner(d_t, alg.apply_I(v)))) <= 1e-12


# ---------------------------------------------------------------------------
# the non-minimal example
# ---------------------------------------------------------------------------
def test_nonminimal_values(rng):
    nm = fam.nonminimal_map()
    assert np.allclose(nm.value_xy(0.0, 0.0), [1, 0, 0, 0])
    x, y = rng.uniform(-0.7, 0.7, 100), rng.uniform(-0.7, 0.7, 100)
    fr = nm.frame_xy(x, y)
    e2lam, _ = alg.lagrangian_angle(fr.e_x, fr.e_y)
    assert np.max(np.abs(e2lam - 1.0)) <= 1e-12
    assert np.max(np.abs(alg.symplectic(fr.e_x, fr.e_y))) <= 1e-12


def test_nonminimal_angle_nonconstant(rng):
    nm = fam.nonminimal_map()
    r = np.sqrt(rng.uniform(0, 1, 5000))
    th = rng.uniform(0, 2 * np.pi, 5000)
    ang = nm.angle(r, th)
    assert np.mean(np.abs(ang - ang.mean()) ** 2) > 0.1


def test_nonminimal_angle_flux_constant():
    nm = fam.nonminimal_map()
    pts = np.random.default_rng(0).uniform(-0.7, 0.7, size=(50, 2))
    w = nm.angle_flux_field(pts)
    assert np.allclose(w, [-1.0, 0.0])


def test_nonminimal_boundary_X_oracle():
    # finite-difference oracle for X = gbar J d_tau u + G I d_tau u, G = -y
    nm = fam.nonminimal_map()
    th = np.linspace(0, 2 * np.pi, 97)
    h = 1e-6
    d_tau = (nm.value(np.ones_like(th), th + h)
             - nm.value(np.ones_like(th), th - h)) / (2 * h)
    x, y = np.cos(th), np.sin(th)
    gbar = np.exp(-1j * x)
    X_fd = (alg.complex_scale(gbar, alg.apply_J(d_tau))
            - y[:, None] * alg.apply_I(d_tau))
    X = nm.boundary_X(th)
    assert np.max(np.abs(X - X_fd)) <= 1e-8
    # value at theta = pi/2, where d_nu u = (0, i) and I d_tau u = (-1, 0):
    # X = (0, i) - (-1, 0) = (1, 0, 0, 1)
    Xq = nm.boundary_X(np.pi / 2)
    assert np.allclose(Xq, [1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert abs(np.linalg.norm(Xq) - np.sqrt(2)) <= 1e-12
    # tangency along the whole boundary
    assert np.max(np.abs(alg.inner(X, d_tau))) <= 1e-6


# ---------------------------------------------------------------------------
# geometric invariants shared by every family
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ex", ALL_EXAMPLES, ids=lambda e: e.kind)
def test_lagrangian_weakly_conformal(ex, rng):
    r = rng.uniform(0.05, 0.999, 1000)
    th = rng.uniform(-np.pi, np.pi, 1000)
    fr = ex.frame(r, th)
    e2 = 0.5 * (alg.inner(fr.e_x, fr.e_x) + alg.inner(fr.e_y, fr.e_y))
    assert np.max(np.abs(alg.symplectic(fr.e_x, fr.e_y)) / e2) <= 1e-12
    assert np.max(np.abs(alg.inner(fr.e_x, fr.e_y)) / e2) <= 1e-12
    assert np.max(np.abs(alg.inner(fr.e_x, fr.e_x)
                         - alg.inner(fr.e_y, fr.e_y)) / e2) <= 1e-12


@pytest.mark.parametrize("ex", ALL_EXAMPLES, ids=lambda e: e.kind)
def test_frames_match_finite_differences(ex, rng):
    x = rng.uniform(-0.6, 0.6, 200)
    y = rng.uniform(-0.6, 0.6, 200)
    keep = np.hypot(x, y) > 0.05  # stay away from possible cone points
    x, y = x[keep], y[keep]
    step = 1e-4
    fr = ex.frame_xy(x, y)
    fd_x = (ex.value_xy(x + step, y) - ex.value_xy(x - step, y)) / (2 * step)
    fd_y = (ex.value_xy(x, y + step) - ex.value_xy(x, y - step)) / (2 * step)
    assert np.max(np.abs(fd_x - fr.e_x)) <= 1e-6
    assert np.max(np.abs(fd_y - fr.e_y)) <= 1e-6


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------
def test_sample_flat_identity(mesh_cache):
    m = mesh_cache(4, 16)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    assert np.allclose(u.values[:, 0], m.nodes[:, 0])
    assert np.allclose(u.values[:, 2], m.nodes[:, 1])
    assert np.allclose(u.values[:, [1, 3]], 0.0)


def test_sample_sw_node_value(mesh_cache):
    m = mesh_cache(4, 16)
    u = fam.sample(fam.sw_cone(1, 2), m)
    # boundary node at theta = 0 carries Phi_{1,2}(1, 0)
    idx = np.argmin(np.abs(m.nodes[:, 0] - 1.0) + np.abs(m.nodes[:, 1]))
    assert np.allclose(u.values[idx], [np.sqrt(2 / 3), 0, 0, np.sqrt(1 / 3)],
                       atol=1e-12)


def test_sample_zero_frame_at_cone_point(mesh_cache):
    m = mesh_cache(4, 16)
    u = fam.sample(fam.sw_cone(2, 3), m)
    assert np.all(u.exact_frames.e_x[0] == 0.0)
    assert np.all(u.exact_frames.e_y[0] == 0.0)


def test_discrete_map_validation(mesh_cache):
    m = mesh_cache(2, 8)
    with pytest.raises(ValueError):
        fam.DiscreteMap(mesh=m, values=np.zeros((3, 4)))
    bad = np.zeros((len(m.nodes), 4))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        fam.DiscreteMap(mesh=m, values=bad)
