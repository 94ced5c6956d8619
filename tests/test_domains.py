import numpy as np
import pytest

from lagdisc import algebra as alg
from lagdisc import domains as dom
from lagdisc.families import flat_disc, nonminimal_map, sample


# ---------------------------------------------------------------------------
# unit ball
# ---------------------------------------------------------------------------
def test_ball_normals():
    ball = dom.unit_ball()
    assert np.allclose(ball.normal_at(np.array([1.0, 0, 0, 0])), [1, 0, 0, 0])
    assert np.allclose(ball.normal_at(np.array([0.0, 1, 0, 0])), [0, 1, 0, 0])
    # the normal extension is defined off the boundary (radial normalization)
    assert np.allclose(ball.normal_extension(np.array([0.0, 0, 0, 2.0])),
                       [0, 0, 0, 1])
    assert ball.F(np.array([0.5, 0, 0, 0])) == pytest.approx(-0.75)


def test_ball_constraint_bitwise_matches_axis_sum(rng):
    z = rng.normal(size=(4096, 4))
    F = dom.unit_ball().F(z)
    assert np.array_equal(F, np.sum(z * z, axis=-1) - 1.0)
    assert F.shape == (4096,)


def test_ball_contains_ball_is_the_exact_rule():
    # |c| + r < 1 on seeded balls: generic ones, ones 1e-6 inside and 1e-6
    # outside tangency at radii up to 0.99, and the centred ones
    ball = dom.unit_ball()
    rng = np.random.default_rng(7)
    balls = [(np.zeros(4), 1.0 + s) for s in (-1e-6, 1e-6)]
    radii = np.concatenate([rng.uniform(0.01, 0.6, 200),
                            rng.uniform(0.6, 0.99, 200), [0.8, 0.95, 0.99]])
    for r in radii:
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        balls.append((rng.uniform(0.0, 0.9) * d, rng.uniform(0.01, 0.99)))
        balls += [((1.0 - r) * d, r + s) for s in (-1e-6, 1e-6)]
    got = [ball.contains_ball(c, r) for c, r in balls]
    want = [np.linalg.norm(c) + r < 1.0 for c, r in balls]
    assert got == want
    assert 0 < sum(got) < len(got)


@pytest.mark.parametrize("axes", [(1, 1.3, 1, 1.3), (1, 0.8, 1, 0.8),
                                  (1, 1, 1.3, 1.3)])
def test_level_set_wall_test_is_sound(axes):
    # every accepted ball keeps F < 0 on 4096 seeded points of its sphere
    # and at c +- r e_i; on the unit ball the bound is the exact peak
    axes = np.asarray(axes, float)
    domain = dom.LevelSetDomain(1 / axes ** 2)
    ball = dom.unit_ball()
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(4096, 4))
    dirs = np.concatenate([dirs / alg.norm(dirs)[:, None], np.eye(4), -np.eye(4)])
    accepted = 0
    for r in rng.uniform(0.2, 0.99, 200):
        d = rng.normal(size=4)
        c = rng.uniform(0.0, 0.9) * axes * d / np.linalg.norm(d)
        peak = np.max(domain.F(c + r * dirs))
        assert domain.peak_bound(c, r) >= peak
        if domain.contains_ball(c, r):
            accepted += 1
            assert peak < 0
        assert abs(ball.peak_bound(c, r) - ((np.linalg.norm(c) + r) ** 2 - 1)) <= 1e-12
    assert 0 < accepted < 200


@pytest.mark.parametrize("A", [np.ones(3), [1, 0, 1, 1], [1, 1, -1, 1],
                               [1, np.nan, 1, 1], [1, 1, 1, np.inf]])
def test_level_set_rejects_a_that_is_not_four_positive_finite_numbers(A):
    with pytest.raises(ValueError, match="A must be 4 positive finite numbers"):
        dom.LevelSetDomain(A)


def test_ball_normal_at_requires_boundary():
    ball = dom.unit_ball()
    with pytest.raises(ValueError, match="not on the domain boundary"):
        ball.normal_at(np.array([0.9, 0, 0, 0]))  # 0.1 away from the sphere


def test_ball_projection():
    ball = dom.unit_ball()
    assert np.allclose(ball.project_to_boundary(np.array([2.0, 0, 0, 0])),
                       [1, 0, 0, 0])
    assert np.allclose(ball.project_to_boundary(np.array([0.9, 0, 0, 0])),
                       [1, 0, 0, 0])
    with pytest.raises(RuntimeError, match="gradient vanished during projection"):
        ball.project_to_boundary(np.zeros(4))


def test_nan_level_set_point_rejected():
    """A NaN gradient fails the nonvanishing-gradient checks, instead of
    giving a NaN normal or running the Newton projection to its step cap."""
    ball = dom.unit_ball()
    pts = np.array([[0.5, 0, 0, 0], [np.nan, 0, 0, 0]])
    with pytest.raises(RuntimeError, match="level-set gradient vanishes"):
        ball.normal_extension(pts)
    with pytest.raises(RuntimeError, match="gradient vanished during projection"):
        ball.project_to_boundary(pts)


def test_ball_projection_idempotent(rng):
    ball = dom.unit_ball()
    z = rng.normal(size=(1000, 4))
    z *= rng.uniform(0.5, 1.5, size=1000)[:, None] / alg.norm(z)[:, None]
    p = ball.project_to_boundary(z)
    p2 = ball.project_to_boundary(p)
    assert np.max(np.abs(p2 - p)) <= 1e-12
    # displacement parallel to gradF (radial) at the result
    disp = z - p
    radial = p / alg.norm(p)[:, None]
    off = disp - alg.inner(disp, radial)[:, None] * radial
    assert np.max(alg.norm(off)) <= 1e-8


# ---------------------------------------------------------------------------
# curve domains
# ---------------------------------------------------------------------------
def test_curve_domain_from_nonminimal():
    nm = nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    # |X| >= 1 > 0.5 on the grid (oracle: |X|^2 = 2 - cos^2 theta)
    th = d.theta_grid
    X = nm.boundary_X(th)
    assert np.min(alg.norm(X)) > 0.5
    assert np.max(np.abs(alg.norm(X) ** 2 - (2 - np.cos(th) ** 2))) <= 1e-12
    assert d.tangency_residual <= 1e-8


def test_curve_normal_at_quarter_turn():
    nm = nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    p = nm.value(1.0, np.pi / 2)
    assert np.allclose(p, [1, 0, 0, 1], atol=1e-14)
    n = d.normal_at(p)
    # X(pi/2) = (1, 0, 0, 1), see test_nonminimal_boundary_X_oracle
    assert np.allclose(n, np.array([1.0, 0, 0, 1.0]) / np.sqrt(2), atol=1e-9)


def test_curve_normal_off_curve_rejected():
    d = dom.curve_domain_from_map(nonminimal_map())
    with pytest.raises(ValueError, match="not on the stored boundary curve"):
        d.normal_at(np.array([0.0, 0, 0, 0.5]))


@pytest.mark.parametrize("rings,sectors", [(24, 96), (48, 192)])
def test_curve_normal_batch_reads_the_inverse(mesh_cache, rings, sectors):
    nm = nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    m = mesh_cache(rings, sectors)
    pts = sample(nm, m).values[m.is_boundary]
    want = d.normal_at_theta(nm.boundary_theta(pts))
    assert np.array_equal(d.normal_at(pts), want)
    for i in (0, sectors // 3, sectors - 1):
        assert np.array_equal(d.normal_at(pts[i]), want[i])
    # leading axes are kept
    assert np.array_equal(d.normal_at(pts.reshape(2, -1, 4)),
                          want.reshape(2, -1, 4))
    assert d.normal_at(np.empty((0, 4))).shape == (0, 4)


def test_boundary_theta_inverts_the_boundary_curve():
    nm = nonminimal_map()
    th = np.concatenate([np.linspace(-np.pi, np.pi, 993),
                         [0.0, np.pi / 2, -np.pi / 2, np.pi,
                          np.pi - 1e-12, np.pi + 1e-12, -np.pi + 1e-12, 2 * np.pi]])
    assert len(th) == 1001
    back = nm.boundary_theta(nm.value(np.ones_like(th), th))
    wrapped = np.angle(np.exp(1j * (back - th)))
    assert np.max(np.abs(wrapped)) <= 1e-15


def test_nan_boundary_point_rejected():
    nan = np.array([[np.nan, 0, 0, 0]])
    with pytest.raises(ValueError, match="not on the domain boundary"):
        dom.unit_ball().normal_at(nan)
    d = dom.curve_domain_from_map(nonminimal_map())
    pts = nonminimal_map().value(np.ones(3), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="not on the stored boundary curve"):
        d.normal_at(np.concatenate([pts, nan]))


def test_curve_normal_batch_rejects_one_off_curve_row():
    nm = nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    th = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = nm.value(np.ones_like(th), th)
    d.normal_at(pts)
    pts[17, 3] += 1e-3
    with pytest.raises(ValueError, match="not on the stored boundary curve"):
        d.normal_at(pts)


def test_curve_projection_unsupported():
    d = dom.curve_domain_from_map(nonminimal_map())
    with pytest.raises(TypeError, match="projection is not defined"):
        d.project_to_boundary(np.zeros(4))


@pytest.mark.parametrize("rings,sectors", [(24, 96), (96, 384)])
def test_curve_normal_is_the_exact_unit_field(mesh_cache, rings, sectors):
    """The normal is X/|X| itself, at every curve parameter and at the
    images of the boundary nodes."""
    nm = nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    th = np.linspace(-1.0, 2 * np.pi + 1.0, 1001)
    X = nm.boundary_X(th)
    assert np.array_equal(d.normal_at_theta(th), X / alg.norm(X)[:, None])
    m = mesh_cache(rings, sectors)
    t = np.arctan2(m.nodes[m.is_boundary, 1], m.nodes[m.is_boundary, 0])
    X = nm.boundary_X(t)
    n = d.normal_at(sample(nm, m).values[m.is_boundary])
    assert np.max(np.abs(n - X / alg.norm(X)[:, None])) <= 1e-15


def _boundary_curve(example):
    return lambda th: example.value(np.ones_like(th), th)


def test_curve_degenerate_normal():
    nm = nonminimal_map()
    with pytest.raises(ValueError, match="constraint field X degenerates"):
        dom.CurveNormalDomain(_boundary_curve(nm),
                              lambda th: np.zeros((len(th), 4)),
                              nm.boundary_tangent, nm.boundary_theta)


def test_flat_disc_curve_reproduces_ball_normals():
    # X := u along the great circle gives back the sphere normal N = u
    fd = flat_disc(np.eye(2))
    d = dom.CurveNormalDomain(_boundary_curve(fd), _boundary_curve(fd),
                              fd.boundary_tangent,
                              lambda z: np.arctan2(z[..., 2], z[..., 0]))
    ball = dom.unit_ball()
    for th in np.linspace(0, 2 * np.pi, 17):
        p = fd.value(1.0, th)
        assert np.allclose(d.normal_at(p), ball.normal_at(p), atol=1e-9)
