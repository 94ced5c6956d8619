import json

import numpy as np
import pytest

from lagdisc import mesh as msh
from lagdisc.families import nonminimal_map, sw_cone
from lagdisc.residuals import fit_order
from conftest import traced


def test_build_counts():
    m = msh.build_polar_mesh(2, 8, 1.0)
    assert len(m.nodes) == 17
    assert len(m.triangles) == 24
    assert len(m.boundary_edges) == 8


def test_grading_radii():
    m = msh.build_polar_mesh(3, 12, 0.5)
    assert np.allclose(m.polar_info["radii"], [(k / 3) ** 2 for k in (1, 2, 3)])


@pytest.mark.parametrize("args", [(1, 8, 1.0), (2, 7, 1.0), (4, 16, 0.1),
                                  (4, 16, 1.5)])
def test_invalid_parameters(args):
    with pytest.raises(ValueError, match=r"^(need n_rings >= 2|grading must lie)"):
        msh.build_polar_mesh(*args)


def test_mesh_invariants(mesh_cache):
    m = mesh_cache(6, 24)
    assert np.all(m.areas >= 1e-14)
    assert np.max(np.abs(m.node_r[m.is_boundary] - 1.0)) <= 1e-12
    m.validate()  # cycle + conformity


def _loop_build_polar_mesh(n_rings, n_sectors, grading):
    """Reference: the per-ring, per-sector loops ``build_polar_mesh`` replaced."""
    radii = (np.arange(1, n_rings + 1) / n_rings) ** (1.0 / grading)
    theta = 2 * np.pi * np.arange(n_sectors) / n_sectors
    nodes = np.empty((1 + n_rings * n_sectors, 2))
    nodes[0] = 0.0
    for k in range(1, n_rings + 1):
        idx = 1 + (k - 1) * n_sectors
        nodes[idx:idx + n_sectors, 0] = radii[k - 1] * np.cos(theta)
        nodes[idx:idx + n_sectors, 1] = radii[k - 1] * np.sin(theta)

    def node(k, j):
        return 1 + (k - 1) * n_sectors + (j % n_sectors)

    tris = []
    for j in range(n_sectors):
        tris.append((0, node(1, j), node(1, j + 1)))
    for k in range(1, n_rings):
        for j in range(n_sectors):
            p0, p1 = node(k, j), node(k + 1, j)
            p2, p3 = node(k + 1, j + 1), node(k, j + 1)
            if (j + k) % 2 == 0:
                tris.append((p0, p1, p2))
                tris.append((p0, p2, p3))
            else:
                tris.append((p0, p1, p3))
                tris.append((p1, p2, p3))
    triangles = np.array(tris, dtype=int)
    boundary_edges = np.array(
        [(node(n_rings, j), node(n_rings, j + 1)) for j in range(n_sectors)],
        dtype=int)
    is_boundary = np.zeros(len(nodes), dtype=bool)
    is_boundary[1 + (n_rings - 1) * n_sectors:] = True
    return nodes, triangles, boundary_edges, is_boundary


@pytest.mark.parametrize("args", [(2, 8, 1.0), (3, 12, 0.5), (7, 30, 0.3),
                                  (24, 96, 1.0)])
def test_build_bitwise_matches_loops(args):
    m = msh.build_polar_mesh(*args)
    got = (m.nodes, m.triangles, m.boundary_edges, m.is_boundary)
    for a, b in zip(got, _loop_build_polar_mesh(*args)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_build_peak_stays_near_what_the_mesh_keeps():
    # 96x384: the (3, T) triangles are written in place and validate sorts
    # its side keys in place; 1.66x what the mesh keeps, against 2.77x when
    # the triangles were stacked and validate took np.unique of a key copy
    mesh, kept, peak = traced(lambda: msh.build_polar_mesh(96, 384))
    assert kept >= sum(a.nbytes for a in (mesh.nodes, mesh.triangles, mesh.areas,
                                          mesh.hat_gradients, mesh.centroids))
    assert peak <= 2.05 * kept


def _dict_validate(mesh):
    """Reference: the per-triangle dict edge count ``validate`` replaced."""
    if np.any(mesh.areas < 1e-14):
        raise ValueError("mesh has a non-positive or degenerate triangle")
    r = mesh.node_r[mesh.is_boundary]
    if np.any(np.abs(r - 1.0) > 1e-12):
        raise ValueError("boundary node off the unit circle")
    be = mesh.boundary_edges
    if len(be) and (np.any(be[1:, 0] != be[:-1, 1]) or be[0, 0] != be[-1, 1]):
        raise ValueError("boundary edges do not form a single closed cycle")
    edges = {}
    for tri in mesh.triangles.tolist():
        for a in range(3):
            key = (min(tri[a], tri[(a + 1) % 3]), max(tri[a], tri[(a + 1) % 3]))
            edges[key] = edges.get(key, 0) + 1
    bset = {(min(i, j), max(i, j)) for i, j in be.tolist()}
    # the first bad edge is the smallest (i, j)
    for key, count in sorted(edges.items()):
        want = 1 if key in bset else 2
        if count != want:
            raise ValueError(f"edge {key} shared by {count} triangles")
    return mesh


def _with(mesh, nodes=None, triangles=None):
    return msh.DiscMesh(mesh.nodes if nodes is None else nodes,
                        mesh.triangles if triangles is None else triangles,
                        mesh.boundary_edges)


def _broken_meshes():
    m = msh.build_polar_mesh(4, 16, 1.0)
    tris = m.triangles
    yield "duplicated", _with(m, triangles=np.vstack([tris, tris[40:41]]))
    yield "dropped", _with(m, triangles=np.delete(tris, 40, axis=0))
    # a triangle outside the disc glued onto the boundary edge (i, j)
    i, j = m.boundary_edges[3]
    mid = 0.6 * (m.nodes[i] + m.nodes[j])
    nodes = np.vstack([m.nodes, mid])
    yield "boundary edge in two triangles", _with(
        m, nodes=nodes, triangles=np.vstack([tris, [j, i, len(m.nodes)]]))


def _delaunay_disc(n_boundary=40, n_interior=120, seed=5):
    """A mesh that is not polar: the Delaunay triangulation of points on
    the unit circle and of random points well inside it."""
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    t = 2 * np.pi * np.arange(n_boundary) / n_boundary
    r = 0.9 * np.sqrt(rng.uniform(size=n_interior))
    th = rng.uniform(0.0, 2 * np.pi, size=n_interior)
    nodes = np.vstack([np.column_stack([np.cos(t), np.sin(t)]),
                       np.column_stack([r * np.cos(th), r * np.sin(th)])])
    tris = Delaunay(nodes).simplices.astype(int)
    p = nodes[tris]
    cw = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
          - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])) < 0
    tris[cw] = tris[cw][:, ::-1]
    j = np.arange(n_boundary)
    return msh.DiscMesh(nodes, tris, np.column_stack([j, (j + 1) % n_boundary]))


def _int32_mesh(drop=None):
    """The 100x480 polar mesh, whose N = 48001 > 46341 nodes make a side key
    i*N + j overflow int32, with int32 triangles (less the one at ``drop``)."""
    m = msh.build_polar_mesh(100, 480, 1.0)
    tris = m.triangles if drop is None else np.delete(m.triangles, drop, axis=0)
    return _with(m, triangles=tris.astype(np.int32))


@pytest.mark.parametrize("size", [(2, 8), (3, 12), (6, 24), (9, 40), "not polar",
                                  "int32, N > 46341"])
def test_validate_matches_dict_loop_on_valid_meshes(mesh_cache, size):
    if size == "not polar":
        m = _delaunay_disc()
    elif size == "int32, N > 46341":
        m = _int32_mesh()
    else:
        m = mesh_cache(*size)
    assert m.validate() is m
    assert _dict_validate(m) is m


def _skipped_boundary_node():
    """A polar mesh whose boundary cycle jumps from outer node 0 to outer
    node 2: its first boundary edge is no triangle edge."""
    m = msh.build_polar_mesh(4, 16, 1.0)
    be = m.boundary_edges
    return msh.DiscMesh(m.nodes, m.triangles,
                        np.vstack([[be[0, 0], be[1, 1]], be[2:]]))


@pytest.mark.parametrize("case", ["duplicated", "dropped",
                                  "boundary edge in two triangles",
                                  "boundary edge not a triangle edge",
                                  "dropped, int32, N > 46341"])
def test_validate_rejects_nonconforming_mesh(case):
    bad = {**dict(_broken_meshes()),
           "boundary edge not a triangle edge": _skipped_boundary_node(),
           "dropped, int32, N > 46341": _int32_mesh(drop=-1)}[case]
    with pytest.raises(ValueError,
                       match=r"^edge \(\d+, \d+\) shared by \d+ triangles$") as got:
        bad.validate()
    with pytest.raises(ValueError, match="shared by") as want:
        _dict_validate(bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", [(2, 8), (6, 24), (9, 40), "not polar",
                                  "boundary edge not a triangle edge"])
def test_is_boundary_is_the_node_set_of_the_boundary_edges(mesh_cache, case):
    # derived at construction, so no mask can disagree with the cycle: the
    # cycle that skips outer node 1 leaves that node interior
    m = {"not polar": _delaunay_disc,
         "boundary edge not a triangle edge": _skipped_boundary_node}.get(
        case, lambda: mesh_cache(*case))()
    assert m.is_boundary.dtype == bool
    assert np.array_equal(np.flatnonzero(m.is_boundary),
                          np.unique(m.boundary_edges))


def test_a_boundary_mask_argument_is_rejected():
    # the mask is no longer a constructor argument, and polar_info is
    # keyword-only, so a call that still passes the mask cannot bind it
    m = msh.build_polar_mesh(4, 16, 1.0)
    with pytest.raises(TypeError):
        msh.DiscMesh(m.nodes, m.triangles, m.boundary_edges, m.is_boundary)


@pytest.mark.parametrize("node,coord", [(5, 0), (-1, 1)],
                         ids=["interior", "boundary"])
def test_validate_rejects_a_nan_node(node, coord):
    # a NaN fails every comparison, so each bound must state what holds
    m = msh.build_polar_mesh(4, 16, 1.0)
    nodes = m.nodes.copy()
    nodes[node, coord] = np.nan
    bad = _with(m, nodes=nodes)
    assert bad.is_boundary[node] == (node == -1)
    assert np.isnan(bad.h_max)
    with pytest.raises(ValueError, match="non-finite node"):
        bad.validate()


def test_mesh_geometry_is_component_major(mesh_cache):
    """``triangles``, ``hat_gradients`` and ``centroids`` are (T, ...) views
    over storage with the triangle axis last, also when the triangles were
    given row-major."""
    for m in (mesh_cache(6, 24), _delaunay_disc()):
        assert m.triangles.shape == (len(m.areas), 3)
        assert m.hat_gradients.shape == (len(m.areas), 3, 2)
        assert m.centroids.shape == (len(m.areas), 2)
        for a in (m.triangles, m.hat_gradients, m.centroids):
            assert np.moveaxis(a, 0, -1).flags.c_contiguous


def _corner_geometry(mesh):
    """Reference: areas, hat gradients, centroids and longest edge from the
    (T, 3, 2) corner array ``nodes[triangles]``, the formulas ``DiscMesh``
    used before its one geometry pass."""
    p = mesh.nodes[mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    g = np.empty((len(p), 3, 2))
    for a in range(3):
        edge = p[:, (a + 2) % 3] - p[:, (a + 1) % 3]
        g[:, a, 0] = -edge[:, 1]
        g[:, a, 1] = edge[:, 0]
    g /= (2.0 * areas)[:, None, None]
    h = 0.0
    for a in range(3):
        e = p[:, (a + 1) % 3] - p[:, a]
        h = max(h, float(np.max(np.hypot(e[:, 0], e[:, 1]))))
    return areas, g, p.mean(axis=1), h


@pytest.mark.parametrize("key", [(r, s, g) for g in (1.0, 0.5)
                                 for r, s in ((3, 12), (9, 40), (24, 96))]
                         + ["not polar"])
def test_geometry_bitwise_matches_corner_formulas(mesh_cache, key):
    m = _delaunay_disc() if key == "not polar" else mesh_cache(*key)
    got = (m.areas, m.hat_gradients, m.centroids, m.h_max)
    for a, b in zip(got, _corner_geometry(m)):
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------
def test_gradient_affine_exact(mesh_cache):
    m = mesh_cache(5, 20)
    g = msh.element_gradient(m, 2.0 * m.nodes[:, 0] - 3.0 * m.nodes[:, 1] + 1.0)
    assert np.allclose(g, [2.0, -3.0], atol=1e-13)


def test_gradient_constant_exactly_zero(mesh_cache):
    m = mesh_cache(5, 20)
    g = msh.element_gradient(m, np.full(len(m.nodes), 3.0))
    assert np.all(g == 0.0)


def test_gradient_quadratic_order(mesh_cache):
    errs, hs = [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        g = msh.element_gradient(m, m.nodes[:, 0] ** 2)
        exact = 2.0 * m.centroids[:, 0]
        errs.append(np.max(np.abs(g[:, 0] - exact)))
        hs.append(m.h_max)
    assert fit_order(hs, errs) >= 0.9


def test_gradient_wrong_shape(mesh_cache):
    with pytest.raises(ValueError):
        msh.element_gradient(mesh_cache(2, 8), np.zeros(5))


def _einsum_element_gradient(mesh, values):
    """Reference: the einsum formulation ``element_gradient`` replaced."""
    values = np.asarray(values)
    v = values[mesh.triangles]
    dv = v[:, 1:] - v[:, :1]
    g = mesh.hat_gradients[:, 1:]
    return np.einsum("tad,ta...->td...", g, dv)


@pytest.mark.parametrize("size", [(6, 24), (12, 48)])
def test_gradient_bitwise_matches_einsum(mesh_cache, rng, size):
    m = mesh_cache(*size)
    n = len(m.nodes)
    fields = [rng.normal(size=n), rng.normal(size=(n, 4)),
              rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))]
    for vals in fields:
        got = msh.element_gradient(m, vals)
        want = _einsum_element_gradient(m, vals)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_element_gradient_is_component_major(mesh_cache, rng):
    """The (T, 2, ...) result is a view over (2, ..., T) storage, so that the
    descent reads each frame component as a contiguous row."""
    m = mesh_cache(6, 24)
    n = len(m.nodes)
    fields = [rng.normal(size=n), rng.normal(size=(n, 4)),
              rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))]
    for vals in fields:
        g = msh.element_gradient(m, vals)
        assert g.shape == (len(m.triangles), 2) + vals.shape[1:]
        assert np.moveaxis(g, 0, -1).flags.c_contiguous
    # an integer field gives the float64 gradient of its float cast
    ints = rng.integers(-5, 5, size=n)
    g = msh.element_gradient(m, ints)
    want = msh.element_gradient(m, ints.astype(float))
    assert g.dtype == np.float64 and np.array_equal(g, want)


# ---------------------------------------------------------------------------
# sparse operators
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("size", [(6, 24), (12, 48)])
def test_stiffness_symmetric_and_kills_constants(mesh_cache, size):
    m = mesh_cache(*size)
    K = m.stiffness
    assert K.shape == (len(m.nodes), len(m.nodes))
    assert (K != K.T).nnz == 0
    assert np.max(np.abs(K @ np.ones(len(m.nodes)))) <= 1e-13 * abs(K).max()


@pytest.mark.parametrize("size", [(6, 24), (12, 48)])
def test_stiffness_quadratic_form_is_dirichlet_energy(mesh_cache, rng, size):
    m = mesh_cache(*size)
    for _ in range(3):
        u = rng.normal(size=(len(m.nodes), 4))
        g = msh.element_gradient(m, u)                      # (T, 2, 4)
        want = np.sum(m.areas * np.sum(g * g, axis=(1, 2)))
        assert abs(np.sum(u * (m.stiffness @ u)) - want) <= 1e-12 * want


def test_lumped_mass_sums_to_area(mesh_cache):
    m = mesh_cache(12, 48)
    assert np.all(m.lumped_mass > 0)
    assert m.lumped_mass.sum() == pytest.approx(m.areas.sum(), rel=1e-14)


def test_gradient_operators_affine_exact(mesh_cache, rng):
    m = mesh_cache(5, 20)
    D_x, D_y = m.gradient_operators
    assert D_x.shape == D_y.shape == (len(m.triangles), len(m.nodes))
    u = 2.0 * m.nodes[:, 0] - 3.0 * m.nodes[:, 1] + 1.0
    assert np.allclose(D_x @ u, 2.0, atol=1e-13)
    assert np.allclose(D_y @ u, -3.0, atol=1e-13)
    v = rng.normal(size=(len(m.nodes), 4))
    g = msh.element_gradient(m, v)
    assert np.allclose(np.stack([D_x @ v, D_y @ v], axis=1), g, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# weak divergence residual
# ---------------------------------------------------------------------------
def test_weak_divergence_constant_field(mesh_cache):
    m = mesh_cache(8, 32)
    w = np.tile([0.7, -0.2], (len(m.triangles), 1))
    assert msh.weak_divergence_residual(m, w) <= 1e-14


def test_weak_divergence_keeps_a_nan(mesh_cache):
    # one NaN element must not read as a perfect 0
    m = mesh_cache(8, 32)
    w = np.zeros((len(m.triangles), 2))
    w[len(w) // 2, 0] = np.nan
    assert np.isnan(msh.weak_divergence_residual(m, w))


def test_weak_divergence_sw_field_order(mesh_cache):
    sw = sw_cone(1, 2)
    vals, hs = [], []
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        w = sw.angle_flux_field(m.centroids)
        vals.append(msh.weak_divergence_residual(m, w,
                                                 exclude=[((0.0, 0.0), 0.1)]))
        hs.append(m.h_max)
    assert fit_order(hs, vals) >= 1.0


def test_weak_divergence_detects_divergent_field(mesh_cache):
    # div (x, y) = 2 != 0; the scale-invariant residual stays >= 0.1
    for n in (8, 16, 32):
        m = mesh_cache(n, 4 * n)
        assert m.h_max <= 0.45
        w = m.centroids.copy()
        assert msh.weak_divergence_residual(m, w) >= 0.1


def test_weak_divergence_refinement_factor(mesh_cache):
    # smooth divergence-free field: w = grad^perp of x^2 y
    def w_of(m):
        x, y = m.centroids[:, 0], m.centroids[:, 1]
        return np.stack([-x * x, 2 * x * y], axis=1)

    m1, m2 = mesh_cache(8, 32), mesh_cache(16, 64)
    r1 = msh.weak_divergence_residual(m1, w_of(m1))
    r2 = msh.weak_divergence_residual(m2, w_of(m2))
    assert r1 / r2 >= 1.8


def _triangles_clear_of(mesh, exclude):
    """Reference: triangles whose vertices and centroid avoid all balls."""
    ok = np.ones(len(mesh.triangles), dtype=bool)
    cent = mesh.centroids
    p = mesh.nodes[mesh.triangles]
    for center, radius in exclude:
        center = np.asarray(center, float)
        d_c = np.hypot(cent[:, 0] - center[0], cent[:, 1] - center[1])
        d_v = np.hypot(p[..., 0] - center[0], p[..., 1] - center[1]).min(axis=1)
        ok &= (d_c > radius) & (d_v > radius)
    return ok


def _add_at_weak_divergence_residual(mesh, w, exclude=()):
    """Reference: the ``np.add.at`` accumulation the ``bincount`` one replaced."""
    w = np.asarray(w)
    ok_tri = _triangles_clear_of(mesh, exclude)
    a = mesh.areas
    g = mesh.hat_gradients
    n = len(mesh.nodes)
    integral = np.zeros(n, dtype=w.dtype)
    grad_sq = np.zeros(n)
    w_sq = np.zeros(n)
    w2 = np.sum(np.abs(w) ** 2, axis=-1)
    contrib_ok = np.ones(n, dtype=bool)
    for aidx in range(3):
        idx = mesh.triangles[:, aidx]
        dot = np.einsum("td,td->t", g[:, aidx].astype(w.dtype), w)
        np.add.at(integral, idx, a * dot)
        np.add.at(grad_sq, idx, a * np.sum(g[:, aidx] ** 2, axis=-1))
        np.add.at(w_sq, idx, a * w2)
        np.logical_and.at(contrib_ok, idx[~ok_tri], False)
    test = contrib_ok & ~mesh.is_boundary
    for center, radius in exclude:
        center = np.asarray(center, float)
        d = np.hypot(mesh.nodes[:, 0] - center[0], mesh.nodes[:, 1] - center[1])
        test &= d > radius
    den = np.sqrt(w_sq[test]) * np.sqrt(grad_sq[test]) + msh.EPS
    return float(np.max(np.abs(integral[test]) / den))


@pytest.mark.parametrize("size", [(8, 32), (24, 96)])
def test_weak_divergence_bitwise_matches_add_at(mesh_cache, rng, size):
    m = mesh_cache(*size)
    t = len(m.triangles)
    real = rng.normal(size=(t, 2))
    other = rng.normal(size=(t, 2))
    sw = sw_cone(1, 2).angle_flux_field(m.centroids)
    ball = [((0.0, 0.0), 0.1)]
    for w, exclude in [(real, ()), (other, ()), (sw, ball), (other, ball),
                       (real, [((0.3, -0.2), 0.25)])]:
        got = msh.weak_divergence_residual(m, w, exclude)
        assert got == _add_at_weak_divergence_residual(m, w, exclude)
        # a real field F has the residual of the complex -i F, bitwise:
        # what angle_harmonicity relies on when it passes F for gbar grad g
        assert got == _add_at_weak_divergence_residual(m, -1j * w, exclude)
    # a stack of fields shares one test set and reports its worst field
    stack = np.stack([other, -other[:, ::-1], sw], axis=-1)
    for exclude in [(), ball]:
        assert msh.weak_divergence_residual(m, stack, exclude) == max(
            _add_at_weak_divergence_residual(m, stack[..., k], exclude)
            for k in range(3))
    # complex fields, alone or stacked, are rejected
    for w in (real + 1j * other, stack + 0j):
        with pytest.raises(ValueError, match="must be real"):
            msh.weak_divergence_residual(m, w)


@pytest.mark.parametrize("size", [(2, 8), (24, 96), (48, 192)])
def test_centroid_average_bitwise_matches_mean(mesh_cache, rng, size):
    m = mesh_cache(*size)
    n = len(m.nodes)
    for v in (rng.normal(size=(n, 4)), rng.normal(size=n),
              np.exp(1j * rng.uniform(0, 2 * np.pi, n))):
        want = v[m.triangles].mean(axis=1)
        assert np.array_equal(msh.interpolate_at_centroids(m, v), want)


def test_weak_divergence_empty_test_set(mesh_cache):
    m = mesh_cache(2, 8)
    w = np.zeros((len(m.triangles), 2))
    with pytest.raises(ValueError, match="empty test set"):
        msh.weak_divergence_residual(m, w, exclude=[((0.0, 0.0), 2.0)])


def test_weak_divergence_empty_field_stack(mesh_cache):
    # a stack of no fields has no residual; it must not read as a perfect 0
    m = mesh_cache(4, 16)
    w = np.zeros((len(m.triangles), 2, 0))
    with pytest.raises(ValueError, match="empty field stack"):
        msh.weak_divergence_residual(m, w)


# ---------------------------------------------------------------------------
# boundary trace pairing
# ---------------------------------------------------------------------------
def test_pairing_constant_field(mesh_cache):
    m = mesh_cache(12, 48)
    w = np.tile([1.0, 0.0], (len(m.triangles), 1))
    (val,) = msh.boundary_trace_pairing(m, w, [lambda t: np.ones_like(t)], 0.7)
    assert abs(val) <= 1e-13


def test_pairing_sw_angular_field(mesh_cache):
    # purely angular field: w . nu = 0 on every circle, so every pairing
    # vanishes; the dihedral mesh symmetry cancels the quadrature exactly
    sw = sw_cone(2, 3)
    m = mesh_cache(24, 96)
    w = sw.angle_flux_field(m.centroids)
    phis = [lambda t: np.ones_like(t), np.cos, lambda t: np.sin(3 * t)]
    for r0 in (0.5, 0.7, 0.9):
        vals = msh.boundary_trace_pairing(m, w, phis, r0)
        assert vals.shape == (3,) and np.max(np.abs(vals)) <= 1e-10


def test_pairing_nonminimal_minus_pi(mesh_cache):
    nm = nonminimal_map()
    vals = []
    for n in (12, 24, 48):
        m = mesh_cache(n, 4 * n)
        w = nm.angle_flux_field(m.centroids)
        vals.append(msh.boundary_trace_pairing(m, w, [np.cos], 0.7)[0])
    errs = [abs(v + np.pi) for v in vals]
    assert errs[0] <= 0.05
    # O(h^2): quartering under mesh halving (with slack)
    assert errs[2] <= errs[0] / 8


def _full_mesh_pairing(mesh, w, phi, collar_r0):
    """Reference: one pairing from the gradient of phi * chi on every
    triangle, as ``boundary_trace_pairing`` computed it before it kept to
    the collar."""
    vals = (np.asarray(phi(mesh.node_theta))
            * msh._collar_cutoff(mesh.node_r, collar_r0))
    grad = msh.element_gradient(mesh, vals)
    return float(np.sum(mesh.areas * np.einsum("td,td->t", grad, np.asarray(w))))


@pytest.mark.parametrize("key", [(12, 48), (48, 192), "not polar"])
def test_pairing_bitwise_matches_full_mesh_formula(mesh_cache, key):
    m = _delaunay_disc() if key == "not polar" else mesh_cache(*key)
    x, y = m.centroids.T
    w = np.column_stack([np.sin(3.0 * x) + y, x * y - 0.5])
    phis = [lambda t: np.ones_like(t)]
    for k in range(1, 5):
        phis += [lambda t, k=k: np.cos(k * t), lambda t, k=k: np.sin(k * t)]
    for r0 in (0.5, 0.7, 0.9):
        got = msh.boundary_trace_pairing(m, w, phis, r0)
        want = [_full_mesh_pairing(m, w, phi, r0) for phi in phis]
        assert got.shape == (len(phis),) and np.array_equal(got, want)
        assert np.all(got != 0.0)


def test_pairing_invalid_collar(mesh_cache):
    m = mesh_cache(2, 8)
    w = np.zeros((len(m.triangles), 2))
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError, match="collar_r0 must lie in"):
            msh.boundary_trace_pairing(m, w, [np.cos], bad)


# ---------------------------------------------------------------------------
# loop integrals
# ---------------------------------------------------------------------------
def test_loop_grad_log_r():
    def w(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return p / r2[:, None]

    flux, circ = msh.loop_integrals(w, (0.0, 0.0), 0.5)
    assert abs(flux - 2 * np.pi) <= 1e-10
    assert abs(circ) <= 1e-10


def test_loop_sw_field_circulation():
    # i gbar grad g of the (1,2) cone: circulation 2 pi (p - q) = -2 pi,
    # zero flux; frozen by the finite-difference oracle in test_residuals
    sw = sw_cone(1, 2)
    flux, circ = msh.loop_integrals(sw.angle_flux_field, (0.0, 0.0), 0.5)
    assert abs(flux) <= 1e-10
    assert abs(circ + 2 * np.pi) <= 1e-10


def test_loop_constant_field():
    def w(p):
        return np.tile([1.0, 0.0], (len(p), 1))

    flux, circ = msh.loop_integrals(w, (0.2, -0.1), 0.3)
    assert abs(flux) <= 1e-12 and abs(circ) <= 1e-12


def test_loop_radius_independence():
    def w(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.stack([-p[:, 1], p[:, 0]], axis=1) / r2[:, None]

    circs = [msh.loop_integrals(w, (0.0, 0.0), r)[1]
             for r in (0.2, 0.4, 0.8)]
    assert max(circs) - min(circs) <= 1e-10


def test_loop_invalid():
    def w(p):
        return p

    with pytest.raises(ValueError, match="quadrature circle exits"):
        msh.loop_integrals(w, (0.8, 0.0), 0.5)
    # a NaN radius or centre fails its bound instead of giving (nan, nan)
    nan = float("nan")
    for radius in (-0.1, 0.0, nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            msh.loop_integrals(w, (0.0, 0.0), radius)
    for center in [(nan, 0.0), (0.0, nan), (nan, nan)]:
        with pytest.raises(ValueError, match="quadrature circle exits"):
            msh.loop_integrals(w, center, 0.3)


# ---------------------------------------------------------------------------
# serialization and point location
# ---------------------------------------------------------------------------
def test_json_dump(tmp_path, mesh_cache):
    m = mesh_cache(2, 8)
    path = tmp_path / "mesh.json"
    m.dump_json(path)
    data = json.loads(path.read_text())
    assert set(data) == {"nodes", "triangles", "boundary_edges"}
    assert len(data["nodes"]) == 17
    assert len(data["triangles"]) == 24
    assert len(data["boundary_edges"]) == 8


def test_locate_and_interpolate(mesh_cache, rng):
    m = mesh_cache(8, 32)
    pts = rng.uniform(-0.6, 0.6, size=(50, 2))
    vals = 2.0 * m.nodes[:, 0] - m.nodes[:, 1]
    interp = m.interpolate(vals, pts)
    assert np.max(np.abs(interp - (2.0 * pts[:, 0] - pts[:, 1]))) <= 1e-12


class _Unlocated(Exception):
    """Raised by :func:`_loop_locate` for a point outside the polygonal mesh."""


def _loop_locate(mesh, points):
    """Reference: the per-point ``locate`` loop with per-candidate solves."""
    pts = np.atleast_2d(np.asarray(points, float))
    info = mesh.polar_info
    n_s, n_rings = info["n_sectors"], info["n_rings"]
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    j = np.minimum((th / (2 * np.pi / n_s)).astype(int), n_s - 1)
    k = np.searchsorted(info["radii"], r * (1 - 1e-15))

    def cell(k, j):
        if k <= 0:
            return [j]
        k = min(k, n_rings - 1)
        base = n_s + 2 * ((k - 1) * n_s + j)
        return [base, base + 1]

    tri_idx = np.empty(len(pts), dtype=int)
    bary = np.empty((len(pts), 3))
    for i in range(len(pts)):
        cands = cell(int(k[i]), int(j[i]))
        for kk in (k[i] - 1, k[i] + 1):
            if 0 <= kk <= n_rings - 1:
                cands = cands + cell(int(kk), int(j[i]))
        best, best_bar, best_min = -1, None, -np.inf
        for t in cands:
            a, b, c = mesh.nodes[mesh.triangles[t]]
            lam = np.linalg.solve(np.column_stack([b - a, c - a]), pts[i] - a)
            bar = np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])
            if bar.min() > best_min:
                best, best_bar, best_min = t, bar, bar.min()
        if best_min < -1e-9:
            raise _Unlocated(f"point {pts[i]} not located in mesh")
        tri_idx[i] = best
        bary[i] = np.clip(best_bar, 0.0, None)
        bary[i] /= bary[i].sum()
    return tri_idx, bary


@pytest.mark.parametrize("size", [(2, 8, 1.0), (8, 32, 1.0), (12, 48, 0.5)])
def test_locate_bitwise_matches_loop(mesh_cache, rng, size):
    m = mesh_cache(*size)
    n = 400
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2 * np.pi, n)
    pts = np.concatenate([
        np.column_stack([r * np.cos(th), r * np.sin(th)]),
        m.nodes,                                   # ring radii and sector rays
        0.5 * (m.nodes[m.triangles[:, 0]] + m.nodes[m.triangles[:, 1]]),
        m.centroids,
    ])
    located = []
    for i, p in enumerate(pts):
        try:
            want = _loop_locate(m, p)
        except _Unlocated:       # on the rim, outside the polygonal mesh
            continue
        got = m.locate(p)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        located.append(i)
    assert set(range(n, len(pts))) <= set(located)
    assert len(located) >= len(pts) - n // 2
    # one batched call gives the same answers as point-by-point calls
    tri, bary = m.locate(pts[located])
    want_tri, want_bary = _loop_locate(m, pts[located])
    assert np.array_equal(tri, want_tri) and np.array_equal(bary, want_bary)


def test_locate_on_circle_between_boundary_nodes(mesh_cache):
    m = mesh_cache(8, 32)
    n_s = 32
    th = 2 * np.pi * (np.arange(n_s) + np.array([[0.25], [0.5], [0.9]])) / n_s
    pts = np.column_stack([np.cos(th.ravel()), np.sin(th.ravel())])
    with pytest.raises(_Unlocated):
        _loop_locate(m, pts[:1])                 # outside the polygonal mesh
    tri, bary = m.locate(pts)
    outer = len(m.triangles) - 2 * n_s           # first outer-ring triangle
    assert np.all(tri >= outer)
    assert np.all(m.is_boundary[m.triangles[tri]].sum(axis=1) == 2)
    assert np.all(bary >= 0.0) and np.allclose(bary.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # the located value is that of the nearest boundary chord, O(h^2) off
    vals = m.nodes[:, 0]
    assert np.max(np.abs(m.interpolate(vals, pts) - pts[:, 0])) <= (2 * np.pi / n_s) ** 2
    with pytest.raises(ValueError, match="point outside the closed unit disc"):
        m.locate([[1.0 + 1e-9, 0.0]])


@pytest.mark.parametrize("point", [[np.nan, 0.0], [0.3, np.nan], [np.inf, 0.0]])
def test_locate_rejects_a_point_that_is_not_finite(point):
    # a NaN coordinate once passed the disc bound and was located in
    # triangle 80 with NaN barycentrics
    with pytest.raises(ValueError, match="closed unit disc"):
        msh.build_polar_mesh(4, 16).locate([[0.0, 0.0], point])


def _clear_node_mask(mesh, singular_points, radius=0.0):
    """Reference: residuals' old node mask around singular points."""
    mask = np.ones(len(mesh.nodes), dtype=bool)
    for pt in singular_points:
        d = np.hypot(mesh.nodes[:, 0] - pt[0], mesh.nodes[:, 1] - pt[1])
        mask &= d > max(radius, 1e-12)
    return mask


def _clear_triangle_mask(mesh, singular_points):
    """Reference: residuals' old triangle mask around singular points."""
    bad_nodes = ~_clear_node_mask(mesh, singular_points)
    return ~np.any(bad_nodes[mesh.triangles], axis=1)


@pytest.mark.parametrize("size", [(2, 8, 1.0), (12, 48, 1.0), (16, 64, 0.5)])
def test_exclusion_masks_match_old_masks(mesh_cache, size):
    m = mesh_cache(*size)
    singular = [[np.zeros(2)], [np.zeros(2), m.nodes[5]], [np.array([0.31, -0.2])]]
    for pts in singular:
        node_ok, tri_ok = msh.exclusion_masks(m, [(p, 1e-12) for p in pts])
        assert np.array_equal(node_ok, _clear_node_mask(m, pts))
        assert np.array_equal(tri_ok, _clear_triangle_mask(m, pts))
    balls = [[], [((0.0, 0.0), 0.1)], [((0.0, 0.0), 0.1), ((0.3, -0.2), 0.25)],
             [(np.array([0.5, 0.5]), 0.3)], [((0.0, 0.0), 2.0)]]
    for exclude in balls:
        node_ok, tri_ok = msh.exclusion_masks(m, exclude)
        assert np.array_equal(tri_ok, _triangles_clear_of(m, exclude))
        want = np.ones(len(m.nodes), dtype=bool)
        for center, radius in exclude:             # the old inline ball loop
            d = np.hypot(m.nodes[:, 0] - center[0], m.nodes[:, 1] - center[1])
            want &= d > radius
        assert np.array_equal(node_ok, want)
