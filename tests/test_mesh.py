import json

import numpy as np
import pytest

from lagdisc import mesh as msh
from lagdisc.families import nonminimal_map, sw_cone
from lagdisc.residuals import fit_order


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
    with pytest.raises(msh.InvalidParameter):
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


def _dict_validate(mesh):
    """Reference: the per-triangle dict edge count ``validate`` replaced."""
    if np.any(mesh.areas < 1e-14):
        raise msh.InvalidParameter("mesh has a non-positive or degenerate triangle")
    r = mesh.node_r[mesh.is_boundary]
    if np.any(np.abs(r - 1.0) > 1e-12):
        raise msh.InvalidParameter("boundary node off the unit circle")
    be = mesh.boundary_edges
    if len(be) and (np.any(be[1:, 0] != be[:-1, 1]) or be[0, 0] != be[-1, 1]):
        raise msh.InvalidParameter("boundary edges do not form a single closed cycle")
    edges = {}
    for tri in mesh.triangles:
        for a in range(3):
            key = (min(tri[a], tri[(a + 1) % 3]), max(tri[a], tri[(a + 1) % 3]))
            edges[key] = edges.get(key, 0) + 1
    bset = {(min(i, j), max(i, j)) for i, j in be}
    for key, count in edges.items():
        want = 1 if key in bset else 2
        if count != want:
            raise msh.InvalidParameter(f"edge {key} shared by {count} triangles")
    return mesh


def _with(mesh, nodes=None, triangles=None, is_boundary=None):
    return msh.DiscMesh(mesh.nodes if nodes is None else nodes,
                        mesh.triangles if triangles is None else triangles,
                        mesh.boundary_edges,
                        mesh.is_boundary if is_boundary is None else is_boundary)


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
        m, nodes=nodes, triangles=np.vstack([tris, [j, i, len(m.nodes)]]),
        is_boundary=np.append(m.is_boundary, False))


@pytest.mark.parametrize("size", [(2, 8), (3, 12), (6, 24), (9, 40)])
def test_validate_matches_dict_loop_on_valid_meshes(mesh_cache, size):
    m = mesh_cache(*size)
    assert m.validate() is m
    assert _dict_validate(m) is m


@pytest.mark.parametrize("case", ["duplicated", "dropped",
                                  "boundary edge in two triangles"])
def test_validate_rejects_nonconforming_mesh(case):
    bad = dict(_broken_meshes())[case]
    with pytest.raises(msh.InvalidParameter,
                       match=r"^edge \(\d+, \d+\) shared by \d+ triangles$"):
        bad.validate()
    with pytest.raises(msh.InvalidParameter, match="shared by"):
        _dict_validate(bad)


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


# ---------------------------------------------------------------------------
# weak divergence residual
# ---------------------------------------------------------------------------
def test_weak_divergence_constant_field(mesh_cache):
    m = mesh_cache(8, 32)
    w = np.tile([0.7, -0.2], (len(m.triangles), 1))
    assert msh.weak_divergence_residual(m, w) <= 1e-14


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


def _add_at_weak_divergence_residual(mesh, w, exclude=()):
    """Reference: the ``np.add.at`` accumulation the ``bincount`` one replaced."""
    w = np.asarray(w)
    ok_tri = msh._triangles_clear_of(mesh, exclude)
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
    cplx = rng.normal(size=(t, 2)) + 1j * rng.normal(size=(t, 2))
    sw = sw_cone(1, 2).angle_flux_field(m.centroids)
    ball = [((0.0, 0.0), 0.1)]
    for w, exclude in [(real, ()), (cplx, ()), (sw, ball), (cplx, ball),
                       (real, [((0.3, -0.2), 0.25)])]:
        got = msh.weak_divergence_residual(m, w, exclude)
        assert got == _add_at_weak_divergence_residual(m, w, exclude)


def test_weak_divergence_empty_test_set(mesh_cache):
    m = mesh_cache(2, 8)
    w = np.zeros((len(m.triangles), 2))
    with pytest.warns(UserWarning):
        assert msh.weak_divergence_residual(m, w,
                                            exclude=[((0.0, 0.0), 2.0)]) == 0.0


# ---------------------------------------------------------------------------
# boundary trace pairing
# ---------------------------------------------------------------------------
def test_pairing_constant_field(mesh_cache):
    m = mesh_cache(12, 48)
    w = np.tile([1.0, 0.0], (len(m.triangles), 1))
    val = msh.boundary_trace_pairing(m, w, lambda t: np.ones_like(t), 0.7)
    assert abs(val) <= 1e-13


def test_pairing_sw_angular_field(mesh_cache):
    # purely angular field: w . nu = 0 on every circle, so every pairing
    # vanishes; the dihedral mesh symmetry cancels the quadrature exactly
    sw = sw_cone(2, 3)
    m = mesh_cache(24, 96)
    w = sw.angle_flux_field(m.centroids)
    for phi in (lambda t: np.ones_like(t), np.cos, lambda t: np.sin(3 * t)):
        for r0 in (0.5, 0.7, 0.9):
            assert abs(msh.boundary_trace_pairing(m, w, phi, r0)) <= 1e-10


def test_pairing_nonminimal_minus_pi(mesh_cache):
    nm = nonminimal_map()
    vals = []
    for n in (12, 24, 48):
        m = mesh_cache(n, 4 * n)
        w = nm.angle_flux_field(m.centroids)
        vals.append(msh.boundary_trace_pairing(m, w, np.cos, 0.7))
    errs = [abs(v + np.pi) for v in vals]
    assert errs[0] <= 0.05
    # O(h^2): quartering under mesh halving (with slack)
    assert errs[2] <= errs[0] / 8


def test_pairing_invalid_collar(mesh_cache):
    m = mesh_cache(2, 8)
    w = np.zeros((len(m.triangles), 2))
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(msh.InvalidCollar):
            msh.boundary_trace_pairing(m, w, np.cos, bad)


# ---------------------------------------------------------------------------
# loop integrals
# ---------------------------------------------------------------------------
def test_loop_grad_log_r():
    def w(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return p / r2[:, None]

    flux, circ = msh.loop_integrals(w, (0.0, 0.0), 0.5, 512)
    assert abs(flux - 2 * np.pi) <= 1e-10
    assert abs(circ) <= 1e-10


def test_loop_sw_field_circulation():
    # i gbar grad g of the (1,2) cone: circulation 2 pi (p - q) = -2 pi,
    # zero flux; frozen by the finite-difference oracle in test_residuals
    sw = sw_cone(1, 2)
    flux, circ = msh.loop_integrals(sw.angle_flux_field, (0.0, 0.0), 0.5, 512)
    assert abs(flux) <= 1e-10
    assert abs(circ + 2 * np.pi) <= 1e-10


def test_loop_constant_field():
    def w(p):
        return np.tile([1.0, 0.0], (len(p), 1))

    flux, circ = msh.loop_integrals(w, (0.2, -0.1), 0.3, 256)
    assert abs(flux) <= 1e-12 and abs(circ) <= 1e-12


def test_loop_radius_independence():
    def w(p):
        r2 = p[:, 0] ** 2 + p[:, 1] ** 2
        return np.stack([-p[:, 1], p[:, 0]], axis=1) / r2[:, None]

    circs = [msh.loop_integrals(w, (0.0, 0.0), r, 512)[1]
             for r in (0.2, 0.4, 0.8)]
    assert max(circs) - min(circs) <= 1e-10


def test_loop_invalid():
    def w(p):
        return p

    with pytest.raises(msh.InvalidLoop):
        msh.loop_integrals(w, (0.8, 0.0), 0.5)
    with pytest.raises(msh.InvalidLoop):
        msh.loop_integrals(w, (0.0, 0.0), -0.1)


# ---------------------------------------------------------------------------
# serialization and point location
# ---------------------------------------------------------------------------
def test_json_dump(tmp_path, mesh_cache):
    m = mesh_cache(2, 8)
    path = tmp_path / "mesh.json"
    m.dump_json(path, values=np.zeros((len(m.nodes), 4)))
    data = json.loads(path.read_text())
    assert set(data) == {"nodes", "triangles", "boundary_edges", "values"}
    assert len(data["nodes"]) == 17
    assert len(data["triangles"]) == 24
    assert all(len(v) == 4 for v in data["values"])


def test_locate_and_interpolate(mesh_cache, rng):
    m = mesh_cache(8, 32)
    pts = rng.uniform(-0.6, 0.6, size=(50, 2))
    vals = 2.0 * m.nodes[:, 0] - m.nodes[:, 1]
    interp = m.interpolate(vals, pts)
    assert np.max(np.abs(interp - (2.0 * pts[:, 0] - pts[:, 1]))) <= 1e-12
