"""Triangulated unit-disc meshes and piecewise-linear field operators.

The mesh generator produces structured polar meshes whose triangulation
alternates quad diagonals, so the mesh is invariant under the full
dihedral symmetry group of the sector layout (for even sector counts).
Rotation-equivariant fields then produce exactly cancelling sums in the
boundary pairing below, which is what pushes those quadratures to
rounding level instead of O(h^2).

:class:`DiscMesh` computes its geometry at construction (areas, hat
gradients, centroids and the longest edge from two (3, T) gathers of the
corner coordinates, then node radii and angles) and builds its operators
on first use: hat energies and the sparse ``D_x``, ``D_y``, stiffness,
lumped mass and boundary weights.  Its triangles, hat gradients and
centroids keep the triangle axis last in memory, behind (T, ...) views.
The weak residuals take real fields and sum per node by one fixed-order
``bincount`` scatter, so meshes that only feed them never build the
operators; their test set is computed once per mesh and list of
exclusion balls.  The collar pairing runs the
one P1 gradient kernel only on the triangles that meet its collar, about
a third at ``collar_r0 = 0.7``.  ``validate`` counts conformity by sorting
int64 side keys, so scipy is imported only by the two sparse operators
(``gradient_operators`` and ``stiffness``), which only the solver reads.

All reductions are performed in fixed node/triangle index order so
repeated runs produce bitwise-identical numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import EPS

__all__ = [
    "DiscMesh",
    "build_polar_mesh",
    "element_gradient",
    "exclusion_masks",
    "interpolate_at_centroids",
    "boundary_trace_pairing",
    "loop_integrals",
    "weak_divergence_residual",
]


@dataclass
class DiscMesh:
    """Conforming triangulation of the closed unit disc.

    Attributes
    ----------
    nodes : (N, 2) float array
    triangles : (T, 3) int array, counterclockwise
    boundary_edges : (B, 2) int array, a single CCW cycle tracing r = 1
    polar_info : dict or None, keyword-only
        Present for meshes from :func:`build_polar_mesh`; carries
        (n_rings, n_sectors, grading, radii) and enables fast point
        location.

    Computed at construction: ``is_boundary`` (N,), the nodes of the
    boundary edges, ``areas``, ``hat_gradients`` (T, 3, 2) of each local
    vertex's hat function, ``centroids`` (T, 2), ``h_max`` (the longest
    edge, the mesh size of all reports), ``node_r`` and ``node_theta``.
    ``triangles``, ``hat_gradients`` and ``centroids`` are stored as views
    over (3, T), (3, 2, T) and (2, T) arrays, so that each vertex or
    component column is a contiguous row; no result depends on this layout.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    polar_info: dict | None = field(default=None, kw_only=True)

    def __post_init__(self):
        self.is_boundary = np.zeros(len(self.nodes), dtype=bool)
        self.is_boundary[np.asarray(self.boundary_edges, int).ravel()] = True
        # triangle axis last: every per-vertex and per-component row below,
        # and in the consumers of the (T, ...) views, is contiguous
        t = np.ascontiguousarray(np.asarray(self.triangles).T)
        x, y = self.nodes[:, 0][t], self.nodes[:, 1][t]
        areas = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))
        g = np.empty((3, 2, t.shape[1]))
        h = 0.0
        for a in range(3):
            # the edge opposite local vertex a, and the edge leaving it
            b, c = (a + 1) % 3, (a + 2) % 3
            g[a, 0] = -(y[c] - y[b])
            g[a, 1] = x[c] - x[b]
            # np.maximum, unlike max, keeps a NaN
            h = np.maximum(h, np.max(np.hypot(x[b] - x[a], y[b] - y[a])))
        g /= 2.0 * areas
        self.triangles, self.hat_gradients = t.T, np.moveaxis(g, -1, 0)
        self.areas, self.h_max = areas, float(h)
        self.centroids = np.stack([(x[0] + x[1] + x[2]) / 3.0,
                                   (y[0] + y[1] + y[2]) / 3.0]).T
        self.node_r = np.hypot(self.nodes[:, 0], self.nodes[:, 1])
        self.node_theta = np.arctan2(self.nodes[:, 1], self.nodes[:, 0])
        self._test_sets = {}

    @cached_property
    def hat_energy(self):
        """(N,) ||grad phi||^2_{L2} of each node's hat function phi, summed
        over the incident triangles of local vertices 0, 1, 2 in triangle
        order."""
        a, g = self.areas, self.hat_gradients
        return _node_scatter(self)([a * np.sum(g[:, k] ** 2, axis=-1)
                                    for k in range(3)])

    # -- sparse operators (built only on meshes that use them) ------------
    @cached_property
    def gradient_operators(self):
        """``(D_x, D_y)``: CSR (T, N) maps from nodal values to the
        per-triangle partial derivatives, ``D_d[t, v] = hat_gradients[t, a, d]``
        for the local vertex a of triangle t at node v."""
        import scipy.sparse as sp

        shape = (len(self.triangles), len(self.nodes))
        rows = np.repeat(np.arange(shape[0]), 3)
        cols = self.triangles.ravel()
        g = self.hat_gradients
        return tuple(sp.csr_matrix((g[:, :, d].ravel(), (rows, cols)), shape=shape)
                     for d in range(2))

    @cached_property
    def stiffness(self):
        """P1 stiffness ``K = D_x^T A D_x + D_y^T A D_y`` (A = diag(areas)),
        CSR (N, N); assembled as ``B^T B`` with ``B = sqrt(A) D`` so it is
        exactly symmetric."""
        import scipy.sparse as sp

        root_a = sp.diags(np.sqrt(self.areas))
        Bx, By = (root_a @ D for D in self.gradient_operators)
        return (Bx.T @ Bx + By.T @ By).tocsr()

    @cached_property
    def lumped_mass(self):
        """(N,) row-sum lumped P1 mass: a third of each incident triangle's area."""
        return np.bincount(self.triangles.ravel(), np.repeat(self.areas / 3.0, 3),
                           minlength=len(self.nodes))

    @cached_property
    def boundary_weights(self):
        """(N,) per node, half the length of each incident boundary edge."""
        be = self.boundary_edges
        L = np.hypot(*(self.nodes[be[:, 1]] - self.nodes[be[:, 0]]).T)
        return np.bincount(be.ravel(), np.repeat(0.5 * L, 2),
                           minlength=len(self.nodes))

    # -- validation ------------------------------------------------------
    def validate(self):
        """Check the mesh and return it; raise ``ValueError`` if not.

        Checks that every node coordinate is finite, that every triangle
        has area at least 1e-14 (so it is counterclockwise and not
        degenerate), that every boundary node lies on the unit circle to
        1e-12, that the boundary edges form one closed cycle, and that every
        triangle edge is shared by exactly one triangle if it is a boundary
        edge and by exactly two otherwise.

        The geometry it reads was computed at construction.  Conformity is
        counted by sorting in place the (3T,) int64 keys ``i*N + j`` of the
        triangle sides (i, j), i < j; the error names the first bad edge in
        row-major (i, j) order.
        """
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("mesh has a non-finite node coordinate")
        # each bound states what must hold, so that a NaN fails it
        if not np.all(self.areas >= 1e-14):
            raise ValueError("mesh has a non-positive or degenerate triangle")
        r = self.node_r[self.is_boundary]
        if not np.all(np.abs(r - 1.0) <= 1e-12):
            raise ValueError("boundary node off the unit circle")
        # boundary edges form one closed cycle
        be = self.boundary_edges
        if len(be) and (np.any(be[1:, 0] != be[:-1, 1]) or be[0, 0] != be[-1, 1]):
            raise ValueError("boundary edges do not form a single closed cycle")
        # conformity: one key i*N + j per triangle side (i < j), in int64 so
        # that it cannot wrap where the default int is 32-bit, formed in
        # place and sorted in place; the sorted keys run in row-major (i, j)
        # order, one run per edge, so the boundary edges are found among the
        # runs by bisection
        n, t = len(self.nodes), self.triangles.T
        keys = np.empty((3, t.shape[1]), np.int64)
        for a, key in enumerate(keys):      # the sides (t[a], t[a + 1])
            np.minimum(t[a], t[(a + 1) % 3], out=key)
            key *= n
            key += np.maximum(t[a], t[(a + 1) % 3])
        keys = keys.ravel()
        keys.sort()
        start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        count = np.diff(start, append=len(keys))
        keys = keys[start]
        want = np.full(len(keys), 2)
        be = be.astype(np.int64)
        bkeys = be.min(axis=1) * n + be.max(axis=1)
        at = np.minimum(np.searchsorted(keys, bkeys), len(keys) - 1)
        want[at[keys[at] == bkeys]] = 1
        bad = np.flatnonzero(count != want)
        if bad.size:
            i, j = divmod(int(keys[bad[0]]), n)
            raise ValueError(f"edge {(i, j)} shared by {int(count[bad[0]])} triangles")
        return self

    # -- serialization -----------------------------------------------------
    def dump_json(self, path):
        d = {
            "nodes": [[float(x), float(y)] for x, y in self.nodes],
            "triangles": [[int(a), int(b), int(c)] for a, b, c in self.triangles],
            "boundary_edges": [[int(a), int(b)] for a, b in self.boundary_edges],
        }
        with open(path, "w") as fh:
            json.dump(d, fh, sort_keys=True)
            fh.write("\n")

    # -- point location (polar meshes) ---------------------------------
    def locate(self, points):
        """Triangle index and barycentric coordinates for disc points.

        Only available on meshes built by :func:`build_polar_mesh`.  Points
        must lie in the closed unit disc; ``r > 1 + 1e-12`` or a NaN raises
        ``ValueError``.  Each point is tested against the triangles
        of its polar cell (ring k, sector j), then of cells k - 1 and
        k + 1, and takes the first triangle whose smallest barycentric
        coordinate is largest.  A point on the circle between two boundary
        nodes lies outside the polygonal mesh; it takes that outer-ring
        triangle too.  Barycentrics are clamped to >= 0 and renormalised.
        """
        if self.polar_info is None:
            raise ValueError("locate() requires a structured polar mesh")
        pts = np.atleast_2d(np.asarray(points, float))
        info = self.polar_info
        n_s, n_rings = info["n_sectors"], info["n_rings"]
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
        if not np.all(r <= 1 + 1e-12):         # NaN fails the bound
            raise ValueError("point outside the closed unit disc")
        dth = 2 * np.pi / n_s
        j = np.minimum((th / dth).astype(int), n_s - 1)
        k = np.searchsorted(info["radii"], r * (1 - 1e-15))  # 0 -> fan, else annulus k
        # two candidate slots per cell, for cells k, k - 1, k + 1 in that
        # order (the neighbours guard against searchsorted ties on ring
        # radii); the fan cell k = 0 has one triangle, so its second slot
        # and the slots of cells outside 0..n_rings - 1 are invalid
        cells = np.stack([np.minimum(k, n_rings - 1), k - 1, k + 1], axis=1)[..., None]
        jj, slot = j[:, None, None], np.arange(2)
        cand = np.where(cells <= 0, jj, n_s + 2 * ((cells - 1) * n_s + jj) + slot)
        valid = (cells >= 0) & (cells < n_rings) & ((cells > 0) | (slot == 0))
        cand = np.where(valid, cand, cand[:, :1, :1]).reshape(len(pts), 6)
        a, b, c = np.moveaxis(self.nodes[self.triangles[cand]], 2, 0)
        lam = np.linalg.solve(np.stack([b - a, c - a], axis=-1),
                              (pts[:, None] - a)[..., None])[..., 0]
        bary = np.stack([1.0 - lam[..., 0] - lam[..., 1],
                         lam[..., 0], lam[..., 1]], axis=-1)
        score = np.where(valid.reshape(len(pts), 6), bary.min(axis=-1), -np.inf)
        best = np.argmax(score, axis=1)
        rows = np.arange(len(pts))
        out = np.clip(bary[rows, best], 0.0, None)
        out /= out.sum(axis=1, keepdims=True)
        return cand[rows, best], out

    def interpolate(self, values, points):
        """P1-interpolate nodal values at arbitrary disc points."""
        tri_idx, bary = self.locate(points)
        vals = np.asarray(values)
        return np.einsum("pa,pa...->p...", bary, vals[self.triangles[tri_idx]])


def build_polar_mesh(n_rings, n_sectors, grading=1.0):
    """Structured polar mesh of the closed unit disc.

    Ring radii are ``(k/n_rings)**(1/grading)`` so ``grading < 1``
    compresses rings toward the origin where the cone examples are
    singular.  Node count is ``1 + n_rings*n_sectors``.

    Parameters must satisfy ``n_rings >= 2``, ``n_sectors >= 8`` and
    ``0.2 <= grading <= 1``.
    """
    if n_rings < 2 or n_sectors < 8:
        raise ValueError("need n_rings >= 2 and n_sectors >= 8")
    if not (0.2 <= grading <= 1.0):
        raise ValueError("grading must lie in [0.2, 1]")

    radii = (np.arange(1, n_rings + 1) / n_rings) ** (1.0 / grading)
    theta = 2 * np.pi * np.arange(n_sectors) / n_sectors
    nodes = np.empty((1 + n_rings * n_sectors, 2))
    nodes[0] = 0.0
    nodes[1:, 0] = (radii[:, None] * np.cos(theta)).ravel()
    nodes[1:, 1] = (radii[:, None] * np.sin(theta)).ravel()

    # node(k, j) = 1 + (k - 1) * n_sectors + j mod n_sectors on ring k >= 1
    j = np.arange(n_sectors)
    j1 = (j + 1) % n_sectors
    # written local vertex first into the (3, T) storage DiscMesh keeps
    tris = np.empty((3, (2 * n_rings - 1) * n_sectors), dtype=int)
    tris[0, :n_sectors], tris[1:, :n_sectors] = 0, (1 + j, 1 + j1)
    # CCW quad of ring k, sector j: inner theta_j, outer theta_j,
    # outer theta_j+1, inner theta_j+1; its two triangles follow each other
    k = np.arange(1, n_rings)[:, None]
    ring, ring1 = 1 + (k - 1) * n_sectors, 1 + k * n_sectors  # node(k, 0), node(k+1, 0)
    even = (j + k) % 2 == 0
    first, second = np.moveaxis(                # views: they write into tris
        tris[:, n_sectors:].reshape(3, n_rings - 1, n_sectors, 2), -1, 0)
    first[0], first[1], first[2] = (ring + j, ring1 + j,
                                    np.where(even, ring1 + j1, ring + j1))
    second[0], second[1], second[2] = (np.where(even, ring + j, ring1 + j),
                                       ring1 + j1, ring + j1)

    outer = 1 + (n_rings - 1) * n_sectors
    boundary_edges = np.column_stack([outer + j, outer + j1])
    mesh = DiscMesh(nodes, tris.T, boundary_edges,
                    polar_info={"n_rings": n_rings, "n_sectors": n_sectors,
                                "grading": grading, "radii": radii})
    return mesh.validate()


def element_gradient(mesh, values):
    """Per-triangle constant gradient of a P1 nodal field.

    ``values`` has shape (N,) or (N, m); the result has shape (T, 2) or
    (T, 2, m), a view over (2, T) or (2, m, T) storage, so that each
    component ``[:, d, k]`` is a contiguous row.  Complex dtypes pass
    through.  Exact for affine fields, and exactly zero (not
    rounding-level) for constant fields because the formula differences
    the nodal values.
    """
    values = np.asarray(values)
    if values.shape[0] != len(mesh.nodes):
        raise ValueError("field must have one value per node")
    return _p1_gradient(mesh.triangles, mesh.hat_gradients, values)


def _p1_gradient(tris, g, values):
    """The gradients of nodal ``values`` on the triangles ``tris`` (K, 3)
    with hat gradients ``g`` (K, 3, 2): the one P1 difference kernel."""
    # node axis last, so the products below run over all triangles at once
    vt = np.ascontiguousarray(np.moveaxis(values, 0, -1))   # (..., N)
    v0 = np.take(vt, tris[:, 0], axis=-1)
    dv1 = np.take(vt, tris[:, 1], axis=-1) - v0             # (..., K)
    dv2 = np.take(vt, tris[:, 2], axis=-1) - v0
    del vt, v0                  # lowers the peak of the product loop below
    # stored component-major, (2, ..., K): each row is written contiguously
    # and read so by the consumers of the (K, 2, ...) view returned
    out = np.empty((2,) + values.shape[1:] + (len(tris),), np.result_type(g, values))
    for d in range(2):
        out[d] = g[:, 1, d] * dv1 + g[:, 2, d] * dv2
    return np.moveaxis(out, -1, 0)


def _node_scatter(mesh):
    """A function ``sums(per_vertex)`` adding ``per_vertex[k][t]`` into the
    node at local vertex k of triangle t: one ``bincount`` over vertices 0,
    1, 2 in triangle order, a fixed order, on an index built once."""
    idx, n = mesh.triangles.T.ravel(), len(mesh.nodes)
    return lambda per_vertex: np.bincount(idx, np.ravel(per_vertex), minlength=n)


def interpolate_at_centroids(mesh, values):
    """Average of the three nodal values on each triangle, bitwise
    ``values[triangles].mean(axis=1)`` without its (T, 3, ...) temporary;
    ``np.take`` gathers the rows about three times faster than an index."""
    v, t = np.asarray(values), mesh.triangles
    return (np.take(v, t[:, 0], axis=0) + np.take(v, t[:, 1], axis=0)
            + np.take(v, t[:, 2], axis=0)) / 3.0


def exclusion_masks(mesh, exclude):
    """Nodes and triangles clear of a list of exclusion balls.

    ``exclude`` holds ``(center, radius)`` pairs.  Returns ``(node_ok,
    tri_ok)``: a node is clear when its distance to every center exceeds
    that radius, a triangle when its three vertices and its centroid are.
    """
    node_ok = np.ones(len(mesh.nodes), dtype=bool)
    cent_ok = np.ones(len(mesh.triangles), dtype=bool)
    for center, radius in exclude:
        center = np.asarray(center, float)
        node_ok &= np.hypot(mesh.nodes[:, 0] - center[0],
                            mesh.nodes[:, 1] - center[1]) > radius
        cent_ok &= np.hypot(mesh.centroids[:, 0] - center[0],
                            mesh.centroids[:, 1] - center[1]) > radius
    return node_ok, cent_ok & node_ok[mesh.triangles].all(axis=1)


def _test_set(mesh, exclude):
    """``(node_ok, test)``: the (N,) mask of the nodes clear of the balls
    ``exclude`` (see :func:`exclusion_masks`) and that of the hat functions
    :func:`weak_divergence_residual` tests, those at interior clear nodes
    whose support meets no ball.

    Computed once per mesh and list of balls, keyed by the balls' floats,
    and returned read-only, so that the residuals of one level share them.
    """
    key = tuple((float(c[0]), float(c[1]), float(r)) for c, r in exclude)
    masks = mesh._test_sets.get(key)
    if masks is None:
        node_ok, ok_tri = exclusion_masks(mesh, exclude)
        test = node_ok & ~mesh.is_boundary
        test[mesh.triangles[~ok_tri].ravel()] = False   # support meets a ball
        for a in (node_ok, test):
            a.flags.writeable = False
        masks = mesh._test_sets[key] = node_ok, test
    return masks


def weak_divergence_residual(mesh, w, exclude=()):
    """Scale-invariant weak divergence residual of a per-triangle field.

    For every admissible interior hat function ``phi`` the quantity
    ``|sum_T a_T w_T . grad(phi)|`` is divided by
    ``||w||_{L2(supp phi)} * ||grad phi||_{L2} + eps`` and the maximum is
    returned.  The local ``||w||`` keeps the statistic scale invariant:
    a field with O(1) divergence scores O(h/r) regardless of mesh size,
    while discretely divergence-free fields score O(h^2) and exact
    constants score at rounding level.

    ``w`` is one real (T, 2) field, or k fields stacked as (T, 2, k), for
    which the largest of their k residuals is returned; the stack shares
    one test set, and every ``bincount`` one (3, T) weight buffer.

    Hat functions at boundary nodes, at nodes inside an exclusion ball,
    or whose support meets an exclusion ball (see :func:`exclusion_masks`)
    are skipped.  Raises ``ValueError`` for a complex field, and when no
    test function remains or the stack holds no field, since an empty
    maximum would read as a perfect 0.
    """
    w = np.asarray(w)
    fields = w[..., None] if w.ndim == 2 else w
    if w.dtype.kind == "c":
        raise ValueError("weak_divergence_residual: the field must be real")
    if fields.shape[-1] == 0:
        raise ValueError("weak_divergence_residual: empty field stack")
    _, test = _test_set(mesh, exclude)
    if not np.any(test):
        raise ValueError("weak_divergence_residual: empty test set")
    grad_norm = np.sqrt(mesh.hat_energy[test])
    a, g, sums = mesh.areas, mesh.hat_gradients, _node_scatter(mesh)
    per_vertex = np.empty((3, len(a)))      # the weights of every scatter
    worst = 0.0
    for c in range(fields.shape[-1]):
        wc = fields[..., c]
        # sum_T a_T w_T . grad(phi) and ||w||^2_{L2(supp phi)} per node
        for k in range(3):
            per_vertex[k] = a * (g[:, k, 0] * wc[:, 0] + g[:, k, 1] * wc[:, 1])
        integral = sums(per_vertex)
        per_vertex[:] = a * np.sum(wc * wc, axis=-1)
        w_sq = sums(per_vertex)
        den = np.sqrt(w_sq[test]) * grad_norm + EPS
        # np.maximum, unlike max, keeps a NaN
        worst = np.maximum(worst, np.max(np.abs(integral[test]) / den))
    return float(worst)


def _collar_cutoff(r, collar_r0):
    t = np.clip((r - collar_r0) / (1.0 - collar_r0), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def boundary_trace_pairing(mesh, w, phis, collar_r0):
    """Distributional boundary pairings <w . nu, phi>, one per ``phi`` in
    ``phis``, via an annular collar; a (len(phis),) array.

    Each ``phi`` is a function of the boundary angle; it is extended
    radially and multiplied by a cubic-smoothstep cutoff ``chi`` with
    ``chi(collar_r0) = 0`` and ``chi(1) = 1``.  The pairing is
    ``integral over the collar of w . grad(I_h(phi * chi))`` with the
    product interpolated at mesh nodes.  For fields with vanishing weak
    divergence in the collar the result is independent of ``collar_r0``
    up to discretization, and for smooth ``w`` it converges to the
    boundary integral of ``(w . nu) phi``.

    Only the triangles with a node where chi > 0 are evaluated (``w`` is
    not read elsewhere), into a zero-filled full-length array summed once:
    bitwise the sum over every triangle, up to the sign of a zero.
    """
    if not (0.0 < collar_r0 < 1.0):
        raise ValueError("collar_r0 must lie in (0, 1)")
    chi = _collar_cutoff(mesh.node_r, collar_r0)
    live = chi > 0
    tri = np.flatnonzero(live[mesh.triangles].any(axis=1))
    t, g, a = mesh.triangles[tri], mesh.hat_gradients[tri], mesh.areas[tri]
    theta, chi, w = mesh.node_theta[live], chi[live], np.asarray(w)[tri]
    vals, integrand = np.zeros(len(mesh.nodes)), np.zeros(len(mesh.triangles))
    out = np.empty(len(phis))
    for p, phi in enumerate(phis):
        vals[live] = np.asarray(phi(theta)) * chi
        grad = _p1_gradient(t, g, vals)     # on the collar triangles only
        integrand[tri] = a * np.einsum("td,td->t", grad, w)
        out[p] = np.sum(integrand)
    return out


N_QUAD = 512


def loop_integrals(w, center, radius):
    """Flux and circulation of a field around a circle inside the disc.

    ``w`` is a callable mapping (k, 2) points to real (k, 2) vectors.
    Trapezoidal quadrature at ``N_QUAD`` points on the circle is spectrally
    accurate for smooth periodic integrands.
    """
    center = np.asarray(center, float)
    if not radius > 0:          # NaN fails both bounds
        raise ValueError("radius must be positive")
    if not np.hypot(*center) + radius < 1.0 - 1e-12:
        raise ValueError("quadrature circle exits the open unit disc")
    t = 2 * np.pi * np.arange(N_QUAD) / N_QUAD
    nu = np.column_stack([np.cos(t), np.sin(t)])
    tau = np.column_stack([-np.sin(t), np.cos(t)])
    pts = center + radius * nu
    vals = np.asarray(w(pts))
    ds = 2 * np.pi * radius / N_QUAD
    flux = np.sum(np.sum(vals * nu, axis=-1)) * ds
    circ = np.sum(np.sum(vals * tau, axis=-1)) * ds
    return float(flux), float(circ)
