import gc
import tracemalloc

import numpy as np
import pytest

from lagdisc.mesh import build_polar_mesh


_MESHES = {}


@pytest.fixture(scope="session")
def mesh_cache():
    """Session-wide mesh factory so refinement studies share construction."""

    def get(n_rings, n_sectors, grading=1.0):
        key = (n_rings, n_sectors, grading)
        if key not in _MESHES:
            _MESHES[key] = build_polar_mesh(*key)
        return _MESHES[key]

    return get


def traced(fn):
    """``(fn(), kept, peak)``: the bytes that the call leaves allocated and
    the most it held at once, by tracemalloc, from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def half_turn(mesh):
    """The node permutation x -> -x of a polar mesh with an even sector
    count: node(k, j) -> node(k, j + S/2).  A nodal map u is odd when
    ``u[half_turn(mesh)] = -u``."""
    n_s = mesh.polar_info["n_sectors"]
    assert n_s % 2 == 0
    ring, j = np.divmod(np.arange(len(mesh.nodes)) - 1, n_s)
    return np.where(ring < 0, 0, 1 + ring * n_s + (j + n_s // 2) % n_s)


def centred_differences(fn, z, step, symmetrize=False):
    """Centred differences of ``fn`` along the four coordinate axes at the
    rows of ``z``, stacked on a new last axis; a single point stays single.

    With ``symmetrize`` the result (a Hessian from a gradient) is replaced
    by its symmetric part.
    """
    z = np.asarray(z, float)
    d = np.stack([(fn(z + e) - fn(z - e)) / (2 * step)
                  for e in step * np.eye(4)], axis=-1)
    return 0.5 * (d + np.swapaxes(d, -1, -2)) if symmetrize else d


def z1_arc_reference_gradient(center, width, a_sign, r_window=(0.15, 0.4)):
    """Gradient of the z1-arc test function f = eta(R) (A(phi)(R - 1) + B(phi))
    with A = a_sign (1 - phi^2) B'/phi, computed as it was before the closed
    form: A' by hand and the window derivative eta'(R) by an h = 1e-6
    centred difference of the window, the z1-arc functions' quintic cutoff."""
    from lagdisc import hamiltonians as hams

    lo, hi = center - width, center + width
    window = hams.smooth_cutoff_profile(r_window[0] ** 2, r_window[1] ** 2)

    def eta(R):
        return window((R - 1.0) ** 2)[0]

    def gradient(z):
        z = np.asarray(z, float)
        R = np.hypot(z[..., 0], z[..., 1])
        phi = np.arctan2(z[..., 1], z[..., 0])
        e = eta(R)
        out = np.zeros(z.shape)
        m = e > 0.0
        Rm, pm, h = R[m], phi[m], 1e-6
        b, b1, b2 = hams._arc_bump(pm, center, width)[:3]
        A, dA = np.zeros_like(pm), np.zeros_like(pm)
        k = (pm > lo) & (pm < hi)
        p, q = pm[k], b1[k]
        A[k] = a_sign * (1.0 - p ** 2) * q / p
        dA[k] = a_sign * (-2.0 * q + (1.0 - p ** 2) * (b2[k] * p - q) / p ** 2)
        deta = (eta(Rm + h) - eta(Rm - h)) / (2 * h)
        fR = deta * (A * (Rm - 1.0) + b) + e[m] * A
        fphi = e[m] * (dA * (Rm - 1.0) + b1)
        c, s = np.cos(pm), np.sin(pm)
        out[..., 0][m] = c * fR - s * fphi / Rm
        out[..., 1][m] = s * fR + c * fphi / Rm
        return out

    return gradient


def unbanded_profiled_hessian(P, factor=None, center=None, scale=1.0):
    """The packed product-rule Hessian of P(|z - c|^2/scale) Q(z) evaluated
    on every row, Q given by its (value, gradient, Hessian) ``factor`` (Q = 1
    when it is None): the formula of ``hamiltonians._profiled`` without its
    bands."""
    from lagdisc import algebra as alg
    from lagdisc import hamiltonians as hams

    def hessian(z):
        z = np.asarray(z, float)
        d = z if center is None else z - center
        p, p1, p2 = P(alg.inner(d, d) / scale)
        p1 = p1 * 2.0 / scale
        Q = 1.0 if factor is None else factor[0](z)
        H = (p2 * (2.0 / scale) ** 2 * Q)[..., None] * hams._outer(d, d)
        H[..., np.flatnonzero(hams.UPPER_I == hams.UPPER_J)] += (p1 * Q)[..., None]
        if factor is not None:
            gQ = factor[1](z)
            H += p1[..., None] * (hams._outer(d, gQ) + hams._outer(gQ, d))
            H += p[..., None] * factor[2](z)
        return H

    return hessian
