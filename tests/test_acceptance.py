"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The tolerances below are fixed contracts; runtimes refer to a single
laptop-class core.
"""

import time

import numpy as np
import pytest

from lagdisc import algebra as alg
from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import residuals as res
from lagdisc import solver as sol
from conftest import random_unitary

BALL = dom.unit_ball()
ACCEPTANCE_MESHES = [(24, 96), (48, 192), (96, 384)]


def _line(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. conical example verification
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pq", [(1, 2), (2, 3), (3, 4)])
def test_criterion_1_sw_verification(pq, mesh_cache):
    t0 = time.time()
    p, q = pq
    cone = fam.sw_cone(p, q)
    batch = res.ball_mixed_batch(BALL, seed=11, size=24, n_bumps=8)
    assert len(batch) >= 20
    reports, stats, hs = [], [], []
    for (R, S) in ACCEPTANCE_MESHES:
        m = mesh_cache(R, S)
        u = fam.sample(cone, m)

        lag, conf = res.pointwise_geometry_report(u)
        assert lag <= 1e-12 and conf <= 1e-12

        # angle equals e^{i(p-q)theta} pointwise (away from the cone point)
        mask = m.node_r > 1e-12
        fr = u.exact_frames
        _, gbar = alg.lagrangian_angle(fr.e_x[mask], fr.e_y[mask])
        target = np.exp(1j * (p - q) * m.node_theta[mask])
        assert np.max(np.abs(gbar - target)) <= 1e-12

        rep = res.full_report(cone, m, BALL)
        reports.append(rep)
        stats.append(res.stationarity_test(u, BALL, batch))
        hs.append(m.h_max)

    # boundary conditions on the finest mesh
    fin = reports[-1]
    assert fin.legendrian <= 1e-12
    assert fin.conormal <= 1e-12
    assert fin.neumann_trace <= 1e-8

    orders = {}
    for check in ("structural", "angle_div", "angle_perp_div"):
        orders[check] = res.fit_order(hs, [getattr(r, check) for r in reports])
        assert orders[check] >= 1.0, check
    stat_order = res.fit_order(hs, stats)
    assert stat_order >= 0.8

    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _line(f"criterion 1 (p,q)=({p},{q})", True,
          f"orders={ {k: round(v, 2) for k, v in orders.items()} }, "
          f"stationarity order={stat_order:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. flat-disc null test
# ---------------------------------------------------------------------------
def test_criterion_2_flat_null(mesh_cache, rng):
    m = mesh_cache(*ACCEPTANCE_MESHES[-1])
    worst = {}
    for _ in range(5):
        U = random_unitary(rng)
        rep = res.full_report(fam.flat_disc(U), m, BALL)
        for check in res.ResidualReport.CHECKS:
            v = getattr(rep, check)
            worst[check] = max(worst.get(check, 0.0), v)
            assert v <= 1e-10, (check, v)
    _line("criterion 2 (flat-disc null test)", True,
          f"worst entry {max(worst.values()):.1e}")


# ---------------------------------------------------------------------------
# 3. the discriminating non-minimal example
# ---------------------------------------------------------------------------
def test_criterion_3_nonminimal_discriminates(mesh_cache, rng):
    nm = fam.nonminimal_map()
    d = dom.curve_domain_from_map(nm)
    batch = res.curve_report_batch(d, nm, size=12, seed=5)
    vals, hs = [], []
    for (R, S) in [(12, 48), (24, 96), (48, 192)]:
        m = mesh_cache(R, S)
        u = fam.sample(nm, m)
        vals.append(res.stationarity_test(u, d, batch))
        hs.append(m.h_max)
    order = res.fit_order(hs, vals)
    assert order >= 1.0

    r = np.sqrt(rng.uniform(0, 1, 20000))
    th = rng.uniform(0, 2 * np.pi, 20000)
    ang = nm.angle(r, th)
    variance = float(np.mean(np.abs(ang - ang.mean()) ** 2))
    assert variance >= 0.1

    u = fam.sample(nm, mesh_cache(48, 192))
    leg, _, neu = res.boundary_conditions_report(u, d)
    assert leg >= 0.5
    assert neu >= 1.0
    _line("criterion 3 (non-minimal example)", True,
          f"stationarity order={order:.2f}, variance={variance:.2f}, "
          f"legendrian={leg:.2f}, neumann={neu:.2f}")


# ---------------------------------------------------------------------------
# 4. degree extraction
# ---------------------------------------------------------------------------
def test_criterion_4_degrees():
    radii = (0.2, 0.35, 0.5)
    recs = {}
    for pq in ((1, 2), (2, 3)):
        cone = fam.sw_cone(*pq)

        # brute-force oracle: the same quadrature applied to the field
        # reconstructed by finite differences of the parametrization alone
        def fd_field(pts, cone=cone, h=1e-6):
            def g_at(x, y):
                fr = cone.frame_xy(x, y)
                _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
                return np.conj(gbar)
            x, y = pts[:, 0], pts[:, 1]
            g0 = g_at(x, y)
            gx = (g_at(x + h, y) - g_at(x - h, y)) / (2 * h)
            gy = (g_at(x, y + h) - g_at(x, y - h)) / (2 * h)
            return np.real(1j * np.conj(g0)[:, None] * np.stack([gx, gy], axis=1))

        oracle = res.singular_masses(fd_field, (0.0, 0.0), radii=(0.3, 0.5))
        rec = res.singular_masses(cone.angle_flux_field, (0.0, 0.0), radii=radii)
        assert abs(oracle.degree - rec.degree) <= 1e-4   # sign conventions agree
        assert abs(abs(rec.degree) - 1.0) <= 1e-8
        assert rec.degree_spread <= 1e-8
        assert abs(rec.flux_mass) <= 1e-8
        recs[pq] = rec
    assert abs(recs[(1, 2)].degree - recs[(2, 3)].degree) <= 1e-8
    _line("criterion 4 (degree extraction)", True,
          f"degree={recs[(1, 2)].degree:+.9f}")


# ---------------------------------------------------------------------------
# 5. flow invariance
# ---------------------------------------------------------------------------
def test_criterion_5_flow_invariance(mesh_cache):
    m = mesh_cache(16, 64)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    worst = 0.0
    for k in range(4):
        c = np.zeros(4)
        c[k] = 1.0
        f = hams.hopf_invariant_quadratic(c, domain=BALL)
        lag = res.pointwise_geometry_report(
            sol.perturb_by_hamiltonian_flows(u, [f], [1.0], BALL, n_sub=100))[0]
        worst = max(worst, lag)
        assert lag <= 1e-6

    f = hams.hopf_invariant_quadratic(
        [1.0, -0.5, 0.7, 0.3], profile=hams.smooth_cutoff_profile(0.5, 1.3),
        domain=BALL)
    z0 = np.array([0.5, 0.1, 0.4, -0.2])
    frame = (np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 1.0, 0]))
    dts = (1e-2, 5e-3, 2.5e-3)
    drifts = [abs(alg.symplectic(*sol.flow_frame_step(z0, frame, f, dt,
                                                      method="rk2")[1]))
              for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(np.maximum(drifts, 1e-300)),
                             1)[0])
    assert slope >= 2.5
    _line("criterion 5 (flow invariance)", True,
          f"max residual {worst:.1e}, drift order {slope:.2f}")


# ---------------------------------------------------------------------------
# 6. rigidity at desk scale
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_criterion_6_rigidity(seed, mesh_cache):
    t0 = time.time()
    rep, _, _ = sol.rigidity_experiment(seed=seed, eps=0.05,
                                        mesh=mesh_cache(48, 192))
    elapsed = time.time() - t0
    assert elapsed <= 300.0
    assert rep.passed
    assert rep.flat_disc_distance <= 1e-3
    assert rep.angle_variance <= 1e-6
    assert rep.circle_defect <= 1e-3
    _line(f"criterion 6 (rigidity, seed {seed})", True,
          f"dist={rep.flat_disc_distance:.1e}, var={rep.angle_variance:.1e}, "
          f"circle={rep.circle_defect:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. polar frame identity (guards the quaternion sign convention)
# ---------------------------------------------------------------------------
def test_criterion_7_frame_identity(rng):
    for ex in (fam.flat_disc(np.eye(2)), fam.sw_cone(1, 2), fam.sw_cone(2, 3),
               fam.sw_cone(3, 4), fam.nonminimal_map()):
        r = rng.uniform(0.05, 0.999, 1000)
        th = rng.uniform(-np.pi, np.pi, 1000)
        fr = ex.frame(r, th)
        e_r = np.cos(th)[:, None] * fr.e_x + np.sin(th)[:, None] * fr.e_y
        e_t = -np.sin(th)[:, None] * fr.e_x + np.cos(th)[:, None] * fr.e_y
        _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
        resid = e_t + alg.complex_scale(gbar, alg.apply_J(e_r))
        assert np.max(np.abs(resid)) <= 1e-12, ex.kind
    _line("criterion 7 (polar frame identity)", True)


# ---------------------------------------------------------------------------
# 8. tester sensitivity
# ---------------------------------------------------------------------------
def test_criterion_8_sensitivity(mesh_cache):
    m = mesh_cache(48, 192)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    wavelength = 0.12
    up = sol.normal_wave_perturbation(u, amplitude=0.05, wavelength=wavelength)
    probe = hams.windowed_wave(np.pi / wavelength,
                               hams.smooth_cutoff_profile(0.75, 0.92))
    batch = res.ball_mixed_batch(BALL, seed=11, size=12, n_bumps=4) + [probe]
    flagged = res.stationarity_test(up, BALL, batch)
    assert flagged >= 1e-2
    clean = res.stationarity_test(u, BALL, batch)
    assert clean <= 1e-4          # no false alarm on the unperturbed disc
    _line("criterion 8 (tester sensitivity)", True,
          f"perturbed={flagged:.1e}, clean={clean:.1e}")
