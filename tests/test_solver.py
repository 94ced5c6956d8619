import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

from lagdisc import algebra as alg
from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import residuals as res
from lagdisc import solver as sol
from lagdisc.algebra import apply_I, inner, symplectic
from lagdisc.mesh import build_polar_mesh, element_gradient
from conftest import half_turn, random_unitary

BALL = dom.unit_ball()


def small_cfg(**kw):
    defaults = dict(grad_tol=1e-9, max_iters=200)
    defaults.update(kw)
    return sol.SolverConfig(**defaults)


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------
def test_energy_flat_disc(mesh_cache):
    m = mesh_cache(16, 64)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    E, G = sol.energy_and_gradient(u, BALL, 10.0, 100.0)
    assert abs(E - np.pi) <= 0.01          # mesh area = pi - O(h^2)
    assert abs(E - float(np.sum(m.areas))) <= 1e-12
    # penalty parts vanish on the exact flat disc
    E2, _ = sol.energy_and_gradient(u, BALL, 1e6, 1e6)
    assert abs(E2 - E) <= 1e-12


def test_energy_zero_map(mesh_cache):
    m = mesh_cache(8, 32)
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    uz = replace(u0, values=np.zeros_like(u0.values), source=None)
    lam2 = 100.0
    E, G = sol.energy_and_gradient(uz, BALL, 10.0, lam2)
    w = m.boundary_weights[m.is_boundary].sum()
    assert E == pytest.approx(lam2 * w, rel=1e-12)
    assert np.all(G == 0.0)                # gradF(0) = 0


def _ellipsoid(axes):
    """The level set sum_i (z_i / axes_i)^2 = 1."""
    s = 1.0 / np.asarray(axes, float) ** 2

    def F(z):
        z = np.asarray(z, float)
        return np.sum(s * z * z, axis=-1) - 1.0

    return dom.LevelSetDomain(F, lambda z: 2.0 * s * np.asarray(z, float))


@pytest.mark.parametrize("lams", sol.default_continuation(),
                         ids=["stage1", "stage2", "stage3"])
@pytest.mark.parametrize("case", ["sw_cone/ball", "noisy/ball", "noisy/ellipsoid"])
def test_gradient_finite_difference(mesh_cache, rng, case, lams):
    """The gradient against centred differences along 20 random directions.
    On the sw cone the boundary sits on the sphere (|F| ~ 4e-16); the noisy
    flat disc leaves |F| ~ 0.2 at the boundary nodes, so the penalty term
    2 lam2 w F gradF is compared too."""
    m = mesh_cache(6, 24)
    start, level_set = case.split("/")
    if start == "sw_cone":
        u = replace(fam.sample(fam.sw_cone(1, 2), m), source=None)
    else:
        u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
        u = replace(u0, values=u0.values + 0.05 * rng.normal(size=u0.values.shape),
                    source=None)
    domain = BALL if level_set == "ball" else _ellipsoid((1.0, 1.3, 1.0, 1.3))
    if start == "noisy":
        assert np.max(np.abs(domain.F(u.values[m.is_boundary]))) >= 0.1
    E0, G = sol.energy_and_gradient(u, domain, *lams)
    for _ in range(20):
        d = rng.normal(size=u.values.shape)
        d /= np.linalg.norm(d)
        step = 1e-6
        Ep, _ = sol.energy_and_gradient(replace(u, values=u.values + step * d),
                                        domain, *lams)
        Em, _ = sol.energy_and_gradient(replace(u, values=u.values - step * d),
                                        domain, *lams)
        fd = (Ep - Em) / (2 * step)
        assert abs(fd - float(np.sum(G * d))) <= 1e-6 * (1 + abs(E0))


def test_energy_needs_level_set(mesh_cache):
    d = dom.curve_domain_from_map(fam.nonminimal_map())
    u = fam.sample(fam.nonminimal_map(), mesh_cache(4, 16))
    with pytest.raises(TypeError, match="energy penalties need a level-set domain"):
        sol.energy_and_gradient(u, d, 1.0, 1.0)
    with pytest.raises(TypeError, match="energy penalties need a level-set domain"):
        sol.minimize(u, d, sol.SolverConfig())


def _add_at_energy_and_gradient(u, domain, lam1, lam2):
    """Reference: the ``np.add.at`` scatter assembly of the gradient.  The
    energy is summed as in ``sol._energy_state`` and must match bitwise; the
    operator gradient (``K u + D^T(...)``) sums in another order and must
    match to rounding."""
    mesh = u.mesh
    vals = u.values
    tris = mesh.triangles
    a = mesh.areas
    g = mesh.hat_gradients
    grad = element_gradient(mesh, vals)
    e_x, e_y = grad[:, 0, :], grad[:, 1, :]
    E = 0.5 * float(np.sum(a * (inner(e_x, e_x) + inner(e_y, e_y))))
    G = np.zeros_like(vals)
    for ia in range(3):
        contrib = a[:, None] * (g[:, ia, 0, None] * e_x + g[:, ia, 1, None] * e_y)
        np.add.at(G, tris[:, ia], contrib)
    q = symplectic(e_x, e_y)
    E += lam1 * float(np.sum(a * q * q))
    Ie_x, Ie_y = apply_I(e_x), apply_I(e_y)
    for ia in range(3):
        dq = -g[:, ia, 0, None] * Ie_y + g[:, ia, 1, None] * Ie_x
        np.add.at(G, tris[:, ia], (2.0 * lam1 * a * q)[:, None] * dq)
    w = mesh.boundary_weights
    b = mesh.is_boundary
    Fb = np.asarray(domain.F(vals[b]), float)
    E += lam2 * float(np.sum(w[b] * Fb * Fb))
    G[b] += (2.0 * lam2 * w[b] * Fb)[:, None] * np.asarray(domain.gradF(vals[b]), float)
    return E, G


@pytest.mark.parametrize("size", [(6, 24), (12, 48)])
def test_energy_and_gradient_bitwise_matches_add_at(mesh_cache, rng, size):
    m = mesh_cache(*size)
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    for lam1, lam2 in sol.default_continuation():
        vals = u0.values + 0.1 * rng.normal(size=u0.values.shape)
        u = replace(u0, values=vals, source=None)
        E, G = sol.energy_and_gradient(u, BALL, lam1, lam2)
        E_ref, G_ref = _add_at_energy_and_gradient(u, BALL, lam1, lam2)
        assert E == E_ref
        assert np.max(np.abs(G - G_ref)) <= 1e-13 * np.max(np.abs(G_ref))


@pytest.mark.parametrize("size", [(2, 8, 1.0), (12, 48, 0.5), (48, 192, 1.0)])
def test_boundary_weights_bitwise_match_edge_loop(size):
    m = build_polar_mesh(*size)          # fresh mesh: nothing cached yet
    want = np.zeros(len(m.nodes))
    for i, j in m.boundary_edges:        # reference: the old per-edge loop
        L = np.hypot(*(m.nodes[j] - m.nodes[i]))
        want[i] += 0.5 * L
        want[j] += 0.5 * L
    got = m.boundary_weights
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.all(got[~m.is_boundary] == 0.0)


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------
def test_minimize_flat_disc_immediate(mesh_cache):
    m = mesh_cache(12, 48)
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    u_star, hist = sol.minimize(u0, BALL, small_cfg(grad_tol=1e-7))
    # converged in at most 5 accepted iterations per stage: the flat disc is
    # an exact critical point of the projected scheme
    assert all(s["iters"] <= 5 for s in hist["stages"])
    assert hist["rows"][-1]["grad_norm"] <= 1e-7
    assert abs(hist["rows"][-1]["E"] - float(np.sum(m.areas))) <= 1e-10


def test_minimize_requires_projection_tube(mesh_cache):
    m = mesh_cache(8, 32)
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    bad = replace(u0, values=2.5 * u0.values, source=None)
    with pytest.raises(ValueError):
        sol.minimize(bad, BALL, small_cfg())


def _minimize_factor(monkeypatch, mesh):
    """The matrix that :func:`sol.minimize` factors on ``mesh`` and its
    factor, captured from the ``splu`` call, with splu's default factor of
    the same matrix."""
    splu, built = sol.spla.splu, []

    def capturing(A, *args, **kwargs):
        built.append((A, splu(A, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(sol.spla, "splu", capturing)
    sol.minimize(fam.sample(fam.flat_disc(np.eye(2)), mesh), BALL,
                 small_cfg(max_iters=1))
    monkeypatch.undo()
    (A, factor), = built
    return A, factor, splu(A)


@pytest.mark.parametrize("size", [(8, 32, 1.0), (12, 48, 0.5), (48, 192, 1.0)])
def test_preconditioner_factor_solves_stiffness_plus_mass(mesh_cache, monkeypatch,
                                                          rng, size):
    m = mesh_cache(*size)
    A, factor, _ = _minimize_factor(monkeypatch, m)
    assert (A != m.stiffness + sp.diags(m.lumped_mass)).nnz == 0
    b = rng.normal(size=(A.shape[0], 4))
    x = factor.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_preconditioner_factor_has_symmetric_fill(mesh_cache, monkeypatch):
    """K+M is SPD: a symmetric ordering with diagonal pivots keeps well
    under half the fill of splu's default COLAMD with partial pivoting
    (0.40M against 1.02M nonzeros at 48x192)."""
    _, factor, default = _minimize_factor(monkeypatch, mesh_cache(48, 192))
    assert factor.L.nnz + factor.U.nnz <= 0.5 * (default.L.nnz + default.U.nnz)


def _perturbed_start(m, rng, eps=0.05):
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    fs = sol.random_sphere_tangent_hamiltonians(rng)
    scales = []
    for f in fs:
        gmax = float(np.max(np.linalg.norm(f.gradient(u0.values), axis=1)))
        scales.append((eps / 3) / max(gmax, 1e-9))
    return sol.perturb_by_hamiltonian_flows(u0, fs, scales, BALL)


def _off_centre_start(m, seed, eps=0.05):
    """The flat disc flowed by two seeded interior bumps centred off the
    origin, to amplitude ``eps``: an admissible start that is not odd."""
    rng = np.random.default_rng(seed)
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    fs, times = [], []
    for _ in range(2):
        r, th = rng.uniform(0.2, 0.4), rng.uniform(0.0, 2.0 * np.pi)
        c = r * np.array([np.cos(th), 0.0, np.sin(th), 0.0]) + 0.05 * rng.normal(size=4)
        fs.append(hams.interior_bump(c, 0.45))
        gmax = float(np.max(np.linalg.norm(fs[-1].gradient(u0.values), axis=1)))
        times.append((eps / 2) / gmax)
    return sol.perturb_by_hamiltonian_flows(u0, fs, times, BALL)


def _tangential_gradient(u, st, lam1, lam2):
    return sol._tangential(BALL, u.values, sol._energy_gradient(u, BALL, lam1, lam2, st),
                           u.mesh.is_boundary)


def _barycentre_multiplier(u, lam1, lam2):
    """|sum G| / sum m for the boundary-tangential gradient G at ``u``: the
    multiplier of the barycentre constraint, 0 when ``u`` is critical for
    the unconstrained energy too."""
    G = _tangential_gradient(u, sol._energy_state(u, BALL, lam1, lam2), lam1, lam2)
    return float(np.linalg.norm(np.sum(G, axis=0))) / float(np.sum(u.mesh.lumped_mass))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("size", [(12, 48), (12, 50)])
def test_minimize_relaxes_starts_that_are_not_odd(mesh_cache, size, seed):
    """Without a barycentre constraint these starts collapse to a point of
    the sphere; with it they relax to flat discs."""
    m = mesh_cache(*size)
    start = _off_centre_start(m, seed)
    assert np.max(np.abs(start.values + start.values[half_turn(m)])) >= 1e-3
    cfg = sol.SolverConfig()
    u, hist = sol.minimize(start, BALL, cfg)
    assert all(s["reason"] == "converged" for s in hist["stages"])
    verdict = res.rigidity_verdict(u, seed)
    assert verdict["flat_disc_distance"] <= 1e-6
    assert verdict["angle_variance"] <= 1e-10
    assert _barycentre_multiplier(u, *cfg.continuation[-1]) <= 10 * cfg.grad_tol


def test_minimize_needs_no_polar_structure(mesh_cache):
    m = mesh_cache(8, 32)
    start = _off_centre_start(m, 3)
    bare = replace(start, mesh=replace(m, polar_info=None))
    cfg = small_cfg(grad_tol=1e-8)
    u_a, hist_a = sol.minimize(start, BALL, cfg)
    u_b, hist_b = sol.minimize(bare, BALL, cfg)
    assert all(s["reason"] == "converged" for s in hist_b["stages"])
    assert hist_b == hist_a
    assert np.array_equal(u_b.values, u_a.values)


def test_minimize_perturbed_recovers(mesh_cache, rng):
    u_start = _perturbed_start(mesh_cache(12, 48), rng)
    u_star, hist = sol.minimize(u_start, BALL, small_cfg(grad_tol=1e-8))
    last = hist["rows"][-1]
    assert last["E"] <= np.pi + 1e-3
    assert last["lagrangian"] <= 1e-6
    # energy is monotone within each stage
    splits = np.cumsum([s["iters"] for s in hist["stages"]])
    start = 0
    for stop in splits:
        Es = [r["E"] for r in hist["rows"][start:stop]]
        assert all(b <= a + 1e-12 for a, b in zip(Es, Es[1:]))
        start = stop


def test_stage_ending_on_max_iters_closes_with_the_returned_map(mesh_cache, rng):
    """The last row describes the returned map, so the report's final
    energy and defects are those of that map, not of the iterate before."""
    start = _perturbed_start(mesh_cache(8, 32), rng)
    cfg = sol.SolverConfig(max_iters=3)
    u, hist = sol.minimize(start, BALL, cfg)
    assert all(s["reason"] == "max_iters" for s in hist["stages"])
    assert len(hist["rows"]) == sum(s["iters"] + 1 for s in hist["stages"])
    assert [r["iter"] for r in hist["rows"]] == list(range(len(hist["rows"])))
    want = sol._diagnostics(sol._energy_state(u, BALL, *cfg.continuation[-1]))
    last = hist["rows"][-1]
    assert {k: last[k] for k in want} == want


def test_minimize_counts_two_element_gradient_passes_per_trial(
        mesh_cache, rng, monkeypatch):
    start = _perturbed_start(mesh_cache(8, 32), rng)
    calls = []

    def counted(mesh, values):
        calls.append(1)
        return element_gradient(mesh, values)

    monkeypatch.setattr(sol, "element_gradient", counted)
    _, hist = sol.minimize(start, BALL, small_cfg(grad_tol=1e-7))
    stages = hist["stages"]
    for s in stages:
        # every iteration steps once, except the last of a stage that
        # converged; a stage that converges retries no direction
        assert s["reason"] == "converged"
        assert s["energy_evals"] == s["iters"]
        assert s["restarts"] == 0
    assert sum(s["iters"] for s in stages) == len(hist["rows"])
    # the stage start costs one pass, every trial two: the quartic along
    # its direction and its state
    assert len(calls) == sum(2 * s["energy_evals"] - 1 for s in stages)


def test_descent_does_not_read_the_frame_layout(mesh_cache, monkeypatch):
    """Rigidity seed 1 gives the same bits whether the element frames are
    views over component-major storage or row-major (T, 2, 4) arrays: every
    consumer computes elementwise or reduces fresh arrays."""
    m = mesh_cache(12, 48)

    def run():
        report, u, hist = sol.rigidity_experiment(1, 0.05, m)
        return u.values.tobytes(), repr(hist), repr(report.to_dict())

    def row_major_gradient(mesh, values):
        return np.ascontiguousarray(element_gradient(mesh, values))

    want = run()
    monkeypatch.setattr(sol, "element_gradient", row_major_gradient)
    monkeypatch.setattr(res, "element_gradient", row_major_gradient)
    assert run() == want


def _trace_minimize(monkeypatch, start, cfg, records=None):
    """Run :func:`sol.minimize` recording, in ``records``, every energy
    state it builds, with its map and the last ``element_gradient`` input
    before it (for a trial, its search direction).  Returns the history
    and, per history row, the record of the state that row reports."""
    records = [] if records is None else records
    inputs = []
    element_gradient_ = sol.element_gradient
    energy_state = sol._energy_state

    def recorded_element_gradient(mesh, values):
        inputs.append(values)
        return element_gradient_(mesh, values)

    def recorded_energy_state(u, domain, lam1, lam2):
        direction = inputs[-1] if inputs else None
        st = energy_state(u, domain, lam1, lam2)
        records.append((u, st, direction))
        return st

    monkeypatch.setattr(sol, "element_gradient", recorded_element_gradient)
    monkeypatch.setattr(sol, "_energy_state", recorded_energy_state)
    _, hist = sol.minimize(start, BALL, cfg)
    # a row stores the very float object of its state's energy
    rows = [next(r for r in records if r[1].E is row["E"])
            for row in hist["rows"]]
    return hist, rows


def _projected_direction(u, d):
    """The projection ``minimize`` applies to directions."""
    m = u.mesh.lumped_mass
    d = sol._tangential(BALL, u.values, d, u.mesh.is_boundary)
    return d - (m @ d) / float(np.sum(m))


def _projected_gradient(u, st, lam1, lam2):
    """The gradient of ``minimize`` at ``u``, with its projection."""
    m = u.mesh.lumped_mass
    G = _tangential_gradient(u, st, lam1, lam2)
    return G - np.outer(m, np.sum(G, axis=0) / float(np.sum(m)))


def test_every_accepted_step_descends_or_meets_the_derivative_condition(
        mesh_cache, monkeypatch):
    """Every third CG trial overshoots its quartic minimizer 2.5-fold, which
    raises the energy, so the rule has trials to reject as well.  Trials
    along the steepest direction -z (a stage's first trial and every
    restart) are left alone: they have no fallback, so a rejected one ends
    the stage, while a rejected CG trial is retried along -z.  The steepest
    direction is rebuilt from the iteration's preconditioner solve."""
    start = _perturbed_start(mesh_cache(12, 48), np.random.default_rng(3))
    splu, quartic_step = sol.spla.splu, sol._quartic_step
    solves, records, cg_trials, steepest_trials = [], [], [], []

    class RecordedFactor:
        def __init__(self, factor):
            self._factor = factor

        def solve(self, rhs):
            solves.append(self._factor.solve(rhs))
            return solves[-1]

    def overshooting(mesh, st, d, lam1):
        alpha = quartic_step(mesh, st, d, lam1)
        u = next(r[0] for r in reversed(records) if r[1] is st)
        if alpha is None:
            return alpha
        if np.array_equal(d, -_projected_direction(u, solves[-1])):
            steepest_trials.append(1)
            return alpha
        cg_trials.append(1)
        return alpha if len(cg_trials) % 3 else 2.5 * alpha

    monkeypatch.setattr(sol.spla, "splu",
                        lambda *a, **k: RecordedFactor(splu(*a, **k)))
    monkeypatch.setattr(sol, "_quartic_step", overshooting)
    hist, rows = _trace_minimize(monkeypatch, start, small_cfg(grad_tol=1e-10),
                                 records)
    assert all(s["reason"] == "converged" for s in hist["stages"])
    assert sum(s["restarts"] for s in hist["stages"]) > 0    # -z retries
    # -z is recognised, or every trial would count as a CG trial
    assert len(steepest_trials) >= len(hist["stages"])
    a = start.mesh.areas
    w = start.mesh.boundary_weights[start.mesh.is_boundary]
    k, by_slope = 0, 0
    for stage in hist["stages"]:
        lam1, lam2 = stage["lam1"], stage["lam2"]
        for (u, st, _), (v, new, d) in zip(rows[k:k + stage["iters"]],
                                           rows[k + 1:k + stage["iters"]]):
            dE = (float(np.sum(a * (0.5 * (new.grad_sq - st.grad_sq)
                                    + lam1 * (new.q ** 2 - st.q ** 2))))
                  + lam2 * float(np.sum(w * (new.Fb ** 2 - st.Fb ** 2))))
            if dE < 0.0:
                continue
            by_slope += 1
            assert dE <= 4 * np.spacing(st.E)
            slope0 = float(np.sum(_projected_gradient(u, st, lam1, lam2) * d))
            slope = float(np.sum(_projected_gradient(v, new, lam1, lam2) * d))
            assert 0.9 * slope0 <= slope <= -0.8 * slope0
        k += stage["iters"]
    assert k == len(rows)
    assert by_slope > 0     # grad_tol lies below the energy's rounding floor


def test_stage_that_cannot_descend_ends_on_line_search(mesh_cache, rng,
                                                       monkeypatch):
    """Once no trial lowers the energy, the CG direction and then -z are
    tried, and the stage ends as ``line_search``."""
    start = _perturbed_start(mesh_cache(8, 32), rng)
    energy_change = sol._energy_change
    changes = []

    def rising_after_three(*args):
        changes.append(1)
        return energy_change(*args) if len(changes) <= 3 else 1.0

    monkeypatch.setattr(sol, "_energy_change", rising_after_three)
    _, hist = sol.minimize(start, BALL, small_cfg())
    first, *rest = hist["stages"]
    assert first["reason"] == "line_search"
    assert first["iters"] == 4
    assert first["energy_evals"] == 1 + 3 + 2     # CG, then -z
    assert first["restarts"] == 1
    for s in rest:      # a stage starts along -z: nothing to retry
        assert (s["reason"], s["iters"], s["energy_evals"], s["restarts"]) \
            == ("line_search", 1, 2, 0)


def _reordered_energy_gradient(u, domain, lam1, lam2, st):
    """The gradient of ``sol._energy_gradient`` with its three terms added in
    the opposite order: boundary penalty, symplectic penalty, Dirichlet."""
    mesh = u.mesh
    vals = u.values
    w = mesh.boundary_weights
    b = mesh.is_boundary
    D_x, D_y = mesh.gradient_operators
    s = (2.0 * lam1 * mesh.areas * st.q)[:, None]
    G = np.zeros_like(vals)
    G[b] = (2.0 * lam2 * w[b] * st.Fb)[:, None] * np.asarray(domain.gradF(vals[b]), float)
    G += D_y.T @ (s * apply_I(st.grad[:, 0, :])) - D_x.T @ (s * apply_I(st.grad[:, 1, :]))
    G += mesh.stiffness @ vals
    return G


def test_summation_order_moves_no_iteration_count(mesh_cache, monkeypatch):
    """Rounding in the gradient's summation order must not decide where a
    stage ends (it once turned rigidity seed 4 at 48x192 from 225/7/400
    iterations into 225/5/5)."""
    start = _perturbed_start(mesh_cache(12, 48), np.random.default_rng(4))
    cfg = sol.SolverConfig()
    runs = []
    for gradient in (sol._energy_gradient, _reordered_energy_gradient):
        monkeypatch.setattr(sol, "_energy_gradient", gradient)
        u, hist = sol.minimize(start, BALL, cfg)
        runs.append((u, hist))
    (u_a, hist_a), (u_b, hist_b) = runs
    assert not np.array_equal(u_a.values, u_b.values)   # rounding differs
    for key in ("iters", "reason"):
        assert [s[key] for s in hist_a["stages"]] == [s[key] for s in hist_b["stages"]]
    assert all(s["reason"] == "converged" for s in hist_a["stages"])
    dist_a = res.rigidity_verdict(u_a, 4)["flat_disc_distance"]
    dist_b = res.rigidity_verdict(u_b, 4)["flat_disc_distance"]
    assert dist_b == pytest.approx(dist_a, rel=0.01)
    assert hist_b["rows"][-1]["E"] == pytest.approx(hist_a["rows"][-1]["E"], rel=0.01)


def test_minimize_unitary_equivariance(mesh_cache, rng):
    m = mesh_cache(8, 32)
    u0 = fam.sample(fam.flat_disc(np.eye(2)), m)
    f = hams.hopf_invariant_quadratic([0.4, -0.2, 0.6, 0.1])
    flowed = sol.perturb_by_hamiltonian_flows(u0, [f], [0.03], BALL)
    cfg = small_cfg(grad_tol=1e-10)
    u_a, hist_a = sol.minimize(flowed, BALL, cfg)
    U = random_unitary(rng)
    Ur = np.zeros((4, 4))
    Ur[0::2, 0::2] = U.real
    Ur[0::2, 1::2] = -U.imag
    Ur[1::2, 0::2] = U.imag
    Ur[1::2, 1::2] = U.real
    rotated = replace(flowed, values=flowed.values @ Ur.T)
    u_b, hist_b = sol.minimize(rotated, BALL, cfg)
    Ea, Eb = hist_a["rows"][-1]["E"], hist_b["rows"][-1]["E"]
    assert abs(Ea - Eb) <= 1e-8
    va, vb = res.rigidity_verdict(u_a, 1), res.rigidity_verdict(u_b, 1)
    assert abs(va["flat_disc_distance"] - vb["flat_disc_distance"]) <= 1e-8
    assert abs(va["plane_is_lagrangian"] - vb["plane_is_lagrangian"]) <= 1e-8


# ---------------------------------------------------------------------------
# Hamiltonian flow
# ---------------------------------------------------------------------------
def _one_flow_step(u, f, dt):
    return sol.perturb_by_hamiltonian_flows(u, [f], [dt], BALL, n_sub=1)


def test_flow_zero_hamiltonian(mesh_cache):
    m = mesh_cache(8, 32)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    f0 = hams.interior_bump(np.zeros(4), 0.3, 0.0)
    flowed = _one_flow_step(u, f0, 1e-2)
    assert np.array_equal(flowed.values, u.values)
    assert flowed.source is None


def test_flow_hopf_invariance(mesh_cache):
    m = mesh_cache(8, 32)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    f = hams.hopf_invariant_quadratic([1, 0, 0, 0])
    for _ in range(100):
        u = _one_flow_step(u, f, 1e-2)
        assert np.max(np.abs(BALL.F(u.values[m.is_boundary]))) <= 1e-12
    assert res.pointwise_geometry_report(u)[0] <= 1e-6


def test_flow_drift_single_step_order():
    f = hams.hopf_invariant_quadratic(
        [1.0, -0.5, 0.7, 0.3], profile=hams.smooth_cutoff_profile(0.5, 1.3))
    z0 = np.array([0.5, 0.1, 0.4, -0.2])
    frame = (np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 1.0, 0]))
    dts = (1e-2, 5e-3, 2.5e-3)
    drifts = []
    for dt in dts:
        _, fr = sol.flow_frame_step(z0, frame, f, dt)
        drifts.append(abs(symplectic(fr[0], fr[1])))
    slope = np.polyfit(np.log(dts), np.log(np.maximum(drifts, 1e-300)), 1)[0]
    assert slope >= 2.5


def test_flow_rejects_bad_dt(mesh_cache):
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(4, 16))
    f = hams.hopf_invariant_quadratic([1, 0, 0, 0])
    with pytest.raises(ValueError):
        _one_flow_step(u, f, -1e-2)


@pytest.mark.parametrize("times", [[0.05], [0.05, 0.05, 0.05]])
def test_perturbation_rejects_unpaired_generators(mesh_cache, times):
    # zip dropped the generators (or times) that had no partner
    u = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(4, 16))
    fs = [hams.hopf_invariant_quadratic(c)
          for c in ([1, 0, 0, 0], [0, 1, 0, 0])]
    with pytest.raises(ValueError):
        sol.perturb_by_hamiltonian_flows(u, fs, times, BALL)


def test_perturbation_is_bitwise_the_composed_flow_steps(mesh_cache, rng,
                                                         monkeypatch):
    """The composed flow equals stepping one generator and one step at a
    time, and computes no diagnostics: no ``element_gradient`` pass."""
    u0 = fam.sample(fam.flat_disc(np.eye(2)), mesh_cache(8, 32))
    fs = sol.random_sphere_tangent_hamiltonians(rng)
    times = [0.01, 0.02, 0.015]
    want = u0
    for f, t in zip(fs, times):
        for _ in range(4):
            want = _one_flow_step(want, f, t / 4)
    calls = []

    def counted(mesh, values):
        calls.append(1)
        return element_gradient(mesh, values)

    monkeypatch.setattr(sol, "element_gradient", counted)
    got = sol.perturb_by_hamiltonian_flows(u0, fs, times, BALL, n_sub=4)
    assert not calls
    assert np.array_equal(got.values, want.values)
    assert got.source is None and got.exact_frames is None


# ---------------------------------------------------------------------------
# flat-disc distance
# ---------------------------------------------------------------------------
def test_flat_disc_distance_exact(mesh_cache, rng):
    m = mesh_cache(8, 32)
    v = res.rigidity_verdict(fam.sample(fam.flat_disc(np.eye(2)), m), 1)
    assert v["flat_disc_distance"] <= 1e-12 and v["plane_is_lagrangian"] <= 1e-12
    for _ in range(5):
        U = random_unitary(rng)
        v = res.rigidity_verdict(fam.sample(fam.flat_disc(U), m), 1)
        assert v["flat_disc_distance"] <= 1e-12
        # unitary images of Lagrangian planes
        assert v["plane_is_lagrangian"] <= 1e-12


def test_flat_disc_distance_cone(mesh_cache):
    v = res.rigidity_verdict(fam.sample(fam.sw_cone(1, 2), mesh_cache(8, 32)), 1)
    assert v["flat_disc_distance"] >= 0.1


def test_flat_disc_distance_degenerate(mesh_cache):
    from types import SimpleNamespace
    m = mesh_cache(4, 16)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    with pytest.raises(ValueError, match="need at least 10 nodes"):
        res.rigidity_verdict(SimpleNamespace(values=u.values[:8], mesh=m), 1)
    collapsed = replace(u, values=np.tile([0.5, 0.0, 0.0, 0.0],
                                          (len(m.nodes), 1)),
                        source=None)
    with pytest.raises(ValueError, match="collapses below two dimensions"):
        res.rigidity_verdict(collapsed, 1)


def test_verdict_leaves_out_a_folded_element(mesh_cache):
    # one interior node moved onto the midpoint of two neighbours collapses
    # the image of a triangle to a segment, where the Lagrangian angle is
    # undefined: the verdict leaves it out of the angle variance
    m = mesh_cache(12, 48)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    node = 1 + 5 * 48 + 7                  # ring 5, sector 7
    tri = m.triangles[np.flatnonzero(np.any(m.triangles == node, axis=1))[0]]
    a, b = tri[tri != node]
    values = u.values.copy()
    values[node] = 0.5 * (values[a] + values[b])
    folded = replace(u, values=values, source=None)
    e_x, e_y = element_gradient(m, folded.values).transpose(1, 0, 2)
    ok = alg.angle_defined(e_x, e_y)
    energy = inner(e_x, e_x) + inner(e_y, e_y)
    assert 1 <= np.sum(~ok) <= 2 and np.all(energy[~ok] > 1e-12)
    v = res.rigidity_verdict(folded, 1)
    assert all(np.isfinite(v[k]) for k in v if k != "passed")
    _, ang = alg.lagrangian_angle(e_x[ok], e_y[ok])
    assert v["angle_variance"] == float(np.mean(np.abs(ang - np.mean(ang)) ** 2))


def test_normal_wave_perturbation(mesh_cache):
    m = mesh_cache(12, 48)
    u = fam.sample(fam.flat_disc(np.eye(2)), m)
    up = sol.normal_wave_perturbation(u, amplitude=0.05)
    disp = up.values - u.values
    assert np.max(np.abs(disp)) == pytest.approx(0.05, rel=1e-12)
    assert np.allclose(disp[:, [0, 2, 3]], 0.0)   # purely along I e_x


# ---------------------------------------------------------------------------
# rigidity experiment
# ---------------------------------------------------------------------------
def test_rigidity_eps_zero(mesh_cache):
    rep, u_final, hist = sol.rigidity_experiment(seed=1, eps=0.0,
                                                 mesh=mesh_cache(12, 48))
    assert rep.passed
    assert rep.flat_disc_distance <= 1e-10
    assert rep.angle_variance <= 1e-10
    assert rep.circle_defect <= 1e-10


def test_rigidity_small_mesh_pass(mesh_cache):
    rep, _, _ = sol.rigidity_experiment(seed=2, eps=0.05,
                                        mesh=mesh_cache(12, 48))
    assert rep.passed
    assert rep.flat_disc_distance <= 1e-3
    assert rep.angle_variance <= 1e-6
    assert rep.circle_defect <= 1e-3


@pytest.mark.parametrize("seed,iters,reasons", [
    (3, [48, 5, 18], ["converged"] * 3),
    (2, [53, 5, 8], ["converged"] * 3),
])
def test_rigidity_stage_reasons(mesh_cache, seed, iters, reasons):
    rep, u, hist = sol.rigidity_experiment(seed=seed, eps=0.05,
                                           mesh=mesh_cache(12, 48))
    assert [s["iters"] for s in rep.stages] == iters
    assert [s["reason"] for s in rep.stages] == reasons
    assert rep.stages == hist["stages"]
    assert rep.passed
    # odd starts stay odd: on them the barycentre constraint drops only rounding
    sigma = half_turn(u.mesh)
    assert np.max(np.abs(u.values + u.values[sigma])) <= 1e-12


def test_rigidity_report_reads_the_verdict_of_the_relaxed_map(mesh_cache):
    rep, u, _ = sol.rigidity_experiment(seed=2, eps=0.05,
                                        mesh=mesh_cache(12, 48))
    verdict = res.rigidity_verdict(u, 2)
    assert verdict == {key: getattr(rep, key) for key in verdict}
    assert rep.passed
    # the descent's last row is the relaxed map's P1 Lagrangian defect
    assert rep.final_lagrangian == res.pointwise_geometry_report(u)[0]


def test_rigidity_control_without_lagrangian_penalty(mesh_cache):
    rep, _, _ = sol.rigidity_experiment(seed=2, eps=0.05,
                                        mesh=mesh_cache(12, 48),
                                        lagrangian_penalty_on=False)
    assert not rep.passed          # a control run never claims PASS
    assert np.isfinite(rep.final_lagrangian)


def test_rigidity_rejects_large_eps(mesh_cache):
    with pytest.raises(ValueError):
        sol.rigidity_experiment(seed=1, eps=0.5, mesh=mesh_cache(4, 16))


@pytest.mark.parametrize("eps", [-0.01, float("nan")])
def test_rigidity_rejects_negative_or_nan_eps(mesh_cache, eps):
    # both ran the experiment unperturbed
    with pytest.raises(ValueError, match="eps"):
        sol.rigidity_experiment(seed=1, eps=eps, mesh=mesh_cache(4, 16))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        sol.SolverConfig(continuation=[(-1.0, 100.0)])
    with pytest.raises(ValueError):
        sol.SolverConfig(grad_tol=0.0)
    # stages that are not (lam1, lam2) pairs failed in minimize with a TypeError
    for stage in [(10.0,), (10.0, 100.0, 5.0)]:
        with pytest.raises(ValueError, match="continuation"):
            sol.SolverConfig(continuation=[stage])
    # a stage that is no pair or holds a string raised TypeError, and a
    # bool stage was accepted while max_iters=True is rejected
    for stage in [5, ("a", 1.0), (True, 2.0)]:
        with pytest.raises(ValueError, match="continuation"):
            sol.SolverConfig(continuation=[stage])
    with pytest.raises(ValueError, match="continuation"):
        sol.SolverConfig(continuation=5)
    # grad_tol="1" raised TypeError, and grad_tol=True was accepted
    for tol in ["1", True]:
        with pytest.raises(ValueError, match="grad_tol"):
            sol.SolverConfig(grad_tol=tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite_parameters(bad):
    # a NaN grad_tol ran every stage to max_iters
    with pytest.raises(ValueError, match="grad_tol"):
        sol.SolverConfig(grad_tol=bad)
    for stage in [(bad, 1.0), (10.0, bad)]:
        with pytest.raises(ValueError, match="continuation"):
            sol.SolverConfig(continuation=[(10.0, 1e2), stage])


@pytest.mark.parametrize("max_iters", [0, 2.5, True])
def test_solver_config_rejects_bad_max_iters(max_iters):
    # max_iters=0 left the history without rows, and rigidity_experiment
    # failed on history["rows"][-1]
    with pytest.raises(ValueError, match="max_iters"):
        sol.SolverConfig(max_iters=max_iters)
