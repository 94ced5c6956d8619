"""Energy descent and Hamiltonian flows for discrete disc maps.

The energy is Dirichlet (the area proxy for near-conformal maps) plus a
penalty on the pointwise symplectic area (Lagrangian defect) and a
penalty keeping boundary nodes on the constraint hypersurface; boundary
nodes are additionally reprojected after every trial step, and the
termination gradient has its boundary-normal component removed, so flat
equatorial discs are exact critical points of the discrete scheme.  The
descent holds the lumped-mass barycentre at 0 (see :func:`minimize`),
which removes the translated-disc valley of the energy.

The energy gradient is ``K u`` plus ``D^T`` products of the mesh's sparse
operators.  The descent is Polak-Ribiere+ conjugate gradients,
preconditioned componentwise by the P1 stiffness-plus-lumped-mass
operator K+M, factored once per :func:`minimize` call and solved for all
four components at once; it is equivariant under the unitary group.  K+M
is symmetric positive definite, so SuperLU factors it in symmetric mode:
minimum-degree ordering on A+A^T and the diagonal as pivots, with no
pivoting search.

:func:`perturb_by_hamiltonian_flows` composes midpoint steps of
Hamiltonian flows; :func:`rigidity_experiment` flows the flat disc,
relaxes it and reads :func:`lagdisc.residuals.rigidity_verdict`.

Each energy evaluation makes one ``element_gradient`` pass and keeps the
per-element state (frames, symplectic density, |grad u|^2, boundary
constraint values) that the gradient, the exact line search and the
acceptance test of :func:`minimize` are built from.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import hamiltonians as hams
from . import residuals as res
from .algebra import apply_I, inner, symplectic
from .domains import LevelSetDomain, unit_ball
from .families import DiscreteMap, flat_disc, sample
from .mesh import DiscMesh, element_gradient

__all__ = [
    "RigidityReport",
    "SolverConfig",
    "energy_and_gradient",
    "flow_frame_step",
    "minimize",
    "normal_wave_perturbation",
    "perturb_by_hamiltonian_flows",
    "random_sphere_tangent_hamiltonians",
    "rigidity_experiment",
]


def default_continuation():
    return [(10.0, 1e2), (1e2, 1e3), (1e3, 1e4)]


@dataclass
class SolverConfig:
    max_iters: int = 400                      # per continuation stage
    grad_tol: float = 1e-7
    continuation: list = field(default_factory=default_continuation)  # of (lam1, lam2)

    def __post_init__(self):
        if (not isinstance(self.max_iters, int) or isinstance(self.max_iters, bool)
                or self.max_iters < 1):
            raise ValueError("max_iters must be a positive integer")
        # NaN fails every comparison, so each bound is stated as what holds
        if not (isinstance(self.continuation, (tuple, list)) and self.continuation
                and all(isinstance(stage, (tuple, list)) and len(stage) == 2
                        and all(_positive_finite(lam) for lam in stage)
                        for stage in self.continuation)):
            raise ValueError("continuation stages must be positive finite (lam1, lam2)")
        if not _positive_finite(self.grad_tol):
            raise ValueError("grad_tol must be positive and finite")


def _positive_finite(x):
    """Whether ``x`` is a real number, not a bool, in (0, inf)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 < x < np.inf


# --------------------------------------------------------------------------
# energy and exact gradient
# --------------------------------------------------------------------------
class _EnergyState(NamedTuple):
    """The penalized energy of one map and the per-element quantities its
    gradient is built from."""

    E: float
    grad: np.ndarray        # (T, 2, 4) element frames (e_x, e_y), a view
                            # over (2, 4, T) storage: grad[:, k, i] is a row
    q: np.ndarray           # symplectic density u*omega per element
    grad_sq: np.ndarray     # |grad u|^2 per element
    Fb: np.ndarray          # constraint F at the boundary nodes


def _energy_state(u: DiscreteMap, domain, lam1, lam2):
    """The energy of :func:`energy_and_gradient` and the element state that
    :func:`_energy_gradient` builds its gradient from; one
    ``element_gradient`` pass."""
    mesh = u.mesh
    vals = u.values
    a = mesh.areas
    grad = element_gradient(mesh, vals)          # (T, 2, 4)
    e_x, e_y = grad[:, 0, :], grad[:, 1, :]
    q = symplectic(e_x, e_y)

    grad_sq = inner(e_x, e_x) + inner(e_y, e_y)
    E = 0.5 * float(np.sum(a * grad_sq))
    E += lam1 * float(np.sum(a * q * q))
    w = mesh.boundary_weights
    b = mesh.is_boundary
    Fb = np.asarray(domain.F(vals[b]), float)
    E += lam2 * float(np.sum(w[b] * Fb * Fb))
    return _EnergyState(E, grad, q, grad_sq, Fb)


def _diagnostics(st: _EnergyState):
    """The energy, the Lagrangian defect (``res.lagrangian_defect``) and the
    largest boundary violation |F| of the map of ``st``."""
    return {"E": st.E,
            "lagrangian": res.lagrangian_defect(st.q, st.grad_sq),
            "boundary_violation": float(np.max(np.abs(st.Fb)))}


def _energy_gradient(u: DiscreteMap, domain, lam1, lam2, st: _EnergyState):
    """The nodal gradient of the energy at ``u``, from its state ``st``.

    The gradient is ``K u`` (Dirichlet) plus ``D_y^T(s I e_x) -
    D_x^T(s I e_y)`` with ``s = 2 lam1 a q`` (symplectic penalty) plus the
    boundary penalty term, from the mesh's cached operators.
    """
    mesh = u.mesh
    vals = u.values
    w = mesh.boundary_weights
    b = mesh.is_boundary
    D_x, D_y = mesh.gradient_operators
    s = (2.0 * lam1 * mesh.areas * st.q)[:, None]
    G = (mesh.stiffness @ vals + D_y.T @ (s * apply_I(st.grad[:, 0, :]))
         - D_x.T @ (s * apply_I(st.grad[:, 1, :])))
    G[b] += (2.0 * lam2 * w[b] * st.Fb)[:, None] * np.asarray(domain.gradF(vals[b]), float)
    return G


def energy_and_gradient(u: DiscreteMap, domain, lam1, lam2):
    """Penalized energy and its exact nodal gradient.

    E = 1/2 int |grad u|^2 + lam1 int (u*omega)^2
        + lam2 sum_boundary w_b F(u_b)^2

    Only level-set domains support the boundary penalty.
    """
    if not isinstance(domain, LevelSetDomain):
        raise TypeError("energy penalties need a level-set domain")
    st = _energy_state(u, domain, lam1, lam2)
    return st.E, _energy_gradient(u, domain, lam1, lam2, st)


def _project_boundary(domain, values, b_mask):
    out = values.copy()
    out[b_mask] = domain.project_to_boundary(values[b_mask])
    return out


def _tangential(domain, values, field, b_mask):
    out = field.copy()
    n = domain.normal_extension(values[b_mask])
    out[b_mask] -= inner(out[b_mask], n)[:, None] * n
    return out


def _quartic_step(mesh, st: _EnergyState, d, lam1):
    """The step of an exact line search along ``d`` from the map of ``st``.

    P1 frames are linear in the nodal values and the symplectic density is
    bilinear in the frames, so without the boundary terms E(u + alpha d) -
    E(u) is the quartic c1 alpha + c2 alpha^2 + c3 alpha^3 + c4 alpha^4,
    with coefficients summed over elements from one ``element_gradient``
    pass of ``d``.  Returns its minimizer on alpha > 0, or None when the
    quartic does not descend along ``d``.
    """
    a = mesh.areas
    dg = element_gradient(mesh, d)
    e_x, e_y = st.grad[:, 0, :], st.grad[:, 1, :]
    d_x, d_y = dg[:, 0, :], dg[:, 1, :]
    g1 = inner(e_x, d_x) + inner(e_y, d_y)
    g2 = inner(d_x, d_x) + inner(d_y, d_y)
    q1 = symplectic(e_x, d_y) + symplectic(d_x, e_y)
    q2 = symplectic(d_x, d_y)
    c1 = float(np.sum(a * (g1 + 2.0 * lam1 * st.q * q1)))
    if not c1 < 0.0:
        return None
    c2 = float(np.sum(a * (0.5 * g2 + lam1 * (q1 * q1 + 2.0 * st.q * q2))))
    c3 = 2.0 * lam1 * float(np.sum(a * q1 * q2))
    c4 = lam1 * float(np.sum(a * q2 * q2))
    # c4 >= 0, and c4 = 0 forces c3 = 0 and c2 > 0, so with c1 < 0 the
    # quartic's minimizer on alpha > 0 is a real root of its derivative.
    # Real parts of complex roots only add worse candidates; rounding can
    # still push a tiny root below 0 and leave none.
    roots = np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1]).real
    steps = roots[roots > 0.0]
    if not steps.size:
        return None
    return float(steps[np.argmin(
        (((c4 * steps + c3) * steps + c2) * steps + c1) * steps)])


def _energy_change(mesh, st: _EnergyState, new: _EnergyState, lam1, lam2):
    """E(new) - E(st) summed from per-element and per-boundary-node
    differences, never as a difference of the two totals, so that it
    resolves changes far below ulp(E)."""
    w = mesh.boundary_weights[mesh.is_boundary]
    per_element = mesh.areas * (0.5 * (new.grad_sq - st.grad_sq)
                                + lam1 * (new.q - st.q) * (new.q + st.q))
    return (float(np.sum(per_element))
            + lam2 * float(np.sum(w * (new.Fb - st.Fb) * (new.Fb + st.Fb))))


def minimize(u0: DiscreteMap, domain, cfg: SolverConfig):
    """Preconditioned Polak-Ribiere+ conjugate gradients under a zero
    barycentre constraint, with an exact line search on the energy's quartic
    restriction.

    The constraint is sum_i m_i u_i = 0, with m the lumped mass
    (:attr:`DiscMesh.lumped_mass`).  Without it the descent slides the disc
    along the translations normal to its plane, which lower its area, and
    collapses it to a point of the sphere.  The start is centred,
    u - (m.u)/sum(m), before its boundary nodes are projected; the
    projection moves the barycentre by about the boundary's share of the
    mass times the offset, and a shift of the interior nodes alone removes
    that remainder.  After their boundary-normal parts are removed,
    gradients are projected as G - m sum(G)/sum(m), which annihilates the
    translations and zeroes a multiplier gradient mu m, and directions as
    d - (m.d)/sum(m), so that a trial moves the barycentre only by its
    boundary reprojection.  Because (K+M) 1 = m, the preconditioner solve
    of a projected gradient has zero weighted mean already, so on a map
    whose barycentre vanishes by symmetry the constraint drops only
    rounding.

    Each iteration preconditions the projected gradient Gp by the K+M
    factor, z = P(factor.solve(Gp)) with P the direction projection, and
    steps along d = P(-z + beta d_prev) with the Polak-Ribiere+ weight
    beta = max(0, <z, Gp - Gp_prev> / <z_prev, Gp_prev>); a stage starts
    along -z, and so does every iteration whose d is not a descent
    direction.  The step length is the positive minimizer of the quartic
    of :func:`_quartic_step`.  The trial's boundary nodes are reprojected,
    and the trial is accepted when its true energy change dE (summed per
    element, :func:`_energy_change`) is negative or, when dE <= ulp(E)
    leaves the energy unable to decide, when the slope
    phi'(alpha) = <Gp_trial, d> meets the approximate Wolfe condition
    0.9 phi'(0) <= phi'(alpha) <= -0.8 phi'(0) (Hager and Zhang).  A
    rejected CG direction is retried once along -z.

    The factor is SuperLU's in symmetric mode (``SymmetricMode``, MMD
    ordering on A+A^T, ``diag_pivot_thresh=0``): K+M is symmetric positive
    definite, so its diagonal pivots are stable, and the symmetric ordering
    keeps the fill well below that of the default COLAMD ordering with
    partial pivoting.

    Energy does not rise within a stage by more than ulp(E) per step, and
    a stage ends on its last state.  ``history["rows"]`` holds one row per
    iteration, for the map that iteration starts from, and a stage that
    ends on ``max_iters`` closes with one more row, for the map it returns;
    so the last row of every stage describes the map that stage returns.
    Each ``history["stages"]`` entry records the penalties, the
    ``"iters"``, the ``"reason"`` it ended (``"converged"``,
    ``"max_iters"`` or ``"line_search"``: neither direction gave an
    accepted trial), its ``"energy_evals"`` (the stage start plus every
    trial) and its ``"restarts"`` (iterations that replaced the CG
    direction by -z).  The stage start costs one ``element_gradient``
    pass, and every trial two: one for the quartic along its direction
    and one for its state, which with its gradient is carried into the
    next iteration when accepted.
    """
    if not isinstance(domain, LevelSetDomain):
        raise TypeError("energy penalties need a level-set domain")
    mesh = u0.mesh
    b = mesh.is_boundary
    m = mesh.lumped_mass
    mass = float(np.sum(m))

    def project_gradient(values, G):
        G = _tangential(domain, values, G, b)
        return G - np.outer(m, np.sum(G, axis=0) / mass)

    def project_direction(values, d):
        d = _tangential(domain, values, d, b)
        return d - (m @ d) / mass

    centred = u0.values - (m @ u0.values) / mass
    if np.any(np.abs(np.asarray(domain.F(centred[b]))) > 0.5):
        raise ValueError("boundary nodes outside the projection tube")
    vals = _project_boundary(domain, centred, b)
    vals[~b] -= (m @ vals) / float(np.sum(m[~b]))
    u = DiscreteMap(mesh, vals)

    history = {"rows": [], "stages": []}

    def record(st, Gp):
        """Append the row of the map of ``st``; return its gradient norm."""
        gnorm = float(np.sqrt(np.sum(Gp * Gp)))
        history["rows"].append({"iter": len(history["rows"]),
                                "grad_norm": gnorm, **_diagnostics(st)})
        return gnorm

    factor = spla.splu((mesh.stiffness + sp.diags(m)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    for lam1, lam2 in cfg.continuation:
        st = _energy_state(u, domain, lam1, lam2)    # lam changes E
        Gp = project_gradient(u.values, _energy_gradient(u, domain, lam1, lam2, st))
        evals, restarts = 1, 0
        d = None
        for it in range(cfg.max_iters):
            # st and Gp belong to u: the stage start or the accepted trial
            if record(st, Gp) <= cfg.grad_tol:
                reason = "converged"
                break
            z = project_direction(u.values, factor.solve(Gp))
            steepest = -z
            if d is None:
                d = steepest
            else:
                beta = max(0.0, float(np.sum(z * (Gp - Gp_prev)))
                           / float(np.sum(z_prev * Gp_prev)))
                d = project_direction(u.values, steepest + beta * d)
                if float(np.sum(Gp * d)) >= 0.0:
                    d = steepest
                    restarts += 1
            for retry, d in enumerate((d,) if d is steepest else (d, steepest)):
                restarts += retry
                alpha = _quartic_step(mesh, st, d, lam1)
                if alpha is None:
                    continue
                trial = replace(u, values=_project_boundary(
                    domain, u.values + alpha * d, b))
                st_trial = _energy_state(trial, domain, lam1, lam2)
                evals += 1
                dE = _energy_change(mesh, st, st_trial, lam1, lam2)
                if dE > np.spacing(st.E):
                    continue
                Gp_trial = project_gradient(trial.values, _energy_gradient(
                    trial, domain, lam1, lam2, st_trial))
                slope0, slope = float(np.sum(Gp * d)), float(np.sum(Gp_trial * d))
                if dE < 0.0 or 0.9 * slope0 <= slope <= -0.8 * slope0:
                    break
            else:
                reason = "line_search"
                break
            u, st, z_prev, Gp_prev, Gp = trial, st_trial, z, Gp, Gp_trial
        else:
            reason = "max_iters"
            record(st, Gp)
        history["stages"].append({"lam1": lam1, "lam2": lam2,
                                  "iters": it + 1, "reason": reason,
                                  "energy_evals": evals,
                                  "restarts": restarts})
    return u, history


# --------------------------------------------------------------------------
# Hamiltonian flows
# --------------------------------------------------------------------------
def _flow_step(mesh, vals, f, dt, domain):
    """The nodal values after one midpoint (RK2) step of du/dt = I grad
    f(u) from ``vals``, with the boundary nodes reprojected.

    The continuum flow preserves the Lagrangian condition exactly; the
    per-step defect of the discrete step is third order in dt (and zero
    to rounding for complex-linear generator fields).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")

    def V(y):
        return apply_I(f.gradient(y))

    mid = vals + 0.5 * dt * V(vals)
    return _project_boundary(domain, vals + dt * V(mid), mesh.is_boundary)


def flow_frame_step(z, frame, f, dt):
    """Advect a point and a tangent frame along I grad f by one midpoint
    (RK2) step, the rule :func:`_flow_step` applies to maps.

    The frame evolves by the linearized flow e' = I Hess f(z) e.  Kept for
    acceptance criterion 5, which fits the order of its symplectic defect.
    """
    def rhs(state):
        z, ex, ey = state
        H = hams.unpack_hessian(f.hessian(z))
        return (apply_I(f.gradient(z)),
                apply_I(H @ ex), apply_I(H @ ey))

    def add(s, ds, c):
        return tuple(a + c * b for a, b in zip(s, ds))

    s0 = (np.asarray(z, float), np.asarray(frame[0], float),
          np.asarray(frame[1], float))
    s1 = add(s0, rhs(add(s0, rhs(s0), 0.5 * dt)), dt)
    return s1[0], (s1[1], s1[2])


def random_sphere_tangent_hamiltonians(rng):
    """Three seeded admissible generators tangent to the unit sphere.

    Drawn from the phase-invariant family (quadratics and radial
    profiles), whose fields are odd under z -> -z.
    """
    out = []
    for k in range(3):
        c = rng.normal(size=4)
        c /= np.linalg.norm(c)
        # the first draw is always a profiled quadratic: its flow is not an
        # isometry, so the perturbed disc is never just a rotated flat disc
        choice = 1 if k == 0 else int(rng.integers(0, 3))
        if choice == 0:
            f = hams.hopf_invariant_quadratic(c)
        elif choice == 1:
            f = hams.hopf_invariant_quadratic(
                c, profile=hams.smooth_cutoff_profile(0.6, 1.4))
        else:
            f = hams.radial_invariant(
                hams.poly_profile([0.0, rng.uniform(0.5, 1.5)]))
        out.append(f)
    return out


def perturb_by_hamiltonian_flows(u: DiscreteMap, fs, times, domain, n_sub=8):
    """Compose Hamiltonian flows, ``n_sub`` midpoint steps of
    :func:`_flow_step` for each generator of ``fs`` over its time of
    ``times``; returns the flowed map, with no source.  ``fs`` and
    ``times`` of different lengths raise ``ValueError``."""
    vals = u.values
    for f, t_total in zip(fs, times, strict=True):
        for _ in range(n_sub):
            vals = _flow_step(u.mesh, vals, f, t_total / n_sub, domain)
    return DiscreteMap(u.mesh, vals)


def normal_wave_perturbation(u: DiscreteMap, amplitude=0.05, wavelength=0.12):
    """Displace a flat-disc map along a plane-normal direction.

    The displacement is amplitude * envelope(x, y) * cos(pi x / wavelength)
    in the direction I e_x (normal to the identity flat disc), with the
    envelope the bump kernel of |(x, y)|^2 / 0.7^2 and the sup of the
    displacement equal to ``amplitude``.  This is NOT a Hamiltonian
    variation: it destroys the Lagrangian condition at first order and
    exists to exercise detection tests.
    """
    x, y = u.mesh.nodes[:, 0], u.mesh.nodes[:, 1]
    env = hams.bump_kernel((x * x + y * y) / 0.7 ** 2)[0]
    b = env * np.cos(np.pi * x / wavelength)
    b = b / np.max(np.abs(b))
    vals = u.values.copy()
    vals[:, 1] += amplitude * b
    return DiscreteMap(u.mesh, vals)


# --------------------------------------------------------------------------
# the rigidity experiment
# --------------------------------------------------------------------------
@dataclass
class RigidityReport:
    seed: int
    eps: float
    passed: bool
    flat_disc_distance: float
    angle_variance: float
    circle_defect: float
    plane_is_lagrangian: float
    final_energy: float
    final_lagrangian: float
    final_boundary_violation: float
    stationarity_certificate: float     # not part of passed
    iterations: int
    stages: list        # per stage: lam1, lam2, iters, the reason it ended,
                        # energy_evals and restarts (see minimize)
    config: dict

    def to_dict(self):
        return asdict(self)


def rigidity_experiment(seed, eps, mesh: DiscMesh, lagrangian_penalty_on=True):
    """Perturb the flat equatorial disc of the unit ball by admissible
    Hamiltonian flows (:func:`random_sphere_tangent_hamiltonians`) of total
    amplitude ``eps``, relax it by :func:`minimize` under the default
    :class:`SolverConfig`, and report the
    :func:`~lagdisc.residuals.rigidity_verdict` of the relaxed map.

    Returns ``(report, u_final, history)``.  With the Lagrangian penalty
    disabled the relaxation is a control run: the report carries the
    measured Lagrangian drift and never claims PASS.
    """
    if not 0.0 <= eps <= 0.1:
        raise ValueError("perturbation amplitude must satisfy 0 <= eps <= 0.1")
    domain = unit_ball()
    cfg = SolverConfig()
    if not lagrangian_penalty_on:
        cfg = replace(cfg, continuation=[(1e-12, l2) for _, l2 in cfg.continuation])

    u_start = sample(flat_disc(np.eye(2)), mesh)
    rng = np.random.default_rng(seed)
    if eps > 0:
        fs = random_sphere_tangent_hamiltonians(rng)
        scales = []
        for f in fs:
            gmax = float(np.max(np.linalg.norm(f.gradient(u_start.values), axis=1)))
            scales.append((eps / 3.0) / max(gmax, 1e-9))
        u_start = perturb_by_hamiltonian_flows(u_start, fs, scales, domain)

    u_final, history = minimize(u_start, domain, cfg)
    verdict = res.rigidity_verdict(u_final, seed)
    verdict["passed"] = bool(lagrangian_penalty_on and verdict["passed"])
    last = history["rows"][-1]
    return RigidityReport(
        seed=seed, eps=eps, **verdict, final_energy=last["E"],
        final_lagrangian=last["lagrangian"],
        final_boundary_violation=last["boundary_violation"],
        iterations=len(history["rows"]), stages=history["stages"],
        config={"stages": list(cfg.continuation), "grad_tol": cfg.grad_tol,
                "max_iters": cfg.max_iters}), u_final, history
