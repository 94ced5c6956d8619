"""The weak stationarity (localization) test.

A disc map is Hamiltonian stationary with the localization property when
int <d(I grad f o u); du> vanishes for every admissible test function f
on every subdomain.  We quadrature this integral for batches of
admissible Hamiltonians -- bumps supported inside the domain, functions
of |z|^2, phase-invariant quadratics, and (for the curve-constrained
problem) functions of z1 adapted to the constraint curve -- normalize by
Hessian and energy scales, and take the worst value.

Stationary examples converge to zero under refinement; a non-Hamiltonian
perturbation of the flat disc is flagged at a level three orders of
magnitude above the clean baseline.
"""
import numpy as np

from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import residuals as res
from lagdisc import solver as sol
from lagdisc.mesh import build_polar_mesh

ball = dom.unit_ball()

print("stationary examples: the residual under mesh refinement")
batch = res.ball_mixed_batch(seed=11, size=24, n_bumps=8)
nm = fam.nonminimal_map()
cd = dom.curve_domain_from_map(nm)
curve_batch = res.curve_report_batch(cd, nm)
print(f"{'mesh':>10} {'flat disc':>12} {'cone (1,2)':>12} {'non-minimal':>12}")
for n in (8, 16, 32):
    m = build_polar_mesh(n, 4 * n, 1.0)
    row = []
    for ex, domain, fs in [(fam.flat_disc(np.eye(2)), ball, batch),
                           (fam.sw_cone(1, 2), ball, batch),
                           (nm, cd, curve_batch)]:
        row.append(res.stationarity_test(fam.sample(ex, m), domain, fs))
    print(f"({n},{4*n})".rjust(10) + "".join(f" {v:12.2e}" for v in row))

print()
print("detection: a non-Hamiltonian normal wave of amplitude 0.05")
m = build_polar_mesh(48, 192, 1.0)
u = fam.sample(fam.flat_disc(np.eye(2)), m)
up = sol.normal_wave_perturbation(u, amplitude=0.05, wavelength=0.12)
probe = hams.windowed_wave(np.pi / 0.12, hams.smooth_cutoff_profile(0.75, 0.92))
fs = res.ball_mixed_batch(seed=11, size=12, n_bumps=4) + [probe]
print(f"  clean disc:     {res.stationarity_test(u, ball, fs):.2e}")
print(f"  perturbed disc: {res.stationarity_test(up, ball, fs):.2e}"
      "  (the tester flags it)")

