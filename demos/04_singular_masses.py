"""Degrees and flux masses of the angle field at interior singularities.

Around an isolated singular point, the real field i gbar grad g carries
two loop invariants: its circulation picks up 2 pi times an integer
degree, its flux a real mass.  For the conical family the degree is
p - q (here -1 for both cones) and the mass vanishes.  The sign of the
convention is frozen against a brute-force oracle: the same quadrature
applied to the field reconstructed purely by finite differences of the
parametrization.
"""
import numpy as np

from lagdisc import algebra as alg
from lagdisc import families as fam
from lagdisc import residuals as res


def fd_field(example, pts, h=1e-6):
    def g_at(x, y):
        fr = example.frame_xy(x, y)
        _, gbar = alg.lagrangian_angle(fr.e_x, fr.e_y)
        return np.conj(gbar)

    x, y = pts[:, 0], pts[:, 1]
    g0 = g_at(x, y)
    gx = (g_at(x + h, y) - g_at(x - h, y)) / (2 * h)
    gy = (g_at(x, y + h) - g_at(x, y - h)) / (2 * h)
    return np.real(1j * np.conj(g0)[:, None] * np.stack([gx, gy], axis=1))


print(f"{'cone':>8} {'degree':>14} {'flux mass':>12} {'spread':>10} "
      f"{'fd oracle degree':>18}")
for (p, q) in [(1, 2), (2, 3)]:
    cone = fam.sw_cone(p, q)
    rec = res.singular_masses(cone.angle_flux_field, (0.0, 0.0),
                              radii=(0.2, 0.35, 0.5))
    oracle = res.singular_masses(lambda pts: fd_field(cone, pts),
                                 (0.0, 0.0), radii=(0.3, 0.5))
    print(f"({p},{q})".rjust(8)
          + f" {rec.degree:14.9f} {rec.flux_mass:12.2e} "
          f"{rec.degree_spread:10.1e} {oracle.degree:18.6f}")

print()
print("a constant angle has no singular structure:")
rec = res.singular_masses(lambda pts: np.zeros((len(pts), 2)), (0.0, 0.0),
                          radii=(0.2, 0.4))
print(f"  degree = {rec.degree}, flux mass = {rec.flux_mass}")
