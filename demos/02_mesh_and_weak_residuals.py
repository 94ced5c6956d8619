"""Polar disc meshes and weak-form residual operators.

The interior equations of a stationary Lagrangian disc are divergence
equations: div(g grad u) = 0 for the map and div(gbar grad g) = 0,
div(i gbar grad_perp g) = 0 for the unit-circle-valued angle.  On a
triangulation we measure them weakly, by pairing a per-triangle field
with the gradients of interior hat functions and normalizing by local
energy norms.
"""
import numpy as np

from lagdisc import families as fam
from lagdisc import mesh as msh

print("mesh construction: rings x sectors with alternating quad diagonals")
m = msh.build_polar_mesh(2, 8, 1.0)
print(f"(2, 8):  {len(m.nodes)} nodes, {len(m.triangles)} triangles, "
      f"{len(m.boundary_edges)} boundary edges")
m = msh.build_polar_mesh(3, 12, 0.5)
print(f"(3, 12) graded 0.5: ring radii {np.round(m.polar_info['radii'], 4)}")

print()
print("weak divergence residual of reference fields, under refinement")
print(f"{'mesh':>10} {'h':>8} {'angular field (df)':>20} {'(x, y) field':>14}")
sw = fam.sw_cone(1, 2)
for n in (8, 16, 32):
    m = msh.build_polar_mesh(n, 4 * n, 1.0)
    w_free = sw.angle_flux_field(m.centroids)        # divergence-free
    r_free = msh.weak_divergence_residual(m, w_free, exclude=[((0, 0), 0.1)])
    r_div = msh.weak_divergence_residual(m, m.centroids.copy())  # div = 2
    print(f"{f'({n},{4*n})':>10} {m.h_max:8.4f} {r_free:20.2e} {r_div:14.2e}")
print("the divergence-free field decays with the mesh; the divergent one"
      " stays O(1): the residual separates the two regimes at any size")

print()
print("collar pairing <w . nu, phi> against boundary harmonics")
m = msh.build_polar_mesh(24, 96, 1.0)
nm = fam.nonminimal_map()
w = nm.angle_flux_field(m.centroids)                 # constant (-1, 0)
names = ["1", "cos", "sin"]
pairings = msh.boundary_trace_pairing(
    m, w, [lambda t: np.ones_like(t), np.cos, np.sin], collar_r0=0.7)
for name, v in zip(names, pairings):
    print(f"  phi = {name:>3}: pairing = {v:+.6f}")
print(f"  (the cos pairing converges to -pi = {-np.pi:.6f}: this map has a"
      " genuinely nonzero angle Neumann trace)")

w_sw = sw.angle_flux_field(m.centroids)
worst = max(abs(msh.boundary_trace_pairing(m, w_sw, [np.cos], r0)[0])
            for r0 in (0.5, 0.7, 0.9))
print(f"  conical angle field, all collars: |pairing| <= {worst:.1e}"
      " (zero trace)")

print()
print("loop integrals around the cone point")
flux, circ = msh.loop_integrals(sw.angle_flux_field, (0.0, 0.0), 0.5)
print(f"  flux = {flux:+.2e}, circulation = {circ:+.8f}"
      f"  (2 pi (p - q) = {2*np.pi*(1-2):+.8f})")
