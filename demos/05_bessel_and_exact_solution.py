"""The benchmark's analytic ingredients: Bessel functions and exact fields.

The exact solution u(r) = cos(kappa r)/kappa - c J0(kappa r) needs J0
and J1 at arguments up to kappa * diam(domain).  `bessel_j` wraps
scipy.special's j0 and j1 with argument checks; here we sanity-check it
against well-known values and verify the exact solution solves the PDE
by finite differences.
"""

import numpy as np

from helmhdg import benchmark_problem, bessel_j

# Classic landmarks of J0 and J1.
print(f"J0(0) = {bessel_j(0, 0.0):.15f}   (exactly 1)")
print(f"J1(0) = {bessel_j(1, 0.0):.15f}   (exactly 0)")
print(f"J0 at its first root 2.404825557695773: {bessel_j(0, 2.404825557695773):+.3e}")
x = np.linspace(1.0, 50.0, 8)
fd = (bessel_j(0, x + 1e-6) - bessel_j(0, x - 1e-6)) / 2e-6
print(f"max |J0' + J1| over sample points: {np.abs(fd + bessel_j(1, x)).max():.3e}")

# The exact solution satisfies -Lap(u) - kappa^2 u = sin(kappa r)/r.
kappa = 25.0
sol, data = benchmark_problem(kappa)
pts = np.array([[0.11, -0.23], [0.31, 0.02], [-0.4, 0.27]])
h = 1e-4
lap = (sol.u(pts + [h, 0]) + sol.u(pts - [h, 0]) + sol.u(pts + [0, h]) + sol.u(pts - [0, h])
       - 4 * sol.u(pts)) / h**2
resid = -lap - kappa**2 * sol.u(pts) - data.f_tilde(pts)
print(f"\nkappa = {kappa:g}: Helmholtz residual by 5-point stencil: {np.abs(resid).max():.3e}")

# The flux q = i grad(u) / kappa closes the first-order system.
q = sol.q(pts)
print(f"|i kappa q + grad u| = {np.abs(1j * kappa * q + sol.grad_u(pts)).max():.3e}")

# Boundary data is the Robin trace of u, so the impedance condition is
# satisfied identically.
edge = np.column_stack([np.full(5, 0.5), np.linspace(-0.5, 0.5, 5)])
normals = np.tile([1.0, 0.0], (5, 1))
robin = np.sum(sol.grad_u(edge) * normals, axis=1) + 1j * kappa * sol.u(edge)
print(f"Robin trace matches g_tilde: {np.abs(robin - data.g_tilde(edge, normals)).max():.3e}")
