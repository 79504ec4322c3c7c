"""Solve one Helmholtz benchmark problem and inspect the solution.

The benchmark has a radial exact solution built from Bessel functions, a
source sin(kappa r)/r, and impedance boundary data chosen to match.  We
solve it with the hybridizable DG method at kappa = 20 on a 32 x 32
structured mesh with quadratic elements, then look at everything the
solve gives us: error norms, the discrete energy identity, the local
condition numbers, and a point-cloud dump of the fields.
"""

import numpy as np

from helmhdg import (
    ProblemConfig,
    benchmark_problem,
    build_structured_mesh,
    discretize,
    solve_helmholtz,
)
from helmhdg.diagnostics import compute_errors, energy_balance
from helmhdg.skeleton import sample_solution, write_solution_csv

KAPPA = 20.0
ORDER = 2
SUBDIVISIONS = 32

# Mesh, configuration (tau = p / (kappa h) is derived from the mesh), data.
mesh = build_structured_mesh(SUBDIVISIONS)
cfg = ProblemConfig.for_mesh(KAPPA, ORDER, mesh)
exact, data = benchmark_problem(KAPPA)
print(f"mesh: {mesh.n_elements} triangles, h = {mesh.h_global:.4f}, tau = {cfg.tau:.4f}")

# The discretization is built once: the element classes with their
# condensed operators, the one data rule, and the source and boundary
# moments.  The solve and every diagnostic below read it; the solve
# returns the coefficients of (q_h, u_h, uhat_h) plus bookkeeping.
disc = discretize(mesh, cfg, data.f, data.g)
print(f"{len(disc.members)} element classes")
solution, info = solve_helmholtz(disc)
print(f"skeleton unknowns: {info.n_skeleton_dofs}, solve residual {info.residual:.2e}, "
      f"{info.seconds:.2f} s, max local condition number {info.max_local_cond:.1e}")

# Errors against the exact solution.
report = compute_errors(solution, exact, disc)
print(f"errors: |u-u_h| = {report.e_u:.4e}  |q-q_h| = {report.e_q:.4e}  "
      f"trace = {report.e_trace:.4e}")

# The discrete energy identity is an algebraic consequence of the scheme;
# for a correct solve both sides agree to solver precision.
balance = energy_balance(solution, disc)
print(f"energy identity: lhs = {balance.lhs:.6e}")
print(f"                 rhs = {balance.rhs:.6e}")
print(f"residuals: re {balance.residual_re:.2e}, im {balance.residual_im:.2e}")

# Point samples for external plotting (same rows as the CSV dump).
pts, u_vals, q_vals = sample_solution(disc, solution)
center = np.argmin(np.abs(pts[:, 0]) + np.abs(pts[:, 1]))
print(f"u_h near the center {pts[center]}: {u_vals[center]:.6f}  "
      f"(exact {exact.u(pts[center:center + 1])[0]:.6f})")

write_solution_csv("solution_k20_p2_n32.csv", disc, solution,
                   header_lines=[f"kappa = {KAPPA}", f"p = {ORDER}", f"n = {SUBDIVISIONS}"])
print("wrote solution_k20_p2_n32.csv")
