"""The discrete energy identity as a machine-precision solver check.

Testing the scheme with its own solution produces the exact balance

    i kappa (|u_h|^2 - |q_h|^2) + tau |u_h - uhat|^2_dTh + |uhat|^2_bd
        = (f, u_h) + <g, uhat>_bd.

Nothing about it is asymptotic: it holds for the computed coefficients
up to the direct solver's rounding, so it is a sharp end-to-end detector
for assembly, condensation, and reconstruction bugs.  We demonstrate the
balance on a converged solve and then show the detector firing after a
single trace coefficient is perturbed by 1e-3.
"""

from helmhdg import (
    ProblemConfig,
    benchmark_problem,
    build_structured_mesh,
    discretize,
    solve_helmholtz,
)
from helmhdg.diagnostics import energy_balance

KAPPA, ORDER, SUBDIVISIONS = 20.0, 2, 16

mesh = build_structured_mesh(SUBDIVISIONS)
cfg = ProblemConfig.for_mesh(KAPPA, ORDER, mesh)
_, data = benchmark_problem(KAPPA)
disc = discretize(mesh, cfg, data.f, data.g)
solution, _ = solve_helmholtz(disc)

# The balance pairs the solution with the load vectors the solve used.
balance = energy_balance(solution, disc)
print("terms of the identity:")
print(f"  kappa (|u_h|^2 - |q_h|^2)   = {KAPPA * (balance.norm_u**2 - balance.norm_q**2):+.12e}")
print(f"  tau |u_h - uhat|^2 (faces)  = {balance.trace_jump_sq:+.12e}")
print(f"  |uhat|^2 (boundary)         = {balance.uhat_boundary_sq:+.12e}")
print(f"  lhs = {balance.lhs:.12e}")
print(f"  rhs = {balance.rhs:.12e}")
print(f"relative residuals: re {balance.residual_re:.3e}, im {balance.residual_im:.3e}")

solution.uhat[0] += 1e-3
corrupted = energy_balance(solution, disc)
print("\nafter corrupting one trace coefficient by 1e-3:")
print(f"relative residuals: re {corrupted.residual_re:.3e}, "
      f"im {corrupted.residual_im:.3e}  (detector fires)")
