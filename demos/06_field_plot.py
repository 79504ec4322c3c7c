"""Render the solution dump the way the reference study plots its fields.

The solver deliberately contains no plotting; it emits a CSV of u_h and
q_h at the (p+1)^2 points of the degree-2p triangle rule on each element
(9 per element here, at p = 2, whatever kappa h) that external tools
consume.  This script is such a tool: it
solves once, writes the dump, reads it back, and renders the imaginary
part of u_h as a surface analogue (scatter colored by value) next to the
exact field, plus the trace of Im(u) along the x-axis.
"""

import csv

import numpy as np

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # plotting is optional by design
    raise SystemExit("matplotlib not available; install it to run this demo")

from helmhdg import (
    ProblemConfig,
    benchmark_problem,
    build_structured_mesh,
    discretize,
    solve_helmholtz,
)
from helmhdg.skeleton import write_solution_csv

KAPPA, ORDER, SUBDIVISIONS = 40.0, 2, 64

mesh = build_structured_mesh(SUBDIVISIONS)
cfg = ProblemConfig.for_mesh(KAPPA, ORDER, mesh)
exact, data = benchmark_problem(KAPPA)
disc = discretize(mesh, cfg, data.f, data.g)
solution, info = solve_helmholtz(disc)
print(f"solved kappa={KAPPA:g} p={ORDER} n={SUBDIVISIONS} "
      f"({info.n_skeleton_dofs} skeleton dofs, {info.seconds:.1f} s)")

dump = "field_k40_p2_n64.csv"
write_solution_csv(dump, disc, solution,
                   header_lines=[f"kappa = {KAPPA}", f"p = {ORDER}", f"n = {SUBDIVISIONS}"])

# Consume the dump exactly like an external tool would.
with open(dump, newline="", encoding="utf-8") as fh:
    rows = [row for row in csv.reader(r for r in fh if not r.startswith("#"))]
header, body = rows[0], np.array(rows[1:], dtype=float)
x, y = body[:, header.index("x")], body[:, header.index("y")]
im_u = body[:, header.index("im_u")]

fig, axes = plt.subplots(1, 3, figsize=(15, 4.4))
for ax, values, title in (
    (axes[0], im_u, f"Im u_h  (HDG-P{ORDER}, h = {mesh.h_global:.3f})"),
    (axes[1], exact.u(np.column_stack([x, y])).imag, "Im u  (exact)"),
):
    sc = ax.scatter(x, y, c=values, s=2, cmap="RdBu_r")
    ax.set_aspect("equal")
    ax.set_title(title)
    fig.colorbar(sc, ax=ax, shrink=0.85)

# Trace along the x-axis, the usual cross-section view.
line = np.abs(y) < mesh.h_global / 4
order = np.argsort(x[line])
axes[2].plot(x[line][order], im_u[line][order], ".", ms=2, label="HDG")
xs = np.linspace(-0.5, 0.5, 600)
axes[2].plot(xs, exact.u(np.column_stack([xs, np.zeros_like(xs)])).imag, "g-",
             lw=1, label="exact")
axes[2].set_title("Im u along y = 0")
axes[2].legend()

fig.tight_layout()
fig.savefig("field_k40_p2_n64.png", dpi=130)
print("wrote field_k40_p2_n64.csv and field_k40_p2_n64.png")
