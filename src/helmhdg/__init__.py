"""HDG solver for the 2-d Helmholtz equation at high wave number.

The package assembles the first-order Helmholtz system with a
hybridizable discontinuous Galerkin discretization on structured
triangle meshes, condenses every element onto its edge traces with the
stabilization tau = p/(kappa h), solves the complex sparse skeleton
system directly, and reconstructs the interior fields.  Diagnostics
reproduce the wave-number-explicit convergence and pollution behavior of
the method at desk scale.
"""

__version__ = "0.1.0"

from .analytic import benchmark_problem, bessel_j
from .diagnostics import ConvergenceTable, convergence_rates, run_benchmark_case
from .hdg_local import ProblemConfig
from .mesh import build_structured_mesh
from .skeleton import discretize, solve_helmholtz

__all__ = [
    "__version__",
    "ProblemConfig",
    "benchmark_problem",
    "bessel_j",
    "build_structured_mesh",
    "discretize",
    "solve_helmholtz",
    "ConvergenceTable",
    "convergence_rates",
    "run_benchmark_case",
]
