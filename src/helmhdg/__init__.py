"""HDG solver for the 2-d Helmholtz equation at high wave number.

The package assembles the first-order Helmholtz system with a
hybridizable discontinuous Galerkin discretization on structured
triangle meshes, condenses every element onto its edge traces with the
stabilization tau = p/(kappa h), solves the skeleton system by
multifrontal nested dissection with one dense front per congruence class
of subdomains, and reconstructs the interior fields.  Diagnostics
reproduce the wave-number-explicit convergence and pollution behavior of
the method at desk scale.
"""

import os
import sys

# Pin BLAS to one thread before numpy loads: the last digits of the
# outputs depend on the thread count.  An explicit setting wins.  A pin
# set after numpy loaded may not reach numpy's BLAS, so the variables
# set then are recorded for the CSV header to mark.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_AFTER_NUMPY: tuple[str, ...] = ()
for _var in BLAS_THREAD_VARS:
    if _var not in os.environ:
        os.environ[_var] = "1"
        if "numpy" in sys.modules:
            PINNED_AFTER_NUMPY += (_var,)

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
