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

from .analytic import (
    DataFunctions,
    ExactSolution,
    benchmark_problem,
    bessel_j,
    l2_project,
)
from .diagnostics import (
    ConvergenceTable,
    ErrorReport,
    compute_errors,
    convergence_rates,
    run_benchmark_case,
)
from .hdg_local import (
    CondensedOperators,
    LocalBlocks,
    ProblemConfig,
    assemble_local_blocks,
    local_solve,
)
from .mesh import ElementGeometry, Mesh, build_structured_mesh, mesh_entities, write_mesh
from .polybasis import (
    EdgeBasis,
    QuadratureRule,
    TriangleBasis,
    quadrature_rule,
)
from .skeleton import (
    Discretization,
    DofMap,
    SkeletonSystem,
    Solution,
    build_dof_map,
    discretize,
    monolithic_solve,
    solve_helmholtz,
    solve_skeleton,
)

__all__ = [
    "__version__",
    "DataFunctions",
    "ExactSolution",
    "benchmark_problem",
    "bessel_j",
    "l2_project",
    "ConvergenceTable",
    "ErrorReport",
    "compute_errors",
    "convergence_rates",
    "run_benchmark_case",
    "CondensedOperators",
    "LocalBlocks",
    "ProblemConfig",
    "assemble_local_blocks",
    "local_solve",
    "ElementGeometry",
    "Mesh",
    "build_structured_mesh",
    "mesh_entities",
    "write_mesh",
    "EdgeBasis",
    "QuadratureRule",
    "TriangleBasis",
    "quadrature_rule",
    "Discretization",
    "DofMap",
    "SkeletonSystem",
    "Solution",
    "build_dof_map",
    "discretize",
    "monolithic_solve",
    "solve_helmholtz",
    "solve_skeleton",
]
