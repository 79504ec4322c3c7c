"""Patch test: HDG is consistent, so where the exact u is a polynomial of
degree <= p, the discrete solution equals u, q = i grad(u)/kappa and the
traces of u up to rounding, on any mesh and for any tau > 0 (Cockburn,
Gopalakrishnan and Lazarov, SIAM J. Numer. Anal. 47, 2009).  The data
reach the solve through `discretize` and the errors come from
`compute_errors`, so the test runs the source loads and the error norms
on the one data rule, each element by its own map, on structured and
non-uniform meshes alike."""

import pytest

from helmhdg.mesh import build_structured_mesh
from meshes import jittered_mesh, perturbed_mesh
from reference import PATCH_TOL, patch_errors

MESHES = {
    "structured-n4": lambda: build_structured_mesh(4),
    "structured-n13": lambda: build_structured_mesh(13),
    "jittered": jittered_mesh,
    "perturbed": perturbed_mesh,
}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_solver_reproduces_polynomials_of_its_own_space(mesh_name, p):
    errors = patch_errors(MESHES[mesh_name](), p)
    assert max(errors) <= PATCH_TOL, errors
