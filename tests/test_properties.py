"""Property tests of the condensed solve over small random cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from helmhdg.analytic import benchmark_problem
from helmhdg.diagnostics import ENERGY_IDENTITY_TOL, energy_balance
from helmhdg.hdg_local import ProblemConfig
from helmhdg.mesh import _finish_mesh, build_structured_mesh
from helmhdg.skeleton import discretize, monolithic_solve, solve_helmholtz


def _mesh(n, seed):
    mesh = build_structured_mesh(n)
    if seed is None:
        return mesh
    # Moving each interior vertex by at most h/10 per coordinate keeps
    # every triangle positively oriented (det J >= 0.4 / n^2).
    vertices = mesh.vertices.copy()
    interior = np.all(np.abs(vertices) < 0.5, axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-0.1, 0.1, (int(interior.sum()), 2)) / n
    return _finish_mesh(vertices, mesh.triangles.copy(), n=None)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    kappa=st.floats(1.0, 60.0),
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(2, 8),
    seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_energy_identity_and_oracle_agreement(kappa, p, n, seed):
    mesh = _mesh(n, seed)
    cfg = ProblemConfig.for_mesh(kappa, p, mesh)
    _, data = benchmark_problem(kappa)
    disc = discretize(mesh, cfg, data.f, data.g)
    condensed, _ = solve_helmholtz(disc)
    balance = energy_balance(condensed, disc)
    assert max(balance.residual_re, balance.residual_im) <= ENERGY_IDENTITY_TOL

    mono = monolithic_solve(mesh, cfg, data.f, data.g)
    scale = max(condensed.coefficient_norm(), mono.coefficient_norm())
    assert np.abs(condensed.Q - mono.Q).max() <= 1e-8 * scale
    assert np.abs(condensed.U - mono.U).max() <= 1e-8 * scale
    assert np.abs(condensed.uhat - mono.uhat).max() <= 1e-8 * scale
