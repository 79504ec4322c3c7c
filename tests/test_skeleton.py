import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmhdg.analytic import benchmark_problem, data_quadrature_degree
from helmhdg.diagnostics import data_norms
from helmhdg.hdg_local import (
    ProblemConfig,
    assemble_local_blocks,
    flux_functional,
    local_residual,
)
from helmhdg.mesh import _finish_mesh, build_structured_mesh, mesh_entities
from helmhdg.polybasis import EdgeBasis, TriangleBasis, quadrature_rule
from helmhdg.skeleton import (
    Solution,
    MONOLITHIC_GUARD,
    boundary_loads,
    build_dof_map,
    discretize,
    monolithic_solve,
    sample_solution,
    solve_helmholtz,
    solve_skeleton,
    skeleton_residual,
    write_solution_csv,
)


def zero_f(pts):
    return np.zeros(len(pts), dtype=complex)


def zero_g(pts, normals):
    return np.zeros(len(pts), dtype=complex)


def test_dof_map_partitions_and_round_trips():
    mesh = build_structured_mesh(3)
    for p in (1, 2, 3):
        dm = build_dof_map(mesh, p)
        m = p + 1
        assert dm.n_dofs == m * mesh.n_edges
        first = dm.elem_dofs.reshape(mesh.n_elements, 3, m)[:, :, 0]
        assert np.array_equal(first, m * mesh.elem_edges)
        # every dof is owned by exactly one edge slot
        assert set(dm.elem_dofs.ravel()) <= set(range(dm.n_dofs))


def test_skeleton_unknown_count_n1_p1():
    mesh = build_structured_mesh(1)
    assert build_dof_map(mesh, 1).n_dofs == 10


def test_monolithic_unknown_count_n1_p1():
    n = TriangleBasis(1).dim
    mesh = build_structured_mesh(1)
    total = mesh.n_elements * 3 * n + build_dof_map(mesh, 1).n_dofs
    assert total == 28


def test_zero_data_zero_solution():
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    disc = discretize(mesh, cfg, zero_f, zero_g)
    system = disc.assemble()
    assert np.abs(system.rhs).max() == 0.0
    uhat = solve_skeleton(system)
    assert np.abs(uhat).max() == 0.0
    solution = disc.reconstruct(uhat)
    assert solution.coefficient_norm() == 0.0


def test_sparsity_couples_only_edge_neighbors():
    mesh = build_structured_mesh(3)
    cfg = ProblemConfig.for_mesh(10.0, 1, mesh)
    _, data = benchmark_problem(10.0)
    system = discretize(mesh, cfg, data.f, data.g).assemble()
    m = cfg.p + 1
    neighbors = {e: {e} for e in range(mesh.n_edges)}
    for elem in range(mesh.n_elements):
        for a in mesh.elem_edges[elem]:
            neighbors[int(a)].update(int(b) for b in mesh.elem_edges[elem])
    coo = system.matrix.tocoo()
    for i, j in zip(coo.row, coo.col):
        assert int(j) // m in neighbors[int(i) // m]


def test_boundary_edges_carry_extra_mass():
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(10.0, 1, mesh)
    disc = discretize(mesh, cfg, zero_f, zero_g)
    full = disc.assemble().matrix.toarray()
    # rebuild only the condensed-flux part
    flux_only = np.zeros_like(full)
    dm = disc.dof_map
    for cls in disc.classes:
        for elem in cls.ids:
            idx = dm.elem_dofs[elem]
            flux_only[np.ix_(idx, idx)] += -cls.ops.K
    extra = full - flux_only
    m = cfg.p + 1
    expected = np.zeros_like(full)
    for edge in np.flatnonzero(mesh.boundary_flags):
        sl = slice(m * edge, m * (edge + 1))
        expected[sl, sl] = np.eye(m)
    assert np.abs(extra - expected).max() <= 1e-14


def test_skeleton_matrix_is_schur_complement_of_monolithic():
    # Dense oracle on the n=2, p=1 mesh: eliminate all (Q, U) blocks from
    # the coupled matrix and compare entrywise.
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(5.0, 1, mesh)
    _, data = benchmark_problem(5.0)
    n = TriangleBasis(1).dim
    block = 3 * n
    n_interior = mesh.n_elements * block

    condensed = discretize(mesh, cfg, data.f, data.g).assemble().matrix.toarray()

    # assemble the dense coupled system (same row convention)
    dm = build_dof_map(mesh, 1)
    total = n_interior + dm.n_dofs
    full = np.zeros((total, total), dtype=complex)
    for elem in range(mesh.n_elements):
        blocks = assemble_local_blocks(mesh_entities(mesh, elem), cfg)
        o = elem * block
        lam = n_interior + dm.elem_dofs[elem]
        full[o : o + 2 * n, o : o + 2 * n] = blocks.A
        full[o : o + 2 * n, o + 2 * n : o + block] = -blocks.B
        full[np.ix_(range(o, o + 2 * n), lam)] = blocks.C
        full[o + 2 * n : o + block, o : o + 2 * n] = blocks.B.T
        full[o + 2 * n : o + block, o + 2 * n : o + block] = 1j * cfg.kappa * blocks.M + blocks.S
        full[np.ix_(range(o + 2 * n, o + block), lam)] = -blocks.R
        full[np.ix_(lam, range(o, o + 2 * n))] = -blocks.C.T
        full[np.ix_(lam, range(o + 2 * n, o + block))] = -blocks.R.T
        full[np.ix_(lam, lam)] += blocks.tau * np.eye(3 * (cfg.p + 1))
    for edge in np.flatnonzero(mesh.boundary_flags):
        sl = slice(n_interior + 2 * edge, n_interior + 2 * (edge + 1))
        full[sl, sl] += np.eye(2)

    A_xx = full[:n_interior, :n_interior]
    A_xl = full[:n_interior, n_interior:]
    A_lx = full[n_interior:, :n_interior]
    A_ll = full[n_interior:, n_interior:]
    schur = A_ll - A_lx @ np.linalg.solve(A_xx, A_xl)
    scale = np.abs(condensed).max()
    assert np.abs(schur - condensed).max() <= 1e-10 * scale


def test_solve_residual_contract():
    mesh = build_structured_mesh(8)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    system = discretize(mesh, cfg, data.f, data.g).assemble()
    uhat = solve_skeleton(system)
    assert skeleton_residual(system, uhat) <= 1e-10


def test_deterministic_bitwise_repeat():
    results = []
    for _ in range(2):
        mesh = build_structured_mesh(8)
        cfg = ProblemConfig.for_mesh(20.0, 1, mesh)
        _, data = benchmark_problem(20.0)
        solution, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
        results.append(solution)
    assert np.array_equal(results[0].uhat, results[1].uhat)
    assert np.array_equal(results[0].Q, results[1].Q)
    assert np.array_equal(results[0].U, results[1].U)


def test_reconstruction_satisfies_local_equations():
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    solution, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    from helmhdg.hdg_local import volume_load

    dm = build_dof_map(mesh, cfg.p)
    for elem in range(mesh.n_elements):
        blocks = assemble_local_blocks(mesh_entities(mesh, elem), cfg)
        load = volume_load(mesh_entities(mesh, elem), cfg, data.f)
        resid = local_residual(
            blocks, solution.Q[elem], solution.U[elem], solution.uhat[dm.elem_dofs[elem]], load
        )
        assert resid <= 1e-9


def test_flux_continuity_across_interior_edges():
    # Transmission condition: the two one-sided flux moments on every
    # interior edge cancel against every trace test function.
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    solution, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    dm = build_dof_map(mesh, cfg.p)
    m = cfg.p + 1

    fluxes = []
    for elem in range(mesh.n_elements):
        blocks = assemble_local_blocks(mesh_entities(mesh, elem), cfg)
        lam = solution.uhat[dm.elem_dofs[elem]]
        fluxes.append(flux_functional(blocks, solution.Q[elem], solution.U[elem], lam))
    scale = max(np.abs(np.concatenate(fluxes)).max(), 1e-300)

    for edge in np.flatnonzero(~mesh.boundary_flags):
        (e1, f1), (e2, f2) = mesh.edge_to_elements[edge]
        total = (
            fluxes[int(e1)][int(f1) * m : (int(f1) + 1) * m]
            + fluxes[int(e2)][int(f2) * m : (int(f2) + 1) * m]
        )
        assert np.abs(total).max() <= 1e-9 * scale


def test_standalone_functions_match_pipeline():
    # assemble / solve_skeleton / reconstruct on a fresh discretization
    # compose to the same result as the one-call pipeline.
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    pipeline, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    disc = discretize(mesh, cfg, data.f, data.g)
    uhat = solve_skeleton(disc.assemble())
    standalone = disc.reconstruct(uhat)
    assert np.array_equal(standalone.uhat, pipeline.uhat)
    assert np.array_equal(standalone.Q, pipeline.Q)
    assert np.array_equal(standalone.U, pipeline.U)


def test_solution_validate_rejects_bad_shapes():
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(5.0, 1, mesh)
    _, data = benchmark_problem(5.0)
    solution, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    solution.validate(mesh)
    clipped = Solution(Q=solution.Q[:, :2], U=solution.U, uhat=solution.uhat, p=1)
    with pytest.raises(ValueError):
        clipped.validate(mesh)
    corrupted = Solution(Q=solution.Q.copy(), U=solution.U, uhat=solution.uhat, p=1)
    corrupted.Q[0, 0] = np.nan
    with pytest.raises(RuntimeError):
        corrupted.validate(mesh)


def test_condensed_matches_monolithic():
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(5.0, 1, mesh)
    _, data = benchmark_problem(5.0)
    condensed, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    mono = monolithic_solve(mesh, cfg, data.f, data.g)
    scale = max(condensed.coefficient_norm(), mono.coefficient_norm())
    assert np.abs(condensed.Q - mono.Q).max() <= 1e-8 * scale
    assert np.abs(condensed.U - mono.U).max() <= 1e-8 * scale
    assert np.abs(condensed.uhat - mono.uhat).max() <= 1e-8 * scale


def test_pipeline_on_perturbed_mesh():
    # Nothing in the solver may rely on mesh uniformity: perturb an
    # interior vertex (every element becomes its own congruence class)
    # and re-check oracle equivalence and the energy identity.
    from helmhdg.mesh import _finish_mesh
    from helmhdg.diagnostics import energy_balance
    from helmhdg.skeleton import _group_elements

    base = build_structured_mesh(2)
    vertices = base.vertices.copy()
    center = np.argmin(np.abs(vertices).sum(axis=1))
    vertices[center] += [0.05, -0.03]
    mesh = _finish_mesh(vertices, base.triangles.copy(), n=None)
    assert len(_group_elements(mesh)) > 2

    cfg = ProblemConfig(kappa=7.3, p=2, tau=2 / (7.3 * mesh.h_global))
    _, data = benchmark_problem(7.3)
    disc = discretize(mesh, cfg, data.f, data.g)
    condensed, _ = solve_helmholtz(disc)
    mono = monolithic_solve(mesh, cfg, data.f, data.g)
    scale = max(condensed.coefficient_norm(), mono.coefficient_norm())
    assert np.abs(condensed.U - mono.U).max() <= 1e-8 * scale
    assert np.abs(condensed.Q - mono.Q).max() <= 1e-8 * scale

    balance = energy_balance(condensed, disc)
    assert max(balance.residual_re, balance.residual_im) <= 1e-9


def test_monolithic_zero_data_and_guard():
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(5.0, 1, mesh)
    solution = monolithic_solve(mesh, cfg, zero_f, zero_g)
    assert solution.coefficient_norm() == 0.0

    big = build_structured_mesh(64)
    big_cfg = ProblemConfig.for_mesh(5.0, 3, big)
    with pytest.raises(ValueError, match="guard"):
        monolithic_solve(big, big_cfg, zero_f, zero_g)
    assert MONOLITHIC_GUARD == 200_000


def test_solution_csv_dump(tmp_path):
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(5.0, 1, mesh)
    _, data = benchmark_problem(5.0)
    disc = discretize(mesh, cfg, data.f, data.g)
    solution, _ = solve_helmholtz(disc)
    path = tmp_path / "solution.csv"
    write_solution_csv(str(path), disc, solution, header_lines=["demo"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "x,y,re_u,im_u,re_q1,im_q1,re_q2,im_q2"
    pts, u, q = sample_solution(disc, solution)
    assert len(lines) == 2 + pts.shape[0]
    first = [float(tok) for tok in lines[2].split(",")]
    assert first[0] == pytest.approx(pts[0, 0])
    assert first[2] == pytest.approx(u[0].real)
    assert first[6] == pytest.approx(q[0, 1].real)


def _per_edge_boundary_reference(mesh, cfg, g):
    """Boundary moments and ||g|| edge by edge, one g call per edge and rule:
    moments use the rule of the edge's own length, the norm that of h."""
    m = cfg.p + 1
    basis = EdgeBasis(cfg.p)
    loads = np.zeros(m * mesh.n_edges, dtype=complex)
    g_sq = 0.0

    def degree(h):
        if cfg.data_quad_degree is not None:
            return cfg.data_quad_degree
        return data_quadrature_degree(cfg.p, cfg.kappa, h)

    for edge in np.flatnonzero(mesh.boundary_flags):
        lo, hi = mesh.edges[edge]
        a, b = mesh.vertices[lo], mesh.vertices[hi]
        length = float(np.linalg.norm(b - a))
        elem, face = mesh.edge_to_elements[edge, 0]
        normal = mesh_entities(mesh, int(elem)).normals[int(face)]

        def values(deg):
            rule = quadrature_rule("edge", deg)
            pts = a + rule.points[:, None] * (b - a)
            return rule, np.asarray(g(pts, np.tile(normal, (rule.n_points, 1))), dtype=complex)

        rule, vals = values(degree(length))
        psi = basis.eval(rule.points)
        loads[m * edge : m * (edge + 1)] = np.sqrt(length) * (psi.T @ (rule.weights * vals))
        rule, vals = values(degree(mesh.h_global))
        g_sq += length * float(np.abs(vals) ** 2 @ rule.weights)
    return loads, np.sqrt(g_sq)


def _mesh_with_uneven_boundary(n):
    # Slide a boundary vertex along its side so boundary edge lengths (and
    # with them the data quadrature degrees) differ.
    base = build_structured_mesh(n)
    vertices = base.vertices.copy()
    vertices[1, 0] += 0.4 / n
    return _finish_mesh(vertices, base.triangles.copy(), n=None)


@pytest.mark.parametrize("kappa, p, n, quad_degree, uneven", [
    (20.0, 2, 8, None, False),
    (40.0, 3, 5, None, False),
    (20.0, 2, 8, 13, False),
    (40.0, 3, 5, 21, False),
    (40.0, 2, 4, None, True),
])
def test_batched_boundary_data_matches_per_edge_loop(kappa, p, n, quad_degree, uneven):
    mesh = _mesh_with_uneven_boundary(n) if uneven else build_structured_mesh(n)
    cfg = ProblemConfig.for_mesh(kappa, p, mesh, data_quad_degree=quad_degree)
    _, data = benchmark_problem(kappa)
    ref_loads, ref_g_norm = _per_edge_boundary_reference(mesh, cfg, data.g)
    loads = boundary_loads(mesh, cfg, data.g)
    assert np.abs(loads - ref_loads).max() <= 1e-13 * np.abs(ref_loads).max()
    _, g_norm = data_norms(discretize(mesh, cfg, data.f, data.g))
    assert abs(g_norm - ref_g_norm) <= 1e-13 * ref_g_norm


def test_skeleton_lu_fill_guard(monkeypatch):
    # The fill-reducing ordering must keep the skeleton factor well below
    # what SuperLU's default COLAMD ordering stores for the same matrix.
    factored = []
    splu = spla.splu

    def recording_splu(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        factored.append((matrix, lu.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    mesh = build_structured_mesh(32)
    cfg = ProblemConfig.for_mesh(40.0, 2, mesh)
    _, data = benchmark_problem(40.0)
    solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    ((matrix, nnz),) = factored
    assert nnz <= 0.6 * splu(matrix, permc_spec="COLAMD").nnz


def _grouping_reference(mesh):
    # Per-element dict loop: classes in first-appearance order, each keyed
    # by the bytes of its rounded Jacobian and orientation pattern.
    v, t = mesh.vertices, mesh.triangles
    jac = np.stack([v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]], axis=2)
    keys = np.round(jac / mesh.h_global, 12).reshape(mesh.n_elements, 4)
    groups = {}
    for elem in range(mesh.n_elements):
        key = keys[elem].tobytes() + mesh.elem_edge_orient[elem].tobytes()
        groups.setdefault(key, []).append(elem)
    return [(ids, ids[0]) for ids in groups.values()]


@pytest.mark.parametrize("perturbed", [False, True], ids=["structured-n8", "perturbed"])
def test_group_elements_matches_per_element_loop(perturbed):
    from helmhdg.skeleton import _group_elements

    mesh = build_structured_mesh(8)
    if perturbed:
        base = build_structured_mesh(2)
        vertices = base.vertices.copy()
        center = np.argmin(np.abs(vertices).sum(axis=1))
        vertices[center] += [0.05, -0.03]
        mesh = _finish_mesh(vertices, base.triangles.copy(), n=None)
    groups = _group_elements(mesh)
    reference = _grouping_reference(mesh)
    assert len(groups) == len(reference)
    for (ids, rep), (ref_ids, ref_rep) in zip(groups, reference):
        assert ids.tolist() == ref_ids
        assert rep == ref_rep and type(rep) is int


def test_nested_dissection_factor_is_smaller_than_minimum_degree(monkeypatch):
    # The nested-dissection order stores at most 0.9 x the factor entries
    # of SuperLU's minimum degree on A + A^T for the same matrix.
    factored = []
    splu = spla.splu

    def recording_splu(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        factored.append(lu.nnz)
        return lu

    mesh = build_structured_mesh(63)
    cfg = ProblemConfig.for_mesh(40.0, 2, mesh)
    _, data = benchmark_problem(40.0)
    system = discretize(mesh, cfg, data.f, data.g).assemble()
    monkeypatch.setattr(spla, "splu", recording_splu)
    solve_skeleton(system)
    (nnz,) = factored
    assert nnz <= 0.9 * splu(system.matrix, permc_spec="MMD_AT_PLUS_A").nnz
