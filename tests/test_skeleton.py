import dataclasses
import logging
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmhdg.analytic import ExactSolution, benchmark_problem, data_quadrature_degree
from helmhdg.diagnostics import compute_errors, data_norms
from helmhdg.hdg_local import ProblemConfig, reference_tables
from helmhdg.mesh import build_structured_mesh, dissection_tree
from helmhdg.polybasis import EdgeBasis, TriangleBasis, quadrature_rule
import helmhdg.skeleton as skeleton
from helmhdg.skeleton import (
    Solution,
    MONOLITHIC_GUARD,
    RESIDUAL_TOL,
    _edge_dofs,
    _extend_add,
    boundary_loads,
    discretize,
    monolithic_solve,
    sample_solution,
    solve_helmholtz,
    solve_skeleton,
    skeleton_residual,
    write_solution_csv,
)
from meshes import fan_strip_mesh, jittered_mesh, perturbed_mesh
from reference import (
    benchmark_discretization,
    element_blocks,
    flux_functional,
    global_matrix,
    grad_trace_block,
    local_residual,
    source_moment_deviation,
)


def zero_f(pts):
    return np.zeros(len(pts), dtype=complex)


def zero_g(pts, normals):
    return np.zeros(len(pts), dtype=complex)


def test_dof_map_partitions_and_round_trips():
    # The face-major gather of every element through the dof layout: each
    # face slot starts at m times its edge, each element's 3m dofs are
    # distinct, and over all elements every dof is gathered exactly once
    # per element incident to its edge.
    mesh = build_structured_mesh(3)
    incident = np.where(mesh.boundary_flags, 1, 2)
    for p in (1, 2, 3):
        m = p + 1
        gather = _edge_dofs(mesh.elem_edges, m).reshape(mesh.n_elements, 3 * m)
        first = gather.reshape(mesh.n_elements, 3, m)[:, :, 0]
        assert np.array_equal(first, m * mesh.elem_edges)
        assert all(len(set(row)) == 3 * m for row in gather.tolist())
        counts = np.bincount(gather.ravel(), minlength=m * mesh.n_edges)
        assert np.array_equal(counts, np.repeat(incident, m))


def test_skeleton_unknown_count_n1_p1():
    mesh = build_structured_mesh(1)
    cfg = ProblemConfig.for_mesh(5.0, 1, mesh)
    assert discretize(mesh, cfg, zero_f, zero_g).rhs().size == 10


def test_monolithic_unknown_count_n1_p1():
    mesh = build_structured_mesh(1)
    solution = monolithic_solve(mesh, ProblemConfig.for_mesh(5.0, 1, mesh), zero_f, zero_g)
    assert solution.Q.size + solution.U.size + solution.uhat.size == 28


def test_zero_data_zero_solution():
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    disc = discretize(mesh, cfg, zero_f, zero_g)
    assert np.abs(disc.rhs()).max() == 0.0
    uhat, info = solve_skeleton(disc)
    assert np.abs(uhat).max() == 0.0
    assert (info.residual, info.refine_steps) == (0.0, 0)
    solution = disc.reconstruct(uhat)
    assert solution.coefficient_norm() == 0.0


def _dense_operator(disc):
    """The class-wise skeleton operator applied to every unit vector."""
    n_dofs = (disc.cfg.p + 1) * disc.mesh.n_edges
    return np.column_stack([disc.apply(e) for e in np.eye(n_dofs, dtype=complex)])


def test_sparsity_couples_only_edge_neighbors():
    mesh = build_structured_mesh(3)
    cfg = ProblemConfig.for_mesh(10.0, 1, mesh)
    _, data = benchmark_problem(10.0)
    operator = _dense_operator(discretize(mesh, cfg, data.f, data.g))
    m = cfg.p + 1
    neighbors = {e: {e} for e in range(mesh.n_edges)}
    for elem in range(mesh.n_elements):
        for a in mesh.elem_edges[elem]:
            neighbors[int(a)].update(int(b) for b in mesh.elem_edges[elem])
    for i, j in zip(*np.nonzero(operator)):
        assert int(j) // m in neighbors[int(i) // m]


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(9), perturbed_mesh, fan_strip_mesh, jittered_mesh,
], ids=["n9", "perturbed", "fan-strip", "jittered"])
def test_class_wise_operator_matches_assembled_matrix(make):
    mesh = make()
    cfg = ProblemConfig.for_mesh(12.0, 2, mesh)
    disc = discretize(mesh, cfg, zero_f, zero_g)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3 * mesh.n_edges, 2)) @ [1.0, 1j]
    expected = global_matrix(disc) @ x
    assert np.linalg.norm(disc.apply(x) - expected) <= 1e-14 * np.linalg.norm(expected)


def test_boundary_edges_carry_extra_mass():
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(10.0, 1, mesh)
    disc = discretize(mesh, cfg, zero_f, zero_g)
    full = _dense_operator(disc)
    # rebuild only the condensed-flux part
    flux_only = np.zeros_like(full)
    m = cfg.p + 1
    for k, cls in enumerate(disc.classes):
        for elem in cls.ids:
            idx = _edge_dofs(mesh.elem_edges[elem], m).ravel()
            flux_only[np.ix_(idx, idx)] += -disc.ops.K[k]
    extra = full - flux_only
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

    condensed = _dense_operator(discretize(mesh, cfg, data.f, data.g))

    # assemble the dense coupled system (same row convention)
    total = n_interior + 2 * mesh.n_edges
    full = np.zeros((total, total), dtype=complex)
    for elem in range(mesh.n_elements):
        blocks = element_blocks(mesh, elem, cfg)
        o = elem * block
        lam = n_interior + _edge_dofs(mesh.elem_edges[elem], 2).ravel()
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
    disc = discretize(mesh, cfg, data.f, data.g)
    uhat, info = solve_skeleton(disc)
    rhs = disc.rhs()
    assert skeleton_residual(disc, rhs, uhat)[1] <= 1e-10
    # The reported residual is the one the refinement measured last.
    assert info.residual == skeleton_residual(disc, rhs, uhat)[1]
    # ... and it is the residual on the assembled A.
    residual = np.linalg.norm(global_matrix(disc) @ uhat - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-10


def test_residual_relative_to_zero_rhs():
    # With no load the relative residual is 0 for the zero trace and
    # infinite for any trace that A does not map to zero.
    mesh = build_structured_mesh(2)
    disc = discretize(mesh, ProblemConfig.for_mesh(5.0, 1, mesh), zero_f, zero_g)
    rhs = disc.rhs()
    assert not rhs.any()
    assert skeleton_residual(disc, rhs, np.zeros_like(rhs))[1] == 0.0
    assert skeleton_residual(disc, rhs, np.ones_like(rhs))[1] == np.inf


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

    traces = solution.uhat.reshape(mesh.n_edges, cfg.p + 1)
    for elem in range(mesh.n_elements):
        blocks = element_blocks(mesh, elem, cfg)
        load = volume_load(mesh, elem, cfg, data.f)
        lam = traces[mesh.elem_edges[elem]].ravel()
        resid = local_residual(blocks, solution.Q[elem], solution.U[elem], lam, load)
        assert resid <= 1e-9


def test_flux_continuity_across_interior_edges():
    # Transmission condition: the two one-sided flux moments on every
    # interior edge cancel against every trace test function.
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    solution, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    m = cfg.p + 1
    traces = solution.uhat.reshape(mesh.n_edges, m)

    fluxes = []
    for elem in range(mesh.n_elements):
        blocks = element_blocks(mesh, elem, cfg)
        lam = traces[mesh.elem_edges[elem]].ravel()
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
    # solve_skeleton / reconstruct on a fresh discretization
    # compose to the same result as the one-call pipeline.
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    pipeline, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    disc = discretize(mesh, cfg, data.f, data.g)
    standalone = disc.reconstruct(solve_skeleton(disc)[0])
    assert np.array_equal(standalone.uhat, pipeline.uhat)
    assert np.array_equal(standalone.Q, pipeline.Q)
    assert np.array_equal(standalone.U, pipeline.U)


def test_solve_skeleton_builds_and_logs_the_solve_info(caplog):
    # One record per solve: `solve_skeleton` fills every field of the
    # `SolveInfo` that `solve_helmholtz` returns, and logs it once.
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    disc = discretize(mesh, cfg, data.f, data.g)
    with caplog.at_level(logging.INFO, logger=skeleton.__name__):
        uhat, info = solve_skeleton(disc)
    assert info.n_skeleton_dofs == uhat.size == disc.rhs().size
    assert info.max_local_cond == disc.ops.cond.max()
    assert info.seconds > 0.0
    (record,) = [r for r in caplog.records if r.name == skeleton.__name__]
    assert record.levelno == logging.INFO
    assert f"{info.n_skeleton_dofs} skeleton dofs" in record.getMessage()
    solution, again = solve_helmholtz(disc)
    assert dataclasses.replace(again, seconds=info.seconds) == info
    assert np.array_equal(solution.uhat, uhat)


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

    base = build_structured_mesh(2)
    vertices = base.vertices.copy()
    center = np.argmin(np.abs(vertices).sum(axis=1))
    vertices[center] += [0.05, -0.03]
    mesh = _finish_mesh(vertices, base.triangles.copy(), n=None)
    assert mesh.elem_class.max() + 1 > 2

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


@pytest.mark.parametrize("make", [lambda: build_structured_mesh(2), perturbed_mesh],
                         ids=["structured", "perturbed"])
@pytest.mark.parametrize("p", [1, 2])
def test_oracle_equals_the_per_element_flux_coupling(make, p, monkeypatch):
    # Reading the cached order-p tables changes no bit of the flux
    # coupling, nor of the oracle's solution.
    mesh = make()
    cfg = ProblemConfig.for_mesh(5.0, p, mesh)
    batched = skeleton._grad_trace_block(mesh, p)
    for elem in range(mesh.n_elements):
        assert batched[elem].tobytes() == grad_trace_block(mesh, elem, p).tobytes()
    _, data = benchmark_problem(5.0)
    got = monolithic_solve(mesh, cfg, data.f, data.g)
    monkeypatch.setattr(skeleton, "_grad_trace_block", lambda mesh, p: np.array(
        [grad_trace_block(mesh, elem, p) for elem in range(mesh.n_elements)]))
    want = monolithic_solve(mesh, cfg, data.f, data.g)
    for name in ("Q", "U", "uhat"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("kappa, p, n", [(5.0, 1, 2), (20.0, 2, 16), (20.0, 2, 22)])
def test_source_moments_match_the_oracles_volume_load(kappa, p, n):
    # Every member's moments, on its class's data rule, are the oracle's
    # per-element `volume_load` to rounding (7e-15 relative at worst); a
    # data rule lowered by 2 moves them by 2.7e-9 to 5.5e-8.
    disc = benchmark_discretization(kappa, p, build_structured_mesh(n))
    assert source_moment_deviation(disc) <= 1e-12


def _counted(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return wrapper


def test_oracle_evaluates_no_basis_per_element(monkeypatch):
    # `volume_load` evaluates the basis at its data rule once per element;
    # every other basis evaluation of the oracle is independent of n.  The
    # order-1 tables are built first, so neither count includes them.
    _, data = benchmark_problem(5.0)
    reference_tables(1)
    outside_loads = []
    for n in (2, 4):
        evals, loads = [], []
        for owner, name in (
            (TriangleBasis, "eval"), (TriangleBasis, "eval_with_grad"), (EdgeBasis, "eval"),
        ):
            monkeypatch.setattr(owner, name, _counted(getattr(owner, name), evals))
        monkeypatch.setattr(skeleton, "volume_load", _counted(skeleton.volume_load, loads))
        mesh = build_structured_mesh(n)
        monolithic_solve(mesh, ProblemConfig.for_mesh(5.0, 1, mesh), data.f, data.g)
        monkeypatch.undo()
        assert len(loads) == mesh.n_elements
        outside_loads.append(len(evals) - len(loads))
    assert outside_loads[0] == outside_loads[1]


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


def _random_solution(mesh, p, seed=3):
    rng = np.random.default_rng(seed)
    n = TriangleBasis(p).dim
    Q, U = (rng.standard_normal((mesh.n_elements, k)) + 1j * rng.standard_normal((mesh.n_elements, k))
            for k in (2 * n, n))
    return Solution(Q=Q, U=U, uhat=np.zeros((p + 1) * mesh.n_edges, dtype=complex), p=p)


def test_samples_per_element_do_not_grow_with_kappa_h(tmp_path):
    # At (60, 1, 4) the data rule has 225 points per element; the samples
    # stay at the (p + 1)^2 = 4 points of the assembly's 2p rule.
    mesh = build_structured_mesh(4)
    disc = benchmark_discretization(60.0, 1, mesh)
    assert disc.classes[0].rule.n_points == 225
    solution, _ = solve_helmholtz(disc)
    pts, u, q = sample_solution(disc, solution)
    assert pts.shape == (4 * mesh.n_elements, 2) and u.shape == (4 * mesh.n_elements,)
    assert q.shape == (4 * mesh.n_elements, 2)
    path = tmp_path / "solution.csv"
    write_solution_csv(str(path), disc, solution)
    assert len(path.read_text().splitlines()) == 1 + 4 * mesh.n_elements


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("make_mesh", [lambda: build_structured_mesh(4), jittered_mesh],
                         ids=["structured", "jittered"])
def test_samples_match_a_per_element_evaluation(make_mesh, p):
    # Element by element: the 2p rule's points mapped by the element's own
    # geometry, and the basis evaluated there, not read from the tables.
    mesh = make_mesh()
    disc = benchmark_discretization(20.0, p, mesh)
    solution = _random_solution(mesh, p)
    pts, u, q = sample_solution(disc, solution)
    ref = quadrature_rule("triangle", 2 * p)
    phi = TriangleBasis(p).eval(ref.points)
    n, k = phi.shape[1], ref.n_points
    want_pts, want_u, want_q = [], [], []
    for elem in range(mesh.n_elements):
        scale = 1.0 / np.sqrt(mesh.dets[elem])
        want_pts.append(mesh.vertices[mesh.triangles[elem, 0]] + ref.points @ mesh.jacobians[elem].T)
        want_u.append(scale * (phi @ solution.U[elem]))
        want_q.append(scale * np.stack([phi @ solution.Q[elem, :n], phi @ solution.Q[elem, n:]], axis=1))
    assert pts.shape[0] == k * mesh.n_elements == (p + 1) ** 2 * mesh.n_elements
    for got, want in ((pts, np.concatenate(want_pts)), (u, np.concatenate(want_u)),
                      (q, np.concatenate(want_q))):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_a_sampled_range_is_rows_of_the_full_sample():
    mesh = jittered_mesh()
    p = 2
    disc = benchmark_discretization(20.0, p, mesh)
    solution = _random_solution(mesh, p)
    full = sample_solution(disc, solution)
    k = (p + 1) ** 2
    for a, b in ((5, 17), (mesh.n_elements - 3, mesh.n_elements)):
        part = sample_solution(disc, solution, slice(a, b))
        for got, whole in zip(part, full):
            assert np.array_equal(got, whole[k * a : k * b])
    # A lone element is evaluated as a pair, so that it too takes BLAS's
    # matrix-matrix product.
    for got, whole in zip(sample_solution(disc, solution, slice(7, 8)), full):
        assert np.array_equal(got, whole[7 * k : 8 * k])


def test_a_block_holds_as_many_items_as_fit_and_at_least_one():
    budget = skeleton.BLOCK_POINTS
    assert skeleton.blocks(10, budget // 4) == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert skeleton.blocks(3, 10 * budget) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert skeleton.blocks(0, 5) == []
    # Where two items fit, a lone trailing item joins the block before it.
    assert skeleton.blocks(9, budget // 4) == [slice(0, 4), slice(4, 9)]
    assert skeleton.blocks(5, budget // 4) == [slice(0, 5)]
    assert skeleton.blocks(1, budget // 4) == [slice(0, 1)]
    assert skeleton.blocks(9, budget // 2) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 9)]


def test_errors_with_one_element_per_block_equal_the_default_budget(monkeypatch):
    # With a budget of one point every element is a block of its own; the
    # norms must keep the bits of the default budget's blocks.
    kappa, p, n = 40.0, 2, 63
    mesh = build_structured_mesh(n)
    exact, data = benchmark_problem(kappa)
    disc = discretize(mesh, ProblemConfig.for_mesh(kappa, p, mesh), data.f, data.g)
    solution, _ = solve_helmholtz(disc)
    default = compute_errors(solution, exact, disc)
    monkeypatch.setattr(skeleton, "BLOCK_POINTS", 1)
    lone = compute_errors(solution, exact, disc)
    assert (lone.e_u, lone.e_q, lone.e_trace) == (default.e_u, default.e_q, default.e_trace)


def test_data_calls_stay_within_the_point_budget(monkeypatch):
    # At (300, 1, 2) the data rule has 12 100 points per element, more than
    # a block's budget, so f and the exact solution get one element per
    # call, not all 8 elements' 96 800 points at once.
    kappa, p = 300.0, 1
    mesh = build_structured_mesh(2)
    exact, data = benchmark_problem(kappa)
    per_element = quadrature_rule("triangle", data_quadrature_degree(p, kappa, mesh.h_global)).n_points
    assert per_element == 12_100 > skeleton.BLOCK_POINTS
    calls = []

    def f(points):
        calls.append(len(points))
        return data.f(points)

    disc = discretize(mesh, ProblemConfig.for_mesh(kappa, p, mesh), f, data.g)
    assert calls == [per_element] * mesh.n_elements
    solution, _ = solve_helmholtz(disc)
    calls.clear()
    u_and_grad = ExactSolution.u_and_grad
    monkeypatch.setattr(ExactSolution, "u_and_grad",
                        lambda self, pts: calls.append(len(pts)) or u_and_grad(self, pts))
    compute_errors(solution, exact, disc)
    assert calls == [per_element] * mesh.n_elements


def _fstring_rows(pts, u, q):
    # The row-by-row rendering that the writer must reproduce byte for byte.
    return [
        ",".join(f"{v:.17g}" for v in (x, y, uk.real, uk.imag, q1.real, q1.imag, q2.real, q2.imag))
        for (x, y), uk, (q1, q2) in zip(pts, u, q)
    ]


@pytest.mark.parametrize("extremes", [False, True], ids=["solve", "extreme-values"])
def test_solution_csv_matches_fstring_rendering(tmp_path, monkeypatch, extremes):
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    _, data = benchmark_problem(20.0)
    disc = discretize(mesh, cfg, data.f, data.g)
    solution, _ = solve_helmholtz(disc)
    values = sample_solution(disc, solution)
    if extremes:
        column = np.array([0.0, -0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0])
        pts = np.column_stack([column, column[::-1]])
        u, q = np.empty(6, dtype=complex), np.empty((6, 2), dtype=complex)
        u.real, u.imag = column, column[::-1]
        q.real, q.imag = pts, -pts
        values = pts, u, q
        # n = 4 has one block of elements, so the writer asks for its samples once.
        monkeypatch.setattr(skeleton, "sample_solution", lambda disc, solution, elements: values)
    path = tmp_path / "solution.csv"
    write_solution_csv(str(path), disc, solution)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    expected = ["x,y,re_u,im_u,re_q1,im_q1,re_q2,im_q2"] + _fstring_rows(*values)
    assert text.endswith("\n") and len(lines) == len(expected)
    # Indices of differing rows; a plain string comparison's diff is slow to print.
    assert [k for k, (line, want) in enumerate(zip(lines, expected)) if line != want] == []


def _per_edge_boundary_reference(mesh, cfg, g):
    """Boundary moments and ||g|| edge by edge, one g call per edge, both
    on the edge rule of the global mesh size."""
    m = cfg.p + 1
    basis = EdgeBasis(cfg.p)
    loads = np.zeros(m * mesh.n_edges, dtype=complex)
    g_sq = 0.0
    for edge in np.flatnonzero(mesh.boundary_flags):
        lo, hi = mesh.edges[edge]
        a, b = mesh.vertices[lo], mesh.vertices[hi]
        length = float(np.linalg.norm(b - a))
        elem, face = mesh.edge_to_elements[edge, 0]
        normal = mesh.normals[elem, face]
        rule = quadrature_rule("edge", data_quadrature_degree(cfg.p, cfg.kappa, mesh.h_global))
        pts = a + rule.points[:, None] * (b - a)
        vals = np.asarray(g(pts, np.tile(normal, (rule.n_points, 1))), dtype=complex)
        psi = basis.eval(rule.points)
        loads[m * edge : m * (edge + 1)] = np.sqrt(length) * (psi.T @ (rule.weights * vals))
        g_sq += length * float(np.abs(vals) ** 2 @ rule.weights)
    return loads, np.sqrt(g_sq)


@pytest.mark.parametrize("kappa, p, n, uneven", [
    (20.0, 2, 8, False),
    (40.0, 3, 5, False),
    (40.0, 2, 4, True),
])
def test_batched_boundary_data_matches_per_edge_loop(kappa, p, n, uneven, uneven_boundary_mesh):
    mesh = uneven_boundary_mesh(n) if uneven else build_structured_mesh(n)
    cfg = ProblemConfig.for_mesh(kappa, p, mesh)
    _, data = benchmark_problem(kappa)
    ref_loads, ref_g_norm = _per_edge_boundary_reference(mesh, cfg, data.g)
    loads, g_sq = boundary_loads(mesh, cfg, data.g)
    assert np.abs(loads - ref_loads).max() <= 1e-13 * np.abs(ref_loads).max()
    assert abs(np.sqrt(g_sq) - ref_g_norm) <= 1e-13 * ref_g_norm
    _, g_norm = data_norms(discretize(mesh, cfg, data.f, data.g))
    assert g_norm == np.sqrt(g_sq)


def _record_splu(monkeypatch):
    factored = []
    splu = spla.splu

    def recording_splu(matrix, *args, **kwargs):
        factored.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    return factored


def test_skeleton_lu_fill_guard(monkeypatch):
    # The class factors store well below what SuperLU's default COLAMD
    # ordering stores for the same matrix, and the condensed path calls
    # no sparse LU.
    mesh = build_structured_mesh(32)
    cfg = ProblemConfig.for_mesh(40.0, 2, mesh)
    _, data = benchmark_problem(40.0)
    disc = discretize(mesh, cfg, data.f, data.g)
    factored = _record_splu(monkeypatch)
    _, info = solve_helmholtz(disc)
    assert factored == []
    monkeypatch.undo()
    assert info.lu_nnz <= 0.6 * spla.splu(global_matrix(disc), permc_spec="COLAMD").nnz


def _pollution_case(kappa, n):
    mesh = build_structured_mesh(n)
    cfg = ProblemConfig.for_mesh(kappa, 2, mesh)
    _, data = benchmark_problem(kappa)
    return discretize(mesh, cfg, data.f, data.g)


@pytest.mark.parametrize("kappa, p, make", [
    (20.0, 2, lambda: build_structured_mesh(22)),
    (40.0, 2, lambda: build_structured_mesh(63)),
    (1.0, 3, lambda: build_structured_mesh(16)),
    (80.0, 1, lambda: build_structured_mesh(16)),
    (20.0, 10, lambda: build_structured_mesh(4)),
    (20.0, 3, jittered_mesh),
], ids=["k20-p2-n22", "k40-p2-n63", "k1-p3-n16", "k80-p1-n16", "k20-p10-n4", "k20-p3-jittered"])
def test_condensed_operators_are_complex_symmetric(kappa, p, make):
    # K = K^T (transpose, not adjoint) for every class, and so A = A^T:
    # `Discretization.apply` may take K or K^T.  Measured worst 1.8e-15.
    mesh = make()
    disc = discretize(mesh, ProblemConfig.for_mesh(kappa, p, mesh), zero_f, zero_g)
    for K in disc.ops.K:
        assert np.abs(K - K.T).max() <= 1e-13 * np.abs(K).max()
    matrix = global_matrix(disc)
    assert abs(matrix - matrix.T).max() <= 1e-13 * abs(matrix).max()


def test_nested_dissection_factor_is_smaller_than_minimum_degree():
    # The class factors store at most half the entries of SuperLU's
    # minimum degree on A + A^T for the same matrix.
    disc = _pollution_case(40.0, 63)
    _, info = solve_skeleton(disc)
    assert info.residual <= RESIDUAL_TOL
    assert info.lu_nnz <= 0.5 * spla.splu(global_matrix(disc), permc_spec="MMD_AT_PLUS_A").nnz


def test_congruent_nodes_share_one_front():
    disc = _pollution_case(40.0, 63)
    _, info = solve_helmholtz(disc)
    tree = dissection_tree(disc.mesh)
    assert info.factor_classes == tree.node_class.max() + 1 < tree.n_elim.size
    assert info.refine_steps == 1 and info.residual <= 1e-12


def test_pollution_cases_keep_their_classes_and_w():
    # The side-major front order is translation-invariant, so the node
    # classes and the entries of W stay those of the midpoint order.
    for (kappa, n), classes, w_entries in zip(
        [(20.0, 22), (40.0, 63), (60.0, 116)], [51, 59, 118], [87_966, 288_333, 1_029_033],
    ):
        _, info = solve_skeleton(_pollution_case(kappa, n))
        assert (info.factor_classes, info.lu_nnz) == (classes, w_entries)
        assert info.refine_steps == 1


def test_sweep_keeps_only_w():
    # A sweep keeps W = F_II^-1 F_IB, n_I x n_B per class of tree nodes,
    # and beside it holds the live Schur complements and one front at a
    # time, well within 8 largest fronts.
    disc = _pollution_case(40.0, 63)
    tree = dissection_tree(disc.mesh)
    m = disc.cfg.p + 1
    reps = np.unique(tree.node_class, return_index=True)[1]
    n_i = m * tree.n_elim[reps]
    n_front = m * np.diff(tree.front_ptr)[reps]
    w_entries = int((n_i * (n_front - n_i)).sum())
    tracemalloc.start()
    try:
        _, info = solve_skeleton(disc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.lu_nnz == w_entries
    item = np.dtype(complex).itemsize
    assert peak <= item * (w_entries + 8 * int((n_front**2).max()))


def test_subdomain_resonance_needs_the_second_sweep():
    # kappa = 51.816 is near a Dirichlet eigenvalue of a 4-member internal
    # front class of the n = 64 tree, where one sweep misses the residual
    # contract (4.2e-10 with BLAS on one thread, 3.3e-10 on two) and the
    # refinement's second sweep meets it with room to spare.
    disc = _pollution_case(51.816, 64)
    rhs = disc.rhs()
    once, _ = skeleton._sweep(disc, dissection_tree(disc.mesh), rhs)
    assert skeleton_residual(disc, rhs, once)[1] > RESIDUAL_TOL
    _, info = solve_skeleton(disc)
    assert info.refine_steps == 2
    assert info.residual <= 1e-12


def test_refinement_reruns_the_sweep(monkeypatch):
    # On the resonant case above every refinement sweep factors each
    # class of fronts anew, and the refined traces stay close to the
    # first sweep's.
    disc = _pollution_case(51.816, 64)
    once, _ = skeleton._sweep(disc, dissection_tree(disc.mesh), disc.rhs())
    factored = []
    solve = np.linalg.solve

    def recording_solve(a, *args, **kwargs):
        factored.append(a.shape)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    refined, info = solve_skeleton(disc)
    monkeypatch.undo()
    assert info.refine_steps == 2
    assert len(factored) == info.refine_steps * info.factor_classes
    assert np.abs(refined - once).max() <= 1e-8 * np.abs(refined).max()


def test_one_sweep_that_meets_the_contract_is_kept():
    # Just off that resonance one sweep leaves 3.3e-11: it meets the
    # contract, so no second sweep runs.
    disc = _pollution_case(51.8, 64)
    _, info = solve_skeleton(disc)
    assert info.refine_steps == 1
    assert 1e-12 < info.residual <= RESIDUAL_TOL


def test_nan_residual_names_itself():
    # A source that is NaN near the origin makes the sweep's solution and
    # its residual NaN, which fails the contract and is reported as such.
    mesh = build_structured_mesh(8)
    _, data = benchmark_problem(20.0)

    def nan_near_origin(pts):
        values = data.f(pts)
        values[np.hypot(pts[:, 0], pts[:, 1]) < 0.1] = np.nan
        return values

    disc = discretize(mesh, ProblemConfig.for_mesh(20.0, 2, mesh), nan_near_origin, data.g)
    with pytest.raises(RuntimeError, match=r"skeleton solve residual nan exceeds 1\.0e-10"):
        solve_skeleton(disc)


@pytest.mark.parametrize("make", [perturbed_mesh, fan_strip_mesh, jittered_mesh],
                         ids=["perturbed", "fan-strip", "jittered"])
def test_multifrontal_matches_sparse_lu_and_oracle_without_congruence(make, monkeypatch):
    # Meshes with few or no translated elements run the same path, with
    # about one front per tree node.
    mesh = make()
    cfg = ProblemConfig.for_mesh(9.0, 2, mesh)
    _, data = benchmark_problem(9.0)
    disc = discretize(mesh, cfg, data.f, data.g)
    factored = _record_splu(monkeypatch)
    uhat, _ = solve_skeleton(disc)
    assert factored == []
    monkeypatch.undo()
    lu = spla.splu(global_matrix(disc)).solve(disc.rhs())
    assert np.abs(uhat - lu).max() <= 1e-12 * np.abs(lu).max()
    mono = monolithic_solve(mesh, cfg, data.f, data.g).uhat
    assert np.abs(uhat - mono).max() <= 1e-8 * np.abs(mono).max()


def test_failed_fallback_names_the_residual(monkeypatch):
    # With no refinement step allowed the solve leaves x = 0, whose
    # relative residual is 1.
    monkeypatch.setattr(skeleton, "MAX_REFINE_STEPS", 0)
    with pytest.raises(RuntimeError, match=r"skeleton solve residual 1\.000e\+00 exceeds 1\.0e-10"):
        solve_helmholtz(_pollution_case(20.0, 22))


def test_singular_front_names_its_class(monkeypatch):
    # With every K zero, the first leaf front eliminates its interior
    # edges from a zero block.
    disc = _pollution_case(20.0, 22)
    monkeypatch.setattr(disc.ops, "K", np.zeros_like(disc.ops.K))
    with pytest.raises(RuntimeError, match=(
        r"front of node class 0 is singular \(\d+ of \d+ dofs eliminated\), so the "
        r"skeleton solve cannot meet its residual contract 1\.0e-10"
    )) as failure:
        solve_skeleton(disc)
    assert isinstance(failure.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("slots", [
    [0, 1, 2, 3], [5, 6, 0, 1, 9], [7, 3, 11, 0, 5, 1, 9, 12, 2, 4],
], ids=["one-run", "three-runs", "ten-runs"])
def test_extend_add_by_slices_equals_gather_and_scatter(slots):
    # The slice additions add each entry of the Schur complement once, so
    # they equal the np.ix_ gather and scatter bit for bit.
    m, rng = 3, np.random.default_rng(len(slots))
    slots = np.array(slots)

    def complex_normal(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    front = complex_normal((m * 13, m * 13 + 2))  # 13 edge slots and 2 load columns
    schur = complex_normal((m * slots.size,) * 2)
    want = front.copy()
    dofs = _edge_dofs(slots, m).ravel()
    want[np.ix_(dofs, dofs)] += schur
    _extend_add(front, schur, slots, m)
    assert front.tobytes() == want.tobytes()


def test_condensed_solve_loads_no_scipy_linalg_or_sparse():
    # Only the monolithic oracle loads SciPy's linalg and sparse stacks,
    # which cost about 10 MB of resident memory in every process.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "from helmhdg.diagnostics import run_benchmark_case\n"
        "run_benchmark_case(20, 2, 8)\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
