import math

import numpy as np
import pytest

from helmhdg.hdg_local import (
    CondensedOperators,
    ProblemConfig,
    assemble_local_blocks,
    volume_load,
)
from helmhdg.mesh import ElementGeometry, build_structured_mesh, mesh_entities
from reference import flux_functional, l2_project, local_residual, local_solve

REF_GEOM = ElementGeometry.from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _config(kappa=20.0, p=2, n=4):
    mesh = build_structured_mesh(n)
    return mesh, ProblemConfig.for_mesh(kappa, p, mesh)


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(kappa=-1.0, p=1, tau=1.0)
    with pytest.raises(ValueError):
        ProblemConfig(kappa=1.0, p=0, tau=1.0)
    with pytest.raises(ValueError):
        ProblemConfig(kappa=1.0, p=1, tau=0.0)


@pytest.mark.parametrize("kappa, tau", [
    (float("nan"), 1.0), (float("inf"), 1.0), (20.0, float("nan")),
], ids=["kappa-nan", "kappa-inf", "tau-nan"])
def test_config_rejects_non_finite(kappa, tau):
    with pytest.raises(ValueError, match="finite"):
        ProblemConfig(kappa=kappa, p=1, tau=tau)


def test_tau_follows_mesh():
    kappa, p = 20.0, 2
    coarse = build_structured_mesh(8)
    fine = build_structured_mesh(16)
    tau_c = ProblemConfig.for_mesh(kappa, p, coarse).tau
    tau_f = ProblemConfig.for_mesh(kappa, p, fine).tau
    assert tau_c == pytest.approx(p / (kappa * math.sqrt(2.0) / 8.0))
    assert tau_f == pytest.approx(2.0 * tau_c)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_vector_mass_is_scaled_identity(p):
    mesh, cfg = _config(p=p)
    blocks = assemble_local_blocks(mesh_entities(mesh, 3), cfg)
    n2 = 2 * blocks.n_scalar
    assert np.abs(blocks.A - 1j * cfg.kappa * np.eye(n2)).max() <= 1e-12
    assert np.abs(blocks.M - np.eye(blocks.n_scalar)).max() <= 1e-12


def test_divergence_block_hand_oracle():
    # On the reference element with u = 1: (u, div r)_T = area for
    # r = (x, 0) or (0, y), and 0 for the divergence-free r = (y, 0).
    cfg = ProblemConfig(kappa=20.0, p=2, tau=1.0)
    blocks = assemble_local_blocks(REF_GEOM, cfg)
    ones = l2_project("element", lambda pts: np.ones(len(pts)), 2, REF_GEOM)
    cx = l2_project("element", lambda pts: pts[:, 0], 2, REF_GEOM)
    cy = l2_project("element", lambda pts: pts[:, 1], 2, REF_GEOM)
    zero = np.zeros_like(cx)

    def form_value(r_coef, u_coef):
        return r_coef @ blocks.B @ u_coef

    assert form_value(np.concatenate([cx, zero]), ones) == pytest.approx(0.5, abs=1e-13)
    assert form_value(np.concatenate([zero, cy]), ones) == pytest.approx(0.5, abs=1e-13)
    assert form_value(np.concatenate([cy, zero]), ones) == pytest.approx(0.0, abs=1e-13)


def test_kappa_scaling_of_blocks():
    one = assemble_local_blocks(REF_GEOM, ProblemConfig(kappa=10.0, p=2, tau=0.7))
    two = assemble_local_blocks(REF_GEOM, ProblemConfig(kappa=20.0, p=2, tau=0.7))
    assert np.abs(two.A - 2.0 * one.A).max() == 0.0
    assert np.array_equal(two.B, one.B)
    assert np.array_equal(two.C, one.C)
    assert np.array_equal(two.R, one.R)


def test_degenerate_element_rejected():
    mesh, cfg = _config()
    with pytest.raises(ValueError):
        bad = ElementGeometry(
            vertices=REF_GEOM.vertices,
            area=0.0,
            h=1.0,
            jacobian=REF_GEOM.jacobian,
            det=0.0,
            inv_jt=REF_GEOM.inv_jt,
            normals=REF_GEOM.normals,
            face_lengths=REF_GEOM.face_lengths,
            edge_orient=REF_GEOM.edge_orient,
        )
        assemble_local_blocks(bad, cfg)


def test_zero_data_gives_zero_solution():
    mesh, cfg = _config()
    blocks = assemble_local_blocks(mesh_entities(mesh, 0), cfg)
    Q, U = local_solve(blocks, np.zeros(blocks.n_trace))
    assert np.abs(Q).max() <= 1e-12
    assert np.abs(U).max() <= 1e-12


def test_local_solve_linearity():
    mesh, cfg = _config()
    blocks = assemble_local_blocks(mesh_entities(mesh, 1), cfg)
    rng = np.random.default_rng(17)
    lam = rng.standard_normal(blocks.n_trace) + 1j * rng.standard_normal(blocks.n_trace)
    load = rng.standard_normal(blocks.n_scalar) + 1j * rng.standard_normal(blocks.n_scalar)
    Q1, U1 = local_solve(blocks, lam, load)
    Q2, U2 = local_solve(blocks, 2.0 * lam, 2.0 * load)
    assert np.abs(Q2 - 2.0 * Q1).max() <= 1e-12 * np.abs(Q1).max()
    assert np.abs(U2 - 2.0 * U1).max() <= 1e-12 * np.abs(U1).max()


def test_local_residual_contract():
    mesh, cfg = _config(kappa=40.0, p=3)
    blocks = assemble_local_blocks(mesh_entities(mesh, 7), cfg)
    rng = np.random.default_rng(23)
    lam = rng.standard_normal(blocks.n_trace) + 1j * rng.standard_normal(blocks.n_trace)
    load = rng.standard_normal(blocks.n_scalar) + 1j * rng.standard_normal(blocks.n_scalar)
    Q, U = local_solve(blocks, lam, load)
    assert local_residual(blocks, Q, U, lam, load) <= 1e-10


def test_constant_trace_residual_and_interior():
    # lam = trace of the constant c; with the kappa-consistent source
    # f = i*kappa*c the local solution is exactly (q, u) = (0, c).
    mesh, cfg = _config(kappa=20.0, p=2)
    geom = mesh_entities(mesh, 5)
    blocks = assemble_local_blocks(geom, cfg)
    c = 0.8 - 0.3j
    lam = np.zeros(blocks.n_trace, dtype=complex)
    for face in range(3):
        lam[face * (cfg.p + 1)] = c * math.sqrt(geom.face_lengths[face])

    Q0, U0 = local_solve(blocks, lam)  # f = 0: only the residual contract
    assert local_residual(blocks, Q0, U0, lam) <= 1e-10

    load = volume_load(geom, cfg, lambda pts: np.full(len(pts), 1j * cfg.kappa * c))
    Q, U = local_solve(blocks, lam, load)
    expected_u = l2_project("element", lambda pts: np.full(len(pts), c), cfg.p, geom)
    assert np.abs(Q).max() <= 1e-12
    assert np.abs(U - expected_u).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_condensed_shapes(p):
    mesh, cfg = _config(p=p)
    blocks = assemble_local_blocks(mesh_entities(mesh, 0), cfg)
    ops = CondensedOperators(blocks)
    size = 3 * (p + 1)
    assert ops.K.shape == (size, size)
    assert ops.load_to_flux.shape == (size, blocks.n_scalar)
    assert ops.recon_lam.shape == (3 * blocks.n_scalar, size)
    assert ops.inv_load.shape == (3 * blocks.n_scalar, blocks.n_scalar)
    if p == 1:
        assert ops.K.shape == (6, 6)


def test_condensed_zero_inputs():
    mesh, cfg = _config()
    blocks = assemble_local_blocks(mesh_entities(mesh, 2), cfg)
    ops = CondensedOperators(blocks)
    zero_load = np.zeros(blocks.n_scalar, dtype=complex)
    recon_f = ops.inv_load @ zero_load
    assert np.abs(ops.recon_lam @ np.zeros(blocks.n_trace) + recon_f).max() <= 1e-14
    assert np.abs(ops.load_to_flux @ zero_load).max() <= 1e-14


def test_condensation_matches_direct_flux():
    mesh, cfg = _config(kappa=20.0, p=2)
    blocks = assemble_local_blocks(mesh_entities(mesh, 4), cfg)
    rng = np.random.default_rng(31)
    load = rng.standard_normal(blocks.n_scalar) + 1j * rng.standard_normal(blocks.n_scalar)
    ops = CondensedOperators(blocks)
    F = ops.load_to_flux @ load
    for _ in range(10):
        lam = rng.standard_normal(blocks.n_trace) + 1j * rng.standard_normal(blocks.n_trace)
        Q, U = local_solve(blocks, lam, load)
        direct = flux_functional(blocks, Q, U, lam)
        condensed = ops.K @ lam - F
        assert np.abs(direct - condensed).max() <= 1e-10 * np.abs(direct).max()


def test_condensation_is_schur_complement():
    # Dense oracle: the element system with explicit flux rows is
    # [[L, P], [W, -tau I]]; eliminating (Q, U) must reproduce K.
    mesh, cfg = _config(kappa=20.0, p=1)
    blocks = assemble_local_blocks(mesh_entities(mesh, 3), cfg)
    ops = CondensedOperators(blocks)
    L = blocks.system_matrix()
    P = np.concatenate([blocks.C, -blocks.R], axis=0).astype(complex)
    W = np.concatenate([blocks.C.T, blocks.R.T], axis=1).astype(complex)
    schur = -blocks.tau * np.eye(blocks.n_trace) - W @ np.linalg.solve(L, P)
    assert np.abs(schur - ops.K).max() <= 1e-12 * np.abs(ops.K).max()


def test_condensation_exact_on_every_element_n2():
    mesh = build_structured_mesh(2)
    cfg = ProblemConfig.for_mesh(20.0, 2, mesh)
    rng = np.random.default_rng(6)
    for elem in range(mesh.n_elements):
        blocks = assemble_local_blocks(mesh_entities(mesh, elem), cfg)
        load = rng.standard_normal(blocks.n_scalar) + 1j * rng.standard_normal(blocks.n_scalar)
        ops = CondensedOperators(blocks)
        lam = rng.standard_normal(blocks.n_trace) + 1j * rng.standard_normal(blocks.n_trace)
        Q, U = local_solve(blocks, lam, load)
        direct = flux_functional(blocks, Q, U, lam)
        condensed = ops.K @ lam - ops.load_to_flux @ load
        assert np.abs(direct - condensed).max() <= 1e-10 * np.abs(direct).max()


@pytest.mark.parametrize("kappa", [1.0, 20.0, 100.0])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_wellposedness_grid(kappa, p):
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(kappa, p, mesh)
    max_cond = 0.0
    for elem in range(mesh.n_elements):
        blocks = assemble_local_blocks(mesh_entities(mesh, elem), cfg)
        Q, U = local_solve(blocks, np.zeros(blocks.n_trace))
        assert max(np.abs(Q).max(), np.abs(U).max()) <= 1e-12
        max_cond = max(max_cond, np.linalg.cond(blocks.system_matrix()))
    assert np.isfinite(max_cond)
    print(f"\nlocal condition number (kappa={kappa:g}, p={p}): {max_cond:.3e}")


def test_blocks_are_pure_and_thread_safe():
    # The per-element functions share no mutable state: concurrent
    # assembly across elements must reproduce the serial blocks exactly.
    from concurrent.futures import ThreadPoolExecutor

    mesh, cfg = _config(kappa=20.0, p=2, n=4)
    serial = [assemble_local_blocks(mesh_entities(mesh, e), cfg) for e in range(mesh.n_elements)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(
            pool.map(lambda e: assemble_local_blocks(mesh_entities(mesh, e), cfg),
                     range(mesh.n_elements))
        )
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.S, b.S)
        assert np.array_equal(a.R, b.R)


def _assemble_uncached(geom, cfg):
    """Reference: the local blocks built from fresh reference tables."""
    from helmhdg.polybasis import EdgeBasis, TriangleBasis, quadrature_rule, reference_face_points

    p = cfg.p
    basis = TriangleBasis(p)
    n = basis.dim
    m = p + 1
    rule = quadrature_rule("triangle", 2 * p)
    phi, grad = basis.eval_with_grad(rule.points)
    gphys = np.einsum("qad,cd->qac", grad, geom.inv_jt)
    B = np.einsum("q,qac,qj->caj", rule.weights, gphys, phi).reshape(2 * n, n)
    M = phi.T @ (rule.weights[:, None] * phi)
    A = 1j * cfg.kappa * np.kron(np.eye(2), M)
    edge_basis = EdgeBasis(p)
    face_rule = quadrature_rule("edge", 2 * p)
    C = np.zeros((2 * n, 3 * m))
    S = np.zeros((n, n))
    R = np.zeros((n, 3 * m))
    for face in range(3):
        phi_f = basis.eval(reference_face_points(face, face_rule.points))
        t_global = face_rule.points if geom.edge_orient[face] == 1 else 1.0 - face_rule.points
        psi = edge_basis.eval(t_global)
        lf = geom.face_lengths[face]
        w = face_rule.weights
        sl = slice(face * m, (face + 1) * m)
        trace = math.sqrt(lf / geom.det) * (phi_f.T @ (w[:, None] * psi))
        for c in range(2):
            C[c * n : (c + 1) * n, sl] = geom.normals[face, c] * trace
        S += cfg.tau * (lf / geom.det) * (phi_f.T @ (w[:, None] * phi_f))
        R[:, sl] = cfg.tau * trace
    return {"A": A, "B": B, "C": C, "S": S, "R": R, "M": M}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cached_tables_reproduce_uncached_blocks_exactly(p):
    mesh, cfg = _config(kappa=20.0, p=p, n=4)
    # Elements 0 and 1 carry the two face-orientation patterns of the
    # structured mesh; the third geometry is a perturbed general triangle.
    geoms = [mesh_entities(mesh, 0), mesh_entities(mesh, 1)]
    assert not np.array_equal(geoms[0].edge_orient, geoms[1].edge_orient)
    geoms.append(ElementGeometry.from_vertices(
        [[0.013, -0.021], [0.271, 0.034], [0.052, 0.243]], edge_orient=np.array([1, -1, -1])
    ))
    for geom in geoms:
        blocks = assemble_local_blocks(geom, cfg)
        for name, want in _assemble_uncached(geom, cfg).items():
            got = getattr(blocks, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_cached_tables_are_read_only():
    from helmhdg.hdg_local import reference_tables

    blocks = assemble_local_blocks(REF_GEOM, ProblemConfig(kappa=5.0, p=2, tau=1.0))
    with pytest.raises(ValueError):
        blocks.M[0, 0] = 2.0
    tables = reference_tables(2)
    for name, array in vars(tables).items():
        with pytest.raises(ValueError):
            array[...] = 0.0


@pytest.mark.parametrize("p", [1, 3, 10])
def test_face_products_are_formed_from_the_face_tables(p):
    # The face rule, the element basis on each face and the edge basis per
    # orientation (0: +1 at t, 1: -1 at 1 - t) are kept, and face_trace and
    # face_mass are their products bit for bit, so every reader of the
    # tables integrates on the assembly's rule and orientation convention.
    from helmhdg.hdg_local import reference_tables
    from helmhdg.polybasis import EdgeBasis, TriangleBasis, quadrature_rule, reference_face_points

    ref = reference_tables(p)
    rule = quadrature_rule("edge", 2 * p)
    assert ref.face_weights.tobytes() == rule.weights.tobytes()
    basis, edge = TriangleBasis(p), EdgeBasis(p)
    for face in range(3):
        want = basis.eval(reference_face_points(face, rule.points))
        assert ref.face_phi[face].tobytes() == want.tobytes()
    assert ref.edge_phi[0].tobytes() == edge.eval(rule.points).tobytes()
    assert ref.edge_phi[1].tobytes() == edge.eval(1.0 - rule.points).tobytes()
    w = ref.face_weights[:, None]
    for face, phi_f in enumerate(ref.face_phi):
        assert ref.face_mass[face].tobytes() == (phi_f.T @ (w * phi_f)).tobytes()
        for orient, psi in enumerate(ref.edge_phi):
            assert ref.face_trace[face, orient].tobytes() == (phi_f.T @ (w * psi)).tobytes()
    for array in (ref.face_weights, ref.face_phi, ref.edge_phi):
        assert not array.flags.writeable


def test_sesquilinearity_convention():
    # The assembled system realizes a form that is linear in the trial
    # coefficients and conjugate-linear in the test coefficients.
    mesh, cfg = _config()
    blocks = assemble_local_blocks(mesh_entities(mesh, 0), cfg)
    L = blocks.system_matrix()
    rng = np.random.default_rng(8)
    size = L.shape[0]
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    alpha, beta = 1.3 - 0.2j, -0.4 + 2.1j

    def form(trial, test):
        return np.conj(test) @ (L @ trial)

    assert form(alpha * x, beta * y) == pytest.approx(
        alpha * np.conj(beta) * form(x, y), rel=1e-13
    )
