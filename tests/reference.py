"""Reference computations that only the tests use.

Each one restates a quantity that the package computes another way, so a
test can compare the two: the local equations solved element by element
and their residual, the L2 projection onto one element or edge, the face
moments of the numerical flux taken directly from (Q, U, lam), the
skeleton matrix A in the global dof numbering, the oracle's flux
coupling with the basis evaluated per element, the classes' source
moments taken element by element from the oracle's `volume_load`, and
the trace on the element faces with the edge basis evaluated per element.
It also holds the committed error norms of two pollution cases, which the
pinned-norm test and the mutants that only those norms catch compare
against.
"""

import math

import numpy as np
import scipy.sparse as sp

from helmhdg.analytic import benchmark_problem
from helmhdg.diagnostics import _uhat_on_faces
from helmhdg.hdg_local import LocalBlocks, ProblemConfig, volume_load
from helmhdg.mesh import ElementGeometry, Mesh, mesh_entities
from helmhdg.polybasis import EdgeBasis, TriangleBasis, quadrature_rule, reference_face_points
from helmhdg.skeleton import Discretization, _edge_dofs, discretize

#: (e_u, e_q, e_trace) of `run_benchmark_case(kappa, 2, n)` by (kappa, n),
#: committed values that rounding moves stay within POLLUTION_ERRORS_REL of
#: (below 1e-11 relative so far).
POLLUTION_ERRORS = {
    (20.0, 22): (1.3020709569430908e-4, 2.557847899638756e-4, 1.782511972113704e-3),
    (40.0, 63): (2.460778582832672e-5, 6.211623888193508e-5, 5.763367971498196e-4),
}
POLLUTION_ERRORS_REL = 1e-9


def local_rhs(blocks: LocalBlocks, lam: np.ndarray, f_load: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the local equations for face traces lam and
    source moments f_load."""
    lam = np.asarray(lam, dtype=complex).reshape(blocks.n_trace)
    bottom = blocks.R @ lam
    if f_load is not None:
        bottom = bottom + np.asarray(f_load, dtype=complex).reshape(blocks.n_scalar)
    return np.concatenate([-blocks.C @ lam, bottom])


def local_solve(
    blocks: LocalBlocks, lam: np.ndarray, f_load: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The local equations of one element solved for given face traces and
    source moments, apart from the condensation: the flux and scalar
    coefficient vectors (2N,) and (N,)."""
    x = np.linalg.solve(blocks.system_matrix(), local_rhs(blocks, lam, f_load))
    n2 = 2 * blocks.n_scalar
    return x[:n2], x[n2:]


def l2_project(target: str, function, p: int, geometry, quad_degree: int | None = None) -> np.ndarray:
    """L2-orthogonal projection onto the order-p space of an element or edge.

    In the orthonormal bases the coefficients are plain quadrature inner
    products of the function with each basis member.  For ``target ==
    "element"`` the geometry is an `ElementGeometry`; for ``target ==
    "edge"`` it is the pair of endpoints, shape (2, 2), whose order fixes
    the edge parametrization.
    """
    degree = 2 * p + 10 if quad_degree is None else quad_degree
    if target == "element":
        rule = quadrature_rule("triangle", degree)
        basis = TriangleBasis(p).eval(rule.points)
        values = np.asarray(function(geometry.map_to_physical(rule.points)))
        return math.sqrt(geometry.det) * (basis.T @ (rule.weights * values))
    if target == "edge":
        ends = np.asarray(geometry, dtype=float).reshape(2, 2)
        length = float(np.linalg.norm(ends[1] - ends[0]))
        rule = quadrature_rule("edge", degree)
        basis = EdgeBasis(p).eval(rule.points)
        pts = ends[0] + rule.points[:, None] * (ends[1] - ends[0])
        values = np.asarray(function(pts))
        return math.sqrt(length) * (basis.T @ (rule.weights * values))
    raise ValueError(f"unknown projection target {target!r}")


def local_residual(
    blocks: LocalBlocks,
    Q: np.ndarray,
    U: np.ndarray,
    lam: np.ndarray,
    f_load: np.ndarray | None = None,
) -> float:
    """Relative residual of the local equations at given coefficients."""
    L = blocks.system_matrix()
    x = np.concatenate([np.asarray(Q, dtype=complex), np.asarray(U, dtype=complex)])
    rhs = local_rhs(blocks, lam, f_load)
    scale = max(np.linalg.norm(rhs), np.linalg.norm(L, ord=np.inf) * np.linalg.norm(x), 1e-300)
    return float(np.linalg.norm(L @ x - rhs) / scale)


def flux_functional(blocks: LocalBlocks, Q, U, lam) -> np.ndarray:
    """Face moments <qhat.n, mu> of the numerical flux, one per trace dof."""
    Q = np.asarray(Q, dtype=complex)
    U = np.asarray(U, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    return blocks.C.T @ Q + blocks.R.T @ U - blocks.tau * lam


def global_matrix(disc: Discretization) -> sp.csc_matrix:
    """A = -sum_T scatter(K_T) + I_boundary in the global dof numbering,
    assembled by COO from the element classes."""
    mesh, m = disc.mesh, disc.cfg.p + 1
    rows, cols, vals = [], [], []
    for cls in disc.classes:
        gidx = _edge_dofs(mesh.elem_edges[cls.ids], m).reshape(len(cls.ids), 3 * m)
        rows.append(np.repeat(gidx, 3 * m, axis=1).ravel())
        cols.append(np.tile(gidx, (1, 3 * m)).ravel())
        vals.append(np.broadcast_to(-cls.ops.K, (len(cls.ids), 3 * m, 3 * m)).ravel())
    boundary = _edge_dofs(np.flatnonzero(mesh.boundary_flags), m).ravel()
    rows.append(boundary)
    cols.append(boundary)
    vals.append(np.ones(boundary.size, dtype=complex))
    n_dofs = m * mesh.n_edges
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dofs, n_dofs),
    ).tocsc()


def grad_trace_block(geom: ElementGeometry, blocks: LocalBlocks) -> np.ndarray:
    """<r.n, w>_dT - (r, grad w)_T of one element, with the basis evaluated
    on each call instead of read from `reference_tables`, as a reference
    for the monolithic oracle's flux coupling."""
    p, n = blocks.p, blocks.n_scalar
    basis = TriangleBasis(p)
    rule = quadrature_rule("triangle", 2 * p)
    phi, grad = basis.eval_with_grad(rule.points)
    gphys = np.einsum("qad,cd->qac", grad, geom.inv_jt)
    grad_part = np.einsum("q,qa,qic->ica", rule.weights, phi, gphys).reshape(n, 2 * n)

    face_rule = quadrature_rule("edge", 2 * p)
    trace_part = np.zeros((n, 2 * n))
    for face in range(3):
        phi_f = basis.eval(reference_face_points(face, face_rule.points))
        w = face_rule.weights
        mass = (geom.face_lengths[face] / geom.det) * (phi_f.T @ (w[:, None] * phi_f))
        for c in range(2):
            trace_part[:, c * n : (c + 1) * n] += geom.normals[face, c] * mass
    return trace_part - grad_part


def benchmark_discretization(kappa: float, p: int, mesh: Mesh) -> Discretization:
    """`discretize` of the benchmark problem on `mesh`."""
    _, data = benchmark_problem(kappa)
    return discretize(mesh, ProblemConfig.for_mesh(kappa, p, mesh), data.f, data.g)


def source_moment_deviation(disc: Discretization) -> float:
    """Largest deviation of an element's `ElementClass.f_moments` from the
    oracle's `volume_load` of that element, relative to the latter's
    largest moment.  `volume_load` picks its data rule from the element's
    own size, apart from the rule that `discretize` gives the class."""
    f = benchmark_problem(disc.cfg.kappa)[1].f
    worst = 0.0
    for cls in disc.classes:
        for moments, elem in zip(cls.f_moments, cls.ids):
            ref = volume_load(mesh_entities(disc.mesh, elem), disc.cfg, f)
            worst = max(worst, np.abs(moments - ref).max() / np.abs(ref).max())
    return float(worst)


def uhat_on_faces_loop(disc: Discretization, uhat: np.ndarray, face: int) -> np.ndarray:
    """`diagnostics._uhat_on_faces` element by element, with the edge basis
    evaluated on each call instead of read from `reference_tables`: at t
    on a face of orientation +1, at 1 - t on one of orientation -1."""
    mesh, p = disc.mesh, disc.cfg.p
    basis, t = EdgeBasis(p), quadrature_rule("edge", 2 * p).points
    coeff = uhat.reshape(mesh.n_edges, p + 1)
    out = np.empty((mesh.n_elements, t.size), dtype=complex)
    for elem in range(mesh.n_elements):
        s = t if mesh.elem_edge_orient[elem, face] == 1 else 1.0 - t
        edge = mesh.elem_edges[elem, face]
        out[elem] = basis.eval(s) @ coeff[edge] / np.sqrt(mesh.face_lengths[elem, face])
    return out


def uhat_on_faces_deviation(disc: Discretization, seed: int = 0) -> float:
    """Largest deviation of `_uhat_on_faces` from `uhat_on_faces_loop` over
    the three face slots, for random trace coefficients, relative to the
    loop's largest value."""
    rng = np.random.default_rng(seed)
    size = disc.mesh.n_edges * (disc.cfg.p + 1)
    uhat = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    worst = 0.0
    for face in range(3):
        ref = uhat_on_faces_loop(disc, uhat, face)
        worst = max(worst, np.abs(_uhat_on_faces(disc, uhat, face) - ref).max() / np.abs(ref).max())
    return float(worst)
