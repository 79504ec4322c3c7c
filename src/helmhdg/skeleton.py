"""Global skeleton system: assembly, sparse solve, interior reconstruction.

After static condensation the only globally coupled unknowns are the
trace coefficients on mesh edges (p + 1 per edge).  The skeleton rows
enforce continuity of the numerical flux on interior edges and the
impedance condition on boundary edges:

    A = -sum_T scatter(K_T) + I_boundary,
    b = -sum_T scatter(F_T) + g_moments,

where K_T, F_T are the per-element condensed matrices.  Once the traces
are known, interior coefficients are recovered element by element.

`discretize` builds everything a solve and its diagnostics read, once per
(mesh, config, data): the dof map, and per congruence class of elements
(equal Jacobian and face-orientation pattern) the member ids, the
representative geometry, the condensed operators, the data rule with its
basis values and the source moments; plus the boundary data moments.
Uniform meshes contain only a handful of classes, so condensation runs
once per class and is applied to all members in batch; this is exact for
translated elements.  `solve_helmholtz`, `sample_solution` and the
diagnostics read that one `Discretization`, so the data are evaluated
once and the energy identity pairs the solution with the very loads the
solve used.  The discretization holds no sparse matrix, factor or
per-point array, so it adds nothing to the peak memory of the LU.
Assembly order is deterministic (ascending element index with duplicate
summation), so repeated runs are bit-identical.

The skeleton LU factors P A P^T, where P numbers the edges in a
geometric nested-dissection order (`mesh.nested_dissection_edges`):
recursive coordinate bisection of the elements, each separator (the
edges between the two halves) numbered after both halves.  On structured
meshes the separators are grid lines, as in George's nested dissection
of a regular grid.  SuperLU keeps that order (``permc_spec="NATURAL"``)
in symmetric mode, preferring diagonal pivots (threshold 0.1): the
skeleton matrix is structurally symmetric, so diagonal pivots keep the
elimination tree and fill of the symmetric ordering.  On the pollution
meshes this stores 15 % fewer factor entries than minimum degree on
A + A^T, with the same residual contract.  The assembly writes P A P^T
directly, so the factorization holds no second copy of the matrix.

A monolithic solver assembles the uncondensed coupled equations directly
and serves as an independent oracle for the condensed pipeline; it keeps
SuperLU's default COLAMD ordering and pivoting so that it shares no
solver choice with the condensed path.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hdg_local import (
    LocalBlocks,
    ProblemConfig,
    _CondensedOperators,
    assemble_local_blocks,
    volume_load,
)
from .mesh import ElementGeometry, Mesh, mesh_entities, nested_dissection_edges
from .polybasis import (
    EdgeBasis,
    QuadratureRule,
    TriangleBasis,
    quadrature_rule,
    reference_face_points,
)

logger = logging.getLogger(__name__)

#: Refuse monolithic solves beyond this many coupled unknowns.
MONOLITHIC_GUARD = 200_000

#: Relative residual contract of the direct solvers.
RESIDUAL_TOL = 1e-10

SourceFn = Callable[[np.ndarray], np.ndarray]
BoundaryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DofMap:
    """Indexing of skeleton unknowns: p + 1 consecutive dofs per edge."""

    n_dofs: int
    dofs_per_edge: int
    elem_dofs: np.ndarray  # (F, 3(p+1)) gather indices, face-major
    elem_orient: np.ndarray  # (F, 3) orientation flags of the gathered edges

    def gather(self, values: np.ndarray, elem: int) -> np.ndarray:
        return values[self.elem_dofs[elem]]


def build_dof_map(mesh: Mesh, p: int) -> DofMap:
    m = p + 1
    elem_dofs = (m * mesh.elem_edges[:, :, None] + np.arange(m)).reshape(mesh.n_elements, 3 * m)
    return DofMap(
        n_dofs=m * mesh.n_edges,
        dofs_per_edge=m,
        elem_dofs=elem_dofs,
        elem_orient=mesh.elem_edge_orient,
    )


@dataclass(frozen=True)
class SkeletonSystem:
    """Global complex sparse system A uhat = rhs in the edge trace unknowns.

    A is stored once, as the matrix P A P^T that the LU factors: its row
    and column i belong to dof perm[i].
    """

    permuted: sp.csc_matrix  # P A P^T
    rhs: np.ndarray
    perm: np.ndarray  # (n_dofs,) factorization order of the dofs

    @property
    def matrix(self) -> sp.csc_matrix:
        """A in the global dof numbering (a new matrix on every call)."""
        position = np.argsort(self.perm)
        return self.permuted[position][:, position]


@dataclass
class Solution:
    """Coefficients of the discrete solution.

    Q holds per-element flux coefficients (x block then y block), U the
    scalar coefficients, uhat the edge trace coefficients in the global
    edge parametrization.
    """

    Q: np.ndarray  # (F, 2N) complex
    U: np.ndarray  # (F, N) complex
    uhat: np.ndarray  # (n_skeleton_dofs,) complex
    p: int

    def coefficient_norm(self) -> float:
        """Max absolute coefficient across all fields."""
        return max(
            float(np.abs(self.Q).max(initial=0.0)),
            float(np.abs(self.U).max(initial=0.0)),
            float(np.abs(self.uhat).max(initial=0.0)),
        )

    def validate(self, mesh: Mesh) -> None:
        """Check finiteness and size consistency with the mesh and order."""
        n = TriangleBasis(self.p).dim
        if self.Q.shape != (mesh.n_elements, 2 * n) or self.U.shape != (mesh.n_elements, n):
            raise ValueError("interior coefficient arrays inconsistent with mesh and order")
        if self.uhat.shape != ((self.p + 1) * mesh.n_edges,):
            raise ValueError("trace coefficient array inconsistent with mesh and order")
        if not (
            np.all(np.isfinite(self.Q)) and np.all(np.isfinite(self.U))
            and np.all(np.isfinite(self.uhat))
        ):
            raise RuntimeError("non-finite solution coefficients")


@dataclass(frozen=True)
class SolveInfo:
    seconds: float
    n_skeleton_dofs: int
    residual: float
    max_local_cond: float


def _group_elements(mesh: Mesh) -> list[tuple[np.ndarray, int]]:
    """Partition elements into congruence classes sharing all condensation
    operators: equal Jacobian (up to rounding noise of translated
    vertices) and equal face-orientation pattern."""
    v = mesh.vertices
    t = mesh.triangles
    jac = np.stack([v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]], axis=2)  # (F, 2, 2)
    keys = np.round(jac / mesh.h_global, 12).reshape(mesh.n_elements, 4)
    # Bit patterns, so that 0.0 and -0.0 stay distinct keys.
    rows = np.column_stack([keys.view(np.int64), mesh.elem_edge_orient])
    order = np.lexsort(rows.T)  # stable: each class's members in ascending order
    ranked = rows[order]
    start = np.flatnonzero(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)])
    members = np.split(order, start[1:])
    reps = order[start]
    return [(members[k], int(reps[k])) for k in np.argsort(reps)]


@dataclass(frozen=True)
class ElementClass:
    """Congruent elements sharing every condensation operator and the
    data rule; the first member is the representative."""

    ids: np.ndarray  # (nE,) member element ids, ascending
    geom: ElementGeometry  # representative geometry
    ops: _CondensedOperators
    rule: QuadratureRule  # data rule of the representative's size
    phi: np.ndarray  # (nq, N) basis values at the rule points
    f_moments: np.ndarray  # (nE, N) source moments (f, w)
    f_sq: float  # ||f||^2 over the members

    def points(self, mesh: Mesh) -> np.ndarray:
        """Physical data-rule points of every member, shape (nE, nq, 2)."""
        return _data_points(mesh, self.ids, self.geom, self.rule)


def _data_points(
    mesh: Mesh, ids: np.ndarray, geom: ElementGeometry, rule: QuadratureRule
) -> np.ndarray:
    v0 = mesh.vertices[mesh.triangles[ids, 0]]
    return v0[:, None, :] + rule.points @ geom.jacobian.T


@dataclass(frozen=True)
class Discretization:
    """Everything a solve and its diagnostics read for one (mesh, config)
    and data (f, g); built once by `discretize`."""

    mesh: Mesh
    cfg: ProblemConfig
    dof_map: DofMap
    classes: tuple[ElementClass, ...]
    g: BoundaryFn  # kept for the boundary data norm
    g_moments: np.ndarray  # (n_dofs,) boundary data moments <g, mu>
    max_local_cond: float

    def assemble(self) -> SkeletonSystem:
        """The condensed global system a_h(uhat, mu) = b_h(mu), stored as
        P A P^T in the nested-dissection order."""
        m = self.dof_map.dofs_per_edge
        width = 3 * m
        n_dofs = self.dof_map.n_dofs
        perm = (m * nested_dissection_edges(self.mesh)[:, None] + np.arange(m)).ravel()
        position = np.argsort(perm)  # row of each dof in P A P^T
        rows, cols, vals = [], [], []
        rhs = np.zeros(n_dofs, dtype=complex)
        for cls in self.classes:
            gidx = self.dof_map.elem_dofs[cls.ids]  # (nE, 3m)
            pidx = position[gidx]
            rows.append(np.repeat(pidx, width, axis=1).ravel())
            cols.append(np.tile(pidx, (1, width)).ravel())
            vals.append(np.broadcast_to(-cls.ops.K, (len(cls.ids), width, width)).ravel())
            f_flux = cls.f_moments @ cls.ops.load_to_flux.T  # (nE, 3m)
            np.add.at(rhs, gidx.ravel(), -f_flux.ravel())

        bd_edges = np.flatnonzero(self.mesh.boundary_flags)
        bd_dofs = position[(m * bd_edges[:, None] + np.arange(m)).ravel()]
        rows.append(bd_dofs)
        cols.append(bd_dofs)
        vals.append(np.ones(bd_dofs.size, dtype=complex))
        rhs += self.g_moments

        permuted = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_dofs, n_dofs),
        ).tocsc()
        return SkeletonSystem(permuted=permuted, rhs=rhs, perm=perm)

    def reconstruct(self, uhat: np.ndarray) -> Solution:
        """Recover the element coefficients from solved traces."""
        n = TriangleBasis(self.cfg.p).dim
        Q = np.zeros((self.mesh.n_elements, 2 * n), dtype=complex)
        U = np.zeros((self.mesh.n_elements, n), dtype=complex)
        for cls in self.classes:
            lam = uhat[self.dof_map.elem_dofs[cls.ids]]
            x = lam @ cls.ops.recon_lam.T + cls.f_moments @ cls.ops.inv_load.T
            Q[cls.ids] = x[:, : 2 * n]
            U[cls.ids] = x[:, 2 * n :]
        solution = Solution(Q=Q, U=U, uhat=np.asarray(uhat, dtype=complex), p=self.cfg.p)
        solution.validate(self.mesh)
        return solution


def discretize(mesh: Mesh, cfg: ProblemConfig, f: SourceFn, g: BoundaryFn) -> Discretization:
    """Condense each congruence class once, evaluate f once per class and
    g once per boundary quadrature degree."""
    basis = TriangleBasis(cfg.p)
    classes = []
    for ids, rep in _group_elements(mesh):
        geom = mesh_entities(mesh, rep)
        ops = _CondensedOperators(assemble_local_blocks(geom, cfg))
        rule = quadrature_rule("triangle", cfg.data_degree(geom.h))
        phi = basis.eval(rule.points)
        phys = _data_points(mesh, ids, geom, rule).reshape(-1, 2)
        values = np.asarray(f(phys), dtype=complex).reshape(len(ids), -1)
        classes.append(ElementClass(
            ids=ids, geom=geom, ops=ops, rule=rule, phi=phi,
            f_moments=math.sqrt(geom.det) * ((values * rule.weights) @ phi),
            f_sq=geom.det * float((np.abs(values) ** 2 @ rule.weights).sum()),
        ))
        logger.debug(
            "element class of %d (rep %d): local condition number %.3e",
            len(ids), rep, ops.cond,
        )
    disc = Discretization(
        mesh=mesh,
        cfg=cfg,
        dof_map=build_dof_map(mesh, cfg.p),
        classes=tuple(classes),
        g=g,
        g_moments=boundary_loads(mesh, cfg, g),
        max_local_cond=max(cls.ops.cond for cls in classes),
    )
    logger.debug(
        "discretization: kappa=%g p=%d tau=%g, %d element classes, "
        "max local condition number %.3e",
        cfg.kappa, cfg.p, cfg.tau, len(classes), disc.max_local_cond,
    )
    return disc


def boundary_loads(mesh: Mesh, cfg: ProblemConfig, g: BoundaryFn) -> np.ndarray:
    """Boundary data moments <g, mu> as a skeleton-sized vector."""
    m = cfg.p + 1
    basis = EdgeBasis(cfg.p)
    out = np.zeros((mesh.n_edges, m), dtype=complex)
    for edges, rule, lengths, pts, normals in _boundary_batches(mesh, cfg.data_degree):
        values = np.asarray(g(pts, normals), dtype=complex).reshape(len(edges), -1)
        psi = basis.eval(rule.points)
        out[edges] = np.sqrt(lengths)[:, None] * ((values * rule.weights) @ psi)
    return out.ravel()


def _boundary_batches(mesh: Mesh, degree: Callable[[float], int]):
    """Boundary edges grouped by the quadrature degree of their length.

    Per group yields (edge ids, edge rule, lengths (nE,), points (nE*nq, 2),
    outward normals (nE*nq, 2)); points run along the global edge direction,
    edge-major, and the normal is that of the owning element's face.
    """
    edges = np.flatnonzero(mesh.boundary_flags)
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    lengths = np.linalg.norm(b - a, axis=1)
    elem, face = mesh.edge_to_elements[edges, 0].T
    tangent = (
        mesh.vertices[mesh.triangles[elem, (face + 1) % 3]]
        - mesh.vertices[mesh.triangles[elem, face]]
    )
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]
    degrees = np.array([degree(float(length)) for length in lengths], dtype=np.int64)
    for deg in np.unique(degrees):
        sel = degrees == deg
        rule = quadrature_rule("edge", int(deg))
        t = rule.points[None, :, None]
        pts = a[sel, None, :] + t * (b[sel] - a[sel])[:, None, :]
        nrm = np.repeat(normals[sel], rule.n_points, axis=0)
        yield edges[sel], rule, lengths[sel], pts.reshape(-1, 2), nrm


def solve_skeleton(system: SkeletonSystem) -> np.ndarray:
    """Solve the skeleton system by sparse LU of P A P^T in the system's
    nested-dissection order; enforces the residual contract."""
    lu = spla.splu(
        system.permuted, permc_spec="NATURAL", diag_pivot_thresh=0.1,
        options=dict(SymmetricMode=True),
    )
    uhat = np.empty(system.rhs.shape, dtype=complex)
    uhat[system.perm] = lu.solve(system.rhs[system.perm])
    resid = skeleton_residual(system, uhat)
    if resid > RESIDUAL_TOL:
        raise RuntimeError(f"skeleton solve residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return uhat


def skeleton_residual(system: SkeletonSystem, uhat: np.ndarray) -> float:
    """Relative residual ||A uhat - rhs|| / ||rhs|| of a candidate trace
    solution, evaluated as ||P A P^T (P uhat) - P rhs||."""
    perm = system.perm
    rhs_norm = float(np.linalg.norm(system.rhs))
    err = float(np.linalg.norm(system.permuted @ uhat[perm] - system.rhs[perm]))
    if rhs_norm == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return err / rhs_norm


def solve_helmholtz(disc: Discretization) -> tuple[Solution, SolveInfo]:
    """Condensed pipeline on a built discretization: assemble, solve the
    traces, reconstruct."""
    start = time.perf_counter()
    system = disc.assemble()
    uhat = solve_skeleton(system)
    solution = disc.reconstruct(uhat)
    info = SolveInfo(
        seconds=time.perf_counter() - start,
        n_skeleton_dofs=disc.dof_map.n_dofs,
        residual=skeleton_residual(system, uhat),
        max_local_cond=disc.max_local_cond,
    )
    logger.info(
        "solve kappa=%g p=%d h=%g: %d skeleton dofs, residual %.2e, "
        "max local condition number %.3e, %.2f s",
        disc.cfg.kappa, disc.cfg.p, disc.mesh.h_global, info.n_skeleton_dofs, info.residual,
        info.max_local_cond, info.seconds,
    )
    return solution, info


def _grad_trace_block(geom: ElementGeometry, blocks: LocalBlocks) -> np.ndarray:
    """Flux coupling of the scalar equation assembled as written,
    <r.n, w>_dT - (r, grad w)_T, without integrating by parts.

    Equals B^T for exact quadrature; assembled independently so the
    monolithic oracle does not share the condensed path's shortcut.
    """
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


def monolithic_solve(mesh: Mesh, cfg: ProblemConfig, f: SourceFn, g: BoundaryFn) -> Solution:
    """Solve the coupled uncondensed equations as one sparse system.

    Independent oracle for the condensed pipeline on desk-scale meshes;
    refuses problems beyond the size guard.
    """
    n = TriangleBasis(cfg.p).dim
    block = 3 * n
    dof_map = build_dof_map(mesh, cfg.p)
    n_interior = mesh.n_elements * block
    total = n_interior + dof_map.n_dofs
    if total > MONOLITHIC_GUARD:
        raise ValueError(
            f"monolithic solve refused: {total} unknowns exceed guard {MONOLITHIC_GUARD}"
        )

    rows, cols, vals = [], [], []
    rhs = np.zeros(total, dtype=complex)

    def add(r: np.ndarray, c: np.ndarray, block_vals: np.ndarray) -> None:
        rr, cc = np.meshgrid(r, c, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(np.asarray(block_vals, dtype=complex).ravel())

    for elem in range(mesh.n_elements):
        geom = mesh_entities(mesh, elem)
        blocks = assemble_local_blocks(geom, cfg)
        f_load = volume_load(geom, cfg, f)
        o = elem * block
        iq = np.arange(o, o + 2 * n)
        iu = np.arange(o + 2 * n, o + 3 * n)
        ilam = n_interior + dof_map.elem_dofs[elem]

        add(iq, iq, blocks.A)
        add(iq, iu, -blocks.B)
        add(iq, ilam, blocks.C)
        add(iu, iq, _grad_trace_block(geom, blocks))
        add(iu, iu, 1j * cfg.kappa * blocks.M + blocks.S)
        add(iu, ilam, -blocks.R)
        rhs[iu] = f_load

        # Skeleton rows: -<qhat.n, mu> per incident element ...
        add(ilam, iq, -blocks.C.T)
        add(ilam, iu, -blocks.R.T)
        add(ilam, ilam, blocks.tau * np.eye(3 * (cfg.p + 1)))

    # ... plus the boundary mass <uhat, mu> on the impedance boundary.
    m = cfg.p + 1
    bd_edges = np.flatnonzero(mesh.boundary_flags)
    bd_dofs = n_interior + (m * bd_edges[:, None] + np.arange(m)).ravel()
    rows.append(bd_dofs)
    cols.append(bd_dofs)
    vals.append(np.ones(bd_dofs.size, dtype=complex))
    rhs[n_interior:] += boundary_loads(mesh, cfg, g)

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsc()
    x = spla.splu(matrix).solve(rhs)

    rhs_norm = float(np.linalg.norm(rhs))
    resid = float(np.linalg.norm(matrix @ x - rhs))
    if rhs_norm > 0 and resid / rhs_norm > RESIDUAL_TOL:
        raise RuntimeError(f"monolithic residual {resid / rhs_norm:.3e} exceeds {RESIDUAL_TOL:.1e}")

    interior = x[:n_interior].reshape(mesh.n_elements, block)
    return Solution(Q=interior[:, : 2 * n], U=interior[:, 2 * n :], uhat=x[n_interior:], p=cfg.p)


def sample_solution(disc: Discretization, solution: Solution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (u_h, q_h) at the per-element data quadrature points.

    Returns (points, u values, q values) with shapes (K, 2), (K,), (K, 2),
    ordered by ascending element index.
    """
    n = TriangleBasis(disc.cfg.p).dim
    pts_out, u_out, q_out, owners = [], [], [], []
    for cls in disc.classes:
        ids, phi = cls.ids, cls.phi
        scale = 1.0 / math.sqrt(cls.geom.det)
        uh = scale * (solution.U[ids] @ phi.T)
        q1 = scale * (solution.Q[ids, :n] @ phi.T)
        q2 = scale * (solution.Q[ids, n:] @ phi.T)
        pts_out.append(cls.points(disc.mesh).reshape(-1, 2))
        u_out.append(uh.ravel())
        q_out.append(np.stack([q1.ravel(), q2.ravel()], axis=1))
        owners.append(np.repeat(ids, cls.rule.n_points))
    perm = np.argsort(np.concatenate(owners), kind="stable")
    return (
        np.concatenate(pts_out)[perm],
        np.concatenate(u_out)[perm],
        np.concatenate(q_out)[perm],
    )


def write_solution_csv(path: str, disc: Discretization, solution: Solution,
                       header_lines: list[str] | None = None) -> None:
    """Dump (u_h, q_h) at element quadrature points as CSV for plotting."""
    pts, u, q = sample_solution(disc, solution)
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write("x,y,re_u,im_u,re_q1,im_q1,re_q2,im_q2\n")
        for k in range(pts.shape[0]):
            row = (
                pts[k, 0], pts[k, 1],
                u[k].real, u[k].imag,
                q[k, 0].real, q[k, 0].imag,
                q[k, 1].real, q[k, 1].imag,
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
