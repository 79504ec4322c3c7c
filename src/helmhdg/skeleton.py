"""Global skeleton system: assembly, sparse solve, interior reconstruction.

After static condensation the only globally coupled unknowns are the
trace coefficients on mesh edges (p + 1 per edge).  The skeleton rows
enforce continuity of the numerical flux on interior edges and the
impedance condition on boundary edges:

    A = -sum_T scatter(K_T) + I_boundary,
    b = -sum_T scatter(F_T) + g_moments,

where K_T, F_T are the per-element condensed matrices.  Once the traces
are known, interior coefficients are recovered element by element.

The skeleton unknowns are p + 1 consecutive dofs per edge, in edge order,
so a trace vector reads as an (n_edges, p + 1) array indexed by edge.
`discretize` builds everything a solve and its diagnostics read, once per
(mesh, config, data): per congruence class of elements
(equal Jacobian and face-orientation pattern) the member ids, the
representative geometry, the condensed operators, the data rule with its
basis values, the source moments and ||f||^2; plus the boundary data
moments and ||g||^2, taken from the same values of g.  Uniform meshes
contain only a handful of classes, so condensation runs once per class
and is applied to all members in batch; this is exact for translated
elements.  `solve_helmholtz`, `sample_solution` and the diagnostics read
that one `Discretization`, so the data are evaluated once and the energy
identity pairs the solution with the very loads the solve used.  The
discretization holds no callable, sparse matrix, factor or per-point
array, so it adds nothing to the peak memory of the LU.
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
A + A^T.  The assembly writes P A P^T directly, in complex128.

The factor is computed in complex64, which halves its bytes, from a
temporary complex64 copy of P A P^T that is released once SuperLU has
factored it.  The complex128 accuracy is recovered by iterative
refinement (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 12): starting from x = 0, each step takes the residual
r = P b - P A P^T x in complex128, solves with the complex64 factor for
r / ||r|| (scaled so that complex64 cannot underflow) and adds the
correction times ||r|| to x.  Refinement stops when the relative residual
is at most `REFINE_TOL`, when a step fails to halve it (a step that does
not lower it is discarded), or after `MAX_REFINE_STEPS` solves.  If the
residual then still exceeds the `RESIDUAL_TOL` contract, which happens
when A is too ill-conditioned for complex64, P A P^T is factored once
more in complex128 and refined the same way; if that misses the contract
too, the solve fails and names the residual.  The residual of the last
step is the one `SolveInfo` reports, so no extra product is spent on it.

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

from .analytic import data_quadrature_degree
from .hdg_local import (
    LocalBlocks,
    ProblemConfig,
    CondensedOperators,
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

#: Relative residual at which iterative refinement of the skeleton stops.
REFINE_TOL = 1e-12

#: Most solves with one skeleton factor during refinement.
MAX_REFINE_STEPS = 10

SourceFn = Callable[[np.ndarray], np.ndarray]
BoundaryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _edge_dofs(edges: np.ndarray, m: int) -> np.ndarray:
    """Skeleton dofs of the given edges, m = p + 1 each: edges.shape + (m,)."""
    return m * np.asarray(edges)[..., None] + np.arange(m)


@dataclass(frozen=True)
class SkeletonSystem:
    """Global complex sparse system A uhat = rhs in the edge trace unknowns.

    A is stored once, as the matrix P A P^T that the LU factors: its row
    and column i belong to dof perm[i].
    """

    permuted: sp.csc_matrix  # P A P^T
    rhs: np.ndarray
    perm: np.ndarray  # (n_dofs,) factorization order of the dofs


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
    refine_steps: int
    refactored: bool
    lu_nnz: int


def _group_elements(mesh: Mesh) -> list[tuple[np.ndarray, int]]:
    """Partition elements into congruence classes sharing all condensation
    operators: equal Jacobian (up to rounding noise of translated
    vertices) and equal face-orientation pattern."""
    keys = np.round(mesh.jacobians / mesh.h_global, 12).reshape(mesh.n_elements, 4)
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
    ops: CondensedOperators
    rule: QuadratureRule  # data rule of the representative's size
    phi: np.ndarray  # (nq, N) basis values at the rule points
    f_moments: np.ndarray  # (nE, N) source moments (f, w)
    f_sq: float  # ||f||^2 over the members

    def points(self, mesh: Mesh) -> np.ndarray:
        """Physical data-rule points of every member, shape (nE, nq, 2)."""
        return _data_points(mesh, self.ids, self.geom, self.rule)

    def fields(self, solution: Solution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """u_h, q_1 and q_2 at the members' data points, each (nE, nq)."""
        n = self.phi.shape[1]
        scale = 1.0 / math.sqrt(self.geom.det)
        return (
            scale * (solution.U[self.ids] @ self.phi.T),
            scale * (solution.Q[self.ids, :n] @ self.phi.T),
            scale * (solution.Q[self.ids, n:] @ self.phi.T),
        )


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
    classes: tuple[ElementClass, ...]
    g_moments: np.ndarray  # (n_dofs,) boundary data moments <g, mu>
    g_sq: float  # ||g||^2 over the boundary
    max_local_cond: float

    def assemble(self) -> SkeletonSystem:
        """The condensed global system a_h(uhat, mu) = b_h(mu), stored as
        P A P^T in the nested-dissection order."""
        mesh, m = self.mesh, self.cfg.p + 1
        n_dofs = m * mesh.n_edges
        perm = _edge_dofs(nested_dissection_edges(mesh), m).ravel()
        position = np.argsort(perm)  # row of each dof in P A P^T
        rows, cols, vals = [], [], []
        rhs = np.zeros(n_dofs, dtype=complex)
        for cls in self.classes:
            gidx = _edge_dofs(mesh.elem_edges[cls.ids], m).reshape(len(cls.ids), 3 * m)
            pidx = position[gidx]
            rows.append(np.repeat(pidx, 3 * m, axis=1).ravel())
            cols.append(np.tile(pidx, (1, 3 * m)).ravel())
            vals.append(np.broadcast_to(-cls.ops.K, (len(cls.ids), 3 * m, 3 * m)).ravel())
            f_flux = cls.f_moments @ cls.ops.load_to_flux.T  # (nE, 3m)
            np.add.at(rhs, gidx.ravel(), -f_flux.ravel())

        bd_dofs = position[_edge_dofs(np.flatnonzero(mesh.boundary_flags), m).ravel()]
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
        traces = uhat.reshape(self.mesh.n_edges, self.cfg.p + 1)
        for cls in self.classes:
            lam = traces[self.mesh.elem_edges[cls.ids]].reshape(len(cls.ids), -1)
            x = lam @ cls.ops.recon_lam.T + cls.f_moments @ cls.ops.inv_load.T
            Q[cls.ids] = x[:, : 2 * n]
            U[cls.ids] = x[:, 2 * n :]
        solution = Solution(Q=Q, U=U, uhat=np.asarray(uhat, dtype=complex), p=self.cfg.p)
        solution.validate(self.mesh)
        return solution


def discretize(mesh: Mesh, cfg: ProblemConfig, f: SourceFn, g: BoundaryFn) -> Discretization:
    """Condense each congruence class once, evaluate f once per class and
    g once; the data norms come from the same values."""
    basis = TriangleBasis(cfg.p)
    classes = []
    for ids, rep in _group_elements(mesh):
        geom = mesh_entities(mesh, rep)
        ops = CondensedOperators(assemble_local_blocks(geom, cfg))
        rule = quadrature_rule("triangle", data_quadrature_degree(cfg.p, cfg.kappa, geom.h))
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
    g_moments, g_sq = boundary_loads(mesh, cfg, g)
    disc = Discretization(
        mesh=mesh,
        cfg=cfg,
        classes=tuple(classes),
        g_moments=g_moments,
        g_sq=g_sq,
        max_local_cond=max(cls.ops.cond for cls in classes),
    )
    logger.debug(
        "discretization: kappa=%g p=%d tau=%g, %d element classes, "
        "max local condition number %.3e",
        cfg.kappa, cfg.p, cfg.tau, len(classes), disc.max_local_cond,
    )
    return disc


def boundary_loads(mesh: Mesh, cfg: ProblemConfig, g: BoundaryFn) -> tuple[np.ndarray, float]:
    """Boundary data moments <g, mu> as a skeleton-sized vector, and
    ||g||^2 over the boundary from the same values of g.

    g runs once, on the edge data rule of the global mesh size (as does the
    trace error) along every boundary edge's global direction, edge-major,
    with the outward normal of the owning element's face; that face's
    length scales both results.
    """
    rule = quadrature_rule("edge", data_quadrature_degree(cfg.p, cfg.kappa, mesh.h_global))
    edges = np.flatnonzero(mesh.boundary_flags)
    elem, face = mesh.edge_to_elements[edges, 0].T
    lengths = mesh.face_lengths[elem, face]
    pts = mesh.edge_points(edges, rule.points).reshape(-1, 2)
    nrm = np.repeat(mesh.normals[elem, face], rule.n_points, axis=0)
    values = np.asarray(g(pts, nrm), dtype=complex).reshape(len(edges), -1)
    out = np.zeros((mesh.n_edges, cfg.p + 1), dtype=complex)
    out[edges] = np.sqrt(lengths)[:, None] * (
        (values * rule.weights) @ EdgeBasis(cfg.p).eval(rule.points))
    return out.ravel(), float(lengths @ (np.abs(values) ** 2 @ rule.weights))


@dataclass(frozen=True)
class SkeletonSolution:
    """Traces from `solve_skeleton` and how they were reached."""

    uhat: np.ndarray  # (n_dofs,) complex128, global dof numbering
    residual: float  # relative residual ||A uhat - rhs|| / ||rhs||
    refine_steps: int  # solves with the factor that produced uhat
    refactored: bool  # complex64 refinement missed the contract
    lu_nnz: int  # stored entries of that factor


def solve_skeleton(system: SkeletonSystem) -> SkeletonSolution:
    """Solve the skeleton system by a complex64 LU of P A P^T in the
    system's nested-dissection order and complex128 iterative refinement;
    refactors once in complex128 if the residual contract is missed."""
    rhs = system.rhs[system.perm]
    for dtype in (np.complex64, np.complex128):
        x, resid, steps, lu_nnz = _factor_and_refine(system.permuted, rhs, dtype)
        if resid <= RESIDUAL_TOL:
            break
        logger.info("%s refinement stopped at residual %.2e after %d steps",
                    np.dtype(dtype).name, resid, steps)
    else:
        raise RuntimeError(f"skeleton solve residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    uhat = np.empty(rhs.shape, dtype=complex)
    uhat[system.perm] = x
    return SkeletonSolution(
        uhat=uhat, residual=resid, refine_steps=steps,
        refactored=dtype is np.complex128, lu_nnz=lu_nnz,
    )


def _factor_and_refine(
    matrix: sp.csc_matrix, rhs: np.ndarray, dtype: type
) -> tuple[np.ndarray, float, int, int]:
    """Factor `matrix` in `dtype` and refine x from 0 against `matrix` in
    complex128.  Returns x, its relative residual, the number of solves
    and the stored entries of the factor; the factor and the cast copy of
    the matrix are released on return."""
    lu = spla.splu(
        matrix.astype(dtype, copy=False), permc_spec="NATURAL", diag_pivot_thresh=0.1,
        options=dict(SymmetricMode=True),
    )
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    r, resid, steps = rhs, (1.0 if rhs_norm > 0.0 else 0.0), 0
    while resid > REFINE_TOL and steps < MAX_REFINE_STEPS:
        scale = float(np.linalg.norm(r))
        trial = x + scale * lu.solve((r / scale).astype(dtype, copy=False))
        trial_r = rhs - matrix @ trial
        trial_resid = float(np.linalg.norm(trial_r)) / rhs_norm
        steps += 1
        halved = trial_resid <= 0.5 * resid
        if trial_resid < resid:
            x, r, resid = trial, trial_r, trial_resid
        if not halved:
            break
    return x, resid, steps, lu.nnz


def skeleton_residual(system: SkeletonSystem, uhat: np.ndarray) -> float:
    """Relative residual ||A uhat - rhs|| / ||rhs|| of a candidate trace
    solution, evaluated as ||P A P^T (P uhat) - P rhs||."""
    rhs = system.rhs[system.perm]
    rhs_norm = float(np.linalg.norm(rhs))
    err = float(np.linalg.norm(system.permuted @ uhat[system.perm] - rhs))
    if rhs_norm == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return err / rhs_norm


def solve_helmholtz(disc: Discretization) -> tuple[Solution, SolveInfo]:
    """Condensed pipeline on a built discretization: assemble, solve the
    traces, reconstruct."""
    start = time.perf_counter()
    system = disc.assemble()
    traces = solve_skeleton(system)
    solution = disc.reconstruct(traces.uhat)
    info = SolveInfo(
        seconds=time.perf_counter() - start,
        n_skeleton_dofs=traces.uhat.size,
        residual=traces.residual,
        max_local_cond=disc.max_local_cond,
        refine_steps=traces.refine_steps,
        refactored=traces.refactored,
        lu_nnz=traces.lu_nnz,
    )
    logger.info(
        "solve kappa=%g p=%d h=%g: %d skeleton dofs, %d LU entries, residual %.2e "
        "after %d refinement steps%s, max local condition number %.3e, %.2f s",
        disc.cfg.kappa, disc.cfg.p, disc.mesh.h_global, info.n_skeleton_dofs, info.lu_nnz,
        info.residual, info.refine_steps, " (refactored in complex128)" if info.refactored else "",
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
    m = cfg.p + 1
    n_interior = mesh.n_elements * block
    total = n_interior + m * mesh.n_edges
    if total > MONOLITHIC_GUARD:
        raise ValueError(
            f"monolithic solve refused: {total} unknowns exceed guard {MONOLITHIC_GUARD}"
        )

    # The trace layout is written out here, so that the oracle shares no
    # indexing with the condensed assembly.
    def trace_dofs(edges: np.ndarray) -> np.ndarray:
        return n_interior + (m * edges[:, None] + np.arange(m)).ravel()

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
        ilam = trace_dofs(mesh.elem_edges[elem])

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
        add(ilam, ilam, blocks.tau * np.eye(3 * m))

    # ... plus the boundary mass <uhat, mu> on the impedance boundary.
    bd_dofs = trace_dofs(np.flatnonzero(mesh.boundary_flags))
    rows.append(bd_dofs)
    cols.append(bd_dofs)
    vals.append(np.ones(bd_dofs.size, dtype=complex))
    rhs[n_interior:] += boundary_loads(mesh, cfg, g)[0]

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
    pts_out, u_out, q_out, owners = [], [], [], []
    for cls in disc.classes:
        uh, q1, q2 = cls.fields(solution)
        pts_out.append(cls.points(disc.mesh).reshape(-1, 2))
        u_out.append(uh.ravel())
        q_out.append(np.stack([q1.ravel(), q2.ravel()], axis=1))
        owners.append(np.repeat(cls.ids, cls.rule.n_points))
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
        columns = [pts, u.real, u.imag, q[:, 0].real, q[:, 0].imag, q[:, 1].real, q[:, 1].imag]
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")
