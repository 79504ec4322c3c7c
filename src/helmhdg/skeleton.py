"""Global skeleton system: class-wise operator, multifrontal solve, reconstruction.

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
(mesh, config, data): per congruence class of elements (`Mesh.elem_class`)
the member ids, the data rule with its basis values, the source moments
and ||f||^2; the condensed operators of all classes, stacked, from one
batched assembly of the class representatives; plus the boundary data
moments and ||g||^2, taken from the same values of g.  Uniform meshes
contain only a handful of classes, so condensation runs once per class
and is applied to all members in batch; this is exact for translated
elements.  `solve_helmholtz`, `sample_solution` and the diagnostics read
that one `Discretization`, so the data are evaluated once and the energy
identity pairs the solution with the very loads the solve used.  The
discretization holds no callable, sparse matrix, factor or per-point
array, so it adds nothing to the peak memory of the solve.  The data are
evaluated on `blocks` of at most `BLOCK_POINTS` points (one element or
edge at least), so the transient memory does not grow with the data rule,
whose degree grows with kappa h.  Every element sample maps its points by
`Mesh.element_points` and evaluates u_h and q_h by `Solution.fields`: the
source loads and error norms with a class representative's J and det J,
`sample_solution` with each element's own, at the (p + 1)^2 points of the
degree-2p rule of `reference_tables`, so the solution CSV has a fixed
number of rows per element whatever kappa h.
Every sum runs in a fixed order (each edge gathers its one or two
element faces in element-major order, and each front is assembled once,
from its class's first member), so repeated runs are bit-identical.

The skeleton system is solved by multifrontal nested dissection (George,
SIAM J. Numer. Anal. 10, 1973; Duff and Reid, ACM TOMS 9, 1983) over the
tree of `mesh.dissection_tree`: recursive coordinate bisection of the
elements, whose separators on structured meshes are grid lines.  Each
tree node eliminates its separator edges from a dense front, a leaf's
assembled from its elements' -K_T, an internal node's from the extend-add
of its children's Schur complements, and passes its Schur complement on
the interface edges to its parent.  Fronts list their edges side by side
(`mesh.dissection_tree`), so on grid lines a child's interface is a few
contiguous runs of its parent's front and the extend-add adds slices, with
no gathered copy.  As in the hierarchical merge of Gillman and Martinsson
(SIAM J. Sci. Comput. 36, 2014), translated nodes with the same element
classes and boundary pattern have bit-identical fronts, so each
congruence class of nodes is factored once, by one dense complex128 LU
solve of NumPy's LAPACK, in one sweep that runs batched over the class's
members; a mesh with no congruence gets one class per node on the same
path.  A is never assembled: the rhs and every product A x are taken
class by class from the element operators.  The solve has one right-hand
side, so the sweep eliminates the load while it factors (Liu, SIAM Review
34, 1992): children first, each class solves F_II for W = F_II^-1 F_IB
and its members' eliminated load at once, forms F_BB - F_BI W in the
buffer of the product F_BI W and passes it up, and then keeps only W,
freeing the front, so that the back substitution, parents first, reads W
alone.  Starting from x = 0, each refinement step adds one sweep's
solution for the residual of x (`skeleton_residual`) while the relative
residual misses the `RESIDUAL_TOL` contract, and keeps it; refinement
stops early when a step fails to halve the residual or `MAX_REFINE_STEPS`
sweeps are spent.  One sweep usually meets the contract; a front whose
eliminated block is near a subdomain resonance needs a second.  A
residual that still misses the contract, NaN included, fails the solve
and is named.  The W of a sweep live only inside it.

A monolithic solver assembles the uncondensed coupled equations directly
and serves as an independent oracle for the condensed pipeline; it keeps
SuperLU's default COLAMD ordering and pivoting so that it shares no
solver choice with the condensed path.  It alone imports SciPy's sparse
stack (and with it ``scipy.linalg``), so a process that only runs the
condensed solve loads neither.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import data_quadrature_degree
from .hdg_local import (
    ProblemConfig,
    CondensedOperators,
    assemble_local_blocks,
    reference_tables,
    volume_load,
)
from .mesh import DissectionTree, Mesh, dissection_tree
from .polybasis import (
    EdgeBasis,
    QuadratureRule,
    TriangleBasis,
    quadrature_rule,
)

logger = logging.getLogger(__name__)

#: Refuse monolithic solves beyond this many coupled unknowns.
MONOLITHIC_GUARD = 200_000

#: Relative residual contract of the direct solvers.
RESIDUAL_TOL = 1e-10

#: Most multifrontal sweeps during refinement.
MAX_REFINE_STEPS = 10

#: Points whose data one call evaluates: a block takes as many elements,
#: or edges, as fit at its rule's points per item (see `blocks`).  This
#: bounds the transient memory of the source loads, the error norms, the
#: CSV dump and the projection check of `hdg verify`, however fine the data
#: rule gets with kappa h.  2^12 points hold 163 elements or 819 edges of
#: the 25- and 5-point data rules of p = 2 at kappa h <= 1.  The budget is
#: fixed, so repeat runs are bit-identical; another value would move the
#: last digits of the sums over the rule points (see `blocks`).
BLOCK_POINTS = 2**12

SourceFn = Callable[[np.ndarray], np.ndarray]
BoundaryFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def blocks(count: int, points: int) -> list[slice]:
    """Consecutive slices covering range(count), each of as many items of
    `points` points as fit in `BLOCK_POINTS`, and at least one.  Where two
    fit, a lone trailing item joins the block before it, so that BLAS takes
    its products with the basis values by the matrix-matrix kernel, as for
    any other block, not the matrix-vector one, which rounds differently.
    The sums over the rule points (source moments, ||f||^2, error norms)
    are BLAS products that round a row by its position in the block (for
    `@ weights`, modulo 4), so they depend on where the blocks end: results
    are bit-identical at the fixed budget, not independent of it."""
    size = max(1, BLOCK_POINTS // points)
    starts = list(range(0, count, size))
    if size > 1 and len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _edge_dofs(edges: np.ndarray, m: int) -> np.ndarray:
    """Skeleton dofs of the given edges, m = p + 1 each: edges.shape + (m,)."""
    return m * np.asarray(edges)[..., None] + np.arange(m)


def _sum_faces(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-face values of every element, (F, 3m) face-major, summed into
    the skeleton dofs of the faces' edges: each edge gathers its one or
    two incidences."""
    per_face = values.reshape(mesh.n_elements, 3, -1)
    (e1, f1), (e2, f2) = mesh.edge_to_elements[:, 0].T, mesh.edge_to_elements[:, 1].T
    out = per_face[e1, f1]
    interior = ~mesh.boundary_flags
    out[interior] += per_face[e2[interior], f2[interior]]
    return out.ravel()


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

    def fields(
        self, elements: np.ndarray | slice, phi: np.ndarray, dets: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """u_h (nE, nq) and q_h (nE, nq, 2) on the nE given elements where
        the reference basis takes the values `phi` (nq, N); `dets` is their
        det J, one shared (a class representative's) or one per element.
        A lone element is evaluated as a pair, so that BLAS rounds its row
        by the matrix-matrix kernel of any other block, not matrix-vector:
        the values on a range of elements are rows of the values on all of
        them, bit for bit (what the callers sum from them is not; see
        `blocks`)."""
        n = phi.shape[1]
        rows = [self.U[elements], self.Q[elements, :n], self.Q[elements, n:]]
        k = len(rows[0])
        scale = 1.0 / np.sqrt(np.reshape(dets, (-1, 1)))
        u, q1, q2 = (scale * ((np.repeat(r, 2, axis=0) if k == 1 else r) @ phi.T)[:k] for r in rows)
        return u, np.stack([q1, q2], axis=-1)

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
    """What one skeleton solve measured, built by `solve_skeleton`.
    `seconds` spans the right-hand side, the tree, the sweeps and the
    residuals; the reconstruction of the element coefficients is not in it."""

    seconds: float
    n_skeleton_dofs: int
    residual: float  # relative residual ||A uhat - rhs|| / ||rhs||
    max_local_cond: float  # largest condition number of the element classes' local systems
    refine_steps: int  # multifrontal sweeps
    factor_classes: int  # distinct dense fronts that each sweep factors
    lu_nnz: int  # entries of W = F_II^-1 F_IB a sweep keeps, sum of n_I n_B over classes


def _members(classes: np.ndarray) -> list[np.ndarray]:
    """Ids of each class's members in ascending order, for classes
    numbered 0, 1, ...: the first member is the class's representative."""
    by_class = np.argsort(classes, kind="stable")
    return np.split(by_class, np.cumsum(np.bincount(classes))[:-1])


@dataclass(frozen=True)
class ElementClass:
    """Congruent elements sharing every condensation operator and the
    data rule; the first member is the representative, whose J and det J
    the source loads and the error norms read for all members."""

    ids: np.ndarray  # (nE,) member element ids, ascending
    rule: QuadratureRule  # data rule of the representative's size
    phi: np.ndarray  # (nq, N) basis values at the rule points
    f_moments: np.ndarray  # (nE, N) source moments (f, w)
    f_sq: float  # ||f||^2 over the members


@dataclass(frozen=True)
class Discretization:
    """Everything a solve and its diagnostics read for one (mesh, config)
    and data (f, g); built once by `discretize`."""

    mesh: Mesh
    cfg: ProblemConfig
    classes: tuple[ElementClass, ...]  # classes[k] holds the elements of Mesh.elem_class k
    ops: CondensedOperators  # stacked over the classes: index k condenses class k
    g_moments: np.ndarray  # (n_dofs,) boundary data moments <g, mu>
    g_sq: float  # ||g||^2 over the boundary

    def rhs(self) -> np.ndarray:
        """b = -sum_T scatter(F_T) + g_moments, in the global dof numbering."""
        flux = np.empty((self.mesh.n_elements, 3 * (self.cfg.p + 1)), dtype=complex)
        for k, cls in enumerate(self.classes):
            flux[cls.ids] = cls.f_moments @ self.ops.load_to_flux[k].T
        return self.g_moments - _sum_faces(self.mesh, flux)

    def apply(self, uhat: np.ndarray) -> np.ndarray:
        """A uhat = -sum_T scatter(K_T uhat_T) + I_boundary uhat, class by
        class, with no global matrix."""
        mesh, m = self.mesh, self.cfg.p + 1
        traces = uhat.reshape(mesh.n_edges, m)
        flux = np.empty((mesh.n_elements, 3 * m), dtype=complex)
        for k, cls in enumerate(self.classes):
            lam = traces[mesh.elem_edges[cls.ids]].reshape(len(cls.ids), -1)
            flux[cls.ids] = lam @ self.ops.K[k].T
        return np.where(mesh.boundary_flags[:, None], traces, 0.0).ravel() - _sum_faces(mesh, flux)

    def reconstruct(self, uhat: np.ndarray) -> Solution:
        """Recover the element coefficients from solved traces."""
        n = TriangleBasis(self.cfg.p).dim
        Q = np.zeros((self.mesh.n_elements, 2 * n), dtype=complex)
        U = np.zeros((self.mesh.n_elements, n), dtype=complex)
        traces = uhat.reshape(self.mesh.n_edges, self.cfg.p + 1)
        for k, cls in enumerate(self.classes):
            lam = traces[self.mesh.elem_edges[cls.ids]].reshape(len(cls.ids), -1)
            x = lam @ self.ops.recon_lam[k].T + cls.f_moments @ self.ops.inv_load[k].T
            Q[cls.ids] = x[:, : 2 * n]
            U[cls.ids] = x[:, 2 * n :]
        solution = Solution(Q=Q, U=U, uhat=np.asarray(uhat, dtype=complex), p=self.cfg.p)
        solution.validate(self.mesh)
        return solution


def discretize(mesh: Mesh, cfg: ProblemConfig, f: SourceFn, g: BoundaryFn) -> Discretization:
    """Condense the class representatives in one batched call, evaluate f
    over `blocks` of each class's members and g once; the data norms come
    from the same values."""
    basis = TriangleBasis(cfg.p)
    members = _members(mesh.elem_class)
    ops = CondensedOperators(assemble_local_blocks(mesh, [ids[0] for ids in members], cfg))
    classes = []
    for k, ids in enumerate(members):
        rep = ids[0]
        h, det = mesh.face_lengths[rep].max(), float(mesh.dets[rep])
        rule = quadrature_rule("triangle", data_quadrature_degree(cfg.p, cfg.kappa, h))
        phi = basis.eval(rule.points)
        f_moments = np.empty((len(ids), basis.dim), dtype=complex)
        f_sq = np.empty(len(ids))
        for sel in blocks(len(ids), rule.n_points):
            phys = mesh.element_points(ids[sel], rule.points, mesh.jacobians[rep]).reshape(-1, 2)
            values = np.asarray(f(phys), dtype=complex).reshape(-1, rule.n_points)
            f_moments[sel] = (values * rule.weights) @ phi
            f_sq[sel] = np.abs(values) ** 2 @ rule.weights
        classes.append(ElementClass(
            ids=ids, rule=rule, phi=phi,
            f_moments=math.sqrt(det) * f_moments, f_sq=det * float(f_sq.sum()),
        ))
        logger.debug(
            "element class of %d (rep %d): local condition number %.3e",
            len(ids), rep, ops.cond[k],
        )
    g_moments, g_sq = boundary_loads(mesh, cfg, g)
    logger.debug(
        "discretization: kappa=%g p=%d tau=%g, %d element classes, "
        "max local condition number %.3e",
        cfg.kappa, cfg.p, cfg.tau, len(classes), ops.cond.max(),
    )
    return Discretization(
        mesh=mesh, cfg=cfg, classes=tuple(classes), ops=ops, g_moments=g_moments, g_sq=g_sq
    )


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


def _extend_add(front: np.ndarray, schur: np.ndarray, slots: np.ndarray, m: int) -> None:
    """front[dofs, dofs] += schur, where dofs are the skeleton dofs of the
    front slots of a child's interface edges: one slice addition per pair
    of contiguous runs of slots (at most 4 runs on structured meshes), so
    no gathered copy of the front is made."""
    cut = np.flatnonzero(np.diff(slots) != 1) + 1
    runs = [
        (slice(m * a, m * b), slice(m * slots[a], m * (slots[a] + b - a)))
        for a, b in zip(np.r_[0, cut], np.r_[cut, slots.size])
    ]
    for rows, to_rows in runs:
        for cols, to_cols in runs:
            front[to_rows, to_cols] += schur[rows, cols]


def _sweep(disc: Discretization, tree: DissectionTree, b: np.ndarray) -> tuple[np.ndarray, int]:
    """A^-1 b by one multifrontal sweep: returns x and the entries of
    W = F_II^-1 F_IB kept for the back substitution.

    Children first, each class of congruent tree nodes builds its front
    once, with its members' loads in the columns after it (a leaf's from -K
    of its elements plus the identity on its boundary edges, an internal
    node's by extend-add of its children's Schur complements F_BB - F_BI W,
    each freed once its last parent class is built).  One dense solve
    gives W and the eliminated loads, and one product F_BI [W | y], whose
    buffer then takes F_BB - F_BI W and the load update of the interface;
    the front is then freed.  The back substitution runs parents first on
    W alone.  Siblings may share interface dofs, hence the unbuffered
    addition.  A singular front fails the solve and names its class.
    """
    mesh, m = disc.mesh, disc.cfg.p + 1
    minus_k = -disc.ops.K
    members = _members(tree.node_class)
    last_parent = {}  # class -> last class whose front takes its Schur complement
    for c, nodes in enumerate(members):
        if tree.children[nodes[0], 0] >= 0:
            for child in tree.children[nodes[0]]:
                last_parent[tree.node_class[child]] = c
    by_leaf = np.argsort(tree.elem_leaf, kind="stable")
    leaf_ptr = np.searchsorted(tree.elem_leaf[by_leaf], np.arange(tree.n_elim.size + 1))
    position = np.empty(mesh.n_edges, dtype=np.int64)  # edge -> slot in the current front
    schur: dict[int, np.ndarray] = {}
    kept = []  # (eliminated dofs, interface dofs, W) of each class
    x = b.copy()
    for c, nodes in enumerate(members):
        rep = nodes[0]
        edges = tree.front(rep)
        position[edges] = np.arange(edges.size)
        n_f, n_i = m * edges.size, m * tree.n_elim[rep]
        n_b = n_f - n_i
        dofs = _edge_dofs(tree.front_edges[tree.front_ptr[nodes][:, None] + np.arange(edges.size)], m)
        elim, iface = np.split(dofs.reshape(len(nodes), -1), [n_i], axis=1)
        front = np.zeros((n_f, n_f + len(nodes)), dtype=complex)
        front[:n_i, n_f:] = x[elim].T
        if tree.children[rep, 0] < 0:
            elems = by_leaf[leaf_ptr[rep] : leaf_ptr[rep + 1]]
            dofs = _edge_dofs(position[mesh.elem_edges[elems]], m).reshape(len(elems), -1)
            np.add.at(front, (dofs[:, :, None], dofs[:, None, :]), minus_k[mesh.elem_class[elems]])
            boundary = _edge_dofs(position[edges[mesh.boundary_flags[edges]]], m).ravel()
            front[boundary, boundary] += 1.0
        else:
            child_classes = tree.node_class[tree.children[rep]]
            for child, k in zip(tree.children[rep], child_classes):
                _extend_add(front, schur[k], position[tree.front(child)[tree.n_elim[child] :]], m)
            for k in set(child_classes.tolist()):
                if last_parent[k] == c:
                    del schur[k]
        try:
            solved = np.linalg.solve(front[:n_i, :n_i], front[:n_i, n_i:])  # [W | y]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"front of node class {c} is singular ({n_i} of {n_f} dofs eliminated), "
                f"so the skeleton solve cannot meet its residual contract {RESIDUAL_TOL:.1e}"
            ) from exc
        x[elim] = solved[:, n_b:].T
        update = front[n_i:, :n_i] @ solved
        np.subtract(front[n_i:, n_i:], update, out=update)  # [F_BB - F_BI W | -F_BI y]
        np.add.at(x, iface.ravel(), update[:, n_b:].T.ravel())
        if c in last_parent:
            schur[c] = update[:, :n_b]
        kept.append((elim, iface, solved[:, :n_b]))
        del front, update  # before the next class allocates its own
    for elim, iface, w in reversed(kept):
        x[elim] -= x[iface] @ w.T
    return x, sum(w.size for _, _, w in kept)


def solve_skeleton(disc: Discretization) -> tuple[np.ndarray, SolveInfo]:
    """Solve the skeleton system by multifrontal nested dissection over
    congruence classes of subdomains, with iterative refinement against
    the class-wise A; each refinement step runs one sweep on the residual.
    Returns the traces and what the solve measured."""
    start = time.perf_counter()
    tree = dissection_tree(disc.mesh)
    rhs = disc.rhs()
    x = np.zeros_like(rhs)
    r, resid, steps, lu_nnz = rhs, (1.0 if np.any(rhs) else 0.0), 0, 0
    while resid > RESIDUAL_TOL and steps < MAX_REFINE_STEPS:
        dx, lu_nnz = _sweep(disc, tree, r)
        x += dx
        previous = resid
        r, resid = skeleton_residual(disc, rhs, x)
        steps += 1
        if not resid <= 0.5 * previous:
            break
    if not resid <= RESIDUAL_TOL:
        raise RuntimeError(f"skeleton solve residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}")
    info = SolveInfo(
        seconds=time.perf_counter() - start,
        n_skeleton_dofs=x.size,
        residual=resid,
        max_local_cond=float(disc.ops.cond.max()),
        refine_steps=steps,
        factor_classes=int(tree.node_class.max()) + 1,
        lu_nnz=lu_nnz,
    )
    logger.info(
        "solve kappa=%g p=%d h=%g: %d skeleton dofs, %d factor classes keeping %d entries "
        "of W, residual %.2e after %d refinement sweeps, max local condition number %.3e, "
        "%.2f s",
        disc.cfg.kappa, disc.cfg.p, disc.mesh.h_global, info.n_skeleton_dofs,
        info.factor_classes, info.lu_nnz, info.residual, info.refine_steps,
        info.max_local_cond, info.seconds,
    )
    return x, info


def skeleton_residual(
    disc: Discretization, rhs: np.ndarray, uhat: np.ndarray
) -> tuple[np.ndarray, float]:
    """Residual rhs - A uhat of a candidate trace solution, with A applied
    class by class, and its norm relative to ||rhs||."""
    r = rhs - disc.apply(uhat)
    rhs_norm, err = float(np.linalg.norm(rhs)), float(np.linalg.norm(r))
    if rhs_norm == 0.0:
        return r, (0.0 if err == 0.0 else float("inf"))
    return r, err / rhs_norm


def solve_helmholtz(disc: Discretization) -> tuple[Solution, SolveInfo]:
    """Condensed pipeline on a built discretization: solve the traces,
    reconstruct."""
    uhat, info = solve_skeleton(disc)
    return disc.reconstruct(uhat), info


def _grad_trace_block(mesh: Mesh, p: int) -> np.ndarray:
    """Flux coupling of the scalar equation of every element assembled as
    written, <r.n, w>_dT - (r, grad w)_T, without integrating by parts:
    (F, N, 2N).

    Equals B^T for exact quadrature; assembled independently so the
    monolithic oracle does not share the condensed path's shortcut.  The
    basis values, gradients and face masses are read from the order-p
    tables of `reference_tables`, so no basis is evaluated per element.
    """
    ref = reference_tables(p)
    n = ref.M.shape[0]
    gphys = np.einsum("qad,edc->eqac", ref.grad, np.linalg.inv(mesh.jacobians))
    grad_part = np.einsum("q,qa,eqic->eica", ref.weights, ref.phi, gphys).reshape(-1, n, 2 * n)

    trace_part = np.zeros_like(grad_part)
    for face in range(3):
        mass = (mesh.face_lengths[:, face] / mesh.dets)[:, None, None] * ref.face_mass[face]
        for c in range(2):
            trace_part[:, :, c * n : (c + 1) * n] += mesh.normals[:, face, c, None, None] * mass
    return trace_part - grad_part


def monolithic_solve(mesh: Mesh, cfg: ProblemConfig, f: SourceFn, g: BoundaryFn) -> Solution:
    """Solve the coupled uncondensed equations as one sparse system.

    Independent oracle for the condensed pipeline on desk-scale meshes;
    refuses problems beyond the size guard.  The blocks of all elements
    are assembled in one call, and each element's source moments come
    from its own `volume_load`.
    """
    import scipy.sparse as sp  # only the oracle loads SciPy's sparse stack
    import scipy.sparse.linalg as spla

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
        return n_interior + m * edges[..., None] + np.arange(m)

    rows, cols, vals = [], [], []

    def add(r: np.ndarray, c: np.ndarray, block_vals: np.ndarray) -> None:
        """Every element e's block_vals[e] at its rows r[e] and columns c[e]."""
        shape = (mesh.n_elements, r.shape[1], c.shape[1])
        rows.append(np.broadcast_to(r[:, :, None], shape).ravel())
        cols.append(np.broadcast_to(c[:, None, :], shape).ravel())
        vals.append(np.broadcast_to(block_vals, shape).astype(complex).ravel())

    blocks = assemble_local_blocks(mesh, np.arange(mesh.n_elements), cfg)
    o = block * np.arange(mesh.n_elements)[:, None]
    iq = o + np.arange(2 * n)
    iu = o + 2 * n + np.arange(n)
    ilam = trace_dofs(mesh.elem_edges).reshape(mesh.n_elements, 3 * m)

    add(iq, iq, blocks.A)
    add(iq, iu, -blocks.B)
    add(iq, ilam, blocks.C)
    add(iu, iq, _grad_trace_block(mesh, cfg.p))
    add(iu, iu, 1j * cfg.kappa * blocks.M + blocks.S)
    add(iu, ilam, -blocks.R)
    # Skeleton rows: -<qhat.n, mu> per incident element ...
    add(ilam, iq, -np.swapaxes(blocks.C, 1, 2))
    add(ilam, iu, -np.swapaxes(blocks.R, 1, 2))
    add(ilam, ilam, blocks.tau * np.eye(3 * m))

    # ... plus the boundary mass <uhat, mu> on the impedance boundary.
    bd_dofs = trace_dofs(np.flatnonzero(mesh.boundary_flags)).ravel()
    rows.append(bd_dofs)
    cols.append(bd_dofs)
    vals.append(np.ones(bd_dofs.size, dtype=complex))
    rhs = np.zeros(total, dtype=complex)
    rhs[iu] = [volume_load(mesh, elem, cfg, f) for elem in range(mesh.n_elements)]
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


def sample_solution(
    disc: Discretization, solution: Solution, elements: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (u_h, q_h) on the elements whose ids lie in the range
    `elements` (all by default), at the (p + 1)^2 points of the degree-2p
    triangle rule whose basis values the assembly reads (`reference_tables`).

    Returns (points, u values, q values) with shapes (K, 2), (K,), (K, 2),
    element-major in ascending element order.
    """
    mesh, ref = disc.mesh, reference_tables(disc.cfg.p)
    points = mesh.element_points(elements, ref.points, mesh.jacobians[elements])
    u, q = solution.fields(elements, ref.phi, mesh.dets[elements])
    return points.reshape(-1, 2), u.ravel(), q.reshape(-1, 2)


def write_solution_csv(path: str, disc: Discretization, solution: Solution,
                       header_lines: list[str] | None = None) -> None:
    """Dump (u_h, q_h) at the points of `sample_solution` as CSV for
    plotting, over `blocks` of ascending element ids."""
    samples = len(reference_tables(disc.cfg.p).points)
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write("x,y,re_u,im_u,re_q1,im_q1,re_q2,im_q2\n")
        for elements in blocks(disc.mesh.n_elements, samples):
            pts, u, q = sample_solution(disc, solution, elements)
            columns = [pts, u.real, u.imag, q[:, 0].real, q[:, 0].imag, q[:, 1].real, q[:, 1].imag]
            np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")
