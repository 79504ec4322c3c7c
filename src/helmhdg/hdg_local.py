"""Per-element HDG operators: local blocks, reference tables, static condensation.

On every triangle T the method couples a vector flux unknown (2N scalar
coefficients, N = dim P_p), a scalar unknown (N coefficients), and the
traces of the skeleton unknown on the three faces (p + 1 coefficients
each).  With test functions conjugated, the element-local equations read

    i kappa (q, r) - (u, div r)   = -<lam, r.n>           for all r,
    i kappa (u, w) + (div q, w)
        + tau <u - lam, w>        = (f, w)                for all w,

where the second line is the scalar equation after substituting the
stabilized numerical flux  qhat.n = q.n + tau (u - lam)  and integrating
the flux term by parts.  Because the element bases are orthonormal, the
mass blocks are identities and the local 2x2 block system

    L = [[i kappa I, -B], [B^T, i kappa I + S]]

is uniquely solvable for every kappa, tau > 0.  Static condensation
eliminates (q, u) and leaves, per element, the map from face traces to
the face moments of qhat.n; those element matrices are the only coupling
that survives in the global skeleton system.

Blocks and condensation are formed for any set of elements at once,
stacked along a leading axis, from the geometry arrays that `Mesh`
stores; each element's result is bit-identical to forming it alone.

All functions here are pure: they read the mesh and configuration they
are given and share no mutable state (the per-order reference tables are
cached read-only), so elements may be processed concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import data_quadrature_degree
from .mesh import Mesh
from .polybasis import (
    EdgeBasis,
    TriangleBasis,
    MAX_ORDER,
    quadrature_rule,
    reference_face_points,
)


def stabilization(kappa: float, p: int, h: float) -> float:
    """The stabilization tau = p/(kappa h) on a mesh of size h."""
    return float(p) / (float(kappa) * h)


@dataclass(frozen=True)
class ProblemConfig:
    """Wave number, polynomial order, and stabilization of one run.

    The data quadrature is not part of the configuration: every data and
    error integral, on elements and on edges alike, takes its degree from
    `data_quadrature_degree` on the global mesh size.
    """

    kappa: float
    p: int
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"wave number must be finite and positive, got {self.kappa!r}")
        if not (1 <= self.p <= MAX_ORDER):
            raise ValueError(f"polynomial order must be in [1, {MAX_ORDER}]")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"stabilization parameter must be finite and positive, got {self.tau!r}")

    @classmethod
    def for_mesh(cls, kappa: float, p: int, mesh: Mesh) -> "ProblemConfig":
        """Configuration with tau = p/(kappa h) evaluated on this mesh.

        The stabilization uses the global mesh size, so it must be
        recomputed whenever the mesh changes.
        """
        return cls(kappa=float(kappa), p=int(p), tau=stabilization(kappa, p, mesh.h_global))


@dataclass(frozen=True)
class LocalBlocks:
    """Assembled element blocks of the local HDG equations, stacked over
    the nE elements of one assembly.

    A is the i*kappa-scaled vector mass (identity times i*kappa in the
    orthonormal basis), B the divergence coupling (u, div r), C the trace
    coupling <lam, r.n>, S the tau-weighted boundary mass on scalar
    traces, R the tau-weighted trace coupling <lam, w>, and M the scalar
    mass; A and M are shared by all elements.  Matrices act on trial
    coefficients; test functions are conjugated (the forms are
    sesquilinear, the matrices are not Hermitian).
    """

    p: int
    kappa: float
    tau: float
    n_scalar: int
    A: np.ndarray  # (2N, 2N) complex
    B: np.ndarray  # (nE, 2N, N)
    C: np.ndarray  # (nE, 2N, 3(p+1))
    S: np.ndarray  # (nE, N, N)
    R: np.ndarray  # (nE, N, 3(p+1))
    M: np.ndarray  # (N, N)

    @property
    def n_trace(self) -> int:
        return 3 * (self.p + 1)

    def system_matrix(self) -> np.ndarray:
        """Dense matrices of the local equations acting on (Q, U), one per
        element of the leading axes of B."""
        n2 = 2 * self.n_scalar
        L = np.zeros(self.B.shape[:-2] + (n2 + self.n_scalar,) * 2, dtype=complex)
        L[..., :n2, :n2] = self.A
        L[..., :n2, n2:] = -self.B
        L[..., n2:, :n2] = np.swapaxes(self.B, -1, -2)
        L[..., n2:, n2:] = 1j * self.kappa * self.M + self.S
        return L


@dataclass(frozen=True)
class ReferenceTables:
    """Geometry-independent tables of the order-p element, all read-only:
    the 2p triangle rule points and weights with basis values and
    gradients at its points, the scalar mass M and the vector mass
    kron(I_2, M); the 2p edge rule weights with the element basis on each
    local face and the edge basis per orientation (index 0 for +1 at t, 1
    for -1 at 1 - t); and per local face the moments phi_f^T W psi and the
    face mass phi_f^T W phi_f.  The assembly, the energy identity, the
    solution samples and `hdg verify` read these, so all share one rule
    and orientation convention."""

    points: np.ndarray  # (nq, 2), (p + 1)^2 points
    weights: np.ndarray  # (nq,)
    phi: np.ndarray  # (nq, N)
    grad: np.ndarray  # (nq, N, 2)
    M: np.ndarray  # (N, N)
    vector_mass: np.ndarray  # (2N, 2N)
    face_weights: np.ndarray  # (nf,)
    face_phi: np.ndarray  # (3, nf, N)
    edge_phi: np.ndarray  # (2, nf, p+1)
    face_trace: np.ndarray  # (3, 2, N, p+1)
    face_mass: np.ndarray  # (3, N, N)


@functools.lru_cache(maxsize=None)
def reference_tables(p: int) -> ReferenceTables:
    """The order-p tables, built once per process and shared by the local
    assembly, the monolithic oracle's flux coupling, the energy identity,
    `skeleton.sample_solution` and the basis checks of `hdg verify`."""
    basis = TriangleBasis(p)
    rule = quadrature_rule("triangle", 2 * p)
    phi, grad = basis.eval_with_grad(rule.points)
    M = phi.T @ (rule.weights[:, None] * phi)

    edge_basis = EdgeBasis(p)
    face_rule = quadrature_rule("edge", 2 * p)
    w, t = face_rule.weights, face_rule.points
    face_phi = np.array([basis.eval(reference_face_points(face, t)) for face in range(3)])
    edge_phi = np.array([edge_basis.eval(t), edge_basis.eval(1.0 - t)])
    face_trace = [[phi_f.T @ (w[:, None] * psi) for psi in edge_phi] for phi_f in face_phi]
    tables = ReferenceTables(
        points=rule.points,
        weights=rule.weights,
        phi=phi,
        grad=grad,
        M=M,
        vector_mass=np.kron(np.eye(2), M),
        face_weights=w,
        face_phi=face_phi,
        edge_phi=edge_phi,
        face_trace=np.array(face_trace),
        face_mass=np.array([phi_f.T @ (w[:, None] * phi_f) for phi_f in face_phi]),
    )
    for array in vars(tables).values():
        array.flags.writeable = False
    return tables


def assemble_local_blocks(mesh: Mesh, elements: np.ndarray, cfg: ProblemConfig) -> LocalBlocks:
    """Element blocks of the local equations on the given elements, stacked
    in their order, read from the mesh's Jacobians, determinants, face
    lengths, normals and face orientations.

    All operator integrals are polynomial on affine elements and use
    exactness degree 2p; the resulting blocks are exact to rounding.  The
    reference tables are built once per order; only the geometry-dependent
    products are formed here.  An element with det J <= 1e-14 is refused,
    by id, before any geometric factor is formed.
    """
    elements = np.asarray(elements)
    dets = mesh.dets[elements]
    bad = elements[~(dets > 1e-14)]
    if bad.size:
        det = float(mesh.dets[bad[0]])
        raise ValueError(f"degenerate element {bad[0]} (det J = {det!r} <= 1e-14)")
    p = cfg.p
    ref = reference_tables(p)
    n, m, k = ref.M.shape[0], p + 1, dets.size
    lengths, normals = mesh.face_lengths[elements], mesh.normals[elements]
    orient = np.where(mesh.elem_edge_orient[elements] == 1, 0, 1)

    # Physical gradients carry inv(J)^T; the det factors of the two scaled
    # basis functions cancel against the volume Jacobian.
    gphys = np.einsum("qad,edc->eqac", ref.grad, np.linalg.inv(mesh.jacobians[elements]))
    B = np.einsum("q,eqac,qj->ecaj", ref.weights, gphys, ref.phi).reshape(k, 2 * n, n)
    A = 1j * cfg.kappa * ref.vector_mass

    C = np.zeros((k, 2 * n, 3 * m))
    S = np.zeros((k, n, n))
    R = np.zeros((k, n, 3 * m))
    for face in range(3):
        ratio = (lengths[:, face] / dets)[:, None, None]
        sl = slice(face * m, (face + 1) * m)
        trace = np.sqrt(ratio) * ref.face_trace[face, orient[:, face]]  # (k, n, m)
        C[:, :, sl] = (normals[:, face, :, None, None] * trace[:, None]).reshape(k, 2 * n, m)
        S += cfg.tau * ratio * ref.face_mass[face]
        R[:, :, sl] = cfg.tau * trace
    return LocalBlocks(
        p=p, kappa=cfg.kappa, tau=cfg.tau, n_scalar=n, A=A, B=B, C=C, S=S, R=R, M=ref.M
    )


def volume_load(
    mesh: Mesh, elem: int, cfg: ProblemConfig, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Moments (f, w) of the source against the basis of one element, on
    the data rule of the global mesh size (the policy of `discretize`) and
    at points mapped by the element's own J.

    Uses the high-degree data rule, not the 2p operator rule; the source
    of the benchmark oscillates on the scale 1/kappa.
    """
    rule = quadrature_rule("triangle", data_quadrature_degree(cfg.p, cfg.kappa, mesh.h_global))
    phi = TriangleBasis(cfg.p).eval(rule.points)
    points = mesh.element_points([elem], rule.points)[0]
    values = np.asarray(f(points), dtype=complex)
    return math.sqrt(mesh.dets[elem]) * (phi.T @ (rule.weights * values))


class CondensedOperators:
    """Schur complements of the elements of one assembly onto their face
    trace unknowns, independent of the source and so shared by congruent
    elements; every field is stacked like the blocks.

    For traces lam and source moments f, solving the local equations and
    taking face moments of the numerical flux gives K @ lam - F with
    F = load_to_flux @ f; the interior (Q, U) coefficients are
    recon_lam @ lam + inv_load @ f.
    """

    def __init__(self, blocks: LocalBlocks):
        L = blocks.system_matrix()
        n, n2 = blocks.n_scalar, 2 * blocks.n_scalar
        m = blocks.n_trace
        rhs = np.zeros(L.shape[:-1] + (m + n,), dtype=complex)
        rhs[..., :n2, :m] = -blocks.C
        rhs[..., n2:, :m] = blocks.R
        rhs[..., n2:, m:] = np.eye(n)
        # Per element, recon_lam (3N, 3(p+1)): traces -> (Q, U); inv_load (3N, N): source -> (Q, U)
        self.recon_lam, self.inv_load = np.split(np.linalg.solve(L, rhs), [m], axis=-1)
        W = np.concatenate([np.swapaxes(blocks.C, -1, -2), np.swapaxes(blocks.R, -1, -2)], axis=-1)
        self.K = W @ self.recon_lam - blocks.tau * np.eye(blocks.n_trace)
        self.load_to_flux = -(W @ self.inv_load)  # (3(p+1), N): source moments -> F
        self.cond = np.linalg.cond(L)  # condition numbers of the local systems
