"""Reference computations that only the tests use.

Each one restates a quantity that the package computes another way, so a
test can compare the two: the residual of the local equations, the face
moments of the numerical flux taken directly from (Q, U, lam), and the
skeleton matrix A in the global dof numbering.
"""

import numpy as np
import scipy.sparse as sp

from helmhdg.hdg_local import LocalBlocks
from helmhdg.skeleton import Discretization, _edge_dofs


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
    rhs = blocks.rhs(lam, f_load)
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
