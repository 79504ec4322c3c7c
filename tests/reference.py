"""Reference computations that only the tests use.

Each one restates a quantity that the package computes another way, so a
test can compare the two: the residual of the local equations, the face
moments of the numerical flux taken directly from (Q, U, lam), and the
skeleton matrix A in the global dof numbering.
"""

import numpy as np
import scipy.sparse as sp

from helmhdg.hdg_local import LocalBlocks
from helmhdg.skeleton import SkeletonSystem


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


def global_matrix(system: SkeletonSystem) -> sp.csc_matrix:
    """A in the global dof numbering, undoing the factorization order of
    the stored P A P^T."""
    position = np.argsort(system.perm)
    return system.permuted[position][:, position]
