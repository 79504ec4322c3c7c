"""Orthonormal polynomial bases and quadrature on the reference triangle and edge.

The reference triangle is ``T = {(x, y) : x >= 0, y >= 0, x + y <= 1}``
(area 1/2) and the reference edge is the interval ``[0, 1]``.

Triangle bases are Koornwinder-Dubiner polynomials, a closed-form family
that is orthonormal in the L2 inner product on ``T``.  Edge bases are
shifted Legendre polynomials, orthonormal on ``[0, 1]``.  Orthonormality
turns every mass matrix into the identity, so L2 projection reduces to
inner products against the basis and local element solves stay well
conditioned.  The Jacobi factors and their derivatives come from one
three-term recurrence in the degree, SciPy's form for integer degree,
run for every basis member at once.  The Legendre factors of the edge basis
come from NumPy's `legvander`.

Edge quadrature is Gauss-Legendre.  Triangle rules collapse the square
``[-1, 1]^2`` onto ``T``: a Gauss-Legendre rule in the first coordinate
tensorized with a Gauss-Jacobi(1, 0) rule in the second, whose weight
function absorbs the collapsed-coordinate Jacobian exactly.  The
Gauss-Jacobi nodes are eigenvalues of a symmetric tridiagonal matrix,
found by NumPy's LAPACK, so no rule loads SciPy.  The rules are
therefore available at any exactness degree.  Each (domain, degree) rule is
built once per process and shared: its point and weight arrays are
read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

MAX_ORDER = 10

# Vertices of the reference triangle; local face f runs from vertex f to
# vertex (f + 1) % 3.
REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

_INSIDE_TOL = 1e-10


def _check_order(p: int) -> None:
    if not (1 <= p <= MAX_ORDER):
        raise ValueError(f"polynomial order must be in [1, {MAX_ORDER}], got {p}")


def _jacobi(n, alpha, beta, t: np.ndarray) -> np.ndarray:
    """P_n^(alpha,beta)(t) for integer n, alpha, beta >= 0, broadcast over
    all four arguments.

    This is the recurrence of scipy.special.eval_jacobi for integer degree:
    it runs on p_k = P_k / binom(k + alpha, k), which is 1 at t = 1, adds
    increments proportional to t - 1 and scales by the binomial, an exact
    integer here, at the end.  At the hundreds of nodes of a large
    Gauss-Jacobi rule it rounds less than the recurrence in P_k itself.
    """
    n = np.asarray(n)
    alpha = np.asarray(alpha, dtype=float)
    ab = alpha + beta
    tm1 = np.asarray(t, dtype=float) - 1.0
    out = np.where(n == 0, 1.0, 0.5 * (2.0 * (alpha + 1.0) + (ab + 2.0) * tm1))
    top = int(n.max(initial=0))
    if top < 2:
        return out
    # Coefficients of the steps k = 1, ..., top - 1, which lift p to degree k + 1.
    k = np.arange(1.0, top).reshape((-1,) + (1,) * ab.ndim)
    s = 2.0 * k + ab
    num_p, num_d = s * (s + 1.0) * (s + 2.0), 2.0 * k * (k + beta) * (s + 2.0)
    den = 2.0 * (k + alpha + 1.0) * (k + ab + 1.0) * s
    d = (ab + 2.0) * tm1 / (2.0 * (alpha + 1.0))
    p = d + 1.0
    binom = alpha + 1.0
    for i in range(top - 1):
        d = (num_p[i] * tm1 * p + num_d[i] * d) / den[i]
        p = d + p
        binom = binom * (i + 2.0 + alpha) / (i + 2.0)
        np.copyto(out, binom * p, where=n == i + 2)
    return out


def _jacobi_with_deriv(
    n: np.ndarray, alpha: np.ndarray | float, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(alpha,0)(t) and its derivative, broadcast over n, alpha and t.

    The derivative is (n + alpha + 1)/2 P_(n-1)^(alpha+1,1)(t), zero for
    n = 0.
    """
    vals = _jacobi(n, alpha, 0, t)
    inner = _jacobi(np.maximum(n - 1, 0), alpha + 1.0, 1, t)
    return vals, np.where(n >= 1, 0.5 * (n + alpha + 1.0), 0.0) * inner


class TriangleBasis:
    """Orthonormal basis of P_p on the reference triangle.

    Basis members are indexed by pairs (m, n) with m + n <= p, ordered by
    total degree and then by m, so index 0 is the constant sqrt(2).
    """

    def __init__(self, p: int):
        _check_order(p)
        self.p = p
        self.dim = (p + 1) * (p + 2) // 2
        pairs = np.array([(m, d - m) for d in range(p + 1) for m in range(d + 1)])
        self._m, self._n = pairs[:, 0], pairs[:, 1]
        self._norm = np.sqrt(2.0 * (2 * self._m + 1) * (self._m + self._n + 1))

    def _collapsed(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        if (
            x.min(initial=0.0) < -_INSIDE_TOL
            or y.min(initial=0.0) < -_INSIDE_TOL
            or (x + y).max(initial=0.0) > 1.0 + _INSIDE_TOL
        ):
            raise ValueError("evaluation points must lie in the closed reference triangle")
        g = 1.0 - y
        # eta1 is singular at the apex (0, 1); every basis member extends
        # continuously there with eta1 = -1.
        eta1 = np.where(g > 1e-13, 2.0 * x / np.where(g > 1e-13, g, 1.0) - 1.0, -1.0)
        eta2 = 2.0 * y - 1.0
        return eta1, eta2, g

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at reference points, shape (npts, dim)."""
        return self.eval_with_grad(points)[0]

    def eval_with_grad(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (npts, dim) and gradients (npts, dim, 2) at reference points."""
        eta1, eta2, g = self._collapsed(points)
        m, n = self._m, self._n
        pm, dpm = _jacobi_with_deriv(m, 0.0, eta1[:, None])
        pn, dpn = _jacobi_with_deriv(n, 2.0 * m + 1.0, eta2[:, None])
        # g^(m-1) only multiplies terms that vanish for m = 0, and the
        # clipped exponent keeps it finite at the apex g = 0.
        gm1 = g[:, None] ** np.maximum(m - 1, 0)
        gm = g[:, None] ** m
        vals = self._norm * pm * gm * pn
        grads = np.empty(vals.shape + (2,))
        grads[..., 0] = self._norm * 2.0 * dpm * gm1 * pn
        grads[..., 1] = self._norm * (
            2.0 * pm * gm * dpn + ((1.0 + eta1[:, None]) * dpm - m * pm) * gm1 * pn
        )
        return vals, grads


class EdgeBasis:
    """Orthonormal (shifted Legendre) basis of P_p on the reference edge [0, 1]."""

    def __init__(self, p: int):
        _check_order(p)
        self.p = p
        self.dim = p + 1
        self._scale = np.sqrt(2.0 * np.arange(p + 1) + 1.0)

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Basis values at points of [0, 1], shape (npts, dim)."""
        t = np.asarray(t, dtype=float).reshape(-1)
        if t.min(initial=0.0) < -_INSIDE_TOL or t.max(initial=0.0) > 1.0 + _INSIDE_TOL:
            raise ValueError("evaluation points must lie in [0, 1]")
        return legvander(2.0 * t - 1.0, self.p) * self._scale


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights with a guaranteed polynomial exactness degree."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


def _gauss_jacobi_10(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight 1 - x on
    [-1, 1], exact for degree 2n - 1.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of P^(1,0) (Golub and Welsch, Math. Comp. 23, 1969), polished
    by one Newton step; the weights are 1 / (P_(n-1) P_n') scaled to sum
    to 2.  Matrix, step and weights are those of scipy.special.roots_jacobi.
    """
    k = np.arange(n, dtype=float)
    jacobi = np.diag(-1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    k = k[1:]  # SciPy's form of sqrt(k(k+1))/(2k+1): it rounds as roots_jacobi does
    jacobi[np.arange(1, n), np.arange(n - 1)] = (
        2.0 / (2.0 * k + 1.0) * np.sqrt((k + 1.0) * k / (2.0 * k + 2.0))
        * np.where(k == 1, 1.0, np.sqrt(k * (k + 1.0) / (2.0 * k)))
    )
    x = np.linalg.eigvalsh(jacobi)
    dy = 0.5 * (n + 2) * _jacobi(n - 1, 2, 1, x)
    x -= _jacobi(n, 1, 0, x) / dy
    fm = _jacobi(n - 1, 1, 0, x)

    def centred(v: np.ndarray) -> np.ndarray:
        # Both factors span many decades at large n; scale each to about 1.
        log = np.log(np.abs(v))
        return v / np.exp((log.max() + log.min()) / 2.0)

    w = 1.0 / (centred(fm) * centred(dy))
    return x, w * (2.0 / w.sum())


@functools.lru_cache(maxsize=None)
def quadrature_rule(domain: str, degree: int) -> QuadratureRule:
    """Quadrature rule on the reference triangle or edge, exact to `degree`.

    Edge rules are Gauss-Legendre on [0, 1] with ceil((degree + 1) / 2)
    points.  Triangle rules are collapsed-coordinate tensor rules
    (Gauss-Legendre x Gauss-Jacobi(1, 0)); all weights are positive.
    Every caller of one (domain, degree) gets the same rule, so its arrays
    are read-only.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be >= 0")
    npts = max(1, (degree + 2) // 2)
    if domain == "edge":
        a, w = leggauss(npts)
        pts, weights = 0.5 * (a + 1.0), 0.5 * w
    elif domain == "triangle":
        a, wa = leggauss(npts)
        b, wb = _gauss_jacobi_10(npts)
        x = 0.25 * np.outer(1.0 + a, 1.0 - b)
        y = np.broadcast_to(0.5 * (1.0 + b), (npts, npts))
        pts = np.column_stack([x.ravel(), y.ravel()])
        weights = (0.125 * np.outer(wa, wb)).ravel()
    else:
        raise ValueError(f"unknown quadrature domain {domain!r}")
    pts.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(pts, weights)


def reference_face_points(face: int, t: np.ndarray) -> np.ndarray:
    """Reference-triangle coordinates of local face points.

    The face is parametrized by t in [0, 1] running from local vertex
    `face` to local vertex `(face + 1) % 3`.
    """
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    a = REF_VERTICES[face]
    b = REF_VERTICES[(face + 1) % 3]
    return a + t * (b - a)
