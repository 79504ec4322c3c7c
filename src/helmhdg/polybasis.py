"""Orthonormal polynomial bases and quadrature on the reference triangle and edge.

The reference triangle is ``T = {(x, y) : x >= 0, y >= 0, x + y <= 1}``
(area 1/2) and the reference edge is the interval ``[0, 1]``.

Triangle bases are Koornwinder-Dubiner polynomials, a closed-form family
that is orthonormal in the L2 inner product on ``T``.  Edge bases are
shifted Legendre polynomials, orthonormal on ``[0, 1]``.  Orthonormality
turns every mass matrix into the identity, so L2 projection reduces to
inner products against the basis and local element solves stay well
conditioned.

Edge quadrature is Gauss-Legendre.  Triangle rules collapse the square
``[-1, 1]^2`` onto ``T``: a Gauss-Legendre rule in the first coordinate
tensorized with a Gauss-Jacobi(1, 0) rule in the second, whose weight
function absorbs the collapsed-coordinate Jacobian exactly.  The rules are
therefore available at any exactness degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

MAX_ORDER = 10

# Vertices of the reference triangle; local face f runs from vertex f to
# vertex (f + 1) % 3.
REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

_INSIDE_TOL = 1e-10


def _check_order(p: int) -> None:
    if not (1 <= p <= MAX_ORDER):
        raise ValueError(f"polynomial order must be in [1, {MAX_ORDER}], got {p}")


def _jacobi_all(alpha: float, beta: float, nmax: int, t: np.ndarray) -> np.ndarray:
    """Evaluate Jacobi polynomials P_n^(alpha,beta)(t) for n = 0..nmax.

    Returns an array of shape (nmax + 1, len(t)) filled via the standard
    three-term recurrence.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = 0.5 * (alpha - beta + (alpha + beta + 2.0) * t)
    for n in range(1, nmax):
        c = 2.0 * n + alpha + beta
        a1 = 2.0 * (n + 1.0) * (n + alpha + beta + 1.0) * c
        a2 = (c + 1.0) * (alpha * alpha - beta * beta)
        a3 = c * (c + 1.0) * (c + 2.0)
        a4 = 2.0 * (n + alpha) * (n + beta) * (c + 2.0)
        out[n + 1] = ((a2 + a3 * t) * out[n] - a4 * out[n - 1]) / a1
    return out


def _jacobi_deriv_all(alpha: float, beta: float, nmax: int, t: np.ndarray) -> np.ndarray:
    """First derivatives of P_n^(alpha,beta) for n = 0..nmax, shape (nmax+1, npts)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((nmax + 1,) + t.shape)
    if nmax >= 1:
        inner = _jacobi_all(alpha + 1.0, beta + 1.0, nmax - 1, t)
        for n in range(1, nmax + 1):
            out[n] = 0.5 * (n + alpha + beta + 1.0) * inner[n - 1]
    return out


class TriangleBasis:
    """Orthonormal basis of P_p on the reference triangle.

    Basis members are indexed by pairs (m, n) with m + n <= p, ordered by
    total degree and then by m, so index 0 is the constant sqrt(2).
    """

    def __init__(self, p: int):
        _check_order(p)
        self.p = p
        self.dim = (p + 1) * (p + 2) // 2
        self.index_pairs = [(m, d - m) for d in range(p + 1) for m in range(d + 1)]

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
        npts = eta1.shape[0]
        p = self.p

        leg = _jacobi_all(0.0, 0.0, p, eta1)
        dleg = _jacobi_deriv_all(0.0, 0.0, p, eta1)
        jac = [_jacobi_all(2.0 * m + 1.0, 0.0, p - m, eta2) for m in range(p + 1)]
        djac = [_jacobi_deriv_all(2.0 * m + 1.0, 0.0, p - m, eta2) for m in range(p + 1)]

        gpow = np.empty((p + 1, npts))
        gpow[0] = 1.0
        for m in range(1, p + 1):
            gpow[m] = gpow[m - 1] * g

        vals = np.empty((npts, self.dim))
        grads = np.empty((npts, self.dim, 2))
        for k, (m, n) in enumerate(self.index_pairs):
            nc = math.sqrt(2.0 * (2 * m + 1) * (m + n + 1))
            pm, pn = leg[m], jac[m][n]
            vals[:, k] = nc * pm * gpow[m] * pn
            dy = 2.0 * pm * gpow[m] * djac[m][n]
            if m >= 1:
                gm1 = gpow[m - 1]
                dx = 2.0 * dleg[m] * gm1 * pn
                dy = dy + ((1.0 + eta1) * dleg[m] - m * pm) * gm1 * pn
            else:
                dx = np.zeros(npts)
            grads[:, k, 0] = nc * dx
            grads[:, k, 1] = nc * dy
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
        leg = _jacobi_all(0.0, 0.0, self.p, 2.0 * t - 1.0)
        return leg.T * self._scale


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights with a guaranteed polynomial exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    degree: int
    domain: str

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]


def quadrature_rule(domain: str, degree: int) -> QuadratureRule:
    """Quadrature rule on the reference triangle or edge, exact to `degree`.

    Edge rules are Gauss-Legendre on [0, 1] with ceil((degree + 1) / 2)
    points.  Triangle rules are collapsed-coordinate tensor rules
    (Gauss-Legendre x Gauss-Jacobi(1, 0)); all weights are positive.
    """
    if degree < 0:
        raise ValueError("quadrature degree must be >= 0")
    npts = max(1, (degree + 2) // 2)
    if domain == "edge":
        a, w = leggauss(npts)
        return QuadratureRule(0.5 * (a + 1.0), 0.5 * w, degree, "edge")
    if domain == "triangle":
        a, wa = leggauss(npts)
        b, wb = roots_jacobi(npts, 1.0, 0.0)
        x = 0.25 * np.outer(1.0 + a, 1.0 - b)
        y = np.broadcast_to(0.5 * (1.0 + b), (npts, npts))
        w = 0.125 * np.outer(wa, wb)
        pts = np.column_stack([x.ravel(), y.ravel()])
        return QuadratureRule(pts, w.ravel(), degree, "triangle")
    raise ValueError(f"unknown quadrature domain {domain!r}")


def reference_face_points(face: int, t: np.ndarray) -> np.ndarray:
    """Reference-triangle coordinates of local face points.

    The face is parametrized by t in [0, 1] running from local vertex
    `face` to local vertex `(face + 1) % 3`.
    """
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    a = REF_VERTICES[face]
    b = REF_VERTICES[(face + 1) % 3]
    return a + t * (b - a)
