"""Exact benchmark solution, problem data, Bessel functions, L2 projections.

The benchmark is the Helmholtz problem -Lap(u) - kappa^2 u = ft on the
centered unit square with the impedance condition du/dn + i kappa u = gt,
whose exact solution is radial:

    u(r) = cos(kappa r)/kappa - c * J0(kappa r),
    c    = (cos kappa + i sin kappa) / (kappa (J0(kappa) + i J1(kappa))),

with source ft(r) = sin(kappa r)/r and gt the Robin trace of u.  The
first-order solver consumes the rescaled data f = -i ft / kappa and
g = -i gt / kappa and approximates the flux q = i grad(u) / kappa.

J0 and J1 come from scipy.special (Cephes), which is deterministic for a
fixed install and within 1e-12 of mpmath on [0, 1e4].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .mesh import ElementGeometry
from .polybasis import EdgeBasis, TriangleBasis, quadrature_rule

BESSEL_MAX_ARGUMENT = 1e4


def _j0j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return special.j0(x), special.j1(x)


def bessel_j(order: int, x) -> np.ndarray | float:
    """Bessel function of the first kind, order 0 or 1, for 0 <= x <= 1e4.

    Absolute accuracy is 1e-12 or better across the supported range.
    """
    if order not in (0, 1):
        raise ValueError(f"only orders 0 and 1 are supported, got {order}")
    arr = np.asarray(x, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > BESSEL_MAX_ARGUMENT):
        raise ValueError(f"argument must lie in [0, {BESSEL_MAX_ARGUMENT:g}]")
    j0, j1 = _j0j1(arr.reshape(-1))
    res = (j0 if order == 0 else j1).reshape(arr.shape)
    return float(res) if np.isscalar(x) or arr.shape == () else res


def _radius(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.hypot(pts[:, 0], pts[:, 1])


class ExactSolution:
    """Radial exact solution of the benchmark problem at wave number kappa."""

    def __init__(self, kappa: float):
        if kappa <= 0:
            raise ValueError("wave number must be positive")
        self.kappa = float(kappa)
        j0k, j1k = _j0j1(np.array([self.kappa]))
        den = complex(j0k[0], j1k[0])
        # J0 and J1 have no common zeros, so the denominator never vanishes.
        assert abs(den) > 0.0, "J0(kappa) + i J1(kappa) vanished"
        self.coef = complex(math.cos(self.kappa), math.sin(self.kappa)) / (self.kappa * den)

    def u_and_grad(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u, shape (npts,), and grad u, shape (npts, 2), from one Bessel
        evaluation; the gradient is zero at the origin by symmetry."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        r = _radius(pts)
        j0, j1 = _j0j1(self.kappa * r)
        u = np.cos(self.kappa * r) / self.kappa - self.coef * j0
        du_dr = -np.sin(self.kappa * r) + self.coef * self.kappa * j1
        safe = np.where(r > 0.0, r, 1.0)
        direction = np.where(r[:, None] > 0.0, pts / safe[:, None], 0.0)
        return u, du_dr[:, None] * direction

    def u(self, points: np.ndarray) -> np.ndarray:
        return self.u_and_grad(points)[0]

    def grad_u(self, points: np.ndarray) -> np.ndarray:
        """Gradient of u, shape (npts, 2)."""
        return self.u_and_grad(points)[1]

    def q(self, points: np.ndarray) -> np.ndarray:
        """Exact flux q = i grad(u) / kappa, shape (npts, 2)."""
        return 1j * self.grad_u(points) / self.kappa


@dataclass
class DataFunctions:
    """Source and boundary data of the benchmark, raw and rescaled.

    ``f_tilde(x) = sin(kappa r)/r`` extends continuously through r = 0
    with value kappa; near the origin it is evaluated by its power series
    for uniform accuracy.  ``g_tilde = du/dn + i kappa u`` is the Robin
    trace of the exact solution.
    """

    kappa: float
    exact: ExactSolution = field(init=False)

    def __post_init__(self):
        self.exact = ExactSolution(self.kappa)

    def f_tilde(self, points: np.ndarray) -> np.ndarray:
        z = self.kappa * _radius(points)
        small = z < 1e-3
        zs = np.where(small, z, 1.0)
        series = 1.0 - zs * zs / 6.0 * (1.0 - zs * zs / 20.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            direct = np.sin(z) / np.where(small, 1.0, z)
        return self.kappa * np.where(small, series, direct)

    def f(self, points: np.ndarray) -> np.ndarray:
        return -1j * self.f_tilde(points) / self.kappa

    def g_tilde(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        normals = np.asarray(normals, dtype=float).reshape(-1, 2)
        u, grad = self.exact.u_and_grad(points)
        return np.sum(grad * normals, axis=1) + 1j * self.kappa * u

    def g(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return -1j * self.g_tilde(points, normals) / self.kappa


def benchmark_problem(kappa: float) -> tuple[ExactSolution, DataFunctions]:
    """Exact solution and matching data functions of the study problem."""
    return ExactSolution(kappa), DataFunctions(kappa)


def data_quadrature_degree(p: int, kappa: float, h: float) -> int:
    """Exactness degree for data and error integrals on an element of size h.

    2p + 4 plus one unit per resolved oscillation keeps the quadrature
    error of the oscillatory integrands below the discretization error.
    """
    return 2 * p + 4 + int(math.ceil(kappa * h))


def l2_project(
    target: str,
    function: Callable[[np.ndarray], np.ndarray],
    p: int,
    geometry,
    quad_degree: int | None = None,
) -> np.ndarray:
    """L2-orthogonal projection onto the order-p space of an element or edge.

    In the orthonormal bases the coefficients are plain quadrature inner
    products of the function with each basis member.  For ``target ==
    "element"`` the geometry is an `ElementGeometry`; for ``target ==
    "edge"`` it is the pair of endpoints, shape (2, 2), whose order fixes
    the edge parametrization.
    """
    degree = 2 * p + 10 if quad_degree is None else quad_degree
    if target == "element":
        geom: ElementGeometry = geometry
        rule = quadrature_rule("triangle", degree)
        basis = TriangleBasis(p).eval(rule.points)
        values = np.asarray(function(geom.map_to_physical(rule.points)))
        return math.sqrt(geom.det) * (basis.T @ (rule.weights * values))
    if target == "edge":
        ends = np.asarray(geometry, dtype=float).reshape(2, 2)
        length = float(np.linalg.norm(ends[1] - ends[0]))
        rule = quadrature_rule("edge", degree)
        basis = EdgeBasis(p).eval(rule.points)
        pts = ends[0] + rule.points[:, None] * (ends[1] - ends[0])
        values = np.asarray(function(pts))
        return math.sqrt(length) * (basis.T @ (rule.weights * values))
    raise ValueError(f"unknown projection target {target!r}")
