"""Exact benchmark solution, problem data, Bessel functions, data rule degree.

The benchmark is the Helmholtz problem -Lap(u) - kappa^2 u = ft on the
centered unit square with the impedance condition du/dn + i kappa u = gt,
whose exact solution is radial:

    u(r) = cos(kappa r)/kappa - c * J0(kappa r),
    c    = (cos kappa + i sin kappa) / (kappa (J0(kappa) + i J1(kappa))),

with source ft(r) = sin(kappa r)/r and gt the Robin trace of u.  The
first-order solver consumes the rescaled data f = -i ft / kappa and
g = -i gt / kappa and approximates the flux q = i grad(u) / kappa.

J0 and J1 come from one NumPy kernel with the rational approximations of
Moshier's Cephes library (j0.c, j1.c): they agree with scipy.special.j0
and j1 to 5e-15 absolute on [0, 1e4] and with mpmath to 1e-12.  The
kernel takes cos x and sin x from its caller, which needs them for the
exact solution anyway, so the solve path imports nothing from SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BESSEL_MAX_ARGUMENT = 1e4

# Cephes j0.c and j1.c.  For x <= 5,
#     J_k(x) = x^k (z - a_k)(z - b_k) R_k(z) / S_k(z),  z = x^2,
# with a_k, b_k the squares of the first two positive zeros of J_k.  For
# x > 5, with phi_k = (2k + 1) pi / 4 and w = 5 / x,
#     J_k(x) = sqrt(2 / (pi x)) (P_k cos(x - phi_k) - w Q_k sin(x - phi_k)),
# where P_k = PP_k / PQ_k and Q_k = QP_k / QQ_k are rational in w^2.
# Coefficients run from the highest degree down; leading zeros pad each
# table to one length, so one matrix product evaluates all its rows.
_SMALL_ZEROS = np.array([
    [5.78318596294678452118e0, 3.04712623436620863991e1],
    [1.46819706421238932572e1, 4.92184563216946036703e1],
])
_SMALL = np.array([
    # R_0, S_0
    [0.0, 0.0, 0.0, 0.0, 0.0, -4.79443220978201773821e9, 1.95617491946556577543e12,
     -2.49248344360967716204e14, 9.70862251047306323952e15],
    [1.0, 4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
     1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
     3.18121955943204943306e16, 1.71086294081043136091e18],
    # R_1, S_1
    [0.0, 0.0, 0.0, 0.0, 0.0, -8.99971225705559398224e8, 4.52228297998194034323e11,
     -7.27494245221818276015e13, 3.68295732863852883286e15],
    [1.0, 6.20836478118054335476e2, 2.56987256757748830383e5, 8.35146791431949253037e7,
     2.21511595479792499675e10, 4.74914122079991414898e12, 7.84369607876235854894e14,
     8.95222336184627338078e16, 5.32278620332680085395e18],
])
_LARGE = np.array([
    # PP_0, PQ_0, QP_0, QQ_0
    [0.0, 7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
     5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
     9.99999999999999997821e-1],
    [0.0, 9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
     5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
     1.00000000000000000218e0],
    [-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
     -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
     -5.14105326766599330220e1, -6.05014350600728481186e0],
    [1.0, 6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
     7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
     2.42005740240291393179e2],
    # PP_1, PQ_1, QP_1, QQ_1
    [0.0, 7.62125616208173112003e-4, 7.31397056940917570436e-2, 1.12719608129684925192e0,
     5.11207951146807644818e0, 8.42404590141772420927e0, 5.21451598682361504063e0,
     1.00000000000000000254e0],
    [0.0, 5.71323128072548699714e-4, 6.88455908754495404082e-2, 1.10514232634061696926e0,
     5.07386386128601488557e0, 8.39985554327604159757e0, 5.20982848682361821619e0,
     9.99999999999999997461e-1],
    [5.10862594750176621635e-2, 4.98213872951233449420e0, 7.58238284132545283818e1,
     3.66779609360150777800e2, 7.10856304998926107277e2, 5.97489612400613639965e2,
     2.11688757100572135698e2, 2.52070205858023719784e1],
    [1.0, 7.42373277035675149943e1, 1.05644886038262816351e3, 4.98641058337653607651e3,
     9.56231892404756170795e3, 7.99704160447350683650e3, 2.82619278517639096600e3,
     3.36093607810698293419e2],
])


def _polyvals(coefs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Polynomials with coefficient rows `coefs` (rows, degree + 1),
    highest degree first, at the points z: shape (rows, z.size).

    One matrix product with the powers of z evaluates every row, several
    times faster than a Horner recurrence over the stacked rows in NumPy.
    Every row but R_0 and R_1 has coefficients of one sign, so its power
    sum at z > 0 cancels nothing.
    """
    powers = np.empty((coefs.shape[1], z.size))
    powers[-1] = 1.0
    for k in range(coefs.shape[1] - 2, -1, -1):
        np.multiply(powers[k + 1], z, out=powers[k])
    return coefs @ powers


def _bessel(x: np.ndarray, cos_x: np.ndarray, sin_x: np.ndarray) -> np.ndarray:
    """J_0 and J_1 at the points 0 <= x, shape (2, x.size), given cos x
    and sin x.

    The phases come from cos x and sin x: cos(x - pi/4) = (cos x + sin x)/sqrt(2),
    sin(x - pi/4) = cos(x - 3 pi/4) = (sin x - cos x)/sqrt(2) and
    sin(x - 3 pi/4) = -(cos x + sin x)/sqrt(2).  The x > 5 branch runs on
    every point, with x clipped to 5 where some point lies below, and the
    x <= 5 branch overwrites the points it covers; a branch that covers no
    point is skipped.
    """
    small = x <= 5.0
    n_small = np.count_nonzero(small)
    out = np.empty((2, x.size))
    if n_small < x.size:
        xl = np.maximum(x, 5.0) if n_small else x
        w = 5.0 / xl
        pq = _polyvals(_LARGE, w * w)
        p, q = pq[0::4] / pq[1::4], w * pq[2::4] / pq[3::4]
        plus, minus = cos_x + sin_x, sin_x - cos_x
        out[0] = p[0] * plus - q[0] * minus
        out[1] = p[1] * minus + q[1] * plus
        # sqrt(2 / (pi x)) times the phases' 1/sqrt(2).
        out *= 1.0 / np.sqrt(math.pi * xl)
    if n_small:
        small = np.flatnonzero(small)
        xs = x[small]
        z = xs * xs
        rs = _polyvals(_SMALL, z)
        vals = (z - _SMALL_ZEROS[:, :1]) * (z - _SMALL_ZEROS[:, 1:]) * rs[0::2] / rs[1::2]
        vals[1] *= xs
        out[:, small] = vals
    return out


def bessel_j(order: int, x) -> np.ndarray | float:
    """Bessel function of the first kind, order 0 or 1, for 0 <= x <= 1e4.

    Absolute accuracy is 1e-12 or better across the supported range.
    """
    if order not in (0, 1):
        raise ValueError(f"only orders 0 and 1 are supported, got {order}")
    arr = np.asarray(x, dtype=float)
    if arr.size and not (0.0 <= arr.min() and arr.max() <= BESSEL_MAX_ARGUMENT):  # false for NaN
        raise ValueError(f"argument must lie in [0, {BESSEL_MAX_ARGUMENT:g}]")
    flat = arr.reshape(-1)
    res = _bessel(flat, np.cos(flat), np.sin(flat))[order].reshape(arr.shape)
    return float(res) if np.isscalar(x) or arr.shape == () else res


def _radius(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return np.hypot(pts[:, 0], pts[:, 1])


class ExactSolution:
    """Radial exact solution of the benchmark problem at wave number kappa."""

    def __init__(self, kappa: float):
        self.kappa = float(kappa)
        if not 0.0 < self.kappa <= BESSEL_MAX_ARGUMENT:  # false for NaN
            raise ValueError(
                f"wave number must lie in (0, {BESSEL_MAX_ARGUMENT:g}], where J0 and J1 "
                f"are validated, got {kappa!r}"
            )
        k = np.array([self.kappa])
        (j0k,), (j1k,) = _bessel(k, np.cos(k), np.sin(k))
        # J0 and J1 have no common zeros, so the denominator never vanishes.
        den = complex(j0k, j1k)
        self.coef = complex(math.cos(self.kappa), math.sin(self.kappa)) / (self.kappa * den)

    def u_and_grad(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u, shape (npts,), and grad u, shape (npts, 2), from one Bessel
        evaluation; the gradient is zero at the origin by symmetry."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        r = _radius(pts)
        kr = self.kappa * r
        cos, sin = np.cos(kr), np.sin(kr)
        j0, j1 = _bessel(kr, cos, sin)
        du_dr = -sin + self.coef * self.kappa * j1
        # grad u = (du/dr / r) x, and x = 0 where r = 0.
        grad = (du_dr / np.where(r > 0.0, r, 1.0))[:, None] * pts
        return cos / self.kappa - self.coef * j0, grad

    def u(self, points: np.ndarray) -> np.ndarray:
        """u, shape (npts,)."""
        return self.u_and_grad(points)[0]

    def grad_u(self, points: np.ndarray) -> np.ndarray:
        """Gradient of u, shape (npts, 2)."""
        return self.u_and_grad(points)[1]

    def q(self, points: np.ndarray) -> np.ndarray:
        """Exact flux q = i grad(u) / kappa, shape (npts, 2)."""
        return (1j / self.kappa) * self.grad_u(points)


@dataclass
class DataFunctions:
    """Source and boundary data of the benchmark, raw and rescaled.

    ``f_tilde(x) = sin(kappa r)/r`` is evaluated as ``kappa sinc(kappa
    r / pi)``, which extends continuously through r = 0 with value kappa.
    ``g_tilde = du/dn + i kappa u`` is the Robin trace of the exact
    solution, held in ``exact``.
    """

    kappa: float
    exact: ExactSolution = field(init=False)

    def __post_init__(self):
        self.exact = ExactSolution(self.kappa)

    def f_tilde(self, points: np.ndarray) -> np.ndarray:
        return self.kappa * np.sinc(self.kappa * _radius(points) / np.pi)

    def f(self, points: np.ndarray) -> np.ndarray:
        return (-1j / self.kappa) * self.f_tilde(points)

    def g_tilde(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        normals = np.asarray(normals, dtype=float).reshape(-1, 2)
        u, grad = self.exact.u_and_grad(points)
        return np.sum(grad * normals, axis=1) + 1j * self.kappa * u

    def g(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        return (-1j / self.kappa) * self.g_tilde(points, normals)


def benchmark_problem(kappa: float) -> tuple[ExactSolution, DataFunctions]:
    """Exact solution and matching data functions of the study problem."""
    data = DataFunctions(kappa)
    return data.exact, data


def data_quadrature_degree(p: int, kappa: float, h: float) -> int:
    """Exactness degree for data and error integrals on an entity of size h.

    2p + 4 plus one unit per resolved oscillation keeps the quadrature
    error of the oscillatory integrands below the discretization error.
    This is the only data-rule policy, with no override: every data and
    error integral takes the global mesh size, so one triangle rule serves
    all element data (source loads, ||f||^2, volume errors and the oracle's
    `volume_load`) and one edge rule every edge integral (boundary data
    and trace error).  kappa h is rounded to 12 significant digits before
    its ceiling is taken, so a size computed from vertex coordinates and
    the closed-form sqrt(2)/n of the same mesh give one degree even where
    kappa h is an integer.
    """
    return 2 * p + 4 + int(math.ceil(float(f"{kappa * h:.12g}")))
