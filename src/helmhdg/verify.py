"""Named self-checks bundling every module's invariants for the CLI.

Each check returns its measured value(s) so the runner can print one
line per check; any failure flips the process exit code.  The whole
suite takes about 0.28 s (median of repeated runs) on one core of a 2-core
Intel Xeon VM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import DataFunctions, ExactSolution, benchmark_problem
from .diagnostics import ENERGY_IDENTITY_TOL, run_benchmark_case
from .hdg_local import ProblemConfig, assemble_local_blocks, local_solve
from .mesh import ElementGeometry, build_structured_mesh, mesh_entities
from .polybasis import (
    EdgeBasis,
    TriangleBasis,
    quadrature_rule,
    reference_face_points,
)
from .skeleton import discretize, monolithic_solve, solve_helmholtz

#: Brute-force sup of ||v||_dT sqrt(h) / (p ||v||_T) over P_p on the
#: reference element, maximized over the coefficient sphere (worst case
#: is p = 1; measured 4.42606716, frozen with headroom for rounding).
TRACE_CONSTANT = 4.4261

#: Regression bound on ||u_h|| over its stability estimate, frozen at
#: 1.5x the maximum observed on the first green acceptance matrix (0.3503).
STABILITY_CONSTANT = 0.55

# Elements per block of the projection check; bounds its working memory.
_PROJECTION_BLOCK = 1024


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


def _check_orthonormality() -> CheckResult:
    worst = 0.0
    for p in (1, 2, 3, 6, 10):
        basis = TriangleBasis(p)
        rule = quadrature_rule("triangle", 2 * p)
        vals = basis.eval(rule.points)
        gram = vals.T @ (rule.weights[:, None] * vals)
        worst = max(worst, float(np.abs(gram - np.eye(basis.dim)).max()))
        edge = EdgeBasis(p)
        erule = quadrature_rule("edge", 2 * p)
        evals = edge.eval(erule.points)
        egram = evals.T @ (erule.weights[:, None] * evals)
        worst = max(worst, float(np.abs(egram - np.eye(edge.dim)).max()))
    return CheckResult("orthonormality", worst <= 1e-12, f"max Gram deviation {worst:.3e}")


def _check_quadrature() -> CheckResult:
    worst = 0.0
    for degree in (0, 1, 2, 3, 5, 8, 12, 20):
        rule = quadrature_rule("triangle", degree)
        if rule.weights.min() <= 0:
            return CheckResult("quadrature-exactness", False, "nonpositive weight")
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                worst = max(worst, abs(got - exact) / exact)
        erule = quadrature_rule("edge", degree)
        for a in range(degree + 1):
            got = float(erule.weights @ erule.points**a)
            worst = max(worst, abs(got - 1.0 / (a + 1)) * (a + 1))
    return CheckResult("quadrature-exactness", worst <= 1e-13, f"max relative defect {worst:.3e}")


def _trace_ratio(geom: ElementGeometry, p: int, coeffs: np.ndarray) -> np.ndarray:
    """||v||_dT sqrt(h) / (p ||v||_T) for polynomials given by coefficient rows."""
    rule = quadrature_rule("edge", 2 * p)
    basis = TriangleBasis(p)
    boundary_sq = np.zeros(coeffs.shape[0])
    for face in range(3):
        phi = basis.eval(reference_face_points(face, rule.points)) / math.sqrt(geom.det)
        vals = coeffs @ phi.T
        boundary_sq += geom.face_lengths[face] * (np.abs(vals) ** 2 @ rule.weights)
    volume = np.linalg.norm(coeffs, axis=1)  # orthonormal basis
    return np.sqrt(boundary_sq) * math.sqrt(geom.h) / (p * volume)


def _check_trace_inequality() -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (1, 2, 3):
        dim = TriangleBasis(p).dim
        for h in (0.25, 0.125, 0.0625):
            s = h / math.sqrt(2.0)
            geom = ElementGeometry.from_vertices([[0.0, 0.0], [s, 0.0], [s, s]])
            coeffs = rng.standard_normal((200, dim))
            worst = max(worst, float(_trace_ratio(geom, p, coeffs).max()))
    return CheckResult(
        "trace-inequality",
        worst <= TRACE_CONSTANT,
        f"max ratio {worst:.6f} vs frozen constant {TRACE_CONSTANT}",
    )


def _projection_errors(n: int, p: int, func: Callable) -> tuple[float, float]:
    """Global element and trace L2 errors of the elementwise L2 projection.

    Elements are processed in blocks of `_PROJECTION_BLOCK`, with one call
    of `func` on the volume points of a block and one per local face.  The
    geometry comes from the mesh's stored arrays, so any affine mesh works.
    """
    mesh = build_structured_mesh(n)
    basis = TriangleBasis(p)
    vol_rule = quadrature_rule("triangle", 2 * p + 12)
    edge_rule = quadrature_rule("edge", 2 * p + 12)
    phi = basis.eval(vol_rule.points)
    face_pts = [reference_face_points(face, edge_rule.points) for face in range(3)]
    phi_faces = [basis.eval(pts) for pts in face_pts]

    v0 = mesh.vertices[mesh.triangles[:, 0]]
    jac, det, lengths = mesh.jacobians, mesh.dets, mesh.face_lengths

    def physical(sel: slice, ref_pts: np.ndarray) -> np.ndarray:
        pts = v0[sel, None, :] + np.einsum("qd,ecd->eqc", ref_pts, jac[sel])
        return pts.reshape(-1, 2)

    vol_sq = 0.0
    trace_sq = 0.0
    for start in range(0, mesh.n_elements, _PROJECTION_BLOCK):
        sel = slice(start, start + _PROJECTION_BLOCK)
        root_det = np.sqrt(det[sel])[:, None]
        values = np.asarray(func(physical(sel, vol_rule.points))).reshape(root_det.size, -1)
        coeff = root_det * ((values * vol_rule.weights) @ phi)  # (nE, N)
        diff = values - (coeff @ phi.T) / root_det
        vol_sq += float(det[sel] @ (np.abs(diff) ** 2 @ vol_rule.weights))
        for face in range(3):
            fvals = np.asarray(func(physical(sel, face_pts[face]))).reshape(root_det.size, -1)
            fdiff = fvals - (coeff @ phi_faces[face].T) / root_det
            trace_sq += float(lengths[sel, face] @ (np.abs(fdiff) ** 2 @ edge_rule.weights))
    return math.sqrt(vol_sq), math.sqrt(trace_sq)


def _check_projection_rates() -> CheckResult:
    func = lambda pts: np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])  # noqa: E731
    sizes = (8, 16, 32, 64)
    errs = [_projection_errors(n, 1, func) for n in sizes]
    log_h = np.log([math.sqrt(2.0) / n for n in sizes])
    slope_vol = float(np.polyfit(log_h, np.log([e[0] for e in errs]), 1)[0])
    slope_tr = float(np.polyfit(log_h, np.log([e[1] for e in errs]), 1)[0])
    return CheckResult(
        "projection-rates",
        slope_vol >= 1.9 and slope_tr >= 1.4,
        f"element slope {slope_vol:.3f} (>= 1.9), trace slope {slope_tr:.3f} (>= 1.4)",
    )


def _check_local_uniqueness() -> CheckResult:
    mesh = build_structured_mesh(4)
    worst = 0.0
    max_cond = 0.0
    for kappa in (1.0, 20.0, 100.0):
        for p in (1, 2, 3):
            cfg = ProblemConfig.for_mesh(kappa, p, mesh)
            for elem in range(mesh.n_elements):
                blocks = assemble_local_blocks(mesh_entities(mesh, elem), cfg)
                Q, U = local_solve(blocks, np.zeros(blocks.n_trace))
                worst = max(worst, float(np.abs(Q).max()), float(np.abs(U).max()))
                max_cond = max(max_cond, float(np.linalg.cond(blocks.system_matrix())))
    return CheckResult(
        "local-uniqueness",
        worst <= 1e-12,
        f"max zero-data coefficient {worst:.3e}, max local condition number {max_cond:.3e}",
    )


def _check_oracle(n: int = 2, p: int = 1, kappa: float = 5.0) -> CheckResult:
    mesh = build_structured_mesh(n)
    cfg = ProblemConfig.for_mesh(kappa, p, mesh)
    _, data = benchmark_problem(kappa)
    condensed, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
    mono = monolithic_solve(mesh, cfg, data.f, data.g)
    scale = max(condensed.coefficient_norm(), mono.coefficient_norm())
    dev = max(
        float(np.abs(condensed.Q - mono.Q).max()),
        float(np.abs(condensed.U - mono.U).max()),
        float(np.abs(condensed.uhat - mono.uhat).max()),
    ) / scale
    return CheckResult(
        "oracle", dev <= 1e-8, f"max coefficient deviation {dev:.3e} (n={n}, p={p}, kappa={kappa:g})"
    )


def _check_energy_identity(kappa: float = 20.0, n: int = 16, p: int = 2) -> CheckResult:
    res = run_benchmark_case(kappa, p, n)
    re, im = res.balance.residual_re, res.balance.residual_im
    ok = max(re, im) <= ENERGY_IDENTITY_TOL and res.stability <= STABILITY_CONSTANT
    return CheckResult(
        "energy-identity",
        ok,
        f"residuals re {re:.3e} im {im:.3e} (<= 1e-9), stability ratio {res.stability:.3f}",
    )


def _check_exact_solution() -> CheckResult:
    kappa = 20.0
    sol = ExactSolution(kappa)
    data = DataFunctions(kappa)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.45, 0.45, (60, 2))
    h = 1e-4
    lap = (
        sol.u(pts + [h, 0.0]) + sol.u(pts - [h, 0.0])
        + sol.u(pts + [0.0, h]) + sol.u(pts - [0.0, h])
        - 4.0 * sol.u(pts)
    ) / h**2
    helm = np.abs(-lap - kappa**2 * sol.u(pts) - data.f_tilde(pts))
    helm_rel = float(helm.max() / np.abs(data.f_tilde(pts)).max())

    # The Robin data must equal du/dn + i kappa u, with du/dn taken by a
    # centred difference of u along the outward normal, not from grad_u.
    t = np.linspace(-0.5, 0.5, 25)
    worst_robin = 0.0
    for normal, maker in (
        ([1.0, 0.0], lambda s: np.column_stack([np.full_like(s, 0.5), s])),
        ([-1.0, 0.0], lambda s: np.column_stack([np.full_like(s, -0.5), s])),
        ([0.0, 1.0], lambda s: np.column_stack([s, np.full_like(s, 0.5)])),
        ([0.0, -1.0], lambda s: np.column_stack([s, np.full_like(s, -0.5)])),
    ):
        bpts = maker(t)
        nrm = np.tile(normal, (t.size, 1))
        du_dn = (sol.u(bpts + h * nrm) - sol.u(bpts - h * nrm)) / (2.0 * h)
        g = data.g_tilde(bpts, nrm)
        resid = du_dn + 1j * kappa * sol.u(bpts) - g
        worst_robin = max(worst_robin, float(np.abs(resid).max() / np.abs(g).max()))
    ok = helm_rel <= 1e-4 and worst_robin <= 1e-4
    return CheckResult(
        "exact-solution",
        ok,
        f"Helmholtz FD residual {helm_rel:.3e} (<= 1e-4), "
        f"Robin FD residual {worst_robin:.3e} (<= 1e-4)",
    )


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "orthonormality": _check_orthonormality,
    "quadrature-exactness": _check_quadrature,
    "trace-inequality": _check_trace_inequality,
    "projection-rates": _check_projection_rates,
    "local-uniqueness": _check_local_uniqueness,
    "oracle": _check_oracle,
    "energy-identity": _check_energy_identity,
    "exact-solution": _check_exact_solution,
}


def run_verify(only: str | None = None, log: Callable[[str], None] = print) -> int:
    """Run the named checks (all by default); returns a process exit code."""
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check {only!r}; available: {', '.join(CHECKS)}")
    names = [only] if only else list(CHECKS)
    failed: list[CheckResult] = []
    for name in names:
        result = CHECKS[name]()
        log(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.measured}")
        if not result.passed:
            failed.append(result)
    if failed:
        log(f"{len(failed)} of {len(names)} checks failed; first: {failed[0].measured}")
        return 1
    return 0
