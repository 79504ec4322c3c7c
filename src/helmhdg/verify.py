"""Named self-checks bundling every module's invariants for the CLI.

Each check returns its measured value(s) so the runner can print one
line per check; any failure flips the process exit code, and a check
that raises fails with the exception on its line while the others still
run.  No timing or other varying value enters a line, so the output
repeats byte for byte.  Per-element work runs on arrays: local
uniqueness assembles one element per congruence class of the mesh
(`Mesh.elem_class`, the classes the solver condenses once each) in one
batched `assemble_local_blocks` call and takes one stacked
`np.linalg.cond` per (kappa, p) over the classes, and quadrature rules
and reference tables are built once per process.  The trace-inequality
check derives its triangles by the mesh's own `element_geometry`.  The
orthonormality and trace-inequality checks read the solver's own
`hdg_local.reference_tables` (the mass M, the 2p face rule and the basis
values on it), so they check the tables the assembly uses, not a
re-evaluation of the bases.  The runner calls every check through
`CHECKS`, whose entries the `verify` workload of the benchmark
(`perfbench/`) wraps to time the suite check by check.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import DataFunctions, ExactSolution, benchmark_problem
from .diagnostics import ENERGY_IDENTITY_TOL, run_benchmark_case
from .hdg_local import ProblemConfig, assemble_local_blocks, reference_tables
from .mesh import build_structured_mesh, element_geometry
from .polybasis import TriangleBasis, quadrature_rule, reference_face_points
from .skeleton import blocks, discretize, monolithic_solve, solve_helmholtz

#: Brute-force sup of ||v||_dT sqrt(h) / (p ||v||_T) over P_p on the
#: reference element, maximized over the coefficient sphere (worst case
#: is p = 1; measured 4.42606716, frozen with headroom for rounding).
TRACE_CONSTANT = 4.4261

#: Regression bound on ||u_h|| over its stability estimate, frozen at
#: 1.5x the maximum observed on the first green acceptance matrix (0.3503).
STABILITY_CONSTANT = 0.55

#: Largest accepted condition number of a local system, so a local solve
#: keeps at least 8 significant digits (measured maximum 1.293e3).
LOCAL_COND_BOUND = 1e8

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


def _check_orthonormality() -> CheckResult:
    """Gram deviations of the bases as the assembly integrates them: the
    mass M of `reference_tables` and the edge Gram on its face rule."""
    worst = 0.0
    for p in (1, 2, 3, 6, 10):
        ref = reference_tables(p)
        worst = max(worst, float(np.abs(ref.M - np.eye(ref.M.shape[0])).max()))
        psi = ref.edge_phi[0]
        egram = psi.T @ (ref.face_weights[:, None] * psi)
        worst = max(worst, float(np.abs(egram - np.eye(p + 1)).max()))
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


def _trace_ratio(
    det: float, lengths: np.ndarray, p: int, coeffs: np.ndarray, face_phi: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """||v||_dT sqrt(h) / (p ||v||_T) on a triangle of det J `det` and face
    lengths `lengths`, for polynomials given by coefficient rows, with
    `face_phi` the reference basis values at the edge rule points (weights
    `weights`) mapped onto each local face."""
    boundary_sq = np.zeros(coeffs.shape[0])
    for face in range(3):
        phi = face_phi[face] / math.sqrt(det)
        vals = coeffs @ phi.T
        boundary_sq += lengths[face] * (np.abs(vals) ** 2 @ weights)
    volume = np.linalg.norm(coeffs, axis=1)  # orthonormal basis
    return np.sqrt(boundary_sq) * math.sqrt(lengths.max()) / (p * volume)


def _check_trace_inequality() -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (1, 2, 3):
        ref = reference_tables(p)
        for h in (0.25, 0.125, 0.0625):
            s = h / math.sqrt(2.0)
            _, det, lengths, _ = element_geometry(np.array([[[0.0, 0.0], [s, 0.0], [s, s]]]))
            coeffs = rng.standard_normal((200, ref.M.shape[0]))
            ratio = _trace_ratio(det[0], lengths[0], p, coeffs, ref.face_phi, ref.face_weights)
            worst = max(worst, float(ratio.max()))
    return CheckResult(
        "trace-inequality",
        worst <= TRACE_CONSTANT,
        f"max ratio {worst:.6f} vs frozen constant {TRACE_CONSTANT}",
    )


def _projection_errors(n: int, p: int, func: Callable) -> tuple[float, float]:
    """Global element and trace L2 errors of the elementwise L2 projection.

    Elements are processed in the slices of `skeleton.blocks`, with one
    call of `func` per block on the volume points and the points of the
    three local faces together, which `Mesh.element_points` maps by each
    element's own Jacobian.  The geometry comes from the mesh's stored
    arrays, so any affine mesh works.
    """
    mesh = build_structured_mesh(n)
    vol_rule = quadrature_rule("triangle", 2 * p + 12)
    edge_rule = quadrature_rule("edge", 2 * p + 12)
    nv = vol_rule.n_points
    ref = np.concatenate(
        [vol_rule.points] + [reference_face_points(face, edge_rule.points) for face in range(3)])
    phi = TriangleBasis(p).eval(ref)

    vol_sq = 0.0
    trace_sq = 0.0
    for sel in blocks(mesh.n_elements, len(ref)):
        root_det = np.sqrt(mesh.dets[sel])[:, None]
        points = mesh.element_points(sel, ref)
        values = np.asarray(func(points.reshape(-1, 2))).reshape(root_det.size, -1)
        coeff = root_det * ((values[:, :nv] * vol_rule.weights) @ phi[:nv])  # (nE, N)
        diff_sq = np.abs(values - (coeff @ phi.T) / root_det) ** 2
        vol_sq += float(mesh.dets[sel] @ (diff_sq[:, :nv] @ vol_rule.weights))
        face_sq = diff_sq[:, nv:].reshape(-1, 3, edge_rule.n_points) @ edge_rule.weights
        trace_sq += float(np.sum(mesh.face_lengths[sel] * face_sq))
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


def _local_condition_numbers() -> np.ndarray:
    """2-norm condition numbers of the local systems of every element of
    the 4 x 4 mesh, shape (kappa, p, element): one batched assembly and
    one stacked `np.linalg.cond` per (kappa, p) over the element classes.

    The first member of each class of `Mesh.elem_class` is assembled, as
    the solver condenses it, and its condition number is broadcast to the
    other members, so the check bounds exactly the local systems that the
    solver solves.
    """
    mesh = build_structured_mesh(4)
    first = np.unique(mesh.elem_class, return_index=True)[1]
    conds = np.empty((3, 3, mesh.n_elements))
    for i, kappa in enumerate((1.0, 20.0, 100.0)):
        for j, p in enumerate((1, 2, 3)):
            local = assemble_local_blocks(mesh, first, ProblemConfig.for_mesh(kappa, p, mesh))
            conds[i, j] = np.linalg.cond(local.system_matrix())[mesh.elem_class]
    return conds


def _check_local_uniqueness() -> CheckResult:
    conds = _local_condition_numbers()
    worst = float(conds.max())  # NaN propagates, unlike the builtin max
    return CheckResult(
        "local-uniqueness",
        worst <= LOCAL_COND_BOUND,  # false for inf and NaN
        f"max local condition number {worst:.3e} (<= {LOCAL_COND_BOUND:.0e}) "
        f"over {conds.size} local systems",
    )


def _check_oracle() -> CheckResult:
    n, p, kappa = 2, 1, 5.0
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


def _check_energy_identity() -> CheckResult:
    res = run_benchmark_case(20.0, 2, 16)
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
    # Every point of each stencil goes to one call of u.
    shifts = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    u = sol.u(pts + shifts[:, None]).reshape(len(shifts), -1)
    lap = (u[1] + u[2] + u[3] + u[4] - 4.0 * u[0]) / h**2
    helm = np.abs(-lap - kappa**2 * u[0] - data.f_tilde(pts))
    helm_rel = float(helm.max() / np.abs(data.f_tilde(pts)).max())

    # The Robin data must equal du/dn + i kappa u, with du/dn taken by a
    # centred difference of u along the outward normal, not from grad_u.
    t = np.linspace(-0.5, 0.5, 25)
    side = np.full_like(t, 0.5)
    bpts = np.stack([
        np.column_stack([side, t]), np.column_stack([-side, t]),
        np.column_stack([t, side]), np.column_stack([t, -side]),
    ])
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    nrm = np.broadcast_to(normals[:, None], bpts.shape)
    ub = sol.u(np.stack([bpts + h * nrm, bpts - h * nrm, bpts])).reshape(3, 4, -1)
    du_dn = (ub[0] - ub[1]) / (2.0 * h)
    g = data.g_tilde(bpts, nrm).reshape(4, -1)
    resid = du_dn + 1j * kappa * ub[2] - g
    worst_robin = float((np.abs(resid).max(axis=1) / np.abs(g).max(axis=1)).max())
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
    """Run the named checks (all by default); returns a process exit code.

    A check that raises fails with the exception on its line, and its
    traceback goes to stderr; the checks after it still run.
    """
    if only is not None and only not in CHECKS:
        raise ValueError(f"unknown check {only!r}; available: {', '.join(CHECKS)}")
    names = [only] if only else list(CHECKS)
    failed: list[CheckResult] = []
    for name in names:
        try:
            result = CHECKS[name]()
        except Exception as exc:  # one broken check must not hide the others
            traceback.print_exc()
            result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
        log(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.measured}")
        if not result.passed:
            failed.append(result)
    if failed:
        log(f"{len(failed)} of {len(names)} checks failed; first: {failed[0].measured}")
        return 1
    return 0
