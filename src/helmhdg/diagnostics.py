"""Error norms, the discrete energy identity, and convergence tables.

The flagship correctness invariant is the discrete energy identity: for
any computed solution,

    i kappa ||u_h||^2 - i kappa ||q_h||^2 + tau ||u_h - uhat||^2_dTh
        + ||uhat||^2_dOmega  =  (f, u_h) + <g, uhat>_dOmega,

an algebraic consequence of testing the scheme with its own solution.
Both sides are evaluated from the solve's own `Discretization`
(coefficient norms, assembly-rule face integrals, and the very load
vectors the solve used, not recomputed), so the residual of each part is
limited only by the direct solver and must sit at machine precision.
Its real part also yields the computable bound
tau ||u_h - uhat||^2 <= ||f|| ||u_h|| + ||g||^2, where ||f||^2 and
||g||^2 are held by the discretization, summed from the same values of
f and g that built the loads; the data are never evaluated again.  The
standard pipeline enforces both on every solve.

Error norms against the exact solution use `data_quadrature_degree` on
the global mesh size, which has no override: the volume errors on the
discretization's one triangle data rule, at each element's own mapped
points and det J as its source loads, and the trace error on the edge
rule of the same degree, the one rule of every edge integral, boundary
data included.  The trace
error evaluates each edge once, along its global direction, and weights
interior edges by 2 (once per incident element) and boundary edges by 1,
matching the broken-boundary norm.  The exact solution is evaluated on
`skeleton.blocks` of elements or edges, each of `skeleton.BLOCK_POINTS`
points give or take one item, so the error
norms add no per-point array of the whole mesh to the peak memory, however
many points the data rule has.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import ExactSolution, benchmark_problem, data_quadrature_degree
from .hdg_local import ProblemConfig, reference_tables
from .mesh import build_structured_mesh
from .polybasis import EdgeBasis, quadrature_rule
from .skeleton import Discretization, Solution, SolveInfo, blocks, discretize, solve_helmholtz

#: Contract on both parts of the relative energy-identity residual.
ENERGY_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class ErrorReport:
    """Error norms and bookkeeping of one solve."""

    kappa: float
    p: int
    n: int
    h: float
    dofs: int
    e_u: float
    e_q: float
    e_q_scaled: float
    e_trace: float
    seconds: float = float("nan")  # the case's wall time, set by run_benchmark_case

    def __post_init__(self):
        for name in ("e_u", "e_q", "e_q_scaled", "e_trace"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass
class ConvergenceTable:
    """Error reports at increasing mesh resolution for one (kappa, p)."""

    rows: list[ErrorReport] = field(default_factory=list)

    def add(self, report: ErrorReport) -> None:
        if self.rows and report.n <= self.rows[-1].n:
            raise ValueError("rows must be strictly ordered by increasing n")
        self.rows.append(report)

    def errors(self, kind: str) -> np.ndarray:
        return np.array([getattr(r, f"e_{kind}") for r in self.rows])

    def pairwise_rates(self, kind: str) -> list[float | None]:
        """Observed slope between consecutive rows; equals the log2 error
        ratio when the mesh size halves, and is None where both rows share
        h, as a fixed line may put two wave numbers on one mesh."""
        e = self.errors(kind)
        h = np.array([r.h for r in self.rows])
        return [
            float(np.log(e[k] / e[k + 1]) / np.log(h[k] / h[k + 1])) if h[k] != h[k + 1] else None
            for k in range(len(e) - 1)
        ]


@dataclass(frozen=True)
class RateSummary:
    """Observed h-slopes (least squares over the finest three rows)."""

    slope_u: float
    slope_q: float
    slope_trace: float


def convergence_rates(table: ConvergenceTable) -> RateSummary:
    """Observed convergence slopes of a table.

    Coarse rows oscillate before the asymptotic regime sets in, so the
    headline slope is fitted to the finest three rows only.
    """
    if len(table.rows) < 3:
        raise ValueError("need at least 3 rows to measure convergence rates")
    log_h = np.log([r.h for r in table.rows[-3:]])

    def slope(kind: str) -> float:
        return float(np.polyfit(log_h, np.log(table.errors(kind)[-3:]), 1)[0])

    return RateSummary(
        slope_u=slope("u"),
        slope_q=slope("q"),
        slope_trace=slope("trace"),
    )


def _uhat_on_faces(disc: Discretization, uhat: np.ndarray, face: int) -> np.ndarray:
    """Trace unknown on one local face slot of every element, (F, nf), at
    the assembly's face rule points, in its edge basis of each orientation."""
    mesh, p = disc.mesh, disc.cfg.p
    coeff = uhat.reshape(mesh.n_edges, p + 1)[mesh.elem_edges[:, face]]
    edge_phi = reference_tables(p).edge_phi
    plus = coeff @ edge_phi[0].T
    minus = coeff @ edge_phi[1].T
    flags = mesh.elem_edge_orient[:, face]
    lengths = mesh.face_lengths[:, face]
    return np.where((flags == 1)[:, None], plus, minus) / np.sqrt(lengths)[:, None]


def compute_errors(
    solution: Solution,
    exact: ExactSolution,
    disc: Discretization,
) -> ErrorReport:
    """L2 errors of (u_h, q_h) on the data rule of `discretize` and the
    broken trace error of uhat, taken over `blocks` of the elements, or of
    the edges.  As `discretize` sums ||f||^2, each element's or edge's
    square error is kept and the squares are summed once, not block by
    block."""
    mesh, cfg, rule = disc.mesh, disc.cfg, disc.rule
    u_sq = np.empty(mesh.n_elements)
    q_sq = np.empty(mesh.n_elements)
    for sel in blocks(mesh.n_elements, rule.n_points):
        points = mesh.element_points(sel, rule.points)
        ue, grad = exact.u_and_grad(points.reshape(-1, 2))
        uh, qh = solution.fields(sel, disc.phi, mesh.dets[sel])
        du = uh - ue.reshape(uh.shape)
        dq = qh - ((1j / exact.kappa) * grad).reshape(qh.shape)
        dq_sq = dq.real**2 + dq.imag**2
        u_sq[sel] = (du.real**2 + du.imag**2) @ rule.weights
        q_sq[sel] = (dq_sq[..., 0] + dq_sq[..., 1]) @ rule.weights

    rule = quadrature_rule("edge", data_quadrature_degree(cfg.p, cfg.kappa, mesh.h_global))
    basis = EdgeBasis(cfg.p).eval(rule.points).T
    traces = solution.uhat.reshape(mesh.n_edges, cfg.p + 1)
    t_sq = np.empty(mesh.n_edges)
    for sel in blocks(mesh.n_edges, rule.n_points):
        edges = np.arange(sel.start, sel.stop)
        elem, face = mesh.edge_to_elements[edges, 0].T
        lengths = mesh.face_lengths[elem, face]
        exact_u = exact.u(mesh.edge_points(edges, rule.points).reshape(-1, 2))
        diff = exact_u.reshape(edges.size, -1) - (traces[edges] @ basis) / np.sqrt(lengths)[:, None]
        # Interior edges count once per incident element.
        weights = np.where(mesh.boundary_flags[edges], 1.0, 2.0) * lengths
        t_sq[sel] = weights * ((diff.real**2 + diff.imag**2) @ rule.weights)
    e_t_sq = float(t_sq.sum())

    e_u = math.sqrt(float(mesh.dets @ u_sq))
    e_q = math.sqrt(float(mesh.dets @ q_sq))
    return ErrorReport(
        kappa=cfg.kappa,
        p=cfg.p,
        n=mesh.n if mesh.n is not None else -1,
        h=mesh.h_global,
        dofs=solution.uhat.size,
        e_u=e_u,
        e_q=e_q,
        e_q_scaled=cfg.kappa * e_q,
        e_trace=math.sqrt(e_t_sq),
    )


@dataclass(frozen=True)
class EnergyBalance:
    """Both sides of the discrete energy identity and derived quantities."""

    lhs: complex
    rhs: complex
    norm_u: float
    norm_q: float
    trace_jump_sq: float  # tau || u_h - uhat ||^2 over all element boundaries
    uhat_boundary_sq: float
    residual_re: float
    residual_im: float


def energy_balance(solution: Solution, disc: Discretization) -> EnergyBalance:
    """Evaluate the discrete energy identity for a computed solution.

    Volume norms come from coefficient sums (the bases are orthonormal),
    the jump term from u_h and uhat on each local face of all elements
    at once, on the assembly's own face tables (`reference_tables`), and
    the right-hand side pairs the solution with the load vectors held by
    the discretization the solve used, so the identity holds to solver
    precision.
    """
    mesh, cfg = disc.mesh, disc.cfg
    norm_u_sq = float(np.sum(solution.U.real**2 + solution.U.imag**2))
    norm_q_sq = float(np.sum(solution.Q.real**2 + solution.Q.imag**2))

    ref = reference_tables(cfg.p)
    inv_sqrt_det = 1.0 / np.sqrt(mesh.dets)[:, None]
    jump_sq = 0.0
    for face in range(3):
        uh = inv_sqrt_det * (solution.U @ ref.face_phi[face].T)
        jump = uh - _uhat_on_faces(disc, solution.uhat, face)
        jump_sq += float(
            mesh.face_lengths[:, face] @ ((jump.real**2 + jump.imag**2) @ ref.face_weights)
        )

    uhat_bd = solution.uhat.reshape(mesh.n_edges, cfg.p + 1)[mesh.boundary_flags]
    uhat_bd_sq = float(np.sum(uhat_bd.real**2 + uhat_bd.imag**2))

    f_pairing = np.sum(disc.f_moments * np.conj(solution.U))
    rhs = complex(f_pairing + np.dot(disc.g_moments, np.conj(solution.uhat)))
    lhs = 1j * cfg.kappa * (norm_u_sq - norm_q_sq) + cfg.tau * jump_sq + uhat_bd_sq

    def rel(a: float, b: float) -> float:
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale > 0.0 else 0.0

    return EnergyBalance(
        lhs=lhs,
        rhs=rhs,
        norm_u=math.sqrt(norm_u_sq),
        norm_q=math.sqrt(norm_q_sq),
        trace_jump_sq=cfg.tau * jump_sq,
        uhat_boundary_sq=uhat_bd_sq,
        residual_re=rel(lhs.real, rhs.real),
        residual_im=rel(lhs.imag, rhs.imag),
    )


def data_norms(disc: Discretization) -> tuple[float, float]:
    """L2 norms of the source over the domain and of g over the boundary,
    from the values of f and g that built the solve's loads."""
    return math.sqrt(disc.f_sq), math.sqrt(disc.g_sq)


def stability_ratio(norm_u: float, f_norm: float, g_norm: float, cfg: ProblemConfig, h: float) -> float:
    """||u_h|| over its wave-number-explicit stability bound.

    The denominator is (1 + kappa^3 h^2 / p^2) ||f|| +
    (1 + kappa^(3/2) h / p) ||g||; boundedness of the ratio across the
    test matrix is a regression guard on the solver's stability.
    """
    kappa, p = cfg.kappa, cfg.p
    denom = (1.0 + kappa**3 * h**2 / p**2) * f_norm + (1.0 + kappa**1.5 * h / p) * g_norm
    return norm_u / denom if denom > 0.0 else 0.0


@dataclass(frozen=True)
class CaseResult:
    """Everything measured for one benchmark solve."""

    report: ErrorReport
    disc: Discretization
    solution: Solution
    info: SolveInfo
    balance: EnergyBalance
    stability: float


def run_benchmark_case(kappa: float, p: int, n: int) -> CaseResult:
    """Solve the benchmark problem on the structured n x n mesh.

    Enforces the discrete energy identity (both parts within
    ENERGY_IDENTITY_TOL) and the computable energy inequality
    tau ||u_h - uhat||^2 <= ||f|| ||u_h|| + ||g||^2 after the solve.
    """
    mesh = build_structured_mesh(n)
    cfg = ProblemConfig.for_mesh(kappa, p, mesh)
    exact, data = benchmark_problem(kappa)
    t0 = time.perf_counter()
    disc = discretize(mesh, cfg, data.f, data.g)
    solution, info = solve_helmholtz(disc)
    balance = energy_balance(solution, disc)
    f_norm, g_norm = data_norms(disc)
    if max(balance.residual_re, balance.residual_im) > ENERGY_IDENTITY_TOL:
        raise RuntimeError(
            f"energy identity violated at kappa={kappa:g} p={p} n={n}: relative residual "
            f"re {balance.residual_re:.3e} im {balance.residual_im:.3e} "
            f"exceeds {ENERGY_IDENTITY_TOL:.0e}"
        )
    bound = f_norm * balance.norm_u + g_norm**2
    if balance.trace_jump_sq > bound * (1.0 + 1e-9) + 1e-300:
        raise RuntimeError(f"energy inequality violated: {balance.trace_jump_sq!r} > {bound!r}")
    report = replace(compute_errors(solution, exact, disc), seconds=time.perf_counter() - t0)
    stability = stability_ratio(balance.norm_u, f_norm, g_norm, cfg, mesh.h_global)
    return CaseResult(
        report=report, disc=disc, solution=solution, info=info, balance=balance,
        stability=stability,
    )


def format_float(value: float) -> str:
    """Lossless decimal rendering used in every CSV and report."""
    return f"{value:.17g}"


def write_convergence_csv(path: str, table: ConvergenceTable, config_lines: list[str]) -> None:
    """Write a convergence table with pairwise rates and a config-echo
    header; a rate cell is empty on the first row and where a row shares
    the previous row's h."""
    columns = [
        "kappa", "p", "n", "h", "dofs",
        "e_u", "e_q", "e_q_scaled", "e_trace",
        "rate_u", "rate_q", "rate_trace", "seconds",
    ]
    rates = {
        kind: [""] + ["" if r is None else format_float(r) for r in table.pairwise_rates(kind)]
        for kind in ("u", "q", "trace")
    }
    with open(path, "w", encoding="utf-8") as fh:
        for line in config_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for k, r in enumerate(table.rows):
            row = [
                format_float(r.kappa), str(r.p), str(r.n), format_float(r.h), str(r.dofs),
                format_float(r.e_u), format_float(r.e_q), format_float(r.e_q_scaled),
                format_float(r.e_trace),
                rates["u"][k], rates["q"][k], rates["trace"][k],
                format_float(r.seconds),
            ]
            fh.write(",".join(row) + "\n")
