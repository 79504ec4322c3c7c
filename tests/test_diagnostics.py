import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from helmhdg.analytic import ExactSolution, benchmark_problem, data_quadrature_degree
from helmhdg.diagnostics import (
    ConvergenceTable,
    ErrorReport,
    compute_errors,
    convergence_rates,
    data_norms,
    energy_balance,
    run_benchmark_case,
    stability_ratio,
    write_convergence_csv,
)
from helmhdg.hdg_local import ProblemConfig
from helmhdg.mesh import build_structured_mesh
from helmhdg.polybasis import EdgeBasis, TriangleBasis, quadrature_rule
from helmhdg import diagnostics, skeleton
from helmhdg.skeleton import Solution, discretize, solve_helmholtz
from meshes import jittered_mesh, perturbed_mesh
from reference import (
    POLLUTION_ERRORS,
    POLLUTION_ERRORS_REL,
    benchmark_discretization,
    l2_project,
    uhat_on_faces_deviation,
)


def _zero_solution(mesh, p):
    n = TriangleBasis(p).dim
    return Solution(
        Q=np.zeros((mesh.n_elements, 2 * n), dtype=complex),
        U=np.zeros((mesh.n_elements, n), dtype=complex),
        uhat=np.zeros((p + 1) * mesh.n_edges, dtype=complex),
        p=p,
    )


def _benchmark_discretization(kappa, p, n):
    disc = benchmark_discretization(kappa, p, build_structured_mesh(n))
    return disc.mesh, disc


def _norm_u_by_radial_quadrature(kappa):
    """||u||_{L2} over the centered unit square by adaptive 1-d quadrature.

    A radial integrand against the arc length of the circle of radius r
    clipped to the square: 2 pi r for r <= 1/2, minus the four corner
    arcs beyond.
    """
    sol = ExactSolution(kappa)

    def integrand(r):
        arc = 2.0 * math.pi * r
        if r > 0.5:
            arc -= 8.0 * r * math.acos(0.5 / r)
        return abs(sol.u(np.array([[r, 0.0]]))[0]) ** 2 * arc

    val, err = quad(integrand, 0.0, math.sqrt(0.5), points=[0.5], limit=500,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return math.sqrt(val)


def test_zero_field_error_matches_adaptive_quadrature():
    kappa, p, n = 10.0, 1, 16
    mesh, disc = _benchmark_discretization(kappa, p, n)
    exact = ExactSolution(kappa)
    report = compute_errors(_zero_solution(mesh, p), exact, disc)
    reference = _norm_u_by_radial_quadrature(kappa)
    assert report.e_u == pytest.approx(reference, rel=1e-8)


def test_projection_injection_beats_solver():
    # Best-approximation sanity: exact coefficients injected by L2
    # projection must report a smaller e_u than the solver at same (n, p).
    kappa, p, n = 20.0, 1, 8
    case = run_benchmark_case(kappa, p, n)
    mesh = case.disc.mesh
    exact = ExactSolution(kappa)
    injected = _zero_solution(mesh, p)
    for elem in range(mesh.n_elements):
        degree = 2 * p + 12
        injected.U[elem] = l2_project("element", exact.u, p, (mesh, elem), quad_degree=degree)
    proj_report = compute_errors(injected, exact, case.disc)
    assert proj_report.e_u < case.report.e_u


def test_trace_error_nonnegative_and_refines():
    kappa, p = 20.0, 1
    exact = ExactSolution(kappa)
    errors = []
    for n in (8, 16):
        mesh, disc = _benchmark_discretization(kappa, p, n)
        sol = _zero_solution(mesh, p)
        for edge in range(mesh.n_edges):
            ends = mesh.vertices[mesh.edges[edge]]
            sol.uhat[(p + 1) * edge : (p + 1) * (edge + 1)] = l2_project(
                "edge", exact.u, p, ends, quad_degree=2 * p + 12
            )
        errors.append(compute_errors(sol, exact, disc).e_trace)
    assert errors[0] > 0.0
    assert errors[1] < errors[0]


def _per_face_trace_error(solution, exact, disc):
    """The trace error local face by local face, each interior edge seen
    from both of its elements, with uhat flipped to the face direction."""
    mesh, p = disc.mesh, disc.cfg.p
    m = p + 1
    rule = quadrature_rule("edge", data_quadrature_degree(p, disc.cfg.kappa, mesh.h_global))
    basis = EdgeBasis(p)
    e_t_sq = 0.0
    for face in range(3):
        a = mesh.vertices[mesh.triangles[:, face]]
        b = mesh.vertices[mesh.triangles[:, (face + 1) % 3]]
        pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
        coeff = solution.uhat.reshape(mesh.n_edges, m)[mesh.elem_edges[:, face]]
        plus = coeff @ basis.eval(rule.points).T
        minus = coeff @ basis.eval(1.0 - rule.points).T
        forward = (mesh.elem_edge_orient[:, face] == 1)[:, None]
        lengths = mesh.face_lengths[:, face]
        lam = np.where(forward, plus, minus) / np.sqrt(lengths)[:, None]
        diff = exact.u(pts.reshape(-1, 2)).reshape(mesh.n_elements, -1) - lam
        e_t_sq += float(lengths @ (np.abs(diff) ** 2 @ rule.weights))
    return math.sqrt(e_t_sq)


@pytest.mark.parametrize("kappa, p, n, uneven", [(20.0, 2, 8, False), (40.0, 2, 4, True)],
                         ids=["structured-n8", "uneven-boundary"])
def test_edge_major_trace_error_matches_per_face_loop(kappa, p, n, uneven, uneven_boundary_mesh):
    mesh = uneven_boundary_mesh(n) if uneven else build_structured_mesh(n)
    exact, data = benchmark_problem(kappa)
    disc = discretize(mesh, ProblemConfig.for_mesh(kappa, p, mesh), data.f, data.g)
    solution, _ = solve_helmholtz(disc)
    reference = _per_face_trace_error(solution, exact, disc)
    assert abs(compute_errors(solution, exact, disc).e_trace - reference) <= 1e-13 * reference


def _unblocked_errors(solution, exact, disc):
    """e_u, e_q and e_trace with the exact solution evaluated once per
    element class and once on all edges."""
    mesh, p = disc.mesh, disc.cfg.p
    e_u_sq = e_q_sq = 0.0
    for cls in disc.classes:
        rep = cls.ids[0]
        points = mesh.element_points(cls.ids, cls.rule.points, mesh.jacobians[rep])
        ue, grad = exact.u_and_grad(points.reshape(-1, 2))
        qe = (1j * grad / exact.kappa).reshape(len(cls.ids), -1, 2)
        uh, qh = solution.fields(cls.ids, cls.phi, mesh.dets[rep])
        du = uh - ue.reshape(len(cls.ids), -1)
        dq_sq = np.abs(qh[..., 0] - qe[:, :, 0]) ** 2 + np.abs(qh[..., 1] - qe[:, :, 1]) ** 2
        e_u_sq += mesh.dets[rep] * float((np.abs(du) ** 2 @ cls.rule.weights).sum())
        e_q_sq += mesh.dets[rep] * float((dq_sq @ cls.rule.weights).sum())
    rule = quadrature_rule("edge", data_quadrature_degree(p, disc.cfg.kappa, mesh.h_global))
    pts = mesh.edge_points(np.arange(mesh.n_edges), rule.points)
    elem, face = mesh.edge_to_elements[:, 0].T
    lengths = mesh.face_lengths[elem, face]
    uhat = solution.uhat.reshape(mesh.n_edges, p + 1) @ EdgeBasis(p).eval(rule.points).T
    diff = exact.u(pts.reshape(-1, 2)).reshape(mesh.n_edges, -1) - uhat / np.sqrt(lengths)[:, None]
    weights = np.where(mesh.boundary_flags, 1.0, 2.0) * lengths
    e_t_sq = float(weights @ (np.abs(diff) ** 2 @ rule.weights))
    return math.sqrt(e_u_sq), math.sqrt(e_q_sq), math.sqrt(e_t_sq)


def test_blocked_errors_match_unblocked(monkeypatch):
    # n = 40 has 1600 elements per class and 4880 edges, so both loops
    # take several blocks; the norms move by summation order only.
    kappa, p, n = 20.0, 2, 40
    mesh, disc = _benchmark_discretization(kappa, p, n)
    exact = ExactSolution(kappa)
    solution, _ = solve_helmholtz(disc)
    calls = []
    for name in ("u_and_grad", "u"):
        method = getattr(ExactSolution, name)
        monkeypatch.setattr(ExactSolution, name,
                            lambda self, pts, m=method: calls.append(len(pts)) or m(self, pts))
    report = compute_errors(solution, exact, disc)
    monkeypatch.undo()
    h = mesh.face_lengths[disc.classes[0].ids[0]].max()
    volume = quadrature_rule("triangle", data_quadrature_degree(p, kappa, h))
    edge = quadrature_rule("edge", data_quadrature_degree(p, kappa, mesh.h_global))
    # Blocks of 2^12 points: 163 elements of 25 points (9 full blocks and
    # one of 133 per class) and 819 edges of 5 points (5 full and one of 785).
    assert (volume.n_points, edge.n_points, skeleton.BLOCK_POINTS) == (25, 5, 2**12)
    assert calls == ([163 * 25] * 9 + [133 * 25]) * 2 + [819 * 5] * 5 + [785 * 5]
    reference = _unblocked_errors(solution, exact, disc)
    for value, ref in zip((report.e_u, report.e_q, report.e_trace), reference):
        assert abs(value - ref) <= 1e-13 * ref


def test_seconds_span_the_error_norms(monkeypatch):
    # The case's wall time runs from the discretization through the error
    # norms, so a slow error evaluation shows in it.
    compute = diagnostics.compute_errors

    def slow(*args, **kwargs):
        time.sleep(0.5)
        return compute(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "compute_errors", slow)
    report = run_benchmark_case(5.0, 1, 2).report
    assert 0.5 <= report.seconds < 5.0


def test_trace_error_evaluates_each_edge_once(monkeypatch):
    calls = []
    u = ExactSolution.u

    def counting_u(self, points):
        calls.append(len(points))
        return u(self, points)

    kappa, p, n = 20.0, 2, 8
    mesh, disc = _benchmark_discretization(kappa, p, n)
    exact = ExactSolution(kappa)
    solution, _ = solve_helmholtz(disc)
    monkeypatch.setattr(ExactSolution, "u", counting_u)
    compute_errors(solution, exact, disc)
    rule = quadrature_rule("edge", data_quadrature_degree(p, kappa, mesh.h_global))
    assert calls == [mesh.n_edges * rule.n_points]


def test_scaled_q_error_is_definitional():
    case = run_benchmark_case(20.0, 1, 8)
    assert case.report.e_q_scaled == pytest.approx(case.report.kappa * case.report.e_q, rel=1e-15)


def test_error_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        ErrorReport(
            kappa=1.0, p=1, n=1, h=1.0, dofs=1,
            e_u=float("nan"), e_q=0.0, e_q_scaled=0.0, e_trace=0.0, seconds=0.0,
        )


def _synthetic_table(exponent):
    table = ConvergenceTable()
    for n in (4, 8, 16, 32):
        h = math.sqrt(2.0) / n
        e = h**exponent
        table.add(
            ErrorReport(
                kappa=1.0, p=1, n=n, h=h, dofs=n,
                e_u=e, e_q=e, e_q_scaled=e, e_trace=e, seconds=0.0,
            )
        )
    return table


def test_synthetic_rate_h2():
    table = _synthetic_table(2.0)
    rates = convergence_rates(table)
    assert rates.slope_u == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(table.pairwise_rates("u"), 2.0, atol=1e-12)


def test_synthetic_rate_h32():
    rates = convergence_rates(_synthetic_table(1.5))
    assert rates.slope_trace == pytest.approx(1.5, abs=1e-12)


def test_rates_require_three_rows():
    table = _synthetic_table(2.0)
    table.rows = table.rows[:2]
    with pytest.raises(ValueError):
        convergence_rates(table)


def test_table_rows_must_refine():
    table = _synthetic_table(2.0)
    with pytest.raises(ValueError):
        table.add(table.rows[0])


def test_energy_identity_on_converged_solve():
    case = run_benchmark_case(20.0, 2, 16)
    assert case.balance.residual_re <= 1e-9
    assert case.balance.residual_im <= 1e-9


def test_energy_identity_zero_data():
    mesh = build_structured_mesh(4)
    cfg = ProblemConfig.for_mesh(10.0, 1, mesh)
    zf = lambda pts: np.zeros(len(pts), complex)  # noqa: E731
    zg = lambda pts, nrm: np.zeros(len(pts), complex)  # noqa: E731
    balance = energy_balance(_zero_solution(mesh, 1), discretize(mesh, cfg, zf, zg))
    assert (balance.residual_re, balance.residual_im) == (0.0, 0.0)


def test_energy_identity_detects_corruption():
    _, disc = _benchmark_discretization(20.0, 1, 16)
    solution, _ = solve_helmholtz(disc)
    before = energy_balance(solution, disc)
    assert max(before.residual_re, before.residual_im) <= 1e-9
    solution.uhat[0] += 1e-3
    after = energy_balance(solution, disc)
    assert max(after.residual_re, after.residual_im) > 1e-6


@pytest.mark.parametrize("make, p", [
    (lambda: build_structured_mesh(4), 2),
    (lambda: build_structured_mesh(8), 3),
    (perturbed_mesh, 1),
    (jittered_mesh, 2),
], ids=["structured-4-p2", "structured-8-p3", "perturbed-p1", "jittered-p2"])
def test_uhat_on_faces_matches_a_per_element_loop(make, p):
    # The energy identity's trace on the faces, read from the tables'
    # `edge_phi`, against the edge basis evaluated per element in each
    # face's orientation (2.3e-16 relative at worst); swapping the
    # orientation convention in the tables moves it by 1.5.
    assert uhat_on_faces_deviation(benchmark_discretization(20.0, p, make())) <= 1e-12


@pytest.mark.parametrize("p,n", [(6, 4), (10, 2)])
def test_high_order_headroom(p, n):
    # Orders beyond the study's p <= 3 stay well conditioned and keep the
    # energy identity at machine precision.
    case = run_benchmark_case(20.0, p, n)
    assert case.balance.residual_re <= 1e-9
    assert case.balance.residual_im <= 1e-9
    assert case.report.e_u < 1e-3


def test_trace_inequality_bound_holds_on_solve():
    # Computable variant of the a priori trace bound, checked by the
    # pipeline on every solve; re-verify the quantities here.
    case = run_benchmark_case(20.0, 2, 8)
    f_norm, g_norm = data_norms(case.disc)
    assert case.balance.trace_jump_sq <= f_norm * case.balance.norm_u + g_norm**2


def test_stability_ratio_formula():
    cfg = ProblemConfig(kappa=10.0, p=2, tau=1.0)
    ratio = stability_ratio(3.0, 1.0, 2.0, cfg, h=0.1)
    denom = (1.0 + 1000.0 * 0.01 / 4.0) * 1.0 + (1.0 + 10.0**1.5 * 0.1 / 2.0) * 2.0
    assert ratio == pytest.approx(3.0 / denom)


def test_convergence_csv_format(tmp_path):
    table = _synthetic_table(2.0)
    path = tmp_path / "table.csv"
    write_convergence_csv(str(path), table, ["alpha = 1", "beta = 2"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha = 1"
    assert lines[1] == "# beta = 2"
    header = lines[2].split(",")
    assert header == [
        "kappa", "p", "n", "h", "dofs",
        "e_u", "e_q", "e_q_scaled", "e_trace",
        "rate_u", "rate_q", "rate_trace", "seconds",
    ]
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 4
    assert rows[0][9] == ""  # no rate on the first row
    assert float(rows[1][9]) == pytest.approx(2.0)
    # 17 significant digits round-trip
    assert float(rows[0][3]) == math.sqrt(2.0) / 4.0


def test_boundary_data_is_evaluated_in_batches(monkeypatch):
    # One g call for all boundary edges, not one per boundary edge.
    from helmhdg.analytic import DataFunctions

    calls = []
    g = DataFunctions.g

    def counting_g(self, points, normals):
        calls.append(len(points))
        return g(self, points, normals)

    monkeypatch.setattr(DataFunctions, "g", counting_g)
    run_benchmark_case(20.0, 2, 8)
    assert len(calls) == 1


def test_data_is_evaluated_once(monkeypatch):
    # The solve and its diagnostics share one discretization: f runs once
    # per element class, the class representatives are assembled in one
    # call, and g runs once (its moments and its norm share the values).
    import sys

    from helmhdg import hdg_local
    from helmhdg.analytic import DataFunctions

    calls = {"f": 0, "g": 0, "assemble_local_blocks": 0}
    f, g, assemble = DataFunctions.f, DataFunctions.g, hdg_local.assemble_local_blocks

    def counting_f(self, points):
        calls["f"] += 1
        return f(self, points)

    def counting_g(self, points, normals):
        calls["g"] += 1
        return g(self, points, normals)

    def counting_assemble(mesh, elements, cfg):
        calls["assemble_local_blocks"] += 1
        return assemble(mesh, elements, cfg)

    monkeypatch.setattr(DataFunctions, "f", counting_f)
    monkeypatch.setattr(DataFunctions, "g", counting_g)
    for name, module in list(sys.modules.items()):
        if name.startswith("helmhdg") and getattr(module, "assemble_local_blocks", None) is assemble:
            monkeypatch.setattr(module, "assemble_local_blocks", counting_assemble)
    n_classes = build_structured_mesh(8).elem_class.max() + 1
    assert n_classes == 2
    run_benchmark_case(20.0, 2, 8)
    assert calls == {"f": n_classes, "g": 1, "assemble_local_blocks": 1}


@pytest.mark.parametrize("kappa, n", list(POLLUTION_ERRORS), ids=["kappa20-n22", "kappa40-n63"])
def test_pollution_errors_are_pinned(kappa, n):
    # Two p = 2 cases of the pollution study against committed values, so
    # a change of tau or of the data rule is caught by what it does to the
    # errors.  Rounding moves recorded so far stay below 1e-11 relative.
    report = run_benchmark_case(kappa, 2, n).report
    assert (report.e_u, report.e_q, report.e_trace) == pytest.approx(
        POLLUTION_ERRORS[kappa, n], rel=POLLUTION_ERRORS_REL, abs=0.0
    )
