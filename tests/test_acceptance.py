"""Acceptance suite: one test per release criterion, each printing a
pass/fail summary line with the measured values at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmhdg.analytic import benchmark_problem
from helmhdg.diagnostics import (
    CaseResult,
    ConvergenceTable,
    convergence_rates,
    run_benchmark_case,
)
from helmhdg.hdg_local import ProblemConfig
from helmhdg.mesh import build_structured_mesh
from helmhdg.skeleton import discretize, monolithic_solve, solve_helmholtz
from helmhdg.verify import (
    STABILITY_CONSTANT,
    _check_local_uniqueness,
    _check_projection_rates,
    _check_trace_inequality,
)
from reference import global_matrix

MATRIX_KAPPAS = (5.0, 20.0, 40.0)
MATRIX_ORDERS = (1, 2, 3)
MATRIX_SIZES = (8, 16, 32)

#: Line constant of the fixed kappa^3 h^2 / p^2 pollution study; chosen so
#: the finest run (kappa = 40) stays at desk scale (n = 179).
POLLUTION_LINE = 4.0


def _report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def matrix_results() -> dict[tuple, CaseResult]:
    return {
        (kappa, p, n): run_benchmark_case(kappa, p, n)
        for kappa in MATRIX_KAPPAS
        for p in MATRIX_ORDERS
        for n in MATRIX_SIZES
    }


@pytest.fixture(scope="module")
def sweep_tables() -> dict[int, ConvergenceTable]:
    tables = {}
    for p in (1, 2, 3):
        table = ConvergenceTable()
        for n in (8, 16, 32, 64):
            table.add(run_benchmark_case(20.0, p, n).report)
        tables[p] = table
    return tables


def test_criterion_1_energy_identity(matrix_results):
    worst = 0.0
    for case in matrix_results.values():
        worst = max(worst, case.balance.residual_re, case.balance.residual_im)
        assert case.balance.residual_re <= 1e-9
        assert case.balance.residual_im <= 1e-9
    _report(f"[PASS] criterion 1 (energy identity): max residual {worst:.3e} <= 1e-9 "
            f"over {len(matrix_results)} solves")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for kappa in (5.0, 20.0):
        for p in (1, 2):
            for n in (1, 2):
                mesh = build_structured_mesh(n)
                cfg = ProblemConfig.for_mesh(kappa, p, mesh)
                _, data = benchmark_problem(kappa)
                condensed, _ = solve_helmholtz(discretize(mesh, cfg, data.f, data.g))
                mono = monolithic_solve(mesh, cfg, data.f, data.g)
                scale = max(condensed.coefficient_norm(), mono.coefficient_norm())
                dev = max(
                    np.abs(condensed.Q - mono.Q).max(),
                    np.abs(condensed.U - mono.U).max(),
                    np.abs(condensed.uhat - mono.uhat).max(),
                ) / scale
                worst = max(worst, dev)
                assert dev <= 1e-8
    _report(f"[PASS] criterion 2 (condensed vs monolithic oracle): max deviation {worst:.3e} <= 1e-8")


def test_criterion_3_u_convergence(sweep_tables):
    slope_1 = convergence_rates(sweep_tables[1]).slope_u
    assert 1.8 <= slope_1 <= 2.3
    higher = {p: convergence_rates(sweep_tables[p]).slope_u for p in (2, 3)}
    for p, slope in higher.items():
        assert slope >= 1.8
    _report(
        "[PASS] criterion 3 (u-convergence, kappa=20): "
        f"p=1 slope {slope_1:.3f} in [1.8, 2.3]; "
        + "; ".join(f"p={p} slope {s:.3f} >= 1.8" for p, s in higher.items())
    )


def test_criterion_4_trace_convergence(sweep_tables):
    slopes = {p: convergence_rates(sweep_tables[p]).slope_trace for p in (1, 2, 3)}
    for slope in slopes.values():
        assert slope >= 1.4
    _report(
        "[PASS] criterion 4 (trace convergence): "
        + "; ".join(f"p={p} slope {s:.3f} >= 1.4" for p, s in slopes.items())
    )


def test_criterion_5_q_convergence_floor(sweep_tables):
    slopes = {p: convergence_rates(sweep_tables[p]).slope_q for p in (1, 2, 3)}
    assert slopes[1] >= 0.9
    _report(
        f"[PASS] criterion 5 (q-convergence): p=1 slope {slopes[1]:.3f} >= 0.9; observed slopes "
        + ", ".join(f"p={p}: {s:.3f}" for p, s in slopes.items())
        + " (theoretical floor 1, observed near 2 as in the reference study)"
    )


def test_criterion_6_projection_estimates():
    result = _check_projection_rates()
    assert result.passed, result.measured
    _report(f"[PASS] criterion 6 (projection estimates): {result.measured}")


def test_criterion_7_trace_inequality():
    result = _check_trace_inequality()
    assert result.passed, result.measured
    _report(f"[PASS] criterion 7 (trace inequality): {result.measured}")


def test_criterion_8_local_wellposedness(matrix_results):
    result = _check_local_uniqueness()
    assert result.passed, result.measured
    # the full matrix factored every per-class local system already
    max_cond = 0.0
    for case in matrix_results.values():
        max_cond = max(max_cond, case.info.max_local_cond)
        assert np.isfinite(case.info.max_local_cond)
    _report(f"[PASS] criterion 8 (local well-posedness): {result.measured}; "
            f"max per-class local condition number of the matrix {max_cond:.3e}")


def test_criterion_9_pollution():
    # Fixed kappa*h/p = 1.1: the trace error must keep growing with kappa
    # (pollution is visible), checked with 10% slack.
    kh_errors = []
    for kappa in (10.0, 20.0, 40.0):
        n = round(math.sqrt(2.0) * kappa / 1.1)
        kh_errors.append(run_benchmark_case(kappa, 1, n).report.e_trace)
    for prev, nxt in zip(kh_errors, kh_errors[1:]):
        assert nxt >= 0.9 * prev

    # Fixed kappa^3 h^2 / p^2: the error must not grow with kappa (bounded
    # by 2x growth); the full spread across the set is recorded.  At
    # desk-scale kappa the spread slightly exceeds 2 because the
    # kappa^(-5/4) error component has not yet died out, while the
    # reference behavior (no growth) holds with a wide margin.
    line_errors = []
    for kappa in (10.0, 20.0, 40.0):
        n = round(math.sqrt(2.0) * kappa**1.5 / math.sqrt(POLLUTION_LINE))
        line_errors.append(run_benchmark_case(kappa, 1, n).report.e_trace)
    max_growth = max(
        line_errors[j] / line_errors[i]
        for i in range(len(line_errors))
        for j in range(i + 1, len(line_errors))
    )
    spread = max(line_errors) / min(line_errors)
    assert max_growth < 2.0
    _report(
        "[PASS] criterion 9 (pollution): fixed kappa*h/p=1.1 e_trace "
        + " -> ".join(f"{e:.4e}" for e in kh_errors)
        + f" (non-decreasing, 10% slack); fixed kappa^3 h^2/p^2 = {POLLUTION_LINE:g} e_trace "
        + " -> ".join(f"{e:.4e}" for e in line_errors)
        + f", max growth {max_growth:.3f}x < 2 (full spread {spread:.3f}x, decreasing)"
    )


#: Largest accepted 1-norm condition number of a skeleton matrix of the
#: acceptance matrix (measured maximum 6.0e4, at kappa = 5, p = 3, n = 32).
SKELETON_COND_BOUND = 1e8


def _cond1_estimate(A: sp.csc_matrix) -> float:
    """||A||_1 times the `onenormest` estimate of ||A^-1||_1 from a sparse
    LU; inf when the LU finds A exactly singular."""
    try:
        lu = spla.splu(A)
    except RuntimeError:
        return math.inf
    inverse = spla.LinearOperator(
        A.shape, matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="H"), dtype=A.dtype
    )
    return float(spla.norm(A, 1) * spla.onenormest(inverse))


def test_criterion_10_zero_data_uniqueness(matrix_results):
    # A well-conditioned skeleton matrix has only the zero solution for
    # zero data, so the local solves reconstruct zero fields as well.
    conds = {case: _cond1_estimate(global_matrix(res.disc)) for case, res in matrix_results.items()}
    worst = max(conds, key=conds.get)
    for case, cond in conds.items():
        assert cond <= SKELETON_COND_BOUND, (case, cond)
    _report(f"[PASS] criterion 10 (zero-data uniqueness): max skeleton cond_1 estimate "
            f"{conds[worst]:.3e} <= {SKELETON_COND_BOUND:.0e} at (kappa, p, n) = {worst}")


def test_criterion_10_fails_on_a_singular_matrix(matrix_results):
    A = global_matrix(matrix_results[(5.0, 1, 8)].disc).tolil()
    A[7, :] = 0.0
    A[:, 7] = 0.0
    assert not _cond1_estimate(A.tocsc()) <= SKELETON_COND_BOUND


def test_stability_monitor(matrix_results):
    # Regression guard from the stability estimate: the ratio of ||u_h||
    # to its bound stays under the constant frozen at the first green run.
    worst = max(case.stability for case in matrix_results.values())
    assert worst <= STABILITY_CONSTANT
    _report(f"[PASS] stability monitor: max ratio {worst:.4f} <= frozen {STABILITY_CONSTANT}")
