"""Named mutants of the solver, each applied through `monkeypatch` (no file
is edited) and each caught by the contract its test names.

The contracts: the discrete energy identity (`run_benchmark_case` raises
"energy identity violated"), the skeleton residual contract
`RESIDUAL_TOL`, the sweep's refusal of a singular front, the checks of
`hdg verify`, and the pinned pollution errors (`reference.POLLUTION_ERRORS`,
the committed values of `test_pollution_errors_are_pinned`).  The energy
identity pairs the solution with its own loads and tables, and the oracle
and orthonormality share those tables, so none of them can see a change
that is consistent within the solve.  Two checks restate what the solve
reads without its tables: the source moments against the oracle's
per-element `volume_load` (`reference.source_moment_deviation`) and the
trace on the faces against the edge basis evaluated per element
(`reference.uhat_on_faces_deviation`).  Two mutants remain caught by the
pinned errors alone: tau and the sign of g.  Refinement capped at one
sweep (`MAX_REFINE_STEPS` = 1) shows only near a subdomain resonance,
where one sweep misses the residual contract.

Equivalent mutant, not tested: K in place of K^T in
`Discretization.apply`.  Every class's K is complex symmetric to rounding
(1.8e-15 relative at worst, `test_condensed_operators_are_complex_symmetric`),
so it leaves A unchanged.

A mutant that changes a cached table clears the cache before and after,
so no other test sees the mutated tables.
"""

import dataclasses

import numpy as np
import pytest

import helmhdg.analytic as analytic
import helmhdg.diagnostics as diagnostics
import helmhdg.hdg_local as hdg_local
import helmhdg.skeleton as skeleton
from helmhdg import verify
from helmhdg.analytic import benchmark_problem
from helmhdg.diagnostics import run_benchmark_case
from helmhdg.mesh import build_structured_mesh
from reference import (
    POLLUTION_ERRORS,
    POLLUTION_ERRORS_REL,
    benchmark_discretization,
    source_moment_deviation,
    uhat_on_faces_deviation,
)


@pytest.fixture
def fresh_tables():
    hdg_local.reference_tables.cache_clear()
    yield
    hdg_local.reference_tables.cache_clear()


def _pinned_errors_hold(kappa=20.0, n=22):
    """Whether `test_pollution_errors_are_pinned` passes at (kappa, 2, n);
    the energy identity and the residual contract hold, or this raises."""
    report = run_benchmark_case(kappa, 2, n).report
    return (report.e_u, report.e_q, report.e_trace) == pytest.approx(
        POLLUTION_ERRORS[kappa, n], rel=POLLUTION_ERRORS_REL, abs=0.0
    )


def test_unmutated_tables_pass_the_energy_identity_and_orthonormality(fresh_tables):
    run_benchmark_case(20.0, 2, 16)
    assert verify._check_orthonormality().passed
    assert _pinned_errors_hold()


def test_face_rule_below_2p_is_caught(fresh_tables, monkeypatch):
    # The edge rule of the reference tables built at degree 2p - 2 cannot
    # integrate the degree-2p face products of the assembly exactly.  The
    # energy identity catches it (its jump term reads the same tables, but
    # the identity needs exact face integrals), and so does the edge Gram
    # that `hdg verify` forms on the tables' face rule.
    rule = hdg_local.quadrature_rule

    def lowered(domain, degree):
        return rule(domain, degree - 2 if domain == "edge" else degree)

    monkeypatch.setattr(hdg_local, "quadrature_rule", lowered)
    with pytest.raises(RuntimeError, match="energy identity violated"):
        run_benchmark_case(20.0, 2, 16)
    assert not verify._check_orthonormality().passed


def test_trace_coupling_scaled_in_the_condensed_path_is_caught_by_the_energy_identity(
    monkeypatch,
):
    # R x 1.01 in the blocks the condensed path assembles (relative
    # residual re 0.70 at (20, 2, 16)).
    assemble = skeleton.assemble_local_blocks

    def scaled(mesh, elements, cfg):
        blocks = assemble(mesh, elements, cfg)
        return dataclasses.replace(blocks, R=1.01 * blocks.R)

    monkeypatch.setattr(skeleton, "assemble_local_blocks", scaled)
    with pytest.raises(RuntimeError, match="energy identity violated"):
        run_benchmark_case(20.0, 2, 16)


def test_tau_scaled_is_caught_by_the_pinned_errors(monkeypatch):
    # tau x 1.5 moves the errors by 0.37 relative at (20, 2, 22); the
    # scheme stays stable and consistent, so every other contract holds.
    stabilization = hdg_local.stabilization
    monkeypatch.setattr(hdg_local, "stabilization", lambda *args: 1.5 * stabilization(*args))
    assert not _pinned_errors_hold()


def test_data_rule_lowered_is_caught_by_the_pinned_errors_and_the_oracle(monkeypatch):
    # The data rule of the condensed path and the diagnostics at degree
    # - 2 moves the errors by 2.2e-6.  The oracle's `volume_load` keeps
    # its own rule, so `hdg verify`'s oracle sees the source loads differ,
    # if narrowly: a deviation of 1.1e-8 against its bound of 1e-8.  The
    # source moments themselves move by 2.7e-9 to 5.5e-8 relative, far
    # above their 1e-12 bound.
    degree = analytic.data_quadrature_degree

    def lowered(p, kappa, h):
        return degree(p, kappa, h) - 2

    monkeypatch.setattr(skeleton, "data_quadrature_degree", lowered)
    monkeypatch.setattr(diagnostics, "data_quadrature_degree", lowered)
    assert not _pinned_errors_hold()
    assert not verify.CHECKS["oracle"]().passed
    for kappa, p, n in ((5.0, 1, 2), (20.0, 2, 16), (20.0, 2, 22)):
        disc = benchmark_discretization(kappa, p, build_structured_mesh(n))
        assert source_moment_deviation(disc) > 1e-12


def test_boundary_data_sign_flipped_is_caught_by_the_pinned_errors(monkeypatch):
    # -g moves the errors 264-fold.  The energy identity pairs the
    # solution with the loads the solve used, so it still holds.
    g = analytic.DataFunctions.g
    monkeypatch.setattr(analytic.DataFunctions, "g", lambda self, pts, nrm: -g(self, pts, nrm))
    assert not _pinned_errors_hold()


def test_orientation_convention_swapped_is_caught_by_the_pinned_errors(
    fresh_tables, monkeypatch
):
    # The edge basis of orientation +1 read at 1 - t and of -1 at t moves
    # the errors 165-fold.  The energy identity and orthonormality read the
    # same swapped tables, so both hold; the trace on the faces, against
    # the edge basis evaluated per element, moves by 1.5 relative.
    class Swapped(hdg_local.EdgeBasis):
        def eval(self, t):
            return super().eval(1.0 - np.asarray(t))

    monkeypatch.setattr(hdg_local, "EdgeBasis", Swapped)
    assert not _pinned_errors_hold()
    assert verify._check_orthonormality().passed
    disc = benchmark_discretization(20.0, 2, build_structured_mesh(4))
    assert uhat_on_faces_deviation(disc) > 1e-12


def test_extend_add_dropping_the_last_run_is_caught_by_the_singular_front(monkeypatch):
    # Without the last run of each child's interface, a front misses
    # part of its children's Schur complements.
    extend_add = skeleton._extend_add

    def dropping(front, schur, slots, m):
        starts = np.flatnonzero(np.diff(slots) != 1) + 1
        keep = int(starts[-1]) if starts.size else 0
        extend_add(front, schur[: m * keep, : m * keep], slots[:keep], m)

    monkeypatch.setattr(skeleton, "_extend_add", dropping)
    with pytest.raises(RuntimeError, match=r"front of node class \d+ is singular"):
        run_benchmark_case(20.0, 2, 16)


def test_refinement_stopping_after_one_sweep_is_caught_by_the_residual_contract(monkeypatch):
    # Near a subdomain resonance one sweep leaves 4.2e-10 (3.3e-10 with
    # BLAS on two threads); refinement capped at one sweep keeps it.
    monkeypatch.setattr(skeleton, "MAX_REFINE_STEPS", 1)
    kappa, p, n = 51.816, 2, 64
    mesh = build_structured_mesh(n)
    _, data = benchmark_problem(kappa)
    disc = skeleton.discretize(
        mesh, hdg_local.ProblemConfig.for_mesh(kappa, p, mesh), data.f, data.g
    )
    with pytest.raises(RuntimeError, match=r"skeleton solve residual .* exceeds 1\.0e-10"):
        skeleton.solve_skeleton(disc)


def test_one_incidence_per_edge_is_caught_by_the_residual_contract(monkeypatch):
    # Summing only each edge's first element face into the class-wise A
    # and the rhs leaves the sweep's solution a residual of 1.0.
    def first_incidence(mesh, values):
        elem, face = mesh.edge_to_elements[:, 0].T
        return values.reshape(mesh.n_elements, 3, -1)[elem, face].ravel()

    monkeypatch.setattr(skeleton, "_sum_faces", first_incidence)
    with pytest.raises(RuntimeError, match=r"skeleton solve residual .* exceeds 1\.0e-10"):
        run_benchmark_case(20.0, 2, 16)
