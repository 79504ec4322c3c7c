"""The array forms of the `local-uniqueness` and `projection-rates`
checks: equal values to the element-by-element computation (also on a
mesh where no two elements share a geometry), failure on broken local
systems, exact or bounded call counts, and repeatable output.  A
check that raises fails alone.  The benchmark's tracer wraps the entries
of `CHECKS` by the names in `perfbench/workloads.py` and counts the dofs
of the skeleton solves listed there, so both must match what a pass runs.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from helmhdg import diagnostics, hdg_local, polybasis, verify
from helmhdg.hdg_local import ProblemConfig
from helmhdg.mesh import build_structured_mesh
from helmhdg.polybasis import quadrature_rule, reference_face_points
from helmhdg.skeleton import blocks
from meshes import jittered_mesh
from reference import element_blocks

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads_value(name):
    """The value node of a module-level assignment in the benchmark's
    workloads file, read with `ast` so the benchmark is not imported."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name
    )


def _counting(monkeypatch, owner, name, record=lambda *args: 1):
    """Calls of owner.name from now on, each as `record` of its arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_stacked_condition_numbers_equal_per_element_loop():
    mesh = build_structured_mesh(4)
    expected = np.array([
        [
            [
                np.linalg.cond(element_blocks(
                    mesh, elem, ProblemConfig.for_mesh(kappa, p, mesh)
                ).system_matrix())
                for elem in range(mesh.n_elements)
            ]
            for p in (1, 2, 3)
        ]
        for kappa in (1.0, 20.0, 100.0)
    ])
    got = verify._local_condition_numbers()
    assert got.shape == (3, 3, 32)
    assert got.tobytes() == expected.tobytes()


def test_local_uniqueness_fails_without_the_mass_block(monkeypatch):
    assemble = verify.assemble_local_blocks

    def no_mass(mesh, elements, cfg):
        blocks = assemble(mesh, elements, cfg)
        return dataclasses.replace(blocks, A=np.zeros_like(blocks.A))

    monkeypatch.setattr(verify, "assemble_local_blocks", no_mass)
    result = verify._check_local_uniqueness()
    assert not result.passed
    assert "condition number inf" in result.measured


def test_local_uniqueness_fails_on_nan_condition_number(monkeypatch):
    monkeypatch.setattr(np.linalg, "cond", lambda stack: np.full(stack.shape[0], math.nan))
    result = verify._check_local_uniqueness()
    assert not result.passed
    assert "condition number nan" in result.measured


def test_local_uniqueness_builds_each_geometry_once_and_stacks_cond(monkeypatch):
    # The 4 x 4 mesh has 2 distinct geometries, so 2 x 9 local systems,
    # assembled by one call per (kappa, p).
    assembled = _counting(monkeypatch, verify, "assemble_local_blocks",
                          lambda mesh, elements, cfg: len(elements))
    conds = _counting(monkeypatch, np.linalg, "cond")
    assert verify._check_local_uniqueness().passed
    assert (assembled, len(conds)) == ([2] * 9, 9)


def test_condition_numbers_on_a_mesh_without_repeated_geometry(monkeypatch):
    # On the jittered mesh every element is its own group, so each one is
    # assembled and the result equals the element-by-element loop.
    mesh = jittered_mesh(4)
    monkeypatch.setattr(verify, "build_structured_mesh", lambda n: mesh)
    expected = np.array([
        [
            [
                np.linalg.cond(element_blocks(
                    mesh, elem, ProblemConfig.for_mesh(kappa, p, mesh)
                ).system_matrix())
                for elem in range(mesh.n_elements)
            ]
            for p in (1, 2, 3)
        ]
        for kappa in (1.0, 20.0, 100.0)
    ])
    assembled = _counting(monkeypatch, verify, "assemble_local_blocks",
                          lambda mesh, elements, cfg: len(elements))
    got = verify._local_condition_numbers()
    assert assembled == [mesh.n_elements] * 9
    assert got.shape == (3, 3, mesh.n_elements)
    assert got.tobytes() == expected.tobytes()


def test_projection_errors_make_no_einsum_call(monkeypatch):
    calls = _counting(monkeypatch, np, "einsum")
    func = lambda pts: np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])  # noqa: E731
    vol, trace = verify._projection_errors(8, 1, func)
    assert calls == []
    assert 0.0 < vol < trace


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_projection_points_equal_the_broadcast_map(n):
    seen = []

    def func(pts):
        seen.append(pts)
        return np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])

    verify._projection_errors(n, 1, func)
    mesh = build_structured_mesh(n)
    edge = quadrature_rule("edge", 14).points
    # One call per block, on the volume points and the three faces' points.
    ref = np.concatenate([quadrature_rule("triangle", 14).points]
                         + [reference_face_points(face, edge) for face in range(3)])
    expected = [mesh.element_points(sel, ref, mesh.jacobians[sel]).reshape(-1, 2)
                for sel in blocks(mesh.n_elements, len(ref))]
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)


def test_a_pass_builds_each_quadrature_rule_once(monkeypatch):
    quadrature_rule.cache_clear()
    hdg_local.reference_tables.cache_clear()
    built = _counting(monkeypatch, polybasis, "leggauss")
    assert verify.run_verify(log=lambda line: None) == 0
    assert 0 < len(built) <= 24


def test_a_check_that_raises_fails_and_the_others_still_run(monkeypatch, capsys):
    # np.linalg.cond raises LinAlgError on a stack holding a NaN.
    assemble = verify.assemble_local_blocks

    def nan_mass(mesh, elements, cfg):
        local = assemble(mesh, elements, cfg)
        A = local.A.copy()
        A[0, 0] = math.nan
        return dataclasses.replace(local, A=A)

    monkeypatch.setattr(verify, "assemble_local_blocks", nan_mass)
    lines = []
    assert verify.run_verify(log=lines.append) == 1
    assert lines[4].startswith("[FAIL] local-uniqueness: raised LinAlgError: ")
    others = [name for name in verify.CHECKS if name != "local-uniqueness"]
    assert [line.split(":")[0] for line in lines[:4] + lines[5:8]] == [
        f"[PASS] {name}" for name in others
    ]
    assert lines[8].startswith("1 of 8 checks failed; first: raised LinAlgError: ")
    assert "LinAlgError" in capsys.readouterr().err


def test_checks_are_the_benchmark_verify_checks():
    assert list(verify.CHECKS) == list(ast.literal_eval(_workloads_value("VERIFY_CHECKS")))


def test_run_verify_calls_each_check_through_the_table(monkeypatch):
    # A runner that bypassed CHECKS would escape the tracer's per-check spans.
    calls = dict.fromkeys(verify.CHECKS, 0)
    for name, check in list(verify.CHECKS.items()):
        def counted(name=name, check=check):
            calls[name] += 1
            return check()

        monkeypatch.setitem(verify.CHECKS, name, counted)
    dofs = []
    for module in (verify, diagnostics):
        def recording(*args, solve=module.solve_helmholtz, **kwargs):
            solution, info = solve(*args, **kwargs)
            dofs.append(info.n_skeleton_dofs)
            return solution, info

        monkeypatch.setattr(module, "solve_helmholtz", recording)
    assert verify.run_verify(log=lambda line: None) == 0
    assert calls == dict.fromkeys(verify.CHECKS, 1)
    solves = _workloads_value("SOLVES")
    listed = ast.literal_eval(next(
        value for key, value in zip(solves.keys, solves.values) if ast.literal_eval(key) == "verify"
    ))
    assert sorted(dofs) == sorted((p + 1) * (3 * n * n + 2 * n) for _, p, n in listed)


def test_verify_output_repeats():
    first, second = [], []
    assert verify.run_verify(log=first.append) == 0
    assert verify.run_verify(log=second.append) == 0
    assert len(first) == len(verify.CHECKS)
    assert first == second
