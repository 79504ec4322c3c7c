"""The array forms of the `local-uniqueness` and `projection-rates`
checks: equal values to the element-by-element computation, failure on
broken local systems, bounded call counts, and repeatable output."""

import dataclasses
import math

import numpy as np

from helmhdg import verify
from helmhdg.hdg_local import ProblemConfig, assemble_local_blocks
from helmhdg.mesh import build_structured_mesh, mesh_entities


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_stacked_condition_numbers_equal_per_element_loop():
    mesh = build_structured_mesh(4)
    expected = np.array([
        [
            [
                np.linalg.cond(assemble_local_blocks(
                    mesh_entities(mesh, elem), ProblemConfig.for_mesh(kappa, p, mesh)
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

    def no_mass(geom, cfg):
        blocks = assemble(geom, cfg)
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
    entities = _counting(monkeypatch, verify, "mesh_entities")
    conds = _counting(monkeypatch, np.linalg, "cond")
    assert verify._check_local_uniqueness().passed
    assert len(entities) <= 32
    assert len(conds) <= 9


def test_projection_errors_make_no_einsum_call(monkeypatch):
    calls = _counting(monkeypatch, np, "einsum")
    func = lambda pts: np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])  # noqa: E731
    vol, trace = verify._projection_errors(8, 1, func)
    assert calls == []
    assert 0.0 < vol < trace


def test_verify_output_repeats():
    first, second = [], []
    assert verify.run_verify(log=first.append) == 0
    assert verify.run_verify(log=second.append) == 0
    assert len(first) == len(verify.CHECKS)
    assert first == second
