"""Named mutants of the solver, each applied through `monkeypatch` (no file
is edited) and each caught by the contract its test names.

A mutant that changes a cached table clears the cache before and after,
so no other test sees the mutated tables.
"""

import pytest

import helmhdg.hdg_local as hdg_local
from helmhdg import verify
from helmhdg.diagnostics import run_benchmark_case


@pytest.fixture
def fresh_tables():
    hdg_local.reference_tables.cache_clear()
    yield
    hdg_local.reference_tables.cache_clear()


def test_unmutated_tables_pass_the_energy_identity_and_orthonormality(fresh_tables):
    run_benchmark_case(20.0, 2, 16)
    assert verify._check_orthonormality().passed


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
