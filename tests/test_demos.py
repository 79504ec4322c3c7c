"""Smoke test: the quick demos run to completion against the current API.

Demos 02 and 03 (convergence and pollution studies) take 7-8 s each and
repeat what test_acceptance.py checks, and demo 06 needs matplotlib,
which is an optional dependency; all three are left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", [
    "01_single_solve.py",
    "04_energy_identity.py",
    "05_bessel_and_exact_solution.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
