"""Workload definitions, reference values and per-pass output checks.

Every workload is one ``hdg`` command run through
``helmhdg.cli.main``.  A pass passes its check when the exit code is 0 and
the printed and written outputs match the references below.  Each check also
returns a fingerprint of the non-time outputs, so repeat passes (and the
traced pass) can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re

#: Relative tolerance on error norms against REFERENCE_NORMS.
NORM_RTOL = 1e-8
#: Contract on both parts of the discrete energy-identity residual.
ENERGY_TOL = 1e-9

# e_u, e_q, e_trace of each (kappa, p, n) case, as printed at commit 3b152b6.
REFERENCE_NORMS = {
    (20, 2, 22): (0.00013020709569439622, 0.00025578478996532569, 0.0017825119721139901),
    (40, 2, 63): (2.4607785828156975e-05, 6.2116238881872616e-05, 0.00057633679714664003),
    (60, 2, 116): (9.3736747614395499e-06, 2.7290914594838169e-05, 0.00029743897329464374),
}

POLLUTION_KAPPAS = (20, 40, 60)
POLLUTION_P = 2
POLLUTION_N = {20: 22, 40: 63, 60: 116}

VERIFY_CHECKS = (
    "orthonormality",
    "quadrature-exactness",
    "trace-inequality",
    "projection-rates",
    "local-uniqueness",
    "oracle",
    "energy-identity",
    "exact-solution",
)

# Skeleton solves (kappa, p, n) that one pass performs; `verify` solves
# inside its energy-identity and oracle checks.  The traced run fails if the
# dofs that solve_helmholtz reports differ from skeleton_dofs.
SOLVES = {
    "pollution": [(k, POLLUTION_P, POLLUTION_N[k]) for k in POLLUTION_KAPPAS],
    "verify": [(20, 2, 16), (5, 1, 2)],
}

NAMES = ("pollution", "verify")


def skeleton_dofs(name: str) -> int:
    """Skeleton unknowns solved in one pass: sum of (p+1)(3n^2+2n)."""
    return sum((p + 1) * (3 * n * n + 2 * n) for _, p, n in SOLVES[name])


def pollution_kappas(seed: int) -> list[int]:
    """The seed orders the two smaller, independent pollution cases.  The
    largest case stays last: run earlier, it leaves a heap that changes the
    peak memory of the cases after it by up to 6 %."""
    kappas = list(POLLUTION_KAPPAS[:-1])
    random.Random(seed).shuffle(kappas)
    return kappas + [POLLUTION_KAPPAS[-1]]


def argv(name: str, seed: int, out_dir: str) -> list[str]:
    if name == "pollution":
        kappas = ",".join(str(k) for k in pollution_kappas(seed))
        return ["converge", "--kappa", kappas, "--p", str(POLLUTION_P),
                "--fixed-kappa3h2", "8", "--out", out_dir]
    if name == "verify":
        return ["verify"]
    raise ValueError(f"unknown workload {name!r}")


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= NORM_RTOL * abs(ref)


def _check_norms(errors: list[str], case: tuple, norms: tuple[float, float, float]) -> None:
    for label, value, ref in zip(("e_u", "e_q", "e_trace"), norms, REFERENCE_NORMS[case]):
        if not _close(value, ref):
            errors.append(f"{case}: {label} {value!r} differs from reference {ref!r}")


def _check_pollution(seed: int, out_dir: str, digest) -> list[str]:
    path = os.path.join(out_dir, f"pollution_p{POLLUTION_P}.csv")
    if not os.path.isfile(path):
        return [f"pollution: {os.path.basename(path)} not written"]
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    table = [ln.split(",") for ln in lines if not ln.startswith("#")]
    digest.update("\n".join(comments).encode())
    if not table or "seconds" not in table[0]:
        return ["pollution: CSV has no header with a seconds column"]
    header, rows = table[0], table[1:]
    # The seconds column is wall time; every other column must repeat exactly.
    keep = [i for i, col in enumerate(header) if col != "seconds"]
    for row in table:
        digest.update(",".join(row[i] for i in keep if i < len(row)).encode() + b"\n")

    errors: list[str] = []
    kappas = pollution_kappas(seed)
    if len(rows) != len(kappas):
        return [f"pollution: {len(rows)} rows, expected {len(kappas)}"]
    col = {name: i for i, name in enumerate(header)}
    for kappa, row in zip(kappas, rows):
        try:
            got = (float(row[col["kappa"]]), int(row[col["p"]]), int(row[col["n"]]))
            norms = tuple(float(row[col[c]]) for c in ("e_u", "e_q", "e_trace"))
        except (KeyError, IndexError, ValueError) as exc:
            errors.append(f"pollution: unreadable row {row!r}: {exc}")
            continue
        case = (kappa, POLLUTION_P, POLLUTION_N[kappa])
        if got != case:
            errors.append(f"pollution: row {got} where {case} was expected")
            continue
        _check_norms(errors, case, norms)
    return errors


def _check_verify(stdout: str) -> list[str]:
    passed = set(re.findall(r"^\[PASS\] ([\w-]+):", stdout, re.MULTILINE))
    failed = re.findall(r"^\[FAIL\] ([\w-]+):", stdout, re.MULTILINE)
    missing = [name for name in VERIFY_CHECKS if name not in passed]
    errors = [f"verify: check {name} failed" for name in failed]
    errors += [f"verify: no [PASS] line for {name}" for name in missing]
    return errors


def check(name: str, seed: int, rc, stdout: str, out_dir: str) -> tuple[list[str], str]:
    """Output check of one pass: (list of errors, fingerprint of non-time outputs)."""
    digest = hashlib.sha256()
    # The per-pass output directory is the one part of stdout that differs.
    digest.update(stdout.replace(out_dir, "<out>").encode())
    errors = [] if rc == 0 else [f"exit code {rc}"]
    if name == "pollution":
        errors += _check_pollution(seed, out_dir, digest)
    else:
        errors += _check_verify(stdout)
    return errors, digest.hexdigest()
