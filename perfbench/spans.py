"""In-memory span tracer that wraps the public functions of each helmhdg layer.

The wrappers live in the benchmark only: `Tracer.install` replaces each
target wherever a helmhdg module binds it (the package uses ``from ...
import``, so patching the defining module alone would miss callers).  A
target that no longer exists is reported as absent with a warning.  Spans
stay in memory until `Tracer.dump`; `layer_metrics` turns them into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import VERIFY_CHECKS

def _points(args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs.get("points")
    return {"points": int(np.asarray(pts).size // 2)}


def _lu_fill(args, kwargs, result):
    # SuperLU.nnz is the stored size of L + U; reading .L/.U would copy the factors.
    return {"matrix_nnz": int(args[0].nnz), "lu_nnz": int(result.nnz)}


def _solve_info(args, kwargs, result):
    info = result[1]
    return {"dofs": int(info.n_skeleton_dofs), "max_local_cond": float(info.max_local_cond)}


def _energy(args, kwargs, result):
    return {"residual_re": float(result.residual_re), "residual_im": float(result.residual_im)}


# (span name, module, attribute path, hook).  A span name's first component
# is its layer, named after the helmhdg module; the hook reads counts from
# the arguments or result into the span, outside the timed interval.
TARGETS = [
    ("cli.main", "helmhdg.cli", "main", None),
    ("mesh.build_structured_mesh", "helmhdg.mesh", "build_structured_mesh", None),
    ("mesh.mesh_entities", "helmhdg.mesh", "mesh_entities", None),
    ("polybasis.quadrature_rule", "helmhdg.polybasis", "quadrature_rule", None),
    ("polybasis.TriangleBasis.eval", "helmhdg.polybasis", "TriangleBasis.eval", None),
    ("polybasis.TriangleBasis.eval_with_grad", "helmhdg.polybasis", "TriangleBasis.eval_with_grad", None),
    ("polybasis.EdgeBasis.eval", "helmhdg.polybasis", "EdgeBasis.eval", None),
    ("analytic.DataFunctions.g", "helmhdg.analytic", "DataFunctions.g", _points),
    ("analytic.DataFunctions.f", "helmhdg.analytic", "DataFunctions.f", _points),
    ("analytic.ExactSolution.u", "helmhdg.analytic", "ExactSolution.u", _points),
    ("analytic.ExactSolution.grad_u", "helmhdg.analytic", "ExactSolution.grad_u", _points),
    ("analytic.ExactSolution.q", "helmhdg.analytic", "ExactSolution.q", _points),
    ("analytic.l2_project", "helmhdg.analytic", "l2_project", None),
    ("hdg_local.assemble_local_blocks", "helmhdg.hdg_local", "assemble_local_blocks", None),
    ("hdg_local.volume_load", "helmhdg.hdg_local", "volume_load", None),
    ("hdg_local.local_solve", "helmhdg.hdg_local", "local_solve", None),
    ("skeleton.solve_helmholtz", "helmhdg.skeleton", "solve_helmholtz", _solve_info),
    ("skeleton.solve_skeleton", "helmhdg.skeleton", "solve_skeleton", None),
    ("skeleton.splu", "scipy.sparse.linalg", "splu", _lu_fill),
    ("skeleton.skeleton_residual", "helmhdg.skeleton", "skeleton_residual", None),
    ("skeleton.boundary_loads", "helmhdg.skeleton", "boundary_loads", None),
    ("skeleton.volume_loads", "helmhdg.skeleton", "volume_loads", None),
    ("skeleton.monolithic_solve", "helmhdg.skeleton", "monolithic_solve", None),
    ("skeleton.write_solution_csv", "helmhdg.skeleton", "write_solution_csv", None),
    ("diagnostics.run_benchmark_case", "helmhdg.diagnostics", "run_benchmark_case", None),
    ("diagnostics.energy_balance", "helmhdg.diagnostics", "energy_balance", _energy),
    ("diagnostics.data_norms", "helmhdg.diagnostics", "data_norms", None),
    ("diagnostics.compute_errors", "helmhdg.diagnostics", "compute_errors", None),
    ("diagnostics.write_convergence_csv", "helmhdg.diagnostics", "write_convergence_csv", None),
]

LAYERS = ("cli", "mesh", "polybasis", "analytic", "hdg_local", "skeleton", "diagnostics", "verify")


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent, run id, data]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.absent: list[str] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, name: str, owner, attr: str, hook) -> None:
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, hook)
        setattr(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "helmhdg" and not modname.startswith("helmhdg."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _mark_absent(self, name: str) -> None:
        self.absent.append(name)
        print(f"perfbench: warning: {name} not found; its metrics are reported as absent",
              file=sys.stderr)

    def install(self) -> None:
        """Wrap every target; call after importing helmhdg.cli."""
        for name, modname, path, hook in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self._mark_absent(name)
                continue
            self._replace(name, owner, attr, hook)
        checks = getattr(sys.modules.get("helmhdg.verify"), "CHECKS", {})
        for check in VERIFY_CHECKS:
            if check in checks:
                checks[check] = self._wrap(f"verify.{check}", checks[check], None)
            else:
                self._mark_absent(f"verify.{check}")

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "run", "data")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)


def _snake(name: str) -> str:
    return name.replace("-", "_")


def layer_metrics(spans: list[list], absent: list[str], csv_bytes: int) -> tuple[dict, list[str]]:
    """Per-layer metric values of one traced pass, and the metrics that read
    an absent target.  A span's self time is its duration minus its
    children's durations."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= dur[i]

    def layer(i: int) -> str:
        return spans[i][0].split(".", 1)[0]

    def ancestors(i: int):
        j = spans[i][3]
        while j >= 0:
            yield j
            j = spans[j][3]

    def select(prefix: str, outermost: bool = False) -> list[int]:
        """Spans whose name starts with prefix; with outermost, only those
        not nested in another span of the same layer."""
        out = [i for i in range(n) if spans[i][0].startswith(prefix)]
        if outermost:
            out = [i for i in out if spans[i][3] < 0 or layer(spans[i][3]) != layer(i)]
        return out

    def total(idx, values=dur) -> float:
        return float(sum(values[i] for i in idx))

    def data_sum(idx, key: str) -> float:
        return float(sum((spans[i][5] or {}).get(key, 0) for i in idx))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    reads: dict[str, str] = {}

    def put(metric: str, target: str, value) -> None:
        m[metric] = value
        reads[metric] = target

    def calls_and_time(prefix: str, target: str) -> None:
        put(f"{prefix}_calls", target, len(select(target)))
        put(f"{prefix}_s", target, total(select(target)))

    g = select("analytic.DataFunctions.g")
    exact = select("analytic.ExactSolution.", outermost=True)
    basis = [i for i in select("polybasis.", outermost=True)
             if spans[i][0] != "polybasis.quadrature_rule"]
    lu = [i for i in select("skeleton.splu")
          if not any(spans[j][0] == "skeleton.monolithic_solve" for j in ancestors(i))]
    solves = select("skeleton.solve_helmholtz")
    cases = select("diagnostics.run_benchmark_case")
    diag = {f: total(select(f"diagnostics.{f}"))
            for f in ("energy_balance", "data_norms", "compute_errors")}

    calls_and_time("mesh.build", "mesh.build_structured_mesh")
    put("mesh.entities_calls", "mesh.mesh_entities", len(select("mesh.mesh_entities")))
    put("polybasis.quadrature_rule_calls", "polybasis.quadrature_rule",
        len(select("polybasis.quadrature_rule")))
    put("polybasis.basis_eval_calls", "polybasis.", len(basis))
    put("polybasis.s", "polybasis.", total(select("polybasis.", outermost=True)))
    calls_and_time("analytic.data_g", "analytic.DataFunctions.g")
    put("analytic.data_g_points", "analytic.DataFunctions.g", data_sum(g, "points"))
    put("analytic.points_per_call", "analytic.DataFunctions.g", ratio(data_sum(g, "points"), len(g)))
    calls_and_time("analytic.data_f", "analytic.DataFunctions.f")
    put("analytic.exact_calls", "analytic.ExactSolution.", len(exact))
    put("analytic.exact_points", "analytic.ExactSolution.", data_sum(exact, "points"))
    put("analytic.exact_s", "analytic.ExactSolution.", total(exact))
    put("analytic.l2_project_calls", "analytic.l2_project", len(select("analytic.l2_project")))
    calls_and_time("hdg_local.assemble", "hdg_local.assemble_local_blocks")
    put("hdg_local.volume_load_calls", "hdg_local.volume_load", len(select("hdg_local.volume_load")))
    put("hdg_local.local_solve_calls", "hdg_local.local_solve", len(select("hdg_local.local_solve")))
    put("hdg_local.max_local_cond", "skeleton.solve_helmholtz",
        max([(spans[i][5] or {}).get("max_local_cond", 0.0) for i in solves], default=0.0))
    put("skeleton.dofs", "skeleton.solve_helmholtz", data_sum(solves, "dofs"))
    put("skeleton.matrix_nnz", "skeleton.splu", data_sum(lu, "matrix_nnz"))
    put("skeleton.lu_nnz", "skeleton.splu", data_sum(lu, "lu_nnz"))
    put("skeleton.fill_ratio", "skeleton.splu", ratio(m["skeleton.lu_nnz"], m["skeleton.matrix_nnz"]))
    put("skeleton.factor_s", "skeleton.splu", total(lu))
    put("skeleton.tri_solve_s", "skeleton.solve_skeleton",
        total(select("skeleton.solve_skeleton"), self_time))
    put("skeleton.residual_s", "skeleton.skeleton_residual", total(select("skeleton.skeleton_residual")))
    put("skeleton.solve_s", "skeleton.solve_helmholtz", total(solves))
    put("skeleton.solve_self_s", "skeleton.solve_helmholtz", total(solves, self_time))
    calls_and_time("skeleton.boundary_loads", "skeleton.boundary_loads")
    put("skeleton.volume_loads_calls", "skeleton.volume_loads", len(select("skeleton.volume_loads")))
    put("skeleton.write_csv_s", "skeleton.write_solution_csv", total(select("skeleton.write_solution_csv")))
    put("skeleton.write_csv_bytes", "skeleton.write_solution_csv", csv_bytes)
    put("skeleton.monolithic_s", "skeleton.monolithic_solve", total(select("skeleton.monolithic_solve")))
    put("diagnostics.cases", "diagnostics.run_benchmark_case", len(cases))
    put("diagnostics.case_s", "diagnostics.run_benchmark_case", total(cases))
    for f, seconds in diag.items():
        put(f"diagnostics.{f}_s", f"diagnostics.{f}", seconds)
    put("diagnostics.share", "diagnostics.", ratio(sum(diag.values()), total(cases)))
    put("cli.write_convergence_csv_s", "diagnostics.write_convergence_csv",
        total(select("diagnostics.write_convergence_csv")))
    for check in VERIFY_CHECKS:
        put(f"verify.{_snake(check)}_s", f"verify.{check}", total(select(f"verify.{check}")))
    by_layer = defaultdict(float)
    for i in range(n):
        by_layer[layer(i)] += self_time[i]
    for name in LAYERS:
        put(f"{name}.self_s", f"{name}.", by_layer[name])

    missing = sorted(k for k, t in reads.items() if any(a.startswith(t) for a in absent))
    return m, missing
