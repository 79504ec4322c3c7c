"""helmhdg benchmark: end-to-end and per-layer metrics of the ``hdg`` CLI.

    python3 perfbench/run.py --workload {pollution,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a helmhdg checkout; the package is imported from its
``src`` directory.  Each workload is a closed loop with one client: a fresh
worker process (BLAS threads pinned to 1) imports ``helmhdg.cli`` once and
runs the workload's command through ``helmhdg.cli.main`` pass after pass.
Every pass is checked against reference values and fingerprinted.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median seconds of one pass in the already-imported worker
  setup_s      median seconds to import helmhdg.cli in a fresh interpreter
  peak_rss_mb  ru_maxrss of the worker after its first pass
  dofs_per_s   skeleton unknowns solved per pass over wall_s
  ok_frac      passes that passed their check over passes attempted
--trace 1 runs one untraced and one traced pass, each in a fresh worker, and
reports the per-layer metrics from the traced pass's spans.

The last stdout line is the JSON result; a fuller record (environment, git
SHA, per-pass figures, spans) is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fresh-interpreter imports for setup_s, run both before and after the
#: worker: this machine's speed drifts over seconds, so samples taken apart
#: in time give a steadier median.  One more import, run first, fills the
#: bytecode cache and is not counted.
SETUP_IMPORTS = 3
#: Largest share of the traced wall time that may fall outside every layer
#: span below the ``cli.main`` root.
COVERAGE_TOL = 0.01
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import helmhdg.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # Bytecode goes to a cache inside the checkout, warmed before timing.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, OUT, "pycache")
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {cmd[1:3]}")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise BenchError(f"{cmd[1:3]} exceeded the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cmd[1:3]} exited with code {proc.returncode}")
    return lines[-1]


def measure_setup(env: dict, deadline: float, count: int = SETUP_IMPORTS) -> list[float]:
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    return [float(run_child(cmd, env, deadline)) for _ in range(count)]


def run_worker(args, env: dict, deadline: float, max_passes: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--max-passes", str(max_passes),
           "--out-root", os.path.join(os.getcwd(), OUT, "tmp")]
    if trace:
        cmd.append("--trace")
    return json.loads(run_child(cmd, env, deadline))


def mark_repeats(passes: list[dict]) -> None:
    """A pass whose non-time outputs differ from the first pass's fails."""
    for p in passes[1:]:
        if p["fingerprint"] != passes[0]["fingerprint"]:
            p["errors"].append("non-time outputs differ from the first pass")


def end_to_end(args, env: dict, deadline: float) -> tuple[dict, list[dict], dict]:
    measure_setup(env, deadline, count=1)  # warm the bytecode cache
    setup = measure_setup(env, deadline)
    worker = run_worker(args, env, deadline, max_passes=1000, trace=False)
    setup += measure_setup(env, deadline)
    passes = worker["passes"]
    mark_repeats(passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    ok = sum(1 for p in passes if not p["errors"])
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": worker["peak_rss_mb"],
        "dofs_per_s": workloads.skeleton_dofs(args.workload) / wall,
        "ok_frac": ok / len(passes),
    }
    worker["setup_samples_s"] = setup
    return metrics, passes, worker


def per_layer(args, env: dict, deadline: float) -> tuple[dict, list[dict], dict]:
    plain = run_worker(args, env, deadline, max_passes=1, trace=False)
    traced = run_worker(args, env, deadline, max_passes=1, trace=True)
    passes = plain["passes"] + traced["passes"]
    # The wrappers must not perturb the program: outputs agree bit for bit.
    mark_repeats(passes)
    errors = traced["passes"][0]["errors"]
    bad = [r for r in traced["energy_residuals"] if max(r) > workloads.ENERGY_TOL]
    if bad:
        errors.append(f"energy-identity residuals {bad} exceed {workloads.ENERGY_TOL}")

    metrics = dict(traced["layers"])
    dofs = workloads.skeleton_dofs(args.workload)
    if metrics["skeleton.dofs"] != dofs:
        errors.append(f"solve_helmholtz reported {metrics['skeleton.dofs']:.0f} skeleton dofs, "
                      f"dofs_per_s counts {dofs}")
    traced_wall = traced["passes"][0]["wall_s"]
    untraced_wall = plain["passes"][0]["wall_s"]
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    # Self times add up to the root span's duration by construction, so what
    # they leave out is only the root wrapper's entry and exit.
    unattributed = traced_wall - self_total
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": unattributed,
        # Time in no layer span below the root: a target that a refactor
        # removed or bypassed moves its time here.
        "trace.uncovered_s": metrics["cli.self_s"] + unattributed,
        "trace.spans": traced["span_count"],
    })
    if metrics["trace.uncovered_s"] > COVERAGE_TOL * traced_wall:
        errors.append(f"{metrics['trace.uncovered_s']:.3f} s of the traced {traced_wall:.3f} s "
                      f"fall outside every layer span below cli.main")
    record = {"versions": traced["versions"], "traced": traced, "untraced": plain}
    return metrics, passes, record


def git_sha(root: str) -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "helmhdg", "cli.py")):
        print("perfbench: no src/helmhdg/cli.py here; run from the root of a helmhdg checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(os.path.join(root, OUT, "tmp"), exist_ok=True)
    env = child_env(root)
    measure = per_layer if args.trace else end_to_end
    try:
        values, passes, record = measure(args, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing = set(record.get("traced", {}).get("absent", []))
    metrics = {}
    for item in wanted:
        name, unit = item["name"], item["unit"]
        if name not in values:
            print(f"perfbench: metric {name} is not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": unit}
        note = "  (absent: its target no longer exists)" if name in missing else ""
        print(f"{name:36s} {values[name]:>16.6g} {unit}{note}")
    failed = sum(1 for p in passes if p["errors"])
    print(f"passes: {len(passes)}, failed: {failed}")
    for i, p in enumerate(passes):
        for err in p["errors"]:
            print(f"perfbench: pass {i} failed: {err}", file=sys.stderr)

    environment = {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "versions": record["versions"],
    }
    print("environment: " + json.dumps(environment))
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}
    record.update({"args": vars(args), "environment": environment, "result": result})
    path = os.path.join(root, OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
