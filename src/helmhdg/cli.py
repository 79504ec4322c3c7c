"""Command-line driver: single solves, convergence studies, verification.

    hdg solve    --kappa 20 --p 2 --n 32 --out results
    hdg converge --kappa 20 --p 1,2 --n 8,16,32,64 --out results
    hdg converge --kappa 10,20,40 --p 1 --fixed-kappa-h 1.1 --out results
    hdg verify   [--only energy-identity]

Every CSV carries a comment header echoing the resolved configuration,
floats are printed with 17 significant digits, and repeated invocations
produce byte-identical outputs apart from the wall-time column.  Exit
codes: 0 all contracts held, 1 a numerical contract failed, 2 usage or
guard refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .diagnostics import (
    ConvergenceTable,
    ErrorReport,
    format_float,
    run_benchmark_case,
    write_convergence_csv,
)
from .hdg_local import ProblemConfig
from .mesh import write_mesh
from .polybasis import MAX_ORDER
from .skeleton import write_solution_csv
from .verify import CHECKS, run_verify

#: Refuse convergence/solve runs whose skeleton exceeds this many unknowns.
DEFAULT_MAX_DOFS = 800_000


@dataclass
class RunConfig:
    """Resolved CLI configuration of one invocation."""

    command: str
    kappas: list[float] = field(default_factory=lambda: [20.0])
    orders: list[int] = field(default_factory=lambda: [1])
    sizes: list[int] = field(default_factory=lambda: [8, 16, 32, 64])
    out_dir: str = "."
    workers: int = 1
    data_quad_degree: int | None = None
    max_dofs: int = DEFAULT_MAX_DOFS
    fixed_kappa_h: float | None = None
    fixed_kappa3h2: float | None = None
    dump_mesh: bool = False
    only: str | None = None

    def validate(self) -> None:
        if not self.kappas or not self.orders or not self.sizes:
            raise UsageError("kappa, p, and n lists must be non-empty")
        if not all(math.isfinite(k) and k > 0 for k in self.kappas):
            raise UsageError("wave numbers must be finite and positive")
        if not all(1 <= p <= MAX_ORDER for p in self.orders):
            raise UsageError(f"polynomial orders must be in [1, {MAX_ORDER}]")
        if any(n < 1 for n in self.sizes):
            raise UsageError("mesh subdivisions must be >= 1")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise UsageError("mesh subdivisions must be strictly increasing")
        if self.workers < 1 or self.max_dofs < 1:
            raise UsageError("guards and worker counts must be positive")
        if self.data_quad_degree is not None and self.data_quad_degree < 0:
            raise UsageError("quadrature degree must be >= 0")
        if self.fixed_kappa_h is not None and self.fixed_kappa3h2 is not None:
            raise UsageError("choose at most one of --fixed-kappa-h / --fixed-kappa3h2")
        for line in (self.fixed_kappa_h, self.fixed_kappa3h2):
            if line is not None and not (math.isfinite(line) and line > 0):
                raise UsageError("fixed-line constants must be finite and positive")
        if self.only is not None and self.only not in CHECKS:
            raise UsageError(f"unknown check {self.only!r}; available: {', '.join(CHECKS)}")


class UsageError(Exception):
    pass


def _has_type(value, hint) -> bool:
    """Whether a JSON value matches a RunConfig field annotation; ints
    count as floats, bools as neither."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is types.UnionType:
        return any(_has_type(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _parse_list(text: str, cast) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse list {text!r}") from exc


def _skeleton_dofs(n: int, p: int) -> int:
    return (p + 1) * (3 * n * n + 2 * n)


def _guard(cfg: RunConfig, kappa: float, p: int, n: int) -> None:
    dofs = _skeleton_dofs(n, p)
    if dofs > cfg.max_dofs:
        raise UsageError(
            f"refusing kappa={kappa:g} p={p} n={n}: {dofs} skeleton unknowns exceed "
            f"the size guard max_dofs={cfg.max_dofs} (raise it with --max-dofs)"
        )


def _config_lines(cfg: RunConfig, kappa: float, p: int, sizes: list[int]) -> list[str]:
    """Provenance header: everything needed to reproduce the file."""
    taus, degrees = [], []
    for n in sizes:
        h = math.sqrt(2.0) / n
        problem = ProblemConfig(kappa, p, p / (kappa * h), cfg.data_quad_degree)
        taus.append(format_float(problem.tau))
        degrees.append(str(problem.data_degree(h)))
    return [
        f"helmhdg version {__version__}",
        f"command = {cfg.command}",
        f"kappa = {format_float(kappa)}",
        f"p = {p}",
        f"n = {','.join(str(n) for n in sizes)}",
        f"tau rule = p/(kappa*h); tau = {','.join(taus)}",
        f"data quadrature degree = {','.join(degrees)}",
    ]


def _run_case(args: tuple) -> ErrorReport:
    kappa, p, n, quad_degree = args
    return run_benchmark_case(kappa, p, n, data_quad_degree=quad_degree).report


def _sizes_for(cfg: RunConfig, kappa: float, p: int) -> list[int]:
    if cfg.fixed_kappa_h is not None:
        return [max(1, round(math.sqrt(2.0) * kappa / (cfg.fixed_kappa_h * p)))]
    if cfg.fixed_kappa3h2 is not None:
        return [max(1, round(math.sqrt(2.0) * kappa**1.5 / (p * math.sqrt(cfg.fixed_kappa3h2))))]
    return cfg.sizes


def cmd_converge(cfg: RunConfig) -> int:
    """One CSV per (kappa, p) sweep, or per p for the fixed-line modes."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    pooled = cfg.fixed_kappa_h is None and cfg.fixed_kappa3h2 is None

    jobs: list[tuple] = []
    for p in cfg.orders:
        for kappa in cfg.kappas:
            for n in _sizes_for(cfg, kappa, p):
                _guard(cfg, kappa, p, n)
                jobs.append((kappa, p, n, cfg.data_quad_degree))

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = dict(zip(jobs, pool.map(_run_case, jobs)))
    else:
        results = {job: _run_case(job) for job in jobs}

    for p in cfg.orders:
        if pooled:
            for kappa in cfg.kappas:
                table = ConvergenceTable()
                for n in cfg.sizes:
                    table.add(results[(kappa, p, n, cfg.data_quad_degree)])
                path = os.path.join(cfg.out_dir, f"converge_k{kappa:g}_p{p}.csv")
                write_convergence_csv(path, table, _config_lines(cfg, kappa, p, cfg.sizes))
                print(f"wrote {path}")
        else:
            mode = (
                f"kappa*h/p={cfg.fixed_kappa_h:g}"
                if cfg.fixed_kappa_h is not None
                else f"kappa^3*h^2/p^2={cfg.fixed_kappa3h2:g}"
            )
            table = ConvergenceTable()
            lines = [f"fixed line: {mode}"]
            for kappa in cfg.kappas:
                (n,) = _sizes_for(cfg, kappa, p)
                table.rows.append(results[(kappa, p, n, cfg.data_quad_degree)])
                lines += _config_lines(cfg, kappa, p, [n])
            path = os.path.join(cfg.out_dir, f"pollution_p{p}.csv")
            write_convergence_csv(path, table, lines)
            print(f"wrote {path}")
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    """Single solves with error report, energy residuals, and solution dump."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    for kappa in cfg.kappas:
        for p in cfg.orders:
            for n in cfg.sizes:
                _guard(cfg, kappa, p, n)
                result = run_benchmark_case(kappa, p, n, data_quad_degree=cfg.data_quad_degree)
                r = result.report
                print(
                    f"kappa={kappa:g} p={p} n={n}: "
                    f"e_u={format_float(r.e_u)} e_q={format_float(r.e_q)} "
                    f"e_trace={format_float(r.e_trace)} "
                    f"energy_resid=({result.balance.residual_re:.3e},"
                    f"{result.balance.residual_im:.3e}) "
                    f"dofs={r.dofs} local_cond={result.info.max_local_cond:.3e} "
                    f"seconds={r.seconds:.3f}"
                )
                path = os.path.join(cfg.out_dir, f"solution_k{kappa:g}_p{p}_n{n}.csv")
                write_solution_csv(path, result.disc, result.solution,
                                   header_lines=_config_lines(cfg, kappa, p, [n]))
                print(f"wrote {path}")
                if cfg.dump_mesh:
                    mesh_path = os.path.join(cfg.out_dir, f"mesh_n{n}.txt")
                    write_mesh(result.disc.mesh, mesh_path)
                    print(f"wrote {mesh_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdg",
        description="HDG solver for the 2-d Helmholtz equation with Robin boundary at high wave number",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run single solves and dump solutions"),
        ("converge", "run convergence or pollution studies"),
        ("verify", "run the verification suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--kappa", default=None, help="comma-separated wave numbers")
        cmd.add_argument("--p", default=None, help="comma-separated polynomial orders")
        cmd.add_argument("--n", default=None, help="comma-separated mesh subdivisions")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--workers", type=int, default=None, help="parallel (kappa,p,n) runs")
        cmd.add_argument("--quad-degree", type=int, default=None, help="override data quadrature degree")
        cmd.add_argument("--max-dofs", type=int, default=None, help="skeleton size guard")
        cmd.add_argument("--config", default=None, help="JSON config file (flags win)")
        if name == "converge":
            cmd.add_argument("--fixed-kappa-h", type=float, default=None,
                             help="pollution mode: choose n so kappa*h/p equals this")
            cmd.add_argument("--fixed-kappa3h2", type=float, default=None,
                             help="pollution mode: choose n so kappa^3*h^2/p^2 equals this")
        if name == "solve":
            cmd.add_argument("--dump-mesh", action="store_true", default=None,
                             help="also write the mesh file")
        if name == "verify":
            cmd.add_argument("--only", default=None, help="run a single named check")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                settings = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(settings, dict):
            raise UsageError("config file must hold a JSON object")
        hints = typing.get_type_hints(RunConfig)
        for key, value in settings.items():
            if key == "command" or key not in hints:
                raise UsageError(f"unknown config key {key!r}")
            if not _has_type(value, hints[key]):
                raise UsageError(f"config key {key!r} has the wrong type: {value!r}")
            setattr(cfg, key, value)
    if args.kappa is not None:
        cfg.kappas = _parse_list(args.kappa, float)
    if args.p is not None:
        cfg.orders = _parse_list(args.p, int)
    if args.n is not None:
        cfg.sizes = _parse_list(args.n, int)
    for flag, attr in (
        ("out", "out_dir"),
        ("workers", "workers"),
        ("quad_degree", "data_quad_degree"),
        ("max_dofs", "max_dofs"),
        ("fixed_kappa_h", "fixed_kappa_h"),
        ("fixed_kappa3h2", "fixed_kappa3h2"),
        ("dump_mesh", "dump_mesh"),
        ("only", "only"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if cfg.command == "verify":
            return run_verify(only=cfg.only)
        if cfg.command == "converge":
            return cmd_converge(cfg)
        return cmd_solve(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
