"""Command-line driver: single solves, convergence studies, verification.

    hdg solve    --kappa 20 --p 2 --n 32 --out results [--dump-mesh]
    hdg converge --kappa 20 --p 1,2 --n 8,16,32,64 --out results [--workers 2]
    hdg converge --kappa 10,20,40 --p 1 --fixed-kappa-h 1.1 --out results
    hdg verify   [--only energy-identity]

Each command takes only the flags it reads; anything else exits 2.  The
parser holds every default, and the namespace it returns is the run's
configuration.
``hdg converge @run.args --out results`` reads arguments from the file
``run.args``, one per line (``--kappa=20,40,60``); flags after it win.
Every CSV carries a comment header echoing the resolved configuration
and the BLAS thread setting, floats are printed with 17 significant
digits, and repeated invocations produce byte-identical outputs apart
from the wall-time column.  Exit codes: 0 all contracts held, 1 a
numerical contract failed, 2 usage or guard refusal, 141 the reader of
stdout closed it (as in ``hdg verify | head -1``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import BLAS_THREAD_VARS, PINNED_AFTER_NUMPY, __version__
from .analytic import BESSEL_MAX_ARGUMENT, data_quadrature_degree
from .diagnostics import (
    ConvergenceTable,
    ErrorReport,
    format_float,
    run_benchmark_case,
    write_convergence_csv,
)
from .hdg_local import reference_tables, stabilization
from .mesh import write_mesh
from .polybasis import MAX_ORDER
from .skeleton import write_solution_csv
from .verify import CHECKS, run_verify

#: Refuse convergence/solve runs whose skeleton exceeds this many unknowns.
DEFAULT_MAX_DOFS = 800_000

#: Validated range of the benchmark cases: kappa >= MIN_KAPPA and
#: tau = p/(kappa h) <= MAX_TAU.  As kappa falls, the imaginary part of the
#: energy identity nears its 1e-9 contract (8.2e-10 at kappa = 0.5, p = 3,
#: n = 128) and then misses it (1.4e-9 at kappa = 0.3, p = 1, n = 128); for
#: kappa <= 0.003 the skeleton residual misses 1e-10 as well.  With
#: kappa >= 1 every case within the default size guard meets both
#: contracts; the largest tau among them is 545 (kappa = 1, p = 3, n = 257).
MIN_KAPPA = 1.0
MAX_TAU = 550.0


class UsageError(Exception):
    pass


def _list_of(cast):
    """argparse type of a comma-separated list of ``cast`` values; argparse
    names the type by ``__name__`` when a value does not parse."""
    def parse(text: str) -> list:
        return [cast(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"{cast.__name__} list"
    return parse


def _skeleton_dofs(n: int, p: int) -> int:
    return (p + 1) * (3 * n * n + 2 * n)


def _validate(args: argparse.Namespace) -> None:
    """Refuse the settings of `solve` or `converge` that no case may run with."""
    if not args.kappas or not args.orders or not args.sizes:
        raise UsageError("kappa, p, and n lists must be non-empty")
    if not all(0 < k <= BESSEL_MAX_ARGUMENT for k in args.kappas):  # false for NaN
        raise UsageError(
            f"wave numbers must lie in (0, {BESSEL_MAX_ARGUMENT:g}], where the exact "
            "solution's J0(kappa) and J1(kappa) are validated"
        )
    if not all(1 <= p <= MAX_ORDER for p in args.orders):
        raise UsageError(f"polynomial orders must be in [1, {MAX_ORDER}]")
    for name, values in (("wave number", args.kappas), ("polynomial order", args.orders)):
        for k, value in enumerate(values):
            if value in values[:k]:
                raise UsageError(f"{name} {value:g} is repeated")
    if any(n < 1 for n in args.sizes):
        raise UsageError("mesh subdivisions must be >= 1")
    if any(b <= a for a, b in zip(args.sizes, args.sizes[1:])):
        raise UsageError("mesh subdivisions must be strictly increasing")
    if args.max_dofs < 1 or args.command == "converge" and args.workers < 1:
        raise UsageError("guards and worker counts must be positive")
    if args.command == "converge":
        cpus = os.cpu_count() or 1
        if args.workers > cpus:
            raise UsageError(f"{args.workers} workers exceed the {cpus} CPUs of this machine")
        for line in (args.fixed_kappa_h, args.fixed_kappa3h2):
            if line is not None and not (math.isfinite(line) and line > 0):
                raise UsageError("fixed-line constants must be finite and positive")


def _guard(args: argparse.Namespace, kappa: float, p: int, n: int) -> None:
    tau = stabilization(kappa, p, math.sqrt(2.0) / n)
    if kappa < MIN_KAPPA or tau > MAX_TAU:
        raise UsageError(
            f"refusing kappa={kappa:g} p={p} n={n}: outside the validated range "
            f"kappa >= {MIN_KAPPA:g} and tau = p/(kappa*h) <= {MAX_TAU:g} (tau = {tau:.4g})"
        )
    dofs = _skeleton_dofs(n, p)
    if dofs > args.max_dofs:
        raise UsageError(
            f"refusing kappa={kappa:g} p={p} n={n}: {dofs} skeleton unknowns exceed "
            f"the size guard max_dofs={args.max_dofs} (raise it with --max-dofs)"
        )


def _make_out_dir(path: str) -> None:
    """Create the output directory, or refuse a path that cannot be one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create the output directory {path!r}: {exc.strerror}") from exc


def _config_lines(args: argparse.Namespace, kappa: float, p: int, sizes: list[int]) -> list[str]:
    """Provenance header: everything needed to reproduce the file.  The
    data rule degree is that of the global mesh size h = sqrt(2)/n, the
    rule of every edge and every element integral.  The last digits
    depend on the BLAS thread count; a thread variable that helmhdg set
    after numpy loaded is marked, since numpy's BLAS may not have read
    it."""
    taus = (stabilization(kappa, p, math.sqrt(2.0) / n) for n in sizes)
    degrees = (data_quadrature_degree(p, kappa, math.sqrt(2.0) / n) for n in sizes)
    return [
        f"helmhdg version {__version__}",
        f"command = {args.command}",
        f"kappa = {format_float(kappa)}",
        f"p = {p}",
        f"n = {','.join(str(n) for n in sizes)}",
        f"tau rule = p/(kappa*h); tau = {','.join(map(format_float, taus))}",
        f"data quadrature degree = {','.join(map(str, degrees))}",
        "BLAS threads = " + ", ".join(
            f"{var}={os.environ.get(var, 'unset')}"
            + (" (set after numpy loaded)" if var in PINNED_AFTER_NUMPY else "")
            for var in BLAS_THREAD_VARS
        ),
    ]


def _run_case(args: tuple) -> ErrorReport:
    return run_benchmark_case(*args).report


def _fixed_line_size(args: argparse.Namespace, kappa: float, p: int) -> int:
    """The mesh subdivision n that puts (kappa, p) on the fixed line."""
    if args.fixed_kappa_h is not None:
        return max(1, round(math.sqrt(2.0) * kappa / (args.fixed_kappa_h * p)))
    return max(1, round(math.sqrt(2.0) * kappa**1.5 / (p * math.sqrt(args.fixed_kappa3h2))))


def cmd_converge(args: argparse.Namespace) -> int:
    """One CSV per (kappa, p) sweep, or per p along a fixed line."""
    tables: list[tuple[str, list[str], list[tuple]]] = []  # (file name, header, cases)
    for p in args.orders:
        if args.fixed_kappa_h is None and args.fixed_kappa3h2 is None:
            tables += [
                (f"converge_k{kappa:g}_p{p}.csv", _config_lines(args, kappa, p, args.sizes),
                 [(kappa, p, n) for n in args.sizes])
                for kappa in args.kappas
            ]
        else:
            cases = [(kappa, p, _fixed_line_size(args, kappa, p)) for kappa in args.kappas]
            lines = [f"fixed line: kappa*h/p={args.fixed_kappa_h:g}"
                     if args.fixed_kappa_h is not None
                     else f"fixed line: kappa^3*h^2/p^2={args.fixed_kappa3h2:g}"]
            for kappa, _, n in cases:
                lines += _config_lines(args, kappa, p, [n])
            tables.append((f"pollution_p{p}.csv", lines, cases))

    jobs = [case for _, _, cases in tables for case in cases]
    for job in jobs:
        _guard(args, *job)
    _make_out_dir(args.out_dir)
    # The pool forks all its workers at the first submit, so it gets no
    # more than there are jobs.
    workers = min(args.workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when used

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(jobs, pool.map(_run_case, jobs)))
    else:
        results = {job: _run_case(job) for job in jobs}

    for name, lines, cases in tables:
        path = os.path.join(args.out_dir, name)
        write_convergence_csv(path, ConvergenceTable([results[case] for case in cases]), lines)
        print(f"wrote {path}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    """Single solves with error report, energy residuals, and a solution
    dump at the points of `skeleton.sample_solution`, which the header's
    last line names."""
    cases = [(kappa, p, n) for kappa in args.kappas for p in args.orders for n in args.sizes]
    for case in cases:
        _guard(args, *case)
    _make_out_dir(args.out_dir)
    for kappa, p, n in cases:
        result = run_benchmark_case(kappa, p, n)
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
        path = os.path.join(args.out_dir, f"solution_k{kappa:g}_p{p}_n{n}.csv")
        sample_rule = (f"sample rule = triangle rule of degree {2 * p}, "
                       f"{len(reference_tables(p).points)} points per element")
        write_solution_csv(path, result.disc, result.solution,
                           header_lines=_config_lines(args, kappa, p, [n]) + [sample_rule])
        print(f"wrote {path}")
        if args.dump_mesh:
            mesh_path = os.path.join(args.out_dir, f"mesh_n{n}.txt")
            write_mesh(result.disc.mesh, mesh_path)
            print(f"wrote {mesh_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Each command takes only the flags it reads and holds their
    defaults, so the namespace that parsing returns is the run's
    configuration, one attribute per flag's dest.  An argument ``@FILE`` stands for the
    lines of FILE, one argument each; a blank line exits 2 and says so,
    where argparse would pass it on as an empty argument."""
    parser = argparse.ArgumentParser(
        prog="hdg",
        description="HDG solver for the 2-d Helmholtz equation with Robin boundary at high wave number",
        fromfile_prefix_chars="@",
    )

    def file_argument(line: str) -> list[str]:
        if not line.strip():
            parser.error("an argument file has a blank line; give one argument per line")
        return [line]

    parser.convert_arg_line_to_args = file_argument
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run single solves and dump solutions")
    converge = sub.add_parser("converge", help="run convergence or pollution studies")
    verify = sub.add_parser("verify", help="run the verification suite")
    # converge takes its mesh subdivisions from at most one of these.
    sizes = converge.add_mutually_exclusive_group()
    for cmd in (solve, sizes):
        cmd.add_argument("--n", dest="sizes", type=_list_of(int),
                         help="comma-separated mesh subdivisions")
    for cmd in (solve, converge):
        cmd.add_argument("--kappa", dest="kappas", type=_list_of(float),
                         help="comma-separated wave numbers")
        cmd.add_argument("--p", dest="orders", type=_list_of(int),
                         help="comma-separated polynomial orders")
        cmd.add_argument("--out", dest="out_dir", help="output directory")
        cmd.add_argument("--max-dofs", type=int, help="skeleton size guard")
        cmd.set_defaults(kappas=(20.0,), orders=(1,), sizes=(8, 16, 32, 64), out_dir=".",
                         max_dofs=DEFAULT_MAX_DOFS)
    solve.add_argument("--dump-mesh", action="store_true", help="also write the mesh file")
    converge.add_argument("--workers", type=int, default=1, help="parallel (kappa,p,n) runs")
    sizes.add_argument("--fixed-kappa-h", type=float,
                       help="pollution mode: choose n so kappa*h/p equals this")
    sizes.add_argument("--fixed-kappa3h2", type=float,
                       help="pollution mode: choose n so kappa^3*h^2/p^2 equals this")
    verify.add_argument("--only", choices=CHECKS, metavar="CHECK",
                        help="run a single named check: %(choices)s")
    return parser


#: Built once at import; parsing leaves the parser unchanged.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            code = run_verify(only=args.only)
        else:
            _validate(args)
            code = cmd_converge(args) if args.command == "converge" else cmd_solve(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit, so
        # point it at devnull, and exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
