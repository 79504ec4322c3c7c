import contextlib
import io
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helmhdg import BLAS_THREAD_VARS, cli
from helmhdg.cli import main


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _exit_code(argv):
    """main's exit code; argparse exits 2 itself on a flag it refuses."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_converge_bookkeeping(tmp_path):
    out = tmp_path / "results"
    code = main([
        "converge", "--kappa", "20", "--p", "1,2", "--n", "8,16,32,64", "--out", str(out),
    ])
    assert code == 0
    files = sorted(os.listdir(out))
    assert files == ["converge_k20_p1.csv", "converge_k20_p2.csv"]
    for name in files:
        lines = _read(out / name).splitlines()
        data_rows = [line for line in lines if line and not line.startswith("#")]
        assert len(data_rows) == 1 + 4  # header + one row per n
        assert any(line.startswith("# tau rule = p/(kappa*h)") for line in lines)
        assert any(line.startswith("# helmhdg version") for line in lines)


def test_fixed_kappa_h_pollution_table(tmp_path):
    out = tmp_path / "pollution"
    code = main([
        "converge", "--kappa", "10,20,40", "--p", "1",
        "--fixed-kappa-h", "1.1", "--out", str(out),
    ])
    assert code == 0
    lines = _read(out / "pollution_p1.csv").splitlines()
    data_rows = [line for line in lines if line and not line.startswith("#")]
    assert len(data_rows) == 1 + 3  # header + one row per kappa
    assert any("fixed line: kappa*h/p=1.1" in line for line in lines)
    # n was derived from the line constant: kappa=10 -> round(sqrt(2)*10/1.1) = 13
    assert data_rows[1].split(",")[2] == "13"


def _strip_wall_time(text):
    # Wall time is the one legitimately nondeterministic column.
    return [line.rsplit(",", 1)[0] if not line.startswith("#") else line
            for line in text.splitlines()]


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["converge", "--kappa", "10", "--p", "1", "--n", "4,8,16"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    name = "converge_k10_p1.csv"
    assert _strip_wall_time(_read(first / name)) == _strip_wall_time(_read(second / name))


def test_solve_outputs(tmp_path, capsys):
    out = tmp_path / "solve"
    code = main([
        "solve", "--kappa", "5", "--p", "1", "--n", "4", "--out", str(out), "--dump-mesh",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "e_u=" in captured and "energy_resid=" in captured
    assert (out / "solution_k5_p1_n4.csv").exists()
    assert (out / "mesh_n4.txt").exists()
    lines = _read(out / "solution_k5_p1_n4.csv").splitlines()
    assert any(line.startswith("# kappa = 5") for line in lines)


@pytest.mark.parametrize("name, value, contract", [
    ("ENERGY_IDENTITY_TOL", 0.0, "energy identity"),
    ("data_norms", lambda disc: (0.0, 0.0), "energy inequality"),
], ids=["energy-identity", "energy-inequality"])
def test_energy_identity_failure_exits_1(tmp_path, capsys, monkeypatch, name, value, contract):
    # A contract failure inside a valid case exits 1 and names the
    # contract; a zero tolerance makes the energy identity fail, zero
    # data norms the energy inequality.
    from helmhdg import diagnostics

    monkeypatch.setattr(diagnostics, name, value)
    code = main(["solve", "--kappa", "5", "--p", "1", "--n", "4", "--out", str(tmp_path)])
    assert code == 1
    assert contract in capsys.readouterr().err


def test_solve_guards_every_case_before_the_first(tmp_path, monkeypatch, capsys):
    # n = 600 exceeds the size guard, so the valid n = 4 must not run first.
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before every case was guarded")

    monkeypatch.setattr(cli, "run_benchmark_case", no_solve)
    out = tmp_path / "out"
    assert main(["solve", "--kappa", "5", "--p", "1", "--n", "4,600", "--out", str(out)]) == 2
    assert "max_dofs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["solve", "converge"])
def test_unusable_out_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, command, out):
    # A plain file can neither be the output directory nor hold one.
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the output directory was made")

    monkeypatch.setattr(cli, "run_benchmark_case", no_solve)
    (tmp_path / "file").write_text("")
    path = str(tmp_path / out)
    assert main([command, "--kappa", "20", "--p", "1", "--n", "2", "--out", path]) == 2
    assert f"usage error: cannot create the output directory {path!r}" in capsys.readouterr().err


def test_range_guard_accepts_default_size_range():
    # Within the default size guard, kappa = 1 (the floor) is accepted at
    # every order up to the largest n, and so are the benchmark cases.
    args = cli.build_parser().parse_args(["solve"])
    for p in (1, 2, 3):
        n = max(n for n in range(1, 400) if cli._skeleton_dofs(n, p) <= args.max_dofs)
        cli._guard(args, cli.MIN_KAPPA, p, n)
    for kappa, n in ((20.0, 22), (40.0, 63), (60.0, 116)):
        cli._guard(args, kappa, 2, n)


def test_usage_errors_exit_2(tmp_path):
    assert main(["converge", "--kappa", "-5", "--p", "1", "--n", "4", "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--kappa", "5", "--p", "1", "--n", "nope", "--out", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([
            "converge", "--kappa", "5", "--p", "1",
            "--fixed-kappa-h", "1", "--fixed-kappa3h2", "1", "--out", str(tmp_path),
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, lines, message", [
    (["--kappa", "nan"], None, "wave numbers must lie in"),
    (["--kappa", "inf"], None, "wave numbers must lie in"),
    (["--p", "11"], None, "polynomial orders must be in"),
    (["--n", "8,4"], None, "strictly increasing"),
    (["--kappa", "0.001"], None, "outside the validated range"),
    (["--kappa", "0.3", "--n", "128"], None, "outside the validated range"),
    (["--kappa", "1", "--p", "3", "--n", "8,300", "--max-dofs", "2000000"], None,
     "outside the validated range"),
    (["--quad-degree", "12"], None, "unrecognized arguments: --quad-degree 12"),
    ([], ["--quad-degree=12"], "unrecognized arguments: --quad-degree=12"),
    (["--kappa", ","], None, "must be non-empty"),
    (["--n", "0"], None, "mesh subdivisions must be >= 1"),
    (["--workers", "0"], None, "must be positive"),
    (["--max-dofs", "0"], None, "must be positive"),
    (["--fixed-kappa-h", "0"], None, "fixed-line constants must be finite and positive"),
    (["@missing.args"], None, "No such file or directory: 'missing.args'"),
    ([], ["--fixed-kappa-h=wide"], "argument --fixed-kappa-h: invalid float value: 'wide'"),
    (["--kappa", "20,20", "--p", "1,1"], None, "wave number 20 is repeated"),
    (["--kappa", "20,20", "--fixed-kappa-h", "1.1"], None, "wave number 20 is repeated"),
    (["--kappa", "1e300"], None, "wave numbers must lie in"),
    (["--kappa", "20000"], None, "wave numbers must lie in"),
    (["--kappa", "1e300", "--fixed-kappa3h2", "8"], None, "wave numbers must lie in"),
    (["--n", "4,8", "--fixed-kappa-h", "1.1"], None,
     "argument --fixed-kappa-h: not allowed with argument --n"),
    (["--fixed-kappa-h", "1e-320"], None, "--fixed-kappa-h 1e-320 puts kappa=5 p=1 at an infinite n"),
], ids=["kappa-nan", "kappa-inf", "p-above-max", "n-decreasing", "kappa-0.001",
        "kappa-below-floor", "tau-above-cap", "quad-degree-flag", "config-quad-degree",
        "kappa-empty-list", "n-zero", "workers-zero", "max-dofs-zero", "fixed-kappa-h-zero",
        "config-missing", "config-string-for-float", "kappa-and-p-repeated",
        "kappa-repeated-on-fixed-line", "kappa-1e300", "kappa-above-bessel-range",
        "kappa-1e300-on-fixed-line", "n-on-fixed-line", "fixed-kappa-h-overflows-n"])
def test_bad_input_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, flags, lines, message):
    # Each case fails for its own reason, which the error message names.
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the input was validated")

    monkeypatch.setattr(cli, "run_benchmark_case", no_solve)
    monkeypatch.chdir(tmp_path)  # a relative @file path names no file
    if lines is not None:
        (tmp_path / "bad.args").write_text("".join(f"{line}\n" for line in lines))
        flags = ["@bad.args"] + flags
    args = ["converge", "--kappa", "5", "--p", "1", "--out", str(tmp_path)]
    # A fixed line chooses n itself, and refuses a given --n.
    if not any(arg.startswith("--fixed") for arg in flags + (lines or [])):
        args += ["--n", "4,8"]
    assert _exit_code(args + flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [("converge", "converge_k20_p1.csv"),
                                           ("solve", "solution_k20_p1_n2.csv")])
def test_cases_sharing_an_output_file_exit_2_before_any_solve(tmp_path, monkeypatch, capsys,
                                                              command, name):
    # File names print kappa with 6 significant digits, so 20 and 20.000001
    # would write one file and the second would overwrite the first.
    monkeypatch.setattr(cli, "run_benchmark_case", lambda *args: pytest.fail("a solve started"))
    out = tmp_path / "out"
    argv = [command, "--kappa", "20,20.000001", "--p", "1", "--n", "2", "--out", str(out)]
    assert main(argv) == 2
    assert f"usage error: two cases write {out / name};" in capsys.readouterr().err
    assert not out.exists()


def test_blank_line_in_an_argument_file_is_named(tmp_path, monkeypatch, capsys):
    # argparse would pass the blank line on as an empty argument and say
    # only "unrecognized arguments: " with nothing after it.
    monkeypatch.setattr(cli, "run_benchmark_case", lambda *args: pytest.fail("a solve started"))
    path = tmp_path / "run.args"
    path.write_text("--kappa=20\n\n--p=1\n")
    out = tmp_path / "out"
    assert _exit_code(["solve", f"@{path}", "--n", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "hdg: error: an argument file has a blank line" in err
    assert "unrecognized arguments" not in err
    assert not out.exists()


def test_parser_holds_the_defaults_of_a_run():
    # One parser serves every call of main, so its defaults are tuples that
    # no run can change in place.
    parse = cli.build_parser().parse_args
    common = {"kappas": (20.0,), "orders": (1,), "sizes": (8, 16, 32, 64), "out_dir": ".",
              "max_dofs": cli.DEFAULT_MAX_DOFS}
    assert vars(parse(["solve"])) == {"command": "solve", "dump_mesh": False, **common}
    assert vars(parse(["converge"])) == {"command": "converge", "workers": 1,
                                         "fixed_kappa_h": None, "fixed_kappa3h2": None, **common}
    assert vars(parse(["verify"])) == {"command": "verify", "only": None}


def test_repeated_kappa_or_order_is_named():
    parse = cli.build_parser().parse_args
    with pytest.raises(cli.UsageError, match="wave number 20 is repeated"):
        cli._validate(parse(["converge", "--kappa", "20,40,20"]))
    with pytest.raises(cli.UsageError, match="polynomial order 2 is repeated"):
        cli._validate(parse(["converge", "--p", "2,1,2"]))


@pytest.mark.parametrize("command, flags, lines", [
    ("verify", ["--kappa", "100"], None),
    ("verify", ["--p", "2"], None),
    ("verify", ["--n", "3"], None),
    ("verify", ["--out", "results"], None),
    ("verify", ["--workers", "4"], None),
    ("verify", ["--max-dofs", "5"], None),
    ("solve", ["--workers", "3"], None),
    ("solve", [], ["--workers=8"]),
    ("solve", [], ["--fixed-kappa-h=1.1"]),
    ("converge", [], ["--dump-mesh"]),
    ("converge", [], ["--only=oracle"]),
    ("verify", [], ["--kappa=20"]),
], ids=["verify-kappa", "verify-p", "verify-n", "verify-out", "verify-workers",
        "verify-max-dofs", "solve-workers", "solve-config-workers",
        "solve-config-fixed-kappa-h", "converge-config-dump-mesh", "converge-config-only",
        "verify-config-kappas"])
def test_unread_setting_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command, flags,
                                                lines):
    # A command refuses every flag that it does not read, given on the
    # command line or in an @file, and names it.
    def no_work(*args, **kwargs):
        raise AssertionError("a solve or check started despite an unread setting")

    monkeypatch.setattr(cli, "run_benchmark_case", no_work)
    monkeypatch.setattr(cli, "run_verify", no_work)
    if lines is not None:
        path = tmp_path / "run.args"
        path.write_text("".join(f"{line}\n" for line in lines))
        flags = [f"@{path}"]
    args = [command] + flags
    if command != "verify":
        args += ["--kappa", "5", "--p", "1", "--n", "2", "--out", str(tmp_path)]
    assert _exit_code(args) == 2
    flag = (lines or flags)[0].split("=")[0]
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_header_echoes_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    lines = cli._config_lines(cli.build_parser().parse_args(["solve"]), 5.0, 1, [4])
    (line,) = [line for line in lines if line.startswith("BLAS threads = ")]
    assert "OPENBLAS_NUM_THREADS=3" in line and "MKL_NUM_THREADS=unset" in line


@pytest.mark.parametrize("numpy_first", [True, False], ids=["numpy-first", "helmhdg-first"])
def test_header_marks_pins_set_after_numpy(numpy_first):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    script = (
        ("import numpy\n" if numpy_first else "")
        + "from helmhdg import cli\n"
        + "args = cli.build_parser().parse_args(['solve'])\n"
        + "print(cli._config_lines(args, 5.0, 1, [4])[-1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    assert line.startswith("BLAS threads = ")
    for var in BLAS_THREAD_VARS:
        mark = f"{var}=1 (set after numpy loaded)"
        assert (mark in line) == numpy_first, line
        assert f"{var}=1" in line


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # Only `hdg converge --workers N` with N > 1 needs the process pool.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    script = "import sys, helmhdg.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_traceback(unbuffered):
    # The reader closes the pipe before the first line is written, as
    # `hdg verify | head -0` does.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "helmhdg.cli", "verify", "--only", "orthonormality"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141, err
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_size_guard_refusal_names_guard(tmp_path, capsys):
    code = main([
        "converge", "--kappa", "5", "--p", "1", "--n", "4",
        "--max-dofs", "10", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "max_dofs" in capsys.readouterr().err


def test_fixed_kappa3h2_pollution_table(tmp_path):
    out = tmp_path / "line"
    code = main([
        "converge", "--kappa", "5,10", "--p", "1",
        "--fixed-kappa3h2", "4", "--out", str(out),
    ])
    assert code == 0
    lines = _read(out / "pollution_p1.csv").splitlines()
    data_rows = [line for line in lines if not line.startswith("#")]
    assert len(data_rows) == 1 + 2
    # kappa=10 -> n = round(sqrt(2) * 10^1.5 / 2) = 22
    assert data_rows[2].split(",")[2] == "22"


def test_parallel_workers_match_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["converge", "--kappa", "5,10", "--p", "1", "--n", "4,8"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
    for name in ("converge_k5_p1.csv", "converge_k10_p1.csv"):
        assert _strip_wall_time(_read(serial / name)) == _strip_wall_time(_read(parallel / name))


def test_workers_beyond_the_cpu_count_exit_2_before_any_solve(tmp_path, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(cli, "run_benchmark_case", forbidden)
    code = main(["converge", "--kappa", "5", "--p", "1", "--n", "2", "--workers", "4",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "4 workers exceed the 3 CPUs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records `max_workers` and maps
    in this process, so no process is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, kappas, pool_sizes", [
    (64, "5", []), (64, "5,6,7", [3]), (2, "5,6,7", [2]),
], ids=["one-job-runs-serially", "pool-sized-by-jobs", "pool-sized-by-workers"])
def test_pool_takes_no_more_workers_than_jobs(tmp_path, monkeypatch, workers, kappas, pool_sizes):
    import concurrent.futures

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert main(["converge", "--kappa", kappas, "--p", "1", "--n", "2", "--workers", str(workers),
                 "--out", str(tmp_path)]) == 0
    assert _RecordingPool.sizes == pool_sizes


def test_rows_sharing_h_leave_the_rate_cells_empty(tmp_path):
    # kappa*h/p = 1.1 puts kappa = 20 and 20.5 on n = 26: no rate between
    # them, where log(h/h) = 0 would give -inf.
    assert main(["converge", "--kappa", "20,20.5,40", "--p", "1", "--fixed-kappa-h", "1.1",
                 "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in _read(tmp_path / "pollution_p1.csv").splitlines()
            if not line.startswith("#")][1:]
    assert [row[2] for row in rows] == ["26", "26", "51"]
    assert rows[0][9:12] == rows[1][9:12] == ["", "", ""]
    assert all(np.isfinite(float(rate)) for rate in rows[2][9:12])


@pytest.mark.parametrize("kappa, p, n", [(20, 2, 10), (20, 2, 20), (10, 2, 5), (40, 2, 20)])
def test_header_names_the_one_edge_rule(tmp_path, monkeypatch, kappa, p, n):
    # kappa/n is an integer here, where degrees taken from computed edge
    # lengths used to split the boundary between two rules.  boundary_loads
    # must call g once on every boundary edge, on the rule of the header's
    # only quadrature degree line.
    from helmhdg import skeleton
    from helmhdg.analytic import DataFunctions
    from helmhdg.hdg_local import ProblemConfig
    from helmhdg.mesh import build_structured_mesh
    from helmhdg.polybasis import quadrature_rule

    out = tmp_path / "solve"
    args = ["solve", "--kappa", str(kappa), "--p", str(p), "--n", str(n), "--out", str(out)]
    assert main(args) == 0
    lines = _read(out / f"solution_k{kappa}_p{p}_n{n}.csv").splitlines()
    (line,) = [line for line in lines if "quadrature degree" in line]
    assert line.startswith("# data quadrature degree = ")
    degree = int(line.rsplit(" ", 1)[1])

    edge_degrees, g_points = [], []
    rule, g = skeleton.quadrature_rule, DataFunctions.g

    def recording_rule(shape, deg):
        if shape == "edge":
            edge_degrees.append(deg)
        return rule(shape, deg)

    def counting_g(self, points, normals):
        g_points.append(len(points))
        return g(self, points, normals)

    monkeypatch.setattr(skeleton, "quadrature_rule", recording_rule)
    monkeypatch.setattr(DataFunctions, "g", counting_g)
    mesh = build_structured_mesh(n)
    data = DataFunctions(float(kappa))
    skeleton.boundary_loads(mesh, ProblemConfig.for_mesh(kappa, p, mesh), data.g)
    assert edge_degrees == [degree]
    assert g_points == [4 * n * quadrature_rule("edge", degree).n_points]


def test_config_file_with_flag_override(tmp_path):
    # An @file holds one argument per line; flags after it win.
    args_path = tmp_path / "run.args"
    args_path.write_text("--kappa=10\n--p=1\n--n=2,4\n")
    out = tmp_path / "out"
    code = main(["converge", f"@{args_path}", "--n", "4,8", "--out", str(out)])
    assert code == 0
    lines = _read(out / "converge_k10_p1.csv").splitlines()
    data_rows = [line for line in lines if not line.startswith("#")]
    assert len(data_rows) == 3  # flags win: n = 4,8
    assert data_rows[1].split(",")[2] == "4"


def test_dump_mesh_from_config_file(tmp_path):
    args_path = tmp_path / "run.args"
    args_path.write_text("--dump-mesh\n")
    out = tmp_path / "out"
    code = main(["solve", "--kappa", "5", "--p", "1", "--n", "2", f"@{args_path}",
                 "--out", str(out)])
    assert code == 0
    assert (out / "mesh_n2.txt").is_file()


def test_verify_only_energy_identity(capsys):
    assert main(["verify", "--only", "energy-identity"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] energy-identity" in out
    assert "residuals re" in out


def test_verify_only_oracle(capsys):
    assert main(["verify", "--only", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] oracle: max coefficient deviation" in out
    assert "n=2, p=1" in out


def test_verify_unknown_check_is_usage_error(monkeypatch, capsys):
    # argparse refuses a name outside CHECKS, and the message lists them.
    monkeypatch.setattr(cli, "run_verify", lambda **kwargs: pytest.fail("a check started"))
    assert _exit_code(["verify", "--only", "does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert "argument --only: invalid choice: 'does-not-exist'" in err
    assert "'energy-identity'" in err


@pytest.mark.parametrize("columns", ["60", "80", "100"])
def test_verify_help_keeps_every_check_name_whole(monkeypatch, capsys, columns):
    # argparse's wrapping would split `local-uniqueness` at its hyphen.
    from helmhdg.verify import CHECKS

    monkeypatch.setenv("COLUMNS", columns)
    assert _exit_code(["verify", "--help"]) == 0
    text = capsys.readouterr().out
    assert [name for name in CHECKS if name not in text] == []


def test_verify_loads_no_scipy_module():
    # The oracle's 104 unknowns are factored dense, so `hdg verify` runs on
    # NumPy alone.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "import helmhdg.cli\n"
        "code = helmhdg.cli.main(['verify'])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_value_error_inside_a_check_is_contract_failure(monkeypatch, capsys):
    # Only an unknown check name is a usage error; a check that raises
    # (say, a non-finite error norm) broke a numerical contract.
    from helmhdg import verify

    def broken():
        raise ValueError("e_u must be finite and nonnegative, got nan")

    monkeypatch.setitem(verify.CHECKS, "oracle", broken)
    assert main(["verify", "--only", "oracle"]) == 1
    captured = capsys.readouterr()
    assert (
        "[FAIL] oracle: raised ValueError: e_u must be finite and nonnegative, got nan"
        in captured.out
    )
    assert "ValueError" in captured.err  # the traceback


def test_failed_check_exits_1_and_names_it(monkeypatch, capsys):
    # A check that runs but misses its bound fails the suite with exit 1,
    # and the summary quotes the first failure.
    from helmhdg import verify

    monkeypatch.setattr(verify, "CHECKS", {
        name: lambda name=name: verify.CheckResult(name, name != "oracle", f"{name} measured")
        for name in verify.CHECKS
    })
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] oracle: oracle measured" in out
    assert "1 of 8 checks failed; first: oracle measured" in out


def test_verify_builds_no_parser_and_resolves_no_hints(monkeypatch):
    # Both are built once at import: the traced benchmark pass counts a
    # command's own time outside every layer span against a 1 % budget.
    import argparse
    import typing

    built, resolved = [], []
    init, get_type_hints = argparse.ArgumentParser.__init__, typing.get_type_hints

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_hints(*args, **kwargs):
        resolved.append(1)
        return get_type_hints(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(typing, "get_type_hints", counting_hints)
    assert main(["verify", "--only", "exact-solution"]) == 0
    assert built == []
    assert resolved == []


def test_full_verify_suite_passes_quickly(capsys):
    import time

    start = time.perf_counter()
    assert main(["verify"]) == 0
    assert time.perf_counter() - start < 300.0
    out = capsys.readouterr().out
    for name in (
        "orthonormality", "quadrature-exactness", "trace-inequality", "projection-rates",
        "local-uniqueness", "oracle", "energy-identity", "exact-solution",
    ):
        assert f"[PASS] {name}" in out


@pytest.mark.parametrize("kappa, p, n", [(30, 2, 12), (7.3, 3, 11)])
def test_header_tau_is_the_solve_tau(tmp_path, kappa, p, n):
    from helmhdg.diagnostics import format_float, run_benchmark_case

    out = tmp_path / "solve"
    assert main(["solve", "--kappa", str(kappa), "--p", str(p), "--n", str(n),
                 "--out", str(out)]) == 0
    lines = _read(out / f"solution_k{kappa:g}_p{p}_n{n}.csv").splitlines()
    (line,) = [line for line in lines if line.startswith("# tau rule = ")]
    tau = run_benchmark_case(kappa, p, n).disc.cfg.tau
    assert line.endswith(f"; tau = {format_float(tau)}")


@pytest.mark.parametrize("root2_multiple", [5, 10, 20])
def test_element_classes_take_the_header_degree(monkeypatch, root2_multiple):
    # Where kappa h = kappa sqrt(2) / n is an integer, the diagonal length
    # computed from the vertices and sqrt(2) / n differ in the last bit;
    # every element, of every class, must still take the header's degree,
    # the one of the data rule that `discretize` builds.
    import math

    from helmhdg import skeleton
    from helmhdg.hdg_local import ProblemConfig
    from helmhdg.mesh import build_structured_mesh

    kappa, p = root2_multiple * math.sqrt(2.0), 2
    degrees = []
    rule = skeleton.quadrature_rule

    def recording(domain, degree):
        if domain == "triangle":
            degrees.append(degree)
        return rule(domain, degree)

    monkeypatch.setattr(skeleton, "quadrature_rule", recording)
    args = cli.build_parser().parse_args(["solve"])
    for n in (d for d in range(1, 60) if 2 * root2_multiple % d == 0):
        (line,) = [line for line in cli._config_lines(args, kappa, p, [n])
                   if line.startswith("data quadrature degree = ")]
        header = int(line.rsplit(" ", 1)[1])
        mesh = build_structured_mesh(n)
        degrees.clear()
        skeleton.discretize(mesh, ProblemConfig.for_mesh(kappa, p, mesh),
                            lambda x: np.zeros(len(x)), lambda x, nrm: np.zeros(len(x)))
        assert degrees == [header], n


class _Reached(Exception):
    """Raised where a command would start its first solve or check."""


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(flag=st.sampled_from(["--fixed-kappa-h", "--fixed-kappa3h2"]),
       constant=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       kappa=st.floats(cli.MIN_KAPPA, 1e4), p=st.integers(1, 3))
def test_every_fixed_line_constant_exits_2_or_reaches_the_first_solve(flag, constant, kappa, p):
    # A constant that `_validate` accepts (finite and positive) is either
    # refused with exit 2, subnormal ones included, or its case reaches the
    # point where the command makes its output directory.
    argv = ["converge", "--kappa", repr(kappa), "--p", str(p), flag, repr(constant)]
    with mock.patch.object(cli, "_make_out_dir", side_effect=_Reached), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except _Reached:
            return
    assert code == 2, argv
