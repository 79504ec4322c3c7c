import os

import pytest

from helmhdg import cli
from helmhdg.cli import main


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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


def test_energy_identity_failure_exits_1(tmp_path, capsys):
    # At kappa = 0.01, tau = p/(kappa h) is large and the imaginary part
    # of the energy identity misses its 1e-9 contract (about 7e-9).
    code = main(["solve", "--kappa", "0.01", "--p", "1", "--n", "16", "--out", str(tmp_path)])
    assert code == 1
    assert "energy identity" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path):
    assert main(["converge", "--kappa", "-5", "--p", "1", "--n", "4", "--out", str(tmp_path)]) == 2
    assert main(["converge", "--kappa", "5", "--p", "1", "--n", "nope", "--out", str(tmp_path)]) == 2
    assert main([
        "converge", "--kappa", "5", "--p", "1", "--n", "4",
        "--fixed-kappa-h", "1", "--fixed-kappa3h2", "1", "--out", str(tmp_path),
    ]) == 2


@pytest.mark.parametrize("flags, config", [
    (["--kappa", "nan"], None),
    (["--kappa", "inf"], None),
    (["--p", "11"], None),
    (["--n", "8,4"], None),
    ([], '{"kappas": 20}'),
], ids=["kappa-nan", "kappa-inf", "p-above-max", "n-decreasing", "config-scalar-kappas"])
def test_bad_input_exits_2_before_any_solve(tmp_path, monkeypatch, flags, config):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the input was validated")

    monkeypatch.setattr(cli, "run_benchmark_case", no_solve)
    args = ["converge", "--kappa", "5", "--p", "1", "--n", "4,8", "--out", str(tmp_path)]
    if config is not None:
        path = tmp_path / "bad.json"
        path.write_text(config)
        args = ["converge", "--config", str(path), "--out", str(tmp_path)]
    assert main(args + flags) == 2


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


def test_quad_degree_override_is_echoed(tmp_path):
    out = tmp_path / "quad"
    code = main([
        "converge", "--kappa", "5", "--p", "1", "--n", "4,8",
        "--quad-degree", "12", "--out", str(out),
    ])
    assert code == 0
    lines = _read(out / "converge_k5_p1.csv").splitlines()
    assert any(line == "# data quadrature degree = 12,12" for line in lines)


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"kappas": [10.0], "orders": [1], "sizes": [2, 4]}')
    out = tmp_path / "out"
    code = main(["converge", "--config", str(cfg_path), "--n", "4,8", "--out", str(out)])
    assert code == 0
    lines = _read(out / "converge_k10_p1.csv").splitlines()
    data_rows = [line for line in lines if not line.startswith("#")]
    assert len(data_rows) == 3  # flags win: n = 4,8
    assert data_rows[1].split(",")[2] == "4"


def test_dump_mesh_from_config_file(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"dump_mesh": true}')
    out = tmp_path / "out"
    code = main(["solve", "--kappa", "5", "--p", "1", "--n", "2", "--config", str(cfg_path),
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


def test_verify_unknown_check_is_usage_error():
    assert main(["verify", "--only", "does-not-exist"]) == 2


def test_value_error_inside_a_check_is_contract_failure(monkeypatch, capsys):
    # Only an unknown check name is a usage error; a check that raises
    # (say, a non-finite error norm) broke a numerical contract.
    from helmhdg import verify

    def broken():
        raise ValueError("e_u must be finite and nonnegative, got nan")

    monkeypatch.setitem(verify.CHECKS, "oracle", broken)
    assert main(["verify", "--only", "oracle"]) == 1
    assert "contract failure" in capsys.readouterr().err


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
