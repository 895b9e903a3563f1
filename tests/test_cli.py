"""End-to-end tests of the command-line front end.

Commands run in-process through cli.main, which returns the exit code the
console script would produce.  A reduced 400-node grid keeps the solve-based
tests fast; the oracle error there is 1.1e-4 (measured), still an order of
magnitude inside the 1e-3 tolerance.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracradial.cli as cli
import fracradial.radial_ops as radial_ops
import fracradial.solver as solver_mod
from fracradial.cli import load_solution, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config on a 400-node grid plus one solve and both verify runs."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text(
        "[grid]\nnodes = 400\n\n"
        f"[output]\ndirectory = {root / 'solve'}\n")
    assert main(["solve", "--config", str(config)]) == 0
    assert main(["verify-decay", "--config", str(config),
                 "--out", str(root / "fresh")]) == 0
    assert main(["verify-decay", "--config", str(config),
                 "--solution", str(root / "solve" / "solution.json"),
                 "--out", str(root / "reloaded")]) == 0
    return root


# ---------------------------------------------------------------------------
# specfun-table


def test_table_exact_identity_regime(tmp_path):
    code = main(["specfun-table", "--out", str(tmp_path),
                 "--radii", "1,10,100"])
    assert code == 0
    rows = read_csv(tmp_path / "specfun_table.csv")
    assert rows[0] == ["radius", "h_beta", "fraclap_exact",
                       "fraclap_asymptotic", "ratio"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert abs(float(row[4]) - 1.0) <= 1e-9


def test_table_log_corrected_regime(tmp_path):
    code = main(["specfun-table", "--out", str(tmp_path),
                 "--beta", "3", "--radii", "100"])
    assert code == 0
    rec = read_json(tmp_path / "specfun_table.json")
    assert rec["asymptotic_regime"] == "equal_N"
    ratio = rec["rows"][0]["ratio"]
    assert abs(ratio - 1.0) <= 0.1   # measured 0.99967


def test_table_empty_radius_list(tmp_path):
    code = main(["specfun-table", "--out", str(tmp_path), "--radii", ""])
    assert code == 0
    rows = read_csv(tmp_path / "specfun_table.csv")
    assert len(rows) == 1   # header only


def test_table_negative_radius_exits_2(tmp_path, capsys):
    code = main(["specfun-table", "--out", str(tmp_path), "--radii=1,-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: --radii: radii must be >= 0, got -1.0\n"
    assert not (tmp_path / "specfun_table.csv").exists()


def test_table_radius_zero_is_valid(tmp_path):
    assert main(["specfun-table", "--out", str(tmp_path), "--radii", "0"]) == 0
    assert len(read_csv(tmp_path / "specfun_table.csv")) == 2


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


def test_table_without_a_finite_law_writes_null(tmp_path):
    # beta = N: the log-corrected law diverges at r = 0; its cell and the
    # ratio are null in strict JSON and empty in the CSV, with no warning
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "fracradial.cli", "specfun-table", "--out",
         str(tmp_path), "--radii", "0,1", "--beta", "3"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    with open(tmp_path / "specfun_table.json") as fh:
        rec = json.load(fh, parse_constant=_reject_constant)
    at_0, at_1 = rec["rows"]
    assert at_0["radius"] == 0.0 and at_0["fraclap_exact"] > 0.0
    assert at_0["fraclap_asymptotic"] is None and at_0["ratio"] is None
    assert at_1["ratio"] == at_1["fraclap_exact"] / at_1["fraclap_asymptotic"]
    rows = read_csv(tmp_path / "specfun_table.csv")
    assert rows[1][3:] == ["", ""]
    assert all(rows[2])


def test_reports_reject_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "r.json", {"x": [1.0, float("inf")]})


def test_format_flag_restricts_outputs(tmp_path):
    code = main(["specfun-table", "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    assert (tmp_path / "specfun_table.csv").exists()
    assert not (tmp_path / "specfun_table.json").exists()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_single_case_passes(tmp_path):
    code = main(["oracle", "--out", str(tmp_path), "--set", "grid.nodes=400",
                 "--case", "3,0.5,2"])
    assert code == 0
    rec = read_json(tmp_path / "oracle_report.json")
    assert len(rec["rows"]) == 1
    assert rec["rows"][0]["passed"] is True
    assert rec["rows"][0]["max_rel_err"] <= 1e-3


def test_oracle_coarse_grid_fails(tmp_path):
    # 50 nodes cannot resolve the kernel: measured error 7.6e-2
    code = main(["oracle", "--out", str(tmp_path), "--set", "grid.nodes=50",
                 "--case", "3,0.5,2"])
    assert code == 1
    rec = read_json(tmp_path / "oracle_report.json")
    assert rec["rows"][0]["passed"] is False


@pytest.mark.parametrize("case", ["3,0.5,2,9", "3,0.5"])
def test_oracle_case_needs_three_fields(tmp_path, capsys, case):
    code = main(["oracle", "--out", str(tmp_path), "--case", case])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: --case expects N,s,beta: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "oracle_report.json").exists()


# ---------------------------------------------------------------------------
# configuration errors


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[solver]\ntolerence = 1e-8\n")
    assert main(["solve", "--config", str(config)]) == 2


def test_unknown_config_section_rejected(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[solvers]\ntolerance = 1e-8\n")
    assert main(["solve", "--config", str(config)]) == 2


@pytest.mark.parametrize("override", [
    "solver.typo=1",          # unknown key
    "problem.s=abc",          # unparsable number
    "problem.s=1.5",          # outside (0, 1)
    "output.formats=xml",     # unsupported format
    "analysis.fit_window=50", # needs two numbers
    "solver.seed=0",          # removed key
])
def test_invalid_overrides_exit_2(tmp_path, override):
    assert main(["solve", "--out", str(tmp_path), "--set", override]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "none.ini")]) == 2


def test_malformed_solution_record_rejected(tmp_path):
    bad = tmp_path / "solution.json"
    bad.write_text('{"kind": "something-else"}')
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2


def test_zero_profile_record_is_an_invalid_record(workdir, tmp_path, capsys):
    rec = read_json(workdir / "solve" / "solution.json")
    prof = rec["profile"]
    prof["values"] = [0.0] * len(prof["values"])
    prof["value_at_origin"] = prof["tail_amplitude"] = 0.0
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert err.count("\n") == 1


def test_negative_origin_record_is_an_invalid_record(workdir, tmp_path,
                                                     capsys):
    rec = read_json(workdir / "solve" / "solution.json")
    rec["profile"]["value_at_origin"] = -1.0
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert err.endswith("Solution: profile must be strictly positive\n")
    assert err.count("\n") == 1


def test_reused_parser_keeps_no_override_of_an_earlier_call(tmp_path,
                                                            monkeypatch):
    nodes = []

    def stop(params, opts):
        nodes.append(opts.grid.size)
        raise RuntimeError("stopped before solving")

    monkeypatch.setattr(cli, "solve_ground_state", stop)
    assert main(["solve", "--out", str(tmp_path), "--set", "grid.nodes=64"]) == 3
    assert main(["solve", "--out", str(tmp_path)]) == 3
    assert nodes == [64, 1200]
    assert cli._build_parser() is cli._build_parser()


def test_nonconvergence_exits_3(tmp_path):
    code = main(["solve", "--out", str(tmp_path),
                 "--set", "grid.nodes=400", "--set", "solver.max_iter=3"])
    assert code == 3


def test_numerical_failure_exits_3_with_one_line(tmp_path, capsys):
    # 16 nodes are too coarse: the first iterate loses positivity
    code = main(["solve", "--out", str(tmp_path), "--set", "grid.nodes=16"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "lost positivity" in err and "Traceback" not in err


def test_value_error_after_parsing_exits_3_with_one_line(tmp_path, capsys,
                                                        monkeypatch):
    def failing(*args):
        raise ValueError("f is not finite\n at the iterate")

    monkeypatch.setattr(cli, "solve_ground_state", failing)
    code = main(["solve", "--out", str(tmp_path), "--set", "grid.nodes=400"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numerical failure: f is not finite at the iterate\n"


def test_singular_resolvent_exits_3_with_one_line(tmp_path, capsys,
                                                  monkeypatch):
    # minus mu on the diagonal: the solver's "+ mu" leaves the zero matrix
    monkeypatch.setattr(solver_mod, "fraclap_matrix",
                        lambda grid, s, tail_omega: -np.eye(grid.size))
    code = main(["solve", "--out", str(tmp_path), "--set", "grid.nodes=64",
                 "--set", "problem.mu=1.0"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numerical failure: lu_factor: singular resolvent matrix\n"


def _run_fresh(code):
    """Run code in a fresh interpreter that imports the package from src."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_import_loads_no_scipy():
    out = _run_fresh("import sys, fracradial.cli; print(sorted(m for m in "
                     "sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_commands_run_without_scipy(tmp_path):
    # with sys.modules["scipy"] = None any scipy import raises ImportError;
    # the N = 2 oracle case builds a spline kernel table
    record = tmp_path / "s" / "solution.json"
    commands = [
        ["solve", "--set", "grid.nodes=400", "--out", str(record.parent)],
        ["verify-decay", "--solution", str(record), "--out", str(tmp_path / "v")],
        ["oracle", "--case", "2,0.5,2.5", "--out", str(tmp_path / "o")],
    ]
    out = _run_fresh("import sys\nsys.modules['scipy'] = None\n"
                     "from fracradial.cli import main\n"
                     f"print([main(args) for args in {commands!r}])")
    assert out.splitlines()[-1] == "[0, 0, 0]"


@pytest.mark.parametrize("overrides", [
    ["grid.r_max=20"],                   # default window top 100 > r_max/10
    ["analysis.fit_window=100,50"],      # reversed
    ["analysis.fit_window=0,50"],        # not positive
    ["grid.nodes=300"],                  # 15 nodes in the default window
])
def test_unusable_fit_window_exits_2_before_solving(tmp_path, capsys,
                                                    monkeypatch, overrides):
    solves = []
    monkeypatch.setattr(cli, "solve_ground_state",
                        lambda *args: solves.append(args))
    argv = ["verify-decay", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: analysis.fit_window: ")
    assert err.count("\n") == 1
    assert solves == []


def test_unusable_fit_window_for_a_stored_record_exits_2(workdir, tmp_path,
                                                         capsys):
    # the record's grid ends at r_max = 1000, so a window top of 200 is out
    code = main(["verify-decay", "--solution",
                 str(workdir / "solve" / "solution.json"),
                 "--set", "analysis.fit_window=50,200", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: analysis.fit_window: window top 200.0")


@pytest.mark.parametrize("override,key", [
    ("analysis.chain_rule_theta=1.5", "analysis.chain_rule_theta"),
    ("analysis.chain_rule_theta=0", "analysis.chain_rule_theta"),
    ("analysis.theta=2.0", "analysis.theta"),        # outside (N, N+alpha]
    ("analysis.kappa=-1", "analysis.kappa"),
    # mu <= (r-1) (C_bar/kappa)^(1/(r-1)) for the default mu and r
    ("analysis.kappa=0.01", "analysis.kappa"),
])
def test_unusable_analysis_setting_for_a_stored_record_exits_2(
        workdir, tmp_path, capsys, override, key):
    code = main(["verify-decay", "--solution",
                 str(workdir / "solve" / "solution.json"),
                 "--set", override, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("overrides,key", [
    (["analysis.chain_rule_theta=0.3,1.5"], "analysis.chain_rule_theta"),
    (["analysis.chain_rule_theta=0"], "analysis.chain_rule_theta"),
    (["analysis.theta=5.5"], "analysis.theta"),       # N + alpha = 5
    (["analysis.kappa=-1"], "analysis.kappa"),
    (["analysis.kappa=0.01"], "analysis.kappa"),
    # a usable fit window, but the chain-rule radius 20 lies beyond r_max
    (["grid.r_max=15", "analysis.fit_window=0.5,1.5"], "grid.r_max"),
])
def test_unusable_analysis_setting_exits_2_before_solving(
        tmp_path, capsys, monkeypatch, overrides, key):
    solves = []
    monkeypatch.setattr(cli, "solve_ground_state",
                        lambda *args: solves.append(args))
    argv = ["verify-decay", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert err.count("\n") == 1
    assert solves == []


# ---------------------------------------------------------------------------
# solve outputs and the two pipeline invariants


def test_solve_writes_record_and_tables(workdir):
    solve_dir = workdir / "solve"
    rec = read_json(solve_dir / "solution.json")
    assert rec["schema_version"] == 1
    assert rec["kind"] == "fracradial.solution"
    assert rec["problem"]["r"] == 1.7
    assert len(rec["profile"]["values"]) == 400
    assert rec["diagnostics"]["regime"] == "choquard_dominated"
    rows = read_csv(solve_dir / "profile.csv")
    assert rows[0] == ["radius", "u", "u_scaled"]
    assert len(rows) == 401


def test_reports_round_trip_bitwise(workdir):
    """Reloading the solution file reproduces the fresh report exactly."""
    fresh = (workdir / "fresh" / "verify_report.json").read_bytes()
    reloaded = (workdir / "reloaded" / "verify_report.json").read_bytes()
    assert fresh == reloaded
    fresh_csv = (workdir / "fresh" / "verify_report.csv").read_bytes()
    reloaded_csv = (workdir / "reloaded" / "verify_report.csv").read_bytes()
    assert fresh_csv == reloaded_csv


def test_repeated_solve_is_byte_identical(workdir, tmp_path):
    config = workdir / "run.ini"
    assert main(["solve", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    first = (workdir / "solve" / "profile.csv").read_bytes()
    second = (tmp_path / "profile.csv").read_bytes()
    assert first == second
    assert (workdir / "solve" / "solution.json").read_bytes() == \
        (tmp_path / "solution.json").read_bytes()


def test_verify_report_checks(workdir):
    rec = read_json(workdir / "fresh" / "verify_report.json")
    assert rec["passed"] is True
    assert rec["prediction"]["regime"] == "choquard_dominated"
    assert abs(rec["prediction"]["beta"] - 10.0 / 3.0) <= 1e-12
    names = {c["name"] for c in rec["checks"]}
    assert {"fit_exponent", "tail_constant", "bounds_ordered",
            "kappa_ledger", "riesz_tail"} <= names
    assert any(n.startswith("chain_rule_theta_") for n in names)
    fit = rec["fit"]["fitted_exponent"]
    assert abs(fit - 10.0 / 3.0) <= 0.1 * 10.0 / 3.0   # measured 3.3975


def test_chain_rule_numbers_of_a_stored_r19_record(tmp_path):
    """The chain-rule figures of verify_report.json on a stored r = 1.9
    record (400 nodes).  Two of its radii, 0.5 and 1.0, are powers of two,
    where the PV window must read the kernel at its exact offsets from the
    diagonal (see radial_ops._pv_moments)."""
    rec = tmp_path / "rec"
    assert main(["solve", "--set", "grid.nodes=400", "--set", "problem.r=1.9",
                 "--out", str(rec)]) == 0
    assert main(["verify-decay", "--solution", str(rec / "solution.json"),
                 "--out", str(tmp_path / "verify")]) == 0
    chain = read_json(tmp_path / "verify" / "verify_report.json")["chain_rule"]
    assert [(c["theta"], c["passed"]) for c in chain] == [
        (0.3, True), (0.10000000000000009, True)]
    # the margins come out of a full solve, so they are compared at the
    # rtol of the other frozen-solve tests, not bitwise across platforms
    assert_allclose([c["min_margin_over_scale"] for c in chain],
                    [0.24137703137868807, 0.3758166228791552], rtol=1e-9)


def test_reloaded_grid_is_assembled_by_structure(workdir):
    """A grid rebuilt from solution.json is geometric to the bit, so its
    operators take the structured assembly."""
    sol = load_solution(str(workdir / "solve" / "solution.json"))
    assert radial_ops._is_geometric(sol.u.grid)
