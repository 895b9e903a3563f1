"""End-to-end tests of the command-line front end.

Commands run in-process through cli.main, which returns the exit code the
console script would produce.  A reduced 400-node grid keeps the solve-based
tests fast; the oracle error there is 1.1e-4 (measured), still an order of
magnitude inside the 1e-3 tolerance.
"""

import csv
import dataclasses
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
from fracradial import RadialGrid, SolverOpts
from fracradial.cli import load_solution, main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
    assert err == ("config error: --radii: frac_lap_h_exact: radius must be >= 0, "
                   "got -1.0\n")
    assert not (tmp_path / "specfun_table.csv").exists()


# r^2, the closed form's argument and the profile's, overflowed above about
# 1.34e154: 1e200 exited 3 with an overflow in h_beta_eval
def test_table_radius_whose_square_overflows_exits_2(tmp_path, capsys):
    code = main(["specfun-table", "--out", str(tmp_path), "--beta", "0.5",
                 "--radii=1,1e200"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("config error: --radii: frac_lap_h_exact: radius must have a "
                   "finite square, at most 1.3407807929942596e+154, got 1e+200\n")
    assert not (tmp_path / "specfun_table.csv").exists()


# below N the closed form read 0.0 at 1e100 (ratio 0.0), and exited 3 at 1e150.
# Every regime of N = 3, s = 1/2 (0.5 and 1 lie below N - 2s), at the far
# radii where its law is a nonzero double: at 1e100 the laws of
# beta >= N - 2s underflow to 0.
def test_table_far_rows_meet_the_law(tmp_path):
    for beta, radii in (("0.5", "1e50,1e100,1e150,1.34e154"),
                        ("1", "1e50,1e100,1e150,1.34e154"),
                        ("2", "1e50"), ("2.5", "1e50"), ("3", "1e50"),
                        ("3.5", "1e50")):
        assert main(["specfun-table", "--out", str(tmp_path), "--beta", beta,
                     "--radii", radii]) == 0
        for row in read_json(tmp_path / "specfun_table.json")["rows"]:
            assert abs(row["ratio"] - 1.0) <= 1e-12, (beta, row)


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
        cli._json_text("fracradial.test", {"x": [1.0, float("inf")]})


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


# A second case outside the profile's range was refused only after the
# first had been computed and its PASS line printed.
@pytest.mark.parametrize("bad", ["3,0.5,9.0", "3,1.5,2.0"])
def test_oracle_checks_every_case_before_computing_any(tmp_path, capsys, bad):
    out = tmp_path / "out"
    code = main(["oracle", "--case", "3,0.5,2.0", "--case", bad,
                 "--set", "grid.nodes=400", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ProfileParams: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", ["3,0.5,2,9", "3,0.5"])
def test_oracle_case_needs_three_fields(tmp_path, capsys, case):
    code = main(["oracle", "--out", str(tmp_path), "--case", case])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: --case expects N,s,beta: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "oracle_report.json").exists()


def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    # its parent is a regular file: mkdir raised NotADirectoryError (exit 1)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["oracle", "--case", "3,0.5,2.0", "--set", "grid.nodes=200",
                 "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == \
        f"config error: cannot write {blocker / 'sub'}: Not a directory\n"
    # found before the case is computed, whose PASS line would print first
    assert captured.out == ""


def test_unusable_output_directory_exits_2_before_computing(workdir, tmp_path,
                                                            capsys, monkeypatch):
    # the oracle printed its PASS line and a solve ran to the end before
    # the output directory was found unusable
    def no_call(*args):
        raise AssertionError("a solution was solved or loaded")

    monkeypatch.setattr(cli, "solve_ground_state", no_call)
    monkeypatch.setattr(cli, "load_solution", no_call)
    blocker = tmp_path / "file"
    blocker.write_text("")
    record = str(workdir / "solve" / "solution.json")
    for argv in (["solve"], ["verify-decay", "--solution", record],
                 ["oracle", "--case", "3,0.5,2.0", "--set", "grid.nodes=200"]):
        code = main(argv + ["--out", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == \
            f"config error: cannot write {blocker / 'sub'}: Not a directory\n"
        assert captured.out == ""


def test_output_name_taken_by_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "oracle_report.csv").mkdir(parents=True)
    code = main(["oracle", "--case", "3,0.5,2.0", "--set", "grid.nodes=400",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"config error: cannot write "
                            f"{out / 'oracle_report.csv'}: Is a directory\n")
    assert "wrote" not in captured.out
    assert not (out / "oracle_report.json").exists()


def test_output_name_linked_to_the_null_device_is_written(tmp_path, capsys):
    # the null device cannot be cut to length, so only a regular file is;
    # the other report of the command is still written
    argv = ["oracle", "--case", "3,0.5,2.0", "--set", "grid.nodes=400"]
    linked, fresh = tmp_path / "linked", tmp_path / "fresh"
    linked.mkdir()
    (linked / "oracle_report.csv").symlink_to(os.devnull)
    assert main(argv + ["--out", str(linked)]) == 0
    assert main(argv + ["--out", str(fresh)]) == 0
    assert capsys.readouterr().err == ""
    assert (linked / "oracle_report.csv").is_symlink()
    assert ((linked / "oracle_report.json").read_bytes()
            == (fresh / "oracle_report.json").read_bytes())


def test_rerun_over_longer_files_leaves_no_stale_bytes(workdir, tmp_path):
    # a report is written over the bytes of the file it replaces and cut
    # at its end; without the cut, the filler past that end would stay
    record = str(workdir / "solve" / "solution.json")
    for stem, argv in (
            ("oracle_report", ["oracle", "--case", "3,0.5,2.0"]),
            ("verify_report", ["verify-decay", "--config",
                               str(workdir / "run.ini"), "--solution", record])):
        rerun, fresh = tmp_path / stem / "rerun", tmp_path / stem / "fresh"
        rerun.mkdir(parents=True)
        names = [f"{stem}.csv", f"{stem}.json"]
        for name in names:
            (rerun / name).write_bytes(b"#" * 10240)
        for out in (rerun, fresh):
            assert main(argv + ["--out", str(out)]) == 0
        for name in names:
            text = (fresh / name).read_bytes()
            assert 0 < len(text) < 10240
            assert (rerun / name).read_bytes() == text, name


# ---------------------------------------------------------------------------
# configuration errors


# README's block once set [output] directory = out, where the default is "."
def test_readme_config_block_is_the_defaults(tmp_path):
    """README's configuration block, which it says reproduces the defaults,
    loads to them, and they are the grid's and the solver's own."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```ini\n")[1]
    config = tmp_path / "readme.ini"
    config.write_text(block.split("```")[0])
    cfg = cli.load_config(str(config), [])
    assert cfg == cli.load_config(None, [])
    grid, opts = RadialGrid.log_spaced(), SolverOpts()
    assert cfg["grid"] == {"r_min": grid.r_min, "r_max": grid.r_max,
                           "nodes": grid.size}
    assert cfg["solver"] == {"tolerance": opts.tolerance,
                             "max_iter": opts.max_iterations}


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[solver]\ntolerence = 1e-8\n")
    assert main(["solve", "--config", str(config)]) == 2


# configparser hides [DEFAULT] from its sections and merges its keys into
# every other one: alone, its r = 2.5 was ignored and the default r = 1.7
# solved (exit 0); beside a [grid] section, its nodes = 400 set grid.nodes.
def test_unknown_config_section_rejected(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    for text, section in (("[solvers]\ntolerance = 1e-8\n", "solvers"),
                          ("[DEFAULT]\nr = 2.5\n", "DEFAULT"),
                          ("[DEFAULT]\nnodes = 400\n\n[grid]\n", "DEFAULT"),
                          # --out is the one way to name the output directory
                          ("[output]\ndirectory = out\n", "output")):
        config.write_text(text)
        assert main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2, text
        assert capsys.readouterr().err == \
            f"config error: unknown config section [{section}]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [
    "solver.typo=1",          # unknown key
    "problem.s=abc",          # unparsable number
    "problem.s=1.5",          # outside (0, 1)
    "analysis.fit_window=50", # needs two numbers
    "solver.seed=0",          # removed key
])
def test_invalid_overrides_exit_2(tmp_path, override):
    assert main(["solve", "--out", str(tmp_path), "--set", override]) == 2


# problem.convention named a second pair, F = t^r, whose solution is a
# rescaling of the default pair's; the output directory is --out, and every
# report is written as CSV and JSON
@pytest.mark.parametrize("override", [
    "solver.damping=0.5", "solver.init_profile=3", "problem.convention=power",
    "output.directory=elsewhere", "output.formats=csv", "output.formats=xml"])
def test_removed_solver_keys_exit_2(tmp_path, capsys, monkeypatch, override):
    def no_call(*args):
        raise AssertionError("a solution was solved")

    monkeypatch.setattr(cli, "solve_ground_state", no_call)
    out = tmp_path / "out"
    assert main(["solve", "--out", str(out), "--set", override]) == 2
    err = capsys.readouterr().err
    assert override.partition("=")[0] in err and err.count("\n") == 1
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "none.ini")]) == 2


def test_malformed_solution_record_rejected(tmp_path):
    bad = tmp_path / "solution.json"
    bad.write_text('{"kind": "something-else"}')
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", ["[]", "null", '"fracradial.solution"', "3"])
def test_record_that_is_not_a_json_object_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "solution.json"
    bad.write_text(text)
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert err.count("\n") == 1


def test_solution_record_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "solution.json"
    bad.write_bytes(b"\xff\xfe\x00x")
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed solution ")
    assert err.count("\n") == 1


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "run.ini"
    bad.write_bytes(b"\xff\xfe\x00x")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed config ")
    assert err.count("\n") == 1


def test_zero_profile_record_is_an_invalid_record(workdir, tmp_path, capsys):
    rec = read_json(workdir / "solve" / "solution.json")
    prof = rec["profile"]
    prof["values"] = [0.0] * len(prof["values"])
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert err.count("\n") == 1


# A profile edited to x1.01 stays positive and non-increasing; it loaded,
# and verify-decay ran every check on it (exit 0).
def test_record_whose_profile_fails_the_residual_gate_exits_2(
        workdir, tmp_path, capsys):
    rec = read_json(workdir / "solve" / "solution.json")
    prof = rec["profile"]
    prof["values"] = [1.01 * v for v in prof["values"]]
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert "fails the solve's gate: residual " in err
    assert err.count("\n") == 1
    assert not out.exists()


# Scaled by 1e200 the profile overflowed F(u) inside the residual gate, and
# verify-decay exited 3 as a numerical failure.
def test_record_whose_profile_overflows_the_operators_exits_2(
        workdir, tmp_path, capsys):
    rec = read_json(workdir / "solve" / "solution.json")
    prof = rec["profile"]
    prof["values"] = [1e200 * v for v in prof["values"]]
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert "overflow" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def n2_record(tmp_path_factory):
    """A stored N = 2 record (alpha = 1, r = 1.6) on a 200-node grid."""
    out = tmp_path_factory.mktemp("n2")
    assert main(["solve", "--set", "problem.n=2", "--set", "problem.alpha=1",
                 "--set", "problem.r=1.6", "--set", "grid.nodes=200",
                 "--out", str(out)]) == 0
    return out / "solution.json"


# An N = 2 record read on an N = 3 grid ran every check (exit 1), and an
# N = 3 one on an N = 2 grid failed with alpha = 2 outside (0, N) (exit 3).
@pytest.mark.parametrize("grid_n", [3, 2])
def test_record_whose_grid_n_is_not_problem_n_is_an_invalid_record(
        workdir, n2_record, tmp_path, capsys, grid_n):
    record = n2_record if grid_n == 3 else workdir / "solve" / "solution.json"
    rec = read_json(record)
    rec["grid"]["n"] = grid_n
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert f"grid.n {grid_n} differs from problem.n {5 - grid_n}" in err
    assert err.count("\n") == 1
    assert not out.exists()


# Each of these loaded, and verify-decay on it exited 0.  A solve takes at
# least one step, so 0 and -5 are refused too.
@pytest.mark.parametrize("key,value", [("iterations", 1.5), ("iterations", True),
                                       ("iterations", 0), ("iterations", -5)])
def test_record_with_a_non_integer_or_boolean_diagnostic_exits_2(
        workdir, tmp_path, capsys, key, value):
    rec = read_json(workdir / "solve" / "solution.json")
    rec["diagnostics"][key] = value
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert f"diagnostics.{key}" in err and err.count("\n") == 1
    assert not out.exists()


# json.load reads true and false as bools, which are ints too.  A record with
# "mu": true verified with exit 0, its report echoing the true; one with
# "r_min": true was refused as a profile that fails the solve's gate.  A
# string, which float() parses, or a null is refused by the same cause.
@pytest.mark.parametrize("value", [True, False, "1.5", None])
@pytest.mark.parametrize("field", [
    "problem.n", "problem.s", "problem.alpha", "problem.mu", "problem.r",
    "grid.n", "grid.r_min", "grid.r_max", "profile.tail_exponent",
    "profile.values[0]", "profile.values[399]"])
def test_record_with_a_boolean_number_exits_2(workdir, tmp_path, capsys,
                                               field, value):
    rec = read_json(workdir / "solve" / "solution.json")
    part, key = field.split(".")
    if key.startswith("values["):
        rec[part]["values"][int(key[len("values["):-1])] = value
    else:
        rec[part][key] = value
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert f"{field} is {json.dumps(value)}, not a number" in err
    assert err.count("\n") == 1
    assert not out.exists()


# float() parses a JSON string, so a record whose profile values and tail
# exponent were strings loaded, and verify-decay on it wrote the unedited
# record's report with exit 0.
def test_record_with_string_profile_numbers_exits_2(workdir, tmp_path, capsys):
    rec = read_json(workdir / "solve" / "solution.json")
    prof = rec["profile"]
    prof["values"] = [repr(v) for v in prof["values"]]
    prof["tail_exponent"] = repr(prof["tail_exponent"])
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert f"profile.tail_exponent is {json.dumps(prof['tail_exponent'])}, " \
        "not a number" in err
    assert err.count("\n") == 1
    assert not out.exists()


# A string's characters or an object's keys were read as the values, and
# the cause named profile.values[0]; a number or null named no field.
@pytest.mark.parametrize("values", ["1.0", {"a": 1.0}, 3.0, None])
def test_record_whose_profile_values_are_not_an_array_exits_2(
        workdir, tmp_path, capsys, values):
    rec = read_json(workdir / "solve" / "solution.json")
    rec["profile"]["values"] = values
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert f"profile.values is {json.dumps(values)}, not an array of " \
        "numbers" in err
    assert err.count("\n") == 1
    assert not out.exists()


# A record holds the one pair f = sqrt(r) t^(r-1), tagged "sqrt_r".  One
# whose convention was edited to null, a general nonlinearity, passed the
# gate: verify-decay ran every check and exited 2 only at the report, with a
# cause naming neither the record nor the field.  One whose mu was Infinity
# (json writes and reads it) was refused as a profile that is not finite.
@pytest.mark.parametrize("key,value", [("convention", None), ("mu", float("inf")),
                                       ("convention", "power")])
def test_record_with_a_null_convention_or_infinite_mu_exits_2(
        workdir, tmp_path, capsys, key, value):
    rec = read_json(workdir / "solve" / "solution.json")
    rec["problem"][key] = value
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert f"{key} must be" in err and err.count("\n") == 1
    assert not out.exists()


# A record's diagnostics other than iterations report the solve that wrote it,
# and are not read back.  A mass_F edited to twice its value once failed the
# tail_constant check (exit 1); a zero, negative or non-finite one had to
# be refused (exit 2).
@pytest.mark.parametrize("edit", ["x2", 0, -5, float("nan"), float("inf"), True],
                         ids=["x2", "0", "-5", "NaN", "Infinity", "true"])
@pytest.mark.parametrize("key", ["residual_sup", "pohozaev_defect", "norm_r",
                                 "mass_F"])
def test_record_diagnostics_but_iterations_are_not_read_back(
        workdir, tmp_path, key, edit):
    rec = read_json(workdir / "solve" / "solution.json")
    diag = rec["diagnostics"]
    diag[key] = 2.0 * diag[key] if edit == "x2" else edit
    edited = tmp_path / "solution.json"
    edited.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(edited),
                 "--out", str(out)]) == 0
    for name in ("verify_report.json", "verify_report.csv"):
        assert (out / name).read_bytes() == \
            (workdir / "reloaded" / name).read_bytes()


# A record's grid is RadialGrid(r_min, r_max, size, n) of its grid fields:
# fields that make no grid, or a grid of another dimension than the
# problem's, are refused before any check runs.
@pytest.mark.parametrize("fields,cause", [
    ({"size": 16}, "RadialGrid: need at least 32 nodes, got 16"),
    ({"size": 400.5}, "RadialGrid: size must be an integer, got 400.5"),
    ({"r_min": 1e3}, "RadialGrid: need 0 < r_min < r_max"),
    ({"r_max": "1e400"}, "RadialGrid: r_max = inf is out of range"),
    ({"n": 2}, "grid.n 2 differs from problem.n 3"),
], ids=["size-16", "size-400.5", "r_min-at-r_max", "r_max-1e400", "n-2"])
def test_record_whose_grid_fields_make_no_grid_exits_2(
        workdir, tmp_path, capsys, fields, cause):
    rec = read_json(workdir / "solve" / "solution.json")
    rec["grid"].update(fields)
    bad = tmp_path / "solution.json"
    # 1e400 is written as a JSON number, which json.load reads as inf
    bad.write_text(json.dumps(rec).replace('"1e400"', "1e400"))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: invalid solution record ")
    assert cause in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


# The origin value and the tail amplitude are derived from the values and
# the tail exponent as the record loads: too few values, or a tail exponent
# whose power of r_max overflows, is an invalid record too.
@pytest.mark.parametrize("field,value", [
    ("values", []), ("values", [0.5]), ("values", [0.5] * 399),
    ("tail_exponent", 1e6)])
def test_record_whose_profile_does_not_fit_its_grid_exits_2(
        workdir, tmp_path, capsys, field, value):
    rec = read_json(workdir / "solve" / "solution.json")
    rec["profile"][field] = value
    bad = tmp_path / "solution.json"
    bad.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid solution record ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_version_1_record_exits_2_with_the_advice_to_re_run_solve(
        workdir, tmp_path, capsys):
    """A record of the version-1 layout, with the grid's nodes and weights
    and the profile's origin value and tail amplitude, is refused in full."""
    rec = read_json(workdir / "solve" / "solution.json")
    sol = load_solution(str(workdir / "solve" / "solution.json"))
    rec["schema_version"] = 1
    rec["grid"] = {"n": 3, "r_max": sol.u.grid.r_max,
                   "nodes": sol.u.grid.nodes.tolist(),
                   "weights": sol.u.grid.weights.tolist()}
    rec["profile"] = {"values": rec["profile"]["values"],
                      "value_at_origin": sol.u.value_at_origin,
                      "tail_amplitude": (sol.u.values[-1]
                                         * sol.u.grid.r_max ** sol.u.tail_exponent),
                      "tail_exponent": sol.u.tail_exponent}
    old = tmp_path / "solution.json"
    old.write_text(json.dumps(rec))
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution", str(old),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {str(old)!r} is a solution record of schema version "
        "1, not 2: re-run solve to write one\n")
    assert not out.exists()


def test_non_finite_report_number_exits_3_and_writes_no_file(
        workdir, tmp_path, capsys, monkeypatch):
    def nan_exponent(*args, **kwargs):
        return dataclasses.replace(fit_tail(*args, **kwargs),
                                   fitted_exponent=float("nan"))

    fit_tail = cli.fit_tail
    monkeypatch.setattr(cli, "fit_tail", nan_exponent)
    out = tmp_path / "out"
    assert main(["verify-decay", "--solution",
                 str(workdir / "solve" / "solution.json"),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not (out / "verify_report.csv").exists()
    assert not (out / "verify_report.json").exists()


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
    # 32 nodes over twelve decades are too coarse (as 16 over six were):
    # the first iterate loses positivity
    code = main(["solve", "--out", str(tmp_path), "--set", "grid.nodes=32",
                 "--set", "grid.r_min=1e-6", "--set", "grid.r_max=1e6"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "lost positivity" in err and "Traceback" not in err


def test_iterate_with_no_positive_entry_exits_3_as_lost_positivity(tmp_path, capsys):
    code = main(["solve", "--out", str(tmp_path), "--set", "grid.r_min=1e-20",
                 "--set", "grid.nodes=32"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "iterate lost positivity at iteration 1" in err


def test_residual_gate_exits_3_with_one_line(tmp_path, capsys):
    code = main(["solve", "--out", str(tmp_path), "--set", "solver.tolerance=1e-3",
                 "--set", "grid.nodes=200"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("numerical failure: solve_ground_state: converged iteration "
                   "left residual 6.487e-05 > 1e-6 * sup u = 3.967e-08\n")


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


@pytest.mark.parametrize("overrides, where", [
    (("grid.r_min=1e-300", "grid.nodes=100"), "_kernel3_arrays: overflow"),
], ids=["r_min_1e-300"])
def test_float_overflow_exits_3_with_one_line(tmp_path, capsys, overrides, where):
    # a float overflow is a numerical failure under any warning filter
    argv = ["solve", "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: " + where) and err.count("\n") == 1


def test_grid_whose_weights_overflow_exits_2(tmp_path, capsys):
    code = main(["solve", "--out", str(tmp_path), "--set", "grid.r_max=1e200",
                 "--set", "grid.nodes=200"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("config error: RadialGrid: r_max = 1e+200 is out "
                   "of range: the weights need r_max**3 below 1.8e+308\n")


def test_grid_of_fewer_than_32_nodes_exits_2(tmp_path, capsys, monkeypatch):
    # 16 nodes ran the solve, whose first iterate lost positivity (exit 3)
    def no_solve(*args):
        raise AssertionError("solve_ground_state ran")

    monkeypatch.setattr(cli, "solve_ground_state", no_solve)
    for command in ("solve", "oracle"):
        code = main([command, "--out", str(tmp_path / "out"),
                     "--set", "grid.nodes=16"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "config error: RadialGrid: need at least 32 nodes, got 16\n"
    assert not (tmp_path / "out").exists()


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


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma (10-20 ms) on its first call; each command
    # runs in a fresh process, so that each builds its operators itself
    record = tmp_path / "s" / "solution.json"
    commands = [
        ["solve", "--set", "grid.nodes=400", "--out", str(record.parent)],
        ["verify-decay", "--solution", str(record), "--out", str(tmp_path / "v")],
        ["oracle", "--case", "2,0.5,2.5", "--case", "3,0.5,2.0",
         "--set", "grid.nodes=400", "--out", str(tmp_path / "o")],
    ]
    for args in commands:
        out = _run_fresh("import sys\nfrom fracradial.cli import main\n"
                         f"print(main({args!r}), 'numpy.ma' in sys.modules)")
        assert out.splitlines()[-1] == "0 False", args


# One case per rule of check_fit_window, on the stored 400-node record
# (r_max = 1000), each with the start of its cause.
@pytest.mark.parametrize("window,cause", [
    ("100,50", "malformed window"),      # reversed
    ("0,50", "malformed window"),        # not positive
    ("50,101", "window top 101.0"),      # top 101 > r_max/10
    ("50,55", "window contains"),        # fewer than 20 nodes in the window
    ("50,200", "window top 200.0"),      # top 200 > r_max/10
], ids=["reversed", "not_positive", "top_101", "few_nodes", "top_200"])
def test_unusable_fit_window_exits_2(workdir, tmp_path, capsys, monkeypatch,
                                     window, cause):
    checked = []
    monkeypatch.setattr(cli, "_verify_checks",
                        lambda *args: checked.append(args))
    assert main(["verify-decay", "--solution",
                 str(workdir / "solve" / "solution.json"),
                 "--set", f"analysis.fit_window={window}",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: analysis.fit_window: {cause}")
    assert err.count("\n") == 1
    assert checked == []
    assert not (tmp_path / "out").exists()


# The analysis section once took theta, chain_rule_theta and kappa, and
# refused each of these values by its range.  The three are constants now,
# so a config or an override that still sets one names an unknown key:
# exit 2 with a one-line cause, before any solve.
@pytest.mark.parametrize("override,key", [
    ("analysis.chain_rule_theta=1.5", "analysis.chain_rule_theta"),
    ("analysis.chain_rule_theta=0", "analysis.chain_rule_theta"),
    ("analysis.theta=2.0", "analysis.theta"),
    ("analysis.kappa=-1", "analysis.kappa"),
    ("analysis.kappa=0.01", "analysis.kappa"),
])
def test_unusable_analysis_setting_for_a_stored_record_exits_2(
        workdir, tmp_path, capsys, override, key):
    name, value = override.removeprefix("analysis.").split("=")
    config = tmp_path / "old.ini"
    config.write_text(f"[analysis]\n{name} = {value}\n")
    code = main(["verify-decay", "--solution",
                 str(workdir / "solve" / "solution.json"),
                 "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: unknown config key {key}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides,key", [
    (["analysis.chain_rule_theta=0.3,1.5"], "analysis.chain_rule_theta"),
    (["analysis.chain_rule_theta=0"], "analysis.chain_rule_theta"),
    (["analysis.theta=5.5"], "analysis.theta"),
    (["analysis.kappa=-1"], "analysis.kappa"),
    (["analysis.kappa=0.01"], "analysis.kappa"),
])
def test_unusable_analysis_setting_exits_2_before_solving(
        workdir, tmp_path, capsys, monkeypatch, overrides, key):
    loads = []
    monkeypatch.setattr(cli, "load_solution", lambda *args: loads.append(args))
    argv = ["verify-decay", "--solution", str(workdir / "solve" / "solution.json"),
            "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: override '{key}=")
    assert err.endswith("is not of the form section.key=value with a known field\n")
    assert err.count("\n") == 1
    assert loads == []


# The default exponents are 0.3 and 2 - r; at r = 1.7000001, 2 - r prints
# as 0.3 too, so only 0.3 is checked, as at r = 1.7.
def test_default_chain_rule_exponents_give_distinct_check_names(tmp_path):
    rec = tmp_path / "rec"
    assert main(["solve", "--set", "grid.nodes=400",
                 "--set", "problem.r=1.7000001", "--out", str(rec)]) == 0
    assert main(["verify-decay", "--solution", str(rec / "solution.json"),
                 "--out", str(tmp_path / "verify")]) == 0
    report = read_json(tmp_path / "verify" / "verify_report.json")
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == len(names)
    chain = [n for n in names if n.startswith("chain_rule_")]
    assert chain == ["chain_rule_theta_0.3"]
    assert [c["theta"] for c in report["chain_rule"]] == [0.3]


_SUPERLINEAR = (2.2, "ProblemParams: exponent r = 2.2 outside the sublinear "
                      "range [1.6666666666666667, 2)")
_ENDPOINT = (5.0 / 3.0, "ProblemParams: homogeneous exponent r = "
             "1.6666666666666667 at the lower endpoint (N+alpha)/N = "
             "1.6666666666666667, where the Pohozaev-Nehari identity leaves "
             "no solution")


@pytest.mark.parametrize("argv,r,cause", [
    (["solve"], *_SUPERLINEAR),
    (["verify-decay", "--solution"], *_SUPERLINEAR),
    (["solve"], *_ENDPOINT),
    (["verify-decay", "--solution"], *_ENDPOINT),
], ids=["solve", "verify-stored", "solve-endpoint", "verify-stored-endpoint"])
def test_superlinear_r_exits_2_before_solving(workdir, tmp_path, capsys,
                                              monkeypatch, argv, r, cause):
    # ProblemParams admits only the sublinear r in [(N+alpha)/N, 2), where
    # the decay prediction every record and report carries is defined, and
    # a homogeneous r above the endpoint, where a solution exists
    def no_solve(*args):
        raise AssertionError("solve_ground_state ran")

    monkeypatch.setattr(cli, "solve_ground_state", no_solve)
    argv = argv + ["--set", f"problem.r={r!r}", "--out", str(tmp_path / "out")]
    if "--solution" in argv:
        rec = read_json(workdir / "solve" / "solution.json")
        rec["problem"]["r"] = r
        (tmp_path / "edited.json").write_text(json.dumps(rec))
        argv.insert(2, str(tmp_path / "edited.json"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.endswith(cause + "\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verify_decay_without_a_record_exits_2(tmp_path, capsys, monkeypatch):
    # verify-decay once solved the configured problem when no record was
    # given; it verifies a record that solve wrote, and nothing else
    def no_call(*args):
        raise AssertionError("a solution was loaded or solved")

    monkeypatch.setattr(cli, "load_solution", no_call)
    monkeypatch.setattr(cli, "solve_ground_state", no_call)
    assert main(["verify-decay", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: verify-decay needs --solution PATH, "
                            "a record written by solve\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_oracle_grid_without_a_node_in_the_window_exits_2(tmp_path, capsys,
                                                          monkeypatch):
    def no_case(*args):
        raise AssertionError("an oracle case ran")

    monkeypatch.setattr(cli, "frac_laplacian_on_grid", no_case)
    code = main(["oracle", "--set", "grid.r_min=100", "--set", "grid.nodes=100",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: grid: no node lies in the oracle window [0.1, 50.0]\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# solve outputs and the two pipeline invariants


def test_solve_writes_record_and_tables(workdir):
    solve_dir = workdir / "solve"
    rec = read_json(solve_dir / "solution.json")
    assert rec["schema_version"] == 2
    assert rec["kind"] == "fracradial.solution"
    assert rec["problem"]["r"] == 1.7
    assert len(rec["profile"]["values"]) == 400
    assert rec["diagnostics"]["regime"] == "choquard_dominated"
    rows = read_csv(solve_dir / "profile.csv")
    assert rows[0] == ["radius", "u", "u_scaled"]
    assert len(rows) == 401


def test_record_with_retired_solver_keys_loads(workdir, tmp_path):
    """Records once listed solver.damping and solver.init_profile too; the
    solver section is not read back, so they load unchanged."""
    rec = read_json(workdir / "solve" / "solution.json")
    assert sorted(rec["solver"]) == ["max_iter", "tolerance"]
    rec["solver"].update(damping=0.5, init_profile=None)
    old = tmp_path / "solution.json"
    old.write_text(json.dumps(rec))
    loaded = load_solution(str(old))
    fresh = load_solution(str(workdir / "solve" / "solution.json"))
    assert np.array_equal(loaded.u.values, fresh.u.values)
    for key in ("residual_sup", "pohozaev_defect", "norm_r", "mass_F"):
        assert getattr(loaded, key) == getattr(fresh, key)


@pytest.mark.parametrize("which", ["n3", "n2"])
def test_loaded_solution_derives_the_stored_diagnostics(workdir, n2_record, which):
    """The diagnostics a record reports are the ones its profile gives."""
    path = workdir / "solve" / "solution.json" if which == "n3" else n2_record
    stored = read_json(path)["diagnostics"]
    sol = load_solution(str(path))
    for key in ("residual_sup", "pohozaev_defect", "norm_r", "mass_F"):
        assert getattr(sol, key) == stored[key]


@pytest.fixture(scope="module")
def alpha05_record(tmp_path_factory):
    """A stored alpha = 1/2 record (r = 1.5) on a 400-node grid: its Riesz
    kernel is singular at r_1, where the first node's origin region ends."""
    out = tmp_path_factory.mktemp("alpha05")
    assert main(["solve", "--set", "problem.alpha=0.5", "--set", "problem.r=1.5",
                 "--set", "grid.nodes=400", "--out", str(out)]) == 0
    return out / "solution.json"


def test_stored_record_verification_applies_the_riesz_operator_once(
        workdir, n2_record, alpha05_record, tmp_path, monkeypatch):
    """verify-decay on a stored record reads I_alpha * F(u) and int F(u) off
    the Solution: the Riesz-tail check reuses the residual gate's one Riesz
    application, and its mass is the record's mass_F to the bit.  Every
    record closes its tail with the predicted beta.  The default and the
    alpha = 1/2 record pass every check; the N = 2 one fails fit_exponent and
    tail_constant, and only those, in its pre-asymptotic window (20, 100),
    the default window holding 10 of its 200 nodes.  Each record's chain-rule
    checks pass and name a grid node as their worst radius."""
    calls = []
    riesz_operator = radial_ops._riesz_operator

    def counted(*args):
        calls.append(args)
        return riesz_operator(*args)

    monkeypatch.setattr(radial_ops, "_riesz_operator", counted)
    for i, (path, overrides, failed) in enumerate((
            (workdir / "solve" / "solution.json", [], set()),
            (alpha05_record, [], set()),
            (n2_record, ["--set", "analysis.fit_window=20,100"],
             {"fit_exponent", "tail_constant"}))):
        calls.clear()
        out = tmp_path / str(i)
        assert main(["verify-decay", "--solution", str(path), *overrides,
                     "--out", str(out)]) == (1 if failed else 0), path
        assert len(calls) == 1
        rec = read_json(path)
        report = read_json(out / "verify_report.json")
        assert {c["name"] for c in report["checks"] if not c["passed"]} == failed
        assert report["riesz_tail"]["mass"] == rec["diagnostics"]["mass_F"]
        assert rec["profile"]["tail_exponent"] == rec["diagnostics"]["predicted_beta"]
        nodes = load_solution(str(path)).u.grid.nodes.tolist()
        assert report["chain_rule"]
        for chain in report["chain_rule"]:
            assert chain["passed"] and chain["worst_radius"] in nodes, chain


def test_reports_round_trip_bitwise(solved):
    """The solve's Solution, as it was in memory, and its reloaded record
    give the same checks and the same report texts, bitwise."""
    root, fresh = solved
    cfg = cli.load_config(str(root / "run.ini"), [])
    reloaded = load_solution(str(root / "solve" / "solution.json"))
    fresh_checks, reloaded_checks = (cli._verify_checks(sol, cfg)
                                     for sol in (fresh, reloaded))
    assert fresh_checks == reloaded_checks
    texts = [cli._report("verify_report", "fracradial.verify_report",
                         {"problem": cli._problem_dict(sol.params), **numbers},
                         cli._CHECK_HEADER, checks, rows_key="checks",
                         passed=all(row[1] for row in checks))
             for sol, (checks, _, numbers) in ((fresh, fresh_checks),
                                               (reloaded, reloaded_checks))]
    assert texts[0] == texts[1]
    assert list(texts[0]) == ["verify_report.csv", "verify_report.json"]


def test_repeated_solve_is_byte_identical(workdir, tmp_path):
    config = workdir / "run.ini"
    assert main(["solve", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    first = (workdir / "solve" / "profile.csv").read_bytes()
    second = (tmp_path / "profile.csv").read_bytes()
    assert first == second
    assert (workdir / "solve" / "solution.json").read_bytes() == \
        (tmp_path / "solution.json").read_bytes()


@pytest.mark.parametrize("path,kind,keys", [
    ("solve/solution.json", "solution",
     ["problem", "solver", "grid", "profile", "diagnostics"]),
    ("solve/profile.json", "profile_table", ["scaling_exponent", "rows"]),
    ("reloaded/verify_report.json", "verify_report",
     ["problem", "prediction", "fit", "constants", "riesz_tail", "chain_rule",
      "checks", "passed"]),
])
def test_record_envelopes(workdir, path, kind, keys):
    rec = read_json(workdir / path)
    assert list(rec) == ["schema_version", "kind", *keys]
    # the solution record is at schema version 2, every report at 1
    assert rec["schema_version"] == (2 if kind == "solution" else 1)
    assert rec["kind"] == f"fracradial.{kind}"


def test_table_report_envelopes(tmp_path):
    assert main(["specfun-table", "--out", str(tmp_path)]) == 0
    assert main(["oracle", "--out", str(tmp_path), "--set", "grid.nodes=400",
                 "--case", "3,0.5,2"]) == 0
    for stem, keys in (
            ("specfun_table", ["problem", "asymptotic_regime", "rows"]),
            ("oracle_report", ["grid", "window", "rows"])):
        rec = read_json(tmp_path / f"{stem}.json")
        assert list(rec) == ["schema_version", "kind", *keys]
        assert rec["schema_version"] == 1
        assert rec["kind"] == f"fracradial.{stem}"


def test_verify_report_checks(workdir):
    rec = read_json(workdir / "reloaded" / "verify_report.json")
    assert rec["passed"] is True
    assert rec["prediction"]["regime"] == "choquard_dominated"
    assert abs(rec["prediction"]["beta"] - 10.0 / 3.0) <= 1e-12
    # r = 1.7: 2 - r prints as 0.3, so one chain-rule exponent is checked
    assert [c["name"] for c in rec["checks"]] == [
        "fit_exponent", "tail_constant", "riesz_tail", "chain_rule_theta_0.3"]
    assert list(rec["constants"]) == ["sharp", "C_upper", "C_lower", "kappa",
                                      "kappa_star"]
    fit = rec["fit"]["fitted_exponent"]
    assert abs(fit - 10.0 / 3.0) <= 0.1 * 10.0 / 3.0   # measured 3.3975


def test_every_printed_check_can_fail(workdir):
    """Each check verify-decay prints reads the profile: edits of the
    M = 400, r = 1.7 record make every one fail but the chain rule, which
    holds for every positive u (t -> t^0.3 is concave), so no profile can
    fail it; on these edits it keeps margin/scale >= 0.187."""
    sol = load_solution(str(workdir / "solve" / "solution.json"))
    cfg = cli.load_config(None, [])
    u = sol.u
    rho = u.grid.nodes
    edits = {
        # measured: fit_exponent 4.397, tail_constant 3.18
        "steeper beyond 10": u.values * np.where(rho > 10.0, 10.0 / rho, 1.0),
        # measured: tail_constant 0.788
        "raised beyond 10": np.minimum.accumulate(
            u.values * np.where(rho > 10.0, 1.5, 1.0)),
        # measured: riesz_tail 0.927
        "0.04 h_2": 0.04 * radial_ops.h_beta_function(u.grid, 2.0).values,
    }
    failing = {
        "steeper beyond 10": ["fit_exponent", "tail_constant"],
        "raised beyond 10": ["tail_constant"],
        "0.04 h_2": ["fit_exponent", "tail_constant", "riesz_tail"],
    }
    checks = cli._verify_checks(sol, cfg)[0]
    names = [c[0] for c in checks]
    assert all(c[1] for c in checks)
    for edit, values in edits.items():
        edited = solver_mod.Solution(
            u=radial_ops.RadialFunction(grid=u.grid, values=values,
                                        tail_exponent=u.tail_exponent),
            params=sol.params, iterations=sol.iterations)
        checks = cli._verify_checks(edited, cfg)[0]
        assert [c[0] for c in checks] == names
        assert [c[0] for c in checks if not c[1]] == failing[edit], edit
        chain = checks[-1]
        assert chain[0] == "chain_rule_theta_0.3" and chain[2] >= 0.187, edit
    assert {n for fails in failing.values() for n in fails} == set(names[:-1])


# The lines read "(reference 0.0, tolerance 1e-06)" for a chain-rule check
# that passes when measured >= -1e-6, and "(reference ..., tolerance 0.1)"
# for a fit whose tolerance is relative to beta.
def test_verify_prints_each_check_with_its_pass_rule(workdir, tmp_path, capsys):
    assert main(["verify-decay", "--solution", str(workdir / "solve" / "solution.json"),
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = read_json(tmp_path / "verify_report.json")
    fit, beta = rec["fit"]["fitted_exponent"], rec["prediction"]["beta"]
    assert f"PASS fit_exponent: measured {fit!r} (passes if |measured - {beta!r}| " \
        f"<= 0.1 * {beta!r})" in lines
    worst = rec["chain_rule"][0]["min_margin_over_scale"]
    assert f"PASS chain_rule_theta_0.3: measured {worst!r} (passes if measured " \
        ">= -1e-06)" in lines


def test_chain_rule_numbers_of_a_stored_r19_record(tmp_path):
    """The chain-rule figures of verify_report.json on a stored r = 1.9
    record (400 nodes), checked at every node: each entry names the node
    where margin/scale is smallest."""
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
                    [0.2329265516050302, 0.36581189945435205], rtol=1e-9)
    nodes = load_solution(str(rec / "solution.json")).u.grid.nodes.tolist()
    assert all(c["worst_radius"] in nodes for c in chain)


# the M = 400, r = 1.7 record of schema version 1, which also stored the
# grid's nodes and weights and the profile's origin value and tail amplitude
_V1_RECORD_BYTES = 33_306


@pytest.mark.parametrize("r", [1.7, 1.9])
def test_reloaded_record_rebuilds_its_closures_bitwise(tmp_path, monkeypatch, r):
    """A record stores the grid as its four numbers and the profile as its
    node values and tail exponent; reloading it rebuilds the solve's origin
    value bitwise, from the closure the solve used."""
    solved = []

    def keep(*args, **kwargs):
        solved.append(solver_mod.solve_ground_state(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_ground_state", keep)
    assert main(["solve", "--set", "grid.nodes=400", "--set", f"problem.r={r}",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "solution.json"
    rec = read_json(path)
    assert set(rec["grid"]) == {"n", "r_min", "r_max", "size"}
    assert set(rec["profile"]) == {"values", "tail_exponent"}
    assert path.stat().st_size <= 0.4 * _V1_RECORD_BYTES
    u, v = solved[0].u, load_solution(str(path)).u
    assert np.array_equal(v.values, u.values)
    assert v.value_at_origin == u.value_at_origin
    assert v.tail_exponent == u.tail_exponent


def test_origin_value_is_the_closure_of_the_first_two_samples(workdir):
    """u(0) is g1 u_1 + g2 u_2 for every RadialFunction, bitwise, g_j being
    u(0) of e_j: a profile, I_alpha * g, F(u) and a reloaded record's profile."""
    sol = load_solution(str(workdir / "solve" / "solution.json"))
    g1, g2 = (radial_ops.RadialFunction(grid=sol.u.grid, values=e, tail_exponent=1.0)
              .value_at_origin for e in np.eye(sol.u.grid.size)[:2])
    fu = sol.params.nonlinearity.F_of(sol.u)
    for u in (radial_ops.h_beta_function(sol.u.grid, 3.5), fu,
              radial_ops.riesz_convolve_radial(fu, sol.params.alpha), sol.u):
        assert u.value_at_origin == g1 * u.values[0] + g2 * u.values[1]
