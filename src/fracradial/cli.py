"""Command-line front end: reference tables, oracle runs, solves, reports.

Four subcommands share one configuration document (INI syntax with the flat
sections problem, grid, solver, analysis).  Unknown sections or keys
are rejected rather than ignored, and every value is parsed before any
computation starts; a typo in a tolerance knob fails the run instead of
silently changing it.  Numeric output is serialized with repr, the shortest
decimal string that round-trips the double, so identical runs produce
byte-identical files and a written solution reloads without loss.

Every command hands its report to one writer (_report, _write), which puts
in the --out directory a CSV of its header and rows, and a strict-JSON
document that opens with schema_version and kind, then the command's
fields, then the rows as objects.  Every file is serialized before the
first one is opened, so a number that is not finite fails the command
(exit 3) without leaving a partial report.  A rerun rewrites an existing
file in place and cuts a regular one to its new length; nothing is
fsynced.  The problem section and the "problem" object of every record
and report map to and from ProblemParams through one pair of helpers.

Exit codes: 0 success, 1 at least one verification check failed,
2 configuration error, 3 a numerical failure (no convergence, a collapsed or
non-positive iterate, a singular or inaccurate linear solve, a divergent
quadrature).  Every configuration error, an invalid stored solution record
included, is raised as ConfigError while the inputs are parsed and checked,
so any other ValueError escaping a command is a numerical failure too; an
output path that cannot be written is a ConfigError as well, and one whose
directory cannot be made is found before the command computes anything.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import errno
import functools
import io
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from fracradial.decay_analysis import (
    bound_constants,
    check_fit_window,
    fit_tail,
    predict_decay,
    sharp_constant,
    verify_chain_rule,
    verify_riesz_tail,
)
from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
    frac_laplacian_on_grid,
    h_beta_function,
)
from fracradial.solver import (
    NonlinearitySpec,
    ProblemParams,
    Solution,
    SolverOpts,
    _residual_gate,
    solve_ground_state,
)
from fracradial.specfun import (
    ProfileParams,
    frac_lap_h_asymptotic,
    frac_lap_h_exact,
    h_beta_eval,
)

# the envelope version of every report, and of the solution record (2: its
# grid is stored as its four numbers and its profile as its node values)
SCHEMA_VERSION = 1
SOLUTION_SCHEMA_VERSION = 2

# quadrature-vs-closed-form comparisons run by the oracle command:
# (N, s, beta) triples with a hypergeometric reference, all expected to agree
# to 1e-3 on r in [0.1, 50] at the default grid resolution
_ORACLE_CASES = ((3, 0.5, 2.0), (3, 0.5, 3.5), (2, 0.5, 2.5), (3, 0.25, 3.0))
_ORACLE_TOLERANCE = 1e-3
_ORACLE_WINDOW = (0.1, 50.0)


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or malformed file."""


@contextlib.contextmanager
def _config_errors(prefix: str = ""):
    """Re-raise a ValueError of the block as a ConfigError, its message
    after prefix."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


# ---------------------------------------------------------------------------
# configuration document


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != 2:
        raise ValueError(f"need two comma-separated numbers, got {text!r}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in text.split(",") if p.strip() != "")


# section -> key -> (parser, default).
_CONFIG_SCHEMA = {
    "problem": {
        "n": (int, "3"),
        "s": (_parse_float, "0.5"),
        "alpha": (_parse_float, "2.0"),
        "mu": (_parse_float, "1.0"),
        "r": (_parse_float, "1.7"),
    },
    "grid": {
        "r_min": (_parse_float, "1e-3"),
        "r_max": (_parse_float, "1e3"),
        "nodes": (int, "1200"),
    },
    "solver": {
        "tolerance": (_parse_float, "1e-10"),
        "max_iter": (int, "5000"),
    },
    "analysis": {
        "fit_window": (_parse_float_pair, "50,100"),
    },
}


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Read, override, and fully parse one configuration document.

    Args:
        path: INI file, or None for pure defaults.
        overrides: "section.key=value" strings applied after the file.

    Raises:
        ConfigError: unreadable file, unknown section or key, or a value
            that does not parse; messages name the offending field.
    """
    raw = {sec: dict(keys) for sec, keys in
           ((s, {k: d for k, (_, d) in ks.items()})
            for s, ks in _CONFIG_SCHEMA.items())}

    if path is not None:
        # no header can name the empty default section, so [DEFAULT] is an
        # ordinary section, never merged into the others
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="")
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config {path!r}: {exc}") from exc
        for sec in parser.sections():
            if sec not in _CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, value in parser.items(sec):
                if key not in _CONFIG_SCHEMA[sec]:
                    raise ConfigError(f"unknown config key {sec}.{key}")
                raw[sec][key] = value

    for item in overrides:
        target, sep, value = item.partition("=")
        sec, dot, key = target.partition(".")
        if not sep or not dot or sec not in _CONFIG_SCHEMA \
                or key not in _CONFIG_SCHEMA[sec]:
            raise ConfigError(
                f"override {item!r} is not of the form section.key=value "
                "with a known field")
        raw[sec][key] = value

    cfg: dict = {}
    for sec, keys in _CONFIG_SCHEMA.items():
        cfg[sec] = {}
        for key, (parse, _) in keys.items():
            with _config_errors(f"{sec}.{key}: "):
                cfg[sec][key] = parse(raw[sec][key])
    return cfg


def _problem_params(p: dict) -> ProblemParams:
    """ProblemParams of a problem dict: the problem section of a config, or
    the "problem" object of a solution record."""
    return ProblemParams(N=p["n"], s=p["s"], alpha=p["alpha"], mu=p["mu"],
                         nonlinearity=NonlinearitySpec.homogeneous(p["r"]))


def _problem_dict(params: ProblemParams) -> dict:
    """The problem dict of params, as records and reports hold it."""
    return {"n": params.N, "s": params.s, "alpha": params.alpha,
            "mu": params.mu, "r": params.nonlinearity.r, "convention": "sqrt_r"}


def _build_grid(cfg: dict, N: int) -> RadialGrid:
    g = cfg["grid"]
    with _config_errors():
        return RadialGrid.log_spaced(r_min=g["r_min"], r_max=g["r_max"],
                                     num=g["nodes"], N=N)


# ---------------------------------------------------------------------------
# serialization


def _tolist(obj):
    """json's hook for numpy arrays and for the numpy scalars that are not
    Python numbers; a numpy float is a float, written by its repr."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(kind: str, fields: dict, version: int = SCHEMA_VERSION) -> str:
    """A record or report as strict JSON: schema_version and kind, then the
    fields.  Every envelope is built here."""
    payload = {"schema_version": version, "kind": kind, **fields}
    return json.dumps(payload, indent=2, allow_nan=False, default=_tolist) + "\n"


def _cell(value) -> str:
    """One CSV cell; csv would write a numpy float as np.float64(...)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _report(stem: str, kind: str, fields: dict, header: list[str],
            rows: list[list], rows_key: str = "rows", **closing) -> dict[str, str]:
    """The text of the CSV and the JSON of one report, by file name: the
    CSV holds the header and the rows; the JSON holds the fields, then the
    rows as objects under rows_key, then the closing fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    table = [dict(zip(header, row)) for row in rows]
    return {f"{stem}.csv": buf.getvalue(),
            f"{stem}.json": _json_text(kind, {**fields, rows_key: table, **closing})}


def _open_in_place(path, flags: int) -> int:
    """open()'s opener for mode "w" without O_TRUNC: an existing file is
    kept and written over, a missing one is created (0o666 under the
    umask).  On ext4 the close of a truncated and rewritten file starts its
    write to disk, and truncating it again waits for that write; writing
    over the old bytes does neither (about 60 us against 5 us a file)."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(directory: str, texts: dict[str, str]) -> None:
    """Write each serialized file to the output directory and print one
    wrote line per file.  Callers serialize every file first, so a report
    that cannot be serialized writes none of its files.  An existing file
    is rewritten in place and, if it is a regular file, cut to the length
    of its new text, so a rerun leaves the same bytes as a fresh directory;
    any other file, such as a link to /dev/null, is only written.  Nothing
    is fsynced: a write that is interrupted can leave a file that mixes new
    bytes with old ones.  An output path that cannot be created or written
    is a ConfigError naming it."""
    out = path = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            path = out / name
            with open(path, "w", encoding="utf-8", newline="",
                      opener=_open_in_place) as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
            print(f"wrote {path}")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_output_directory(out: Path) -> None:
    """A ConfigError, before any computation, for an output directory that
    _write could not create: the nearest existing path on its way must be
    a directory that can be written to.  Nothing is created here, so a
    command that fails leaves no directory behind."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        cause = errno.ENOTDIR
    elif not os.access(existing, os.W_OK | os.X_OK):
        cause = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {out}: {os.strerror(cause)}")


def _solution_record(sol: Solution, cfg: dict) -> dict:
    """The fields of the solution record of sol (see _json_text).  The grid
    is its four numbers and the profile its node values and tail exponent;
    load_solution derives the nodes and the weights from them, as the solve
    did.  The solver and diagnostics sections report the solve; of them
    load_solution reads back only diagnostics.iterations."""
    pred = predict_decay(sol.params)
    u = sol.u
    return {
        "problem": _problem_dict(sol.params),
        "solver": dict(cfg["solver"]),
        "grid": {"n": u.grid.N, "r_min": u.grid.r_min, "r_max": u.grid.r_max,
                 "size": u.grid.size},
        "profile": {"values": u.values, "tail_exponent": u.tail_exponent},
        "diagnostics": {
            "iterations": sol.iterations,
            "residual_sup": sol.residual_sup,
            "pohozaev_defect": sol.pohozaev_defect,
            "norm_r": sol.norm_r,
            "mass_F": sol.mass_F,
            "sup": float(np.max(u.values)),
            "predicted_beta": pred.beta,
            "regime": pred.regime,
        },
    }


def load_solution(path: str) -> Solution:
    """Rebuild a Solution from a record written by the solve command.  The
    grid is RadialGrid(r_min, r_max, size, n) of the record's grid fields,
    and the profile is the RadialFunction of its values and tail exponent,
    closed as the solve closed it.  Of the diagnostics only iterations is
    read; the Solution derives the others from the profile and the problem,
    and must pass the solve's residual gate (1e-6 of sup u), which every
    record a solve wrote passes bitwise.

    Raises:
        ConfigError: an unreadable or malformed file, a record of another
            schema version (a version-1 record, which stored the nodes and
            weights, is refused with the advice to re-run solve), or an
            invalid record: a missing field, any JSON value but a number
            (a string, true, false, null, an array or an object) where a
            number of the problem, the grid or the profile belongs, any
            JSON value but an array as the profile's values, a
            problem.convention other than "sqrt_r", the one pair a record
            holds, a problem that ProblemParams refuses, grid fields that
            RadialGrid refuses, a grid.n other than problem.n, a profile
            that is not positive and non-increasing, a tail exponent whose
            power of r_max is not a finite float, a diagnostics.iterations
            that is not a positive integer, or a profile that fails the
            residual gate or overflows while the gate evaluates it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read solution {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed solution {path!r}: {exc}") from exc
    if not isinstance(rec, dict):
        raise ConfigError(f"invalid solution record {path!r}: its top-level "
                          "JSON value is not an object")
    if rec.get("kind") != "fracradial.solution":
        raise ConfigError(f"{path!r} is not a schema-version-"
                          f"{SOLUTION_SCHEMA_VERSION} solution record")
    if rec.get("schema_version") != SOLUTION_SCHEMA_VERSION:
        raise ConfigError(
            f"{path!r} is a solution record of schema version "
            f"{rec.get('schema_version')!r}, not {SOLUTION_SCHEMA_VERSION}: "
            "re-run solve to write one")
    try:
        # a JSON number loads as an int or a float; true and false load as
        # bools, which are ints too (but of type bool), and float() would
        # parse a string
        numbers = [(f"{part}.{key}", rec[part][key]) for part, keys in (
            ("problem", ("n", "s", "alpha", "mu", "r")),
            ("grid", ("n", "r_min", "r_max")), ("profile", ("tail_exponent",)),
            ("diagnostics", ("iterations",))) for key in keys]
        values = rec["profile"]["values"]
        if type(values) is not list:
            raise ValueError(f"profile.values is {json.dumps(values)}, "
                             "not an array of numbers")
        numbers += [(f"profile.values[{i}]", v) for i, v in enumerate(values)
                    if type(v) not in (int, float)]
        for name, value in numbers:
            if type(value) not in (int, float):
                raise ValueError(f"{name} is {json.dumps(value)}, not a number")
        convention = rec["problem"]["convention"]
        if convention != "sqrt_r":
            raise ValueError("problem.convention must be 'sqrt_r', got "
                             f"{json.dumps(convention)}")
        params = _problem_params(rec["problem"])
        gr = rec["grid"]
        grid = RadialGrid(r_min=gr["r_min"], r_max=gr["r_max"],
                          size=gr["size"], N=gr["n"])
        if grid.N != params.N:
            raise ValueError(f"grid.n {gr['n']!r} differs from problem.n {params.N!r}")
        prof = rec["profile"]
        u = RadialFunction(grid=grid, values=prof["values"],
                           tail_exponent=prof["tail_exponent"])
        # refused here, not as an overflow in the Riesz tail weights
        if not u.tail_exponent * math.log(grid.r_max) < math.log(sys.float_info.max):
            raise ValueError(f"r_max ** profile.tail_exponent = {grid.r_max!r} ** "
                             f"{u.tail_exponent!r} is not a finite float")
        iterations = rec["diagnostics"]["iterations"]
        # a solve takes at least one step
        if not isinstance(iterations, int) or iterations < 1:
            raise ValueError(
                f"diagnostics.iterations is not a positive integer: {iterations!r}")
        sol = Solution(u=u, params=params, iterations=iterations)
        # evaluated here, so that a profile overflowing the operators is an
        # invalid record too; its own failure is raised outside the block,
        # which would prefix a ConfigError's message a second time
        failure = _residual_gate(sol)
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid solution record {path!r}: {exc}") from exc
    if failure:
        raise ConfigError(f"invalid solution record {path!r}: the profile "
                          f"fails the solve's gate: {failure}")
    return sol


# ---------------------------------------------------------------------------
# commands


def _cmd_specfun_table(cfg: dict, args) -> int:
    N = cfg["problem"]["n"]
    s = cfg["problem"]["s"]
    beta = args.beta
    with _config_errors("--radii: "):
        radii = _parse_float_list(args.radii)
    with _config_errors():
        profile = ProfileParams(N, s, beta)
        law = frac_lap_h_asymptotic(profile)

    r = np.array(radii, dtype=float)
    # the closed form refuses a negative radius and one whose square
    # overflows, before h_beta_eval would overflow on it
    with _config_errors("--radii: "):
        exact = frac_lap_h_exact(r, profile)
    h = h_beta_eval(r, beta)
    # outside the exact regime the far-field law diverges at r = 0; a law
    # value or a ratio that is not a finite number is written as null
    with np.errstate(divide="ignore", invalid="ignore"):
        asym = law.evaluate(r)
    rows = []
    for k, radius in enumerate(radii):
        far = float(asym[k]) if np.isfinite(asym[k]) else None
        ratio = float(exact[k]) / far if far else None
        rows.append([radius, float(h[k]), float(exact[k]), far, ratio])

    _write(args.out, _report(
        "specfun_table", "fracradial.specfun_table",
        {"problem": {"n": N, "s": s, "beta": beta},
         "asymptotic_regime": law.regime},
        ["radius", "h_beta", "fraclap_exact", "fraclap_asymptotic", "ratio"], rows))
    print(f"specfun-table: {len(rows)} radii, regime {law.regime}")
    return 0


def _cmd_oracle(cfg: dict, args) -> int:
    if args.case:
        with _config_errors("--case expects N,s,beta: "):
            cases = []
            for text in args.case:
                fields = text.split(",")
                if len(fields) != 3:
                    raise ValueError(f"{text!r} has {len(fields)} fields")
                n_str, s_str, b_str = fields
                cases.append((int(n_str), float(s_str), float(b_str)))
    else:
        cases = list(_ORACLE_CASES)

    lo, hi = _ORACLE_WINDOW
    # one grid per dimension; the nodes do not depend on N, so one check of
    # the window covers every case
    grids = {N: _build_grid(cfg, N) for N, _, _ in cases}
    nodes = grids[cases[0][0]].nodes
    if not np.any((nodes >= lo) & (nodes <= hi)):
        raise ConfigError(f"grid: no node lies in the oracle window [{lo}, {hi}]")
    # every case is checked before the first one is computed
    with _config_errors():
        profiles = [ProfileParams(*case) for case in cases]
    rows = []
    worst = 0.0
    for (N, s, beta), profile in zip(cases, profiles):
        grid = grids[N]
        h = h_beta_function(grid, beta)
        lap = frac_laplacian_on_grid(h, s)
        sel = (grid.nodes >= lo) & (grid.nodes <= hi)
        want = frac_lap_h_exact(grid.nodes[sel], profile)
        err = float(np.max(np.abs(lap[sel] / want - 1.0)))
        worst = max(worst, err)
        passed = err <= _ORACLE_TOLERANCE
        rows.append([N, s, beta, err, _ORACLE_TOLERANCE, passed])
        status = "PASS" if passed else "FAIL"
        print(f"{status} oracle ({N}, {s}, {beta}): max rel err {err:.3e} "
              f"(tolerance {_ORACLE_TOLERANCE:.0e})")

    _write(args.out, _report(
        "oracle_report", "fracradial.oracle_report",
        {"grid": dict(cfg["grid"]), "window": list(_ORACLE_WINDOW)},
        ["n", "s", "beta", "max_rel_err", "tolerance", "passed"], rows))
    return 0 if worst <= _ORACLE_TOLERANCE else 1


def _cmd_solve(cfg: dict, args) -> int:
    s = cfg["solver"]
    with _config_errors():
        params = _problem_params(cfg["problem"])
        grid = _build_grid(cfg, params.N)
        opts = SolverOpts(grid=grid, tolerance=s["tolerance"],
                          max_iterations=s["max_iter"])
    sol = solve_ground_state(params, opts)
    record = _solution_record(sol, cfg)
    d = record["diagnostics"]
    beta = d["predicted_beta"]
    rows = [[r, u, u * r ** beta]
            for r, u in zip(sol.u.grid.nodes.tolist(), sol.u.values.tolist())]
    _write(args.out, {"solution.json": _json_text("fracradial.solution", record,
                                                  SOLUTION_SCHEMA_VERSION),
                      **_report("profile", "fracradial.profile_table",
                                {"scaling_exponent": beta},
                                ["radius", "u", "u_scaled"], rows)})

    print(f"converged in {d['iterations']} iterations: sup u = {d['sup']:.6e}, "
          f"residual = {d['residual_sup']:.3e}, defect = {d['pohozaev_defect']:.3e}")
    print(f"predicted decay: beta = {beta!r} ({d['regime']})")
    return 0


# the columns of a verify report's CSV, and the keys of each of its checks
_CHECK_HEADER = ["name", "passed", "measured", "reference", "tolerance"]


def _verify_checks(sol: Solution, cfg: dict) -> tuple[list[list], list[str], dict]:
    """All decay checks for one solution; returns (checks, rules, report
    numbers), each check a row of _CHECK_HEADER values and each rule the
    comparison that decided it, with its reference and tolerance filled in.
    The fit window is the one setting; the Riesz-tail envelope takes
    theta = N + alpha, the strictest, and the chain rule the exponents 0.3
    and 2 - r."""
    params = sol.params
    window = cfg["analysis"]["fit_window"]
    pred = predict_decay(params)
    checks: list[list] = []
    rules: list[str] = []

    def add(name, passed, measured, reference, tolerance, rule):
        row = [name, bool(passed), float(measured), float(reference), float(tolerance)]
        checks.append(row)
        rules.append(rule.format(reference=row[3], tolerance=row[4]))

    fit = fit_tail(sol.u, window)
    add("fit_exponent", abs(fit.fitted_exponent - pred.beta) <= 0.1 * pred.beta,
        fit.fitted_exponent, pred.beta, 0.1,
        "|measured - {reference!r}| <= {tolerance!r} * {reference!r}")

    constants: dict = {"sharp": None}
    if pred.regime == "choquard_dominated":
        c_sharp = sharp_constant(sol)
        constants["sharp"] = c_sharp
        grid = sol.u.grid
        lo, hi = window
        sel = (grid.nodes >= lo) & (grid.nodes <= hi)
        product = sol.u.values[sel] * grid.nodes[sel] ** pred.beta
        dev = float(np.max(np.abs(product - c_sharp))) / c_sharp
        add("tail_constant", dev <= 0.2, dev, 0.0, 0.2, "measured <= {tolerance!r}")

    bounds = bound_constants(sol)
    constants.update(C_upper=bounds.C_upper, C_lower=bounds.C_lower,
                     kappa=bounds.kappa, kappa_star=bounds.kappa_star)

    riesz = verify_riesz_tail(sol, theta=params.N + params.alpha)
    ratio_end = float(riesz.normalized_ratio[-1])
    add("riesz_tail", abs(ratio_end - 1.0) <= 0.05, ratio_end, 1.0, 0.05,
        "|measured - {reference!r}| <= {tolerance!r}")

    r = params.nonlinearity.r
    # 2 - r is dropped where its check would carry the name of 0.3's
    thetas = (0.3,) if f"{2.0 - r:g}" == "0.3" else (0.3, 2.0 - r)
    chain_reports = []
    reps = verify_chain_rule(sol.u, thetas, params.s)
    for th, rep in zip(thetas, reps):
        ratio = rep.margin / rep.scale
        k = int(np.argmin(ratio))
        worst = float(ratio[k])
        add(f"chain_rule_theta_{th:g}", rep.passed, worst, 0.0, rep.tolerance,
            "measured >= -{tolerance!r}")
        chain_reports.append({"theta": th, "min_margin_over_scale": worst,
                              "worst_radius": float(rep.radii[k]),
                              "passed": rep.passed})

    numbers = {
        "prediction": {"beta": pred.beta, "regime": pred.regime,
                       "r_star": pred.r_star},
        "fit": {"window": list(fit.window),
                "fitted_exponent": fit.fitted_exponent,
                "fitted_amplitude": fit.fitted_amplitude,
                "rms_log_residual": fit.rms_log_residual,
                "log_corrected": fit.log_corrected},
        "constants": constants,
        "riesz_tail": {"theta": riesz.theta, "mass": riesz.mass,
                       "normalized_ratio_end": ratio_end,
                       "sup_deviation": riesz.sup_deviation},
        "chain_rule": chain_reports,
    }
    return checks, rules, numbers


def _cmd_verify_decay(cfg: dict, args) -> int:
    if args.solution is None:
        raise ConfigError("verify-decay needs --solution PATH, a record "
                          "written by solve")
    sol = load_solution(args.solution)
    # a window that fit_tail would refuse on the record's grid, before any check
    with _config_errors("analysis.fit_window: "):
        check_fit_window(cfg["analysis"]["fit_window"], sol.u.grid.nodes)
    checks, rules, numbers = _verify_checks(sol, cfg)
    passed = all(ok for _, ok, *_ in checks)
    _write(args.out, _report("verify_report", "fracradial.verify_report",
                             {"problem": _problem_dict(sol.params), **numbers},
                             _CHECK_HEADER, checks, rows_key="checks",
                             passed=passed))

    pred = numbers["prediction"]
    print(f"predicted decay: beta = {pred['beta']!r} ({pred['regime']})")
    for (name, ok, measured, *_), rule in zip(checks, rules):
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured {measured!r} "
              f"(passes if {rule})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused.  A parse
    leaves it unchanged: argparse appends each --set or --case to a copy of
    the default, never to the default itself."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI configuration document")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: the current one)")
    common.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override any config field; repeatable")

    parser = argparse.ArgumentParser(
        prog="fracradial",
        description="Tables, oracle comparisons, ground-state solves, and "
                    "decay verification for the doubly nonlocal equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specfun-table", parents=[common],
                       help="tabulate h_beta, its fractional Laplacian, and "
                            "the far-field model")
    p.add_argument("--beta", type=float, default=2.0,
                   help="profile exponent (default 2.0)")
    p.add_argument("--radii", default="1,10,100",
                   help="comma-separated radii; empty for a header-only table")

    sub.add_parser("oracle", parents=[common],
                   help="compare quadrature against the closed form on the "
                        "configured grid").add_argument(
        "--case", action="append", metavar="N,S,BETA",
        help="run a single comparison instead of the default four; repeatable")

    sub.add_parser("solve", parents=[common],
                   help="solve the configured problem and write the solution "
                        "record plus a plot-ready profile table")

    sub.add_parser("verify-decay", parents=[common],
                   help="run the decay checks on a solution record that "
                        "solve wrote").add_argument(
        "--solution", metavar="PATH", help="the solution record to verify")
    return parser


_COMMANDS = {"specfun-table": _cmd_specfun_table, "oracle": _cmd_oracle,
             "solve": _cmd_solve, "verify-decay": _cmd_verify_decay}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a floating-point overflow, division by zero or invalid value is a
        # numerical failure (exit 3) under any warning filter
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(args.config, list(args.set))
            _check_output_directory(Path(args.out))
            return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # NonConvergenceError and ZeroCollapseError are RuntimeErrors; a bare
    # ValueError after parsing comes from the numerics, not the config, and
    # an ArithmeticError is a float overflowing or dividing by zero
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        cause = " ".join(str(exc).split())
        if isinstance(exc, ArithmeticError):
            # the float's own message does not say where it went wrong
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            cause = f"{tb.tb_frame.f_code.co_name}: {cause}"
        print("numerical failure: " + cause, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
