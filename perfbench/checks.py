"""Correctness checks applied to every operation's output.

Each check returns the accuracy figures it measured and, on failure, a
one-line cause.  The tolerances are the program's own: the solver's 1e-6
residual gate, the oracle's 1e-3, the 10% decay-exponent check of
``verify-decay``, and 1e-9 relative agreement with the reference profile
recorded when the benchmark was defined.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fracradial import fit_tail, predict_decay

from problems import FIT_WINDOW

RESIDUAL_GATE = 1e-6
ORACLE_TOLERANCE = 1e-3
BETA_TOLERANCE = 0.1
REFERENCE_TOLERANCE = 1e-9

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "profiles.npz"


def load_references(path: Path = REFERENCE_FILE) -> dict:
    """Reference profiles by ``inputs.reference_key``."""
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def solution_figures(sol) -> dict:
    """Accuracy figures of one solved profile."""
    values = sol.u.values
    pred = predict_decay(sol.params)
    fit = fit_tail(sol.u, FIT_WINDOW)
    return {
        "iterations": int(sol.iterations),
        "residual_rel": float(sol.residual_sup / np.max(values)),
        "pohozaev_defect": float(sol.pohozaev_defect),
        "beta_fit_rel_err": abs(fit.fitted_exponent - pred.beta) / pred.beta,
    }


def check_solution(sol, reference: np.ndarray | None) -> tuple[dict, str | None]:
    """Figures of a solve plus the first failed check, or None."""
    fig = solution_figures(sol)
    values = sol.u.values
    if reference is None:
        fig["reference_rel_diff"] = float("nan")
        return fig, "no reference profile recorded for these inputs"
    if reference.shape != values.shape:
        fig["reference_rel_diff"] = float("nan")
        return fig, (f"profile has {values.size} nodes, reference "
                     f"{reference.size}")
    diff = float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))
    fig["reference_rel_diff"] = diff
    if not fig["residual_rel"] <= RESIDUAL_GATE:
        return fig, f"residual {fig['residual_rel']:.3e} above the 1e-6 gate"
    if not fig["beta_fit_rel_err"] <= BETA_TOLERANCE:
        return fig, (f"fitted exponent off beta by "
                     f"{fig['beta_fit_rel_err']:.3f} (> 0.1)")
    if not diff <= REFERENCE_TOLERANCE:
        return fig, f"profile differs from the reference by {diff:.3e} (> 1e-9)"
    return fig, None


def check_verify_report(rc: int, report_path: Path) -> tuple[dict, str | None]:
    """Figures of one ``verify-decay`` run from its JSON report."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    beta = report["prediction"]["beta"]
    fitted = report["fit"]["fitted_exponent"]
    fig = {"beta_fit_rel_err": abs(fitted - beta) / beta}
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if rc != 0 or failed or not report["passed"]:
        return fig, f"verify-decay exit {rc}, failed checks {failed}"
    if not fig["beta_fit_rel_err"] <= BETA_TOLERANCE:
        return fig, (f"fitted exponent off beta by "
                     f"{fig['beta_fit_rel_err']:.3f} (> 0.1)")
    return fig, None


def check_oracle_report(rc: int, report_path: Path) -> tuple[dict, str | None]:
    """Figures of one ``oracle`` run from its JSON report."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    err = max(row["max_rel_err"] for row in report["rows"])
    fig = {"oracle_rel_err": float(err)}
    if rc != 0 or not err <= ORACLE_TOLERANCE:
        return fig, f"oracle exit {rc}, max relative error {err:.3e} (> 1e-3)"
    return fig, None

