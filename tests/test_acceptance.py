"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each criterion prints one PASS/FAIL line with its measured numbers (visible
with pytest -s, and on any failure).  The three ground-state solves are
module-scoped fixtures that record their own wall-clock time; every other
criterion times its own body.  Measured values from the run that froze this
suite are quoted in comments.
"""

import math
import time

import numpy as np
import pytest

from fracradial import (
    NonlinearitySpec,
    ProblemParams,
    RadialGrid,
    SolverOpts,
    bound_constants,
    dilation_derivative,
    fit_tail,
    frac_laplacian_on_grid,
    h_beta_eval,
    h_beta_function,
    pohozaev_check,
    predict_decay,
    riesz_constant,
    riesz_convolve_radial,
    solve_ground_state,
    verify_chain_rule,
    volume_integral,
)
from fracradial.specfun import ProfileParams, frac_lap_h_asymptotic, frac_lap_h_exact

R53 = 5.0 / 3.0


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.log_spaced()


def _timed_solve(params, grid):
    t0 = time.monotonic()
    sol = solve_ground_state(params, SolverOpts(grid=grid))
    return sol, time.monotonic() - t0


@pytest.fixture(scope="module")
def solve_slow(grid):
    """r = 1.7: convolution-dominated decay."""
    params = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                           nonlinearity=NonlinearitySpec.homogeneous(1.7))
    return _timed_solve(params, grid)


@pytest.fixture(scope="module")
def solve_fast(grid):
    """r = 1.9: operator-dominated decay."""
    params = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                           nonlinearity=NonlinearitySpec.homogeneous(1.9))
    return _timed_solve(params, grid)


@pytest.fixture(scope="module")
def solve_critical(grid):
    """r = 5/3, the lower endpoint of the admissible window.

    A pure power nonlinearity admits no solution exactly at the endpoint
    (testing the equation against u and combining with the dilation identity
    forces the quadratic form to vanish), so the endpoint is exercised with a
    general-kind nonlinearity whose near-zero envelope is the critical power:
    f(t) = sqrt(r) t^(r-1) + 2 t^1.2.  The decay law only sees the envelope.
    """
    sr = math.sqrt(R53)
    spec = NonlinearitySpec(
        f=lambda t: sr * np.power(t, R53 - 1.0) + 2.0 * np.power(t, 1.2),
        F=lambda t: (sr / R53) * np.power(t, R53) + (2.0 / 2.2) * np.power(t, 2.2),
        r=R53,
        C_bar=sr + 2.0 * 0.01 ** (1.2 - 2.0 / 3.0),
        C_under=sr,
        delta=0.01)
    params = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    return _timed_solve(params, grid)


def test_criterion_01_exact_identity(grid):
    t0 = time.monotonic()
    h2 = h_beta_function(grid, 2.0)
    lap = frac_laplacian_on_grid(h2, 0.5)
    want = 2.0 * h_beta_eval(grid.nodes, 4.0)
    sel = (grid.nodes >= 0.1) & (grid.nodes <= 50.0)
    err = float(np.max(np.abs(lap[sel] / want[sel] - 1.0)))
    elapsed = time.monotonic() - t0
    ok = err <= 1e-3 and elapsed <= 30.0
    report(1, ok, f"half-Laplacian of h_2 vs 2 h_4: max rel err "
                  f"{err:.3e} (tol 1e-3), {elapsed:.1f}s (limit 30s)")
    # measured: 4.0e-6 in about a second


def test_criterion_02_closed_form_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for (N, s, beta) in ((3, 0.5, 2.0), (3, 0.5, 3.5), (2, 0.5, 2.5),
                         (3, 0.25, 3.0)):
        g = RadialGrid.log_spaced(num=1200, N=N)
        lap = frac_laplacian_on_grid(h_beta_function(g, beta), s)
        sel = (g.nodes >= 0.1) & (g.nodes <= 50.0)
        p = ProfileParams(N, s, beta)
        want = frac_lap_h_exact(g.nodes[sel], p)
        worst = max(worst, float(np.max(np.abs(lap[sel] / want - 1.0))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed <= 120.0
    report(2, ok, f"four hypergeometric oracles: worst rel err {worst:.3e} "
                  f"(tol 1e-3), {elapsed:.1f}s (limit 120s)")
    # measured: 3.4e-5 worst, under 5s


def test_criterion_03_asymptotic_regimes():
    t0 = time.monotonic()
    cases = ((3, 0.5, 3.8), (3, 0.5, 3.0), (3, 0.9, 1.65), (3, 0.5, 2.0),
             (3, 0.5, 1.5))
    regimes = []
    worst = 0.0
    for (N, s, beta) in cases:
        p = ProfileParams(N, s, beta)
        law = frac_lap_h_asymptotic(p)
        regimes.append(law.regime)
        ratio = frac_lap_h_exact(100.0, p) / float(law.evaluate(100.0))
        worst = max(worst, abs(ratio - 1.0))
    elapsed = time.monotonic() - t0
    distinct = len(set(regimes)) == 5
    ok = worst <= 0.1 and distinct and elapsed <= 60.0
    report(3, ok, f"five regimes at r=100: worst |ratio-1| {worst:.3e} "
                  f"(tol 0.1), regimes {sorted(set(regimes))}, "
                  f"{elapsed:.1f}s (limit 60s)")
    # measured: worst 1.8e-2 (the r^-(N+2s) regime)


def test_criterion_04_choquard_dominated_decay(solve_slow, grid):
    sol, elapsed = solve_slow
    fit = fit_tail(sol.u, (50.0, 100.0))
    beta = 10.0 / 3.0
    fit_err = abs(fit.fitted_exponent - beta) / beta
    c_ref = (riesz_constant(3, 2.0) * sol.norm_r ** 1.7 / 1.0) ** (1.0 / 0.3)
    sel = (grid.nodes >= 50.0) & (grid.nodes <= 100.0)
    product = sol.u.values[sel] * grid.nodes[sel] ** beta
    prod_dev = float(np.max(np.abs(product - c_ref))) / c_ref
    ok = fit_err <= 0.1 and prod_dev <= 0.2 and elapsed <= 600.0
    report(4, ok, f"r=1.7 solve: fitted exponent {fit.fitted_exponent:.4f} "
                  f"vs 10/3 (err {fit_err:.3f}, tol 0.1), tail product off by "
                  f"{prod_dev:.3f} (tol 0.2), {elapsed:.0f}s (limit 600s)")
    # measured: fit 3.3991 (1.97%), product deviation 6.7%, 7s


def test_criterion_05_laplacian_dominated_decay(solve_fast):
    sol, elapsed = solve_fast
    fit = fit_tail(sol.u, (50.0, 100.0))
    fit_err = abs(fit.fitted_exponent - 4.0) / 4.0
    ok = fit_err <= 0.1 and elapsed <= 600.0
    report(5, ok, f"r=1.9 solve: fitted exponent {fit.fitted_exponent:.4f} "
                  f"vs 4 (err {fit_err:.3f}, tol 0.1), {elapsed:.0f}s "
                  f"(limit 600s)")
    # measured: fit 4.1654 (4.1%), 6s


def test_criterion_06_lower_critical_case(solve_critical):
    sol, elapsed = solve_critical
    pred = predict_decay(sol.params)
    fit = fit_tail(sol.u, (50.0, 100.0))
    fit_err = abs(fit.fitted_exponent - 3.0) / 3.0
    beta_exact = abs(pred.beta - 3.0) <= 1e-12 * 3.0
    ok = beta_exact and fit_err <= 0.1 and elapsed <= 600.0
    report(6, ok, f"r=5/3 solve: predicted beta {pred.beta!r} (= N), fitted "
                  f"{fit.fitted_exponent:.4f} (err {fit_err:.3f}, tol 0.1), "
                  f"{elapsed:.0f}s (limit 600s)")
    # measured: fit 3.0916 (3.1%), 7s


def test_criterion_07_pohozaev_identity(solve_slow, solve_fast, solve_critical):
    details = []
    ok = True
    for name, (sol, _) in (("r=1.7", solve_slow), ("r=1.9", solve_fast),
                           ("r=5/3", solve_critical)):
        _, p_val, defect = pohozaev_check(sol)
        fd = dilation_derivative(sol)
        fd_dev = abs(fd - p_val) * defect / abs(p_val)  # |FD-P| / term scale
        ok = ok and defect <= 1e-2 and fd_dev <= 8.2e-8
        details.append(f"{name}: defect {defect:.2e}, dilation dev {fd_dev:.2e}")
    report(7, ok, "; ".join(details) + " (tols 1e-2, 8.2e-8)")
    # measured: defects 6.5e-10 / 4.1e-9 / 8.3e-10, dilation 4.4e-10 /
    # 8.2e-10 / 3.9e-10 (the bound is 100 times the largest)


def test_criterion_08_chain_rule(grid, solve_slow, solve_fast, solve_critical):
    t0 = time.monotonic()
    h4 = h_beta_function(grid, 4.0)
    profiles = [("h4", h4, (0.3, 0.1, 1.0 / 3.0))]
    for name, (sol, _), r in (("r=1.7", solve_slow, 1.7),
                              ("r=1.9", solve_fast, 1.9),
                              ("r=5/3", solve_critical, R53)):
        thetas = (0.3,) if abs(2.0 - r - 0.3) < 1e-12 else (0.3, 2.0 - r)
        profiles.append((name, sol.u, thetas))
    worst = math.inf
    ok = True
    for name, u, thetas in profiles:
        for rep in verify_chain_rule(u, thetas, 0.5):
            worst = min(worst, float(np.min(rep.margin / rep.scale)))
            ok = ok and rep.passed
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 120.0
    report(8, ok, f"concavity margin at all {grid.size} nodes, all profiles and "
                  f"exponents: min margin/scale {worst:.3e} (tol -1e-6), "
                  f"{elapsed:.1f}s (limit 120s)")
    # measured: min margin 0.20 of scale, well away from the tolerance


def test_criterion_09_riesz_tail(solve_slow, solve_fast, solve_critical):
    details = []
    ok = True
    for name, (sol, _) in (("r=1.7", solve_slow), ("r=1.9", solve_fast),
                           ("r=5/3", solve_critical)):
        t0 = time.monotonic()
        fu = sol.params.nonlinearity.F_of(sol.u)
        conv = riesz_convolve_radial(fu, 2.0)
        mass = volume_integral(fu)
        ratio = float(conv.evaluate(100.0)) * 100.0 / riesz_constant(3, 2.0) / mass
        elapsed = time.monotonic() - t0
        ok = ok and abs(ratio - 1.0) <= 0.05 and elapsed <= 60.0
        details.append(f"{name}: ratio {ratio:.5f} ({elapsed:.1f}s)")
    report(9, ok, "normalized convolution at r=100 vs mass: "
                  + "; ".join(details) + " (tol 0.05, limit 60s each)")
    # measured: 0.99524 / 0.99991 / 0.99940


def test_criterion_10_kappa_ledger(solve_slow):
    sol, _ = solve_slow
    bc = bound_constants(sol)
    gap = abs(bc.C_upper - bc.C_lower) / bc.C_lower
    invariant = all(
        bound_constants(sol, kappa=m * bc.kappa_star).C_lower == bc.C_lower
        for m in (2.0, 3.0, 10.0))
    ok = gap <= 1e-10 and invariant
    report(10, ok, f"kappa* = {bc.kappa_star:.6f} equalizes the bounds to "
                   f"{gap:.2e} (tol 1e-10); lower constant bitwise "
                   f"kappa-invariant: {invariant}")
    # measured: gap exactly 0.0 at kappa*
