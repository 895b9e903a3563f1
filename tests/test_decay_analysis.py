"""Tests for decay prediction, tail fitting, and the bound constants.

Reference numbers quoted in comments were measured with this package on the
default grid (1200 log-spaced nodes on [1e-3, 1e3]); analytical values are
stated next to the formulas they come from.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracradial.decay_analysis as decay_analysis
import fracradial.radial_ops as radial_ops

from fracradial import (
    NonlinearitySpec,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    SolverOpts,
    bound_constants,
    fit_tail,
    frac_laplacian_on_grid,
    h_beta_function,
    predict_decay,
    riesz_constant,
    sharp_constant,
    solve_ground_state,
    verify_chain_rule,
    verify_riesz_tail,
)

SQRT_17 = math.sqrt(1.7)


def make_params(r, mu=1.0, convention="sqrt_r"):
    return ProblemParams(N=3, s=0.5, alpha=2.0, mu=mu,
                         nonlinearity=NonlinearitySpec.homogeneous(
                             r, convention=convention))


@pytest.fixture(scope="module")
def solution():
    return solve_ground_state(make_params(1.7))


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.log_spaced()


# ---------------------------------------------------------------------------
# predict_decay


def test_predict_slow_regime():
    pred = predict_decay(make_params(1.7))
    assert pred.regime == "choquard_dominated"
    assert_allclose(pred.beta, 10.0 / 3.0, rtol=1e-15)
    assert pred.r_star == 1.75


def test_predict_operator_regime():
    pred = predict_decay(make_params(1.9))
    assert pred.regime == "laplacian_dominated"
    assert pred.beta == 4.0


def test_predict_boundary_exponent():
    # at r = r* = 1.75 both branches of the min give exactly N + 2s
    pred = predict_decay(make_params(1.75))
    assert pred.regime == "boundary"
    assert pred.beta == 4.0


def test_predict_lower_critical_exponent():
    # a homogeneous f has no solution at r = 5/3 (ProblemParams refuses
    # it), a general f with that envelope exponent has one
    r = 5.0 / 3.0
    c = math.sqrt(r)
    spec = NonlinearitySpec.general(f=lambda t: c * t ** (r - 1.0),
                                    F=lambda t: c / r * t ** r,
                                    r=r, C_bar=c, C_under=c, delta=1.0)
    pred = predict_decay(ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                                       nonlinearity=spec))
    assert_allclose(pred.beta, 3.0, rtol=1e-12)
    assert pred.regime == "choquard_dominated"


@pytest.mark.parametrize("r", [1.78, 1.85, 1.99])
def test_predict_caps_at_operator_exponent(r):
    assert predict_decay(make_params(r)).beta == 4.0


@pytest.mark.parametrize("bad_r", [1.5, 2.0, 2.3])
def test_predict_rejects_exponent_outside_window(bad_r):
    # the sublinear range [(N+alpha)/N, 2) belongs to ProblemParams: a
    # problem outside it is refused before it has a decay prediction
    with pytest.raises(ValueError, match="outside the sublinear range"):
        make_params(bad_r)


# ---------------------------------------------------------------------------
# fit_tail


def test_fit_recovers_exact_power(grid):
    u = RadialFunction(grid=grid, values=2.0 * grid.nodes ** -3.5, tail_exponent=3.5)
    fit = fit_tail(u, (10.0, 100.0))
    assert_allclose(fit.fitted_exponent, 3.5, atol=1e-10)
    assert_allclose(fit.fitted_amplitude, 2.0, rtol=1e-9)
    assert not fit.log_corrected
    assert fit.rms_log_residual < 1e-12


def test_fit_reference_profile(grid):
    # the bounded reference profile with tail exponent 10/3, fitted on
    # [50, 100], reads 3.3326410 (0.02 percent below the exact exponent)
    h = h_beta_function(grid, 10.0 / 3.0)
    fit = fit_tail(h, (50.0, 100.0))
    assert_allclose(fit.fitted_exponent, 3.3326410263742363, rtol=1e-9)
    assert abs(fit.fitted_exponent - 10.0 / 3.0) <= 0.01 * (10.0 / 3.0)


def test_fit_log_corrected_model(grid):
    vals = 5.0 * np.log(grid.nodes) * grid.nodes ** -3.0
    u = RadialFunction(grid=grid, values=vals, tail_exponent=3.0)
    fit = fit_tail(u, (20.0, 100.0))
    assert fit.log_corrected
    assert_allclose(fit.fitted_exponent, 3.0, atol=1e-9)
    assert_allclose(fit.fitted_amplitude, 5.0, rtol=1e-9)


def test_fit_log_model_needs_window_above_one(grid):
    u = RadialFunction(grid=grid, values=2.0 * grid.nodes ** -3.5, tail_exponent=3.5)
    # log(r) changes sign inside the window: the plain power fit is used
    fit = fit_tail(u, (0.5, 50.0))
    assert not fit.log_corrected
    assert_allclose(fit.fitted_exponent, 3.5, atol=1e-10)


def test_fit_window_validation(grid):
    u = RadialFunction(grid=grid, values=2.0 * grid.nodes ** -3.5, tail_exponent=3.5)
    with pytest.raises(ValueError):
        fit_tail(u, (100.0, 50.0))          # reversed
    with pytest.raises(ValueError):
        fit_tail(u, (50.0, 150.0))          # beyond the trusted r_max/10
    with pytest.raises(ValueError):
        fit_tail(u, (50.0, 55.0))           # only a handful of nodes


def test_fit_rejects_nonpositive_samples(grid):
    vals = 2.0 * grid.nodes ** -3.5
    vals[600] = -vals[600]
    u = RadialFunction(grid=grid, values=vals, tail_exponent=3.5)
    lo, hi = grid.nodes[590], grid.nodes[640]
    with pytest.raises(ValueError):
        fit_tail(u, (lo, hi))


# ---------------------------------------------------------------------------
# sharp_constant


def test_sharp_constant_pinned(solution):
    # frozen from a converged default-grid run
    assert_allclose(sharp_constant(solution), 663.0390142036589, rtol=1e-9)


def test_mass_and_sharp_constant_agree_across_grids(solution):
    """The volume integrals carry no grid-dependent bias: the default
    problem's int F(u) and sharp constant at 400 nodes agree with the
    default 1200 (measured 2.5e-6 and 8.3e-6 relative)."""
    coarse = solve_ground_state(
        make_params(1.7), SolverOpts(grid=RadialGrid.log_spaced(num=400)))
    assert_allclose(coarse.mass_F, solution.mass_F, rtol=1e-5)
    assert_allclose(sharp_constant(coarse), sharp_constant(solution), rtol=2e-5)


def test_sharp_constant_explicit_form(solution):
    # for the sqrt-r convention the slope factors collapse and the constant
    # is (C_{N,alpha} ||u||_r^r / mu)^{1/(2-r)}
    C = riesz_constant(3, 2.0)
    direct = (C * solution.norm_r ** 1.7 / 1.0) ** (1.0 / 0.3)
    assert_allclose(sharp_constant(solution), direct, rtol=1e-12)


def test_sharp_constant_general_nonlinearity():
    # for a general f the slope L = lim f(t)/t^{r-1} is measured numerically
    spec = NonlinearitySpec.general(
        f=lambda t: SQRT_17 * np.power(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * np.power(t, 1.7),
        r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=0.5, nonlinearity=spec)
    sol = SimpleNamespace(params=p, norm_r=10.0, mass_F=50.0)
    slope = spec.limit_slope()
    assert_allclose(slope, SQRT_17, rtol=1e-12)
    want = (riesz_constant(3, 2.0) * slope * 50.0 / 0.5) ** (1.0 / 0.3)
    assert_allclose(sharp_constant(sol), want, rtol=1e-12)


def test_sharp_constant_undefined_in_operator_regime():
    sol = SimpleNamespace(params=make_params(1.9), norm_r=10.0, mass_F=50.0)
    with pytest.raises(ValueError):
        sharp_constant(sol)


# ---------------------------------------------------------------------------
# bound_constants


def test_bounds_equalize_at_kappa_star(solution):
    bc = bound_constants(solution)
    assert bc.kappa_star == SQRT_17      # C_bar mu^{1-r} at mu = 1
    assert bc.kappa == bc.kappa_star     # default rescaling
    assert abs(bc.C_upper - bc.C_lower) <= 1e-10 * bc.C_lower  # measured 0.0


def test_lower_constant_is_kappa_invariant(solution):
    base = bound_constants(solution)
    for mult in (2.0, 3.0, 10.0):
        bc = bound_constants(solution, kappa=mult * base.kappa_star)
        assert bc.C_lower == base.C_lower
    # moving kappa off the equalizer only loosens the upper bound
    worse = bound_constants(solution, kappa=10.0 * base.kappa_star)
    assert worse.C_upper > base.C_upper


def test_too_small_kappa_breaks_hypothesis(solution):
    bc = bound_constants(solution)
    with pytest.raises(ValueError):
        bound_constants(solution, kappa=bc.kappa_star / 8.0)
    with pytest.raises(ValueError):
        bound_constants(solution, kappa=-1.0)
    # an infinite kappa gave C_upper = inf
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        bound_constants(solution, kappa=math.inf)


def test_distinct_envelopes_have_no_equalizer():
    spec = NonlinearitySpec.general(
        f=lambda t: SQRT_17 * np.power(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * np.power(t, 1.7),
        r=1.7, C_bar=1.2 * SQRT_17, C_under=0.8 * SQRT_17, delta=10.0)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    sol = SimpleNamespace(params=p, norm_r=13.9, mass_F=67.7)
    # kappa = 1 violates mu > (r-1) C_bar^{1/(r-1)} here, so a rescaling is
    # mandatory rather than cosmetic
    with pytest.raises(ValueError):
        bound_constants(sol)
    bc = bound_constants(sol, kappa=10.0)
    assert bc.kappa_star is None
    assert bc.kappa == 10.0
    assert bc.C_upper > 0.0 and bc.C_lower > 0.0


# ---------------------------------------------------------------------------
# chain rule


def test_chain_rule_on_reference_profile(grid):
    h4 = h_beta_function(grid, 4.0)
    report = verify_chain_rule(h4, 0.3, 0.5)
    assert report.passed
    assert np.all(report.margin > 0.0)   # measured: min margin/scale 0.23, at r_1


def test_chain_rule_becomes_equality_at_theta_one(grid):
    h4 = h_beta_function(grid, 4.0)
    report = verify_chain_rule(h4, 1.0 - 1e-9, 0.5)
    assert report.passed
    # both sides coincide up to rounding (measured at most 6.5e-8 of scale,
    # and 3.1e-7 at r = 1.729, next to the sign change of (-Delta)^s h_4 at
    # sqrt(3), where both sides are 1.9e-4 against a maximum of 3)
    assert np.max(np.abs(report.margin) / report.scale) <= 1e-6


@pytest.mark.parametrize("theta", [2.0 - 1.7, 0.3])
def test_chain_rule_on_computed_solution(solution, theta):
    report = verify_chain_rule(solution.u, theta, 0.5)
    assert report.passed
    assert np.all(report.margin > 0.0)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("theta", [0.3, 2.0 - 1.9])
def test_chain_rule_sides_are_the_assembled_operator(N, theta):
    """Both sides are the assembled fractional Laplacian at every node, of
    u^theta and of u, to the bit; several exponents give the reports of
    one exponent each."""
    g = RadialGrid.log_spaced(num=400, N=N)
    u = h_beta_function(g, 3.0)
    u_pow = RadialFunction(grid=g, values=u.values ** theta,
                           tail_exponent=u.tail_exponent * theta)
    report = verify_chain_rule(u, theta, 0.5)
    assert np.array_equal(report.lhs, frac_laplacian_on_grid(u_pow, 0.5))
    assert np.array_equal(report.rhs, theta * u.values ** (theta - 1.0)
                          * frac_laplacian_on_grid(u, 0.5))
    both = verify_chain_rule(u, (0.7, theta), 0.5)
    assert [rep.theta for rep in both] == [0.7, theta]
    for field in ("lhs", "rhs", "margin", "scale"):
        assert np.array_equal(getattr(both[1], field), getattr(report, field))
    assert both[1].passed == report.passed
    alone = verify_chain_rule(u, 0.7, 0.5)
    assert np.array_equal(both[0].lhs, alone.lhs)
    assert np.array_equal(both[0].rhs, alone.rhs)


def test_chain_rule_covers_every_node(monkeypatch):
    """The check runs at all M nodes, from the assembled operator alone:
    no pointwise row is built."""
    def refuse(*args):
        raise AssertionError("pointwise rows built")

    monkeypatch.setattr(decay_analysis, "frac_laplacian_radial", refuse)
    monkeypatch.setattr(radial_ops, "frac_laplacian_radial", refuse)
    grid = RadialGrid.log_spaced(num=200)
    reports = verify_chain_rule(h_beta_function(grid, 3.0), (0.3, 0.7), 0.5)
    for rep in reports:
        assert np.array_equal(rep.radii, grid.nodes)
        for field in ("lhs", "rhs", "margin", "scale"):
            assert getattr(rep, field).shape == (grid.size,)


@pytest.mark.parametrize("theta", [-0.3, 0.0, 1.0, 1.2])
def test_chain_rule_theta_validation(grid, theta):
    h4 = h_beta_function(grid, 4.0)
    with pytest.raises(ValueError):
        verify_chain_rule(h4, theta, 0.5)


def test_chain_rule_needs_positive_function(grid):
    minus_one = RadialFunction(grid=grid, values=-np.ones(grid.nodes.size),
                               tail_exponent=4.0)
    with pytest.raises(ValueError):
        verify_chain_rule(minus_one, 0.3, 0.5)


# ---------------------------------------------------------------------------
# riesz tail


def test_riesz_tail_approaches_point_mass(solution):
    report = verify_riesz_tail(solution, theta=4.0)
    assert report.window == (20.0, 100.0)
    assert report.theta == 4.0
    # the normalized convolution settles on the total mass from above;
    # at the outer end of the window the gap is 0.5 percent (measured)
    assert abs(report.normalized_ratio[-1] - 1.0) <= 0.05
    assert np.all(np.diff(report.deviation) < 0.0)
    assert report.sup_deviation <= 2.5 * report.mass   # measured 2.1 * mass


def test_riesz_tail_mass_matches_solution(solution):
    report = verify_riesz_tail(solution, theta=4.0)
    assert_allclose(report.mass, solution.mass_F, rtol=1e-10)  # measured exact


@pytest.mark.parametrize("theta", [3.0, 5.1, 0.0])
def test_riesz_tail_theta_validation(solution, theta):
    # admissible decay rates for the envelope lie in (N, N + alpha]
    with pytest.raises(ValueError):
        verify_riesz_tail(solution, theta=theta)
