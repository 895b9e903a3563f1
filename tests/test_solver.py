"""Tests for the ground-state solver and its energy diagnostics.

The expensive fixtures (full solves on the default grid) are module-scoped
and shared; frozen reference numbers below were produced by this package on
the default 1200-node grid and are quoted to full precision in comments next
to the assertions that use them.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracradial.radial_ops as radial_ops
import fracradial.solver as solver_mod
from fracradial import (
    NonConvergenceError,
    NonlinearitySpec,
    ProblemParams,
    RadialFunction,
    RadialGrid,
    Solution,
    SolverOpts,
    ZeroCollapseError,
    dilation_derivative,
    h_beta_eval,
    pohozaev_check,
    residual,
    riesz_convolve_radial,
    solve_ground_state,
    sphere_surface_area,
    volume_integral,
)
from fracradial.radial_ops import fraclap_matrix
from fracradial.solver import lu_factor

SQRT_17 = math.sqrt(1.7)


@pytest.fixture(scope="module")
def solution(params):
    return solve_ground_state(params)


# ---------------------------------------------------------------------------
# nonlinearity descriptions


def test_homogeneous_sqrt_r_convention():
    spec = NonlinearitySpec.homogeneous(1.7)
    assert spec.is_homogeneous
    assert spec.limit_slope() == SQRT_17
    assert spec.C_bar == SQRT_17 and spec.C_under == SQRT_17
    assert math.isinf(spec.delta)
    assert_allclose(spec.f(2.0), SQRT_17 * 2.0 ** 0.7, rtol=1e-15)
    assert_allclose(spec.F(2.0), SQRT_17 / 1.7 * 2.0 ** 1.7, rtol=1e-15)


def test_homogeneous_rejects_unknown_convention():
    # "sqrt_r" is the one homogeneous pair; F = t^r is a general spec
    for convention in ("power", "unit"):
        with pytest.raises(ValueError, match="unknown convention"):
            NonlinearitySpec(f=lambda t: 1.7 * np.power(t, 0.7),
                             F=lambda t: np.power(t, 1.7), r=1.7, C_bar=1.7,
                             C_under=1.7, delta=10.0, convention=convention)


def test_general_limit_slope_recovers_prefactor():
    spec = NonlinearitySpec(
        f=lambda t: SQRT_17 * np.power(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * np.power(t, 1.7),
        r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)
    assert not spec.is_homogeneous
    assert_allclose(spec.limit_slope(), SQRT_17, rtol=1e-12)


def test_general_rejects_nonvanishing_F_at_zero():
    with pytest.raises(ValueError):
        NonlinearitySpec(f=lambda t: t, F=lambda t: t + 0.01,
                         r=1.7, C_bar=1.0, C_under=1.0, delta=1.0)


def test_general_rejects_nan_F_at_zero():
    with pytest.raises(ValueError, match="must vanish"):
        NonlinearitySpec(
            f=lambda t: SQRT_17 * np.power(t, 0.7),
            F=lambda t: math.nan if t == 0.0 else SQRT_17 / 1.7 * np.power(t, 1.7),
            r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)


def test_general_rejects_nan_F_on_the_check_lattice():
    # F(0) = 0, and F is NaN at every point the antiderivative check reads
    with pytest.raises(ValueError, match="not the antiderivative"):
        NonlinearitySpec(
            f=lambda t: SQRT_17 * np.power(t, 0.7),
            F=lambda t: 0.0 if t == 0.0 else math.nan,
            r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)


def test_general_rejects_mismatched_antiderivative():
    # F is 1 percent off being the antiderivative of f
    with pytest.raises(ValueError):
        NonlinearitySpec(
            f=lambda t: SQRT_17 * np.power(t, 0.7),
            F=lambda t: 1.01 * SQRT_17 / 1.7 * np.power(t, 1.7),
            r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)


@pytest.mark.parametrize("c_bar, c_under, delta", [
    (1.0, 2.0, 1.0),    # lower envelope above upper
    (1.0, 0.0, 1.0),    # lower envelope must be positive
    (1.0, 1.0, 0.0),    # empty near-zero range
    (math.inf, 1.0, 1.0),  # an infinite upper envelope bounds nothing
])
def test_general_envelope_validation(c_bar, c_under, delta):
    with pytest.raises(ValueError):
        NonlinearitySpec(f=lambda t: t ** 0.7 * 1.7,
                         F=lambda t: t ** 1.7,
                         r=1.7, C_bar=c_bar, C_under=c_under,
                         delta=delta)


# ---------------------------------------------------------------------------
# problem parameters


@pytest.mark.parametrize("kwargs", [
    dict(N=1),            # dimension too small
    dict(s=0.0),
    dict(s=1.0),
    dict(alpha=0.0),
    dict(alpha=3.0),      # must stay below N
    dict(mu=0.0),
    dict(mu=-1.0),
    dict(mu=math.inf),
])
def test_problem_params_validation(kwargs):
    base = dict(N=3, s=0.5, alpha=2.0, mu=1.0,
                nonlinearity=NonlinearitySpec.homogeneous(1.7))
    base.update(kwargs)
    with pytest.raises(ValueError):
        ProblemParams(**base)


@pytest.mark.parametrize("r", [1.6, 2.6])
def test_homogeneous_exponent_window(r):
    # admissible window at (N, s, alpha) = (3, 1/2, 2) is [5/3, 5/2]
    with pytest.raises(ValueError):
        ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(r))


def test_homogeneous_exponent_window_endpoints():
    # at (3, 1/2, 2) the window is the sublinear [5/3, 2): the critical
    # exponent (N+alpha)/(N-2s) = 5/2 lies above 2.  A homogeneous f has no
    # solution at the lower endpoint 5/3 itself
    with pytest.raises(ValueError, match="at the lower endpoint .*Pohozaev-Nehari"):
        ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(5.0 / 3.0))
    for r in (2.0, 2.2, 2.5):
        with pytest.raises(ValueError, match="outside the sublinear range"):
            ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                          nonlinearity=NonlinearitySpec.homogeneous(r))
    # at (3, 1/4, 1/2), where alpha + 4s < N, the critical exponent
    # 3.5/2.5 = 1.4 bounds a homogeneous r below 2; a general f only needs
    # r < 2
    ProblemParams(N=3, s=0.25, alpha=0.5, mu=1.0,
                  nonlinearity=NonlinearitySpec.homogeneous(1.4))
    with pytest.raises(ValueError, match="above the critical exponent"):
        ProblemParams(N=3, s=0.25, alpha=0.5, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(1.45))
    spec = NonlinearitySpec(f=lambda t: 1.45 * t ** 0.45,
                            F=lambda t: t ** 1.45,
                            r=1.45, C_bar=1.45, C_under=1.45, delta=1.0)
    ProblemParams(N=3, s=0.25, alpha=0.5, mu=1.0, nonlinearity=spec)


def test_general_kind_requires_sublinear_exponent():
    spec = NonlinearitySpec(f=lambda t: 2.0 * t,
                            F=lambda t: t ** 2,
                            r=2.0, C_bar=2.0, C_under=2.0, delta=1.0)
    with pytest.raises(ValueError):
        ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)


@pytest.mark.parametrize("r, expected", [
    (1.7, 10.0 / 3.0),   # slow regime: (N - alpha) / (2 - r)
    (1.9, 4.0),          # capped at N + 2s
])
def test_predicted_tail_exponent(r, expected):
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(r))
    assert_allclose(p.predicted_tail_exponent(), expected, rtol=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(tolerance=float("nan")),
    dict(tolerance=-1e-10),
    dict(tolerance=0.0),
    dict(max_iterations=0),
    dict(max_iterations=2.5),
    dict(max_iterations=3.0),
    dict(max_iterations=True),
    dict(max_iterations="3"),
    dict(tolerance=math.inf),
])
def test_solver_opts_validation(kwargs):
    with pytest.raises(ValueError):
        SolverOpts(**kwargs)


def test_solver_opts_takes_a_numpy_integer():
    opts = SolverOpts(max_iterations=np.int64(7))
    assert opts.max_iterations == 7 and type(opts.max_iterations) is int


def test_solver_opts_fields():
    # the damping and the start are fixed: _DAMPING, and h_{N+2s}
    assert [f.name for f in dataclasses.fields(SolverOpts)] == \
        ["grid", "max_iterations", "tolerance"]


def test_solution_fields():
    # residual_sup, pohozaev_defect, norm_r and mass_F are derived from
    # (u, params), so a record cannot hold values its profile contradicts
    assert [f.name for f in dataclasses.fields(Solution)] == \
        ["u", "params", "iterations", "trace"]


def test_solve_returns_its_diagnostics_evaluated(params):
    # the time of a solve includes them, as when the Solution stored them
    sol = solve_ground_state(params, SolverOpts(grid=RadialGrid.log_spaced(num=150)))
    assert {"residual_sup", "pohozaev_defect", "norm_r", "mass_F"} <= vars(sol).keys()


# ---------------------------------------------------------------------------
# converged solve on the default grid


def test_solution_profile_is_positive_and_monotone(solution):
    vals = solution.u.values
    assert np.all(vals > 0.0)
    sup = float(np.max(vals))
    assert np.max(np.diff(vals)) <= 1e-9 * sup


def test_solution_matches_frozen_run(solution):
    # values from a converged run of this solver on the default grid:
    # sup u = 0.037811335045685755, ||u||_r = 13.948024433706832
    assert_allclose(np.max(solution.u.values), 0.037811335045685755, rtol=1e-9)
    assert_allclose(solution.norm_r, 13.948024433706832, rtol=1e-9)


def test_solution_tail_uses_predicted_exponent(solution, params):
    assert solution.u.tail_exponent == params.predicted_tail_exponent()
    assert_allclose(solution.u.tail_exponent, 10.0 / 3.0, rtol=1e-15)


def test_residual_gate_and_report_agree(solution):
    res = residual(solution)
    sup_res = float(np.max(np.abs(res.values)))
    assert sup_res == solution.residual_sup
    # convergence gate: relative residual below 1e-6 (measured 3.1e-10)
    assert solution.residual_sup <= 1e-6 * np.max(solution.u.values)


def test_mass_identity_for_homogeneous_kind(solution, params):
    spec = params.nonlinearity
    assert solution.mass_F == volume_integral(spec.F_of(solution.u))
    # int F(u) = (C_bar / r) ||u||_r^r for a power pair (measured: equal)
    assert_allclose(solution.mass_F,
                    spec.C_bar / 1.7 * solution.norm_r ** 1.7, rtol=1e-14)


def test_trace_records_every_iteration(solution):
    assert len(solution.trace) == solution.iterations
    assert solution.iterations < 5000
    last_change = solution.trace[-1][1]
    assert last_change <= 1e-10


def test_perturbed_profile_has_larger_residual(solution, params):
    # adding 0.1 h_{N+2s} leaves the residual orders of magnitude above the
    # converged one (measured: 0.33 against 1.2e-11)
    u = solution.u
    grid = u.grid
    vals = u.values + 0.1 * h_beta_eval(grid.nodes, 4.0)
    pert = RadialFunction(grid=grid, values=vals, tail_exponent=u.tail_exponent)
    shifted = Solution(u=pert, params=params, iterations=0)
    assert shifted.residual_sup > 100.0 * solution.residual_sup


def test_rescaled_problem_is_covariant(solution):
    """mu' = 4 mu maps to u(x) -> c u(lambda x) with lambda = 4, c = 4^{3/1.4}."""
    p4 = ProblemParams(N=3, s=0.5, alpha=2.0, mu=4.0,
                       nonlinearity=NonlinearitySpec.homogeneous(1.7))
    s4 = solve_ground_state(p4)
    grid = solution.u.grid
    lam = 4.0
    c = lam ** ((2.0 * 0.5 + 2.0) / (2.0 * 1.7 - 2.0))
    sel = (grid.nodes >= 1e-3) & (grid.nodes <= 200.0)
    ref = c * solution.u.evaluate(lam * grid.nodes[sel])
    dev = np.max(np.abs(s4.u.values[sel] - ref) / ref)
    assert dev <= 2e-5   # measured 4.4e-6


@pytest.mark.parametrize("N, s, alpha, r, bound", [
    (3, 0.5, 2.0, 1.7, 1e-6),    # measured 7.1e-8
    (3, 0.5, 2.0, 1.9, 3e-6),    # measured 4.2e-7
    (3, 0.25, 2.0, 1.8, 2e-6),   # measured 1.8e-7
    (2, 0.5, 1.0, 1.6, 1e-6),    # measured 2.8e-8
])
def test_rescaled_family_is_covariant(N, s, alpha, r, bound):
    """u_mu(x) = mu^{a/2s} u_1(mu^{1/2s} x) with a = (alpha + 2s)/(2(r - 1)),
    at lambda = mu^{1/2s} = 2 on [r_1, r_max/(10 lambda)] of an M = 600 grid.

    Reading u_1 between nodes log-linearly leaves 8.8e-5 to 2.5e-4 here."""
    lam = 2.0
    opts = SolverOpts(grid=RadialGrid.log_spaced(num=600, N=N))
    u1, u_mu = (solve_ground_state(
        ProblemParams(N=N, s=s, alpha=alpha, mu=mu,
                      nonlinearity=NonlinearitySpec.homogeneous(r)), opts).u
        for mu in (1.0, lam ** (2.0 * s)))
    nodes = u1.grid.nodes
    sel = nodes <= u1.grid.r_max / (10.0 * lam)
    ref = lam ** ((alpha + 2.0 * s) / (2.0 * (r - 1.0))) * u1.evaluate(lam * nodes[sel])
    assert np.max(np.abs(u_mu.values[sel] - ref) / ref) <= bound


def test_general_kind_reproduces_homogeneous_solve(solution):
    spec = NonlinearitySpec(
        f=lambda t: SQRT_17 * np.power(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * np.power(t, 1.7),
        r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    s = solve_ground_state(p)
    # same arithmetic along both code paths (measured: bitwise identical)
    assert_allclose(s.u.values, solution.u.values, rtol=1e-13)
    assert_allclose(s.mass_F, solution.mass_F, rtol=1e-13)
    # F = t^r has r times the right-hand side, of degree 2r - 1, so its
    # solution is r^(-1/(2r-2)) u and takes the same steps
    power = NonlinearitySpec(
        f=lambda t: 1.7 * np.power(t, 0.7), F=lambda t: np.power(t, 1.7),
        r=1.7, C_bar=1.7, C_under=1.7, delta=10.0)
    s = solve_ground_state(dataclasses.replace(p, nonlinearity=power))
    assert s.iterations == solution.iterations
    assert_allclose(s.u.values, 1.7 ** (-1.0 / 1.4) * solution.u.values,
                    rtol=1e-12)


def test_inverse_operator_reproduces_solution(solution, params):
    """Applying the resolvent to the assembled right side returns u itself."""
    u = solution.u
    grid = u.grid
    spec = params.nonlinearity
    conv = riesz_convolve_radial(spec.F_of(u), 2.0)
    b = conv.values * spec.f_values(u.values)
    # the right side decays with the profile's own exponent: that balance is
    # exactly what selects the decay law in the slow regime
    om = u.tail_exponent
    # the solver's resolvent path, closed with min(om, N + 2s)
    A = radial_ops.fraclap_matrix(grid, params.s, min(om, params.N + 2.0 * params.s))
    A[np.diag_indices_from(A)] += params.mu
    w = solver_mod.lu_solve(solver_mod.lu_factor(A), b)
    dev = np.max(np.abs(w - u.values) / u.values)
    assert dev <= 1e-2   # measured 5.6e-10


@pytest.mark.parametrize("q", [1.0, 1.7])
def test_a_priori_radial_bound(solution, q):
    # u(r)^q r^N <= (N / omega_{N-1}) ||u||_q^q for radially non-increasing u
    u = solution.u
    lhs = np.max(u.values ** q * u.grid.nodes ** 3)
    rhs = 3.0 / sphere_surface_area(3) * volume_integral(u, q)
    assert lhs <= rhs


def test_interaction_term_is_positive(solution, params):
    fu = params.nonlinearity.F_of(solution.u)
    conv = riesz_convolve_radial(fu, 2.0)
    # I_2 * F(u) decays like rho^(2-N), so the product like rho^(-(r omega + 1))
    prod = RadialFunction(grid=solution.u.grid, values=conv.values * fu.values,
                          tail_exponent=fu.tail_exponent + 1.0)
    assert volume_integral(prod) > 0.0   # measured 13.7


def test_alpha_one_half_solves_to_a_monotone_profile():
    """At alpha = 1/2 the Riesz kernel is singular at the end of the first
    node's origin region; integrated as one panel, that row lifted u_2 above
    u_1 (by 7.5e-7 of sup u at r = 1.458) and Solution refused the profile."""
    p = ProblemParams(N=3, s=0.5, alpha=0.5, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(1.5))
    sol = solve_ground_state(p, SolverOpts(grid=RadialGrid.log_spaced(num=400)))
    assert isinstance(sol, Solution)
    assert sol.residual_sup <= 1e-6 * float(np.max(sol.u.values))


# ---------------------------------------------------------------------------
# energy identities and dilation


def test_pohozaev_defect_is_small(solution):
    i_val, p_val, defect = pohozaev_check(solution)
    assert i_val > 0.0
    assert defect == solution.pohozaev_defect
    assert defect <= 1e-7   # measured 2.6e-9


@pytest.mark.parametrize("r", [
    1.7,   # measured 3.24e-6, 1.77e-7, 5.79e-9: orders 4.19, 4.94
    1.9,   # measured 1.86e-6, 5.26e-8, 2.50e-8: orders 5.14, 1.07
])
def test_pohozaev_defect_falls_under_refinement(r):
    """The defect from 150 to 600 nodes, each refinement halving the log
    spacing.  The fall is uneven (order 1.07 for r = 1.9 from 300 to 600
    nodes), so the margin is on the whole fall: 559x and 74x measured."""
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(r))
    defects = [solve_ground_state(p, SolverOpts(grid=RadialGrid.log_spaced(num=M)))
               .pohozaev_defect for M in (150, 300, 600)]
    assert defects[1] < defects[0] and defects[2] < defects[1]
    assert defects[0] >= 50.0 * defects[2]


def test_solved_profile_converges_at_fourth_order_on_nested_grids(params):
    """Solves on 301, 601 and 1201 nodes of [1e-3, 1e3]: each grid's nodes
    are every second node of the next, so the profiles compare node by
    node.  d_k = max |u_fine[::2] - u_coarse| / sup u measured 2.63e-5 and
    1.37e-6, an order of 4.26; the Picard stop (about 5e-9 of sup u) lies
    far below both, so a tighter tolerance gives the same figures."""
    grids = [RadialGrid(1e-3, 1e3, M, 3) for M in (301, 601, 1201)]
    sols = [solve_ground_state(params, SolverOpts(grid=g)) for g in grids]
    diffs = []
    for coarse, fine in zip(sols, sols[1:]):
        assert np.array_equal(fine.u.grid.nodes[::2], coarse.u.grid.nodes)
        diffs.append(np.max(np.abs(fine.u.values[::2] - coarse.u.values))
                     / np.max(fine.u.values))
    order = math.log2(diffs[0] / diffs[1])
    assert order >= 3.5
    assert diffs[1] <= 3e-6


def test_dilation_derivative_matches_identity(solution):
    """The numerical d/dt of the energy at t=1 equals the identity's value.

    Agreement is judged against the size of the identity's individual terms
    (|P| / defect), the same scale the defect itself is measured on.
    """
    fd = dilation_derivative(solution)
    _, p_val, defect = pohozaev_check(solution)
    term_scale = abs(p_val) / defect
    # measured 4.4e-10 of scale; the Pohozaev defect itself is 6.5e-10
    assert abs(fd - p_val) <= 4.4e-8 * term_scale


# ---------------------------------------------------------------------------
# solution record validation and failure modes


def test_solution_rejects_sign_changing_profile(solution, params):
    grid = solution.u.grid
    vals = solution.u.values.copy()
    vals[3] = -vals[3]
    bad = RadialFunction(grid=grid, values=vals, tail_exponent=solution.u.tail_exponent)
    with pytest.raises(ValueError):
        Solution(u=bad, params=params, iterations=0)


def test_solution_rejects_the_zero_profile(params):
    grid = RadialGrid.log_spaced(num=64)
    zero = RadialFunction(grid=grid, values=np.zeros(grid.size), tail_exponent=4.0)
    with pytest.raises(ValueError, match="strictly positive"):
        Solution(u=zero, params=params, iterations=0)


def test_solution_rejects_increasing_profile(solution, params):
    grid = solution.u.grid
    vals = solution.u.values[::-1].copy()
    bad = RadialFunction(grid=grid, values=vals, tail_exponent=4.0)
    with pytest.raises(ValueError):
        Solution(u=bad, params=params, iterations=0)


def test_iteration_cap_raises(params):
    with pytest.raises(NonConvergenceError):
        solve_ground_state(params, SolverOpts(max_iterations=3))


def test_grid_dimension_mismatch(params):
    grid2 = RadialGrid.log_spaced(N=2)
    with pytest.raises(ValueError):
        solve_ground_state(params, SolverOpts(grid=grid2))


def test_vanishing_nonlinearity_collapses(params, monkeypatch):
    # f = 0 leaves the declared envelope, so it is rejected up front; a
    # right-hand side that vanishes anyway collapses the iterates
    with pytest.raises(ValueError, match="leaves its declared envelope"):
        NonlinearitySpec(f=lambda t: 0.0 * t, F=lambda t: 0.0 * t,
                         r=1.7, C_bar=1.0, C_under=0.5, delta=1.0)
    monkeypatch.setattr(solver_mod, "_riesz_operator",
                        lambda *args: SimpleNamespace(apply=np.zeros_like))
    with pytest.raises(ZeroCollapseError):
        solve_ground_state(params, SolverOpts(grid=RadialGrid.log_spaced(num=64)))


def test_iterate_with_no_positive_entry_lost_positivity(params):
    # 32 nodes from 1e-20 to 1e3 are too coarse: the first iterate is
    # negative at every node (max -1.9e-8), which is a loss of positivity,
    # not a collapse with a negative sup norm
    grid = RadialGrid.log_spaced(r_min=1e-20, num=32)
    with pytest.raises(RuntimeError, match="lost positivity at iteration 1") as info:
        solve_ground_state(params, SolverOpts(grid=grid))
    assert not isinstance(info.value, ZeroCollapseError)


def test_loose_tolerance_fails_the_residual_gate(params):
    # a stop at 1e-3 leaves residual 6.487e-05, above 1e-6 sup u = 3.967e-08
    grid = RadialGrid.log_spaced(num=200)
    with pytest.raises(NonConvergenceError,
                       match=r"converged iteration left residual 6\.487e-05 > "
                             r"1e-6 \* sup u = 3\.967e-08"):
        solve_ground_state(params, SolverOpts(grid=grid, tolerance=1e-3))


def test_non_finite_right_hand_side_is_a_nonconvergence():
    # f and F are declared on [0, 0.4] and turn NaN above 0.5; the first
    # iterate reaches about 1, so the NaN goes through the resolvent
    def f(t):
        return np.where(t > 0.5, np.nan, SQRT_17 * np.power(t, 0.7))

    def F(t):
        return np.where(t > 0.5, np.nan, SQRT_17 / 1.7 * np.power(t, 1.7))

    spec = NonlinearitySpec(f=f, F=F, r=1.7, C_bar=SQRT_17,
                            C_under=SQRT_17, delta=0.4)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    grid = RadialGrid.log_spaced(num=200)
    with pytest.raises(NonConvergenceError, match="non-finite iterate"):
        solve_ground_state(p, SolverOpts(grid=grid))


# ---------------------------------------------------------------------------
# the right-hand-side map


def general_spec():
    """f(t) = t^0.7 + t, with F its antiderivative; f / t^0.7 lies in [1, 2]
    on [0, 1]."""
    return NonlinearitySpec(
        f=lambda t: np.power(t, 0.7) + t,
        F=lambda t: np.power(t, 1.7) / 1.7 + 0.5 * t * t,
        r=1.7, C_bar=2.0, C_under=1.0, delta=1.0)


def test_scalar_only_nonlinearity_is_applied_per_element(params):
    # math.pow takes no array, so f and F are applied one node at a time:
    # the values keep the input's shape, and the solve is the np.power one's
    spec = NonlinearitySpec(
        f=lambda t: SQRT_17 * math.pow(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * math.pow(t, 1.7),
        r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=math.inf)
    x = np.array([[0.5, 1.0], [2.0, 3.0]])
    assert_allclose(spec.f_values(x), SQRT_17 * x ** 0.7, rtol=1e-15)
    assert_allclose(spec.F_values(x), SQRT_17 / 1.7 * x ** 1.7, rtol=1e-15)
    opts = SolverOpts(grid=RadialGrid.log_spaced(num=200))
    got = solve_ground_state(dataclasses.replace(params, nonlinearity=spec), opts)
    want = solve_ground_state(params, opts)
    assert got.iterations == want.iterations == 977
    assert np.max(np.abs(got.u.values - want.u.values)) <= 1e-12 * np.max(want.u.values)


# on 150 nodes, and on the coarsest grid of the same range (32 nodes, the
# fewest a grid may have)
@pytest.mark.parametrize("N,alpha,omega", [(2, 1.0, 3.0), (3, 2.0, 10.0 / 3.0)])
@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("kind", ["homogeneous", "general"])
def test_rhs_map_matches_the_convolution_path_bitwise(N, alpha, omega,
                                                      coarse, kind, monkeypatch):
    # the loop binds the memoised Riesz operator that the diagnostics' I_alpha
    # * F(u) applies, so the loop's right-hand side at the returned profile
    # is bitwise the residual's
    spec = NonlinearitySpec.homogeneous(1.7) if kind == "homogeneous" \
        else general_spec()
    p = ProblemParams(N=N, s=0.5, alpha=alpha, mu=1.0, nonlinearity=spec)
    grid = RadialGrid.log_spaced(num=32 if coarse else 150, N=N)
    bound = []

    def recording(*args):
        bound.append(radial_ops._riesz_operator(*args))
        return bound[-1]

    monkeypatch.setattr(solver_mod, "_riesz_operator", recording)
    sol = solve_ground_state(p, SolverOpts(grid=grid))
    assert_allclose(sol.u.tail_exponent, omega, rtol=1e-15)
    (op,) = bound
    assert op is radial_ops._riesz_operator(grid, alpha,
                                            spec.F_of(sol.u).tail_exponent)
    u = sol.u.values
    assert np.array_equal(op.apply(spec.F_values(u)) * spec.f_values(u),
                          sol.evaluation[2].values * spec.f_values(u))


def test_rhs_map_rejects_a_divergent_convolution(params, monkeypatch):
    # closed with tail exponent 1.1, F(u) decays like rho^(-1.7 * 1.1),
    # slower than I_2 can integrate: the loop's Riesz operator is refused
    monkeypatch.setattr(ProblemParams, "predicted_tail_exponent",
                        lambda self: 1.1)
    with pytest.raises(ValueError, match="must exceed alpha"):
        solve_ground_state(params, SolverOpts(grid=RadialGrid.log_spaced(num=64)))


# ---------------------------------------------------------------------------
# operator reuse and resolvent safety


def test_misdeclared_envelope_is_rejected():
    # f = sqrt(1.9) t^0.9 declared with r = 1.7 falls below C_under t^0.7
    # for t < 1, so the r = 1.7 closure exponent 10/3 would not hold
    slope = math.sqrt(1.9)
    with pytest.raises(ValueError, match="leaves its declared envelope"):
        NonlinearitySpec(
            f=lambda t: slope * np.power(t, 0.9),
            F=lambda t: slope / 1.9 * np.power(t, 1.9),
            r=1.7, C_bar=slope, C_under=slope, delta=1.0)


def test_one_operator_closure_per_solve(params, monkeypatch):
    closures = []
    exact = solver_mod.fraclap_matrix

    def counted(grid, s, tail_omega):
        closures.append(tail_omega)
        return exact(grid, s, tail_omega)

    monkeypatch.setattr(solver_mod, "fraclap_matrix", counted)
    grid = RadialGrid.log_spaced(num=200)
    for r in (1.68, 1.9):
        p = dataclasses.replace(params,
                                nonlinearity=NonlinearitySpec.homogeneous(r))
        closures.clear()
        solve_ground_state(p, SolverOpts(grid=grid))
        assert closures == [p.predicted_tail_exponent()]


def test_r168_closes_with_the_predicted_exponent(params):
    # at r = 1.68 the far-decade slope of the converged profile reads about
    # 2.63, well off beta = 3.125; the closure stays at beta
    p = dataclasses.replace(params,
                            nonlinearity=NonlinearitySpec.homogeneous(1.68))
    sol = solve_ground_state(p, SolverOpts(grid=RadialGrid.log_spaced(num=600)))
    assert sol.u.tail_exponent == p.predicted_tail_exponent()
    assert_allclose(sol.u.tail_exponent, 3.125, rtol=1e-15)
    assert sol.iterations <= 2100   # measured 2011


@pytest.mark.parametrize("problem", [
    dict(),
    dict(N=2, alpha=1.0, nonlinearity=NonlinearitySpec.homogeneous(1.6)),
], ids=["default", "N2-r1.6"])
def test_float32_corrections_keep_the_float64_solve(params, problem,
                                                    monkeypatch):
    # measured: the same iteration counts (977 and 386), profiles within
    # 6e-17 and 1.9e-16 of the all-float64 solve
    p = dataclasses.replace(params, **problem)
    opts = SolverOpts(grid=RadialGrid.log_spaced(num=400, N=p.N))
    mixed = solve_ground_state(p, opts)
    monkeypatch.setattr(solver_mod, "_ANCHOR_EVERY", 1)
    plain = solve_ground_state(p, opts)
    assert mixed.iterations == plain.iterations
    assert np.max(np.abs(mixed.u.values - plain.u.values)) <= 1e-12


def test_one_resolvent_solve_per_iteration_with_float64_anchors(params,
                                                                monkeypatch):
    dtypes = []
    exact = solver_mod.lu_solve

    def recorded(inv, b):
        assert inv.dtype == b.dtype
        dtypes.append(inv.dtype)
        return exact(inv, b)

    monkeypatch.setattr(solver_mod, "lu_solve", recorded)
    sol = solve_ground_state(params, SolverOpts(grid=RadialGrid.log_spaced(num=200)))
    assert len(dtypes) == sol.iterations > 2 * solver_mod._ANCHOR_EVERY
    anchors = [it for it, dt in enumerate(dtypes, 1) if dt == np.float64]
    assert anchors == list(range(1, sol.iterations + 1, 16))
    assert set(dtypes) == {np.dtype(np.float64), np.dtype(np.float32)}


def test_solver_checks_resolvent_backward_error(params, monkeypatch):
    exact = solver_mod.lu_solve

    def perturbed(lu, b):
        x = exact(lu, b)
        x[0] *= 1.001
        return x

    monkeypatch.setattr(solver_mod, "lu_solve", perturbed)
    # the check fires on the first solve, so a coarse grid will do
    grid = RadialGrid.log_spaced(num=64)
    with pytest.raises(RuntimeError, match="backward error"):
        solve_ground_state(params, SolverOpts(grid=grid))


# ---------------------------------------------------------------------------
# the in-place resolvent inverse


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.log_spaced()


def test_lu_solve_matches_scipy_to_round_off(grid):
    from scipy.linalg import lu_factor, lu_solve

    A = fraclap_matrix(grid, 0.5, 4.0)
    A[np.diag_indices_from(A)] += 1.0
    b = h_beta_eval(grid.nodes, 4.0)
    x = solver_mod.lu_solve(solver_mod.lu_factor(A.copy()), b)
    want = lu_solve(lu_factor(A), b)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))
    solver_mod._backward_error(A @ x, np.max(np.abs(A)), x, b)  # raises above 1e-10


def _resolvent_matrix(N, s, mu, M):
    A = fraclap_matrix(RadialGrid.log_spaced(num=M, N=N), s, N + 2.0 * s)
    A[np.diag_indices_from(A)] += mu
    return A


@pytest.mark.parametrize("N,s,mu,M", [
    (3, 0.5, 1.0, 64),       # one block: one np.linalg.inv call
    (3, 0.5, 1.0, 128),
    (2, 0.95, 0.01, 400),
    (5, 0.1, 100.0, 600),
    (3, 0.5, 1.0, 1201),     # a partial last block
])
def test_lu_factor_inverts_in_place(N, s, mu, M):
    A = _resolvent_matrix(N, s, mu, M)
    want = np.linalg.inv(A)
    inv = lu_factor(A)
    assert inv is A
    assert np.max(np.abs(inv - want)) <= 1e-12 * np.max(np.abs(want))
    if M <= solver_mod._GJ_BLOCK:
        assert np.array_equal(inv, want)


def test_lu_factor_allocates_a_few_blocks_of_columns():
    import tracemalloc

    M = 600
    A = _resolvent_matrix(3, 0.5, 1.0, M)
    tracemalloc.start()
    try:
        lu_factor(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 0.47 M^2 doubles; np.linalg.inv allocates 1.0 M^2 that
    # tracemalloc sees
    assert peak <= 3 * solver_mod._GJ_BLOCK * M * 8


@pytest.mark.parametrize("A,match", [
    ([[1.0, 2.0], [2.0, 4.0]], "singular resolvent matrix"),  # pivot 2 is 0
    ([[0.0, 0.0], [0.0, 1.0]], "singular resolvent matrix"),  # pivot 1 is 0
    ([[1.0, np.nan], [0.0, 1.0]], "non-finite"),
    ([[1.0, 0.0], [-np.inf, 1.0]], "non-finite"),
])
def test_lu_factor_rejects_singular_and_non_finite_matrices(A, match):
    with pytest.raises(RuntimeError, match=match):
        solver_mod.lu_factor(np.array(A))
