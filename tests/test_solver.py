"""Tests for the ground-state solver and its energy diagnostics.

The expensive fixtures (full solves on the default grid) are module-scoped
and shared; frozen reference numbers below were produced by this package on
the default 1200-node grid and are quoted to full precision in comments next
to the assertions that use them.
"""

import math

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
    apply_inverse_operator,
    dilation_derivative,
    h_beta_eval,
    h_beta_function,
    pohozaev_check,
    residual,
    riesz_convolve_radial,
    solve_ground_state,
    sphere_surface_area,
    volume_integral,
)

SQRT_17 = math.sqrt(1.7)


@pytest.fixture(scope="module")
def params():
    return ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                         nonlinearity=NonlinearitySpec.homogeneous(1.7))


@pytest.fixture(scope="module")
def solution(params):
    return solve_ground_state(params)


# ---------------------------------------------------------------------------
# nonlinearity descriptions


def test_homogeneous_sqrt_r_convention():
    spec = NonlinearitySpec.homogeneous(1.7)
    assert spec.is_homogeneous
    assert spec.f_slope == SQRT_17
    assert spec.C_bar == SQRT_17 and spec.C_under == SQRT_17
    assert math.isinf(spec.delta)
    assert_allclose(spec.f(2.0), SQRT_17 * 2.0 ** 0.7, rtol=1e-15)
    assert_allclose(spec.F(2.0), SQRT_17 / 1.7 * 2.0 ** 1.7, rtol=1e-15)
    assert spec.mass_scale == SQRT_17 / 1.7


def test_homogeneous_power_convention():
    spec = NonlinearitySpec.homogeneous(1.7, convention="power")
    assert spec.f_slope == 1.7
    assert_allclose(spec.F(1.0), 1.0, rtol=1e-15)


def test_homogeneous_rejects_unknown_convention():
    with pytest.raises(ValueError):
        NonlinearitySpec.homogeneous(1.7, convention="unit")


def test_general_limit_slope_recovers_prefactor():
    spec = NonlinearitySpec.general(
        f=lambda t: SQRT_17 * np.power(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * np.power(t, 1.7),
        r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)
    assert not spec.is_homogeneous
    assert_allclose(spec.limit_slope(), SQRT_17, rtol=1e-12)
    with pytest.raises(ValueError):
        spec.f_slope


def test_general_rejects_nonvanishing_F_at_zero():
    with pytest.raises(ValueError):
        NonlinearitySpec.general(f=lambda t: t, F=lambda t: t + 0.01,
                                 r=1.7, C_bar=1.0, C_under=1.0, delta=1.0)


def test_general_rejects_mismatched_antiderivative():
    # F is 1 percent off being the antiderivative of f
    with pytest.raises(ValueError):
        NonlinearitySpec.general(
            f=lambda t: SQRT_17 * np.power(t, 0.7),
            F=lambda t: 1.01 * SQRT_17 / 1.7 * np.power(t, 1.7),
            r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)


@pytest.mark.parametrize("c_bar, c_under, delta", [
    (1.0, 2.0, 1.0),    # lower envelope above upper
    (1.0, 0.0, 1.0),    # lower envelope must be positive
    (1.0, 1.0, 0.0),    # empty near-zero range
])
def test_general_envelope_validation(c_bar, c_under, delta):
    with pytest.raises(ValueError):
        NonlinearitySpec.general(f=lambda t: t ** 0.7 * 1.7,
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
    for r in (5.0 / 3.0, 2.5):
        ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(r))


def test_general_kind_requires_sublinear_exponent():
    spec = NonlinearitySpec.general(f=lambda t: 2.0 * t,
                                    F=lambda t: t ** 2,
                                    r=2.0, C_bar=2.0, C_under=2.0, delta=1.0)
    with pytest.raises(ValueError):
        ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)


@pytest.mark.parametrize("r, expected", [
    (1.7, 10.0 / 3.0),   # slow regime: (N - alpha) / (2 - r)
    (1.9, 4.0),          # capped at N + 2s
    (2.2, 4.0),          # superlinear part of the window: always N + 2s
])
def test_predicted_tail_exponent(r, expected):
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                      nonlinearity=NonlinearitySpec.homogeneous(r))
    assert_allclose(p.predicted_tail_exponent(), expected, rtol=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(damping=0.0),
    dict(damping=1.5),
    dict(tolerance=0.0),
    dict(max_iterations=0),
])
def test_solver_opts_validation(kwargs):
    with pytest.raises(ValueError):
        SolverOpts(**kwargs)


# ---------------------------------------------------------------------------
# converged solve on the default grid


def test_solution_profile_is_positive_and_monotone(solution):
    vals = solution.u.values
    assert np.all(vals > 0.0)
    sup = float(np.max(vals))
    assert np.max(np.diff(vals)) <= 1e-9 * sup


def test_solution_matches_frozen_run(solution):
    # values from a converged run of this solver on the default grid:
    # sup u = 0.037811335031885655, ||u||_r = 13.948841354250574
    assert_allclose(np.max(solution.u.values), 0.037811335031885655, rtol=1e-9)
    assert_allclose(solution.norm_r, 13.948841354250574, rtol=1e-9)


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
    assert solution.mass_F == spec.mass_scale * solution.norm_r ** 1.7
    # independently integrated mass agrees (measured: exact)
    direct = volume_integral(spec.F_of(solution.u))
    assert_allclose(solution.mass_F, direct, rtol=1e-12)


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
    pert = RadialFunction(grid=grid, values=vals,
                          tail=(vals[-1] * grid.r_max ** u.tail_exponent,
                                u.tail_exponent),
                          value_at_origin=u.value_at_origin + 0.1)
    shifted = Solution(u=pert, params=params, residual_sup=0.0,
                       pohozaev_defect=0.0, iterations=0,
                       norm_r=solution.norm_r, mass_F=solution.mass_F)
    sup_pert = float(np.max(np.abs(residual(shifted).values)))
    assert sup_pert > 100.0 * solution.residual_sup


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
    assert dev <= 1e-2   # measured 1.6e-4


def test_general_kind_reproduces_homogeneous_solve(solution):
    spec = NonlinearitySpec.general(
        f=lambda t: SQRT_17 * np.power(t, 0.7),
        F=lambda t: SQRT_17 / 1.7 * np.power(t, 1.7),
        r=1.7, C_bar=SQRT_17, C_under=SQRT_17, delta=10.0)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    s = solve_ground_state(p)
    # same arithmetic along both code paths (measured: bitwise identical)
    assert_allclose(s.u.values, solution.u.values, rtol=1e-13)
    assert_allclose(s.mass_F, solution.mass_F, rtol=1e-13)


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
    rhs = RadialFunction(grid=grid, values=b,
                         tail=(b[-1] * grid.r_max ** om, om),
                         value_at_origin=float(b[0]))
    w = apply_inverse_operator(rhs, 0.5, 1.0)
    dev = np.max(np.abs(w.values - u.values) / u.values)
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
    prod = RadialFunction.from_samples(solution.u.grid, conv.values * fu.values,
                                       tail_exponent=fu.tail_exponent + 1.0)
    assert volume_integral(prod) > 0.0   # measured 13.7


# ---------------------------------------------------------------------------
# energy identities and dilation


def test_pohozaev_defect_is_small(solution):
    i_val, p_val, defect = pohozaev_check(solution)
    assert i_val > 0.0
    assert defect == solution.pohozaev_defect
    assert defect <= 1e-7   # measured 2.6e-9


def test_dilation_derivative_matches_identity(solution):
    """The numerical d/dt of the energy at t=1 equals the identity's value.

    Agreement is judged against the size of the identity's individual terms
    (|P| / defect), the same scale the defect itself is measured on.
    """
    fd = dilation_derivative(solution)
    _, p_val, defect = pohozaev_check(solution)
    term_scale = abs(p_val) / defect
    assert abs(fd - p_val) <= 0.05 * term_scale   # measured 8.4e-5 of scale


# ---------------------------------------------------------------------------
# solution record validation and failure modes


def test_solution_rejects_sign_changing_profile(solution, params):
    grid = solution.u.grid
    vals = solution.u.values.copy()
    vals[3] = -vals[3]
    bad = RadialFunction(grid=grid, values=vals,
                         tail=solution.u.tail,
                         value_at_origin=solution.u.value_at_origin)
    with pytest.raises(ValueError):
        Solution(u=bad, params=params, residual_sup=0.0, pohozaev_defect=0.0,
                 iterations=0, norm_r=1.0, mass_F=1.0)


def test_solution_rejects_the_zero_profile(params):
    grid = RadialGrid.log_spaced(num=64)
    zero = RadialFunction(grid=grid, values=np.zeros(grid.size),
                          tail=(0.0, 4.0), value_at_origin=0.0)
    with pytest.raises(ValueError, match="strictly positive"):
        Solution(u=zero, params=params, residual_sup=0.0, pohozaev_defect=0.0,
                 iterations=0, norm_r=0.0, mass_F=0.0)


def test_solution_rejects_increasing_profile(solution, params):
    grid = solution.u.grid
    vals = solution.u.values[::-1].copy()
    bad = RadialFunction(grid=grid, values=vals,
                         tail=(vals[-1] * grid.r_max ** 4.0, 4.0),
                         value_at_origin=float(vals[0]))
    with pytest.raises(ValueError):
        Solution(u=bad, params=params, residual_sup=0.0, pohozaev_defect=0.0,
                 iterations=0, norm_r=1.0, mass_F=1.0)


def test_iteration_cap_raises(params):
    with pytest.raises(NonConvergenceError):
        solve_ground_state(params, SolverOpts(max_iterations=3))


def test_grid_dimension_mismatch(params):
    grid2 = RadialGrid.log_spaced(N=2)
    with pytest.raises(ValueError):
        solve_ground_state(params, SolverOpts(grid=grid2))


def test_nonpositive_initial_profile_rejected(params):
    grid = RadialGrid.log_spaced()
    zero = RadialFunction(grid=grid, values=np.zeros(grid.nodes.size),
                          tail=(0.0, 4.0), value_at_origin=0.0)
    with pytest.raises(ValueError):
        solve_ground_state(params, SolverOpts(grid=grid, initial_profile=zero))


def test_vanishing_nonlinearity_collapses():
    spec = NonlinearitySpec.general(f=lambda t: 0.0 * t, F=lambda t: 0.0 * t,
                                    r=1.7, C_bar=1.0, C_under=0.5, delta=1.0)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    with pytest.raises(ZeroCollapseError):
        solve_ground_state(p)


def test_non_finite_right_hand_side_is_a_nonconvergence():
    # f and F are declared on [0, 0.4] and turn NaN above 0.5; the first
    # iterate reaches about 1, so the NaN goes through the resolvent
    def f(t):
        return np.where(t > 0.5, np.nan, SQRT_17 * np.power(t, 0.7))

    def F(t):
        return np.where(t > 0.5, np.nan, SQRT_17 / 1.7 * np.power(t, 1.7))

    spec = NonlinearitySpec.general(f=f, F=F, r=1.7, C_bar=SQRT_17,
                                    C_under=SQRT_17, delta=0.4)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    grid = RadialGrid.log_spaced(num=200)
    with pytest.raises(NonConvergenceError, match="non-finite iterate"):
        solve_ground_state(p, SolverOpts(grid=grid))


# ---------------------------------------------------------------------------
# the right-hand-side map


def nudged_grid(N):
    """A grid off the geometric progression, so operators are assembled
    row by row."""
    base = RadialGrid.log_spaced(num=150, N=N)
    nodes = base.nodes.copy()
    nodes[70] *= 1.0 + 1e-9
    return RadialGrid(nodes=nodes, weights=base.weights, r_max=base.r_max, N=N)


def general_spec():
    """f(t) = t^0.7 + t, with F its antiderivative; f / t^0.7 lies in [1, 2]
    on [0, 1]."""
    return NonlinearitySpec.general(
        f=lambda t: np.power(t, 0.7) + t,
        F=lambda t: np.power(t, 1.7) / 1.7 + 0.5 * t * t,
        r=1.7, C_bar=2.0, C_under=1.0, delta=1.0)


@pytest.mark.parametrize("N,alpha,omega", [(2, 1.0, 3.0), (3, 2.0, 10.0 / 3.0)])
@pytest.mark.parametrize("geometric", [True, False])
@pytest.mark.parametrize("kind", ["homogeneous", "general"])
def test_rhs_map_matches_the_convolution_path_bitwise(N, alpha, omega,
                                                      geometric, kind):
    spec = NonlinearitySpec.homogeneous(1.7) if kind == "homogeneous" \
        else general_spec()
    p = ProblemParams(N=N, s=0.5, alpha=alpha, mu=1.0, nonlinearity=spec)
    grid = RadialGrid.log_spaced(num=150, N=N) if geometric else nudged_grid(N)
    assert radial_ops._is_geometric(grid) == geometric
    u = RadialFunction.from_samples(grid, 0.8 * h_beta_eval(grid.nodes, omega),
                                    tail_exponent=omega)
    want = riesz_convolve_radial(spec.F_of(u), alpha).values \
        * spec.f_values(u.values)
    rhs = solver_mod._RhsMap(grid, p, omega)
    assert np.array_equal(rhs(u.values), want)
    assert np.array_equal(rhs(u.values, u.value_at_origin), want)


def test_rhs_map_rejects_a_divergent_convolution(params):
    # F(u) decays like rho^(-1.7 * 1.1), slower than I_2 can integrate
    with pytest.raises(ValueError, match="must exceed alpha"):
        solver_mod._RhsMap(RadialGrid.log_spaced(num=64), params, 1.1)


# ---------------------------------------------------------------------------
# operator reuse and resolvent safety


def test_second_solve_reuses_operators(params, monkeypatch):
    calls = {"fraclap": 0, "riesz": 0}

    def counted(kind, builder):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return builder(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(radial_ops, "_fraclap_row",
                        counted("fraclap", radial_ops._fraclap_row))
    monkeypatch.setattr(radial_ops, "_riesz_row",
                        counted("riesz", radial_ops._riesz_row))
    # a grid of its own, so the first solve is cold whatever ran before
    grid = RadialGrid.log_spaced(r_min=2e-3, num=200)
    first = solve_ground_state(params, SolverOpts(grid=grid))
    # cold: the row builders ran (on a geometric grid only for the end rows)
    assert calls["fraclap"] > 0 and calls["riesz"] > 0
    calls.update(fraclap=0, riesz=0)
    second = solve_ground_state(params, SolverOpts(grid=grid))
    assert calls == {"fraclap": 0, "riesz": 0}
    assert np.array_equal(first.u.values, second.u.values)


def test_misdeclared_envelope_refits_the_tail_closure(monkeypatch):
    # f = sqrt(1.9) t^0.9 declared with r = 1.7: the closure starts at the
    # r = 1.7 exponent 10/3, the converged tail decays like rho^(-(N+2s)),
    # and one refit round closes with 4
    slope = math.sqrt(1.9)
    spec = NonlinearitySpec.general(
        f=lambda t: slope * np.power(t, 0.9),
        F=lambda t: slope / 1.9 * np.power(t, 1.9),
        r=1.7, C_bar=slope, C_under=slope, delta=1.0)
    p = ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0, nonlinearity=spec)
    closures = []
    exact = solver_mod.fraclap_matrix

    def counted(grid, s, tail_omega):
        closures.append(tail_omega)
        return exact(grid, s, tail_omega)

    monkeypatch.setattr(solver_mod, "fraclap_matrix", counted)
    sol = solve_ground_state(p, SolverOpts(grid=RadialGrid.log_spaced(num=400)))
    assert len(closures) == 2
    assert_allclose(closures[0], 10.0 / 3.0, rtol=1e-15)
    assert sol.u.tail_exponent == 4.0
    # measured: 325 iterations, residual 3.3e-10
    assert sol.residual_sup <= 1e-6 * float(np.max(sol.u.values))


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
