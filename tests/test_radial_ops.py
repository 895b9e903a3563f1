"""Tests for fracradial.radial_ops.

Angular-kernel reference values were frozen from mpmath at mp.dps = 30
(nested Gauss-Legendre sphere quadrature).  Operator-level checks compare
the grid quadrature against the independent closed forms in specfun, which
have their own frozen-reference tests.
"""

import math
from collections import OrderedDict

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracradial.radial_ops as radial_ops
from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
    angular_kernel,
    apply_inverse_operator,
    frac_laplacian_on_grid,
    frac_laplacian_radial,
    fraclap_matrix,
    h_beta_function,
    riesz_convolve_radial,
    sphere_surface_area,
    volume_integral,
)
from fracradial.specfun import (
    ProfileParams,
    frac_lap_h_exact,
    h_beta_eval,
    riesz_constant,
)


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.log_spaced()


def interior(grid, lo=0.1, hi=50.0):
    return (grid.nodes >= lo) & (grid.nodes <= hi)


# ----------------------------------------------------------------------------
# sphere area and angular kernel
# ----------------------------------------------------------------------------

def test_sphere_surface_area():
    assert_allclose(sphere_surface_area(2), 2.0 * math.pi, rtol=1e-15)
    assert_allclose(sphere_surface_area(3), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(sphere_surface_area(4), 2.0 * math.pi ** 2, rtol=1e-15)
    with pytest.raises(ValueError):
        sphere_surface_area(0)


# mpmath mp.dps = 30, direct quadrature of int_{S^{N-1}} |r e1 - rho w|^p.
ANGULAR_KERNEL_CASES = [
    (1.0, 2.0, -3.0, 2, 1.484988135617251),
    (1.3, 0.7, -5.0, 4, 10.146996992267686),
    (1.0, 1.01, -6.0, 5, 48351.46732341768),
    (1.0, 37.0, -4.2, 5, 6.8230912003021275e-06),
]


@pytest.mark.parametrize("r,rho,p,N,expected", ANGULAR_KERNEL_CASES)
def test_angular_kernel_reference_values(r, rho, p, N, expected):
    assert_allclose(angular_kernel(r, rho, p, N), expected, rtol=1e-9)


def test_angular_kernel_closed_form_dimension_three():
    # p = -1: 2 pi / (r rho) * ((r+rho) - |r-rho|) = 4 pi min / (r rho)
    assert_allclose(angular_kernel(1.0, 2.0, -1.0, 3), 2.0 * math.pi, rtol=1e-14)


@pytest.mark.parametrize("r,rho,p,N", [
    (0.4, 1.9, -4.0, 3),
    (0.7, 1.1, -3.3, 4),
    (2.0, 11.0, -6.2, 2),
])
def test_angular_kernel_symmetric(r, rho, p, N):
    assert_allclose(angular_kernel(r, rho, p, N),
                    angular_kernel(rho, r, p, N), rtol=1e-12)


def test_angular_kernel_center_values():
    """With one point at the origin the integrand is constant on the sphere."""
    assert_allclose(angular_kernel(0.0, 2.0, -3.0, 3),
                    sphere_surface_area(3) * 2.0 ** -3.0, rtol=1e-14)
    assert angular_kernel(0.0, 0.0, 1.5, 3) == 0.0
    assert_allclose(angular_kernel(0.0, 0.0, 0.0, 4),
                    sphere_surface_area(4), rtol=1e-15)


def test_angular_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        angular_kernel(1.0, 1.0, -3.0, 3)  # coincident radii, singular p
    with pytest.raises(ValueError):
        angular_kernel(0.0, 0.0, -1.0, 3)
    with pytest.raises(ValueError):
        angular_kernel(-1.0, 2.0, -3.0, 3)
    with pytest.raises(ValueError):
        angular_kernel(1.0, 2.0, -3.0, 1)


# p >= 0, coincident radii included (Gauss's sum); mpmath mp.dps = 30, the
# same direct quadrature of the polar integral.
ANGULAR_KERNEL_NONNEGATIVE_CASES = [
    (1.0, 2.0, 0.5, 2, 9.029959566053718),
    (0.7, 1.3, 3.0, 4, 67.79229593556829),
    (1.0, 1.0, 0.5, 2, 6.777704678351832),
    (1.0, 1.0, 2.0, 4, 39.47841760435743),
    (2.0, 2.0, 1.5, 5, 122.5027261420061),
]


@pytest.mark.parametrize("r,rho,p,N,expected", ANGULAR_KERNEL_NONNEGATIVE_CASES)
def test_angular_kernel_nonnegative_exponents(r, rho, p, N, expected):
    assert_allclose(angular_kernel(r, rho, p, N), expected, rtol=1e-13)


# k_p(1, 1 + gap) at gaps 1e-13, 1e-11 and 1e-9, the deepest PV grading:
# mpmath mp.dps = 50 on the 2F1 closed form.  A table built at q = 1 + gap
# was 1.6e-3 off at gap 1e-13.
KERNEL_TABLE_CASES = [
    (2, -3.0, [1.9999999999998998e+26, 1.9999999999900004e+22, 1.9999999989999997e+18]),
    (4, -5.0, [4.1887902047857624e+26, 4.18879020472356e+22, 4.1887901985032054e+18]),
    (2, -0.5, [7.416297951434883, 7.416291131482751, 7.41622293030949]),
]


@pytest.mark.parametrize("N,p,expected", KERNEL_TABLE_CASES)
def test_kernel_table_at_deep_gaps(N, p, expected):
    got = radial_ops._kernel_table(N, p).eval_gap(np.array([1e-13, 1e-11, 1e-9]))
    assert_allclose(got, expected, rtol=1e-10)


# From gap 49 on, the table sums the multipole series q^p 2F1(-p/2,
# (2-N-p)/2; N/2; q^-2) to round-off.  Measured against the closed form:
# 5.6e-16 on gaps [49, 1e8], and a step of at most 2.4e-15 across the seam
# with the spline.  The two-term expansion it replaced was 3.1e-10 off at
# gap 49 for (N, p) = (2, -3).
@pytest.mark.parametrize("N,p", [(2, -3.0), (2, 1.0), (4, -3.0), (5, -2.5)])
def test_kernel_table_far_branch_and_seam(N, p):
    table = radial_ops._kernel_table(N, p)
    seam = np.array([49.0 * (1.0 - 1e-12), 49.0])
    got, want = table.eval_gap(seam), radial_ops._kernel_at_gap(seam, p, N)
    assert abs(got[0] / got[1] - want[0] / want[1]) <= 2e-11
    far = np.array([49.0, 50.0, 100.0, 199.0, 1e3, 1e5, 1e8])
    assert_allclose(table.eval_gap(far), radial_ops._kernel_at_gap(far, p, N),
                    rtol=2e-11)


def test_closed_form_kernel_matches_dimension_three():
    rho = 1.0 + np.geomspace(1e-12, 40.0, 60)
    for p in (-6.0, -4.5, -3.0, -2.0, -1.0, 1.5):
        got = radial_ops._kernel_at_gap(rho - 1.0, p, 3)
        assert_allclose(got, radial_ops._kernel3_arrays(1.0, rho, p, rho - 1.0),
                        rtol=1e-13)


# The kernel table's nodes (uniform in log gap), a geometric grid's log
# nodes, and scattered nodes; queries at the ends, beyond them and between.
@pytest.mark.parametrize("x", [
    np.linspace(math.log(1e-13), math.log(49.0), 2400),
    np.log(np.geomspace(1e-3, 1e3, 600)),
    np.sort(np.random.default_rng(7).uniform(-2.0, 3.0, 9)),
    np.array([0.0, 0.1, 0.5, 2.0]),
], ids=["table", "geometric", "scattered", "four-nodes"])
def test_cubic_spline_matches_scipy_not_a_knot(x):
    from scipy.interpolate import CubicSpline

    y = np.cos(0.7 * x) + np.sin(2.0 * x)
    inside = np.random.default_rng(3).uniform(x[0], x[-1], 2000)
    xq = np.concatenate([x, inside, [x[0] - 0.2, x[-1] + 0.2]])
    got = radial_ops._CubicSpline(x, y)(xq)
    assert np.max(np.abs(got - CubicSpline(x, y)(xq))) <= 1e-13


def test_lu_solve_matches_scipy_to_round_off(grid):
    from scipy.linalg import lu_factor, lu_solve

    A = fraclap_matrix(grid, 0.5, 4.0)
    A[np.diag_indices_from(A)] += 1.0
    b = h_beta_eval(grid.nodes, 4.0)
    x = radial_ops.lu_solve(radial_ops.lu_factor(A), b)
    want = lu_solve(lu_factor(A), b)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))
    radial_ops._backward_error(A, x, b)  # raises above 1e-10


@pytest.mark.parametrize("A,match", [
    ([[1.0, 2.0], [2.0, 4.0]], "singular resolvent matrix"),  # pivot 2 is 0
    ([[0.0, 0.0], [0.0, 1.0]], "singular resolvent matrix"),  # pivot 1 is 0
    ([[1.0, np.nan], [0.0, 1.0]], "non-finite"),
    ([[1.0, 0.0], [-np.inf, 1.0]], "non-finite"),
])
def test_lu_factor_rejects_singular_and_non_finite_matrices(A, match):
    with pytest.raises(RuntimeError, match=match):
        radial_ops.lu_factor(np.array(A))


# ----------------------------------------------------------------------------
# grid and function representation
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3, 5])
def test_grid_weights_integrate_constants_exactly(N):
    g = RadialGrid.log_spaced(num=64, N=N)
    want = (g.r_max ** N - g.nodes[0] ** N) / N
    assert_allclose(np.sum(g.weights), want, rtol=1e-13)


def test_grid_weights_integrate_log_linear_data_exactly():
    """The weights are hat integrals in t = log r, so data linear in t is
    integrated exactly: int t e^{Nt} dt = e^{Nt} (t/N - 1/N^2)."""
    g = RadialGrid.log_spaced(num=97, N=3)
    t = g.log_nodes

    def antider(tt):
        return math.exp(3.0 * tt) * (tt / 3.0 - 1.0 / 9.0)

    assert_allclose(np.sum(g.weights * t), antider(t[-1]) - antider(t[0]),
                    rtol=1e-12)


def test_grid_validation():
    nodes = np.geomspace(1e-3, 1e3, 32)
    w = np.ones(32)
    with pytest.raises(ValueError):
        RadialGrid(nodes=nodes[:4], weights=w[:4], r_max=float(nodes[3]), N=3)
    with pytest.raises(ValueError):
        RadialGrid(nodes=nodes[::-1], weights=w, r_max=1e-3, N=3)
    with pytest.raises(ValueError):
        RadialGrid(nodes=np.concatenate(([0.0], nodes[1:])), weights=w,
                   r_max=1e3, N=3)
    with pytest.raises(ValueError):
        RadialGrid(nodes=nodes, weights=-w, r_max=1e3, N=3)
    with pytest.raises(ValueError):
        RadialGrid(nodes=nodes, weights=w, r_max=500.0, N=3)
    with pytest.raises(ValueError):
        RadialGrid(nodes=nodes, weights=w, r_max=1e3, N=1)
    with pytest.raises(ValueError):
        RadialGrid.log_spaced(r_min=2.0, r_max=1.0)


def test_from_samples_origin_default(grid):
    u = RadialFunction.from_samples(grid, h_beta_eval(grid.nodes, 2.0),
                                    tail_exponent=2.0)
    # quadratic extrapolation through r_1, r_2 with r_1 = 1e-3
    assert_allclose(u.value_at_origin, 1.0, rtol=1e-10)


def test_from_samples_rejects_nonpositive_tail(grid):
    vals = h_beta_eval(grid.nodes, 2.0)
    for omega in (0.0, -1.0):
        with pytest.raises(ValueError, match="tail exponent must be positive"):
            RadialFunction.from_samples(grid, vals, tail_exponent=omega)


@pytest.mark.parametrize("omega", [0.0, -1.0])
def test_radial_function_rejects_nonpositive_exponent_even_when_constant(grid, omega):
    # a constant function has no power tail to close its integrals with
    with pytest.raises(ValueError, match="tail exponent must be positive"):
        RadialFunction(grid=grid, values=np.full(grid.size, 2.5),
                       tail=(2.5, omega), value_at_origin=2.5)


def test_radial_function_validation(grid):
    vals = h_beta_eval(grid.nodes, 2.0)
    with pytest.raises(ValueError):
        RadialFunction(grid=grid, values=vals, tail=(2.0 * vals[-1] * grid.r_max ** 2, 2.0),
                       value_at_origin=1.0)
    with pytest.raises(ValueError):
        RadialFunction(grid=grid, values=vals, tail=(vals[-1], -1.0),
                       value_at_origin=1.0)
    with pytest.raises(ValueError):
        RadialFunction(grid=grid, values=vals[:-1], tail=(1.0, 2.0),
                       value_at_origin=1.0)


def test_evaluate_in_all_three_regions(grid):
    u = h_beta_function(grid, 4.0)
    assert u.evaluate(0.0) == pytest.approx(u.value_at_origin)
    assert_allclose(u.evaluate(grid.nodes[37]), u.values[37], rtol=1e-15)
    r_out = 10.0 * grid.r_max
    assert_allclose(u.evaluate(r_out), u.tail_amplitude * r_out ** -4.0, rtol=1e-15)
    out = u.evaluate(np.array([0.0, 1.0, 2e3]))
    assert out.shape == (3,)


def test_h_beta_function_matches_profile(grid):
    u = h_beta_function(grid, 3.5)
    assert_allclose(u.values, (1.0 + grid.nodes ** 2) ** -1.75, rtol=1e-15)
    assert u.tail_exponent == 3.5
    assert u.value_at_origin == 1.0


# ----------------------------------------------------------------------------
# fractional Laplacian
# ----------------------------------------------------------------------------

def test_fraclap_bump_identity_on_grid(grid):
    """(-Delta)^{1/2} of (1+r^2)^{-1} is exactly 2 (1+r^2)^{-2} in R^3."""
    u = h_beta_function(grid, 2.0)
    got = frac_laplacian_on_grid(u, 0.5)
    want = 2.0 * h_beta_eval(grid.nodes, 4.0)
    sel = interior(grid)
    assert np.max(np.abs(got[sel] / want[sel] - 1.0)) < 1e-3


def test_fraclap_on_grid_matches_closed_form(grid):
    u = h_beta_function(grid, 3.5)
    got = frac_laplacian_on_grid(u, 0.5)
    p = ProfileParams(3, 0.5, 3.5)
    sel = interior(grid)
    want = frac_lap_h_exact(grid.nodes[sel], p)
    assert np.max(np.abs(got[sel] / want - 1.0)) < 1e-3


@pytest.mark.parametrize("N,s,beta,min_order", [
    (3, 0.5, 2.0, 2.7),    # measured mean order 2.99
    (3, 0.5, 3.5, 2.7),    # 2.94
    (3, 0.25, 3.0, 2.7),   # 2.95
    (2, 0.5, 2.5, 1.8),    # 2.04; its order from 300 to 600 nodes is 0.88
])
def test_oracle_error_converges_under_refinement(N, s, beta, min_order):
    """Mean observed order of the oracle error on [0.1, 50] from 150 to
    1200 nodes, each refinement halving the log spacing."""
    p = ProfileParams(N, s, beta)
    errors = []
    for M in (150, 300, 600, 1200):
        g = RadialGrid.log_spaced(num=M, N=N)
        got = frac_laplacian_on_grid(h_beta_function(g, beta), s)
        sel = interior(g)
        want = frac_lap_h_exact(g.nodes[sel], p)
        errors.append(np.max(np.abs(got[sel] / want - 1.0)))
    assert math.log2(errors[0] / errors[-1]) / 3.0 >= min_order


@pytest.mark.parametrize("r_at", [0.137, 1.61803, 23.7])
def test_fraclap_pointwise_off_node(grid, r_at):
    u = h_beta_function(grid, 3.5)
    got = frac_laplacian_radial(u, 0.5, at=r_at)
    want = frac_lap_h_exact(r_at, ProfileParams(3, 0.5, 3.5))
    assert_allclose(got, want, rtol=1e-5)


def test_fraclap_pointwise_quarter_order(grid):
    got = frac_laplacian_radial(h_beta_function(grid, 3.0), 0.25, at=2.5)
    want = frac_lap_h_exact(2.5, ProfileParams(3, 0.25, 3.0))
    assert_allclose(got, want, rtol=1e-3)


def test_fraclap_pointwise_dimension_two():
    g = RadialGrid.log_spaced(num=800, N=2)
    got = frac_laplacian_radial(h_beta_function(g, 2.5), 0.5, at=7.0)
    want = frac_lap_h_exact(7.0, ProfileParams(2, 0.5, 2.5))
    assert_allclose(got, want, rtol=1e-3)


# Just below a power of two the float spacing halves, so r + xi and r - xi
# round differently and the PV window's odd moment kept the difference while
# the kernel was read at the rounded radii: at s = 1/2 these radii were
# 5.7e-6 to 1.4e-4 off, against <= 1.5e-7 elsewhere, and at s = 3/4 their
# relative errors were 6.7 to 97.  Read at the offsets xi themselves, they are <= 1.6e-7
# off at s = 1/2 and <= 5.4e-7 at s = 3/4 (default grid).
@pytest.mark.parametrize("N,s,beta", [(3, 0.5, 3.0), (2, 0.5, 2.5), (3, 0.75, 3.0)])
def test_fraclap_pointwise_at_powers_of_two(N, s, beta):
    g = RadialGrid.log_spaced(N=N)
    radii = [0.25, 0.5, 1.0, 2.0, 4.0]
    got = [frac_laplacian_radial(h_beta_function(g, beta), s, at=r) for r in radii]
    want = frac_lap_h_exact(np.array(radii), ProfileParams(N, s, beta))
    assert_allclose(got, want, rtol=1e-6)


def test_fraclap_rejects_bad_arguments(grid):
    u = h_beta_function(grid, 2.0)
    for s in (0.0, 1.0, 1.2, -0.5):
        with pytest.raises(ValueError):
            frac_laplacian_radial(u, s, at=1.0)
        with pytest.raises(ValueError):
            frac_laplacian_on_grid(u, s)
    with pytest.raises(ValueError):
        frac_laplacian_radial(u, 0.5, at=0.0)
    with pytest.raises(ValueError):
        frac_laplacian_radial(u, 0.5, at=2.0 * grid.r_max)


def test_fraclap_matrix_consistent_with_row_apply(grid):
    u = h_beta_function(grid, 2.0)
    A = fraclap_matrix(grid, 0.5, tail_omega=2.0)
    via_matrix = A @ u.values
    direct = frac_laplacian_on_grid(u, 0.5)
    assert_allclose(via_matrix, direct, rtol=1e-8,
                    atol=1e-12 * np.max(np.abs(direct)))


# ----------------------------------------------------------------------------
# Riesz potential
# ----------------------------------------------------------------------------

def test_riesz_reference_point(grid):
    # I_2 * h_5 at r = 1 in R^3: analytically 1/(3 sqrt(2)); the same value
    # came out of a 40-digit nested sphere quadrature
    v = riesz_convolve_radial(h_beta_function(grid, 5.0), 2.0)
    assert_allclose(v.evaluate(1.0), 0.23570226311321514, rtol=1e-4)


def test_riesz_origin_value(grid):
    # I_2 * h_5 at the origin: C_{3,2} * 4 pi * int rho (1+rho^2)^{-5/2} = 1/3
    v = riesz_convolve_radial(h_beta_function(grid, 5.0), 2.0)
    assert_allclose(v.value_at_origin, 1.0 / 3.0, rtol=1e-6)


def test_riesz_far_field_mass_law(grid):
    """r^{N-alpha} (I_alpha * g)(r) approaches C_{N,alpha} int g."""
    g5 = h_beta_function(grid, 5.0)
    v = riesz_convolve_radial(g5, 2.0)
    want = riesz_constant(3, 2.0) * volume_integral(g5)
    assert_allclose(v.evaluate(100.0) * 100.0, want, rtol=5e-2)


def test_riesz_is_linear_and_decreasing(grid):
    g1 = h_beta_function(grid, 5.0)
    g2 = RadialFunction(grid=grid, values=3.0 * g1.values,
                        tail=(3.0 * g1.tail_amplitude, 5.0),
                        value_at_origin=3.0)
    v1 = riesz_convolve_radial(g1, 2.0)
    v2 = riesz_convolve_radial(g2, 2.0)
    assert_allclose(v2.values, 3.0 * v1.values, rtol=1e-13)
    assert np.all(np.diff(v1.values) < 0.0)
    assert v1.value_at_origin > v1.values[0]


def test_riesz_rejects_divergent_input(grid):
    with pytest.raises(ValueError):
        riesz_convolve_radial(h_beta_function(grid, 2.0), 2.0)  # tail too fat
    with pytest.raises(ValueError):
        riesz_convolve_radial(h_beta_function(grid, 5.0), 3.0)  # alpha = N


# ----------------------------------------------------------------------------
# resolvent
# ----------------------------------------------------------------------------

def test_inverse_round_trip(grid):
    u = h_beta_function(grid, 2.0)
    mu = 0.7
    b_vals = frac_laplacian_on_grid(u, 0.5) + mu * u.values
    # with the exact tail model the round trip is tight on the whole grid
    rhs = RadialFunction.from_samples(grid, b_vals, tail_exponent=2.0)
    w = apply_inverse_operator(rhs, 0.5, mu)
    assert np.max(np.abs(w.values / u.values - 1.0)) < 1e-8
    # a slightly wrong tail exponent perturbs only the outer boundary
    # closure; 2.0000605626671963 is what a least-squares fit of log b over
    # the last decade of radii gives
    w2 = apply_inverse_operator(
        RadialFunction.from_samples(grid, b_vals, tail_exponent=2.0000605626671963),
        0.5, mu)
    sel = interior(grid)
    assert np.max(np.abs(w2.values[sel] / u.values[sel] - 1.0)) < 1e-8


def test_inverse_recovers_closed_form_solution(grid):
    """((-Delta)^{1/2} + mu)^{-1} applied to 2 h_4 + mu h_2 must return h_2,
    with the right-hand side built purely from closed forms."""
    mu = 1.0
    b_vals = 2.0 * h_beta_eval(grid.nodes, 4.0) + mu * h_beta_eval(grid.nodes, 2.0)
    rhs = RadialFunction.from_samples(grid, b_vals, tail_exponent=2.0)
    w = apply_inverse_operator(rhs, 0.5, mu)
    sel = interior(grid)
    want = h_beta_eval(grid.nodes[sel], 2.0)
    assert np.max(np.abs(w.values[sel] / want - 1.0)) < 1e-6


def test_inverse_large_mu_limit(grid):
    rhs = h_beta_function(grid, 4.0)
    w = apply_inverse_operator(rhs, 0.5, 1e6)
    assert np.max(np.abs(1e6 * w.values / rhs.values - 1.0)) < 1e-3


def test_inverse_rejects_bad_arguments(grid):
    rhs = h_beta_function(grid, 4.0)
    with pytest.raises(ValueError):
        apply_inverse_operator(rhs, 0.5, 0.0)
    with pytest.raises(ValueError):
        apply_inverse_operator(rhs, 1.5, 1.0)


# ----------------------------------------------------------------------------
# operator memo
# ----------------------------------------------------------------------------

def test_memo_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(radial_ops, "_MEMO", OrderedDict())
    limit = radial_ops._MEMO_LIMIT
    built = []

    def put(key):
        return radial_ops._memo(key, lambda: built.append(key) or key)

    for i in range(limit):
        put(("test", i))
    put(("test", 0))                      # a hit refreshes the oldest entry
    assert len(built) == limit
    for i in range(limit, limit + 5):
        put(("test", i))
    assert len(radial_ops._MEMO) == limit
    assert ("test", 0) in radial_ops._MEMO
    assert ("test", 1) not in radial_ops._MEMO


# ----------------------------------------------------------------------------
# structured assembly on geometric grids
# ----------------------------------------------------------------------------

def operator_args(kind, N):
    """(exponent, tail exponent) of the test operators: s = 1/2, alpha = N-1."""
    return (0.5, N + 1.0) if kind == "fraclap" else (N - 1.0, N + 0.7)


def densify(op):
    """The (M, M+1) rows and the tail coefficients of an operator."""
    return op.rows(), op.tails


def assert_structured_matches_loop(kind, N, exponent, omega):
    M = 150
    grid = RadialGrid.log_spaced(num=M, N=N)
    rows, tails = densify(radial_ops._structured_rows(grid, kind, exponent, omega))
    ref, ref_tails = radial_ops._rows_by_loop(grid, kind, exponent, omega)
    err = np.max(np.abs(rows - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert err.max() <= 1e-10
    assert np.max(np.abs(tails - ref_tails)) <= 1e-10 * np.max(np.abs(ref_tails))
    # the loop's scaled rows over offsets -6..6, interior rows
    scaled = ref[:, 1:] / grid.nodes[:, None] ** (
        -2.0 * exponent if kind == "fraclap" else exponent)
    inner = np.arange(12, M - 12)
    band = scaled[inner[:, None], inner[:, None] + np.arange(-6, 7)]
    assert np.max(np.ptp(band, axis=0)) <= 1e-12 * np.max(np.abs(band))


# Measured at M = 150 against the row-by-row loop, relative to each row's
# largest entry: the worst entry is 1.8e-11 (N = 3 Riesz, last column, where
# the closed-form kernel (r+rho)^e - |r-rho|^e cancels), 2e-14 elsewhere, and
# the tails agree to the bit.  The loop's own interior rows, divided by their
# scale, are shift-invariant to 1.3e-13 of the row maximum for every N.  For
# N = 2 and 4 that needs the spline kernel table to be read at the gap
# (big - m) / m: reading it at big / m - 1 spread those rows by 7.2e-8
# (3.5e-7 of the entry next to the diagonal for N = 2).  For N != 3 the
# kernel's 2F1 has a - b = 1 in every case but the N = 2 Riesz one (a = b);
# the N = 4 Riesz case is alpha = 3.
@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", ["fraclap", "riesz"])
def test_structured_assembly_matches_row_loop(kind, N):
    assert_structured_matches_loop(kind, N, *operator_args(kind, N))


# The same check where the kernel's 2F1 has a - b off the integers:
# (N, p) = (2, -1/2) and (4, -9/2); and at alpha = 1/2, where the diagonal
# cells' rows were 1.2e-10 apart while their kernel was read at the rounded
# radii r +- xi (now 8e-15, and 2.7e-11 at the N = 3 last column).
@pytest.mark.parametrize("kind,N,exponent,omega", [
    ("riesz", 2, 1.5, 2.7),
    ("fraclap", 4, 0.25, 4.5),
    ("riesz", 2, 0.5, 2.7),
    ("riesz", 3, 0.5, 3.7),
    ("riesz", 4, 0.5, 4.7),
])
def test_structured_assembly_matches_row_loop_generic_kernel(kind, N, exponent, omega):
    assert_structured_matches_loop(kind, N, exponent, omega)


def test_nudged_grid_is_assembled_row_by_row():
    base = RadialGrid.log_spaced(num=150)
    nodes = base.nodes.copy()
    nodes[70] *= 1.0 + 1e-9
    grid = RadialGrid(nodes=nodes, weights=base.weights, r_max=base.r_max, N=3)
    assert radial_ops._is_geometric(base)
    assert not radial_ops._is_geometric(grid)
    for kind in ("fraclap", "riesz"):
        exponent, omega = operator_args(kind, 3)
        rows, tails = densify(radial_ops._raw(grid, kind, exponent, omega))
        ref, ref_tails = radial_ops._rows_by_loop(grid, kind, exponent, omega)
        assert np.array_equal(rows, ref) and np.array_equal(tails, ref_tails)


def test_geometric_build_calls_row_builders_only_at_the_ends(monkeypatch):
    monkeypatch.setattr(radial_ops, "_MEMO", OrderedDict())
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
    grid = RadialGrid.log_spaced(num=200)
    for kind in ("fraclap", "riesz"):
        radial_ops._raw(grid, kind, *operator_args(kind, 3))
    ends = 2 * radial_ops._END_ROWS
    assert calls == {"fraclap": ends, "riesz": ends}


# The compact Riesz apply sums the products of the dense matvec in another
# order.  Measured at M = 150 against the row loop, the values agree to
# 2e-15 (N = 2), 1.5e-14 (N = 3, where the structured last column carries
# the closed form's cancellation) and 4e-15 (N = 4) relative, and the origin
# value agrees with the sum it replaced to 2.2e-16.
@pytest.mark.parametrize("N", [2, 3, 4])
def test_compact_riesz_apply_matches_dense_rows(N):
    M = 150
    grid = RadialGrid.log_spaced(num=M, N=N)
    alpha, omega = operator_args("riesz", N)
    g = h_beta_function(grid, omega)
    op = radial_ops._raw(grid, "riesz", alpha, omega)
    assert op.hi > op.lo                   # the interior is held compactly
    ref, ref_tails = radial_ops._rows_by_loop(grid, "riesz", alpha, omega)
    C = riesz_constant(N, alpha)
    x = np.concatenate(([g.value_at_origin], g.values))
    want = C * (ref @ x + ref_tails * g.tail_value_at_rmax)
    v = riesz_convolve_radial(g, alpha)
    assert np.max(np.abs(v.values / want - 1.0)) <= 1e-13
    # the origin value as the dense sum it replaced: the quadratic origin
    # model on [0, r_1], the cell rule on the grid, the analytic tail
    ctx = radial_ops._context(grid)
    r1 = grid.nodes[0]
    origin = r1 ** alpha * (g.value_at_origin / alpha
                            + (g.values[0] - g.value_at_origin) / (alpha + 2.0))
    gq = np.einsum("cqm,cm->cq", ctx.cell_cubw,
                   g.values[ctx.cell_base[:, None] + np.arange(4)])
    origin += np.sum(ctx.cell_w * ctx.cell_rho ** (alpha - N) * gq)
    origin += g.tail_value_at_rmax * grid.r_max ** alpha / (omega - alpha)
    origin *= C * sphere_surface_area(N)
    assert abs(v.value_at_origin / origin - 1.0) <= 1e-13


def test_memoised_riesz_operator_holds_O_of_M_floats():
    M = 600
    grid = RadialGrid.log_spaced(num=M)
    op = radial_ops._raw(grid, "riesz", *operator_args("riesz", 3))
    floats = sum(a.size for a in vars(op).values() if isinstance(a, np.ndarray))
    assert floats <= 40 * M


# ----------------------------------------------------------------------------
# volume integrals
# ----------------------------------------------------------------------------

def test_volume_integral_reference_values(grid):
    # int_{R^3} (1+|x|^2)^{-2} dx = pi^2 and its square integrates to pi^2/8
    u = h_beta_function(grid, 4.0)
    assert_allclose(volume_integral(u), math.pi ** 2, rtol=5e-4)
    assert_allclose(volume_integral(u, power=2.0), math.pi ** 2 / 8.0, rtol=5e-4)


def test_volume_integral_rejects_divergent_or_invalid(grid):
    with pytest.raises(ValueError):
        volume_integral(h_beta_function(grid, 2.0))  # 2 <= N = 3
    vals = h_beta_eval(grid.nodes, 4.0)
    vals[3] = -vals[3]
    signed = RadialFunction(grid=grid, values=vals,
                            tail=(vals[-1] * grid.r_max ** 4, 4.0),
                            value_at_origin=1.0)
    with pytest.raises(ValueError):
        volume_integral(signed, power=1.5)
