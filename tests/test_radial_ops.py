"""Tests for fracradial.radial_ops, through its public names.

Operator-level checks compare the grid quadrature against the independent
closed forms in specfun, which have their own frozen-reference tests.  The
quadrature's own pieces are tested in test_quadrature.py.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
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
    hyp2f1,
    riesz_constant,
)
from fracradial.solver import lu_factor, lu_solve


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.log_spaced()


def interior(grid, lo=0.1, hi=50.0):
    return (grid.nodes >= lo) & (grid.nodes <= hi)


# ----------------------------------------------------------------------------
# sphere area
# ----------------------------------------------------------------------------

def test_sphere_surface_area():
    assert_allclose(sphere_surface_area(2), 2.0 * math.pi, rtol=1e-15)
    assert_allclose(sphere_surface_area(3), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(sphere_surface_area(4), 2.0 * math.pi ** 2, rtol=1e-15)
    with pytest.raises(ValueError):
        sphere_surface_area(0)


# ----------------------------------------------------------------------------
# grid and function representation
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("N, beta", [(3, 10.0 / 3.0), (2, 2.5)], ids=["N3", "N2"])
@pytest.mark.parametrize("r_max, size, powers, rtol", [
    (1e6, 217, (1.0, 1.7, 2.0), 1e-13),   # measured <= 2.0e-14
    # at r_max = 1e3 h_beta is not yet a pure power, and q = 1 sits at the
    # tail closure's floor (1.6e-7 and 3.2e-8)
    (1e3, 1200, (1.7, 2.0), 1e-12),       # measured <= 1.9e-13
], ids=["1e6-217", "default"])
def test_volume_integral_of_h_beta_matches_closed_form(N, beta, r_max, size,
                                                       powers, rtol):
    """int_{R^N} h_beta^q = |S^{N-1}| B(N/2, (q beta - N)/2) / 2, by the
    trapezoid rule in log radius continued into both closures."""
    u = h_beta_function(RadialGrid(r_min=1e-3, r_max=r_max, size=size, N=N), beta)
    for q in powers:
        a, b = 0.5 * N, 0.5 * (q * beta - N)
        beta_fn = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        assert_allclose(volume_integral(u, q),
                        0.5 * sphere_surface_area(N) * beta_fn, rtol=rtol)


def test_grid_validation():
    for r_min, r_max, size, N in [
            (1e-3, 1e3, 31, 3),          # fewer than the floor, _MIN_NODES = 32
            (1e-3, 1e3, 32.5, 3),        # a fractional node count
            (0.0, 1e3, 32, 3),           # r_min must be positive
            (2.0, 1.0, 32, 3),           # r_min < r_max
            (1e-3, math.nan, 32, 3),
            (1e-3, 1e3, 32, 1),          # N >= 2
            (1e-3, 1e3, 32, 2.5),
            (1e-3, 1e200, 32, 3),        # r_max**N overflows the weights
    ]:
        with pytest.raises(ValueError, match="RadialGrid: "):
            RadialGrid(r_min=r_min, r_max=r_max, size=size, N=N)
    with pytest.raises(ValueError, match="need at least 32 nodes, got 16"):
        RadialGrid.log_spaced(num=16)
    # a size that is no integer is named as such, not as a count
    for size in (400.5, 400.0, True, "400"):
        with pytest.raises(ValueError,
                           match=f"RadialGrid: size must be an integer, got {size!r}"):
            RadialGrid(r_min=1e-3, r_max=1e3, size=size, N=3)
    assert RadialGrid(r_min=1e-3, r_max=1e3, size=np.int64(400), N=3).size == 400
    with pytest.raises(ValueError):
        RadialGrid.log_spaced(r_min=2.0, r_max=1.0)


def test_grid_is_its_four_fields():
    """The grid is (r_min, r_max, size, N): a grid built again from them is
    equal and hashes alike, and log_spaced builds the same one."""
    g = RadialGrid(r_min=1e-3, r_max=1e3, size=400, N=2)
    again = RadialGrid.log_spaced(r_min=g.nodes[0], r_max=g.r_max, num=g.size, N=2)
    assert g == again and hash(g) == hash(again)
    assert np.array_equal(g.nodes, again.nodes)
    assert np.array_equal(g.weights, again.weights)
    assert g.nodes[0] == g.r_min and g.nodes[-1] == g.r_max
    assert g != RadialGrid.log_spaced(num=400, N=3)


def test_origin_value_is_the_quadratic_closure(grid):
    u = RadialFunction(grid=grid, values=h_beta_eval(grid.nodes, 2.0), tail_exponent=2.0)
    # quadratic extrapolation through r_1, r_2 with r_1 = 1e-3
    assert_allclose(u.value_at_origin, 1.0, rtol=1e-10)


@pytest.mark.parametrize("omega", [0.0, -1.0])
def test_radial_function_rejects_nonpositive_exponent_even_when_constant(grid, omega):
    # a constant function has no power tail to close its integrals with
    with pytest.raises(ValueError, match="tail exponent must be positive"):
        RadialFunction(grid=grid, values=np.full(grid.size, 2.5), tail_exponent=omega)


def test_radial_function_validation(grid):
    vals = h_beta_eval(grid.nodes, 2.0)
    with pytest.raises(ValueError):
        RadialFunction(grid=grid, values=vals, tail_exponent=-1.0)
    with pytest.raises(ValueError):
        RadialFunction(grid=grid, values=vals[:-1], tail_exponent=2.0)


# evaluate(-0.5) read the origin model at rho/r_1 = -500 (0.625 for h_3 at
# M = 200, where h_3(0.5) = 0.716), and NaN and -inf came back as such.
@pytest.mark.parametrize("rho", [-0.5, math.nan, -math.inf, [1.0, -1e-300]],
                         ids=["-0.5", "nan", "-inf", "array"])
def test_evaluate_refuses_a_negative_or_nan_radius(rho):
    u = h_beta_function(RadialGrid.log_spaced(num=200), 3.0)
    bad = float(np.ravel(rho)[-1])
    with pytest.raises(ValueError, match=f"nonnegative, got {bad!r}$"):
        u.evaluate(rho)


def test_value_weights_state_each_closure(grid):
    """The value rule, read off the unit node vectors e_j: the origin model
    below r_1, exactly the node value at a node's own log radius, and the
    power tail beyond r_M."""
    M = grid.size
    units = [RadialFunction(grid=grid, values=e, tail_exponent=4.0) for e in np.eye(M)]
    assert np.array_equal([u.evaluate(grid.nodes) for u in units], np.eye(M))
    g1, g2 = units[0].value_at_origin, units[1].value_at_origin
    W = np.array([u.evaluate(grid.r_min * np.array([0.0, 0.5])) for u in units]).T
    assert not W[:, 2:].any()
    assert_allclose(W[:, :2], [[g1, g2], [0.75 * g1 + 0.25, 0.75 * g2]], rtol=1e-15)
    W = np.array([u.evaluate(2.0 * grid.r_max) for u in units])
    assert W[M - 1] == 2.0 ** -4.0 and not W[:M - 1].any()


def test_evaluate_in_all_three_regions(grid):
    u = h_beta_function(grid, 4.0)
    assert u.evaluate(0.0) == pytest.approx(u.value_at_origin)
    assert_allclose(u.evaluate(grid.nodes[37]), u.values[37], rtol=1e-15)
    r_out = 10.0 * grid.r_max
    assert_allclose(u.evaluate(r_out), u.values[-1] * 10.0 ** -4.0, rtol=1e-15)
    out = u.evaluate(np.array([0.0, 1.0, 2e3]))
    assert out.shape == (3,)


@pytest.mark.parametrize("beta, bound", [
    (2.0, 1e-7),   # measured 1.1e-8
    (3.0, 3e-7),   # measured 5.7e-8
    (5.0, 2e-6),   # measured 4.5e-7
])
def test_evaluate_between_nodes_matches_closed_form(grid, beta, bound):
    """Between nodes evaluate reads the operators' cubic-in-log stencil; a
    log-linear interpolation is 6.6e-5 to 4.2e-4 off on this grid."""
    t = grid.log_nodes
    r = np.exp(t[:-1, None] + np.diff(t)[:, None] * np.array([0.25, 0.5, 0.75]))
    r = r.ravel()
    got = h_beta_function(grid, beta).evaluate(r)
    assert np.max(np.abs(got / h_beta_eval(r, beta) - 1.0)) <= bound


def test_h_beta_function_matches_profile(grid):
    u = h_beta_function(grid, 3.5)
    assert_allclose(u.values, (1.0 + grid.nodes ** 2) ** -1.75, rtol=1e-15)
    assert u.tail_exponent == 3.5
    assert abs(u.value_at_origin - 1.0) <= 1e-11


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


# The far end under refinement: the scaled error |L - L_exact| / (h_beta
# (1 + rho^2)^(-s)) over the whole grid, L being (-Delta)^s h_beta at the
# nodes.  With each row's far tail closed by its multipole series it
# measured 2.8e-6 and 3.2e-6 for (3, 1/2, 2), 3.6e-6 and 3.8e-6 for
# (2, 1/2, 2.5), at M = 1200 and 2400, largest at the last node.  With
# 8-point panels out to 10^6 r_M it read 3.6e-3 and 2.6e-2, 4.5e-3 and
# 3.2e-2, largest at the node before the last.
@pytest.mark.parametrize("M", [1200, 2400])
@pytest.mark.parametrize("N,s,beta", [(3, 0.5, 2.0), (2, 0.5, 2.5)])
def test_oracle_scaled_error_over_the_whole_grid(N, s, beta, M):
    g = RadialGrid.log_spaced(num=M, N=N)
    got = frac_laplacian_on_grid(h_beta_function(g, beta), s)
    want = frac_lap_h_exact(g.nodes, ProfileParams(N, s, beta))
    scale = h_beta_eval(g.nodes, beta) * (1.0 + g.nodes ** 2) ** -s
    assert np.max(np.abs(got - want) / scale) <= 1e-5


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
# relative errors were 6.7 to 97.  Read at the offsets xi themselves, they were
# <= 1.6e-7 off at s = 1/2 and <= 5.4e-7 at s = 3/4 (default grid).  Read off
# the assembled operator between its nodes, they are <= 5.8e-7 and <= 9.5e-7
# off, the largest at rho = 2, next to a sign change of (-Delta)^s h_beta.
@pytest.mark.parametrize("N,s,beta", [(3, 0.5, 3.0), (2, 0.5, 2.5), (3, 0.75, 3.0)])
def test_fraclap_pointwise_at_powers_of_two(N, s, beta):
    g = RadialGrid.log_spaced(N=N)
    radii = [0.25, 0.5, 1.0, 2.0, 4.0]
    got = [frac_laplacian_radial(h_beta_function(g, beta), s, at=r) for r in radii]
    want = frac_lap_h_exact(np.array(radii), ProfileParams(N, s, beta))
    assert_allclose(got, want, rtol=1e-6)


# The pointwise value is the assembled operator's, read between the nodes
# as any radial function is; at a node it is the operator's value itself.
@pytest.mark.parametrize("M", [150, 601])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("N", [2, 3])
def test_fraclap_pointwise_at_the_nodes_is_the_operator(N, s, M):
    g = RadialGrid.log_spaced(num=M, N=N)
    u = h_beta_function(g, N + 0.5)
    assert np.array_equal(frac_laplacian_radial(u, s, g.nodes),
                          frac_laplacian_on_grid(u, s))


# Below r_1 the value is read through the origin model of the node values:
# measured errors at most 5.9e-9 at r_1 / 2 and 2.0e-7 at 0.9 r_1 (default
# grid).
@pytest.mark.parametrize("N,s,beta", [(3, 0.5, 3.5), (3, 0.75, 3.0), (2, 0.5, 2.5)])
@pytest.mark.parametrize("x,rtol", [(0.5, 2e-8), (0.9, 5e-7)])
def test_fraclap_pointwise_below_the_first_node(N, s, beta, x, rtol):
    g = RadialGrid.log_spaced(N=N)
    r_at = x * g.nodes[0]
    got = frac_laplacian_radial(h_beta_function(g, beta), s, at=r_at)
    want = frac_lap_h_exact(r_at, ProfileParams(N, s, beta))
    assert_allclose(got, want, rtol=rtol)


def test_fraclap_rejects_bad_arguments(grid):
    u = h_beta_function(grid, 2.0)
    for s in (0.0, 1.0, 1.2, -0.5):
        with pytest.raises(ValueError):
            frac_laplacian_radial(u, s, at=1.0)
        with pytest.raises(ValueError):
            frac_laplacian_on_grid(u, s)
    with pytest.raises(ValueError, match=r"got 0\.0$"):
        frac_laplacian_radial(u, 0.5, at=0.0)
    with pytest.raises(ValueError, match=r"got 2000\.0$"):
        frac_laplacian_radial(u, 0.5, at=2.0 * grid.r_max)
    # the message names the first bad radius, not the whole array
    with pytest.raises(ValueError, match=r"got 2000\.0$"):
        frac_laplacian_radial(u, 0.5, at=np.array([1.0, 2.0 * grid.r_max, -1.0]))
    with pytest.raises(ValueError, match=r"got nan$"):
        frac_laplacian_radial(u, 0.5, at=np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        frac_laplacian_radial(u, 0.5, at=np.ones((2, 2)))
    with pytest.raises(ValueError):
        frac_laplacian_radial(u, 0.5, at=np.array([]))


# The matrix and the structured apply read the same rows, the tail weights
# folded into the last node column of both, at each order s.  h_3 (1 + 0.1
# sin log rho) is not a multiple of any h_beta.  h_2 at s = 3/4 is left
# out: near r_1 its value is about 1e-7 of the largest entry of its row,
# and the two routes differ there by up to 3.3e-8 relative (at node 5).
def test_fraclap_matrix_consistent_with_row_apply(grid):
    wavy = h_beta_eval(grid.nodes, 3.0) * (1.0 + 0.1 * np.sin(grid.log_nodes))
    wavy_h3 = RadialFunction(grid=grid, values=wavy, tail_exponent=3.0)
    h2 = h_beta_function(grid, 2.0)
    for s, u in ((0.25, h2), (0.5, h2), (0.25, wavy_h3), (0.5, wavy_h3),
                 (0.75, wavy_h3)):
        A = fraclap_matrix(grid, s, tail_omega=u.tail_exponent)
        via_matrix = A @ u.values
        direct = frac_laplacian_on_grid(u, s)
        assert_allclose(via_matrix, direct, rtol=1e-8,
                        atol=1e-12 * np.max(np.abs(direct)),
                        err_msg=f"s = {s}, tail exponent {u.tail_exponent}")


# s = 1.5 gave entries of about 3e17, tail_omega = nan a matrix, and s = 0
# or 1 and tail_omega = -1 only a RuntimeWarning
@pytest.mark.parametrize("s,tail_omega", [
    (1.5, 4.0), (0.0, 4.0), (1.0, 4.0), (math.nan, 4.0),
    (0.5, math.nan), (0.5, -1.0), (0.5, 0.0), (0.5, math.inf),
])
def test_fraclap_matrix_rejects_bad_arguments(grid, s, tail_omega):
    with pytest.raises(ValueError, match="fraclap_matrix"):
        fraclap_matrix(grid, s, tail_omega)


# The operator's apply (frac_laplacian_on_grid, a correlation, the edge
# columns and the diagonal mass) against its rows expanded (fraclap_matrix).
# Measured on h_(N+1/2): the worst case is 7.4e-9 of the maximum, at N = 2,
# s = 3/4, M = 600, where the PV rows cancel furthest below their entries.
@pytest.mark.parametrize("M", [150, 600])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_structured_fraclap_apply_matches_its_rows(N, s, M):
    grid = RadialGrid.log_spaced(num=M, N=N)
    u = h_beta_function(grid, N + 0.5)
    want = fraclap_matrix(grid, s, u.tail_exponent) @ u.values
    got = frac_laplacian_on_grid(u, s)
    assert np.max(np.abs(got - want)) <= 5e-8 * np.max(np.abs(want))


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
    g2 = RadialFunction(grid=grid, values=3.0 * g1.values, tail_exponent=5.0)
    v1 = riesz_convolve_radial(g1, 2.0)
    v2 = riesz_convolve_radial(g2, 2.0)
    assert_allclose(v2.values, 3.0 * v1.values, rtol=1e-13)
    assert np.all(np.diff(v1.values) < 0.0)
    assert v1.value_at_origin > v1.values[0]


def riesz_h_exact(N, alpha, beta, r):
    """I_alpha * h_beta at radii r in closed form, (-Delta)^s h_beta's
    formula at s = -alpha/2: 2^(-alpha) Gamma((N-alpha)/2)
    Gamma((beta-alpha)/2) / (Gamma(N/2) Gamma(beta/2)) times
    2F1((N-alpha)/2, (beta-alpha)/2; N/2; -r^2).  2F1 is symmetric in its
    first two parameters; the larger goes first, as hyp2f1 requires."""
    a, b = 0.5 * (N - alpha), 0.5 * (beta - alpha)
    pref = 2.0 ** -alpha * math.gamma(a) * math.gamma(b) \
        / (math.gamma(0.5 * N) * math.gamma(0.5 * beta))
    return pref * hyp2f1(max(a, b), min(a, b), 0.5 * N, -(r * r))


# The max relative error on [0.1, 50] at M = 300 / 600 / 1200 measured
# 5.6e-6 / 3.5e-7 / 2.2e-8 for (3, 2, 5), 1.0e-6 / 6.3e-8 / 4.4e-9 for
# (2, 1, 2.5), 5.8e-6 / 3.8e-7 / 5.3e-8 for (3, 1/2, 3.7), 1.7e-5 / 1.1e-6 /
# 6.7e-8 for (4, 3, 5) and 1.1e-6 / 6.9e-8 / 4.3e-9 for (2, 3/2, 4): an
# order of 3.4 (alpha = 1/2) to 4.0 from 300 to 1200 nodes.  The bounds at
# M = 1200 are about twice those figures.
@pytest.mark.parametrize("N,alpha,beta,max_err", [
    (3, 2.0, 5.0, 5e-8),
    (2, 1.0, 2.5, 1e-8),
    (3, 0.5, 3.7, 1e-7),
    (4, 3.0, 5.0, 1.5e-7),
    (2, 1.5, 4.0, 1e-8),
])
def test_riesz_matches_closed_form_under_refinement(N, alpha, beta, max_err):
    errors = []
    for M in (300, 1200):
        g = RadialGrid.log_spaced(num=M, N=N)
        v = riesz_convolve_radial(h_beta_function(g, beta), alpha)
        sel = interior(g)
        errors.append(np.max(np.abs(v.values[sel] / riesz_h_exact(N, alpha, beta, g.nodes[sel])
                                    - 1.0)))
    assert math.log2(errors[0] / errors[1]) / 2.0 >= 3.0
    assert errors[1] <= max_err


# The first node's row integrates the origin region [0, r_1] graded toward
# r_1, where the kernel is singular for alpha <= 1, with a power-law stub.
# Measured on the first three nodes: 1.5e-8 (M = 300) and 2.0e-8 (1200) at
# (3, 1/2, 3.7), 7.0e-8 and 3.2e-10 at (2, 1, 2.5).  As one 8-point panel
# that row was 1.9e-3 off at (3, 1/2, 3.7) and 2.3e-6 at (2, 1, 2.5), at
# either M.
@pytest.mark.parametrize("N,alpha,beta,bounds", [
    (3, 0.5, 3.7, (5e-8, 5e-8)),
    (2, 1.0, 2.5, (2e-7, 1e-9)),
])
def test_first_riesz_rows_match_closed_form(N, alpha, beta, bounds):
    for M, bound in zip((300, 1200), bounds):
        g = RadialGrid.log_spaced(num=M, N=N)
        v = riesz_convolve_radial(h_beta_function(g, beta), alpha)
        want = riesz_h_exact(N, alpha, beta, g.nodes[:3])
        assert np.max(np.abs(v.values[:3] / want - 1.0)) <= bound, M


# The last three nodes, whose rows' far tails start at r_M (r_M e^h for the
# last, past its graded virtual cell): 2.5e-8 at M = 1200 at (3, 1/2, 3.7).
# With 8-point panels out to 10^6 r_M the two before the last read 6.1e-7
# and 5.0e-6.
def test_last_riesz_rows_match_closed_form():
    g = RadialGrid.log_spaced(num=1200, N=3)
    v = riesz_convolve_radial(h_beta_function(g, 3.7), 0.5)
    want = riesz_h_exact(3, 0.5, 3.7, g.nodes[-3:])
    assert np.max(np.abs(v.values[-3:] / want - 1.0)) <= 1e-7


def test_riesz_rejects_divergent_input(grid):
    with pytest.raises(ValueError):
        riesz_convolve_radial(h_beta_function(grid, 2.0), 2.0)  # tail too fat
    with pytest.raises(ValueError):
        riesz_convolve_radial(h_beta_function(grid, 5.0), 3.0)  # alpha = N
    # F(u) = u^1.7 of a profile decaying like rho^(-1.1) decays like
    # rho^(-1.7 * 1.1), slower than I_2 can integrate
    u = h_beta_function(grid, 1.1)
    fu = RadialFunction(grid=grid, values=u.values ** 1.7,
                        tail_exponent=1.7 * u.tail_exponent)
    with pytest.raises(ValueError, match="must exceed alpha"):
        riesz_convolve_radial(fu, 2.0)


# ----------------------------------------------------------------------------
# resolvent
# ----------------------------------------------------------------------------

def resolvent_solve(grid, s, mu, b, omega):
    """((-Delta)^s + mu)^(-1) b at the nodes by the solver's path: the
    assembled matrix closed with the tail exponent min(omega, N + 2s) of
    the resolvent image, plus mu, through lu_factor and lu_solve."""
    A = fraclap_matrix(grid, s, min(omega, grid.N + 2.0 * s))
    A[np.diag_indices_from(A)] += mu
    return lu_solve(lu_factor(A), b)


def test_inverse_round_trip(grid):
    u = h_beta_function(grid, 2.0)
    mu = 0.7
    b_vals = frac_laplacian_on_grid(u, 0.5) + mu * u.values
    # with the exact tail model the round trip is tight on the whole grid
    w = resolvent_solve(grid, 0.5, mu, b_vals, 2.0)
    assert np.max(np.abs(w / u.values - 1.0)) < 1e-8
    # a slightly wrong tail exponent perturbs only the outer boundary
    # closure; 2.0000605626671963 is what a least-squares fit of log b over
    # the last decade of radii gives
    w2 = resolvent_solve(grid, 0.5, mu, b_vals, 2.0000605626671963)
    sel = interior(grid)
    assert np.max(np.abs(w2[sel] / u.values[sel] - 1.0)) < 1e-8


def test_inverse_recovers_closed_form_solution(grid):
    """((-Delta)^{1/2} + mu)^{-1} applied to 2 h_4 + mu h_2 must return h_2,
    with the right-hand side built purely from closed forms."""
    mu = 1.0
    b_vals = 2.0 * h_beta_eval(grid.nodes, 4.0) + mu * h_beta_eval(grid.nodes, 2.0)
    w = resolvent_solve(grid, 0.5, mu, b_vals, 2.0)
    sel = interior(grid)
    want = h_beta_eval(grid.nodes[sel], 2.0)
    assert np.max(np.abs(w[sel] / want - 1.0)) < 1e-6


def test_inverse_large_mu_limit(grid):
    rhs = h_beta_function(grid, 4.0)
    w = resolvent_solve(grid, 0.5, 1e6, rhs.values, 4.0)
    assert np.max(np.abs(1e6 * w / rhs.values - 1.0)) < 1e-3


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
    signed = RadialFunction(grid=grid, values=vals, tail_exponent=4.0)
    with pytest.raises(ValueError):
        volume_integral(signed, power=1.5)
    # an infinite power raised OverflowError from round()
    for power in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="power must be finite"):
            volume_integral(h_beta_function(grid, 4.0), power)


# ----------------------------------------------------------------------------
# the quarantine
# ----------------------------------------------------------------------------

def _walk(node, where="<module>"):
    """(enclosing function, node) for every node below node."""
    for child in ast.iter_child_nodes(node):
        inner = f"{where}.{child.name}".removeprefix("<module>.") \
            if isinstance(child, ast.FunctionDef) else where
        yield inner, child
        yield from _walk(child, inner)


def test_no_test_outside_the_quarantine_names_quadrature_internals():
    """No file but test_quadrature.py names fracradial.quadrature or any of its
    names, a private name of fracradial.radial, or a private radial_ops name
    other than those that outlive the quadrature, or imports from
    test_quadrature.py."""
    kept = {"_riesz_operator"}
    quadrature, checked = "fracradial.quadrature", {"fracradial.radial", "fracradial.radial_ops"}
    found = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        aliases = {module: module for module in (quadrature, *checked)}
        for where, node in _walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                src = getattr(node, "module", None) or ""
                full = {a.asname or a.name: f"{src}.{a.name}".lstrip(".") for a in node.names}
                aliases |= {k: v for k, v in full.items() if v in aliases.values()}
                names = full.values()
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
                names = [f"{aliases[ast.unparse(node.value)]}.{node.attr}"]
            for name in names:
                module, _, last = name.rpartition(".")
                if "test_quadrature" in name.split(".") or quadrature in (name, module) \
                        or module in checked \
                        and last[:1] == "_" and last[:2] != "__" and last not in kept:
                    found.add(f"{path.name}::{where}")
    found = {f for f in found if not f.startswith("test_quadrature.py::")}
    assert not found, f"{len(found)} functions: {sorted(found)}"
