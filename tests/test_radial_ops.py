"""Tests for fracradial.radial_ops.

Angular-kernel reference values were frozen from mpmath at mp.dps = 30
(nested Gauss-Legendre sphere quadrature).  Operator-level checks compare
the grid quadrature against the independent closed forms in specfun, which
have their own frozen-reference tests.
"""

import math
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracradial.radial_ops as radial_ops
from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
    frac_laplacian_on_grid,
    frac_laplacian_radial,
    fraclap_matrix,
    h_beta_function,
    lu_factor,
    lu_solve,
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


def kernel(N, p, r, rho):
    """The angular kernel k_p(r, rho) as the operators read it, at the offset
    |rho - r| (_kernel_eval: the closed form for N = 3, the table else)."""
    return float(radial_ops._kernel_eval(N, p, r, np.array(rho), abs(rho - r)))


# mpmath mp.dps = 30, direct quadrature of int_{S^{N-1}} |r e1 - rho w|^p.
ANGULAR_KERNEL_CASES = [
    (1.0, 2.0, -3.0, 2, 1.484988135617251),
    (1.3, 0.7, -5.0, 4, 10.146996992267686),
    (1.0, 1.01, -6.0, 5, 48351.46732341768),
    (1.0, 37.0, -4.2, 5, 6.8230912003021275e-06),
]


@pytest.mark.parametrize("r,rho,p,N,expected", ANGULAR_KERNEL_CASES)
def test_angular_kernel_reference_values(r, rho, p, N, expected):
    assert_allclose(kernel(N, p, r, rho), expected, rtol=1e-9)


def test_angular_kernel_closed_form_dimension_three():
    # p = -1: 2 pi / (r rho) * ((r+rho) - |r-rho|) = 4 pi min / (r rho)
    assert_allclose(kernel(3, -1.0, 1.0, 2.0), 2.0 * math.pi, rtol=1e-14)


@pytest.mark.parametrize("r,rho,p,N", [
    (0.4, 1.9, -4.0, 3),
    (0.7, 1.1, -3.3, 4),
    (2.0, 11.0, -6.2, 2),
])
def test_angular_kernel_symmetric(r, rho, p, N):
    assert_allclose(kernel(N, p, r, rho), kernel(N, p, rho, r), rtol=1e-12)


def test_angular_kernel_near_the_origin():
    """With one point near the origin the integrand is nearly constant on
    the sphere (to (r/rho)^2 = 2.5e-13 here), as in the origin region's
    panels.  Measured: 8.2e-11 for N = 3, where the closed form's two
    powers cancel, and 9.3e-14 for N = 4 (the table's multipole branch, at
    the gap 2e6)."""
    for N in (3, 4):
        assert_allclose(kernel(N, -3.0, 1e-6, 2.0),
                        sphere_surface_area(N) * 2.0 ** -3.0, rtol=1e-9)


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
# 5.6e-16 on gaps [49, 1e8], and a step of at most 2.5e-14 across the seam
# with the table's cubics.  The two-term expansion it replaced was 3.1e-10
# off at gap 49 for (N, p) = (2, -3).
@pytest.mark.parametrize("N,p", [(2, -3.0), (4, -3.0), (5, -2.5)])
def test_kernel_table_far_branch_and_seam(N, p):
    table = radial_ops._kernel_table(N, p)
    seam = np.array([49.0 * (1.0 - 1e-12), 49.0])
    got, want = table.eval_gap(seam), radial_ops._kernel_at_gap(seam, p, N)
    assert abs(got[0] / got[1] - want[0] / want[1]) <= 2e-11
    far = np.array([49.0, 50.0, 100.0, 199.0, 1e3, 1e5, 1e8])
    assert_allclose(table.eval_gap(far), radial_ops._kernel_at_gap(far, p, N),
                    rtol=2e-11)


def test_kernel_table_temporaries_do_not_grow_with_the_points():
    # the table evaluates in slices of _SLICE points, so a call's scratch
    # memory beyond its result is bounded (measured 0.17 MB for 100 000
    # points; an unsliced evaluation held about 40 B per point, 4 MB here)
    import tracemalloc

    table = radial_ops._kernel_table(2, -2.0)
    gap = np.geomspace(1e-13, 40.0, 100_000)
    gap[::50] = 80.0    # a few points on the multipole branch
    want = np.concatenate([table.eval_gap(gap[lo:lo + 997])
                           for lo in range(0, gap.size, 997)])
    tracemalloc.start()
    try:
        got = table.eval_gap(gap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - got.nbytes <= 0.5e6
    assert np.array_equal(got, want)
    # any shape and layout gives the same values as the flat call
    block = gap[:99_000].reshape(330, 300)
    assert np.array_equal(table.eval_gap(block.T), want[:99_000].reshape(330, 300).T)


def test_kernel_table_is_built_a_block_of_intervals_at_a_time(monkeypatch):
    # the stencils of all 4799 intervals at once peaked at 5.1 MB for a
    # 0.23 MB table; _BUILD_BLOCK = 512 intervals at a time peak at 1.12 MB
    # (measured, N = 2, p = -3), where the 4800 closed-form values set it
    import tracemalloc

    radial_ops._KernelTable(2, -3.0)    # Gauss rules and the like
    tracemalloc.start()
    try:
        table = radial_ops._KernelTable(2, -3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6
    monkeypatch.setattr(radial_ops._KernelTable, "_BUILD_BLOCK", 4800)
    one_shot = radial_ops._KernelTable(2, -3.0)
    for c in ("_c0", "_c1", "_c2", "_c3"):
        assert np.array_equal(getattr(table, c), getattr(one_shot, c))


def test_closed_form_kernel_matches_dimension_three():
    rho = 1.0 + np.geomspace(1e-12, 40.0, 60)
    for p in (-6.0, -4.5, -3.0, -2.0, -1.0):
        got = radial_ops._kernel_at_gap(rho - 1.0, p, 3)
        assert_allclose(got, radial_ops._kernel3_arrays(1.0, rho, p, rho - 1.0),
                        rtol=1e-13)


# The table's cubics against the closed form over the whole tabulated range
# (measured 2.7e-12 at (2, -0.5) to 2.1e-11 at (4, -5); the not-a-knot
# spline on 2400 nodes it replaced reached 8.0e-11 at (4, -5)).
@pytest.mark.parametrize("N,p", [(2, -3.0), (2, -0.5), (4, -5.0), (4, -1.0),
                                 (5, -2.5)])
def test_kernel_table_matches_closed_form(N, p):
    rng = np.random.default_rng(11)
    gap = np.exp(rng.uniform(math.log(1e-13), math.log(48.9), 20_000))
    got = radial_ops._kernel_table(N, p).eval_gap(gap)
    assert_allclose(got, radial_ops._kernel_at_gap(gap, p, N), rtol=3e-11)


def test_lu_solve_matches_scipy_to_round_off(grid):
    from scipy.linalg import lu_factor, lu_solve

    A = fraclap_matrix(grid, 0.5, 4.0)
    A[np.diag_indices_from(A)] += 1.0
    b = h_beta_eval(grid.nodes, 4.0)
    x = radial_ops.lu_solve(radial_ops.lu_factor(A.copy()), b)
    want = lu_solve(lu_factor(A), b)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))
    radial_ops._backward_error(A @ x, np.max(np.abs(A)), x, b)  # raises above 1e-10


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
    if M <= radial_ops._GJ_BLOCK:
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
    assert peak <= 3 * radial_ops._GJ_BLOCK * M * 8


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
    for r_min, r_max, size, N in [
            (1e-3, 1e3, 31, 3),          # fewer than 4 _END_ROWS nodes
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
    equal, hashes alike and shares the memo token, and log_spaced builds
    the same one."""
    g = RadialGrid(r_min=1e-3, r_max=1e3, size=400, N=2)
    again = RadialGrid.log_spaced(r_min=g.nodes[0], r_max=g.r_max, num=g.size, N=2)
    assert g == again and hash(g) == hash(again)
    assert g._token == again._token == (2, 400, 1e-3, 1e3)
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


def batch_grid(N, coarse):
    """A grid of 150 nodes, or the coarsest one on the same range: 32 nodes,
    whose PV windows are capped at half the radius (1.5 cells are 0.67 in
    log radius)."""
    return RadialGrid.log_spaced(num=32 if coarse else 150, N=N)


# The rows at all nodes are built together; no piece lets one row's
# rounding depend on the rows beside it (the far-tail panels are summed in
# groups of equal panel count, the dot products one row at a time), so a
# row built in a batch is the row built alone, to the bit.
@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("N", [2, 3])
def test_fraclap_rows_in_a_batch_equal_rows_built_alone(N, coarse):
    grid = batch_grid(N, coarse)
    nodes = grid.nodes
    M = grid.size
    k = [i * M // 150 for i in (40, 70, 75)]
    which = np.array([0, 1, k[0], k[1], k[2], M - 2, M - 1])
    radii = np.array([
        0.5 * nodes[0], 0.99 * nodes[0],              # below r_1
        math.sqrt(nodes[k[0]] * nodes[k[0] + 1]), 1.0, 2.0, 5.0, 10.0,  # between nodes
        nodes[0], nodes[k[1]], nodes[k[2]],           # on nodes
        0.999 * nodes[-1], nodes[-1],                 # at the last node
    ])
    ctx = radial_ops._context(grid)
    for omega in (N + 1.0, 2.5):
        rows = radial_ops._fraclap_rows(ctx, which, -1.0, omega)
        assert rows.shape == (which.size, M)
        for k in range(which.size):
            alone = radial_ops._fraclap_rows(ctx, which[k:k + 1], -1.0, omega)
            assert np.array_equal(alone[0], rows[k])
        # pointwise values over an array of radii, one per radius
        u = h_beta_function(grid, omega)
        values = frac_laplacian_radial(u, 0.5, at=radii)
        assert values.shape == radii.shape
        for k, r in enumerate(radii):
            assert values[k] == frac_laplacian_radial(u, 0.5, at=float(r))


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


# As for the fractional Laplacian: the first and last nodes, whose rows lack
# a diagonal cell and grade into the tail, next to interior ones.
@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("N", [2, 3])
def test_riesz_rows_in_a_batch_equal_rows_built_alone(N, coarse):
    grid = batch_grid(N, coarse)
    M = grid.size
    which = np.array([0, 1, 7, 70 * M // 150, M - 2, M - 1])
    ctx = radial_ops._context(grid)
    for alpha, omega in ((0.5, N + 0.7), (N - 1.0, 2.5)):
        rows = radial_ops._riesz_rows(ctx, which, alpha, omega)
        assert rows.shape == (which.size, M)
        for k in range(which.size):
            alone = radial_ops._riesz_rows(ctx, which[k:k + 1], alpha, omega)
            assert np.array_equal(alone[0], rows[k])


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
# operator memo
# ----------------------------------------------------------------------------

def test_memo_is_bounded_lru(monkeypatch):
    # entries of 800 bytes of arrays under a bound of 16 of them
    limit = 16
    monkeypatch.setattr(radial_ops, "_MEMO", OrderedDict())
    monkeypatch.setattr(radial_ops, "_MEMO_BYTES", limit * 800)
    built = []

    def put(key, size=100):
        def build():
            built.append(key)
            return SimpleNamespace(a=np.zeros(size))
        return radial_ops._memo(key, build)

    for i in range(limit):
        put(("test", i))
    put(("test", 0))                      # a hit refreshes the oldest entry
    assert len(built) == limit
    for i in range(limit, limit + 5):
        put(("test", i))
    assert len(radial_ops._MEMO) == limit
    assert ("test", 0) in radial_ops._MEMO
    assert ("test", 1) not in radial_ops._MEMO
    # an entry alone above the bound evicts every other and is kept
    put(("test", "big"), size=2 * limit * 100)
    assert list(radial_ops._MEMO) == [("test", "big")]


# The closed form of a row's weight beyond r_inf = _TAIL_SPAN r_max against
# int_{r_inf}^inf |S^{N-1}| rho^(a-1) (rho/r_max)^(-omega) drho, in
# t = log(rho / r_inf): 20 Gauss-Legendre points on each of 60 panels of
# width 1 / (omega - a), where the integrand falls by e per panel.  The
# orders are I_alpha's a = alpha < omega and (-Delta)^s's a = -2s, the
# latter also at omega = 0, where the weight is the kernel mass beyond r_inf.
@pytest.mark.parametrize("order,omega", [
    (1.0, 2.5), (1.5, 4.0),          # I_alpha of a tail rho^(-omega)
    (-1.0, 4.0), (-1.5, 2.5),        # (-Delta)^s, s = 1/2 and 3/4
    (-1.0, 0.0), (-0.5, 0.0),        # the kernel mass, s = 1/2 and 1/4
])
@pytest.mark.parametrize("N", [2, 3])
def test_tail_remainder_matches_quadrature(N, order, omega):
    r_max = 1e3
    r_inf = radial_ops._TAIL_SPAN * r_max
    x, w = np.polynomial.legendre.leggauss(20)
    width = 1.0 / (omega - order)
    t = (np.arange(60)[:, None] + 0.5 * (1.0 + x)).ravel() * width
    rho = r_inf * np.exp(t)
    # drho = rho dt
    integrand = sphere_surface_area(N) * rho ** (order - 1.0) \
        * (rho / r_max) ** -omega * rho
    want = np.sum(np.tile(0.5 * width * w, 60) * integrand)
    assert_allclose(radial_ops._tail_remainder(N, order, r_max, omega), want,
                    rtol=1e-13)


# ----------------------------------------------------------------------------
# structured assembly on geometric grids
# ----------------------------------------------------------------------------

def operator_args(kind, N):
    """(kernel order, tail exponent) of the test operators: the order -2s of
    s = 1/2, and alpha = N-1."""
    return (-1.0, N + 1.0) if kind == "fraclap" else (N - 1.0, N + 0.7)


def assert_structured_matches_loop(N, order, omega):
    M = 150
    grid = RadialGrid.log_spaced(num=M, N=N)
    op = radial_ops._structured_rows(grid, order, omega)
    rows = op.rows()
    ref = op.constant * radial_ops._rows_at(grid, order, omega, range(grid.size))
    # every column, the last one with the tail weights folded in
    err = np.max(np.abs(rows - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert err.max() <= 1e-10
    # the loop's scaled rows over offsets -6..6, interior rows
    scaled = ref / grid.nodes[:, None] ** order
    inner = np.arange(12, M - 12)
    band = scaled[inner[:, None], inner[:, None] + np.arange(-6, 7)]
    assert np.max(np.ptp(band, axis=0)) <= 1e-12 * np.max(np.abs(band))


# Measured at M = 150 against the row-by-row loop, relative to each row's
# largest entry: the worst entry is 2.9e-12 (N = 3 Riesz, next-to-last
# column, where the closed-form kernel (r+rho)^e - |r-rho|^e cancels; 8.5e-13
# in the last column, which holds the tail weights), 2e-14 elsewhere.  The
# loop's own interior rows, divided by their scale, are shift-invariant to
# 1.3e-13 of the row maximum for every N.  For N = 2 and 4 that needs the
# spline kernel table to be read at the gap (big - m) / m: reading it at
# big / m - 1 spread those rows by 7.2e-8 (3.5e-7 of the entry next to the
# diagonal for N = 2).  For N != 3 the kernel's 2F1 has a - b = 1 in every
# case but the N = 2 Riesz one (a = b); the N = 4 Riesz case is alpha = 3.
@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("kind", ["fraclap", "riesz"])
def test_structured_assembly_matches_row_loop(kind, N):
    assert_structured_matches_loop(N, *operator_args(kind, N))


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
    # exponent is s or alpha; the fractional Laplacian's order is -2s
    assert_structured_matches_loop(
        N, -2.0 * exponent if kind == "fraclap" else exponent, omega)


def test_geometric_build_calls_row_builders_only_at_the_ends(monkeypatch):
    monkeypatch.setattr(radial_ops, "_MEMO", OrderedDict())
    # rows built: the radii passed to _fraclap_rows, the nodes to _riesz_rows
    calls = {"fraclap": 0, "riesz": 0}
    fraclap_rows, riesz_rows = radial_ops._fraclap_rows, radial_ops._riesz_rows

    def counted_fraclap(ctx, radii, *args):
        calls["fraclap"] += np.size(radii)
        return fraclap_rows(ctx, radii, *args)

    def counted_riesz(ctx, which, *args):
        calls["riesz"] += np.size(which)
        return riesz_rows(ctx, which, *args)

    monkeypatch.setattr(radial_ops, "_fraclap_rows", counted_fraclap)
    monkeypatch.setattr(radial_ops, "_riesz_rows", counted_riesz)
    grid = RadialGrid.log_spaced(num=200)
    for kind in ("fraclap", "riesz"):
        radial_ops._raw(grid, *operator_args(kind, 3))
    ends = 2 * radial_ops._END_ROWS
    assert calls == {"fraclap": ends, "riesz": ends}


# The compact Riesz apply sums the products of the dense matvec in another
# order.  Measured at M = 150 against the row loop, the values agree to
# 2e-15 (N = 2), 1.5e-14 (N = 3, where the structured last column carries
# the closed form's cancellation) and 4e-15 (N = 4) relative.
@pytest.mark.parametrize("N", [2, 3, 4])
def test_compact_riesz_apply_matches_dense_rows(N):
    M = 150
    grid = RadialGrid.log_spaced(num=M, N=N)
    alpha, omega = operator_args("riesz", N)
    g = h_beta_function(grid, omega)
    op = radial_ops._raw(grid, alpha, omega)
    assert op.hi > op.lo                   # the interior is held compactly
    ref = radial_ops._rows_at(grid, alpha, omega, range(M))
    want = riesz_constant(N, alpha) * (ref @ g.values)
    v = riesz_convolve_radial(g, alpha)
    assert np.max(np.abs(v.values / want - 1.0)) <= 1e-13


def test_memoised_riesz_operator_holds_O_of_M_floats():
    M = 600
    grid = RadialGrid.log_spaced(num=M)
    op = radial_ops._raw(grid, *operator_args("riesz", 3))
    floats = sum(a.size for a in vars(op).values() if isinstance(a, np.ndarray))
    assert floats <= 40 * M


# The fractional Laplacian is kept by its generating row too, with its
# diagonal mass as one field, not as its M x (M+1) rows.
@pytest.mark.parametrize("N", [2, 3])
def test_memoised_fraclap_operator_holds_O_of_M_floats(N):
    M = 600
    grid = RadialGrid.log_spaced(num=M, N=N)
    op = radial_ops._raw(grid, -1.0, 4.0)
    assert op.hi > op.lo
    floats = sum(a.size for a in vars(op).values() if isinstance(a, np.ndarray))
    assert floats <= 64 * M


# The structured apply (a correlation, the edge columns and the diagonal
# mass) against the rows it stores, expanded.  Measured on h_(N+1/2): the
# worst case is 7.4e-9 of the maximum, at N = 2, s = 3/4, M = 600, where
# the PV rows cancel furthest below their entries.
@pytest.mark.parametrize("M", [150, 600])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_structured_fraclap_apply_matches_its_rows(N, s, M):
    grid = RadialGrid.log_spaced(num=M, N=N)
    u = h_beta_function(grid, N + 0.5)
    op = radial_ops._raw(grid, -2.0 * s, u.tail_exponent)
    assert op.hi > op.lo and np.any(op.mass != 0.0)
    want = op.rows() @ u.values
    assert np.max(np.abs(op.apply(u.values) - want)) <= 5e-8 * np.max(np.abs(want))


def test_structured_riesz_operator_holds_no_mass():
    grid = RadialGrid.log_spaced(num=600, N=3)
    u = h_beta_function(grid, 3.5)
    op = radial_ops._raw(grid, 2.0, u.tail_exponent)
    assert op.hi > op.lo and op.mass is None
    want = op.rows() @ u.values
    assert np.max(np.abs(op.apply(u.values) - want)) <= 1e-12 * np.max(np.abs(want))


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
