"""The quadrature's own tests: its pieces' accuracy, its assembly's structure
and its operator cache.  They read private names of fracradial.quadrature and
go with it; every other test file reads the operators through public names."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracradial.quadrature as quadrature
import fracradial.radial_ops as radial_ops
from fracradial import (NonlinearitySpec, ProblemParams, RadialGrid, SolverOpts,
                        frac_laplacian_radial, h_beta_function, riesz_constant,
                        riesz_convolve_radial, solve_ground_state,
                        sphere_surface_area, verify_chain_rule)
from fracradial.cli import load_solution, main


def make_params(r, mu=1.0):
    return ProblemParams(N=3, s=0.5, alpha=2.0, mu=mu,
                         nonlinearity=NonlinearitySpec.homogeneous(r))


@pytest.fixture
def rows_built(monkeypatch):
    """Counts of the operator rows that quadrature._rows builds while the
    test runs, by the sign of the kernel order: "fraclap" for a = -2s < 0,
    "riesz" for a = alpha > 0.  The test may reset the counts in place."""
    calls = {"fraclap": 0, "riesz": 0}
    rows = quadrature._rows

    def counted(ctx, which, order, omega):
        calls["fraclap" if order < 0.0 else "riesz"] += np.size(which)
        return rows(ctx, which, order, omega)

    monkeypatch.setattr(quadrature, "_rows", counted)
    return calls


@pytest.fixture
def cold_caches():
    """Empties the quadrature's two caches, the assembled operators of `_raw` and
    the kernel tables of `_kernel_table`, so that the test builds what it
    reads."""
    quadrature._raw.cache_clear()
    quadrature._kernel_table.cache_clear()


# ----------------------------------------------------------------------------
# angular kernel
# ----------------------------------------------------------------------------

def kernel(N, p, r, rho):
    """The angular kernel k_p(r, rho) as the operators read it, at the offset
    |rho - r| (_kernel_eval: the closed form for N = 3, the table else)."""
    return float(quadrature._kernel_eval(N, p, r, np.array(rho), abs(rho - r)))


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
    got = quadrature._kernel_table(N, p).eval_gap(np.array([1e-13, 1e-11, 1e-9]))
    assert_allclose(got, expected, rtol=1e-10)


# From gap 49 on, the table sums the multipole series q^p 2F1(-p/2,
# (2-N-p)/2; N/2; q^-2) to round-off.  Measured against the closed form:
# 5.6e-16 on gaps [49, 1e8], and a step of at most 2.5e-14 across the seam
# with the table's cubics.  The two-term expansion it replaced was 3.1e-10
# off at gap 49 for (N, p) = (2, -3).
@pytest.mark.parametrize("N,p", [(2, -3.0), (4, -3.0), (5, -2.5)])
def test_kernel_table_far_branch_and_seam(N, p):
    table = quadrature._kernel_table(N, p)
    seam = np.array([49.0 * (1.0 - 1e-12), 49.0])
    got, want = table.eval_gap(seam), quadrature._kernel_at_gap(seam, p, N)
    assert abs(got[0] / got[1] - want[0] / want[1]) <= 2e-11
    far = np.array([49.0, 50.0, 100.0, 199.0, 1e3, 1e5, 1e8])
    assert_allclose(table.eval_gap(far), quadrature._kernel_at_gap(far, p, N),
                    rtol=2e-11)


def test_kernel_table_temporaries_do_not_grow_with_the_points():
    # the table evaluates in slices of _SLICE points, so a call's scratch
    # memory beyond its result is bounded (measured 0.17 MB for 100 000
    # points; an unsliced evaluation held about 40 B per point, 4 MB here)
    import tracemalloc

    table = quadrature._kernel_table(2, -2.0)
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

    quadrature._KernelTable(2, -3.0)    # Gauss rules and the like
    tracemalloc.start()
    try:
        table = quadrature._KernelTable(2, -3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6
    monkeypatch.setattr(quadrature._KernelTable, "_BUILD_BLOCK", 4800)
    one_shot = quadrature._KernelTable(2, -3.0)
    for c in ("_c0", "_c1", "_c2", "_c3"):
        assert np.array_equal(getattr(table, c), getattr(one_shot, c))


def test_closed_form_kernel_matches_dimension_three():
    rho = 1.0 + np.geomspace(1e-12, 40.0, 60)
    # -2 +- 1e-9 take the first-order correction of the logarithmic limit
    for p in (-6.0, -4.5, -3.0, -2.0 - 1e-9, -2.0, -2.0 + 1e-9, -1.0):
        got = quadrature._kernel_at_gap(rho - 1.0, p, 3)
        assert_allclose(got, quadrature._kernel3_arrays(1.0, rho, p, rho - 1.0),
                        rtol=1e-13)


# The table's cubics against the closed form over the whole tabulated range
# (measured 2.7e-12 at (2, -0.5) to 2.1e-11 at (4, -5); the not-a-knot
# spline on 2400 nodes it replaced reached 8.0e-11 at (4, -5)).
@pytest.mark.parametrize("N,p", [(2, -3.0), (2, -0.5), (4, -5.0), (4, -1.0),
                                 (5, -2.5)])
def test_kernel_table_matches_closed_form(N, p):
    rng = np.random.default_rng(11)
    gap = np.exp(rng.uniform(math.log(1e-13), math.log(48.9), 20_000))
    got = quadrature._kernel_table(N, p).eval_gap(gap)
    assert_allclose(got, quadrature._kernel_at_gap(gap, p, N), rtol=3e-11)


# ----------------------------------------------------------------------------
# row assembly, closures, structured operators and the operator cache
# ----------------------------------------------------------------------------

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
    ctx = quadrature._RowContext(grid)
    for omega in (N + 1.0, 2.5):
        rows = quadrature._rows(ctx, which, -1.0, omega)
        assert rows.shape == (which.size, M)
        for k in range(which.size):
            alone = quadrature._rows(ctx, which[k:k + 1], -1.0, omega)
            assert np.array_equal(alone[0], rows[k])
        # pointwise values over an array of radii, one per radius
        u = h_beta_function(grid, omega)
        values = frac_laplacian_radial(u, 0.5, at=radii)
        assert values.shape == radii.shape
        for k, r in enumerate(radii):
            assert values[k] == frac_laplacian_radial(u, 0.5, at=float(r))


# As for the fractional Laplacian: the first and last nodes, whose rows lack
# a diagonal cell and grade into the tail, next to interior ones.
@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("N", [2, 3])
def test_riesz_rows_in_a_batch_equal_rows_built_alone(N, coarse):
    grid = batch_grid(N, coarse)
    M = grid.size
    which = np.array([0, 1, 7, 70 * M // 150, M - 2, M - 1])
    ctx = quadrature._RowContext(grid)
    for alpha, omega in ((0.5, N + 0.7), (N - 1.0, 2.5)):
        rows = quadrature._rows(ctx, which, alpha, omega)
        assert rows.shape == (which.size, M)
        for k in range(which.size):
            alone = quadrature._rows(ctx, which[k:k + 1], alpha, omega)
            assert np.array_equal(alone[0], rows[k])


# The far-tail closure of _closures (the kernel's multipole series,
# integrated term by term) against scipy's quad of
# int_T^inf k_p(r, rho) rho^(N-1) (rho/r_M)^(-omega) drho, T = max(hi, r_M),
# split at T, 1.01 T, 1.1 T, 2 T and 10 T, with the kernel's multipole form
# |S^{N-1}| rho^p 2F1(-p/2, (2-N-p)/2; N/2; (r/rho)^2) from
# scipy.special.hyp2f1 (within 1e-14 of mpmath at rho >= 1.01 r).  hi is
# r (1 + 1.5 h), the edge of a fractional-Laplacian row's window, so the
# last row's series runs at z = (r/T)^2 = 0.966.  The orders are I_alpha's
# a = alpha < omega and (-Delta)^s's a = -2s, whose kernel mass beyond T
# (the integral at omega = 0) is checked too.  Measured at most 8.2e-15.
@pytest.mark.parametrize("N,order,omega", [
    (N, order, omega) for N in (2, 3, 4)
    for order, omega in ((1.0, 2.5), (1.5, 4.0), (2.5, 4.0), (-1.0, 4.0),
                         (-1.5, 2.5), (-1.0, 0.0), (-0.5, 0.0))
    if order < N])
def test_closures_match_quadrature(N, order, omega):
    from scipy.integrate import quad
    from scipy.special import hyp2f1 as scipy_hyp2f1

    grid = RadialGrid.log_spaced(num=1200, N=N)
    M, rM, p = grid.size, grid.r_max, order - N
    h = grid.log_nodes[1] - grid.log_nodes[0]
    r = grid.nodes[np.r_[0, M // 2, M - 8:M]]
    hi = r * (1.0 + 1.5 * h)
    _, _, _, tail, beyond = quadrature._closures(grid, order, r, r, np.full(r.size, 0.1),
                                                 hi, omega)
    assert (beyond is None) == (order > 0.0)

    def reference(radius, om):
        T = max(radius * (1.0 + 1.5 * h), rM)
        cuts = [T, 1.01 * T, 1.1 * T, 2.0 * T, 10.0 * T]

        def f(rho):
            return sphere_surface_area(N) * rho ** p \
                * scipy_hyp2f1(-0.5 * p, 0.5 * (2.0 - N - p), 0.5 * N,
                               (radius / rho) ** 2) \
                * rho ** (N - 1) * (rho / rM) ** -om

        near = sum(quad(f, a, b, epsabs=0.0, epsrel=5e-14, limit=200)[0]
                   for a, b in zip(cuts, cuts[1:]))
        # beyond 10 T in x = (10 T / rho)^(1/2), where the integrand, which
        # falls as rho^(a-1-omega), is x^(2 (omega-a) - 1) times a smooth
        # factor
        X = cuts[-1]
        return near + quad(lambda x: 2.0 * X * x ** -3 * f(X * x ** -2), 0.0, 1.0,
                           epsabs=0.0, epsrel=5e-14, limit=200)[0]

    assert_allclose(tail, [reference(x, omega) for x in r], rtol=1e-13)
    if order < 0.0:
        assert_allclose(beyond, [reference(x, 0.0) for x in r], rtol=1e-13)


# The last Riesz row's weight of the tail model beyond r_M: what
# _riesz_diagonal sends through _spread to radii beyond r_M (the graded
# points of the virtual cell [r_M, r_M e^h]) times (rho/r_M)^(-omega), that
# cell's stub, and _closures' tail weight from the returned hi on, against
# scipy's quad of int_{r_M}^inf k_p(r_M, rho) rho^(N-1) (rho/r_M)^(-omega)
# drho.  The integrand is O((rho - r_M)^(alpha-1)) at r_M, so the integral
# is split at offsets r_M 2^(-k) graded by halves toward r_M, where 2^(-120
# alpha) of it is left out, and beyond 2 r_M it is taken in
# x = (2 r_M / rho)^(1/2).  The kernel is `_kernel_at_gap` at the offset
# (scipy's hyp2f1 returns inf there at alpha = 1).  alpha = 2 is outside
# (0, N) at N = 2, where 1.5 takes its place.  The virtual cell takes the
# graded rule of every other diagonal cell; measured 7.2e-8, 2.9e-9 and
# 2e-16 at N = 3, and 5.4e-8, 1.4e-9 and 1.5e-11 at N = 2.
LAST_ROW_TAIL_BOUNDS = {(3, 0.5): 1.5e-7, (3, 1.0): 6e-9, (3, 2.0): 4e-16,
                        (2, 0.5): 1.1e-7, (2, 1.0): 3e-9, (2, 1.5): 3e-11}


@pytest.mark.parametrize("N,alpha", list(LAST_ROW_TAIL_BOUNDS))
def test_last_riesz_row_tail_weight_matches_quadrature(N, alpha, monkeypatch):
    from scipy.integrate import quad

    M, omega = 600, N + 0.7
    grid = RadialGrid.log_spaced(num=M, N=N)
    rM, p = grid.r_max, alpha - N
    spread = quadrature._spread
    sent = []

    def record(coeffs, rows, grid, rho, weights, omega, t=None):
        sent.append((rho, weights))
        spread(coeffs, rows, grid, rho, weights, omega, t)

    monkeypatch.setattr(quadrature, "_spread", record)
    ctx = quadrature._RowContext(grid)
    _, _, lo, hi, d0 = quadrature._riesz_diagonal(ctx, np.array([M - 1]), alpha, omega)
    (rho, weights), = sent
    beyond = rho > rM
    assert hi[0] > rM and np.all(rho[beyond] < hi[0])
    # the stubs come last, the cell above's after the cell below's
    got = np.sum(weights[beyond] * (rho[beyond] / rM) ** -omega) + weights[-1] \
        + quadrature._closures(grid, alpha, np.array([rM]), lo, d0, hi, omega)[3][0]

    def f(xi):
        rho = rM + xi
        return rM ** p * quadrature._kernel_at_gap(xi / rM, p, N) * rho ** (N - 1) \
            * (rho / rM) ** -omega

    cuts = rM * 0.5 ** np.arange(120.0, -1.0, -1.0)
    near = sum(quad(f, a, b, epsabs=0.0, epsrel=5e-14)[0]
               for a, b in zip(cuts, cuts[1:]))
    far = quad(lambda x: 4.0 * rM * x ** -3 * f(2.0 * rM * x ** -2 - rM), 0.0, 1.0,
               epsabs=0.0, epsrel=5e-14, limit=200)[0]
    assert abs(got / (near + far) - 1.0) <= LAST_ROW_TAIL_BOUNDS[N, alpha]


def operator_args(kind, N):
    """(kernel order, tail exponent) of the test operators: the order -2s of
    s = 1/2, and alpha = N-1."""
    return (-1.0, N + 1.0) if kind == "fraclap" else (N - 1.0, N + 0.7)


def assert_structured_matches_loop(N, order, omega):
    M = 150
    grid = RadialGrid.log_spaced(num=M, N=N)
    op = quadrature._structured_rows(grid, order, omega)
    rows = op.rows()
    ref = op.constant * quadrature._rows(quadrature._RowContext(grid), range(M),
                                         order, omega)
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


def test_geometric_build_calls_row_builders_only_at_the_ends(cold_caches,
                                                             rows_built):
    grid = RadialGrid.log_spaced(num=200)
    for kind in ("fraclap", "riesz"):
        quadrature._raw(grid, *operator_args(kind, 3))
    ends = 2 * quadrature._END_ROWS
    assert rows_built == {"fraclap": ends, "riesz": ends}


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
    op = quadrature._raw(grid, alpha, omega)
    assert op.hi > op.lo                   # the interior is held compactly
    ref = quadrature._rows(quadrature._RowContext(grid), range(M), alpha, omega)
    want = riesz_constant(N, alpha) * (ref @ g.values)
    v = riesz_convolve_radial(g, alpha)
    assert np.max(np.abs(v.values / want - 1.0)) <= 1e-13


def test_memoised_riesz_operator_holds_O_of_M_floats():
    M = 600
    grid = RadialGrid.log_spaced(num=M)
    op = quadrature._raw(grid, *operator_args("riesz", 3))
    floats = sum(a.size for a in vars(op).values() if isinstance(a, np.ndarray))
    assert floats <= 40 * M


# The fractional Laplacian is kept by its generating row too, with its
# diagonal mass as one field, not as its M x (M+1) rows.
@pytest.mark.parametrize("N", [2, 3])
def test_memoised_fraclap_operator_holds_O_of_M_floats(N):
    M = 600
    grid = RadialGrid.log_spaced(num=M, N=N)
    op = quadrature._raw(grid, -1.0, 4.0)
    assert op.hi > op.lo
    floats = sum(a.size for a in vars(op).values() if isinstance(a, np.ndarray))
    assert floats <= 64 * M


# The operators of test_radial_ops.py's
# test_structured_fraclap_apply_matches_its_rows are held by structure,
# with a diagonal mass.
@pytest.mark.parametrize("M", [150, 600])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_structured_fraclap_operator_holds_a_mass(N, s, M):
    grid = RadialGrid.log_spaced(num=M, N=N)
    u = h_beta_function(grid, N + 0.5)
    op = quadrature._raw(grid, -2.0 * s, u.tail_exponent)
    assert op.hi > op.lo and np.any(op.mass != 0.0)


def test_structured_riesz_operator_holds_no_mass():
    grid = RadialGrid.log_spaced(num=600, N=3)
    u = h_beta_function(grid, 3.5)
    op = quadrature._raw(grid, 2.0, u.tail_exponent)
    assert op.hi > op.lo and op.mass is None
    want = op.rows() @ u.values
    assert np.max(np.abs(op.apply(u.values) - want)) <= 1e-12 * np.max(np.abs(want))


def test_memo_is_bounded_lru(cold_caches, rows_built):
    """The operator cache keeps the _CACHED most recent operators: one more
    evicts the least recently used, which a later call builds again."""
    grid = RadialGrid.log_spaced(num=32)
    omegas = [3.0 + 0.01 * k for k in range(quadrature._CACHED + 1)]
    for omega in omegas:
        quadrature._raw(grid, 2.0, omega)
    assert quadrature._raw.cache_info().currsize == quadrature._CACHED
    rows_built.update(fraclap=0, riesz=0)
    quadrature._raw(grid, 2.0, omegas[-1])
    assert rows_built == {"fraclap": 0, "riesz": 0}
    quadrature._raw(grid, 2.0, omegas[0])
    assert rows_built == {"fraclap": 0, "riesz": 2 * quadrature._END_ROWS}


def test_operator_cache_key_is_the_exact_arguments(cold_caches):
    """A grid keys an operator by its four fields, and the exponents by
    their exact values: grids built apart from equal fields share one, and
    a grid that differs in one field, or an order or tail exponent one ulp
    away, gets its own."""
    fields = dict(r_min=1e-3, r_max=1e3, size=32, N=3)
    op = quadrature._raw(RadialGrid(**fields), -1.0, 4.0)
    assert quadrature._raw(RadialGrid.log_spaced(num=32), -1.0, 4.0) is op
    for name, value in (("r_min", 2e-3), ("r_max", 2e3), ("size", 33),
                        ("N", 4)):
        grid = RadialGrid(**{**fields, name: value})
        assert quadrature._raw(grid, -1.0, 4.0) is not op
    grid = RadialGrid(**fields)
    assert quadrature._raw(grid, math.nextafter(-1.0, 0.0), 4.0) is not op
    assert quadrature._raw(grid, -1.0, math.nextafter(4.0, 5.0)) is not op
    assert quadrature._raw(grid, -1.0, 4.0) is op


def test_second_solve_reuses_operators(params, rows_built):
    # a grid of its own, so the first solve is cold whatever ran before
    grid = RadialGrid.log_spaced(r_min=2e-3, num=200)
    first = solve_ground_state(params, SolverOpts(grid=grid))
    # cold: the row builders ran, on a geometric grid for the end rows only
    ends = 2 * quadrature._END_ROWS
    assert rows_built == {"fraclap": ends, "riesz": ends}
    rows_built.update(fraclap=0, riesz=0)
    second = solve_ground_state(params, SolverOpts(grid=grid))
    assert rows_built == {"fraclap": 0, "riesz": 0}
    assert np.array_equal(first.u.values, second.u.values)


def test_chain_rule_builds_no_operator_on_a_second_check(monkeypatch,
                                                         cold_caches):
    """Both sides read the cached operators: a first check of a solution
    builds one per exponent theta (u's own comes from the solve), a second
    builds none and gives the same numbers bitwise, and another mu keeps
    the tail exponents (beta depends on N, s, alpha and r only) and so the
    operators."""
    built = []
    structured_rows = quadrature._structured_rows

    def counted(grid, order, *args):
        built.append(order)
        return structured_rows(grid, order, *args)

    monkeypatch.setattr(quadrature, "_structured_rows", counted)
    opts = SolverOpts(grid=RadialGrid.log_spaced(num=200))
    thetas = (0.3, 0.7)
    sol = solve_ground_state(make_params(1.7), opts)
    built.clear()
    first = verify_chain_rule(sol.u, thetas, 0.5)
    assert built == [-1.0, -1.0]          # the fractional Laplacian, s = 1/2
    built.clear()
    second = verify_chain_rule(sol.u, thetas, 0.5)
    assert built == []
    for a, b in zip(first, second):
        for field in ("lhs", "rhs", "margin"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    other_mu = solve_ground_state(make_params(1.7, mu=0.7), opts)
    verify_chain_rule(other_mu.u, thetas, 0.5)
    assert built == []


def test_reloaded_grid_is_assembled_by_structure(workdir):
    """A grid rebuilt from solution.json is the solve's grid: equal fields,
    so the same cache key and the same structured operators."""
    sol = load_solution(str(workdir / "solve" / "solution.json"))
    grid = RadialGrid.log_spaced(num=400)
    assert sol.u.grid == grid and hash(sol.u.grid) == hash(grid)
    op = quadrature._raw(sol.u.grid, -1.0, sol.u.tail_exponent)
    assert op is quadrature._raw(grid, -1.0, sol.u.tail_exponent)
    assert op.hi > op.lo


def test_read_side_keeps_its_operators_in_the_memo(tmp_path, cache_reads,
                                                   rows_built):
    """Two stored records (M = 400, r = 1.7 and 1.9) and the four oracle
    cases (M = 600), then verify-decay of each record twice, in one
    process: the chain-rule operators of u^theta join the cache without
    evicting another operator, and a second verification builds no rows
    and writes the same bytes."""
    records = {}
    for r in ("1.7", "1.9"):
        out = tmp_path / f"solve{r}"
        assert main(["solve", "--set", f"problem.r={r}", "--set",
                     "grid.nodes=400", "--out", str(out)]) == 0
        records[r] = out / "solution.json"
    assert main(["oracle", "--set", "grid.nodes=600",
                 "--out", str(tmp_path / "oracle")]) == 0
    operators = {key: op for key, op in cache_reads.items() if key[0] == "_raw"}
    for r, record in records.items():
        reports = []
        for k in range(2):
            rows_built.update(fraclap=0, riesz=0)
            out = tmp_path / f"verify{r}-{k}"
            assert main(["verify-decay", "--solution", str(record),
                         "--out", str(out)]) == 0
            reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert rows_built == {"fraclap": 0, "riesz": 0}
        assert reports[0] == reports[1]
    assert all(quadrature._raw(*args) is op
               for (_, args), op in operators.items())
    # both operators are kept by their generating rows: 1.5 MB measured,
    # where one dense fractional Laplacian at M = 600 alone takes 2.9 MB
    assert memo_bytes(cache_reads) <= 3e6


def test_memo_holds_operators_and_kernel_tables_only(tmp_path, cache_reads):
    """A solve, its verify-decay and an N = 2 oracle case in one process
    read only assembled operators and angular kernel tables from the
    caches: the cell quadrature of a grid belongs to one assembly."""
    assert main(["solve", "--set", "grid.nodes=400",
                 "--out", str(tmp_path / "solve")]) == 0
    assert main(["verify-decay", "--solution",
                 str(tmp_path / "solve" / "solution.json"),
                 "--out", str(tmp_path / "verify")]) == 0
    assert main(["oracle", "--case", "2,0.5,2.5", "--set", "grid.nodes=600",
                 "--out", str(tmp_path / "oracle")]) == 0
    kinds = {type(value) for value in cache_reads.values()}
    assert kinds == {quadrature._Operator, quadrature._KernelTable}


def test_read_side_with_more_operators_builds_none_on_a_second_pass(
        workdir, tmp_path, cold_caches, rows_built):
    """verify-decay of the r = 1.7 and 1.9 records (M = 400), interleaved
    with the four oracle cases (M = 600), reads 11 operators and one kernel
    table.  _CACHED keeps them all, so a second pass of this traffic builds
    none."""
    assert main(["solve", "--set", "problem.r=1.9", "--set", "grid.nodes=400",
                 "--out", str(tmp_path / "solve1.9")]) == 0
    records = [workdir / "solve" / "solution.json",
               tmp_path / "solve1.9" / "solution.json"]
    cases = ["3,0.5,2.0", "3,0.5,3.5", "2,0.5,2.5", "3,0.25,3.0"]
    for _ in range(2):
        rows_built.update(fraclap=0, riesz=0)
        for record, case in zip(records * 2, cases):
            assert main(["verify-decay", "--solution", str(record),
                         "--out", str(tmp_path / "verify")]) == 0
            assert main(["oracle", "--case", case, "--set", "grid.nodes=600",
                         "--out", str(tmp_path / "oracle")]) == 0
    assert rows_built == {"fraclap": 0, "riesz": 0}
    assert quadrature._raw.cache_info().currsize == 11
    assert quadrature._kernel_table.cache_info().currsize == 1


@pytest.fixture
def cache_reads(monkeypatch, cold_caches):
    """What the operators read from their two caches while the test runs:
    each operator and kernel table, keyed by (cache name, arguments).  A
    cache is patched where its caller looks it up: `_raw` in radial_ops,
    `_kernel_table` in the quadrature."""
    reads = {}
    for module, name in ((radial_ops, "_raw"), (quadrature, "_kernel_table")):
        def read(*args, name=name, cached=getattr(module, name)):
            reads[name, args] = value = cached(*args)
            return value
        monkeypatch.setattr(module, name, read)
    return reads


def memo_bytes(reads):
    """Bytes of the arrays of the operators and kernel tables read."""
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for v in value:
                yield from arrays(v)
        elif hasattr(value, "__dict__"):
            for v in vars(value).values():
                yield from arrays(v)

    return sum(a.nbytes for v in reads.values() for a in arrays(v))
