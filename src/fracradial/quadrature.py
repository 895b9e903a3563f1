"""The quadrature that assembles both Riesz operators on a radial grid.

Both operators are Riesz operators, of kernel C_{N,a} |x|^(a-N), named
by their order a: I_alpha is a = alpha, and (-Delta)^s is a = -2s, as the
principal value of the integral of u(y) - u(x), since C_{N,s} = -C_{N,-2s}.
The N-dimensional integrals are reduced to one dimension through the
angular kernel k_p(r, rho) = int_{S^{N-1}} |r e1 - rho w|^p dsigma(w),
p = a - N, which has an elementary closed form for N = 3; for other N it
is the closed form via 2F1, tabulated once per (N, p).  All quadrature
decisions (panel grading around the kernel singularity, Taylor subtraction
inside a local window, the far tail in closed form from the kernel's
multipole series) live here and are shared by every operator.

Every grid is geometric (log radii in arithmetic progression, as
`RadialGrid` builds them from its end radii and node count), so the
kernel is homogeneous on it: a row divided by r^a is the next row shifted
by one node.  The assembled operators are therefore built one way.  The
interior is the shifts of one generating row (Mellin-convolution
structure, as in FFTLog), and only the pieces that break the shift are
computed per row, vectorised: the end columns, the origin and far-tail
closures and the fractional Laplacian's diagonal mass.  The first and last
`_END_ROWS` rows come from one batched row builder for both signs of a,
`_rows`.  The operators differ only near the diagonal, where each takes
its own rule: the PV Taylor window (`_pv_windows`, a < 0) or the graded
diagonal cells (`_riesz_diagonal`, a > 0), whose points, virtual ones
below r_1 and beyond r_max included (PV stencil points, the Riesz cell
above the last node), all go through `_spread`.
Outside, both take the grid cells and the closure integrals over whole
regions (`_closures`): the origin model's on [0, r_1], by panels graded
toward the row's radius, and the power tail's beyond r_M, in closed form.
A fractional-Laplacian row subtracts one kernel mass on its diagonal
besides.  The generating row takes its near piece through the same rule,
and the interior rows their closures from one `_closures` call.

Everything reused across calls is kept by `functools.lru_cache`, the
`_CACHED` most recent calls of each of two functions: `_kernel_table(N, p)`,
the angular kernel table of a dimension N != 3, and `_raw(grid, a, tail
exponent)`, an assembled operator.  The key is the exact arguments, a grid
entering by its four fields.
An operator is an `_Operator`, one form for both signs of a.  It
keeps the structure in O(M) floats: the generating row, the row scales
r_i^a, dense corrections for what breaks the shift (the end rows; the
`_END_COLUMNS` node columns at each end of the other rows; the
fractional Laplacian's diagonal mass), and the operator's constant,
C_{N,a}.  Applying it is one correlation of the generating row with the
middle node values plus a few small products, times the constant.
The public operators of `fracradial.radial_ops` read it through `_raw`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from fracradial.radial import (
    _MIN_NODES, RadialGrid, _cell_stencils, _lagrange4, _origin_model, _spread,
    sphere_surface_area)
from fracradial.specfun import _defining_series, _riesz_normalization, _sum_series, hyp2f1

# Width of the Taylor window around the PV singularity, in local grid cells.
# Kept below 2 cells so the fourth-order window term cannot dominate the
# second-order one on grid-scale oscillation (see _pv_moments).
_WINDOW_CELLS = 1.5
# Geometric grading toward singular points: ratio and number of levels.
_GRADE_RATIO = 0.5
_PV_GRADE_LEVELS = 34
_RIESZ_GRADE_LEVELS = 30

_gauss = functools.cache(leggauss)


# Calls that _raw and _kernel_table each keep.  The benchmark's read side
# (verify-decay of two M = 400 records, and the four oracle cases at
# M = 600) reads 11 operators and one kernel table, and an operator keeps
# O(M) floats: 267 kB at M = 1200.
_CACHED = 64


# ----------------------------------------------------------------------------
# Angular kernel
# ----------------------------------------------------------------------------

def _kernel3_arrays(r, rho, p: float, dist):
    """Closed form of the angular kernel in dimension three (vectorized).

    For N = 3 the polar integral has the elementary antiderivative
    2 pi / (r rho (p+2)) * ((r+rho)^(p+2) - |r-rho|^(p+2)); the exponent
    p = -2 is the logarithmic limit of that expression.  |r - rho| is the
    caller's offset dist (see _kernel_eval).
    """
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    ssum = r + rho
    e = p + 2.0
    if abs(e) < 1e-8:
        base = 2.0 * math.pi / (r * rho) * np.log(ssum / dist)
        if e == 0.0:
            return base
        # first-order correction of ((x^e - y^e)/e) around e = 0
        return base * (1.0 + 0.5 * e * np.log(ssum * dist))
    return 2.0 * math.pi / (r * rho * e) * (ssum ** e - dist ** e)


def _kernel_at_gap(gap, p: float, N: int):
    """Angular kernel k_p(1, 1 + gap) for gap > 0 and p < 0, in closed form.

    By Pfaff's transformation of the polar integral,

        k_p(1, q) = |S^{N-1}| (q-1)^p 2F1(-p/2, (N-1)/2; N-1; -4q/(q-1)^2).

    The argument is formed from the gap itself, since 1 + gap keeps only
    about eps/gap of it.  The larger of -p/2 and (N-1)/2 goes first, so
    a - b >= 0 as hyp2f1 requires.  Every operator kernel has p = a - N < 0,
    a being the order: -2s for the fractional Laplacian, alpha for I_alpha.

    gap is a scalar, which gives a float, or an ndarray, which gives an
    array from one hyp2f1 call; each value equals the scalar call's.
    """
    gap = np.asarray(gap, dtype=float)
    a, h = -0.5 * p, 0.5 * (N - 1)
    out = sphere_surface_area(N) * gap ** p \
        * hyp2f1(max(a, h), min(a, h), N - 1.0, -4.0 * (1.0 + gap) / (gap * gap))
    return float(out) if out.ndim == 0 else out


class _KernelTable:
    """Angular kernel k_p(1, q) for one (N, p), evaluated by the gap q - 1 of
    the radius ratio: the closed form via 2F1 (`_kernel_at_gap`), tabulated
    once per (N, p).

    The kernel is log-log smooth in q - 1, so cubics in log(q - 1), each
    interval's through its four nearest nodes (the operators' stencil,
    `_cell_stencils`), cover ratios from the deepest PV grading (1 + 1e-13)
    up to _Q_HI.  Beyond, the multipole series

        k_p(1, q) = |S^{N-1}| q^p 2F1(-p/2, (2-N-p)/2; N/2; q^(-2))

    is summed to round-off (q^(-2) <= 4e-4 there, so about six terms).
    Both the nodes and the callers pass the gap itself: q = 1 + 1e-12
    keeps only four digits of it.
    """

    _Q_HI = 50.0
    # points per evaluation pass, and intervals per pass of the build, which
    # bound the temporaries of a call
    _SLICE = 4096
    _BUILD_BLOCK = 512

    def __init__(self, N: int, p: float):
        self.N = N
        self.p = p
        x = np.linspace(math.log(1e-13), math.log(self._Q_HI - 1.0), 4800)
        y = np.log(_kernel_at_gap(np.exp(x), p, N))
        # each interval's cubic in powers of t - x_i, from its values at
        # four points of the interval, fractions theta of its width
        theta = np.arange(4) / 3.0
        dx = np.diff(x)
        vals = np.empty((dx.size, 4))
        for lo in range(0, dx.size, self._BUILD_BLOCK):
            cells = slice(lo, lo + self._BUILD_BLOCK)
            base, W = _cell_stencils(x, x[:-1][cells, None] + dx[cells, None] * theta,
                                     cells)
            vals[cells] = np.einsum("iqm,im->iq", W, y[base[:, None] + np.arange(4)])
        c = vals @ np.linalg.inv(np.vander(theta, increasing=True)).T \
            / dx[:, None] ** np.arange(4)
        self._x = x
        self._inner = x[1:-1]
        self._c0, self._c1, self._c2, self._c3 = c.T.copy()
        self._omega = sphere_surface_area(N)

    def eval_gap(self, gap: np.ndarray) -> np.ndarray:
        gap = np.asarray(gap, dtype=float)
        out = np.empty(gap.shape)
        flat_gap, flat_out = gap.ravel(), out.reshape(-1)
        for lo in range(0, flat_gap.size, self._SLICE):
            self._eval_into(flat_gap[lo:lo + self._SLICE],
                            flat_out[lo:lo + self._SLICE])
        return out

    def _eval_into(self, gap: np.ndarray, out: np.ndarray) -> None:
        near = gap < self._Q_HI - 1.0
        if near.any():
            y = self._log_kernel(np.log(gap[near]))
            out[near] = np.exp(y, out=y)
        if not near.all():
            qq = 1.0 + gap[~near]
            out[~near] = self._omega * qq ** self.p * self._far_series(qq ** -2.0)

    def _log_kernel(self, xq: np.ndarray) -> np.ndarray:
        """log k_p(1, 1 + e^xq) from the table; points beyond either end
        take the end interval's cubic."""
        # counting the interior nodes <= xq gives the interval, clamped to
        # the end intervals outside [x[0], x[-1]]
        i = np.searchsorted(self._inner, xq, side="right")
        s = self._x[i]
        np.subtract(xq, s, out=s)
        # Horner in place: ((c3 s + c2) s + c1) s + c0
        out = self._c3[i]
        for c in (self._c2, self._c1, self._c0):
            out *= s
            out += c[i]
        return out

    def _far_series(self, z: np.ndarray) -> np.ndarray:
        """2F1(-p/2, (2-N-p)/2; N/2; z) for 0 < z <= 1/_Q_HI^2, by its
        defining series."""
        return _defining_series(-0.5 * self.p, 0.5 * (2.0 - self.N - self.p),
                                0.5 * self.N, z)


@functools.lru_cache(maxsize=_CACHED)
def _kernel_table(N: int, p: float) -> _KernelTable:
    return _KernelTable(N, p)


def _kernel_eval(N: int, p: float, r: float, rho: np.ndarray,
                 dist: np.ndarray) -> np.ndarray:
    """Vectorized angular kernel k_p(r, rho), given the offset dist = |rho - r|
    as the caller formed it; dist must be positive.

    Near the diagonal the kernel is a power of the offset, and rho = r + xi
    keeps only about eps r / xi of xi: the PV window and the Riesz diagonal
    cells, which start from xi, pass xi itself.  Every other caller passes
    np.abs(r - rho), which equals max(r, rho) - min(r, rho) bitwise.  For
    N != 3 the table is read at the gap dist / min(r, rho); big / m - 1
    would keep fewer digits of it.
    """
    rho = np.asarray(rho, dtype=float)
    if N == 3:
        return _kernel3_arrays(r, rho, p, dist)
    m = np.minimum(r, rho)
    return m ** p * _kernel_table(N, p).eval_gap(dist / m)


# ----------------------------------------------------------------------------
# Row assembly shared by the operators
# ----------------------------------------------------------------------------

class _RowContext:
    """The cell quadrature of one grid, built once per operator assembly
    and shared by its rows: 4 Gauss points a cell, with their weights for
    rho^{N-1} drho and their cubic stencils.

    Function values at cell quadrature points are reconstructed by 4-point
    (cubic) Lagrange interpolation in log radius; piecewise-linear hats are
    not accurate enough next to the PV window, where the kernel weight
    amplifies interpolation error.
    """

    def __init__(self, grid: RadialGrid):
        self.grid = grid
        tt = grid.log_nodes
        self.tt = tt
        x4, w4 = _gauss(4)
        mid = 0.5 * (tt[1:] + tt[:-1])
        half = 0.5 * (tt[1:] - tt[:-1])
        tq = mid[:, None] + half[:, None] * x4[None, :]
        rho = np.exp(tq)
        self.cell_rho = rho                                # (M-1, 4)
        self.cell_w = w4[None, :] * half[:, None] * rho ** (grid.N)
        # (M-1,) and (M-1, 4, 4)
        self.cell_base, self.cell_cubw = _cell_stencils(tt, tq)


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each entry of x.  It is correctly rounded where numpy's
    vector log is one bit off (about 2 in 10^4 arguments), and a
    fractional-Laplacian row amplifies one bit of a stencil's or window's
    log radius to 3e-15 of the row's largest entry at M = 1200."""
    return np.array([math.log(v) for v in x.tolist()])


def _stencil_offsets(tt: np.ndarray, i: np.ndarray,
                     t0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seven log-space stencil points centred on each node i (R,), whose
    log radius is t0 (R,).

    Returns the offsets delta = t - t0 and the log radii t of the points,
    each (R, 7).  A point i + k beyond either end of the grid is virtual:
    it continues the end cell's log spacing, below r_1 or beyond r_M.
    """
    M = tt.size
    j = i[:, None] + np.arange(-3, 4)
    t = np.where(j < 0, tt[0] + j * (tt[1] - tt[0]),
                 np.where(j >= M, tt[-1] + (j - (M - 1)) * (tt[-1] - tt[-2]),
                          tt[np.minimum(np.maximum(j, 0), M - 1)]))
    return t - t0[:, None], t


def _derivative_stencils(offsets: np.ndarray) -> np.ndarray:
    """Weights c[i, k, m] with sum_m c[i, k, m] u(t0_i + offsets[i, m]) ~=
    d^{k+1} u/dt^{k+1} at t0_i, for orders 1..4, exact on polynomials of
    degree 6: one batched 7 x 7 solve over the rows of offsets (R, 7)."""
    R = offsets.shape[0]
    # A[i, m, k] = offsets[i, m]^k by running products, as np.vander forms them
    A = np.ones((R, 7, 7))
    A[:, :, 1:] = offsets[:, :, None]
    np.multiply.accumulate(A[:, :, 1:], axis=2, out=A[:, :, 1:])
    rhs = np.zeros((R, 7, 4))
    rhs[:, 1, 0] = 1.0
    rhs[:, 2, 1] = 2.0
    rhs[:, 3, 2] = 6.0
    rhs[:, 4, 3] = 24.0
    return np.linalg.solve(A.transpose(0, 2, 1), rhs).transpose(0, 2, 1)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b, axis=-1) over the broadcast leading axes, each product
    taken as one BLAS dot, as a @ b is for 1-d a and b; a matrix-vector
    product would not promise that a row's value is independent of the
    rows beside it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _pv_moments(N: int, order: float, r: np.ndarray, w: np.ndarray):
    """Singular window moments of the PV kernel of order a = -2s (p = a - N)
    around radii r (R,) with window half-widths w (R,).

    Mk = PV int_{|xi|<w} xi^k g(r+xi) dxi for k = 1..4, where
    g(rho) = k_p(r, rho) rho^{N-1}, each returned as an (R,) array.  Odd
    moments are paired as xi^k (g(r+xi) - g(r-xi)) so every integrand is
    O(xi^{1-2s}) or milder, and a graded geometric subdivision with a
    power-law stub resolves it: 137 points a radius.

    A caution on the fourth-order term: on grid-scale oscillation it responds
    with the opposite sign of the second-order term and a relative magnitude
    of about (pi w / h)^2 (2-2s) / (12 (4-2s)), so for windows wider than two
    cells it flips the sign of the high-frequency symbol and makes the
    assembled resolvent nearly singular.  The window width must stay below
    that threshold (see _WINDOW_CELLS) for the expansion to be usable.

    The kernel is evaluated at the offsets xi themselves, not at r +- xi
    rounded: where r is a power of two, r - xi rounds on a finer spacing
    than r + xi, and the odd moments kept that difference (a relative
    error of 1.1e-4 in the pointwise value at r = 2 for s = 1/2, of 90 for
    s = 3/4).
    """
    R = r.size
    edges = w[:, None] * _GRADE_RATIO ** np.arange(_PV_GRADE_LEVELS + 1)
    x4, w4 = _gauss(4)
    a, b, x0 = edges[:, 1:, None], edges[:, :-1, None], edges[:, -1:]
    # the graded points, then the power-law stub's point x0: the integrand
    # xi^k g is taken as a power of xi below x0, of exponent 1-2s for the
    # first two moments and 3-2s for the last two
    xi = np.concatenate(((0.5 * (a + b) + 0.5 * (b - a) * x4).reshape(R, -1), x0), axis=1)
    wq = (0.5 * (b - a) * w4).reshape(R, -1)
    w_lo = np.concatenate((wq, x0 / (2.0 + order)), axis=1)
    w_hi = np.concatenate((wq, x0 / (4.0 + order)), axis=1)
    rr = r[:, None]
    p = order - N
    gp = _kernel_eval(N, p, rr, rr + xi, xi) * (rr + xi) ** (N - 1)
    gm = _kernel_eval(N, p, rr, rr - xi, xi) * (rr - xi) ** (N - 1)
    odd = gp - gm
    even = gp + gm
    return (_rowdot(w_lo, xi * odd), _rowdot(w_lo, xi * xi * even),
            _rowdot(w_hi, xi ** 3 * odd), _rowdot(w_hi, xi ** 4 * even))


def _graded_edges(r: np.ndarray, d0: np.ndarray, hi) -> np.ndarray:
    """Panel edges on [0, hi] for radii r > hi, graded so panel width grows
    with distance from r: 0, hi and the points r - d0 2^k strictly between.

    Vectorised over rows, hi a float or one per row: returns (n, 6) sorted
    edges, a missing point repeating hi (an empty panel).  Every caller has
    d0 >= 0.1 r, so only k < 4 can land above 0.
    """
    hi = np.broadcast_to(hi, r.shape)[:, None]
    cand = r[:, None] - d0[:, None] * 2.0 ** np.arange(4)
    cand = np.where((cand > 0.0) & (cand < hi), cand, hi)
    return np.sort(np.concatenate([np.zeros_like(hi), hi, cand], axis=1), axis=1)


def _origin_sums(grid: RadialGrid, p: float, r: np.ndarray,
                 edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel integrals over panels of [0, r_1] under the quadratic origin
    model, 8 Gauss points a panel, vectorised over radii r (n,) with panel
    edges (n, E): the weights of u_1 and u_2 and the kernel mass.  An
    empty panel adds 0, also at r or at 0: its points take the radius r
    and the offset r."""
    N = grid.N
    x, wq = _gauss(8)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    rr = r[:, None, None]
    rho = np.where(b > a, 0.5 * (a + b) + 0.5 * (b - a) * x, rr)
    contrib = 0.5 * (b - a) * wq * rho ** (N - 1) \
        * _kernel_eval(N, p, rr, rho, np.where(b > a, np.abs(rr - rho), rr))
    w1, w2 = _origin_model(grid, (rho / grid.nodes[0]) ** 2)
    return (np.sum(contrib * w1, axis=(1, 2)),
            np.sum(contrib * w2, axis=(1, 2)), np.sum(contrib, axis=(1, 2)))


def _closures(grid: RadialGrid, order: float, r: np.ndarray, lo: np.ndarray,
              d0: np.ndarray, hi: np.ndarray, omega: float):
    """Kernel integrals of the rows of order a at radii r (n,) over the
    closures outside the intervals (lo, hi) (n,) around them: [0, r_1]
    below lo under the origin model, graded toward r at distances
    d0 r 2^k (see _graded_edges), and beyond T = max(hi, r_M) under the
    tail model of exponent omega, in closed form.  There the kernel's
    multipole series (see _KernelTable), integrated term by term, gives

        int_T^inf k_p(r, rho) rho^(N-1) (rho/r_M)^(-omega) drho
            = |S^{N-1}| T^a (T/r_M)^(-omega) sum_k c_k z^k / (omega - a + 2k)

    with p = a - N, z = (r/T)^2 and c_k = (-p/2)_k ((2-N-p)/2)_k /
    ((N/2)_k k!); at omega = 0 it is the kernel mass beyond T, finite for
    a < 0.

    Returns the weights c1, c2 of u_1 and u_2, the kernel mass below, the
    tail weights and, for a < 0, the kernel mass beyond (else None), each
    (n,); the two masses stay apart, so a row adds them in its own order."""
    N = grid.N
    rM = grid.nodes[-1]
    p = order - N
    c1, c2, below = _origin_sums(grid, p, r,
                                 _graded_edges(r, d0 * r, np.minimum(lo, grid.nodes[0])))
    T = np.maximum(hi, rM)
    z = (r / T) ** 2
    A, B, C = -0.5 * p, 0.5 * (2.0 - N - p), 0.5 * N

    def series(d: float) -> np.ndarray:
        # sum_k c_k z^k / (d + 2k), whose terms c_k z^k / (2 (d/2 + k))
        # start at 1/d
        e = 0.5 * d
        return _sum_series(z, lambda n: (A + n) * (B + n) * (e + n)
                           / ((C + n) * (1.0 + n) * (e + 1.0 + n)),
                           first=1.0 / d, what=f"tail series (N={N}, a={order})")[0]

    outer = sphere_surface_area(N) * T ** order
    tail = outer * (T / rM) ** -omega * series(omega - order)
    beyond = outer * series(-order) if order < 0.0 else None
    return c1, c2, below, tail, beyond


def _pv_windows(ctx: _RowContext, i: np.ndarray, order: float, omega: float):
    """The Taylor windows of fractional-Laplacian rows (kernel order
    a = -2s) at the nodes i (R,), of _WINDOW_CELLS local cells each side,
    and the parts of the cells their edges cut (at most one at each edge).

    Returns what they add to the rows' (R, M) coefficients over the node
    values (the window's of u(r+xi) - u(r), a virtual stencil point through
    the closures), the kernel mass of the cut parts (R,), the windows
    (r - w, r + w) and the grading distance max(w / r, 0.1) of the origin
    panels, each (R,).
    """
    grid = ctx.grid
    N = grid.N
    tt = ctx.tt
    nodes = grid.nodes
    M = nodes.size
    R = i.size
    r = nodes[i]
    p = order - N
    t0 = _logs(r)
    j = np.minimum(np.maximum(np.searchsorted(tt, t0) - 1, 0), M - 2)
    w = np.minimum(_WINDOW_CELLS * (tt[j + 1] - tt[j]), 0.5) * r
    lo_w, hi_w = r - w, r + w

    m1, m2, m3, m4 = (m[:, None] for m in _pv_moments(N, order, r, w))
    offsets, t = _stencil_offsets(tt, i, t0)
    ut, utt, uttt, utttt = _derivative_stencils(offsets).transpose(1, 0, 2)
    rr = r[:, None]
    # radial derivatives via log-derivatives: u_r = u_t / r,
    # u_rr = (u_tt - u_t)/r^2, u_rrr = (u_ttt - 3u_tt + 2u_t)/r^3,
    # u_rrrr = (u_tttt - 6u_ttt + 11u_tt - 6u_t)/r^4
    lam = ((m1 / rr) * ut
           + (0.5 * m2 / rr ** 2) * (utt - ut)
           + (m3 / (6.0 * rr ** 3)) * (uttt - 3.0 * utt + 2.0 * ut)
           + (m4 / (24.0 * rr ** 4)) * (utttt - 6.0 * uttt
                                        + 11.0 * utt - 6.0 * ut))
    # a stencil point adds lam through the value rule: to its node, or
    # below r_1 to u_1 and u_2, or beyond r_M to u_M
    coeffs = np.zeros((R, M))
    _spread(coeffs, np.repeat(np.arange(R), 7), grid, np.exp(t).ravel(), lam.ravel(),
            omega, t.ravel())

    # the parts of the cells cut by the window edges that lie outside it:
    # the cell holding an edge strictly inside it
    edge = np.stack((lo_w, hi_w), axis=1)
    cell = np.searchsorted(nodes, edge) - 1
    c = np.minimum(np.maximum(cell, 0), M - 2)
    cut = (cell == c) & (edge < nodes[c + 1])
    prow = np.nonzero(cut)[0]
    a = np.stack((tt[c[:, 0]], _logs(hi_w)), axis=1)[cut][:, None]
    b = np.stack((_logs(lo_w), tt[c[:, 1] + 1]), axis=1)[cut][:, None]
    x4, w4 = _gauss(4)
    half = 0.5 * (b - a)
    tq = 0.5 * (a + b) + half * x4
    rho = np.exp(tq)
    rp = r[prow, None]
    contrib = half * w4 * rho ** N * _kernel_eval(N, p, rp, rho, np.abs(rp - rho))
    mass = np.zeros(R)
    np.add.at(mass, prow, np.sum(contrib, axis=1))
    _spread(coeffs, np.repeat(prow, 4), grid, rho.ravel(), contrib.ravel(), omega,
            tq.ravel())
    return coeffs, mass, lo_w, hi_w, np.maximum(w / r, 0.1)


def _riesz_diagonal(ctx: _RowContext, i: np.ndarray, order: float, omega: float):
    """The near-diagonal pieces of the Riesz rows (kernel order a = alpha)
    at the nodes i (R,), in the shape _pv_windows returns: the (R, M)
    coefficients, a zero kernel mass, the intervals (lo, hi) covered and
    the grading distance 0.1 of the origin panels.

    The two cells touching r = r_i are graded toward r in
    _RIESZ_GRADE_LEVELS levels of 4 Gauss points with a power-law stub for
    the last: below the first node the origin region [0, r_1], whose
    singularity sits where it ends, and above the last the virtual cell
    [r_M, r_M e^h] of the tail model, h the end cell's log spacing, as the
    PV stencil continues it (`_stencil_offsets`).  Every graded point and
    stub goes to the columns through the value rule (`_spread`).  The
    points are offsets xi from r, and the kernel is evaluated at xi itself
    (see _kernel_eval): r +- xi keeps only about eps r / xi of xi.
    """
    N = ctx.grid.N
    nodes = ctx.grid.nodes
    tt = ctx.tt
    M, R = nodes.size, i.size
    p = order - N
    r = nodes[i]
    lo = np.where(i > 0, nodes[np.maximum(i - 1, 0)], 0.0)
    hi = np.where(i < M - 1, nodes[np.minimum(i + 1, M - 1)],
                  math.exp(tt[-1] + (tt[-1] - tt[-2])))
    levels = _GRADE_RATIO ** np.arange(_RIESZ_GRADE_LEVELS + 1)
    x4, w4 = _gauss(4)

    # the cells below the radii, then the cells above
    side = np.tile(np.arange(R), 2)
    edges = np.concatenate((r - lo, hi - r))[:, None] * levels
    xb, xa, x0 = edges[:, :-1, None], edges[:, 1:, None], edges[:, -1:]
    half = 0.5 * (xb - xa)
    # the graded points, then the stub's two points x0 and 2 x0
    xi = np.concatenate(((0.5 * (xa + xb) + half * x4).reshape(2 * R, -1),
                         x0, 2.0 * x0), axis=1)
    rs = r[side, None]
    rho = rs + np.repeat([-1.0, 1.0], R)[:, None] * xi
    g = rho ** (N - 1) * _kernel_eval(N, p, rs, rho, xi)
    # below x0, the power law through the integrand at x0 and 2 x0
    gam = np.log(g[:, -1] / g[:, -2]) / math.log(2.0)
    if np.any(gam <= -1.0):
        raise RuntimeError("riesz quadrature: non-integrable diagonal stub")
    stub = g[:, -2] * x0[:, 0] / (gam + 1.0)
    wg = (half * w4).reshape(2 * R, -1) * g[:, :-2]
    # a row takes its graded points side by side, then its stubs at its node
    coeffs = np.zeros((R, M))
    _spread(coeffs, np.concatenate((np.repeat(side, xi.shape[1] - 2), side)), ctx.grid,
            np.concatenate((rho[:, :-2].ravel(), r[side])),
            np.concatenate((wg.ravel(), stub)), omega,
            np.concatenate((np.log(rho[:, :-2]).ravel(), tt[i[side]])))
    return coeffs, np.zeros(R), lo, hi, np.full(R, 0.1)


def _rows(ctx: _RowContext, which, order: float, omega: float) -> np.ndarray:
    """Unscaled rows of the kernel of order a at the node indices `which`
    (R,), built together: their (R, M) coefficients over the node values,
    the far weights of a tail of exponent omega added to the last column
    last.
    C_{N,a} is NOT applied here: the _Operator holds it.

    Row i integrates k_p(r_i, rho) rho^{N-1} drho, p = a - N, against u for
    I_alpha (a = alpha) and against u(rho) - u(r_i), a principal value,
    for (-Delta)^s (a = -2s).  Near r_i each takes its own rule
    (_pv_windows or _riesz_diagonal), and outside it the grid cells and
    the closures (_closures: the origin region by graded panels, the far
    tail beyond max(hi, r_M) by its series; the last Riesz row's hi is
    r_M e^h, past its virtual diagonal cell).  A fractional-Laplacian row
    subtracts its kernel mass on the diagonal, summed in a fixed order:
    the row cancels far below its entries.  Each row equals the one built
    alone (R = 1) bitwise; the cells take (R, 4, M-1) temporaries.
    """
    grid = ctx.grid
    N = grid.N
    nodes = grid.nodes
    M = nodes.size
    i = np.asarray(which, dtype=int)
    r = nodes[i]
    p = order - N
    near = _pv_windows if order < 0.0 else _riesz_diagonal
    coeffs, mass, lo, hi, d0 = near(ctx, i, order, omega)

    # the cells clear of each interval, from one masked kernel evaluation
    # laid out (R, 4, M-1), Gauss point by cell, so the products below run
    # along the cells; a masked cell takes the offset r, which keeps its
    # discarded kernel values finite where a quadrature point meets r
    full = ((nodes[1:] <= lo[:, None]) | (nodes[:-1] >= hi[:, None]))[:, None, :]
    rr = r[:, None, None]
    rho = ctx.cell_rho.T
    dist = np.where(full, np.abs(rr - rho), rr)
    contrib = np.where(full, ctx.cell_w.T * _kernel_eval(N, p, rr, rho, dist), 0.0)
    mass += np.sum(contrib, axis=(1, 2))
    cubw = np.ascontiguousarray(ctx.cell_cubw.transpose(1, 2, 0))   # (q, m, cell)
    per_node = contrib[:, 0, None] * cubw[0]
    for q in range(1, 4):
        per_node += contrib[:, q, None] * cubw[q]
    # each column takes its cells in order; coeffs is C-contiguous, so its
    # flat view takes the sums
    slots = M * np.arange(r.size)[:, None, None] + ctx.cell_base[:, None] + np.arange(4)
    np.add.at(coeffs.reshape(-1), slots.ravel(), per_node.transpose(0, 2, 1).ravel())

    c1, c2, below, tail, beyond = _closures(grid, order, r, lo, d0, hi, omega)
    coeffs[:, 0] += c1
    coeffs[:, 1] += c2
    if order < 0.0:
        # the kernel mass multiplies -u(r), u at the row's node
        coeffs[np.arange(i.size), i] -= mass + below + beyond
    coeffs[:, -1] += tail
    return coeffs


# Rows built by _rows at each end of a grid, and node columns at each end
# that the clipped stencils of the end cells reach.  Rows in between keep
# their Taylor window, partial cells and graded diagonal cells (offsets
# -4..4) clear of those columns and of both ends.
_END_ROWS = _MIN_NODES // 4
_END_COLUMNS = 4


@dataclass
class _Operator:
    """The rows of one operator at every node, stored by structure.

    Row i times `constant`, C_{N,a} for the kernel order a, maps the node
    values u to the operator value at node i.  The interior rows
    i = lo..hi-1 are, at the node columns E..M-1-E (E = _END_COLUMNS),
    shifts of one generating row:
    row lo+k there is scale[k] gen[K-1-k : K-1-k+M-2E], K = hi - lo.
    `edges` (K, 2E) holds their first and last E node columns, and `mass`
    (K,), when there is one, what their diagonal adds to the shift: minus
    the fractional Laplacian's kernel mass.  The Riesz diagonal shifts like
    the rest of its rows, so that operator has none.  `ends` holds every
    other row densely: rows 0..lo-1, then hi..M-1.
    """

    ends: np.ndarray
    lo: int
    hi: int
    gen: np.ndarray
    scale: np.ndarray
    edges: np.ndarray
    constant: float
    mass: np.ndarray | None = None

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The operator values at the nodes for the node values u; the
        interior is one correlation of gen with the middle node values."""
        lo, hi, E = self.lo, self.hi, _END_COLUMNS
        M = u.size
        out = np.empty(M)
        out[:lo] = self.ends[:lo] @ u
        out[hi:] = self.ends[lo:] @ u
        corr = np.correlate(self.gen, u[E:M - E], "valid")[::-1]
        out[lo:hi] = self.scale * corr + self.edges @ np.concatenate((u[:E], u[M - E:]))
        if self.mass is not None:
            out[lo:hi] += self.mass * u[lo:hi]
        out *= self.constant
        return out

    def rows(self) -> np.ndarray:
        """The (M, M) coefficients of every row, as a fresh array."""
        lo, hi, E = self.lo, self.hi, _END_COLUMNS
        M = self.ends.shape[1]
        rows = np.empty((M, M))
        rows[:lo] = self.ends[:lo]
        rows[hi:] = self.ends[lo:]
        shifts = np.lib.stride_tricks.sliding_window_view(self.gen, M - 2 * E)
        np.multiply(shifts[::-1], self.scale[:, None], out=rows[lo:hi, E:M - E])
        rows[lo:hi, :E] = self.edges[:, :E]
        rows[lo:hi, M - E:] = self.edges[:, E:]
        if self.mass is not None:
            inner = np.arange(lo, hi)
            rows[inner, inner] += self.mass
        rows *= self.constant
        return rows


def _structured_rows(grid: RadialGrid, order: float, tail_omega: float) -> _Operator:
    """The rows of _rows at every node of the grid, built from one
    generating row and stored by structure (see _Operator).

    With r_i = r_1 e^{i h}, the kernel is homogeneous, k_p(l r, l rho) =
    l^p k_p(r, rho) with p = a - N, so away from the ends row i divided by
    its scale r_i^(N+p) = r_i^a is row i+1 divided by its scale and
    shifted by one node.  Interior rows are therefore shifts of a
    generating row: the near-diagonal pieces of the middle row plus the
    full cells at every offset, integrated once at r = 1.  What is not
    shift-invariant is computed per row, vectorised: the end columns (the
    end cells' clipped stencils), and, from one _closures call for all
    interior rows, the origin region (the first two columns), the far
    tail beyond r_M (the last column) and, for the fractional Laplacian
    (a = -2s < 0), minus the kernel mass on the diagonal.  The end rows
    come from _rows itself.
    """
    ctx = _RowContext(grid)
    N = grid.N
    nodes = grid.nodes
    M = nodes.size
    tt = ctx.tt
    h = (tt[-1] - tt[0]) / (M - 1)
    fraclap = order < 0.0
    p = order - N
    scale = nodes ** (N + p)

    # near-diagonal pieces of the middle row, the cells they cover and the
    # grading distance of the origin panels
    g = M // 2
    (near,), (near_mass,), (a,), (b,), (d0,) = \
        (_pv_windows if fraclap else _riesz_diagonal)(ctx, np.array([g]), order,
                                                      tail_omega)
    excluded = (nodes[1:] > a) & (nodes[:-1] < b)

    # full cells at offsets e = c - i in [-(M+1), M], integrated at r = 1
    x4, w4 = _gauss(4)
    rho = np.exp((np.arange(-(M + 1), M + 1)[:, None] + 0.5 + 0.5 * x4) * h)
    cells = 0.5 * h * w4 * rho ** N * _kernel_eval(N, p, 1.0, rho, np.abs(1.0 - rho))
    cells[np.flatnonzero(excluded) - g + M + 1] = 0.0
    per_node = cells @ _lagrange4(np.arange(-1.0, 3.0), 0.5 + 0.5 * x4)

    # generating row gen[d + M - 1], d = j - i: cell e puts node e - 1 + m
    L = 2 * M - 1
    gen = per_node[3:3 + L, 0] + per_node[2:2 + L, 1] \
        + per_node[1:1 + L, 2] + per_node[:L, 3]
    gen[M - 1 - g:2 * M - 1 - g] += near / scale[g]

    lo, hi = _END_ROWS, M - _END_ROWS
    inner = np.arange(lo, hi)

    # end columns: only the real cells whose stencils reach them; edge
    # column j holds node j < E, column j - M + 2E node j >= M - E
    E = _END_COLUMNS
    edges = np.zeros((hi - lo, 2 * E))
    for c in (*range(E + 1), *range(M - E - 2, M - 1)):
        base = ctx.cell_base[c]
        part = scale[lo:hi, None] * (cells[c - inner + M + 1] @ ctx.cell_cubw[c])
        for m in range(4):
            j = base + m
            if j < E:
                edges[:, j] += part[:, m]
            elif j >= M - E:
                edges[:, j - M + 2 * E] += part[:, m]

    # origin region and far tail; an empty interval at r: the closures
    # start at r_1 and r_M.  The tail continues u_M: its weights go to the
    # last node column
    r = nodes[lo:hi]
    c1, c2, m0, tail, m1 = _closures(grid, order, r, r, d0, r, tail_omega)
    edges[:, 0] += c1
    edges[:, 1] += c2
    edges[:, -1] += tail
    mass = None
    if fraclap:  # the Riesz diagonal shifts like the rest of the row
        # the full cells c = 0 .. M-2 of row i sit at offsets -i .. M-2-i
        cum = np.concatenate(([0.0], np.cumsum(cells.sum(axis=1))))
        mass = -(m0 + m1) - scale[lo:hi] * (cum[2 * M - inner] - cum[M + 1 - inner]
                                            + near_mass / scale[g])

    ends = _rows(ctx, np.r_[:lo, hi:M], order, tail_omega)
    # the generating row where the interior rows reach the middle columns
    return _Operator(ends=ends, lo=lo, hi=hi,
                     gen=gen[E + M - hi:2 * M - 1 - E - lo].copy(),
                     scale=scale[lo:hi], edges=edges,
                     constant=_riesz_normalization(N, order), mass=mass)


@functools.lru_cache(maxsize=_CACHED)
def _raw(grid: RadialGrid, order: float, tail_omega: float) -> _Operator:
    """The operator of kernel order a (`order`: alpha for I_alpha, -2s for
    (-Delta)^s) at every node, assembled from one generating row and
    cached as an _Operator with its constant C_{N,a}."""
    return _structured_rows(grid, order, tail_omega)
