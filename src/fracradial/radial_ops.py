"""Discrete operators for radial functions on R^N.

A radial function (`RadialFunction`) is its values u_1, ..., u_M at the
nodes of a logarithmic grid and a tail exponent omega > 0.  One rule,
`_value_weights`, gives its value at any radius as weights on four node
columns: the quadratic origin model u(0) + (u_1 - u(0)) (rho/r_1)^2 below
r_1, whose u(0) = g1 u_1 + g2 u_2 is the quadratic in rho through the
first two nodes (`_origin_closure`), the cubic in log radius through the
four nearest nodes (`_cubic_basis`) on [r_1, r_max], and the power tail
u_M (rho/r_max)^(-omega) beyond.  Both closures continue the nearest
samples by construction, and `volume_integral` continues its trapezoid
sum in log radius through their samples.
`RadialFunction.evaluate` applies the rule to the values, and `_spread`
adds an operator row's weights sitting at radii to its node columns
through it.  On top of that representation this module provides

* the principal-value fractional Laplacian, as an assembled matrix whose
  values at the nodes are read between them as any radial function is,
* the Riesz-potential convolution I_alpha * g, and
* the volume integral of a power of a radial function.

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
middle node values plus a few small products, times the constant;
`fraclap_matrix` expands the rows, the constant applied, for the
resolvent's inverse on each call.  Callers pass nothing: the grid and the
exponents alone decide what is reused.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from fracradial.specfun import (
    _defining_series, _riesz_normalization, _sum_series, h_beta_eval, hyp2f1)

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "sphere_surface_area",
    "h_beta_function",
    "frac_laplacian_radial",
    "frac_laplacian_on_grid",
    "fraclap_matrix",
    "riesz_convolve_radial",
    "volume_integral",
]

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


def sphere_surface_area(N: int) -> float:
    """Surface area of the unit sphere S^{N-1}."""
    if int(N) != N or N < 1:
        raise ValueError(f"sphere_surface_area: N must be a positive integer, got {N!r}")
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


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
# Grid and function representation
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Geometric radial grid: `size` nodes from r_min to r_max in geometric
    progression, with quadrature weights for r^{N-1} dr.

    The four fields define the grid, and key its operators in the cache;
    the nodes, weights and log nodes are derived from them.  The weights
    are the trapezoid rule in t = log r, h r_j^N for the log spacing h,
    with full weight at both ends: `volume_integral` continues the sum
    below r_1 and beyond r_M with the closures' samples.
    A grid has at least 4 `_END_ROWS` nodes, so that the assembled
    operators have interior rows clear of both ends.
    """

    r_min: float
    r_max: float
    size: int
    N: int

    def __post_init__(self):
        r_min, r_max, M, N = self.r_min, self.r_max, self.size, self.N
        if int(N) != N or N < 2:
            raise ValueError(f"RadialGrid: N must be an integer >= 2, got {N!r}")
        if not (0.0 < r_min < r_max):
            raise ValueError("RadialGrid: need 0 < r_min < r_max")
        if isinstance(M, bool) or not isinstance(M, numbers.Integral):
            raise ValueError(f"RadialGrid: size must be an integer, got {M!r}")
        if M < 4 * _END_ROWS:
            raise ValueError(
                f"RadialGrid: need at least {4 * _END_ROWS} nodes, got {M!r}")
        if N * math.log(r_max) >= math.log(np.finfo(float).max):
            raise ValueError(
                f"RadialGrid: r_max = {r_max!r} is out of range: the "
                f"weights need r_max**{N} below {np.finfo(float).max:.3g}")
        M, N = int(M), int(N)
        nodes = np.geomspace(r_min, r_max, M)
        nodes[0] = r_min
        nodes[-1] = r_max
        log_nodes = np.log(nodes)
        # the trapezoid rule in t = log rho, full weight at both ends
        weights = (log_nodes[-1] - log_nodes[0]) / (M - 1) * nodes ** float(N)
        for name, value in (("r_min", float(r_min)), ("r_max", float(r_max)),
                            ("size", M), ("N", N), ("nodes", nodes),
                            ("weights", weights), ("log_nodes", log_nodes)):
            object.__setattr__(self, name, value)

    @classmethod
    def log_spaced(cls, r_min: float = 1e-3, r_max: float = 1e3,
                   num: int = 1200, N: int = 3) -> "RadialGrid":
        """The grid of num nodes on [r_min, r_max]."""
        return cls(r_min=r_min, r_max=r_max, size=num, N=N)


def _origin_closure(grid: RadialGrid) -> tuple[float, float]:
    """Coefficients (g1, g2) of u(0) = g1 u_1 + g2 u_2 under the model
    u = a + b rho^2 through the first two nodes."""
    r1, r2 = grid.nodes[0], grid.nodes[1]
    d = r2 * r2 - r1 * r1
    return r2 * r2 / d, -r1 * r1 / d


def _origin_model(grid: RadialGrid, x2) -> tuple[np.ndarray, np.ndarray]:
    """Weights (on u_1, on u_2) of the origin model's value
    u(0) (1 - x2) + u_1 x2 at points below r_1 with x2 = (rho/r_1)^2."""
    g1, g2 = _origin_closure(grid)
    return g1 * (1.0 - x2) + x2, g2 * (1.0 - x2)


@dataclass(frozen=True)
class RadialFunction:
    """Radial function: node values and tail exponent, closed as the module
    docstring states."""

    grid: RadialGrid
    values: np.ndarray
    tail_exponent: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("RadialFunction: values must align with grid nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("RadialFunction: values must be finite")
        om = float(self.tail_exponent)
        if not 0.0 < om < math.inf:
            raise ValueError(
                f"RadialFunction: tail exponent must be positive and finite, got {om!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail_exponent", om)

    @property
    def value_at_origin(self) -> float:
        """u(0) = g1 u_1 + g2 u_2, the origin model at 0."""
        w1, w2 = _origin_model(self.grid, 0.0)
        return float(w1 * self.values[0] + w2 * self.values[1])

    def evaluate(self, rho) -> np.ndarray | float:
        """Model value at any radius rho >= 0, an array of them giving an
        array of that shape: the value rule's weights (`_value_weights`)
        times the node values.

        Raises:
            ValueError: a radius is negative or NaN.
        """
        rho = np.asarray(rho, dtype=float)
        bad = ~(rho >= 0.0)
        if bad.any():
            raise ValueError(f"RadialFunction.evaluate: radius must be nonnegative, "
                             f"got {float(rho[bad][0])!r}")
        cols, W = _value_weights(self.grid, rho.ravel(), self.tail_exponent)
        out = np.sum(W * self.values[cols], axis=1)
        return float(out[0]) if rho.ndim == 0 else out.reshape(rho.shape)


def h_beta_function(grid: RadialGrid, beta: float) -> RadialFunction:
    """The profile (1 + rho^2)^(-beta/2) as a RadialFunction on the grid."""
    return RadialFunction(grid=grid, values=h_beta_eval(grid.nodes, beta),
                          tail_exponent=beta)


# ----------------------------------------------------------------------------
# Row assembly shared by the operators
# ----------------------------------------------------------------------------

# for each basis index m, the three other indices k of its Lagrange product
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _lagrange4(tb: np.ndarray, tq: np.ndarray) -> np.ndarray:
    """Four-point Lagrange weights: tb is (..., 4) basis abscissae, tq is
    (..., Q) evaluation points; returns (..., Q, 4).  The three factors of
    each weight are multiplied in increasing k."""
    tk = tb[..., _OTHERS]                                  # (..., 4, 3)
    f = (tq[..., :, None, None] - tk[..., None, :, :]) \
        / (tb[..., :, None] - tk)[..., None, :, :]         # (..., Q, 4, 3)
    return f[..., 0] * f[..., 1] * f[..., 2]


def _cubic_basis(tt: np.ndarray, tq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic-in-log interpolation stencil for arbitrary points: returns the
    base node index (n,) and weights (n, 4) over nodes base .. base+3."""
    # one below the bracketing cell, kept inside the grid (np.clip costs
    # more than the rest of this hot function)
    base = np.minimum(np.maximum(np.searchsorted(tt, tq) - 2, 0), tt.size - 4)
    tb = tt[base[:, None] + np.arange(4)[None, :]]
    return base, _lagrange4(tb, tq[:, None])[:, 0, :]


def _cell_stencils(tt: np.ndarray, tq: np.ndarray,
                   cells=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The stencil of `_cubic_basis` for points tq (C, Q) inside the cells
    `cells` of the nodes tt (by default all M-1): the base node index (C,)
    and weights (C, Q, 4) over nodes base .. base+3."""
    base = np.clip(np.arange(tt.size - 1) - 1, 0, tt.size - 4)[cells]
    return base, _lagrange4(tt[base[:, None] + np.arange(4)], tq)


def _value_weights(grid: RadialGrid, rho: np.ndarray, omega: float,
                   t: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The value rule of the module docstring: the node columns (n, 4) and
    weights (n, 4) of a radial function's value at each radius rho (n,),
    for a tail of exponent omega.  A slot that a closure leaves unused
    holds weight 0 on column 0.

    t, when given, is log rho as the caller formed it, and it places each
    point: a node's own log radius reads that node's value exactly.
    """
    tt = grid.log_nodes
    if t is None:
        below, above = rho < grid.nodes[0], rho > grid.nodes[-1]
    else:
        below, above = t < tt[0], t > tt[-1]
    mid = ~(below | above)
    cols = np.zeros((rho.size, 4), dtype=np.intp)
    W = np.zeros((rho.size, 4))
    # only the pieces that have points: an empty stencil costs as a short one
    if mid.any():
        base, W[mid] = _cubic_basis(tt, np.log(rho[mid]) if t is None else t[mid])
        cols[mid] = base[:, None] + np.arange(4)
    if below.any():
        cols[below, 1] = 1
        W[below, 0], W[below, 1] = _origin_model(grid, (rho[below] / grid.nodes[0]) ** 2)
    if above.any():
        cols[above, 0] = tt.size - 1
        W[above, 0] = (rho[above] / grid.nodes[-1]) ** -omega
    return cols, W


def _spread(coeffs: np.ndarray, rows: np.ndarray, grid: RadialGrid, rho: np.ndarray,
            weights: np.ndarray, omega: float, t: np.ndarray | None = None) -> None:
    """Add weights sitting at radii rho (n,) to the rows of a C-contiguous
    (R, M) coeffs through the value rule (`_value_weights`, which takes
    omega and t): the weight at rho[k] to row rows[k].  Each column takes
    its terms in the order of k."""
    cols, W = _value_weights(grid, rho, omega, t)
    # one flat index: np.add.at is several times faster on 1-d indices
    np.add.at(coeffs.reshape(-1), cols + coeffs.shape[1] * rows[:, None],
              weights[:, None] * W)


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
_END_ROWS = 8
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


def frac_laplacian_radial(u: RadialFunction, s: float, at):
    """(-Delta)^s u at one radius or at several, read off the assembled
    operator: the node values of frac_laplacian_on_grid, read between the
    nodes as any radial function is (`RadialFunction.evaluate`).  At a node
    it is the operator's value, to the bit.

    Args:
        u: the radial function.
        s: fractional order in (0, 1).
        at: evaluation radius in (0, r_max], or a 1-d array of them.

    Returns:
        A float for a scalar `at`, an array of one value per radius for an
        array `at`.

    Raises:
        ValueError: if s or a radius is out of range, or `at` is empty or
            has more than one dimension.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"frac_laplacian_radial: s must lie in (0, 1), got {s!r}")
    grid = u.grid
    radii = np.asarray(at, dtype=float)
    if radii.ndim > 1 or radii.size == 0:
        raise ValueError(
            f"frac_laplacian_radial: radii must be a scalar or a nonempty 1-d "
            f"array, got shape {radii.shape}")
    bad = ~((radii > 0.0) & (radii <= grid.r_max))
    if bad.any():
        raise ValueError(
            f"frac_laplacian_radial: radius must lie in (0, r_max], got "
            f"{float(radii[bad][0])!r}")
    # the tail exponent is never read: every radius is at most r_max
    return RadialFunction(grid, frac_laplacian_on_grid(u, s),
                          u.tail_exponent).evaluate(radii)


def frac_laplacian_on_grid(u: RadialFunction, s: float) -> np.ndarray:
    """(-Delta)^s u sampled at every grid node (one assembled-operator pass)."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"frac_laplacian_on_grid: s must lie in (0, 1), got {s!r}")
    return _raw(u.grid, -2.0 * s, u.tail_exponent).apply(u.values)


def _riesz_operator(grid: RadialGrid, alpha: float, tail_omega: float) -> _Operator:
    """The memoised Riesz operator (see _Operator) for inputs on grid closed
    with tail exponent tail_omega; op.apply(g.values) is I_alpha * g at the
    nodes.

    Raises:
        ValueError: alpha outside (0, N), or tail_omega <= alpha, where the
            convolution diverges.
    """
    if not (0.0 < alpha < grid.N):
        raise ValueError(f"riesz_convolve_radial: alpha must lie in (0, N), got {alpha!r}")
    if tail_omega <= alpha:
        raise ValueError(
            f"riesz_convolve_radial: tail exponent {tail_omega} of g must exceed "
            f"alpha = {alpha}, otherwise the convolution diverges")
    return _raw(grid, alpha, tail_omega)


def riesz_convolve_radial(g: RadialFunction, alpha: float) -> RadialFunction:
    """Riesz potential I_alpha * g of a radial function, on g's grid.

    Args:
        g: the input function; its tail exponent must exceed alpha or the
            convolution integral diverges.
        alpha: order of the potential, in (0, N).

    Returns:
        The convolution sampled on the same grid, closed like any
        RadialFunction, with the tail exponent min(omega_g, N) - alpha,
        omega_g being g's: I_alpha * g decays like rho^(alpha-N) when g is
        integrable (omega_g > N) and like rho^(alpha-omega_g) otherwise.
    """
    grid = g.grid
    om_g = g.tail_exponent
    values = _riesz_operator(grid, alpha, om_g).apply(g.values)
    return RadialFunction(grid=grid, values=values,
                          tail_exponent=min(om_g, float(grid.N)) - alpha)


def fraclap_matrix(grid: RadialGrid, s: float, tail_omega: float) -> np.ndarray:
    """Assembled M x M matrix of (-Delta)^s under the standard closures.

    The rows of the memoised operator of kernel order -2s (_Operator.rows),
    its constant C_{N,-2s} applied: they act on the node values and return
    the operator's values at the nodes.
    The matrix is expanded on each call, a fresh array the caller may
    modify.

    Raises:
        ValueError: s outside (0, 1), or tail_omega not finite and positive.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"fraclap_matrix: s must lie in (0, 1), got {s!r}")
    if not (0.0 < tail_omega < math.inf):
        raise ValueError(f"fraclap_matrix: tail_omega must be finite and > 0, got {tail_omega!r}")
    return _raw(grid, -2.0 * s, tail_omega).rows()


# ----------------------------------------------------------------------------
# Volume integrals
# ----------------------------------------------------------------------------

def volume_integral(u: RadialFunction, power: float = 1.0) -> float:
    """Integral of u(x)^power over R^N by the trapezoid rule in t = log rho
    with the grid's log spacing h: the node weights, continued below r_1
    by the origin model's samples at r_1 e^{-kh}, k >= 1, until rho^N falls
    below about 1e-8 r_1^N, and beyond r_M by the power tail's, whose sum
    is geometric.

    Args:
        u: radial function; must be nonnegative when power is fractional.
        power: exponent applied pointwise.

    Raises:
        ValueError: non-finite power, divergent tail (power * omega <= N),
            or fractional power of a function with negative samples.
    """
    grid = u.grid
    N = grid.N
    q = float(power)
    if not math.isfinite(q):
        raise ValueError(f"volume_integral: power must be finite, got {power!r}")
    frac = abs(q - round(q)) > 1e-12
    u0 = u.value_at_origin
    if frac and (np.any(u.values < 0.0) or u0 < 0.0):
        raise ValueError("volume_integral: fractional power of a sign-changing function")
    om = u.tail_exponent
    if q * om <= N:
        raise ValueError(
            f"volume_integral: tail decay power*omega = {q * om} must exceed N = {N}")
    h = (grid.log_nodes[-1] - grid.log_nodes[0]) / (grid.size - 1)
    node_part = float(np.sum(grid.weights * u.values ** q))
    kh = h * np.arange(1, math.ceil(18.0 / (N * h)) + 1)
    w1, w2 = _origin_model(grid, np.exp(-2.0 * kh))
    origin = (w1 * u.values[0] + w2 * u.values[1]) ** q
    origin_part = h * grid.nodes[0] ** N * float(np.sum(np.exp(-N * kh) * origin))
    tail_part = h * u.values[-1] ** q * grid.r_max ** N / math.expm1((q * om - N) * h)
    return sphere_surface_area(N) * (node_part + origin_part + tail_part)
