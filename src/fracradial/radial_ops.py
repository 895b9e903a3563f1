"""Discrete operators for radial functions on R^N.

A radial function (`RadialFunction`) is its values u_1, ..., u_M at the
nodes of a logarithmic grid and a tail exponent omega > 0.  Two closures
extend it to all of R^N, so integrals over R^N close analytically on both
ends, and each continues the nearest samples by construction: the
quadratic origin model u(0) + (u_1 - u(0)) (rho/r_1)^2 below r_1, whose
u(0) = g1 u_1 + g2 u_2 is the quadratic in rho through the first two
nodes (`_origin_closure`), and the power tail
u(rho) = u_M (rho/r_max)^(-omega) beyond r_max.  Every operator row
therefore acts on the M node values: the origin model's weights go to the
first two node columns, the tail's to the last.  On top of that
representation this module provides

* the principal-value fractional Laplacian, as an assembled matrix whose
  values at the nodes are read between them as any radial function is,
* the Riesz-potential convolution I_alpha * g,
* the resolvent ((-Delta)^s + mu)^(-1), as the inverse of the assembled
  matrix plus mu, which `lu_factor` writes over that matrix by block
  Gauss-Jordan elimination and `lu_solve` applies.

Both operators are Riesz operators, of kernel C_{N,a} |x|^(a-N), named
by their order a: I_alpha is a = alpha, and (-Delta)^s is a = -2s, as the
principal value of the integral of u(y) - u(x), since C_{N,s} = -C_{N,-2s}.
The N-dimensional integrals are reduced to one dimension through the
angular kernel k_p(r, rho) = int_{S^{N-1}} |r e1 - rho w|^p dsigma(w),
p = a - N, which has an elementary closed form for N = 3; for other N it
is the closed form via 2F1, tabulated once per (N, p).  All quadrature
decisions (panel grading around the kernel singularity, Taylor subtraction
inside a local window, analytic far-tail remainders) live here and are
shared by every operator.

Every grid is geometric (log radii in arithmetic progression, as
`RadialGrid` builds them from its end radii and node count), so the
kernel is homogeneous on it: a row divided by r^a is the next row shifted
by one node.  The assembled operators are therefore built one way.  The
interior is the shifts of one generating row (Mellin-convolution
structure, as in FFTLog), and only the pieces that break the shift are
computed per row, vectorised: the end columns, the origin and far-tail
closures and the fractional Laplacian's diagonal mass.  The first and last
`_END_ROWS` rows come from one batched row builder per sign of a:
`_fraclap_rows` (a < 0) and `_riesz_rows` (a > 0).  They differ only near
the diagonal, in the PV Taylor window (`_pv_windows`) and the graded
diagonal cells (`_riesz_diagonal`), and share the kernel weights outside
it (`_add_outside`); a fractional-Laplacian row subtracts one kernel mass
on its diagonal besides.

Everything reused across calls sits in one LRU memo, `_MEMO`, bounded by
the bytes of its arrays, `_MEMO_BYTES`.  Its keys are tuples, a grid
entering by its token (N, M, r_min, r_max): ("ctx", grid token) for the
per-grid row context (the cell quadrature points and their cubic
stencils), ("table", N, p) for the angular kernel table of a dimension
N != 3, and (grid token, a, tail exponent) for an assembled operator.
An operator entry is an `_Operator`, one form for both signs of a.  It
keeps the structure in O(M) floats: the generating row, the row scales
r_i^a, dense corrections for what breaks the shift (the end rows; the
`_END_COLUMNS` node columns at each end of the other rows; the
fractional Laplacian's diagonal mass), and the operator's constant,
C_{N,a}.  Applying it is one correlation of the generating row with the
middle node values plus a few small products, times the constant;
`fraclap_matrix` expands the rows, the constant applied, for the
resolvent's inverse on each call.  A hit moves its entry to the end and
an insertion beyond the bound evicts the least recently used ones, so
operators that are in use stay assembled.  Callers pass nothing: the grid
and the exponents alone decide what is reused.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from fracradial.specfun import (
    _defining_series, _riesz_normalization, h_beta_eval, hyp2f1)

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "sphere_surface_area",
    "h_beta_function",
    "frac_laplacian_radial",
    "frac_laplacian_on_grid",
    "fraclap_matrix",
    "riesz_convolve_radial",
    "lu_factor",
    "lu_solve",
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
# Tails are integrated numerically out to this multiple of r_max, with an
# analytic power-law remainder beyond.
_TAIL_SPAN = 1.0e6
# Rows and columns per block of lu_factor's Gauss-Jordan elimination.
_GJ_BLOCK = 128

_gauss = functools.cache(leggauss)


def _gauss_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = _gauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


_MEMO: OrderedDict = OrderedDict()
# Bytes of array data the memo holds at most.  The read side (two M = 400
# records with three chain-rule exponents, and the four oracle cases at
# M = 600) keeps about 2 MB, and an operator holds O(M) floats.
_MEMO_BYTES = 32_000_000


def _nbytes(value) -> int:
    """Bytes of the arrays a memoised value holds as attributes."""
    return sum(a.nbytes for a in vars(value).values() if isinstance(a, np.ndarray))


def _memo(key: tuple, build):
    """The memoised value for key, built by build() on a miss (LRU, bounded
    by _MEMO_BYTES; the newest entry is kept even when it alone exceeds it)."""
    value = _MEMO.get(key)
    if value is None:
        value = build()
        _MEMO[key] = value
        held = sum(map(_nbytes, _MEMO.values()))
        while held > _MEMO_BYTES and len(_MEMO) > 1:
            held -= _nbytes(_MEMO.popitem(last=False)[1])
    else:
        _MEMO.move_to_end(key)
    return value


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


def _kernel_table(N: int, p: float) -> _KernelTable:
    return _memo(("table", N, round(p, 12)), lambda: _KernelTable(N, p))


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

    The four fields define the grid; the nodes, weights and log nodes are
    derived from them, and the memo keys on them.  The weights integrate
    piecewise-linear-in-log-r data exactly against the measure r^{N-1} dr
    over [r_1, r_M]; contributions from [0, r_1) and (r_M, inf) are handled
    by the closures of RadialFunction, not by the weights.
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
        # hat-function integrals of e^{N t} dt per cell
        a = nodes[:-1] ** float(N)
        b = nodes[1:] ** float(N)
        dt = np.diff(np.log(nodes))
        rising = b / N - (b - a) / (N * N * dt)
        falling = (b - a) / N - rising
        weights = np.zeros(M)
        weights[:-1] += falling
        weights[1:] += rising
        for name, value in (("r_min", float(r_min)), ("r_max", float(r_max)),
                            ("size", M), ("N", N), ("nodes", nodes),
                            ("weights", weights), ("log_nodes", np.log(nodes))):
            object.__setattr__(self, name, value)

    @property
    def _token(self) -> tuple:
        return (self.N, self.size, self.r_min, self.r_max)

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
        """u(0) = g1 u_1 + g2 u_2, the origin closure of the first two
        samples."""
        g1, g2 = _origin_closure(self.grid)
        return float(g1 * self.values[0] + g2 * self.values[1])

    def evaluate(self, rho) -> np.ndarray | float:
        """Model value at any radius: the quadratic origin model below r_1,
        the cubic-in-log stencil of the operators (`_cubic_basis`, applied
        to the values) on [r_1, r_max], and the power tail beyond r_max."""
        rho = np.asarray(rho, dtype=float)
        scalar = rho.ndim == 0
        rho = np.atleast_1d(rho)
        out = np.empty_like(rho)
        r1 = self.grid.nodes[0]
        inner = rho < r1
        outer = rho > self.grid.r_max
        mid = ~(inner | outer)
        if inner.any():
            x = rho[inner] / r1
            u0 = self.value_at_origin
            out[inner] = u0 + (self.values[0] - u0) * x * x
        if mid.any():
            base, W = _cubic_basis(self.grid.log_nodes, np.log(rho[mid]))
            out[mid] = np.sum(W * self.values[base[:, None] + np.arange(4)], axis=1)
        if outer.any():
            out[outer] = self.values[-1] \
                * (rho[outer] / self.grid.r_max) ** -self.tail_exponent
        return float(out[0]) if scalar else out


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


def _add_cubic(coeffs: np.ndarray, tt: np.ndarray, tq: np.ndarray,
               weights: np.ndarray, rows: np.ndarray) -> None:
    """Spread weights sitting at log radii tq onto the node columns of the rows
    of a C-contiguous 2-d coeffs through the cubic-in-log stencil, the
    weight at tq[k] to row rows[k]."""
    base, W = _cubic_basis(tt, tq)
    # one flat index: np.add.at is several times faster on 1-d indices
    slots = base[:, None] + np.arange(4)[None, :] + coeffs.shape[1] * rows[:, None]
    np.add.at(coeffs.reshape(-1), slots, weights[:, None] * W)


class _RowContext:
    """Per-grid precomputed quadrature data shared by all operator rows.

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


def _context(grid: RadialGrid) -> _RowContext:
    return _memo(("ctx", grid._token), lambda: _RowContext(grid))


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each entry of x.  It is correctly rounded where numpy's
    vector log is one bit off (about 2 in 10^4 arguments), and a
    fractional-Laplacian row amplifies one bit of a stencil's or window's
    log radius to 3e-15 of the row's largest entry at M = 1200."""
    return np.array([math.log(v) for v in x.tolist()])


def _stencil_offsets(tt: np.ndarray, i: np.ndarray,
                     t0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seven log-space stencil points centred on each node i (R,), whose
    log radius is t0 (R,).

    Returns the offsets delta = t - t0, the log radii t and the node
    indices j of the points, each (R, 7).  A point with j < 0 is virtual,
    below r_1, and handled by the origin model; one with j >= M lies beyond
    r_M and is handled by the tail model.  Virtual points continue the end
    cell's log spacing.
    """
    M = tt.size
    j = i[:, None] + np.arange(-3, 4)
    t = np.where(j < 0, tt[0] + j * (tt[1] - tt[0]),
                 np.where(j >= M, tt[-1] + (j - (M - 1)) * (tt[-1] - tt[-2]),
                          tt[np.minimum(np.maximum(j, 0), M - 1)]))
    return t - t0[:, None], t, j


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


def _log_panel_sums(N: int, p: float, r: np.ndarray, edges: np.ndarray,
                    r_max: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel integrals over panels beyond r_max, 8 Gauss points a panel in
    log radius, vectorised over radii r (n,) with panel edges (n, E): the
    weights (n,) of the value at r_max of a tail model with exponent omega,
    and the kernel mass (n,)."""
    x, wq = _gauss(8)
    la, lb = np.log(edges[:, :-1, None]), np.log(edges[:, 1:, None])
    rho = np.exp(0.5 * (la + lb) + 0.5 * (lb - la) * x)
    rr = r[:, None, None]
    contrib = 0.5 * (lb - la) * wq * rho ** N \
        * _kernel_eval(N, p, rr, rho, np.abs(rr - rho))
    return (np.sum(contrib * (rho / r_max) ** (-omega), axis=(1, 2)),
            np.sum(contrib, axis=(1, 2)))


def _tail_sums(N: int, p: float, r: np.ndarray, start: np.ndarray,
               r_max: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """_log_panel_sums over panels from start (n,) out to _TAIL_SPAN r_max,
    widening geometrically.

    Rows that take the same number of panels are summed together, so no row
    is padded with empty panels and each row's sums equal the ones it gets
    alone: padding would regroup the pairwise sums.
    """
    r_inf = _TAIL_SPAN * r_max
    edges = [start]
    d = np.maximum(start - r, 0.5 * start)
    while (edges[-1] < r_inf).any():
        edges.append(np.maximum(edges[-1] + d, 1.5 * edges[-1]))
        d = 2.0 * d
    edges = np.minimum(np.stack(edges, axis=1), r_inf)
    panels = np.argmax(edges == r_inf, axis=1)
    tails = np.empty(r.size)
    mass = np.empty(r.size)
    for n in sorted(set(panels.tolist())):  # np.unique would import numpy.ma
        sel = panels == n
        tails[sel], mass[sel] = _log_panel_sums(N, p, r[sel], edges[sel, :n + 1],
                                                r_max, omega)
    return tails, mass


def _tail_remainder(N: int, order: float, r_max: float, tail_omega: float) -> float:
    """Analytic tail weight beyond r_inf = _TAIL_SPAN r_max of a row of the
    kernel of order a, taken there as |S^{N-1}| rho^(a - N): the integral
    of |S^{N-1}| rho^(a-1) (rho/r_max)^(-tail_omega) over (r_inf, inf), for
    tail_omega > a.  At tail_omega = 0 and a < 0 it is the kernel mass."""
    r_inf = _TAIL_SPAN * r_max
    return sphere_surface_area(N) * r_max ** tail_omega \
        * r_inf ** (order - tail_omega) / (tail_omega - order)


def _pv_windows(ctx: _RowContext, i: np.ndarray, order: float, omega: float):
    """The Taylor windows of fractional-Laplacian rows (kernel order
    a = -2s) at the nodes i (R,), of _WINDOW_CELLS local cells each side,
    and the parts of the cells their edges cut (at most one at each edge).

    Returns what they add to the rows' (R, M) coefficients over the node
    values (the window's of u(r+xi) - u(r)) and their (R,) tail weights,
    the kernel mass of the cut parts (R,) and the window half-widths w (R,).
    """
    grid = ctx.grid
    N = grid.N
    tt = ctx.tt
    nodes = grid.nodes
    M = nodes.size
    R = i.size
    r1, rM = nodes[0], nodes[-1]
    r = nodes[i]
    p = order - N
    t0 = _logs(r)
    j = np.minimum(np.maximum(np.searchsorted(tt, t0) - 1, 0), M - 2)
    w = np.minimum(_WINDOW_CELLS * (tt[j + 1] - tt[j]), 0.5) * r
    lo_w, hi_w = r - w, r + w

    m1, m2, m3, m4 = (m[:, None] for m in _pv_moments(N, order, r, w))
    offsets, t, j = _stencil_offsets(tt, i, t0)
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
    # a stencil point adds lam to its node, or below r_1 to u_1 and u_2
    # through the origin model, or beyond r_M to the tail weights; each node
    # takes its terms in stencil order (a point beyond r_M adds 0 to u_1)
    below, above = j < 0, j >= M
    node = ~(below | above)
    rho = np.exp(t)
    w1, w2 = _origin_model(grid, (rho / r1) ** 2)
    slots = np.stack((np.where(node, j, 0), np.ones_like(j)), axis=2)
    terms = np.stack((np.where(node, lam, np.where(below, lam * w1, 0.0)),
                      np.where(below, lam * w2, 0.0)), axis=2)
    coeffs = np.zeros((R, M))
    np.add.at(coeffs.reshape(-1), (M * np.arange(R)[:, None, None] + slots).ravel(),
              terms.ravel())
    far = np.where(above, lam, 0.0) * (np.where(above, rho, rM) / rM) ** -omega
    tails = np.cumsum(far, axis=1)[:, -1]

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
    _add_cubic(coeffs, tt, tq.ravel(), contrib.ravel(), np.repeat(prow, 4))
    return coeffs, tails, mass, w


def _add_outside(ctx: _RowContext, p: float, r: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, d0: np.ndarray, omega: float,
                 coeffs: np.ndarray, tails: np.ndarray, mass: np.ndarray) -> None:
    """Add the kernel integrals of the rows at radii r (R,) outside
    the intervals (lo, hi) (R,) around them: the grid cells clear of each
    interval, [0, r_1] below it under the origin model, graded toward r at
    distances d0 2^k (see _graded_edges), and the tail model beyond r_M.
    Each interval holds its radius, a node, so it ends above r_1.  They go into
    the rows' (R, M) coefficients over the node values, (R,) tail weights
    and (R,) kernel mass in place, in that order: a fractional-Laplacian
    row cancels far below its entries, so its summation order is kept.
    Each row's sums equal the ones it gets alone."""
    grid = ctx.grid
    N = grid.N
    nodes = grid.nodes
    M = nodes.size
    r1, rM = nodes[0], nodes[-1]

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

    # [0, r_1] below the interval: from the origin up to the interval or r_1
    c1, c2, m0 = _origin_sums(grid, p, r, _graded_edges(r, d0, np.minimum(lo, r1)))
    coeffs[:, 0] += c1
    coeffs[:, 1] += c2
    mass += m0

    # beyond the interval and r_M
    tail, m0 = _tail_sums(N, p, r, np.maximum(hi, rM), rM, omega)
    tails += tail
    mass += m0


def _fraclap_rows(ctx: _RowContext, which, order: float, omega: float) -> np.ndarray:
    """Unscaled fractional-Laplacian rows at the node indices `which` (R,),
    built together.

    The PV integral int (u(rho) - u(r)) k_p(r,rho) rho^{N-1} drho with
    p = a - N, a = -2s, Taylor-subtracted in a window of _WINDOW_CELLS
    local cells around each r.  Returns the (R, M) coefficients over the
    node values, the weights of a tail of exponent omega added to the
    last column last.  C_{N,a} is NOT applied here: the _Operator holds it.

    Every piece is computed for all nodes at once, and each row equals the
    one built alone (R = 1) bitwise.  The full cells take (R, 4, M-1)
    temporaries, so callers pass large sets of nodes _ROW_BLOCK at a time.
    """
    grid = ctx.grid
    N = grid.N
    i = np.asarray(which, dtype=int)
    r = grid.nodes[i]
    rM = grid.nodes[-1]
    coeffs, tails, mass, w = _pv_windows(ctx, i, order, omega)
    _add_outside(ctx, order - N, r, r - w, r + w, np.maximum(w, 0.1 * r), omega,
                 coeffs, tails, mass)
    mass += _tail_remainder(N, order, rM, 0.0)
    # the kernel mass multiplies -u(r), u at the row's node
    coeffs[np.arange(i.size), i] -= mass
    coeffs[:, -1] += tails + _tail_remainder(N, order, rM, omega)
    return coeffs


def _diagonal_stub(f0: np.ndarray, f1: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Integrals over the last x0 before the diagonal of integrands taken
    as power laws through their values f0 at distance x0 and f1 at 2 x0;
    a RuntimeError if one of them is not integrable."""
    gam = np.log(f1 / f0) / math.log(2.0)
    if np.any(gam <= -1.0):
        raise RuntimeError("riesz quadrature: non-integrable diagonal stub")
    return f0 * x0 / (gam + 1.0)


def _riesz_diagonal(ctx: _RowContext, i: np.ndarray, p: float, omega: float):
    """The near-diagonal coefficients and tail weights of the Riesz rows at
    the nodes i (R,), and the intervals (lo, hi) (R,) they cover.

    The cells touching r = r_i are graded toward r in _RIESZ_GRADE_LEVELS
    levels of 4 Gauss points with a power-law stub for the last, and so are
    the origin model on [0, r_1] at the first node and the tail model on
    [r, 1.5 r] at the last node, whose singularities sit where those
    regions end and start.  The points are offsets xi from r, and
    the kernel is evaluated at xi itself (see _kernel_eval): the rounded
    radius r +- xi keeps only about eps r / xi of xi.
    """
    N = ctx.grid.N
    nodes = ctx.grid.nodes
    M = nodes.size
    r = nodes[i]
    lo = np.where(i > 0, nodes[np.maximum(i - 1, 0)], 0.0)
    hi = np.where(i < M - 1, nodes[np.minimum(i + 1, M - 1)], 1.5 * r)
    levels = _GRADE_RATIO ** np.arange(_RIESZ_GRADE_LEVELS + 1)
    x4, w4 = _gauss(4)

    # the cells below the radii, then the cells above
    below, above = np.arange(i.size), np.flatnonzero(i < M - 1)
    side = np.concatenate((below, above))
    span = np.concatenate((r - lo, hi[above] - r[above]))
    edges = span[:, None] * levels
    xb, xa, x0 = edges[:, :-1, None], edges[:, 1:, None], edges[:, -1:]
    half = 0.5 * (xb - xa)
    # the graded points, then the stub's two points x0 and 2 x0
    xi = np.concatenate(((0.5 * (xa + xb) + half * x4).reshape(side.size, -1),
                         x0, 2.0 * x0), axis=1)
    rs = r[side, None]
    rho = rs + np.repeat([-1.0, 1.0], (below.size, above.size))[:, None] * xi
    g = rho ** (N - 1) * _kernel_eval(N, p, rs, rho, xi)
    stub = _diagonal_stub(g[:, -2], g[:, -1], x0[:, 0])
    wg = (half * w4).reshape(side.size, -1) * g[:, :-2]
    # a row takes its graded points side by side, then its stubs at its
    # node, then the first node's row its origin points through the model
    origin = np.concatenate((i == 0, np.zeros(above.size, dtype=bool)))
    cubic = ~origin
    coeffs = np.zeros((i.size, M))
    _add_cubic(coeffs, ctx.tt,
               np.concatenate((np.log(rho[cubic, :-2]).ravel(), ctx.tt[i[side]])),
               np.concatenate((wg[cubic].ravel(), stub)),
               np.concatenate((np.repeat(side[cubic], xi.shape[1] - 2), side)))
    w1, w2 = _origin_model(ctx.grid, (rho[origin, :-2] / nodes[0]) ** 2)
    coeffs[side[origin], 0] += _rowdot(wg[origin], w1)
    coeffs[side[origin], 1] += _rowdot(wg[origin], w2)

    tails = np.zeros(i.size)
    last = np.flatnonzero(i == M - 1)
    if last.size:
        rl = r[last, None]
        x0 = 0.5 * rl * levels[-1]
        xi = np.concatenate((x0, 2.0 * x0), axis=1)
        g = (rl + xi) ** (N - 1) * _kernel_eval(N, p, rl, rl + xi, xi)
        f = g * ((rl + xi) / nodes[-1]) ** -omega
        graded, _ = _log_panel_sums(N, p, r[last], rl * (1.0 + 0.5 * levels[::-1]),
                                    nodes[-1], omega)
        tails[last] = _diagonal_stub(f[:, 0], f[:, 1], x0[:, 0]) + graded
    return coeffs, tails, lo, hi


def _riesz_rows(ctx: _RowContext, which, order: float, omega: float) -> np.ndarray:
    """Unscaled Riesz rows at the node indices `which` (R,), built together
    and laid out as _fraclap_rows lays out its own: int g(rho) k_p(r,rho)
    rho^{N-1} drho of the kernel of order a = alpha, p = a - N, graded
    near the diagonal by _riesz_diagonal.  The factor C_{N,alpha} is NOT
    applied here: the _Operator holds it."""
    grid = ctx.grid
    i = np.asarray(which, dtype=int)
    r = grid.nodes[i]
    p = order - grid.N
    coeffs, tails, lo, hi = _riesz_diagonal(ctx, i, p, omega)
    _add_outside(ctx, p, r, lo, hi, 0.1 * r, omega, coeffs, tails, np.zeros(i.size))
    coeffs[:, -1] += tails + _tail_remainder(grid.N, order, grid.r_max, omega)
    return coeffs


# Rows built by the row builders at each end of a grid, and node columns
# at each end that the clipped stencils of the end cells reach.  Rows in
# between keep their Taylor window, partial cells and graded diagonal cells
# (offsets -4..4) clear of those columns and of both ends.  The closures
# of those rows are integrated _ROW_BLOCK rows at a time, and the row
# builders take _ROW_BLOCK nodes a call, which keeps each of their
# (block, 4, M-1) temporaries near a megabyte.
_END_ROWS = 8
_END_COLUMNS = 4
_ROW_BLOCK = 64


def _rows_at(grid: RadialGrid, order: float, tail_omega: float, which) -> np.ndarray:
    """Unscaled rows of the kernel of order a at the nodes `which`: their
    (len(which), M) coefficients over the node values, from one
    _fraclap_rows (a < 0) or _riesz_rows (a > 0) call per _ROW_BLOCK nodes."""
    ctx = _context(grid)
    build = _fraclap_rows if order < 0.0 else _riesz_rows
    which = np.asarray(which, dtype=int)
    rows = np.empty((which.size, grid.size))
    for b in range(0, which.size, _ROW_BLOCK):
        block = which[b:b + _ROW_BLOCK]
        rows[b:b + block.size] = build(ctx, block, order, tail_omega)
    return rows


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
    """The rows of _rows_at at every node of the grid, built from one
    generating row and stored by structure (see _Operator).

    With r_i = r_1 e^{i h}, the kernel is homogeneous, k_p(l r, l rho) =
    l^p k_p(r, rho) with p = a - N, so away from the ends row i divided by
    its scale r_i^(N+p) = r_i^a is row i+1 divided by its scale and
    shifted by one node.  Interior rows are therefore shifts of a
    generating row: the near-diagonal pieces of the middle row plus the
    full cells at every offset, integrated once at r = 1.  What is not
    shift-invariant is computed per row, vectorised: the end columns (the
    end cells' clipped stencils), the origin region (the first two
    columns), the far tail (the last column), and for the fractional
    Laplacian (a = -2s < 0) minus the kernel mass on the diagonal.  The
    end rows come from the row builders themselves.
    """
    ctx = _context(grid)
    N = grid.N
    nodes = grid.nodes
    M = nodes.size
    r1, rM = nodes[0], nodes[-1]
    tt = ctx.tt
    h = (tt[-1] - tt[0]) / (M - 1)
    fraclap = order < 0.0
    p = order - N
    scale = nodes ** (N + p)

    # near-diagonal pieces of the middle row, and the cells they cover
    g = M // 2
    if fraclap:
        (near,), _, (near_mass,), (w,) = _pv_windows(ctx, np.array([g]), order,
                                                     tail_omega)
        a, b = nodes[g] - w, nodes[g] + w
        d0 = max(w / nodes[g], 0.1)
    else:
        (near,), _, (a,), (b,) = _riesz_diagonal(ctx, np.array([g]), p, tail_omega)
        d0 = 0.1
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

    # origin region and far tail, a block of rows at a time
    mass = np.zeros(hi - lo) if fraclap else None
    tails = np.empty(hi - lo)
    for b in range(lo, hi, _ROW_BLOCK):
        r = nodes[b:min(b + _ROW_BLOCK, hi)]
        c1, c2, m0 = _origin_sums(grid, p, r, _graded_edges(r, d0 * r, r1))
        tail, m1 = _tail_sums(N, p, r, np.full(r.size, rM), rM, tail_omega)
        edges[b - lo:b - lo + r.size, 0] += c1
        edges[b - lo:b - lo + r.size, 1] += c2
        tails[b - lo:b - lo + r.size] = tail
        if fraclap:  # the Riesz diagonal shifts like the rest of the row
            mass[b - lo:b - lo + r.size] = -(m0 + m1)
    # the tail continues u_M: its weights go to the last node column
    edges[:, -1] += tails + _tail_remainder(N, order, rM, tail_omega)
    if fraclap:
        # the full cells c = 0 .. M-2 of row i sit at offsets -i .. M-2-i
        cum = np.concatenate(([0.0], np.cumsum(cells.sum(axis=1))))
        mass -= scale[lo:hi] * (cum[2 * M - inner] - cum[M + 1 - inner]
                                + near_mass / scale[g]) \
            + _tail_remainder(N, order, rM, 0.0)

    ends = _rows_at(grid, order, tail_omega, (*range(lo), *range(hi, M)))
    # the generating row where the interior rows reach the middle columns
    return _Operator(ends=ends, lo=lo, hi=hi,
                     gen=gen[E + M - hi:2 * M - 1 - E - lo].copy(),
                     scale=scale[lo:hi], edges=edges,
                     constant=_riesz_normalization(N, order), mass=mass)


def _raw(grid: RadialGrid, order: float, tail_omega: float) -> _Operator:
    """The operator of kernel order a (`order`: alpha for I_alpha, -2s for
    (-Delta)^s) at every node, assembled from one generating row and
    memoised as an _Operator with its constant C_{N,a}."""
    return _memo((grid._token, round(order, 15), round(tail_omega, 12)),
                 lambda: _structured_rows(grid, order, tail_omega))


def _backward_error(Ax: np.ndarray, a_max: float, x: np.ndarray,
                    b: np.ndarray) -> float:
    """Backward error max|A x - b| / (max|A| max|x| + max|b|) of a solve,
    from the product A x and max|A|, so that A itself need not exist.

    Raises:
        RuntimeError: the error is above 1e-10 or not finite, which means
            the matrix is numerically singular.
    """
    denom = float(a_max * np.max(np.abs(x)) + np.max(np.abs(b)))
    err = float(np.max(np.abs(Ax - b))) / max(denom, 1e-300)
    if not np.isfinite(err) or err > 1e-10:
        raise RuntimeError(
            f"linear solve backward error {err:.3e} exceeds 1e-10 (operator "
            "matrix is numerically singular)")
    return err


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


def lu_factor(A: np.ndarray) -> np.ndarray:
    """Overwrite the square resolvent matrix A with its inverse, which
    lu_solve applies, and return A.

    Block Gauss-Jordan elimination in blocks of _GJ_BLOCK rows and columns:
    per block K, with C the old columns K, P = inv(C[K]), the rows K become
    P A[K], every other block I of rows loses C[I] A[K] and takes
    -C[I] P as its columns K, and A[K, K] becomes P.  That is the flop
    count of an LU-based inversion, with temporaries of about
    3 _GJ_BLOCK M floats beside A where np.linalg.inv's solve against the
    identity takes several M x M.  A grid of at most _GJ_BLOCK nodes is
    one np.linalg.inv call.

    Blocks are not pivoted against each other (np.linalg.inv pivots within
    one), so every leading diagonal block of the eliminated matrix must be
    nonsingular, as it is for a resolvent matrix (-Delta)^s + mu.

    Raises:
        RuntimeError: A is not finite, or a diagonal block is singular
            (LAPACK met an exactly zero pivot); A is then partly
            overwritten.
    """
    if not (math.isfinite(A.max()) and math.isfinite(A.min())):  # no M x M mask
        raise RuntimeError("lu_factor: resolvent matrix has non-finite entries")
    blocks = [slice(k, k + _GJ_BLOCK) for k in range(0, A.shape[0], _GJ_BLOCK)]
    for K in blocks:
        C = A[:, K].copy()
        try:
            P = np.linalg.inv(C[K])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("lu_factor: singular resolvent matrix") from exc
        A[K] = P @ A[K]
        for I in blocks:
            if I != K:
                A[I] -= C[I] @ A[K]
                A[I, K] = -C[I] @ P
        A[K, K] = P
    return A


def lu_solve(inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution inv @ b of A x = b, from inv = lu_factor(A), the array
    that held A: one matrix-vector product, so a non-finite b gives a
    non-finite x for the caller to reject.  b is not modified.  The product
    keeps the dtype of its operands: the solver also passes a float32 copy
    of inv with a float32 b, for its corrections between float64 anchors."""
    return inv @ b


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
    """Integral of u(x)^power over R^N, using all three model regions.

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
    node_part = float(np.sum(grid.weights * u.values ** q))
    r1 = grid.nodes[0]
    x, xw = _gauss_on(0.0, r1, 16)
    model = u0 + (u.values[0] - u0) * (x / r1) ** 2
    origin_part = float(np.sum(xw * model ** q * x ** (N - 1)))
    tail_part = u.values[-1] ** q * grid.r_max ** N / (q * om - N)
    return sphere_surface_area(N) * (node_part + origin_part + tail_part)
