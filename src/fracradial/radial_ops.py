"""Discrete operators for radial functions on R^N.

A radial function is represented by samples on a logarithmic grid together
with a power-law tail model, of a given positive exponent, and a quadratic
origin model, so integrals over all of R^N can be closed analytically on
both ends.  On top of that representation this module provides

* the principal-value fractional Laplacian (pointwise and as an assembled
  matrix),
* the Riesz-potential convolution I_alpha * g,
* the resolvent ((-Delta)^s + mu)^(-1).

The N-dimensional integrals are reduced to one dimension through the
angular kernel k_p(r, rho) = int_{S^{N-1}} |r e1 - rho w|^p dsigma(w),
which has an elementary closed form for N = 3; for other N it is the
closed form via 2F1, tabulated once per (N, p).  All quadrature decisions
(panel grading around the kernel singularity, Taylor subtraction inside a
local window, analytic far-tail remainders) live here and are shared by
every operator.

The assembled operators take one of two paths, chosen by the grid alone.
On a geometric grid (log radii in arithmetic progression to within 64 ulp,
as `RadialGrid.log_spaced` builds them and `load_solution` rebuilds them)
both kernels are homogeneous, so a row divided by r^(-2s) (fractional
Laplacian) or r^alpha (Riesz) is the next row shifted by one node.  The
interior is then the shifts of one generating row (Mellin-convolution
structure, as in FFTLog), and only the pieces that break the shift are
computed per row, vectorised: the end columns, the origin and far-tail
closures and the fractional Laplacian's diagonal mass; the first and last
`_END_ROWS` rows come from the row builders.  Any other grid, and grids of
fewer than 4 `_END_ROWS` nodes, are assembled row by row.

Everything reused across calls sits in one bounded LRU memo, `_MEMO`, of
at most `_MEMO_LIMIT` = 16 entries.  Its keys are tuples:
("ctx", grid token) for the per-grid row context (the cell quadrature
points and their cubic stencils), ("table", N, p) for the spline
kernel table of a dimension N != 3, and (kind, grid token, exponent, tail
exponent) for an assembled operator, kind being "fraclap" (exponent s) or
"riesz" (exponent alpha).  An operator entry is an `_Operator`.  The Riesz
one keeps the structure of a geometric grid in O(M) floats: the
generating row, the row scales r_i^alpha, dense corrections for what
breaks the shift (the end rows; slot 0 and the `_END_COLUMNS` node
columns at each end of the other rows), the tail coefficients, and the
weights of the value at the origin.  Applying it is one correlation of the
generating row with the middle node values plus a few small products.
The fractional Laplacian's entry holds its M x (M+1) rows densely, since
the resolvent's inverse needs the matrix.  A hit moves its entry to the
end and an insertion beyond the bound evicts the least recently used one,
so operators that are in use stay assembled.  Callers pass nothing: the
grid and the exponents alone decide what is reused.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from fracradial.specfun import h_beta_eval, hyp2f1, riesz_constant

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "sphere_surface_area",
    "angular_kernel",
    "h_beta_function",
    "frac_laplacian_radial",
    "frac_laplacian_on_grid",
    "fraclap_matrix",
    "riesz_convolve_radial",
    "apply_inverse_operator",
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

_GAUSS_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _GAUSS_RULES.get(n)
    if rule is None:
        rule = leggauss(n)
        _GAUSS_RULES[n] = rule
    return rule


def _gauss_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = _gauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


_MEMO: OrderedDict = OrderedDict()
_MEMO_LIMIT = 16


def _memo(key: tuple, build):
    """The memoised value for key, built by build() on a miss (LRU, bounded)."""
    value = _MEMO.get(key)
    if value is None:
        value = build()
        _MEMO[key] = value
        if len(_MEMO) > _MEMO_LIMIT:
            _MEMO.popitem(last=False)
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
    """Angular kernel k_p(1, 1 + gap) for gap >= 0, in closed form.

    By Pfaff's transformation of the polar integral,

        k_p(1, q) = |S^{N-1}| (q-1)^p 2F1(-p/2, (N-1)/2; N-1; -4q/(q-1)^2).

    The argument is formed from the gap itself, since 1 + gap keeps only
    about eps/gap of it.  For p < 0 the larger of -p/2 and (N-1)/2 goes
    first, so a - b >= 0 as hyp2f1 requires; for p >= 0 Euler's transform
    2F1(a, b; c; x) = (1-x)^(c-a-b) 2F1(c-a, c-b; c; x) makes every
    parameter positive, and (1 - x) = ((gap+2)/gap)^2.  Coincident radii
    (gap 0, p >= 0 only) take Gauss's sum at x -> -inf.

    gap is a scalar, which gives a float, or an ndarray, which gives an
    array from one hyp2f1 call; each value equals the scalar call's.
    """
    omega = sphere_surface_area(N)
    h = 0.5 * (N - 1)
    gap = np.asarray(gap, dtype=float)
    out = np.empty(gap.shape)
    touch = gap == 0.0
    if touch.any():
        out[touch] = omega * 2.0 ** p * math.gamma(N - 1.0) * math.gamma(h + 0.5 * p) \
            / (math.gamma(N - 1.0 + 0.5 * p) * math.gamma(h))
    g = gap[~touch]
    x = -4.0 * (1.0 + g) / (g * g)
    if p < 0.0:
        a = -0.5 * p
        out[~touch] = omega * g ** p * hyp2f1(max(a, h), min(a, h), N - 1.0, x)
    else:
        ratio = (g + 2.0) / g
        out[~touch] = omega * (g + 2.0) ** p * ratio ** (N - 1) \
            * hyp2f1(N - 1.0 + 0.5 * p, h, N - 1.0, x)
    return float(out) if out.ndim == 0 else out


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing with at
    least four nodes (scipy's CubicSpline default).

    The slopes at the nodes solve one tridiagonal system, by elimination
    without pivoting and back substitution in plain floats: LAPACK's gtsv
    (scipy's solve_banded) takes the same steps when no row swap is needed,
    and the rows are diagonally dominant but for the two not-a-knot ones,
    whose elimination leaves positive pivots.  Each interval keeps its
    cubic in powers of t - x_i, evaluated by Horner.  Points beyond either
    end take the end interval's cubic.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        n = x.size
        # row i of the system: lower[i-1] k[i-1] + diag[i] k[i] + upper[i] k[i+1]
        d0 = x[2] - x[0]
        dn = x[-1] - x[-3]
        lower = [*dx[1:].tolist(), dn]
        diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
        upper = [d0, *dx[:-1].tolist()]
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        k = [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
             *(3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
             (dx[-1] ** 2 * slope[-2] + (2.0 * dn + dx[-1]) * dx[-2] * slope[-1]) / dn]
        for i in range(n - 1):
            f = lower[i] / diag[i]
            diag[i + 1] -= f * upper[i]
            k[i + 1] -= f * k[i]
        k[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            k[i] = (k[i] - upper[i] * k[i + 1]) / diag[i]
        k = np.array(k)
        t = (k[:-1] + k[1:] - 2.0 * slope) / dx
        self._x = x
        self._inner = x[1:-1]
        self._c3 = t / dx
        self._c2 = (slope - k[:-1]) / dx - t
        self._c1 = k[:-1]
        self._c0 = y[:-1]

    def __call__(self, xq: np.ndarray) -> np.ndarray:
        # counting the interior nodes <= xq gives the interval, clamped to
        # the end intervals outside [x[0], x[-1]]
        i = np.searchsorted(self._inner, xq, side="right")
        s = xq - self._x[i]
        return ((self._c3[i] * s + self._c2[i]) * s + self._c1[i]) * s + self._c0[i]


class _KernelTable:
    """Angular kernel k_p(1, q) for one (N, p), evaluated by the gap q - 1 of
    the radius ratio: the closed form via 2F1 (`_kernel_at_gap`), tabulated
    once per (N, p).

    The kernel is log-log smooth in q - 1, so a cubic spline over
    log(q - 1) covers ratios from the deepest PV grading (1 + 1e-13) up to
    _Q_HI.  Beyond, the multipole series

        k_p(1, q) = |S^{N-1}| q^p 2F1(-p/2, (2-N-p)/2; N/2; q^(-2))

    is summed to round-off (q^(-2) <= 4e-4 there, so about six terms).
    Both the nodes and the callers pass the gap itself: q = 1 + 1e-12
    keeps only four digits of it.
    """

    _Q_HI = 50.0
    _FAR_TERMS = 40

    def __init__(self, N: int, p: float):
        self.N = N
        self.p = p
        x = np.linspace(math.log(1e-13), math.log(self._Q_HI - 1.0), 2400)
        y = _kernel_at_gap(np.exp(x), p, N)
        self._spline = _CubicSpline(x, np.log(y))
        self._omega = sphere_surface_area(N)

    def eval_gap(self, gap: np.ndarray) -> np.ndarray:
        gap = np.asarray(gap, dtype=float)
        out = np.empty_like(gap)
        near = gap < self._Q_HI - 1.0
        if near.any():
            out[near] = np.exp(self._spline(np.log(gap[near])))
        if (~near).any():
            qq = 1.0 + gap[~near]
            out[~near] = self._omega * qq ** self.p * self._far_series(qq ** -2.0)
        return out

    def _far_series(self, z: np.ndarray) -> np.ndarray:
        """2F1(-p/2, (2-N-p)/2; N/2; z) for 0 < z <= 1/_Q_HI^2, summed until
        the terms fall below round-off of the sum."""
        a, b, c = -0.5 * self.p, 0.5 * (2.0 - self.N - self.p), 0.5 * self.N
        term = np.ones_like(z)
        total = np.ones_like(z)
        for k in range(self._FAR_TERMS):
            term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * z
            total += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
                break
        return total


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


def angular_kernel(r: float, rho: float, p: float, N: int) -> float:
    """Surface integral of |r e1 - rho w|^p over the unit sphere S^{N-1}.

    Symmetric in (r, rho) exactly, by canonicalization.  At coincident radii
    the integrand is singular for p < 0 and the call is rejected; the PV
    machinery that needs values arbitrarily close to the diagonal never
    lands on it.

    Args:
        r, rho: nonnegative radii.
        p: kernel exponent.
        N: dimension, N >= 2.

    Returns:
        The kernel value, always positive.

    Raises:
        ValueError: for invalid dimension, negative radii, or the singular
            coincident case.
    """
    if int(N) != N or N < 2:
        raise ValueError(f"angular_kernel: N must be an integer >= 2, got {N!r}")
    if r < 0.0 or rho < 0.0:
        raise ValueError("angular_kernel: radii must be nonnegative")
    lo, hi = (r, rho) if r <= rho else (rho, r)
    if hi == 0.0:
        if p > 0.0:
            return 0.0
        if p == 0.0:
            return sphere_surface_area(N)
        raise ValueError("angular_kernel: singular at r = rho = 0 with p < 0")
    if lo == hi and p < 0.0:
        raise ValueError(f"angular_kernel: singular at r = rho = {r} for p = {p} < 0")
    if lo == 0.0:
        return sphere_surface_area(N) * hi ** p
    if N == 3:
        return float(_kernel3_arrays(lo, hi, p, hi - lo))
    return lo ** p * _kernel_at_gap((hi - lo) / lo, p, N)


# ----------------------------------------------------------------------------
# Grid and function representation
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Radial collocation grid with quadrature weights for r^{N-1} dr.

    The weights integrate piecewise-linear-in-log-r data exactly against
    the measure r^{N-1} dr over [r_1, r_M]; contributions from [0, r_1) and
    (r_M, inf) are handled by the origin and tail models of RadialFunction,
    not by the weights.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    N: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 8:
            raise ValueError("RadialGrid: need a 1-d array of at least 8 nodes")
        if not np.all(np.isfinite(nodes)) or nodes[0] <= 0.0:
            raise ValueError("RadialGrid: nodes must be finite with r_1 > 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("RadialGrid: nodes must be strictly increasing")
        if weights.shape != nodes.shape or not np.all(weights >= 0.0):
            raise ValueError("RadialGrid: weights must be nonnegative, one per node")
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"RadialGrid: N must be an integer >= 2, got {self.N!r}")
        if abs(self.r_max - nodes[-1]) > 1e-12 * nodes[-1]:
            raise ValueError("RadialGrid: r_max must equal the last node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "r_max", float(nodes[-1]))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "_log_nodes", np.log(nodes))
        object.__setattr__(self, "_token",
                           (self.N, nodes.size, float(nodes[0]), float(nodes[-1]),
                            hash(nodes.tobytes())))

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def log_nodes(self) -> np.ndarray:
        return self._log_nodes

    @classmethod
    def log_spaced(cls, r_min: float = 1e-3, r_max: float = 1e3,
                   num: int = 1200, N: int = 3) -> "RadialGrid":
        """Geometric grid on [r_min, r_max] with exact pw-linear-in-log weights."""
        if not (0.0 < r_min < r_max):
            raise ValueError("RadialGrid.log_spaced: need 0 < r_min < r_max")
        if num < 8:
            raise ValueError("RadialGrid.log_spaced: need at least 8 nodes")
        nodes = np.geomspace(r_min, r_max, num)
        nodes[0] = r_min
        nodes[-1] = r_max
        # hat-function integrals of e^{N t} dt per cell
        a = nodes[:-1] ** float(N)
        b = nodes[1:] ** float(N)
        dt = np.diff(np.log(nodes))
        rising = b / N - (b - a) / (N * N * dt)
        falling = (b - a) / N - rising
        weights = np.zeros(num)
        weights[:-1] += falling
        weights[1:] += rising
        return cls(nodes=nodes, weights=weights, r_max=r_max, N=N)


def _origin_closure(grid: RadialGrid) -> tuple[float, float]:
    """Coefficients (g1, g2) of u(0) ~= g1 u_1 + g2 u_2 under the model
    u = a + b rho^2 through the first two nodes."""
    r1, r2 = grid.nodes[0], grid.nodes[1]
    d = r2 * r2 - r1 * r1
    return r2 * r2 / d, -r1 * r1 / d


@dataclass(frozen=True)
class RadialFunction:
    """Radial function: node samples + power-law tail + quadratic origin model.

    The tail (A, omega) models u(rho) = A rho^(-omega) for rho > r_max, with
    omega > 0, and must match the last sample within 1% relative.
    """

    grid: RadialGrid
    values: np.ndarray
    tail: tuple[float, float]
    value_at_origin: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("RadialFunction: values must align with grid nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("RadialFunction: values must be finite")
        amp, om = (float(self.tail[0]), float(self.tail[1]))
        if not (math.isfinite(amp) and math.isfinite(om)):
            raise ValueError("RadialFunction: tail model must be finite")
        u0 = float(self.value_at_origin)
        if not math.isfinite(u0):
            raise ValueError("RadialFunction: value_at_origin must be finite")
        if om <= 0.0:
            raise ValueError(f"RadialFunction: tail exponent must be positive, got {om!r}")
        model = amp * self.grid.r_max ** (-om)
        scale = max(abs(values[-1]), abs(model))
        if abs(model - values[-1]) > 0.01 * scale:
            raise ValueError(
                f"RadialFunction: tail model value {model!r} at r_max differs "
                f"from the last sample {values[-1]!r} by more than 1%")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail", (amp, om))
        object.__setattr__(self, "value_at_origin", u0)

    @property
    def tail_amplitude(self) -> float:
        return self.tail[0]

    @property
    def tail_exponent(self) -> float:
        return self.tail[1]

    @property
    def tail_value_at_rmax(self) -> float:
        amp, om = self.tail
        return amp * self.grid.r_max ** (-om)

    @classmethod
    def from_samples(cls, grid: RadialGrid, values, value_at_origin: float | None = None,
                     *, tail_exponent: float) -> "RadialFunction":
        """Build a RadialFunction from node samples, with the standard closures.

        The tail exponent is given (it must be positive) and the tail
        amplitude comes from exact continuity at r_max.  The origin value
        defaults to the quadratic extrapolation through the first two nodes.
        """
        values = np.asarray(values, dtype=float)
        if value_at_origin is None:
            g1, g2 = _origin_closure(grid)
            value_at_origin = g1 * values[0] + g2 * values[1]
        return cls(grid=grid, values=values,
                   tail=(values[-1] * grid.r_max ** tail_exponent, tail_exponent),
                   value_at_origin=value_at_origin)

    def evaluate(self, rho) -> np.ndarray | float:
        """Model value at any radius: origin model, log-linear interpolation
        between nodes, power tail beyond r_max."""
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
            out[inner] = self.value_at_origin + (self.values[0] - self.value_at_origin) * x * x
        if mid.any():
            out[mid] = np.interp(np.log(rho[mid]), self.grid.log_nodes, self.values)
        if outer.any():
            amp, om = self.tail
            out[outer] = amp * rho[outer] ** (-om)
        return float(out[0]) if scalar else out


def h_beta_function(grid: RadialGrid, beta: float) -> RadialFunction:
    """The profile (1 + rho^2)^(-beta/2) as a RadialFunction on the grid."""
    return RadialFunction.from_samples(grid, h_beta_eval(grid.nodes, beta),
                                       value_at_origin=1.0, tail_exponent=beta)


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


def _add_cubic(coeffs: np.ndarray, tt: np.ndarray, tq: np.ndarray,
               weights: np.ndarray) -> None:
    """Spread weights sitting at log radii tq onto the node slots of a row
    through the cubic-in-log stencil."""
    base, W = _cubic_basis(tt, tq)
    np.add.at(coeffs, 1 + base[:, None] + np.arange(4)[None, :],
              weights[:, None] * W)


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
        M = tt.size
        x4, w4 = _gauss(4)
        mid = 0.5 * (tt[1:] + tt[:-1])
        half = 0.5 * (tt[1:] - tt[:-1])
        tq = mid[:, None] + half[:, None] * x4[None, :]
        rho = np.exp(tq)
        self.cell_rho = rho                                # (M-1, 4)
        self.cell_w = w4[None, :] * half[:, None] * rho ** (grid.N)
        base = np.clip(np.arange(M - 1) - 1, 0, M - 4)
        self.cell_base = base                              # (M-1,)
        tb = tt[base[:, None] + np.arange(4)[None, :]]
        self.cell_cubw = _lagrange4(tb, tq)                # (M-1, 4, 4)


def _context(grid: RadialGrid) -> _RowContext:
    return _memo(("ctx", grid._token), lambda: _RowContext(grid))


def _local_step(tt: np.ndarray, t0: float) -> float:
    """Local log-spacing of the grid around log-radius t0."""
    j = int(np.clip(np.searchsorted(tt, t0) - 1, 0, tt.size - 2))
    return tt[j + 1] - tt[j]


def _stencil_offsets(grid: RadialGrid, t0: float) -> tuple[np.ndarray, list]:
    """Seven log-space stencil points bracketing t0.

    Returns the offsets delta_m = t_m - t0 and a descriptor per point:
    ('node', j) for a grid node, ('below', rho) for a virtual point handled
    by the origin model, ('above', rho) for a virtual point handled by the
    tail model.
    """
    tt = grid.log_nodes
    M = tt.size
    j0 = int(np.clip(np.searchsorted(tt, t0), 0, M - 1))
    if j0 > 0 and abs(tt[j0 - 1] - t0) < abs(tt[j0] - t0):
        j0 -= 1
    dt_lo = tt[1] - tt[0]
    dt_hi = tt[-1] - tt[-2]
    offsets = np.empty(7)
    where = []
    for m, k in enumerate(range(-3, 4)):
        j = j0 + k
        if j < 0:
            t = tt[0] + j * dt_lo
            where.append(("below", math.exp(t)))
        elif j >= M:
            t = tt[-1] + (j - (M - 1)) * dt_hi
            where.append(("above", math.exp(t)))
        else:
            t = tt[j]
            where.append(("node", j))
        offsets[m] = t - t0
    return offsets, where


def _derivative_stencils(offsets: np.ndarray) -> np.ndarray:
    """Weights c[k, m] with sum_m c[k, m] u(t0 + delta_m) ~= d^{k+1} u/dt^{k+1}
    at t0, for orders 1..4, exact on polynomials of degree 6."""
    A = np.vander(offsets, 7, increasing=True).T
    rhs = np.zeros((7, 4))
    rhs[1, 0] = 1.0
    rhs[2, 1] = 2.0
    rhs[3, 2] = 6.0
    rhs[4, 3] = 24.0
    return np.linalg.solve(A, rhs).T


def _pv_moments(N: int, p: float, r: float, w: float, s: float):
    """Singular window moments of the PV kernel around radius r.

    Mk = PV int_{|xi|<w} xi^k g(r+xi) dxi for k = 1..4, where
    g(rho) = k_p(r, rho) rho^{N-1}.  Odd moments are paired as
    xi^k (g(r+xi) - g(r-xi)) so every integrand is O(xi^{1-2s}) or milder,
    and a graded geometric subdivision with a power-law stub resolves it.

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
    edges = w * _GRADE_RATIO ** np.arange(_PV_GRADE_LEVELS + 1)
    x4, w4 = _gauss(4)
    a, b, x0 = edges[1:], edges[:-1], edges[-1]
    # the graded points, then the power-law stub's point x0: the integrand
    # xi^k g is taken as a power of xi below x0, of exponent 1-2s for the
    # first two moments and 3-2s for the last two
    xi = np.append(0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x4, x0)
    wq = (0.5 * (b - a)[:, None] * w4).ravel()
    w_lo = np.append(wq, x0 / (2.0 - 2.0 * s))
    w_hi = np.append(wq, x0 / (4.0 - 2.0 * s))
    gp = _kernel_eval(N, p, r, r + xi, xi) * (r + xi) ** (N - 1)
    gm = _kernel_eval(N, p, r, r - xi, xi) * (r - xi) ** (N - 1)
    odd = gp - gm
    even = gp + gm
    return (float(w_lo @ (xi * odd)), float(w_lo @ (xi * xi * even)),
            float(w_hi @ (xi ** 3 * odd)), float(w_hi @ (xi ** 4 * even)))


def _graded_edges(r: np.ndarray, d0: np.ndarray, hi: float) -> np.ndarray:
    """Panel edges on [0, hi] for radii r > hi, graded so panel width grows
    with distance from r: 0, hi and the points r - d0 2^k strictly between.

    Vectorised over rows: returns (n, 6) sorted edges, a missing point
    repeating hi (an empty panel).  Every caller has d0 >= 0.1 r, so only
    k < 4 can land above 0.
    """
    cand = r[:, None] - d0[:, None] * 2.0 ** np.arange(4)
    cand = np.where((cand > 0.0) & (cand < hi), cand, hi)
    ends = np.broadcast_to([[0.0, hi]], (r.size, 2))
    return np.sort(np.concatenate([ends, cand], axis=1), axis=1)


def _origin_sums(N: int, p: float, r1: float, r: np.ndarray,
                 edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel integrals over panels of [0, r_1] under the quadratic origin
    model, 8 Gauss points a panel, vectorised over radii r (n,) with panel
    edges (n, E): the slot-0 and slot-1 weights and the kernel mass."""
    x, wq = _gauss(8)
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    rho = 0.5 * (a + b) + 0.5 * (b - a) * x
    rr = r[:, None, None]
    contrib = 0.5 * (b - a) * wq * rho ** (N - 1) \
        * _kernel_eval(N, p, rr, rho, np.abs(rr - rho))
    x2 = (rho / r1) ** 2
    return (np.sum(contrib * (1.0 - x2), axis=(1, 2)),
            np.sum(contrib * x2, axis=(1, 2)), np.sum(contrib, axis=(1, 2)))


def _log_panel_sums(N: int, p: float, r: np.ndarray, edges: np.ndarray,
                    r_max: float, omegas) -> tuple[np.ndarray, np.ndarray]:
    """Kernel integrals over panels beyond r_max, 8 Gauss points a panel in
    log radius, vectorised over radii r (n,) with panel edges (n, E): the
    weights (len(omegas), n) of the tail model value at r_max, one per tail
    exponent in omegas, and the kernel mass (n,)."""
    x, wq = _gauss(8)
    la, lb = np.log(edges[:, :-1, None]), np.log(edges[:, 1:, None])
    rho = np.exp(0.5 * (la + lb) + 0.5 * (lb - la) * x)
    rr = r[:, None, None]
    contrib = 0.5 * (lb - la) * wq * rho ** N \
        * _kernel_eval(N, p, rr, rho, np.abs(rr - rho))
    tails = [np.sum(contrib * (rho / r_max) ** (-om), axis=(1, 2)) for om in omegas]
    return np.array(tails), np.sum(contrib, axis=(1, 2))


def _tail_sums(N: int, p: float, r: np.ndarray, start: np.ndarray,
               r_max: float, omegas) -> tuple[np.ndarray, np.ndarray]:
    """_log_panel_sums over panels from start (n,) out to _TAIL_SPAN r_max,
    widening geometrically; a row that arrives early gets empty panels."""
    r_inf = _TAIL_SPAN * r_max
    edges = [start]
    d = np.maximum(start - r, 0.5 * start)
    while np.any(edges[-1] < r_inf):
        edges.append(np.minimum(np.maximum(edges[-1] + d, 1.5 * edges[-1]), r_inf))
        d = 2.0 * d
    return _log_panel_sums(N, p, r, np.stack(edges, axis=1), r_max, omegas)


def _mass_remainder(N: int, s: float, r_max: float) -> float:
    """Analytic kernel mass of a fractional-Laplacian row beyond _TAIL_SPAN
    r_max, where the kernel is taken as |S^{N-1}| rho^(-N-2s)."""
    two_s = 2.0 * s
    return sphere_surface_area(N) * (_TAIL_SPAN * r_max) ** (-two_s) / two_s


def _tail_remainder(N: int, kind: str, exponent: float, r_max: float,
                    tail_omega: float) -> float:
    """Analytic tail weight of a row beyond _TAIL_SPAN r_max, where the
    kernel is taken as |S^{N-1}| rho^(exponent - N) ("riesz") or
    |S^{N-1}| rho^(-N-2 exponent) ("fraclap", whose tail enters with -1)."""
    omega_sph = sphere_surface_area(N)
    r_inf = _TAIL_SPAN * r_max
    if kind == "fraclap":
        two_s = 2.0 * exponent
        return -omega_sph * (r_inf / r_max) ** (-tail_omega) \
            * r_inf ** (-two_s) / (two_s + tail_omega)
    return omega_sph * r_max ** tail_omega \
        * r_inf ** (exponent - tail_omega) / (tail_omega - exponent)


class _Row:
    """One operator row at radius r while it is being assembled.

    coeffs has length M+1, slot 0 multiplying the origin value and slots
    1..M the node values; tail[k] multiplies the value at r_max of a tail
    model with exponent omegas[k]; mass is the kernel mass seen so far,
    which the fractional Laplacian puts on u(r) itself (the Riesz row does
    not use it).  Only the tail weights depend on the tail exponents, so
    one row serves every function on the grid.  The row builders add their
    pieces with sign -1 (fractional Laplacian, the -u(rho) part) or +1
    (Riesz).
    """

    def __init__(self, M: int, omegas):
        self.coeffs = np.zeros(M + 1)
        self.omegas = tuple(omegas)
        self.tail = np.zeros(len(self.omegas))
        self.mass = 0.0


def _full_cells(row: _Row, ctx: _RowContext, p: float, r: float,
                full: np.ndarray, sign: float) -> None:
    """The grid cells selected by `full`, with the shared cell rule."""
    sel_rho = ctx.cell_rho[full].ravel()
    if sel_rho.size:
        kern = _kernel_eval(ctx.grid.N, p, r, sel_rho,
                            np.abs(r - sel_rho)).reshape(-1, 4)
        contrib = ctx.cell_w[full] * kern
        row.mass += float(np.sum(contrib))
        per_node = np.einsum("cq,cqm->cm", contrib, ctx.cell_cubw[full])
        idx = 1 + ctx.cell_base[full][:, None] + np.arange(4)[None, :]
        np.add.at(row.coeffs, idx, sign * per_node)


def _origin_region(row: _Row, grid: RadialGrid, p: float, r: float,
                   lo_w: float, hi_w: float, w: float, sign: float) -> None:
    """[0, r_1] outside the window (lo_w, hi_w), under the quadratic origin
    model, with panels graded toward r when r lies beyond the region."""
    r1 = grid.nodes[0]
    pieces = []
    if lo_w > r1:
        pieces.append((0.0, r1))
    else:
        if lo_w > 0.0:
            pieces.append((0.0, min(lo_w, r1)))
        if hi_w < r1:
            pieces.append((hi_w, r1))
    at = np.array([r])
    for a_rho, b_rho in pieces:
        if b_rho <= a_rho:
            continue
        # a piece beyond which r lies always starts at the origin
        edges = _graded_edges(at, np.array([max(w, 0.1 * r)]), b_rho) if r > b_rho \
            else np.array([[a_rho, b_rho]])
        c0, c1, mass = _origin_sums(grid.N, p, r1, at, edges)
        row.coeffs[0] += sign * float(c0[0])
        row.coeffs[1] += sign * float(c1[0])
        row.mass += float(mass[0])


def _far_tail(row: _Row, grid: RadialGrid, p: float, r: float,
              edges: list, sign: float) -> None:
    """Panels from edges[-1] out to _TAIL_SPAN r_max, widening geometrically,
    under the power tail model (edges may already hold graded panels)."""
    at = np.array([r])
    tail, mass = _tail_sums(grid.N, p, at, np.array([edges[-1]]), grid.r_max,
                            row.omegas)
    if len(edges) > 1:
        graded = _log_panel_sums(grid.N, p, at, np.array([edges]), grid.r_max,
                                 row.omegas)
        tail, mass = tail + graded[0], mass + graded[1]
    row.tail += sign * tail[:, 0]
    row.mass += float(mass[0])


def _fraclap_window(row: _Row, ctx: _RowContext, r: float, s: float) -> float:
    """The Taylor window of a fractional-Laplacian row at radius r, of
    _WINDOW_CELLS local cells each side, and the parts of the cells its
    edges cut; returns the window half-width w."""
    grid = ctx.grid
    N = grid.N
    tt = ctx.tt
    nodes = grid.nodes
    M = nodes.size
    r1, rM = nodes[0], nodes[-1]
    p = -(N + 2.0 * s)
    coeffs = row.coeffs
    t0 = math.log(r)
    w = min(_WINDOW_CELLS * _local_step(tt, t0), 0.5) * r
    lo_w, hi_w = r - w, r + w

    m1, m2, m3, m4 = _pv_moments(N, p, r, w, s)
    offsets, where = _stencil_offsets(grid, t0)
    c = _derivative_stencils(offsets)
    ut, utt, uttt, utttt = c[0], c[1], c[2], c[3]
    # radial derivatives via log-derivatives: u_r = u_t / r,
    # u_rr = (u_tt - u_t)/r^2, u_rrr = (u_ttt - 3u_tt + 2u_t)/r^3,
    # u_rrrr = (u_tttt - 6u_ttt + 11u_tt - 6u_t)/r^4
    lam = (-(m1 / r) * ut
           - (0.5 * m2 / r ** 2) * (utt - ut)
           - (m3 / (6.0 * r ** 3)) * (uttt - 3.0 * utt + 2.0 * ut)
           - (m4 / (24.0 * r ** 4)) * (utttt - 6.0 * uttt
                                       + 11.0 * utt - 6.0 * ut))
    for lm, (tag, info) in zip(lam, where):
        if tag == "node":
            coeffs[1 + info] += lm
        elif tag == "below":
            x2 = (info / r1) ** 2
            coeffs[0] += lm * (1.0 - x2)
            coeffs[1] += lm * x2
        else:
            for k, om in enumerate(row.omegas):
                row.tail[k] += lm * (info / rM) ** (-om)

    # the parts of the cells cut by the window edges that lie outside it
    j_lo = int(np.clip(np.searchsorted(nodes, lo_w) - 1, 0, M - 2))
    j_hi = int(np.clip(np.searchsorted(nodes, hi_w), 0, M - 2))
    for j in range(j_lo, j_hi + 1):
        a_rho, b_rho = nodes[j], nodes[j + 1]
        if b_rho <= lo_w or a_rho >= hi_w:
            continue  # fully outside window: a full cell
        pieces = []
        if a_rho < lo_w:
            pieces.append((tt[j], math.log(lo_w)))
        if b_rho > hi_w:
            pieces.append((math.log(hi_w), tt[j + 1]))
        for ta, tb in pieces:
            tq, twq = _gauss_on(ta, tb, 4)
            rho = np.exp(tq)
            contrib = twq * rho ** N * _kernel_eval(N, p, r, rho, np.abs(r - rho))
            row.mass += float(np.sum(contrib))
            _add_cubic(coeffs, tt, tq, -contrib)
    return w


def _fraclap_row(ctx: _RowContext, r: float, s: float,
                 omegas) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled fractional-Laplacian row at radius r.

    The PV integral int (u(r) - u(rho)) k_p(r,rho) rho^{N-1} drho with
    p = -(N+2s), Taylor-subtracted in a window of _WINDOW_CELLS local cells
    around r.  Returns (coeffs, tails) as laid out in _Row, one tail weight
    per tail exponent in omegas; the factor C_{N,s} is NOT applied here.
    """
    grid = ctx.grid
    nodes = grid.nodes
    M = nodes.size
    p = -(grid.N + 2.0 * s)
    row = _Row(M, omegas)
    coeffs = row.coeffs
    w = _fraclap_window(row, ctx, r, s)
    lo_w, hi_w = r - w, r + w
    _full_cells(row, ctx, p, r, (nodes[1:] <= lo_w) | (nodes[:-1] >= hi_w), -1.0)
    _origin_region(row, grid, p, r, lo_w, hi_w, w, -1.0)
    _far_tail(row, grid, p, r, [max(hi_w, grid.r_max)], -1.0)
    row.mass += _mass_remainder(grid.N, s, grid.r_max)
    for k, om in enumerate(row.omegas):
        row.tail[k] += _tail_remainder(grid.N, "fraclap", s, grid.r_max, om)

    # ---- the kernel mass multiplies u(r)
    j = int(np.clip(np.searchsorted(nodes, r) - 1, 0, M - 2))
    if abs(nodes[j] - r) <= 1e-12 * r:
        coeffs[1 + j] += row.mass
    elif abs(nodes[j + 1] - r) <= 1e-12 * r:
        coeffs[2 + j] += row.mass
    elif r < nodes[0]:
        x2 = (r / nodes[0]) ** 2
        coeffs[0] += row.mass * (1.0 - x2)
        coeffs[1] += row.mass * x2
    else:
        _add_cubic(coeffs, ctx.tt, np.array([math.log(r)]), np.array([row.mass]))
    return coeffs, row.tail


def _diagonal_stub(f0: float, f1: float, x0: float) -> float:
    """Integral over the last x0 before the diagonal of an integrand taken
    as a power law through its values f0 at distance x0 and f1 at 2 x0."""
    gam = math.log(f1 / f0) / math.log(2.0)
    if gam <= -1.0:
        raise RuntimeError("riesz quadrature: non-integrable diagonal stub")
    return f0 * x0 / (gam + 1.0)


def _riesz_diagonal(row: _Row, ctx: _RowContext, r: float, p: float,
                    sides: list) -> None:
    """The cells (a, b) of `sides` that touch radius r in a Riesz row, each
    graded geometrically toward r in _RIESZ_GRADE_LEVELS levels of 4 Gauss
    points, with a power-law stub for the last level.

    The points are offsets xi from r, and the kernel is evaluated at xi
    itself (see _kernel_eval): the rounded radius r +- xi, which places
    them on the cubic stencil, keeps only about eps r / xi of xi.
    """
    N = ctx.grid.N
    tt = ctx.tt
    x4, w4 = _gauss(4)
    for a_rho, b_rho in sides:
        span = b_rho - a_rho
        if span <= 0.0:
            continue
        edges = span * _GRADE_RATIO ** np.arange(_RIESZ_GRADE_LEVELS + 1)
        xb, xa, x0 = edges[:-1], edges[1:], edges[-1]
        half = 0.5 * (xb - xa)
        # the graded points, then the stub's two points x0 and 2 x0
        xi = np.append(0.5 * (xa + xb)[:, None] + half[:, None] * x4,
                       (x0, 2.0 * x0))
        rho = r - xi if b_rho == r else r + xi
        g = rho ** (N - 1) * _kernel_eval(N, p, r, rho, xi)
        _add_cubic(row.coeffs, tt, np.log(rho[:-2]),
                   (half[:, None] * w4).ravel() * g[:-2])
        stub = _diagonal_stub(g[-2], g[-1], x0)
        _add_cubic(row.coeffs, tt, np.array([math.log(r)]), np.array([stub]))


def _riesz_row(ctx: _RowContext, i: int, alpha: float,
               omegas) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled Riesz row at node i, radius r = r_i.

    int g(rho) k_p(r,rho) rho^{N-1} drho with p = alpha - N, graded around
    the integrable diagonal singularity inside the cells touching r.
    Returns (coeffs, tails) as laid out in _Row, one tail weight per tail
    exponent in omegas; the factor C_{N,alpha} is NOT applied here.
    """
    grid = ctx.grid
    N = grid.N
    nodes = grid.nodes
    M = nodes.size
    rM = nodes[-1]
    p = alpha - N
    r = float(nodes[i])
    row = _Row(M, omegas)

    # ---- grid cells, except the ones touching r
    full = np.ones(M - 1, dtype=bool)
    sides = []
    if i > 0:
        full[i - 1] = False
        sides.append((nodes[i - 1], r))
    if i < M - 1:
        full[i] = False
        sides.append((r, nodes[i + 1]))
    _full_cells(row, ctx, p, r, full, 1.0)
    _riesz_diagonal(row, ctx, r, p, sides)
    _origin_region(row, grid, p, r, r, r, 0.0, 1.0)

    # ---- far tail plus analytic remainder
    start = max(r, rM)
    if start <= r * (1.0 + 1e-12):
        # row at the last node: the diagonal singularity sits at the start of
        # the tail region, so grade toward it and add a power-law stub
        ks = np.arange(_RIESZ_GRADE_LEVELS, -1, -1)
        edges = list(r * (1.0 + 0.5 * _GRADE_RATIO ** ks))
        x0 = 0.5 * r * _GRADE_RATIO ** _RIESZ_GRADE_LEVELS
        xi = np.array([x0, 2.0 * x0])
        rho = r + xi
        g = rho ** (N - 1) * _kernel_eval(N, p, r, rho, xi)
        for k, om in enumerate(row.omegas):
            f0, f1 = g * (rho / rM) ** (-om)
            row.tail[k] += _diagonal_stub(f0, f1, x0)
    else:
        edges = [start]
    _far_tail(row, grid, p, r, edges, 1.0)
    for k, om in enumerate(row.omegas):
        row.tail[k] += _tail_remainder(N, "riesz", alpha, rM, om)
    return row.coeffs, row.tail


def _fraclap_C(N: int, s: float) -> float:
    """Normalization of the pointwise fractional Laplacian,
    C_{N,s} = 4^s Gamma(N/2+s) / (pi^{N/2} |Gamma(-s)|)."""
    return 4.0 ** s * math.gamma(N / 2.0 + s) \
        / (math.pi ** (N / 2.0) * abs(math.gamma(-s)))


# Rows assembled one by one at each end of a geometric grid, and node
# columns at each end that the clipped stencils of the end cells reach.
# Rows in between keep their Taylor window, partial cells and graded
# diagonal cells (offsets -4..4) clear of those columns and of both ends.
# The closures of those rows are integrated _ROW_BLOCK rows at a time, which
# keeps their temporaries under a megabyte.
_END_ROWS = 8
_END_COLUMNS = 4
_ROW_BLOCK = 64


def _is_geometric(grid: RadialGrid) -> bool:
    """True when the log radii form an arithmetic progression to within 64
    ulp and the grid has room for rows away from both ends."""
    tt = grid.log_nodes
    M = tt.size
    if M < 4 * _END_ROWS:
        return False
    h = (tt[-1] - tt[0]) / (M - 1)
    dev = float(np.max(np.abs(tt - (tt[0] + h * np.arange(M)))))
    return dev <= 64.0 * np.finfo(float).eps * max(abs(tt[0]), abs(tt[-1]), 1.0)


def _rows_at(grid: RadialGrid, kind: str, exponent: float, tail_omega: float,
             which) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled rows at the nodes `which`, one row-builder call each: their
    (len(which), M+1) coefficients and their tail coefficients."""
    ctx = _context(grid)
    rows = np.empty((len(which), grid.size + 1))
    tails = np.empty(len(which))
    for k, i in enumerate(which):
        if kind == "fraclap":
            row = _fraclap_row(ctx, float(grid.nodes[i]), exponent, (tail_omega,))
        else:
            row = _riesz_row(ctx, i, exponent, (tail_omega,))
        rows[k], (tails[k],) = row
    return rows, tails


def _rows_by_loop(grid: RadialGrid, kind: str, exponent: float,
                  tail_omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled rows at every node, one row-builder call each: the (M, M+1)
    coefficient matrix and the length-M tail coefficient vector."""
    return _rows_at(grid, kind, exponent, tail_omega, range(grid.size))


@dataclass
class _Operator:
    """Unscaled rows of one operator at every node, stored by structure.

    Row i maps x = (u(0), u_1, ..., u_M, A r_max^(-omega)) to the operator
    value at node i before its constant factor: slot 0 takes the origin
    value, slots 1..M the node values, and tails[i] the tail model value.
    On a geometric grid the interior rows i = lo..hi-1 are, at the node
    columns E..M-1-E (E = _END_COLUMNS), shifts of one generating row:
    row lo+k there is scale[k] gen[K-1-k : K-1-k+M-2E], K = hi - lo.
    `edges` (K, 2E+1) holds their slot 0 and their first and last E node
    columns, and `diag` (K,) what their diagonal carries beyond the shift
    (the fractional Laplacian's kernel mass; zero for Riesz).  `ends` holds
    every other row densely: rows 0..lo-1, then hi..M-1.  Any other grid
    has no interior (lo = hi = 0) and all M rows in `ends`.  A Riesz
    operator also holds `origin`, the weights of I_alpha * u(0) over x.
    """

    ends: np.ndarray
    tails: np.ndarray
    lo: int
    hi: int
    gen: np.ndarray
    scale: np.ndarray
    edges: np.ndarray
    diag: np.ndarray
    origin: np.ndarray | None = None

    @classmethod
    def dense(cls, rows: np.ndarray, tails: np.ndarray) -> "_Operator":
        """An operator with every row held densely."""
        empty = np.empty(0)
        return cls(ends=rows, tails=tails, lo=0, hi=0, gen=empty, scale=empty,
                   edges=np.empty((0, 2 * _END_COLUMNS + 1)), diag=empty)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Unscaled operator values at the nodes for x laid out as above;
        the interior is one correlation of gen with the middle node values."""
        lo, hi, E = self.lo, self.hi, _END_COLUMNS
        vec, u = x[:-1], x[1:-1]
        out = self.tails * x[-1]
        out[:lo] += self.ends[:lo] @ vec
        out[hi:] += self.ends[lo:] @ vec
        if hi > lo:
            corr = np.correlate(self.gen, u[E:u.size - E], "valid")[::-1]
            out[lo:hi] += self.scale * corr \
                + self.edges @ np.concatenate((vec[:1 + E], u[u.size - E:])) \
                + self.diag * u[lo:hi]
        return out

    def rows(self) -> np.ndarray:
        """The (M, M+1) coefficients of every row, as a fresh array."""
        lo, hi, E = self.lo, self.hi, _END_COLUMNS
        M = self.tails.size
        rows = np.empty((M, M + 1))
        rows[:lo] = self.ends[:lo]
        rows[hi:] = self.ends[lo:]
        if hi > lo:
            shifts = np.lib.stride_tricks.sliding_window_view(self.gen, M - 2 * E)
            np.multiply(shifts[::-1], self.scale[:, None], out=rows[lo:hi, 1 + E:1 + M - E])
            rows[lo:hi, :1 + E] = self.edges[:, :1 + E]
            rows[lo:hi, 1 + M - E:] = self.edges[:, 1 + E:]
            inner = np.arange(lo, hi)
            rows[inner, 1 + inner] += self.diag
        return rows


def _structured_rows(grid: RadialGrid, kind: str, exponent: float,
                     tail_omega: float) -> _Operator:
    """The rows of _rows_by_loop on a geometric grid, built from one
    generating row and stored as an _Operator with an interior.

    With r_i = r_1 e^{i h}, the kernel is homogeneous, k_p(l r, l rho) =
    l^p k_p(r, rho), so away from the ends row i divided by its scale
    r_i^(N+p) (r_i^(-2s) or r_i^alpha) is row i+1 divided by its scale and
    shifted by one node.  Interior rows are therefore shifts of a
    generating row: the near-diagonal pieces of the middle row plus the
    full cells at every offset, integrated once at r = 1.  What is not
    shift-invariant is computed per row, vectorised: the end columns (the
    end cells' clipped stencils), the origin region (slots 0 and 1), the
    far tail, and for the fractional Laplacian the kernel mass on the
    diagonal.  The end rows come from the row builders themselves.
    """
    ctx = _context(grid)
    N = grid.N
    nodes = grid.nodes
    M = nodes.size
    r1, rM = nodes[0], nodes[-1]
    tt = ctx.tt
    h = (tt[-1] - tt[0]) / (M - 1)
    fraclap = kind == "fraclap"
    p = -(N + 2.0 * exponent) if fraclap else exponent - N
    sign = -1.0 if fraclap else 1.0
    scale = nodes ** (N + p)

    # near-diagonal pieces of the middle row, and the cells they cover
    g = M // 2
    near = _Row(M, ())
    if fraclap:
        w = _fraclap_window(near, ctx, float(nodes[g]), exponent)
        excluded = (nodes[1:] > nodes[g] - w) & (nodes[:-1] < nodes[g] + w)
        d0 = max(w / nodes[g], 0.1)
    else:
        excluded = np.zeros(M - 1, dtype=bool)
        excluded[g - 1:g + 1] = True
        _riesz_diagonal(near, ctx, float(nodes[g]), p,
                        [(nodes[g - 1], nodes[g]), (nodes[g], nodes[g + 1])])
        d0 = 0.1

    # full cells at offsets e = c - i in [-(M+1), M], integrated at r = 1
    x4, w4 = _gauss(4)
    rho = np.exp((np.arange(-(M + 1), M + 1)[:, None] + 0.5 + 0.5 * x4) * h)
    cells = 0.5 * h * w4 * rho ** N * _kernel_eval(N, p, 1.0, rho, np.abs(1.0 - rho))
    cells[np.flatnonzero(excluded) - g + M + 1] = 0.0
    per_node = sign * cells @ _lagrange4(np.arange(-1.0, 3.0), 0.5 + 0.5 * x4)

    # generating row gen[d + M - 1], d = j - i: cell e puts node e - 1 + m
    L = 2 * M - 1
    gen = per_node[3:3 + L, 0] + per_node[2:2 + L, 1] \
        + per_node[1:1 + L, 2] + per_node[:L, 3]
    gen[M - 1 - g:2 * M - 1 - g] += near.coeffs[1:] / scale[g]

    lo, hi = _END_ROWS, M - _END_ROWS
    inner = np.arange(lo, hi)
    tails = np.empty(M)

    # end columns: only the real cells whose stencils reach them; edge
    # column 1 + j holds node j < E, column 1 + j - M + 2E node j >= M - E
    E = _END_COLUMNS
    edges = np.zeros((hi - lo, 2 * E + 1))
    for c in (*range(E + 1), *range(M - E - 2, M - 1)):
        base = ctx.cell_base[c]
        part = sign * scale[lo:hi, None] * (cells[c - inner + M + 1] @ ctx.cell_cubw[c])
        for m in range(4):
            j = base + m
            if j < E:
                edges[:, 1 + j] += part[:, m]
            elif j >= M - E:
                edges[:, 1 + j - M + 2 * E] += part[:, m]

    # origin region and far tail, a block of rows at a time
    mass = np.zeros(hi - lo)
    for b in range(lo, hi, _ROW_BLOCK):
        r = nodes[b:min(b + _ROW_BLOCK, hi)]
        c0, c1, m0 = _origin_sums(N, p, r1, r, _graded_edges(r, d0 * r, r1))
        (tail,), m1 = _tail_sums(N, p, r, np.full(r.size, rM), rM, (tail_omega,))
        edges[b - lo:b - lo + r.size, 0] = sign * c0
        edges[b - lo:b - lo + r.size, 1] += sign * c1
        tails[b:b + r.size] = sign * tail
        mass[b - lo:b - lo + r.size] = m0 + m1
    tails[lo:hi] += _tail_remainder(N, kind, exponent, rM, tail_omega)
    if fraclap:
        # the full cells c = 0 .. M-2 of row i sit at offsets -i .. M-2-i
        cum = np.concatenate(([0.0], np.cumsum(cells.sum(axis=1))))
        mass += scale[lo:hi] * (cum[2 * M - inner] - cum[M + 1 - inner]
                                + near.mass / scale[g]) \
            + _mass_remainder(N, exponent, rM)

    ends, end_tails = _rows_at(grid, kind, exponent, tail_omega,
                               (*range(lo), *range(hi, M)))
    tails[:lo] = end_tails[:lo]
    tails[hi:] = end_tails[lo:]
    # the generating row where the interior rows reach the middle columns
    return _Operator(ends=ends, tails=tails, lo=lo, hi=hi,
                     gen=gen[E + M - hi:2 * M - 1 - E - lo].copy(),
                     scale=scale[lo:hi], edges=edges,
                     # the Riesz diagonal shifts like the rest of the row
                     diag=mass if fraclap else np.zeros(hi - lo))


def _riesz_origin(grid: RadialGrid, alpha: float, tail_omega: float) -> np.ndarray:
    """Weights of the unscaled Riesz potential at the origin over x (see
    _Operator), where the kernel is |S^{N-1}| rho^(alpha-N): the [0, r_1]
    piece of int g rho^(alpha-1) drho is exact for the quadratic origin
    model, the grid part uses the shared cell rule, and the tail closes
    analytically."""
    ctx = _context(grid)
    M = grid.size
    r1a = grid.nodes[0] ** alpha
    per_node = np.einsum("cq,cqm->cm", ctx.cell_w * ctx.cell_rho ** (alpha - grid.N),
                         ctx.cell_cubw)
    weights = np.zeros(M + 2)
    np.add.at(weights, 1 + ctx.cell_base[:, None] + np.arange(4), per_node)
    weights[0] += r1a * (1.0 / alpha - 1.0 / (alpha + 2.0))
    weights[1] += r1a / (alpha + 2.0)
    weights[M + 1] = grid.r_max ** alpha / (tail_omega - alpha)
    return sphere_surface_area(grid.N) * weights


def _raw(grid: RadialGrid, kind: str, exponent: float,
         tail_omega: float) -> _Operator:
    """Unscaled rows of one operator at every node, memoised as an
    _Operator.  kind is "fraclap" (exponent s) or "riesz" (exponent alpha).
    A geometric grid is assembled from one generating row, any other grid
    row by row.  The Riesz operator keeps the structure; the fractional
    Laplacian is held densely, as the resolvent's inverse needs it and its
    PV rows cancel to far below their entries, so a different summation
    order would move its values by 1e-11 of their maximum."""
    def build():
        if _is_geometric(grid):
            op = _structured_rows(grid, kind, exponent, tail_omega)
        else:
            op = _Operator.dense(*_rows_by_loop(grid, kind, exponent, tail_omega))
        if kind == "fraclap":
            return _Operator.dense(op.rows(), op.tails)
        op.origin = _riesz_origin(grid, exponent, tail_omega)
        return op

    return _memo((kind, grid._token, round(exponent, 15), round(tail_omega, 12)),
                 build)


def _samples(u: RadialFunction) -> np.ndarray:
    """x = (u(0), u_1, ..., u_M, tail model value at r_max), the vector the
    operator rows act on."""
    return np.concatenate(([u.value_at_origin], u.values, [u.tail_value_at_rmax]))


def _backward_error(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Backward error max|A x - b| / (max|A| max|x| + max|b|) of a solve.

    Raises:
        RuntimeError: the error is above 1e-10 or not finite, which means
            the matrix is numerically singular.
    """
    a_max = max(float(A.max()), -float(A.min()))  # max|A| without an M x M copy
    denom = float(a_max * np.max(np.abs(x)) + np.max(np.abs(b)))
    err = float(np.max(np.abs(A @ x - b))) / max(denom, 1e-300)
    if not np.isfinite(err) or err > 1e-10:
        raise RuntimeError(
            f"linear solve backward error {err:.3e} exceeds 1e-10 (operator "
            "matrix is numerically singular)")
    return err


def frac_laplacian_radial(u, s: float, at: float):
    """Pointwise principal-value fractional Laplacian of u at a radius.

    The radial integral is Taylor-subtracted in a window of a few grid cells
    around `at` (so the PV cancellation is explicit), integrated cell by
    cell elsewhere with u reconstructed by cubic-in-log Lagrange
    interpolation of the node values, and closed with u's origin and tail
    models on [0, r_1) and (r_max, inf).

    u may also be a sequence of radial functions on one grid.  A row's
    coefficients do not depend on the tail model, so the row at `at` is
    built once and closed with one tail weight per function; each value
    equals the one-function call bitwise.

    Args:
        u: the radial function, with a valid tail model, or a sequence of
            them on one grid.
        s: fractional order in (0, 1).
        at: evaluation radius in (0, r_max].

    Returns:
        The value as a float for one function; an array of one value per
        function for a sequence.

    Raises:
        ValueError: if s or `at` is out of range.
    """
    fs = [u] if isinstance(u, RadialFunction) else list(u)
    if not (0.0 < s < 1.0):
        raise ValueError(f"frac_laplacian_radial: s must lie in (0, 1), got {s!r}")
    grid = fs[0].grid
    if not (0.0 < at <= grid.r_max):
        raise ValueError(
            f"frac_laplacian_radial: radius must lie in (0, r_max], got {at!r}")
    coeffs, tails = _fraclap_row(_context(grid), float(at), s,
                                 [f.tail_exponent for f in fs])
    C = _fraclap_C(grid.N, s)
    out = np.empty(len(fs))
    for k, (f, tail_c) in enumerate(zip(fs, tails)):
        vec = np.concatenate(([f.value_at_origin], f.values))
        out[k] = C * float(coeffs @ vec + tail_c * f.tail_value_at_rmax)
    return float(out[0]) if isinstance(u, RadialFunction) else out


def frac_laplacian_on_grid(u: RadialFunction, s: float) -> np.ndarray:
    """(-Delta)^s u sampled at every grid node (one assembled-operator pass)."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"frac_laplacian_on_grid: s must lie in (0, 1), got {s!r}")
    op = _raw(u.grid, "fraclap", s, u.tail_exponent)
    return _fraclap_C(u.grid.N, s) * op.apply(_samples(u))


def _riesz_operator(grid: RadialGrid, alpha: float,
                    tail_omega: float) -> tuple[float, _Operator]:
    """The Riesz constant C_{N,alpha} and the memoised unscaled Riesz
    operator (see _Operator) for inputs on grid closed with tail exponent
    tail_omega; C * op.apply(x) is I_alpha * g at the nodes.

    Raises:
        ValueError: alpha outside (0, N), or tail_omega <= alpha, where the
            convolution diverges.
    """
    N = grid.N
    if not (0.0 < alpha < N):
        raise ValueError(f"riesz_convolve_radial: alpha must lie in (0, N), got {alpha!r}")
    if tail_omega <= alpha:
        raise ValueError(
            f"riesz_convolve_radial: tail exponent {tail_omega} of g must exceed "
            f"alpha = {alpha}, otherwise the convolution diverges")
    return riesz_constant(N, alpha), _raw(grid, "riesz", alpha, tail_omega)


def riesz_convolve_radial(g: RadialFunction, alpha: float) -> RadialFunction:
    """Riesz potential I_alpha * g of a radial function, on g's grid.

    Args:
        g: the input function; its tail exponent must exceed alpha or the
            convolution integral diverges.
        alpha: order of the potential, in (0, N).

    Returns:
        The convolution sampled on the same grid, with the exact value at the
        origin and the tail exponent min(omega_g, N) - alpha, omega_g being
        g's: I_alpha * g decays like rho^(alpha-N) when g is integrable
        (omega_g > N) and like rho^(alpha-omega_g) otherwise.
    """
    grid = g.grid
    om_g = g.tail_exponent
    C, op = _riesz_operator(grid, alpha, om_g)

    # the value at the origin, exact as far as the three models go, is one
    # more weight row of the operator
    x = _samples(g)
    values = C * op.apply(x)
    origin = C * float(op.origin @ x)

    return RadialFunction.from_samples(grid, values, value_at_origin=origin,
                                       tail_exponent=min(om_g, float(grid.N)) - alpha)


def lu_factor(A: np.ndarray) -> np.ndarray:
    """The inverse of the square resolvent matrix A, one np.linalg.inv
    call, which lu_solve applies.  A is not modified.

    Raises:
        RuntimeError: A is not finite, or it is singular (LAPACK met an
            exactly zero pivot).
    """
    if not (math.isfinite(A.max()) and math.isfinite(A.min())):  # no M x M mask
        raise RuntimeError("lu_factor: resolvent matrix has non-finite entries")
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("lu_factor: singular resolvent matrix") from exc


def lu_solve(inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution inv @ b of A x = b, from inv = lu_factor(A): one
    matrix-vector product, so a non-finite b gives a non-finite x for the
    caller to reject.  b is not modified."""
    return inv @ b


def apply_inverse_operator(rhs: RadialFunction, s: float,
                           mu: float) -> RadialFunction:
    """Solve ((-Delta)^s + mu) w = rhs on the grid of rhs.

    The discrete fractional Laplacian is assembled with w's tail exponent
    taken as min(tail exponent of rhs, N + 2s), which is the exponent of the
    true resolvent image for right-hand sides in that decay class.  The
    linear solve is checked to 1e-10 relative residual.

    Raises:
        ValueError: mu <= 0.
        RuntimeError: singular or numerically unreliable operator matrix.
    """
    if not (mu > 0.0):
        raise ValueError(f"apply_inverse_operator: mu must be positive, got {mu!r}")
    if not (0.0 < s < 1.0):
        raise ValueError(f"apply_inverse_operator: s must lie in (0, 1), got {s!r}")
    grid = rhs.grid
    om_w = min(rhs.tail_exponent, grid.N + 2.0 * s)

    A = fraclap_matrix(grid, s, om_w)
    A[np.diag_indices_from(A)] += mu
    b = rhs.values
    inv = lu_factor(A)
    wv = lu_solve(inv, b)
    wv += lu_solve(inv, b - A @ wv)  # one step of iterative refinement
    _backward_error(A, wv, b)
    return RadialFunction.from_samples(grid, wv, tail_exponent=om_w)


def fraclap_matrix(grid: RadialGrid, s: float, tail_omega: float) -> np.ndarray:
    """Assembled M x M matrix of (-Delta)^s under the standard closures.

    Column M-1 absorbs the tail model (continuity A r_max^(-omega) = u_M)
    and the origin value is eliminated through the quadratic two-node
    extrapolation.  Rows act on node values and return pointwise operator
    values at the nodes.  The matrix is a fresh array the caller may modify.
    """
    op = _raw(grid, "fraclap", s, tail_omega)
    rows, tails = op.ends, op.tails  # held densely, see _raw
    C = _fraclap_C(grid.N, s)
    A = C * rows[:, 1:]
    A[:, grid.size - 1] += C * tails
    g1, g2 = _origin_closure(grid)
    A[:, 0] += C * rows[:, 0] * g1
    A[:, 1] += C * rows[:, 0] * g2
    return A


# ----------------------------------------------------------------------------
# Volume integrals
# ----------------------------------------------------------------------------

def volume_integral(u: RadialFunction, power: float = 1.0) -> float:
    """Integral of u(x)^power over R^N, using all three model regions.

    Args:
        u: radial function; must be nonnegative when power is fractional.
        power: exponent applied pointwise.

    Raises:
        ValueError: divergent tail (power * omega <= N), or fractional power
            of a function with negative samples.
    """
    grid = u.grid
    N = grid.N
    q = float(power)
    frac = abs(q - round(q)) > 1e-12
    if frac and (np.any(u.values < 0.0) or u.value_at_origin < 0.0):
        raise ValueError("volume_integral: fractional power of a sign-changing function")
    amp, om = u.tail
    if q * om <= N:
        raise ValueError(
            f"volume_integral: tail decay power*omega = {q * om} must exceed N = {N}")
    node_part = float(np.sum(grid.weights * u.values ** q))
    r1 = grid.nodes[0]
    x, xw = _gauss_on(0.0, r1, 16)
    model = u.value_at_origin + (u.values[0] - u.value_at_origin) * (x / r1) ** 2
    origin_part = float(np.sum(xw * model ** q * x ** (N - 1)))
    tail_part = (amp ** q) * grid.r_max ** (N - q * om) / (q * om - N)
    return sphere_surface_area(N) * (node_part + origin_part + tail_part)
