"""Radial functions on R^N: the grid, the value rule and the volume integral.

A radial function (`RadialFunction`) is its values u_1, ..., u_M at the
nodes of a logarithmic grid (`RadialGrid`) and a tail exponent omega > 0.
One rule, `_value_weights`, gives its value at any radius as weights on
four node columns: the quadratic origin model u(0) + (u_1 - u(0))
(rho/r_1)^2 below r_1, whose u(0) = g1 u_1 + g2 u_2 is the quadratic in
rho through the first two nodes (`_origin_closure`), the cubic in log
radius through the four nearest nodes (`_cubic_basis`) on [r_1, r_max],
and the power tail u_M (rho/r_max)^(-omega) beyond.  Both closures
continue the nearest samples by construction, and `volume_integral`
continues its trapezoid sum in log radius through their samples.
`RadialFunction.evaluate` applies the rule to the values, and `_spread`
adds an operator row's weights sitting at radii to its node columns
through it.  The operators (`fracradial.quadrature`, `fracradial.radial_ops`)
are assembled on this representation, which imports neither.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from fracradial.specfun import h_beta_eval

_MIN_NODES = 32


def sphere_surface_area(N: int) -> float:
    """Surface area of the unit sphere S^{N-1}."""
    if int(N) != N or N < 1:
        raise ValueError(f"sphere_surface_area: N must be a positive integer, got {N!r}")
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Geometric radial grid: `size` nodes from r_min to r_max in geometric
    progression, with quadrature weights for r^{N-1} dr.

    The four fields define the grid, and key its operators in the cache;
    the nodes, weights and log nodes are derived from them.  The weights
    are the trapezoid rule in t = log r, h r_j^N for the log spacing h,
    with full weight at both ends: `volume_integral` continues the sum
    below r_1 and beyond r_M with the closures' samples.
    A grid has at least `_MIN_NODES` nodes, so that the assembled
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
        if M < _MIN_NODES:
            raise ValueError(
                f"RadialGrid: need at least {_MIN_NODES} nodes, got {M!r}")
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
# The value rule
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
