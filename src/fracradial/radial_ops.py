"""Discrete operators for radial functions on R^N: the principal-value
fractional Laplacian (-Delta)^s, whose values at the nodes are read between
them as any radial function is, and the Riesz potential I_alpha * g.

Each is the assembled operator of `fracradial.quadrature._raw`, of kernel
order a = -2s or a = alpha, which caches it: the grid and the exponents
alone decide what is reused.  `fraclap_matrix` expands its rows, the
constant applied, for the resolvent's inverse on each call.  The
representation of `fracradial.radial` (the grid, the radial functions and
the volume integral) is re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from fracradial.quadrature import _Operator, _raw
from fracradial.radial import (
    RadialFunction, RadialGrid, h_beta_function, sphere_surface_area, volume_integral)

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
