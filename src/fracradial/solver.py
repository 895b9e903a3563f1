"""Fixed-point solver for the doubly nonlocal equation.

Computes positive radial profiles solving

    (-Delta)^s u + mu u = (I_alpha * F(u)) f(u)   on R^N

by damped resolvent iteration.  The right-hand side map is homogeneous of
degree 2r-1 > 1 (exactly so for power nonlinearities, asymptotically via
the envelopes otherwise), which makes the plain Picard map unstable along
the amplitude direction; the iteration therefore runs on sup-normalized
profiles and recovers the amplitude from the fixed point's multiplier,
A = kappa^{-1/(2r-2)}.  The operator matrix closes the far field with the
predicted decay exponent min{(N-alpha)/(2-r), N+2s} and refits it from the
converged tail when the two disagree.

Energy and scaling diagnostics (the functional I, the scaling functional P,
and the dilation derivative of I, which must reproduce P) are computed from
the same discrete operators and reported with every solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
    _backward_error,
    _CubicSpline,
    _gauss,
    _origin_closure,
    _riesz_operator,
    frac_laplacian_on_grid,
    fraclap_matrix,
    lu_factor,
    lu_solve,
    riesz_convolve_radial,
    sphere_surface_area,
    volume_integral,
)
from fracradial.specfun import NonConvergenceError, h_beta_eval

__all__ = [
    "NonlinearitySpec",
    "ProblemParams",
    "SolverOpts",
    "Solution",
    "ZeroCollapseError",
    "solve_ground_state",
    "residual",
    "pohozaev_check",
    "dilation_derivative",
]


# At most this many re-solves with a refitted tail exponent (solve_ground_state).
_TAIL_REFIT_ROUNDS = 3


class ZeroCollapseError(RuntimeError):
    """Iterates collapsed to zero (bad initialization or parameters)."""


def _call_on_array(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """Apply a scalar callable to an array, vectorizing only if needed."""
    try:
        out = np.asarray(fn(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([float(fn(float(t))) for t in x.ravel()]).reshape(x.shape)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity pair (f, F) with its sublinear envelope data.

    kind "homogeneous" carries an exact power pair; the default convention
    "sqrt_r" uses f(t) = sqrt(r) t^{r-1}, F(t) = t^r / sqrt(r), for which
    (I_alpha*F(u)) f(u) = (I_alpha*u^r) u^{r-1}; the alternative "power"
    uses F(t) = t^r, f(t) = r t^{r-1} (same product times r).  The two
    solve equations differing by a constant absorbable into mu-rescaling.

    kind "general" carries arbitrary callables plus the envelope constants
    C_under t^{r-1} <= f(t) <= C_bar t^{r-1} declared to hold for
    0 <= t <= delta.  The solver never differentiates f; F must be its
    antiderivative (validated numerically on a lattice in (0, min(delta,1)]).
    """

    kind: str
    r: float
    f: Callable[[float], float]
    F: Callable[[float], float]
    C_bar: float
    C_under: float
    delta: float
    convention: str | None = None

    def __post_init__(self):
        if self.kind not in ("homogeneous", "general"):
            raise ValueError(f"NonlinearitySpec: unknown kind {self.kind!r}")
        if not (self.r > 1.0 and math.isfinite(self.r)):
            raise ValueError(f"NonlinearitySpec: r must exceed 1, got {self.r!r}")
        if not (0.0 < self.C_under <= self.C_bar):
            raise ValueError(
                f"NonlinearitySpec: need 0 < C_under <= C_bar, got "
                f"{self.C_under!r}, {self.C_bar!r}")
        if not (self.delta > 0.0):
            raise ValueError(f"NonlinearitySpec: delta must be positive, got {self.delta!r}")
        if abs(float(self.F(0.0))) > 1e-12:
            raise ValueError("NonlinearitySpec: F(0) must vanish")
        self._check_antiderivative()

    def _check_antiderivative(self):
        scale = min(self.delta, 1.0)
        lattice = np.geomspace(0.05, 1.0, 12) * scale
        for t in lattice:
            h = 1e-4 * t
            fd = (float(self.F(t + h)) - float(self.F(t - h))) / (2.0 * h)
            ft = float(self.f(t))
            if abs(fd - ft) > 1e-8 * max(1.0, abs(ft)):
                raise ValueError(
                    f"NonlinearitySpec: F is not the antiderivative of f at "
                    f"t = {t!r} (finite difference {fd!r} vs f {ft!r})")

    @classmethod
    def homogeneous(cls, r: float, convention: str = "sqrt_r") -> "NonlinearitySpec":
        if convention not in ("sqrt_r", "power"):
            raise ValueError(
                f"NonlinearitySpec.homogeneous: unknown convention {convention!r}")
        slope = math.sqrt(r) if convention == "sqrt_r" else r
        f = lambda t: slope * np.power(t, r - 1.0)          # noqa: E731
        F = lambda t: (slope / r) * np.power(t, r)          # noqa: E731
        return cls(kind="homogeneous", r=r, f=f, F=F, C_bar=slope,
                   C_under=slope, delta=math.inf, convention=convention)

    @classmethod
    def general(cls, f: Callable[[float], float], F: Callable[[float], float],
                r: float, C_bar: float, C_under: float,
                delta: float) -> "NonlinearitySpec":
        return cls(kind="general", r=r, f=f, F=F, C_bar=C_bar,
                   C_under=C_under, delta=delta)

    @property
    def is_homogeneous(self) -> bool:
        return self.kind == "homogeneous"

    @property
    def f_slope(self) -> float:
        """Exact limit of f(t)/t^{r-1} (homogeneous kinds only)."""
        if not self.is_homogeneous:
            raise ValueError("f_slope is exact only for homogeneous nonlinearities")
        return math.sqrt(self.r) if self.convention == "sqrt_r" else float(self.r)

    @property
    def mass_scale(self) -> float:
        """Factor with int F(u) = mass_scale * ||u||_r^r (homogeneous only)."""
        return self.f_slope / self.r

    def limit_slope(self) -> float:
        """lim f(t)/t^{r-1} as t -> 0+, numerically for general kinds."""
        if self.is_homogeneous:
            return self.f_slope
        t0 = 1e-6 * min(self.delta, 1.0)
        return float(self.f(t0)) / t0 ** (self.r - 1.0)

    def f_values(self, x: np.ndarray) -> np.ndarray:
        return _call_on_array(self.f, np.asarray(x, dtype=float))

    def F_values(self, x: np.ndarray) -> np.ndarray:
        return _call_on_array(self.F, np.asarray(x, dtype=float))

    def F_of(self, u: RadialFunction) -> RadialFunction:
        """F(u) as a RadialFunction, with the envelope tail model r*omega."""
        return RadialFunction.from_samples(u.grid, self.F_values(u.values),
                                           value_at_origin=float(self.F(u.value_at_origin)),
                                           tail_exponent=self.r * u.tail_exponent)


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of the doubly nonlocal problem on R^N."""

    N: int
    s: float
    alpha: float
    mu: float
    nonlinearity: NonlinearitySpec

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"ProblemParams: N must be an integer >= 2, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"ProblemParams: s must lie in (0, 1), got {self.s!r}")
        if not (0.0 < self.alpha < self.N):
            raise ValueError(f"ProblemParams: alpha must lie in (0, N), got {self.alpha!r}")
        if not (self.mu > 0.0):
            raise ValueError(f"ProblemParams: mu must be positive, got {self.mu!r}")
        r = self.nonlinearity.r
        lo = (self.N + self.alpha) / self.N
        if self.nonlinearity.is_homogeneous:
            hi = (self.N + self.alpha) / (self.N - 2.0 * self.s)
            if not (lo - 1e-12 <= r <= hi + 1e-12):
                raise ValueError(
                    f"ProblemParams: homogeneous exponent r = {r!r} outside the "
                    f"admissible range [{lo}, {hi}]")
        elif not (lo - 1e-12 <= r < 2.0):
            raise ValueError(
                f"ProblemParams: envelope exponent r = {r!r} outside the "
                f"sublinear range [{lo}, 2)")

    def predicted_tail_exponent(self) -> float:
        """Decay exponent min{(N-alpha)/(2-r), N+2s} used for tail closures."""
        r = self.nonlinearity.r
        lap = self.N + 2.0 * self.s
        if r >= 2.0:
            return lap
        return min((self.N - self.alpha) / (2.0 - r), lap)


@dataclass(frozen=True)
class SolverOpts:
    """Knobs of the fixed-point iteration."""

    grid: RadialGrid | None = None
    initial_profile: RadialFunction | None = None
    max_iterations: int = 5000
    damping: float = 0.5
    tolerance: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"SolverOpts: damping must lie in (0, 1], got {self.damping!r}")
        if not (self.tolerance > 0.0):
            raise ValueError(f"SolverOpts: tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError(f"SolverOpts: max_iterations must be >= 1")


@dataclass(frozen=True)
class Solution:
    """A converged profile with its quality diagnostics.

    trace holds one (iteration, profile_change, amplitude) triple per inner
    iteration, concatenated across tail-refit rounds.
    """

    u: RadialFunction
    params: ProblemParams
    residual_sup: float
    pohozaev_defect: float
    iterations: int
    norm_r: float
    mass_F: float
    trace: tuple = field(default=(), repr=False)

    def __post_init__(self):
        vals = self.u.values
        if np.any(vals <= 0.0) or not (self.u.value_at_origin > 0.0):
            raise ValueError("Solution: profile must be strictly positive")
        if np.any(np.diff(vals) > 1e-9 * float(np.max(vals))):
            raise ValueError("Solution: profile must be non-increasing in radius")


def _fit_far_decade(grid: RadialGrid, values: np.ndarray) -> float:
    """Decay slope over [r_max/20, r_max/4], away from both the core
    transition and the last half-decade (which echoes whatever closure the
    matrix assumed)."""
    sel = (grid.nodes >= grid.r_max / 20.0) & (grid.nodes <= grid.r_max / 4.0)
    return float(-np.polyfit(grid.log_nodes[sel], np.log(values[sel]), 1)[0])


class _RhsMap:
    """The right-hand side (I_alpha * F(u)) f(u) at the nodes, as a map of
    node values, for profiles u closed with one tail exponent omega.

    It binds what does not change with u: the Riesz operator for the tail
    exponent r*omega of F(u) and its constant C, the origin closure
    (g1, g2), and r_max^(r omega).  A call then runs the arithmetic of
    riesz_convolve_radial(spec.F_of(u), alpha).values * spec.f_values(u)
    in the same order, so it gives the same bits, without building the
    three RadialFunctions.  A non-finite
    F(u) or f(u) gives a non-finite result instead of a ValueError.

    Raises:
        ValueError: r*omega <= alpha (see _riesz_operator).
    """

    def __init__(self, grid: RadialGrid, params: ProblemParams, omega: float):
        self._spec = params.nonlinearity
        om_F = self._spec.r * omega
        self._C, self._op = _riesz_operator(grid, params.alpha, om_F)
        self._g1, self._g2 = _origin_closure(grid)
        # F(u)'s tail model value at r_max, A r_max^(-rw) with
        # A = F(u_M) r_max^(rw), as RadialFunction computes it
        self._up = grid.r_max ** om_F
        self._down = grid.r_max ** (-om_F)

    def __call__(self, values: np.ndarray,
                 value_at_origin: float | None = None) -> np.ndarray:
        """b at the nodes for u = values; u(0) defaults to the origin
        closure g1 u_1 + g2 u_2."""
        spec = self._spec
        if value_at_origin is None:
            value_at_origin = float(self._g1 * values[0] + self._g2 * values[1])
        fu = spec.F_values(values)
        x = np.concatenate(([float(spec.F(value_at_origin))], fu,
                            [float(fu[-1] * self._up) * self._down]))
        return self._C * self._op.apply(x) * spec.f_values(values)


def solve_ground_state(params: ProblemParams,
                       opts: SolverOpts | None = None) -> Solution:
    """Solve the doubly nonlocal equation by normalized resolvent iteration.

    Each step applies the resolvent ((-Delta)^s + mu)^{-1} to the current
    right-hand side, renormalizes the profile to unit sup norm with damping,
    and updates the amplitude from the multiplier of the normalized map.
    A step runs on node arrays: one call of the round's _RhsMap, then one
    product with the round's inverse resolvent matrix.
    Every iterate must stay strictly positive.  After the inner loop
    converges, the tail exponent assumed by the operator closure is checked
    against the achieved far field and the solve is repeated with the fitted
    exponent when they disagree by more than 15% (at most _TAIL_REFIT_ROUNDS
    times).  The first resolvent solve of each round is checked to 1e-10
    backward error, as in apply_inverse_operator.

    Raises:
        NonConvergenceError: a non-finite iterate (for instance from an f or
            F that is not finite at the iterate's values), iteration limit
            reached, diverging amplitude, or final residual above 1e-6
            relative to the sup norm.
        ZeroCollapseError: iterates' sup norm fell below 1e-12.
        RuntimeError: an iterate lost positivity, or the resolvent matrix is
            singular or fails the backward-error check (discretization
            trouble).
    """
    if opts is None:
        opts = SolverOpts()
    grid = opts.grid if opts.grid is not None else RadialGrid.log_spaced(N=params.N)
    if grid.N != params.N:
        raise ValueError(
            f"solve_ground_state: grid dimension {grid.N} != problem dimension {params.N}")
    spec = params.nonlinearity
    r = spec.r
    mu = params.mu
    deg = 2.0 * r - 1.0  # homogeneity degree of the right-hand side map

    if opts.initial_profile is not None:
        v = np.array(opts.initial_profile.values, dtype=float)
        if np.any(v <= 0.0):
            raise ValueError("solve_ground_state: initial profile must be positive")
    else:
        v = h_beta_eval(grid.nodes, params.N + 2.0 * params.s)
    a = float(np.max(v))
    v = v / a

    beta_asm = params.predicted_tail_exponent()
    trace: list[tuple[int, float, float]] = []
    total_iter = 0
    converged = False

    for round_idx in range(_TAIL_REFIT_ROUNDS + 1):
        A = fraclap_matrix(grid, params.s, tail_omega=beta_asm)
        A[np.diag_indices_from(A)] += mu
        inv = lu_factor(A)
        rhs = _RhsMap(grid, params, beta_asm)
        converged = False
        checked = False
        while total_iter < opts.max_iterations:
            total_iter += 1
            b = rhs(a * v)
            w = lu_solve(inv, b)
            if not np.all(np.isfinite(w)):
                raise NonConvergenceError(
                    f"solve_ground_state: non-finite iterate at iteration {total_iter}")
            if not checked:
                _backward_error(A, w, b)
                checked = True
            kappa_w = float(np.max(w))
            if kappa_w <= 1e-12:
                raise ZeroCollapseError(
                    f"solve_ground_state: iterate sup norm {kappa_w!r} collapsed "
                    f"at iteration {total_iter}")
            if np.any(w <= 0.0):
                raise RuntimeError(
                    f"solve_ground_state: iterate lost positivity at iteration "
                    f"{total_iter} (the resolvent of a positive right-hand side "
                    "must be positive)")
            kappa_v = kappa_w / a ** deg
            a_new = kappa_v ** (-1.0 / (deg - 1.0))
            if not math.isfinite(a_new) or a_new > 1e12:
                raise NonConvergenceError(
                    f"solve_ground_state: amplitude diverged ({a_new!r}) at "
                    f"iteration {total_iter}")
            v_raw = (1.0 - opts.damping) * v + opts.damping * (w / kappa_w)
            v_new = v_raw / np.max(v_raw)
            change = float(np.max(np.abs(v_new - v)))
            amp_change = abs(a_new - a) / a_new
            trace.append((total_iter, change, a_new))
            v, a = v_new, a_new
            if change <= opts.tolerance and amp_change <= opts.tolerance:
                converged = True
                break
        if not converged:
            raise NonConvergenceError(
                f"solve_ground_state: no convergence after {total_iter} iterations "
                f"(last profile change {trace[-1][1]:.3e})")
        # The closure exponent is provably right for every nonlinearity
        # honoring its declared envelopes, so this refit is a safety valve
        # for mis-declared general f only.  The trigger must sit well above
        # the pre-asymptotic transition error of the fit window (a few
        # percent), or it fires on healthy solves and replaces a correct
        # closure with a worse one.  Fits below N/r are not decay exponents
        # of any solution (F(u) would not be integrable) and are ignored:
        # they mean the profile has not localized yet, not that the closure
        # is wrong.
        omega_fit = min(_fit_far_decade(grid, a * v), params.N + 2.0 * params.s)
        if omega_fit <= 1.05 * params.N / r \
                or abs(omega_fit - beta_asm) <= 0.15 * beta_asm \
                or round_idx == _TAIL_REFIT_ROUNDS:
            break
        beta_asm = omega_fit

    u_fn = RadialFunction.from_samples(grid, a * v, tail_exponent=beta_asm)
    norm_r = volume_integral(u_fn, r) ** (1.0 / r)
    if spec.is_homogeneous:
        mass_F = spec.mass_scale * norm_r ** r
    else:
        mass_F = volume_integral(spec.F_of(u_fn))

    res_vals = _residual_values(u_fn, params)
    res_sup = float(np.max(np.abs(res_vals)))
    sup_u = float(np.max(u_fn.values))
    if not res_sup <= 1e-6 * sup_u:  # a NaN residual fails too
        raise NonConvergenceError(
            f"solve_ground_state: converged iteration left residual "
            f"{res_sup:.3e} > 1e-6 * sup u = {1e-6 * sup_u:.3e}")

    _, p_val, defect = _energy_identities(u_fn, params)
    return Solution(u=u_fn, params=params, residual_sup=res_sup,
                    pohozaev_defect=defect, iterations=total_iter,
                    norm_r=norm_r, mass_F=mass_F, trace=tuple(trace))


def _residual_values(u: RadialFunction, params: ProblemParams) -> np.ndarray:
    lap = frac_laplacian_on_grid(u, params.s)
    rhs = _RhsMap(u.grid, params, u.tail_exponent)
    return lap + params.mu * u.values - rhs(u.values, u.value_at_origin)


def residual(sol: Solution) -> RadialFunction:
    """Pointwise equation residual (-Delta)^s u + mu u - (I_alpha*F(u)) f(u),
    with all three terms recomputed from the grid operators."""
    u = sol.u
    return RadialFunction.from_samples(u.grid, _residual_values(u, sol.params),
                                       tail_exponent=u.tail_exponent)


def _energy_terms(u: RadialFunction,
                  params: ProblemParams) -> tuple[float, float, float]:
    """The three integrals behind the energy and scaling functionals:
    int u (-Delta)^s u, int u^2, int (I_alpha*F(u)) F(u).

    The quadratic form uses the node weights plus a quadratic origin model;
    the omitted far-tail correction of the sign-indefinite u*(-Delta)^s u
    integrand sits at least six orders below the node part for profiles
    decaying on this grid.  The Choquard integrand is a RadialFunction with
    tail exponent omega_F + N - alpha, integrated by volume_integral.
    """
    grid = u.grid
    N = params.N
    area = sphere_surface_area(N)
    g1, g2 = _origin_closure(grid)

    lap = frac_laplacian_on_grid(u, params.s)
    quad_nodes = float(np.sum(grid.weights * u.values * lap))
    lap0 = g1 * lap[0] + g2 * lap[1]
    quad_origin = _origin_ball_integral(grid, u.value_at_origin, u.values[0],
                                        lap0, lap[0])
    a_quad = area * (quad_nodes + quad_origin)

    b_sq = volume_integral(u, 2.0)

    fu = params.nonlinearity.F_of(u)
    conv = riesz_convolve_radial(fu, params.alpha)
    c_choq = volume_integral(RadialFunction.from_samples(
        grid, conv.values * fu.values,
        value_at_origin=conv.value_at_origin * fu.value_at_origin,
        tail_exponent=fu.tail_exponent + N - params.alpha))
    return a_quad, b_sq, c_choq


def _origin_ball_integral(grid: RadialGrid, v0: float, v1: float,
                          w0: float, w1: float) -> float:
    """int_0^{r_1} m_v(rho) m_w(rho) rho^{N-1} drho with quadratic models
    m(rho) = m(0) + (m(r_1) - m(0)) (rho/r_1)^2."""
    r1 = grid.nodes[0]
    N = grid.N
    x, wts = _gauss(8)
    rho = 0.5 * r1 * (x + 1.0)
    wq = 0.5 * r1 * wts
    q = (rho / r1) ** 2
    mv = v0 + (v1 - v0) * q
    mw = w0 + (w1 - w0) * q
    return float(np.sum(wq * mv * mw * rho ** (N - 1)))


def _energy_identities(u: RadialFunction,
                       params: ProblemParams) -> tuple[float, float, float]:
    """(I_val, P_val, relative_defect) from the three base integrals."""
    a_quad, b_sq, c_choq = _energy_terms(u, params)
    N, s, mu = params.N, params.s, params.mu
    i_val = 0.5 * a_quad + 0.5 * mu * b_sq - 0.5 * c_choq
    t1 = 0.5 * (N - 2.0 * s) * a_quad
    t2 = 0.5 * N * mu * b_sq
    t3 = 0.5 * (N + params.alpha) * c_choq
    p_val = t1 + t2 - t3
    scale = abs(t1) + abs(t2) + abs(t3)
    defect = abs(p_val) / scale
    return i_val, p_val, defect


def pohozaev_check(sol: Solution) -> tuple[float, float, float]:
    """Energy functional, scaling functional, and the relative defect.

    I(u) = 1/2 int u(-Delta)^s u + mu/2 int u^2 - 1/2 int (I_alpha*F(u))F(u)
    and P(u) weights the same three integrals by (N-2s)/2, N/2, (N+alpha)/2;
    P vanishes on true solutions, so |P| over the sum of its three term
    magnitudes measures discretization error.
    """
    return _energy_identities(sol.u, sol.params)


def _dilated_profile(u: RadialFunction, t: float) -> RadialFunction:
    """u(x/t) resampled on u's own grid through a cubic spline in log-log."""
    grid = u.grid
    spl = _CubicSpline(grid.log_nodes, np.log(u.values))
    shifted = grid.log_nodes - math.log(t)
    vals = np.empty(grid.size)
    inside = (shifted >= grid.log_nodes[0]) & (shifted <= grid.log_nodes[-1])
    vals[inside] = np.exp(spl(shifted[inside]))
    lo = shifted < grid.log_nodes[0]
    if lo.any():
        x = np.exp(shifted[lo]) / grid.nodes[0]
        vals[lo] = u.value_at_origin + (u.values[0] - u.value_at_origin) * x * x
    hi = shifted > grid.log_nodes[-1]
    if hi.any():
        amp, om = u.tail
        vals[hi] = amp * np.exp(-om * shifted[hi])
    amp, om = u.tail
    return RadialFunction(grid=grid, values=vals,
                          tail=(amp * t ** om, om),
                          value_at_origin=u.value_at_origin)


def dilation_derivative(sol: Solution) -> float:
    """Central difference of t -> I(u(./t)) at t = 1, with step 0.01.

    This is the defining property of the scaling functional: the derivative
    equals P(u).  The dilated profiles are resampled on the original grid
    and pushed through the same energy quadratures as pohozaev_check, so the
    agreement of this number with P_val is a two-route consistency check,
    not an algebraic identity.
    """
    step = 0.01
    params = sol.params
    i_plus, _, _ = _energy_identities(_dilated_profile(sol.u, 1.0 + step), params)
    i_minus, _, _ = _energy_identities(_dilated_profile(sol.u, 1.0 - step), params)
    return (i_plus - i_minus) / (2.0 * step)
