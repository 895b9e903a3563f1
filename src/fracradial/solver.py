"""Fixed-point solver for the doubly nonlocal equation.

Computes positive radial profiles solving

    (-Delta)^s u + mu u = (I_alpha * F(u)) f(u)   on R^N

by damped resolvent iteration.  The right-hand side map is homogeneous of
degree 2r-1 > 1 (exactly so for power nonlinearities, asymptotically via
the envelopes otherwise), which makes the plain Picard map unstable along
the amplitude direction; the iteration therefore runs on sup-normalized
profiles and recovers the amplitude from the fixed point's multiplier,
A = kappa^{-1/(2r-2)}.  The operator matrix closes the far field with the
predicted decay exponent min{(N-alpha)/(2-r), N+2s}, which holds for every
nonlinearity inside its declared envelope (NonlinearitySpec checks it).

A Solution derives its diagnostics from its profile and problem through the
same discrete operators, so a reloaded profile reports the solve's numbers.
pohozaev_check gives the functional I, P and the relative defect of the
scaling identity P(u) = 0, and dilation_derivative the derivative of
t -> I(u(./t)) at t = 1, which must reproduce P.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
    _backward_error,
    _riesz_operator,
    frac_laplacian_on_grid,
    fraclap_matrix,
    lu_factor,
    lu_solve,
    riesz_convolve_radial,
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


# Weight of the new normalized iterate in each damped step.
_DAMPING = 0.5

# Iterations between float64 resolvent solves; the steps in between apply
# a float32 copy of the inverse to the change in the right-hand side.
_ANCHOR_EVERY = 16


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

    A homogeneous spec is an exact power pair, named by its convention: the
    default "sqrt_r" uses f(t) = sqrt(r) t^{r-1}, F(t) = t^r / sqrt(r), for
    which (I_alpha*F(u)) f(u) = (I_alpha*u^r) u^{r-1}; the alternative
    "power" uses F(t) = t^r, f(t) = r t^{r-1} (same product times r).  The
    two solve equations differing by a constant absorbable into
    mu-rescaling.

    A general spec, with convention None, carries arbitrary callables plus
    the finite envelope constants C_under t^{r-1} <= f(t) <= C_bar t^{r-1}
    declared to hold for 0 <= t <= delta.  The solver never differentiates
    f; F must be its antiderivative and f must lie inside the envelopes
    (both validated numerically on a lattice in (0, min(delta,1)]).
    """

    r: float
    f: Callable[[float], float]
    F: Callable[[float], float]
    C_bar: float
    C_under: float
    delta: float
    convention: str | None = None

    def __post_init__(self):
        if self.convention not in (None, "sqrt_r", "power"):
            raise ValueError(
                f"NonlinearitySpec: unknown convention {self.convention!r}")
        if not (self.r > 1.0 and math.isfinite(self.r)):
            raise ValueError(f"NonlinearitySpec: r must exceed 1, got {self.r!r}")
        if not (0.0 < self.C_under <= self.C_bar < math.inf):
            raise ValueError(
                f"NonlinearitySpec: need 0 < C_under <= C_bar < inf, got "
                f"C_under = {self.C_under!r}, C_bar = {self.C_bar!r}")
        if not (self.delta > 0.0):
            raise ValueError(f"NonlinearitySpec: delta must be positive, got {self.delta!r}")
        if not abs(float(self.F(0.0))) <= 1e-12:  # NaN fails too
            raise ValueError("NonlinearitySpec: F(0) must vanish")
        self._check_antiderivative()

    def _check_antiderivative(self):
        scale = min(self.delta, 1.0)
        lattice = np.geomspace(0.05, 1.0, 12) * scale
        for t in lattice:
            h = 1e-4 * t
            fd = (float(self.F(t + h)) - float(self.F(t - h))) / (2.0 * h)
            ft = float(self.f(t))
            # written so that a NaN on either side fails
            if not abs(fd - ft) <= 1e-8 * max(1.0, abs(ft)):
                raise ValueError(
                    f"NonlinearitySpec: F is not the antiderivative of f at "
                    f"t = {t!r} (finite difference {fd!r} vs f {ft!r})")
            # the closure exponent the solver uses is proved for f inside
            # these envelopes; the slack absorbs rounding of t^(r-1)
            lo = self.C_under * t ** (self.r - 1.0)
            hi = self.C_bar * t ** (self.r - 1.0)
            if not (lo * (1.0 - 1e-12) <= ft <= hi * (1.0 + 1e-12)):
                raise ValueError(
                    f"NonlinearitySpec: f leaves its declared envelope at "
                    f"t = {t!r}: f(t) = {ft!r}, C_under t^(r-1) = {lo!r}, "
                    f"C_bar t^(r-1) = {hi!r}")

    @classmethod
    def homogeneous(cls, r: float, convention: str = "sqrt_r") -> "NonlinearitySpec":
        """The power pair of exponent r in convention "sqrt_r" or "power";
        None, which names a general spec, is refused."""
        if convention not in ("sqrt_r", "power"):
            raise ValueError(
                "NonlinearitySpec.homogeneous: convention must be 'sqrt_r' or "
                f"'power', got {convention!r}")
        slope = math.sqrt(r) if convention == "sqrt_r" else float(r)
        f = lambda t: slope * np.power(t, r - 1.0)          # noqa: E731
        F = lambda t: (slope / r) * np.power(t, r)          # noqa: E731
        return cls(r=r, f=f, F=F, C_bar=slope,
                   C_under=slope, delta=math.inf, convention=convention)

    @classmethod
    def general(cls, f: Callable[[float], float], F: Callable[[float], float],
                r: float, C_bar: float, C_under: float,
                delta: float) -> "NonlinearitySpec":
        return cls(r=r, f=f, F=F, C_bar=C_bar, C_under=C_under, delta=delta)

    @property
    def is_homogeneous(self) -> bool:
        return self.convention is not None

    def limit_slope(self) -> float:
        """lim f(t)/t^{r-1} as t -> 0+: C_bar for a homogeneous spec,
        numerically for a general one."""
        if self.is_homogeneous:
            return self.C_bar
        t0 = 1e-6 * min(self.delta, 1.0)
        return float(self.f(t0)) / t0 ** (self.r - 1.0)

    def f_values(self, x: np.ndarray) -> np.ndarray:
        return _call_on_array(self.f, np.asarray(x, dtype=float))

    def F_values(self, x: np.ndarray) -> np.ndarray:
        return _call_on_array(self.F, np.asarray(x, dtype=float))

    def F_of(self, u: RadialFunction) -> RadialFunction:
        """F(u) as a RadialFunction, with the envelope tail model r*omega."""
        return RadialFunction(grid=u.grid, values=self.F_values(u.values),
                              tail_exponent=self.r * u.tail_exponent)


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of the doubly nonlocal problem on R^N, with 0 < s < 1,
    0 < alpha < N and 0 < mu < inf.  The exponent r lies in the sublinear
    range [(N+alpha)/N, 2) of the paper's decay law.
    A homogeneous r also lies above the lower endpoint (N+alpha)/N, where
    the Pohozaev and Nehari identities together leave no solution, and at
    most at the critical (N+alpha)/(N-2s); a general f keeps the endpoint."""

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
        if not (0.0 < self.mu < math.inf):
            raise ValueError(
                f"ProblemParams: mu must be positive and finite, got {self.mu!r}")
        r = self.nonlinearity.r
        lo = (self.N + self.alpha) / self.N
        if not (lo - 1e-12 <= r < 2.0):
            raise ValueError(
                f"ProblemParams: exponent r = {r!r} outside the sublinear "
                f"range [{lo}, 2)")
        if self.nonlinearity.is_homogeneous and r <= lo + 1e-12:
            raise ValueError(
                f"ProblemParams: homogeneous exponent r = {r!r} at the lower "
                f"endpoint (N+alpha)/N = {lo}, where the Pohozaev-Nehari "
                "identity leaves no solution")
        hi = (self.N + self.alpha) / (self.N - 2.0 * self.s)
        if self.nonlinearity.is_homogeneous and r > hi + 1e-12:
            raise ValueError(
                f"ProblemParams: homogeneous exponent r = {r!r} above the "
                f"critical exponent (N+alpha)/(N-2s) = {hi}")

    def predicted_tail_exponent(self) -> float:
        """Decay exponent min{(N-alpha)/(2-r), N+2s}, used for tail closures
        and defined for every admitted r < 2."""
        r = self.nonlinearity.r
        return min((self.N - self.alpha) / (2.0 - r), self.N + 2.0 * self.s)


@dataclass(frozen=True)
class SolverOpts:
    """Knobs of the fixed-point iteration: the grid (None for the default
    log-spaced one), the step limit and the stopping tolerance
    0 < tolerance < inf on the profile and amplitude changes."""

    grid: RadialGrid | None = None
    max_iterations: int = 5000
    tolerance: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError(f"SolverOpts: tolerance must be positive and "
                             f"finite, got {self.tolerance!r}")
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(
                f"SolverOpts: max_iterations must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("SolverOpts: max_iterations must be >= 1")
        object.__setattr__(self, "max_iterations", int(n))


@dataclass(frozen=True)
class Solution:
    """A converged profile of a problem, with the steps that reached it:
    trace holds one (iteration, profile_change, amplitude) triple per
    iteration.  The diagnostics residual_sup (sup |residual| at the nodes),
    pohozaev_defect, norm_r (||u||_r) and mass_F (int F(u)) are computed from
    (u, params) on first read and kept.  So is `evaluation`, the tuple
    ((-Delta)^s u at the nodes, F(u), I_alpha * F(u)) of _evaluate, which
    serves the first two and the Riesz-tail check; mass_F needs none of it.
    """

    u: RadialFunction
    params: ProblemParams
    iterations: int
    trace: tuple = field(default=(), repr=False)

    def __post_init__(self):
        vals = self.u.values
        if np.any(vals <= 0.0):
            raise ValueError("Solution: profile must be strictly positive")
        if np.any(np.diff(vals) > 1e-9 * float(np.max(vals))):
            raise ValueError("Solution: profile must be non-increasing in radius")

    @functools.cached_property
    def evaluation(self) -> tuple:
        return _evaluate(self.u, self.params)

    @functools.cached_property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(residual(self).values)))

    @functools.cached_property
    def pohozaev_defect(self) -> float:
        return pohozaev_check(self)[2]

    @functools.cached_property
    def norm_r(self) -> float:
        r = self.params.nonlinearity.r
        return volume_integral(self.u, r) ** (1.0 / r)

    @functools.cached_property
    def mass_F(self) -> float:
        return volume_integral(self.params.nonlinearity.F_of(self.u))


def solve_ground_state(params: ProblemParams,
                       opts: SolverOpts | None = None) -> Solution:
    """Solve the doubly nonlocal equation by normalized resolvent iteration.

    Starting from h_{N+2s}, each step applies the resolvent
    ((-Delta)^s + mu)^{-1} to the current right-hand side, renormalizes the
    profile to unit sup norm with damping _DAMPING, and updates the
    amplitude from the multiplier of the normalized map.
    The operator matrix and the Riesz operator of F(u) are closed once,
    with the tail exponent params.predicted_tail_exponent().  A step runs
    on node arrays: one apply of that memoised operator and one product
    with f(u), then one lu_solve.  Iteration 1
    and every _ANCHOR_EVERY-th after it solve in float64 and keep
    (b0, w0) as the anchor; the steps in between take
    w = w0 + sigma * inv32 @ ((b - b0) / sigma), with a float32 copy inv32
    of the inverse and sigma = max|b - b0|, as in mixed-precision
    iterative refinement.  The float32 product errs by about 6e-8 of
    max|b - b0|, which the contracting Picard map damps and the next
    anchor resets, so a solve stops on the same iteration as in float64.
    Every iterate must stay strictly positive.  The first (anchor)
    resolvent solve is checked to 1e-10 backward error, its product with
    the matrix taken through the memoised operator
    (frac_laplacian_on_grid plus mu), as lu_factor overwrites the matrix
    with its inverse.

    Raises:
        NonConvergenceError: a non-finite iterate (for instance from an f or
            F that is not finite at the iterate's values), iteration limit
            reached, diverging amplitude, or final residual above 1e-6
            relative to the sup norm.
        ZeroCollapseError: an iterate's largest entry fell to [0, 1e-12].
        RuntimeError: an iterate lost positivity (an entry <= 0, all of
            them when none is positive), or the resolvent matrix is
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
    deg = 2.0 * spec.r - 1.0  # homogeneity degree of the right-hand side map

    v = h_beta_eval(grid.nodes, params.N + 2.0 * params.s)
    a = float(np.max(v))
    v = v / a

    beta = params.predicted_tail_exponent()
    A = fraclap_matrix(grid, params.s, tail_omega=beta)
    A[np.diag_indices_from(A)] += params.mu
    a_max = max(float(A.max()), -float(A.min()))  # max|A| without an M x M copy
    inv = lu_factor(A)  # A now holds the inverse
    inv32 = inv.astype(np.float32)
    riesz = _riesz_operator(grid, params.alpha, spec.r * beta)
    trace: list[tuple[int, float, float]] = []
    for it in range(1, opts.max_iterations + 1):
        # (I_alpha * F(u)) f(u) at the nodes; a NaN from f or F reaches w
        u = a * v
        b = riesz.apply(spec.F_values(u)) * spec.f_values(u)
        if (it - 1) % _ANCHOR_EVERY == 0:
            w = w0 = lu_solve(inv, b)
            b0 = b
        else:
            # the change in b, scaled to unit sup norm so that float32 can
            # neither overflow nor underflow; a NaN or inf passes through
            d = b - b0
            sigma = float(np.abs(d).max()) or 1.0
            # float64 before the product, as a float times float32 is float32
            w = w0 + sigma * lu_solve(
                inv32, (d / sigma).astype(np.float32)).astype(np.float64)
        lo, kappa_w = float(w.min()), float(w.max())  # a NaN reaches both
        if not (math.isfinite(lo) and math.isfinite(kappa_w)):
            raise NonConvergenceError(
                f"solve_ground_state: non-finite iterate at iteration {it}")
        if it == 1:
            Aw = frac_laplacian_on_grid(
                RadialFunction(grid=grid, values=w, tail_exponent=beta),
                params.s) + params.mu * w
            _backward_error(Aw, a_max, w, b)
        if 0.0 <= kappa_w <= 1e-12:
            raise ZeroCollapseError(
                f"solve_ground_state: iterate sup norm {kappa_w!r} collapsed "
                f"at iteration {it}")
        if lo <= 0.0:
            raise RuntimeError(
                f"solve_ground_state: iterate lost positivity at iteration "
                f"{it} (the resolvent of a positive right-hand side "
                "must be positive)")
        kappa_v = kappa_w / a ** deg
        a_new = kappa_v ** (-1.0 / (deg - 1.0))
        if not math.isfinite(a_new) or a_new > 1e12:
            raise NonConvergenceError(
                f"solve_ground_state: amplitude diverged ({a_new!r}) at "
                f"iteration {it}")
        v_new = v * (1.0 - _DAMPING) + _DAMPING * (w / kappa_w)
        v_new /= v_new.max()
        change = float(np.abs(v_new - v).max())
        amp_change = abs(a_new - a) / a_new
        trace.append((it, change, a_new))
        v, a = v_new, a_new
        if change <= opts.tolerance and amp_change <= opts.tolerance:
            break
    else:
        raise NonConvergenceError(
            f"solve_ground_state: no convergence after {opts.max_iterations} "
            f"iterations (last profile change {trace[-1][1]:.3e})")

    sol = Solution(u=RadialFunction(grid=grid, values=a * v, tail_exponent=beta),
                   params=params, iterations=len(trace), trace=tuple(trace))
    failure = _residual_gate(sol)
    if failure:
        raise NonConvergenceError(
            f"solve_ground_state: converged iteration left {failure}")
    # evaluated here, so that the time of a solve includes its diagnostics
    sol.pohozaev_defect, sol.norm_r, sol.mass_F
    return sol


def _residual_gate(sol: Solution) -> str | None:
    """Why sol fails the gate of a solution, a residual within 1e-6 of
    sup u (a NaN residual fails too), or None if it passes."""
    sup_u = float(np.max(sol.u.values))
    if sol.residual_sup <= 1e-6 * sup_u:
        return None
    return f"residual {sol.residual_sup:.3e} > 1e-6 * sup u = {1e-6 * sup_u:.3e}"


def _evaluate(u: RadialFunction, params: ProblemParams) -> tuple:
    """(-Delta)^s u at the nodes, F(u) and I_alpha * F(u): the evaluations
    of u that the residual and the energy identities share."""
    fu = params.nonlinearity.F_of(u)
    return frac_laplacian_on_grid(u, params.s), fu, riesz_convolve_radial(fu, params.alpha)


def residual(sol: Solution) -> RadialFunction:
    """Pointwise equation residual (-Delta)^s u + mu u - (I_alpha*F(u)) f(u),
    with all three terms from the grid operators (sol's one evaluation)."""
    u, params = sol.u, sol.params
    lap, _, conv = sol.evaluation
    # conv.values * f(u) is bitwise the loop's product: both apply the one
    # memoised Riesz operator, its constant included
    values = lap + params.mu * u.values - conv.values * params.nonlinearity.f_values(u.values)
    return RadialFunction(grid=u.grid, values=values, tail_exponent=u.tail_exponent)


def _energy_identities(u: RadialFunction, params: ProblemParams, lap: np.ndarray,
                       fu: RadialFunction,
                       conv: RadialFunction) -> tuple[float, float, float]:
    """(I_val, P_val, relative_defect) from the evaluations of _evaluate,
    through the three integrals int u (-Delta)^s u, int u^2 and
    int (I_alpha*F(u)) F(u).

    Each is a volume_integral.  The quadratic form's integrand u (-Delta)^s u
    closes with tail exponent omega + min(omega, N) + 2s, since
    (-Delta)^s u decays by riesz_convolve_radial's image rule
    min(omega, N) - a at order a = -2s; the Choquard integrand closes
    with omega_F + N - alpha.
    """
    grid = u.grid
    N, s, mu = params.N, params.s, params.mu
    om = u.tail_exponent
    a_quad = volume_integral(RadialFunction(
        grid=grid, values=u.values * lap, tail_exponent=om + min(om, N) + 2.0 * s))

    b_sq = volume_integral(u, 2.0)

    c_choq = volume_integral(RadialFunction(
        grid=grid, values=conv.values * fu.values,
        tail_exponent=fu.tail_exponent + N - params.alpha))

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
    return _energy_identities(sol.u, sol.params, *sol.evaluation)


def dilation_derivative(sol: Solution) -> float:
    """Richardson extrapolation, (4 D(0.005) - D(0.01)) / 3, of the central
    difference D(h) of t -> I(u(./t)) at t = 1.

    This is the defining property of the scaling functional: the derivative
    equals P(u).  The dilated profiles are resampled on the original grid
    by `RadialFunction.evaluate` (the operators' cubic-in-log stencil
    between nodes, the origin model and the power tail outside them) and
    pushed through the same energy quadratures as pohozaev_check, so the
    agreement of this number with P_val is a two-route consistency check,
    not an algebraic identity.  The extrapolation cancels D's h^2 error,
    which at h = 0.01 alone is about 1e-4 of the identity's term scale.
    """
    params, u0 = sol.params, sol.u

    def energy(t: float) -> float:
        u = RadialFunction(grid=u0.grid, values=u0.evaluate(u0.grid.nodes / t),
                           tail_exponent=u0.tail_exponent)
        return _energy_identities(u, params, *_evaluate(u, params))[0]

    def central(step: float) -> float:
        return (energy(1.0 + step) - energy(1.0 - step)) / (2.0 * step)

    return (4.0 * central(0.005) - central(0.01)) / 3.0
