"""Decay diagnostics for computed radial profiles.

The solutions of the doubly nonlocal equation decay polynomially with
exponent beta = min{(N-alpha)/(2-r), N+2s}: below the threshold
r* = (N+alpha+4s)/(N+2s) the convolution term dictates the rate (and the
limit constant is explicit), above it the fractional Laplacian does.  This
module predicts (beta, regime, constants) from the problem parameters, fits
measured tails, evaluates the upper/lower bound constants with their
kappa-rescaling, and checks the two pointwise inequalities the decay
argument rests on: the concave chain rule for (-Delta)^s and the Riesz-tail
bound for I_alpha * F(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# frac_laplacian_radial, riesz_convolve_radial and volume_integral are not
# called here: the benchmark's tracer (perfbench/tracing.py) wraps them under
# this module's name, and reports a missing one and the metric it feeds.
from fracradial.radial_ops import (
    RadialFunction,
    frac_laplacian_on_grid,
    frac_laplacian_radial,  # noqa: F401
    riesz_convolve_radial,  # noqa: F401
    volume_integral,  # noqa: F401
)
from fracradial.specfun import riesz_constant

__all__ = [
    "DecayPrediction",
    "DecayFit",
    "BoundConstants",
    "ChainRuleReport",
    "RieszTailReport",
    "predict_decay",
    "check_fit_window",
    "fit_tail",
    "sharp_constant",
    "bound_constants",
    "verify_chain_rule",
    "verify_riesz_tail",
]

# Matching two floats that are analytically equal but arrive through
# different arithmetic (e.g. r placed exactly at the regime threshold).
_SNAP = 1e-12

# Relative slack of the chain-rule inequality: the margin lhs - rhs may fall
# below zero by this fraction of |lhs| + |rhs| (quadrature round-off).
_CHAIN_RULE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class DecayPrediction:
    """Predicted tail behaviour for one parameter set.

    beta is min{(N-alpha)/(2-r), N+2s}; regime records which branch of the
    min is active ("boundary" when both coincide).
    """

    beta: float
    regime: str
    r_star: float

    def __post_init__(self):
        if self.regime not in ("choquard_dominated", "laplacian_dominated", "boundary"):
            raise ValueError(f"DecayPrediction: unknown regime {self.regime!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError("DecayPrediction: beta must be positive and finite")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power fit of a measured tail on a radius window."""

    window: tuple[float, float]
    fitted_exponent: float
    fitted_amplitude: float
    rms_log_residual: float
    log_corrected: bool = False


@dataclass(frozen=True)
class BoundConstants:
    """Upper/lower tail-bound constants for one solution.

    C_upper is the kappa-adjusted upper-bound constant, C_lower the
    kappa-invariant lower-bound constant.  kappa is the rescaling the
    upper bound was evaluated with; kappa_star is the equalizing value
    C_{u,kappa*} = C_lower, available only when the two envelope constants
    coincide.
    """

    C_upper: float
    C_lower: float
    kappa: float
    kappa_star: float | None


@dataclass(frozen=True)
class ChainRuleReport:
    """Check of (-Delta)^s u^theta >= theta u^(theta-1) (-Delta)^s u at the
    grid nodes `radii`."""

    theta: float
    radii: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    scale: np.ndarray
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class RieszTailReport:
    """Tail comparison of I_alpha * F(u) against its point-mass limit."""

    theta: float
    window: tuple[float, float]
    radii: np.ndarray
    deviation: np.ndarray
    sup_deviation: float
    normalized_ratio: np.ndarray
    mass: float


def predict_decay(params) -> DecayPrediction:
    """Predicted decay exponent and regime.

    The exponent is params.predicted_tail_exponent(), the one the solver
    closes its tails with; this adds r* and the regime.  ProblemParams
    admits only the sublinear r in [(N+alpha)/N, 2), so every problem has one.

    Args:
        params: problem parameters (ProblemParams).
    """
    N, s, alpha = params.N, params.s, params.alpha
    r = params.nonlinearity.r
    r_star = (N + alpha + 4.0 * s) / (N + 2.0 * s)
    beta = params.predicted_tail_exponent()
    if abs(r - r_star) <= _SNAP * r_star:
        regime = "boundary"
    elif r < r_star:
        regime = "choquard_dominated"
    else:
        regime = "laplacian_dominated"
    return DecayPrediction(beta=beta, regime=regime, r_star=r_star)


def check_fit_window(window: tuple[float, float],
                     nodes: np.ndarray) -> tuple[float, float]:
    """The fit window (lo, hi) as floats, checked against the grid nodes:
    0 < lo < hi, hi at most r_max/10 (where the quadrature tail models have
    no influence), and at least 20 nodes inside the window.

    Raises:
        ValueError: malformed window, its top beyond r_max/10, or too few
            nodes inside it.
    """
    lo, hi = float(window[0]), float(window[1])
    r_max = float(nodes[-1])
    if not (0.0 < lo < hi):
        raise ValueError(f"malformed window ({lo!r}, {hi!r}), need 0 < lo < hi")
    if hi > r_max / 10.0 * (1.0 + 1e-12):
        raise ValueError(
            f"window top {hi!r} beyond the trusted range r_max/10 "
            f"= {r_max / 10.0!r}")
    count = int(np.count_nonzero((nodes >= lo) & (nodes <= hi)))
    if count < 20:
        raise ValueError(f"window contains {count} nodes, need at least 20")
    return lo, hi


def fit_tail(u: RadialFunction, window: tuple[float, float]) -> DecayFit:
    """Fit log u(r) = log A - omega log r over a radius window.

    The log-corrected model A log(r) r^{-omega} is fitted too when the window
    lies inside (1, inf), and whichever of the two has the smaller rms
    residual is returned.  The window must stay inside the trusted part of
    the grid (upper end at most r_max/10, where the quadrature tail models
    have no influence) and contain at least 20 nodes with positive samples.

    Args:
        u: the profile to fit.
        window: (lo, hi) radius interval.

    Raises:
        ValueError: malformed window, too few nodes, or non-positive values.
    """
    grid = u.grid
    lo, hi = check_fit_window(window, grid.nodes)
    sel = (grid.nodes >= lo) & (grid.nodes <= hi)
    vals = u.values[sel]
    if np.any(vals <= 0.0):
        raise ValueError("fit_tail: non-positive samples in the fit window")
    t = np.log(grid.nodes[sel])
    y = np.log(vals)

    def lsq(target):
        coef, res = np.polyfit(t, target, 1, full=True)[:2]
        rms = math.sqrt(float(res[0]) / t.size) if res.size else 0.0
        return float(-coef[0]), float(math.exp(coef[1])), rms

    om_p, amp_p, rms_p = lsq(y)
    # log(r) must stay positive on the window for A log(r) r^{-omega}
    if t[0] > 0.0:
        om_l, amp_l, rms_l = lsq(y - np.log(t))
        if rms_l < rms_p:
            return DecayFit(window=(lo, hi), fitted_exponent=om_l,
                            fitted_amplitude=amp_l, rms_log_residual=rms_l,
                            log_corrected=True)
    return DecayFit(window=(lo, hi), fitted_exponent=om_p,
                    fitted_amplitude=amp_p, rms_log_residual=rms_p)


def sharp_constant(sol) -> float:
    """Predicted limit of u(r) r^beta in the convolution-dominated regime,

        (C_{N,alpha} L int F(u) / mu)^{1/(2-r)},  L = lim f(t)/t^{r-1}.

    This formula gives the limit only below the threshold r*.  Above r* the
    fractional Laplacian sets the decay, and at r* it adds to the constant.

    Raises:
        ValueError: r >= r*.
    """
    params = sol.params
    pred = predict_decay(params)
    r = params.nonlinearity.r
    if pred.regime != "choquard_dominated":
        raise ValueError(
            f"sharp_constant: r = {r!r} is not below the threshold r* = {pred.r_star!r}; "
            "this formula gives the limit constant only below r*, above it the "
            "fractional Laplacian sets the decay")
    C = riesz_constant(params.N, params.alpha)
    slope = params.nonlinearity.limit_slope()
    return (C * slope * sol.mass_F / params.mu) ** (1.0 / (2.0 - r))


def bound_constants(sol, kappa: float | None = None) -> BoundConstants:
    """Upper and lower tail-bound constants with kappa rescaling.

    The comparison argument gives an upper constant

        C_{u,kappa} = (2-r) (C_{N,alpha} kappa int F(u))^{1/(2-r)}
                      / (mu - (r-1) (C_bar/kappa)^{1/(r-1)})

    valid whenever the denominator is positive, and a lower constant

        C'_u = ((C_under/kappa) C_{N,alpha} (kappa int F(u)) / mu)^{1/(2-r)}

    that does not depend on kappa at all: the kappa factors cancel
    algebraically, and they are cancelled here too, so the reported lower
    constant is bitwise identical for every admissible kappa.  When the two
    envelope constants coincide there is a unique kappa* equalizing the two
    bounds, kappa* = C_bar mu^{1-r}, and it is used as the default rescaling.

    Args:
        sol: converged solution (params and its derived mass_F are read).
        kappa: optional rescaling; must keep the denominator positive.

    Raises:
        ValueError: no kappa given, distinct envelopes, and the raw
            denominator hypothesis mu > (r-1) C_bar^{1/(r-1)} fails; or a
            supplied kappa is not positive and finite or makes the
            denominator nonpositive.
    """
    params = sol.params
    spec = params.nonlinearity
    mu, r = params.mu, spec.r
    C = riesz_constant(params.N, params.alpha)
    mass = float(sol.mass_F)
    c_bar, c_under = float(spec.C_bar), float(spec.C_under)

    k_star = c_bar * mu ** (1.0 - r) if c_bar == c_under else None
    if kappa is None:
        kappa = k_star if k_star is not None else 1.0
    kappa = float(kappa)
    if not (0.0 < kappa < math.inf):
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    denom = mu - (r - 1.0) * (c_bar / kappa) ** (1.0 / (r - 1.0))
    if denom <= 0.0:
        raise ValueError(
            f"hypothesis mu > (r-1) (C_bar/kappa)^(1/(r-1)) fails "
            f"(mu = {mu!r}, kappa = {kappa!r}); a larger kappa is needed")
    c_upper = (2.0 - r) * (C * kappa * mass) ** (1.0 / (2.0 - r)) / denom
    # (C_under/kappa) * (kappa * mass) written with kappa cancelled, so the
    # float result cannot pick up a kappa-dependent rounding error.
    c_lower = (c_under * C * mass / mu) ** (1.0 / (2.0 - r))
    return BoundConstants(C_upper=c_upper, C_lower=c_lower, kappa=kappa,
                          kappa_star=k_star)


def verify_chain_rule(u: RadialFunction, thetas, s: float) -> list[ChainRuleReport]:
    """Check the concave chain rule for the fractional Laplacian at every
    grid node, for each exponent of the sequence thetas; one report per
    exponent comes back, in order.

    For 0 < theta < 1 the power t -> t^theta is concave on (0, inf), so
    (-Delta)^s u^theta >= theta u^{theta-1} (-Delta)^s u holds wherever u is
    positive.  Both sides come from the assembled operator at the nodes
    (frac_laplacian_on_grid of u and of u^theta), and the margin lhs - rhs
    is compared against -1e-6 * scale with scale = |lhs| + |rhs| + machine
    floor.
    """
    for th in thetas:
        if not (0.0 < th < 1.0):
            raise ValueError(f"chain-rule theta {th!r} lies outside (0, 1)")
    if np.any(u.values <= 0.0):
        raise ValueError("verify_chain_rule: u must be strictly positive")
    lap_u = frac_laplacian_on_grid(u, s)
    reports = []
    for th in thetas:
        lhs = frac_laplacian_on_grid(RadialFunction(
            grid=u.grid, values=u.values ** th,
            tail_exponent=u.tail_exponent * th), s)
        rhs = th * u.values ** (th - 1.0) * lap_u
        scale = np.abs(lhs) + np.abs(rhs) + np.finfo(float).tiny
        margin = lhs - rhs
        passed = bool(np.all(margin >= -_CHAIN_RULE_TOLERANCE * scale))
        reports.append(ChainRuleReport(theta=th, radii=u.grid.nodes, lhs=lhs,
                                       rhs=rhs, margin=margin, scale=scale,
                                       tolerance=_CHAIN_RULE_TOLERANCE,
                                       passed=passed))
    return reports


def verify_riesz_tail(sol, theta: float) -> RieszTailReport:
    """Compare I_alpha * F(u) against its point-mass limit on the tail.

    The convolution of a decaying density approaches (mass) * C_{N,alpha}
    r^{alpha-N}; the deviation, normalized by the theoretical envelope
    C_{N,alpha} r^{alpha-N} (1/(1+r) + 1/(1+r^{theta-N})), must stay bounded
    on the tail window [r_max/50, r_max/10].  I_alpha * F(u) is the one of
    the solution's evaluation, which its residual and Pohozaev check read,
    and the mass int F(u) is its mass_F.

    Args:
        sol: a converged Solution.
        theta: envelope exponent in (N, N+alpha].
    """
    params = sol.params
    N, alpha = params.N, params.alpha
    if not (N < theta <= N + alpha):
        raise ValueError(f"theta {theta!r} lies outside (N, N+alpha] "
                         f"= ({N}, {N + alpha!r}]")
    grid = sol.u.grid
    lo, hi = grid.r_max / 50.0, grid.r_max / 10.0
    conv = sol.evaluation[2]
    mass = sol.mass_F
    C = riesz_constant(N, alpha)
    sel = (grid.nodes >= lo) & (grid.nodes <= hi)
    radii = grid.nodes[sel]
    i_alpha = C * radii ** (alpha - N)
    envelope = i_alpha * (1.0 / (1.0 + radii) + 1.0 / (1.0 + radii ** (theta - N)))
    deviation = np.abs(conv.values[sel] - i_alpha * mass) / envelope
    normalized = conv.values[sel] * radii ** (N - alpha) / (C * mass)
    return RieszTailReport(theta=theta, window=(lo, hi), radii=radii,
                           deviation=deviation,
                           sup_deviation=float(np.max(deviation)),
                           normalized_ratio=normalized, mass=mass)
