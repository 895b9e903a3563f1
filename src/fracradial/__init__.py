"""Radial solver and decay analysis for doubly nonlocal equations.

The package computes positive radial profiles of
(-Delta)^s u + mu u = (I_alpha * F(u)) f(u) on R^N and quantifies their
polynomial decay: closed-form fractional Laplacians of the benchmark
profiles (1 + r^2)^(-beta/2), grid operators for the fractional Laplacian
and the Riesz potential of radial functions, a normalized fixed-point
solver, and the decay-rate predictions, tail fits, and inequality checks.
"""

from fracradial.decay_analysis import (
    BoundConstants,
    ChainRuleReport,
    DecayFit,
    DecayPrediction,
    RieszTailReport,
    bound_constants,
    check_analysis,
    check_fit_window,
    fit_tail,
    predict_decay,
    sharp_constant,
    verify_chain_rule,
    verify_riesz_tail,
)
from fracradial.radial_ops import (
    RadialFunction,
    RadialGrid,
    frac_laplacian_on_grid,
    frac_laplacian_radial,
    fraclap_matrix,
    h_beta_function,
    riesz_convolve_radial,
    sphere_surface_area,
    volume_integral,
)
from fracradial.solver import (
    NonlinearitySpec,
    ProblemParams,
    Solution,
    SolverOpts,
    ZeroCollapseError,
    dilation_derivative,
    pohozaev_check,
    residual,
    solve_ground_state,
)
from fracradial.specfun import (
    AsymptoticLaw,
    NonConvergenceError,
    ProfileParams,
    frac_lap_h_asymptotic,
    frac_lap_h_exact,
    frac_lap_h_prefactor,
    gamma_real,
    h_beta_eval,
    hyp2f1,
    riesz_constant,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticLaw",
    "BoundConstants",
    "ChainRuleReport",
    "DecayFit",
    "DecayPrediction",
    "NonConvergenceError",
    "NonlinearitySpec",
    "ProblemParams",
    "ProfileParams",
    "RadialFunction",
    "RadialGrid",
    "RieszTailReport",
    "Solution",
    "SolverOpts",
    "ZeroCollapseError",
    "bound_constants",
    "dilation_derivative",
    "check_analysis",
    "check_fit_window",
    "fit_tail",
    "frac_lap_h_asymptotic",
    "frac_lap_h_exact",
    "frac_lap_h_prefactor",
    "frac_laplacian_on_grid",
    "frac_laplacian_radial",
    "fraclap_matrix",
    "gamma_real",
    "h_beta_eval",
    "h_beta_function",
    "hyp2f1",
    "pohozaev_check",
    "predict_decay",
    "residual",
    "riesz_constant",
    "riesz_convolve_radial",
    "sharp_constant",
    "solve_ground_state",
    "sphere_surface_area",
    "verify_chain_rule",
    "verify_riesz_tail",
    "volume_integral",
]
