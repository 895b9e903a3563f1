"""Problem construction shared by the workloads and the reference recorder.

Uses only public names of the package: ``ProblemParams``,
``NonlinearitySpec``, ``RadialGrid`` and ``SolverOpts(grid=...)``.
"""

from __future__ import annotations

from fracradial import NonlinearitySpec, ProblemParams, RadialGrid, SolverOpts

FIT_WINDOW = (50.0, 100.0)   # the CLI's default analysis.fit_window


def problem_params(problem: dict, mu: float) -> ProblemParams:
    return ProblemParams(N=problem["n"], s=0.5, alpha=problem["alpha"], mu=mu,
                         nonlinearity=NonlinearitySpec.homogeneous(problem["r"]))


def solver_opts(problem: dict, nodes: int) -> SolverOpts:
    """The CLI's default solver settings on the CLI's default grid family."""
    return SolverOpts(grid=RadialGrid.log_spaced(num=nodes, N=problem["n"]))
