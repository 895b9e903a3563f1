"""Fixtures shared by the test modules."""

import pytest

import fracradial.cli as cli
import fracradial.solver as solver_mod
from fracradial import NonlinearitySpec, ProblemParams
from fracradial.cli import main


@pytest.fixture(scope="module")
def params():
    return ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                         nonlinearity=NonlinearitySpec.homogeneous(1.7))


@pytest.fixture(scope="session")
def solved(tmp_path_factory):
    """A config on a 400-node grid and one solve of it: the run directory and
    the Solution that the solve wrote, as it was in memory."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text("[grid]\nnodes = 400\n")
    solutions = []

    def keep(*args):
        solutions.append(solver_mod.solve_ground_state(*args))
        return solutions[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "solve_ground_state", keep)
        assert main(["solve", "--config", str(config),
                     "--out", str(root / "solve")]) == 0
    return root, solutions[0]


@pytest.fixture(scope="session")
def workdir(solved):
    """The run directory of `solved`, with verify-decay of its record."""
    root = solved[0]
    assert main(["verify-decay", "--config", str(root / "run.ini"),
                 "--solution", str(root / "solve" / "solution.json"),
                 "--out", str(root / "reloaded")]) == 0
    return root
