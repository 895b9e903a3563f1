"""Fixtures shared by the test modules."""

import pytest

from fracradial import NonlinearitySpec, ProblemParams
from fracradial.cli import main


@pytest.fixture(scope="module")
def params():
    return ProblemParams(N=3, s=0.5, alpha=2.0, mu=1.0,
                         nonlinearity=NonlinearitySpec.homogeneous(1.7))


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """A config on a 400-node grid plus one solve and both verify runs."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.ini"
    config.write_text(
        "[grid]\nnodes = 400\n\n"
        f"[output]\ndirectory = {root / 'solve'}\n")
    assert main(["solve", "--config", str(config)]) == 0
    assert main(["verify-decay", "--config", str(config),
                 "--out", str(root / "fresh")]) == 0
    assert main(["verify-decay", "--config", str(config),
                 "--solution", str(root / "solve" / "solution.json"),
                 "--out", str(root / "reloaded")]) == 0
    return root
