"""Record the reference profiles that every benchmark solve is checked against.

Run from the repository root:

    python3 perfbench/make_reference.py

It pins BLAS threads as ``run.py`` does, one per CPU.

Writes ``perfbench/reference/profiles.npz`` (one profile per solve of a
run: ``warm_sweep``'s warm-up solve and its mu lattice, and the two records
``verify_stored`` writes with ``fracradial solve``) and ``profiles.json``
(the accuracy figures of each, for the record).  Run it only when the
benchmark's inputs change: the point of the references is that later
commits must reproduce them to 1e-9.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import benchenv

benchenv.pin_blas_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import fracradial.cli as cli  # noqa: E402
from fracradial import solve_ground_state  # noqa: E402

import inputs  # noqa: E402
from checks import REFERENCE_FILE, solution_figures  # noqa: E402
from problems import problem_params, solver_opts  # noqa: E402


def _warm_sweep_solves():
    """(key, solution) of the warm-up solve and of each mu of the lattice."""
    opts = solver_opts(inputs.WARM_PROBLEM, inputs.NODES)
    for mu in (inputs.WARMUP_MU, *inputs.WARM_MU):
        sol = solve_ground_state(problem_params(inputs.WARM_PROBLEM, mu), opts)
        yield inputs.reference_key("warm_sweep", "n3_r1.7", mu), sol


def _record_solves():
    """(key, solution) of each record verify_stored writes in its set-up."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in inputs.RECORDS:
            out = str(Path(tmp) / name)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(inputs.record_argv(name, out))
            if rc != 0:
                raise RuntimeError(f"solve of record {name} exited {rc}")
            sol = cli.load_solution(str(Path(out) / "solution.json"))
            yield inputs.reference_key("verify_stored", name,
                                       inputs.RECORD_MU), sol


def main() -> int:
    profiles, figures = {}, {}
    t0 = time.perf_counter()
    for solves in (_warm_sweep_solves(), _record_solves()):
        for key, sol in solves:
            profiles[key] = sol.u.values
            figures[key] = solution_figures(sol)
            print(f"{key}: {time.perf_counter() - t0:.2f} s {figures[key]}",
                  flush=True)
            t0 = time.perf_counter()
    np.savez_compressed(REFERENCE_FILE, **profiles)
    REFERENCE_FILE.with_suffix(".json").write_text(
        json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
