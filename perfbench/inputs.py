"""Seeded inputs of the two workloads.

Every workload runs in cycles.  A cycle is a fixed multiset of operations
and the seed picks their order.  A run always completes the cycle it has
started, so every run covers the same mix of operations whatever its seed;
only the generated inputs change.
"""

from __future__ import annotations

import random

# Both workloads use fewer nodes than the CLI default of 1200, so that one
# set-up (one or two cold solves and more) can be repeated three times
# within a run; on these grids operator assembly still dominates every cold
# solve and every check of the read side still passes.  The oracle cases
# keep 600 nodes: at 400 the (3, 0.5, 2.0) case is 2.3e-3 off, above the
# oracle's 1e-3 tolerance.
NODES = 600
RECORD_NODES = 400

# warm_sweep: the default problem; each cycle visits every mu of the
# lattice once, in seeded order.  Set-up solves it once at WARMUP_MU.
WARM_PROBLEM = {"n": 3, "alpha": 2.0, "r": 1.7}
WARMUP_MU = 1.0
# [0.7, 2]: below mu ~ 0.6 the profile's decay onset moves past the
# default fit window (50, 100) and the fitted exponent is pre-asymptotic
# (15% off beta at mu = 0.5), though the solve itself is sound.  mu comes
# from a lattice so that every solve has a reference profile.
WARM_MU = (0.7, 0.95, 1.25, 1.6, 2.0)

# verify_stored: two stored records (one per decay regime, written by
# set-up with the CLI defaults apart from r and the grid) and the four
# default oracle cases of the CLI.  Each record appears twice per cycle so
# that the median operation sits inside the verify-decay cluster of
# latencies rather than on the border between two operation kinds.
RECORDS = {"r1.7": 1.7, "r1.9": 1.9}
RECORD_MU = 1.0   # the CLI's default problem.mu
ORACLE_CASES = ("3,0.5,2.0", "3,0.5,3.5", "2,0.5,2.5", "3,0.25,3.0")
VERIFY_CYCLE = (("verify", "r1.7"), ("verify", "r1.7"),
                ("verify", "r1.9"), ("verify", "r1.9")) \
    + tuple(("oracle", case) for case in ORACLE_CASES)

WORKLOADS = ("warm_sweep", "verify_stored")


def cycles(workload: str, seed: int):
    """Yield the operation cycles of one run, forever.

    The same (workload, seed) pair always yields the same sequence.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "warm_sweep":
            yield [{"mu": mu} for mu in rng.sample(WARM_MU, len(WARM_MU))]
        else:
            yield [{"kind": kind, "target": target}
                   for kind, target in rng.sample(VERIFY_CYCLE,
                                                  len(VERIFY_CYCLE))]


def reference_key(workload: str, problem: str, mu: float) -> str:
    """Name of the recorded reference profile of one solve."""
    return f"{workload}/{problem}/mu={mu!r}"


def record_argv(name: str, out: str) -> list[str]:
    """``fracradial solve`` arguments that write the stored record `name`."""
    return ["solve", "--out", out, "--set", f"problem.r={RECORDS[name]!r}",
            "--set", f"grid.nodes={RECORD_NODES}"]
