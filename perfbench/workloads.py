"""The two workloads, each a closed loop with one client.

A workload function returns a ``Run``: one record per operation with its
time, accuracy figures and failure cause, plus the set-up time, peak memory
and, for a traced run, the spans.  ``run.py`` turns a ``Run`` into metrics.
With ``setup_only`` a workload stops after its set-up and the checks of
what set-up solved; ``run.py`` uses that for the extra set-up samples.

The timed loop runs in SEGMENTS parts, with ``between(run)`` called
between them; ``run.py`` sets up again in a fresh process there.  The
speed of the machines this was built on swings by 15% over a few seconds,
so operations sampled across the whole run have a steadier median than
the same number sampled in one stretch.

Traced runs first measure the operations untraced, then replay exactly the
same inputs with the wrappers installed; the difference between the two
medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracing

CLOSING_ORACLE_CASE = "3,0.5,2.0"
SEGMENTS = 3


@dataclass
class Run:
    records: list = field(default_factory=list)   # one dict per operation
    loop_s: float = 0.0                            # loop time, checks excluded
    setup_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    accuracy: dict = field(default_factory=dict)   # figures outside the ops
    closing_checks: int = 0                        # checks outside the loop
    closing_causes: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)
    untraced_op_p50: float = 0.0
    missing: list = field(default_factory=list)

    def closing_check(self, what: str, fig: dict, cause) -> None:
        """Count one check made outside the loop, keeping its figures."""
        self.closing_checks += 1
        for key, value in fig.items():
            if key in ("residual_rel", "pohozaev_defect", "beta_fit_rel_err",
                       "oracle_rel_err"):
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)
        if cause is not None:
            self.closing_causes.append(f"{what}: {cause}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _closed_loop(cycles, seconds, do_op):
    """Run whole cycles until `seconds` have passed; returns the records,
    the loop time without checks and the cycles run."""
    records, done, check_s = [], [], 0.0
    t0 = time.perf_counter()
    for cycle in cycles:
        done.append(cycle)
        for op in cycle:
            rec = do_op(op)
            check_s += rec.get("check_s", 0.0)
            records.append(rec)
        if time.perf_counter() - t0 >= seconds:
            break
    return records, time.perf_counter() - t0 - check_s, done


def _op_p50(records) -> float:
    times = [r["op_s"] for r in records if r["cause"] is None]
    return statistics.median(times) if times else 0.0


def _run_cli(cli, argv, call):
    """``cli.main(argv)`` with its console output captured; (rc, last error)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = call(tracing.CLI_MAIN, cli.main, argv)
    lines = err.getvalue().strip().splitlines()
    return rc, (lines[-1] if lines else "")


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _import_package(root: Path):
    """Import the package from the checkout's source tree; (cli, seconds)."""
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import fracradial.cli as cli
    elapsed = time.perf_counter() - t0
    where = Path(cli.__file__).resolve()
    if root / "src" not in where.parents:
        raise RuntimeError(f"imported fracradial from {where}, not from "
                           f"{root / 'src'}")
    return cli, elapsed


def _start_tracer(trace: bool, run: Run):
    """A tracer installed for set-up, or None for an untraced run."""
    if not trace:
        return None
    tracer = tracing.Tracer()
    tracer.install()
    run.missing = tracer.missing
    return tracer


def _measure(run: Run, workload: str, seed: int, seconds: float, do_op,
             tracer, between) -> None:
    """The untraced closed loop in SEGMENTS parts, calling ``between(run)``
    between them; with a tracer, then the traced replay of the same
    operations.  ``do_op(op, call, op_id)`` runs one operation."""
    if tracer is not None:
        tracer.uninstall()
    cycles = inputs.cycles(workload, seed)
    records, done = [], []
    for k in range(SEGMENTS):
        if k:
            between(run)
        part, loop_s, part_done = _closed_loop(cycles, seconds / SEGMENTS,
                                               do_op)
        records += part
        done += part_done
        run.loop_s += loop_s
    run.peak_rss_mb = _rss_mb()
    if tracer is not None:
        run.untraced_op_p50 = _op_p50(records)
        tracer.install()
        records = []
        for n, op in enumerate(op for cycle in done for op in cycle):
            tracer.op = f"op{n}"
            run.traced_ops.append(tracer.op)
            records.append(do_op(op, tracer.call, tracer.op))
        tracer.uninstall()
        run.spans = tracing.export(tracer.spans, "main")
    run.records = records


def _closing_oracle(run: Run, cli, work: Path) -> None:
    """One ``oracle`` case after the loop, so that every workload reports
    ``oracle_rel_err``."""
    import checks

    check_dir = work / "closing-check"
    rc, err = _run_cli(cli, ["oracle", "--case", CLOSING_ORACLE_CASE,
                             "--out", str(check_dir), "--set",
                             f"grid.nodes={inputs.NODES}"], _untraced)
    fig, cause = checks.check_oracle_report(rc, check_dir / "oracle_report.json")
    run.closing_check("closing oracle check", fig,
                      None if cause is None else f"{cause} {err}".strip())


def no_op(_run: Run) -> None:
    pass


def warm_sweep(seed: int, seconds: float, trace: bool, root: Path,
               work: Path, t_start: float, setup_only: bool = False,
               between=no_op) -> Run:
    run = Run()
    cli, import_s = _import_package(root)
    run.import_s = [import_s]
    import checks
    from fracradial import solve_ground_state
    from problems import problem_params, solver_opts

    tracer = _start_tracer(trace, run)
    call = tracer.call if tracer is not None else _untraced

    problem = inputs.WARM_PROBLEM
    opts = solver_opts(problem, inputs.NODES)
    warmup = call(tracing.SOLVE, solve_ground_state,
                  problem_params(problem, inputs.WARMUP_MU), opts)
    run.setup_s = [time.perf_counter() - t_start]

    refs = checks.load_references()
    key = inputs.reference_key("warm_sweep", "n3_r1.7", inputs.WARMUP_MU)
    run.closing_check("warm-up solve", *checks.check_solution(warmup,
                                                              refs.get(key)))
    if setup_only:
        return run

    def do_op(op, op_call=_untraced, op_id=None):
        params = problem_params(problem, op["mu"])
        rec = {"op": op, "op_id": op_id, "op_s": None, "cause": None}
        t0 = time.perf_counter()
        try:
            sol = op_call(tracing.OP, op_call, tracing.SOLVE,
                          solve_ground_state, params, opts)
        except Exception as exc:  # any failure of the solve is a result
            rec["cause"] = f"{type(exc).__name__}: {exc}".splitlines()[0]
            return rec
        rec["op_s"] = time.perf_counter() - t0
        t_check = time.perf_counter()
        key = inputs.reference_key("warm_sweep", "n3_r1.7", op["mu"])
        fig, rec["cause"] = checks.check_solution(sol, refs.get(key))
        rec.update(fig, check_s=time.perf_counter() - t_check)
        return rec

    _measure(run, "warm_sweep", seed, seconds, do_op, tracer, between)
    _closing_oracle(run, cli, work)
    return run


def verify_stored(seed: int, seconds: float, trace: bool, root: Path,
                  work: Path, t_start: float, setup_only: bool = False,
                  between=no_op) -> Run:
    run = Run()
    cli, import_s = _import_package(root)
    run.import_s = [import_s]
    import checks

    tracer = _start_tracer(trace, run)
    call = tracer.call if tracer is not None else _untraced

    grid = ["--set", f"grid.nodes={inputs.NODES}"]
    records_dir = {}
    for name in inputs.RECORDS:
        out = work / f"record-{name}"
        rc, err = _run_cli(cli, inputs.record_argv(name, str(out)), call)
        if rc != 0:
            raise RuntimeError(f"set-up solve {name} exited {rc}: {err}")
        records_dir[name] = out / "solution.json"
    rc, err = _run_cli(cli, ["oracle", "--out", str(work / "oracle-warm"),
                             *grid], call)
    if rc != 0:
        raise RuntimeError(f"set-up oracle exited {rc}: {err}")
    run.setup_s = [time.perf_counter() - t_start]

    refs = checks.load_references()
    for name, path in records_dir.items():
        key = inputs.reference_key("verify_stored", name, inputs.RECORD_MU)
        sol = cli.load_solution(str(path))
        run.closing_check(f"record {name}",
                          *checks.check_solution(sol, refs.get(key)))
    if setup_only:
        return run

    def do_op(op, op_call=_untraced, op_id=None):
        out = work / f"{op['kind']}-{op['target']}"
        if op["kind"] == "verify":
            argv = ["verify-decay", "--solution",
                    str(records_dir[op["target"]]), "--out", str(out)]
        else:
            argv = ["oracle", "--case", op["target"], "--out", str(out), *grid]
        rec = {"op": op, "op_id": op_id, "op_s": None, "cause": None}
        t0 = time.perf_counter()
        try:
            rc, err = op_call(tracing.OP, _run_cli, cli, argv, op_call)
        except Exception as exc:  # any failure of the command is a result
            rec["cause"] = f"{type(exc).__name__}: {exc}".splitlines()[0]
            return rec
        rec["op_s"] = time.perf_counter() - t0
        t_check = time.perf_counter()
        if op["kind"] == "verify":
            fig, cause = checks.check_verify_report(
                rc, out / "verify_report.json")
        else:
            fig, cause = checks.check_oracle_report(
                rc, out / "oracle_report.json")
        rec["cause"] = None if cause is None else f"{cause} {err}".strip()
        rec.update(fig, check_s=time.perf_counter() - t_check)
        if op_id is not None:
            rec["bytes_written"] = _dir_bytes(out)
        return rec

    _measure(run, "verify_stored", seed, seconds, do_op, tracer, between)
    return run
