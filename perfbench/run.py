"""fracradial benchmark: warm mu-sweeps and stored-record verification.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload warm_sweep --seed 1 --seconds 6 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` installs the span wrappers of ``tracing.py`` and
prints the per-layer metrics.  An untraced run's loop runs in three parts;
between them the same command with ``--setup-only`` runs in a fresh
process, so that ``setup_s`` is the median of three set-ups.  Readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment and every operation,
goes to ``.perfbench/``; a traced run writes its spans there too.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchenv  # noqa: E402

benchenv.pin_blas_threads()

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0   # the run as a whole must end within 180 s

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "residual_rel.max": "ratio",
    "pohozaev_defect.max": "ratio",
    "beta_fit_rel_err.max": "ratio",
    "oracle_rel_err.max": "ratio",
}


def _max(values):
    values = [v for v in values if v is not None]
    return max(values) if values else None


def end_to_end(run: workloads.Run) -> tuple[dict, dict]:
    """The end-to-end metrics and their sample counts."""
    ok = [r for r in run.records if r["cause"] is None]
    op_s = [r["op_s"] for r in ok]

    def figure(name):
        return _max([r.get(name) for r in ok] + [run.accuracy.get(name)])

    values = {
        "setup_s": statistics.median(run.setup_s) if run.setup_s else None,
        "op_s.p50": statistics.median(op_s) if op_s else None,
        "ops_per_s": len(run.records) / run.loop_s if run.loop_s > 0 else None,
        "peak_rss_mb": run.peak_rss_mb,
        "residual_rel.max": figure("residual_rel"),
        "pohozaev_defect.max": figure("pohozaev_defect"),
        "beta_fit_rel_err.max": figure("beta_fit_rel_err"),
        "oracle_rel_err.max": figure("oracle_rel_err"),
    }
    samples = {"setup_s": len(run.setup_s), "op_s.p50": len(op_s),
               "ops_per_s": len(run.records)}
    if len(op_s) >= 100:
        # reported only with at least ten samples above the 90th percentile
        values["op_s.p90"] = statistics.quantiles(op_s, n=10)[8]
        samples["op_s.p90"] = len(op_s)
    return values, samples


def per_layer(run: workloads.Run) -> dict:
    traced = [r for r in run.records if r.get("op_id") in set(run.traced_ops)]
    written = [r.get("bytes_written", 0) for r in traced]
    return tracing.layer_metrics(
        run.spans, run.traced_ops, missing=run.missing,
        import_s=statistics.median(run.import_s) if run.import_s else 0.0,
        untraced_op_p50=run.untraced_op_p50,
        bytes_written=sum(written) / len(written) if written else 0.0)


def setup_sampler(args, t_end: float):
    """``between`` callback of the workloads: set up once more in a fresh
    process and add the sample, its checks and their failures to the run."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]

    def sample(run: workloads.Run) -> None:
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(t_end - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            run.closing_check("set-up sample", {}, "timed out")
            return
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            run.closing_check("set-up sample", {},
                              f"exit {proc.returncode}: {tail[0]}")
            return
        run.setup_s.append(result["setup_s"])
        run.closing_checks += result["checks"]
        run.closing_causes += [f"set-up sample: {c}" for c in result["causes"]]

    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, check what set-up solved, print the "
                             "set-up time as JSON and stop")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracradial" / "__init__.py").is_file():
        print(f"no fracradial source tree under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    workload = getattr(workloads, args.workload)
    between = (workloads.no_op if trace
               else setup_sampler(args, T_START + DEADLINE_S))
    try:
        run = workload(args.seed, args.seconds, trace, ROOT, work, T_START,
                       setup_only=args.setup_only, between=between)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": run.setup_s[0],
                          "checks": run.closing_checks,
                          "causes": run.closing_causes}))
        return 0

    causes = [r["cause"] for r in run.records if r["cause"] is not None]
    causes += run.closing_causes
    attempted = len(run.records) + run.closing_checks
    failed = len(causes)

    e2e, samples = end_to_end(run)
    if trace:
        metrics = per_layer(run)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = failed == 0 and all(
        m["value"] is not None or "absent" in m for m in metrics.values())

    env = benchenv.describe()
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "end_to_end": e2e, "samples": samples,
              "setup_samples_s": run.setup_s,
              "failed_frac": failed / attempted if attempted else None,
              "causes": causes,
              "records": [{k: v for k, v in r.items() if k != "spans"}
                          for r in run.records],
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(run.spans))

    print(f"env: {json.dumps(env)}")
    for name, value in e2e.items():
        unit = END_TO_END.get(name, "s")
        n = samples.get(name)
        print(f"{name} = {value!r} {unit}"
              + (f" (n={n})" if n else ""))
    if trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']!r} {m['unit']}"
                  + (f" (absent: {m['absent']})" if "absent" in m else ""))
    print(f"failed_frac = {result['failed_frac']!r} ({failed}/{attempted})")
    for cause in causes[:5]:
        print(f"failure: {cause}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
