"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check that a seed reproduces its inputs, that every solve of a run
has a reference profile, that a traced run reports every per-layer metric named
in BENCHMARK.json (or marks it absent), and that the benchmark refuses to
run without the package's source tree.
"""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import checks
import inputs
import tracing
from conftest import BENCH

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _first_cycles(workload, seed, n=4):
    return list(itertools.islice(inputs.cycles(workload, seed), n))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _first_cycles(workload, 7) == _first_cycles(workload, 7)
    others = [_first_cycles(workload, seed) for seed in range(8, 12)]
    assert any(other != _first_cycles(workload, 7) for other in others)


def test_every_cycle_covers_the_whole_mix():
    for cycle in _first_cycles("warm_sweep", 3):
        assert sorted(op["mu"] for op in cycle) == sorted(inputs.WARM_MU)
    for cycle in _first_cycles("verify_stored", 3):
        ops = Counter((op["kind"], op["target"]) for op in cycle)
        assert ops == Counter(inputs.VERIFY_CYCLE)


def test_every_solve_has_a_reference():
    refs = checks.load_references()
    nodes = {inputs.reference_key("warm_sweep", "n3_r1.7", mu): inputs.NODES
             for mu in (inputs.WARMUP_MU, *inputs.WARM_MU)}
    nodes.update({inputs.reference_key("verify_stored", name, inputs.RECORD_MU):
                  inputs.RECORD_NODES for name in inputs.RECORDS})
    assert sorted(refs) == sorted(nodes)
    for key, m in nodes.items():
        assert refs[key].shape == (m,)
        assert np.all(refs[key] > 0.0)


def test_loop_runs_in_segments_with_a_setup_sample_between():
    import workloads

    run, between = workloads.Run(), []

    def do_op(op, call=None, op_id=None):
        return {"op": op, "op_id": op_id, "op_s": 0.001, "cause": None}

    workloads._measure(run, "verify_stored", 1, 0.0, do_op, None,
                       between.append)
    # with no time to fill, each segment runs exactly one cycle
    cycle = len(inputs.VERIFY_CYCLE)
    assert between == [run] * (workloads.SEGMENTS - 1)
    assert len(run.records) == workloads.SEGMENTS * cycle
    assert [r["op"] for r in run.records] == [
        op for c in _first_cycles("verify_stored", 1, workloads.SEGMENTS)
        for op in c]


def test_benchmark_json_matches_the_reported_metrics():
    import run

    for key, reported in (("end_to_end", run.END_TO_END),
                          ("per_layer", tracing.PER_LAYER)):
        assert [m["name"] for m in BENCHMARK[key]] == list(reported)
        for m in BENCHMARK[key]:
            assert m["unit"] == reported[m["name"]]
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    assert gated == list(inputs.WORKLOADS)


def _cli(cli, argv, call):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return call(tracing.CLI_MAIN, cli.main, argv)


def _miniature_traced_run(tmp_path):
    """A small solve, verify-decay and oracle case with the wrappers on."""
    import fracradial.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        small = ["--set", "grid.nodes=240", "--set", "analysis.fit_window=5,100"]
        rc = _cli(cli, ["solve", "--out", str(tmp_path / "rec"), *small],
                  tracer.call)
        assert rc == 0
        record = str(tmp_path / "rec" / "solution.json")
        ops = []
        for n, argv in enumerate((
                ["verify-decay", "--solution", record, *small],
                ["oracle", "--case", "3,0.5,2.0", *small])):
            tracer.op = f"op{n}"
            ops.append(tracer.op)
            tracer.call(tracing.OP, _cli, cli,
                        argv + ["--out", str(tmp_path / f"op{n}")], tracer.call)
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(
        tracing.export(tracer.spans, "main"), ops, missing=tracer.missing,
        import_s=0.5, untraced_op_p50=0.01, bytes_written=100.0)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    metrics = _miniature_traced_run(tmp_path)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for name, m in metrics.items():
        assert "absent" not in m, name
        assert isinstance(m["value"], (int, float)), name
        assert m["unit"] == tracing.PER_LAYER[name]
    assert metrics["radial_ops.builds"]["value"] >= 3
    assert metrics["radial_ops.fraclap_matrix_bytes"]["value"] == 8 * 240 ** 2
    assert metrics["solver.iterations"]["value"] > 0
    assert metrics["specfun.frac_lap_h_exact.calls"]["value"] > 0
    assert metrics["decay_analysis.chain_rule_s"]["value"] > 0


def test_missing_wrapped_name_is_reported_absent(tmp_path, monkeypatch):
    import fracradial.cli as cli

    monkeypatch.delattr(cli, "frac_lap_h_exact")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["fracradial.cli.frac_lap_h_exact"]
    metrics = tracing.layer_metrics([], [], missing=tracer.missing,
                                    import_s=0.5, untraced_op_p50=0.0,
                                    bytes_written=0.0)
    assert list(metrics) == list(tracing.PER_LAYER)
    for name in ("specfun.frac_lap_h_exact.calls", "specfun.frac_lap_h_exact_s"):
        assert metrics[name]["value"] is None
        assert "frac_lap_h_exact" in metrics[name]["absent"]
    assert metrics["linalg.lu_solve.calls"]["value"] == 0.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
