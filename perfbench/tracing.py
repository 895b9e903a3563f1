"""Spans around the calls one layer of fracradial makes into another.

Only the traced run installs these wrappers.  Each one rebinds a public name
in the namespace of the module that calls it, so the package itself is not
modified and an untraced run executes exactly the package's own code.  A
wrapper records one span per call (name, start, end, parent span, operation
id, for operator calls the operator key, and for ``fraclap_matrix`` the
``nbytes`` of the matrix it returned) and the spans stay in memory until
the run writes them out.

A name that a later version of the package no longer has is reported as
missing, and the per-layer metrics that depend on it are reported absent.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (calling module, name, span name).  The span name's prefix is the layer the
# call enters: the package's modules, plus ``linalg`` for the LU calls.
WRAPPED = (
    ("fracradial.solver", "fraclap_matrix", "radial_ops.fraclap_matrix"),
    ("fracradial.solver", "riesz_convolve_radial",
     "radial_ops.riesz_convolve_radial"),
    ("fracradial.solver", "frac_laplacian_on_grid",
     "radial_ops.frac_laplacian_on_grid"),
    ("fracradial.solver", "volume_integral", "radial_ops.volume_integral"),
    ("fracradial.solver", "lu_factor", "linalg.lu_factor"),
    ("fracradial.solver", "lu_solve", "linalg.lu_solve"),
    ("fracradial.decay_analysis", "riesz_convolve_radial",
     "radial_ops.riesz_convolve_radial"),
    ("fracradial.decay_analysis", "frac_laplacian_radial",
     "radial_ops.frac_laplacian_radial"),
    ("fracradial.decay_analysis", "volume_integral",
     "radial_ops.volume_integral"),
    ("fracradial.cli", "solve_ground_state", "solver.solve_ground_state"),
    ("fracradial.cli", "frac_lap_h_exact", "specfun.frac_lap_h_exact"),
    ("fracradial.cli", "load_solution", "cli.load_solution"),
    ("fracradial.cli", "frac_laplacian_on_grid",
     "radial_ops.frac_laplacian_on_grid"),
    ("fracradial.cli", "predict_decay", "decay_analysis.predict_decay"),
    ("fracradial.cli", "fit_tail", "decay_analysis.fit_tail"),
    ("fracradial.cli", "sharp_constant", "decay_analysis.sharp_constant"),
    ("fracradial.cli", "bound_constants", "decay_analysis.bound_constants"),
    ("fracradial.cli", "verify_chain_rule", "decay_analysis.verify_chain_rule"),
    ("fracradial.cli", "verify_riesz_tail", "decay_analysis.verify_riesz_tail"),
)

FRACLAP_MATRIX = "radial_ops.fraclap_matrix"
FRACLAP_CALLS = (FRACLAP_MATRIX, "radial_ops.frac_laplacian_on_grid")
RIESZ = "radial_ops.riesz_convolve_radial"
SOLVE = "solver.solve_ground_state"
CLI_MAIN = "cli.main"
OP = "op"


def _grid_key(grid):
    nodes = grid.nodes
    return (int(grid.N), int(nodes.size), float(nodes[0]), float(nodes[-1]),
            hash(nodes.tobytes()))


def _operator_key(span_name, args, kwargs):
    """(kind, grid, exponent, tail exponent) of an operator call.

    The same key means the package reuses the operator it assembled for the
    first such call.
    """
    if span_name == FRACLAP_MATRIX:
        grid, s = args[0], args[1]
        tail = kwargs["tail_omega"] if "tail_omega" in kwargs else args[2]
        return ("fraclap", _grid_key(grid), round(float(s), 12),
                round(float(tail), 12))
    if span_name == "radial_ops.frac_laplacian_on_grid":
        u, s = args[0], args[1]
        return ("fraclap", _grid_key(u.grid), round(float(s), 12),
                round(float(u.tail_exponent), 12))
    if span_name == RIESZ:
        g, alpha = args[0], args[1]
        return ("riesz", _grid_key(g.grid), round(float(alpha), 12),
                round(float(g.tail_exponent), 12))
    return None


class Tracer:
    """In-memory span recorder for one process.

    Spans are tuples (span id, parent id, op id, name, start, end, key,
    bytes of the returned matrix or None).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._originals: list[tuple] = []

    def install(self) -> None:
        """Rebind every wrapped name; record the ones the package lacks."""
        self.missing = []
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def _wrap(self, span_name, fn):
        keyed = span_name in FRACLAP_CALLS or span_name == RIESZ
        sized = span_name == FRACLAP_MATRIX

        def wrapper(*args, **kwargs):
            key = None
            if keyed:
                try:
                    key = _operator_key(span_name, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    key = None
            return self.call(span_name, fn, *args, _key=key, _sized=sized,
                             **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, span_name, fn, *args, _key=None, _sized=False, **kwargs):
        """Run fn inside a span; with `_sized`, keep its result's nbytes."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        size = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if _sized:
                size = getattr(result, "nbytes", None)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, span_name, t0, t1, _key,
                               size))


def export(spans, proc: str) -> list[list]:
    """Spans as JSON-ready lists, ids prefixed with the process label."""
    out = []
    for sid, parent, op, name, t0, t1, key, size in spans:
        out.append([f"{proc}:{sid}",
                    None if parent is None else f"{proc}:{parent}",
                    op, name, t0, t1,
                    None if key is None else [proc, *_jsonable_key(key)],
                    size])
    return out


def _jsonable_key(key):
    kind, grid, exponent, tail = key
    return [kind, list(grid), exponent, tail]


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit.  Build figures are totals over the whole traced run, set-up
# included, and so are the per-call medians (".p50") and the per-solve
# figures; "/op" figures are means over the traced operations.
PER_LAYER = {
    "radial_ops.fraclap_build_s": "s",
    "radial_ops.riesz_build_s": "s",
    "radial_ops.builds": "count",
    "radial_ops.fraclap_matrix_bytes": "B",
    "radial_ops.riesz_apply_s.p50": "s",
    "radial_ops.riesz_apply.calls": "count/op",
    "radial_ops.pointwise_row_s.p50": "s",
    "linalg.lu_factor_s": "s/op",
    "linalg.lu_solve_s.p50": "s",
    "linalg.lu_solve.calls": "count/op",
    "solver.iterations": "count/solve",
    "solver.refit_rounds": "count/solve",
    "solver.final_round_iter_frac": "ratio",
    "solver.step_s.p50": "s",
    "solver.self_s": "s/op",
    "solver.diagnostics_s": "s/op",
    "specfun.frac_lap_h_exact.calls": "count/op",
    "specfun.frac_lap_h_exact_s": "s/op",
    "decay_analysis.verify_s": "s/op",
    "decay_analysis.chain_rule_s": "s/op",
    "decay_analysis.riesz_tail_s": "s/op",
    "decay_analysis.fit_tail_s": "s/op",
    "decay_analysis.bound_constants_s": "s/op",
    "decay_analysis.self_s": "s/op",
    "cli.self_s": "s/op",
    "cli.load_solution_s": "s/op",
    "cli.bytes_written": "B/op",
    "process.import_s": "s",
    "trace.overhead_rel": "ratio",
    "trace.child_share.p50": "ratio",
}

# wrapped names each metric needs; if one is missing the metric is absent
_NEEDS = {
    "radial_ops.fraclap_build_s": ("fracradial.solver.fraclap_matrix",),
    "radial_ops.riesz_build_s": ("fracradial.solver.riesz_convolve_radial",),
    "radial_ops.builds": ("fracradial.solver.fraclap_matrix",
                          "fracradial.solver.riesz_convolve_radial"),
    "radial_ops.fraclap_matrix_bytes": ("fracradial.solver.fraclap_matrix",),
    "radial_ops.riesz_apply_s.p50": ("fracradial.solver.riesz_convolve_radial",),
    "radial_ops.riesz_apply.calls": ("fracradial.solver.riesz_convolve_radial",),
    "radial_ops.pointwise_row_s.p50": (
        "fracradial.decay_analysis.frac_laplacian_radial",),
    "linalg.lu_factor_s": ("fracradial.solver.lu_factor",),
    "linalg.lu_solve_s.p50": ("fracradial.solver.lu_solve",),
    "linalg.lu_solve.calls": ("fracradial.solver.lu_solve",),
    "solver.iterations": ("fracradial.solver.lu_solve",),
    "solver.refit_rounds": ("fracradial.solver.fraclap_matrix",),
    "solver.final_round_iter_frac": ("fracradial.solver.fraclap_matrix",
                                     "fracradial.solver.lu_solve"),
    "solver.step_s.p50": ("fracradial.solver.lu_solve",),
    "solver.diagnostics_s": ("fracradial.solver.lu_solve",),
    "specfun.frac_lap_h_exact.calls": ("fracradial.cli.frac_lap_h_exact",),
    "specfun.frac_lap_h_exact_s": ("fracradial.cli.frac_lap_h_exact",),
    "decay_analysis.chain_rule_s": ("fracradial.cli.verify_chain_rule",),
    "decay_analysis.riesz_tail_s": ("fracradial.cli.verify_riesz_tail",),
    "decay_analysis.fit_tail_s": ("fracradial.cli.fit_tail",),
    "decay_analysis.bound_constants_s": ("fracradial.cli.bound_constants",),
    "cli.load_solution_s": ("fracradial.cli.load_solution",),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], traced_ops: list[str], *, missing=(),
                  import_s: float, untraced_op_p50: float,
                  bytes_written: float) -> dict:
    """Per-layer metrics from exported spans.

    Args:
        spans: exported spans of every traced process of the run.
        traced_ops: ids of the traced operations (set-up excluded).
        missing: wrapped names the package did not have.
        import_s: median time to import the package in a fresh process.
        untraced_op_p50: median operation time of the same inputs untraced.
        bytes_written: mean bytes the CLI wrote per traced operation.
    """
    by_id = {sp[0]: sp for sp in spans}
    children: dict = {}
    for sp in spans:
        if sp[1] is not None:
            children.setdefault(sp[1], []).append(sp)
    for kids in children.values():
        kids.sort(key=lambda sp: sp[4])

    def dur(sp):
        return sp[5] - sp[4]

    def self_time(sp):
        return dur(sp) - sum(dur(k) for k in children.get(sp[0], ()))

    n_ops = max(len(traced_ops), 1)
    op_set = set(traced_ops)
    in_ops = [sp for sp in spans if sp[2] in op_set]

    def per_op_total(names):
        return sum(dur(sp) for sp in in_ops if sp[3] in names) / n_ops

    # operator builds: the first call per (process, kind, grid, exponents)
    seen, builds = set(), []
    for sp in sorted(spans, key=lambda sp: sp[4]):
        key = sp[6]
        if key is None:
            continue
        frozen = (key[0], key[1], tuple(key[2]), key[3], key[4])
        if frozen not in seen:
            seen.add(frozen)
            builds.append(sp)
    build_ids = {sp[0] for sp in builds}
    # bytes of the distinct matrices fraclap_matrix returned; the Riesz
    # operator is not reachable through public names, so its size is not
    # reported
    seen_matrices, matrix_bytes = set(), 0
    for sp in sorted(spans, key=lambda sp: sp[4]):
        if sp[3] == FRACLAP_MATRIX and sp[6] is not None and sp[7] is not None:
            frozen = (sp[6][0], tuple(sp[6][2]), sp[6][3], sp[6][4])
            if frozen not in seen_matrices:
                seen_matrices.add(frozen)
                matrix_bytes += sp[7]

    riesz_applies = [sp for sp in spans
                     if sp[3] == RIESZ and sp[0] not in build_ids]
    lu_solves = [sp for sp in spans if sp[3] == "linalg.lu_solve"]

    # solver: per-solve figures over every solve of the run, set-up
    # included; per-operation times over the traced operations only
    iterations, rounds, last_round_iters, steps = [], [], 0, []
    solver_self, diagnostics = 0.0, 0.0
    solves = [sp for sp in spans if sp[3] == SOLVE]
    for solve in solves:
        kids = children.get(solve[0], [])
        iters = [k for k in kids if k[3] == "linalg.lu_solve"]
        mats = [k for k in kids if k[3] == FRACLAP_MATRIX]
        iterations.append(len(iters))
        rounds.append(len(mats))
        last_start = mats[-1][4] if mats else float("-inf")
        last_round_iters += sum(1 for k in iters if k[4] > last_start)
        for prev, cur in zip(iters, iters[1:]):
            if not any(prev[5] < m[4] < cur[4] for m in mats):
                steps.append(cur[5] - prev[5])
        if solve[2] in op_set:
            solver_self += self_time(solve)
            if iters:
                diagnostics += solve[5] - iters[-1][5]

    # decay_analysis: calls the CLI makes into it
    decay_calls = [sp for sp in in_ops if sp[3].startswith("decay_analysis.")
                   and sp[1] is not None and by_id[sp[1]][3] == CLI_MAIN]
    cli_mains = [sp for sp in in_ops if sp[3] == CLI_MAIN]

    # share of each operation covered by the layers below its entry call
    shares = []
    for op in (sp for sp in in_ops if sp[3] == OP):
        for entry in children.get(op[0], []):
            covered = sum(dur(k) for k in children.get(entry[0], []))
            shares.append(covered / dur(op) if dur(op) > 0 else 0.0)
    traced_p50 = _median([dur(sp) for sp in in_ops if sp[3] == OP])

    values = {
        "radial_ops.fraclap_build_s": sum(dur(sp) for sp in builds
                                          if sp[3] in FRACLAP_CALLS),
        "radial_ops.riesz_build_s": sum(dur(sp) for sp in builds
                                        if sp[3] == RIESZ),
        "radial_ops.builds": len(builds),
        "radial_ops.fraclap_matrix_bytes": matrix_bytes,
        "radial_ops.riesz_apply_s.p50": _median([dur(sp) for sp in riesz_applies]),
        "radial_ops.riesz_apply.calls": sum(
            1 for sp in riesz_applies if sp[2] in op_set) / n_ops,
        "radial_ops.pointwise_row_s.p50": _median(
            [dur(sp) for sp in spans
             if sp[3] == "radial_ops.frac_laplacian_radial"]),
        "linalg.lu_factor_s": per_op_total(("linalg.lu_factor",)),
        "linalg.lu_solve_s.p50": _median([dur(sp) for sp in lu_solves]),
        "linalg.lu_solve.calls": sum(
            1 for sp in in_ops if sp[3] == "linalg.lu_solve") / n_ops,
        "solver.iterations": (sum(iterations) / len(solves)) if solves else 0.0,
        "solver.refit_rounds": (sum(r - 1 for r in rounds) / len(solves)
                                if solves else 0.0),
        "solver.final_round_iter_frac": (last_round_iters / sum(iterations)
                                         if sum(iterations) else 0.0),
        "solver.step_s.p50": _median(steps),
        "solver.self_s": solver_self / n_ops,
        "solver.diagnostics_s": diagnostics / n_ops,
        "specfun.frac_lap_h_exact.calls": sum(
            1 for sp in in_ops if sp[3] == "specfun.frac_lap_h_exact") / n_ops,
        "specfun.frac_lap_h_exact_s": per_op_total(("specfun.frac_lap_h_exact",)),
        "decay_analysis.verify_s": sum(dur(sp) for sp in decay_calls) / n_ops,
        "decay_analysis.chain_rule_s": per_op_total(
            ("decay_analysis.verify_chain_rule",)),
        "decay_analysis.riesz_tail_s": per_op_total(
            ("decay_analysis.verify_riesz_tail",)),
        "decay_analysis.fit_tail_s": per_op_total(("decay_analysis.fit_tail",)),
        "decay_analysis.bound_constants_s": per_op_total(
            ("decay_analysis.bound_constants",)),
        "decay_analysis.self_s": sum(self_time(sp) for sp in decay_calls) / n_ops,
        "cli.self_s": sum(self_time(sp) for sp in cli_mains) / n_ops,
        "cli.load_solution_s": per_op_total(("cli.load_solution",)),
        "cli.bytes_written": bytes_written,
        "process.import_s": import_s,
        "trace.overhead_rel": (traced_p50 - untraced_op_p50) / untraced_op_p50
        if untraced_op_p50 > 0 else 0.0,
        "trace.child_share.p50": _median(shares),
    }
    missing = set(missing)
    out = {}
    for name, unit in PER_LAYER.items():
        lacking = [m for m in _NEEDS.get(name, ()) if m in missing]
        if lacking:
            out[name] = {"value": None, "unit": unit,
                         "absent": "package has no " + ", ".join(lacking)}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
