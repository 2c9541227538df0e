"""Span tracing of mgsched's layers, applied from outside the package.

A wrapper is installed at each module attribute that a caller looks up
at call time (for example ``mgsched.experiments.solve_lp`` for the
scenario subproblems and ``mgsched.lpcore.branch_bound.solve_lp`` for
branch-and-bound nodes).  Each call records a span with its name, start,
end, parent span and pass id, plus a few counts read from the call's
arguments or result.  Spans stay in memory until the run ends.

The end-to-end metric each layer should move, and where:
  config_io.load                      setup_s, every workload
  scenario.generate / reduce          wall_s (reduce also peak_rss_mb), demo-run
  formulation.build / extract         wall_s, demo-run
  lpcore.solve_lp, iterations         wall_s, fleet-lp and excl-bb
  lpcore.solve_milp, bb_*             wall_s, excl-bb only
  lpcore.check_point / export_mps     wall_s, demo-run
  model.*, experiments.*, cli.main    wall_s, demo-run (cli.main: negligible)
"""

import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# (span name, module, attribute): one entry per call site that is patched
HOOKS = (
    ("cli.main", "mgsched.cli", "main"),
    ("experiments.run_single", "mgsched.cli", "run_single"),
    ("config_io.load", "mgsched.experiments", "load_config"),
    ("config_io.load", "mgsched.experiments", "load_generation_spec"),
    ("experiments.prepare_scenarios", "mgsched.experiments", "prepare_scenarios"),
    ("scenario.generate", "mgsched.scenario", "generate"),
    ("scenario.reduce", "mgsched.scenario", "reduce_fast_forward"),
    ("experiments.solve_stochastic", "mgsched.experiments", "solve_stochastic"),
    ("formulation.build", "mgsched.experiments", "build"),
    ("formulation.extract", "mgsched.experiments", "extract_schedule"),
    ("formulation.extract", "mgsched.experiments", "schedule_to_vector"),
    ("lpcore.solve_lp", "mgsched.experiments", "solve_lp"),
    ("lpcore.solve_lp", "mgsched.lpcore.branch_bound", "solve_lp"),
    ("lpcore.solve_milp", "mgsched.experiments", "solve_milp"),
    ("lpcore.check_point", "mgsched.experiments", "check_point"),
    ("lpcore.export_mps", "mgsched.experiments", "export_mps"),
    ("model.check_balance", "mgsched.experiments", "check_balance"),
    ("model.evaluate_cost", "mgsched.experiments", "evaluate_cost"),
)


def _build_info(args, result):
    problem = result[0]
    return {"cols": problem.n_cols, "rows": problem.n_rows, "nnz": int(problem.tri_vals.size)}


# span name -> function(args, result) returning the counts kept on the span
PROBES = {
    "scenario.generate": lambda args, result: {"count": int(args[2])},
    "scenario.reduce": lambda args, result: {"n_in": len(args[0]), "keep": int(args[1])},
    "formulation.build": _build_info,
    "lpcore.solve_lp": lambda args, result: {"status": result.status,
                                             "iterations": int(result.iterations)},
    "lpcore.solve_milp": lambda args, result: {"status": result.status,
                                               "iterations": int(result.iterations),
                                               "nodes": int(result.nodes)},
    "lpcore.export_mps": lambda args, result: {"bytes": len(result.encode())},
}


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int  # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for name, module, attr in HOOKS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self.pass_id, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(args, result)
            return result

        return traced

    def to_json(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, selfs, pass_ids):
    """Per-layer totals over the given passes, divided by the pass count.

    Sizes (cols, rows, nnz) are the largest problem built; LP percentiles
    are over every solve_lp call in the passes.
    """
    n = len(pass_ids)
    wanted = set(pass_ids)
    idx = [i for i, s in enumerate(spans) if s.pass_id in wanted]
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    for i in idx:
        dur[spans[i].name] += spans[i].duration
        self_t[spans[i].name] += selfs[i]
        calls[spans[i].name] += 1

    def infos(name):
        return [spans[i].info for i in idx if spans[i].name == name]

    lp = [i for i in idx if spans[i].name == "lpcore.solve_lp"]
    lp_ms = sorted(1e3 * spans[i].duration for i in lp)
    iterations = sum(spans[i].info["iterations"] for i in lp)
    milps = set(i for i in idx if spans[i].name == "lpcore.solve_milp")
    # the first LP under each solve_milp span is its root relaxation
    under_milp = [i for i in lp if spans[i].parent in milps]
    roots = {}
    for i in under_milp:
        roots.setdefault(spans[i].parent, i)
    root_ids = set(roots.values())
    children = [i for i in under_milp if i not in root_ids]
    milp_info = infos("lpcore.solve_milp")
    nodes = sum(m["nodes"] for m in milp_info)
    builds = infos("formulation.build")

    return {
        "config_io.load_s": dur["config_io.load"] / n,
        "scenario.generate_s": dur["scenario.generate"] / n,
        "scenario.generate_count": sum(g["count"] for g in infos("scenario.generate")) / n,
        "scenario.reduce_s": dur["scenario.reduce"] / n,
        "scenario.reduce_in": sum(r["n_in"] for r in infos("scenario.reduce")) / n,
        "scenario.reduce_keep": sum(r["keep"] for r in infos("scenario.reduce")) / n,
        "formulation.build_s": dur["formulation.build"] / n,
        "formulation.build_calls": calls["formulation.build"] / n,
        "formulation.cols": max((b["cols"] for b in builds), default=0),
        "formulation.rows": max((b["rows"] for b in builds), default=0),
        "formulation.nnz": max((b["nnz"] for b in builds), default=0),
        "formulation.extract_s": dur["formulation.extract"] / n,
        "lpcore.solve_lp_s": dur["lpcore.solve_lp"] / n,
        "lpcore.solve_lp_calls": len(lp) / n,
        "lpcore.lp_ms.p50": _percentile(lp_ms, 50),
        "lpcore.lp_ms.p90": _percentile(lp_ms, 90),
        "lpcore.iterations": iterations / n,
        "lpcore.iters_per_s": iterations / dur["lpcore.solve_lp"] if lp else 0.0,
        "lpcore.lp_nonoptimal": sum(spans[i].info["status"] != "optimal" for i in lp) / n,
        "lpcore.solve_milp_s": dur["lpcore.solve_milp"] / n,
        "lpcore.bb_nodes": nodes / n,
        "lpcore.bb_iters_per_node": sum(m["iterations"] for m in milp_info) / nodes if nodes else 0.0,
        "lpcore.bb_children": len(children) / n,
        "lpcore.bb_child_optimal_frac": (
            sum(spans[i].info["status"] == "optimal" for i in children) / len(children)
            if children else 0.0),
        "lpcore.check_point_s": dur["lpcore.check_point"] / n,
        "lpcore.export_mps_s": dur["lpcore.export_mps"] / n,
        "lpcore.mps_bytes": sum(m["bytes"] for m in infos("lpcore.export_mps")) / n,
        "model.check_balance_s": dur["model.check_balance"] / n,
        "model.evaluate_cost_s": dur["model.evaluate_cost"] / n,
        "experiments.prepare_scenarios_s": dur["experiments.prepare_scenarios"] / n,
        "experiments.solve_stochastic_self_s": self_t["experiments.solve_stochastic"] / n,
        "experiments.run_single_self_s": self_t["experiments.run_single"] / n,
        "cli.main_self_s": self_t["cli.main"] / n,
    }
