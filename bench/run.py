"""Benchmark of the mgsched pipeline: `mgs run` end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload demo-run --seed 1 --seconds 30 --trace 0

Each workload calls ``mgsched.cli.main(["run", ...])`` in this process as
a closed loop, one pass at a time, on inputs made from ``--seed``.  A
round runs every instance of the workload once; rounds repeat until
``--seconds`` is used up.  Every pass is checked for correctness (exit
code, status, objective against evaluated cost and against scipy's
HiGHS, identical artifact digests and solver counts on every pass of an
instance and across runs of the same seed).

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of a traced run (see tracing.py), measured after an untraced run of the
same length so that the tracing overhead can be given.  ``--smoke``
swaps in tiny inputs so the whole harness runs in seconds.  Outputs,
spans and full results go to ``.bench_out/`` in the working directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, layer_metrics, self_times

SRC = Path("src")
BENCH = Path(__file__).resolve().parent
INPUTS = BENCH / "inputs"
OUT = Path(".bench_out")
REL_TOL = 1e-6
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    inputs: str  # prefix of the <inputs>_config.json / <inputs>_genspec.json pair
    generate: int
    keep: int
    instances: int = 1  # distinct scenario seeds per round
    exclusivity: bool = False
    write_mps: bool = False

    @property
    def config(self):
        return INPUTS / f"{self.inputs}_config.json"

    @property
    def genspec(self):
        return INPUTS / f"{self.inputs}_genspec.json"

    @property
    def artifacts(self):
        """Files every pass must write; their digests are compared."""
        names = ["solution.json", "balance_report.json"]
        return names + ["problem.mps"] if self.write_mps else names

    def argv(self, seed, out_dir):
        argv = ["run", "--config", str(self.config), "--genspec", str(self.genspec),
                "--generate", str(self.generate), "--keep", str(self.keep),
                "--seed", str(seed), "--out", str(out_dir)]
        if self.exclusivity:
            argv.append("--exclusivity")
        if self.write_mps:
            argv.append("--write-mps")
        return argv


WORKLOADS = {
    # Broad pipeline case: reduction of 3000 scenarios, 25 small LPs
    # (175 x 504), build, extraction, MPS export and artifact writing.
    "demo-run": Workload("demo", generate=3000, keep=25, write_mps=True),
    # Case-study LP shape (T=24, 3 CHP, 50 PHEVs, 5 deferrable loads):
    # two 1303 x 3840 scenario LPs, dominated by dense LU in solve_lp.
    "fleet-lp": Workload("fleet", generate=300, keep=2),
    # Joint path with exclusivity binaries: branch-and-bound on 96 small
    # MILPs (T=24, 2 CHP, 3 PHEVs, 1 deferrable load, one scenario each).
    "excl-bb": Workload("excl", generate=100, keep=1, instances=96, exclusivity=True),
}

SMOKE = {
    "demo-run": Workload("demo", generate=200, keep=3, write_mps=True),
    "fleet-lp": Workload("smoke", generate=20, keep=2),
    "excl-bb": Workload("smoke", generate=20, keep=1, instances=3, exclusivity=True),
}


@dataclass
class PassResult:
    instance: int
    pass_id: int
    wall: float
    error: str | None = None
    objective: float | None = None
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    artifact_bytes: int = 0


def _rel_diff(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class Runner:
    """Runs and checks the passes of one workload at one seed."""

    def __init__(self, name, workload, seed, smoke):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.passes = []

    def instance_seed(self, instance):
        return 1000 * self.seed + instance

    def out_dir(self, instance):
        return OUT / "runs" / self.name / f"instance{instance}"

    def run_pass(self, instance, tracer=None):
        import mgsched.cli

        out = self.out_dir(instance)
        shutil.rmtree(out, ignore_errors=True)
        argv = self.workload.argv(self.instance_seed(instance), out)
        result = PassResult(instance, len(self.passes), 0.0)
        self.passes.append(result)
        if tracer is not None:
            tracer.pass_id = result.pass_id
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = mgsched.cli.main(argv)
        except Exception:
            result.wall = time.perf_counter() - t0
            result.error = traceback.format_exc()
            return result
        result.wall = time.perf_counter() - t0
        if rc != 0:
            result.error = f"exit code {rc}"
            return result
        try:
            self._inspect(result, out)
        except (OSError, ValueError, KeyError) as e:
            result.error = f"missing or unreadable artifacts: {type(e).__name__}: {e}"
        return result

    def _inspect(self, result, out):
        for name in self.workload.artifacts:
            data = (out / name).read_bytes()
            result.digests[name] = hashlib.sha256(data).hexdigest()
            result.artifact_bytes += len(data)
        payload = json.loads((out / "solution.json").read_text())
        solve = payload["solve"]
        result.objective = payload["objective"]
        result.counts = {k: solve[k] for k in ("iterations", "nodes", "n_cols", "n_rows")}
        if payload["status"] != "optimal":
            result.error = f"status {payload['status']}"
        elif _rel_diff(payload["objective"], payload["evaluated_cost"]) > REL_TOL:
            result.error = (f"objective {payload['objective']!r} != evaluated cost "
                            f"{payload['evaluated_cost']!r}")

    def run_rounds(self, seconds, tracer=None):
        """Whole rounds until the time is used; the last may overrun it by
        at most half a round.  Returns one list of passes per round."""
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append([self.run_pass(i, tracer) for i in range(self.workload.instances)])
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / len(rounds) > seconds:
                return rounds

    def verify(self):
        """Checks that need more than one pass or a reference solve.

        Repeats instance 0 if it ran only once, then compares digests and
        counts within the run and with earlier runs of this seed on the same
        program source, and each objective with scipy's HiGHS on the same
        built problem.
        """
        if all(p.instance != 0 for p in self.passes[1:]):
            self.run_pass(0)
        by_instance = {}
        for p in self.passes:
            by_instance.setdefault(p.instance, []).append(p)

        kind = "smoke" if self.smoke else "full"
        record_path = OUT / "counts" / f"{self.name}-{kind}-seed{self.seed}-{program_digest()}.json"
        previous = json.loads(record_path.read_text()) if record_path.exists() else {}
        record = {}
        for instance, passes in sorted(by_instance.items()):
            good = [p for p in passes if p.error is None]
            if not good:
                continue
            first = good[0]
            record[str(instance)] = {"counts": first.counts, "digests": first.digests}
            for p in good[1:]:
                if (p.counts, p.digests) != (first.counts, first.digests):
                    p.error = f"counts or digests differ from pass {first.pass_id}"
            earlier = previous.get(str(instance))
            if earlier is not None and earlier != record[str(instance)]:
                for p in good:
                    p.error = p.error or "counts or digests differ from an earlier run of this seed"
            try:
                reference = self.reference_objective(instance)
            except RuntimeError as e:
                for p in good:
                    p.error = p.error or str(e)
                continue
            for p in good:
                if p.error is None and _rel_diff(p.objective, reference) > REL_TOL:
                    p.error = f"objective {p.objective!r} != HiGHS reference {reference!r}"
        if not any(p.error for p in self.passes):
            record_path.parent.mkdir(parents=True, exist_ok=True)
            record_path.write_text(json.dumps(previous | record, sort_keys=True, indent=1) + "\n")
        return record

    def reference_objective(self, instance):
        from mgsched.config_io import load_config
        from mgsched.experiments import RunManifest, prepare_scenarios
        from mgsched.formulation import FormulationOptions, build

        wl = self.workload
        manifest = RunManifest(
            config_path=str(wl.config), generation=str(wl.genspec),
            generate_count=wl.generate, keep=wl.keep, seed=self.instance_seed(instance),
            options=FormulationOptions(exclusivity_binaries=wl.exclusivity),
        )
        config = load_config(manifest.config_path)
        scenarios, _, _ = prepare_scenarios(manifest, config)
        problem, _ = build(config, scenarios, manifest.options)
        return highs_objective(problem)


def program_digest():
    """Short sha256 over the program's source files."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mgsched").rglob("*.py")):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def highs_objective(problem):
    """Optimal objective of an mgsched LpProblem as solved by scipy's HiGHS:
    linprog for LPs, milp when the problem has binary columns."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    c = problem.objective
    A = problem.matrix_csc().tocsr()
    lo, hi = problem.row_bounds()
    col_lo, col_hi = problem.lower_inf(), problem.upper_inf()
    if problem.binary_cols:
        integrality = np.zeros(problem.n_cols)
        integrality[sorted(problem.binary_cols)] = 1
        res = milp(c, constraints=LinearConstraint(A, lo, hi), integrality=integrality,
                   bounds=Bounds(col_lo, col_hi), options={"mip_rel_gap": 1e-9})
    else:
        eq = lo == hi
        upper = ~eq & np.isfinite(hi)
        lower = ~eq & np.isfinite(lo)
        a_ub = sp.vstack([A[upper], -A[lower]]) if upper.any() or lower.any() else None
        b_ub = np.concatenate([hi[upper], -lo[lower]]) if a_ub is not None else None
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=A[eq] if eq.any() else None,
                      b_eq=lo[eq] if eq.any() else None,
                      bounds=np.column_stack([col_lo, col_hi]), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import mgsched.cli
from mgsched.config_io import load_config, load_generation_spec
load_config(sys.argv[1])
load_generation_spec(sys.argv[2])
print(time.perf_counter() - t0)
"""


def measure_setup(workload):
    """Seconds to import mgsched.cli and ingest the workload's config and
    genspec, each sample in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(workload.config), str(workload.genspec)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def round_wall(rounds):
    """Median over rounds of the mean pass time within a round."""
    return statistics.median(statistics.fmean(p.wall for p in r) for r in rounds)


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "mgsched" / "cli.py").is_file():
        print(f"error: {SRC / 'mgsched'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mgsched.cli  # noqa: F401  (imported before timing)

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    runner = Runner(args.workload, workload, args.seed, args.smoke)
    facts = machine_facts()
    result = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "machine": facts}

    if args.trace:
        untraced = runner.run_rounds(args.seconds / 2)
        with Tracer() as tracer:
            traced = runner.run_rounds(args.seconds / 2, tracer)
    else:
        setup = measure_setup(workload)
        untraced = runner.run_rounds(args.seconds)
        # read before verify(), whose reference solves are not part of a pass
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = runner.verify()

    attempted = len(runner.passes)
    failed = sum(p.error is not None for p in runner.passes)
    wall = round_wall(untraced)
    n_wall = sum(len(r) for r in untraced)
    if args.trace:
        selfs = self_times(tracer.spans)
        per_round = [layer_metrics(tracer.spans, selfs, [p.pass_id for p in r]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics["experiments.artifact_bytes"] = statistics.median(
            statistics.fmean(p.artifact_bytes for p in r) for r in traced)
        metrics["trace.wall_s"] = round_wall(traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        result["spans"] = tracer.to_json()
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        result["setup_samples"] = setup
    units = metric_units()

    result.update(metrics=metrics, passes=[vars(p) for p in runner.passes],
                  instances=record, wall_s_untraced=wall)
    OUT.mkdir(exist_ok=True)
    kind = "smoke" if args.smoke else "full"
    out_file = OUT / f"result-{args.workload}-{kind}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str) + "\n")

    for p in runner.passes:
        if p.error:
            print(f"pass {p.pass_id} (instance {p.instance}) failed: {p.error}", file=sys.stderr)
    print(f"machine: {json.dumps(facts)}")
    for instance, entry in record.items():
        print(f"instance {instance} (seed {runner.instance_seed(int(instance))}): "
              f"{json.dumps(entry['counts'])} {json.dumps(entry['digests'])}")
    print(f"wall_s: {wall:.4f} s (median over {len(untraced)} rounds of "
          f"{workload.instances} passes; {n_wall} passes)")
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} passes)")
    for k, v in metrics.items():
        print(f"{k}: {v:.6g} {units[k]}")
    print(f"full result: {out_file}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
