"""Command-line front end.

Subcommands: run, sweep-solar, sweep-window, compare, export-mps, and
scenarios generate|reduce.  Runs are described by a JSON manifest
(--manifest) or assembled from flags; flags override manifest fields.
Exit codes: 0 optimal, 2 ingestion failure (an invalid config included)
or usage error, 3 infeasible, 4 solver limit, 5 unbounded, 6 numerical
failure in the solver or in the post-solve balance and storage checks.
`run` writes a solution.json and `compare` a compare.json for each
outcome; on 3-6 it holds the status and what went wrong.
The MGS_LOG environment variable (debug/info/warning/error) controls
verbosity.
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from . import scenario as scn
from .config_io import IngestError, load_config, load_generation_spec, read_json
from .experiments import (
    RunManifest,
    SolveFailure,
    _write_json,
    generate_scenarios,
    load_scenario_set,
    prepare_scenarios,
    run_compare,
    run_single,
    run_solar_sweep,
    run_window_sweep,
    write_problem_mps,
)

log = logging.getLogger("mgsched")

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4
EXIT_UNBOUNDED = 5
EXIT_NUMERICAL = 6

# SolveFailure.status -> (exit code, stderr prefix)
_FAILURES = {"infeasible": (EXIT_INFEASIBLE, "infeasible"), "limit": (EXIT_LIMIT, "solver limit"),
             "unbounded": (EXIT_UNBOUNDED, "unbounded"),
             "numerical": (EXIT_NUMERICAL, "numerical failure")}


def _setup_logging():
    level = os.environ.get("MGS_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _absolute(path):
    return str(Path(path).absolute())


def _run_flags():
    """The flags every run-like subcommand shares, as an argparse parent."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--manifest", help="JSON run manifest")
    p.add_argument("--config", type=_absolute,
                   help="microgrid config JSON (overrides manifest)")
    p.add_argument("--genspec", type=_absolute,
                   help="generation spec JSON (overrides manifest)")
    p.add_argument("--seed", type=int, help="RNG seed override")
    p.add_argument("--out", type=_absolute, help="output directory")
    p.add_argument("--generate", type=int, help="number of scenarios to generate")
    p.add_argument("--keep", type=int, help="scenarios to keep after reduction")
    p.add_argument("--stage-mode", choices=("fully-adaptive", "day-ahead-chp"))
    p.add_argument("--exclusivity", action="store_true",
                   help="forbid simultaneous charge and discharge via binaries")
    p.add_argument("--curtailment-penalty", type=float,
                   help="enable a penalized spill column at this price")
    p.add_argument("--write-mps", action="store_true", help="also write problem.mps")
    return p


def _list_of(kind, form):
    """An argparse type for comma-separated `kind` values; `form` names them."""
    def parse(text):
        try:
            return [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return parse


def _manifest_from_args(args) -> RunManifest:
    """Merge the flags over the manifest JSON (formulation flags field by
    field) and parse the result once, so a bad flag fails ingestion just
    as the same manifest field does.  Flag paths are absolute, so they
    resolve against the working directory."""
    if args.manifest:
        path = Path(args.manifest)
        data, base_dir = read_json(path), path.parent
    elif args.config and args.genspec:
        data, base_dir = {}, "."
    else:
        raise IngestError("need --manifest, or both --config and --genspec")

    def merge(doc, fields):
        if not isinstance(doc, dict):
            return doc  # left for the parser to reject
        return {**doc, **{k: v for k, v in fields.items() if v is not None}}

    data = merge(data, {
        "config": args.config,
        "generation": args.genspec,
        "seed": args.seed,
        "out": args.out,
        "generate": args.generate,
        "keep": args.keep,
        "levels": getattr(args, "levels", None),
        "widths": getattr(args, "widths", None),
        "write_mps": args.write_mps or None,
    })
    if isinstance(data, dict):
        data["formulation"] = merge(data.get("formulation", {}), {
            "stage_mode": args.stage_mode,
            "exclusivity_binaries": args.exclusivity or None,
            "curtailment_penalty": args.curtailment_penalty,
        })
    return RunManifest.from_dict(data, base_dir)


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="mgs", description="Stochastic microgrid scheduling toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_flags = [_run_flags()]

    sub.add_parser("run", parents=run_flags, help="solve one instance and write artifacts")
    p_solar = sub.add_parser("sweep-solar", parents=run_flags,
                             help="cost versus solar penetration level")
    p_solar.add_argument("--levels", type=_list_of(float, "comma-separated numbers"),
                         help="comma-separated multipliers, ascending")

    p_window = sub.add_parser("sweep-window", parents=run_flags,
                              help="cost versus serving-window width")
    p_window.add_argument("--widths", type=_list_of(int, "comma-separated integers"),
                          help="comma-separated widths, ascending")

    sub.add_parser("compare", parents=run_flags,
                   help="stochastic versus deterministic baseline")
    sub.add_parser("export-mps", parents=run_flags, help="write the problem in MPS format")

    p_scen = sub.add_parser("scenarios", help="scenario utilities")
    scen_sub = p_scen.add_subparsers(dest="scen_command", required=True)
    p_gen = scen_sub.add_parser("generate", help="draw a Monte Carlo scenario set")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--genspec", required=True)
    p_gen.add_argument("--generate", type=int, default=3000)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True, help="output directory (CSV bundle + JSON)")
    p_red = scen_sub.add_parser("reduce", help="fast-forward reduce a scenario set")
    p_red.add_argument("--input", required=True, help="CSV bundle directory or JSON file")
    p_red.add_argument("--keep", type=int, required=True)
    p_red.add_argument("--out", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # usage error (2) or --help (0)
        return e.code
    try:
        return _dispatch(args)
    except IngestError as e:
        log.error("ingestion failed: %s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INGEST
    except SolveFailure as e:
        log.error("%s", e)
        code, prefix = _FAILURES[e.status]
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


def _dispatch(args) -> int:
    if args.command == "scenarios":
        return _dispatch_scenarios(args)
    manifest = _manifest_from_args(args)
    if args.command == "run":
        payload = run_single(manifest)
        print(f"status: {payload['status']}  objective: {payload['objective']:.6f}")
        print(f"artifacts in {manifest.out_dir}")
        return EXIT_OK

    if args.command == "sweep-solar":
        rows = run_solar_sweep(manifest)
        for level, st, det in rows:
            print(f"level {level:g}: stochastic {st:.6f}  deterministic {det:.6f}")
        print(f"wrote {Path(manifest.out_dir) / 'solar_sweep.csv'}")
        return EXIT_OK

    if args.command == "sweep-window":
        rows = run_window_sweep(manifest)
        for width, cost, status in rows:
            label = f"{cost:.6f}" if status == "optimal" else status
            print(f"width {width}: {label}")
        print(f"wrote {Path(manifest.out_dir) / 'window_sweep.csv'}")
        return EXIT_OK

    if args.command == "compare":
        result = run_compare(manifest)
        print(f"stochastic cost:           {result['stochastic_cost']:.6f}")
        print(f"deterministic policy cost: {result['deterministic_policy_cost']:.6f}")
        print(f"value of stochastic solution: {result['vss']:.6f}")
        return EXIT_OK

    if args.command == "export-mps":
        config = load_config(manifest.config_path)
        scenarios, _, _ = prepare_scenarios(manifest, config)
        path = Path(manifest.out_dir) / "problem.mps"
        problem = write_problem_mps(config, scenarios, manifest.options, path)
        print(f"wrote {path} ({problem.n_rows} rows, {problem.n_cols} cols)")
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command}")


def _dispatch_scenarios(args) -> int:
    if args.scen_command == "generate":
        config = load_config(args.config)
        sset = generate_scenarios(load_generation_spec(args.genspec), config, args.generate,
                                  args.seed)
        out = Path(args.out)
        scn.save_csv_bundle(sset, out)
        scn.save_json(sset, out / "scenarios.json")
        print(f"wrote {len(sset)} scenarios to {out}")
        return EXIT_OK

    if args.scen_command == "reduce":
        sset = load_scenario_set(args.input)
        try:
            reduced, report = scn.reduce_fast_forward(sset, args.keep)
        except ValueError as e:
            raise IngestError(str(e)) from e
        out = Path(args.out)
        scn.save_csv_bundle(reduced, out)
        scn.save_json(reduced, out / "scenarios.json")
        _write_json(out / "reduction_report.json", report.to_dict())
        print(f"kept {len(reduced)} of {len(sset)} scenarios; "
              f"distance {report.kantorovich_distance:.6g}")
        return EXIT_OK
    raise AssertionError(f"unhandled scenarios subcommand {args.scen_command}")


if __name__ == "__main__":
    sys.exit(main())
