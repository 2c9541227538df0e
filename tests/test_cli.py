import dataclasses
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mgsched import model
from mgsched import scenario as scn
from mgsched.cli import main
from mgsched.lpcore import LpError, LpSolution, solve_milp
from test_experiments import write_inputs

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
SWEEP = {"config": "config.json", "generation": "gen.json", "generate": 4, "keep": 2,
         "levels": [1.0]}


def test_run_exits_zero_and_writes_artifacts(tmp_path, capsys):
    config, gen = write_inputs(tmp_path)
    code = main(["run", "--config", str(config), "--genspec", str(gen),
                 "--generate", "20", "--keep", "3", "--seed", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "solution.json").exists()
    assert (tmp_path / "out" / "balance_report.json").exists()
    assert "optimal" in capsys.readouterr().out


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--genspec", str(tmp_path / "nope2.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_flags_without_manifest_require_both_inputs(tmp_path):
    assert main(["run", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--parking-mode", "decision-binary"], "unrecognized arguments: --parking-mode"),
    (["--curtailment-penalty", "0.01"], "highest purchase price"),
    (["--keep", "0"], "'keep' must be >= 1"),
    (["--keep", "-3"], "'keep' must be >= 1"),
    (["--generate", "0"], "'generate' must be >= 1"),
    (["--seed", "-1"], "'seed' must be >= 0"),
    (["--curtailment-penalty", "nan"], "curtailment_penalty must be a finite number"),
], ids=["parking-mode-flag", "penalty-below-price", "keep-0", "keep-negative",
        "generate-0", "seed-negative", "penalty-nan"])
def test_bad_run_flags_exit_two(tmp_path, capsys, flags, message):
    # flags go through the same parser as manifest fields
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--genspec", str(gen), "--generate", "4",
                 "--keep", "2", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["sweep-window", "--widths", "2,x"], 2),
    ([], 2),
    (["--help"], 0),
    (["run", "--help"], 0),
], ids=["width-not-a-number", "no-command", "help", "run-help"])
def test_usage_errors_return_two_and_help_returns_zero(capsys, argv, code):
    # argparse's exit status comes back from main instead of escaping as SystemExit
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "usage: mgs" in (err if code else out)


@pytest.mark.parametrize("argv, message", [
    (["sweep-solar", "--levels", "x"],
     "argument --levels: expected comma-separated numbers, got 'x'"),
    (["sweep-window", "--widths", "2,4.5"],
     "argument --widths: expected comma-separated integers, got '2,4.5'"),
], ids=["level-not-a-number", "width-not-an-integer"])
def test_list_flag_usage_error_names_the_expected_form(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("document, flags, names", [
    ([], [], "manifest"),
    ({"config": "config.json", "generation": "gen.json", "keep": "many"}, [], "keep"),
    ({"config": "config.json", "generation": "gen.json", "levels": ["low"]}, [], "levels[0]"),
    ({"config": "config.json", "generation": "gen.json", "formulation": [1]},
     ["--exclusivity"], "formulation"),
    # each of these is otherwise a valid sweep that runs
    ({**SWEEP, "formulation": {"exclusivity_binaries": "false"}}, [], "exclusivity_binaries"),
    ({**SWEEP, "formulation": {"curtailment_penalty": "5"}}, [], "curtailment_penalty"),
    ({**SWEEP, "formulation": {"curtailment_penalty": True}}, [], "curtailment_penalty"),
    ({**SWEEP, "formulation": {"parking_mode": "decision-binary"}}, [], "parking_mode"),
    ({**SWEEP, "solver": {"iteration_limit": "10"}}, [], "iteration_limit"),
    ({**SWEEP, "solver": {"node_limit": -1}}, [], "node_limit"),
    # the NaN and Infinity rows keep their ids from when they set a tolerance
    ({**SWEEP, "solver": {"node_limit": float("nan")}}, [],
     "m.json: invalid JSON: NaN is not"),
    ({**SWEEP, "solver": {"mip_gap": 1e-6}}, [], "solver settings"),  # a removed setting
    ({**SWEEP, "solver": {"feasibility_tol": 1e-7}}, [], "solver settings"),
    ({**SWEEP, "solver": {"optimality_tol": 1e-7}}, [], "solver settings"),
    ({**SWEEP, "solver": {"integrality_tol": 1e-6}}, [], "solver settings"),
    ({**SWEEP, "solver": {"node_limit": float("inf")}}, [],
     "m.json: invalid JSON: Infinity is not"),
    ({**SWEEP, "write_mps": "false"}, [], "write_mps"),
    ({**SWEEP, "seed": -1}, [], "seed"),
    ({**SWEEP, "seed": True}, [], "seed"),
    ({**SWEEP, "generate": "20"}, [], "generate"),
    ({**SWEEP, "keep": 2.9}, [], "keep"),
    ({**SWEEP, "widths": ["2", 4]}, [], "widths[0]"),
    ({**SWEEP, "widths": [2, 4.5]}, [], "widths[1]"),
    ({**SWEEP, "levels": ["0.5", 1.0]}, [], "levels[0]"),
    ({**SWEEP, "levels": [0.5, True]}, [], "levels[1]"),
], ids=["not-an-object", "keep-not-a-number", "level-not-a-number", "formulation-not-an-object",
        "exclusivity-string", "penalty-string", "penalty-bool", "parking-mode",
        "iteration-limit-string", "node-limit-negative", "mip-gap-nan", "mip-gap-removed",
        "feasibility-tol-removed", "optimality-tol-removed", "integrality-tol-removed",
        "feasibility-tol-infinity", "write-mps-string", "seed-negative", "seed-bool",
        "generate-string", "keep-fraction", "width-string", "width-fraction", "level-string",
        "level-bool"])
def test_malformed_manifest_exits_two(tmp_path, capsys, document, flags, names):
    write_inputs(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(document))
    assert main(["sweep-solar", "--manifest", str(tmp_path / "m.json"), *flags,
                 "--out", str(tmp_path / "out")]) == 2
    assert names in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


CONFIG, GENSPEC = DEMO_DATA / "config.json", DEMO_DATA / "genspec.json"
RUN_MANIFEST = ["run", "--manifest", "m.json"]


def _manifest(**fields):
    return {"m.json": {"config": str(CONFIG), "generation": str(GENSPEC), "generate": 4,
                       "keep": 2, **fields}}


DEMO_CONFIG, DEMO_GENSPEC = json.loads(CONFIG.read_text()), json.loads(GENSPEC.read_text())
SMALL_RUN = ["--generate", "4", "--keep", "2", "--out", "out"]
RUN_CONFIG = ["run", "--config", "config.json", "--genspec", str(GENSPEC), *SMALL_RUN]
RUN_GENSPEC = ["run", "--config", str(CONFIG), "--genspec", "gen.json", *SMALL_RUN]


def _config(**fields):
    return {"config.json": {**DEMO_CONFIG, **fields}}


def _genspec(**fields):
    return {"gen.json": {**DEMO_GENSPEC, **fields}}


# documents of the wrong JSON type, then documents that parse but fail a check
@pytest.mark.parametrize("files, argv, message", [
    ({"gen.json": []}, ["run", "--config", str(CONFIG), "--genspec", "gen.json"],
     "generation spec: expected an object"),
    ({"config.json": {**json.loads(CONFIG.read_text()), "tariff": 5}},
     ["run", "--config", "config.json", "--genspec", str(GENSPEC)],
     "tariff: expected an object"),
    (_manifest(out=5), RUN_MANIFEST, "out: expected a path"),
    (_manifest(config=5), RUN_MANIFEST, "config: expected a path"),
    (_manifest(scenarios=5), RUN_MANIFEST, "scenarios: expected a path"),
    (_manifest(generation=5), RUN_MANIFEST, "generation spec: expected an object"),
    ({**_manifest(scenarios="s.json"), "s.json": {"scenarios": 5}}, RUN_MANIFEST,
     "scenarios: expected a list"),
    ({"s.json": {"scenarios": 5}}, ["scenarios", "reduce", "--input", "s.json", "--keep", "2",
                                    "--out", "out"], "scenarios: expected a list"),
    (_manifest(levels=5), RUN_MANIFEST, "levels: expected a list"),
    (_config(horizon=0), RUN_CONFIG, "horizon must be >= 1"),
    (_config(period_hours=0), RUN_CONFIG, "period_hours must be > 0"),
    (_config(tariff={**DEMO_CONFIG["tariff"], "price_buy": [0.1] * 23}), RUN_CONFIG,
     "tariff.price_buy must have length 24"),
    (_config(base_power=[100.0] * 23), RUN_CONFIG, "base_power must have length 24"),
    (_genspec(solar_noise_model="gaussian"), RUN_GENSPEC, "unknown noise model"),
    (_genspec(solar_sigma=-0.1), RUN_GENSPEC, "solar_sigma must be >= 0"),
    (_genspec(solar_profile_mean=[-1.0] * 24), RUN_GENSPEC,
     "solar_profile_mean must be nonnegative"),
    (_genspec(solar_noise_model="empirical"), RUN_GENSPEC,
     "empirical noise model needs solar_samples"),
    (_genspec(solar_noise_model="empirical", solar_samples=[[1.0] * 23]), RUN_GENSPEC,
     "solar_samples rows must have length T"),
    (_genspec(deferrable_energy_spread=[0.1] * 9), RUN_GENSPEC,
     "deferrable_energy_spread must have length"),
    ({"m.json": {"generation": str(GENSPEC)}}, RUN_MANIFEST,
     "missing required field 'config'"),
    ({"m.json": {"config": str(CONFIG)}}, RUN_MANIFEST,
     "needs either 'generation' or 'scenarios'"),
], ids=["genspec-list", "tariff-number", "manifest-out", "manifest-config",
        "manifest-scenarios", "manifest-generation", "scenario-set-via-manifest",
        "scenario-set-via-reduce", "manifest-levels", "horizon-0", "period-hours-0",
        "price-buy-23", "base-power-23", "noise-model", "solar-sigma-negative",
        "solar-mean-negative", "empirical-without-samples", "samples-23", "spread-9",
        "manifest-without-config", "manifest-without-scenarios"])
def test_document_of_the_wrong_json_type_exits_two(tmp_path, monkeypatch, capsys, files, argv,
                                                   message):
    # every run writes to tmp_path/out unless it fails at ingestion
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, length", [
    ("solar_profile_mean", 23), ("deferrable_energy_mean", 7),
], ids=["solar-23", "deferrable-7"])
def test_generation_spec_that_does_not_fit_the_config_exits_two(tmp_path, capsys, field,
                                                                length):
    spec = json.loads((DEMO_DATA / "genspec.json").read_text())
    spec[field] = [1.0] * length
    (tmp_path / "gen.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", "--config", str(DEMO_DATA / "config.json"),
                 "--genspec", str(tmp_path / "gen.json"), "--generate", "20",
                 "--keep", "2", "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_manifest_paths_resolve_against_the_manifest_and_flag_paths_against_cwd(
        tmp_path, monkeypatch):
    # an inline generation object's csv reference sits next to the manifest;
    # --out is relative to the working directory, as every flag path is
    runs = tmp_path / "runs"
    runs.mkdir()
    write_inputs(runs)
    spec = json.loads((runs / "gen.json").read_text())
    (runs / "solar.csv").write_text(
        "mean\n" + "".join(f"{v!r}\n" for v in spec["solar_profile_mean"]))
    spec["solar_profile_mean"] = {"csv": "solar.csv"}
    manifest = {"config": "config.json", "generation": spec, "generate": 4, "keep": 2}
    (runs / "m.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--manifest", "runs/m.json", "--out", "here"]) == 0
    assert (tmp_path / "here" / "solution.json").exists()


def test_infeasible_instance_exits_three(tmp_path, capsys):
    config = {
        "horizon": 2,
        "solar_capacity": 0.0,
        "chp_units": [],
        "phevs": [],
        "deferrables": [],
        "tariff": {"price_buy": [0.1, 0.1], "price_sell": [0.08, 0.08],
                   "exchange_cap": [10.0, 10.0]},
        "base_power": [100.0, 100.0],
        "base_heat": [0.0, 0.0],
    }
    gen = {"solar_profile_mean": [0.0, 0.0]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    code = main(["run", "--config", str(tmp_path / "config.json"),
                 "--genspec", str(tmp_path / "gen.json"), "--generate", "2",
                 "--keep", "2", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "bal_" in err  # names the violated balance rows
    report = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert report["status"] == "infeasible"
    assert any(r.startswith("bal_") for r in report["infeasible_rows"])


@pytest.mark.parametrize("n_scenarios", [1, 2])
def test_curtailed_run_prices_and_checks_the_spill(tmp_path, n_scenarios):
    # CHP must run at >= 80 kW against a 10 kW load and a 5 kW sell cap, so
    # 65 kW is spilled in every period: the joint (S=1) and decomposed (S=2)
    # paths must both balance, check clean and price the spill
    config = {
        "horizon": 2,
        "solar_capacity": 0.0,
        "chp_units": [{"p_min": 80.0, "p_max": 100.0, "alpha": 1.0, "cost_per_kwh": 0.01}],
        "phevs": [],
        "deferrables": [],
        "tariff": {"price_buy": [0.1, 0.1], "price_sell": [0.05, 0.05],
                   "exchange_cap": [5.0, 5.0]},
        "base_power": [10.0, 10.0],
        "base_heat": [0.0, 0.0],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "gen.json").write_text(json.dumps({"solar_profile_mean": [0.0, 0.0]}))
    S = str(n_scenarios)
    code = main(["run", "--config", str(tmp_path / "config.json"),
                 "--genspec", str(tmp_path / "gen.json"), "--generate", S, "--keep", S,
                 "--curtailment-penalty", "5", "--out", str(tmp_path / "out")])
    assert code == 0
    solution = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert solution["solve"]["decomposed"] == (n_scenarios > 1)
    assert solution["objective"] == pytest.approx(651.1, abs=1e-9)
    assert solution["evaluated_cost"] == pytest.approx(solution["objective"], abs=1e-9)
    assert solution["solve"]["max_row_violation"] <= 1e-9
    assert solution["schedule"]["curtail"] == [[65.0] * n_scenarios] * 2


def run_on_scenario_file(tmp_path, scenarios_path):
    config, _ = write_inputs(tmp_path)
    manifest = {"config": str(config), "scenarios": str(scenarios_path), "keep": 2,
                "out": str(tmp_path / "out")}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return main(["run", "--manifest", str(tmp_path / "m.json")])


def test_invalid_loaded_scenarios_exit_two(tmp_path, capsys):
    config, gen = write_inputs(tmp_path)
    assert main(["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
                 "--generate", "4", "--out", str(tmp_path / "bundle")]) == 0
    data = json.loads((tmp_path / "bundle" / "scenarios.json").read_text())
    data["scenarios"][1]["parking"][0][0] = 0.5
    data["scenarios"][1]["solar"][0] = -1.0
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert run_on_scenario_file(tmp_path, tmp_path / "bad.json") == 2
    err = capsys.readouterr().err
    assert "scenario 1" in err and "negative" in err and "0 or 1" in err
    assert not (tmp_path / "out" / "solution.json").exists()


@pytest.mark.parametrize("via", ["scenarios-reduce", "manifest-scenarios"])
def test_negative_scenario_probability_exits_two(tmp_path, capsys, via):
    # the scenario set rejects it while loading, before any validation
    config, gen = write_inputs(tmp_path)
    assert main(["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
                 "--generate", "4", "--out", str(tmp_path / "bundle")]) == 0
    data = json.loads((tmp_path / "bundle" / "scenarios.json").read_text())
    for entry, p in zip(data["scenarios"], [0.5, 0.25, 0.5, -0.25]):
        entry["probability"] = p
    (tmp_path / "bad.json").write_text(json.dumps(data))
    capsys.readouterr()
    if via == "scenarios-reduce":
        code = main(["scenarios", "reduce", "--input", str(tmp_path / "bad.json"),
                     "--keep", "2", "--out", str(tmp_path / "out")])
    else:
        code = run_on_scenario_file(tmp_path, tmp_path / "bad.json")
    assert code == 2
    assert "scenario probabilities must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_genspec_infinity_exits_two(tmp_path, capsys):
    spec = json.loads((DEMO_DATA / "genspec.json").read_text())
    spec["solar_sigma"] = float("inf")
    (tmp_path / "gen.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", "--config", str(DEMO_DATA / "config.json"),
                 "--genspec", str(tmp_path / "gen.json"), "--generate", "20",
                 "--keep", "2", "--out", str(out)]) == 2
    assert "gen.json: invalid JSON: Infinity is not a JSON number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["scenarios-reduce", "manifest-scenarios"])
def test_nan_in_scenario_file_exits_two(tmp_path, capsys, via):
    # a NaN solar entry once passed loading and failed reduction on the probabilities
    config, gen = write_inputs(tmp_path)
    assert main(["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
                 "--generate", "4", "--out", str(tmp_path / "bundle")]) == 0
    data = json.loads((tmp_path / "bundle" / "scenarios.json").read_text())
    data["scenarios"][2]["solar"][1] = float("nan")
    (tmp_path / "bad.json").write_text(json.dumps(data))
    capsys.readouterr()
    if via == "scenarios-reduce":
        code = main(["scenarios", "reduce", "--input", str(tmp_path / "bad.json"),
                     "--keep", "2", "--out", str(tmp_path / "out")])
    else:
        code = run_on_scenario_file(tmp_path, tmp_path / "bad.json")
    assert code == 2
    assert "bad.json: NaN is not a JSON number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_scenario_file_exits_two(tmp_path, capsys):
    assert run_on_scenario_file(tmp_path, tmp_path / "nope.json") == 2
    assert "nope.json" in capsys.readouterr().err


def test_solver_limit_exits_four(tmp_path):
    config, gen = write_inputs(tmp_path)
    manifest = {
        "config": str(config),
        "generation": str(gen),
        "generate": 10,
        "keep": 2,
        "out": str(tmp_path / "out"),
        "solver": {"iteration_limit": 1},
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert main(["run", "--manifest", str(tmp_path / "m.json")]) == 4


def _raise_basis_failure(problem, settings=None, basis=None):
    raise LpError("basis factorization failed")


@pytest.mark.parametrize("fake_solve, code, status, message", [
    (lambda problem, settings=None, basis=None: LpSolution(status="limit"), 4, "limit",
     "limit reached"),
    (lambda problem, settings=None, basis=None: LpSolution(status="unbounded"), 5, "unbounded",
     "unbounded"),
    (_raise_basis_failure, 6, "numerical", "basis factorization failed"),
], ids=["limit", "unbounded", "numerical"])
def test_solver_failure_exit_code_and_artifact(tmp_path, monkeypatch, capsys,
                                               fake_solve, code, status, message):
    monkeypatch.setattr("mgsched.experiments.solve_lp", fake_solve)
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "solution.json").write_text('{"status": "optimal"}\n')  # from an earlier run
    stale = ("balance_report.json", "problem.mps", "trace.json")
    for name in stale:
        (out / name).write_text("from an earlier run\n")
    assert main(["run", "--config", str(config), "--genspec", str(gen), "--generate", "10",
                 "--keep", "2", "--out", str(out), "--write-mps"]) == code
    assert message in capsys.readouterr().err
    report = json.loads((out / "solution.json").read_text())
    assert report["status"] == status
    assert message in report["message"]
    assert not (out / "solution.json.tmp").exists()
    assert not any((out / name).exists() for name in stale)


def test_config_failing_validation_exits_two(tmp_path, capsys):
    config = json.loads((DEMO_DATA / "config.json").read_text())
    config["chp_units"][0]["p_min"] = -5
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--genspec", str(DEMO_DATA / "genspec.json"), "--generate", "4",
                 "--keep", "2", "--out", str(out)]) == 2
    assert "invalid config: chp[0]: need 0 <= p_min <= p_max" in capsys.readouterr().err
    assert not out.exists()


def _run_mgs(*argv, **kwargs):
    """`mgs` in a fresh interpreter at the default log level."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("MGS_LOG", None)
    return subprocess.run([sys.executable, "-m", "mgsched.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, **kwargs)


def test_config_warning_is_logged_and_the_run_goes_on(tmp_path):
    config = json.loads((DEMO_DATA / "config.json").read_text())
    config["tariff"]["price_sell"] = [p + 0.01 for p in config["tariff"]["price_buy"]]
    (tmp_path / "config.json").write_text(json.dumps(config))
    done = _run_mgs("run", "--config", str(tmp_path / "config.json"),
                    "--genspec", str(DEMO_DATA / "genspec.json"), "--generate", "4",
                    "--keep", "2", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert (f"WARNING mgsched.config_io: {tmp_path / 'config.json'}: price_sell exceeds "
            "price_buy in some period") in done.stderr
    assert "(SELL_ABOVE_BUY)" in done.stderr


@pytest.mark.parametrize("breaker, message", [
    (lambda c: c["phevs"][0].update(count="abc"), "phevs[0].count: expected an integer"),
    (lambda c: c.update(horizon="x"), "horizon: expected an integer"),
    (lambda c: c["phevs"][0].update(e_min="4"), "phevs[0].e_min: expected a number"),
    (lambda c: c["chp_units"][0].update(p_max=None), "chp_units[0].p_max: expected a number"),
    (lambda c: c["tariff"]["price_buy"].__setitem__(3, float("nan")),
     "config.json: invalid JSON: NaN is not a JSON number"),
    (lambda c: c["base_heat"].__setitem__(3, float("nan")),
     "config.json: invalid JSON: NaN is not a JSON number"),
    (lambda c: c.update(solar_capacity=float("nan")),
     "config.json: invalid JSON: NaN is not a JSON number"),
    # Python's json module writes and reads these constants; JSON has none
    (lambda c: c["tariff"]["price_buy"].__setitem__(3, float("inf")),
     "config.json: invalid JSON: Infinity is not a JSON number"),
    (lambda c: c["base_power"].__setitem__(0, float("inf")),
     "config.json: invalid JSON: Infinity is not a JSON number"),
    (lambda c: c["tariff"]["exchange_cap"].__setitem__(5, float("inf")),
     "config.json: invalid JSON: Infinity is not a JSON number"),
    (lambda c: c["phevs"][0].update(e_max=float("inf")),
     "config.json: invalid JSON: Infinity is not a JSON number"),
    (lambda c: c.update(solar_capacity=float("inf")),
     "config.json: invalid JSON: Infinity is not a JSON number"),
    (lambda c: c.update(solar_capacity=-float("inf")),
     "config.json: invalid JSON: -Infinity is not a JSON number"),
], ids=["count-string", "horizon-string", "e_min-string", "p_max-null", "price_buy-nan",
        "base_heat-nan", "solar_capacity-nan", "price_buy-infinity", "base_power-infinity",
        "exchange_cap-infinity", "e_max-infinity", "solar_capacity-infinity",
        "solar_capacity-minus-infinity"])
def test_config_value_of_the_wrong_type_or_nan_exits_two(tmp_path, capsys, breaker, message):
    config = json.loads((DEMO_DATA / "config.json").read_text())
    breaker(config)
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--genspec", str(DEMO_DATA / "genspec.json"), "--generate", "20",
                 "--keep", "2", "--seed", "3", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("csv_text, reference, message", [
    ("", {"csv": "series.csv"}, "series.csv: empty CSV"),
    ("base\n1\n", {"column": "base"}, "base_power: csv reference needs a 'csv' key"),
    ("a,b\n1,2\n", {"csv": "series.csv"}, "series.csv: multiple columns, specify one of"),
    ("a,b\n1,2\n3,x\n", {"csv": "series.csv", "column": "b"},
     "series.csv: bad numeric data in column 'b'"),
], ids=["empty", "no-csv-key", "no-column-of-several", "non-numeric-cell"])
def test_bad_csv_series_reference_exits_two(tmp_path, capsys, csv_text, reference, message):
    config = json.loads((DEMO_DATA / "config.json").read_text())
    config["base_power"] = reference
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "series.csv").write_text(csv_text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--genspec", str(DEMO_DATA / "genspec.json"), "--generate", "4",
                 "--keep", "2", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fleet_count_beyond_memory_exits_two(tmp_path):
    # 10^12 vehicles cannot be allocated; under a 3 GiB address-space limit
    # no allocation of that size can succeed, whatever the machine
    config = json.loads((DEMO_DATA / "config.json").read_text())
    config["phevs"][0]["count"] = 10**12
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    limit = 3 << 30
    done = _run_mgs("run", "--config", str(tmp_path / "config.json"),
                    "--genspec", str(DEMO_DATA / "genspec.json"), "--generate", "4", "--keep", "2",
                    "--out", str(out),
                    preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 2, done.stderr
    assert "phevs[0].count: 1000000000000 units do not fit in memory" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_fleet_count_beyond_the_formulation_exits_two_before_allocating(tmp_path, capsys):
    # 10^8 vehicles over 24 periods pass the 2**31 columns a sparse matrix
    # index can hold: rejected before any per-vehicle array exists
    config = json.loads((DEMO_DATA / "config.json").read_text())
    config["phevs"][0]["count"] = 10**8
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(tmp_path / "config.json"),
                     "--genspec", str(DEMO_DATA / "genspec.json"), "--generate", "4",
                     "--keep", "2", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10 * 2**20
    assert "phevs[0].count: 100000000 units do not fit in memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, message", [
    ("sweep-solar", "--levels=-1,0", "levels must be finite and >= 0"),
    ("sweep-solar", "--levels=0,nan", "levels must be finite and >= 0"),
    ("sweep-solar", "--levels=0,inf", "levels must be finite and >= 0"),
    ("sweep-window", "--widths=-3,2", "widths must be >= 1"),
    ("sweep-window", "--widths=0,2", "widths must be >= 1"),
], ids=["level-negative", "level-nan", "level-inf", "width-negative", "width-0"])
def test_bad_sweep_inputs_exit_two(tmp_path, capsys, command, flag, message):
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    assert main([command, flag, "--config", str(config), "--genspec", str(gen),
                 "--generate", "10", "--keep", "2", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _balance_with_a_flag(config, solar, schedule, tol=1e-6):
    return dataclasses.replace(model.check_balance(config, solar, schedule, tol),
                               flags=[(1, 0, "power")])


def _storage_off_by_one(config, charge, discharge, derive=model.derive_storage):
    return derive(config, charge, discharge) + 1.0


def _mode_off_where_charging(problem, settings=None):
    # the real search, then a vehicle's mode binary set to 0 in a period
    # where it charges: its exclusivity row "exc_..." is violated
    sol = solve_milp(problem, settings)
    rows = problem.matrix_csc().tocsr()
    for i, name in enumerate(problem.row_names):
        cols, vals = rows[i].indices, rows[i].data
        if name.startswith("exc_") and sol.x[cols[vals > 0]].max() > 1e-3:
            x = sol.x.copy()
            x[cols[vals < 0]] = 0.0
            return dataclasses.replace(sol, x=x)
    raise AssertionError("no vehicle charges")


@pytest.mark.parametrize("target, fake, flags, message", [
    ("mgsched.experiments.check_balance", _balance_with_a_flag, [], "fails balance check"),
    ("mgsched.model.derive_storage", _storage_off_by_one, [], "disagree with the recursion"),
    # a row that neither the balance nor the storage check reads
    ("mgsched.experiments.solve_milp", _mode_off_where_charging, ["--exclusivity"],
     "fails the point check"),
], ids=["balance", "storage", "point"])
def test_failed_post_solve_check_exits_six(tmp_path, monkeypatch, capsys, target, fake, flags,
                                           message):
    monkeypatch.setattr(target, fake)
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "solution.json").write_text('{"status": "optimal"}\n')  # from an earlier run
    (out / "balance_report.json").write_text("from an earlier run\n")
    assert main(["run", "--config", str(config), "--genspec", str(gen), "--generate", "10",
                 "--keep", "2", *flags, "--out", str(out)]) == 6
    assert message in capsys.readouterr().err
    report = json.loads((out / "solution.json").read_text())
    assert report["status"] == "numerical"
    assert message in report["message"]
    assert not (out / "balance_report.json").exists()


def _solve_hits_limit(problem, settings=None, basis=None):
    return LpSolution(status="limit")


def test_compare_failure_replaces_stale_compare_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("mgsched.experiments.solve_lp", _solve_hits_limit)
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "compare.json").write_text('{"vss": 1.0}\n')  # from an earlier run
    assert main(["compare", "--config", str(config), "--genspec", str(gen), "--generate", "10",
                 "--keep", "2", "--out", str(out)]) == 4
    assert "limit reached" in capsys.readouterr().err
    report = json.loads((out / "compare.json").read_text())
    assert report["status"] == "limit"
    assert "limit reached" in report["message"]
    assert not (out / "compare.json.tmp").exists()


@pytest.mark.parametrize("command, flag, csv", [
    ("sweep-solar", "--levels=0,1", "solar_sweep.csv"),
    ("sweep-window", "--widths=2,4", "window_sweep.csv"),
])
def test_failed_sweep_leaves_no_stale_csv(tmp_path, monkeypatch, command, flag, csv):
    monkeypatch.setattr("mgsched.experiments.solve_lp", _solve_hits_limit)
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / csv).write_text("from,an,earlier,run\n")
    assert main([command, flag, "--config", str(config), "--genspec", str(gen),
                 "--generate", "10", "--keep", "2", "--out", str(out)]) == 4
    assert not (out / csv).exists()


def test_scenarios_generate_and_reduce_round_trip(tmp_path, capsys):
    config, gen = write_inputs(tmp_path)
    code = main(["scenarios", "generate", "--config", str(config),
                 "--genspec", str(gen), "--generate", "30", "--seed", "4",
                 "--out", str(tmp_path / "bundle")])
    assert code == 0
    for name in ("solar.csv", "parking.csv", "deferrable.csv",
                 "probabilities.csv", "scenarios.json"):
        assert (tmp_path / "bundle" / name).exists()
    code = main(["scenarios", "reduce", "--input", str(tmp_path / "bundle"),
                 "--keep", "5", "--out", str(tmp_path / "reduced")])
    assert code == 0
    report = json.loads((tmp_path / "reduced" / "reduction_report.json").read_text())
    assert report["n_kept"] == 5 and report["n_original"] == 30
    probs = (tmp_path / "reduced" / "probabilities.csv").read_text().splitlines()[1:]
    total = sum(float(line.split(",")[1]) for line in probs)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_failed_scenario_write_keeps_the_earlier_files(tmp_path, monkeypatch):
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "bundle"
    argv = ["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
            "--generate", "6", "--out", str(out)]
    assert main([*argv, "--seed", "1"]) == 0
    names = ["deferrable.csv", "parking.csv", "probabilities.csv", "scenarios.json", "solar.csv"]
    assert sorted(p.name for p in out.iterdir()) == names
    before = {name: (out / name).read_bytes() for name in names}

    def no_rename(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(scn.os, "replace", no_rename)
    with pytest.raises(OSError, match="disk full"):
        main([*argv, "--seed", "2"])
    assert {name: (out / name).read_bytes() for name in names} == before
    assert sorted(p.name for p in out.iterdir()) == names  # no temporary file left


def test_failed_atomic_write_removes_its_temporary_file(tmp_path):
    # a lone surrogate cannot be encoded, so the write itself fails
    path = tmp_path / "x.csv"
    scn.write_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        scn.write_atomic(path, "new \udc80\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_scenarios_generate_zero_exits_two(tmp_path, capsys):
    config, gen = write_inputs(tmp_path)
    assert main(["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
                 "--generate", "0", "--out", str(tmp_path / "bundle")]) == 2
    assert "count must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


def test_scenarios_reduce_keep_out_of_range_exits_two(tmp_path):
    config, gen = write_inputs(tmp_path)
    main(["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
          "--generate", "5", "--out", str(tmp_path / "bundle")])
    assert main(["scenarios", "reduce", "--input", str(tmp_path / "bundle"),
                 "--keep", "9", "--out", str(tmp_path / "r")]) == 2


def test_scenarios_reduce_rejects_fractional_parking(tmp_path):
    config, gen = write_inputs(tmp_path)
    main(["scenarios", "generate", "--config", str(config), "--genspec", str(gen),
          "--generate", "5", "--out", str(tmp_path / "bundle")])
    data = json.loads((tmp_path / "bundle" / "scenarios.json").read_text())
    data["scenarios"][2]["parking"][0][1] = 0.5
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert main(["scenarios", "reduce", "--input", str(tmp_path / "bad.json"),
                 "--keep", "2", "--out", str(tmp_path / "r")]) == 2
    assert not (tmp_path / "r").exists()


def test_export_mps_subcommand(tmp_path):
    config, gen = write_inputs(tmp_path)
    code = main(["export-mps", "--config", str(config), "--genspec", str(gen),
                 "--generate", "6", "--keep", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    from mgsched.lpcore import parse_mps, solve_lp
    problem = parse_mps((tmp_path / "out" / "problem.mps").read_text())
    assert solve_lp(problem).status == "optimal"


def test_sweep_subcommands(tmp_path):
    config, gen = write_inputs(tmp_path)
    base = ["--config", str(config), "--genspec", str(gen), "--generate", "12",
            "--keep", "3", "--seed", "8"]
    assert main(["sweep-solar", *base, "--levels", "0,1,2",
                 "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "solar_sweep.csv").exists()
    assert main(["sweep-window", *base, "--widths", "2,4,6",
                 "--out", str(tmp_path / "w")]) == 0
    assert (tmp_path / "w" / "window_sweep.csv").exists()
    assert main(["compare", *base, "--out", str(tmp_path / "c")]) == 0
    result = json.loads((tmp_path / "c" / "compare.json").read_text())
    assert result["vss"] >= -1e-6


def test_run_twice_byte_identical(tmp_path):
    config, gen = write_inputs(tmp_path)
    base = ["run", "--config", str(config), "--genspec", str(gen),
            "--generate", "15", "--keep", "3", "--seed", "21"]
    assert main([*base, "--out", str(tmp_path / "r1")]) == 0
    assert main([*base, "--out", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1" / "solution.json").read_bytes()
    b = (tmp_path / "r2" / "solution.json").read_bytes()
    assert a == b


@pytest.mark.parametrize("flags", [[], ["--exclusivity"]], ids=["lp", "exclusivity"])
def test_trace_counts_are_the_solve_counts(tmp_path, flags):
    config, gen = write_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--genspec", str(gen), "--generate", "4",
                 "--keep", "2", *flags, "--out", str(out)]) == 0
    solve = json.loads((out / "solution.json").read_text())["solve"]
    trace = json.loads((out / "trace.json").read_text())["solver"]
    assert trace["nodes"] == solve["nodes"]
    assert (solve["nodes"] > 0) == bool(flags)  # 0 without branch-and-bound
    assert solve["iterations"] == sum(trace[f"{kind}_iterations"]
                                      for kind in ("phase1", "phase2", "dual"))


def test_exclusivity_flag_runs_milp(tmp_path):
    config, gen = write_inputs(tmp_path)
    code = main(["run", "--config", str(config), "--genspec", str(gen),
                 "--generate", "4", "--keep", "2", "--exclusivity",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    sol = json.loads((tmp_path / "out" / "solution.json").read_text())
    charge = np.array(sol["schedule"]["charge"])
    discharge = np.array(sol["schedule"]["discharge"])
    assert np.max(charge * discharge) <= 1e-9
