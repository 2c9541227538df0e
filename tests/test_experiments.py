import ast
import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import assert_same_fleet, make_config, make_genspec, one, unit_entries
from mgsched import experiments
from mgsched import scenario as scn
from mgsched.experiments import (
    InfeasibleProblem,
    NumericalFailure,
    RunManifest,
    SolverLimit,
    compare_policies,
    default_penalty,
    evaluate_policy,
    prepare_scenarios,
    resize_window,
    run_compare,
    run_single,
    run_solar_sweep,
    run_window_sweep,
    solve_deterministic,
    solve_stochastic,
)
from mgsched.cli import main
from mgsched.config_io import IngestError, load_config, load_generation_spec
from mgsched.formulation import FormulationOptions, build, schedule_to_vector
from mgsched.lpcore import LpError, SolveSettings, check_point, solve_lp, solve_milp
from mgsched.model import (
    ChpUnits,
    DeferrableLoads,
    GridTariff,
    MicrogridConfig,
    Phevs,
    Schedule,
    check_balance,
    cost_rates,
    evaluate_cost,
)
from mgsched.scenario import ScenarioSet, generate, reduce_fast_forward


def toy_two_scenario():
    """T=1, one CHP priced between sell and buy, solar all-or-nothing."""
    cfg = MicrogridConfig(
        horizon=1,
        chp_units=one(ChpUnits, 0.0, 100.0, 1.0, 0.09),
        phevs=Phevs(),
        deferrables=DeferrableLoads(),
        tariff=GridTariff([0.10], [0.08], [1000.0]),
        base_power=[50.0],
        base_heat=[0.0],
        solar_capacity=100.0,
    )
    ss = ScenarioSet([0.5, 0.5], [[0.0], [100.0]], np.zeros((2, 0, 1)), np.zeros((2, 0)))
    return cfg, ss


# -- solving ------------------------------------------------------------------


def test_decomposed_solve_matches_full_lp():
    # strong cross-validation of the pipeline: two independent solve routes
    cfg = make_config(T=4, n_chp=2, n_phev=2, n_def=1)
    ss = generate(make_genspec(cfg, seed=37), cfg, 4)
    sched, report = solve_stochastic(cfg, ss)
    assert report.decomposed
    assert report.nodes == 0  # no branch-and-bound on this path
    problem, index = build(cfg, ss)
    assert (report.n_cols, report.n_rows) == (problem.n_cols, problem.n_rows)
    full = solve_lp(problem)
    assert full.status == "optimal"
    assert report.objective == pytest.approx(full.objective, abs=1e-6)
    assert report.max_row_violation <= 1e-6
    # the per-subproblem checks report what a check of the full problem would
    rep = check_point(problem, schedule_to_vector(sched, index), SolveSettings().feasibility_tol)
    assert report.max_row_violation == rep.max_row_violation
    assert report.max_bound_violation == rep.max_bound_violation
    assert report.row_violations == {problem.row_names[i]: v
                                     for i, v in rep.row_violations.items()}


def test_infeasible_block_rows_carry_their_scenario_index():
    # scenario 1 asks every deferrable load for more energy than its window
    # can deliver; its block is a copy of scenario 0's template, whose row
    # names end in _s0, so the reported names must be shifted to _s1
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    config = load_config(data / "config.json")
    spec = load_generation_spec(data / "genspec.json")
    _, e_hi = config.deferrables.energy_band(config.period_hours)
    T = config.horizon
    ss = ScenarioSet(np.full(2, 0.5), np.tile(spec.solar_profile_mean, (2, 1)),
                     np.ones((2, config.n_phev, T)),
                     np.stack([config.deferrables.energy_nominal, 1.5 * e_hi]))
    with pytest.raises(InfeasibleProblem) as err:
        solve_stochastic(config, ss)
    assert err.value.rows
    assert all(name.endswith("_s1") for name in err.value.rows), err.value.rows


def four_demo_blocks(infeasible=()):
    """The demo config and four equally likely scenarios at the mean
    solar profile, every vehicle parked; the scenarios in `infeasible`
    ask each deferrable load for more energy than its window delivers."""
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    config = load_config(data / "config.json")
    spec = load_generation_spec(data / "genspec.json")
    _, e_hi = config.deferrables.energy_band(config.period_hours)
    energy = np.tile(config.deferrables.energy_nominal, (4, 1))
    energy[list(infeasible)] = 1.5 * e_hi
    return config, ScenarioSet(np.full(4, 0.25), np.tile(spec.solar_profile_mean, (4, 1)),
                               np.ones((4, config.n_phev, config.horizon)), energy)


def counting_solve_lp(monkeypatch, fail_at=None):
    """Patch the block pass's `solve_lp` to count its calls, raising
    LpError on call `fail_at`; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_at:
            raise LpError("singular basis")
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_lp", counted)
    return calls


def test_first_infeasible_block_ends_the_pass(monkeypatch):
    # block 1 of 4 is infeasible: blocks 0 and 1 are solved, 2 and 3 never are
    config, ss = four_demo_blocks(infeasible=[1])
    calls = counting_solve_lp(monkeypatch)
    with pytest.raises(InfeasibleProblem) as err:
        solve_stochastic(config, ss)
    assert len(calls) == 2
    assert err.value.rows
    assert all(name.endswith("_s1") for name in err.value.rows), err.value.rows


def test_solver_error_in_a_block_names_its_scenario(monkeypatch):
    # an LpError from the third block solve is a numerical failure of
    # scenario 2, and the fourth block is never solved
    config, ss = four_demo_blocks()
    calls = counting_solve_lp(monkeypatch, fail_at=3)
    with pytest.raises(NumericalFailure, match=r"^singular basis in scenario 2$"):
        solve_stochastic(config, ss)
    assert len(calls) == 3


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(T=st.integers(1, 4), n_chp=st.integers(1, 2), n_phev=st.integers(0, 2),
       n_def=st.integers(0, 2), weights=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       seed=st.integers(0, 10**6),
       options=st.sampled_from([FormulationOptions(),
                                FormulationOptions(exclusivity_binaries=True)]))
def test_decomposed_equals_joint(T, n_chp, n_phev, n_def, weights, seed, options):
    # every deferrable window of make_config needs T >= 3 to be deliverable;
    # at least one CHP unit covers the heat demand.  In fully-adaptive mode
    # the mode binaries are per scenario, so the joint MILP separates too.
    cfg = make_config(T=T, n_chp=n_chp, n_phev=n_phev, n_def=n_def if T >= 3 else 0)
    drawn = generate(make_genspec(cfg, seed=seed), cfg, len(weights))
    ss = dataclasses.replace(drawn, probabilities=np.divide(weights, sum(weights)))
    _, report = solve_stochastic(cfg, ss, options, SolveSettings())
    assert report.decomposed
    problem, _ = build(cfg, ss, options)
    full = solve_milp(problem, SolveSettings())
    assert full.status == "optimal"
    assert report.objective == pytest.approx(full.objective, rel=1e-7, abs=1e-9)
    assert (report.n_cols, report.n_rows) == (problem.n_cols, problem.n_rows)


def test_scenario_blocks_start_from_the_previous_blocks_basis():
    # case-study shape (1303 x 3840 per block): block 1 starts from block
    # 0's optimal basis and needs fewer pivots than its own cold solve
    cfg = make_config(T=24, n_chp=3, n_phev=50, n_def=5)
    ss = generate(make_genspec(cfg, seed=4242), cfg, 2)
    _, report = solve_stochastic(cfg, ss)
    assert report.stats.warm_starts == 1 and report.stats.warm_fallbacks == 0
    assert report.iterations == report.stats.iterations
    cold = [solve_lp(build(cfg, ss.single(s))[0]) for s in (0, 1)]
    assert report.objective == pytest.approx(0.5 * (cold[0].objective + cold[1].objective),
                                             rel=1e-9)
    assert report.iterations - cold[0].iterations < cold[1].iterations


def test_day_ahead_mode_solves_jointly():
    cfg = make_config(T=3, n_chp=1, n_phev=1, n_def=0)
    ss = generate(make_genspec(cfg, seed=43), cfg, 3)
    sched, report = solve_stochastic(
        cfg, ss, FormulationOptions(stage_mode="day-ahead-chp"))
    assert not report.decomposed
    assert report.status == "optimal"
    for s in range(1, 3):
        assert np.abs(sched.chp_power[s] - sched.chp_power[0]).max() <= 1e-8


def test_buy_sell_exclusivity_at_optimum():
    # price_sell < price_buy forbids profitable simultaneous buy and sell
    cfg = make_config(T=6, n_chp=1, n_phev=2, n_def=1)
    ss = generate(make_genspec(cfg, seed=47), cfg, 5)
    sched, _ = solve_stochastic(cfg, ss)
    assert np.max(sched.grid_buy * sched.grid_sell) <= 1e-6


def test_infeasible_instance_names_balance_rows():
    # demand exceeds every supply route plus the exchange cap
    cfg = MicrogridConfig(
        horizon=2, chp_units=ChpUnits(), phevs=Phevs(), deferrables=DeferrableLoads(),
        tariff=GridTariff([0.1, 0.1], [0.08, 0.08], [10.0, 10.0]),
        base_power=[100.0, 100.0], base_heat=[0.0, 0.0], solar_capacity=0.0,
    )
    ss = ScenarioSet([1.0], np.zeros((1, 2)), np.zeros((1, 0, 2)), np.zeros((1, 0)))
    with pytest.raises(InfeasibleProblem) as exc:
        solve_stochastic(cfg, ss)
    assert any(name.startswith("bal_") for name in exc.value.rows)


def test_solver_limit_surfaces():
    cfg = make_config(T=3)
    ss = generate(make_genspec(cfg), cfg, 2)
    with pytest.raises(SolverLimit):
        solve_stochastic(cfg, ss, settings=SolveSettings(iteration_limit=1))


# -- deterministic baseline and VSS --------------------------------------------


def test_two_scenario_toy_matches_hand_computation():
    cfg, ss = toy_two_scenario()
    # stochastic: CHP serves load at 0.09 when dark, surplus sold when sunny
    _, report = solve_stochastic(cfg, ss)
    assert report.objective == pytest.approx(0.25, abs=1e-9)
    # expected-value problem sees solar 50, net zero, does nothing
    det_sched, det_report = solve_deterministic(cfg, ss)
    assert det_report.objective == pytest.approx(0.0, abs=1e-9)
    # rigid policy: buy 50 when dark (5.0), sell 50 when sunny (-4.0)
    policy_cost, per_scenario = evaluate_policy(cfg, ss, det_sched)
    assert policy_cost == pytest.approx(0.5, abs=1e-9)
    assert not any(r["flagged"] for r in per_scenario)
    result = compare_policies(cfg, ss)
    assert result["vss"] == pytest.approx(0.25, abs=1e-9)


def test_single_scenario_vss_is_zero():
    cfg = make_config(T=3, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=53), cfg, 1)
    result = compare_policies(cfg, ss)
    assert result["vss"] == pytest.approx(0.0, abs=1e-6)


def test_vss_nonnegative_on_random_sets():
    cfg = make_config(T=4, n_chp=1, n_phev=2, n_def=1)
    for seed in (59, 61, 67):
        ss = generate(make_genspec(cfg, seed=seed), cfg, 6)
        result = compare_policies(cfg, ss)
        assert result["vss"] >= -1e-6


def test_policy_violations_are_flagged_and_priced():
    cfg, ss = toy_two_scenario()
    cfg = dataclasses.replace(cfg, tariff=GridTariff([0.10], [0.08], [30.0]))
    det_sched, _ = solve_deterministic(cfg, ss)
    cost, per_scenario = evaluate_policy(cfg, ss, det_sched)
    sunny = per_scenario[1]
    assert sunny["flagged"]
    assert sunny["violation_kwh"] == pytest.approx(20.0)  # 50 surplus vs 30 cap
    assert cost > 0.5 - 4.0  # penalty dominates the lost revenue
    assert default_penalty(cfg) == pytest.approx(1.0)


def test_policy_cost_upper_bounds_every_scenario_optimum():
    cfg = make_config(T=4, n_chp=1, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=71), cfg, 5)
    det_sched, _ = solve_deterministic(cfg, ss)
    _, per_scenario = evaluate_policy(cfg, ss, det_sched)
    for s, entry in enumerate(per_scenario):
        sub, _ = build(cfg, ss.single(s))
        opt = solve_lp(sub).objective
        assert entry["cost"] >= opt - 1e-7


def policy_by_scenario(config, scenarios, policy, penalty):
    """Reference for evaluate_policy: each scenario realized as a
    one-scenario schedule and priced by evaluate_cost on its own."""
    h = config.period_hours
    cap = config.tariff.exchange_cap
    serve = policy.serve[0]
    e_min, e_max, e_init = config.phevs.e_min, config.phevs.e_max, config.phevs.e_initial
    expected, costs, violations = 0.0, [], []
    for s, prob in enumerate(scenarios.probabilities.tolist()):
        charge = policy.charge * scenarios.parking[s:s + 1]
        discharge = policy.discharge * scenarios.parking[s:s + 1]
        demand = config.base_power + charge[0].sum(axis=0) + serve.sum(axis=0)
        supply = (policy.chp_power[0].sum(axis=0) + discharge[0].sum(axis=0)
                  + scenarios.solar[s])
        net = demand - supply
        buy = np.clip(net, 0.0, cap)
        sell = np.clip(-net, 0.0, cap)
        realized = Schedule.from_decisions(config, policy.chp_power, charge, discharge,
                                           policy.serve, buy[None], sell[None])
        storage = realized.storage[0]
        violation = float(np.maximum(storage - e_max[:, None], 0.0).sum())
        violation += float(np.maximum(e_min[:, None] - storage, 0.0).sum())
        violation += float(np.abs(storage[:, -1] - e_init).sum())
        violation += float(np.abs(serve.sum(axis=1) * h - scenarios.deferrable_energy[s]).sum())
        violation += float(np.abs(net - (buy - sell)).sum() * h)
        cost = evaluate_cost(config, scenarios.single(s), realized) + penalty * violation
        expected += prob * cost
        costs.append(cost)
        violations.append(violation)
    return expected, costs, violations


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_chp=st.sampled_from([0, 2]), n_phev=st.sampled_from([0, 2]),
       n_def=st.sampled_from([0, 2]), S=st.sampled_from([1, 3]), T=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_policy_prices_each_scenario_as_its_own_schedule(n_chp, n_phev, n_def, S, T, seed):
    # bit for bit, not approximately: the artifacts must not move
    cfg = make_config(T=T, n_chp=n_chp, n_phev=n_phev, n_def=n_def, cap=60.0)
    rng = np.random.default_rng(seed)
    policy = Schedule.from_decisions(
        cfg, *(rng.uniform(0.0, 40.0, (1, n, T)) for n in (n_chp, n_phev, n_phev, n_def)),
        np.zeros((1, T)), np.zeros((1, T)))
    weights = rng.integers(1, 5, S)
    ss = ScenarioSet(weights / weights.sum(), rng.uniform(0.0, 200.0, (S, T)),
                     rng.integers(0, 2, (S, n_phev, T)), rng.uniform(0.0, 8.0, (S, n_def)))
    expected, per_scenario = evaluate_policy(cfg, ss, policy, penalty=2.5)
    ref_expected, ref_costs, ref_violations = policy_by_scenario(cfg, ss, policy, 2.5)
    assert [r["cost"] for r in per_scenario] == ref_costs
    assert [r["violation_kwh"] for r in per_scenario] == ref_violations
    assert expected == ref_expected


# -- window resize --------------------------------------------------------------


def test_resize_window_is_symmetric_and_nested():
    d = one(DeferrableLoads, 10, 13, 0.0, 3.0, 6.0)
    widths = [1, 2, 4, 6, 10, 24]
    resized = [resize_window(d, w, 24) for w in widths]
    for a, b in zip(resized, resized[1:]):
        assert b.t_arrive <= a.t_arrive <= a.t_depart <= b.t_depart
    assert_same_fleet(resize_window(d, 4, 24), d)
    assert_same_fleet(resize_window(d, 6, 24), one(DeferrableLoads, 9, 14, 0.0, 3.0, 6.0))
    wide = resize_window(d, 24, 24)
    assert (wide.t_arrive, wide.t_depart) == (1, 24)
    narrow = resize_window(d, 1, 24)
    assert narrow.window_length() == 1


def resize_one(t_arrive, t_depart, width, horizon):
    """resize_window's rule for one load, in plain integers."""
    width = min(max(1, width), horizon)
    ta = t_arrive - (width - (t_depart - t_arrive + 1)) // 2
    ta = max(1, min(ta, horizon - width + 1))
    return ta, min(horizon, ta + width - 1)


def test_resize_window_resizes_every_load_as_alone():
    # windows at both horizon edges, a point window, and a full one
    windows = [(10, 13), (1, 2), (20, 24), (5, 5), (1, 24), (23, 24)]
    loads = DeferrableLoads(*zip(*windows), *np.ones((3, len(windows))))
    for width in (0, 1, 2, 3, 5, 8, 24, 30):
        got = resize_window(loads, width, 24)
        assert got.t_arrive.dtype == got.t_depart.dtype == np.dtype(int)
        assert list(zip(got.t_arrive.tolist(), got.t_depart.tolist())) \
            == [resize_one(ta, td, width, 24) for ta, td in windows]
        np.testing.assert_array_equal(got.rate_max, loads.rate_max)


# -- manifests and artifacts -----------------------------------------------------


def write_inputs(tmp_path, T=6):
    cfg = make_config(T=T, n_chp=1, n_phev=2, n_def=1)
    config = {
        "horizon": T,
        "solar_capacity": cfg.solar_capacity,
        "chp_units": unit_entries(cfg.chp_units),
        "phevs": unit_entries(cfg.phevs),
        "deferrables": unit_entries(cfg.deferrables),
        "tariff": {
            "price_buy": cfg.tariff.price_buy.tolist(),
            "price_sell": cfg.tariff.price_sell.tolist(),
            "exchange_cap": cfg.tariff.exchange_cap.tolist(),
        },
        "base_power": cfg.base_power.tolist(),
        "base_heat": cfg.base_heat.tolist(),
    }
    spec = make_genspec(cfg)
    gen = {
        "solar_profile_mean": spec.solar_profile_mean.tolist(),
        "solar_sigma": spec.solar_sigma,
        "parking_prob": 0.7,
        "deferrable_energy_mean": spec.deferrable_energy_mean.tolist(),
        "deferrable_energy_spread": spec.deferrable_energy_spread.tolist(),
        "rng_seed": 123,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    return tmp_path / "config.json", tmp_path / "gen.json"


def manifest_for(tmp_path, **kw):
    config_path, gen_path = write_inputs(tmp_path)
    defaults = dict(
        config_path=str(config_path),
        generation=str(gen_path),
        generate_count=40,
        keep=4,
        out_dir=str(tmp_path / "out"),
        seed=11,
    )
    defaults.update(kw)
    return RunManifest(**defaults)


def test_manifest_round_trip(tmp_path):
    config_path, gen_path = write_inputs(tmp_path)
    doc = {
        "config": config_path.name,
        "generation": gen_path.name,
        "generate": 100,
        "keep": 10,
        "seed": 3,
        "formulation": {"stage_mode": "day-ahead-chp"},
        "solver": {"feasibility_tol": 1e-8},
        "out": "artifacts",
        "levels": [0.0, 1.0, 2.0],
    }
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    m = RunManifest.from_dict(json.loads(p.read_text()), base_dir=tmp_path)
    assert m.generate_count == 100 and m.keep == 10
    assert m.options.stage_mode == "day-ahead-chp"
    assert m.settings.feasibility_tol == 1e-8
    assert m.levels == (0.0, 1.0, 2.0)
    assert m.config_path.endswith("config.json")


def test_manifest_validation_errors(tmp_path):
    with pytest.raises(IngestError, match="levels"):
        run_solar_sweep(manifest_for(tmp_path, levels=()))
    with pytest.raises(IngestError, match="widths"):
        run_window_sweep(manifest_for(tmp_path, widths=(4, 2)))
    # the solver settings are the five of SolveSettings; former fields are rejected
    config_path, gen_path = write_inputs(tmp_path)
    for removed in ("time_limit", "refactor_interval", "stall_limit", "mip_gap"):
        doc = {"config": config_path.name, "generation": gen_path.name,
               "solver": {removed: 1}, "out": "out"}
        with pytest.raises(IngestError, match="solver settings"):
            RunManifest.from_dict(doc, tmp_path)
        (tmp_path / "m.json").write_text(json.dumps(doc))
        assert main(["run", "--manifest", str(tmp_path / "m.json")]) == 2
    assert not (tmp_path / "out").exists()


def test_run_single_writes_verified_artifacts(tmp_path):
    m = manifest_for(tmp_path)
    payload = run_single(m)
    out = tmp_path / "out"
    assert payload["status"] == "optimal"
    solution = json.loads((out / "solution.json").read_text())
    assert solution["objective"] == pytest.approx(solution["evaluated_cost"], abs=1e-9)
    assert solution["solve"]["max_row_violation"] <= 1e-6
    balance = json.loads((out / "balance_report.json").read_text())
    assert all(s["ok"] for s in balance["scenarios"])
    assert len(balance["scenarios"]) == 4
    assert "reduction" in solution


def test_run_single_writes_solver_counters_apart(tmp_path):
    run_single(manifest_for(tmp_path))
    out = tmp_path / "out"
    solution = json.loads((out / "solution.json").read_text())
    assert "stats" not in solution["solve"]
    counters = json.loads((out / "trace.json").read_text())["solver"]
    assert counters["warm_starts"] == 3 and counters["warm_fallbacks"] == 0
    assert (counters["phase1_iterations"] + counters["phase2_iterations"]
            + counters["dual_iterations"]) == solution["solve"]["iterations"]
    assert not (out / "trace.json.tmp").exists()


def test_run_single_artifacts_are_byte_identical(tmp_path):
    m1 = manifest_for(tmp_path, out_dir=str(tmp_path / "a"))
    m2 = manifest_for(tmp_path, out_dir=str(tmp_path / "b"))
    run_single(m1)
    run_single(m2)
    for name in ("solution.json", "balance_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_single_writes_mps_on_request(tmp_path):
    m = manifest_for(tmp_path, write_mps=True)
    run_single(m)
    text = (tmp_path / "out" / "problem.mps").read_text()
    assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1]
json_floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
json_arrays = arrays(np.float64, st.sampled_from([(0,), (3, 0), (1,), (1, 1, 1), (2, 3, 4), ()])
                     | array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                     elements=json_floats)
json_payloads = st.recursive(
    json_arrays | json_floats | json_floats.map(np.float64) | st.booleans() | st.integers()
    | st.none() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


def as_lists(payload):
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, list):
        return [as_lists(v) for v in payload]
    if isinstance(payload, dict):
        return {k: as_lists(v) for k, v in payload.items()}
    return payload


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_payloads)
@example({"a": np.array([[0.0, -0.0], [math.nan, -math.inf]]), "b": [np.zeros((3, 0))],
          "\u00e9\x00\n": [np.float64(-0.0), True, 1, None, np.ones((1, 1, 1)) * 5e-324]})
@example(np.arange(-12.0, 12.0).reshape(2, 3, 4) * 1e16)
def test_json_writer_matches_json_dumps_of_the_lists(payload):
    expected = json.dumps(as_lists(payload), sort_keys=True, indent=2)
    assert experiments._json_text(payload) == expected


def test_json_writer_rejects_what_json_rejects():
    for value in (np.arange(3), np.int64(1), {1, 2}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            experiments._json_text({"x": [value]})


def test_csv_writer_writes_floats_as_repr(tmp_path):
    rows = [(1, -0.0, "optimal"), (2, np.float64(0.1), ""), (3, 1e16, "x"), (4, 5e-324, "y")]
    experiments._write_csv(tmp_path / "t.csv", ["k", "v", "s"], rows)
    assert (tmp_path / "t.csv").read_text() == \
        "k,v,s\n1,-0.0,optimal\n2,0.1,\n3,1e+16,x\n4,5e-324,y\n"


def test_solar_sweep_monotone_and_ordered(tmp_path):
    m = manifest_for(tmp_path, levels=(0.0, 0.5, 1.0, 1.5, 2.0), generate_count=30, keep=4)
    rows = run_solar_sweep(m)
    st = [r[1] for r in rows]
    det = [r[2] for r in rows]
    assert all(b <= a + 1e-6 for a, b in zip(st, st[1:]))
    assert all(b <= a + 1e-6 for a, b in zip(det, det[1:]))
    assert all(s <= d + 1e-6 for s, d in zip(st, det))
    text = (tmp_path / "out" / "solar_sweep.csv").read_text()
    assert text.splitlines()[0] == "level,avg_cost_stochastic,avg_cost_deterministic"


def test_degenerate_uncertainty_closes_the_gap(tmp_path):
    # no noise anywhere: stochastic and deterministic columns coincide
    m = manifest_for(tmp_path, levels=(1.0,), generate_count=5, keep=5)
    gen = json.loads((tmp_path / "gen.json").read_text())
    gen.update(solar_sigma=0.0, parking_prob=1.0, deferrable_energy_spread=[0.0])
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    rows = run_solar_sweep(m)
    assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-6)


def test_window_sweep_monotone_with_error_rows(tmp_path):
    m = manifest_for(tmp_path, widths=(1, 2, 3, 4, 6), generate_count=30, keep=4)
    rows = run_window_sweep(m)
    by_width = {w: (c, status) for w, c, status in rows}
    # width 1 cannot deliver 4 kWh at 3 kW: error entry, sweep continued
    assert by_width[1][1] == "infeasible"
    costs = [c for _, c, status in rows if status == "optimal"]
    assert len(costs) >= 3
    assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))
    text = (tmp_path / "out" / "window_sweep.csv").read_text()
    assert "infeasible" in text


def test_window_sweep_writes_a_row_for_an_infeasible_solve(tmp_path, caplog):
    # width 2 delivers at most 6 kWh: the nominal 4 kWh passes the config
    # check, but the second scenario draws 7 kWh and its block is infeasible
    T = 6
    scenarios = ScenarioSet([0.5, 0.5], np.full((2, T), 50.0), np.ones((2, 2, T)),
                            [[4.0], [7.0]])
    scn.save_json(scenarios, tmp_path / "scenarios.json")
    rows = run_window_sweep(manifest_for(tmp_path, widths=(2, 3), keep=2, generation=None,
                                         scenarios_path=str(tmp_path / "scenarios.json")))
    assert [(w, status) for w, _, status in rows] == [(2, "infeasible"), (3, "optimal")]
    lines = (tmp_path / "out" / "window_sweep.csv").read_text().splitlines()
    assert lines[:2] == ["width,avg_cost,status", "2,,infeasible"]
    [record] = [r for r in caplog.records if r.levelname == "WARNING"]
    assert record.getMessage() == ("width 2 infeasible: problem infeasible; "
                                   "violated rows: ['dsum_j0_s1']")


def test_window_sweep_propagates_errors_other_than_infeasibility(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("storage columns disagree with the recursion")

    monkeypatch.setattr(experiments, "extract_schedule", broken)
    m = manifest_for(tmp_path, widths=(2, 4), generate_count=10, keep=2)
    with pytest.raises(NumericalFailure, match="storage"):
        run_window_sweep(m)


def test_run_compare_writes_report(tmp_path):
    m = manifest_for(tmp_path)
    result = run_compare(m)
    assert result["vss"] >= -1e-6
    on_disk = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert on_disk["vss"] == result["vss"]
    assert on_disk["penalty"] > 0


def test_emitted_schedule_always_balances(tmp_path):
    m = manifest_for(tmp_path)
    payload = run_single(m)
    # reconstruct and re-check balance independently of the writer
    config = load_config(m.config_path)
    scenarios, _, _ = prepare_scenarios(m, config)
    # solution.json keeps the (unit, period, scenario) layout; move the
    # scenario axis first to rebuild the schedule
    sched = payload["schedule"]
    rebuilt = Schedule.from_decisions(config, *(
        np.moveaxis(np.array(sched[name]), -1, 0)
        for name in ("chp_power", "charge", "discharge", "serve", "grid_buy", "grid_sell")))
    assert check_balance(config, scenarios.solar, rebuilt, 1e-6).ok
    assert evaluate_cost(config, scenarios, rebuilt) == pytest.approx(
        payload["objective"], abs=1e-6)


def test_scenario_cost_does_not_depend_on_the_scenarios_beside_it():
    # each scenario's periods are summed as one contiguous row, as for a
    # one-scenario schedule, so its cost bits do not move with S
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    config = load_config(data / "config.json")
    spec = dataclasses.replace(load_generation_spec(data / "genspec.json"), rng_seed=7)
    scenarios, _ = reduce_fast_forward(generate(spec, config, 300), 10)
    schedule, _ = solve_stochastic(config, scenarios)
    h = config.period_hours
    rows = cost_rates(config, schedule).sum(axis=1)
    for s in range(len(scenarios)):
        one = Schedule.from_decisions(config, *(
            getattr(schedule, name)[s:s + 1]
            for name in ("chp_power", "charge", "discharge", "serve", "grid_buy", "grid_sell",
                         "curtail")))
        alone = evaluate_cost(config, scenarios.single(s), one)
        assert h * cost_rates(config, schedule)[s].sum() == alone
        # the same scenario priced beside the other nine, which weigh nothing
        beside = dataclasses.replace(scenarios, probabilities=np.eye(len(scenarios))[s])
        assert evaluate_cost(config, beside, schedule) == alone
    assert evaluate_cost(config, scenarios, schedule) == h * scenarios.probabilities @ rows


def test_bench_hooks_resolve():
    # bench/tracing.py patches these names by string; read its HOOKS table
    # without importing (or otherwise touching) the bench directory
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    hooks = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"])
    pairs = {(module, attr) for _, module, attr in hooks}
    pairs.add(("mgsched.experiments", "_write_atomic"))  # monkeypatched by the smoke test
    for module, attr in sorted(pairs):
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
