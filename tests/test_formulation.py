from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import make_config, make_genspec, one
from mgsched.formulation import (
    COLUMN_KINDS,
    FormulationOptions,
    VariableIndex,
    _labels,
    build,
    expected_counts,
    extract_schedule,
    scenario_data,
    schedule_to_vector,
)
from mgsched import experiments
from mgsched.experiments import solve_stochastic
from mgsched.lpcore import LpProblem, check_point, export_mps, solve_lp, solve_milp
from mgsched.model import (
    ChpUnits,
    DeferrableLoads,
    GridTariff,
    MicrogridConfig,
    Phevs,
    Schedule,
    check_balance,
    evaluate_cost,
)
from mgsched.scenario import ScenarioSet, generate
from oracles import symbol_audit

GOLDEN = Path(__file__).parent / "golden"

# one frozen build per formulation mode: tests/golden/build/<name>.mps
GOLDEN_BUILDS = {
    "fully_adaptive": FormulationOptions(),
    "day_ahead_chp": FormulationOptions(stage_mode="day-ahead-chp"),
    "exclusivity": FormulationOptions(exclusivity_binaries=True),
    "curtailment": FormulationOptions(curtailment_penalty=1.0),
}


def golden_build_instance():
    """Half-hour periods, a serving window inside the horizon and parking
    gaps in the scenarios, so every coefficient family is exercised."""
    cfg = make_config(T=5, n_chp=2, n_phev=2, n_def=1, period_hours=0.5)
    return cfg, generate(make_genspec(cfg, seed=31), cfg, 3)


def chp_only_config(T=2):
    return MicrogridConfig(
        horizon=T,
        chp_units=one(ChpUnits, 0.0, 100.0, 1.2, 0.09),
        phevs=Phevs(),
        deferrables=DeferrableLoads(),
        tariff=GridTariff(np.full(T, 0.10), np.full(T, 0.08), np.full(T, 1000.0)),
        base_power=np.full(T, 50.0),
        base_heat=np.full(T, 30.0),
        solar_capacity=50.0,
    )


def flat_scenarios(config, n, solar=0.0):
    T = config.horizon
    energy = config.deferrables.energy_nominal
    return ScenarioSet(np.full(n, 1.0 / n), np.full((n, T), solar),
                       np.ones((n, config.n_phev, T)), np.tile(energy, (n, 1)))


def one_scenario(solar, parking):
    """A single scenario of probability 1 with no deferrable load."""
    return ScenarioSet([1.0], [solar], [parking], np.zeros((1, 0)))


@pytest.mark.parametrize("template, shape, tables, name", [
    ("link_m{2}_t{1}_s{0}", (3, 4, 2), None, lambda s, t, m: f"link_m{m}_t{t}_s{s}"),
    ("{3}_m{2}_t{1}_s{0}", (2, 3, 2, 2), {3: ("exc", "exd")},
     lambda s, t, m, k: f"{('exc', 'exd')[k]}_m{m}_t{t}_s{s}"),
    ("nac_i{2}_t{1}_s{0}", (2, 3, 2), {0: ["1", "2"]}, lambda s, t, i: f"nac_i{i}_t{t}_s{s + 1}"),
    ("buy_t{1}_s{0}", (2, 3, 0), None, lambda s, t, u: f"buy_t{t}_s{s}"),
    ("buy_t{1}_s{0}", (2, 3, 1), None, lambda s, t, u: f"buy_t{t}_s{s}"),
])
def test_labels_match_formatting_each_name(template, shape, tables, name):
    expected = [name(*idx) for idx in product(*map(range, shape))]
    assert _labels(template, shape, tables) == expected


def test_minimal_instance_has_six_columns():
    # 1 CHP, no PHEVs, no deferrables, T=2, 1 scenario: 2 chp + 2 buy + 2 sell
    cfg = chp_only_config()
    problem, index = build(cfg, flat_scenarios(cfg, 1))
    assert problem.n_cols == 6
    # verify the closed-form count by enumerating the index
    seen = set()
    for kind, nu in (("chp", 1), ("buy", 1), ("sell", 1)):
        for t in range(2):
            for u in range(nu):
                seen.add(index.columns(kind)[0, t, u])
    assert seen == set(range(6))
    assert expected_counts(cfg, 1, FormulationOptions())["n_cols"] == 6


def test_index_is_a_bijection():
    cfg = make_config(T=3, n_chp=2, n_phev=2, n_def=1)
    opts = FormulationOptions(curtailment_penalty=10.0, exclusivity_binaries=True)
    index = VariableIndex(cfg, 2, opts)
    every = np.concatenate([index.columns(kind).ravel() for kind in COLUMN_KINDS])
    assert every.tolist() == list(range(index.n_cols))
    assert len(index.column_names()) == index.n_cols
    assert len(set(index.column_names())) == index.n_cols


def test_unparked_vehicle_has_zero_rate_bounds():
    cfg = make_config(T=3, n_phev=1, n_def=0)
    problem, index = build(cfg, one_scenario(np.zeros(3), np.zeros((1, 3))))
    for t in range(3):
        assert problem.col_upper[index.columns("charge")[0, t, 0]] == 0.0
        assert problem.col_upper[index.columns("discharge")[0, t, 0]] == 0.0


def test_case_study_shape_counts_match_formulas():
    cfg = make_config(T=24, n_chp=3, n_phev=50, n_def=5)
    opts = FormulationOptions()
    index = VariableIndex(cfg, 25, opts)
    expect = expected_counts(cfg, 25, opts)
    # S*T*(Nc + 3*Np + Nj + 2) = 25*24*(3 + 150 + 5 + 2)
    assert expect["n_cols"] == 25 * 24 * 160 == index.n_cols
    # S*(Np*T + Np + Nj + 2*T) = 25*(1200 + 50 + 5 + 48)
    assert expect["n_rows"] == 25 * 1303


def test_counting_formulas_cover_all_option_combinations():
    cfg = make_config(T=4, n_chp=1, n_phev=2, n_def=1)
    ss = generate(make_genspec(cfg), cfg, 3)
    for opts in (
        FormulationOptions(),
        FormulationOptions(curtailment_penalty=10.0),
        FormulationOptions(exclusivity_binaries=True),
        FormulationOptions(stage_mode="day-ahead-chp"),
        FormulationOptions(stage_mode="day-ahead-chp", curtailment_penalty=10.0),
    ):
        problem, _ = build(cfg, ss, opts)  # build self-audits against the formulas
        expect = expected_counts(cfg, 3, opts)
        assert problem.n_cols == expect["n_cols"]
        assert problem.n_rows == expect["n_rows"]


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_build_matches_golden_mps(name):
    cfg, ss = golden_build_instance()
    problem, _ = build(cfg, ss, GOLDEN_BUILDS[name])
    assert export_mps(problem) == (GOLDEN / "build" / f"{name}.mps").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_check_point_row_activity_is_the_triplet_sum(name):
    # A @ x adds each row's products in column order, as the sum over the
    # triplets does, so every reported violation matches it bit for bit
    cfg, ss = golden_build_instance()
    problem, _ = build(cfg, ss, GOLDEN_BUILDS[name])
    x = np.random.default_rng(3).normal(scale=50.0, size=problem.n_cols)
    act = np.zeros(problem.n_rows)
    A = problem.matrix_csc().tocoo()  # the entries in (column, row) order
    np.add.at(act, A.row, A.data * x[A.col])
    blo, bhi = problem.row_bounds()
    viol = np.maximum(np.maximum(blo - act, 0.0), np.maximum(act - bhi, 0.0))
    rep = check_point(problem, x, tol=0.0)
    assert rep.row_violations == {i: v for i, v in enumerate(viol.tolist()) if v > 0.0}
    assert len(rep.row_violations) > problem.n_rows // 2


PROBLEM_ARRAYS = ("rhs", "col_lower", "col_upper", "objective", "tri_vals", "row_sense",
                  "row_names", "col_names")


def problem_arrays(problem):
    """Every array of a problem, its matrix as the CSC index arrays plus
    `tri_vals`."""
    A = problem.matrix_csc()
    return {"indices": A.indices, "indptr": A.indptr,
            **{name: getattr(problem, name) for name in PROBLEM_ARRAYS}}


@pytest.mark.parametrize("opts", [FormulationOptions(), FormulationOptions(curtailment_penalty=1.0),
                                  FormulationOptions(exclusivity_binaries=True)],
                         ids=["plain", "curtailment", "exclusivity"])
def test_patched_template_is_each_scenarios_own_build(opts, monkeypatch):
    # a fully adaptive block is the template with its scenario's rhs and
    # bounds; it must be exactly what building that scenario alone gives
    cfg = make_config(T=6, n_chp=2, n_phev=3, n_def=2, period_hours=0.5)
    ss = generate(make_genspec(cfg, seed=8, parking_prob=0.5), cfg, 5)
    template, index = build(cfg, ss.single(0), opts)
    saved = {name: np.array(a) for name, a in problem_arrays(template).items()}
    rhs, lower, upper = scenario_data(cfg, ss, opts)
    assert rhs.shape == (5, template.n_rows)
    assert lower.shape == upper.shape == (5, template.n_cols)
    blocks = [template.with_data(rhs=rhs[s], col_lower=lower[s], col_upper=upper[s])
              for s in range(len(ss))]
    assert not np.array_equal(blocks[0].col_upper, blocks[1].col_upper)  # parking differs
    for s, block in enumerate(blocks):
        own, own_index = build(cfg, ss.single(s), opts)
        assert own_index.n_cols == index.n_cols
        own_arrays = problem_arrays(own)
        for name, a in problem_arrays(block).items():
            assert np.array_equal(a, own_arrays[name]), (s, name)

    # the same block loop with one build per scenario: LP blocks
    # warm-started from the previous block, MILP blocks cold
    iterations, nodes, basis = 0, 0, None
    for s in range(len(ss)):
        own = build(cfg, ss.single(s), opts)[0]
        sol = solve_milp(own) if own.binary_cols else solve_lp(own, basis=basis)
        iterations, nodes, basis = iterations + sol.iterations, nodes + sol.nodes, sol.basis
    for block in blocks:  # solving the patched copies writes nothing into the template
        basis = (solve_milp(block) if block.binary_cols else solve_lp(block, basis=basis)).basis
    builds = []
    monkeypatch.setattr(experiments, "build", lambda *args: builds.append(args) or build(*args))
    _, report = solve_stochastic(cfg, ss, opts)
    assert len(builds) == 1
    assert (report.iterations, report.nodes) == (iterations, nodes)
    if not opts.exclusivity_binaries:
        assert report.stats.warm_starts == len(ss) - 1
    else:
        assert nodes > len(ss)  # some block branched
    for name, a in problem_arrays(template).items():
        assert np.array_equal(a, saved[name]), name
    assert blocks[1].workspace() is template.workspace()
    assert template.matrix_csc() is template.matrix_csc()
    assert all(block.matrix_csc() is template.matrix_csc() for block in blocks)


def test_symbol_audit_mentions_every_column_and_row_kind():
    text = " ".join(elem for _, elem in symbol_audit())
    for kind in ("chp", "charge", "discharge", "storage", "serve", "buy", "sell",
                 "curtail", "mode", "link", "terminal", "defer_sum", "balance",
                 "heat", "nonanticipative"):
        assert kind in text or f"'{kind}'" in text


def test_handmade_point_costs_the_same_via_both_routes():
    # storage returns to e_initial: discharge = eta+ * eta- * charge
    cfg = make_config(T=2, n_chp=1, n_phev=1, n_def=0)
    ss = one_scenario([10.0, 0.0], np.ones((1, 2)))
    problem, index = build(cfg, ss)

    chp = np.array([[[40.0, 40.0]]])  # covers heat: 1.2 * 40 >= 40
    charge = np.array([[[2.0, 0.0]]])
    discharge = np.array([[[0.0, 2.0 * 0.9 * 0.9]]])
    # buy balances each period: base + charge - chp - solar - discharge
    buy = np.array([[cfg.base_power[0] + 2.0 - 40.0 - 10.0, cfg.base_power[1] - 40.0 - 1.62]])
    sched = Schedule.from_decisions(cfg, chp, charge, discharge,
                                    np.zeros((1, 0, 2)), buy, np.zeros((1, 2)))
    x = schedule_to_vector(sched, index)
    assert check_point(problem, x, 1e-9).ok(1e-9)
    lp_obj = float(problem.objective @ x)
    assert lp_obj == pytest.approx(evaluate_cost(cfg, ss, sched), abs=1e-9)


def test_zero_demand_solves_to_zero_schedule():
    T = 3
    cfg = MicrogridConfig(
        horizon=T, chp_units=one(ChpUnits, 0.0, 50.0, 1.0, 0.1), phevs=Phevs(),
        deferrables=DeferrableLoads(),
        tariff=GridTariff(np.full(T, 0.1), np.full(T, 0.0), np.full(T, 100.0)),
        base_power=np.zeros(T), base_heat=np.zeros(T), solar_capacity=0.0,
    )
    ss = flat_scenarios(cfg, 2)
    problem, index = build(cfg, ss)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    sched = extract_schedule(sol, index, cfg)
    assert evaluate_cost(cfg, ss, sched) == pytest.approx(0.0, abs=1e-12)
    assert np.abs(sched.chp_power).max() == 0.0
    assert np.abs(sched.grid_buy).max() == 0.0


def test_end_to_end_schedule_passes_balance():
    cfg = make_config(T=5, n_chp=1, n_phev=2, n_def=1)
    ss = generate(make_genspec(cfg), cfg, 3)
    problem, index = build(cfg, ss)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    sched = extract_schedule(sol, index, cfg)
    rep = check_balance(cfg, ss.solar, sched, 1e-6)
    assert rep.ok, rep.flags
    assert evaluate_cost(cfg, ss, sched) == pytest.approx(sol.objective, abs=1e-9)


def test_lp_objective_equals_evaluate_cost_at_optimum():
    # the two cost routes are independent implementations; they must agree
    cfg = make_config(T=4, n_chp=2, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=19), cfg, 4)
    problem, index = build(cfg, ss)
    sol = solve_lp(problem)
    sched = extract_schedule(sol, index, cfg)
    assert evaluate_cost(cfg, ss, sched) == pytest.approx(
        sol.objective, rel=1e-9, abs=1e-9)


def test_day_ahead_mode_equalizes_chp_across_scenarios():
    cfg = make_config(T=4, n_chp=2, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=23), cfg, 4)
    problem, index = build(cfg, ss, FormulationOptions(stage_mode="day-ahead-chp"))
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    sched = extract_schedule(sol, index, cfg)
    for s in range(1, 4):
        assert np.abs(sched.chp_power[s] - sched.chp_power[0]).max() <= 1e-8


def test_day_ahead_cost_is_at_least_fully_adaptive():
    cfg = make_config(T=4, n_chp=1, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=29), cfg, 3)
    free, _ = build(cfg, ss)
    tied, _ = build(cfg, ss, FormulationOptions(stage_mode="day-ahead-chp"))
    assert solve_lp(tied).objective >= solve_lp(free).objective - 1e-9


def test_half_hour_periods_solve_consistently():
    # rates convert to energy through the period length everywhere
    cfg = make_config(T=6, n_chp=1, n_phev=1, n_def=1, period_hours=0.5)
    ss = generate(make_genspec(cfg, seed=77), cfg, 2)
    problem, index = build(cfg, ss)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    sched = extract_schedule(sol, index, cfg)
    assert evaluate_cost(cfg, ss, sched) == pytest.approx(sol.objective, abs=1e-9)
    assert check_balance(cfg, ss.solar, sched, 1e-6).ok
    # delivered deferrable energy equals the scenario's requirement in kWh
    for s in range(2):
        delivered = sched.serve[s, 0].sum() * cfg.period_hours
        assert delivered == pytest.approx(ss.deferrable_energy[s, 0], abs=1e-7)
    # terminal rule holds in energy units
    assert np.abs(sched.storage[:, :, -1] - 9.0).max() <= 1e-7


def test_default_formulation_is_a_pure_lp():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 2)
    problem, _ = build(cfg, ss)
    assert not problem.binary_cols


@pytest.mark.parametrize("parking", [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.5, 1.0, 0.25]],
                         ids=["parked", "away", "fractional"])
def test_exclusivity_milp_matches_mode_pattern_enumeration(parking):
    # 1 PHEV over T=3; enumerate all 2^3 charge/discharge mode patterns.
    # Fractional parking is the mean scenario's: the rate bounds are
    # scaled, the mode rows are not
    cfg = make_config(T=3, n_chp=1, n_phev=1, n_def=0)
    ss = one_scenario([0.0, 150.0, 0.0], np.array([parking]))
    opts = FormulationOptions(exclusivity_binaries=True)
    problem, index = build(cfg, ss, opts)
    assert len(problem.binary_cols) == 3
    milp = solve_milp(problem)
    assert milp.status == "optimal"

    best = np.inf
    for pattern in product((0.0, 1.0), repeat=3):
        lo = problem.col_lower.copy()
        hi = problem.col_upper.copy()
        for t, v in enumerate(pattern):
            j = index.columns("mode")[0, t, 0]
            lo[j] = hi[j] = v
        A = problem.matrix_csc().tocoo()
        fixed = LpProblem(problem.n_cols, problem.n_rows, problem.objective,
                          np.column_stack((A.row, A.col, A.data)),
                          problem.row_sense, problem.rhs, lo, hi)
        sol = solve_lp(fixed)
        if sol.status == "optimal":
            best = min(best, sol.objective)
    assert milp.objective == pytest.approx(best, abs=1e-7)
    # relaxation bounds the MILP from below
    relaxed = solve_lp(problem)
    assert relaxed.objective <= milp.objective + 1e-9


def test_exclusivity_forbids_simultaneous_charge_discharge():
    cfg = make_config(T=3, n_chp=1, n_phev=1, n_def=0)
    ss = generate(make_genspec(cfg, seed=3), cfg, 2)
    problem, index = build(cfg, ss, FormulationOptions(exclusivity_binaries=True))
    sol = solve_milp(problem)
    sched = extract_schedule(sol, index, cfg)
    assert np.max(sched.charge * sched.discharge) <= 1e-9


def test_option_conflicts_and_bad_inputs_raise():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 2)
    with pytest.raises(ValueError, match="stage_mode"):
        FormulationOptions(stage_mode="whenever")
    with pytest.raises(ValueError, match="curtailment_penalty"):
        build(cfg, ss, FormulationOptions(curtailment_penalty=0.001))
    bad_cfg = make_config(T=4)
    bad_ss = generate(make_genspec(bad_cfg), bad_cfg, 2)
    with pytest.raises(ValueError, match="dimensions"):
        build(cfg, bad_ss)
    with pytest.raises(ValueError, match="sum"):  # empty sets never reach build
        ScenarioSet([], np.zeros((0, 6)), np.zeros((0, 1, 6)), np.zeros((0, 1)))


def test_extract_requires_usable_status():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 2)
    _, index = build(cfg, ss)
    from mgsched.lpcore import LpSolution
    with pytest.raises(ValueError, match="status"):
        extract_schedule(LpSolution(status="infeasible"), index, cfg)


def test_extract_checks_storage_consistency():
    cfg = make_config(T=3, n_phev=1, n_def=0)
    ss = generate(make_genspec(cfg, seed=13), cfg, 1)
    problem, index = build(cfg, ss)
    sol = solve_lp(problem)
    x = sol.x.copy()
    x[index.columns("storage")[0, 1, 0]] += 0.5  # corrupt one storage value
    sol.x = x
    with pytest.raises(ValueError, match="storage"):
        extract_schedule(sol, index, cfg)


def test_curtailment_column_absorbs_surplus():
    # oversupplied grid with a tiny sell cap is infeasible without spill
    T = 2
    cfg = MicrogridConfig(
        horizon=T, chp_units=one(ChpUnits, 80.0, 100.0, 1.0, 0.01), phevs=Phevs(),
        deferrables=DeferrableLoads(),
        tariff=GridTariff(np.full(T, 0.1), np.full(T, 0.05), np.full(T, 5.0)),
        base_power=np.full(T, 10.0), base_heat=np.zeros(T), solar_capacity=0.0,
    )
    ss = flat_scenarios(cfg, 1)
    plain, _ = build(cfg, ss)
    assert solve_lp(plain).status == "infeasible"
    spilled, index = build(cfg, ss, FormulationOptions(curtailment_penalty=5.0))
    sol = solve_lp(spilled)
    assert sol.status == "optimal"
    assert sol.x[index.columns("curtail")[0, 0, 0]] > 0
