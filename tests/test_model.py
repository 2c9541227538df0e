import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, one, unit
from mgsched.model import (
    ChpUnits,
    DeferrableLoads,
    GridTariff,
    MicrogridConfig,
    Phevs,
    Schedule,
    check_balance,
    derive_storage,
    evaluate_cost,
    validate_config,
    validate_scenarios,
)
from mgsched.scenario import ScenarioSet
from oracles import cost_by_hand


def config_one_of_each(T=2, **kw):
    defaults = dict(
        horizon=T,
        chp_units=one(ChpUnits, 0.0, 200.0, 1.2, 0.05),
        phevs=one(Phevs, 4.0, 18.0, 9.0, 4.0, 4.0, 0.9, 0.9, 0.0035),
        deferrables=DeferrableLoads(),
        tariff=GridTariff(np.full(T, 0.10), np.full(T, 0.08), np.full(T, 4000.0)),
        base_power=np.zeros(T),
        base_heat=np.zeros(T),
        solar_capacity=100.0,
    )
    defaults.update(kw)
    return MicrogridConfig(**defaults)


def uniform_set(config, n):
    T = config.horizon
    return ScenarioSet(np.full(n, 1.0 / n), np.zeros((n, T)), np.ones((n, config.n_phev, T)),
                       np.zeros((n, config.n_deferrable)))


# -- validation -------------------------------------------------------------


def test_case_study_phev_parameters_are_valid():
    # 18 kWh pack, 4 kWh floor, 4 kW symmetric rates, 0.9 efficiencies
    cfg = config_one_of_each()
    assert validate_config(cfg).ok


def test_reversed_window_reported():
    cfg = config_one_of_each(
        T=6, deferrables=one(DeferrableLoads, 5, 4, 0.0, 2.0, 1.0),
        base_power=np.zeros(6), base_heat=np.zeros(6),
        tariff=GridTariff(np.full(6, 0.1), np.full(6, 0.08), np.full(6, 100.0)),
    )
    rep = validate_config(cfg)
    assert not rep.ok
    assert "WINDOW_REVERSED" in rep.codes()


def test_undeliverable_window_reported():
    # max 2 kW over a 3 h window cannot deliver 7 kWh
    cfg = config_one_of_each(
        T=6, deferrables=one(DeferrableLoads, 2, 4, 0.0, 2.0, 7.0),
        base_power=np.zeros(6), base_heat=np.zeros(6),
        tariff=GridTariff(np.full(6, 0.1), np.full(6, 0.08), np.full(6, 100.0)),
    )
    rep = validate_config(cfg)
    assert not rep.ok
    assert "WINDOW_INFEASIBLE" in rep.codes()


def test_sell_above_buy_is_warning_only():
    T = 2
    cfg = config_one_of_each(
        T=T, tariff=GridTariff(np.full(T, 0.10), np.full(T, 0.12), np.full(T, 10.0)),
    )
    rep = validate_config(cfg)
    assert rep.ok  # warnings don't invalidate
    assert "SELL_ABOVE_BUY" in rep.codes()


def test_every_invariant_violation_has_a_code():
    T = 2
    cfg = MicrogridConfig(
        horizon=T,
        chp_units=one(ChpUnits, 5.0, 2.0, -1.0, -0.1),
        phevs=one(Phevs, 10.0, 5.0, 20.0, -1.0, 4.0, 1.5, 0.0, -0.1),
        deferrables=one(DeferrableLoads, 1, 9, 3.0, 1.0, 1.0),
        tariff=GridTariff([-0.1, 0.1], [0.05, 0.05], [10.0, 10.0]),
        base_power=[-5.0, 0.0],
        base_heat=[0.0, 0.0],
        solar_capacity=-3.0,
    )
    codes = set(validate_config(cfg).codes())
    assert {"CHP_CAPACITY_ORDER", "CHP_ALPHA_NONPOSITIVE", "CHP_COST_NEGATIVE",
            "PHEV_ENERGY_ORDER", "PHEV_RATE_NEGATIVE", "PHEV_ETA_RANGE",
            "WINDOW_OUT_OF_HORIZON", "DEFER_RATE_ORDER", "TARIFF_NEGATIVE",
            "BASE_NEGATIVE", "SOLAR_CAPACITY_NEGATIVE"} <= codes


GOOD_PHEV = (4.0, 18.0, 9.0, 4.0, 4.0, 0.9, 0.9, 0.0035)


def six_periods(**kw):
    T = 6
    return config_one_of_each(
        T=T, base_power=np.zeros(T), base_heat=np.zeros(T),
        tariff=GridTariff(np.full(T, 0.1), np.full(T, 0.08), np.full(T, 100.0)), **kw)


def test_each_check_names_the_first_bad_unit_of_its_fleet():
    # unit 0 of each fleet is valid; from unit 1 on each breaks one rule
    cfg = six_periods(
        chp_units=ChpUnits([0.0, 0.0], [200.0, 200.0], [1.2, -1.0], [0.05, 0.05]),
        phevs=Phevs(*zip(GOOD_PHEV, (*GOOD_PHEV[:5], 1.5, 0.9, 0.0035),
                         (*GOOD_PHEV[:5], 0.9, 0.0, 0.0035))),
        deferrables=DeferrableLoads([2, 2], [4, 9], [0.0, 0.0], [2.0, 2.0], [1.0, 1.0]),
    )
    assert [(i.code, i.message) for i in validate_config(cfg).issues] == [
        ("CHP_ALPHA_NONPOSITIVE", "chp[1]: alpha must be > 0, got -1.0"),
        ("PHEV_ETA_RANGE", "phev[1]: efficiencies must lie in (0, 1]"),
        ("WINDOW_OUT_OF_HORIZON", "deferrable[1]: window [2, 9] outside [1, 6]"),
    ]


def test_reversed_window_suppresses_that_loads_other_window_checks():
    # load 0 is reversed, beyond the horizon, rate-disordered and undeliverable;
    # load 1 is only beyond the horizon, and is still reported
    cfg = six_periods(deferrables=DeferrableLoads([9, 5], [0, 7], [3.0, 0.0], [1.0, 2.0],
                                                  [50.0, 1.0]))
    assert [i.message for i in validate_config(cfg).issues] == [
        "deferrable[0]: t_arrive 9 > t_depart 0",
        "deferrable[1]: window [5, 7] outside [1, 6]",
    ]


@pytest.mark.parametrize("fleet, field, name", [
    ("chp_units", "p_max", "chp[1].p_max"),
    ("phevs", "eta_discharge", "phev[1].eta_discharge"),
    ("deferrables", "energy_nominal", "deferrable[1].energy_nominal"),
])
def test_nan_is_named_by_unit_and_field(fleet, field, name):
    cfg = make_config(n_chp=3, n_phev=3, n_def=3)
    units = getattr(cfg, fleet)
    values = getattr(units, field).copy()
    values[1:] = np.nan
    cfg = dataclasses.replace(cfg, **{fleet: dataclasses.replace(units, **{field: values})})
    assert [(i.code, i.message) for i in validate_config(cfg).issues] \
        == [("VALUE_NAN", f"{name} contains NaN")]


def test_fleet_arrays_are_read_only_and_of_one_length():
    cfg = make_config(n_phev=2)
    with pytest.raises(ValueError, match="read-only"):
        cfg.phevs.e_max[0] = 1.0
    assert cfg.deferrables.t_arrive.dtype == np.dtype(int)
    with pytest.raises(ValueError, match="Phevs"):
        dataclasses.replace(cfg.phevs, e_max=[18.0])


def test_scenario_validation():
    cfg = config_one_of_each()
    ok = ScenarioSet([0.5, 0.5], [[10.0, 20.0]] * 2, [[[1.0, 0.0]]] * 2, [[]] * 2)
    assert validate_scenarios(ok, cfg).ok
    bad = ScenarioSet([0.5, 0.5], [[10.0, 20.0], [10.0, 500.0]], [[[1.0, 0.0]], [[1.0, 0.5]]],
                      [[]] * 2)
    rep = validate_scenarios(bad, cfg)
    assert rep.codes() == ["PARKING_NOT_BINARY", "SOLAR_ABOVE_CAPACITY"]
    assert all(i.message.startswith("scenario 1: ") for i in rep.issues)


def test_scenario_validation_shapes_against_config():
    cfg = config_one_of_each()  # T = 2, one PHEV, no deferrable load
    bad = ScenarioSet([1.0], [[1.0, 2.0, 3.0]], [[[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]], [[4.0]])
    rep = validate_scenarios(bad, cfg)
    assert rep.codes() == ["SOLAR_LENGTH", "PARKING_SHAPE", "DEFER_ENERGY_LENGTH"]
    assert validate_scenarios(bad).ok  # without a config only values are checked


# -- cost -------------------------------------------------------------------


def test_zero_schedule_costs_nothing():
    cfg = config_one_of_each()
    ss = uniform_set(cfg, 2)
    assert evaluate_cost(cfg, ss, Schedule.zeros(cfg, 2)) == 0.0


def test_charging_cost_uses_efficiency_weighted_throughput():
    # 4 kW for one hour at 0.0035 $/kWh with eta+ = 0.9 -> 0.0126
    cfg = config_one_of_each(T=1, tariff=GridTariff([0.1], [0.08], [100.0]),
                             base_power=[0.0], base_heat=[0.0])
    ss = uniform_set(cfg, 1)
    charge = np.zeros((1, 1, 1))
    charge[0, 0, 0] = 4.0
    sched = Schedule.from_decisions(
        cfg, np.zeros((1, 1, 1)), charge, np.zeros((1, 1, 1)),
        np.zeros((1, 0, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
    )
    assert evaluate_cost(cfg, ss, sched) == pytest.approx(0.0126, abs=1e-12)


def test_chp_plus_purchase_example():
    # CHP 100 kW for 2 h at 0.05 plus 10 kW bought for 1 h at 0.10 -> 11.0
    cfg = config_one_of_each(T=2)
    ss = uniform_set(cfg, 1)
    chp = np.full((1, 1, 2), 100.0)
    buy = np.zeros((1, 2))
    buy[0, 0] = 10.0
    sched = Schedule.from_decisions(
        cfg, chp, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
        np.zeros((1, 0, 2)), buy, np.zeros((1, 2)),
    )
    got = evaluate_cost(cfg, ss, sched)
    assert got == pytest.approx(11.0, abs=1e-12)
    assert got == pytest.approx(cost_by_hand(cfg, ss, sched), abs=1e-12)


def test_cost_matches_term_by_term_oracle_on_random_schedules():
    rng = np.random.default_rng(2)
    cfg = make_config(T=5, n_chp=2, n_phev=3, n_def=2)
    S = 3
    probs = rng.dirichlet(np.ones(S))
    ss = ScenarioSet(probs, rng.uniform(0, 100, (S, 5)), np.ones((S, 3, 5)), np.zeros((S, 2)))
    sched = Schedule.from_decisions(
        cfg,
        rng.uniform(0, 50, (S, 2, 5)), rng.uniform(0, 4, (S, 3, 5)),
        rng.uniform(0, 4, (S, 3, 5)), rng.uniform(0, 3, (S, 2, 5)),
        rng.uniform(0, 20, (S, 5)), rng.uniform(0, 20, (S, 5)),
    )
    assert evaluate_cost(cfg, ss, sched) == pytest.approx(
        cost_by_hand(cfg, ss, sched), rel=1e-12)


def test_cost_is_linear_in_the_schedule():
    rng = np.random.default_rng(8)
    cfg = make_config(T=4, n_chp=1, n_phev=2, n_def=1)
    S = 2
    ss = ScenarioSet(np.full(S, 0.5), rng.uniform(0, 50, (S, 4)), np.ones((S, 2, 4)),
                     np.zeros((S, 1)))

    def random_schedule():
        return Schedule.from_decisions(
            cfg,
            rng.uniform(0, 50, (S, 1, 4)), rng.uniform(0, 4, (S, 2, 4)),
            rng.uniform(0, 4, (S, 2, 4)), rng.uniform(0, 3, (S, 1, 4)),
            rng.uniform(0, 20, (S, 4)), rng.uniform(0, 20, (S, 4)),
        )

    for _ in range(5):
        X, Y = random_schedule(), random_schedule()
        a, b = rng.uniform(-2, 2, 2)
        combo = Schedule.from_decisions(
            cfg,
            a * X.chp_power + b * Y.chp_power,
            a * X.charge + b * Y.charge,
            a * X.discharge + b * Y.discharge,
            a * X.serve + b * Y.serve,
            a * X.grid_buy + b * Y.grid_buy,
            a * X.grid_sell + b * Y.grid_sell,
        )
        expect = a * evaluate_cost(cfg, ss, X) + b * evaluate_cost(cfg, ss, Y)
        assert evaluate_cost(cfg, ss, combo) == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_dimension_mismatch_raises():
    cfg = config_one_of_each()
    ss = uniform_set(cfg, 2)
    with pytest.raises(ValueError, match="shape"):
        evaluate_cost(cfg, ss, Schedule.zeros(cfg, 3))


# -- storage ----------------------------------------------------------------


def test_storage_recursion_matches_loop():
    rng = np.random.default_rng(4)
    cfg = make_config(T=6, n_phev=2, period_hours=0.5)
    charge = rng.uniform(0, 4, (3, 2, 6))
    discharge = rng.uniform(0, 4, (3, 2, 6))
    got = derive_storage(cfg, charge, discharge)
    for m in range(cfg.n_phev):
        ev = unit(cfg.phevs, m)
        for s in range(3):
            e = ev.e_initial
            for t in range(6):
                e += (ev.eta_charge * charge[s, m, t]
                      - discharge[s, m, t] / ev.eta_discharge) * cfg.period_hours
                assert got[s, m, t] == pytest.approx(e, rel=1e-12)


# -- balance ----------------------------------------------------------------


def test_zero_everything_balances():
    cfg = config_one_of_each(T=2)
    rep = check_balance(cfg, np.zeros((1, 2)), Schedule.zeros(cfg, 1))
    assert rep.ok
    assert np.all(rep.power_residual == 0.0)


def test_heat_ratio_exactly_covers_demand():
    # 100 kW at heat ratio 1.2 against 120 kW-thermal demand -> surplus 0
    cfg = config_one_of_each(
        T=1, base_power=[100.0], base_heat=[120.0],
        tariff=GridTariff([0.1], [0.08], [100.0]),
    )
    chp = np.full((1, 1, 1), 100.0)
    sched = Schedule.from_decisions(
        cfg, chp, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
        np.zeros((1, 0, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
    )
    rep = check_balance(cfg, np.zeros((1, 1)), sched)
    assert rep.heat_surplus[0, 0] == pytest.approx(0.0, abs=1e-12)
    # power side: 100 kW of CHP against 100 kW of base load balances too
    assert rep.power_residual[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert rep.ok


def test_undersupply_residual_is_flagged():
    # demand 50, solar 30, buy 15 -> residual -5, flagged
    cfg = config_one_of_each(
        T=1, chp_units=ChpUnits(), phevs=Phevs(), base_power=[50.0], base_heat=[0.0],
        tariff=GridTariff([0.1], [0.08], [100.0]),
    )
    buy = np.full((1, 1), 15.0)
    sched = Schedule.from_decisions(
        cfg, np.zeros((1, 0, 1)), np.zeros((1, 0, 1)), np.zeros((1, 0, 1)),
        np.zeros((1, 0, 1)), buy, np.zeros((1, 1)),
    )
    rep = check_balance(cfg, np.array([[30.0]]), sched, tol=1e-6)
    assert rep.power_residual[0, 0] == pytest.approx(-5.0)
    assert (0, 0, "power") in rep.flags


def test_heat_deficit_flagged_surplus_not():
    cfg = config_one_of_each(
        T=1, base_power=[0.0], base_heat=[50.0],
        tariff=GridTariff([0.1], [0.08], [100.0]),
    )
    for p, expect_ok in ((10.0, False), (100.0, True)):
        chp = np.full((1, 1, 1), p)
        sell = np.full((1, 1), p)  # keep power balanced
        sched = Schedule.from_decisions(
            cfg, chp, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)),
            np.zeros((1, 0, 1)), np.zeros((1, 1)), sell,
        )
        rep = check_balance(cfg, np.zeros((1, 1)), sched)
        assert (("heat" in [k for _, _, k in rep.flags]) is not expect_ok)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_chp=st.sampled_from([0, 2]), n_phev=st.sampled_from([0, 2]),
       n_def=st.sampled_from([0, 2]), S=st.sampled_from([1, 3]), T=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_balance_of_a_set_is_each_scenarios_own_check(n_chp, n_phev, n_def, S, T, seed):
    # row s of the all-scenario check is, bit for bit, the check of
    # scenario s alone; random decisions leave both kinds of flag
    cfg = make_config(T=T, n_chp=n_chp, n_phev=n_phev, n_def=n_def)
    rng = np.random.default_rng(seed)
    parts = [rng.uniform(0.0, 100.0, (S, n, T)) for n in (n_chp, n_phev, n_phev, n_def)]
    parts += [rng.uniform(0.0, 100.0, (S, T)) for _ in range(3)]
    sched = Schedule.from_decisions(cfg, *parts)
    solar = rng.uniform(0.0, 200.0, (S, T))
    rep = check_balance(cfg, solar, sched, tol=1e-6)
    for s in range(S):
        one = check_balance(cfg, solar[s:s + 1],
                            Schedule.from_decisions(cfg, *(a[s:s + 1] for a in parts)))
        assert rep.power_residual[s].tobytes() == one.power_residual[0].tobytes()
        assert rep.heat_surplus[s].tobytes() == one.heat_surplus[0].tobytes()
        assert [f[1:] for f in rep.flags if f[0] == s] == [f[1:] for f in one.flags]
        entry, alone = rep.to_dict()["scenarios"][s], one.to_dict()["scenarios"][0]
        for key in ("power_residual", "heat_surplus"):  # float rows, compared bit for bit
            assert entry.pop(key).tobytes() == alone.pop(key).tobytes()
        assert entry == {**alone, "scenario": s}


@pytest.mark.parametrize("shape", [(1, 4), (4,), (4, 3)])
def test_balance_rejects_solar_of_another_shape(shape):
    # a single solar row must not broadcast silently over three scenarios
    cfg = config_one_of_each(T=4)
    with pytest.raises(ValueError, match="solar has shape"):
        check_balance(cfg, np.zeros(shape), Schedule.zeros(cfg, 3))
