"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 4 solves
the case-study-sized instance; everything else is small.
"""

import functools
import json
import time
from itertools import product

import numpy as np
import pytest

from conftest import make_config, make_genspec, one, unit
from mgsched.experiments import (
    RunManifest,
    compare_policies,
    run_single,
    run_solar_sweep,
    run_window_sweep,
    solve_stochastic,
)
from mgsched.formulation import FormulationOptions, build
from mgsched.lpcore import (
    LpProblem,
    export_mps,
    parse_mps,
    solve_lp,
    solve_milp,
)
from mgsched.model import (
    ChpUnits,
    DeferrableLoads,
    GridTariff,
    MicrogridConfig,
    Phevs,
    check_balance,
)
from mgsched.scenario import (
    DistanceWeights,
    ScenarioSet,
    generate,
    kantorovich_distance,
    reduce_fast_forward,
)
from oracles import brute_force_lp, brute_force_milp
from test_experiments import write_inputs


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL: {desc}")
                raise
            print(f"criterion {num:2d} PASS: {desc}")
            return result
        return wrapper
    return deco


def lp_from_dense(c, A, senses, b, lo, hi, **kw):
    A = np.asarray(A, dtype=float)
    trips = [(i, j, A[i, j]) for i in range(A.shape[0]) for j in range(A.shape[1])
             if A[i, j] != 0.0]
    return LpProblem(A.shape[1], A.shape[0], c, trips, senses, b, lo, hi, **kw)


# -- criterion 1 ----------------------------------------------------------------


@criterion(1, "solve_lp matches vertex-enumeration oracle on >= 50 random LPs, < 10 s")
def test_criterion_01_lp_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    solved = 0
    for k in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(2, 9))
        A = np.round(rng.normal(size=(m, n)) * 2, 2)
        senses = [["<=", ">=", "="][int(rng.integers(0, 3))] for _ in range(m)]
        lo = np.round(rng.uniform(-4, 0, n), 1)
        hi = lo + np.round(rng.uniform(0.5, 5, n), 1)
        if k % 2 == 0:
            x0 = rng.uniform(lo, hi)
            pad = rng.uniform(0, 1.5, m)
            b = A @ x0
            b = np.where([s == "<=" for s in senses], b + pad, b)
            b = np.where([s == ">=" for s in senses], A @ x0 - pad, b)
            b = np.round(b, 3)
        else:
            b = np.round(rng.normal(size=m) * 3, 2)
        c = np.round(rng.normal(size=n), 2)
        sol = solve_lp(lp_from_dense(c, A, senses, b, lo, hi))
        st, obj, _ = brute_force_lp(c, A, senses, b, lo, hi)
        assert sol.status == st, f"instance {k}: {sol.status} vs {st}"
        if st == "optimal":
            assert abs(sol.objective - obj) <= 1e-6, f"instance {k}"
            solved += 1
    elapsed = time.perf_counter() - t0
    assert solved + (60 - solved) >= 50
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -- criterion 2 ----------------------------------------------------------------


@criterion(2, "solve_milp matches exhaustive enumeration on >= 20 instances, < 30 s")
def test_criterion_02_milp_oracle_equivalence():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    for k in range(22):
        m = int(rng.integers(1, 6))
        nb = int(rng.integers(2, 9))  # up to 8 binaries
        nc = int(rng.integers(0, 3))
        n = nb + nc
        A = np.round(rng.normal(size=(m, n)) * 2, 1)
        senses = [["<=", ">="][int(rng.integers(0, 2))] for _ in range(m)]
        lo = np.concatenate([np.zeros(nb), np.round(rng.uniform(-2, 0, nc), 1)])
        hi = np.concatenate([np.ones(nb), lo[nb:] + np.round(rng.uniform(0.5, 3, nc), 1)])
        x0 = rng.uniform(lo, hi)
        pad = np.where([s == "<=" for s in senses], rng.uniform(0, 2, m),
                       -rng.uniform(0, 2, m))
        b = np.round(A @ x0 + pad, 2)
        c = np.round(rng.normal(size=n) * 3, 1)
        sol = solve_milp(lp_from_dense(c, A, senses, b, lo, hi, binary_cols=range(nb)))
        st, obj, _ = brute_force_milp(c, A, senses, b, lo, hi, range(nb))
        assert sol.status == st, f"instance {k}"
        if st == "optimal":
            gap = abs(sol.objective - obj) / max(1.0, abs(obj))
            assert gap <= 1e-6, f"instance {k}: gap {gap}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- criterion 3 ----------------------------------------------------------------


def micro_instance():
    cfg = MicrogridConfig(
        horizon=3,
        chp_units=one(ChpUnits, 0.0, 3.0, 1.0, 0.06),
        phevs=one(Phevs, 1.0, 5.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.01),
        deferrables=one(DeferrableLoads, 1, 3, 0.0, 2.0, 3.0),
        tariff=GridTariff([0.10, 0.20, 0.15], [0.08, 0.16, 0.12], [10.0] * 3),
        base_power=[2.0, 3.0, 2.0],
        base_heat=[1.0, 1.0, 1.0],
        solar_capacity=2.0,
    )
    ss = ScenarioSet(
        probabilities=[0.5, 0.5],
        solar=[[0.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
        parking=[[[1.0, 1.0, 1.0]], [[1.0, 0.0, 1.0]]],
        deferrable_energy=[[3.0], [2.0]],
    )
    return cfg, ss


def grid_oracle_scenario(cfg, ss, s, step=0.5):
    """Exhaustive search over scenario s's dispatch decisions, discretized
    at `step` kW.

    Net PHEV exchange is enumerated (eta = 1 makes splitting pointless),
    grid exchange follows from the balance residual.  Returns the best
    cost and a bound on how far the grid optimum can sit above the
    continuous one.
    """
    u = unit(cfg.chp_units, 0)
    ev = unit(cfg.phevs, 0)
    d = unit(cfg.deferrables, 0)
    pb = cfg.tariff.price_buy
    ps = cfg.tariff.price_sell

    p_axis = np.arange(u.p_min, u.p_max + step / 2, step)
    p_axis = p_axis[u.alpha * p_axis >= cfg.base_heat.max() - 1e-12]
    P = np.array(list(product(p_axis, repeat=3)))

    r_axis = np.arange(-ev.discharge_rate_max, ev.charge_rate_max + step / 2, step)
    R = np.array(list(product(r_axis, repeat=3)))  # r > 0 charges the battery
    gate = ev.charge_rate_max * ss.parking[s, 0]
    R = R[np.all(np.abs(R) <= gate + 1e-12, axis=1)]
    E = ev.e_initial + np.cumsum(R, axis=1)
    ok = np.all((E >= ev.e_min - 1e-12) & (E <= ev.e_max + 1e-12), axis=1)
    ok &= np.abs(E[:, -1] - ev.e_initial) <= 1e-12
    R = R[ok]

    l_axis = np.arange(d.rate_min, d.rate_max + step / 2, step)
    L = np.array(list(product(l_axis, repeat=3)))
    L = L[np.abs(L.sum(axis=1) - ss.deferrable_energy[s, 0]) <= 1e-12]

    best = np.inf
    for lvec in L:
        # residual over (P x R): demand minus local supply, met by the grid
        res = (cfg.base_power + lvec + R[:, None, :]
               - P[None, :, :] - ss.solar[s])
        buy = np.clip(res, 0.0, None)
        sell = np.clip(-res, 0.0, None)
        cost = (
            u.cost_per_kwh * P.sum(axis=1)[None, :]
            + ev.degradation_cost_per_kwh * np.abs(R).sum(axis=1)[:, None]
            + buy @ pb - sell @ ps
        )
        best = min(best, float(cost.min()))

    price_top = float(pb.max())
    sens = (abs(u.cost_per_kwh) + price_top) * 3 \
        + (abs(ev.degradation_cost_per_kwh) + price_top) * 3 \
        + price_top * 3
    return best, step * sens / 2


@criterion(3, "micro-instance LP optimum within the grid oracle's bound, < 60 s")
def test_criterion_03_micro_instance_grid_search():
    t0 = time.perf_counter()
    cfg, ss = micro_instance()
    _, report = solve_stochastic(cfg, ss)
    lp_opt = report.objective
    oracle = 0.0
    bound = 0.0
    for s, p in enumerate(ss.probabilities):
        val, b = grid_oracle_scenario(cfg, ss, s)
        oracle += p * val
        bound += p * b
    assert lp_opt <= oracle + 1e-9, "LP must relax the discretized search"
    assert oracle - lp_opt <= bound, f"gap {oracle - lp_opt} exceeds bound {bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- criterion 4 (shared with criterion 9) ---------------------------------------


@pytest.fixture(scope="module")
def case_study_solution():
    cfg = make_config(T=24, n_chp=3, n_phev=50, n_def=5)
    full = generate(make_genspec(cfg, seed=4242), cfg, 300)
    scenarios, _ = reduce_fast_forward(full, 25)
    t0 = time.perf_counter()
    schedule, report = solve_stochastic(cfg, scenarios)
    elapsed = time.perf_counter() - t0
    problem, _ = build(cfg, scenarios)
    return cfg, scenarios, schedule, report, problem, elapsed


@criterion(4, "case-study instance: residuals <= 1e-6 everywhere, solve < 10 min")
def test_criterion_04_constraint_fidelity_at_scale(case_study_solution):
    cfg, scenarios, schedule, report, problem, elapsed = case_study_solution
    assert report.status == "optimal"
    assert problem.n_cols == 25 * 24 * 160
    assert report.max_row_violation <= 1e-6
    assert report.max_bound_violation <= 1e-6
    rep = check_balance(cfg, scenarios.solar, schedule, 1e-6)
    assert rep.ok, f"(scenario, period, kind): {rep.flags[:3]}"
    assert np.all(schedule.storage >= 4.0 - 1e-6)
    assert np.all(schedule.storage <= 18.0 + 1e-6)
    assert np.abs(schedule.storage[:, :, -1] - 9.0).max() <= 1e-6
    assert elapsed < 600.0, f"solve took {elapsed:.0f}s"


# -- criteria 5 and 6 -------------------------------------------------------------


@criterion(5, "solar sweep: both columns non-increasing, stochastic <= deterministic")
def test_criterion_05_solar_trend(tmp_path):
    config_path, gen_path = write_inputs(tmp_path, T=24)
    manifest = RunManifest(
        config_path=str(config_path), generation=str(gen_path),
        generate_count=40, keep=6, out_dir=str(tmp_path / "out"),
        levels=(0.0, 0.5, 1.0, 1.5, 2.0), seed=505,
    )
    rows = run_solar_sweep(manifest)
    st = [r[1] for r in rows]
    det = [r[2] for r in rows]
    assert len(rows) == 5
    assert all(b <= a + 1e-6 for a, b in zip(st, st[1:])), st
    assert all(b <= a + 1e-6 for a, b in zip(det, det[1:])), det
    assert all(s <= d + 1e-6 for s, d in zip(st, det))


@criterion(6, "window sweep over >= 5 widths: cost non-increasing")
def test_criterion_06_window_trend(tmp_path):
    config_path, gen_path = write_inputs(tmp_path, T=24)
    manifest = RunManifest(
        config_path=str(config_path), generation=str(gen_path),
        generate_count=40, keep=6, out_dir=str(tmp_path / "out"),
        widths=(2, 4, 8, 16, 24), seed=606,
    )
    rows = run_window_sweep(manifest)
    costs = [c for _, c, status in rows if status == "optimal"]
    assert len(costs) >= 5
    assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:])), costs


# -- criterion 7 -------------------------------------------------------------------


@criterion(7, "VSS >= -1e-6 on every generated test set")
def test_criterion_07_vss_nonnegative():
    for seed, (nc, nev, nd, S) in zip(
        (701, 702, 703, 704, 705),
        ((1, 1, 1, 4), (2, 3, 1, 5), (1, 2, 2, 6), (2, 1, 0, 3), (1, 4, 1, 8)),
    ):
        cfg = make_config(T=6, n_chp=nc, n_phev=nev, n_def=nd)
        ss = generate(make_genspec(cfg, seed=seed), cfg, S)
        result = compare_policies(cfg, ss)
        assert result["vss"] >= -1e-6, f"seed {seed}: vss {result['vss']}"


# -- criterion 8 -------------------------------------------------------------------


@criterion(8, "reduction: keep=N exact, distance monotone in keep, greedy steps argmin")
def test_criterion_08_reduction_properties():
    unit = DistanceWeights(1.0, 1.0, 1.0)
    for seed in (801, 802, 803):
        cfg = make_config(T=4, n_phev=2, n_def=1)
        N = 8 + (seed % 3)
        ss = generate(make_genspec(cfg, seed=seed), cfg, N)
        red, rep = reduce_fast_forward(ss, N, unit)
        assert rep.kantorovich_distance == 0.0
        assert np.array_equal(red.solar, ss.solar)
        dists = [reduce_fast_forward(ss, k, unit)[1].kantorovich_distance
                 for k in range(1, N + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        chosen = []
        _, rep_k = reduce_fast_forward(ss, max(2, N // 2), unit)
        for step, u in enumerate(rep_k.selection_order):
            cands = [c for c in range(N) if c not in chosen]
            vals = {c: kantorovich_distance(ss, chosen + [c], unit) for c in cands}
            best = min(vals.values())
            assert vals[u] <= best + 1e-9, f"seed {seed} step {step}"
            assert u == min(c for c in cands if vals[c] <= best + 1e-12)
            chosen.append(u)


# -- criterion 9 -------------------------------------------------------------------


@criterion(9, "buy/sell exclusivity: grid_buy * grid_sell <= 1e-6 per (t, s)")
def test_criterion_09_exclusivity(case_study_solution):
    cfg, scenarios, schedule, _, _, _ = case_study_solution
    assert np.all(cfg.tariff.price_sell < cfg.tariff.price_buy)
    assert float(np.max(schedule.grid_buy * schedule.grid_sell)) <= 1e-6
    # and on a smaller independent instance
    cfg2 = make_config(T=12, n_chp=1, n_phev=3, n_def=1)
    ss2 = generate(make_genspec(cfg2, seed=909), cfg2, 6)
    sched2, _ = solve_stochastic(cfg2, ss2)
    assert float(np.max(sched2.grid_buy * sched2.grid_sell)) <= 1e-6


# -- criterion 10 ------------------------------------------------------------------


@criterion(10, "identical manifest and seed give byte-identical artifacts")
def test_criterion_10_determinism(tmp_path):
    config_path, gen_path = write_inputs(tmp_path, T=12)

    def manifest(out, **kw):
        return RunManifest(
            config_path=str(config_path), generation=str(gen_path),
            generate_count=30, keep=4, out_dir=str(tmp_path / out),
            seed=1010, **kw,
        )

    run_single(manifest("a"))
    run_single(manifest("b"))
    for name in ("solution.json", "balance_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    run_solar_sweep(manifest("sa", levels=(0.5, 1.0, 1.5)))
    run_solar_sweep(manifest("sb", levels=(0.5, 1.0, 1.5)))
    assert (tmp_path / "sa" / "solar_sweep.csv").read_bytes() == \
        (tmp_path / "sb" / "solar_sweep.csv").read_bytes()
    run_window_sweep(manifest("wa", widths=(2, 4, 8)))
    run_window_sweep(manifest("wb", widths=(2, 4, 8)))
    assert (tmp_path / "wa" / "window_sweep.csv").read_bytes() == \
        (tmp_path / "wb" / "window_sweep.csv").read_bytes()
    from mgsched.experiments import run_compare
    run_compare(manifest("ca"))
    run_compare(manifest("cb"))
    assert (tmp_path / "ca" / "compare.json").read_bytes() == \
        (tmp_path / "cb" / "compare.json").read_bytes()


@pytest.mark.parametrize("options", [
    FormulationOptions(),
    FormulationOptions(stage_mode="day-ahead-chp"),
    FormulationOptions(exclusivity_binaries=True),
    FormulationOptions(curtailment_penalty=1.0),
], ids=["fully-adaptive", "day-ahead-chp", "exclusivity", "curtailment"])
@criterion(10, "identical manifest and seed give byte-identical artifacts, trace included")
def test_criterion_10_determinism_of_each_block_kind(tmp_path, options):
    config_path, gen_path = write_inputs(tmp_path, T=12)
    for out in ("a", "b"):
        run_single(RunManifest(config_path=str(config_path), generation=str(gen_path),
                               generate_count=30, keep=4, out_dir=str(tmp_path / out),
                               seed=1010, options=options, write_mps=True))
    for name in ("solution.json", "balance_report.json", "trace.json", "problem.mps"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    if options.exclusivity_binaries:  # the MILP blocks branched
        assert json.loads((tmp_path / "a" / "trace.json").read_text())["solver"]["nodes"] > 4


# -- criterion 11 ------------------------------------------------------------------


@criterion(11, "MPS export -> parse -> re-export byte-identical; 3 golden fixtures")
def test_criterion_11_mps_round_trip(tmp_path):
    from pathlib import Path
    golden = Path(__file__).parent / "golden"
    fixtures = sorted(golden.glob("*.mps"))
    assert len(fixtures) == 3
    for path in fixtures:
        text = path.read_text()
        assert export_mps(parse_mps(text)) == text, path.name
    # a fresh microgrid problem round-trips too
    cfg = make_config(T=4, n_chp=1, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=1111), cfg, 2)
    problem, _ = build(cfg, ss, FormulationOptions(exclusivity_binaries=True))
    text = export_mps(problem)
    assert export_mps(parse_mps(text)) == text
