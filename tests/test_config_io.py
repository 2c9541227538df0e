import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_fleet
from mgsched.config_io import (
    IngestError,
    config_from_dict,
    generation_spec_from_dict,
    load_config,
    load_generation_spec,
)
from mgsched.experiments import RunManifest
from mgsched.model import validate_config


def sample_dict(T=4):
    return {
        "horizon": T,
        "period_hours": 1.0,
        "solar_capacity": 300.0,
        "chp_units": [{"p_min": 0.0, "p_max": 120.0, "alpha": 1.2, "cost_per_kwh": 0.09}],
        "phevs": [{"count": 3, "e_min": 4.0, "e_max": 18.0, "e_initial": 9.0,
                   "charge_rate_max": 4.0, "discharge_rate_max": 4.0,
                   "eta_charge": 0.9, "eta_discharge": 0.9,
                   "degradation_cost_per_kwh": 0.0035}],
        "deferrables": [{"t_arrive": 2, "t_depart": 3, "rate_min": 0.0,
                         "rate_max": 3.0, "energy_nominal": 4.0}],
        "tariff": {"price_buy": [0.1] * T, "price_sell": [0.08] * T,
                   "exchange_cap": [4000.0] * T},
        "base_power": [100.0] * T,
        "base_heat": [40.0] * T,
    }


def sample_spec_dict():
    return {
        "solar_profile_mean": [0.0, 10.0, 20.0, 5.0],
        "solar_sigma": 0.2,
        "parking_prob": [0.9, 0.3, 0.3, 0.9],
        "deferrable_energy_mean": [4.0],
        "deferrable_energy_spread": [1.0],
        "rng_seed": 7,
    }


def test_inline_config_parses_and_validates():
    cfg = config_from_dict(sample_dict())
    assert cfg.horizon == 4
    assert cfg.n_phev == 3  # count replication
    assert cfg.n_chp == 1
    assert validate_config(cfg).ok


def test_count_gives_the_same_arrays_as_spelled_out_entries():
    counted = config_from_dict(sample_dict())
    data = sample_dict()
    entry = {k: v for k, v in data["phevs"][0].items() if k != "count"}
    data["phevs"] = [entry, entry, entry]
    spelled = config_from_dict(data)
    for fleet in ("chp_units", "phevs", "deferrables"):
        assert_same_fleet(getattr(counted, fleet), getattr(spelled, fleet))
    assert counted.phevs.e_max.shape == (3,)
    # counts repeat each entry in place, in entry order
    data["deferrables"] = [{**data["deferrables"][0], "count": 2},
                           {**data["deferrables"][0], "t_arrive": 1}]
    loads = config_from_dict(data).deferrables
    assert loads.t_arrive.tolist() == [2, 2, 1] and loads.t_arrive.dtype == np.dtype(int)


def test_load_from_file(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(sample_dict()))
    cfg = load_config(p)
    assert cfg.n_deferrable == 1
    assert cfg.tariff.price_sell[0] == 0.08


def test_csv_time_series_reference(tmp_path):
    (tmp_path / "series.csv").write_text(
        "buy,sell\n0.10,0.08\n0.12,0.096\n0.11,0.088\n0.09,0.072\n")
    data = sample_dict()
    data["tariff"]["price_buy"] = {"csv": "series.csv", "column": "buy"}
    data["tariff"]["price_sell"] = {"csv": "series.csv", "column": "sell"}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    cfg = load_config(p)
    assert cfg.tariff.price_buy.tolist() == [0.10, 0.12, 0.11, 0.09]
    assert cfg.tariff.price_sell.tolist() == [0.08, 0.096, 0.088, 0.072]


def test_single_column_csv_needs_no_name(tmp_path):
    (tmp_path / "load.csv").write_text("base\n1\n2\n3\n4\n")
    data = sample_dict()
    data["base_power"] = {"csv": "load.csv"}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    assert load_config(p).base_power.tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("breaker,match", [
    (lambda d: d.pop("horizon"), "horizon"),
    (lambda d: d.pop("tariff"), "tariff"),
    (lambda d: d["tariff"].pop("price_buy"), "price_buy"),
    (lambda d: d["phevs"][0].update(count=0), "count"),
    (lambda d: d["chp_units"][0].pop("alpha"), "alpha"),
    (lambda d: d["chp_units"][0].update(frobnicate=1), "frobnicate"),
])
def test_structural_errors_reported(breaker, match):
    data = sample_dict()
    breaker(data)
    with pytest.raises(IngestError, match=match):
        config_from_dict(data)


def test_missing_csv_column_reported(tmp_path):
    (tmp_path / "series.csv").write_text("a,b\n1,2\n")
    data = sample_dict()
    data["base_power"] = {"csv": "series.csv", "column": "missing"}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    with pytest.raises(IngestError, match="missing"):
        load_config(p)


def test_unreadable_file_reported(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        load_config(tmp_path / "nope.json")
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(IngestError, match="invalid JSON"):
        load_config(tmp_path / "bad.json")


def test_load_config_rejects_validation_errors_only(tmp_path):
    data = sample_dict()
    data["tariff"]["price_sell"] = [0.2] * 4  # SELL_ABOVE_BUY is a warning
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    assert "SELL_ABOVE_BUY" in validate_config(load_config(p)).codes()
    data["chp_units"][0]["p_min"] = -5.0
    data["base_heat"] = [-1.0] * 4
    p.write_text(json.dumps(data))
    with pytest.raises(IngestError, match=r"chp\[0\]: need 0 <= p_min.*base_heat has negative"):
        load_config(p)


def test_load_config_logs_validation_warnings(tmp_path, caplog):
    data = sample_dict()
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    load_config(p)
    assert not caplog.records
    data["tariff"]["price_sell"] = [0.2] * 4
    p.write_text(json.dumps(data))
    load_config(p)
    [record] = caplog.records
    assert (record.name, record.levelname) == ("mgsched.config_io", "WARNING")
    assert record.getMessage() == (f"{p}: price_sell exceeds price_buy in some period; buy/sell "
                                   "exclusivity of optimal schedules is no longer guaranteed "
                                   "(SELL_ABOVE_BUY)")


def test_generation_spec_parsing(tmp_path):
    data = sample_spec_dict()
    spec = generation_spec_from_dict(data)
    assert spec.rng_seed == 7
    assert spec.solar_profile_mean.tolist() == [0.0, 10.0, 20.0, 5.0]
    p = tmp_path / "gen.json"
    p.write_text(json.dumps(data))
    spec2 = load_generation_spec(p)
    assert np.array_equal(spec2.solar_profile_mean, spec.solar_profile_mean)


def test_generation_spec_empirical_csv(tmp_path):
    # one column per sample trajectory, one row per period
    (tmp_path / "samples.csv").write_text("s1,s2\n1,5\n2,6\n3,7\n4,8\n")
    data = {
        "solar_profile_mean": [0.0] * 4,
        "solar_noise_model": "empirical",
        "solar_samples": {"csv": "samples.csv"},
    }
    spec = generation_spec_from_dict(data, base_dir=tmp_path)
    assert spec.solar_samples.shape == (2, 4)
    assert spec.solar_samples[0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_generation_spec_rejects_bad_values():
    with pytest.raises(IngestError, match="probabilities"):
        generation_spec_from_dict({"solar_profile_mean": [1.0], "parking_prob": [2.0]})
    with pytest.raises(IngestError, match="rng_seed must be >= 0"):
        generation_spec_from_dict({"solar_profile_mean": [1.0], "rng_seed": -1})
    for field, value in (("solar_sigma", float("nan")), ("parking_prob", [0.9, float("nan")]),
                         ("deferrable_energy_spread", [float("nan")])):
        with pytest.raises(IngestError, match=f"{field} contains NaN"):
            generation_spec_from_dict({**sample_spec_dict(), field: value})


@pytest.mark.parametrize("breaker, match", [
    (lambda d, g: d.update(horizon="x"), r"horizon: expected an integer, got 'x'"),
    (lambda d, g: d.update(horizon=4.5), r"horizon: expected an integer, got 4.5"),
    (lambda d, g: d["phevs"][0].update(count="abc"), r"phevs\[0\]\.count: expected an integer"),
    (lambda d, g: d["phevs"][0].update(e_min="4"),
     r"phevs\[0\]\.e_min: expected a number, got '4'"),
    (lambda d, g: d["chp_units"][0].update(p_max=None),
     r"chp_units\[0\]\.p_max: expected a number"),
    (lambda d, g: d["chp_units"][0].update(alpha=True),
     r"chp_units\[0\]\.alpha: expected a number"),
    (lambda d, g: d["deferrables"][0].update(t_arrive=2.5), r"deferrables\[0\]\.t_arrive"),
    (lambda d, g: d["deferrables"][0].update(t_depart=10**30),
     r"deferrables\[0\]\.t_depart: 1000000000000000000000000000000 does not fit a 64-bit"),
    (lambda d, g: d.update(solar_capacity="300"), r"solar_capacity: expected a number"),
    (lambda d, g: d.update(phevs={}), r"phevs: expected a list"),
    (lambda d, g: d["base_heat"].__setitem__(1, "40"),
     r"base_heat\[1\]: expected a number, got '40'"),
    (lambda d, g: d["tariff"]["price_buy"].__setitem__(3, True),
     r"price_buy\[3\]: expected a number, got True"),
    (lambda d, g: d["base_power"].__setitem__(0, None),
     r"base_power\[0\]: expected a number, got None"),
    (lambda d, g: g.update(solar_sigma="0.3"), r"solar_sigma: expected a number, got '0.3'"),
    (lambda d, g: g.update(solar_sigma=True), r"solar_sigma: expected a number, got True"),
    (lambda d, g: g.update(rng_seed=2.9), r"rng_seed: expected an integer, got 2.9"),
    (lambda d, g: g.update(rng_seed="7"), r"rng_seed: expected an integer, got '7'"),
    (lambda d, g: g["solar_profile_mean"].__setitem__(0, False),
     r"solar_profile_mean\[0\]: expected a number"),
    (lambda d, g: g.update(parking_prob="0.5"), r"parking_prob: expected a number"),
    (lambda d, g: g["parking_prob"].__setitem__(2, "0.3"), r"parking_prob\[2\]"),
    (lambda d, g: g.update(deferrable_energy_mean=None),
     r"deferrable_energy_mean: expected a list of numbers, got None"),
    (lambda d, g: g.update(deferrable_energy_spread=[True]), r"deferrable_energy_spread\[0\]"),
    (lambda d, g: g.update(solar_noise_model="empirical",
                           solar_samples=[[1, 2, 3, 4], [5, "6", 7, 8]]),
     r"solar_samples\[1\]\[1\]: expected a number, got '6'"),
    (lambda d, g: g.update(solar_noise_model="empirical", solar_samples=[[1, 2, 3, 4], [5]]),
     r"solar_samples: rows of unequal length"),
], ids=["horizon-string", "horizon-fraction", "count-string", "e_min-string", "p_max-null",
        "alpha-bool", "t_arrive-fraction", "t_depart-beyond-64-bits", "solar-capacity-string", "phevs-not-a-list",
        "base_heat-entry-string", "price_buy-entry-bool", "base_power-entry-null",
        "solar_sigma-string", "solar_sigma-bool", "rng_seed-fraction", "rng_seed-string",
        "solar_profile_mean-entry-bool", "parking_prob-string", "parking_prob-entry-string",
        "deferrable_energy_mean-null", "deferrable_energy_spread-entry-bool",
        "solar_samples-entry-string", "solar_samples-ragged"])
def test_values_of_the_wrong_type_are_ingest_errors(breaker, match):
    # a breaker spoils either the config (d) or the generation spec (g)
    data, spec = sample_dict(), sample_spec_dict()
    breaker(data, spec)
    with pytest.raises(IngestError, match=match):
        config_from_dict(data)
        generation_spec_from_dict(spec)


def test_integral_floats_are_accepted_where_integers_are_expected():
    data = sample_dict()
    data.update(horizon=4.0)
    data["phevs"][0].update(count=3.0)
    cfg = config_from_dict(data)
    assert (cfg.horizon, cfg.n_phev) == (4, 3) and type(cfg.horizon) is int
    spec = generation_spec_from_dict({**sample_spec_dict(), "rng_seed": 7.0})
    assert spec.rng_seed == 7 and type(spec.rng_seed) is int
    manifest = RunManifest.from_dict({"config": "c.json", "generate": 20.0, "keep": 3.0,
                                      "seed": 1.0, "widths": [2.0, 4]})
    assert (manifest.generate_count, manifest.keep, manifest.seed, manifest.widths) \
        == (20, 3, 1, (2, 4))
    assert all(type(v) is int for v in (manifest.keep, manifest.seed, *manifest.widths))


@pytest.mark.parametrize("breaker, field", [
    (lambda d: d["tariff"]["price_buy"].__setitem__(1, float("nan")), "tariff.price_buy"),
    (lambda d: d["base_heat"].__setitem__(0, float("nan")), "base_heat"),
    (lambda d: d.update(solar_capacity=float("nan")), "solar_capacity"),
    (lambda d: d.update(period_hours=float("nan")), "period_hours"),
    (lambda d: d["chp_units"][0].update(p_max=float("nan")), r"chp\[0\]\.p_max"),
    (lambda d: d["phevs"][0].update(e_max=float("nan")), r"phev\[0\]\.e_max"),
], ids=["price_buy", "base_heat", "solar_capacity", "period_hours", "p_max", "e_max"])
def test_nan_values_fail_validation_by_name(tmp_path, breaker, field):
    data = sample_dict()
    breaker(data)
    report = validate_config(config_from_dict(data))
    assert set(report.codes()) == {"VALUE_NAN"}
    assert re.fullmatch(f"{field} contains NaN", "; ".join(i.message for i in report.errors))
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))  # Python's json module writes NaN, which is not JSON
    with pytest.raises(IngestError, match=r"config\.json: invalid JSON: NaN is not a JSON number"):
        load_config(p)


def test_solar_samples_read_errors_are_ingest_errors(tmp_path):
    data = {
        "solar_profile_mean": [0.0] * 4,
        "solar_noise_model": "empirical",
        "solar_samples": {"csv": "nope.csv"},
    }
    with pytest.raises(IngestError, match="cannot read .*nope.csv"):
        generation_spec_from_dict(data, base_dir=tmp_path)
    (tmp_path / "bad.csv").write_text("s1,s2\n1,5\n2,x\n3,7\n4,8\n")
    data["solar_samples"] = {"csv": "bad.csv"}
    with pytest.raises(IngestError, match="bad numeric data in solar_samples"):
        generation_spec_from_dict(data, base_dir=tmp_path)


def test_ingestion_does_not_import_scipy():
    # `mgs` startup (bench setup_s) is the import of mgsched.cli plus
    # ingestion; scipy loads only when something is solved
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "import mgsched.cli\n"
            "from mgsched.config_io import load_config, load_generation_spec\n"
            f"load_config({str(data / 'config.json')!r})\n"
            f"load_generation_spec({str(data / 'genspec.json')!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"
