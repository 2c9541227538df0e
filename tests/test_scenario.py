import dataclasses

import numpy as np
import pytest

from conftest import make_config, make_genspec
from mgsched.scenario import (
    NOISE_MODELS,
    DistanceWeights,
    GenerationSpec,
    ScenarioSet,
    generate,
    load_csv_bundle,
    load_json,
    save_csv_bundle,
    save_json,
    scenario_set_from_dict,
    scenario_set_to_dict,
)
from oracles import draw_scenarios, save_csv_bundle_by_value, scenario_distance

BLOCKS = ("probabilities", "solar", "parking", "deferrable_energy")


def assert_same_set(a, b):
    """Bit-for-bit equality of every block, shapes included."""
    for name in BLOCKS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_even_probabilities():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 30)
    assert len(ss) == 30
    assert np.allclose(ss.probabilities, 1 / 30)
    assert abs(ss.probabilities.sum() - 1.0) < 1e-12


def test_count_zero_rejected():
    cfg = make_config()
    with pytest.raises(ValueError, match="count"):
        generate(make_genspec(cfg), cfg, 0)


def test_certain_parking_gives_all_ones():
    cfg = make_config(n_phev=3)
    spec = dataclasses.replace(make_genspec(cfg), parking_prob=1.0)
    ss = generate(spec, cfg, 5)
    assert np.all(ss.parking == 1.0)


def test_parking_frequency_matches_bernoulli_probability():
    # 0.6 everywhere; with 10000 draws the empirical mean sits within 0.02
    cfg = make_config(T=4, n_phev=2, n_def=0)
    spec = dataclasses.replace(make_genspec(cfg), parking_prob=0.6, rng_seed=77)
    ss = generate(spec, cfg, 10000)
    freq = ss.parking.mean()
    assert abs(freq - 0.6) < 0.02


def test_generation_is_deterministic_in_seed():
    cfg = make_config()
    spec = make_genspec(cfg, seed=5)
    a = generate(spec, cfg, 12)
    b = generate(spec, cfg, 12)
    assert_same_set(a, b)
    c = generate(dataclasses.replace(spec, rng_seed=6), cfg, 12)
    assert not np.array_equal(a.solar, c.solar)


def test_prefix_stability_across_counts():
    # scenario k depends only on (seed, k), not on the total count
    cfg = make_config()
    spec = make_genspec(cfg, seed=9)
    small = generate(spec, cfg, 5)
    big = generate(spec, cfg, 20)
    for name in BLOCKS[1:]:
        assert np.array_equal(getattr(small, name), getattr(big, name)[:5])


def test_solar_clamped_to_capacity():
    cfg = make_config()
    spec = dataclasses.replace(make_genspec(cfg, sigma=2.0), rng_seed=3)
    ss = generate(spec, cfg, 200)
    sol = ss.solar
    assert sol.min() >= 0.0
    assert sol.max() <= cfg.solar_capacity + 1e-12


def test_truncated_normal_model():
    cfg = make_config()
    spec = dataclasses.replace(make_genspec(cfg), solar_noise_model="truncated-normal",
                               solar_sigma=30.0)
    ss = generate(spec, cfg, 100)
    assert ss.solar.min() >= 0.0


def test_empirical_model_resamples_rows():
    cfg = make_config(T=4)
    samples = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    spec = GenerationSpec(
        solar_profile_mean=np.zeros(4),
        solar_noise_model="empirical",
        solar_samples=samples,
        parking_prob=1.0,
        deferrable_energy_mean=np.full(cfg.n_deferrable, 4.0),
        deferrable_energy_spread=np.zeros(cfg.n_deferrable),
        rng_seed=1,
    )
    ss = generate(spec, cfg, 50)
    for solar in ss.solar:
        assert any(np.array_equal(solar, row) for row in samples)


def test_deferrable_energy_clipped_to_deliverable_range():
    cfg = make_config()
    d = cfg.deferrables
    spec = dataclasses.replace(
        make_genspec(cfg),
        deferrable_energy_mean=np.array([4.0]),
        deferrable_energy_spread=np.array([100.0]),
    )
    ss = generate(spec, cfg, 100)
    vals = ss.deferrable_energy
    assert vals.min() >= d.rate_min[0] * d.window_length()[0] - 1e-12
    assert vals.max() <= d.rate_max[0] * d.window_length()[0] + 1e-12


def test_bad_spec_dimensions_rejected():
    cfg = make_config()
    spec = make_genspec(cfg)
    bad = dataclasses.replace(spec, solar_profile_mean=np.zeros(3))
    with pytest.raises(ValueError, match="solar_profile_mean"):
        generate(bad, cfg, 2)
    with pytest.raises(ValueError, match="probabilities"):
        GenerationSpec(solar_profile_mean=np.zeros(6), parking_prob=1.5)


@pytest.mark.parametrize("model", NOISE_MODELS)
@pytest.mark.parametrize("n_phev,n_def", [(0, 0), (0, 2), (2, 0), (2, 2)])
def test_generate_matches_per_scenario_draws(model, n_phev, n_def):
    # the whole-array transforms reproduce a scenario-by-scenario draw bit for bit
    cfg = make_config(T=5, n_phev=n_phev, n_def=n_def)
    samples = np.random.default_rng(0).uniform(0, 250, (7, 5))
    spec = dataclasses.replace(
        make_genspec(cfg, sigma=0.4 if model != "truncated-normal" else 40.0, seed=21),
        solar_noise_model=model,
        solar_samples=samples if model == "empirical" else None,
        parking_prob=np.linspace(0.2, 0.9, 5),
        deferrable_energy_spread=np.full(n_def, 5.0),
    )
    got = generate(spec, cfg, 40)
    want = draw_scenarios(spec, cfg, 40)
    assert_same_set(got, ScenarioSet(*want))


def test_generated_arrays_are_read_only():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 3)
    for name in BLOCKS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(ss, name)[0] = 0.0


def test_mean_and_single_are_one_scenario_sets():
    ss = ScenarioSet([0.25, 0.75], [[0.0, 4.0], [8.0, 0.0]], [[[1.0, 0.0]], [[0.0, 0.0]]],
                     [[2.0], [6.0]])
    mean = ss.mean()
    assert len(mean) == 1 and mean.probabilities.tolist() == [1.0]
    assert mean.solar.tolist() == [[6.0, 1.0]]
    assert mean.parking.tolist() == [[[0.25, 0.0]]]
    assert mean.deferrable_energy.tolist() == [[5.0]]
    one = ss.single(1)
    assert one.probabilities.tolist() == [1.0]
    assert one.solar.tolist() == [[8.0, 0.0]] and one.deferrable_energy.tolist() == [[6.0]]


# -- distances ----------------------------------------------------------------


def pair(a, b):
    """Two equally likely scenarios, each given as (solar, parking, defer)."""
    return ScenarioSet([0.5, 0.5], *zip(a, b))


def test_distance_to_self_is_zero():
    ss = pair(([1.0, 2.0], [[1, 0]], [3.0]), ([1.0, 2.0], [[1, 0]], [3.0]))
    assert scenario_distance(ss, 0, 0, DistanceWeights()) == 0.0
    assert scenario_distance(ss, 0, 1, DistanceWeights()) == 0.0


def test_distance_single_coordinate():
    ss = pair(([1.0, 2.0], [[1, 0]], [3.0]), ([1.0, 5.0], [[1, 0]], [3.0]))
    assert scenario_distance(ss, 0, 1, DistanceWeights()) == pytest.approx(3.0)


def test_distance_matches_hand_rolled_norm():
    w = DistanceWeights(solar=2.0, parking=0.5, deferrable=3.0)
    ss = pair(([1.0, 4.0], [[1, 0], [0, 1]], [2.0, 1.0]),
              ([2.5, 3.0], [[0, 0], [1, 1]], [2.0, 4.0]))
    # concatenate the weighted blocks and take the plain euclidean norm
    va, vb = (np.concatenate([2.0 * ss.solar[k], 0.5 * ss.parking[k].ravel(),
                              3.0 * ss.deferrable_energy[k]]) for k in (0, 1))
    expect = float(np.sqrt(((va - vb) ** 2).sum()))
    assert scenario_distance(ss, 0, 1, w) == pytest.approx(expect, rel=1e-12)
    assert scenario_distance(ss, 1, 0, w) == pytest.approx(expect, rel=1e-12)


def test_set_rejects_mismatched_block_shapes():
    with pytest.raises(ValueError, match="dimensions"):
        ScenarioSet([0.5, 0.5], [[1.0, 2.0], [1.0, 2.0]], [[[1, 0, 1]], [[1, 0, 1]]],
                    [[3.0], [3.0]])  # T differs between solar and parking
    with pytest.raises(ValueError, match="dimensions"):
        ScenarioSet([0.5, 0.5], [[1.0, 2.0]], [[[1, 0]], [[1, 0]]], [[3.0], [3.0]])  # S differs
    with pytest.raises(ValueError, match="dimensions"):
        ScenarioSet([1.0], [1.0, 2.0], [[1, 0]], [3.0])  # one scenario without its axis


def test_default_weights_normalize_by_block_std():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 40)
    w = DistanceWeights.from_set(ss)
    assert w.solar == pytest.approx(1.0 / np.std(ss.solar))
    assert w.parking == pytest.approx(1.0 / np.std(ss.parking))


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 7)
    assert_same_set(scenario_set_from_dict(scenario_set_to_dict(ss)), ss)


def test_csv_bundle_round_trip(tmp_path):
    cfg = make_config(n_phev=2, n_def=2)
    ss = generate(make_genspec(cfg), cfg, 5)
    save_csv_bundle(ss, tmp_path)
    back = load_csv_bundle(tmp_path)
    assert len(back) == 5
    assert_same_set(back, ss)


@pytest.mark.parametrize("n_phev, n_def", [(2, 2), (0, 0)])
def test_csv_bundle_matches_the_per_value_writer(tmp_path, n_phev, n_def):
    cfg = make_config(n_phev=n_phev, n_def=n_def)
    ss = generate(make_genspec(cfg), cfg, 6)
    solar = ss.solar.copy()
    solar[0, :3] = [-0.0, 5e-324, 1e16]  # distinct from 0.0, and repr's exponent forms
    ss = dataclasses.replace(ss, solar=solar)
    save_csv_bundle(ss, tmp_path / "new")
    save_csv_bundle_by_value(ss, tmp_path / "old")
    for name in ("solar.csv", "parking.csv", "deferrable.csv", "probabilities.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_json_file_round_trip(tmp_path):
    cfg = make_config()
    ss = generate(make_genspec(cfg), cfg, 4)
    save_json(ss, tmp_path / "set.json")
    assert_same_set(load_json(tmp_path / "set.json"), ss)


def test_round_trips_keep_empty_blocks(tmp_path):
    # no PHEV and no deferrable load: parking (S, 0, T), energy (S, 0)
    cfg = make_config(n_phev=0, n_def=0)
    ss = generate(make_genspec(cfg), cfg, 3)
    assert ss.parking.shape == (3, 0, cfg.horizon) and ss.deferrable_energy.shape == (3, 0)
    save_csv_bundle(ss, tmp_path)
    save_json(ss, tmp_path / "set.json")
    assert_same_set(load_csv_bundle(tmp_path), ss)
    assert_same_set(load_json(tmp_path / "set.json"), ss)


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        ScenarioSet([0.4, 0.4], [[1.0], [1.0]], [[[1.0]], [[1.0]]], [[], []])
