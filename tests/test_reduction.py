import dataclasses
import json
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, make_genspec
from mgsched.config_io import load_config, load_generation_spec
from mgsched.scenario import (
    _BAND_ROWS,
    DistanceWeights,
    ScenarioSet,
    _distance_matrix,
    _feature_matrix,
    generate,
    kantorovich_distance,
    reduce_fast_forward,
)
from oracles import greedy_reduction, scenario_distance

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "reduction"


def line_set(positions, probs):
    """Scenarios distinguishable only by a single solar value."""
    S = len(positions)
    return ScenarioSet(probs, np.reshape(positions, (S, 1)), np.ones((S, 0, 1)), np.zeros((S, 0)))


UNIT = DistanceWeights(1.0, 1.0, 1.0)


def brute_kantorovich(sset, subset, weights):
    """Direct re-evaluation of the subset distance formula."""
    total = 0.0
    for k, p in enumerate(sset.probabilities):
        if k in subset:
            continue
        total += p * min(scenario_distance(sset, k, j, weights) for j in subset)
    return total


def test_full_subset_has_zero_distance():
    ss = line_set([0.0, 1.0, 5.0], [0.2, 0.3, 0.5])
    assert kantorovich_distance(ss, [0, 1, 2], UNIT) == 0.0


def test_two_point_case():
    # one kept of two equiprobable scenarios at distance 4 -> 0.5 * 4
    ss = line_set([0.0, 4.0], [0.5, 0.5])
    assert kantorovich_distance(ss, [0], UNIT) == pytest.approx(2.0)
    assert kantorovich_distance(ss, [1], UNIT) == pytest.approx(2.0)


def test_kantorovich_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(6)
    cfg = make_config(T=4, n_phev=1, n_def=1)
    ss = generate(make_genspec(cfg, seed=51), cfg, 6)
    for size in (1, 2, 3):
        for subset in combinations(range(6), size):
            got = kantorovich_distance(ss, subset, UNIT)
            expect = brute_kantorovich(ss, set(subset), UNIT)
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_empty_subset_rejected():
    ss = line_set([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="nonempty"):
        kantorovich_distance(ss, [], UNIT)


@pytest.mark.parametrize("subset", [[0, 2], [-1, 1]])
def test_out_of_range_subset_rejected(subset):
    ss = line_set([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="subset index out of range"):
        kantorovich_distance(ss, subset, UNIT)


def test_empty_blocks_get_weight_zero():
    # no PHEVs and no deferrable loads: np.std of an empty block would warn,
    # which fails under -W error; the blocks weigh 0 and the set still reduces
    ss = line_set([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
    weights = DistanceWeights.from_set(ss)
    assert weights == DistanceWeights(1.0 / float(np.std(ss.solar)), 0.0, 0.0)
    red, rep = reduce_fast_forward(ss, 2)
    assert len(red) == 2 and rep.n_kept == 2
    assert kantorovich_distance(ss, rep.kept_indices) == pytest.approx(rep.kantorovich_distance)


def test_keep_equal_to_size_reproduces_input():
    ss = line_set([0.0, 1.0, 3.0, 7.0], [0.1, 0.2, 0.3, 0.4])
    red, rep = reduce_fast_forward(ss, 4, UNIT)
    assert rep.kantorovich_distance == 0.0
    assert len(red) == 4
    assert np.array_equal(red.probabilities, ss.probabilities)
    assert np.array_equal(red.solar, ss.solar)


def test_keep_out_of_range_rejected():
    ss = line_set([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="keep"):
        reduce_fast_forward(ss, 0, UNIT)
    with pytest.raises(ValueError, match="keep"):
        reduce_fast_forward(ss, 3, UNIT)


def test_probability_mass_conserved():
    cfg = make_config()
    ss = generate(make_genspec(cfg, seed=31), cfg, 60)
    red, _ = reduce_fast_forward(ss, 9)
    assert abs(red.probabilities.sum() - 1.0) <= 1e-9
    assert np.all(red.probabilities >= 0)


def test_each_greedy_step_is_an_argmin():
    # verify against exhaustive per-step search on sets of <= 10 scenarios
    cfg = make_config(T=3, n_phev=1, n_def=1)
    for seed in (1, 2, 3):
        ss = generate(make_genspec(cfg, seed=seed), cfg, 9)
        _, rep = reduce_fast_forward(ss, 5, UNIT)
        chosen = []
        for step, u in enumerate(rep.selection_order):
            cands = [c for c in range(9) if c not in chosen]
            dists = {c: kantorovich_distance(ss, chosen + [c], UNIT) for c in cands}
            best = min(dists.values())
            best_idx = min(c for c in cands if dists[c] <= best + 1e-12)
            assert dists[u] == pytest.approx(best, abs=1e-9), f"step {step}"
            assert u == best_idx, f"tie not broken by lowest index at step {step}"
            assert rep.step_distances[step] == pytest.approx(best, abs=1e-9)
            chosen.append(u)


def test_reported_distance_is_monotone_in_keep():
    cfg = make_config(T=3, n_phev=2, n_def=1)
    for seed in (11, 12):
        ss = generate(make_genspec(cfg, seed=seed), cfg, 10)
        dists = [reduce_fast_forward(ss, k, UNIT)[1].kantorovich_distance
                 for k in range(1, 11)]
        assert all(dists[i + 1] <= dists[i] + 1e-12 for i in range(9))
        assert dists[-1] == 0.0


def test_five_on_a_line_matches_exhaustive_greedy():
    # hand-checkable: greedy first picks the probability-weighted medoid,
    # then the scenario that most reduces the remaining distance
    ss = line_set([0.0, 1.0, 2.0, 8.0, 10.0], [0.3, 0.1, 0.2, 0.2, 0.2])
    red, rep = reduce_fast_forward(ss, 2, UNIT)
    # exhaustive greedy re-derivation over all candidates at each step
    first = min(range(5), key=lambda u: (round(kantorovich_distance(ss, [u], UNIT), 12), u))
    second = min((u for u in range(5) if u != first),
                 key=lambda u: (round(kantorovich_distance(ss, [first, u], UNIT), 12), u))
    assert rep.selection_order == [first, second]
    assert rep.kantorovich_distance == pytest.approx(
        kantorovich_distance(ss, [first, second], UNIT))
    # discarded mass went to the nearest kept scenario
    assert red.probabilities.sum() == pytest.approx(1.0)


def test_redistribution_goes_to_nearest_kept():
    # greedy keeps 1 (medoid tie with 2, lower index wins) and then 3;
    # 0 is nearest to 1 and 2 nearest to 3, so both halves end at 0.5
    ss = line_set([0.0, 1.0, 9.0, 10.0], [0.4, 0.1, 0.2, 0.3])
    red, rep = reduce_fast_forward(ss, 2, UNIT)
    assert rep.kept_indices == [1, 3]
    assert red.probabilities.tolist() == pytest.approx([0.4 + 0.1, 0.2 + 0.3])


def test_reduction_is_deterministic():
    cfg = make_config()
    ss = generate(make_genspec(cfg, seed=41), cfg, 40)
    r1, rep1 = reduce_fast_forward(ss, 7)
    r2, rep2 = reduce_fast_forward(ss, 7)
    assert rep1.selection_order == rep2.selection_order
    assert np.array_equal(r1.probabilities, r2.probabilities)
    assert np.array_equal(r1.solar, r2.solar)


def test_case_study_reduction_shape():
    # 3000 -> 25 at the sizes the toolkit defaults to
    cfg = make_config(T=6, n_phev=2, n_def=1)
    ss = generate(make_genspec(cfg, seed=71), cfg, 3000)
    red, rep = reduce_fast_forward(ss, 25)
    assert len(red) == 25
    assert rep.n_original == 3000
    assert abs(red.probabilities.sum() - 1.0) <= 1e-9
    assert rep.step_distances[0] >= rep.kantorovich_distance


def test_exact_ties_go_to_the_lowest_index():
    # ten scenarios sit at 1, the weighted medoid, and their exact sums are
    # equal; a BLAS product can round any of them lowest, the rule says 8
    ss = line_set([0, 0, 0, 3, 3, 2, 0, 0, 1, 1, 2, 1, 1, 0, 2, 2, 0, 0, 1, 1, 3, 2, 1, 1,
                   2, 2, 0, 2, 3, 3, 3, 1, 1], [1 / 33] * 33)
    _, rep = reduce_fast_forward(ss, 1, UNIT)
    assert rep.selection_order == [8]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=30), st.data())
def test_greedy_matches_exact_reference_on_integer_lines(positions, data):
    # few distinct positions make exact ties common: every tie must go to
    # the lowest index, as in the fsum reference
    S = len(positions)
    if data.draw(st.booleans(), label="equal probabilities"):
        probs = [1.0 / S] * S
    else:
        w = data.draw(st.lists(st.integers(1, 5), min_size=S, max_size=S), label="weights")
        probs = [v / sum(w) for v in w]
    keep = data.draw(st.integers(1, min(S, 6)), label="keep")
    ss = line_set(positions, probs)
    red, rep = reduce_fast_forward(ss, keep, UNIT)
    C = np.abs(np.subtract.outer(positions, positions))
    order, steps, kept_probs = greedy_reduction(C, ss.probabilities, keep)
    assert rep.selection_order == order
    assert rep.step_distances == pytest.approx(steps, rel=1e-12, abs=1e-15)
    assert red.probabilities.tolist() == pytest.approx(kept_probs, rel=1e-12, abs=1e-15)


def demo_set(count, seed):
    cfg = load_config(ROOT / "demos" / "data" / "config.json")
    spec = load_generation_spec(ROOT / "demos" / "data" / "genspec.json")
    return generate(dataclasses.replace(spec, rng_seed=seed), cfg, count)


def test_demo_reduction_matches_golden():
    golden = json.loads((GOLDEN / "demo_seed1000.json").read_text())
    ss = demo_set(golden["generate"], golden["seed"])
    red, rep = reduce_fast_forward(ss, golden["keep"])
    assert rep.selection_order == golden["selection_order"]
    assert rep.kept_indices == golden["kept_indices"]
    assert [repr(v) for v in rep.step_distances] == golden["step_distances"]
    assert [repr(float(v)) for v in red.probabilities] == golden["probabilities"]


@pytest.mark.parametrize("T, n_phev, n_def, S", [
    (24, 5, 2, 700),    # demo shape: 146 features
    (24, 50, 5, 300),   # fleet shape: 1229 features
    # set sizes at the edges of the row blocks
    *((24, 5, 2, S) for S in (1, _BAND_ROWS - 1, _BAND_ROWS, _BAND_ROWS + 1)),
], ids=["demo", "fleet", "one", "block-1", "block", "block+1"])
def test_distance_matrix_is_the_one_shot_formula(T, n_phev, n_def, S):
    cfg = make_config(T=T, n_phev=n_phev, n_def=n_def)
    ss = generate(make_genspec(cfg, seed=S), cfg, S)
    w = DistanceWeights.from_set(ss)
    X = _feature_matrix(ss, w)
    assert X.shape == (S, T + n_phev * T + n_def)
    sq = (X**2).sum(axis=1)
    expect = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0))
    np.fill_diagonal(expect, 0.0)
    got = _distance_matrix(ss, w)
    assert np.array_equal(got, expect)
    assert np.all(np.diag(got) == 0.0)


def test_reduction_holds_one_distance_matrix():
    # the distance matrix and the greedy loop work in small row blocks:
    # the traced peak is the S x S distance matrix, the S x F feature
    # matrix it is taken from, and at most 1 MiB of blocks and vectors
    S = 2000
    ss = demo_set(S, 3)
    F = _feature_matrix(ss, DistanceWeights.from_set(ss)).shape[1]
    tracemalloc.start()
    try:
        reduce_fast_forward(ss, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = peak - 8 * S * S - 8 * S * F
    assert extra < 2**20, f"peak exceeds S^2 + S*F doubles by {extra / 2**20:.2f} MiB"


def test_kantorovich_distance_holds_one_difference_at_a_time():
    # the distance runs over the kept scenarios one at a time: its traced
    # peak stays within a few copies of the S x F feature matrix
    S = 2000
    ss = demo_set(S, 3)
    F = _feature_matrix(ss, DistanceWeights.from_set(ss)).shape[1]
    tracemalloc.start()
    try:
        kantorovich_distance(ss, range(0, S, S // 25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * S * F, f"peak {peak / (8 * S * F):.2f} x S*F doubles"
