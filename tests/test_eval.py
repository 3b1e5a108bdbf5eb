import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tastecf import (
    AP_CHALLENGE,
    AP_LIST_LENGTH,
    Config,
    MissingRecommendationError,
    average_precision,
    build_index,
    compute_idf,
    mean_average_precision,
    parse_triplets,
    precision_at_k,
    recommend_all,
    split_history,
)
import oracle


# --- precision at k ------------------------------------------------------

def test_precision_all_hits():
    assert precision_at_k(["a", "b", "c"], {"a", "b", "c"}, 3) == 1.0


def test_precision_example_prefixes():
    ranking = ["x", "z", "y"]
    hidden = {"x", "y"}
    assert precision_at_k(ranking, hidden, 1) == 1.0
    assert precision_at_k(ranking, hidden, 2) == 0.5
    assert abs(precision_at_k(ranking, hidden, 3) - 2 / 3) < 1e-12


def test_precision_no_hits():
    assert precision_at_k(["a", "b"], {"z"}, 2) == 0.0


def test_precision_pads_count_as_misses():
    assert precision_at_k(["x", -1, -2, -3], {"x"}, 4) == 0.25


# --- average precision ---------------------------------------------------

def test_ap_perfect_single_item():
    assert average_precision(["t", "u", "v"], {"t"}, 500) == 1.0


def test_ap_challenge_golden():
    ap = average_precision(["x", "z", "y"], {"x", "y"}, 500, AP_CHALLENGE)
    assert abs(ap - 5 / 6) < 1e-12


def test_ap_list_length_golden():
    ap = average_precision(["x", "z", "y"], {"x", "y"}, 500, AP_LIST_LENGTH)
    assert abs(ap - 5 / 9) < 1e-12


def test_ap_empty_hidden_is_zero():
    assert average_precision(["x"], set(), 10) == 0.0


def test_ap_matches_oracle_on_random_rankings():
    rng = np.random.default_rng(41)
    for _ in range(200):
        universe = list(range(30))
        rng.shuffle(universe)
        length = int(rng.integers(1, 25))
        ranking = universe[:length]
        hidden = set(int(x) for x in
                     rng.choice(30, size=rng.integers(0, 10), replace=False))
        k = int(rng.integers(1, 30))
        for mode in (AP_CHALLENGE, AP_LIST_LENGTH):
            assert average_precision(ranking, hidden, k, mode) == \
                oracle.average_precision(ranking, hidden, k, mode)
        assert precision_at_k(ranking, hidden, k) == \
            oracle.precision_at(ranking, hidden, k)


def test_ap_all_hidden_in_top_positions_is_one_in_challenge_mode():
    hidden = {"a", "b", "c"}
    ranking = ["b", "c", "a", "x", "y"]
    assert average_precision(ranking, hidden, 500, AP_CHALLENGE) == 1.0


def test_ap_is_invariant_to_permutations_after_last_hit():
    ranking = ["a", "m1", "b", "m2", "m3", "m4"]
    hidden = {"a", "b"}
    base = average_precision(ranking, hidden, 6)
    shuffled = ["a", "m1", "b", "m4", "m2", "m3"]
    assert average_precision(shuffled, hidden, 6) == base


def test_moving_a_hit_earlier_never_decreases_ap():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(3, 20))
        ranking = list(range(n))
        hidden = set(int(x) for x in rng.choice(n, size=max(1, n // 4), replace=False))
        positions = [i for i, x in enumerate(ranking) if x in hidden]
        misses = [i for i, x in enumerate(ranking) if x not in hidden]
        if not positions or not misses:
            continue
        j = positions[-1]
        earlier = [i for i in misses if i < j]
        if not earlier:
            continue
        i = earlier[0]
        swapped = ranking.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for mode in (AP_CHALLENGE, AP_LIST_LENGTH):
            assert average_precision(swapped, hidden, n, mode) >= \
                average_precision(ranking, hidden, n, mode)


def test_padding_is_neutral_in_challenge_mode_and_dilutes_list_length_mode():
    ranking = ["a", "b"]
    hidden = {"a"}
    k = 10
    padded = ranking + [-1, -2, -3]
    assert average_precision(padded, hidden, k, AP_CHALLENGE) == \
        average_precision(ranking, hidden, k, AP_CHALLENGE)
    assert average_precision(padded, hidden, k, AP_LIST_LENGTH) < \
        average_precision(ranking, hidden, k, AP_LIST_LENGTH)


@given(st.data())
@settings(max_examples=100)
def test_ap_stays_in_unit_interval(data):
    n = data.draw(st.integers(2, 20))
    ranking = data.draw(st.permutations(range(n)))
    hidden = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    k = data.draw(st.integers(1, n + 5))
    for mode in (AP_CHALLENGE, AP_LIST_LENGTH):
        ap = average_precision(ranking, hidden, k, mode)
        assert 0.0 <= ap <= 1.0


# --- mean average precision ----------------------------------------------

def test_map_single_perfect_user():
    report = mean_average_precision({7: ["a"]}, {7: {"a"}}, 1)
    assert report.map_score == 1.0
    assert report.per_user == [(7, 1.0, 1)]


def test_map_is_arithmetic_mean():
    rankings = {1: ["a"], 2: ["x", "b"]}
    hidden = {1: {"a"}, 2: {"b"}}
    report = mean_average_precision(rankings, hidden, 2)
    assert report.map_score == 0.75


def test_map_skips_unevaluable_users():
    report = mean_average_precision({1: ["a"]}, {1: {"a"}, 2: set()}, 5)
    assert [row[0] for row in report.per_user] == [1]


def test_map_requires_recommendations_for_evaluated_users():
    with pytest.raises(MissingRecommendationError):
        mean_average_precision({}, {1: {"a"}}, 5)


def test_map_rejects_unknown_ap_mode():
    with pytest.raises(ValueError, match="ap_mode"):
        mean_average_precision({1: ["a"]}, {1: {"a"}}, 5, "nope")


# --- history splitting ----------------------------------------------------

def test_split_is_deterministic(t1_batch):
    a = split_history(t1_batch, 0.5, seed=7)
    b = split_history(t1_batch, 0.5, seed=7)
    assert a.visible == b.visible
    assert a.hidden == b.hidden


def test_split_seed_changes_outcome():
    text = "".join(f"u1\tt{i}\t1\n" for i in range(12))
    batch = parse_triplets(io.StringIO(text))
    splits = {tuple(split_history(batch, 0.5, seed=s).visible.tracks.tolist())
              for s in range(8)}
    assert len(splits) > 1


def test_split_partitions_each_user(t1_batch):
    split = split_history(t1_batch, 0.5, seed=3)
    for u in range(4):
        full = set(t1_batch.tracks[t1_batch.users == u].tolist())
        vis = set(split.visible.tracks[split.visible.users == u].tolist())
        hid = set(split.hidden.tracks[split.hidden.users == u].tolist())
        assert vis | hid == full
        assert vis & hid == set()
    assert len(split.visible) + len(split.hidden) == len(t1_batch)


def test_split_singleton_user_is_not_evaluable(t1_batch):
    split = split_history(t1_batch, 0.5, seed=3)
    # u3 has one distinct track: all visible, nothing hidden
    assert (split.hidden.users == 2).sum() == 0
    assert (split.visible.users == 2).sum() == 1
    assert 2 not in split.hidden_by_user()


def test_split_floor_counts():
    text = "".join(f"u1\tt{i}\t1\n" for i in range(4))
    batch = parse_triplets(io.StringIO(text))
    split = split_history(batch, 0.5, seed=0)
    assert len(split.visible) == 2
    assert len(split.hidden) == 2


def test_split_rejects_degenerate_fractions(t1_batch):
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_history(t1_batch, bad, seed=0)


def test_split_preserves_play_counts(t1_batch):
    split = split_history(t1_batch, 0.5, seed=11)
    total = int(t1_batch.counts.sum())
    assert int(split.visible.counts.sum()) + int(split.hidden.counts.sum()) == total


# --- end to end -----------------------------------------------------------

def test_end_to_end_split_evaluation_matches_metric_oracle(t1_batch):
    split = split_history(t1_batch, 0.5, seed=5)
    index = build_index(split.visible)
    idf = compute_idf(index)
    hidden = split.hidden_by_user()
    config = Config(k=3)
    rankings = {r.user: r.items
                for r in recommend_all(index, idf, sorted(hidden), config)}
    report = mean_average_precision(rankings, hidden, 3)
    expected = oracle.mean_ap(rankings, hidden, 3)
    assert report.map_score == expected
    assert 0.0 <= report.map_score <= 1.0
