import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tastecf import (
    AP_CHALLENGE,
    AP_LIST_LENGTH,
    Config,
    DuplicatePairError,
    MissingRecommendationError,
    TripletBatch,
    Vocabulary,
    average_precision,
    build_index,
    compute_idf,
    load_dataset,
    mean_average_precision,
    parse_triplets,
    precision_at_k,
    recommend_all,
    save_dataset,
    split_history,
)
from tastecf.evaluate import tracks_by_user
from tastecf.synth import random_batch
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


def _rows(batch):
    return list(zip(batch.users.tolist(), batch.tracks.tolist(),
                    batch.counts.tolist()))


def _check_split(batch, fraction, seed):
    """split_history and tracks_by_user against the reference split and a
    dict of sets built row by row, with the batch unchanged by both."""
    columns = (batch.users, batch.tracks, batch.counts)
    before = [(column.copy(), column.flags.writeable) for column in columns]
    split = split_history(batch, fraction, seed)
    visible, hidden = oracle.split_rows(_rows(batch), fraction, seed)
    assert _rows(split.visible) == visible
    assert _rows(split.hidden) == hidden
    for half in (split.visible, split.hidden):
        assert half.counts.dtype == batch.counts.dtype
        assert half.user_vocab is batch.user_vocab
        assert half.track_vocab is batch.track_vocab
    expected = {}
    for u, t, _ in _rows(batch):
        expected.setdefault(u, set()).add(t)
    by_user = tracks_by_user(batch, range(len(batch.user_vocab)),
                             range(len(batch.track_vocab)))
    assert by_user == expected
    assert list(by_user) == sorted(expected)
    for column, (copy, writeable) in zip(columns, before):
        assert column.dtype == copy.dtype
        assert np.array_equal(column, copy)
        assert column.flags.writeable == writeable


_SPLIT_SEEDS = [-3, 0, 2**64 + 5]
_SPLIT_FRACTIONS = [0.01, 0.99]


@pytest.mark.parametrize("seed", _SPLIT_SEEDS)
@pytest.mark.parametrize("fraction", _SPLIT_FRACTIONS)
def test_split_matches_reference_for_users_of_0_1_and_2_or_more_rows(
        tmp_path, fraction, seed):
    # u0 has no row, u1 one, u2 two and u3 five; rows out of order
    rows = [(3, 4, 7), (2, 1, 1), (3, 0, 2), (1, 2, 9), (3, 2, 1),
            (2, 0, 4), (3, 1, 3), (3, 3, 5)]
    users, tracks, counts = map(list, zip(*rows))
    batch = TripletBatch(np.array(users, np.int32), np.array(tracks, np.int32),
                         np.array(counts, np.int64),
                         Vocabulary(["u0", "u1", "u2", "u3"]),
                         Vocabulary(["t0", "t1", "t2", "t3", "t4"]))
    _check_split(batch, fraction, seed)
    save_dataset(batch, tmp_path / "plays.ds")
    _check_split(load_dataset(tmp_path / "plays.ds"), fraction, seed)


@st.composite
def _shuffled_rows(draw):
    """(n_users, n_tracks, rows): distinct (user, track) pairs in drawn
    order, each with an int64 play count above 32 bits for some rows."""
    n_users = draw(st.integers(1, 6))
    n_tracks = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                    st.integers(0, n_tracks - 1)),
                          unique=True, max_size=30))
    counts = draw(st.lists(st.integers(1, 2**40), min_size=len(pairs),
                           max_size=len(pairs)))
    return n_users, n_tracks, [(u, t, c) for (u, t), c in zip(pairs, counts)]


@pytest.mark.parametrize("seed", _SPLIT_SEEDS)
@pytest.mark.parametrize("fraction", _SPLIT_FRACTIONS)
@settings(max_examples=30, deadline=None)
@given(_shuffled_rows())
def test_split_matches_reference_on_shuffled_batches(tmp_path_factory,
                                                     fraction, seed, drawn):
    n_users, n_tracks, rows = drawn
    user_vocab = Vocabulary([f"u{u}" for u in range(n_users)])
    track_vocab = Vocabulary([f"t{t}" for t in range(n_tracks)])
    users = np.array([u for u, _, _ in rows], np.int32)
    tracks = np.array([t for _, t, _ in rows], np.int32)
    wide = TripletBatch(users, tracks,
                        np.array([c for _, _, c in rows], np.int64),
                        user_vocab, track_vocab)
    _check_split(wide, fraction, seed)
    # u32 counts: parsed (users renumbered in first-seen order, no user
    # without a row) and loaded (read-only columns, the vocabularies kept)
    narrow = TripletBatch(users, tracks,
                          np.array([c % 2**32 or 1 for _, _, c in rows],
                                   np.uint32),
                          user_vocab, track_vocab)
    text = "".join(f"u{u}\tt{t}\t{c}\n" for u, t, c in _rows(narrow))
    _check_split(parse_triplets(io.StringIO(text)), fraction, seed)
    path = tmp_path_factory.mktemp("split") / "plays.ds"
    save_dataset(narrow, path)
    _check_split(load_dataset(path), fraction, seed)


@pytest.mark.parametrize("seed", _SPLIT_SEEDS)
@pytest.mark.parametrize("fraction", _SPLIT_FRACTIONS)
def test_split_matches_reference_on_shuffled_synthetic_batches(fraction, seed):
    rng = np.random.default_rng(17)
    for _ in range(5):
        batch = random_batch(rng)
        order = rng.permutation(len(batch))
        _check_split(TripletBatch(batch.users[order], batch.tracks[order],
                                  batch.counts[order], batch.user_vocab,
                                  batch.track_vocab), fraction, seed)


def test_split_and_tracks_by_user_refuse_a_repeated_pair():
    # a parse refuses such a batch; one built in the library can hold it,
    # and its pair could otherwise land in both halves
    batch = TripletBatch(np.array([0, 1, 0], np.int32), np.zeros(3, np.int32),
                         np.ones(3, np.uint32), Vocabulary(["u", "v"]),
                         Vocabulary(["t"]))
    with pytest.raises(DuplicatePairError, match="duplicate"):
        split_history(batch, 0.5, seed=0)
    with pytest.raises(DuplicatePairError, match="duplicate"):
        tracks_by_user(batch, ["u", "v"], ["t"])


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
