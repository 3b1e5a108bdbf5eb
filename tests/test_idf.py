import io
import math

import numpy as np
import pytest

from tastecf import (
    EmptyIndexError,
    TripletBatch,
    Vocabulary,
    build_index,
    compute_idf,
    parse_triplets,
)
from tastecf.synth import random_batch
from conftest import IDF_A, IDF_BC


def test_universally_played_track_has_zero_idf():
    text = "".join(f"u{i}\ta\t1\n" for i in range(4))
    index = build_index(parse_triplets(io.StringIO(text)))
    table = compute_idf(index)
    assert table.values[0] == 0.0


def test_half_played_track_is_ln_two():
    text = "u1\ta\t1\nu2\ta\t1\nu3\tb\t1\nu4\tb\t1\nu1\tb\t1\nu2\tb\t1\n"
    index = build_index(parse_triplets(io.StringIO(text)))
    table = compute_idf(index)
    assert abs(table.values[0] - math.log(2)) < 1e-12


def test_t1_idf_values(t1_idf):
    assert abs(t1_idf.values[0] - IDF_A) < 1e-12
    assert abs(t1_idf.values[1] - IDF_BC) < 1e-12
    assert abs(t1_idf.values[2] - IDF_BC) < 1e-12
    assert t1_idf.n_users == 4


def test_idf_nonnegative_and_zero_iff_df_equals_n():
    rng = np.random.default_rng(5)
    for _ in range(20):
        index = build_index(random_batch(rng, max_users=15, max_tracks=10))
        table = compute_idf(index)
        played = index.df > 0
        assert np.all(table.values[played] >= 0.0)
        full = index.df == index.n_users
        assert np.array_equal(table.values == 0.0, full | ~played)


def test_rarer_track_has_strictly_higher_idf():
    rng = np.random.default_rng(6)
    for _ in range(20):
        index = build_index(random_batch(rng, max_users=15, max_tracks=10))
        table = compute_idf(index)
        for t1 in range(index.n_tracks):
            for t2 in range(index.n_tracks):
                if 0 < index.df[t1] < index.df[t2]:
                    assert table.values[t1] > table.values[t2]


def test_base_change_is_a_constant_factor(t1_index):
    bases = [math.e, 2.0, 10.0, 7.5]
    tables = {b: compute_idf(t1_index, b) for b in bases}
    for b1 in bases:
        for b2 in bases:
            factor = math.log(b2) / math.log(b1)
            v1 = tables[b1].values
            v2 = tables[b2].values
            nonzero = v2 != 0
            assert np.allclose(v1[nonzero] / v2[nonzero], factor, rtol=1e-12)


@pytest.mark.parametrize("base", [0.0, 1.0, -2.0, float("nan")])
def test_compute_idf_rejects_invalid_log_base(t1_index, base):
    with pytest.raises(ValueError, match="log_base"):
        compute_idf(t1_index, base)


def test_empty_index_is_rejected():
    index = build_index(parse_triplets(io.StringIO("")))
    with pytest.raises(EmptyIndexError):
        compute_idf(index)


def test_track_without_listeners_gets_inert_zero():
    # vocabulary knows a track that no triplet mentions (split leftovers)
    batch = TripletBatch(np.array([0], np.int32), np.array([0], np.int32),
                         np.array([1], np.int64), Vocabulary(["u1"]),
                         Vocabulary(["a", "ghost"]))
    table = compute_idf(build_index(batch))
    assert table.values[1] == 0.0


@pytest.mark.parametrize("track_ids", [[], ["a", "b"]], ids=["no-tracks", "only-df-0"])
def test_index_with_users_but_no_plays(track_ids):
    batch = TripletBatch(np.zeros(0, np.int32), np.zeros(0, np.int32),
                         np.zeros(0, np.uint32), Vocabulary(["u1", "u2"]),
                         Vocabulary(track_ids))
    table = compute_idf(build_index(batch))
    assert table.ln_values.tobytes() == np.zeros(len(track_ids)).tobytes()


def test_idf_equals_the_per_entry_formula():
    # 40 users, df values that repeat, and tracks no one plays at both ends
    # of the vocabulary and between played ones
    rng = np.random.default_rng(5)
    n_users, n_tracks = 40, 60
    played = rng.random((n_users, n_tracks)) < rng.random(n_tracks) ** 3
    played[:, [0, 17, 59]] = False
    played[:, 30] = True
    users, tracks = np.nonzero(played)
    batch = TripletBatch(users.astype(np.int32), tracks.astype(np.int32),
                         np.ones(users.size, np.int64),
                         Vocabulary([f"u{i}" for i in range(n_users)]),
                         Vocabulary([f"t{i}" for i in range(n_tracks)]))
    index = build_index(batch)
    assert 0 in index.df.tolist() and n_users in index.df.tolist()
    expected = np.array([0.0 if d == 0 else math.log(n_users / d)
                         for d in index.df.tolist()])
    table = compute_idf(index)
    assert table.ln_values.dtype == np.float64
    assert table.ln_values.tobytes() == expected.tobytes()
    assert not table.ln_values.flags.writeable
