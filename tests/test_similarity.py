import io
import math

import numpy as np

from tastecf import (
    TripletBatch,
    build_index,
    candidate_neighbors,
    compute_idf,
    parse_triplets,
    prune,
)
from tastecf.synth import random_batch
import oracle
from conftest import IDF_BC, PRUNE_THRESHOLD_U1, SIM_U1_U4, as_dict


def _weights(index, idf, u):
    cands = candidate_neighbors(index, idf, u)
    return as_dict(cands.users, cands.ln_weights)


def _pairwise_similarity(index, idf, u, v):
    """Sum of natural-log idf over the intersection of the two listening
    histories, accumulated in ascending track order."""
    common = np.intersect1d(index.forward_tracks(u), index.forward_tracks(v),
                            assume_unique=True)
    total = 0.0
    for value in idf.ln_values[common].tolist():
        total += value
    return total


def test_disjoint_histories_have_zero_similarity(t1_index, t1_idf):
    assert _pairwise_similarity(t1_index, t1_idf, 0, 2) == 0.0
    assert 2 not in _weights(t1_index, t1_idf, 0)
    assert 0 not in _weights(t1_index, t1_idf, 2)


def test_t1_single_shared_track(t1_index, t1_idf):
    assert abs(_weights(t1_index, t1_idf, 0)[1] - IDF_BC) < 1e-12


def test_t1_two_shared_tracks(t1_index, t1_idf):
    assert abs(_weights(t1_index, t1_idf, 0)[3] - SIM_U1_U4) < 1e-12


def test_similarity_is_symmetric_exactly():
    rng = np.random.default_rng(21)
    for _ in range(10):
        index = build_index(random_batch(rng, max_users=12, max_tracks=10))
        table = compute_idf(index)
        weights = [_weights(index, table, u) for u in range(index.n_users)]
        for u in range(index.n_users):
            for v, weight in weights[u].items():
                assert weights[v][u] == weight


def test_similarity_ignores_play_counts(t1_batch, t1_index, t1_idf):
    redistributed = t1_batch
    redistributed.counts.setflags(write=True)
    redistributed.counts[:] = [9, 1, 1, 7, 2, 3, 3, 3]
    index2 = build_index(redistributed)
    table2 = compute_idf(index2)
    for u in range(4):
        assert _weights(index2, table2, u) == _weights(t1_index, t1_idf, u)


def test_candidates_for_t1_users(t1_index, t1_idf):
    # u1 and u3 share no track, so neither is the other's candidate
    got = _weights(t1_index, t1_idf, 0)
    assert set(got) == {1, 3}
    assert abs(got[1] - IDF_BC) < 1e-12
    assert abs(got[3] - SIM_U1_U4) < 1e-12

    both_share_c = _weights(t1_index, t1_idf, 2)
    assert set(both_share_c) == {1, 3}
    assert abs(both_share_c[1] - IDF_BC) < 1e-12
    assert abs(both_share_c[3] - IDF_BC) < 1e-12


def test_candidates_exclude_self(t1_index, t1_idf):
    for u in range(4):
        assert u not in candidate_neighbors(t1_index, t1_idf, u).users


def test_user_with_empty_history_has_no_candidates():
    text = "u1\ta\t1\nu2\ta\t1\n"
    batch = parse_triplets(io.StringIO(text))
    batch.user_vocab.intern("loner")
    index = build_index(batch)
    table = compute_idf(index)
    assert len(candidate_neighbors(index, table, 2)) == 0


def test_candidates_match_pairwise_similarity_exactly():
    rng = np.random.default_rng(22)
    for _ in range(30):
        index = build_index(random_batch(rng))
        table = compute_idf(index)
        for u in range(index.n_users):
            for v, weight in _weights(index, table, u).items():
                assert weight == _pairwise_similarity(index, table, u, v)


def _with_track_everyone_played(batch):
    """The batch plus one track that every user played (idf exactly 0), so
    users who share nothing else are candidates of weight exactly 0.0."""
    n_users = len(batch.user_vocab)
    everyone = batch.track_vocab.intern("everyone")
    return TripletBatch(
        np.concatenate([batch.users, np.arange(n_users, dtype=np.int32)]),
        np.concatenate([batch.tracks, np.full(n_users, everyone, dtype=np.int32)]),
        np.concatenate([batch.counts, np.ones(n_users, dtype=np.int64)]),
        batch.user_vocab, batch.track_vocab)


def test_candidates_match_dense_oracle_nonzero_restriction():
    rng = np.random.default_rng(23)
    exact_zeros = 0
    for i in range(30):
        batch = random_batch(rng)
        if i % 2:
            batch = _with_track_everyone_played(batch)
        index = build_index(batch)
        table = compute_idf(index)
        triples = list(zip(batch.users.tolist(), batch.tracks.tolist(),
                           batch.counts.tolist()))
        history, listeners = oracle.build_maps(triples)
        idf = oracle.idf_values(listeners, index.n_users)
        for u in range(index.n_users):
            # whole dicts: membership includes co-listeners of weight 0.0
            got = _weights(index, table, u)
            want = oracle.user_weights(history, listeners, idf, u)
            assert got == want
            exact_zeros += sum(w == 0.0 for w in want.values())
    assert exact_zeros > 0


def test_prune_empty_candidates(t1_index, t1_idf):
    empty = candidate_neighbors(build_index(parse_triplets(io.StringIO("u1\ta\t1\n"))),
                                compute_idf(build_index(parse_triplets(io.StringIO("u1\ta\t1\n")))), 0)
    pruned = prune(empty, 0.4)
    assert len(pruned) == 0
    assert pruned.ln_w_max == 0.0


def test_prune_t1_discards_below_threshold(t1_index, t1_idf):
    pruned = prune(candidate_neighbors(t1_index, t1_idf, 0), 0.4)
    assert abs(pruned.ln_w_max - SIM_U1_U4) < 1e-12
    assert abs(0.4 * pruned.ln_w_max - PRUNE_THRESHOLD_U1) < 1e-12
    assert pruned.users.tolist() == [3]


def test_prune_keeps_boundary_ties_at_s_equals_one(t1_index, t1_idf):
    pruned = prune(candidate_neighbors(t1_index, t1_idf, 2), 1.0)
    assert pruned.users.tolist() == [1, 3]  # exact tie, both at the max


def test_prune_with_zero_ratio_retains_all_positive(t1_index, t1_idf):
    pruned = prune(candidate_neighbors(t1_index, t1_idf, 0), 0.0)
    assert set(pruned.users.tolist()) == {1, 3}


def test_prune_drops_exact_zero_weights():
    # two users share only a track everyone played: weight exactly 0
    text = "u1\ta\t1\nu2\ta\t1\n"
    index = build_index(parse_triplets(io.StringIO(text)))
    table = compute_idf(index)
    cands = candidate_neighbors(index, table, 0)
    assert as_dict(cands.users, cands.ln_weights) == {1: 0.0}
    pruned = prune(cands, 0.0)
    assert len(pruned) == 0
    assert pruned.ln_w_max == 0.0


def test_prune_orders_by_weight_desc_then_user_asc():
    rng = np.random.default_rng(24)
    for _ in range(20):
        index = build_index(random_batch(rng))
        table = compute_idf(index)
        for u in range(index.n_users):
            pruned = prune(candidate_neighbors(index, table, u), 0.2)
            keys = [(-w, v) for v, w in
                    zip(pruned.users.tolist(), pruned.ln_weights.tolist())]
            assert keys == sorted(keys)
            assert np.all(pruned.ln_weights > 0.0)
            assert np.all(pruned.ln_weights >= 0.2 * pruned.ln_w_max)


def test_threshold_monotonicity():
    rng = np.random.default_rng(25)
    ratios = [0.0, 0.2, 0.4, 0.8, 1.0]
    for _ in range(20):
        index = build_index(random_batch(rng))
        table = compute_idf(index)
        for u in range(index.n_users):
            cands = candidate_neighbors(index, table, u)
            kept = [set(prune(cands, s).users.tolist()) for s in ratios]
            for tighter, looser in zip(kept[1:], kept):
                assert tighter <= looser


def test_pruned_sets_are_identical_across_log_bases():
    rng = np.random.default_rng(26)
    for _ in range(10):
        index = build_index(random_batch(rng))
        sets = []
        for base in (math.e, 2.0, 10.0):
            table = compute_idf(index, base)
            sets.append([
                prune(candidate_neighbors(index, table, u), 0.4).users.tolist()
                for u in range(index.n_users)
            ])
        assert sets[0] == sets[1] == sets[2]
