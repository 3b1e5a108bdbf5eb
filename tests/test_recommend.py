import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tastecf import (
    Config,
    DataError,
    IdfTable,
    Recommendation,
    Vocabulary,
    build_index,
    candidate_neighbors,
    compute_idf,
    parse_triplets,
    prune,
    rank_and_pad,
    recommend_all,
    recommend_one,
    render_recommendation,
    score_tracks,
)
from tastecf.recommend import ScoredTracks, pad_labels, write_recommendations
from tastecf.synth import random_batch
from conftest import SCORE_U1_C, SCORE_U3_A, SCORE_U3_B, as_dict
import oracle


def _neighbors(index, idf, u, ratio=0.4):
    return prune(candidate_neighbors(index, idf, u), ratio)


def _scores(index, idf, u, ratio=0.4):
    scored = score_tracks(index, _neighbors(index, idf, u, ratio))
    return as_dict(scored.tracks, scored.ln_scores)


def test_empty_neighbor_set_scores_nothing(t1_index, t1_idf):
    lonely = prune(candidate_neighbors(t1_index, t1_idf, 0), 1.0)
    assert _scores(t1_index, t1_idf, 2, 1.0)  # u3 has tied neighbors, sanity that they score
    empty_scored = score_tracks(
        t1_index,
        prune(candidate_neighbors(
            build_index(parse_triplets(io.StringIO("u1\ta\t1\n"))),
            IdfTable(np.zeros(1), 1, 2.718281828459045), 0), 0.4))
    assert empty_scored.tracks.size == 0
    assert lonely is not None


def test_t1_u1_scores_single_unseen_track(t1_index, t1_idf):
    got = _scores(t1_index, t1_idf, 0)
    assert set(got) == {2}
    assert abs(got[2] - SCORE_U1_C) < 1e-12


def test_t1_u3_scores_accumulate_over_tied_neighbors(t1_index, t1_idf):
    got = _scores(t1_index, t1_idf, 2)
    assert set(got) == {0, 1}
    assert abs(got[0] - SCORE_U3_A) < 1e-12
    assert abs(got[1] - SCORE_U3_B) < 1e-12


def test_exclude_seen_omits_history(t1_index, t1_idf):
    for u in range(4):
        scored = score_tracks(t1_index, _neighbors(t1_index, t1_idf, u),
                              exclude_seen=True)
        seen = set(t1_index.forward_tracks(u).tolist())
        assert not seen & set(scored.tracks.tolist())


def test_include_seen_keeps_history_and_tie_breaks_by_df(t1_index, t1_idf):
    # u1's only neighbor votes a, b, c equally; df(b)=df(c)=3 > df(a)=2
    rec = rank_and_pad(0, score_tracks(t1_index, _neighbors(t1_index, t1_idf, 0),
                                       exclude_seen=False),
                       3, "dummy", t1_index.df)
    assert rec.items == [1, 2, 0]


def test_t1_u1_k5_pads_with_dummies(t1_index, t1_idf):
    rec = recommend_one(t1_index, t1_idf, 0, Config(k=5))
    assert rec.items == [2, -1, -2, -3, -4]
    assert len(rec.scores) == 1
    assert abs(rec.scores[0] - SCORE_U1_C) < 1e-12
    assert rec.pad_count == 4
    assert rec.real_items == [2]


def test_truncation_matches_full_sort():
    rng = np.random.default_rng(31)
    tracks = np.arange(600)
    continuous = (rng.random(600), rng.integers(1, 50, 600))
    # eight score levels and three df values: ties on (score, df) straddle
    # position k, so only keeping every tie with the k-th score is correct
    quantised = (rng.integers(1, 9, 600) / 8.0, rng.integers(1, 4, 600))
    for scores, df in (continuous, quantised):
        scored = ScoredTracks(tracks, scores)
        full = sorted(range(600), key=lambda t: (-scores[t], -df[t], t))
        for k in (1, 37, 500, 599, 600, 601):
            rec = rank_and_pad(0, scored, k, "dummy", df)
            assert rec.real_items == full[:k]
            assert rec.scores == [scores[t] for t in full[:k]]
    scores, df = quantised
    assert (scores[full[499]], df[full[499]]) == (scores[full[500]], df[full[500]])


def test_equal_score_equal_df_breaks_by_lower_index():
    scored = ScoredTracks(np.array([4, 7]), np.array([0.5, 0.5]))
    df = np.array([1, 1, 1, 1, 3, 1, 1, 3])
    rec = rank_and_pad(0, scored, 2, "dummy", df)
    assert rec.items == [4, 7]


def test_popularity_padding_orders_by_df_then_index():
    scored = ScoredTracks(np.array([], dtype=np.int64), np.array([]))
    df = np.array([5, 9, 9, 2])
    rec = rank_and_pad(0, scored, 4, "popularity", df)
    assert rec.items == [1, 2, 0, 3]


def test_popularity_padding_skips_seen_and_falls_back_to_dummies():
    scored = ScoredTracks(np.array([3], dtype=np.int64), np.array([1.0]))
    df = np.array([5, 9, 9, 2])
    rec = rank_and_pad(0, scored, 6, "popularity", df, seen=np.array([1]))
    assert rec.items == [3, 2, 0, -1, -2, -3]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.data())
def test_popularity_pads_equal_the_oracle_at_the_cut(k, data):
    # a catalogue larger than k + |seen|, with df and scores on a few levels
    # each, or df mostly at one level, so that the m-th df of the pad cut
    # and, when more than k tracks score, the k-th score are tied across
    # many tracks
    n_seen = data.draw(st.integers(0, 2 * k), label="seen")
    n_tracks = data.draw(st.integers(k + n_seen + 1, 3 * k + n_seen + 20),
                         label="tracks")
    if data.draw(st.booleans(), label="flat"):
        df = np.full(n_tracks, data.draw(st.integers(0, 3), label="level"))
        others = data.draw(st.lists(st.integers(0, n_tracks - 1), max_size=k),
                           label="others")
        df[others] = data.draw(st.integers(0, 5), label="other level")
    else:
        df = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_tracks,
                                         max_size=n_tracks), label="df"))
    order = data.draw(st.permutations(range(n_tracks)), label="order")
    seen = np.array(order[:n_seen], dtype=np.int32)
    # scored tracks may be seen ones, as when seen tracks are not excluded
    scored = sorted(data.draw(st.lists(st.sampled_from(order), unique=True,
                                       max_size=2 * k), label="scored"))
    scores = [data.draw(st.integers(1, 4), label="score") / 4.0 for _ in scored]
    rec = rank_and_pad(0, ScoredTracks(np.array(scored, dtype=np.int64),
                                       np.array(scores)),
                       k, "popularity", df, seen=seen)
    assert rec.items == oracle.ranked_items(dict(zip(scored, scores)),
                                            dict(enumerate(df.tolist())), k,
                                            "popularity", seen.tolist(), n_tracks)


def test_recommend_all_empty_user_list(t1_index, t1_idf):
    assert list(recommend_all(t1_index, t1_idf, [], Config())) == []


def test_recommend_all_preserves_input_order(t1_index, t1_idf):
    users = [3, 0, 2, 1]
    recs = list(recommend_all(t1_index, t1_idf, users, Config(k=3)))
    assert [r.user for r in recs] == users
    assert all(len(r.items) == 3 for r in recs)


def test_recommend_all_t1_matches_oracle_frozen_lists(t1_index, t1_idf):
    recs = list(recommend_all(t1_index, t1_idf, range(4), Config(k=3)))
    assert [r.items for r in recs] == [
        [2, -1, -2], [0, -1, -2], [1, 0, -1], [-1, -2, -3]]


def test_recommend_all_parallel_equals_serial(t1_index, t1_idf):
    config = Config(k=4)
    serial = list(recommend_all(t1_index, t1_idf, range(4), config, workers=1))
    parallel = list(recommend_all(t1_index, t1_idf, range(4), config, workers=2))
    assert serial == parallel


def test_recommend_all_reports_bad_user(t1_index, t1_idf):
    with pytest.raises(DataError, match="99"):
        list(recommend_all(t1_index, t1_idf, [99], Config()))


def test_scaling_idf_by_power_of_two_keeps_sequences():
    rng = np.random.default_rng(32)
    for _ in range(10):
        index = build_index(random_batch(rng))
        idf = compute_idf(index)
        config = Config(k=8)
        baseline = [r.items for r in recommend_all(index, idf, range(index.n_users), config)]
        for alpha in (0.5, 4.0, 1024.0):
            scaled_values = idf.ln_values * alpha
            scaled = IdfTable(scaled_values, idf.n_users, idf.log_base)
            got = [r.items for r in
                   recommend_all(index, scaled, range(index.n_users), config)]
            assert got == baseline


def test_play_count_redistribution_leaves_scores_unchanged(t1_batch):
    index1 = build_index(t1_batch)
    idf1 = compute_idf(index1)
    moved = parse_triplets(io.StringIO(
        "u1\ta\t1\nu1\tb\t2\n"     # u1 total still 3
        "u2\tb\t1\nu2\tc\t3\n"     # u2 total still 4
        "u3\tc\t5\n"
        "u4\ta\t1\nu4\tb\t1\nu4\tc\t1\n"))
    index2 = build_index(moved)
    idf2 = compute_idf(index2)
    for u in range(4):
        assert _scores(index1, idf1, u) == _scores(index2, idf2, u)


def test_pad_labels_escape_collisions(t1_batch):
    vocab = t1_batch.track_vocab
    assert pad_labels(vocab, 3) == ["1", "2", "3"]
    vocab.intern("2")
    assert pad_labels(vocab, 3) == ["1", "#2", "3"]
    vocab.intern("#3")
    assert pad_labels(vocab, 3) == ["1", "#2", "3"]
    assert pad_labels(vocab, 0) == []


def _vocabularies(ids):
    """The same ids as a fresh, an interned-into and a loaded Vocabulary."""
    interned = Vocabulary(ids[:len(ids) // 2])
    for ext_id in ids[len(ids) // 2:]:
        interned.intern(ext_id)
    loaded = Vocabulary.from_utf8("\n".join(ids).encode(), len(ids))
    return Vocabulary(ids), interned, loaded


@given(st.lists(st.sampled_from(["1", "2", "#1", "##2", "01", "١", "", "a",
                                "3#", "#2", "##3", "+1", "1.0", "#"]),
                unique=True),
       st.integers(0, 6))
def test_pad_labels_equal_their_definition(track_ids, count):
    want = []
    for p in range(1, count + 1):
        label = str(p)
        while label in track_ids:
            label = "#" + label
        want.append(label)
    for vocab in _vocabularies(track_ids):
        assert pad_labels(vocab, count) == want
    # the three-argument render labels its own pads the same way
    rec = Recommendation(0, list(range(len(track_ids)))
                         + [-p for p in range(1, count + 1)], [])
    assert (render_recommendation(rec, Vocabulary(["u"]), Vocabulary(track_ids))
            == " ".join(["u", *track_ids, *want]))


def test_write_recommendations_resolves_pad_labels_once(tmp_path, monkeypatch):
    user_vocab = Vocabulary(["u", "v", "w"])
    track_vocab = Vocabulary(["2", "#2", "x", "y"])
    calls = []
    indexes_of = Vocabulary.indexes_of

    def counted(self, ids):
        calls.append(ids)
        return indexes_of(self, ids)

    monkeypatch.setattr(Vocabulary, "indexes_of", counted)
    recs = [Recommendation(0, [2, 3, 0, 1], []),
            Recommendation(1, [2, -1, -2, -3], []),
            Recommendation(2, [-1, -2, -3, -4], [])]
    path = tmp_path / "recs.txt"
    write_recommendations(recs, path, user_vocab, track_vocab)
    assert path.read_text() == "u x y 2 #2\nv x 1 ##2 3\nw 1 ##2 3 4\n"
    # one pad_labels call for all 4 slots: "2" clashes, then "#2"
    assert calls == [["1", "2", "3", "4"], ["#2"], ["##2"]]


_RENDER_IDS = ["1", "2", "#1", "", "a", "é", "中" * 3, "😀a", "a" * 9, "\t"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_RENDER_IDS), min_size=1, unique=True),
       st.lists(st.sampled_from(_RENDER_IDS), min_size=1, unique=True),
       st.data())
def test_written_lines_equal_joined_ids(tmp_path_factory, user_ids, track_ids, data):
    # more lists than one batch holds, each its real items then pads -1..-p
    recs = []
    for _ in range(data.draw(st.integers(0, 40), label="lists")):
        real = data.draw(st.lists(st.integers(0, len(track_ids) - 1), max_size=6))
        pads = data.draw(st.integers(0, 6 - len(real)))
        recs.append(Recommendation(data.draw(st.integers(0, len(user_ids) - 1)),
                                   real + [-p for p in range(1, pads + 1)], []))
    labels = pad_labels(Vocabulary(track_ids), 6)
    # the join of each id as a str: the render the byte gather replaced
    want = "".join(" ".join([user_ids[rec.user]]
                            + [track_ids[i] if i >= 0 else labels[-i - 1]
                               for i in rec.items]) + "\n" for rec in recs)
    path = tmp_path_factory.mktemp("recs") / "recs.txt"
    for users, tracks in zip(_vocabularies(user_ids), _vocabularies(track_ids)):
        write_recommendations(iter(recs), path, users, tracks)
        assert path.read_bytes() == want.encode("utf-8")
        assert "".join(render_recommendation(rec, users, tracks) + "\n"
                       for rec in recs) == want
        # each line's user given as its id, as `recommend` gives them
        write_recommendations(iter(recs), path, [user_ids[rec.user] for rec in recs],
                              tracks)
        assert path.read_bytes() == want.encode("utf-8")


def test_write_recommendations_refuses_fewer_user_ids_than_lists(tmp_path):
    recs = [Recommendation(0, [0, -1], []) for _ in range(20)]
    path = tmp_path / "recs.txt"
    with pytest.raises(ValueError, match="fewer user ids than recommendations"):
        write_recommendations(recs, path, ["u"] * 19, Vocabulary(["a"]))
    assert list(tmp_path.iterdir()) == []
    write_recommendations(recs, path, ["u"] * 20, Vocabulary(["a"]))
    assert path.read_text() == "u a 1\n" * 20


@pytest.mark.parametrize("bad", ["a b", "c\rd", " ", "\r"])
def test_write_recommendations_refuses_an_id_a_recs_line_cannot_hold(tmp_path, bad):
    # a recs line splits its ids at spaces, and its reader ends a line at "\r"
    recs = [Recommendation(0, [0, -1], [])]
    path = tmp_path / "recs.txt"
    for users, tracks in [*((v, Vocabulary(["x"])) for v in _vocabularies(["u", bad])),
                          *((Vocabulary(["u"]), v) for v in _vocabularies(["x", bad])),
                          ([bad], Vocabulary(["x"]))]:
        with pytest.raises(DataError) as error:
            write_recommendations(recs, path, users, tracks)
        assert f"id {bad!r} holds a space or a line end" in str(error.value)
        assert list(tmp_path.iterdir()) == []
    # a tab is kept, as the recs reader keeps it
    write_recommendations(recs, path, ["u\tv"], Vocabulary(["x\ty"]))
    assert path.read_text() == "u\tv x\ty 1\n"


def test_render_recommendation_line(t1_batch, t1_index, t1_idf):
    rec = recommend_one(t1_index, t1_idf, 0, Config(k=5))
    line = render_recommendation(rec, t1_batch.user_vocab, t1_batch.track_vocab)
    assert line == "u1 c 1 2 3 4"
