from dataclasses import replace
from functools import lru_cache
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tastecf import (
    CapacityError,
    ChecksumError,
    Config,
    DataError,
    DuplicatePairError,
    IdfTable,
    TripletBatch,
    Vocabulary,
    build_index,
    compute_idf,
    load_dataset,
    load_index,
    parse_triplets,
    read_triplets,
    recommend_all,
    save_dataset,
    save_index,
    split_history,
    write_recommendations,
    write_triplets,
)
from tastecf import core, index as index_module, ingest as ingest_module
from tastecf.cli import main
from tastecf.evaluate import tracks_by_user
from tastecf.index import InteractionIndex, sorted_rows
from tastecf.synth import random_batch, skewed_batch


def _reference_build(batch):
    """The index as two np.lexsort calls build it, over int64 copies of the
    columns: the construction build_index replaced, kept as its reference,
    with offsets and df cut to the index's int32."""
    n_users = len(batch.user_vocab)
    n_tracks = len(batch.track_vocab)
    users = np.asarray(batch.users, dtype=np.int64)
    tracks = np.asarray(batch.tracks, dtype=np.int64)
    counts = np.asarray(batch.counts, dtype=np.int64)
    fwd_order = np.lexsort((tracks, users))
    fwd_users = users[fwd_order]
    fwd_tracks = tracks[fwd_order]
    fwd_counts = counts[fwd_order]
    if ((fwd_users[1:] == fwd_users[:-1])
            & (fwd_tracks[1:] == fwd_tracks[:-1])).any():
        raise DuplicatePairError(None, "duplicate (user, track) pair in batch")
    fwd_offsets = np.zeros(n_users + 1, dtype=np.int64)
    fwd_offsets[1:] = np.cumsum(np.bincount(fwd_users, minlength=n_users))
    inv_order = np.lexsort((users, tracks))
    inv_offsets = np.zeros(n_tracks + 1, dtype=np.int64)
    inv_offsets[1:] = np.cumsum(np.bincount(tracks[inv_order], minlength=n_tracks))
    total_plays = np.bincount(fwd_users, weights=fwd_counts,
                              minlength=n_users).astype(np.int64)
    fwd_offsets = fwd_offsets.astype(np.int32)
    inv_offsets = inv_offsets.astype(np.int32)
    return InteractionIndex(n_users, n_tracks, fwd_offsets,
                            fwd_tracks.astype(np.int32), fwd_counts,
                            inv_offsets, users[inv_order].astype(np.int32),
                            np.diff(inv_offsets), total_plays)


# ids on both sides of 2**16 and 2**17 that share their low 16 bits, so the
# inverse order needs the high 16-bit pass
_WIDE_TRACK_IDS = [0, 1, 2, 65535, 65536, 65537, 131071, 131072, 131073]


@lru_cache(maxsize=None)
def _vocab(n: int) -> Vocabulary:
    return Vocabulary(f"t{i}" for i in range(n))


@st.composite
def _batches(draw):
    """A batch in any row order or in (user, track) order, with writable
    or read-only columns, over at most 8 users, some of whom hold no pair,
    and a track vocabulary of at most 8 ids or of 2**16, 2**16 + 1 or
    131,074 ids, on both sides of the 2**16 above which build_index sorts
    by the high 16 bits too; and whether some pair in it is repeated."""
    n_users = draw(st.integers(1, 8))
    if draw(st.booleans()):
        n_tracks = draw(st.sampled_from([2**16, 2**16 + 1,
                                         _WIDE_TRACK_IDS[-1] + 1]))
        track_ids = st.sampled_from([t for t in _WIDE_TRACK_IDS if t < n_tracks])
    else:
        n_tracks = draw(st.integers(1, 8))
        track_ids = st.integers(0, n_tracks - 1)
    counts = st.integers(1, 2**32 - 1)
    pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1), track_ids),
                          unique=True, max_size=40))
    rows = [(u, t, draw(counts)) for u, t in pairs]
    repeated = bool(rows) and draw(st.booleans())
    if repeated:
        u, t, _ = draw(st.sampled_from(rows))
        rows.append((u, t, draw(counts)))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[:2])
    columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    columns = (columns[0].astype(np.int32), columns[1].astype(np.int32), columns[2])
    if draw(st.booleans()):
        for column in columns:
            column.flags.writeable = False
    return TripletBatch(*columns, _vocab(n_users), _vocab(n_tracks)), repeated


@settings(max_examples=300, deadline=None)
@given(_batches(), st.sampled_from([1, 2, 3, 1 << 16]))
def test_build_index_equals_the_lexsort_reference(drawn, check_rows):
    batch, repeated = drawn
    with pytest.MonkeyPatch.context() as patch:
        # blocks this short put block edges between the rows of a user
        patch.setattr(index_module, "_CHECK_ROWS", check_rows)
        if repeated:
            with pytest.raises(DuplicatePairError):
                _reference_build(batch)
            with pytest.raises(DuplicatePairError):
                build_index(batch)
            return
        index = build_index(batch)
    reference = _reference_build(batch)
    assert (index.n_users, index.n_tracks) == (reference.n_users, reference.n_tracks)
    for name in ("fwd_offsets", "fwd_tracks", "fwd_counts", "inv_offsets",
                 "inv_users", "df", "total_plays"):
        got, want = getattr(index, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


# the tracemalloc peak of build_index per triplet, beyond the batch, with
# int64 counts; it was 71-80 bytes with the lexsort construction and is
# 31-36 bytes now, on rows in (user, track) order (as skewed_batch gives
# them) and on the same rows permuted, which build_index sorts
_BUILD_BYTES_PER_TRIPLET = 42


_MEMORY_SHAPES = [
    dict(n_users=20_000, n_tracks=5_000, mean_tracks_per_user=10.0),
    # 77,224 tracks: the high 16-bit pass runs over ids above 2**16
    dict(n_users=40_000, n_tracks=100_000, mean_tracks_per_user=4.0, skew=0.3),
]
# each shape with its rows in order and permuted
_MEMORY_CASES = [pytest.param(shape, permuted, id=f"shape{i}" + "-permuted" * permuted)
                 for permuted in (False, True)
                 for i, shape in enumerate(_MEMORY_SHAPES)]


def _skewed_rows(shape, permuted: bool) -> TripletBatch:
    """skewed_batch(**shape), its rows permuted if asked."""
    batch = skewed_batch(**shape)
    if not permuted:
        return batch
    perm = np.random.default_rng(5).permutation(len(batch))
    return TripletBatch(batch.users[perm], batch.tracks[perm],
                        batch.counts[perm], batch.user_vocab, batch.track_vocab)


@pytest.mark.parametrize("shape, permuted", _MEMORY_CASES)
def test_build_index_peak_memory_per_triplet(shape, permuted):
    batch = _skewed_rows(shape, permuted)
    assert (len(batch.track_vocab) > 2**16) == (shape["n_tracks"] > 2**16)
    ordered = index_module._forward_offsets(batch.users, batch.tracks,
                                            len(batch.user_vocab)) is not None
    assert ordered != permuted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build_index(batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(batch) <= _BUILD_BYTES_PER_TRIPLET


# the tracemalloc peak of save_dataset, load_dataset and build_index beyond
# the dataset file, per triplet, for a file whose rows are in (user, track)
# order as save_dataset writes them; it was 40-46 bytes while load_dataset
# widened the counts to int64 and build_index summed total_plays as
# float64, 27-32 with the counts kept u32 and a forward sort, 19-24 with
# the file's columns taken as the forward lists, and is 22 now that the
# file stores no users column for this bound to take off
_LOAD_BUILD_BYTES_PER_TRIPLET = 26
# the same for those rows permuted, which save_dataset sorts on copies
# (27 bytes per triplet beside the batch, with no file yet) and writes as
# the same file: 22 bytes
_LOAD_SORT_BUILD_BYTES_PER_TRIPLET = 36


@pytest.mark.parametrize("shape, permuted", _MEMORY_CASES)
def test_build_from_a_dataset_file_peak_memory_per_triplet(tmp_path, shape, permuted):
    batch = _skewed_rows(shape, permuted)
    n_triplets = len(batch)
    path = tmp_path / "batch.ds"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        save_dataset(batch, path)
        build_index(load_dataset(path))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = (_LOAD_SORT_BUILD_BYTES_PER_TRIPLET if permuted
             else _LOAD_BUILD_BYTES_PER_TRIPLET)
    assert (peak - path.stat().st_size) / n_triplets <= bound


# the tracemalloc peak of serving recommend from an index file (load_index,
# the query users' indexes_of, write_recommendations) beyond the file body,
# per user and track id; it was 69 bytes with the widened fwd_counts, the
# nnz + 1 cumsum check and whole-vocabulary hash temporaries, and is about
# 22 now, most of it the 16 bytes per id of the user bounds and hash table
_RECOMMEND_BYTES_PER_ID = 32


def test_recommend_peak_memory_per_id(tmp_path, monkeypatch):
    batch = skewed_batch(40_000, 8_000, 2.0, seed=3)
    index = build_index(batch)
    path = tmp_path / "wide.idx"
    save_index(index, batch.user_vocab, batch.track_vocab, path, idf=compute_idf(index))
    wanted = batch.user_vocab.ids[::997]
    del index
    # blocks small enough that this index holds many, as a large one does
    monkeypatch.setattr(core, "_BLOCK_IDS", 1024, raising=False)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8192, raising=False)
    monkeypatch.setattr(index_module, "_CHECK_USERS", 1024, raising=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_index(path)
        users = loaded.user_vocab.indexes_of(wanted)
        recs = recommend_all(loaded.index, loaded.idf, users, Config(k=50))
        write_recommendations(recs, tmp_path / "recs.txt", loaded.user_vocab,
                              loaded.track_vocab)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_ids = len(batch.user_vocab) + len(batch.track_vocab)
    assert (peak - path.stat().st_size) / n_ids <= _RECOMMEND_BYTES_PER_ID
    assert (tmp_path / "recs.txt").read_text().count("\n") == len(wanted)


# the same peak for `tastecf recommend`, which resolves its --users as the
# index loads and drops the user vocabulary, bytes, bounds and hash table,
# before the first array is read; it measured 6.0 bytes per id, against 22.4
# when recommend resolved its ids in the whole loaded vocabulary
_CLI_RECOMMEND_BYTES_PER_ID = 8


def test_cli_recommend_peak_memory_per_id(tmp_path, monkeypatch, capsys):
    batch = skewed_batch(40_000, 8_000, 2.0, seed=3)
    index = build_index(batch)
    path = tmp_path / "wide.idx"
    save_index(index, batch.user_vocab, batch.track_vocab, path)
    users = tmp_path / "users.txt"
    users.write_text("".join(u + "\n" for u in batch.user_vocab.ids[::997]))
    n_ids = len(batch.user_vocab) + len(batch.track_vocab)
    del index, batch
    monkeypatch.setattr(core, "_BLOCK_IDS", 1024, raising=False)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 8192, raising=False)
    monkeypatch.setattr(index_module, "_CHECK_USERS", 1024, raising=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["recommend", "--input", str(path), "--users", str(users),
                     "--out", str(tmp_path / "recs.txt"), "--k", "50"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert (peak - path.stat().st_size) / n_ids <= _CLI_RECOMMEND_BYTES_PER_ID
    lines = (tmp_path / "recs.txt").read_text().splitlines()
    assert [line.split(" ")[0] for line in lines] == users.read_text().split()


# stored user ids, and ids to look up among them: a tab, multi-byte
# characters, the empty id, prefixes and extensions of stored ids, a lone
# surrogate
_STORED_USERS = ["u1", "u\t2", "ü3", "日本", "", "u", "u10", "x" * 40]
_WANTED_USERS = {
    "none": [],
    "one": ["u1"],
    "all-reordered": _STORED_USERS[::-1],
    "unknown": ["u1\t", "u\t", "ü", "日", "日本語", "u100", "x" * 39, "x" * 41,
                "U1", " ", "\ud800"],
    "mixed": ["u10", "nope", "u1", "", "u\t2"],
}


@pytest.mark.parametrize("wanted", _WANTED_USERS.values(), ids=_WANTED_USERS)
def test_load_index_for_users_equals_a_lookup_in_the_whole_vocabulary(tmp_path,
                                                                      wanted):
    n = len(_STORED_USERS)
    batch = TripletBatch(np.arange(n, dtype=np.int32), np.arange(n, dtype=np.int32) % 3,
                         np.arange(1, n + 1, dtype=np.int64),
                         Vocabulary(_STORED_USERS), Vocabulary(["a", "b", "c"]))
    path = tmp_path / "ids.idx"
    save_index(build_index(batch), batch.user_vocab, batch.track_vocab, path)
    full = load_index(path)
    loaded = load_index(path, users=wanted)
    assert loaded.user_indexes == full.user_vocab.indexes_of(wanted)
    assert loaded.user_vocab is None and full.user_indexes is None
    assert loaded.index == full.index
    assert loaded.track_vocab == full.track_vocab
    assert loaded.idf == full.idf


def test_load_index_for_users_holds_no_user_vocabulary(tmp_path):
    # long ids, so that the user vocabulary's bytes outweigh the slack
    batch = skewed_batch(5_000, 500, 3.0, seed=3)
    users = Vocabulary(f"{u:040x}" for u in range(len(batch.user_vocab)))
    batch = TripletBatch(batch.users, batch.tracks, batch.counts, users,
                         batch.track_vocab)
    path = tmp_path / "long.idx"
    save_index(build_index(batch), users, batch.track_vocab, path)
    wanted = users.ids[::500]
    held = {}
    for key in (None, wanted):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_index(path, users=key)
            held[key is None] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert loaded.user_indexes == list(range(0, len(users), 500))
    # the whole-vocabulary load holds the id bytes, and builds no table
    assert held[False] + len(users.utf8()) <= held[True] + 4096


# what load_index may hold beyond the arrays it returns: one block of the
# play count pass, 4 bytes of counts and 8 of their running sum per row of
# the largest block of users, 4 more for the next block's counts while it
# is read, and 32 KiB for the small arrays and objects of the other checks;
# the whole-file read it replaced held every play count, 4 bytes a triplet
_LOAD_BLOCK_BYTES_PER_ROW = 16
_LOAD_SLACK_BYTES = 1 << 15


def test_load_index_holds_at_most_one_block_beyond_what_it_returns(tmp_path,
                                                                   monkeypatch):
    batch = skewed_batch(20_000, 2_000, 10.0, seed=3)
    index = build_index(batch)
    path = tmp_path / "skewed.idx"
    save_index(index, batch.user_vocab, batch.track_vocab, path, idf=compute_idf(index))
    del index
    # blocks small against the file, as at the paper's shape
    monkeypatch.setattr(index_module, "_CHECK_USERS", 1024)
    monkeypatch.setattr(index_module, "_CHECK_ROWS", 4096)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_index(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    got = loaded.index
    assert got.fwd_counts is None
    returned = sum(arr.nbytes for arr in (
        got.fwd_offsets, got.fwd_tracks, got.inv_offsets, got.inv_users, got.df,
        got.total_plays, loaded.idf.ln_values))
    returned += len(loaded.user_vocab.utf8()) + len(loaded.track_vocab.utf8())
    firsts = np.append(np.arange(0, got.n_users, 1024), got.n_users)
    rows = int(np.diff(got.fwd_offsets[firsts]).max())
    # the play counts alone would not fit
    assert 4 * got.nnz > _LOAD_BLOCK_BYTES_PER_ROW * rows + _LOAD_SLACK_BYTES
    assert peak - returned <= _LOAD_BLOCK_BYTES_PER_ROW * rows + _LOAD_SLACK_BYTES


def test_empty_batch_builds_empty_index():
    index = build_index(parse_triplets(io.StringIO("")))
    assert index.n_users == 0
    assert index.n_tracks == 0
    assert index.nnz == 0


def test_t1_aggregates(t1_index):
    assert t1_index.df.tolist() == [2, 3, 3]
    assert t1_index.total_plays.tolist() == [3, 4, 5, 3]


def test_t1_inverted_posting_for_track_a(t1_index):
    assert t1_index.posting(0).tolist() == [0, 3]


def test_t1_forward_lists(t1_index):
    assert t1_index.forward_tracks(0).tolist() == [0, 1]
    assert t1_index.forward_counts(0).tolist() == [2, 1]
    assert t1_index.forward_tracks(2).tolist() == [2]


def test_triplet_count_conservation(t1_index):
    assert int(t1_index.df.sum()) == t1_index.nnz
    assert int(np.diff(t1_index.fwd_offsets).sum()) == t1_index.nnz


def test_permuted_triplet_order_builds_identical_index(t1_batch):
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(t1_batch))
    shuffled = TripletBatch(t1_batch.users[perm], t1_batch.tracks[perm],
                            t1_batch.counts[perm], t1_batch.user_vocab,
                            t1_batch.track_vocab)
    assert build_index(shuffled) == build_index(t1_batch)


def test_forward_inverted_consistency_on_random_batches():
    rng = np.random.default_rng(11)
    for _ in range(20):
        batch = random_batch(rng, max_users=20, max_tracks=12)
        index = build_index(batch)
        pairs = {(int(u), int(t))
                 for u, t in zip(batch.users, batch.tracks)}
        for u in range(index.n_users):
            for t in index.forward_tracks(u).tolist():
                assert (u, t) in pairs
                assert u in index.posting(t).tolist()
        for t in range(index.n_tracks):
            for u in index.posting(t).tolist():
                assert t in index.forward_tracks(u).tolist()
        assert int(index.df.sum()) == len(batch)


def test_row_gathers_equal_concatenated_slices():
    rng = np.random.default_rng(14)
    for _ in range(20):
        batch = random_batch(rng, max_users=20, max_tracks=12)
        batch.user_vocab.intern("loner")   # a user with an empty forward list
        index = build_index(batch)
        users = rng.integers(0, index.n_users, int(rng.integers(0, 30)))
        tracks = rng.integers(0, index.n_tracks, int(rng.integers(0, 30)))
        for (got, lens), rows, row in (
                (index.forward_rows(users), users, index.forward_tracks),
                (index.posting_rows(tracks), tracks, index.posting)):
            pieces = [row(r) for r in rows.tolist()]
            assert lens.tolist() == [p.size for p in pieces]
            assert got.tolist() == [x for p in pieces for x in p.tolist()]
        empty, lens = index.forward_rows(np.array([index.n_users - 1]))
        assert empty.size == 0 and lens.tolist() == [0]


def test_lists_are_sorted_and_duplicate_free():
    rng = np.random.default_rng(12)
    batch = random_batch(rng, max_users=30, max_tracks=20)
    index = build_index(batch)
    for u in range(index.n_users):
        tracks = index.forward_tracks(u)
        assert np.all(np.diff(tracks) > 0)
    for t in range(index.n_tracks):
        users = index.posting(t)
        assert np.all(np.diff(users) > 0)


def test_ordered_unordered_and_permuted_rows_give_the_same_index_file(tmp_path):
    batch = skewed_batch(10_000, 150_000, 10.0, seed=4, skew=0.0)
    assert len(batch.track_vocab) > 2**16
    rng = np.random.default_rng(4)
    perm = rng.permutation(len(batch))
    text = tmp_path / "plays.txt"
    write_triplets(TripletBatch(batch.users[perm], batch.tracks[perm],
                                batch.counts[perm], batch.user_vocab,
                                batch.track_vocab), text)
    # save_dataset sorts rows in line order: the file ingest writes
    save_dataset(read_triplets(text), tmp_path / "unordered.ds")
    assert main(["ingest", "--input", str(text),
                 "--out", str(tmp_path / "ordered.ds")]) == 0
    assert ((tmp_path / "unordered.ds").read_bytes()
            == (tmp_path / "ordered.ds").read_bytes())
    ordered = load_dataset(tmp_path / "ordered.ds")
    # rows in line order, which build_index sorts
    unordered = parsed = read_triplets(text)
    perm = rng.permutation(len(parsed))
    permuted = TripletBatch(parsed.users[perm], parsed.tracks[perm],
                            parsed.counts[perm], parsed.user_vocab,
                            parsed.track_vocab)
    files = []
    for name, rows in (("ordered", ordered), ("unordered", unordered),
                       ("permuted", permuted)):
        index = build_index(rows)
        # only the ordered file's columns are the forward lists themselves
        assert np.shares_memory(index.fwd_tracks, rows.tracks) == (name == "ordered")
        assert np.shares_memory(index.fwd_counts, rows.counts) == (name == "ordered")
        path = tmp_path / f"{name}.idx"
        save_index(index, rows.user_vocab, rows.track_vocab, path,
                   idf=compute_idf(index))
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]


@pytest.mark.parametrize("repeated", [False, True])
def test_unordered_rows_too_wide_for_a_packed_key_build_the_reference(
        monkeypatch, repeated):
    # 2**16 + 1 users and tracks and a count of 2**32 - 1 need 66 bits, so
    # sort_by_pair takes its argsort of user << 32 | track
    n = 2**16 + 1
    rng = np.random.default_rng(6)
    users = rng.permutation(n).astype(np.int32)
    tracks = rng.permutation(n).astype(np.int32)
    counts = rng.integers(1, 2**32 - 1, n, endpoint=True).astype(np.uint32)
    counts[11] = 2**32 - 1
    if repeated:
        users[12], tracks[12] = users[11], tracks[11]
    batch = TripletBatch(users, tracks, counts, _vocab(n), _vocab(n))
    argsorts = []
    pair_keys = ingest_module._pair_keys
    monkeypatch.setattr(ingest_module, "_pair_keys",
                        lambda b: argsorts.append(b) or pair_keys(b))
    if repeated:
        with pytest.raises(DuplicatePairError) as err:
            build_index(batch)
        assert str(err.value) == "duplicate (user, track) pair in batch"
    else:
        assert build_index(batch) == _reference_build(batch)
    assert argsorts


def test_ordered_writable_rows_are_copied_into_the_index(t1_batch):
    order = np.lexsort((t1_batch.tracks, t1_batch.users))
    batch = TripletBatch(t1_batch.users[order], t1_batch.tracks[order],
                         t1_batch.counts[order].astype(np.uint32),
                         t1_batch.user_vocab, t1_batch.track_vocab)
    index = build_index(batch)
    want = build_index(t1_batch)
    batch.tracks[:] = 0
    batch.counts[:] = 9
    assert index == want
    assert not index.fwd_tracks.flags.writeable
    assert not index.fwd_counts.flags.writeable


@pytest.mark.parametrize("source", ["library", "file"])
def test_repeated_pair_in_ordered_rows_is_rejected(tmp_path, source):
    # users never fall and tracks never fall within a user: ordered, but
    # for the repeat of (u1, b)
    batch = TripletBatch(np.array([0, 0, 0, 1], np.int32),
                         np.array([0, 1, 1, 0], np.int32),
                         np.array([1, 2, 3, 4], np.uint32),
                         Vocabulary(["u0", "u1"]), Vocabulary(["a", "b"]))
    with pytest.raises(DuplicatePairError) as err:
        if source == "file":
            # save_dataset refuses it before it writes anything
            save_dataset(batch, tmp_path / "repeat.ds")
        else:
            build_index(batch)
    assert str(err.value) == "duplicate (user, track) pair in batch"
    assert not (tmp_path / "repeat.ds").exists()


def test_duplicate_pair_in_programmatic_batch_is_rejected():
    vocab_u = Vocabulary(["u1"])
    vocab_t = Vocabulary(["a"])
    batch = TripletBatch(np.array([0, 0], np.int32), np.array([0, 0], np.int32),
                         np.array([1, 2], np.int64), vocab_u, vocab_t)
    with pytest.raises(DuplicatePairError):
        build_index(batch)


def test_sorted_rows_takes_an_ordered_batch_as_it_is(t1_batch):
    # a parsed batch is ordered: no copy is made
    rows, offsets = sorted_rows(t1_batch)
    assert rows is t1_batch
    assert offsets.tolist() == [0, 2, 4, 5, 8]
    # any other order is sorted on copies, and the batch is left as it was
    order = np.arange(len(t1_batch))[::-1]
    shuffled = TripletBatch(t1_batch.users[order], t1_batch.tracks[order],
                            t1_batch.counts[order], t1_batch.user_vocab,
                            t1_batch.track_vocab)
    rows, offsets = sorted_rows(shuffled)
    assert rows is not shuffled and rows == t1_batch
    assert offsets.tolist() == [0, 2, 4, 5, 8]
    assert shuffled.users.tolist() == t1_batch.users.tolist()[::-1]


@pytest.mark.parametrize("offsets_of", [
    lambda batch: build_index(batch).fwd_offsets,
    lambda batch: sorted_rows(batch)[1],
    lambda batch: split_history(batch, 0.5, seed=0).visible,
    lambda batch: tracks_by_user(batch, range(4), range(3)),
], ids=["build_index", "sorted_rows", "split_history", "tracks_by_user"])
def test_int32_offsets_refuse_more_triplets_than_they_hold(
        monkeypatch, t1_batch, offsets_of):
    # t1 has 4 users, 3 tracks and 8 triplets: a limit of 8 holds them all
    monkeypatch.setattr(index_module, "MAX_INDEX", 8)
    offsets_of(t1_batch)
    monkeypatch.setattr(index_module, "MAX_INDEX", 7)
    with pytest.raises(CapacityError,
                       match="^8 triplets exceed the 32-bit offset width$"):
        offsets_of(t1_batch)


def test_out_of_range_index_is_rejected():
    batch = TripletBatch(np.array([5], np.int32), np.array([0], np.int32),
                         np.array([1], np.int64), Vocabulary(["u1"]),
                         Vocabulary(["a"]))
    with pytest.raises(DataError):
        build_index(batch)


@pytest.mark.parametrize("tracks,counts,message", [
    ([0, 2], [1, 1], "track index outside vocabulary range"),
    ([0, 1], [1, 0], "play_count must be >= 1"),
])
def test_build_index_refuses_a_track_past_n_tracks_or_a_count_of_0(
        tracks, counts, message):
    batch = TripletBatch(np.array([0, 1], np.int32), np.array(tracks, np.int32),
                         np.array(counts, np.uint32), Vocabulary(["u1", "u2"]),
                         Vocabulary(["a", "b"]))
    with pytest.raises(DataError, match=f"^{message}$"):
        build_index(batch)


def test_index_arrays_are_frozen(t1_index):
    with pytest.raises(ValueError):
        t1_index.df[0] = 99


@pytest.mark.parametrize("counts", [np.int64, np.uint32])
def test_total_plays_are_int64_sums(counts):
    # user 1 has no rows, and user 2's two counts sum past 2**32
    top = 2**32 - 1
    batch = TripletBatch(np.array([2, 0, 2, 3], np.int32),
                         np.array([0, 1, 1, 0], np.int32),
                         np.array([top, 7, top, 1], counts),
                         Vocabulary(["u0", "u1", "u2", "u3"]), Vocabulary(["a", "b"]))
    index = build_index(batch)
    assert index.fwd_counts.dtype == counts
    assert index.total_plays.dtype == np.int64
    assert index.total_plays.tolist() == [7, 0, 2 * top, 1]


def test_save_index_rejects_play_count_above_u32(tmp_path):
    batch = TripletBatch(np.array([0], dtype=np.int32), np.array([0], dtype=np.int32),
                         np.array([5_000_000_000], dtype=np.int64),
                         Vocabulary(["u1"]), Vocabulary(["a"]))
    index = build_index(batch)
    assert index.total_plays.tolist() == [5_000_000_000]
    path = tmp_path / "big.idx"
    with pytest.raises(ValueError, match="u32"):
        save_index(index, batch.user_vocab, batch.track_vocab, path)
    assert not path.exists()


def test_index_round_trip_without_idf(tmp_path, t1_index, t1_batch):
    path = tmp_path / "t1.idx"
    save_index(t1_index, t1_batch.user_vocab, t1_batch.track_vocab, path)
    loaded = load_index(path)
    assert loaded.index == replace(t1_index, fwd_counts=None)
    assert loaded.user_vocab == t1_batch.user_vocab
    assert loaded.track_vocab == t1_batch.track_vocab
    # no idf is stored, so the loaded table is derived whatever was saved
    assert loaded.idf == compute_idf(t1_index)


def test_index_round_trip_with_idf(tmp_path, t1_index, t1_batch, t1_idf):
    path = tmp_path / "t1.idx"
    save_index(t1_index, t1_batch.user_vocab, t1_batch.track_vocab, path,
               idf=t1_idf)
    loaded = load_index(path)
    assert loaded.idf == t1_idf
    assert loaded.idf.log_base == t1_idf.log_base


@pytest.mark.parametrize("log_base", [math.e, 2.0])
def test_loaded_idf_is_compute_idf_bit_for_bit(tmp_path, log_base):
    # the file holds no idf; the values derived at load are the natural-log
    # bits compute_idf gives for the built index, whatever base was saved
    batch = skewed_batch(300, 60, 6.0, seed=1)
    index = build_index(batch)
    path = tmp_path / "skewed.idx"
    save_index(index, batch.user_vocab, batch.track_vocab, path,
               idf=compute_idf(index, log_base))
    loaded = load_index(path).idf
    idf = compute_idf(index)
    assert loaded.log_base == math.e and loaded.n_users == idf.n_users
    assert loaded.ln_values.tobytes() == idf.ln_values.tobytes()
    assert loaded.values.tobytes() == idf.values.tobytes()
    assert not loaded.ln_values.flags.writeable


def _padded(size: int) -> int:
    return size + -size % 8


@pytest.mark.parametrize("with_idf", [False, True])
def test_index_file_size_matches_the_layout(tmp_path, with_idf):
    batch = skewed_batch(300, 60, 6.0, seed=1)
    index = build_index(batch)
    path = tmp_path / "skewed.idx"
    save_index(index, batch.user_vocab, batch.track_vocab, path,
               idf=compute_idf(index) if with_idf else None)
    n_users, n_tracks, nnz = index.n_users, index.n_tracks, index.nnz
    vocabs = sum(8 + _padded(len(vocab.utf8()))
                 for vocab in (batch.user_vocab, batch.track_vocab))
    # header, counts, vocabularies, fwd_offsets, fwd_tracks and fwd_counts,
    # inv_offsets and inv_users, CRC; nothing of the idf or the play totals,
    # and no section per track beyond the offsets
    expected = (16 + 24 + vocabs
                + _padded(4 * (n_users + 1)) + _padded(4 * nnz) + _padded(4 * nnz)
                + _padded(4 * (n_tracks + 1)) + _padded(4 * nnz)
                + 4)
    assert path.stat().st_size == expected


@pytest.mark.parametrize("change", ["scaled", "other_users"])
def test_save_index_refuses_an_idf_table_it_would_not_load(tmp_path, t1_index,
                                                           t1_batch, t1_idf, change):
    # only the base is stored, so a table that is not compute_idf's would be
    # dropped without a word
    if change == "scaled":
        table = IdfTable(t1_idf.ln_values * 2, t1_idf.n_users, t1_idf.log_base)
    else:
        table = IdfTable(t1_idf.ln_values, t1_idf.n_users + 1, t1_idf.log_base)
    path = tmp_path / "t1.idx"
    with pytest.raises(ValueError, match="not the index's"):
        save_index(t1_index, t1_batch.user_vocab, t1_batch.track_vocab, path,
                   idf=table)
    assert not path.exists()


def test_index_file_corruption_is_detected(tmp_path, t1_index, t1_batch):
    path = tmp_path / "t1.idx"
    save_index(t1_index, t1_batch.user_vocab, t1_batch.track_vocab, path)
    data = bytearray(path.read_bytes())
    data[-10] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        load_index(path)


def test_loaded_index_survives_round_trip_for_random_batches(tmp_path):
    rng = np.random.default_rng(13)
    for i in range(5):
        batch = random_batch(rng, max_users=25, max_tracks=15)
        index = build_index(batch)
        idf = compute_idf(index, 2.0) if index.n_users else None
        path = tmp_path / f"r{i}.idx"
        save_index(index, batch.user_vocab, batch.track_vocab, path, idf=idf)
        loaded = load_index(path)
        assert loaded.index == replace(index, fwd_counts=None)
        if idf is not None:
            assert loaded.idf == compute_idf(index)
