import numpy as np
import pytest
from hypothesis import given, strategies as st

from tastecf import Config, DataError, Vocabulary, core


def test_intern_first_assignment_is_zero():
    vocab = Vocabulary()
    assert vocab.intern("A") == 0


def test_intern_is_idempotent():
    vocab = Vocabulary(["A"])
    assert vocab.intern("A") == 0
    assert len(vocab) == 1


def test_intern_assigns_next_index_and_lookup_inverts():
    vocab = Vocabulary(["A"])
    assert vocab.intern("B") == 1
    assert vocab.lookup(1) == "B"
    assert vocab.index_of("B") == 1
    assert "B" in vocab and "C" not in vocab


@given(st.lists(st.text(max_size=8)))
def test_vocabulary_is_a_bijection_over_distinct_inputs(ids):
    vocab = Vocabulary()
    for ext_id in ids:
        vocab.intern(ext_id)
    distinct = list(dict.fromkeys(ids))
    assert len(vocab) == len(distinct)
    for expected_index, ext_id in enumerate(distinct):
        assert vocab.index_of(ext_id) == expected_index
        assert vocab.lookup(expected_index) == ext_id
    # re-interning everything changes nothing
    for ext_id in ids:
        vocab.intern(ext_id)
    assert len(vocab) == len(distinct)


def _spans(ids):
    """ids encoded into one uint8 array, with the start and length of each."""
    encoded = [ext_id.encode() for ext_id in ids]
    lens = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return np.frombuffer(b"".join(encoded), np.uint8), np.cumsum(lens) - lens, lens


@given(st.lists(st.text(alphabet="abcé", max_size=2)),
       st.lists(st.lists(st.text(alphabet="abcdé\t", max_size=2))))
def test_intern_utf8_equals_interning_one_by_one(known, batches):
    distinct = list(dict.fromkeys(known))
    # interned from a list of ids, from ids held as bytes, and from ids
    # held as bytes whose list was split out before interning
    split_out = _loaded(distinct)
    assert split_out.ids == distinct
    for bulk in (Vocabulary(known), _loaded(distinct), split_out):
        # the reference: a plain dict, one id at a time
        index = dict(zip(distinct, range(len(distinct))))
        for ids in batches:
            indexes = bulk.intern_utf8(*_spans(ids))
            assert indexes.dtype == np.int32
            assert indexes.tolist() == [index.setdefault(ext_id, len(index))
                                        for ext_id in ids]
            assert bytes(bulk.utf8()) == "\n".join(index).encode()
            assert [bulk.lookup(i) for i in range(len(bulk))] == list(index)
            assert bulk.ids == list(index)
        assert all(bulk.index_of(ext_id) == i for i, ext_id in enumerate(bulk.ids))


def test_intern_utf8_on_a_loaded_vocabulary_checks_for_repeats():
    loaded = _loaded(["a", "b"])
    assert loaded.intern_utf8(*_spans(["b", "c", "a", "c"])).tolist() == [1, 2, 0, 2]
    for repeated in (Vocabulary.from_utf8(b"a\nb\na", 3, "f.ds"),
                     _loaded(["a", "a"], "f.ds")):
        with pytest.raises(DataError, match="f.ds: id 'a' appears twice"):
            repeated.intern_utf8(*_spans(["b"]))


@pytest.mark.parametrize("hash_of", [
    lambda words, starts, lens: lens.astype(np.uint64),
    lambda words, starts, lens: np.zeros(lens.size, np.uint64),
], ids=["length", "constant"])
def test_intern_utf8_is_exact_when_hashes_collide(monkeypatch, hash_of):
    monkeypatch.setattr(core, "_hash_spans", hash_of)
    vocab = Vocabulary()
    # the first call holds one id per length, so only the constant hash
    # collides in it; "cc" then shares the length hash of the stored "bb"
    assert vocab.intern_utf8(*_spans(["a", "bb", "a"])).tolist() == [0, 1, 0]
    assert vocab.intern_utf8(*_spans(["bb", "cc", "a", "d"])).tolist() == [1, 2, 0, 3]
    assert vocab.intern_utf8(*_spans(["d", "ccc"])).tolist() == [3, 4]
    assert vocab.ids == ["a", "bb", "cc", "d", "ccc"]


def test_intern_utf8_keeps_the_table_sorted_over_many_calls():
    # calls that each add a few ids, to a fresh and to a loaded vocabulary
    for vocab in (Vocabulary(["k7"]), _loaded([f"k{i}" for i in range(500)])):
        held = len(vocab)
        for call in range(200):
            ids = [f"c{call}.{i}" for i in range(5)] + ["k7", f"c{call // 2}.1"]
            vocab.intern_utf8(*_spans(ids))
            held += 5
            assert len(vocab) == held
            assert vocab._table.size == held
            assert (vocab._table[1:] > vocab._table[:-1]).all()
        assert vocab.indexes_of(vocab.ids) == list(range(held))


@pytest.mark.parametrize("ids, named", [
    (["a\nb"], "a\nb"),
    (["x", "\n", "c\nd"], "\n"),
    (["x", "y", "\nc\n\nd", "e\n"], "\nc\n\nd"),
], ids=["one", "newline-only", "three-newlines"])
def test_utf8_names_the_first_id_that_holds_a_newline(ids, named):
    vocab = Vocabulary(["k"])
    vocab.intern_utf8(*_spans(ids))
    with pytest.raises(ValueError) as caught:
        vocab.utf8()
    assert str(caught.value) == (f'id {named!r} contains "\\n", which the file '
                                 "format cannot hold")


# ids across the 8-byte words the hash reads, the empty id, a tab, and
# multi-byte UTF-8 that shifts byte lengths away from character counts
_EDGE_IDS = ["", "\t", "a" * 7, "a" * 8, "a" * 9, "a" * 16, "a" * 17,
             "b" * 7 + "é", "\t" * 9]
_ID_TEXT = st.text(alphabet="ab\té中😀", max_size=18)


def _loaded(ids, origin="vocabulary"):
    return Vocabulary.from_utf8("\n".join(ids).encode(), len(ids), origin)


@given(st.lists(st.one_of(st.sampled_from(_EDGE_IDS), _ID_TEXT), unique=True),
       st.data())
def test_indexes_of_equals_the_dict_lookup(ids, data):
    # prefixes and extensions of stored ids share all but their last word
    near = [v for i in ids for v in (i, i[:-1], i + "a", i + "\t", i + "é")]
    wanted = data.draw(st.lists(st.one_of(st.sampled_from(near or [""]), _ID_TEXT)))
    expected = list(map(dict(zip(ids, range(len(ids)))).get, wanted))
    loaded = _loaded(ids)
    assert loaded.indexes_of(wanted) == expected
    assert Vocabulary(ids).indexes_of(wanted) == expected
    assert [loaded.lookup(i) for i in range(len(ids))] == ids
    assert loaded.ids == ids and len(loaded) == len(ids)


def test_indexes_of_on_loaded_bytes_builds_no_id_map(monkeypatch):
    def no_list(self):
        raise AssertionError("id list split out")

    # the length is hashed too, so zero bytes at the end do not collide
    loaded = _loaded(["u1", "u2", "u3", "u1\0", "", "\0"])
    monkeypatch.setattr(Vocabulary, "ids", property(no_list))
    assert loaded.indexes_of(["u3", "u9", "u1", "\0"]) == [2, None, 0, 5]
    assert loaded.lookup(1) == "u2"
    with pytest.raises(IndexError):
        loaded.lookup(6)


def test_indexes_of_on_loaded_bytes_hashed_in_several_blocks():
    ids = [f"u{i}" for i in range(70_000)]
    wanted = ["u0", "u65535", "u65536", "u69999", "u70000", "u1\0"]
    assert _loaded(ids).indexes_of(wanted) == [0, 65535, 65536, 69999, None, None]


@pytest.mark.parametrize("block_bytes, block_ids", [(1, 1), (7, 3), (64, 64)])
@given(st.lists(st.one_of(st.sampled_from(_EDGE_IDS), _ID_TEXT), unique=True),
       st.lists(st.one_of(st.sampled_from(_EDGE_IDS), _ID_TEXT)), st.data())
def test_tables_built_a_block_at_a_time_equal_the_dict_lookup(
        block_bytes, block_ids, ids, wanted, data):
    # blocks small enough that ids, and the chars in them, straddle their edges
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK_BYTES", block_bytes)
        patch.setattr(core, "_BLOCK_IDS", block_ids)
        loaded = _loaded(ids)
        assert loaded.indexes_of(ids + wanted) == list(map(
            dict(zip(ids, range(len(ids)))).get, ids + wanted))
        buf, starts, lens = _loaded(ids).spans(np.arange(len(ids)))
        assert [bytes(buf[a:a + n]).decode() for a, n in zip(starts, lens)] == ids
        if ids:
            extra = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
            repeated = data.draw(st.permutations(ids + extra))
            seen = set()
            first_repeat = next(i for i in repeated if i in seen or seen.add(i))
            with pytest.raises(DataError) as caught:
                _loaded(repeated, "f.ds").check_distinct()
            assert str(caught.value) == f"f.ds: id {first_repeat!r} appears twice"


def test_indexes_of_is_exact_when_hashes_collide(monkeypatch):
    repeated = _loaded(["u1", "u2", "u1"], "f.idx: user vocabulary")
    with pytest.raises(DataError, match="f.idx: user vocabulary: id 'u1' appears twice"):
        repeated.indexes_of(["u2"])

    # a hash of the length alone: distinct stored hashes, so only the exact
    # comparison turns away a wanted id of a stored id's length
    monkeypatch.setattr(core, "_hash_spans",
                        lambda words, starts, lens: lens.astype(np.uint64))
    assert _loaded(["a", "bb", "ccc"]).indexes_of(["x", "bb", "cc", ""]) == [
        None, 1, None, None]
    # a constant hash: equal stored hashes, so the stored ids are scanned
    # once for a repeat, and every lookup walks the one run of entries
    monkeypatch.setattr(core, "_hash_spans",
                        lambda words, starts, lens: np.zeros(lens.size, np.uint64))
    assert _loaded(["u1", "u2", "u3"]).indexes_of(["u3", "u4", "u1"]) == [2, None, 0]
    repeated = _loaded(["u1", "u2", "u1"], "f.idx: user vocabulary")
    with pytest.raises(DataError, match="f.idx: user vocabulary: id 'u1' appears twice"):
        repeated.indexes_of(["u2"])


_REAL_HASH = core._hash_spans


@pytest.mark.parametrize("low_bits", [0x7FFFFFFF, 0x3F], ids=["low-31", "low-6"])
@given(st.lists(_ID_TEXT, max_size=8),
       st.lists(st.lists(st.one_of(st.sampled_from(_EDGE_IDS), _ID_TEXT),
                         max_size=6), max_size=3),
       st.data())
def test_packed_table_is_exact_when_keys_share_their_high_bits(
        low_bits, known, batches, data):
    # every id gets the same high 33 bits, so every table entry shares its
    # key and each lookup walks the whole run of entries; with 6 low bits
    # left, different ids also share their full hash now and then
    def hash_of(words, starts, lens):
        return (_REAL_HASH(words, starts, lens) & np.uint64(low_bits)
                | np.uint64(0x5A5A5A5A80000000))

    distinct = list(dict.fromkeys(known))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_hash_spans", hash_of)
        # fresh, interned from a list, and loaded from bytes
        for vocab, index in ((Vocabulary(), {}),
                             (Vocabulary(known), dict.fromkeys(distinct)),
                             (_loaded(distinct), dict.fromkeys(distinct))):
            index = dict(zip(index, range(len(index))))
            for ids in batches:
                expected = [index.setdefault(ext_id, len(index)) for ext_id in ids]
                assert vocab.intern_utf8(*_spans(ids)).tolist() == expected
            assert vocab.ids == list(index)
            wanted = data.draw(st.lists(st.one_of(
                st.sampled_from(list(index) or [""]), _ID_TEXT), max_size=6))
            assert vocab.indexes_of(wanted) == list(map(index.get, wanted))
            for ext_id in wanted:
                assert vocab.get(ext_id, -1) == index.get(ext_id, -1)
                assert (ext_id in vocab) == (ext_id in index)
                if ext_id in index:
                    assert vocab.index_of(ext_id) == index[ext_id]
                else:
                    with pytest.raises(KeyError):
                        vocab.index_of(ext_id)

        if distinct:
            extra = data.draw(st.lists(st.sampled_from(distinct), min_size=1,
                                       max_size=3))
            ids = data.draw(st.permutations(distinct + extra))
            seen = set()
            first_repeat = next(i for i in ids if i in seen or seen.add(i))
            with pytest.raises(DataError) as caught:
                _loaded(ids, "f.ds").indexes_of([])
            assert str(caught.value) == f"f.ds: id {first_repeat!r} appears twice"


def test_config_defaults():
    config = Config()
    assert config.prune_ratio == 0.4
    assert config.k == 500
    assert config.exclude_seen
    assert config.pad_strategy == "dummy"


@pytest.mark.parametrize("kwargs", [
    {"prune_ratio": -0.01},
    {"prune_ratio": 1.01},
    {"k": 0},
    {"prune_ratio": float("nan")},
    {"k": -1},
    {"pad_strategy": ""},
    {"pad_strategy": "nope"},
    {"pad_strategy": "DUMMY"},
])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


def test_config_boundary_values_are_accepted():
    Config(prune_ratio=0.0)
    Config(prune_ratio=1.0)
    Config(k=1)
