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
    # through the id dict, from ids held as bytes, and from a list of ids
    for bulk in (Vocabulary(known), _loaded(distinct),
                 Vocabulary.from_unique(list(distinct))):
        single = Vocabulary(known)
        for ids in batches:
            indexes = bulk.intern_utf8(*_spans(ids))
            assert indexes.dtype == np.int32
            assert indexes.tolist() == [single.intern(ext_id) for ext_id in ids]
            assert bytes(bulk.utf8()) == "\n".join(single.ids).encode()
            assert [bulk.lookup(i) for i in range(len(bulk))] == single.ids
            assert bulk.ids == single.ids
        assert all(bulk.index_of(ext_id) == i for i, ext_id in enumerate(bulk.ids))


def test_intern_utf8_on_a_loaded_vocabulary_checks_for_repeats():
    loaded = Vocabulary.from_unique(["a", "b"])
    assert loaded.intern_utf8(*_spans(["b", "c", "a", "c"])).tolist() == [1, 2, 0, 2]
    for repeated in (Vocabulary.from_unique(["a", "a"], "f.ds"),
                     _loaded(["a", "a"], "f.ds")):
        with pytest.raises(DataError, match="f.ds: id 'a' appears twice"):
            repeated.intern_utf8(*_spans(["b"]))


@pytest.mark.parametrize("hash_of", [
    lambda buf, starts, lens: lens.astype(np.uint64),
    lambda buf, starts, lens: np.zeros(lens.size, np.uint64),
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
    def no_map(self):
        raise AssertionError("id map built")

    # the length is hashed too, so zero bytes at the end do not collide
    loaded = _loaded(["u1", "u2", "u3", "u1\0", "", "\0"])
    monkeypatch.setattr(Vocabulary, "_id_index", no_map)
    assert loaded.indexes_of(["u3", "u9", "u1", "\0"]) == [2, None, 0, 5]
    assert loaded.lookup(1) == "u2"
    with pytest.raises(IndexError):
        loaded.lookup(6)


def test_indexes_of_is_exact_when_hashes_collide(monkeypatch):
    repeated = _loaded(["u1", "u2", "u1"], "f.idx: user vocabulary")
    with pytest.raises(DataError, match="f.idx: user vocabulary: id 'u1' appears twice"):
        repeated.indexes_of(["u2"])

    # a hash of the length alone: distinct stored hashes, so only the exact
    # comparison turns away a wanted id of a stored id's length
    monkeypatch.setattr(core, "_hash_spans",
                        lambda buf, starts, lens: lens.astype(np.uint64))
    assert _loaded(["a", "bb", "ccc"]).indexes_of(["x", "bb", "cc", ""]) == [
        None, 1, None, None]
    # a constant hash: equal stored hashes, so the id map answers
    monkeypatch.setattr(core, "_hash_spans",
                        lambda buf, starts, lens: np.zeros(lens.size, np.uint64))
    assert _loaded(["u1", "u2", "u3"]).indexes_of(["u3", "u4", "u1"]) == [2, None, 0]
    repeated = _loaded(["u1", "u2", "u1"], "f.idx: user vocabulary")
    with pytest.raises(DataError, match="f.idx: user vocabulary: id 'u1' appears twice"):
        repeated.indexes_of(["u2"])


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
