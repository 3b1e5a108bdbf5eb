import numpy as np
import pytest
from hypothesis import given, strategies as st

from tastecf import Config, DataError, Vocabulary


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


@given(st.lists(st.text(alphabet="abc", max_size=2)),
       st.lists(st.lists(st.text(alphabet="abcd", max_size=2))))
def test_intern_all_equals_interning_one_by_one(known, batches):
    bulk, single = Vocabulary(known), Vocabulary(known)
    for ids in batches:
        indexes = bulk.intern_all(ids)
        assert indexes.dtype == np.int32
        assert indexes.tolist() == [single.intern(ext_id) for ext_id in ids]
        assert bulk.ids == single.ids
    assert all(bulk.index_of(ext_id) == i for i, ext_id in enumerate(bulk.ids))


def test_intern_all_on_a_loaded_vocabulary_checks_for_repeats():
    loaded = Vocabulary.from_unique(["a", "b"])
    assert loaded.intern_all(["b", "c", "a", "c"]).tolist() == [1, 2, 0, 2]
    with pytest.raises(DataError, match="'a' appears twice"):
        Vocabulary.from_unique(["a", "a"], "f.ds").intern_all(["b"])


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
