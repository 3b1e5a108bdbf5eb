"""Binary formats (index v6, dataset v3, the index's forward half):
structural validation of crafted files (older versions included), ids the
format cannot hold, lookups in loaded vocabularies and zero-copy loads."""

import contextlib
from functools import lru_cache
import io
import os
from pathlib import Path
import stat
import struct
import tempfile
import threading
import zlib

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from tastecf import (CapacityError, ChecksumError, DataError, FormatVersionError, TripletBatch,
                     Vocabulary, build_index, compute_idf, load_dataset,
                     load_index, save_dataset, save_index)
from tastecf import index as index_module, storage
from tastecf.core import MAX_INDEX, MAX_PLAY_COUNT
from tastecf.cli import main
from tastecf.synth import skewed_batch

# the sections save_index and save_dataset hand to storage.write_file: a
# dataset file is the index's forward half
INDEX_SECTIONS = ("header", "counts", "user_vocab_size", "user_vocab",
                  "track_vocab_size", "track_vocab", "fwd_offsets",
                  "fwd_tracks", "fwd_counts", "inv_offsets", "inv_users")
DATASET_SECTIONS = INDEX_SECTIONS[:9]


def _sections(monkeypatch, save, names):
    """Run save(path) and capture its sections by name instead of writing."""
    captured = []
    with monkeypatch.context() as m:
        m.setattr(storage, "write_file", lambda path, chunks: captured.extend(chunks))
        save(None)
    return dict(zip(names, (bytes(memoryview(c)) for c in captured)))


def _write(path, sections):
    storage.write_file(path, list(sections.values()))


def _put(sections, name, dtype, position, value):
    arr = np.frombuffer(sections[name], dtype=dtype).copy()
    arr[position] = value
    sections[name] = arr.tobytes()


def _swap(sections, name, dtype, i, j):
    arr = np.frombuffer(sections[name], dtype=dtype).copy()
    arr[[i, j]] = arr[[j, i]]
    sections[name] = arr.tobytes()


def _vocab_text(sections, prefix, data):
    sections[f"{prefix}_vocab_size"] = struct.pack("<Q", len(data))
    sections[f"{prefix}_vocab"] = data


def _index_sections(monkeypatch, t1_batch, t1_idf):
    index = build_index(t1_batch)
    return _sections(
        monkeypatch,
        lambda path: save_index(index, t1_batch.user_vocab,
                                t1_batch.track_vocab, path, idf=t1_idf),
        INDEX_SECTIONS)


def _dataset_sections(monkeypatch, t1_batch):
    return _sections(monkeypatch, lambda path: save_dataset(t1_batch, path),
                     DATASET_SECTIONS)


def _version(sections, magic, version):
    sections["header"] = magic + struct.pack("<I", version)


# fault -> (how to write it, what the error says after the path);
# t1 has 4 users, 3 tracks and 8 interactions. These faults of the forward
# sections are written into both file kinds, which hold the same bytes there
FORWARD_FAULTS = {
    "fwd_offsets_end_past_nnz": (lambda s: _put(s, "fwd_offsets", "<i4", -1, 9),
                                 "fwd_offsets do not rise from 0 to 8"),
    "fwd_offsets_start_not_0": (lambda s: _put(s, "fwd_offsets", "<i4", 0, 1),
                                "fwd_offsets do not rise from 0 to 8"),
    "fwd_offsets_decrease": (lambda s: _put(s, "fwd_offsets", "<i4", 2, 1),
                             "fwd_offsets do not rise from 0 to 8"),
    # u4's list [a, b, c] becomes [c, b, a]: the same tracks, so the same
    # posting lengths and lists, and it loaded before the order was checked
    "fwd_tracks_swapped_within_a_list": (
        lambda s: _swap(s, "fwd_tracks", "<i4", 5, 7),
        "fwd_tracks do not rise within each user's list"),
    # u1's list [a, b] becomes [a, a]: a repeated pair
    "fwd_tracks_repeated_within_a_list": (
        lambda s: _put(s, "fwd_tracks", "<i4", 1, 0),
        "fwd_tracks do not rise within each user's list"),
}

INDEX_FAULTS = {
    **FORWARD_FAULTS,
    "inv_users_past_n_users": (lambda s: _put(s, "inv_users", "<i4", 2, 7),
                               "inv_users outside [0, 4)"),
    "inv_users_negative": (lambda s: _put(s, "inv_users", "<i4", 0, -1),
                           "inv_users outside [0, 4)"),
    "inv_offsets_end_short_of_nnz": (lambda s: _put(s, "inv_offsets", "<i4", -1, 7),
                                     "inv_offsets do not rise from 0 to 8"),
    "fwd_tracks_past_n_tracks": (lambda s: _put(s, "fwd_tracks", "<i4", 0, 3),
                                 "fwd_tracks outside [0, 3)"),
    "fwd_counts_zero": (lambda s: _put(s, "fwd_counts", "<u4", 1, 0),
                        "fwd_counts outside [1, 4294967296)"),
    "trailing_bytes": (lambda s: s.update(extra=b"\x00" * 8),
                       "8 bytes after the last section"),
    "missing_inv_users": (lambda s: s.pop("inv_users"),
                          "file body is shorter than its header says"),
    "vocab_not_utf8": (lambda s: _vocab_text(s, "user", b"u1\nu2\nu\xff\nu4"),
                       "user vocabulary: invalid UTF-8 at byte 7"),
    "vocab_count_mismatch": (lambda s: _vocab_text(s, "user", b"u1\nu2\nu3\nu4\nu5"),
                             "user vocabulary: 5 ids, header says 4"),
    "vocab_size_past_body": (
        lambda s: s.update(track_vocab_size=struct.pack("<Q", 1 << 40)),
        "file body is shorter than its header says"),
    **{f"version_{version}": (
        lambda s, version=version: _version(s, index_module._MAGIC, version),
        f"format version {version}, expected {index_module._VERSION}")
       for version in range(1, index_module._VERSION)},
    # "u1\nu2\nu3\n" still holds 4 ids, and its section ends where the
    # whole one did
    "vocab_size_within_padding": (
        lambda s: s.update(user_vocab_size=struct.pack("<Q", 9)),
        "padding at byte 57 is not zero"),
    # posting lengths 3, 2, 3 still rise from 0 to 8, but a is played by
    # two users and b by three
    "inv_offsets_shifted": (lambda s: _put(s, "inv_offsets", "<i4", 1, 3),
                            "inv_offsets differ from the tracks' counts in fwd_tracks"),
    # a's posting list [u1, u4] becomes [u4, u1]: the same lengths and the
    # same users, and it loaded before the order was checked
    "inv_users_swapped_within_a_list": (
        lambda s: _swap(s, "inv_users", "<i4", 0, 1),
        "inv_users do not rise within each posting list"),
    # b's posting list [u1, u2, u4] becomes [u1, u1, u4]
    "inv_users_repeated_within_a_list": (
        lambda s: _put(s, "inv_users", "<i4", 3, 0),
        "inv_users do not rise within each posting list"),
}

DATASET_FAULTS = {
    **FORWARD_FAULTS,
    "track_id_past_n_tracks": (lambda s: _put(s, "fwd_tracks", "<i4", 0, 3),
                               "fwd_tracks outside [0, 3)"),
    "play_count_zero": (lambda s: _put(s, "fwd_counts", "<u4", 0, 0),
                        "fwd_counts outside [1, 4294967296)"),
    "trailing_bytes": (lambda s: s.update(extra=b"\x00" * 8),
                       "8 bytes after the last section"),
    "missing_play_counts": (lambda s: s.pop("fwd_counts"),
                            "file body is shorter than its header says"),
    "header_only": (lambda s: [s.pop(name) for name in DATASET_SECTIONS[1:]],
                    "file body is shorter than its header says"),
    "vocab_not_utf8": (lambda s: _vocab_text(s, "track", b"a\n\xc3\nc"),
                       "track vocabulary: invalid UTF-8 at byte 2"),
    "vocab_count_mismatch": (lambda s: _vocab_text(s, "track", b"a\nb"),
                             "track vocabulary: 2 ids, header says 3"),
    **{f"version_{version}": (
        lambda s, version=version: _version(s, index_module._DATASET_MAGIC, version),
        f"format version {version}, expected {index_module._DATASET_VERSION}")
       for version in range(1, index_module._DATASET_VERSION)},
    "vocab_size_within_padding": (
        lambda s: s.update(track_vocab_size=struct.pack("<Q", 3)),
        "padding at byte 75 is not zero"),
}


@pytest.mark.parametrize("kind,fault", [
    *(("index", name) for name in INDEX_FAULTS),
    *(("dataset", name) for name in DATASET_FAULTS),
])
def test_structural_faults_with_valid_crc_raise_data_error(
        tmp_path, monkeypatch, t1_batch, t1_idf, kind, fault):
    if kind == "index":
        sections = _index_sections(monkeypatch, t1_batch, t1_idf)
        (write_fault, message), load = INDEX_FAULTS[fault], load_index
    else:
        sections = _dataset_sections(monkeypatch, t1_batch)
        (write_fault, message), load = DATASET_FAULTS[fault], load_dataset
    write_fault(sections)
    path = tmp_path / f"{fault}.bin"
    _write(path, sections)
    error = FormatVersionError if fault.startswith("version_") else DataError
    with pytest.raises(error) as caught:
        load(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("fault", ["inv_users_past_n_users",
                                   "fwd_offsets_end_past_nnz", "vocab_not_utf8",
                                   "version_1", "version_2", "version_3",
                                   "version_4", "version_5",
                                   "inv_users_swapped_within_a_list",
                                   "fwd_tracks_swapped_within_a_list"])
def test_recommend_on_crafted_index_exits_1(tmp_path, monkeypatch, capsys,
                                            t1_batch, t1_idf, fault):
    sections = _index_sections(monkeypatch, t1_batch, t1_idf)
    write_fault, message = INDEX_FAULTS[fault]
    write_fault(sections)
    path = tmp_path / "bad.idx"
    _write(path, sections)
    users = tmp_path / "users.txt"
    users.write_text("u1\nu3\n")
    code = main(["recommend", "--input", str(path), "--users", str(users),
                 "--out", str(tmp_path / "recs.txt")])
    assert code == 1
    assert f"error: recommend: {path}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("kind,fault", [
    *(("index", name) for name in INDEX_FAULTS),
    *(("dataset", name) for name in DATASET_FAULTS),
])
def test_a_bad_checksum_outranks_every_structural_fault(
        tmp_path, monkeypatch, t1_batch, t1_idf, kind, fault):
    # each fault is found before the end of the file, so the reader must
    # read the rest through the CRC before it lets the fault through
    if kind == "index":
        sections = _index_sections(monkeypatch, t1_batch, t1_idf)
        (write_fault, _), load = INDEX_FAULTS[fault], load_index
    else:
        sections = _dataset_sections(monkeypatch, t1_batch)
        (write_fault, _), load = DATASET_FAULTS[fault], load_dataset
    write_fault(sections)
    path = tmp_path / f"{fault}.bin"
    _write(path, sections)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: checksum mismatch"


@pytest.mark.parametrize("refresh_crc", [False, True])
def test_a_file_cut_inside_fwd_counts_fails_after_the_crc(tmp_path, monkeypatch,
                                                          refresh_crc):
    # blocks of 2 users, so the cut falls after parts already read
    monkeypatch.setattr(index_module, "_CHECK_USERS", 2)
    file_bytes, layout, _ = _fuzz_index()
    offset, size = layout["fwd_counts"]
    cut = offset + size - 12
    assert cut > offset + 8
    path = tmp_path / "cut.idx"
    path.write_bytes(_with_crc(file_bytes[:cut]) if refresh_crc else file_bytes[:cut])
    error = DataError if refresh_crc else ChecksumError
    with pytest.raises(error) as caught:
        load_index(path)
    assert type(caught.value) is error
    assert str(caught.value) == (
        f"{path}: file body is shorter than its header says" if refresh_crc
        else f"{path}: checksum mismatch")


@pytest.mark.parametrize("command", ["build", "recommend"])
def test_a_pipe_as_binary_input_exits_1_without_opening_it(tmp_path, capsys, command):
    # its size cannot be known before it is read, so it is refused by name
    # rather than read as a truncated file; opening it would wait for a writer
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    (tmp_path / "users.txt").write_text("u1\n")
    extra = (["--users", str(tmp_path / "users.txt")] if command == "recommend" else [])
    code = main([command, "--input", str(pipe), *extra, "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"error: {command}: {pipe}: not a regular file\n" in capsys.readouterr().err


def test_swapping_the_ends_of_any_forward_list_is_refused(tmp_path, monkeypatch):
    # the first and last tracks of every user with two or more, one user at
    # a time: the posting lists stay as they were, and each such file
    # loaded before the order of fwd_tracks was checked
    batch = skewed_batch(300, 60, 6.0, seed=1)
    index = build_index(batch)
    sections = _sections(
        monkeypatch,
        lambda path: save_index(index, batch.user_vocab, batch.track_vocab, path),
        INDEX_SECTIONS)
    starts, ends = index.fwd_offsets[:-1], index.fwd_offsets[1:] - 1
    users = np.flatnonzero(ends > starts)
    assert users.size == 294
    path = tmp_path / "swapped.idx"
    for u in users:
        swapped = dict(sections)
        _swap(swapped, "fwd_tracks", "<i4", starts[u], ends[u])
        _write(path, swapped)
        with pytest.raises(DataError) as caught:
            load_index(path)
        assert str(caught.value) == (
            f"{path}: fwd_tracks do not rise within each user's list"), u


def test_build_on_crafted_dataset_exits_1(tmp_path, monkeypatch, capsys, t1_batch):
    sections = _dataset_sections(monkeypatch, t1_batch)
    write_fault, message = DATASET_FAULTS["fwd_tracks_repeated_within_a_list"]
    write_fault(sections)
    path = tmp_path / "bad.ds"
    _write(path, sections)
    code = main(["build", "--input", str(path), "--out", str(tmp_path / "x.idx")])
    assert code == 1
    assert f"error: build: {path}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [None, (300, 60, 6.0)], ids=["t1", "skewed"])
def test_an_index_file_begins_with_the_sections_of_its_dataset_file(tmp_path, t1_batch,
                                                                    shape):
    batch = t1_batch if shape is None else skewed_batch(*shape, seed=1)
    dataset, built, saved = tmp_path / "d.ds", tmp_path / "d.idx", tmp_path / "s.idx"
    save_dataset(batch, dataset)
    assert main(["build", "--input", str(dataset), "--out", str(built)]) == 0
    save_index(build_index(batch), batch.user_vocab, batch.track_vocab, saved)
    data, index = dataset.read_bytes(), built.read_bytes()
    # only the magic and version (16 bytes padded) and the CRC differ
    assert data[:12] == index_module._DATASET_MAGIC + struct.pack("<I", 3)
    assert index[:12] == index_module._MAGIC + struct.pack("<I", 6)
    assert index[16:len(data) - 4] == data[16:-4]
    assert saved.read_bytes() == index


@pytest.mark.parametrize("bad_vocab", ["user", "track"])
def test_ids_with_newline_are_rejected_before_writing(tmp_path, bad_vocab):
    vocabs = {"user": Vocabulary(["u1"]), "track": Vocabulary(["a"])}
    vocabs[bad_vocab] = Vocabulary(["x", "a\nb"])
    batch = TripletBatch(np.array([0], np.int32), np.array([0], np.int32),
                         np.array([1], np.int64), vocabs["user"], vocabs["track"])
    named = r"id 'a\\nb' contains"
    dataset = tmp_path / "nl.ds"
    with pytest.raises(ValueError, match=named):
        save_dataset(batch, dataset)
    assert not dataset.exists()
    index = tmp_path / "nl.idx"
    with pytest.raises(ValueError, match=named):
        save_index(build_index(batch), batch.user_vocab, batch.track_vocab, index)
    assert not index.exists()


def test_loaded_vocabulary_behaves_like_an_interned_one(tmp_path, t1_batch):
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    loaded, interned = load_dataset(path).user_vocab, t1_batch.user_vocab
    assert loaded == interned
    assert loaded.get("u3") == interned.get("u3") == 2
    assert loaded.get("nope", -1) == interned.get("nope", -1) == -1
    assert loaded.index_of("u4") == interned.index_of("u4") == 3
    with pytest.raises(KeyError):
        loaded.index_of("nope")
    assert ("u1" in loaded) and ("nope" not in loaded)
    assert loaded.intern("u2") == interned.intern("u2") == 1
    assert loaded.intern("u9") == interned.intern("u9") == 4
    assert loaded.lookup(4) == "u9" and loaded.index_of("u9") == 4
    assert loaded == interned and len(loaded) == 5


def test_vocabulary_is_decoded_a_block_at_a_time(monkeypatch):
    monkeypatch.setattr(storage, "_BLOCK_BYTES", 4)
    # "é" is bytes 3-4 and "😀" bytes 7-10: each crosses a block boundary
    data = "ab\né\nc😀\nd".encode()
    assert storage.decode_vocab(memoryview(data), 4, "v").ids == ["ab", "é", "c😀", "d"]
    # offsets count from the start of the vocabulary, as one decode counts
    # them: a cut character fails at its first byte
    for bad, at in ((data[:12] + b"\xff", 12), (data[:9] + b"\xff" + data[10:], 7)):
        with pytest.raises(DataError, match=f"^v: invalid UTF-8 at byte {at}$"):
            storage.decode_vocab(memoryview(bad), 4, "v")
    with pytest.raises(DataError, match="^v: 4 ids, header says 5$"):
        storage.decode_vocab(memoryview(data), 5, "v")


def test_a_loaded_vocabulary_is_saved_as_its_loaded_bytes(tmp_path, t1_batch):
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    batch = load_dataset(path)
    size, data = storage.encode_vocab(batch.user_vocab)
    assert bytes(data) == b"u1\nu2\nu3\nu4" and size == struct.pack("<Q", 11)
    # the bytes read from the file, not a copy
    assert isinstance(data.obj, np.ndarray) and not data.obj.flags.writeable
    again = tmp_path / "again.ds"
    save_dataset(batch, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("first_use", [
    lambda v: v.get("a"), lambda v: v.index_of("a"), lambda v: "a" in v,
    lambda v: v.intern("z"),
])
def test_repeated_id_raises_at_first_lookup(first_use):
    vocab = Vocabulary.from_utf8(b"a\nb\na", 3, "f.idx: user vocabulary")
    assert len(vocab) == 3 and vocab.lookup(2) == "a"
    with pytest.raises(DataError, match="f.idx: user vocabulary: id 'a' appears twice"):
        first_use(vocab)


def test_crafted_file_with_duplicated_id_raises(tmp_path, monkeypatch, capsys,
                                                t1_batch, t1_idf):
    sections = _index_sections(monkeypatch, t1_batch, t1_idf)
    _vocab_text(sections, "user", b"u1\nu2\nu1\nu4")
    path = tmp_path / "dup.idx"
    _write(path, sections)
    with pytest.raises(DataError, match="'u1' appears twice"):
        load_index(path).user_vocab.get("u4")
    with pytest.raises(DataError, match="'u1' appears twice"):
        load_index(path, users=[])
    users = tmp_path / "users.txt"
    # an empty --users file is refused as well: recommend reads no index
    # without checking its user ids
    for text in ("u4\n", ""):
        users.write_text(text)
        code = main(["recommend", "--input", str(path), "--users", str(users),
                     "--out", str(tmp_path / "recs.txt")])
        assert code == 1
        assert (f"{path}: user vocabulary: id 'u1' appears twice"
                in capsys.readouterr().err)
    assert not (tmp_path / "recs.txt").exists()


def test_recommend_leaves_no_file_when_writing_fails(tmp_path, monkeypatch, capsys,
                                                    t1_batch, t1_idf):
    # the track vocabulary holds 'a' twice, which is refused before the
    # first line is written
    sections = _index_sections(monkeypatch, t1_batch, t1_idf)
    _vocab_text(sections, "track", b"a\nb\na")
    path = tmp_path / "rep.idx"
    _write(path, sections)
    users = tmp_path / "users.txt"
    users.write_text("u1\n")
    recs = tmp_path / "recs.txt"
    for before in (None, "kept\n"):
        if before is not None:
            recs.write_text(before)
        code = main(["recommend", "--input", str(path), "--users", str(users),
                     "--out", str(recs)])
        assert code == 1
        assert (f"error: recommend: {path}: track vocabulary: id 'a' appears twice\n"
                in capsys.readouterr().err)
        assert (recs.read_text() if recs.exists() else None) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["rep.idx", "users.txt"] + (["recs.txt"] if before else []))


def test_recommend_refuses_a_repeated_track_id_without_pads(tmp_path, monkeypatch,
                                                           capsys, t1_batch, t1_idf):
    # with k = 1 no list needs a pad, so no pad label looks a track id up
    sections = _index_sections(monkeypatch, t1_batch, t1_idf)
    _vocab_text(sections, "track", b"ta\ntc\nta")
    path = tmp_path / "rep.idx"
    _write(path, sections)
    users = tmp_path / "users.txt"
    users.write_text("u1\nu2\n")
    recs = tmp_path / "recs.txt"
    code = main(["recommend", "--input", str(path), "--users", str(users),
                 "--out", str(recs), "--k", "1"])
    assert code == 1
    assert (f"error: recommend: {path}: track vocabulary: id 'ta' appears twice\n"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.idx", "users.txt"]


def _recommend_to(tmp_path, out):
    code = main(["recommend", "--input", str(tmp_path / "rep.idx"),
                 "--users", str(tmp_path / "users.txt"), "--out", str(out)])
    assert code == 0


def test_recommend_out_keeps_links_pipes_and_unwritable_directories(
        tmp_path, monkeypatch, t1_batch, t1_idf):
    _write(tmp_path / "rep.idx", _index_sections(monkeypatch, t1_batch, t1_idf))
    (tmp_path / "users.txt").write_text("u1\nu2\n")
    _recommend_to(tmp_path, tmp_path / "plain.txt")
    expected = (tmp_path / "plain.txt").read_text()
    # a link is followed: its target is replaced, and the link kept
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old\n")
    link.symlink_to(real)
    _recommend_to(tmp_path, link)
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text() == expected
    # a pipe is written in place, not replaced by a file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    _recommend_to(tmp_path, pipe)
    reader.join(timeout=30)
    assert got == [expected]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    # a file in a directory that cannot be written is written in place
    inode = real.stat().st_ino
    with monkeypatch.context() as m:
        m.setattr(os, "access", lambda path, mode: False)
        _recommend_to(tmp_path, real)
    assert real.stat().st_ino == inode and real.read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.txt", "pipe", "plain.txt", "real.txt", "rep.idx", "users.txt"]


def _empty_rows_sections(monkeypatch):
    """An index whose users u2 and u4 play nothing: an empty row between
    two others, and one at the end."""
    batch = TripletBatch(np.array([0, 2, 2], np.int32), np.array([0, 0, 1], np.int32),
                         np.array([2, 5, 7], np.int64),
                         Vocabulary(["u1", "u2", "u3", "u4"]), Vocabulary(["a", "b"]))
    index = build_index(batch)
    return _sections(
        monkeypatch,
        lambda path: save_index(index, batch.user_vocab, batch.track_vocab, path,
                                idf=compute_idf(index)),
        INDEX_SECTIONS)


def test_total_plays_are_checked_over_empty_rows(tmp_path, monkeypatch):
    # no file stores them: each user's total is summed from the play counts
    # as the index loads, and an empty row totals 0, not the next row's
    # first count, which a per-row np.add.reduceat would give it
    path = tmp_path / "empty_rows.idx"
    _write(path, _empty_rows_sections(monkeypatch))
    total_plays = load_index(path).index.total_plays
    assert total_plays.tolist() == [2, 0, 12, 0]
    assert total_plays.dtype == np.int64 and not total_plays.flags.writeable


@pytest.mark.parametrize("block", [1, 2, 3])
def test_total_plays_are_checked_in_every_block_of_users(tmp_path, monkeypatch, block):
    monkeypatch.setattr(index_module, "_CHECK_USERS", block)
    sections = _empty_rows_sections(monkeypatch)
    path = tmp_path / "blocks.idx"
    _write(path, sections)
    assert load_index(path).index.total_plays.tolist() == [2, 0, 12, 0]
    # the rows' counts are 2, 5 and 7, of users 0, 2 and 2: a count changed
    # in the file moves its own user's total and no other
    for row, (user, count) in enumerate([(0, 2), (2, 5), (2, 7)]):
        changed = dict(sections)
        _put(changed, "fwd_counts", "<u4", row, 100)
        _write(path, changed)
        want = [2, 0, 12, 0]
        want[user] += 100 - count
        assert load_index(path).index.total_plays.tolist() == want


def test_loaded_index_arrays_are_read_only_and_hold_no_play_counts(tmp_path, t1_batch,
                                                                    t1_idf):
    path = tmp_path / "t1.idx"
    index = build_index(t1_batch)
    save_index(index, t1_batch.user_vocab, t1_batch.track_vocab, path, idf=t1_idf)
    loaded = load_index(path)
    arrays = [loaded.index.fwd_offsets, loaded.index.fwd_tracks,
              loaded.index.inv_offsets, loaded.index.inv_users,
              loaded.index.df, loaded.index.total_plays, loaded.idf.ln_values]
    for arr in arrays:
        assert not arr.flags.writeable
        assert arr.flags.aligned and arr.flags.c_contiguous
        assert arr.dtype.isnative
    # each was read into an array of its own: none keeps the file alive
    assert all(arr.base is None for arr in arrays)
    assert loaded.index.fwd_counts is None
    assert loaded.index.total_plays.tolist() == index.total_plays.tolist()
    with pytest.raises(ValueError, match="no play counts"):
        save_index(loaded.index, loaded.user_vocab, loaded.track_vocab,
                   tmp_path / "again.idx")
    assert not (tmp_path / "again.idx").exists()


def test_loaded_offsets_and_df_are_read_only_int32(tmp_path, t1_batch):
    path = tmp_path / "t1.idx"
    index = build_index(t1_batch)
    save_index(index, t1_batch.user_vocab, t1_batch.track_vocab, path)
    loaded = load_index(path).index
    for name in ("fwd_offsets", "inv_offsets", "df"):
        built, arr = getattr(index, name), getattr(loaded, name)
        assert built.dtype == arr.dtype == np.int32, name
        assert not built.flags.writeable and not arr.flags.writeable, name
        assert np.array_equal(built, arr), name


@pytest.mark.parametrize("crc", ["valid", "bad"])
def test_a_header_past_max_index_fails_before_any_array_is_read(
        tmp_path, monkeypatch, t1_batch, t1_idf, crc):
    sections = _index_sections(monkeypatch, t1_batch, t1_idf)
    sections["counts"] = struct.pack("<QQQ", 4, 3, MAX_INDEX + 1)
    path = tmp_path / "huge.idx"
    _write(path, sections)
    if crc == "bad":
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x10
        path.write_bytes(bytes(data))
    reads = []
    real = storage.read_verified
    monkeypatch.setattr(storage, "read_verified",
                        lambda r, dtype, count: reads.append((np.dtype(dtype), count))
                        or real(r, dtype, count))
    with pytest.raises(CapacityError if crc == "valid" else ChecksumError) as caught:
        load_index(path)
    # the header and its counts, then nothing but the CRC's pass
    assert reads == [(np.dtype("u1"), 12), (np.dtype("u1"), 24)]
    assert str(caught.value) == (
        f"{path}: {MAX_INDEX + 1} interactions exceed the 32-bit offset width"
        if crc == "valid" else f"{path}: checksum mismatch")


def test_loaded_dataset_id_arrays_are_views_of_the_file(tmp_path, t1_batch):
    # each id column is read from the file into a read-only array of its own
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    batch = load_dataset(path)
    assert batch.users.dtype == np.int32 and batch.tracks.dtype == np.int32
    for arr in (batch.users, batch.tracks):
        assert not arr.flags.writeable and arr.base is None
    assert batch.users.tolist() == t1_batch.users.tolist()
    assert batch.tracks.tolist() == t1_batch.tracks.tolist()


def test_loaded_dataset_counts_are_a_read_only_u32_view_of_the_file(tmp_path, t1_batch):
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    batch = load_dataset(path)
    assert batch.counts.dtype == np.uint32
    assert not batch.counts.flags.writeable and batch.counts.base is None
    assert batch.counts.tolist() == t1_batch.counts.tolist()


# --- generated faults: a small saved index, mutated ---------------------------

_FUZZ_USERS = ["u000001", "u000004", "u000007"]


def _captured(save) -> list:
    """The sections save(path) hands to storage.write_file."""
    captured = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(storage, "write_file", lambda path, chunks: captured.extend(chunks))
        save(None)
    return captured


def _layout(names, chunks) -> dict:
    """{section: (offset, size)} of the chunks written as one file."""
    layout, offset = {}, 0
    for name, chunk in zip(names, chunks):
        size = memoryview(chunk).nbytes
        layout[name] = (offset, size)
        offset += size + storage._padding(size)
    return layout


@lru_cache(maxsize=None)
def _fuzz_index():
    """(file bytes, {section: (offset, size)}, recs bytes) of a small index
    with an idf table, and of `recommend --k 6` for _FUZZ_USERS on it."""
    batch = skewed_batch(12, 8, 3.0, seed=4)
    index = build_index(batch)
    captured = _captured(lambda path: save_index(
        index, batch.user_vocab, batch.track_vocab, path, idf=compute_idf(index)))
    layout = _layout(INDEX_SECTIONS, captured)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.idx"
        storage.write_file(path, captured)
        data = path.read_bytes()
        code, _, recs = _recommend_bytes(Path(tmp), data)
    offset, size = layout["inv_users"]
    assert code == 0 and offset + size + storage._padding(size) == len(data) - 4
    return data, layout, recs


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _recommend_bytes(work: Path, data: bytes):
    """(exit code, stderr, recs bytes or None) of recommend on an index
    file holding `data`."""
    path, users, recs = work / "fuzz.idx", work / "users.txt", work / "recs.txt"
    path.write_bytes(data)
    users.write_text("".join(u + "\n" for u in _FUZZ_USERS))
    if recs.exists():
        recs.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["recommend", "--input", str(path), "--users", str(users),
                     "--out", str(recs), "--k", "6"])
    return code, err.getvalue(), recs.read_bytes() if recs.exists() else None


def _fails_naming(outcome, work: Path, *names, command="recommend") -> bool:
    """Whether the command exited 1, its last line a DataError naming one of
    the files, and left no output file."""
    code, err, out = outcome
    last = err.rstrip("\n").split("\n")[-1]
    return (code == 1 and out is None and "Traceback" not in err
            and any(last.startswith(f"error: {command}: {work / name}")
                    or last.endswith(f" in {work / name}") for name in names))


# the fields a rewrite puts a new value in: (section, format, entry, or
# None for any entry), and the values each format holds
_FIELDS = {"n_users": ("counts", "<Q", 0), "n_tracks": ("counts", "<Q", 1),
           "nnz": ("counts", "<Q", 2),
           "user_vocab_size": ("user_vocab_size", "<Q", 0),
           "track_vocab_size": ("track_vocab_size", "<Q", 0),
           "fwd_offsets": ("fwd_offsets", "<q", None),
           "inv_offsets": ("inv_offsets", "<q", None),
           "fwd_counts": ("fwd_counts", "<I", None)}
_RANGES = {"<Q": (0, 2**64 - 1), "<I": (0, 2**32 - 1), "<q": (-2**63, 2**63 - 1),
           "<i": (-2**31, 2**31 - 1)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_FIELDS)), st.data())
def test_rewritten_lengths_and_counts_fail_naming_the_file(field, data):
    file_bytes, layout, recs = _fuzz_index()
    section, fmt, entry = _FIELDS[field]
    offset, size = layout[section]
    width = struct.calcsize(fmt)
    if entry is None:
        entry = data.draw(st.integers(0, size // width - 1), label="entry")
    at = offset + entry * width
    (old,) = struct.unpack_from(fmt, file_bytes, at)
    lo, hi = _RANGES[fmt]
    new = data.draw(st.one_of(st.integers(max(lo, old - 3), min(hi, old + 3)),
                              st.integers(lo, hi)), label="value")
    body = bytearray(file_bytes[:-4])
    struct.pack_into(fmt, body, at, new)
    expected = recs if new == old else None
    if field.endswith("_vocab_size") and old < new <= old + storage._padding(old):
        # the last id takes in zero padding, which an id may hold: the file
        # is as valid as one written with that id
        vocab_at = layout[field[:-len("_size")]][0]
        last = file_bytes[vocab_at:vocab_at + old].rsplit(b"\n", 1)[-1]
        expected = b"\n".join(
            b" ".join(part + bytes(new - old) if part == last else part
                      for part in line.split(b" ")) for line in recs.split(b"\n"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        outcome = _recommend_bytes(work, _with_crc(bytes(body)))
        why = (field, entry, old, new, outcome[1])
        if field == "fwd_counts" and 1 <= new <= MAX_PLAY_COUNT:
            # no copy of a play count is stored to disagree with it: the
            # file is valid, and its users' play totals are the sums of
            # its counts
            ends = np.frombuffer(body, "<i4", layout["fwd_offsets"][1] // 4,
                                 layout["fwd_offsets"][0]).tolist()
            counts = np.frombuffer(body, "<u4", size // 4, offset).tolist()
            assert outcome[0] == 0, why
            assert outcome[2].count(b"\n") == len(_FUZZ_USERS), why
            assert load_index(work / "fuzz.idx").index.total_plays.tolist() == [
                sum(counts[lo:hi]) for lo, hi in zip(ends, ends[1:])], why
            return
        assert (outcome == (0, outcome[1], expected) if expected is not None
                else _fails_naming(outcome, work, "fuzz.idx")), why


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_flipped_and_truncated_index_files_fail_cleanly(data, refresh_crc):
    file_bytes = _fuzz_index()[0]
    body = bytearray(file_bytes[:-4])
    # a refreshed checksum is appended to the cut body
    kept = len(body) if refresh_crc else len(file_bytes)
    cut = data.draw(st.one_of(st.none(), st.integers(0, kept - 1)), label="cut")
    if cut is None:
        for at in data.draw(st.lists(st.integers(0, len(body) - 1), min_size=1,
                                     max_size=4, unique=True), label="flips"):
            body[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    if refresh_crc:
        mutated = _with_crc(bytes(body if cut is None else body[:cut]))
    else:
        mutated = bytes(body) + file_bytes[-4:] if cut is None else file_bytes[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        outcome = _recommend_bytes(work, mutated)
        code, err, got = outcome
        path = work / "fuzz.idx"
        if not refresh_crc:
            assert code == 1 and got is None
            assert err.endswith(f"error: recommend: {path}: "
                                + ("file truncated\n" if len(mutated) < 4
                                   else "checksum mismatch\n"))
        elif cut is not None:
            assert _fails_naming(outcome, work, "fuzz.idx"), (cut, err)
        else:
            # a flip that keeps the file valid may change the lists, but a
            # flip in an id may also leave a query user unknown
            assert (code == 0 and got is not None and got.count(b"\n") == len(_FUZZ_USERS)
                    or _fails_naming(outcome, work, "fuzz.idx", "users.txt")), err


# --- generated faults: a small saved dataset, mutated -------------------------

@lru_cache(maxsize=None)
def _fuzz_dataset():
    """(file bytes, {section: (offset, size)}, forward lists, index bytes)
    of a small dataset file, its (fwd_offsets, fwd_tracks, fwd_counts) and
    what `build` makes of it."""
    batch = skewed_batch(12, 8, 3.0, seed=4)
    captured = _captured(lambda path: save_dataset(batch, path))
    layout = _layout(DATASET_SECTIONS, captured)
    forward = tuple(np.frombuffer(bytes(memoryview(chunk)), dtype)
                    for chunk, dtype in zip(captured[6:], ("<i4", "<i4", "<u4")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ds"
        storage.write_file(path, captured)
        data = path.read_bytes()
        code, _, index = _build_bytes(Path(tmp), data)
    offset, size = layout["fwd_counts"]
    assert code == 0 and offset + size + storage._padding(size) == len(data) - 4
    return data, layout, forward, index


def _build_bytes(work: Path, data: bytes):
    """(exit code, stderr, index bytes or None) of build on a dataset file
    holding `data`."""
    path, out = work / "fuzz.ds", work / "fuzz.idx"
    path.write_bytes(data)
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["build", "--input", str(path), "--out", str(out)])
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


# the fields a rewrite puts a new value in, as _FIELDS
_DATASET_FIELDS = {"n_users": ("counts", "<Q", 0), "n_tracks": ("counts", "<Q", 1),
                   "n_triplets": ("counts", "<Q", 2),
                   "user_vocab_size": ("user_vocab_size", "<Q", 0),
                   "track_vocab_size": ("track_vocab_size", "<Q", 0),
                   "fwd_offsets": ("fwd_offsets", "<i", None),
                   "fwd_tracks": ("fwd_tracks", "<i", None),
                   "fwd_counts": ("fwd_counts", "<I", None)}


def _valid_forward(offsets, tracks, counts, n_tracks: int) -> bool:
    """Whether a file may hold these forward lists: offsets that rise from
    0 to the row count, tracks of the vocabulary that rise strictly within
    each user's list, and play counts in [1, 2**32 - 1]."""
    ends, rows = offsets.tolist(), tracks.tolist()
    return (ends[0] == 0 and ends[-1] == len(rows) and ends == sorted(ends)
            and all(0 <= t < n_tracks for t in rows)
            and all(1 <= c <= MAX_PLAY_COUNT for c in counts.tolist())
            and all(a < b for lo, hi in zip(ends, ends[1:])
                    for a, b in zip(rows[lo:hi], rows[lo + 1:hi])))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_DATASET_FIELDS)), st.data())
def test_rewritten_dataset_fields_load_exactly_or_fail_naming_the_file(field, data):
    file_bytes, layout, forward, index_bytes = _fuzz_dataset()
    section, fmt, entry = _DATASET_FIELDS[field]
    offset, size = layout[section]
    width = struct.calcsize(fmt)
    if entry is None:
        entry = data.draw(st.integers(0, size // width - 1), label="entry")
    at = offset + entry * width
    (old,) = struct.unpack_from(fmt, file_bytes, at)
    lo, hi = _RANGES[fmt]
    new = data.draw(st.one_of(st.integers(max(lo, old - 3), min(hi, old + 3)),
                              st.integers(lo, hi)), label="value")
    body = bytearray(file_bytes[:-4])
    struct.pack_into(fmt, body, at, new)
    # the forward lists the file holds when it is valid
    columns = [arr.copy() for arr in forward]
    if section in ("fwd_offsets", "fwd_tracks", "fwd_counts"):
        columns[DATASET_SECTIONS.index(section) - 6][entry] = new
        n_tracks = struct.unpack_from("<QQQ", file_bytes, layout["counts"][0])[1]
        valid = _valid_forward(*columns, n_tracks)
    else:
        # a vocabulary whose last id takes in zero padding is as valid as
        # one written with that id
        valid = new == old or (field.endswith("_vocab_size")
                               and old < new <= old + storage._padding(old))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        outcome = _build_bytes(work, _with_crc(bytes(body)))
        why = (field, entry, old, new, outcome[1])
        if not valid:
            assert _fails_naming(outcome, work, "fuzz.ds", command="build"), why
            return
        loaded = load_dataset(work / "fuzz.ds")
        offsets, tracks, counts = columns
        users = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        for got, want in zip((loaded.users, loaded.tracks, loaded.counts),
                             (users, tracks, counts)):
            assert np.array_equal(got, want), why
        # a valid file repeats no pair, so build takes it
        if new == old:
            assert outcome == (0, outcome[1], index_bytes), why
        else:
            assert outcome[0] == 0, why
            assert load_index(work / "fuzz.idx").index.nnz == tracks.size, why


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_flipped_and_truncated_dataset_files_fail_cleanly(data, refresh_crc):
    file_bytes = _fuzz_dataset()[0]
    body = bytearray(file_bytes[:-4])
    kept = len(body) if refresh_crc else len(file_bytes)
    cut = data.draw(st.one_of(st.none(), st.integers(0, kept - 1)), label="cut")
    if cut is None:
        for at in data.draw(st.lists(st.integers(0, len(body) - 1), min_size=1,
                                     max_size=4, unique=True), label="flips"):
            body[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    if refresh_crc:
        mutated = _with_crc(bytes(body if cut is None else body[:cut]))
    else:
        mutated = bytes(body) + file_bytes[-4:] if cut is None else file_bytes[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        outcome = _build_bytes(work, mutated)
        code, err, got = outcome
        if not refresh_crc:
            assert code == 1 and got is None
            assert err.endswith(f"error: build: {work / 'fuzz.ds'}: "
                                + ("file truncated\n" if len(mutated) < 4
                                   else "checksum mismatch\n"))
        elif cut is not None:
            assert _fails_naming(outcome, work, "fuzz.ds", command="build"), (cut, err)
        else:
            # a flip that keeps the file valid may change the rows
            assert (code == 0 and got is not None
                    or _fails_naming(outcome, work, "fuzz.ds", command="build")), err


@pytest.mark.parametrize("refresh_crc", [False, True])
def test_dataset_cut_at_every_section_boundary_fails_cleanly(tmp_path, refresh_crc):
    file_bytes, layout = _fuzz_dataset()[:2]
    body_size = len(file_bytes) - 4
    # each section's start, the end of its bytes and the end of its padding
    cuts = sorted({edge for offset, size in layout.values()
                   for edge in (offset, offset + size,
                                offset + size + storage._padding(size))})
    assert cuts[-1] == body_size
    if refresh_crc:
        cuts.remove(body_size)   # the whole body: the file itself
    for cut in cuts:
        data = _with_crc(file_bytes[:cut]) if refresh_crc else file_bytes[:cut]
        outcome = _build_bytes(tmp_path, data)
        if refresh_crc:
            assert _fails_naming(outcome, tmp_path, "fuzz.ds", command="build"), (
                cut, outcome[1])
        else:
            assert outcome[0] == 1 and outcome[2] is None, cut
            assert outcome[1].endswith(
                f"error: build: {tmp_path / 'fuzz.ds'}: "
                + ("file truncated\n" if cut < 4 else "checksum mismatch\n")), cut
