from array import array
from functools import lru_cache
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tastecf import (
    ChecksumError,
    DuplicatePairError,
    FormatVersionError,
    MalformedLineError,
    TripletBatch,
    Vocabulary,
    load_dataset,
    parse_triplets,
    read_triplets,
    save_dataset,
    sort_by_pair,
    write_triplets,
)
from tastecf import core, ingest
from tastecf.core import MAX_PLAY_COUNT
from conftest import T1_TEXT


def _reference_parse(stream):
    """parse_triplets as one loop over lines: the specification the chunked
    parser must match, batch for batch and error for error."""
    # interned through plain dicts, so that the reference does not run the
    # Vocabulary lookups under test
    user_index = {}
    track_index = {}
    users = array("i")
    tracks = array("i")
    counts = array("q")
    seen_pairs = set()

    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLineError(
                line_no, f"expected 3 '\\t'-separated fields, got {len(parts)}")
        user_ext, track_ext, count_text = parts
        if " " in user_ext or " " in track_ext:
            raise MalformedLineError(
                line_no, f"id contains a space: {user_ext!r}, {track_ext!r}")
        try:
            user_ext.encode("utf-8")
            track_ext.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLineError(
                line_no, f"id is not valid Unicode: {user_ext!r}, {track_ext!r}") from None
        if not (count_text.isascii() and count_text.isdecimal()):
            raise MalformedLineError(
                line_no, f"play_count is not a base-10 integer: {count_text!r}")
        if len(count_text) > 10:
            count_text = count_text.lstrip("0") or "0"
        count = int(count_text) if len(count_text) <= 10 else MAX_PLAY_COUNT + 1
        if not 1 <= count <= MAX_PLAY_COUNT:
            raise MalformedLineError(
                line_no, f"play_count must be in [1, {MAX_PLAY_COUNT}]")
        u = user_index.setdefault(user_ext, len(user_index))
        t = track_index.setdefault(track_ext, len(track_index))
        key = (u << 32) | t
        if key in seen_pairs:
            raise DuplicatePairError(
                line_no, f"duplicate (user, track) pair: {user_ext!r}, {track_ext!r}")
        seen_pairs.add(key)
        users.append(u)
        tracks.append(t)
        counts.append(count)

    # rows in ascending (user, track) order, as a parse gives them
    rows = np.array(sorted(zip(users, tracks, counts)), np.int64).reshape(-1, 3).T
    return TripletBatch(
        rows[0].astype(np.int32),
        rows[1].astype(np.int32),
        rows[2].astype(np.uint32),
        *(Vocabulary.from_utf8("\n".join(index).encode(), len(index))
          for index in (user_index, track_index)),
    )


def test_parse_two_lines():
    batch = parse_triplets(io.StringIO("u1\tta\t2\nu1\ttb\t1\n"))
    assert len(batch) == 2
    assert len(batch.user_vocab) == 1
    assert len(batch.track_vocab) == 2
    assert batch.counts.tolist() == [2, 1]


def test_parsed_counts_are_u32(tmp_path):
    text = f"u1\ta\t{MAX_PLAY_COUNT}\nu1\tb\t1\n"
    path = tmp_path / "counts.txt"
    path.write_text(text)
    for batch in (parse_triplets(io.StringIO(text)), read_triplets(path)):
        assert batch.counts.dtype == np.uint32
        assert batch.counts.tolist() == [MAX_PLAY_COUNT, 1]


def test_parse_t1_shapes_and_first_seen_order(t1_batch):
    assert len(t1_batch) == 8
    assert t1_batch.user_vocab.ids == ["u1", "u2", "u3", "u4"]
    assert t1_batch.track_vocab.ids == ["a", "b", "c"]
    assert t1_batch.users.tolist() == [0, 0, 1, 1, 2, 3, 3, 3]
    assert t1_batch.tracks.tolist() == [0, 1, 1, 2, 2, 0, 1, 2]


def test_parse_skips_empty_lines_and_handles_crlf():
    batch = parse_triplets(io.StringIO("\nu1\tta\t2\r\n\nu2\tta\t1\n\n"))
    assert len(batch) == 2


def test_parse_rejects_zero_play_count():
    with pytest.raises(MalformedLineError) as err:
        parse_triplets(io.StringIO("u1\tta\t0\n"))
    assert err.value.line_no == 1


@pytest.mark.parametrize("line", [
    "u1\tta\n",             # too few fields
    "u1\tta\t2\tmore\n",    # too many fields
    "u1\tta\t-3\n",
    "u1\tta\t2.5\n",
    "u1\tta\tx\n",
    "u1\tta\t \n",
    "u1\tta\t\n",
    "u1\tta\t" + "0" * 11 + "\n",
    # two bad lines whose fields, run together, make two good rows
    "u1\tta\n7\tu2\ttb\t1\n",
])
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(MalformedLineError) as err:
        parse_triplets(io.StringIO("ok\tfine\t1\n" + line))
    assert err.value.line_no == 2


@pytest.mark.parametrize("count", [str(2**64), "5000000000", "10000000000"])
def test_parse_rejects_play_count_above_u32(count):
    with pytest.raises(MalformedLineError, match=str(2**32 - 1)) as err:
        parse_triplets(io.StringIO(f"ok\tfine\t1\nu1\tta\t{count}\n"))
    assert err.value.line_no == 2


@pytest.mark.parametrize("zeros", [3, 5000])
def test_parse_accepts_u32_max_play_count_with_leading_zeros(zeros):
    batch = parse_triplets(io.StringIO(f"u1\tta\t{'0' * zeros}{2**32 - 1}\n"))
    assert batch.counts.tolist() == [2**32 - 1]


def test_parse_rejects_long_zero_play_count():
    with pytest.raises(MalformedLineError) as err:
        parse_triplets(io.StringIO("u1\tta\t" + "0" * 5000 + "\n"))
    assert err.value.line_no == 1


@pytest.mark.parametrize("line", [
    "u 1\tta\t2\n",
    "u1\tt a\t2\n",
    " \tta\t2\n",
    "u1\tta \t2\n",
    # spaces beside a tab belong to the ids
    "u1 \t ta\t2\n",
], ids=["user", "track", "only-space", "trailing", "spaced-delimiter"])
def test_parse_rejects_id_with_space(line):
    with pytest.raises(MalformedLineError, match="space") as err:
        parse_triplets(io.StringIO("ok\tfine\t1\n" + line))
    assert err.value.line_no == 2


def test_parse_rejects_id_with_newline_from_a_list_of_lines():
    # a file or StringIO never yields such a line; the id could not be saved
    with pytest.raises(MalformedLineError, match="newline") as err:
        parse_triplets(["u\tt\t1\n", "\n7\t8\t9\n"])
    assert err.value.line_no == 2


@pytest.mark.parametrize("line", ["u\ud800\tt\t1\n", "u\tt\udfff\t1\n"],
                         ids=["user", "track"])
def test_parse_rejects_id_with_lone_surrogate_from_a_list_of_lines(line):
    # only a str from the Python API can hold one; the id could not be saved
    with pytest.raises(MalformedLineError, match="not valid Unicode") as err:
        parse_triplets(["u\tt\t1\n", line, "v\tt\t0\n"])
    assert err.value.line_no == 2


def test_parse_rejects_duplicate_pair_with_line_number():
    with pytest.raises(DuplicatePairError) as err:
        parse_triplets(io.StringIO("u1\tta\t2\nu1\tta\t3\n"))
    assert err.value.line_no == 2


def test_parse_interns_from_bytes_without_an_id_map(monkeypatch, tmp_path):
    def no_map(self, *args):
        raise AssertionError("id decoded and interned one at a time")

    # ids across the hash's 8-byte words, repeated within and across blocks
    ids = ["", "u", "é" * 4, "a" * 9, "中" * 6, "a" * 17]
    rows = [f"{u}\t{t}\t{i + 1}\n" for i, (u, t) in enumerate(
        (u, t) for u in ids for t in reversed(ids))]
    monkeypatch.setattr(ingest, "_CHUNK_LINES", 7)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 37)
    monkeypatch.setattr(Vocabulary, "intern", no_map)
    path = tmp_path / "ids.txt"
    path.write_text("".join(rows), encoding="utf-8")
    for batch in (parse_triplets(rows), read_triplets(path)):
        assert batch.user_vocab.ids == ids and batch.track_vocab.ids == ids[::-1]
        assert batch.users.tolist() == [i // 6 for i in range(36)]
        assert batch.tracks.tolist() == [i % 6 for i in range(36)]
        assert bytes(batch.user_vocab.utf8()) == "\n".join(ids).encode()


def test_parse_alternate_delimiter():
    # TAB is the only separator: a comma-separated line is one field
    with pytest.raises(MalformedLineError) as err:
        parse_triplets(io.StringIO("u1\tta\t2\nu1,tb,2\n"))
    assert err.value.line_no == 2
    assert err.value.message == "expected 3 '\\t'-separated fields, got 1"


def test_empty_stream_gives_empty_batch():
    batch = parse_triplets(io.StringIO(""))
    assert len(batch) == 0
    assert len(batch.user_vocab) == 0


def test_round_trip_empty_batch(tmp_path):
    batch = parse_triplets(io.StringIO(""))
    path = tmp_path / "empty.ds"
    save_dataset(batch, path)
    assert load_dataset(path) == batch


def test_round_trip_preserves_everything(tmp_path, t1_batch):
    # the empty-string id and the empty vocabulary are where "".split("\n")
    # (one empty id) and a count of 0 differ
    empty_ids = parse_triplets(io.StringIO("\ta\t1\nu\t\t2\n"))
    assert empty_ids.user_vocab.ids == ["", "u"]
    assert empty_ids.track_vocab.ids == ["a", ""]
    no_tracks = TripletBatch(np.array([], np.int32), np.array([], np.int32),
                             np.array([], np.int64), Vocabulary(["u1"]),
                             Vocabulary())
    for name, batch in (("t1", t1_batch), ("empty_ids", empty_ids),
                        ("no_tracks", no_tracks)):
        path = tmp_path / f"{name}.ds"
        save_dataset(batch, path)
        loaded = load_dataset(path)
        assert loaded == batch
        assert loaded.user_vocab.ids == batch.user_vocab.ids
        assert loaded.track_vocab.ids == batch.track_vocab.ids


def test_truncated_file_is_detected(tmp_path, t1_batch):
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ChecksumError):
        load_dataset(path)


def test_flipped_byte_is_detected(tmp_path, t1_batch):
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        load_dataset(path)


def test_wrong_magic_is_a_format_error(tmp_path, t1_batch):
    path = tmp_path / "t1.ds"
    save_dataset(t1_batch, path)
    data = bytearray(path.read_bytes())
    # rewrite magic and refresh the trailing checksum so only the header is wrong
    import struct
    import zlib
    data[:8] = b"NOTME00\x00"
    body = bytes(data[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatVersionError):
        load_dataset(path)


def test_write_triplets_round_trips_through_text(tmp_path, t1_batch):
    path = tmp_path / "t1.txt"
    write_triplets(t1_batch, path)
    assert path.read_text() == T1_TEXT
    with open(path) as fh:
        assert parse_triplets(fh) == t1_batch


@pytest.mark.parametrize("bad_id", ["u\tx", "u\nx", "u\rx", "u x"],
                         ids=["tab", "newline", "carriage-return", "space"])
@pytest.mark.parametrize("column", ["user", "track"])
def test_write_triplets_refuses_an_id_it_could_not_read_back(tmp_path, bad_id,
                                                            column):
    # the line of such an id would not read back as one triplet; a batch
    # from parse_triplets(["u\rx\tt\t1"]) holds the id "u\rx"
    ids = [bad_id, "t"] if column == "user" else ["u", bad_id]
    batch = TripletBatch(np.zeros(1, np.int32), np.zeros(1, np.int32),
                         np.ones(1, np.uint32), Vocabulary(ids[:1]),
                         Vocabulary(ids[1:]))
    path = tmp_path / "plays.txt"
    with pytest.raises(ValueError, match=re.escape(repr(bad_id))):
        write_triplets(batch, path)
    assert not path.exists()


_id_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r "),
    min_size=1, max_size=12)


@given(st.lists(
    st.tuples(_id_text, _id_text, st.integers(min_value=1, max_value=9)),
    max_size=30, unique_by=lambda triple: (triple[0], triple[1])))
def test_round_trip_identity_property(tmp_path_factory, rows):
    text = "".join(f"{u}\t{t}\t{c}\n" for u, t, c in rows)
    batch = parse_triplets(io.StringIO(text))
    path = tmp_path_factory.mktemp("rt") / "batch.ds"
    save_dataset(batch, path)
    # the file holds the rows in ascending (user, track) order
    order = np.lexsort((batch.tracks, batch.users))
    assert load_dataset(path) == TripletBatch(
        batch.users[order], batch.tracks[order], batch.counts[order],
        batch.user_vocab, batch.track_vocab)


def _outcome(parse, *args):
    """The batch with its dtypes, or the error's type, text and line."""
    try:
        batch = parse(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return batch, [a.dtype for a in (batch.users, batch.tracks, batch.counts)]


# few ids, so (user, track) pairs repeat; a tab in an id breaks the field
# count, a "\r" ends a line in a file, a comma goes through, and a numeric
# id can pass for a count when fields shift. Ids of 2-, 3- and
# 4-byte UTF-8 characters, ids of 0, 7, 8, 9, 16 and 17 bytes (across the
# 8-byte words the id hash reads), and an id holding a lone surrogate.
_fuzz_id = st.one_of(
    st.text(alphabet="a1\t,\ré中😀", max_size=3),
    st.sampled_from(["", "a" * 7, "1" * 8, "a" * 9, "a" * 16, "a" * 17,
                     "é" * 4, "中" * 3, "😀" * 4, "😀" * 4 + "a", "é" * 3 + "a",
                     "a\ud800"]))
_good_count = st.sampled_from(["1", "2", "13", "00000000007", "00004294967295",
                               "4294967295"])
_bad_count = st.sampled_from(["0", "+1", "\u0663", "", " 1", "4294967296",
                              "0" * 11, "10000000000"])


@st.composite
def _fuzz_line(draw, ids):
    """Mostly well-formed lines, each kind of bad line now and then."""
    kind = draw(st.sampled_from(["good"] * 6 + ["count"] * 2 + [
        "space", "fields", "shifted", "empty"]))
    if kind == "empty":
        return draw(st.sampled_from(["", "\r"]))
    fields = [draw(st.sampled_from(ids)), draw(st.sampled_from(ids)),
              draw(_good_count)]
    if kind == "count":
        fields[2] = draw(_bad_count)
    elif kind == "space":
        fields[draw(st.integers(0, 1))] += " "
    elif kind == "fields":
        fields = draw(st.sampled_from([fields[:2], fields + fields[2:]]))
    elif kind == "shifted":
        # a count moved to the next line: 6 fields that make 2 good rows
        return "\t".join(fields[:2]) + "\n" + "\t".join([fields[2], *fields])
    return "\t".join(fields)


@st.composite
def _fuzz_text(draw, line_ends=("\n", "\r\n")):
    ids = draw(st.lists(_fuzz_id, min_size=1, max_size=4))
    lines = draw(st.lists(_fuzz_line(ids), max_size=16))
    ends = draw(st.lists(st.sampled_from(line_ends),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1]) if ends else text
    return text


@st.composite
def _good_text(draw, line_ends=("\n", "\r\n")):
    """2-16 distinct (user, track) pairs over 1-6 ids, each a line with a
    good count, in any order, so that most texts parse to rows a sort must
    reorder; now and then one _fuzz_line is put among them."""
    ids = draw(st.lists(_fuzz_id.filter(lambda i: not {"\t", "\r"} & set(i)),
                        min_size=1, max_size=6, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          min_size=2, max_size=16, unique=True))
    lines = [f"{user}\t{track}\t{draw(_good_count)}" for user, track in pairs]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_fuzz_line(ids)))
    ends = draw(st.lists(st.sampled_from(line_ends),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


# the id hash, and two stand-ins whose collisions make interning go one id
# at a time and lookups walk runs of table entries: ids of one length
# collide, then all ids
_HASHES = {
    "real": core._hash_spans,
    "length": lambda words, starts, lens: lens.astype(np.uint64),
    "constant": lambda words, starts, lens: np.zeros(lens.size, np.uint64),
}


@settings(max_examples=400)
@given(st.one_of(_fuzz_text(), _good_text()),
       st.sampled_from([1, 2, 3, ingest._CHUNK_LINES]),
       st.sampled_from(sorted(_HASHES)))
def test_chunked_parse_equals_line_by_line_reference(text, chunk_lines, hash_name):
    expected = _outcome(_reference_parse, io.StringIO(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_LINES", chunk_lines)
        patch.setattr(core, "_hash_spans", _HASHES[hash_name])
        assert _outcome(parse_triplets, io.StringIO(text)) == expected


def _file_lines(path):
    """The lines of a text file as text mode splits them; MalformedLineError
    at the first line that is not valid UTF-8, once the lines before it are
    taken."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    for line_no, line in enumerate(lines, 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLineError(line_no, "not valid UTF-8") from None
        yield line


# a lone surrogate is written as the 3 bytes surrogatepass gives it, which
# are not UTF-8; "\r" in ids and as line ends splits lines in a file
@settings(max_examples=400)
@given(st.one_of(_fuzz_text(line_ends=("\n", "\r\n", "\r")),
                 _good_text(line_ends=("\n", "\r\n", "\r"))),
       st.sampled_from([1, 2, 3, 7, ingest._BLOCK_BYTES]),
       st.sampled_from(sorted(_HASHES)))
def test_file_parse_equals_line_by_line_reference(tmp_path_factory, text,
                                                  block_bytes, hash_name):
    path = tmp_path_factory.mktemp("fuzz") / "plays.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    expected = _outcome(_reference_parse, _file_lines(path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        patch.setattr(core, "_hash_spans", _HASHES[hash_name])
        assert _outcome(read_triplets, path) == expected


@pytest.mark.parametrize("data, block_bytes", [
    # no final newline, after any kind of line end
    (b"u1\ta\t1\nu2\tb\t2", 4),
    (b"u1\ta\t1\r\nu2\tb\t2", 1 << 20),
    # a lone "\r" last in the first block, and a "\r\n" split by the edge
    (b"u1\ta\t1\ru2\tb\t2\r\n", 7),
    (b"u1\ta\t1\r\nu2\tb\t2\r\n", 7),
    # a 2-byte character split by the edge
    ("u1\té\t1\nu2\té\t2\n".encode(), 5),
    # an empty line between blocks, and commas in ids
    (b"u,1\ta\t1\n\nu2\tb,\t2\n", 4),
], ids=["no-end", "no-end-crlf", "lone-cr-at-edge", "crlf-at-edge",
        "character-at-edge", "empty-line-and-commas"])
def test_read_triplets_equals_text_mode_parse(tmp_path, monkeypatch, data,
                                              block_bytes):
    path = tmp_path / "plays.txt"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    with open(path, encoding="utf-8") as fh:
        expected = parse_triplets(fh)
    assert len(expected) == 2
    assert read_triplets(path) == expected
    # the same text with line 2 bad: the line numbers agree too
    path.write_bytes(data.replace(b"2", b"x"))
    with pytest.raises(MalformedLineError) as err:
        read_triplets(path)
    assert err.value.line_no == (3 if b"\n\n" in data else 2)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_triplets_names_the_line_of_a_byte_not_utf8(tmp_path, monkeypatch, end):
    path = tmp_path / "bad.txt"
    rows = [f"u{i}\tt{i}\t1".encode() for i in range(1, 2001)]
    rows[1899] = rows[1899][:1] + b"\xff" + rows[1899][1:]
    path.write_bytes(end.encode().join(rows) + end.encode())
    # many blocks before the one that holds the byte
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1024)
    assert path.read_bytes().index(b"\xff") > 8 * 1024
    with pytest.raises(MalformedLineError, match="not valid UTF-8") as err:
        read_triplets(path)
    # text mode, whose line ends read_triplets follows, finds it there too
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text_line = next(n for n, line in enumerate(fh, 1) if "\udcff" in line)
    assert err.value.line_no == text_line == 1900


@pytest.mark.parametrize("line_2, error", [
    (b"u2\tb\tx", MalformedLineError), (b"u1\ta\t2", DuplicatePairError)])
def test_a_bad_line_before_a_byte_not_utf8_decides(tmp_path, line_2, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"u1\ta\t1\n" + line_2 + b"\nu3\tc\t1\nu\xff\td\t1\n")
    with pytest.raises(error) as err:
        read_triplets(path)
    assert err.value.line_no == 2


@lru_cache(maxsize=None)
def _ids(n: int) -> Vocabulary:
    return Vocabulary(f"i{i}" for i in range(n))


def _sorted_by_pair(batch):
    """The batch with its rows ordered by np.lexsort((tracks, users))."""
    order = np.lexsort((batch.tracks, batch.users))
    return TripletBatch(batch.users[order], batch.tracks[order],
                        batch.counts[order], batch.user_vocab, batch.track_vocab)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 9, 2**16 + 1]), st.sampled_from([1, 3, 2**16 + 1]),
       st.data())
def test_sort_by_pair_orders_rows_by_user_then_track(n_users, n_tracks, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                         st.integers(0, n_tracks - 1)),
                               unique=True, max_size=40))
    counts = data.draw(st.lists(st.sampled_from([1, 2, 7, 2**20, 2**32 - 1]),
                                min_size=len(pairs), max_size=len(pairs)))
    columns = np.array([(u, t, c) for (u, t), c in zip(pairs, counts)],
                       np.int64).reshape(-1, 3).T
    batch = TripletBatch(columns[0].astype(np.int32), columns[1].astype(np.int32),
                         columns[2].astype(np.uint32), _ids(n_users), _ids(n_tracks))
    want = _sorted_by_pair(batch)
    sort_by_pair(batch)
    assert batch == want
    assert (batch.users.dtype, batch.tracks.dtype, batch.counts.dtype) == (
        np.int32, np.int32, np.uint32)


# beyond the batch, sort_by_pair holds its int64 keys and, on the wide
# branch, their int64 argsort order: 16 bytes per row; a third per-row
# int64 array, such as the keys gathered through the order, would exceed this
_SORT_BYTES_PER_ROW = 20

_WIDTHS = [(2**32 - 1, True), (2**29, True), (2**29 - 1, False)]


@pytest.mark.parametrize("top_count, wide, repeated", [
    (*width, repeated) for repeated in (False, True) for width in _WIDTHS],
    ids=[f"{count}-{wide}{'-repeated' * repeated}"
         for repeated in (False, True) for count, wide in _WIDTHS])
def test_sort_by_pair_packs_one_key_unless_it_is_wider_than_63_bits(
        monkeypatch, top_count, wide, repeated):
    # 2**16 + 1 users and tracks take 17 bits each, so a count of 30 bits
    # or more leaves no room in an int64 key and a 29-bit one fills it
    n = 2**16 + 1
    rng = np.random.default_rng(5)
    users = rng.permutation(n).astype(np.int32)
    tracks = rng.permutation(n).astype(np.int32)
    counts = rng.integers(1, top_count, n, endpoint=True).astype(np.uint32)
    counts[7] = top_count
    if repeated:
        # user 1000's pair, given to user n - 1's row too: sorted, the two
        # are rows 1000 and 1001, on either side of the first block edge
        first, again = (np.flatnonzero(users == u)[0] for u in (1000, n - 1))
        users[again], tracks[again] = users[first], tracks[first]
    batch = TripletBatch(users, tracks, counts, _ids(n), _ids(n))
    before = [column.copy() for column in (users, tracks, counts)]
    want = _sorted_by_pair(batch)
    argsorts = []
    pair_keys = ingest._pair_keys
    monkeypatch.setattr(ingest, "_pair_keys",
                        lambda b: argsorts.append(b) or pair_keys(b))
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 1000)
    tracemalloc.start()
    try:
        if repeated:
            with pytest.raises(DuplicatePairError,
                               match=r"^duplicate \(user, track\) pair in batch$"):
                sort_by_pair(batch)
        else:
            sort_by_pair(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if repeated:
        # raised before any column is written back
        for column, old in zip((batch.users, batch.tracks, batch.counts), before):
            assert np.array_equal(column, old)
    else:
        assert batch == want
    assert bool(argsorts) == wide
    assert peak / n <= _SORT_BYTES_PER_ROW


def test_parse_gives_shuffled_rows_in_user_track_order(monkeypatch, tmp_path):
    rng = np.random.default_rng(8)
    pairs = [(f"u{u}", f"t{t}") for u in range(12) for t in range(9)
             if rng.random() < 0.6]
    rows = [f"{u}\t{t}\t{i + 1}\n" for i, (u, t) in enumerate(pairs)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    # interned in first-seen line order; the rows then sorted by those indexes
    user_ids = list(dict.fromkeys(row.split("\t")[0] for row in rows))
    track_ids = list(dict.fromkeys(row.split("\t")[1] for row in rows))
    want = sorted((user_ids.index(u), track_ids.index(t), int(c))
                  for u, t, c in (row.split("\t") for row in rows))
    # many chunks and blocks, whose rows interleave once sorted
    monkeypatch.setattr(ingest, "_CHUNK_LINES", 7)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 37)
    path = tmp_path / "shuffled.txt"
    path.write_text("".join(rows), encoding="utf-8")
    for batch in (parse_triplets(rows), read_triplets(path)):
        assert batch.user_vocab.ids == user_ids
        assert batch.track_vocab.ids == track_ids
        assert list(zip(batch.users.tolist(), batch.tracks.tolist(),
                        batch.counts.tolist())) == want


def test_parse_names_the_first_repeat_of_rows_too_wide_for_a_packed_key(
        monkeypatch):
    # 2**16 + 1 users and tracks, once two lines are repeats, and a count
    # of 2**32 - 1 need 66 bits, so the parse's sort_by_pair takes its
    # argsort. (u9, t9) repeats at line 60000, but (u50000, t50000) first,
    # at line 55000, though the sort meets (u9, t9) first
    n = 2**16 + 3
    lines = [f"u{i}\tt{i}\t{2**32 - 1 if i == 3 else i + 1}\n" for i in range(n)]
    lines[54999] = "u50000\tt50000\t7\n"
    lines[59999] = "u9\tt9\t7\n"
    argsorts = []
    pair_keys = ingest._pair_keys
    monkeypatch.setattr(ingest, "_pair_keys",
                        lambda b: argsorts.append(b) or pair_keys(b))
    with pytest.raises(DuplicatePairError) as err:
        parse_triplets(lines)
    # the sort's keys, then the line finder's
    assert len(argsorts) == 2
    assert err.value.line_no == 55000
    assert err.value.message == "duplicate (user, track) pair: 'u50000', 't50000'"
