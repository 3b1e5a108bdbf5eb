"""Triplet text parsing.

The text convention is one interaction per line, `user<TAB>track<TAB>count`
with a base-10 play count >= 1, as in the taste-profile triplet files; TAB
is the only field separator. A (user, track) pair appearing twice is a
hard error: upstream data is defined to be unique per pair, so a repeat
means corruption, not something to sum away.

Parsing works on UTF-8 bytes. read_triplets reads a file in binary blocks
of about 1 MiB cut after their last line end, reads "\r\n" and a lone "\r"
as "\n" as text mode does, and checks each block with one decode;
parse_triplets encodes the items of a line iterable a chunk at a time. One
numpy core (_columns) then checks and splits each block, and the ids are
interned from its bytes (Vocabulary.intern_utf8), through the
vocabulary's hash table of 8 bytes per id: no id dictionary or per-id str
is made, and save_dataset writes the bytes as they are. Only a block the
core refuses is walked line by line, by _check_line, the definition of a
bad line.

A parse ends with one sort, sort_by_pair, into a dataset file's ascending
(user, track) order (tastecf.index); it also finds a repeated pair, whose
line is then looked up in the rows, still in line order. No CLI reader
sorts a parsed batch again, and save_dataset copies no column of it.
"""

from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .core import (DuplicatePairError, MAX_PLAY_COUNT, MalformedLineError,
                   Vocabulary, _with_room)


@dataclass(eq=False)
class TripletBatch:
    """Interaction records over dense ids, plus the two vocabularies.

    users/tracks/counts are parallel arrays, one entry per triplet. A parsed
    or loaded batch holds int32 ids and u32 counts.
    """

    users: np.ndarray
    tracks: np.ndarray
    counts: np.ndarray
    user_vocab: Vocabulary
    track_vocab: Vocabulary

    def __len__(self) -> int:
        return int(self.users.size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TripletBatch)
            and np.array_equal(self.users, other.users)
            and np.array_equal(self.tracks, other.tracks)
            and np.array_equal(self.counts, other.counts)
            and self.user_vocab == other.user_vocab
            and self.track_vocab == other.track_vocab
        )


_POWERS_OF_TEN = 10 ** np.arange(10, dtype=np.int64)

# bytes read from a file per block: enough that the per-block calls cost
# little, few enough that a block's arrays stay a few MiB
_BLOCK_BYTES = 1 << 20
# lines of a stream encoded per block
_CHUNK_LINES = 1 << 16
# rows sort_by_pair checks and unpacks and write_triplets formats at a time
_BLOCK_ROWS = 1 << 16
# what _columns gives for a block of empty lines
_NO_ROWS = (np.empty(0, np.uint8), (np.empty(0, np.intp),) * 2,
            (np.empty(0, np.intp),) * 2, np.empty(0, np.uint32), None)


def _check_line(line: str, line_no: int) -> None:
    """The definition of a bad line: raise MalformedLineError unless `line`,
    stripped of its line end and not empty, is one triplet."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise MalformedLineError(
            line_no, f"expected 3 '\\t'-separated fields, got {len(parts)}")
    user_ext, track_ext, count_text = parts
    if " " in user_ext or " " in track_ext:
        raise MalformedLineError(
            line_no, f"id contains a space: {user_ext!r}, {track_ext!r}")
    # only a stream whose items are not single lines can get here
    if "\n" in user_ext or "\n" in track_ext:
        raise MalformedLineError(
            line_no, f"id contains a newline: {user_ext!r}, {track_ext!r}")
    # nor can a lone surrogate, which has no UTF-8 form
    try:
        user_ext.encode("utf-8")
        track_ext.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedLineError(
            line_no, f"id is not valid Unicode: {user_ext!r}, {track_ext!r}") from None
    if not (count_text.isascii() and count_text.isdecimal()):
        raise MalformedLineError(
            line_no, f"play_count is not a base-10 integer: {count_text!r}")
    # over 10 significant digits cannot fit, and int() may refuse a
    # digit string that long (leading zeros count towards its limit)
    if len(count_text) > 10:
        count_text = count_text.lstrip("0") or "0"
    count = int(count_text) if len(count_text) <= 10 else MAX_PLAY_COUNT + 1
    if not 1 <= count <= MAX_PLAY_COUNT:
        raise MalformedLineError(
            line_no, f"play_count must be in [1, {MAX_PLAY_COUNT}]")


def _columns(data: bytes):
    """Check and split lines of UTF-8 text, each ended by "\n": the bytes
    as a uint8 array, the (starts, lengths) in it of each non-empty line's
    user and track id, the play counts, and the position of each non-empty
    line among all lines (None when none is empty); or None exactly when
    some non-empty line fails _check_line. Each check covers all lines at
    once."""
    if data.count(b"\n") == len(data):    # every line is empty
        return _NO_ROWS
    # in UTF-8 the bytes of "\n", "\t" and " " stand for those characters
    # alone; a space is refused in an id, and in a count by the digit check
    if b" " in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    kept = None
    if (starts == ends).any():
        kept = np.flatnonzero(starts != ends)
        starts, ends = starts[kept], ends[kept]
    # each line holds exactly two tabs: the (2j)th and (2j + 1)th of the
    # block lie in line j, and there are no others
    marks = np.flatnonzero(buf == ord("\t"))
    if marks.size != 2 * ends.size:
        return None
    first, second = marks[0::2], marks[1::2]
    if (first < starts).any() or (second > ends).any():
        return None
    counts = _play_counts(buf, second + 1, ends - second - 1)
    if counts is None:
        return None
    return (buf, (starts, first - starts), (first + 1, second - first - 1),
            counts, kept)


def _play_counts(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """The value of each byte string buf[start:start + len] as u32, or None
    unless each is ASCII digits (leading zeros allowed) worth 1 to
    MAX_PLAY_COUNT."""
    if not lens.all():
        return None
    # all the counts' digits, one field after another, and the power of ten
    # each stands for
    ends = np.cumsum(lens)
    at = np.arange(ends[-1])
    digits = buf[np.repeat(starts - ends + lens, lens) + at] - np.uint8(ord("0"))
    if (digits > 9).any():   # bytes below "0" wrap round to above 9
        return None
    place = np.repeat(ends - 1, lens) - at
    # a digit other than 0 at 10**10 or above is over MAX_PLAY_COUNT
    if digits[place > 9].any():
        return None
    counts = np.add.reduceat(digits * _POWERS_OF_TEN[np.minimum(place, 9)],
                             ends - lens)
    if counts.min() < 1 or counts.max() > MAX_PLAY_COUNT:
        return None
    return counts.astype(np.uint32)


def _first_bad_line(lines: list[str], first_line: int):
    """(position, error) of the first non-empty line that fails
    _check_line, line number first_line + position; or (len(lines), None)."""
    for position, line in enumerate(lines):
        if line:
            try:
                _check_line(line, first_line + position)
            except MalformedLineError as exc:
                return position, exc
    return len(lines), None


def _pair_keys(batch: TripletBatch) -> np.ndarray:
    """One int64 key per row, user << 32 | track, built in place."""
    keys = batch.users.astype(np.int64)
    keys <<= 32
    keys |= batch.tracks
    return keys


def _raise_first_repeat(batch: TripletBatch, line_nos) -> None:
    """DuplicatePairError at the first row, in line order, whose (user,
    track) pair an earlier row holds; line_nos yields each row's line."""
    # stable: each repeat of a key sorts after the row that holds it first
    keys = _pair_keys(batch)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    row = int(repeats.min())
    raise DuplicatePairError(
        int(next(islice(line_nos, row, None))),
        f"duplicate (user, track) pair: "
        f"{batch.user_vocab.lookup(int(batch.users[row]))!r}, "
        f"{batch.track_vocab.lookup(int(batch.tracks[row]))!r}")


def _parse(blocks) -> TripletBatch:
    """The batch of a text given as blocks of lines; see parse_triplets.

    Each block is (data, first_line, lines, error): its lines as UTF-8,
    each ended by "\n", or None if they cannot be given so; the number of
    its first line; the lines as str, or None to decode them from data; and
    the error at the line after the block, or None. _columns checks and
    splits the block; only a block it refuses is walked line by line by
    _check_line, to find its first bad line."""
    user_vocab = Vocabulary()
    track_vocab = Vocabulary()
    # one array per column, doubled when full as the vocabulary store is,
    # and cut to its rows in place at the end; no list of blocks is kept
    users = np.zeros(0, np.int32)
    tracks = np.zeros(0, np.int32)
    counts = np.zeros(0, np.uint32)
    rows = 0
    line_nos = []    # per block, the line number of each row kept
    error = None
    for data, first_line, lines, error in blocks:
        columns = None if data is None else _columns(data)
        if columns is None:
            if lines is None:
                lines = str(data, "utf-8").split("\n")[:-1]
            # lines before the first bad one still count for duplicates
            stop, bad = _first_bad_line(lines, first_line)
            error = error if bad is None else bad
            # those lines passed _check_line, so none holds a lone surrogate
            head = "".join(map("{}\n".format, lines[:stop]))
            columns = _columns(head.encode("utf-8"))
            if columns is None:
                raise RuntimeError("block checks reject a line _check_line accepts")
        buf, user_spans, track_spans, block_counts, kept = columns
        end = rows + block_counts.size
        users = _with_room(users, rows, end)
        tracks = _with_room(tracks, rows, end)
        counts = _with_room(counts, rows, end)
        users[rows:end] = user_vocab.intern_utf8(buf, *user_spans)
        tracks[rows:end] = track_vocab.intern_utf8(buf, *track_spans)
        counts[rows:end] = block_counts
        line_nos.append(range(first_line, first_line + block_counts.size)
                        if kept is None else kept + first_line)
        rows = end
        if error is not None:
            break

    for column in (users, tracks, counts):
        column.resize(rows, refcheck=False)    # nothing else refers to it
    batch = TripletBatch(users, tracks, counts, user_vocab, track_vocab)
    try:
        sort_by_pair(batch)
    except DuplicatePairError:
        # the columns are still in line order
        _raise_first_repeat(batch, chain.from_iterable(line_nos))
    if error is not None:
        raise error
    return batch


def _stream_blocks(stream):
    """_parse's blocks of _CHUNK_LINES items of a line iterable, each item
    stripped of the "\r" and "\n" that end it."""
    items = iter(stream)
    first_line = 1
    while chunk := list(islice(items, _CHUNK_LINES)):
        lines = list(map(str.rstrip, chunk, repeat("\r\n")))
        text = "\n".join(lines) + "\n"
        data = None
        # a lone surrogate has no UTF-8 form, and an item holding "\n"
        # inside would shift the line numbers
        if text.count("\n") == len(lines):
            try:
                data = text.encode("utf-8")
            except UnicodeEncodeError:
                pass
        yield data, first_line, lines, None
        first_line += len(lines)


def _file_blocks(fh):
    """_parse's blocks of a binary file: its whole lines, about
    _BLOCK_BYTES at a time, with "\r\n" and a lone "\r" read as "\n" as
    text mode reads them and a last line without an end ended. A block
    that is not UTF-8 stops before the line of its first bad byte, and
    carries a MalformedLineError at that line."""
    pending = bytearray()
    first_line = 1
    at_end = False
    while not at_end:
        read = fh.read(_BLOCK_BYTES)
        at_end = not read
        pending += read
        # after the last line end; a "\r" last may be half of a "\r\n"
        cut = len(pending) if at_end else 1 + max(
            pending.rfind(b"\n"), pending.rfind(b"\r", 0, len(pending) - 1))
        if not cut:
            continue
        data = bytes(pending[:cut])
        del pending[:cut]
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.endswith(b"\n"):
            data += b"\n"
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            bad_line = first_line + data.count(b"\n", 0, line_start)
            yield (data[:line_start], first_line, None,
                   MalformedLineError(bad_line, "not valid UTF-8"))
            return
        yield data, first_line, None, None
        first_line += data.count(b"\n")


def parse_triplets(stream) -> TripletBatch:
    """Parse line-oriented triplet text, `user<TAB>track<TAB>count` lines,
    into a batch.

    Empty lines are skipped. Rows are sorted once, by sort_by_pair, into
    ascending (user, track) order; vocabularies are in first-seen order.
    Raises MalformedLineError for a wrong field count, an id that contains
    a space (recommendation lines are space-separated) or a newline, or a
    play count that is not an integer in [1, 2**32 - 1];
    DuplicatePairError at the line where a (user, track) pair first
    repeats. Both carry the 1-based line number, and the first bad line
    decides which is raised.

    Each item of the stream is one line; the "\r" and "\n" that end it are
    stripped. The items are encoded to UTF-8 _CHUNK_LINES at a time and
    parsed as read_triplets parses a file's blocks.
    """
    return _parse(_stream_blocks(stream))


def read_triplets(path) -> TripletBatch:
    """parse_triplets over the lines of the UTF-8 text file at `path`, as
    text mode splits them ("\n", "\r\n" or a lone "\r").

    The file is read as bytes, _BLOCK_BYTES at a time, and each block is
    checked to be UTF-8 by one decode, then checked, split and interned in
    numpy. A byte that is not UTF-8 raises MalformedLineError "not valid
    UTF-8" at its line, unless an earlier line is bad. Rows come sorted
    once, into ascending (user, track) order, as every CLI reader takes them.
    """
    with open(path, "rb") as fh:
        return _parse(_file_blocks(fh))


def write_triplets(batch: TripletBatch, path) -> None:
    """Write one `user<TAB>track<TAB>count` line per record, in stored
    order, so that read_triplets reads the batch back.

    Raises ValueError before the file is opened for an id that holds a
    tab, "\\n", "\\r" or a space: Vocabulary.first_holding scans each
    vocabulary's bytes, and its utf8() names an id that holds "\\n".
    """
    for vocab in (batch.user_vocab, batch.track_vocab):
        if (bad_id := vocab.first_holding(b"\t\r ")) is not None:
            raise ValueError(f"id {bad_id!r} holds a tab, a line end or a "
                             "space, so its line could not be read back")
    user_ids, track_ids = batch.user_vocab.ids, batch.track_vocab.ids
    line = "{}\t{}\t{}\n".format
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # a block of rows at a time, so that no list is as long as the batch
        for at in range(0, len(batch), _BLOCK_ROWS):
            rows = slice(at, at + _BLOCK_ROWS)
            fh.writelines(map(line,
                              map(user_ids.__getitem__, batch.users[rows].tolist()),
                              map(track_ids.__getitem__, batch.tracks[rows].tolist()),
                              batch.counts[rows].tolist()))


def sort_by_pair(batch: TripletBatch) -> None:
    """Reorder the batch's rows in place to ascending (user, track), a
    parse's order and build_index's; a repeated pair raises
    DuplicatePairError before any row moves. The columns must be writable
    and the ids lie in their vocabularies.

    When the bit widths of the two vocabularies' indexes and of the largest
    play count fit in 63 bits, each row is packed into one int64 key, the
    keys are sorted in place, then checked and unpacked into the columns
    _BLOCK_ROWS rows at a time: 8 bytes per row beyond the batch.
    Otherwise the rows are permuted by a stable argsort of user << 32 |
    track, through which the keys are checked _BLOCK_ROWS at a time.
    """
    if not len(batch):
        return
    track_bits = (len(batch.track_vocab) - 1).bit_length()
    count_bits = int(batch.counts.max()).bit_length()
    order = None
    if (len(batch.user_vocab) - 1).bit_length() + track_bits + count_bits > 63:
        # the pair alone, no count bits: its stable argsort permutes the rows
        key, count_bits = _pair_keys(batch), 0
        order = np.argsort(key, kind="stable")
    else:
        # int64 throughout: numpy 1.x turns uint64 mixed with int64 into float64
        key = batch.users.astype(np.int64)
        key <<= track_bits
        key |= batch.tracks
        key <<= count_bits
        key |= batch.counts
        key.sort()
    # sorted neighbours that agree above the count bits repeat a pair
    for at in range(1, key.size, _BLOCK_ROWS):
        rows = slice(at - 1, at + _BLOCK_ROWS)
        pairs = (key[rows] if order is None else key[order[rows]]) >> count_bits
        if (pairs[1:] == pairs[:-1]).any():
            raise DuplicatePairError(None, "duplicate (user, track) pair in batch")
    if order is not None:
        del key
        for column in (batch.users, batch.tracks, batch.counts):
            column[:] = column[order]
        return
    for at in range(0, key.size, _BLOCK_ROWS):
        part = key[at:at + _BLOCK_ROWS]
        rows = slice(at, at + part.size)
        batch.counts[rows] = part & ((1 << count_bits) - 1)
        part >>= count_bits
        batch.tracks[rows] = part & ((1 << track_bits) - 1)
        part >>= track_bits
        batch.users[rows] = part
