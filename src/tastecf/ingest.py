"""Triplet text parsing and the binary dataset container.

The text convention is one interaction per line, `user<TAB>track<TAB>count`
with a base-10 play count >= 1. A (user, track) pair appearing twice is a
hard error: upstream data is defined to be unique per pair, so a repeat
means corruption, not something to sum away.

Parsing checks and splits the text as UTF-8 bytes in numpy and interns the
ids from those bytes (Vocabulary.intern_utf8), so a parsed vocabulary holds
its ids as UTF-8 bytes, as a loaded one does, and save_dataset writes them
as they are. Interning goes through the vocabulary's one hash table of 8
bytes per id; no id dictionary or per-id str is made.
"""

from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
import struct

import numpy as np

from . import storage
from .core import (DuplicatePairError, MAX_PLAY_COUNT, MalformedLineError,
                   Vocabulary)

_MAGIC = b"TCFDAT1\x00"
_VERSION = 2


@dataclass(eq=False)
class TripletBatch:
    """Interaction records over dense ids, plus the two vocabularies.

    users/tracks/counts are parallel arrays, one entry per triplet.
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

# lines parsed per chunk: enough that the per-chunk calls cost little, few
# enough that a chunk's strings stay a few MiB
_CHUNK_LINES = 1 << 16


def _check_line(line: str, line_no: int, delimiter: str) -> None:
    """The definition of a bad line: raise MalformedLineError unless `line`,
    stripped of its line end and not empty, is one triplet."""
    parts = line.split(delimiter)
    if len(parts) != 3:
        raise MalformedLineError(
            line_no, f"expected 3 {delimiter!r}-separated fields, got {len(parts)}")
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


def _columns(rows: list[str], delimiter: str):
    """The UTF-8 bytes of non-empty rows, the start and length in them of
    each row's user, track and count field as (rows, 3) arrays, and the
    play counts; or None exactly when some row fails _check_line. Each
    check covers all rows at once."""
    m = len(rows)
    if not m:
        return (np.empty(0, np.uint8), np.empty((0, 3), np.int64),
                np.empty((0, 3), np.int64), np.empty(0, np.int64))
    # str.count scans for the delimiter as str.split does. Rows joined by
    # "\n" split back into 3 fields each unless a field holds a "\n".
    if (not delimiter or "\n" in delimiter
            or list(map(str.count, rows, repeat(delimiter))).count(2) != m):
        return None
    try:
        data = "\n".join(rows).replace(delimiter, "\n").encode("utf-8")
    except UnicodeEncodeError:
        return None
    buf = np.frombuffer(data, np.uint8)
    # in UTF-8 the bytes of "\n" and " " stand for those characters alone
    newlines = np.flatnonzero(buf == ord("\n"))
    if newlines.size != 3 * m - 1:
        return None
    starts = np.concatenate(([0], newlines + 1))
    lens = np.append(newlines, buf.size) - starts
    # the number of "\n"s before a byte is its field's number; a space is
    # refused in an id, and in a count by the digit check
    spaces = np.flatnonzero(buf == ord(" "))
    if spaces.size and (np.searchsorted(newlines, spaces) % 3 != 2).any():
        return None
    counts = _play_counts(buf, starts[2::3], lens[2::3])
    if counts is None:
        return None
    return buf, starts.reshape(m, 3), lens.reshape(m, 3), counts


def _play_counts(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """The value of each byte string buf[start:start + len], or None unless
    each is ASCII digits (leading zeros allowed) worth 1 to MAX_PLAY_COUNT."""
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
    return counts


def _first_bad_line(rows: list[str], line_nos, delimiter: str):
    """(position, error) of the first row that fails _check_line, or
    (len(rows), None)."""
    for position, (row, line_no) in enumerate(zip(rows, line_nos)):
        try:
            _check_line(row, line_no, delimiter)
        except MalformedLineError as exc:
            return position, exc
    return len(rows), None


def _pair_keys(batch: TripletBatch) -> np.ndarray:
    """One int64 key per row, user << 32 | track, built in place."""
    keys = batch.users.astype(np.int64)
    keys <<= 32
    keys |= batch.tracks
    return keys


def _check_unique_pairs(batch: TripletBatch, line_nos) -> None:
    """DuplicatePairError at the first row whose (user, track) pair an
    earlier row holds; line_nos yields each row's line number."""
    keys = _pair_keys(batch)
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return
    # stable: each repeat of a key sorts after the row that holds it first
    keys = _pair_keys(batch)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    row = int(repeats.min())
    raise DuplicatePairError(
        next(islice(line_nos, row, None)),
        f"duplicate (user, track) pair: "
        f"{batch.user_vocab.lookup(int(batch.users[row]))!r}, "
        f"{batch.track_vocab.lookup(int(batch.tracks[row]))!r}")


def parse_triplets(stream, delimiter: str = "\t") -> TripletBatch:
    """Parse line-oriented triplet text into a batch.

    Empty lines are skipped. Vocabularies are populated in first-seen
    order. Raises MalformedLineError for a wrong field count, an id that
    contains a space (recommendation lines are space-separated) or a
    newline, or a play count that is not an integer in [1, 2**32 - 1];
    DuplicatePairError when a (user, track) pair repeats. Both carry the
    1-based line number, and the first bad line decides which is raised.

    The stream is read _CHUNK_LINES lines at a time. Each chunk is encoded
    to UTF-8 once, checked and split in numpy, and its ids interned from
    those bytes; only a chunk that fails is checked line by line, to find
    its first bad line.
    """
    user_vocab = Vocabulary()
    track_vocab = Vocabulary()
    users = [np.empty(0, np.int32)]
    tracks = [np.empty(0, np.int32)]
    counts = [np.empty(0, np.int64)]
    line_nos = []    # per chunk, the line number of each row kept
    lines = iter(stream)
    next_line_no = 1
    error = None
    while chunk := list(islice(lines, _CHUNK_LINES)):
        rows = list(map(str.rstrip, chunk, repeat("\r\n")))
        numbers = range(next_line_no, next_line_no + len(rows))
        next_line_no += len(rows)
        kept = list(filter(None, rows))
        if len(kept) != len(rows):
            numbers = list(compress(numbers, rows))
        columns = _columns(kept, delimiter)
        if columns is None:
            # rows before the first bad one still count for duplicates
            stop, error = _first_bad_line(kept, numbers, delimiter)
            numbers = numbers[:stop]
            columns = _columns(kept[:stop], delimiter)
            if columns is None:
                raise RuntimeError("chunk checks reject a line _check_line accepts")
        buf, starts, lens, chunk_counts = columns
        users.append(user_vocab.intern_utf8(buf, starts[:, 0], lens[:, 0]))
        tracks.append(track_vocab.intern_utf8(buf, starts[:, 1], lens[:, 1]))
        counts.append(chunk_counts)
        line_nos.append(numbers)
        if error is not None:
            break

    # each column's chunks go as soon as they are joined
    users = np.concatenate(users)
    tracks = np.concatenate(tracks)
    counts = np.concatenate(counts)
    batch = TripletBatch(users, tracks, counts, user_vocab, track_vocab)
    _check_unique_pairs(batch, chain.from_iterable(line_nos))
    if error is not None:
        raise error
    return batch


def write_triplets(batch: TripletBatch, path, delimiter: str = "\t") -> None:
    """Write one `user<delimiter>track<delimiter>count` line per record, in
    stored order."""
    # braces in the delimiter stand for themselves in the format string
    field = delimiter.replace("{", "{{").replace("}", "}}")
    line = f"{{}}{field}{{}}{field}{{}}\n".format
    users = map(batch.user_vocab.ids.__getitem__, batch.users.tolist())
    tracks = map(batch.track_vocab.ids.__getitem__, batch.tracks.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map(line, users, tracks, batch.counts.tolist()))


def save_dataset(batch: TripletBatch, path) -> None:
    """Write the versioned, checksummed binary dataset file.

    Raises ValueError before anything is written for a play count above
    2**32 - 1 or an id that contains "\\n".
    """
    if len(batch) and int(batch.counts.max()) > MAX_PLAY_COUNT:
        raise ValueError("play_count exceeds the u32 storage width")
    chunks = [
        storage.header(_MAGIC, _VERSION),
        struct.pack("<QQQ", len(batch.user_vocab), len(batch.track_vocab), len(batch)),
        *storage.encode_vocab(batch.user_vocab),
        *storage.encode_vocab(batch.track_vocab),
        np.ascontiguousarray(batch.users, dtype="<i4"),
        np.ascontiguousarray(batch.tracks, dtype="<i4"),
        np.ascontiguousarray(batch.counts, dtype="<u4"),
    ]
    storage.write_file(path, chunks)


def load_dataset(path) -> TripletBatch:
    """Inverse of save_dataset; load(save(b)) == b including vocab order.

    users and tracks are read-only views of the file bytes. Any id outside
    its vocabulary, a play count of 0 or a length that does not match the
    body raises DataError.
    """
    r = storage.Reader(path, _MAGIC, _VERSION)
    n_users, n_tracks, n_triplets = r.unpack("<QQQ")
    user_vocab = r.vocab(n_users, "user")
    track_vocab = r.vocab(n_tracks, "track")
    users = r.bounded("<i4", n_triplets, 0, n_users, "user ids")
    tracks = r.bounded("<i4", n_triplets, 0, n_tracks, "track ids")
    counts = r.bounded("<u4", n_triplets, 1, MAX_PLAY_COUNT + 1, "play counts")
    r.finish()
    return TripletBatch(users, tracks, counts.astype(np.int64), user_vocab,
                        track_vocab)
