"""Triplet text parsing and the binary dataset container.

The text convention is one interaction per line, `user<TAB>track<TAB>count`
with a base-10 play count >= 1. A (user, track) pair appearing twice is a
hard error: upstream data is defined to be unique per pair, so a repeat
means corruption, not something to sum away.
"""

from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
import struct

import numpy as np

from . import storage
from .core import (DuplicatePairError, MAX_PLAY_COUNT, MalformedLineError,
                   Triplet, Vocabulary)

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

    def triplets(self):
        """Yield records in stored order, decoded to external ids."""
        user_ids, track_ids = self.user_vocab.ids, self.track_vocab.ids
        for u, t, c in zip(self.users, self.tracks, self.counts):
            yield Triplet(user_ids[u], track_ids[t], int(c))


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
    """The user, track and count columns of non-empty rows, or None exactly
    when some row fails _check_line; each check covers a whole column."""
    m = len(rows)
    if not m:
        return [], [], np.empty(0, np.int64)
    # str.count scans for the delimiter as str.split does. Rows joined by
    # "\n" split back into 3 fields each unless a field holds a "\n".
    if (not delimiter or "\n" in delimiter
            or list(map(str.count, rows, repeat(delimiter))).count(2) != m):
        return None
    fields = "\n".join(rows).replace(delimiter, "\n").split("\n")
    if len(fields) != 3 * m:
        return None
    users, tracks, count_texts = fields[0::3], fields[1::3], fields[2::3]
    if " " in "".join(users) or " " in "".join(tracks):
        return None
    # a count of only zeros strips to "": 0, out of range
    digits = list(map(str.lstrip, count_texts, repeat("0")))
    joined = "".join(digits)
    if ("" in digits or not (joined.isascii() and joined.isdecimal())
            or max(map(len, digits)) > 10):
        return None
    counts = np.fromiter(map(int, digits), np.int64, m)
    if counts.max() > MAX_PLAY_COUNT:
        return None
    return users, tracks, counts


def _first_bad_line(rows: list[str], line_nos, delimiter: str):
    """(position, error) of the first row that fails _check_line, or
    (len(rows), None)."""
    for position, (row, line_no) in enumerate(zip(rows, line_nos)):
        try:
            _check_line(row, line_no, delimiter)
        except MalformedLineError as exc:
            return position, exc
    return len(rows), None


def _check_unique_pairs(batch: TripletBatch, line_nos) -> None:
    """DuplicatePairError at the first row whose (user, track) pair an
    earlier row holds; line_nos yields each row's line number."""
    keys = (batch.users.astype(np.int64) << 32) | batch.tracks
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return
    # stable: each repeat of a key sorts after the row that holds it first
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

    The stream is read _CHUNK_LINES lines at a time and each chunk is
    checked a column at a time; only a chunk that fails is checked line by
    line, to find its first bad line.
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
        users.append(user_vocab.intern_all(columns[0]))
        tracks.append(track_vocab.intern_all(columns[1]))
        counts.append(columns[2])
        line_nos.append(numbers)
        if error is not None:
            break

    batch = TripletBatch(np.concatenate(users), np.concatenate(tracks),
                         np.concatenate(counts), user_vocab, track_vocab)
    _check_unique_pairs(batch, chain.from_iterable(line_nos))
    if error is not None:
        raise error
    return batch


def write_triplets(batch: TripletBatch, path, delimiter: str = "\t") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, track, count in batch.triplets():
            fh.write(f"{user}{delimiter}{track}{delimiter}{count}\n")


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
