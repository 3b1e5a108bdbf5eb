"""Triplet text parsing and the binary dataset container.

The text convention is one interaction per line, `user<TAB>track<TAB>count`
with a base-10 play count >= 1. A (user, track) pair appearing twice is a
hard error: upstream data is defined to be unique per pair, so a repeat
means corruption, not something to sum away.
"""

from array import array
from dataclasses import dataclass
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
        for u, t, c in zip(self.users, self.tracks, self.counts):
            yield Triplet(self.user_vocab.lookup(int(u)),
                          self.track_vocab.lookup(int(t)), int(c))


def parse_triplets(stream, delimiter: str = "\t") -> TripletBatch:
    """Parse line-oriented triplet text into a batch.

    Empty lines are skipped. Vocabularies are populated in first-seen
    order. Raises MalformedLineError for a wrong field count, an id that
    contains a space (recommendation lines are space-separated) or a play
    count that is not an integer in [1, 2**32 - 1], DuplicatePairError when
    a (user, track) pair repeats; both carry the 1-based line number.
    """
    user_vocab = Vocabulary()
    track_vocab = Vocabulary()
    users = array("i")
    tracks = array("i")
    counts = array("q")
    seen_pairs: set[int] = set()

    for line_no, raw in enumerate(stream, 1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            raise MalformedLineError(
                line_no, f"expected 3 {delimiter!r}-separated fields, got {len(parts)}")
        user_ext, track_ext, count_text = parts
        # one scan of the line; the fields are looked at only when it has a
        # space, which is always the case for a space delimiter
        if " " in line and (" " in user_ext or " " in track_ext):
            raise MalformedLineError(
                line_no, f"id contains a space: {user_ext!r}, {track_ext!r}")
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
        u = user_vocab.intern(user_ext)
        t = track_vocab.intern(track_ext)
        key = (u << 32) | t
        if key in seen_pairs:
            raise DuplicatePairError(
                line_no, f"duplicate (user, track) pair: {user_ext!r}, {track_ext!r}")
        seen_pairs.add(key)
        users.append(u)
        tracks.append(t)
        counts.append(count)

    return TripletBatch(
        np.array(users, dtype=np.int32),
        np.array(tracks, dtype=np.int32),
        np.array(counts, dtype=np.int64),
        user_vocab,
        track_vocab,
    )


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
