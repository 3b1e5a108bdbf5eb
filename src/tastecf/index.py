"""Immutable forward and inverted adjacency over the interaction set, and
its two binary files.

Both directions are contiguous offset arrays (CSR): the forward side
drives scoring, the inverted side candidate generation. Play counts live
only on the forward side; posting lists are bare user indexes, since
overlap is binary. A dataset file is an index file's forward half: after
its magic and version, each holds the counts, both vocabularies,
fwd_offsets, fwd_tracks and fwd_counts (one writer, _save, and one
checked reader, _read_forward), and an index adds inv_offsets and
inv_users. Each fact is stored once: fwd_offsets gives each row's user,
and load_index sums the play totals and derives the idf.
"""

from dataclasses import dataclass
import struct
from typing import NamedTuple, Optional

import numpy as np

from . import storage
from .core import (CapacityError, DataError, MAX_INDEX, MAX_PLAY_COUNT,
                   Vocabulary, _gather)
from .idf import IdfTable, compute_idf
from .ingest import TripletBatch, sort_by_pair

_MAGIC = b"TCFIDX1\x00"
_VERSION = 6
_DATASET_MAGIC = b"TCFDAT1\x00"
_DATASET_VERSION = 3
# play counts are summed, and read by load_index, this many users' rows at
# a time
_CHECK_USERS = 1 << 14
# _forward_offsets, _run_lengths and _rising_runs read at least this many
# rows at a time
_CHECK_ROWS = 1 << 16


@dataclass(eq=False)
class InteractionIndex:
    """Sparse user-track structure with per-track and per-user aggregates.

    df[t] is the number of distinct listeners of track t (the length of its
    posting list); total_plays[u] is the sum of u's play counts. All arrays
    are frozen after construction and safe to share across workers.
    The offsets and df are int32, as the ids are: an index holds at most
    MAX_INDEX interactions, so no offset or posting length exceeds it.
    fwd_counts is the batch's play counts in build_index's dtype (u32 for a
    parsed or loaded batch), and None in an index from load_index, which
    keeps only their sums: the engine reads total_plays, never fwd_counts,
    and a sum of it, or of df, must ask for dtype=np.int64. load_index
    reads each CSR array into a read-only array of its own and derives df
    and total_plays; build_index shares an ordered loaded batch's arrays.
    """

    n_users: int
    n_tracks: int
    fwd_offsets: np.ndarray   # int32, n_users + 1
    fwd_tracks: np.ndarray    # int32, ascending within each user run
    fwd_counts: Optional[np.ndarray]   # parallel to fwd_tracks; None if loaded
    inv_offsets: np.ndarray   # int32, n_tracks + 1
    inv_users: np.ndarray     # int32, ascending within each track run
    df: np.ndarray            # int32 per track
    total_plays: np.ndarray   # int64 per user

    @property
    def nnz(self) -> int:
        return int(self.fwd_tracks.size)

    def forward_tracks(self, u: int) -> np.ndarray:
        return self.fwd_tracks[self.fwd_offsets[u]:self.fwd_offsets[u + 1]]

    def forward_counts(self, u: int) -> np.ndarray:
        return self.fwd_counts[self.fwd_offsets[u]:self.fwd_offsets[u + 1]]

    def posting(self, t: int) -> np.ndarray:
        return self.inv_users[self.inv_offsets[t]:self.inv_offsets[t + 1]]

    def forward_rows(self, users: np.ndarray):
        """The users' forward lists concatenated in the given order, plus
        each list's length."""
        return _gather_rows(self.fwd_offsets, self.fwd_tracks, users)

    def posting_rows(self, tracks: np.ndarray):
        """The tracks' posting lists concatenated in the given order, plus
        each list's length."""
        return _gather_rows(self.inv_offsets, self.inv_users, tracks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InteractionIndex)
            and self.n_users == other.n_users
            and self.n_tracks == other.n_tracks
            and np.array_equal(self.fwd_offsets, other.fwd_offsets)
            and np.array_equal(self.fwd_tracks, other.fwd_tracks)
            and (self.fwd_counts is None) == (other.fwd_counts is None)
            and (self.fwd_counts is None
                 or np.array_equal(self.fwd_counts, other.fwd_counts))
            and np.array_equal(self.inv_offsets, other.inv_offsets)
            and np.array_equal(self.inv_users, other.inv_users)
            and np.array_equal(self.total_plays, other.total_plays)
        )


def _gather_rows(offsets: np.ndarray, values: np.ndarray, rows: np.ndarray):
    """Concatenate CSR rows without per-row slicing (core._gather)."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    return _gather(values, starts, lens), lens


def _freeze(*arrays):
    for arr in arrays:
        if arr.flags.owndata:
            arr.flags.writeable = False


def build_index(batch: TripletBatch) -> InteractionIndex:
    """Build the index; insensitive to the batch's triplet order.

    The forward lists are _forward_rows(batch), the inverse lists are added
    by _inverse, as `tastecf build` adds them to a dataset file's, and
    total_plays is summed once they are built, so that its 8 bytes per user
    are not held during their sorts. Each per-triplet array is made once,
    at its narrowest width (fwd_counts keeps the batch's dtype), and freed
    once used. Beyond the batch, tracemalloc puts the peak at about 25 bytes
    per triplet with u32 counts (29 with int64) plus 16 per user and 8 per
    track when the rows need sorting, and at about 17 per triplet plus the
    same when they are ordered and read-only; numpy's sort buffers, which
    tracemalloc does not see, add up to 8 bytes per triplet.
    """
    fwd_offsets, fwd_tracks, fwd_counts = _forward_rows(batch, own=True)
    inv_offsets, inv_users = _inverse(fwd_offsets, fwd_tracks,
                                      len(batch.track_vocab))
    total_plays = _play_totals(fwd_offsets, np.split(
        fwd_counts, fwd_offsets[_user_blocks(len(batch.user_vocab))[1:-1]]))
    df = np.diff(inv_offsets)
    _freeze(fwd_offsets, fwd_tracks, fwd_counts, inv_offsets, inv_users,
            df, total_plays)
    return InteractionIndex(len(batch.user_vocab), len(batch.track_vocab),
                            fwd_offsets, fwd_tracks, fwd_counts, inv_offsets,
                            inv_users, df, total_plays)


def _forward_rows(batch: TripletBatch, own: bool = False):
    """The batch's rows as (fwd_offsets, fwd_tracks, fwd_counts), counts
    in the batch's dtype, by sorted_rows: ordered rows, as a parse gives
    them, are taken as they are, copied only when `own` is set and they
    are writable; a repeated pair raises DuplicatePairError. An id
    outside its vocabulary or a play count below 1 raises DataError."""
    n_users = len(batch.user_vocab)
    n_tracks = len(batch.track_vocab)
    if n_users > MAX_INDEX or n_tracks > MAX_INDEX:
        raise CapacityError("id counts exceed the 32-bit index width")
    users = np.asarray(batch.users)
    tracks = np.asarray(batch.tracks)
    counts = np.asarray(batch.counts)
    if users.size:
        if users.min() < 0 or users.max() >= n_users:
            raise DataError("user index outside vocabulary range")
        if tracks.min() < 0 or tracks.max() >= n_tracks:
            raise DataError("track index outside vocabulary range")
        if counts.min() < 1:
            raise DataError("play_count must be >= 1")
    given = TripletBatch(users.astype(np.int32, copy=False),
                         tracks.astype(np.int32, copy=False), counts,
                         batch.user_vocab, batch.track_vocab)
    rows, offsets = sorted_rows(given)
    tracks, counts = rows.tracks, rows.counts
    if own and rows is given:
        tracks, counts = (a.copy() if a.flags.writeable else a for a in (tracks, counts))
    return offsets, tracks, counts


def _inverse(fwd_offsets: np.ndarray, fwd_tracks: np.ndarray, n_tracks: int):
    """(inv_offsets, inv_users) of the forward lists, in the order
    np.lexsort((users, tracks)) gives: forward entries are in user order,
    so two stable sorts, by the tracks' low 16 bits and then by their high
    16 bits, keep users ascending within each track; a stable argsort of
    uint16 is a radix sort. Below 2**16 tracks every high half is 0, and
    the second sort would be the identity."""
    n_users = fwd_offsets.size - 1
    order = np.argsort(fwd_tracks.astype(np.uint16), kind="stable")
    inv_users = np.repeat(np.arange(n_users, dtype=np.int32),
                          np.diff(fwd_offsets))[order]
    if n_tracks > 1 << 16:
        high = fwd_tracks[order]
        del order
        high >>= 16
        order = np.argsort(high.astype(np.uint16), kind="stable")
        del high
        inv_users = inv_users[order]
    del order
    # counted after the radix pass, whose freed memory its blocks reuse
    return _offsets(_run_lengths(fwd_tracks, n_tracks)), inv_users


def _forward_offsets(users: np.ndarray, tracks: np.ndarray, n_users: int):
    """The CSR offsets of rows that are already the forward lists, or None
    unless users never fall and tracks rise within a user (_rising_runs).
    Read _CHECK_ROWS rows at a time: where the user changes, the run that
    ends is the last of its user, and users with no rows take the offset
    before them. More than MAX_INDEX rows raise CapacityError."""
    if users.size > MAX_INDEX:
        raise CapacityError(
            f"{users.size} triplets exceed the 32-bit offset width")
    offsets = np.zeros(n_users + 1, np.int32)
    for at in range(1, users.size, _CHECK_ROWS):
        u = users[at - 1:at + _CHECK_ROWS]
        if (u[1:] < u[:-1]).any():
            return None
        ends = np.flatnonzero(u[1:] != u[:-1])
        offsets[u[ends] + 1] = ends + at
    if users.size:
        offsets[users[-1] + 1] = users.size
    np.maximum.accumulate(offsets, out=offsets)
    return offsets if _rising_runs(tracks, offsets) else None


def sorted_rows(batch: TripletBatch):
    """The batch's rows in ascending (user, track) order, and their CSR
    offsets: the batch itself when in that order, as a parse gives it;
    else copies, int32 ids and counts of its dtype, that sort_by_pair sorts
    or refuses for a repeated pair. The ids must lie in their vocabularies."""
    offsets = _forward_offsets(batch.users, batch.tracks, len(batch.user_vocab))
    if offsets is not None:
        return batch, offsets
    rows = TripletBatch(np.array(batch.users, np.int32),
                        np.array(batch.tracks, np.int32),
                        np.array(batch.counts), batch.user_vocab,
                        batch.track_vocab)
    sort_by_pair(rows)
    return sorted_rows(rows)


def _run_lengths(ids: np.ndarray, n: int) -> np.ndarray:
    """np.bincount(ids, minlength=n) for ids in [0, n), as int32, counted a
    block of rows at a time, so that no intp copy is as long as ids; a
    block is at least four times as long as the counts it adds, so they
    cost at most a quarter more. ids must not number more than MAX_INDEX."""
    lengths = np.zeros(n, np.int32)
    step = max(_CHECK_ROWS, 4 * n)
    for at in range(0, ids.size, step):
        lengths += np.bincount(ids[at:at + step], minlength=n)
    return lengths


def _rising_runs(values: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether values rise strictly within each run of the CSR offsets:
    every entry that is not above the one before it must start a run.
    Read _CHECK_ROWS values at a time: the block's falls are masked, and
    the run starts inside the block cleared from the mask."""
    for at in range(1, values.size, _CHECK_ROWS):
        v = values[at - 1:at + _CHECK_ROWS]
        falls = v[1:] <= v[:-1]
        # keys of the offsets' dtype: others would make numpy convert all
        # of the offsets on every block
        lo, hi = np.searchsorted(
            offsets, np.array((at, at + falls.size), offsets.dtype))
        falls[offsets[lo:hi] - at] = False
        if falls.any():
            return False
    return True


def _user_blocks(n_users: int) -> np.ndarray:
    """The first user of each block of _CHECK_USERS users, then n_users."""
    return np.append(np.arange(0, n_users, _CHECK_USERS), n_users)


def _play_totals(offsets: np.ndarray, parts) -> np.ndarray:
    """Each user's int64 play total from the forward offsets and one part
    of play counts per block of _user_blocks: the block's running sum,
    differenced at its offsets, exact for any u32 counts."""
    totals = np.empty(offsets.size - 1, np.int64)
    # parts first: zip then reads them to their end
    for counts, at in zip(parts, range(0, totals.size, _CHECK_USERS)):
        rows = offsets[at:at + _CHECK_USERS + 1]
        sums = np.zeros(counts.size + 1, np.int64)
        np.cumsum(counts, dtype=np.int64, out=sums[1:])
        totals[at:at + rows.size - 1] = np.diff(sums[rows - rows[0]])
    return totals


def _offsets(run_lengths: np.ndarray) -> np.ndarray:
    """int32 CSR offsets: 0, then the running total of the run lengths,
    which must not exceed MAX_INDEX."""
    offsets = np.zeros(run_lengths.size + 1, dtype=np.int32)
    np.cumsum(run_lengths, out=offsets[1:])
    return offsets


class LoadedIndex(NamedTuple):
    """What load_index returns. Loaded for a list of user ids, it holds no
    user vocabulary (user_vocab is None), and user_indexes is each id's
    index, None for an id not held; loaded without, user_indexes is None."""

    index: InteractionIndex
    user_vocab: Optional[Vocabulary]
    track_vocab: Vocabulary
    idf: Optional[IdfTable]
    user_indexes: Optional[list] = None


def _save(path, magic: bytes, version: int, user_vocab, track_vocab,
          fwd_offsets, fwd_tracks, fwd_counts, *inverse) -> None:
    """Write the forward sections, a dataset file's, then any inverse lists
    (an index file's), with no copy of an array already of its stored
    dtype. A play count above 2**32 - 1 or an id that contains "\\n"
    raises ValueError before anything is written."""
    if fwd_counts.size and int(fwd_counts.max()) > MAX_PLAY_COUNT:
        raise ValueError("play_count exceeds the u32 storage width")
    storage.write_file(path, [
        storage.header(magic, version),
        struct.pack("<QQQ", len(user_vocab), len(track_vocab), fwd_tracks.size),
        *storage.encode_vocab(user_vocab),
        *storage.encode_vocab(track_vocab),
        np.ascontiguousarray(fwd_offsets, dtype="<i4"),
        np.ascontiguousarray(fwd_tracks, dtype="<i4"),
        np.ascontiguousarray(fwd_counts, dtype="<u4"),
        *(np.ascontiguousarray(arr, dtype="<i4") for arr in inverse),
    ])


def _read_forward(r: storage.Reader, users=None, sum_counts: bool = False):
    """(user_vocab, user_indexes, track_vocab, fwd_offsets, fwd_tracks,
    counts) read from past the header: counts is the u32 play counts or,
    with `sum_counts`, each user's int64 play total, summed as the counts
    are read a block of users at a time and dropped. Given `users`, they
    are looked up in the user vocabulary, which is then dropped (None).
    A header that claims more than MAX_INDEX ids or interactions raises
    CapacityError before any array is read; offsets that do not rise from
    0 to nnz, a track outside its vocabulary, tracks that do not rise
    within each user's list (a repeated pair among them) or a play count
    of 0 raise DataError."""
    n_users, n_tracks, nnz = r.unpack("<QQQ")
    if nnz > MAX_INDEX:
        raise CapacityError(f"{r.path}: {nnz} interactions exceed the "
                            "32-bit offset width")
    if max(n_users, n_tracks) > MAX_INDEX:
        raise CapacityError(f"{r.path}: id counts exceed the 32-bit index width")
    user_vocab = r.vocab(n_users, "user")
    user_indexes = None
    if users is not None:
        user_indexes = user_vocab.indexes_of(users)
        user_vocab = None
    track_vocab = r.vocab(n_tracks, "track")
    offsets = r.offsets(n_users, nnz, "fwd_offsets")
    tracks = r.bounded("<i4", nnz, 0, n_tracks, "fwd_tracks")
    if not _rising_runs(tracks, offsets):
        raise r.fail("fwd_tracks do not rise within each user's list")
    if sum_counts:
        parts = r.parts("<u4", offsets[_user_blocks(n_users)])
        counts = _play_totals(offsets, (
            r.check_range(part, 1, MAX_PLAY_COUNT + 1, "fwd_counts") for part in parts))
    else:
        counts = r.bounded("<u4", nnz, 1, MAX_PLAY_COUNT + 1, "fwd_counts")
    return user_vocab, user_indexes, track_vocab, offsets, tracks, counts


def _read_dataset(path, sum_counts: bool = False):
    with storage.Reader(path, _DATASET_MAGIC, _DATASET_VERSION) as r:
        forward = _read_forward(r, sum_counts=sum_counts)
        r.finish()
    return forward


def save_dataset(batch: TripletBatch, path) -> None:
    """Write the batch as a dataset file, the forward half of its index
    file: its rows in ascending (user, track) order (_forward_rows), with
    no copy of a column when they are in that order already. A repeated
    pair raises DuplicatePairError, and a bad id or play count DataError
    or ValueError (_save), before anything is written."""
    _save(path, _DATASET_MAGIC, _DATASET_VERSION, batch.user_vocab,
          batch.track_vocab, *_forward_rows(batch))


def load_dataset(path) -> TripletBatch:
    """The batch of a dataset file, in ascending (user, track) order: the
    file's read-only tracks and u32 counts, and users expanded from
    fwd_offsets into a read-only int32 array. load_dataset(p) == b for a
    batch b in that order that save_dataset wrote to p."""
    user_vocab, _, track_vocab, offsets, tracks, counts = _read_dataset(path)
    users = np.repeat(np.arange(len(user_vocab), dtype=np.int32),
                      np.diff(offsets))
    users.flags.writeable = False
    return TripletBatch(users, tracks, counts, user_vocab, track_vocab)


def _build_file(dataset, path):
    """`tastecf build`: write the index file of a dataset file, the
    dataset's own forward lists plus _inverse's, with no users column, play
    totals or df made. Returns the index's (users, tracks, interactions)."""
    user_vocab, _, track_vocab, *forward = _read_dataset(dataset)
    offsets, tracks, _ = forward
    _save(path, _MAGIC, _VERSION, user_vocab, track_vocab, *forward,
          *_inverse(offsets, tracks, len(track_vocab)))
    return len(user_vocab), len(track_vocab), tracks.size


def save_index(index: InteractionIndex, user_vocab, track_vocab, path,
               idf: Optional[IdfTable] = None) -> None:
    """Write its dataset file's sections, then its inverse lists (_save);
    load_index derives the rest. An `idf` table that is not
    compute_idf(index, idf.log_base), an index without play counts (one
    from load_index) or what _save refuses raises ValueError before
    anything is written."""
    if index.fwd_counts is None:
        raise ValueError("the index holds no play counts; build it from its dataset")
    if idf is not None and idf != compute_idf(index, idf.log_base):
        raise ValueError("the idf table is not the index's; no idf is stored")
    _save(path, _MAGIC, _VERSION, user_vocab, track_vocab, index.fwd_offsets,
          index.fwd_tracks, index.fwd_counts, index.inv_offsets, index.inv_users)


def load_index(path, users=None) -> LoadedIndex:
    """Inverse of save_index, except that the index holds no play counts:
    fwd_counts is None, and total_plays is summed from them as they are
    read (_read_forward). Every other array is a read-only array of its
    own, read straight from the file (storage.Reader); df and the idf
    table are derived: idf is compute_idf(index), natural log, or None for
    an index of 0 users.

    The forward sections are checked as a dataset file's are; then
    inv_offsets that do not rise from 0 to nnz, a user outside its
    vocabulary, posting lengths that differ from the tracks' counts in
    fwd_tracks, users that do not rise within each posting list or a length
    that does not match the body raise DataError; a CRC mismatch raises
    ChecksumError first. No check makes an nnz-size temporary. Two entries
    swapped between posting lists that both still rise are not seen. A
    vocabulary that holds an id twice raises DataError at its first lookup.

    Given `users`, a list of ids, the user vocabulary is checked for a
    repeated id, even when the list is empty, the ids are looked up as soon
    as it is read (user_indexes, None for an id not held), and it is
    dropped (user_vocab None) before the first array reuses its memory.
    """
    with storage.Reader(path, _MAGIC, _VERSION) as r:
        (user_vocab, user_indexes, track_vocab, fwd_offsets, fwd_tracks,
         total_plays) = _read_forward(r, users, sum_counts=True)
        n_users, n_tracks, nnz = fwd_offsets.size - 1, len(track_vocab), fwd_tracks.size
        inv_offsets = r.offsets(n_tracks, nnz, "inv_offsets")
        inv_users = r.bounded("<i4", nnz, 0, n_users, "inv_users")
        r.finish()

    df = np.diff(inv_offsets)
    if not np.array_equal(df, _run_lengths(fwd_tracks, n_tracks)):
        raise r.fail("inv_offsets differ from the tracks' counts in fwd_tracks")
    if not _rising_runs(inv_users, inv_offsets):
        raise r.fail("inv_users do not rise within each posting list")
    _freeze(df, total_plays)
    index = InteractionIndex(n_users, n_tracks, fwd_offsets, fwd_tracks,
                             None, inv_offsets, inv_users, df, total_plays)
    idf = compute_idf(index) if n_users else None
    return LoadedIndex(index, user_vocab, track_vocab, idf, user_indexes)
