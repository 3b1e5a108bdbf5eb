"""Immutable forward and inverted adjacency over the interaction set.

Both directions are materialized as contiguous offset-array (CSR-style)
storage: the forward side drives scoring, the inverted side drives
candidate generation. Play counts live only on the forward side of a built
index, and only their per-user totals are loaded from a file; posting
lists are bare user indexes, since overlap is binary. An index file stores
no idf: load_index derives the natural-log table from the loaded index.
"""

from dataclasses import dataclass
import struct
from typing import NamedTuple, Optional

import numpy as np

from . import storage
from .core import (CapacityError, DataError, DuplicatePairError, MAX_INDEX,
                   MAX_PLAY_COUNT, Vocabulary, _gather)
from .idf import IdfTable, compute_idf
from .ingest import TripletBatch, sort_by_pair

_MAGIC = b"TCFIDX1\x00"
_VERSION = 5
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
    and a sum of it, or of df, must ask for dtype=np.int64. Arrays from
    load_index are read-only arrays of their own, read from the file;
    build_index given an ordered loaded batch shares that batch's read-only
    tracks and counts.
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

    Rows already in ascending (user, track) order, tracks rising strictly
    within a user (as `tastecf ingest` saves them), are the forward lists
    as they are: fwd_tracks and fwd_counts are then the batch's own
    columns, with no sort, when they are read-only (a loaded dataset
    file's arrays), and copies of them when they are writable. Any other
    batch is put in that order by sorted_rows, on copies of its columns,
    and a repeated pair raises DuplicatePairError. The forward offsets
    come from the ordered rows' user runs and the posting lengths from a
    blockwise count of the tracks, so neither makes an intp copy of a
    whole column.

    Each per-triplet array is made once, at its narrowest width, and freed
    once used; fwd_counts keeps the batch's own dtype, so the u32 counts of
    a parsed or loaded batch are never widened. total_plays is summed by
    _play_totals once the inverse lists are built, so its 8 bytes per user
    are not held during their sorts. Beyond the batch, tracemalloc puts the
    peak at about 25 bytes per triplet with u32 counts (29 with int64) plus
    16 per user and 8 per track when the rows need sorting, and at about 17
    per triplet plus the same per user and track when they are ordered and
    read-only (the lexsort build this replaced took 71-80 bytes per
    triplet); numpy's sort buffers, which tracemalloc does not see, add up
    to 8 bytes per triplet.
    """
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
    users = users.astype(np.int32, copy=False)
    tracks = tracks.astype(np.int32, copy=False)

    fwd_offsets = _forward_offsets(users, tracks, n_users)
    if fwd_offsets is not None:
        # the rows are the forward lists; the index shares what it is given
        # only when nothing can write to it
        fwd_tracks = tracks.copy() if tracks.flags.writeable else tracks
        fwd_counts = counts.copy() if counts.flags.writeable else counts
    else:
        rows, fwd_offsets = sorted_rows(batch)
        fwd_tracks, fwd_counts = rows.tracks, rows.counts
        del rows

    # the order np.lexsort((users, tracks)) gives: forward entries are in
    # user order, so two stable sorts, by the tracks' low 16 bits and then
    # by their high 16 bits, keep users ascending within each track; a
    # stable argsort of uint16 is a radix sort. Below 2**16 tracks every
    # high half is 0, and the second sort would be the identity
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
    inv_offsets = _offsets(_run_lengths(fwd_tracks, n_tracks))
    total_plays = np.empty(n_users, np.int64)
    for at in range(0, n_users, _CHECK_USERS):
        rows = fwd_offsets[at:at + _CHECK_USERS + 1]
        total_plays[at:at + rows.size - 1] = _play_totals(
            rows, fwd_counts[rows[0]:rows[-1]])
    df = np.diff(inv_offsets)
    _freeze(fwd_offsets, fwd_tracks, fwd_counts, inv_offsets, inv_users,
            df, total_plays)
    return InteractionIndex(n_users, n_tracks, fwd_offsets, fwd_tracks,
                            fwd_counts, inv_offsets, inv_users, df, total_plays)


def _forward_offsets(users: np.ndarray, tracks: np.ndarray, n_users: int):
    """The CSR offsets of rows that are already the forward lists, or None
    unless users never fall and tracks rise strictly within a user, so that
    no pair repeats. Read _CHECK_ROWS rows at a time: where the user
    changes, the run that ends is the last of its user, and users with no
    rows take the offset before them. More than MAX_INDEX rows, more than
    int32 offsets hold, raise CapacityError."""
    if users.size > MAX_INDEX:
        raise CapacityError(
            f"{users.size} triplets exceed the 32-bit offset width")
    offsets = np.zeros(n_users + 1, np.int32)
    for at in range(1, users.size, _CHECK_ROWS):
        u = users[at - 1:at + _CHECK_ROWS]
        t = tracks[at - 1:at + _CHECK_ROWS]
        if ((u[1:] < u[:-1]).any()
                or ((u[1:] == u[:-1]) & (t[1:] <= t[:-1])).any()):
            return None
        ends = np.flatnonzero(u[1:] != u[:-1])
        offsets[u[ends] + 1] = ends + at
    if users.size:
        offsets[users[-1] + 1] = users.size
    np.maximum.accumulate(offsets, out=offsets)
    return offsets


def sorted_rows(batch: TripletBatch):
    """Copies of the batch's rows, int32 ids and counts of its dtype, put
    in ascending (user, track) order by sort_by_pair, and their per-user
    CSR offsets. In the sorted copies only a repeated pair can leave two
    neighbours out of order: it raises DuplicatePairError. The ids must
    lie in their vocabularies."""
    rows = TripletBatch(np.array(batch.users, np.int32),
                        np.array(batch.tracks, np.int32),
                        np.array(batch.counts), batch.user_vocab,
                        batch.track_vocab)
    sort_by_pair(rows)
    offsets = _forward_offsets(rows.users, rows.tracks, len(batch.user_vocab))
    if offsets is None:
        raise DuplicatePairError(None, "duplicate (user, track) pair in batch")
    return rows, offsets


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


def _play_totals(offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The int64 play totals of a block of users, from the block's forward
    offsets (one more than its users) and its rows' play counts: their
    running sum, differenced at the offsets. The sum is integer-exact for
    any u32 counts, and no temporary is larger than the block's rows."""
    sums = np.zeros(counts.size + 1, np.int64)
    np.cumsum(counts, dtype=np.int64, out=sums[1:])
    return np.diff(sums[offsets - offsets[0]])


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


def save_index(index: InteractionIndex, user_vocab, track_vocab, path,
               idf: Optional[IdfTable] = None) -> None:
    """Persist the index and vocabularies.

    Arrays are written in their in-memory dtypes, int32 offsets and ids and
    int64 play totals, except play counts, which are stored as u32 (with no
    copy when they are u32 already). An `idf` table is checked but never
    stored, since load_index derives it: one that is not compute_idf(index,
    idf.log_base), a larger count, an id that contains "\\n" or an index
    without play counts (one from load_index) raises ValueError before
    anything is written.
    """
    if index.fwd_counts is None:
        raise ValueError("the index holds no play counts; build it from its dataset")
    if index.nnz and int(index.fwd_counts.max()) > MAX_PLAY_COUNT:
        raise ValueError("play_count exceeds the u32 storage width")
    if idf is not None and idf != compute_idf(index, idf.log_base):
        raise ValueError("the idf table is not the index's; no idf is stored")
    storage.write_file(path, [
        storage.header(_MAGIC, _VERSION),
        struct.pack("<QQQ", index.n_users, index.n_tracks, index.nnz),
        *storage.encode_vocab(user_vocab),
        *storage.encode_vocab(track_vocab),
        np.ascontiguousarray(index.fwd_offsets, dtype="<i4"),
        np.ascontiguousarray(index.fwd_tracks, dtype="<i4"),
        np.ascontiguousarray(index.total_plays, dtype="<i8"),
        np.ascontiguousarray(index.fwd_counts, dtype="<u4"),
        np.ascontiguousarray(index.inv_offsets, dtype="<i4"),
        np.ascontiguousarray(index.inv_users, dtype="<i4"),
    ])


def load_index(path, users=None) -> LoadedIndex:
    """Inverse of save_index, except that the index holds no play counts:
    fwd_counts is None, and the file's total_plays are compared, a block of
    _CHECK_USERS users at a time, with the play counts summed by
    _play_totals as build_index sums them. Every other array is a read-only
    array of its own, read straight from the file (storage.Reader); df and
    the idf table are derived: idf is compute_idf(index), natural log, or
    None for an index of 0 users. A header that claims more than MAX_INDEX
    interactions, more than int32 offsets hold, raises CapacityError before
    any array is read.

    The structure is checked with array operations, none of which makes an
    nnz-size temporary: offsets that do not rise from 0 to nnz, an index
    outside its vocabulary, a play count of 0, total_plays that differ from
    the users' summed play counts, tracks that do not rise within each
    user's list or users that do not rise within each posting list
    (_rising_runs), posting lengths that differ from the tracks' counts in
    fwd_tracks (_run_lengths), or a length that does not match the body
    raise DataError; a file whose CRC does not match raises ChecksumError
    first. Each of the value checks guards output that would otherwise
    change without an error; the idf has no bytes of its own to change. The
    posting checks cannot see two entries swapped between posting lists
    when both lists still rise and keep their lengths. A vocabulary that
    holds an id twice raises DataError at its first lookup or
    check_distinct.

    Given `users`, a list of ids, the user vocabulary is checked for a
    repeated id, even when the list is empty, and the ids are looked up
    (Vocabulary.indexes_of) as soon as it is read. Its bytes, bounds and
    hash table, about 8 bytes per stored id each, are then dropped before
    the first array is read, which reuses their memory: user_indexes holds
    each id's index, None for one not held, and user_vocab is None.
    """
    user_indexes = None
    with storage.Reader(path, _MAGIC, _VERSION) as r:
        n_users, n_tracks, nnz = r.unpack("<QQQ")
        if nnz > MAX_INDEX:
            raise CapacityError(f"{path}: {nnz} interactions exceed the "
                                "32-bit offset width")
        user_vocab = r.vocab(n_users, "user")
        if users is not None:
            user_indexes = user_vocab.indexes_of(users)
            user_vocab = None
        track_vocab = r.vocab(n_tracks, "track")
        fwd_offsets = r.offsets(n_users, nnz, "fwd_offsets")
        fwd_tracks = r.bounded("<i4", nnz, 0, n_tracks, "fwd_tracks")
        total_plays = r.array("<i8", n_users)
        blocks = np.append(np.arange(0, n_users, _CHECK_USERS), n_users)
        at = 0
        for counts in r.parts("<u4", fwd_offsets[blocks]):
            r.check_range(counts, 1, MAX_PLAY_COUNT + 1, "fwd_counts")
            rows = fwd_offsets[at:at + _CHECK_USERS + 1]
            if not np.array_equal(_play_totals(rows, counts),
                                  total_plays[at:at + rows.size - 1]):
                raise r.fail("total_plays differ from the users' summed fwd_counts")
            at += _CHECK_USERS
        inv_offsets = r.offsets(n_tracks, nnz, "inv_offsets")
        inv_users = r.bounded("<i4", nnz, 0, n_users, "inv_users")
        r.finish()

    if not _rising_runs(fwd_tracks, fwd_offsets):
        raise r.fail("fwd_tracks do not rise within each user's list")
    df = np.diff(inv_offsets)
    if not np.array_equal(df, _run_lengths(fwd_tracks, n_tracks)):
        raise r.fail("inv_offsets differ from the tracks' counts in fwd_tracks")
    if not _rising_runs(inv_users, inv_offsets):
        raise r.fail("inv_users do not rise within each posting list")
    _freeze(df)
    index = InteractionIndex(n_users, n_tracks, fwd_offsets, fwd_tracks,
                             None, inv_offsets, inv_users, df, total_plays)
    idf = compute_idf(index) if n_users else None
    return LoadedIndex(index, user_vocab, track_vocab, idf, user_indexes)
