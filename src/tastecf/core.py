"""Shared domain types: dense ID interning, run configuration, errors."""

from __future__ import annotations

from dataclasses import dataclass
import re

import numpy as np

# Dense ids are 32-bit; anything larger overflows the binary formats.
MAX_INDEX = 2**31 - 1
# Play counts are stored as u32 in the dataset and index files.
MAX_PLAY_COUNT = 2**32 - 1

PAD_DUMMY = "dummy"
PAD_POPULARITY = "popularity"
PAD_STRATEGIES = (PAD_DUMMY, PAD_POPULARITY)

AP_CHALLENGE = "challenge"
AP_LIST_LENGTH = "list_length"
AP_MODES = (AP_CHALLENGE, AP_LIST_LENGTH)


class DataError(Exception):
    """Base for data-level failures (parsing, file formats, lookups)."""


class MalformedLineError(DataError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no, self.message = line_no, message


class DuplicatePairError(DataError):
    def __init__(self, line_no, message: str):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no, self.message = line_no, message


class FormatVersionError(DataError):
    """File magic or format version does not match this build."""


class ChecksumError(DataError):
    """File is truncated or its trailing checksum does not match."""


class CapacityError(DataError):
    """More distinct ids than the 32-bit dense index space supports."""


class EmptyIndexError(DataError):
    """The operation needs an index with at least one user."""


class MissingRecommendationError(DataError):
    def __init__(self, user):
        super().__init__(f"no recommendation for evaluated user {user!r}")
        self.user = user


# the id hash's multipliers for the length and for each word: odd, so that
# multiplying modulo 2**64 loses no bits
_HASH_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9], np.uint64)
# _WORD_MASKS[n] keeps the first n bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
# a hash table entry is an id's hash in the high 33 bits and its index in
# the low 31; the masks are uint64 scalars, since numpy 1.x turns uint64
# mixed with int64 into float64
_HIGH = np.uint64(2**64 - 1 - MAX_INDEX)
_LOW = np.uint64(MAX_INDEX)
# a loaded vocabulary's bounds and table are built a block of bytes or of
# ids at a time, so that no temporary is the size of the whole vocabulary
_BLOCK_BYTES = 1 << 20
_BLOCK_IDS = 1 << 16


def _words(buf: np.ndarray) -> np.ndarray:
    """The 8 bytes from every offset of buf, read unaligned as one
    little-endian word and zero-filled past the end: buf.size + 1 words."""
    padded = np.zeros(buf.size + 8, np.uint8)
    padded[:buf.size] = buf
    return np.ndarray((buf.size + 1,), "<u8", padded, 0, (1,))


def _hash_spans(words: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """A uint64 hash of each byte string of `lens` bytes from `starts`, over
    the words _words gives, in one vectorised pass per 8 bytes of the
    longest: the length, then each 8-byte word (zero-filled past the end),
    mixed by multiply and xor-shift. A string's hash depends on its bytes
    alone, not on the other spans. Array arithmetic wraps modulo 2**64
    without a warning."""
    length_mult, word_mult = _HASH_MULTIPLIERS
    h = lens.astype(np.uint64) * length_mult
    rows = slice(None)
    for offset in range(0, int(lens.max(initial=0)), 8):
        if offset:
            rows = np.flatnonzero(lens > offset)
        word = (words[starts[rows] + offset]
                & _WORD_MASKS[np.minimum(lens[rows] - offset, 8)])
        mixed = (h[rows] ^ word) * word_mult
        h[rows] = mixed ^ (mixed >> 31)
    return h


def _same_spans(words_a, starts_a, lens_a, words_b, starts_b, lens_b) -> np.ndarray:
    """Whether each span of words_a (as _words gives them), from a start
    for a length, holds the same bytes as its paired span of words_b."""
    same = lens_a == lens_b
    lens = np.minimum(lens_a, lens_b)
    rows = slice(None)
    for offset in range(0, int(lens.max(initial=0)), 8):
        if offset:
            rows = np.flatnonzero(lens > offset)
        differ = ((words_a[starts_a[rows] + offset] ^ words_b[starts_b[rows] + offset])
                  & _WORD_MASKS[np.minimum(lens[rows] - offset, 8)])
        same[rows] &= differ == 0
    return same


def _positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """start, start + 1, ..., start + len - 1 for each span, concatenated
    without per-span slicing: entry j sits at its span's start plus its
    distance from that span's first slot."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens)


def _gather(values: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """values[start:start + len] for each span, concatenated."""
    return values[_positions(starts, lens)]


def _encoded(ext_ids, errors: str = "strict"):
    """The ids as UTF-8 in one uint8 array, with the start and length of
    each."""
    encoded = [ext_id.encode("utf-8", errors) for ext_id in ext_ids]
    lens = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return np.frombuffer(b"".join(encoded), np.uint8), np.cumsum(lens) - lens, lens


def _with_room(arr: np.ndarray, used: int, needed: int) -> np.ndarray:
    """arr, or its first `used` entries copied into a zeroed array at least
    twice as large, so that `needed` entries fit."""
    if needed <= arr.size:
        return arr
    grown = np.zeros(max(needed, 2 * arr.size), arr.dtype)
    grown[:used] = arr[:used]
    return grown


class Vocabulary:
    """Bidirectional mapping between external string ids and dense indexes.

    Indexes are assigned in first-seen order and never change; interning a
    known id returns its existing index. External ids are treated as opaque
    strings, nothing about their format is assumed.

    A vocabulary holds its ids joined by "\\n" in UTF-8, as the file formats
    store them: the bytes read from the file once loaded (from_utf8), or a
    store that doubles when full as ids are interned. Beside them it keeps
    where each id starts (derived from the bytes on first use) and one
    sorted hash table of 8 bytes per id, built on the first lookup. No
    id -> index dictionary is ever built.

    - Every lookup (intern, intern_utf8, indexes_of, get, index_of, `in`)
      goes through _find: one table probe per id, each match confirmed
      byte for byte. A one-id lookup is a whole probe of numpy calls, so a
      loop over many ids should call indexes_of once instead.
    - lookup(i) decodes one id from its byte slice; spans(indexes) gives
      the bytes and where the ids lie in them, for rendering without
      decoding; ids, iteration and == split the bytes into a list of str,
      kept until ids are added.
    - utf8() and so the file formats take the bytes as they are.
    """

    __slots__ = ("_origin", "_data", "_count", "_bounds", "_table", "_store",
                 "_ids")

    def __init__(self, ids=()):
        self._origin = "vocabulary"
        self._data = b""
        self._count = 0
        self._bounds = np.zeros(1, np.int64)
        self._table = np.empty(0, np.uint64)
        self._store = self._ids = None
        if ids:
            self.intern_utf8(*_encoded(ids))

    @classmethod
    def from_utf8(cls, data, count: int, origin: str = "vocabulary") -> "Vocabulary":
        """Wrap `count` ids joined by "\\n" as UTF-8 bytes (any buffer),
        without decoding or copying them; the caller has checked that the
        bytes are UTF-8 and hold `count` ids. A repeated id raises
        DataError, naming `origin`, at the first lookup."""
        if count > MAX_INDEX + 1:
            raise CapacityError(f"{origin}: exceeds 32-bit index space")
        vocab = cls()
        vocab._origin = origin
        if count:
            vocab._data, vocab._count = data, count
            vocab._bounds = vocab._table = None
        return vocab

    def _id_bounds(self) -> np.ndarray:
        """Where each stored id starts in the bytes, then len(bytes) + 1:
        id i is bytes[b[i]:b[i + 1] - 1]. Built on first use from the
        newlines of one block of bytes at a time."""
        if self._bounds is None:
            buf = np.frombuffer(self._data, np.uint8)
            bounds = np.empty(self._count + 1, np.int64)
            bounds[0] = 0
            filled = 1
            for at in range(0, buf.size, _BLOCK_BYTES):
                ends = np.flatnonzero(buf[at:at + _BLOCK_BYTES] == ord("\n"))
                np.add(ends, at + 1, out=bounds[filled:filled + ends.size])
                filled += ends.size
            bounds[-1] = buf.size + 1
            self._bounds = bounds
        return self._bounds[:self._count + 1]

    def spans(self, indexes: np.ndarray):
        """The held bytes as a uint8 array, with the start and length in it
        of each id of `indexes`."""
        bounds = self._id_bounds()
        starts = bounds[indexes]
        return (np.frombuffer(self._data, np.uint8), starts,
                bounds[indexes + 1] - starts - 1)

    def check_distinct(self) -> None:
        """Raise DataError, naming the origin, if an id is held twice. The
        first lookup checks this too, as it builds the hash table."""
        self._hash_table()

    def _hash_table(self) -> np.ndarray:
        """The table of (hash high bits, index) entries, sorted by the high
        bits, built from the bytes on first use. Each block of ids is hashed
        from its own byte range, straight into the table. A repeated id
        shares its full hash, and so its high bits: the ids whose high bits
        are shared, repeats and collisions alike, are decoded and scanned in
        index order, so that the first repeat raises DataError."""
        if self._table is None:
            bounds = self._id_bounds()
            data = np.frombuffer(self._data, np.uint8)
            table = np.empty(self._count, np.uint64)
            for at in range(0, self._count, _BLOCK_IDS):
                edges = bounds[at:at + _BLOCK_IDS + 1]
                first = int(edges[0])
                lens = np.diff(edges)
                lens -= 1
                entries = _hash_spans(_words(data[first:int(edges[-1]) - 1]),
                                      edges[:-1] - first, lens)
                entries &= _HIGH
                entries |= np.arange(at, at + lens.size, dtype=np.uint64)
                table[at:at + lens.size] = entries
            table.sort()
            seen = set()
            for index in np.sort(table[self._shared_entries(table)] & _LOW).tolist():
                ext_id = self.lookup(index)
                if ext_id in seen:
                    raise DataError(f"{self._origin}: id {ext_id!r} appears twice")
                seen.add(ext_id)
            self._table = table
        return self._table

    @staticmethod
    def _shared_entries(table: np.ndarray) -> np.ndarray:
        """The positions in the sorted table of the entries whose high bits
        equal a neighbour's, compared one block at a time."""
        runs = [np.empty(0, np.intp)]
        for at in range(0, table.size - 1, _BLOCK_IDS):
            block = table[at:at + _BLOCK_IDS + 1]
            runs.append(np.flatnonzero((block[1:] ^ block[:-1]) <= _LOW) + at)
        runs = np.concatenate(runs)
        # each entry that opens a run and each that follows one, once;
        # np.union1d would import numpy.ma
        shared = np.sort(np.concatenate((runs, runs + 1)))
        first = np.ones(shared.size, bool)
        np.not_equal(shared[1:], shared[:-1], out=first[1:])
        return shared[first]

    def _find(self, words, starts, lens, hashes):
        """(index, position) of each id of `lens` bytes from `starts` over
        words (as _words gives them), whose hashes rise: its index, or -1
        if not held, and the table position it would be inserted at.

        Each hash's high bits are searched for in the table. The entries
        with those bits sit together and are tried in turn, each held id
        gathered from the bytes and compared byte for byte, until one
        matches; an id not held goes after them."""
        table = self._hash_table()
        bounds = self._id_bounds()
        data = np.frombuffer(self._data, np.uint8)
        keys = hashes & _HIGH
        pos = np.searchsorted(table, keys)
        found = np.full(keys.size, -1, np.int64)
        rows = np.arange(keys.size)
        while rows.size:
            rows = rows[pos[rows] < table.size]
            entries = table[pos[rows]]
            candidate = (entries & _HIGH) == keys[rows]
            rows = rows[candidate]
            held = (entries[candidate] & _LOW).astype(np.intp)
            held_starts = bounds[held]
            held_lens = bounds[held + 1] - held_starts - 1
            same = _same_spans(words, starts[rows], lens[rows],
                               _words(_gather(data, held_starts, held_lens)),
                               np.cumsum(held_lens) - held_lens, held_lens)
            found[rows[same]] = held[same]
            rows = rows[~same]
            pos[rows] += 1
        return found, pos

    def intern(self, ext_id: str) -> int:
        return int(self.intern_utf8(*_encoded([ext_id]))[0])

    def intern_utf8(self, buf: np.ndarray, starts: np.ndarray,
                    lens: np.ndarray) -> np.ndarray:
        """intern() over the ids buf[start:start + len], UTF-8 byte strings
        in a uint8 array: their int32 indexes, with new ids numbered in
        first-seen order.

        The ids are hashed (_hash_spans) and grouped by hash through one
        unstable argsort; each is confirmed byte for byte to equal the first
        id of its group, and each group is looked up once (_find). New ids
        are appended to the bytes, each after a "\\n", and their entries
        merged into the table by one np.insert at the positions _find gives.
        If two different ids of this call share a hash, they are interned
        one id at a time instead.
        """
        words = _words(buf)
        hashes = _hash_spans(words, starts, lens)
        order = np.argsort(hashes)
        hashes = hashes[order]
        is_head = np.empty(hashes.size, bool)
        is_head[:1] = True
        np.not_equal(hashes[1:], hashes[:-1], out=is_head[1:])
        heads = np.flatnonzero(is_head)
        uniq = hashes[heads]
        # the first occurrence of each hash, and each id's group
        first = np.minimum.reduceat(order, heads)
        inverse = np.empty(order.size, np.intp)
        inverse[order] = np.cumsum(is_head) - 1
        del hashes, order, is_head
        rep = first[inverse]
        if not _same_spans(words, starts, lens, words, starts[rep], lens[rep]).all():
            return np.concatenate([self.intern_utf8(buf, starts[i:i + 1], lens[i:i + 1])
                                   for i in range(lens.size)])
        found, pos = self._find(words, starts[first], lens[first], uniq)
        new = np.flatnonzero(found < 0)
        if new.size:
            count = self._count
            if count + new.size > MAX_INDEX + 1:
                raise CapacityError("vocabulary exceeds 32-bit index space")
            by_first = np.argsort(first[new])
            found[new[by_first]] = np.arange(count, count + new.size)
            added = first[new[by_first]]
            self._append(buf, starts[added], lens[added])
            entries = uniq[new] & _HIGH
            entries |= found[new].astype(np.uint64)
            self._table = np.insert(self._table, pos[new], entries)
        return found[inverse].astype(np.int32)

    def _append(self, buf, starts, lens) -> None:
        """Add the ids buf[start:start + len] after those held, in order."""
        bounds = self._id_bounds()
        count = self._count
        size = int(bounds[-1]) if count else 0
        ends = np.cumsum(lens)
        grown = size + int(ends[-1]) + lens.size
        if self._store is None:
            # the bytes are a fixed buffer: copy them to a store that grows
            self._store = np.full(size, ord("\n"), np.uint8)
            self._store[:size - 1] = np.frombuffer(self._data, np.uint8)
        store = self._store = _with_room(self._store, size, grown)
        # each id followed by "\n"; the store keeps the "\n" after the last
        store[size:grown] = np.insert(_gather(buf, starts, lens), ends, ord("\n"))
        self._bounds = _with_room(self._bounds, count + 1, count + lens.size + 1)
        self._bounds[count + 1:count + lens.size + 1] = (
            size + ends + np.arange(1, lens.size + 1))
        self._data = memoryview(store)[:grown - 1]
        self._count = count + lens.size
        self._ids = None

    def lookup(self, index: int) -> str:
        if not 0 <= index < self._count:
            raise IndexError(f"vocabulary index {index} out of range")
        start, stop = self._id_bounds()[index:index + 2].tolist()
        return str(self._data[start:stop - 1], "utf-8")

    def index_of(self, ext_id: str) -> int:
        idx = self.get(ext_id)
        if idx is None:
            raise KeyError(ext_id)
        return idx

    def get(self, ext_id: str, default=None):
        (idx,) = self.indexes_of([ext_id])
        return default if idx is None else idx

    def indexes_of(self, ext_ids) -> list[int | None]:
        """The index of each id, or None for an id not held: the ids are
        hashed together and found by one _find."""
        # ids from outside may hold lone surrogates; those match nothing
        buf, starts, lens = _encoded(list(ext_ids), "surrogatepass")
        words = _words(buf)
        hashes = _hash_spans(words, starts, lens)
        order = np.argsort(hashes)
        found = np.empty(order.size, np.int64)
        found[order] = self._find(words, starts[order], lens[order],
                                  hashes[order])[0]
        return [None if idx < 0 else idx for idx in found.tolist()]

    def utf8(self):
        """The ids joined by "\\n" in UTF-8, as the file formats store them:
        the loaded or interned bytes themselves. ValueError, naming the
        first such id, if an id contains "\\n"."""
        if self._store is not None and self._count != np.count_nonzero(
                self._store[:int(self._bounds[self._count])] == ord("\n")):
            # every id ends at a "\n": the first "\n" that ends none lies
            # inside the first id that holds one
            ends = self._bounds[1:self._count + 1] - 1
            newlines = np.flatnonzero(self._store[:int(ends[-1]) + 1] == ord("\n"))
            inside = newlines[np.argmax(newlines[:ends.size] != ends)]
            bad = self.lookup(int(np.searchsorted(ends, inside)))
            raise ValueError(f'id {bad!r} contains "\\n", which the file format '
                             "cannot hold")
        return self._data

    def first_holding(self, chars: bytes):
        """The first id that holds one of the ASCII bytes `chars`, each of
        which stands in UTF-8 for its character alone, or None: utf8()
        scanned once for each byte, as a literal search is the fast one."""
        data = self.utf8()
        at = min((m.start() for c in chars
                  if (m := re.search(re.escape(bytes([c])), data))), default=None)
        return None if at is None else self.lookup(bytes(data[:at]).count(b"\n"))

    @property
    def ids(self) -> list[str]:
        """Registered ids in index order, split from the bytes on first use
        and kept until ids are added. Treat as read-only."""
        if self._ids is None:
            ids = str(self._data, "utf-8").split("\n") if self._count else []
            if len(ids) != self._count:   # an id holds "\n"
                ids = list(map(self.lookup, range(self._count)))
            self._ids = ids
        return self._ids

    def __len__(self) -> int:
        return self._count

    def __contains__(self, ext_id) -> bool:
        return self.get(ext_id) is not None

    def __iter__(self):
        return iter(self.ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.ids == other.ids

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} ids)"


@dataclass(frozen=True)
class Config:
    """Run configuration.

    The defaults reproduce the reference setup: prune the neighbor list at
    0.4 of the best candidate weight, emit top-500 lists, skip tracks the
    user already played, and pad short lists with dummy ids.
    """

    prune_ratio: float = 0.4
    k: int = 500
    exclude_seen: bool = True
    pad_strategy: str = PAD_DUMMY

    def __post_init__(self):
        if not 0.0 <= self.prune_ratio <= 1.0:
            raise ValueError(f"prune_ratio must be in [0, 1], got {self.prune_ratio}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.pad_strategy not in PAD_STRATEGIES:
            raise ValueError(f"pad_strategy must be one of {PAD_STRATEGIES}")
