"""Shared domain types: dense ID interning, run configuration, errors."""

from __future__ import annotations

from dataclasses import dataclass

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
        self.line_no = line_no


class DuplicatePairError(DataError):
    def __init__(self, line_no, message: str):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


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


def _words(buf: np.ndarray) -> np.ndarray:
    """The 8 bytes from every offset of buf, read unaligned as one
    little-endian word and zero-filled past the end: buf.size + 1 words."""
    padded = np.zeros(buf.size + 8, np.uint8)
    padded[:buf.size] = buf
    return np.ndarray((buf.size + 1,), "<u8", padded, 0, (1,))


def _hash_spans(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """A uint64 hash of each byte string buf[start:start + len], in one
    vectorised pass per 8 bytes of the longest: the length, then each
    8-byte word (zero-filled past the end), mixed by multiply and
    xor-shift. A string's hash depends on its bytes alone, not on the
    other spans. Array arithmetic wraps modulo 2**64 without a warning."""
    words = _words(buf)
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


def _all_same(words_a, starts_a, lens_a, words_b, starts_b, lens_b) -> bool:
    """Whether each span of words_a (as _words gives them), from a start
    for a length, holds the same bytes as its paired span of words_b."""
    if not (lens_a == lens_b).all():
        return False
    rows = slice(None)
    for offset in range(0, int(lens_a.max(initial=0)), 8):
        if offset:
            rows = np.flatnonzero(lens_a > offset)
        differ = ((words_a[starts_a[rows] + offset] ^ words_b[starts_b[rows] + offset])
                  & _WORD_MASKS[np.minimum(lens_a[rows] - offset, 8)])
        if differ.any():
            return False
    return True


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

    A vocabulary loaded from a file (from_utf8) or interned from bytes
    (intern_utf8, as the text parser does) holds the ids joined by "\\n" in
    UTF-8 and decodes ids only on demand:

    - lookup(i) decodes one id from its byte slice; the slice bounds come
      from one np.flatnonzero over the bytes, made on first use and kept
      (intern_utf8 keeps them as it goes);
    - ids, iteration and == split the bytes into a list of str, once;
    - get, index_of, `in` and intern build the id -> index dict, which
      checks that no id repeats; from then on the bytes are dropped, since
      interning may add ids, and intern_utf8 interns through the dict;
    - indexes_of finds a batch of ids without that dict, by hashing every
      stored id (see there);
    - utf8() and so the file formats take the bytes as they are.
    """

    __slots__ = ("_ids", "_index", "_origin", "_data", "_count", "_bounds",
                 "_table")

    def __init__(self, ids=()):
        self._ids: list[str] | None = []
        self._index: dict[str, int] | None = {}
        self._origin = "vocabulary"
        self._data = self._bounds = self._table = None
        self._count = 0
        for ext_id in ids:
            self.intern(ext_id)

    @classmethod
    def from_unique(cls, ids: list[str], origin: str = "vocabulary") -> "Vocabulary":
        """Wrap a list of ids that should already be distinct, taking
        ownership of it.

        The id -> index map is built on the first get, index_of, `in` or
        intern; a repeated id raises DataError, naming `origin`, then.
        """
        if len(ids) > MAX_INDEX + 1:
            raise CapacityError(f"{origin}: exceeds 32-bit index space")
        vocab = cls()
        vocab._ids = ids
        vocab._index = None
        vocab._origin = origin
        return vocab

    @classmethod
    def from_utf8(cls, data, count: int, origin: str = "vocabulary") -> "Vocabulary":
        """Wrap `count` ids joined by "\\n" as UTF-8 bytes (any buffer),
        without decoding them; the caller has checked that the bytes are
        UTF-8 and hold `count` ids. As with from_unique, a repeated id
        raises DataError when first looked up."""
        vocab = cls.from_unique([], origin)
        if count:
            if count > MAX_INDEX + 1:
                raise CapacityError(f"{origin}: exceeds 32-bit index space")
            vocab._ids, vocab._data, vocab._count = None, data, count
        return vocab

    def _id_bounds(self) -> np.ndarray:
        """Where each stored id starts in the bytes, then len(bytes) + 1:
        id i is bytes[b[i]:b[i + 1] - 1]."""
        if self._bounds is None:
            buf = np.frombuffer(self._data, np.uint8)
            bounds = np.empty(self._count + 1, np.int64)
            bounds[0] = 0
            bounds[1:-1] = np.flatnonzero(buf == ord("\n")) + 1
            bounds[-1] = buf.size + 1
            self._bounds = bounds
        return self._bounds

    def _id_index(self) -> dict[str, int]:
        if self._index is not None:
            return self._index
        ids = self.ids
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            seen = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise DataError(f"{self._origin}: id {repeated!r} appears twice")
        self._index = index
        self._data = self._bounds = self._table = None
        return index

    def intern(self, ext_id: str) -> int:
        index = self._index
        if index is None:   # checked inline: parsing interns every field
            index = self._id_index()
        idx = index.get(ext_id)
        if idx is None:
            idx = len(self._ids)
            if idx > MAX_INDEX:
                raise CapacityError("vocabulary exceeds 32-bit index space")
            index[ext_id] = idx
            self._ids.append(ext_id)
        return idx

    def intern_utf8(self, buf: np.ndarray, starts: np.ndarray,
                    lens: np.ndarray) -> np.ndarray:
        """intern() over the ids buf[start:start + len], UTF-8 byte strings
        in a uint8 array, none holding "\\n": their int32 indexes, with new
        ids numbered in first-seen order.

        The ids are hashed (_hash_spans) and looked up in a sorted table of
        the stored ids' hashes. Every match is confirmed byte for byte: ids
        of this call against the first id with their hash, and a hash found
        in the table against the stored id's bytes. New ids are appended to
        the byte store, which doubles when full, and their hashes merged
        into the table by np.searchsorted and np.insert. If two different
        ids share a hash, or the dict is built already, the ids are decoded
        and interned through the id dict instead.
        """
        codes = None
        if lens.size and (self._index is None or not self._ids):
            codes = self._intern_by_hash(buf, starts, lens)
        if codes is None:
            data = buf.tobytes()
            ids = [str(data[start:start + n], "utf-8")
                   for start, n in zip(starts.tolist(), lens.tolist())]
            codes = np.fromiter(map(self.intern, ids), np.int64, len(ids))
        return codes.astype(np.int32)

    def _new_table(self):
        """(store, bounds, hashes, codes) for the ids held, or None if two of
        their hashes are equal. store holds each id followed by "\\n", then
        at least 8 zero bytes, so that words past an id can be read; id i
        is store[bounds[i]:bounds[i + 1] - 1]; hashes are sorted and codes
        gives the index of each."""
        data = np.frombuffer(self.utf8(), np.uint8)
        count = len(self)
        size = data.size + 1 if count else 0
        store = np.zeros(size + 8, np.uint8)
        store[:data.size] = data
        store[size - 1:size] = ord("\n")
        bounds = np.zeros(count + 1, np.int64)
        bounds[1:] = np.flatnonzero(store[:size] == ord("\n")) + 1
        hashes = _hash_spans(store[:size], bounds[:-1], np.diff(bounds) - 1)
        order = np.argsort(hashes)
        hashes = hashes[order]
        if (hashes[1:] == hashes[:-1]).any():
            return None
        return store, bounds, hashes, order.astype(np.int32)

    def _intern_by_hash(self, buf, starts, lens):
        """intern_utf8 through the hash table: the int64 indexes, or None,
        with nothing changed, if two different ids share a hash."""
        table = self._table if self._table is not None else self._new_table()
        if table is None:
            return None
        store, bounds, hashes, codes = table
        count = len(self)
        words = _words(buf)
        uniq, first, inverse = np.unique(_hash_spans(buf, starts, lens),
                                         return_index=True, return_inverse=True)
        # every id is the first id of its hash
        rep = first[inverse]
        if not _all_same(words, starts, lens, words, starts[rep], lens[rep]):
            return None
        # a hash held by the table names a stored id: it must be this one
        pos = np.searchsorted(hashes, uniq)
        held = pos < hashes.size
        held[held] = hashes[pos[held]] == uniq[held]
        old = codes[pos[held]].astype(np.int64)
        found = first[held]
        store_words = np.ndarray((store.size - 7,), "<u8", store, 0, (1,))
        if not _all_same(words, starts[found], lens[found], store_words,
                         bounds[old], bounds[old + 1] - bounds[old] - 1):
            return None

        new = np.flatnonzero(~held)
        if count + new.size > MAX_INDEX + 1:
            raise CapacityError("vocabulary exceeds 32-bit index space")
        by_first = np.argsort(first[new])
        new_codes = np.empty(new.size, np.int64)
        new_codes[by_first] = np.arange(count, count + new.size)
        unique_codes = np.empty(uniq.size, np.int64)
        unique_codes[held] = old
        unique_codes[new] = new_codes
        if new.size:
            hashes = np.insert(hashes, pos[new], uniq[new])
            codes = np.insert(codes, pos[new], new_codes.astype(np.int32))
            # the new ids' bytes, each followed by "\n", in index order: the
            # id byte at `at` of the run of all of them goes `rank` bytes
            # further on, one "\n" for each id before it
            added = first[new[by_first]]
            n = lens[added]
            ends = np.cumsum(n)
            at = np.arange(ends[-1])
            rank = np.repeat(np.arange(n.size), n)
            size = int(bounds[count])
            grown = size + ends[-1] + n.size
            store = _with_room(store, size, grown + 8)
            store[size + rank + at] = buf[np.repeat(starts[added] - ends + n, n) + at]
            store[size + ends + np.arange(n.size)] = ord("\n")
            bounds = _with_room(bounds, count + 1, count + n.size + 1)
            bounds[count + 1:count + n.size + 1] = size + ends + np.arange(1, n.size + 1)
            count += n.size
            self._data = memoryview(store)[:grown - 1]
            self._bounds = bounds[:count + 1]
            self._ids = self._index = None
            self._count = count
        self._table = store, bounds, hashes, codes
        return unique_codes[inverse]

    def lookup(self, index: int) -> str:
        if self._ids is not None:
            return self._ids[index]
        if not 0 <= index < self._count:
            raise IndexError(f"vocabulary index {index} out of range")
        start, stop = self._id_bounds()[index:index + 2].tolist()
        return str(self._data[start:stop - 1], "utf-8")

    def index_of(self, ext_id: str) -> int:
        return self._id_index()[ext_id]

    def get(self, ext_id: str, default=None):
        return self._id_index().get(ext_id, default)

    def indexes_of(self, ext_ids) -> list[int | None]:
        """The index of each id, or None for an id not held.

        A vocabulary that still holds its file bytes and has built no id
        map answers without building one: it hashes every stored id in one
        vectorised pass (_hash_spans), sorts the hashes and hashes the
        wanted ids the same way. Two equal stored hashes come from a
        repeated id or from a true collision, so then the id map answers
        instead, which raises DataError for a repeat. Otherwise each stored
        hash names at most one index, and a wanted id is found only when
        the id decoded at that index equals it, so an id that merely
        shares a hash with a stored one is not taken for it.
        """
        ext_ids = list(ext_ids)
        if self._index is None and self._data is not None:
            found = self._indexes_by_hash(ext_ids)
            if found is not None:
                return found
        return list(map(self._id_index().get, ext_ids))

    def _indexes_by_hash(self, ext_ids: list[str]) -> list[int | None] | None:
        """indexes_of through hashes, or None if two stored hashes are equal."""
        bounds = self._id_bounds()
        stored = _hash_spans(np.frombuffer(self._data, np.uint8), bounds[:-1],
                             np.diff(bounds) - 1)
        ordered = np.sort(stored)
        if (ordered[1:] == ordered[:-1]).any():
            return None
        # ids from outside may hold lone surrogates; those match nothing
        encoded = [ext_id.encode("utf-8", "surrogatepass") for ext_id in ext_ids]
        lens = np.fromiter(map(len, encoded), np.int64, len(encoded))
        wanted = _hash_spans(np.frombuffer(b"".join(encoded), np.uint8),
                             np.cumsum(lens) - lens, lens)
        # stored hashes equal to a wanted one: a table of the wanted hashes'
        # low 16 bits passes a few candidates, and np.isin checks those
        table = np.zeros(1 << 16, bool)
        table[(wanted & 0xFFFF).astype(np.intp)] = True
        candidates = np.flatnonzero(table[(stored & 0xFFFF).astype(np.intp)])
        hits = candidates[np.isin(stored[candidates], wanted)]
        by_hash = dict(zip(stored[hits].tolist(), hits.tolist()))
        return [idx if idx is not None and self.lookup(idx) == ext_id else None
                for ext_id, idx in zip(ext_ids, map(by_hash.get, wanted.tolist()))]

    def utf8(self):
        """The ids joined by "\\n" in UTF-8, as the file formats store them:
        the loaded or interned bytes themselves while the vocabulary holds
        them. ValueError if an id contains "\\n"."""
        if self._data is not None:
            return self._data
        text = "\n".join(self._ids)
        if text.count("\n") != max(len(self._ids) - 1, 0):
            raise ValueError('an id contains "\\n", which the file format cannot hold')
        return text.encode("utf-8")

    @property
    def ids(self) -> list[str]:
        """Registered ids in index order, split from the loaded bytes on
        first use. Treat as read-only."""
        if self._ids is None:
            self._ids = str(self._data, "utf-8").split("\n")
        return self._ids

    def __len__(self) -> int:
        return self._count if self._ids is None else len(self._ids)

    def __contains__(self, ext_id) -> bool:
        return ext_id in self._id_index()

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
