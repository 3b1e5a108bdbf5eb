"""Shared domain types: dense ID interning, run configuration, errors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Triplet(NamedTuple):
    """One interaction record in external-id form."""

    user: str
    track: str
    play_count: int


class Vocabulary:
    """Bidirectional mapping between external string ids and dense indexes.

    Indexes are assigned in first-seen order and never change; interning a
    known id returns its existing index. External ids are treated as opaque
    strings, nothing about their format is assumed.
    """

    __slots__ = ("_ids", "_index", "_origin")

    def __init__(self, ids=()):
        self._ids: list[str] = []
        self._index: dict[str, int] | None = {}
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
        vocab = cls.__new__(cls)
        vocab._ids = ids
        vocab._index = None
        vocab._origin = origin
        return vocab

    def _id_index(self) -> dict[str, int]:
        if self._index is not None:
            return self._index
        ids = self._ids
        index = dict(zip(ids, range(len(ids))))
        if len(index) != len(ids):
            seen = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise DataError(f"{self._origin}: id {repeated!r} appears twice")
        self._index = index
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

    def intern_all(self, ids: list[str]) -> np.ndarray:
        """intern() over a list of ids in one C-level pass: their int32
        indexes, with new ids numbered in first-seen order."""
        index = self._index
        if index is None:
            index = self._id_index()
        n = len(self._ids)
        # map takes len(index) just before each setdefault, so a new id is
        # stored with its dense index and a known one returns its own
        codes = np.fromiter(map(index.setdefault, ids, iter(index.__len__, -1)),
                            np.int64, len(ids))
        if len(index) > n:
            if len(index) > MAX_INDEX + 1:
                self._index = None   # drops the new entries
                raise CapacityError("vocabulary exceeds 32-bit index space")
            # new ids first appear in index order, each where the running
            # maximum (known ids counted as n - 1) rises
            running = np.maximum.accumulate(np.maximum(codes, n - 1))
            first = np.flatnonzero(np.diff(running, prepend=n - 1) > 0)
            self._ids.extend(map(ids.__getitem__, first.tolist()))
        return codes.astype(np.int32)

    def lookup(self, index: int) -> str:
        return self._ids[index]

    def index_of(self, ext_id: str) -> int:
        return self._id_index()[ext_id]

    def get(self, ext_id: str, default=None):
        return self._id_index().get(ext_id, default)

    @property
    def ids(self) -> list[str]:
        """Registered ids in index order. Treat as read-only."""
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, ext_id) -> bool:
        return ext_id in self._id_index()

    def __iter__(self):
        return iter(self._ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._ids == other._ids

    def __repr__(self) -> str:
        return f"Vocabulary({len(self._ids)} ids)"


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
