"""Checksummed little-endian binary container helpers.

Shared by the dataset and index file formats. A file is a sequence of
sections followed by a CRC32 of everything before it. Each section is
zero-padded to a multiple of 8 bytes, so every array starts 8-byte aligned
and loads as a read-only view of the file bytes, with no copy. The first
section is the magic and a u32 format version. A vocabulary is two
sections: its UTF-8 byte length as u64, then its ids joined by "\\n" (an id
therefore cannot contain "\\n"). A loaded vocabulary keeps those bytes, a
view of the file body, and decodes ids only when they are asked for; the
recommendation lines are gathered from them undecoded. Beside them it
builds, at its first lookup and one block at a time, the ids' bounds
and one hash table, 8 bytes per id each, never an id dictionary (see
Vocabulary); saving it again writes the same bytes without splitting them.

Reader checks every length against the body before it reads, and that
each section's padding is zero, so a truncated or inconsistent file is a
DataError that names the path, never an exception from struct or numpy.
"""

import codecs
import struct
import zlib

import numpy as np

from .core import ChecksumError, DataError, FormatVersionError, Vocabulary

_ALIGN = 8
# a vocabulary is checked this many bytes at a time, so that no temporary
# str is the size of the whole vocabulary; at least 4, the longest UTF-8
# character, so that every block but the last decodes one
_BLOCK_BYTES = 1 << 20


def _padding(size: int) -> int:
    return -size % _ALIGN


def write_file(path, chunks) -> None:
    """Write each chunk as one zero-padded section, then the CRC32."""
    crc = 0
    with open(path, "wb") as fh:
        for chunk in chunks:
            chunk = memoryview(chunk)
            pad = bytes(_padding(chunk.nbytes))
            for part in (chunk, pad):
                fh.write(part)
                crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


def header(magic: bytes, version: int) -> bytes:
    return magic + struct.pack("<I", version)


def encode_vocab(vocab: Vocabulary):
    """The two sections of a vocabulary; ValueError if an id holds "\\n"."""
    data = vocab.utf8()
    return struct.pack("<Q", len(data)), data


def read_verified(path) -> memoryview:
    """Whole-file read with the CRC trailer checked; the body is returned
    as a view, without the trailer and without a copy."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise ChecksumError(f"{path}: file truncated")
    body = memoryview(data)[:-4]
    if zlib.crc32(body) != struct.unpack_from("<I", data, len(body))[0]:
        raise ChecksumError(f"{path}: checksum mismatch")
    return body


def decode_vocab(data, count: int, origin: str) -> Vocabulary:
    """A vocabulary over its UTF-8 bytes, once they are checked to be UTF-8
    and to hold `count` ids, a block of about _BLOCK_BYTES at a time; the
    ids are not split out."""
    newlines = 0
    at = 0
    while at < len(data):
        # a block ends before a character it cuts, which starts the next
        try:
            text, used = codecs.utf_8_decode(data[at:at + _BLOCK_BYTES], "strict",
                                             at + _BLOCK_BYTES >= len(data))
        except UnicodeDecodeError as exc:
            raise DataError(f"{origin}: invalid UTF-8 at byte {at + exc.start}") from None
        newlines += text.count("\n")
        at += used
    # "" holds one empty id, unless the header says none
    found = newlines + 1 if len(data) or count else 0
    if found != count:
        raise DataError(f"{origin}: {found} ids, header says {count}")
    return Vocabulary.from_utf8(data, count, origin)


class Reader:
    """Sequential reads over a verified file body, one section at a time.

    Arrays are read-only views of the body. Every failure, a short body
    included, raises DataError (FormatVersionError for the header) naming
    the file.
    """

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        self.body = read_verified(path)
        self.offset = 0
        if (len(self.body) < len(magic) + 4
                or self.body[:len(magic)] != magic):
            raise FormatVersionError(f"{path}: unrecognized file magic")
        (got,) = struct.unpack_from("<I", self.body, len(magic))
        if got != version:
            raise FormatVersionError(
                f"{path}: format version {got}, expected {version}")
        self._section(len(magic) + 4)

    def fail(self, message: str) -> DataError:
        return DataError(f"{self.path}: {message}")

    def _section(self, size: int) -> int:
        start = self.offset
        end = start + size + _padding(size)
        if end > len(self.body):
            raise self.fail("file body is shorter than its header says")
        # a length cut short within its padding would otherwise go unseen
        if any(self.body[start + size:end]):
            raise self.fail(f"padding at byte {start + size} is not zero")
        self.offset = end
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.body, self._section(struct.calcsize(fmt)))

    def vocab(self, count: int, name: str) -> Vocabulary:
        (size,) = self.unpack("<Q")
        start = self._section(size)
        return decode_vocab(self.body[start:start + size], count,
                            f"{self.path}: {name} vocabulary")

    def array(self, dtype: str, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = self._section(count * dtype.itemsize)
        return np.frombuffer(self.body, dtype=dtype, count=count, offset=start)

    def bounded(self, dtype: str, count: int, lo: int, hi: int, name: str):
        """An array whose entries must lie in [lo, hi)."""
        arr = self.array(dtype, count)
        if arr.size and (arr.min() < lo or arr.max() >= hi):
            raise self.fail(f"{name} outside [{lo}, {hi})")
        return arr

    def offsets(self, rows: int, end: int, name: str) -> np.ndarray:
        """A CSR offsets array: rows + 1 entries from 0 to end, never
        decreasing."""
        arr = self.array("<i8", rows + 1)
        if arr[0] != 0 or arr[-1] != end or (arr[1:] < arr[:-1]).any():
            raise self.fail(f"{name} do not rise from 0 to {end}")
        return arr

    def finish(self) -> None:
        if self.offset != len(self.body):
            raise self.fail(f"{len(self.body) - self.offset} bytes after the last section")
