"""Checksummed little-endian binary container helpers.

Shared by the dataset and index file formats, whose layout tastecf.index
owns. A file is a sequence of sections followed by a CRC32 of everything
before it. Each section is zero-padded to a multiple of 8 bytes. The first
section is the magic and a u32 format version. A vocabulary is two
sections: its UTF-8 byte length as u64, then its ids joined by "\\n" (an id
therefore cannot contain "\\n"). A loaded vocabulary keeps those bytes, read
into an array of their own, and decodes ids only when they are asked for
(see Vocabulary); saving it again writes the same bytes.

Reader reads a file front to back, one section at a time. Each array is
read straight into a read-only numpy array of its own (readinto, no copy),
and a long section can be read in parts (Reader.parts), so a loader never
holds the whole file and need not keep what it only sums or checks. CSR
offsets are <i4 (Reader.offsets). Every byte, padding included, goes into
a running CRC32 that finish() checks against the trailer. Each length is
checked against the file's size (fstat) and each section's padding is
checked to be zero before the section is read, so a truncated or
inconsistent file is a DataError that names the path, never an exception
from struct or numpy. A DataError is raised only once the rest of the file
has gone through the CRC: a file whose checksum does not match raises
ChecksumError, whatever else is wrong with it.
"""

import codecs
import os
import stat
import struct
import zlib

import numpy as np

from .core import ChecksumError, DataError, FormatVersionError, Vocabulary

_ALIGN = 8
# a vocabulary is checked this many bytes at a time, so that no temporary
# str is the size of the whole vocabulary; at least 4, the longest UTF-8
# character, so that every block but the last decodes one. The rest of a
# file that fails is read through the CRC in blocks of this size too.
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


def read_verified(reader: "Reader", dtype, count: int) -> np.ndarray:
    """The next `count` entries of `dtype` in the reader's file, read
    straight into a new read-only array and folded into its CRC32."""
    arr = np.empty(count, dtype)
    reader.fill(arr)
    arr.flags.writeable = False
    return arr


class Reader:
    """Sequential reads of a checksummed file, one section at a time.

    Use it as a context manager and call finish() after the last section.
    Every failure, a short file included, raises DataError naming the file
    (FormatVersionError for the header); a DataError raised inside the
    block is let through only once the rest of the file has gone through
    the CRC, and replaced by ChecksumError if that does not match. The
    file must be a regular one, whose size fstat gives: a pipe is refused
    before it is opened.
    """

    def __init__(self, path, magic: bytes, version: int):
        self.path = path
        self.offset = 0       # body bytes read, and so folded into crc
        self.crc = 0
        self._verified = False
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise DataError(f"{path}: not a regular file")
        self._file = open(path, "rb", buffering=0)
        try:
            # the body is all of the file but its 4-byte trailer
            self.size = os.fstat(self._file.fileno()).st_size - 4
            if self.size < 0:
                raise ChecksumError(f"{path}: file truncated")
            head = os.pread(self._file.fileno(), len(magic) + 4, 0)
            if self.size < len(head) or head[:len(magic)] != magic:
                raise FormatVersionError(f"{path}: unrecognized file magic")
            (got,) = struct.unpack_from("<I", head, len(magic))
            if got != version:
                raise FormatVersionError(
                    f"{path}: format version {got}, expected {version}")
            self.array("u1", len(head))
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        try:
            if isinstance(exc, DataError) and not isinstance(exc, ChecksumError):
                # a corrupt file is reported as corrupt, whatever it seemed
                # to hold
                self._verify()
        finally:
            self._file.close()

    def fail(self, message: str) -> DataError:
        return DataError(f"{self.path}: {message}")

    def fill(self, arr: np.ndarray) -> None:
        """Read the file's next arr.nbytes bytes into the contiguous arr."""
        buf = arr.view(np.uint8)
        done = 0
        while done < buf.size:
            got = self._file.readinto(buf[done:])
            if not got:
                raise self.fail("file body is shorter than its header says")
            done += got
        self.crc = zlib.crc32(buf, self.crc)
        self.offset += buf.size

    def _section(self, size: int) -> int:
        """Check that a section of `size` bytes from here and its padding lie
        within the body, and that the padding is zero; return the padding's
        length."""
        pad = _padding(size)
        end = self.offset + size
        if end + pad > self.size:
            raise self.fail("file body is shorter than its header says")
        # a length cut short within its padding would otherwise go unseen
        if any(os.pread(self._file.fileno(), pad, end)):
            raise self.fail(f"padding at byte {end} is not zero")
        return pad

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.array("u1", struct.calcsize(fmt)))

    def vocab(self, count: int, name: str) -> Vocabulary:
        (size,) = self.unpack("<Q")
        return decode_vocab(memoryview(self.array("u1", size)), count,
                            f"{self.path}: {name} vocabulary")

    def array(self, dtype, count: int) -> np.ndarray:
        """The next section, `count` entries of `dtype`, as a read-only
        array of its own."""
        dtype = np.dtype(dtype)
        pad = self._section(count * dtype.itemsize)
        arr = read_verified(self, dtype, count)
        self.fill(np.empty(pad, np.uint8))
        return arr

    def parts(self, dtype, bounds):
        """The next section read in consecutive parts: part i holds entries
        bounds[i] to bounds[i + 1], and bounds rise from 0 to the section's
        entry count. Each part is a read-only array of its own, read only
        when asked for; iterate to the end, which reads the padding."""
        dtype = np.dtype(dtype)
        bounds = [int(b) for b in bounds]
        pad = self._section(bounds[-1] * dtype.itemsize)
        for start, end in zip(bounds, bounds[1:]):
            yield read_verified(self, dtype, end - start)
        self.fill(np.empty(pad, np.uint8))

    def check_range(self, arr: np.ndarray, lo: int, hi: int, name: str) -> np.ndarray:
        """arr, once every entry is checked to lie in [lo, hi): DataError
        otherwise."""
        if arr.size and (arr.min() < lo or arr.max() >= hi):
            raise self.fail(f"{name} outside [{lo}, {hi})")
        return arr

    def bounded(self, dtype, count: int, lo: int, hi: int, name: str):
        """An array whose entries must lie in [lo, hi)."""
        return self.check_range(self.array(dtype, count), lo, hi, name)

    def offsets(self, rows: int, end: int, name: str) -> np.ndarray:
        """A CSR offsets array of int32: rows + 1 entries from 0 to end,
        never decreasing."""
        arr = self.array("<i4", rows + 1)
        if arr[0] != 0 or arr[-1] != end or (arr[1:] < arr[:-1]).any():
            raise self.fail(f"{name} do not rise from 0 to {end}")
        return arr

    def finish(self) -> None:
        """Check that the last section ends the body and that the CRC
        matches the trailer."""
        if self.offset != self.size:
            raise self.fail(f"{self.size - self.offset} bytes after the last section")
        self._verify()

    def _verify(self) -> None:
        """Read the rest of the body through the CRC, then the trailer;
        ChecksumError if the file ends first or the two differ."""
        if self._verified:
            return
        while self.offset < self.size:
            block = self._file.read(min(_BLOCK_BYTES, self.size - self.offset))
            if not block:
                raise ChecksumError(f"{self.path}: file truncated")
            self.crc = zlib.crc32(block, self.crc)
            self.offset += len(block)
        trailer = self._file.read(4)
        if len(trailer) < 4:
            raise ChecksumError(f"{self.path}: file truncated")
        if struct.unpack("<I", trailer)[0] != self.crc:
            raise ChecksumError(f"{self.path}: checksum mismatch")
        self._verified = True
