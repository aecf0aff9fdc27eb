"""Seekable-container machinery: footer indexes and byte sources.

Multi-member containers once required a full-archive read and parse
before a single member could be touched.  This module defines the
*footer index* that makes the shard archive (``SHRD`` v2, the one
multi-member container written) seekable:

* every member gets a :class:`MemberIndex` row — key (shard id or
  variable name), entry kind, codec name, time geometry, absolute byte
  ``offset``/``length`` inside the container, and a CRC-32 checksum of
  the stored payload;
* the rows serialize into a footer block written *after* the members,
  followed by a fixed-size trailer (footer offset + footer CRC +
  magic) as the last 16 bytes of the container.

Opening an indexed container therefore costs three tiny reads — head
(sniff), trailer, footer — independent of archive size, and decoding
one member costs one ``read_at(offset, length)`` plus its checksum
verification.  Layouts written before the footer are read by
:mod:`repro.pipeline.legacy`, which synthesizes the same rows.

Byte access is abstracted behind tiny *sources* (:class:`BufferSource`
for in-memory archives, :class:`FileSource` for paths,
:class:`FileObjSource` for seekable handles), so the same index code
serves ``Archive.open(path)``, raw bytes, and instrumented streams —
:class:`CountingReader` wraps any handle and counts bytes actually
read, which is how the benches and tests assert that partial decode
touches O(footer + selected members) bytes.

Malformed index structures raise :class:`ArchiveIndexError` (a
:class:`ValueError`, joining the container error family) rather than
decoding garbage.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple, Union

__all__ = ["ArchiveIndexError", "MemberIndex", "build_index",
           "parse_index", "read_index", "verify_member", "member_kind",
           "BufferSource", "FileSource", "FileObjSource", "as_source",
           "CountingReader", "INDEX_MAGIC", "TRAILER_MAGIC",
           "TRAILER_SIZE", "INDEX_VERSION"]

#: magic opening the footer index block
INDEX_MAGIC = b"RIX1"
#: magic closing the container (last 4 bytes of an indexed archive)
TRAILER_MAGIC = b"XIR1"
#: trailer layout: footer offset (u64), footer CRC-32 (u32), magic
_TRAILER_FMT = "<QI4s"
TRAILER_SIZE = struct.calcsize(_TRAILER_FMT)
#: version of the footer block layout itself
INDEX_VERSION = 1

#: member entry kinds (mirrors the container writers' vocabulary)
MEMBER_BLOB = 0
MEMBER_ENVELOPE = 1

_ENTRY_FIXED = "<BiIIQQI"  # kind, variable, t0, t1, offset, length, crc


class ArchiveIndexError(ValueError):
    """A container's footer index (or an indexed member) is missing,
    truncated, or fails its checksum."""


@dataclass(frozen=True)
class MemberIndex:
    """One member's row in a container footer index.

    ``offset``/``length`` locate the member's stored payload inside
    the container (absolute byte offset); ``crc32`` is the CRC-32 of
    exactly those bytes.  A timed member covers frames ``[t0, t1)``
    of ``variable``.  A *named* member (one variable of a mapping) has
    no time geometry: ``t0 == t1 == 0``, ``variable`` is its position,
    and it decodes to ``{key: array}``.
    """

    key: str
    kind: int
    codec: str
    variable: int
    t0: int
    t1: int
    offset: int
    length: int
    crc32: int

    @property
    def frames(self) -> int:
        return self.t1 - self.t0


# ----------------------------------------------------------------------
# Footer serialization.
# ----------------------------------------------------------------------
def build_index(members: List[MemberIndex]) -> bytes:
    """Serialize the footer block plus trailer for ``members``.

    The returned bytes are appended verbatim after a container's
    member region; ``footer_offset`` in the trailer is relative to the
    container start, so the caller passes the current write position
    via the members' absolute offsets and appends this blob at the end
    of the file.
    """
    parts = [INDEX_MAGIC, struct.pack("<BI", INDEX_VERSION,
                                      len(members))]
    for m in members:
        key = m.key.encode()
        codec = m.codec.encode()
        if not 0 < len(key) <= 0xFFFF:
            raise ValueError(f"bad member key {m.key!r}")
        if len(codec) > 0xFF:
            raise ValueError(f"bad codec name {m.codec!r}")
        parts.append(struct.pack("<H", len(key)))
        parts.append(key)
        parts.append(struct.pack("<B", len(codec)))
        parts.append(codec)
        parts.append(struct.pack(_ENTRY_FIXED, m.kind, m.variable,
                                 m.t0, m.t1, m.offset, m.length,
                                 m.crc32))
    footer = b"".join(parts)
    return footer + struct.pack(_TRAILER_FMT, 0, zlib.crc32(footer),
                                TRAILER_MAGIC)


def _finish_trailer(blob: bytes, footer_offset: int) -> bytes:
    """Patch the placeholder footer offset once the caller knows where
    the footer lands in the container."""
    footer, trailer = blob[:-TRAILER_SIZE], blob[-TRAILER_SIZE:]
    _, crc, magic = struct.unpack(_TRAILER_FMT, trailer)
    return footer + struct.pack(_TRAILER_FMT, footer_offset, crc, magic)


def index_blob(members: List[MemberIndex], footer_offset: int) -> bytes:
    """Footer block + trailer, with the trailer pointing at
    ``footer_offset`` (the container position the blob is written at).
    """
    return _finish_trailer(build_index(members), footer_offset)


def parse_index(footer: bytes) -> List[MemberIndex]:
    """Parse a footer block (without the trailer)."""
    if footer[:4] != INDEX_MAGIC:
        raise ArchiveIndexError("container index has a bad footer "
                                "magic")
    try:
        version, count = struct.unpack_from("<BI", footer, 4)
        if version != INDEX_VERSION:
            raise ArchiveIndexError(
                f"unsupported container index version {version}")
        pos = 4 + struct.calcsize("<BI")
        members = []
        for _ in range(count):
            klen, = struct.unpack_from("<H", footer, pos)
            pos += 2
            key = footer[pos:pos + klen].decode()
            pos += klen
            clen, = struct.unpack_from("<B", footer, pos)
            pos += 1
            codec = footer[pos:pos + clen].decode()
            pos += clen
            (kind, variable, t0, t1, offset, length,
             crc) = struct.unpack_from(_ENTRY_FIXED, footer, pos)
            pos += struct.calcsize(_ENTRY_FIXED)
            members.append(MemberIndex(
                key=key, kind=kind, codec=codec, variable=variable,
                t0=t0, t1=t1, offset=offset, length=length, crc32=crc))
    except (struct.error, UnicodeDecodeError) as exc:
        raise ArchiveIndexError(
            f"truncated or corrupt container index ({exc})") from None
    return members


def read_index(source) -> Optional[List[MemberIndex]]:
    """Read a container's footer index via its trailer.

    Costs two small reads (trailer + footer) regardless of container
    size.  Returns ``None`` when the container carries no trailer (a
    pre-index version); raises :class:`ArchiveIndexError` when a
    trailer is present but the footer it points at is truncated or
    fails its CRC.
    """
    size = source.size()
    if size < TRAILER_SIZE:
        return None
    trailer = source.read_at(size - TRAILER_SIZE, TRAILER_SIZE)
    if len(trailer) != TRAILER_SIZE:
        # the file shrank between size() and the read (truncation
        # racing the reader): typed error, never a bare struct.error
        raise ArchiveIndexError(
            f"container trailer read returned {len(trailer)} of "
            f"{TRAILER_SIZE} bytes (file truncated mid-read)")
    footer_offset, footer_crc, magic = struct.unpack(_TRAILER_FMT,
                                                     trailer)
    if magic != TRAILER_MAGIC:
        return None
    if not 0 < footer_offset <= size - TRAILER_SIZE:
        raise ArchiveIndexError(
            f"container trailer points outside the file "
            f"(footer at {footer_offset}, file is {size} bytes)")
    footer = source.read_at(footer_offset,
                            size - TRAILER_SIZE - footer_offset)
    if zlib.crc32(footer) != footer_crc:
        raise ArchiveIndexError("container index failed its checksum "
                                "(truncated or corrupt footer)")
    return parse_index(footer)


def member_kind(payload: bytes) -> Tuple[int, str]:
    """Member kind + codec name for an index row (header peek only)."""
    from ..codecs import peek_envelope
    name = peek_envelope(payload)
    if name is None:
        return MEMBER_BLOB, ""
    return MEMBER_ENVELOPE, name


def verify_member(payload: bytes, member: MemberIndex) -> bytes:
    """Check a member's stored bytes against its index row.

    Returns ``payload`` unchanged on success so reads can be piped
    through the check; raises :class:`ArchiveIndexError` on length or
    CRC mismatch (a truncated or corrupted member region).
    """
    if len(payload) != member.length:
        raise ArchiveIndexError(
            f"member {member.key!r} is truncated: expected "
            f"{member.length} bytes, read {len(payload)}")
    if zlib.crc32(payload) != member.crc32:
        raise ArchiveIndexError(
            f"member {member.key!r} failed its checksum (corrupt "
            f"archive region)")
    return payload


# ----------------------------------------------------------------------
# Byte sources: uniform random access over buffers, paths and handles.
# ----------------------------------------------------------------------
class BufferSource:
    """Random access over an in-memory container."""

    def __init__(self, data: bytes):
        self._data = data

    def size(self) -> int:
        return len(self._data)

    def read_at(self, offset: int, n: int) -> bytes:
        return self._data[offset:offset + n]

    def read_all(self) -> bytes:
        return self._data

    def copy_to(self, fh: BinaryIO) -> None:
        fh.write(self._data)


class FileSource:
    """Random access over a container file path.

    Stateless — every read opens, seeks and closes — so sources are
    trivially safe to share across executor workers and never leak
    descriptors on long-lived archives.
    """

    CHUNK = 1 << 20

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)

    def size(self) -> int:
        return os.stat(self.path).st_size

    def read_at(self, offset: int, n: int) -> bytes:
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            return fh.read(n)

    def read_all(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    def copy_to(self, fh: BinaryIO) -> None:
        with open(self.path, "rb") as src:
            while True:
                chunk = src.read(self.CHUNK)
                if not chunk:
                    break
                fh.write(chunk)


class FileObjSource:
    """Random access over an open seekable binary handle.

    The handle is borrowed, not owned; reads seek it.  This is the
    instrumentation seam: wrap the handle in :class:`CountingReader`
    to measure exactly how many bytes an operation touches.
    """

    def __init__(self, fh):
        self._fh = fh

    def size(self) -> int:
        pos = self._fh.tell()
        self._fh.seek(0, os.SEEK_END)
        end = self._fh.tell()
        self._fh.seek(pos)
        return end

    def read_at(self, offset: int, n: int) -> bytes:
        self._fh.seek(offset)
        return self._fh.read(n)

    def read_all(self) -> bytes:
        return self.read_at(0, self.size())

    def copy_to(self, fh: BinaryIO) -> None:
        fh.write(self.read_all())


def as_source(obj) -> Union[BufferSource, FileSource, FileObjSource]:
    """Normalize bytes / path / seekable handle into a byte source."""
    if isinstance(obj, (BufferSource, FileSource, FileObjSource)):
        return obj
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return BufferSource(bytes(obj))
    if hasattr(obj, "read") and hasattr(obj, "seek"):
        return FileObjSource(obj)
    return FileSource(obj)


class CountingReader:
    """Seekable binary-handle wrapper that counts bytes actually read.

    Used by the benches and tests to assert the partial-decode byte
    contract: reading one member of an indexed archive must touch
    O(footer + selected member) bytes, not the whole file.
    """

    def __init__(self, fh):
        self._fh = fh
        self.bytes_read = 0
        self.reads = 0

    def read(self, n: int = -1) -> bytes:
        data = self._fh.read(n)
        self.bytes_read += len(data)
        self.reads += 1
        return data

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._fh.seek(offset, whence)

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CountingReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
