"""Read-only access to the multi-member layouts of earlier releases.

Every multi-member archive is now a ``SHRD`` v2 shard archive
(:mod:`repro.pipeline.plan`).  Three older layouts stay readable:

* ``LDMV`` v1–3, multi-variable archives: ``u8`` version and ``u32``
  count, then per member a ``u8``-prefixed name, an entry-kind byte
  (v2+), a ``u32`` length and the payload; v3 appends a ``RIX1``
  footer;
* ``LDSA`` v1–2, stream archives: ``u8`` version, ``u32`` count and a
  ``u32`` original dtype size, then per chunk an entry-kind byte and,
  for envelopes, the chunk's ``(T, H, W)`` (v2 only), a ``u32`` length
  and the payload; v1 holds pipeline blobs only;
* ``SHRD`` v1, the shard archive before the footer.

Nothing here writes.  Each layout turns into the
:class:`~repro.pipeline.container.MemberIndex` rows a ``SHRD`` v2
footer would hold, so selection, verification, decoding and assembly
run the one path the current format uses:

* a multi-variable member is a *named* row: ``key`` is its name,
  ``variable`` its position, ``t0 == t1 == 0``;
* a stream chunk is a timed row keyed like a sharded stack's member
  (``stack/v0/t0000-0004``), with ``variable`` 0 and the chunk's frame
  range, whose length comes from the envelope shape (v2) or from the
  pipeline blob's header (v1);
* a ``SHRD`` v1 member keeps its stored id and geometry.

Rows of scanned layouts carry the CRC-32 of the bytes as scanned (the
layouts stored none), so only ``LDMV`` v3 rows detect damage.  Any
malformed header or entry raises
:class:`~repro.pipeline.container.ArchiveIndexError`.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from typing import Iterator, List, Tuple

from .container import (MEMBER_BLOB, MEMBER_ENVELOPE, ArchiveIndexError,
                        MemberIndex, as_source, member_kind, read_index)

__all__ = ["LEGACY_KINDS", "container_layout", "has_footer",
           "read_legacy_index"]

#: archive kind each legacy-only magic sniffs as
LEGACY_KINDS = {b"LDMV": "multivar", b"LDSA": "stream"}

#: fixed header after the magic of each multi-member layout (the first
#: two fields are always version and member count)
_HEADS = {b"SHRD": "<HI", b"LDMV": "<BI", b"LDSA": "<BII"}
_VERSIONS = {b"SHRD": (1, 2), b"LDMV": (1, 2, 3), b"LDSA": (1, 2)}
#: layouts whose rows come from a ``RIX1`` footer
_FOOTERS = {(b"SHRD", 2), (b"LDMV", 3)}
_HEAD_READ = 4 + max(struct.calcsize(f) for f in _HEADS.values())
_BLOB_MAGIC = b"LDCB"

#: one scanned entry: key, kind (None: sniff the payload), variable,
#: t0, t1, payload offset, payload length
_Entry = Tuple[str, int, int, int, int, int, int]


def container_layout(source) -> Tuple[bytes, int, int]:
    """``(magic, version, member count)`` of a multi-member container,
    from one read of its fixed header."""
    head = as_source(source).read_at(0, _HEAD_READ)
    magic = bytes(head[:4])
    fmt = _HEADS.get(magic)
    if fmt is None:
        raise ValueError(f"not a shard archive (bad magic {magic!r})")
    size = 4 + struct.calcsize(fmt)
    if len(head) < size:
        raise ArchiveIndexError(
            f"{magic.decode()} container is truncated below its "
            f"{size}-byte fixed header ({len(head)} bytes)")
    version, count = struct.unpack_from(fmt, head, 4)[:2]
    if version not in _VERSIONS[magic]:
        raise ArchiveIndexError(
            f"unsupported {magic.decode()} container version {version}")
    return magic, version, count


def has_footer(source) -> bool:
    """Whether a multi-member container's rows come from a footer."""
    return container_layout(source)[:2] in _FOOTERS


def read_legacy_index(source) -> List[MemberIndex]:
    """Member rows of an ``LDMV`` v1–3, ``LDSA`` v1–2 or ``SHRD`` v1
    container (see the module docstring for the row conventions)."""
    source = as_source(source)
    magic, version, count = container_layout(source)
    if (magic, version) == (b"LDMV", 3):
        members = read_index(source)
        if members is None:
            raise ArchiveIndexError(
                "LDMV v3 container is missing its footer index "
                "(truncated file?)")
        if len(members) != count:
            raise ArchiveIndexError(
                f"LDMV header promises {count} members but the footer "
                f"indexes {len(members)}")
        return [dataclasses.replace(m, variable=i)
                for i, m in enumerate(members)]
    data = source.read_all()
    scan = {b"SHRD": _shard_v1, b"LDMV": _multivar,
            b"LDSA": _stream}[magic]
    try:
        return [_row(data, *entry) for entry in scan(data, version, count)]
    except (struct.error, UnicodeDecodeError) as exc:
        raise ArchiveIndexError(
            f"truncated or corrupt {magic.decode()} v{version} "
            f"container ({exc})") from None


def _row(data: bytes, key: str, kind, variable: int, t0: int, t1: int,
         offset: int, length: int) -> MemberIndex:
    payload = data[offset:offset + length]
    if len(payload) != length:
        raise ArchiveIndexError(
            f"member {key!r} is truncated: expected {length} bytes, "
            f"found {len(payload)}")
    sniffed, codec = member_kind(payload)
    if kind is None:
        kind = sniffed
    elif kind not in (MEMBER_BLOB, MEMBER_ENVELOPE):
        raise ArchiveIndexError(f"member {key!r} has unknown entry "
                                f"kind {kind}")
    return MemberIndex(key=key, kind=kind,
                       codec=codec if kind == MEMBER_ENVELOPE else "",
                       variable=variable, t0=t0, t1=t1, offset=offset,
                       length=length, crc32=zlib.crc32(payload))


def _shard_v1(data: bytes, version: int, count: int) -> Iterator[_Entry]:
    pos = 4 + struct.calcsize(_HEADS[b"SHRD"])
    for _ in range(count):
        slen, = struct.unpack_from("<H", data, pos)
        key = data[pos + 2:pos + 2 + slen].decode()
        pos += 2 + slen
        variable, t0, t1, n = struct.unpack_from("<IIIQ", data, pos)
        pos += struct.calcsize("<IIIQ")
        yield key, None, variable, t0, t1, pos, n
        pos += n


def _multivar(data: bytes, version: int, count: int) -> Iterator[_Entry]:
    pos = 4 + struct.calcsize(_HEADS[b"LDMV"])
    for position in range(count):
        tlen, = struct.unpack_from("<B", data, pos)
        name = data[pos + 1:pos + 1 + tlen].decode()
        pos += 1 + tlen
        kind = MEMBER_BLOB
        if version >= 2:
            kind, = struct.unpack_from("<B", data, pos)
            pos += 1
        n, = struct.unpack_from("<I", data, pos)
        pos += 4
        yield name, kind, position, 0, 0, pos, n
        pos += n


def _stream(data: bytes, version: int, count: int) -> Iterator[_Entry]:
    pos = 4 + struct.calcsize(_HEADS[b"LDSA"])
    t = 0
    for _ in range(count):
        kind, frames = MEMBER_BLOB, None
        if version >= 2:
            kind, = struct.unpack_from("<B", data, pos)
            pos += 1
            if kind == MEMBER_ENVELOPE:
                frames, = struct.unpack_from("<I", data, pos)
                pos += struct.calcsize("<III")
        n, = struct.unpack_from("<I", data, pos)
        pos += 4
        if frames is None:
            # a pipeline blob's header: magic, u8 version, u32 T, ...
            if data[pos:pos + 4] != _BLOB_MAGIC:
                raise ArchiveIndexError(
                    f"stream chunk at byte {pos} is not a pipeline blob")
            frames, = struct.unpack_from("<I", data, pos + 5)
        if frames < 1:
            raise ArchiveIndexError(f"stream chunk at byte {pos} holds "
                                    f"no frames")
        yield (f"stack/v0/t{t:04d}-{t + frames:04d}", kind, 0, t,
               t + frames, pos, n)
        t += frames
        pos += n
