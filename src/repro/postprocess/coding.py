"""Entropy coding of correction payloads (quantized coefficients).

A self-describing, self-delimiting integer codec: a compact histogram
header plus an entropy-coded body.  Used for PCA coefficient values,
kept-index lists, per-block counts and escape-block residuals —
everything in the ``G`` term of Eq. 11 goes through here, so its size
accounting is honest bytes, not estimates.

Every header field and every histogram count is an unsigned LEB128
varint, so a stream of a few dozen small symbols pays a few bytes of
header rather than a fixed 22 plus four per histogram bin.  Three
magics are written: ``Ri`` (arithmetic body), ``Rt`` plus the
backend's one-byte wire tag (any other :mod:`repro.entropy.backend`
coder), and ``Rv`` (zigzag varints, when those are no longer than the
coded form).  :func:`decode_ints` self-selects the decoder from the
magic with no caller hints — which is how every baseline codec in the
repo gains backend choice without touching its own format.  The
fixed-width forms ``RI``/``RT``/``RV`` of earlier versions are read,
never written.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ..entropy.backend import (DEFAULT_BACKEND, backend_from_tag,
                               get_backend)
from ..entropy.coder import EntropyDecodeError, pmf_to_cumulative

__all__ = ["encode_ints", "decode_ints", "estimate_encoded_size",
           "check_header_float", "ESTIMATE_ERROR_BYTES", "PAYLOAD_FORMAT"]

#: Names the bytes :func:`encode_ints` writes.  Anything that caches or
#: journals encoded payloads keys on it, so output written under an
#: earlier format is never spliced into a new archive.
PAYLOAD_FORMAT = "ints-leb128"

_MAGIC = b"Ri"
_TAGGED_MAGIC = b"Rt"  # + one backend tag byte, then the _MAGIC layout
_VARINT_MAGIC = b"Rv"

# read-only fixed-width forms
_LEGACY_MAGIC = b"RI"
_LEGACY_TAGGED_MAGIC = b"RT"
_LEGACY_VARINT_MAGIC = b"RV"
_LEGACY_HEADER = "<IqiI"  # count, vmin, alphabet, body length
_LEGACY_HEADER_SIZE = struct.calcsize(_LEGACY_HEADER)
_LEGACY_VARINT_HEADER_SIZE = len(_LEGACY_VARINT_MAGIC) + 4

#: Above this alphabet size the histogram header would dominate; fall
#: back to zigzag varints (used by rare escape blocks with huge ranges).
_MAX_HISTOGRAM_ALPHABET = 1 << 12
#: The count field's range (the fixed-width header's u32).
_MAX_COUNT = (1 << 32) - 1
#: A uint64 needs at most ten LEB128 bytes.
_MAX_VARINT_BYTES = 10
_INT64_MAX = (1 << 63) - 1
#: Below this many varints a Python loop parses faster than numpy.
_SMALL_READ = 64


def _zigzag(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, 2 * v, -2 * v - 1).astype(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    one = np.uint64(1)
    return (u >> one).astype(np.int64) ^ -(u & one).astype(np.int64)


#: ``u`` needs ``1 + searchsorted(_VARINT_STEPS, u, "right")`` varint
#: bytes: one more for every 7 bits past the first 7.
_VARINT_STEPS = np.array([1 << (7 * j) for j in range(1, 10)],
                         dtype=np.uint64)
_SHIFTS = np.arange(0, 7 * _MAX_VARINT_BYTES, 7, dtype=np.uint64)


def _varint_lengths(u: np.ndarray) -> np.ndarray:
    return 1 + np.searchsorted(_VARINT_STEPS, u, side="right")


def _uvarint(x: int) -> bytes:
    out = bytearray()
    while x > 0x7F:
        out.append(x & 0x7F | 0x80)
        x >>= 7
    out.append(x)
    return bytes(out)


def _leb128(u: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenated LEB128 bytes of ``u`` (uint64), whose encoded
    lengths are ``lengths``."""
    width = int(lengths.max())
    groups = ((u[:, None] >> _SHIFTS[:width]) & np.uint64(0x7F)
              ).astype(np.uint8)
    col = np.arange(width)
    groups[col < lengths[:, None] - 1] |= 0x80
    return groups[col < lengths[:, None]].tobytes()


def _read_varints(data: bytes, pos: int, count: int
                  ) -> Tuple[np.ndarray, int]:
    """``count`` consecutive varints at ``pos``, as uint64."""
    head = data[pos:pos + count]
    if len(head) == count and (not count or max(head) < 0x80):
        # one byte each: the common case for histogram counts
        return (np.frombuffer(head, dtype=np.uint8).astype(np.uint64),
                pos + count)
    if count <= _SMALL_READ:
        values = []
        u = shift = used = 0
        for byte in data[pos:pos + _MAX_VARINT_BYTES * count]:
            used += 1
            u |= (byte & 0x7F) << shift
            if byte >= 0x80:
                shift += 7
                if shift == 7 * _MAX_VARINT_BYTES:
                    break
                continue
            values.append(u)
            if len(values) == count:
                break
            u = shift = 0
        if shift == 7 * _MAX_VARINT_BYTES:
            raise EntropyDecodeError(
                f"corrupted payload: varint longer than "
                f"{_MAX_VARINT_BYTES} bytes")
        if len(values) < count:
            raise EntropyDecodeError("corrupted payload: truncated varint")
        if max(values) >> 64:
            raise EntropyDecodeError(
                "corrupted payload: varint exceeds 64 bits")
        return np.array(values, dtype=np.uint64), pos + used
    avail = min(len(data) - pos, _MAX_VARINT_BYTES * count)
    window = np.frombuffer(data, dtype=np.uint8, count=max(avail, 0),
                           offset=min(pos, len(data)))
    ends = np.flatnonzero(window < 0x80)[:count]
    if ends.size < count:
        raise EntropyDecodeError(
            f"corrupted payload: {count} varints do not fit in "
            f"{max(avail, 0)} bytes")
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends + 1 - starts
    if lengths.max() > _MAX_VARINT_BYTES:
        raise EntropyDecodeError(
            f"corrupted payload: varint longer than "
            f"{_MAX_VARINT_BYTES} bytes")
    stop = int(ends[-1]) + 1
    place = np.arange(stop) - np.repeat(starts, lengths)
    groups = window[:stop] & 0x7F
    if (groups[place == _MAX_VARINT_BYTES - 1] > 1).any():
        raise EntropyDecodeError(
            "corrupted payload: varint exceeds 64 bits")
    parts = groups.astype(np.uint64) << _SHIFTS[place]
    return np.bitwise_or.reduceat(parts, starts), pos + stop


def _encode_varints(zigzag: np.ndarray, lengths: np.ndarray) -> bytes:
    return (_VARINT_MAGIC + _uvarint(zigzag.size)
            + _leb128(zigzag, lengths))


def _varint_size(lengths: np.ndarray) -> int:
    """Length of the varint form of values whose zigzag varints take
    ``lengths`` bytes."""
    return (len(_VARINT_MAGIC) + len(_uvarint(lengths.size))
            + int(lengths.sum()))


def _head(magic: bytes, n: int, vmin: int, alphabet: int) -> bytes:
    """Magic, count, zigzag ``vmin`` and alphabet of a coded form."""
    return (magic + _uvarint(n) + _uvarint(2 * vmin if vmin >= 0
                                           else -2 * vmin - 1)
            + _uvarint(alphabet))


#: Bytes the arithmetic coder writes beyond its model's cost of the
#: input (termination and padding to a byte), for
#: :func:`estimate_encoded_size`.
_BODY_SLACK_BYTES = 1

#: :func:`estimate_encoded_size` is within this many bytes of the
#: length of every default-backend :func:`encode_ints` stream.
ESTIMATE_ERROR_BYTES = 2


def estimate_encoded_size(values: np.ndarray) -> int:
    """Length of :func:`encode_ints` ``(values)``, without coding it.

    Headers, histograms and the varint fallback are sized exactly; the
    arithmetic-coded body is its cost under the quantized frequency
    table the coder uses, plus the coder's termination byte, so the
    estimate is within :data:`ESTIMATE_ERROR_BYTES` of the length.
    Callers that choose between candidate payloads use this to code
    only the one they keep.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    n = values.size
    varint = _varint_size(_varint_lengths(_zigzag(values)))
    if n == 0:
        return varint
    vmin = int(values.min())
    alphabet = int(values.max()) - vmin + 1
    if alphabet > _MAX_HISTOGRAM_ALPHABET:
        return varint
    hist = np.bincount(values - vmin, minlength=alphabet)
    body = 0
    if alphabet > 1:
        cum = pmf_to_cumulative(hist[None, :].astype(np.float64))[0]
        bits = float(hist @ (np.log2(cum[-1]) - np.log2(np.diff(cum))))
        body = int(np.ceil(bits / 8.0)) + _BODY_SLACK_BYTES
    coded = (len(_head(_MAGIC, n, vmin, alphabet))
             + int(_varint_lengths(hist.astype(np.uint64)).sum())
             + len(_uvarint(body)) + body)
    return min(coded, varint)


def encode_ints(values: np.ndarray, backend=None) -> bytes:
    """Encode an integer array into a self-delimiting byte payload.

    Layout: magic, then varints for the count, zigzag ``vmin``,
    alphabet size, body length and every histogram count, then the
    entropy-coded body — or, when that is no shorter, magic, count and
    zigzag varints of the values.  ``backend`` selects the body coder
    (``None`` uses the calling thread's default).
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    n = values.size
    if n == 0:
        return _VARINT_MAGIC + _uvarint(0)
    zigzag = _zigzag(values)
    lengths = _varint_lengths(zigzag)
    varint = _varint_size(lengths)
    vmin = int(values.min())
    alphabet = int(values.max()) - vmin + 1
    if alphabet > _MAX_HISTOGRAM_ALPHABET:
        return _encode_varints(zigzag, lengths)
    coder = get_backend(backend)
    magic = (_MAGIC if coder.name == DEFAULT_BACKEND
             else _TAGGED_MAGIC + bytes([coder.tag]))
    head = _head(magic, n, vmin, alphabet)
    hist = np.bincount(values - vmin, minlength=alphabet).astype(np.uint64)
    hist_lengths = _varint_lengths(hist)
    # a coded body takes at least one byte (none for one symbol), so a
    # header already longer than the varint form rules coding out
    # without changing which form is written
    least_body = 0 if alphabet == 1 else 1
    if len(head) + 1 + int(hist_lengths.sum()) + least_body > varint:
        return _encode_varints(zigzag, lengths)
    if alphabet == 1:
        body = b""
    else:
        tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
        body = coder.encode(values - vmin, tables,
                            np.zeros(n, dtype=np.int64))
    coded = b"".join((head, _uvarint(len(body)),
                      _leb128(hist, hist_lengths), body))
    if len(coded) <= varint:
        return coded
    return _encode_varints(zigzag, lengths)


def decode_ints(data: bytes, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode one :func:`encode_ints` payload starting at ``offset``.

    Returns ``(values, next_offset)`` so multiple payloads can be
    concatenated back to back.  The body decoder is chosen by the
    payload itself: ``Ri`` payloads are arithmetic, ``Rt`` payloads
    carry a one-byte backend tag, ``Rv`` payloads are varints; the
    fixed-width ``RI``/``RT``/``RV`` forms decode as they always have.

    Raises :class:`~repro.entropy.coder.EntropyDecodeError` when the
    header does not describe a payload that fits in ``data`` or the
    decoded symbols do not reproduce the header's histogram.
    """
    magic = data[offset:offset + 2]
    if magic == _VARINT_MAGIC:
        count, pos = _read_varints(data, offset + 2, 1)
        return _decode_varint_values(data, pos, int(count[0]))
    if magic == _MAGIC:
        return _decode_coded(data, offset + 2, get_backend(DEFAULT_BACKEND))
    if magic == _TAGGED_MAGIC:
        return _decode_coded(data, offset + 3, _tagged_backend(data, offset))
    return _decode_legacy(data, offset, magic)


def check_header_float(value: float, field: str,
                       upper: float = float("inf")) -> None:
    """Refuse ``value``, a float read from a payload header, unless it
    lies in ``(0, upper)``.

    Every rule-based decoder scales its decoded integers by an error
    bound or quantizer step from its header.  A value its encoder
    refuses (non-finite or not positive; a ratio outside (0, 1)) would
    decode to a non-finite or wrong array with no error, so it raises
    :class:`~repro.entropy.coder.EntropyDecodeError` before any decode
    work instead.
    """
    if not 0.0 < value < upper:     # NaN fails every comparison
        raise EntropyDecodeError(
            f"corrupted payload: header {field} {value!r} is not in "
            f"(0, {upper:g})")


def _tagged_backend(data: bytes, offset: int):
    """The backend named by the tag byte after a two-byte magic."""
    if offset + 2 >= len(data):
        raise EntropyDecodeError("corrupted payload: truncated header")
    try:
        return backend_from_tag(data[offset + 2])
    except ValueError as exc:
        raise EntropyDecodeError(f"corrupted payload: {exc}") from None


def _decode_varint_values(data: bytes, pos: int,
                          n: int) -> Tuple[np.ndarray, int]:
    """``n`` zigzag varints at ``pos`` (the body of either varint
    form)."""
    # every varint takes at least one byte
    limit = min(_MAX_COUNT, len(data) - pos)
    if n > limit:
        raise EntropyDecodeError(
            f"corrupted varint payload: {n} values, at most {limit} fit")
    zigzag, pos = _read_varints(data, pos, n)
    return _unzigzag(zigzag), pos


def _decode_coded(data: bytes, pos: int, coder) -> Tuple[np.ndarray, int]:
    """The ``Ri``/``Rt`` layout after the magic (and tag)."""
    fields, pos = _read_varints(data, pos, 4)
    n, zigzag, alphabet, body_len = fields.tolist()
    if n > _MAX_COUNT:
        raise EntropyDecodeError(
            f"corrupted payload: count {n} exceeds {_MAX_COUNT}")
    if not 1 <= alphabet <= _MAX_HISTOGRAM_ALPHABET:
        raise EntropyDecodeError(
            f"corrupted payload: alphabet {alphabet} outside "
            f"[1, {_MAX_HISTOGRAM_ALPHABET}]")
    vmin = (zigzag >> 1) ^ -(zigzag & 1)
    if vmin + alphabet - 1 > _INT64_MAX:
        raise EntropyDecodeError(
            "corrupted payload: symbol range exceeds int64")
    hist, pos = _read_varints(data, pos, alphabet)
    end = pos + body_len
    if end > len(data):
        raise EntropyDecodeError(
            f"corrupted payload: body ends at {end}, past the "
            f"{len(data)} bytes available")
    if int(hist.max()) > n or int(hist.sum()) != n:
        raise EntropyDecodeError(
            f"corrupted payload: histogram does not sum to count {n}")
    hist = hist.astype(np.int64)
    if alphabet == 1:
        if body_len:
            raise EntropyDecodeError(
                "corrupted payload: a one-symbol stream has a body")
        return np.full(n, vmin, dtype=np.int64), end
    return _decode_body(data, pos, end, hist, vmin, coder), end


def _decode_body(data: bytes, pos: int, end: int, hist: np.ndarray,
                 vmin: int, coder) -> np.ndarray:
    tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
    symbols = coder.decode(data[pos:end], tables,
                           np.zeros(int(hist.sum()), dtype=np.int64))
    if not np.array_equal(np.bincount(symbols, minlength=hist.size),
                          hist):
        raise EntropyDecodeError(
            "corrupted payload: decoded symbols do not match the "
            "header histogram")
    return symbols + vmin


# -- fixed-width forms (read only) ---------------------------------------
def _decode_legacy(data: bytes, offset: int,
                   magic: bytes) -> Tuple[np.ndarray, int]:
    if magic == _LEGACY_VARINT_MAGIC:
        return _decode_legacy_varints(data, offset)
    if magic == _LEGACY_TAGGED_MAGIC:
        pos = offset + 3
    elif magic == _LEGACY_MAGIC:
        pos = offset + 2
    else:
        raise EntropyDecodeError("corrupted payload: bad magic")
    if pos + _LEGACY_HEADER_SIZE > len(data):
        raise EntropyDecodeError("corrupted payload: truncated header")
    coder = (_tagged_backend(data, offset)
             if magic == _LEGACY_TAGGED_MAGIC
             else get_backend(DEFAULT_BACKEND))
    n, vmin, alphabet, body_len = struct.unpack_from(_LEGACY_HEADER, data,
                                                     pos)
    pos += _LEGACY_HEADER_SIZE
    if n == 0:
        if vmin or alphabet or body_len:
            raise EntropyDecodeError(
                "corrupted payload: empty payload with a nonzero header")
        return np.zeros(0, dtype=np.int64), pos
    if not 1 <= alphabet <= _MAX_HISTOGRAM_ALPHABET:
        raise EntropyDecodeError(
            f"corrupted payload: alphabet {alphabet} outside "
            f"[1, {_MAX_HISTOGRAM_ALPHABET}]")
    end = pos + 4 * alphabet + body_len
    if end > len(data):
        raise EntropyDecodeError(
            f"corrupted payload: needs {end - offset} bytes, "
            f"{len(data) - offset} available")
    hist = np.frombuffer(data, dtype="<u4", count=alphabet,
                         offset=pos).astype(np.int64)
    pos += 4 * alphabet
    if int(hist.sum()) != n:
        raise EntropyDecodeError(
            f"corrupted payload: count {n} != histogram total "
            f"{hist.sum()}")
    if alphabet == 1:
        return np.full(n, vmin, dtype=np.int64), pos
    return _decode_body(data, pos, end, hist, vmin, coder), end


def _decode_legacy_varints(data: bytes,
                           offset: int) -> Tuple[np.ndarray, int]:
    pos = offset + _LEGACY_VARINT_HEADER_SIZE
    if pos > len(data):
        raise EntropyDecodeError("corrupted varint payload: truncated "
                                 "header")
    n, = struct.unpack_from("<I", data, pos - 4)
    return _decode_varint_values(data, pos, n)
