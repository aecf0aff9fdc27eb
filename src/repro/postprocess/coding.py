"""Entropy coding of correction payloads (quantized coefficients).

A self-describing, self-delimiting integer codec: a compact histogram
header plus an entropy-coded body.  Used for PCA coefficient values,
kept-index lists, per-block counts and escape-block residuals —
everything in the ``G`` term of Eq. 11 goes through here, so its size
accounting is honest bytes, not estimates.

The body coder is pluggable (:mod:`repro.entropy.backend`): payloads
written with the default arithmetic backend keep the legacy ``RI``
magic byte-for-byte; any other backend writes ``RT`` plus the
backend's one-byte wire tag, so :func:`decode_ints` self-selects the
decoder with no caller hints — which is how every baseline codec in
the repo gains backend choice without touching its own format.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ..entropy.backend import (DEFAULT_BACKEND, backend_from_tag,
                               get_backend)
from ..entropy.coder import EntropyDecodeError, pmf_to_cumulative

__all__ = ["encode_ints", "decode_ints"]

_MAGIC = b"RI"
_VARINT_MAGIC = b"RV"
_TAGGED_MAGIC = b"RT"  # + one backend tag byte, then the _MAGIC layout
_HEADER = "<IqiI"  # count, vmin, alphabet, body length
_HEADER_SIZE = struct.calcsize(_HEADER)
_VARINT_HEADER_SIZE = len(_VARINT_MAGIC) + 4  # magic, count

#: Above this alphabet size the histogram header would dominate; fall
#: back to zigzag varints (used by rare escape blocks with huge ranges).
_MAX_HISTOGRAM_ALPHABET = 1 << 12


def _zigzag(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, 2 * v, -2 * v - 1).astype(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    one = np.uint64(1)
    return (u >> one).astype(np.int64) ^ -(u & one).astype(np.int64)


def _encode_varints(values: np.ndarray) -> bytes:
    out = bytearray(_VARINT_MAGIC)
    out += struct.pack("<I", values.size)
    for u in _zigzag(values).tolist():
        while True:
            byte = u & 0x7F
            u >>= 7
            if u:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


#: ``u`` needs ``1 + searchsorted(_VARINT_STEPS, u, "right")`` varint
#: bytes: one more for every 7 bits past the first 7.
_VARINT_STEPS = np.array([1 << (7 * j) for j in range(1, 10)],
                         dtype=np.uint64)


def _varint_size(values: np.ndarray) -> int:
    """Length of :func:`_encode_varints` ``(values)``, in closed form."""
    steps = np.searchsorted(_VARINT_STEPS, _zigzag(values), side="right")
    return _VARINT_HEADER_SIZE + values.size + int(steps.sum())


def _decode_varints(data: bytes, offset: int) -> Tuple[np.ndarray, int]:
    pos = offset + _VARINT_HEADER_SIZE
    if pos > len(data):
        raise EntropyDecodeError("corrupted varint payload: truncated "
                                 "header")
    n, = struct.unpack_from("<I", data, pos - 4)
    if n > len(data) - pos:  # every varint takes at least one byte
        raise EntropyDecodeError(
            f"corrupted varint payload: {n} values cannot fit in "
            f"{len(data) - pos} bytes")
    vals = np.empty(n, dtype=np.uint64)
    for i in range(n):
        u, shift = 0, 0
        while True:
            if pos >= len(data):
                raise EntropyDecodeError(
                    "corrupted varint payload: truncated")
            byte = data[pos]
            pos += 1
            u |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        if u >> 64:
            raise EntropyDecodeError(
                "corrupted varint payload: value exceeds 64 bits")
        vals[i] = u
    return _unzigzag(vals), pos


def encode_ints(values: np.ndarray, backend=None) -> bytes:
    """Encode an integer array into a self-delimiting byte payload.

    Layout: magic, count, vmin, alphabet size, body length, 32-bit
    histogram, entropy-coded body.  The histogram header is the
    price of adaptivity; for the small alphabets of quantized residual
    coefficients it is a few dozen bytes.  ``backend`` selects the
    body coder (``None`` uses the calling thread's default); the arithmetic
    default keeps the legacy wire format byte-for-byte.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    n = values.size
    if n == 0:
        return _MAGIC + struct.pack(_HEADER, 0, 0, 0, 0)
    coder = get_backend(backend)
    vmin = int(values.min())
    vmax = int(values.max())
    alphabet = vmax - vmin + 1
    if alphabet > _MAX_HISTOGRAM_ALPHABET:
        return _encode_varints(values)
    symbols = values - vmin
    hist = np.bincount(symbols, minlength=alphabet).astype(np.int64)
    if alphabet == 1:
        body = b""
    else:
        tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
        body = coder.encode(symbols, tables, np.zeros(n, dtype=np.int64))
    if coder.name == DEFAULT_BACKEND:
        header = _MAGIC
    else:
        header = _TAGGED_MAGIC + struct.pack("<B", coder.tag)
    header += struct.pack(_HEADER, n, vmin, alphabet, len(body))
    header += hist.astype("<u4").tobytes()
    coded = header + body
    # The histogram header can dominate small payloads; keep whichever
    # representation is actually smaller (magic bytes disambiguate).
    if len(coded) <= _varint_size(values):
        return coded
    return _encode_varints(values)


def decode_ints(data: bytes, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode one :func:`encode_ints` payload starting at ``offset``.

    Returns ``(values, next_offset)`` so multiple payloads can be
    concatenated back to back.  The body decoder is chosen by the
    payload itself: legacy ``RI`` payloads are arithmetic, ``RT``
    payloads carry a one-byte backend tag.

    Raises :class:`~repro.entropy.coder.EntropyDecodeError` when the
    header does not describe a payload that fits in ``data`` or the
    decoded symbols do not reproduce the header's histogram.
    """
    magic = data[offset:offset + 2]
    if magic == _VARINT_MAGIC:
        return _decode_varints(data, offset)
    if magic == _TAGGED_MAGIC:
        pos = offset + 3
    elif magic == _MAGIC:
        pos = offset + 2
    else:
        raise EntropyDecodeError("corrupted payload: bad magic")
    if pos + _HEADER_SIZE > len(data):
        raise EntropyDecodeError("corrupted payload: truncated header")
    coder = (backend_from_tag(data[offset + 2]) if magic == _TAGGED_MAGIC
             else get_backend(DEFAULT_BACKEND))
    n, vmin, alphabet, body_len = struct.unpack_from(_HEADER, data, pos)
    pos += _HEADER_SIZE
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
    tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
    symbols = coder.decode(data[pos:end], tables,
                           np.zeros(n, dtype=np.int64))
    if not np.array_equal(np.bincount(symbols, minlength=alphabet), hist):
        raise EntropyDecodeError(
            "corrupted payload: decoded symbols do not match the "
            "header histogram")
    return symbols + vmin, end
