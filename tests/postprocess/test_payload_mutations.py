"""Corrupted :func:`encode_ints` payloads raise typed errors.

Every legacy mutation below once decoded to wrong values with no
error, or failed with an untyped numpy/struct/index error, or
allocated from an unchecked count; they run against the frozen
fixed-width ``RI``/``RV`` fixtures.  The compact mutations corrupt
each varint field of the ``Ri``/``Rt``/``Rv`` forms written today.
Each must raise :class:`~repro.entropy.coder.EntropyDecodeError`.
"""

import struct

import numpy as np
import pytest

from repro.entropy.coder import EntropyDecodeError
from repro.postprocess.coding import decode_ints, encode_ints

from .test_legacy_payloads import legacy_bytes

VALUES = np.rint(np.random.default_rng(13).laplace(0.0, 3.0, 4000)
                 ).astype(np.int64)
VARINT_VALUES = [0, 10_000_000, -123456, 42]

# -- fixed-width forms (read only) ----------------------------------------
PAYLOAD = legacy_bytes("ints-RI")  # VALUES, arithmetic ``RI``
_HEADER = "<IqiI"  # count, vmin, alphabet, body length; after the magic
COUNT, ALPHABET, BODY_LEN = 2, 14, 18  # header field offsets
_, _, _ALPHABET, _BODY_LEN = struct.unpack_from(_HEADER, PAYLOAD, 2)
BODY = 2 + struct.calcsize(_HEADER) + 4 * _ALPHABET
VARINTS = legacy_bytes("ints-RV")  # VARINT_VALUES


def _set(data: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def _add_count(k: int):
    def mutate(p):
        n, = struct.unpack_from("<I", p, COUNT)
        return _set(p, COUNT, "<I", n + k)
    return mutate


def _flip(bit: int):
    def mutate(p):
        out = bytearray(p)
        out[BODY + bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(out)
    return mutate


MUTATIONS = {
    "body-truncated-by-one": lambda p: p[:-1],
    "body-truncated-by-half": lambda p: p[:BODY + _BODY_LEN // 2],
    "histogram-truncated": lambda p: p[:BODY - 8],
    "header-truncated": lambda p: p[:10],
    "tagged-header-truncated": lambda p: b"RT",
    "count-plus-1": _add_count(1),
    "count-minus-1": _add_count(-1),
    "count-plus-k": _add_count(997),
    "count-minus-k": _add_count(-997),
    "count-zero": lambda p: _set(p, COUNT, "<I", 0),
    "alphabet-minus-one": lambda p: _set(p, ALPHABET, "<i", -1),
    "alphabet-zero": lambda p: _set(p, ALPHABET, "<i", 0),
    "alphabet-over-limit": lambda p: _set(p, ALPHABET, "<i", 4097),
    "alphabet-plus-one": lambda p: _set(p, ALPHABET, "<i", _ALPHABET + 1),
    "body-length-past-end": lambda p: _set(p, BODY_LEN, "<I",
                                           _BODY_LEN + 1),
    "body-bit-0-flipped": _flip(0),
    "body-bit-9-flipped": _flip(9),
    "body-bit-mid-flipped": _flip(4 * _BODY_LEN),
    "body-bit-late-flipped": _flip(8 * _BODY_LEN - 64),
    "bad-magic": lambda p: b"XX" + p[2:],
    "tagged-unknown-backend": lambda p: b"RT\x63" + p[2:],
    "varint-count-inflated": lambda p: _set(VARINTS, 2, "<I", 0xFFFFFFFF),
    "varint-truncated": lambda p: VARINTS[:-1],
    "varint-header-truncated": lambda p: VARINTS[:4],
    "varint-over-64-bits": lambda p: (b"RV" + struct.pack("<I", 1)
                                      + b"\xff" * 9 + b"\x7f"),
}


def test_unmutated_payloads_decode():
    values, end = decode_ints(PAYLOAD)
    np.testing.assert_array_equal(values, VALUES)
    assert end == len(PAYLOAD)
    values, end = decode_ints(VARINTS)
    np.testing.assert_array_equal(values, VARINT_VALUES)
    assert end == len(VARINTS)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_payload_raises_typed_error(name):
    mutated = MUTATIONS[name](PAYLOAD)
    with pytest.raises(EntropyDecodeError):
        decode_ints(mutated)


# -- compact forms ---------------------------------------------------------
def _uvarint(x: int) -> bytes:
    out = bytearray()
    while x > 0x7F:
        out.append(x & 0x7F | 0x80)
        x >>= 7
    return bytes(out + bytes([x]))


def _fields(payload: bytes):
    """``{field: (start, stop)}`` byte spans of a ``Ri`` payload's
    header varints and histogram."""
    spans, pos = {}, 2
    for field in ("count", "vmin", "alphabet", "body"):
        start = pos
        while payload[pos] & 0x80:
            pos += 1
        pos += 1
        spans[field] = (start, pos)
    alphabet = _read(payload, spans["alphabet"])
    start = pos
    for _ in range(alphabet):
        while payload[pos] & 0x80:
            pos += 1
        pos += 1
    spans["histogram"] = (start, pos)
    return spans


def _read(payload: bytes, span) -> int:
    return sum((b & 0x7F) << (7 * i)
               for i, b in enumerate(payload[span[0]:span[1]]))


COMPACT = encode_ints(VALUES)
SPANS = _fields(COMPACT)
N = VALUES.size
HIST = SPANS["histogram"]
COMPACT_VARINTS = encode_ints(np.array(VARINT_VALUES))
WIDE = encode_ints(np.repeat(np.arange(300), 3))  # 300-bin histogram
WIDE_HIST = _fields(WIDE)["histogram"]


def _replace(field: str, value: int):
    start, stop = SPANS[field]
    return COMPACT[:start] + _uvarint(value) + COMPACT[stop:]


def _truncated_in(field: str):
    # a continuation byte, then the end of the data
    return COMPACT[:SPANS[field][0]] + b"\x80"


def _first_count_plus_one():
    out = bytearray(COMPACT)
    assert out[HIST[0]] < 0x7F  # a one-byte count stays one byte
    out[HIST[0]] += 1
    return bytes(out)


COMPACT_MUTATIONS = {
    "count-truncated": _truncated_in("count"),
    "vmin-truncated": _truncated_in("vmin"),
    "alphabet-truncated": _truncated_in("alphabet"),
    "body-length-truncated": _truncated_in("body"),
    "tag-missing": b"Rt",
    "header-ends-after-magic": b"Ri",
    "varint-11-bytes": b"Ri" + b"\x80" * 10 + b"\x00" + COMPACT[2:],
    "varint-over-64-bits": b"Ri" + b"\xff" * 9 + b"\x7f" + COMPACT[2:],
    "count-over-u32": _replace("count", 1 << 32),
    "count-plus-1": _replace("count", N + 1),
    "count-minus-1": _replace("count", N - 1),
    "alphabet-zero": _replace("alphabet", 0),
    "alphabet-4097": _replace("alphabet", 4097),
    "histogram-sum-off-by-one": _first_count_plus_one(),
    "histogram-truncated": COMPACT[:(HIST[0] + HIST[1]) // 2],
    "wide-histogram-truncated": WIDE[:(WIDE_HIST[0] + WIDE_HIST[1]) // 2],
    "body-length-past-end": _replace(
        "body", _read(COMPACT, SPANS["body"]) + 1),
    "body-truncated-by-one": COMPACT[:-1],
    "body-bit-flipped": (COMPACT[:HIST[1]]
                         + bytes([COMPACT[HIST[1]] ^ 0x80])
                         + COMPACT[HIST[1] + 1:]),
    "unknown-backend-tag": b"Rt\x63" + COMPACT[2:],
    "symbol-range-past-int64": (b"Ri" + _uvarint(2) + _uvarint(2 ** 64 - 2)
                                + _uvarint(2) + _uvarint(0)
                                + b"\x01\x01"),
    "one-symbol-stream-with-body": (b"Ri" + _uvarint(3) + _uvarint(0)
                                    + _uvarint(1) + _uvarint(1)
                                    + _uvarint(3) + b"\x00"),
    "varint-form-count-truncated": b"Rv\x80",
    "varint-form-count-over-u32": b"Rv" + _uvarint(1 << 32) + b"\x00" * 8,
    "varint-form-count-inflated": (b"Rv" + _uvarint(len(VARINT_VALUES) + 9)
                                   + COMPACT_VARINTS[3:]),
    "varint-form-truncated": COMPACT_VARINTS[:-1],
    "varint-form-11-bytes": b"Rv\x01" + b"\x80" * 10 + b"\x00",
    "varint-form-over-64-bits": b"Rv\x01" + b"\xff" * 9 + b"\x7f",
    # 100 values: parsed with numpy rather than a Python loop
    "varint-form-long-over-64-bits": (b"Rv" + _uvarint(100) + b"\x00" * 99
                                      + b"\xff" * 9 + b"\x02"),
    "varint-form-long-11-bytes": (b"Rv" + _uvarint(100) + b"\x00" * 99
                                  + b"\x80" * 10 + b"\x00"),
    "varint-form-long-truncated": (b"Rv" + _uvarint(100)
                                   + b"\x80\x01" * 99 + b"\x80"),
}


def test_compact_payloads_decode():
    assert COMPACT[:2] == b"Ri" and COMPACT_VARINTS[:2] == b"Rv"
    assert COMPACT_VARINTS[2] == len(VARINT_VALUES)
    values, end = decode_ints(COMPACT)
    np.testing.assert_array_equal(values, VALUES)
    assert end == len(COMPACT)
    assert _read(COMPACT, SPANS["count"]) == N
    values, end = decode_ints(COMPACT_VARINTS)
    np.testing.assert_array_equal(values, VARINT_VALUES)
    assert end == len(COMPACT_VARINTS)


@pytest.mark.parametrize("name", sorted(COMPACT_MUTATIONS))
def test_mutated_compact_payload_raises_typed_error(name):
    with pytest.raises(EntropyDecodeError):
        decode_ints(COMPACT_MUTATIONS[name])
