"""Corrupted :func:`encode_ints` payloads raise typed errors.

Every mutation below once decoded to wrong values with no error, or
failed with an untyped numpy/struct/index error, or allocated from an
unchecked count.  Each must now raise
:class:`~repro.entropy.coder.EntropyDecodeError`.
"""

import struct

import numpy as np
import pytest

from repro.entropy.coder import EntropyDecodeError
from repro.postprocess.coding import decode_ints, encode_ints

VALUES = np.rint(np.random.default_rng(13).laplace(0.0, 3.0, 4000)
                 ).astype(np.int64)
PAYLOAD = encode_ints(VALUES)  # an arithmetic ``RI`` payload
_HEADER = "<IqiI"  # count, vmin, alphabet, body length; after the magic
COUNT, ALPHABET, BODY_LEN = 2, 14, 18  # header field offsets
_, _, _ALPHABET, _BODY_LEN = struct.unpack_from(_HEADER, PAYLOAD, 2)
BODY = 2 + struct.calcsize(_HEADER) + 4 * _ALPHABET
VARINTS = encode_ints(np.array([0, 10_000_000, -123456, 42]))


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
    np.testing.assert_array_equal(values, [0, 10_000_000, -123456, 42])
    assert end == len(VARINTS)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_payload_raises_typed_error(name):
    mutated = MUTATIONS[name](PAYLOAD)
    with pytest.raises(EntropyDecodeError):
        decode_ints(mutated)
